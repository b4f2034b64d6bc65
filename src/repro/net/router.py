"""Seed-sticky request routing across :class:`ServingDaemon` replicas.

:class:`DaemonRouter` scales the serving tier horizontally: it fans
requests over N replicas — each with its own engine, generator, and
(optionally) warm worker pool — while preserving the tier's defining
property, **bit-identity**. The router presents the same submission
surface as a single daemon (``try_submit`` / ``submit`` / ``stats`` /
``close``), so the asyncio :class:`~repro.net.server.NetworkServer`
sits over a router exactly as it sits over one daemon.

Determinism contract
--------------------
A request's result must not depend on *which* replica served it, or on
how many replicas exist. Two rules make that hold:

* A request with an **explicit seed** can run anywhere: the replica
  pins its shard plan to ``new_rng(seed)``, so its logits are
  bit-identical to ``Session(engine, seed=seed).run(images)`` on any
  replica. Sticky routing (``seed % n_replicas``) keeps equal seeds on
  the same replica for cache affinity, but correctness never depends
  on stickiness — failover to any other replica returns the same bits.
* A **seedless** request on a *seeded* router draws a child seed from
  the router generator in arrival order (one lock-protected draw), and
  that child travels with the request as an explicit seed — so spills
  and failovers replay identically. An unseeded router simply
  round-robins seedless requests (the caller opted out of
  reproducibility, as with an unseeded daemon).

Health, eviction, re-admission
------------------------------
Failures ride the PR 6 recovery taxonomy
(:func:`repro.runtime.recovery.classify`): a replica whose request
fails **retryable** (infrastructure: broken pool, timeout, broken pipe)
is evicted from the rotation and the request is transparently
re-submitted to the next healthy replica — bounded by the replica
count, so a cluster-wide outage still surfaces the original error.
**Fatal** failures (poisoned payloads) propagate to the caller and do
not indict the replica. A background probe thread (interval from
``REPRO_ROUTER_PROBE_INTERVAL_S``) re-admits evicted replicas: when
``probe_images`` are configured it proves recovery with a real seeded
inference first (seeded probes never perturb a replica's generator);
otherwise liveness of the replica's pipeline threads suffices.

``queue-full`` is *not* a health signal: a saturated replica stays in
the rotation and the request **spills** to the next one with room,
which is what lets N replicas absorb N times the admission capacity.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.daemon import DaemonStats, ServingDaemon
from repro.runtime.env import env_float
from repro.runtime.recovery import QueueFull, classify
from repro.utils.rng import SeedLike, new_rng

#: Explicit seed used by health-probe inferences. Probes pin their plan
#: to this seed, so they never consume a replica's generator stream —
#: probing cannot perturb live traffic's randomness.
PROBE_SEED = 0


@dataclass
class RouterStats:
    """Counters of one router's lifetime (snapshot via
    :attr:`DaemonRouter.stats`)."""

    routed: int = 0  # requests admitted through the router
    spillovers: int = 0  # re-routes because a replica's queue was full
    failovers: int = 0  # re-submissions after a retryable failure
    evictions: int = 0  # replicas removed from the rotation
    readmissions: int = 0  # evicted replicas brought back
    probes: int = 0  # health-probe inferences issued
    exhausted: int = 0  # requests that ran out of healthy replicas
    replicas: int = 0  # configured replica count
    healthy_replicas: int = 0  # in the rotation at snapshot time
    per_replica: Dict[str, dict] = field(default_factory=dict)

    def as_dict(self) -> dict:
        payload = dict(self.__dict__)
        payload["per_replica"] = {
            name: dict(stats) for name, stats in self.per_replica.items()
        }
        return payload


@dataclass
class ReplicaHandle:
    """One replica in the rotation: the daemon plus the router's view
    of its health and traffic."""

    daemon: ServingDaemon
    index: int
    name: str
    admitted: bool = True  # in the routing rotation right now
    dispatched: int = 0  # requests this replica accepted
    failures: int = 0  # retryable failures charged to it
    evictions: int = 0
    readmissions: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "admitted": self.admitted,
            "dispatched": self.dispatched,
            "failures": self.failures,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
        }


class _Attempt:
    """Mutable per-request routing state threaded through failover
    callbacks: the payload (so a re-submission is possible) and the
    replicas already tried."""

    __slots__ = ("images", "labels", "seed", "progress", "future", "tried")

    def __init__(self, images, labels, seed, progress, future) -> None:
        self.images = images
        self.labels = labels
        self.seed = seed
        self.progress = progress
        self.future = future
        self.tried: List[int] = []


class DaemonRouter:
    """Route requests across replicas; duck-types the daemon surface.

    Parameters
    ----------
    replicas:
        The :class:`~repro.runtime.daemon.ServingDaemon` replicas to
        route over (at least one). The router *owns* them: its
        :meth:`close` closes each replica.
    seed:
        Seeds the router generator. Seedless requests on a seeded
        router draw an explicit child seed in arrival order, making
        every response replayable on any replica (see the module
        determinism contract). ``None`` round-robins seedless requests
        without pinning them.
    probe_interval_s:
        Seconds between re-admission sweeps over evicted replicas
        (default from ``REPRO_ROUTER_PROBE_INTERVAL_S``, 0.25 s).
    probe_images:
        Optional small batch the probe thread runs (with
        :data:`PROBE_SEED`) to *prove* an evicted replica recovered
        before re-admitting it. ``None`` re-admits on pipeline-thread
        liveness alone.
    """

    def __init__(
        self,
        replicas: Sequence[ServingDaemon],
        *,
        seed: SeedLike = None,
        probe_interval_s: Optional[float] = None,
        probe_images: Optional[np.ndarray] = None,
    ) -> None:
        if not replicas:
            raise ValueError("DaemonRouter needs at least one replica")
        self.replicas: Tuple[ReplicaHandle, ...] = tuple(
            ReplicaHandle(daemon=daemon, index=i, name=daemon.name)
            for i, daemon in enumerate(replicas)
        )
        names = [handle.name for handle in self.replicas]
        if len(set(names)) != len(names):
            raise ValueError(
                f"replica names must be unique, got {names} — construct "
                f"each ServingDaemon with its own name= (or use "
                f"DaemonRouter.build)"
            )
        self._seeded = seed is not None
        self._rng = new_rng(seed)
        self._rr = 0  # round-robin cursor for unpinned requests
        self._lock = threading.Lock()
        self._stats = RouterStats(replicas=len(self.replicas))
        self._closed = False
        self.probe_images = (
            None if probe_images is None else np.asarray(probe_images)
        )
        interval = (
            env_float("REPRO_ROUTER_PROBE_INTERVAL_S", 0.25, minimum=1e-6)
            if probe_interval_s is None
            else float(probe_interval_s)
        )
        if interval <= 0:
            raise ValueError(f"probe_interval_s must be > 0, got {interval}")
        self.probe_interval_s = interval
        self._probe_stop = threading.Event()
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-router-probe", daemon=True
        )
        self._probe_thread.start()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        engines: Sequence,
        *,
        seed: SeedLike = None,
        probe_interval_s: Optional[float] = None,
        probe_images: Optional[np.ndarray] = None,
        **daemon_kwargs,
    ) -> "DaemonRouter":
        """Construct one named daemon per engine (``replica-0`` ...)
        and route over them. ``daemon_kwargs`` go to every
        :class:`~repro.runtime.daemon.ServingDaemon` verbatim."""
        daemons: List[ServingDaemon] = []
        try:
            for i, engine in enumerate(engines):
                daemons.append(
                    ServingDaemon(engine, name=f"replica-{i}", **daemon_kwargs)
                )
        except BaseException:  # taxonomy: fatal — cleanup-and-reraise, never swallowed
            for daemon in daemons:
                daemon.close(drain=False)
            raise
        return cls(
            daemons,
            seed=seed,
            probe_interval_s=probe_interval_s,
            probe_images=probe_images,
        )

    # ------------------------------------------------------------------
    # Submission (the daemon-compatible surface)
    # ------------------------------------------------------------------
    def try_submit(
        self,
        images: np.ndarray,
        labels=None,
        *,
        seed: Optional[int] = None,
        progress: Optional[Callable[[str, dict], None]] = None,
    ) -> Future:
        """Route one request; returns a Future of its
        :class:`~repro.api.results.InferenceResult`.

        Sticky by seed (``seed % n_replicas``), spilling past full
        queues, failing over retryable failures — see the module
        contract. Raises :class:`~repro.runtime.recovery.QueueFull`
        only when *every* healthy replica is at capacity.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed DaemonRouter")
        pinned = seed
        if pinned is None and self._seeded:
            with self._lock:
                pinned = int(self._rng.integers(0, 2**63 - 1))
        attempt = _Attempt(images, labels, pinned, progress, Future())
        self._dispatch(attempt, first=True)
        return attempt.future

    # submit is the same path: the router never blocks — a cluster at
    # capacity raises QueueFull regardless of the replicas' own
    # admission policies (blocking a caller on one replica's queue
    # would defeat the spillover).
    submit = try_submit

    def _rotation(self, start: int) -> List[ReplicaHandle]:
        n = len(self.replicas)
        return [self.replicas[(start + i) % n] for i in range(n)]

    def _start_index(self, attempt: _Attempt) -> int:
        if attempt.seed is not None:
            return attempt.seed % len(self.replicas)
        with self._lock:
            self._rr = (self._rr + 1) % len(self.replicas)
            return self._rr

    def _dispatch(self, attempt: _Attempt, *, first: bool) -> None:
        """Submit to the sticky replica, spilling / failing over along
        the rotation. Resolves the attempt's future with QueueFull or
        the last error when the rotation is exhausted."""
        last_exc: Optional[BaseException] = None
        saw_full = False
        for handle in self._rotation(self._start_index(attempt)):
            if not handle.admitted or handle.index in attempt.tried:
                continue
            try:
                future = handle.daemon.try_submit(
                    attempt.images,
                    labels=attempt.labels,
                    seed=attempt.seed,
                    progress=attempt.progress,
                )
            except QueueFull as exc:
                saw_full = True
                last_exc = exc
                with self._lock:
                    self._stats.spillovers += 1
                continue
            except RuntimeError as exc:  # replica closed under us
                last_exc = exc
                self._evict(handle, reason="closed")
                continue
            attempt.tried.append(handle.index)
            with self._lock:
                handle.dispatched += 1
                if first:
                    self._stats.routed += 1
                else:
                    self._stats.failovers += 1
            future.add_done_callback(
                lambda fut, a=attempt, h=handle: self._on_done(a, h, fut)
            )
            return
        # Rotation exhausted without an accepting replica.
        with self._lock:
            self._stats.exhausted += 1
        if saw_full:
            exc: BaseException = QueueFull(
                f"every healthy replica is at capacity "
                f"({len(self.replicas)} replicas)"
            )
        else:
            exc = last_exc or RuntimeError(
                "no healthy replica available "
                f"({len(self.replicas)} configured, all evicted or tried)"
            )
        if first:
            # Synchronous semantics, like a daemon's try_submit: the
            # caller sees QueueFull / RuntimeError at the call site.
            raise exc
        if not attempt.future.done():
            attempt.future.set_exception(exc)

    def _on_done(self, attempt: _Attempt, handle: ReplicaHandle, fut) -> None:
        """Replica future resolved (runs on a daemon consumer thread):
        forward success, fail over retryable infrastructure failures,
        propagate fatal ones."""
        if attempt.future.done():
            fut.exception()  # consume; the attempt was resolved elsewhere
            return
        exc = fut.exception()
        if exc is None:
            attempt.future.set_result(fut.result())
            return
        with self._lock:
            handle.failures += 1
        retryable = isinstance(exc, QueueFull) or classify(exc) == "retryable"
        if not retryable or self._closed:
            attempt.future.set_exception(exc)
            return
        if not isinstance(exc, QueueFull):
            # An accepted request died inside the replica: that is a
            # health signal, not load — take it out of the rotation.
            self._evict(handle, reason=type(exc).__name__)
        if len(attempt.tried) >= len(self.replicas):
            attempt.future.set_exception(exc)
            return
        try:
            self._dispatch(attempt, first=False)
        except QueueFull as spill:
            attempt.future.set_exception(spill)
        # taxonomy: fatal — a dispatch crash resolves the caller's future
        except Exception as unexpected:  # noqa: BLE001 - forwarded to caller
            attempt.future.set_exception(unexpected)

    # ------------------------------------------------------------------
    # Health: eviction and probe-driven re-admission
    # ------------------------------------------------------------------
    def _evict(self, handle: ReplicaHandle, *, reason: str) -> None:
        with self._lock:
            if not handle.admitted:
                return
            handle.admitted = False
            handle.evictions += 1
            self._stats.evictions += 1

    def _readmit(self, handle: ReplicaHandle) -> None:
        with self._lock:
            if handle.admitted:
                return
            handle.admitted = True
            handle.readmissions += 1
            self._stats.readmissions += 1

    def _probe_loop(self) -> None:
        """Background sweep re-admitting recovered replicas. Uses the
        monotonic clock only; exits promptly on close."""
        while not self._probe_stop.wait(self.probe_interval_s):
            for handle in self.replicas:
                if handle.admitted or self._closed:
                    continue
                if not handle.daemon.healthy:
                    continue  # pipeline threads still down
                if self.probe_images is None:
                    self._readmit(handle)
                    continue
                with self._lock:
                    self._stats.probes += 1
                try:
                    probe = handle.daemon.try_submit(
                        self.probe_images, seed=PROBE_SEED
                    )
                    probe.result(timeout=max(1.0, 10 * self.probe_interval_s))
                # taxonomy: retryable — a failed probe just stays evicted
                except Exception:  # noqa: BLE001 - probe failure = not ready
                    continue
                self._readmit(handle)

    # ------------------------------------------------------------------
    # Gauges and stats (the daemon-compatible surface)
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """True while at least one replica is in the rotation."""
        return not self._closed and any(
            handle.admitted and handle.daemon.healthy for handle in self.replicas
        )

    @property
    def queue_depth(self) -> int:
        return sum(handle.daemon.queue_depth for handle in self.replicas)

    @property
    def in_flight(self) -> int:
        return sum(handle.daemon.in_flight for handle in self.replicas)

    @property
    def stats(self) -> RouterStats:
        """Router counters plus every replica's state (daemon counters
        ride under :meth:`aggregate_daemon_stats`)."""
        with self._lock:
            snapshot = RouterStats(**self._stats.as_dict())
        snapshot.healthy_replicas = sum(
            1 for handle in self.replicas if handle.admitted
        )
        snapshot.per_replica = {
            handle.name: handle.as_dict() for handle in self.replicas
        }
        return snapshot

    def aggregate_daemon_stats(self) -> DaemonStats:
        """Element-wise sum of the replicas' counters (gauges summed,
        ``max_wave_requests`` maxed) — the cluster-wide view the bench
        report records alongside :attr:`stats`."""
        total = DaemonStats()
        for handle in self.replicas:
            stats = handle.daemon.stats
            total.submitted += stats.submitted
            total.completed += stats.completed
            total.failed += stats.failed
            total.waves += stats.waves
            total.coalesced_requests += stats.coalesced_requests
            total.max_wave_requests = max(
                total.max_wave_requests, stats.max_wave_requests
            )
            total.total_images += stats.total_images
            total.queue_high_water = max(
                total.queue_high_water, stats.queue_high_water
            )
            total.rejected += stats.rejected
            total.retries += stats.retries
            total.recoveries += stats.recoveries
            total.consumer_restarts += stats.consumer_restarts
            total.queue_depth += stats.queue_depth
            total.in_flight += stats.in_flight
            for mode, waves in stats.mode_waves.items():
                total.mode_waves[mode] = total.mode_waves.get(mode, 0) + waves
        return total

    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every replica to go idle (see
        :meth:`ServingDaemon.drain`)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self.replicas:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not handle.daemon.drain(timeout=remaining):
                return False
        return True

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the probe thread and close every replica. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._probe_stop.set()
        self._probe_thread.join(timeout=5.0)
        errors: List[Exception] = []
        for handle in self.replicas:
            try:
                handle.daemon.close(drain=drain, timeout=timeout)
            # taxonomy: fatal — collected so every replica gets closed
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise ExceptionGroup(
                f"{len(errors)} of {len(self.replicas)} replica daemons "
                f"failed to close",
                errors,
            )

    def __enter__(self) -> "DaemonRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        admitted = sum(1 for handle in self.replicas if handle.admitted)
        return (
            f"DaemonRouter({len(self.replicas)} replicas, "
            f"{admitted} admitted, seeded={self._seeded})"
        )
