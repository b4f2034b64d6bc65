"""Deterministic fault injection for the runtime subsystem.

Reliability claims are only testable if failures can be produced *on
demand and reproducibly*. This module is the runtime's chaos harness: a
:class:`FaultPlan` describes **where** (an injection *site* threaded
through the scheduler and the daemon), **when** (match on the
call context, skip the first ``after`` hits, fire at most ``times``
times, optionally with a seeded probability), and **what** (kill the
worker process, raise a named exception, sleep past a deadline, or
poison the request payload). Execution paths call
:func:`fault_point` at the instrumented sites; with no plan installed
the call is a no-op a branch predictor eats for breakfast, so the hooks
stay enabled in production code.

Injection sites (the ``site`` key of a :class:`FaultSpec`):

``"scheduler.wave"``
    Parent side, on entry to
    :meth:`~repro.runtime.scheduler.ShardParallelScheduler.run_shards`.
    Context: ``shards``, ``rows``.
``"worker.shard"``
    Worker side, at the top of every pool shard task. Context:
    ``shard`` (index within the plan), ``rows``. ``action="kill"``
    here is the canonical "worker dies mid-wave" chaos scenario.
``"daemon.request"``
    Daemon consumer, once per request at wave assembly (after the
    request's plan — and therefore its seeds — have been drawn, so a
    poisoned request never perturbs its neighbours' randomness).
    Context: ``rows``.
``"daemon.consumer"``
    Daemon consumer loop, between waves (no request is in flight).
    ``action="raise"`` here crashes the consumer thread — the
    supervisor-restart chaos scenario.

Determinism: triggering is purely counter- and match-based by default
(``after`` / ``times`` / ``match``), and the optional probabilistic
mode draws from a generator seeded by ``(plan.seed, spec index)`` — two
runs of the same plan observe the identical fault schedule.

Plans cross process boundaries explicitly: the pool schedulers snapshot
the active plan when they build their *first* worker pool and ship it
through the pool initializer (counters reset in the child). Rebuilt
pools — the recovery path — come up **clean**, modelling the real
scenario "a worker crashed once; its replacement is healthy" and
letting retry-based recovery actually succeed. The
``REPRO_FAULT_PLAN`` environment variable (inline JSON, or a path to a
JSON file) installs a plan at first use in any process that inherits
it, which is how the chaos CI tier configures whole test runs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.env import env_str
from repro.runtime.recovery import DeadlineExceeded, PoisonedPayload

#: Documented injection sites (informational — unknown sites are legal,
#: they just never fire unless some code path names them).
KNOWN_SITES = (
    "scheduler.wave",
    "worker.shard",
    "daemon.request",
    "daemon.consumer",
)

_ACTIONS = ("raise", "kill", "delay", "poison")

#: Exit code a killed worker dies with — distinctive in pool post-mortems.
KILL_EXIT_CODE = 87


class FaultInjected(RuntimeError):
    """Default exception for ``action="raise"`` specs."""


def _resolve_error(name: str):
    """Exception class for a spec's ``error`` name."""
    known = {
        "RuntimeError": RuntimeError,
        "ValueError": ValueError,
        "OSError": OSError,
        "TimeoutError": TimeoutError,
        "KeyboardInterrupt": KeyboardInterrupt,
        "FaultInjected": FaultInjected,
        "DeadlineExceeded": DeadlineExceeded,
        "PoisonedPayload": PoisonedPayload,
        "BrokenProcessPool": BrokenProcessPool,
    }
    if name in known:
        return known[name]
    raise ValueError(
        f"unknown fault error {name!r}; known: {', '.join(sorted(known))}"
    )


@dataclass
class FaultSpec:
    """One injected fault: where it strikes, when it triggers, what it
    does.

    ``match`` filters on the call context (every key must equal the
    context value); ``after`` skips the first N matching hits; ``times``
    caps how often the spec fires (``None`` = every matching hit);
    ``p`` fires probabilistically from the plan's seeded generator
    (1.0 = always, the deterministic default).
    """

    site: str
    action: str = "raise"
    error: str = "FaultInjected"
    delay_s: float = 0.0
    after: int = 0
    times: Optional[int] = 1
    match: Dict[str, object] = field(default_factory=dict)
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"fault action must be one of {', '.join(_ACTIONS)}; "
                f"got {self.action!r}"
            )
        if self.action == "raise":
            _resolve_error(self.error)  # fail fast on unknown names
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")

    def matches(self, context: Dict[str, object]) -> bool:
        return all(context.get(key) == value for key, value in self.match.items())

    def as_dict(self) -> dict:
        payload = {"site": self.site, "action": self.action}
        if self.action == "raise":
            payload["error"] = self.error
        if self.action == "delay":
            payload["delay_s"] = self.delay_s
        if self.after:
            payload["after"] = self.after
        if self.times != 1:
            payload["times"] = self.times
        if self.match:
            payload["match"] = dict(self.match)
        if self.p != 1.0:
            payload["p"] = self.p
        return payload


class FaultPlan:
    """A seeded, serializable schedule of injected faults.

    Counters (hits / fires per spec) are runtime state local to the
    process holding the plan; :meth:`as_dict` serializes only the
    schedule, so a plan shipped to a worker starts counting fresh.
    """

    def __init__(self, specs: List[FaultSpec], *, seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every spec's hit/fire counters and re-seed the
        probabilistic draws."""
        with getattr(self, "_lock", threading.Lock()):
            self._hits = [0] * len(self.specs)
            self._fires = [0] * len(self.specs)
            self._rngs = [
                np.random.default_rng((self.seed, index))
                for index in range(len(self.specs))
            ]

    def counters(self) -> List[Tuple[int, int]]:
        """Per-spec ``(hits, fires)`` snapshots (for assertions)."""
        with self._lock:
            return list(zip(self._hits, self._fires))

    # ------------------------------------------------------------------
    def visit(self, site: str, context: Dict[str, object]) -> Optional[FaultSpec]:
        """Record one hit at ``site``; returns the spec that should
        fire, if any (first match wins)."""
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.site != site or not spec.matches(context):
                    continue
                self._hits[index] += 1
                if self._hits[index] <= spec.after:
                    continue
                if spec.times is not None and self._fires[index] >= spec.times:
                    continue
                if spec.p < 1.0 and self._rngs[index].random() >= spec.p:
                    continue
                self._fires[index] += 1
                return spec
        return None

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "specs": [spec.as_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        specs = [FaultSpec(**spec) for spec in payload.get("specs", [])]
        return cls(specs, seed=payload.get("seed", 0))

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sites = ",".join(spec.site for spec in self.specs)
        return f"FaultPlan(seed={self.seed}, specs=[{sites}])"


# ----------------------------------------------------------------------
# The active plan: one per process, installed explicitly or inherited
# from REPRO_FAULT_PLAN at first fault_point call.
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None
_ENV_CHECKED = False
_INSTALL_LOCK = threading.Lock()


def install_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as this process's active plan (``None`` clears
    it); returns the previously active plan."""
    global _ACTIVE, _ENV_CHECKED
    with _INSTALL_LOCK:
        previous, _ACTIVE = _ACTIVE, plan
        # An explicit install (or clear) overrides env inheritance.
        _ENV_CHECKED = True
        return previous


def active_fault_plan() -> Optional[FaultPlan]:
    """The process's active plan, loading ``REPRO_FAULT_PLAN`` (inline
    JSON or a file path) the first time anyone asks."""
    global _ACTIVE, _ENV_CHECKED
    if _ACTIVE is None and not _ENV_CHECKED:
        with _INSTALL_LOCK:
            if _ACTIVE is None and not _ENV_CHECKED:
                _ENV_CHECKED = True
                text = env_str("REPRO_FAULT_PLAN")
                if text is not None:
                    if not text.startswith("{"):
                        with open(text) as fh:
                            text = fh.read()
                    _ACTIVE = FaultPlan.from_json(text)
    return _ACTIVE


def clear_inherited_plan() -> None:
    """Drop a plan this process inherited through a fork.

    Pool workers call this from their initializer when no plan was
    shipped to them: a forkserver (or plain fork) snapshot can carry
    the parent's installed plan in this module's globals, which would
    re-arm the same faults in every rebuilt pool and keep recovery from
    ever converging. Unlike :func:`install_fault_plan`, the
    ``REPRO_FAULT_PLAN`` environment path stays live — whole-process
    chaos runs configure workers through the (inherited) environment.
    """
    global _ACTIVE, _ENV_CHECKED
    with _INSTALL_LOCK:
        _ACTIVE = None
        _ENV_CHECKED = False


class fault_injection:
    """Context manager scoping a plan: ``with fault_injection(plan): ...``
    installs it on entry and restores the previous plan on exit."""

    def __init__(self, plan: Optional[FaultPlan]) -> None:
        self.plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> Optional[FaultPlan]:
        self._previous = install_fault_plan(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        install_fault_plan(self._previous)


def fault_point(site: str, **context) -> None:
    """Give the active fault plan a chance to strike at ``site``.

    No-op without an installed plan. A firing spec either sleeps
    (``delay``), raises (``raise`` / ``poison``), or kills the current
    process (``kill`` — ``os._exit``, no cleanup, exactly like a
    segfaulting worker).
    """
    plan = active_fault_plan()
    if plan is None:
        return
    spec = plan.visit(site, context)
    if spec is None:
        return
    if spec.action == "delay":
        time.sleep(spec.delay_s)
        return
    if spec.action == "kill":
        os._exit(KILL_EXIT_CODE)
    if spec.action == "poison":
        raise PoisonedPayload(
            f"injected poisoned payload at {site} (context {context!r})"
        )
    raise _resolve_error(spec.error)(
        f"injected fault at {site} (context {context!r})"
    )
