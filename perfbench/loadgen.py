"""Open-loop load generation over the wire protocol.

One asyncio loop on one thread drives at most two connections. Each
phase is a seeded Poisson schedule at a fixed mean rate; every request
is timed from the moment it was *due*, so a stall in the server (or in
the generator itself) shows up as latency of every request it delays.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

#: Phases are judged in this many consecutive windows; tail percentiles
#: are the median of the per-window values, so one host stall does not
#: decide a run's p99.
WINDOWS = 10
MIN_CLEAN_WINDOWS = 4
#: A window is disturbed past these: CPU steal while its requests were
#: in flight, and the generator's own lateness (p99).
STEAL_LIMIT_PCT = 3.0
LATE_LIMIT_MS = 8.0
#: How often a phase samples ``/proc/stat`` for per-window steal.
CPU_SAMPLE_S = 0.05
#: A rung also fails when fewer than this share of the offered requests
#: per second complete (the backlog is growing).
RUNG_MIN_ACHIEVED = 0.98


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_pct(first, last) -> float:
    """Steal share between two :func:`cpu_ticks` readings."""
    if first is None or last is None or last[1] <= first[1]:
        return 0.0
    return 100.0 * (last[0] - first[0]) / (last[1] - first[1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty.

    The benchmark keeps its own statistics rather than importing the
    program's, so a change to the program cannot change how it is
    measured."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = int(np.ceil(q / 100.0 * len(ordered))) - 1
    return float(ordered[max(0, min(len(ordered) - 1, rank))])


@dataclass
class Request:
    due: float  # seconds after the phase start
    conn: int
    seed: int
    index: np.ndarray  # rows of the test set sent as images
    stream: bool = False


@dataclass
class Outcome:
    request: Request
    sent: float = 0.0  # absolute perf_counter time the frame was written
    done: float = 0.0
    due_abs: float = 0.0
    logits: Optional[np.ndarray] = None
    summary: dict = field(default_factory=dict)
    error: Optional[str] = None  # wire error code, or exception name

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due_abs) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due_abs) * 1e3

    @property
    def small(self) -> bool:
        return not self.request.stream


def poisson_schedule(
    rng: np.random.Generator,
    *,
    rate: float,
    duration: float,
    n_images: int,
    bulk_share: float = 0.0,
    bulk_rows: int = 256,
    connections: int = 2,
) -> List[Request]:
    """Seeded Poisson arrivals at ``rate`` req/s over ``duration`` s.

    The count is fixed at ``rate * duration`` and the arrival times are
    uniform order statistics (a Poisson process conditioned on its
    count), so throughput figures do not inherit the count's noise.
    Small requests carry 1-4 images; every ``1 / bulk_share``-th
    request carries ``bulk_rows`` images and asks for a streamed
    response. Every request has an explicit seed, so its response is
    replayable serially.
    """
    n = max(1, int(round(rate * duration)))
    due = np.sort(rng.uniform(0.0, duration, size=n))
    every = int(round(1.0 / bulk_share)) if bulk_share > 0 else 0
    requests: List[Request] = []
    for i, t in enumerate(due):
        bulk = every > 0 and i % every == every - 1
        rows = bulk_rows if bulk else int(rng.integers(1, 5))
        requests.append(
            Request(
                due=float(t),
                conn=int(rng.integers(0, connections)),
                seed=int(rng.integers(0, 2**62)),
                index=rng.integers(0, n_images, size=rows),
                stream=bulk,
            )
        )
    return requests


async def _issue(client, outcome: Outcome, images, labels) -> None:
    from repro.net.client import RemoteError

    req = outcome.request
    x, y = images[req.index], labels[req.index]
    outcome.sent = time.perf_counter()
    try:
        if req.stream:
            result = await client.infer_streamed(x, y, seed=req.seed)
        else:
            result = await client.infer(x, y, seed=req.seed)
        outcome.logits = np.array(result.logits)
        outcome.summary = dict(result.summary)
    except RemoteError as exc:
        outcome.error = exc.code
    except (ConnectionError, OSError) as exc:
        outcome.error = type(exc).__name__
    outcome.done = time.perf_counter()


async def run_phase(
    clients, requests: List[Request], images, labels, *, drain_s: float = 30.0
) -> List[Outcome]:
    """Send ``requests`` on their schedule; wait for every answer.

    The generator's own garbage collector is off while a phase runs: a
    full collection over the growing outcome list would stall sends
    and receipts and read as server latency. Returns the outcomes and
    ``(time, cpu_ticks())`` samples taken every :data:`CPU_SAMPLE_S`.
    """
    outcomes = [Outcome(request=r) for r in requests]
    tasks: list = []
    pending: set = set()
    ticks: List[tuple] = []

    async def sample_cpu() -> None:
        while True:
            ticks.append((time.perf_counter(), cpu_ticks()))
            await asyncio.sleep(CPU_SAMPLE_S)

    sampler = asyncio.create_task(sample_cpu())
    gc.disable()
    try:
        start = time.perf_counter() + 0.02
        for outcome in outcomes:
            outcome.due_abs = start + outcome.request.due
            delay = outcome.due_abs - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.create_task(
                    _issue(clients[outcome.request.conn], outcome, images, labels)
                )
            )
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=drain_s)
    finally:
        gc.enable()
        sampler.cancel()
        ticks.append((time.perf_counter(), cpu_ticks()))
    for task in pending:
        task.cancel()
    await asyncio.gather(sampler, *pending, return_exceptions=True)
    for outcome, task in zip(outcomes, tasks):
        if task in pending:
            outcome.error = "timeout"
            outcome.done = time.perf_counter()
        else:
            task.result()
    return outcomes, ticks


@dataclass
class PhaseReport:
    """One phase's outcomes, judged window by window.

    A phase splits into :data:`WINDOWS` consecutive windows of equal
    request count. A window is *disturbed* when CPU steal while its
    requests were in flight, or the generator's own lateness, exceeds
    the benchmark's bounds: those measure the host, not the program,
    so latency figures come from the clean windows only. A phase with
    fewer than :data:`MIN_CLEAN_WINDOWS` clean windows is measured
    again; if it still has too few when the run's budget is spent, it is
    *disturbed* and its figures come from its :data:`MIN_CLEAN_WINDOWS`
    least disturbed windows.
    """

    name: str
    rate: float
    windows: List[List[Outcome]] = field(default_factory=list)
    window_steal: List[float] = field(default_factory=list)
    window_late: List[float] = field(default_factory=list)
    runs: List[Tuple[int, float]] = field(default_factory=list)  # (images done, span s)

    def add(self, outcomes: List[Outcome], ticks: List[tuple], n_windows: int) -> None:
        """Fold in one run of the schedule, split into ``n_windows``."""
        ordered = sorted(outcomes, key=lambda o: o.due_abs)
        ok = [o for o in ordered if o.error is None]
        if ok:
            self.runs.append((sum(len(o.request.index) for o in ok),
                              max(o.done for o in ok) - ordered[0].due_abs))
        for chunk in np.array_split(np.arange(len(ordered)), n_windows):
            if not len(chunk):
                continue
            window = [ordered[i] for i in chunk]
            self.windows.append(window)
            t0 = window[0].due_abs
            t1 = max(o.done for o in window)
            before = [tk for t, tk in ticks if t <= t0] or [ticks[0][1]]
            after = [tk for t, tk in ticks if t >= t1] or [ticks[-1][1]]
            stolen = after[0][0] - before[-1][0] if before[-1] and after[0] else 0
            # One 10 ms jiffy is a large share of a short window: a single
            # stolen jiffy never disturbs one.
            steal = steal_pct(before[-1], after[0]) if stolen > 1 else 0.0
            self.window_steal.append(steal)
            self.window_late.append(percentile([o.late_ms for o in window], 99))

    @property
    def outcomes(self) -> List[Outcome]:
        return [o for window in self.windows for o in window]

    def _disturbance(self, i: int) -> float:
        """How far window ``i`` went past the bounds (at most 1: clean)."""
        return max(self.window_steal[i] / STEAL_LIMIT_PCT, self.window_late[i] / LATE_LIMIT_MS)

    @property
    def clean(self) -> List[List[Outcome]]:
        return [w for i, w in enumerate(self.windows) if self._disturbance(i) <= 1.0]

    @property
    def missing_windows(self) -> int:
        """Clean windows still wanted before the phase can stop."""
        return max(0, MIN_CLEAN_WINDOWS - len(self.clean))

    @property
    def disturbed(self) -> bool:
        return self.missing_windows > 0

    @property
    def kept(self) -> List[List[Outcome]]:
        """The windows the figures come from: the clean ones, or the
        least disturbed ones when the phase is disturbed."""
        if not self.disturbed:
            return self.clean
        order = sorted(range(len(self.windows)), key=self._disturbance)
        return [self.windows[i] for i in sorted(order[:MIN_CLEAN_WINDOWS])]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)

    def _ok(self, pick) -> np.ndarray:
        return np.array(
            [o.latency_ms for w in self.kept for o in w if o.error is None and pick(o)]
        )

    def small_latencies(self) -> np.ndarray:
        return self._ok(lambda o: o.small)

    def bulk_latencies(self) -> np.ndarray:
        return self._ok(lambda o: not o.small)

    def small_p99(self) -> float:
        """Median over the kept windows of the small-request p99."""
        p99s = []
        for window in self.kept:
            lat = [o.latency_ms for o in window if o.small and o.error is None]
            if lat:
                p99s.append(percentile(lat, 99))
        return float(np.median(p99s)) if p99s else 0.0

    def lateness(self) -> np.ndarray:
        return np.array([o.late_ms for o in self.outcomes])

    def achieved_ratio(self) -> float:
        """Completed over offered requests per second. A backlog that
        grows by ``G`` seconds over a phase spanning ``S`` seconds
        stretches the completions over ``S + G``; ``G`` is taken as the
        rise in median latency from the first to the last tenth of the
        requests, so one slow straggler does not read as a backlog."""
        ok = sorted((o for o in self.outcomes if o.error is None), key=lambda o: o.due_abs)
        if len(ok) < 2:
            return 0.0
        tenth = max(1, len(ok) // 10)
        growth = (
            np.median([o.latency_ms for o in ok[-tenth:]])
            - np.median([o.latency_ms for o in ok[:tenth]])
        ) / 1e3
        span = ok[-1].due_abs - ok[0].due_abs
        return span / (span + max(0.0, growth)) if span > 0 else 1.0

    def passes(self, p99_limit_ms: float) -> bool:
        """No sustained failures (failed requests in more than one
        kept window), small-request p99 within the limit, and no
        growing backlog."""
        failing = sum(1 for w in self.kept if any(o.error is not None for o in w))
        return (
            failing <= 1
            and len(self.small_latencies()) > 0
            and self.small_p99() <= p99_limit_ms
            and self.achieved_ratio() >= RUNG_MIN_ACHIEVED
        )

    def images_per_s(self) -> float:
        """Images completed per second, over each run of the schedule
        from its first due time to its last answer (the gaps between an
        extended phase's runs are not counted)."""
        images = sum(n for n, _ in self.runs)
        span = sum(s for _, s in self.runs)
        return images / span if span > 0 else 0.0

    def describe(self) -> str:
        small = self.small_latencies()
        return (
            f"{self.name:>4} {self.rate:7.1f} req/s: {len(self.outcomes)} sent, "
            f"{self.failed} failed, {len(self.clean)}/{len(self.windows)} clean windows"
            f"{' (DISTURBED)' if self.disturbed else ''}, "
            f"p50 {percentile(small, 50):.2f} ms, p99 {self.small_p99():.2f} ms, "
            f"achieved {self.achieved_ratio():.3f}, "
            f"late p99 {percentile(self.lateness(), 99):.2f} ms, "
            f"steal max {max(self.window_steal, default=0.0):.1f}%"
        )
