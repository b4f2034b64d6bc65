"""Calibratable execution cost model driving the ``"adaptive"`` scheduler.

The :class:`~repro.runtime.plan.ExecutionPlan` task DAG carries
per-task cost estimates in *sampled observation windows* — the quantity
the kernel benchmarks show bounds the stochastic path. This module
turns those window counts into predicted wall-clock seconds under each
fan-out the runtime offers:

``"serial"``
    every task in sequence in the calling process;
``"shard-parallel"``
    shards spread over a ``workers``-process pool, paying a per-shard
    cost to pickle its activations to a worker plus a fixed pool
    submission overhead;
``"tile-parallel"``
    each crossbar stage's column tiles spread over ``workers`` threads,
    paying a per-tile dispatch/fold cost.

The :class:`CostModel` compares the predictions and picks the cheapest
mode — falling back to serial outright for plans whose total cost sits
below :attr:`CostCoefficients.break_even_windows`, so tiny requests
never pay pool tax. The coefficients are plain measured constants: the
defaults are conservative laptop-class numbers, and :func:`calibrate`
refits them from the engine's own :class:`~repro.api.results.LayerTelemetry`
(``make bench`` records a refreshed set next to the kernel timings).
Coefficients persist to JSON (:meth:`CostCoefficients.save` /
:meth:`CostCoefficients.load`; the ``REPRO_COST_COEFFICIENTS``
environment variable points the adaptive scheduler at a saved file).

The chooser never trades correctness for speed: *which* modes are
candidates is decided by :func:`candidate_modes` from the
reproducibility contracts (shard fan-out needs seeded shards and a
registered backend name the workers can resolve; tile fan-out is
bit-identical to serial only for the per-tile-generator bit-level
backends), so every mode the model may pick yields logits bit-identical
to serial execution of the same plan.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.env import env_path
from repro.runtime.plan import ExecutionPlan

#: Plan-level execution modes the adaptive chooser can select.
ADAPTIVE_MODES = ("serial", "shard-parallel", "tile-parallel")

#: Backends whose column tiles draw from their own per-tile generators,
#: making concurrent tile execution bit-identical to the serial path.
#: The fused-table backends consume the RNG differently per draw, so
#: tile fan-out is never offered for them.
TILE_SAFE_BACKENDS = frozenset({"stochastic-packed", "stochastic-dense"})


@dataclass(frozen=True)
class CostCoefficients:
    """Measured constants of the runtime cost model.

    All times are seconds. ``window_cost_s`` is the serial cost of one
    sampled observation window; the remaining constants price the
    dispatch machinery each fan-out adds on top of the compute.
    ``break_even_windows`` is the plan size (total estimated windows)
    below which the chooser picks serial without further comparison —
    the explicit "tiny plans stop paying pool tax" threshold.
    ``source`` records where the numbers came from (``"default"`` or
    ``"calibrated"``) so saved files are self-describing.
    """

    window_cost_s: float = 6.0e-7
    stage_overhead_s: float = 3.0e-5
    shard_dispatch_s: float = 1.0e-3
    pool_warmup_s: float = 2.5e-2
    tile_dispatch_s: float = 3.0e-4
    break_even_windows: float = 6_000.0
    source: str = "default"

    def __post_init__(self) -> None:
        for name in (
            "window_cost_s",
            "stage_overhead_s",
            "shard_dispatch_s",
            "pool_warmup_s",
            "tile_dispatch_s",
            "break_even_windows",
        ):
            value = getattr(self, name)
            if not (value >= 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.window_cost_s == 0.0:
            raise ValueError("window_cost_s must be > 0")

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "window_cost_s": self.window_cost_s,
            "stage_overhead_s": self.stage_overhead_s,
            "shard_dispatch_s": self.shard_dispatch_s,
            "pool_warmup_s": self.pool_warmup_s,
            "tile_dispatch_s": self.tile_dispatch_s,
            "break_even_windows": self.break_even_windows,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CostCoefficients":
        known = {k: payload[k] for k in cls.__dataclass_fields__ if k in payload}
        return cls(**known)

    def save(self, path) -> None:
        """Persist to ``path`` as JSON (the ``make bench`` refresh
        target and the ``REPRO_COST_COEFFICIENTS`` file format)."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.as_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "CostCoefficients":
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected a JSON object of coefficients")
        return cls.from_dict(payload)


@dataclass
class StageDecision:
    """What the adaptive chooser decided for one plan stage.

    ``mode`` is the execution the stage actually gets under the chosen
    plan-level mode (e.g. a single-tile stage inside a tile-parallel
    plan still runs serial). ``predicted_s`` and ``measured_s`` are
    both *aggregate* stage costs — the model's estimate of the total
    work the stage does summed across shards (and workers), and the
    telemetry's wall time summed the same way after execution — so the
    pair is directly comparable in every mode (fanning out splits the
    work across processes, it does not shrink it). The mode-level
    *wall-clock* comparison the chooser ranked lives in
    :attr:`AdaptiveChoice.predictions`.
    """

    stage: int
    kind: str
    mode: str
    cost_windows: float
    tile_width: int
    predicted_s: float
    measured_s: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "kind": self.kind,
            "mode": self.mode,
            "cost_windows": self.cost_windows,
            "tile_width": self.tile_width,
            "predicted_s": self.predicted_s,
            "measured_s": self.measured_s,
        }


@dataclass
class AdaptiveChoice:
    """One chooser outcome: the plan-level mode, the per-mode wall-time
    predictions it compared, and the per-stage decision records."""

    mode: str
    predictions: Dict[str, float]
    stages: List[StageDecision]
    forced: bool = False
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "predictions": dict(self.predictions),
            "forced": self.forced,
            "reason": self.reason,
            "stages": [s.as_dict() for s in self.stages],
        }


def candidate_modes(
    plan: ExecutionPlan,
    *,
    backend_name: Optional[str] = None,
    deterministic: bool = False,
    registered: Optional[Sequence[str]] = None,
) -> List[str]:
    """Execution modes that are *correct* for ``plan`` + backend.

    Serial is always a candidate. Shard fan-out needs more than one
    shard, seeds on every shard (workers re-derive the sampler state
    from them), and a registered backend name (workers resolve their
    strategy by name in their own process). Tile fan-out needs a
    stochastic backend whose tiles draw from per-tile generators
    (:data:`TILE_SAFE_BACKENDS`) and at least one stage that actually
    fans out. The chooser only ever ranks the modes this returns, which
    is what keeps every adaptive outcome bit-identical to serial.
    """
    modes = ["serial"]
    seeded = all(s.seed is not None for s in plan.shards)
    if backend_name is not None and seeded and len(plan) > 1:
        if registered is None:
            from repro.api.backends import available_backends, backend_aliases

            registered = list(available_backends()) + list(backend_aliases())
        if backend_name in registered:
            modes.append("shard-parallel")
    if (
        not deterministic
        and backend_name in TILE_SAFE_BACKENDS
        and plan.max_tile_width > 1
    ):
        modes.append("tile-parallel")
    return modes


class CostModel:
    """Predict plan wall time per fan-out mode and choose the cheapest.

    Stateless apart from its :class:`CostCoefficients`; one instance
    can serve any number of schedulers and sessions concurrently.
    """

    def __init__(self, coefficients: Optional[CostCoefficients] = None) -> None:
        self.coefficients = coefficients or CostCoefficients()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self,
        plan: ExecutionPlan,
        mode: str,
        *,
        workers: int = 1,
        warm: bool = False,
    ) -> float:
        """Predicted wall-clock seconds for ``plan`` under ``mode``.

        ``warm`` declares that the shard pool already exists (a daemon
        that prewarmed at startup, or any run after the first pooled
        one), so shard-parallel predictions skip the one-time
        ``pool_warmup_s`` charge.
        """
        if mode == "serial":
            return self._predict_serial(plan)
        if mode == "shard-parallel":
            return self._predict_shard(plan, workers, warm=warm)
        if mode == "tile-parallel":
            return self._predict_tile(plan, workers)
        raise ValueError(
            f"unknown mode {mode!r}; expected one of {', '.join(ADAPTIVE_MODES)}"
        )

    def _predict_serial(self, plan: ExecutionPlan) -> float:
        c = self.coefficients
        return plan.total_cost * c.window_cost_s + len(plan.tasks) * c.stage_overhead_s

    def _predict_shard(
        self, plan: ExecutionPlan, workers: int, *, warm: bool = False
    ) -> float:
        """Grouped warm-pool dispatch: the scheduler packs the shards
        into at most ``workers`` contiguous groups, submits one pool
        task per group, and each group's shards run stage-major in one
        vectorized pass. The makespan is the bigger of the heaviest
        single shard and the perfectly balanced split across groups;
        per-task stage overhead is paid once per group (not per shard —
        that amortization is why a single-worker pool can beat serial),
        dispatch once per group, and the pool construction cost only
        when the pool is cold."""
        c = self.coefficients
        g = max(1, min(workers, len(plan)))
        shard_windows: Dict[int, float] = {}
        for task in plan.tasks:
            shard_windows[task.shard] = shard_windows.get(task.shard, 0.0) + task.cost
        heaviest = max(shard_windows.values(), default=0.0)
        makespan = max(heaviest, plan.total_cost / g)
        tasks_per_shard = len(plan.tasks) / max(1, len(plan))
        return (
            makespan * c.window_cost_s
            + g * tasks_per_shard * c.stage_overhead_s
            + g * c.shard_dispatch_s
            + (0.0 if warm else c.pool_warmup_s)
        )

    def _predict_tile(self, plan: ExecutionPlan, workers: int) -> float:
        """Shards and stages stay serial; within each crossbar stage the
        column tiles run on ``workers`` threads, each paying a dispatch
        cost. Single-tile groups execute unwrapped (no dispatch)."""
        c = self.coefficients
        k = max(1, workers)
        total = 0.0
        for width, per_tile in self._tile_groups(plan):
            if width > 1:
                rounds = math.ceil(width / k)
                total += per_tile * rounds * c.window_cost_s
                total += width * c.tile_dispatch_s
            else:
                total += per_tile * c.window_cost_s
            total += c.stage_overhead_s
        return total

    @staticmethod
    def _tile_groups(plan: ExecutionPlan) -> List[Tuple[int, float]]:
        """``(tile_width, per_tile_windows)`` per (shard, stage) group,
        in plan order (tasks of one group share the same cost)."""
        groups: Dict[Tuple[int, int], Tuple[int, float]] = {}
        for task in plan.tasks:
            key = (task.shard, task.stage)
            width, per_tile = groups.get(key, (0, 0.0))
            groups[key] = (width + 1, task.cost)
        return list(groups.values())

    # ------------------------------------------------------------------
    # Choice
    # ------------------------------------------------------------------
    def choose(
        self,
        plan: ExecutionPlan,
        *,
        workers: int = 1,
        modes: Sequence[str] = ("serial",),
        force: Optional[str] = None,
        warm: bool = False,
    ) -> AdaptiveChoice:
        """Rank ``modes`` for ``plan`` and pick one.

        ``force`` overrides the comparison (the ``REPRO_FORCE_SCHEDULER``
        escape hatch) but must name one of the *candidate* modes — a
        mode that is unavailable for correctness reasons cannot be
        forced into. Without a force, plans below the break-even window
        count short-circuit to serial. ``warm`` relays whether the
        shard pool already exists (see :meth:`predict`).
        """
        if "serial" not in modes:
            raise ValueError("'serial' must always be a candidate mode")
        predictions = {
            mode: self.predict(plan, mode, workers=workers, warm=warm)
            for mode in modes
        }
        break_even = self.coefficients.break_even_windows
        if force is not None:
            if force not in predictions:
                raise ValueError(
                    f"forced mode {force!r} is not available for this plan/backend "
                    f"(candidates: {', '.join(sorted(predictions))})"
                )
            mode, forced = force, True
            reason = "forced via REPRO_FORCE_SCHEDULER"
        elif plan.total_cost < break_even:
            mode, forced = "serial", False
            reason = (
                f"plan cost {plan.total_cost:.0f} windows below "
                f"break-even {break_even:.0f}"
            )
        else:
            mode = min(predictions, key=lambda m: (predictions[m], m))
            forced = False
            reason = f"cheapest predicted wall time ({predictions[mode]:.4g}s)"
        stages = self._stage_decisions(plan, mode, workers)
        return AdaptiveChoice(
            mode=mode,
            predictions=predictions,
            stages=stages,
            forced=forced,
            reason=reason,
        )

    def _stage_decisions(
        self, plan: ExecutionPlan, mode: str, workers: int
    ) -> List[StageDecision]:
        c = self.coefficients
        stage_kind: Dict[int, str] = {}
        stage_windows: Dict[int, float] = {}
        stage_tasks: Dict[int, int] = {}
        for task in plan.tasks:
            stage_kind.setdefault(task.stage, task.kind)
            stage_windows[task.stage] = stage_windows.get(task.stage, 0.0) + task.cost
            stage_tasks[task.stage] = stage_tasks.get(task.stage, 0) + 1
        decisions: List[StageDecision] = []
        for stage in sorted(stage_kind):
            width = plan.tile_width(stage)
            windows = stage_windows[stage]
            n_tasks = stage_tasks[stage]
            # Aggregate estimates (total work, not wall-clock): what the
            # summed per-shard telemetry will measure after execution,
            # regardless of how many workers the work was split across.
            if mode == "shard-parallel":
                stage_mode = "shard-parallel"
                predicted = windows * c.window_cost_s + n_tasks * c.stage_overhead_s
            elif mode == "tile-parallel" and width > 1 and windows > 0:
                stage_mode = "tile-parallel"
                predicted = (
                    windows * c.window_cost_s
                    + n_tasks * c.tile_dispatch_s
                    + len(plan) * c.stage_overhead_s
                )
            else:
                stage_mode = "serial"
                predicted = windows * c.window_cost_s + n_tasks * c.stage_overhead_s
            decisions.append(
                StageDecision(
                    stage=stage,
                    kind=stage_kind[stage],
                    mode=stage_mode,
                    cost_windows=windows,
                    tile_width=width,
                    predicted_s=predicted,
                )
            )
        return decisions


# ----------------------------------------------------------------------
# Calibration: refit the coefficients from measured telemetry.
# ----------------------------------------------------------------------
def calibrate(
    engine,
    images,
    *,
    backend: str = "stochastic",
    workers: int = 2,
    repeats: int = 2,
    probe_pool: bool = True,
    probe_tiles: bool = True,
    seed: int = 0,
    pool_scheduler=None,
    tile_scheduler=None,
) -> CostModel:
    """Fit :class:`CostCoefficients` from the engine's own telemetry.

    Runs a serial probe (``repeats`` timed passes after one warm-up) to
    fit ``window_cost_s`` from the measured
    :class:`~repro.api.results.LayerTelemetry` (crossbar wall time per
    window) and ``stage_overhead_s`` from the serial wall time left
    over once the window cost is accounted for — the per-task fixed
    cost grouped dispatch amortizes. A single-group pool probe (every
    shard in one warm-pool submission) then isolates
    ``shard_dispatch_s`` as what one pooled pass costs beyond its
    predicted compute, and the pool construction itself is timed
    directly for ``pool_warmup_s``. Returns a :class:`CostModel` whose
    coefficients report ``source="calibrated"``.

    ``pool_scheduler`` / ``tile_scheduler`` reuse already-constructed
    (ideally warm) schedulers instead of building and tearing down
    throwaway pools — a calibration pass against a serving daemon's own
    pool costs milliseconds instead of a pool spin-up. When a warm pool
    is supplied, the one-time warmup cannot be observed, so
    ``pool_warmup_s`` keeps its default.

    The probes execute through the public Session surface, so what gets
    measured is exactly what the adaptive scheduler will dispatch.
    """
    # Imported here: the scheduler module imports this one at class
    # definition time, so a module-level import would be circular.
    import numpy as np

    from repro.runtime.plan import compile_plan, plan_shards
    from repro.runtime.scheduler import (
        ShardParallelScheduler,
        TileParallelScheduler,
    )

    images = np.asarray(images)
    defaults = CostCoefficients()

    def _timed_run(session):
        start = time.perf_counter()
        result = session.run(images)
        return result, time.perf_counter() - start

    # --- serial probe: window cost + per-task overhead -----------------
    with engine.session(seed=seed, backend=backend) as session:
        session.run(images)  # warm sampler tables / caches once
        best_windows_s = math.inf
        serial_wall = math.inf
        total_windows = 0
        n_shards = 1
        for _ in range(max(1, repeats)):
            result, wall = _timed_run(session)
            serial_wall = min(serial_wall, wall)
            n_shards = result.micro_batches
            total_windows = result.total_windows
            crossbar_wall = sum(
                t.wall_time_s for t in result.layers if t.windows > 0
            )
            if total_windows > 0 and crossbar_wall > 0:
                best_windows_s = min(best_windows_s, crossbar_wall / total_windows)
    window_cost_s = (
        best_windows_s if math.isfinite(best_windows_s) else defaults.window_cost_s
    )
    # The real task count (per-tile granularity, matching the
    # predictor) so the leftover serial time maps onto the same
    # ``len(plan.tasks)`` the chooser will multiply by.
    plan = compile_plan(
        engine.network,
        plan_shards(len(images), engine.micro_batch),
        input_shape=images.shape[1:],
    )
    n_tasks = max(1, len(plan.tasks))
    leftover = max(serial_wall - total_windows * window_cost_s, 0.0)
    stage_overhead_s = max(leftover / n_tasks, 1e-7)

    # --- pool probe: per-group dispatch + measured warmup --------------
    shard_dispatch_s = defaults.shard_dispatch_s
    pool_warmup_s = defaults.pool_warmup_s
    if probe_pool and n_shards > 1:
        owned_pool = pool_scheduler is None
        scheduler = pool_scheduler or ShardParallelScheduler(
            workers=1, inner=backend
        )
        try:
            if scheduler.pool_generation == 0:
                start = time.perf_counter()
                scheduler.warm(engine.network)
                pool_warmup_s = max(time.perf_counter() - start, 1e-6)
            with engine.session(
                seed=seed, backend=backend, scheduler=scheduler
            ) as session:
                session.run(images)  # settle the pooled path once
                pool_wall = math.inf
                # The first post-warm waves still pay one-off costs
                # (copy-on-write faults, scratch sizing); a single
                # sample would fold that noise into the dispatch fit,
                # so always take the best of a few.
                for _ in range(max(repeats, 3)):
                    result, wall = _timed_run(session)
                    pool_wall = min(pool_wall, wall)
            g = max(1, min(scheduler.workers, n_shards))
            compute_s = (
                result.total_windows * window_cost_s / g
                + g * (n_tasks / n_shards) * stage_overhead_s
            )
            shard_dispatch_s = max((pool_wall - compute_s) / g, 1e-6)
        finally:
            if owned_pool:
                scheduler.close()

    # --- tile probe: per-tile thread dispatch --------------------------
    tile_dispatch_s = defaults.tile_dispatch_s
    tile_widths = [
        layer.n_col_tiles for layer in engine.tiled_layers if layer.n_col_tiles > 1
    ]
    if probe_tiles and tile_widths:
        with engine.session(seed=seed, backend="stochastic-packed") as session:
            session.run(images)
            _, packed_wall = _timed_run(session)
        owned_tile = tile_scheduler is None
        scheduler = tile_scheduler or TileParallelScheduler(workers=workers)
        try:
            with engine.session(
                seed=seed, backend="stochastic-packed", scheduler=scheduler
            ) as session:
                session.run(images)
                _, tiled_wall = _timed_run(session)
        finally:
            if owned_tile:
                scheduler.close()
        n_tile_tasks = n_shards * sum(tile_widths)
        overhead = max(tiled_wall - packed_wall / max(1, workers), 0.0)
        tile_dispatch_s = max(overhead / max(1, n_tile_tasks), 1e-6)

    # Break-even: scale the probe plan by alpha until the warm grouped
    # fan-out's savings pay for its dispatch —
    #   alpha * [W*wc*(1 - 1/g) + T*so*(1 - g/S)] = g*sd
    # (windows split across g groups; per-task overhead paid g/S times;
    # one dispatch per group). Denominator <= 0 means this plan shape
    # never profits at these coefficients; keep the default threshold.
    g = max(1, min(workers, n_shards))
    savings_per_alpha = total_windows * window_cost_s * (
        1.0 - 1.0 / g
    ) + n_tasks * stage_overhead_s * (1.0 - g / n_shards)
    if savings_per_alpha > 0 and total_windows > 0:
        alpha = (g * shard_dispatch_s) / savings_per_alpha
        break_even_windows = alpha * total_windows
    else:
        break_even_windows = defaults.break_even_windows

    coefficients = replace(
        defaults,
        window_cost_s=window_cost_s,
        stage_overhead_s=stage_overhead_s,
        shard_dispatch_s=shard_dispatch_s,
        pool_warmup_s=pool_warmup_s,
        tile_dispatch_s=tile_dispatch_s,
        break_even_windows=break_even_windows,
        source="calibrated",
    )
    return CostModel(coefficients)


def load_cost_model(source=None) -> CostModel:
    """Resolve ``source`` into a :class:`CostModel`.

    ``None`` checks the ``REPRO_COST_COEFFICIENTS`` environment variable
    for a saved-coefficients path and falls back to the defaults; a
    path string loads that file; a :class:`CostCoefficients` wraps it; a
    :class:`CostModel` passes through.
    """
    if isinstance(source, CostModel):
        return source
    if isinstance(source, CostCoefficients):
        return CostModel(source)
    if source is None:
        configured = env_path("REPRO_COST_COEFFICIENTS")
        if configured:
            return CostModel(CostCoefficients.load(configured))
        return CostModel()
    if isinstance(source, (str, os.PathLike)):
        return CostModel(CostCoefficients.load(source))
    raise TypeError(
        f"cannot build a CostModel from {type(source).__name__}; pass a "
        f"CostModel, CostCoefficients, coefficients-JSON path, or None"
    )
