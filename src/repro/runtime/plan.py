"""Execution planning: shards, stage tasks, and compiled plans.

This module is the planning layer of the runtime subsystem.  It owns
the machinery that used to be inlined in :mod:`repro.api.engine`:

* :class:`Shard` / :class:`ShardPlan` / :func:`plan_shards` — how one
  batched request is split into independently executable, independently
  seeded micro-batches;
* :func:`seed_shard` — pinning a compiled network's full sampler state
  from one shard seed (the reproducibility primitive every execution
  path shares);
* :func:`run_stages` — one micro-batch through the stage pipeline (the
  single dataflow implementation used by the serial loop, the process
  pool workers, and the tile-parallel scheduler alike);

plus the new *explicit* plan representation:

* :class:`StageTask` — one schedulable unit of work: a (shard, stage,
  column-tile) triple with an estimated cost and its dependencies;
* :class:`ExecutionPlan` — the full DAG of stage tasks for a request,
  compiled by :func:`compile_plan` from a network + :class:`ShardPlan`.
  Costs are derived from the same geometry that feeds the existing
  :class:`~repro.hardware.cost.LayerWorkload` telemetry (sampled
  observation windows for crossbar stages), so schedulers reason about
  the exact quantity the benchmarks show dominates the stochastic path.

Shards are always independent (separate rows, separate seeds); within a
shard, stage ``i`` depends on every task of stage ``i - 1``, and a
crossbar stage fans out into one task per column tile — the axis the
``"tile-parallel"`` scheduler exploits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.results import LayerTelemetry
from repro.autograd.functional import im2col
from repro.hardware.cost import LayerWorkload
from repro.mapping.compiler import (
    CompiledNetwork,
    ConvStage,
    HeadStage,
    LinearStage,
    PoolStage,
    SignStage,
    ThermometerStage,
)
from repro.mapping.tiling import conv_output_geometry
from repro.sc.binomial import DrawBatch
from repro.utils.rng import new_rng

_INT8_ONE = np.int8(1)
_INT8_MINUS_ONE = np.int8(-1)


def _run_pool(stage: PoolStage, x: np.ndarray) -> np.ndarray:
    """2x2-style max pooling of +-1 maps (a digital OR in hardware)."""
    n, c, h, w = x.shape
    k = stage.kernel
    if h % k or w % k:
        raise ValueError(f"pooling {k} does not divide spatial dims {(h, w)}")
    view = x.reshape(n, c, h // k, k, w // k, k)
    return view.max(axis=(3, 5))


# ----------------------------------------------------------------------
# Shard planning — the one splitting/seeding code path shared by every
# scheduler (serial, shard-parallel, tile-parallel) and the daemon.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One micro-batch of a request: a half-open row range plus the
    child seed that pins the network's sampler state for it."""

    index: int
    start: int
    stop: int
    seed: Optional[int]

    @property
    def rows(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """How one batched request is split into independently executable,
    independently seeded micro-batches.

    The plan is the unit of reproducibility for sharded execution:
    executing the same plan over the same inputs yields bit-identical
    logits no matter which process runs which shard, because each shard
    re-establishes the sampler state from its own ``seed`` first (see
    :func:`seed_shard`).
    """

    batch_size: int
    shards: Tuple[Shard, ...]

    def __len__(self) -> int:
        return len(self.shards)

    def offset(self, rows: int, base_index: int = 0) -> "ShardPlan":
        """This plan translated ``rows`` down a larger concatenated
        buffer (shard indices shifted by ``base_index``).

        The seeds travel untouched — which is exactly what makes a
        coalesced daemon wave bit-identical to running each request's
        own plan separately: translation changes *where* a shard's rows
        live, never *what* the shard draws.
        """
        return ShardPlan(
            batch_size=self.batch_size,
            shards=tuple(
                Shard(
                    index=base_index + s.index,
                    start=s.start + rows,
                    stop=s.stop + rows,
                    seed=s.seed,
                )
                for s in self.shards
            ),
        )


def plan_shards(
    n: int, micro_batch: Optional[int], rng: Optional[np.random.Generator] = None
) -> ShardPlan:
    """Split an ``n``-row request into ``micro_batch``-sized shards.

    ``rng`` supplies one child seed per shard (drawn in shard order, so
    the draw count — and therefore the generator's subsequent state —
    depends only on the shard count, never on who executes the plan).
    Without a generator the shards carry ``seed=None`` and execution
    falls back to each worker's own entropy.

    An empty request still gets one (empty) shard so it flows through
    the pipeline once, preserving the legacy ``(0, n_classes)`` output.
    """
    size = micro_batch or n or 1
    starts = range(0, max(n, 1), size)
    if rng is None:
        seeds: List[Optional[int]] = [None] * len(starts)
    else:
        seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=len(starts))]
    shards = tuple(
        Shard(index=i, start=lo, stop=min(lo + size, n), seed=seeds[i])
        for i, lo in enumerate(starts)
    )
    return ShardPlan(batch_size=n, shards=shards)


def concat_plans(plans: Sequence[ShardPlan]) -> ShardPlan:
    """Merge per-request plans into one combined plan over their
    concatenated row buffers.

    Each request keeps its own shard boundaries and its own seeds —
    coalescing never re-shards across request edges, so executing the
    combined plan is bit-identical to executing every constituent plan
    on its own (the daemon's coalescing guarantee).
    """
    shards: List[Shard] = []
    rows = 0
    for plan in plans:
        shifted = plan.offset(rows, base_index=len(shards))
        shards.extend(shifted.shards)
        rows += plan.batch_size
    return ShardPlan(batch_size=rows, shards=tuple(shards))


def seed_shard(
    network: CompiledNetwork, seed: Optional[int]
) -> np.random.Generator:
    """Pin every sampler in ``network`` for one shard; returns the shard
    generator (backends that draw directly, like
    ``"stochastic-fused-batched"``, consume it after the reseed).

    The derivation is pure: shard seed -> per-layer children -> per-tile
    children, so any process holding an equivalent copy of the network
    replays identical stochastic draws for the shard. ``seed=None``
    (unplanned execution) leaves the network's current streams untouched.
    """
    if seed is None:
        return new_rng(None)
    rng = new_rng(seed)
    layers = network.tiled_layers
    # One vectorized child-seed draw (identical stream consumption to
    # the old per-layer spawn); the layers rebuild their tile/fused
    # generators lazily from the integer seeds, so re-pinning a shard
    # costs a handful of integer draws instead of one eager PCG64
    # construction per tile.
    children = rng.integers(0, 2**63 - 1, size=len(layers))
    for layer, child in zip(layers, children):
        layer.reseed_sampling(int(child))
    return rng


def run_stages(
    network: CompiledNetwork,
    x: np.ndarray,
    strategy,
    rng: np.random.Generator,
    telemetry: List[LayerTelemetry],
) -> np.ndarray:
    """One micro-batch through the stage pipeline (same dataflow and
    dtype discipline as the legacy executor, plus telemetry).

    Module-level on purpose: the in-process serial scheduler, the
    tile-parallel scheduler, and the process-pool workers all execute
    shards through this exact function, so the paths cannot drift.
    ``telemetry`` accumulates in place — later micro-batches fold into
    the first's records.
    """
    merge = bool(telemetry)
    deterministic = getattr(strategy, "deterministic", False)
    n = x.shape[0]
    # Shard-scoped backend setup: a strategy exposing ``begin_shard``
    # (the ``"stochastic-batched"`` backend) gets one look at the whole
    # micro-batch before the stage walk — where it pre-draws every
    # uniform the shard will consume in a single generator call.
    begin = getattr(strategy, "begin_shard", None)
    if begin is not None:
        begin(network, x, rng)
    trusted = False
    for index, stage in enumerate(network.stages):
        t0 = time.perf_counter()
        record = LayerTelemetry(index=index, kind="?")
        if isinstance(stage, SignStage):
            x = np.where(x >= 0, _INT8_ONE, _INT8_MINUS_ONE)
            trusted = True
            record.kind = "encode"
        elif isinstance(stage, ThermometerStage):
            planes = [
                np.where(x - t >= 0, _INT8_ONE, _INT8_MINUS_ONE)
                for t in stage.thresholds
            ]
            x = np.concatenate(planes, axis=1)
            trusted = True
            record.kind = "encode"
        elif isinstance(stage, ConvStage):
            validate = None if not trusted else False
            h, w = x.shape[2], x.shape[3]
            h_out, w_out = conv_output_geometry(
                h, w, stage.kernel, stage.stride, stage.padding
            )
            cols, _ = im2col(x, stage.kernel, stage.stride, stage.padding)
            fan_in = cols.shape[1]
            flat = cols.transpose(0, 2, 1).reshape(-1, fan_in)
            out = strategy.run_layer(stage.layer, flat, rng=rng, validate=validate)
            out = out.reshape(n, h_out * w_out, stage.out_channels).transpose(
                0, 2, 1
            )
            x = out.reshape(n, stage.out_channels, h_out, w_out)
            x = x.astype(np.int8, copy=False)
            trusted = True
            record.kind = "conv"
            record.in_features = stage.layer.in_features
            record.out_features = stage.layer.out_features
            record.positions = h_out * w_out
            if not deterministic:
                record.windows = (
                    n
                    * record.positions
                    * stage.layer.n_row_tiles
                    * stage.layer.n_col_tiles
                )
        elif isinstance(stage, LinearStage):
            validate = None if not trusted else False
            if x.ndim > 2:
                # explicit fan-in (reshape -1 cannot infer it when N=0)
                x = x.reshape(x.shape[0], int(np.prod(x.shape[1:])))
            x = strategy.run_layer(stage.layer, x, rng=rng, validate=validate)
            x = x.astype(np.int8, copy=False)
            trusted = True
            record.kind = "linear"
            record.in_features = stage.layer.in_features
            record.out_features = stage.layer.out_features
            if not deterministic:
                record.windows = (
                    n * stage.layer.n_row_tiles * stage.layer.n_col_tiles
                )
        elif isinstance(stage, PoolStage):
            x = _run_pool(stage, x)
            record.kind = "pool"
        elif isinstance(stage, HeadStage):
            if x.ndim > 2:
                # explicit fan-in (reshape -1 cannot infer it when N=0)
                x = x.reshape(x.shape[0], int(np.prod(x.shape[1:])))
            x = stage.logits(x)
            record.kind = "head"
            record.in_features = stage.weight.shape[1]
            record.out_features = stage.weight.shape[0]
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown stage {type(stage).__name__}")
        record.wall_time_s = time.perf_counter() - t0
        if merge:
            telemetry[index].merge(record)
        else:
            telemetry.append(record)
    return x


# ----------------------------------------------------------------------
# Grouped shard execution — the warm-pool fast path. Several contiguous
# shards of one request run through the stage pipeline *stage-major*:
# every numpy pass (im2col, the fused matmul, the vectorized inverse-CDF
# gather) covers all rows of the group at once, while the per-shard
# uniforms are drawn separately, in shard order, from each shard's own
# derived generator chain and concatenated along the batch axis. Because
# every stage is row-independent (shards never exchange data) and each
# shard's generator chain is reproduced exactly, the grouped result is
# bit-identical to running the shards one by one through `run_stages` —
# the amortization changes how many numpy/RNG invocations are made,
# never what any shard draws.
# ----------------------------------------------------------------------

#: Backends whose per-shard draw chains `run_stages_group` can
#: reproduce externally (their crossbar passes route through the fused
#: inverse-CDF sampler, whose uniforms can be caller-supplied).
GROUP_VECTOR_BACKENDS = frozenset({"stochastic", "stochastic-batched"})


def batched_draw_elements(
    network: CompiledNetwork, input_shape, rows: int
) -> Optional[int]:
    """Total uniforms one ``rows``-row shard consumes across the plan.

    The ``"stochastic-batched"`` backend sizes its per-shard
    :class:`~repro.sc.binomial.DrawBatch` with this: one fused crossbar
    pass draws ``n_row_tiles * rows * positions * out_features``
    uniforms (the column-value tensor's element count). Returns None
    when any crossbar stage cannot take pre-drawn uniforms (no fused
    sampler, or a window too long for the cached CDF tables) — callers
    then fall back to per-pass draws.

    The count is linear in ``rows``, and the geometry walk costs more
    than a shard pass can afford when repeated per shard, so the
    per-row total is memoized on the network (keyed by ``input_shape``;
    compiled pipelines are structurally immutable, and whether a layer
    supports batched draws is a function of its fixed geometry).
    """
    key = tuple(int(d) for d in input_shape)
    cache = getattr(network, "_draw_elements_per_row", None)
    if cache is None:
        cache = network._draw_elements_per_row = {}
    if key not in cache:
        per_row: Optional[int] = 0
        for kind, positions, layer in _stage_geometry(network, key):
            if layer is None:
                continue
            if not layer.supports_batched_draws():
                per_row = None
                break
            per_row += layer.n_row_tiles * positions * layer.out_features
        cache[key] = per_row
    per_row = cache[key]
    if per_row is None:
        return None
    return per_row * rows


def group_vectorizable(network, strategy, shards=None) -> bool:
    """Whether :func:`run_stages_group` can execute shards of this
    network under ``strategy`` in one stage-major vectorized pass.

    Requires a backend whose draw chain the group executor reproduces
    (:data:`GROUP_VECTOR_BACKENDS`), every crossbar stage on the fused
    inverse-CDF path with cached tables, and — when ``shards`` is given
    — a real seed on every shard (``seed=None`` means "the worker's own
    entropy", which cannot be replayed externally).
    """
    if getattr(strategy, "name", None) not in GROUP_VECTOR_BACKENDS:
        return False
    layers = network.tiled_layers
    if not layers:
        return False
    if not all(layer.supports_batched_draws() for layer in layers):
        return False
    if shards is not None and any(s.seed is None for s in shards):
        return False
    return True


class _FusedChainDraws:
    """Per-shard uniforms for the ``"stochastic"`` dispatch backend.

    Reproduces the exact generator chain serial execution walks: shard
    seed -> per-layer children (one vectorized draw, as in
    :func:`seed_shard`) -> per-layer tile children -> the fused
    sampler's seed (the *last* child, as in
    ``TiledLinearLayer.reseed_sampling``). Each fused generator serves
    one serial layer pass — drawn block by block in C order, the same
    doubles as one ``.random(shape)`` call — so building it on demand
    and drawing once reproduces the stream.
    """

    def __init__(self, layers, seed: int) -> None:
        rng = new_rng(seed)
        layer_seeds = rng.integers(0, 2**63 - 1, size=len(layers))
        self._fused_seeds = []
        for layer, layer_seed in zip(layers, layer_seeds):
            lrng = np.random.default_rng(int(layer_seed))
            children = lrng.integers(
                0, 2**63 - 1, size=layer.n_row_tiles * layer.n_col_tiles + 1
            )
            self._fused_seeds.append(int(children[-1]))

    def take(self, layer_index: int, shape) -> np.ndarray:
        return np.random.default_rng(self._fused_seeds[layer_index]).random(shape)


class _BatchedChainDraws:
    """Per-shard uniforms for the ``"stochastic-batched"`` backend.

    Serial chain: ``seed_shard`` burns one vectorized child-seed draw on
    the shard generator, then ``begin_shard`` pre-draws the whole
    shard's uniforms in one ``random(total)`` call. Consecutive slices
    of that call are bit-identical to the per-stage draws (the
    :class:`DrawBatch` contract).
    """

    def __init__(self, network, layers, seed: int, input_shape, rows: int) -> None:
        rng = new_rng(seed)
        rng.integers(0, 2**63 - 1, size=len(layers))  # seed_shard's draw
        total = batched_draw_elements(network, input_shape, rows)
        self._draws = DrawBatch(rng, total)

    def take(self, layer_index: int, shape) -> np.ndarray:
        return self._draws.take(shape)


def run_stages_group(
    network: CompiledNetwork,
    x: np.ndarray,
    shard_specs: Sequence[Tuple[Optional[int], int, int]],
    strategy,
) -> List[Tuple[np.ndarray, List[LayerTelemetry]]]:
    """Several contiguous shards through the pipeline in one vectorized
    pass; bit-identical to per-shard :func:`run_stages` execution.

    ``x`` is the group's row slab; ``shard_specs`` lists ``(seed,
    start, stop)`` row ranges into it — contiguous, ordered, covering
    the slab. Check :func:`group_vectorizable` first. Returns one
    ``(logits, telemetry)`` pair per spec, in order.
    """
    name = getattr(strategy, "name", None)
    if name not in GROUP_VECTOR_BACKENDS:  # pragma: no cover - defensive
        raise ValueError(f"backend {name!r} is not group-vectorizable")
    layers = network.tiled_layers
    specs = specs_list(shard_specs)
    n = x.shape[0]
    input_shape = x.shape[1:]
    if name == "stochastic":
        sources = [_FusedChainDraws(layers, seed) for seed, _, _ in specs]
    else:
        sources = [
            _BatchedChainDraws(network, layers, seed, input_shape, stop - start)
            for seed, start, stop in specs
        ]

    telemetry: List[List[LayerTelemetry]] = [[] for _ in specs]
    row_counts = [stop - start for _, start, stop in specs]
    total_rows = max(n, 1)
    layer_index = 0
    trusted = False

    def crossbar_pass(layer, flat, validate, rows_scale):
        """One fused crossbar pass over the group slab.

        ``rows_scale`` maps shard rows to rows of ``flat`` (the conv
        ``positions`` factor); shard blocks are contiguous along the
        batch axis, so the per-shard uniforms concatenate there and the
        layer's blocked pass slices the result block by block.
        """
        k, out = layer.n_row_tiles, layer.out_features
        pieces = [
            src.take(layer_index, (k, rows * rows_scale, out))
            for src, rows in zip(sources, row_counts)
        ]
        u = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
        result = layer._fused_pass(flat, validate, u)
        # One pass per shard, as serial per-shard execution counts them.
        layer.n_passes += layer.n_row_tiles * layer.n_col_tiles * (len(specs) - 1)
        return result

    for index, stage in enumerate(network.stages):
        t0 = time.perf_counter()
        records = [LayerTelemetry(index=index, kind="?") for _ in specs]
        if isinstance(stage, SignStage):
            x = np.where(x >= 0, _INT8_ONE, _INT8_MINUS_ONE)
            trusted = True
            for record in records:
                record.kind = "encode"
        elif isinstance(stage, ThermometerStage):
            planes = [
                np.where(x - t >= 0, _INT8_ONE, _INT8_MINUS_ONE)
                for t in stage.thresholds
            ]
            x = np.concatenate(planes, axis=1)
            trusted = True
            for record in records:
                record.kind = "encode"
        elif isinstance(stage, ConvStage):
            validate = None if not trusted else False
            h, w = x.shape[2], x.shape[3]
            h_out, w_out = conv_output_geometry(
                h, w, stage.kernel, stage.stride, stage.padding
            )
            cols, _ = im2col(x, stage.kernel, stage.stride, stage.padding)
            fan_in = cols.shape[1]
            flat = cols.transpose(0, 2, 1).reshape(-1, fan_in)
            out = crossbar_pass(stage.layer, flat, validate, h_out * w_out)
            out = out.reshape(n, h_out * w_out, stage.out_channels).transpose(
                0, 2, 1
            )
            x = out.reshape(n, stage.out_channels, h_out, w_out)
            x = x.astype(np.int8, copy=False)
            trusted = True
            layer_index += 1
            for record, rows in zip(records, row_counts):
                record.kind = "conv"
                record.in_features = stage.layer.in_features
                record.out_features = stage.layer.out_features
                record.positions = h_out * w_out
                record.windows = (
                    rows
                    * record.positions
                    * stage.layer.n_row_tiles
                    * stage.layer.n_col_tiles
                )
        elif isinstance(stage, LinearStage):
            validate = None if not trusted else False
            if x.ndim > 2:
                x = x.reshape(x.shape[0], int(np.prod(x.shape[1:])))
            x = crossbar_pass(stage.layer, x, validate, 1)
            x = x.astype(np.int8, copy=False)
            trusted = True
            layer_index += 1
            for record, rows in zip(records, row_counts):
                record.kind = "linear"
                record.in_features = stage.layer.in_features
                record.out_features = stage.layer.out_features
                record.windows = (
                    rows * stage.layer.n_row_tiles * stage.layer.n_col_tiles
                )
        elif isinstance(stage, PoolStage):
            x = _run_pool(stage, x)
            for record in records:
                record.kind = "pool"
        elif isinstance(stage, HeadStage):
            if x.ndim > 2:
                x = x.reshape(x.shape[0], int(np.prod(x.shape[1:])))
            x = stage.logits(x)
            for record, rows in zip(records, row_counts):
                record.kind = "head"
                record.in_features = stage.weight.shape[1]
                record.out_features = stage.weight.shape[0]
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown stage {type(stage).__name__}")
        elapsed = time.perf_counter() - t0
        # Stage wall time apportioned by row share — the group ran the
        # stage once; per-shard telemetry keeps the serial schema.
        for i, (record, rows) in enumerate(zip(records, row_counts)):
            record.wall_time_s = elapsed * (rows / total_rows)
            telemetry[i].append(record)

    return [
        (x[start:stop], telemetry[i])
        for i, (_seed, start, stop) in enumerate(specs)
    ]


def specs_list(shard_specs) -> List[Tuple[Optional[int], int, int]]:
    """Normalize ``shard_specs`` (tuples or :class:`Shard`-likes)."""
    out: List[Tuple[Optional[int], int, int]] = []
    for spec in shard_specs:
        if isinstance(spec, tuple):
            seed, start, stop = spec
        else:
            seed, start, stop = spec.seed, spec.start, spec.stop
        out.append((seed, int(start), int(stop)))
    return out


# ----------------------------------------------------------------------
# Explicit execution plans: the (shard x stage x tile) task DAG.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageTask:
    """One schedulable unit of work in an :class:`ExecutionPlan`.

    ``tile`` is the column-tile index for crossbar stages (conv/linear)
    and None for everything else; ``cost`` is the estimated number of
    sampled observation windows the task draws (zero for deterministic
    stages) — the quantity the kernel benchmarks show bounds the
    stochastic path. ``deps`` lists the task ids that must complete
    first (all tasks of the previous stage in the same shard).
    """

    id: int
    shard: int
    stage: int
    kind: str  # "encode" | "conv" | "linear" | "pool" | "head"
    tile: Optional[int]
    cost: float
    deps: Tuple[int, ...]


@dataclass(frozen=True)
class ExecutionPlan:
    """A request compiled into an explicit task DAG.

    Wraps the :class:`ShardPlan` (row ranges + seeds — the
    reproducibility contract) with per-(shard, stage, tile) tasks and
    cost estimates, plus the per-stage
    :class:`~repro.hardware.cost.LayerWorkload` records the estimates
    derive from. Tasks are stored in topological order (shard-major,
    stage-minor), so iterating ``tasks`` is a valid serial schedule.
    """

    shard_plan: ShardPlan
    tasks: Tuple[StageTask, ...]
    stage_workloads: Tuple[Optional[LayerWorkload], ...]

    @property
    def batch_size(self) -> int:
        return self.shard_plan.batch_size

    @property
    def shards(self) -> Tuple[Shard, ...]:
        return self.shard_plan.shards

    def __len__(self) -> int:
        return len(self.shard_plan)

    @property
    def total_cost(self) -> float:
        """Estimated sampled windows across every task in the plan."""
        return sum(t.cost for t in self.tasks)

    def critical_path_cost(self) -> float:
        """Longest dependency chain by cost — the plan's lower bound
        under unlimited parallelism (shards and column tiles run
        concurrently; stages within a shard cannot)."""
        finish: Dict[int, float] = {}
        best = 0.0
        for task in self.tasks:  # already topologically ordered
            start = max((finish[d] for d in task.deps), default=0.0)
            finish[task.id] = start + task.cost
            best = max(best, finish[task.id])
        return best

    def tile_width(self, stage: int) -> int:
        """How many column-tile tasks ``stage`` fans out into per shard
        (1 for non-crossbar stages) — the tile-parallel scheduler's
        fan-out decision."""
        width = 0
        for task in self.tasks:
            if task.stage == stage and task.shard == self.tasks[0].shard:
                width += 1
        return max(width, 1)

    @property
    def max_tile_width(self) -> int:
        """The widest per-stage column-tile fan-out in the plan — the
        upper bound on what tile-parallel execution can exploit."""
        if not self.tasks:
            return 1
        first = self.tasks[0].shard
        widths: Dict[int, int] = {}
        for task in self.tasks:
            if task.shard != first:
                break  # tasks are shard-major; later shards repeat the shape
            widths[task.stage] = widths.get(task.stage, 0) + 1
        return max(widths.values(), default=1)

    def shard_tasks(self, shard: int) -> List[StageTask]:
        return [t for t in self.tasks if t.shard == shard]


def _stage_geometry(network: CompiledNetwork, input_shape):
    """Per-stage (kind, positions, layer-or-None) walk.

    ``input_shape`` is the per-item shape (C, H, W) for image inputs or
    (features,) for flat inputs; conv geometry needs the spatial dims,
    everything else is shape-agnostic.
    """
    spatial = tuple(input_shape or ())
    h, w = (spatial[1], spatial[2]) if len(spatial) == 3 else (0, 0)
    records = []
    for stage in network.stages:
        if isinstance(stage, (SignStage, ThermometerStage)):
            records.append(("encode", 1, None))
        elif isinstance(stage, ConvStage):
            h, w = conv_output_geometry(
                h, w, stage.kernel, stage.stride, stage.padding
            )
            records.append(("conv", h * w, stage.layer))
        elif isinstance(stage, PoolStage):
            h //= stage.kernel
            w //= stage.kernel
            records.append(("pool", 1, None))
        elif isinstance(stage, LinearStage):
            records.append(("linear", 1, stage.layer))
        elif isinstance(stage, HeadStage):
            records.append(("head", 1, None))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown stage {type(stage).__name__}")
    return records


def compile_plan(
    network: CompiledNetwork,
    shard_plan: ShardPlan,
    input_shape=None,
) -> ExecutionPlan:
    """Compile a network + shard plan into an explicit task DAG.

    One task per (shard, stage) pair, fanned out per column tile for
    crossbar stages. Task costs are estimated sampled windows —
    ``rows * positions * n_row_tiles`` per column tile, the same
    geometry the :class:`~repro.api.results.LayerTelemetry` workload
    records report after the fact — so a scheduler's view of the plan
    matches what the telemetry will measure.

    Tasks and workloads depend only on the network geometry, the shard
    row layout, and the input shape — never on the seeds — so they are
    memoized on the network: an adaptive session re-planning the same
    request shape every run rebuilds nothing but the (cheap) plan
    wrapper around its freshly seeded shards.
    """
    key = (
        tuple(shard.rows for shard in shard_plan.shards),
        tuple(int(d) for d in (input_shape or ())),
    )
    cache = getattr(network, "_task_graph_cache", None)
    if cache is None:
        cache = network._task_graph_cache = {}
    cached = cache.get(key)
    if cached is not None:
        tasks, workloads = cached
        return ExecutionPlan(
            shard_plan=shard_plan,
            tasks=tasks,
            stage_workloads=workloads,
        )
    geometry = _stage_geometry(network, input_shape)
    workloads: List[Optional[LayerWorkload]] = []
    for (kind, positions, layer), stage in zip(geometry, network.stages):
        if kind in ("conv", "linear"):
            workloads.append(
                LayerWorkload(
                    in_features=layer.in_features,
                    out_features=layer.out_features,
                    positions=positions,
                )
            )
        elif kind == "head":
            workloads.append(
                LayerWorkload(
                    in_features=stage.weight.shape[1],
                    out_features=stage.weight.shape[0],
                )
            )
        else:
            workloads.append(None)

    tasks: List[StageTask] = []
    for shard in shard_plan.shards:
        rows = shard.rows
        previous: Tuple[int, ...] = ()
        for stage_index, (kind, positions, layer) in enumerate(geometry):
            current: List[int] = []
            if layer is not None:
                per_tile = float(rows * positions * layer.n_row_tiles)
                for tile in range(layer.n_col_tiles):
                    task = StageTask(
                        id=len(tasks),
                        shard=shard.index,
                        stage=stage_index,
                        kind=kind,
                        tile=tile,
                        cost=per_tile,
                        deps=previous,
                    )
                    tasks.append(task)
                    current.append(task.id)
            else:
                task = StageTask(
                    id=len(tasks),
                    shard=shard.index,
                    stage=stage_index,
                    kind=kind,
                    tile=None,
                    cost=0.0,
                    deps=previous,
                )
                tasks.append(task)
                current.append(task.id)
            previous = tuple(current)
    cache[key] = (tuple(tasks), tuple(workloads))
    return ExecutionPlan(
        shard_plan=shard_plan,
        tasks=cache[key][0],
        stage_workloads=cache[key][1],
    )
