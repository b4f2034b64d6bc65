"""Tiled multi-crossbar execution with SC accumulation (paper Fig. 6b).

A BNN layer whose fan-in exceeds one crossbar is split across K row
tiles; each tile's stochastic neuron outputs are observed for L clocks
and merged by the SC accumulation module. Column tiling handles layers
with more filters than crossbar columns.

BN matching (paper Sec. 5.2) programs per-column threshold currents; when
a filter spans K crossbars the threshold is divided evenly among them.

:meth:`TiledLinearLayer.forward` picks one of two hardware-faithful
execution paths per column tile:

* **Fused counts** (default, exact APC): each tile draws its window
  total directly from ``Binomial(L, p)`` and the accumulation module
  compares the summed counts against the reference — the ``(K, L, N,
  cols)`` bit tensor of the naive simulation is never built, and neither
  is the ``(K, N, out)`` count tensor: :meth:`TiledLinearLayer._fused_pass`
  walks that space in cache-sized blocks (:func:`fused_blocks`), adding
  each block's counts into an ``(N, out)`` total. Exactly
  distribution-equivalent. Its callers are ``forward`` (the sampler's
  generator), :meth:`TiledLinearLayer.forward_batched` (a caller
  generator or a :class:`~repro.sc.binomial.DrawBatch`) and the grouped
  shard executor (:func:`repro.runtime.plan.run_stages_group`, a
  pre-drawn uniform array); all get the same counts from the same
  uniforms, block boundaries notwithstanding.
* **Bit-level** (``approximate_layers > 0``): the OR-compressed APC
  needs individual bit coincidences, so tiles emit bit-packed windows
  (uint64 words, 64 clocks per word) that the module counts with
  packed-word popcounts.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.config import HardwareConfig
from repro.hardware.crossbar import CrossbarArray, check_activation_alphabet
from repro.sc.accumulate import ScAccumulationModule
from repro.sc.binomial import DrawBatch
from repro.utils.rng import RngMixin, SeedLike

#: Elements of the ``(K, N, out)`` count space one step of the fused
#: pass works on. A block's values, uniforms, law indices and counts stay
#: cache-resident instead of streaming full-size temporaries through
#: memory; a sweep from 2^12 to 2^17 on the VGG conv passes put the
#: optimum at 2^15-2^16 (2^12 was slower than no blocking at all).
_FUSED_BLOCK_ELEMENTS = 1 << 15


def fused_blocks(k_tiles: int, rows: int, cols: int):
    """``(k0, k1, r0, r1)`` blocks covering a ``(k_tiles, rows, cols)``
    space in C order, each about ``_FUSED_BLOCK_ELEMENTS`` elements.

    When one row-tile slab (``rows * cols``) fits a block, blocks are
    groups of whole slabs, so a few-image request stays one vectorized
    step; otherwise each slab is cut into row ranges of equal size.
    Visiting the blocks in order walks the space in C order (k outer,
    rows inner), which is what keeps block-by-block generator draws
    identical to one draw of the whole space.
    """
    slab = rows * cols
    if slab == 0:
        return []
    if slab <= _FUSED_BLOCK_ELEMENTS:
        step = _FUSED_BLOCK_ELEMENTS // slab
        return [(k, min(k + step, k_tiles), 0, rows) for k in range(0, k_tiles, step)]
    pieces = -(-slab // _FUSED_BLOCK_ELEMENTS)
    step = -(-rows // pieces)
    return [
        (k, k + 1, r, min(r + step, rows))
        for k in range(k_tiles)
        for r in range(0, rows, step)
    ]


class TiledLinearLayer(RngMixin):
    """One BNN layer (as a +-1 matrix) mapped onto a grid of crossbars.

    Parameters
    ----------
    config:
        Hardware configuration shared by all tiles.
    weights:
        +-1 matrix of shape ``(in_features, out_features)``.
    threshold_ua:
        Per-output threshold currents (from BN matching); scalar or
        shape ``(out_features,)``. Divided evenly across the K row tiles.
    approximate_layers:
        OR-only compression layers in the SC accumulation module's APC
        (0 = exact counting, which enables the fused-count fast path).
    """

    def __init__(
        self,
        config: HardwareConfig,
        weights: np.ndarray,
        threshold_ua=0.0,
        seed: SeedLike = None,
        approximate_layers: int = 0,
    ) -> None:
        super().__init__(seed)
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got {w.shape}")
        if not np.all(np.isin(w, (-1.0, 1.0))):
            raise ValueError("layer weights must be +-1")
        self.config = config
        self.in_features, self.out_features = w.shape
        cs = config.crossbar_size
        self.n_row_tiles = math.ceil(self.in_features / cs)
        self.n_col_tiles = math.ceil(self.out_features / cs)
        thresholds = np.broadcast_to(
            np.asarray(threshold_ua, dtype=np.float64), (self.out_features,)
        )

        # Child seeds in one vectorized draw; the tiles build their
        # generators lazily on first use (RngMixin), so layer setup and
        # reseeding never pay K*J eager PCG64 constructions. The draw
        # order and per-seed streams match the old spawn_rng exactly.
        child_seeds = self.rng.integers(0, 2**63 - 1, size=self.n_row_tiles * self.n_col_tiles)
        self.tiles: List[List[CrossbarArray]] = []
        for i in range(self.n_row_tiles):
            row: List[CrossbarArray] = []
            rows_slice = slice(i * cs, min((i + 1) * cs, self.in_features))
            for j in range(self.n_col_tiles):
                cols_slice = slice(j * cs, min((j + 1) * cs, self.out_features))
                tile = CrossbarArray(
                    config,
                    w[rows_slice, cols_slice],
                    # Eq. 16 threshold split evenly over the K row tiles.
                    threshold_ua=thresholds[cols_slice] / self.n_row_tiles,
                    seed=int(child_seeds[i * self.n_col_tiles + j]),
                )
                row.append(tile)
            self.tiles.append(row)

        self.module = ScAccumulationModule(
            n_crossbars=self.n_row_tiles,
            window_bits=config.window_bits,
            approximate_layers=approximate_layers,
        )
        # Fused-count fast path: the layer's weights padded to a
        # (K, Cs, out) block so forward computes all K * out column
        # values in one batched matmul, plus a single wide sampler
        # crossbar whose CDF tables serve every row strip — column
        # physics are independent and identical across strips (the
        # thresholds are split evenly), so one sampler covers them all.
        self._fused_sampler: Optional[CrossbarArray] = None
        self._fused_weights: Optional[np.ndarray] = None
        if self.module.supports_fused_counts:
            self._fused_sampler = CrossbarArray(
                config,
                w[: min(cs, self.in_features), :],
                threshold_ua=thresholds / self.n_row_tiles,
                seed=int(self.rng.integers(0, 2**63 - 1, size=1)[0]),
                _allow_wide=True,
            )
            padded = np.zeros(
                (self.n_row_tiles * cs, self.out_features), dtype=np.float64
            )
            padded[: self.in_features] = w
            self._fused_weights = np.ascontiguousarray(
                padded.reshape(self.n_row_tiles, cs, self.out_features)
            )
        # Execution statistics for the cost model.
        self.n_passes = 0
        self.n_inferences = 0

    # ------------------------------------------------------------------
    def _normalize_activations(self, activations: np.ndarray) -> np.ndarray:
        a = np.asarray(activations)
        # int8 +-1 buffers (the executor's working dtype) pass through
        # untouched; everything else normalizes to float64 as before.
        if a.dtype != np.int8 and a.dtype != np.float64:
            a = a.astype(np.float64)
        if a.ndim == 1:
            a = a[None, :]
        if a.shape[-1] != self.in_features:
            raise ValueError(
                f"activations last dim {a.shape[-1]} != in_features {self.in_features}"
            )
        return a

    def _split_activations(self, activations: np.ndarray) -> List[np.ndarray]:
        a = self._normalize_activations(activations)
        cs = self.config.crossbar_size
        return [
            a[:, i * cs : min((i + 1) * cs, self.in_features)]
            for i in range(self.n_row_tiles)
        ]

    def forward(self, activations: np.ndarray, validate=None) -> np.ndarray:
        """Hardware-faithful stochastic output, +-1 of shape (N, out).

        Dispatches per column tile: fused Binomial counts when the
        accumulation module's APC is exact, bit-packed windows for the
        approximate bit-level path. ``validate`` (None = the config's
        ``validate_inputs``) gates the per-tile activation-alphabet scan.
        """
        if self._fused_sampler is not None:
            return self._forward_fused(activations, validate)
        return self.forward_packed(activations, validate=validate)

    def forward_dense(self, activations: np.ndarray, validate=None) -> np.ndarray:
        """Bit-level execution on dense float windows (legacy path).

        Every tile materializes its full ``(L, N, cols)`` +-1 window and
        the accumulation module counts the raw bits — the slowest but
        most literal simulation, kept as the reference the packed and
        fused paths are checked against (the ``"stochastic-dense"``
        backend).
        """
        chunks = self._split_activations(activations)
        n = chunks[0].shape[0]
        outputs = []
        for j in range(self.n_col_tiles):
            streams = np.stack(
                [
                    self.tiles[i][j].sample_window(chunks[i], validate=validate)
                    for i in range(self.n_row_tiles)
                ],
                axis=0,
            )  # (K, L, N, cols) +-1 windows
            outputs.append(self.module.accumulate(streams))
        self.n_passes += self.n_row_tiles * self.n_col_tiles
        self.n_inferences += n
        return np.concatenate(outputs, axis=-1)

    def forward_packed(self, activations: np.ndarray, validate=None) -> np.ndarray:
        """Bit-level execution on uint64 bit-plane words.

        The per-column-tile loop of the packed sampling engine (the
        ``"stochastic-packed"`` backend); also the only execution path
        that supports an approximate (OR-compressed) APC, which needs
        individual bit coincidences.
        """
        chunks = self._split_activations(activations)
        n = chunks[0].shape[0]
        outputs = []
        for j in range(self.n_col_tiles):
            words = np.stack(
                [
                    self.tiles[i][j]
                    .sample_window(chunks[i], packed=True, validate=validate)
                    .words
                    for i in range(self.n_row_tiles)
                ],
                axis=0,
            )  # (K, W, N, cols) packed windows
            outputs.append(self.module.accumulate_packed(words))
        self.n_passes += self.n_row_tiles * self.n_col_tiles
        self.n_inferences += n
        return np.concatenate(outputs, axis=-1)

    def forward_fused_batched(
        self,
        activations: np.ndarray,
        validate=None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Fused-count execution with one concatenated Binomial draw.

        The column values of every row strip are computed in one batched
        matmul over the whole ``(K, N, out)`` space, and the window
        counts come from a *single* ``Generator.binomial`` call over the
        concatenated tiles instead of per-table inverse-CDF gathers — the
        whole layer costs one RNG invocation. ``rng`` lets a
        :class:`repro.api.Session` supply its own generator so it owns
        the stochastic state end to end.
        """
        if self._fused_sampler is None:
            raise ValueError(
                "forward_fused_batched requires an exact APC "
                f"(approximate_layers={self.module.apc.approximate_layers}); "
                "use forward_packed for the bit-level path"
            )
        a = self._normalize_activations(activations)
        check_activation_alphabet(a, self.config, validate)
        n = a.shape[0]
        values = self._strips(a).astype(np.float64) @ self._fused_weights
        probabilities = self._fused_sampler._probabilities_from_values(values)
        gen = self.rng if rng is None else rng
        counts = gen.binomial(self.config.window_bits, probabilities)
        self.n_passes += self.n_row_tiles * self.n_col_tiles
        self.n_inferences += n
        return self.module.accumulate_counts(counts)

    def supports_batched_draws(self) -> bool:
        """Whether :meth:`forward_batched` can take pre-drawn uniforms.

        True when the fused path is active *and* the window is short
        enough for the cached inverse-CDF tables — the
        ``Generator.binomial`` fallback for very long windows cannot
        consume caller-supplied uniforms.
        """
        return (
            self._fused_sampler is not None
            and self._fused_sampler.supports_batched_draws(self.config.window_bits)
        )

    def forward_batched(
        self,
        activations: np.ndarray,
        validate=None,
        rng: Optional[np.random.Generator] = None,
        uniforms: Optional[DrawBatch] = None,
    ) -> np.ndarray:
        """Fused-count execution on caller-owned uniforms.

        The ``"stochastic-batched"`` backend's layer pass: the same
        blocked pass as :meth:`_forward_fused`, but the uniforms driving
        the count sampler come from the *caller* — either ``uniforms``
        (a :class:`~repro.sc.binomial.DrawBatch` pre-drawn for the whole
        shard pass, one ``Generator.random`` call total) or ``rng``
        (drawn block by block; the layer generator when omitted). The
        sampled counts are bit-identical for the same generator either
        way (the DrawBatch slices are the same doubles the block draws
        produce); only the number of generator invocations changes.
        """
        if self._fused_sampler is None:
            raise ValueError(
                "forward_batched requires an exact APC "
                f"(approximate_layers={self.module.apc.approximate_layers}); "
                "use forward_packed for the bit-level path"
            )
        if uniforms is not None and not self.supports_batched_draws():
            # Long-window fallback: Generator.binomial owns its own
            # draws, so batched uniforms cannot apply here.
            raise ValueError(
                "pre-drawn uniforms require cached CDF tables; check "
                "supports_batched_draws() before building a DrawBatch"
            )
        if uniforms is None:
            uniforms = self.rng if rng is None else rng
        return self._fused_pass(activations, validate, uniforms)

    def reseed_sampling(self, seed: SeedLike) -> None:
        """Deterministically reseed every sampler in the layer.

        Replaces the layer RNG and re-derives each tile's generator plus
        the fused sampler's from it, so two layers reseeded with the
        same value replay identical stochastic draws regardless of prior
        use. :class:`repro.api.Session` uses this to own RNG state.
        """
        self.reseed(seed)
        children = self.rng.integers(
            0, 2**63 - 1, size=self.n_row_tiles * self.n_col_tiles + 1
        )
        for i in range(self.n_row_tiles):
            for j in range(self.n_col_tiles):
                self.tiles[i][j].reseed(int(children[i * self.n_col_tiles + j]))
        if self._fused_sampler is not None:
            self._fused_sampler.reseed(int(children[-1]))

    def _forward_fused(self, activations: np.ndarray, validate=None) -> np.ndarray:
        """Fused-count execution on the shared sampler's generator."""
        return self._fused_pass(activations, validate, self._fused_sampler.rng)

    def _strips(self, a: np.ndarray) -> np.ndarray:
        """``(K, N, Cs)`` row-strip view of a batch, zero-padded to the
        ``K * Cs`` tile grid (a copy only when the fan-in needs padding;
        the dtype is kept, so int8 batches stay one byte per element)."""
        n = a.shape[0]
        cs = self.config.crossbar_size
        padded_in = self.n_row_tiles * cs
        if padded_in != self.in_features:
            a_pad = np.zeros((n, padded_in), dtype=a.dtype)
            a_pad[:, : self.in_features] = a
            a = a_pad
        return a.reshape(n, self.n_row_tiles, cs).transpose(1, 0, 2)

    def _fused_pass(self, activations: np.ndarray, validate, draws) -> np.ndarray:
        """The fused-count layer pass, one cache-sized block at a time.

        Every fused caller goes through here: ``forward`` (the sampler's
        generator), :meth:`forward_batched` (a caller generator or a
        :class:`~repro.sc.binomial.DrawBatch`) and the grouped shard
        executor (a pre-drawn ``(K, N, out)`` uniform array). The
        ``(K, N, out)`` count space is walked in blocks of about
        ``_FUSED_BLOCK_ELEMENTS`` elements in C order (:func:`fused_blocks`):
        each block runs its strip matmul, gets its uniforms — drawn from a
        generator for the block's shape, or sliced from the pre-drawn
        array — samples its counts through the shared sampler, and adds
        them into an ``(N, out)`` total, which the accumulation module's
        comparator decides once at the end. A generator drawn block by
        block in C order yields the same doubles as one draw of the whole
        space (the draw-batching contract), so blocking never changes
        what is sampled; no full-size temporary is ever built.
        """
        a = self._normalize_activations(activations)
        check_activation_alphabet(a, self.config, validate)
        n = a.shape[0]
        k_tiles, out = self.n_row_tiles, self.out_features
        if isinstance(draws, DrawBatch):
            draws = draws.take((k_tiles, n, out))
        predrawn = isinstance(draws, np.ndarray)
        if predrawn and draws.shape != (k_tiles, n, out):
            raise ValueError(
                f"pre-drawn uniforms must have shape {(k_tiles, n, out)}, "
                f"got {draws.shape}"
            )
        bits = self.config.window_bits
        sampler = self._fused_sampler
        strips = self._strips(a)
        # Counts are <= L per tile, so totals fit K * L.
        total = np.zeros((n, out), dtype=np.min_scalar_type(k_tiles * bits))
        for k0, k1, r0, r1 in fused_blocks(k_tiles, n, out):
            x = strips[k0:k1, r0:r1].astype(np.float64)
            values = x @ self._fused_weights[k0:k1]
            counts = sampler._sample_counts_for_values(
                values, bits, draws[k0:k1, r0:r1] if predrawn else draws
            )
            part = counts[0] if k1 - k0 == 1 else counts.sum(axis=0)
            np.add(total[r0:r1], part, out=total[r0:r1], casting="unsafe")
        self.n_passes += k_tiles * self.n_col_tiles
        self.n_inferences += n
        return self.module.comparator.compare(total)

    def expected_preactivation(self, activations: np.ndarray) -> np.ndarray:
        """Deterministic E[total count] - reference (diagnostic path)."""
        chunks = self._split_activations(activations)
        outputs = []
        for j in range(self.n_col_tiles):
            probs = np.stack(
                [
                    self.tiles[i][j].output_probabilities(chunks[i])
                    for i in range(self.n_row_tiles)
                ],
                axis=0,
            )
            expected = self.module.expected_value(probs)
            outputs.append(expected - self.module.reference)
        return np.concatenate(outputs, axis=-1)

    def ideal_output(self, activations: np.ndarray) -> np.ndarray:
        """Noise-free reference: sign of the exact integer pre-activation."""
        a = self._normalize_activations(activations)
        full = np.concatenate(
            [np.concatenate([t.weights for t in row], axis=1) for row in self.tiles],
            axis=0,
        )
        thresholds = np.concatenate(
            [t.threshold_ua for t in self.tiles[0]]
        ) * self.n_row_tiles
        vth = thresholds / self.config.unit_current_ua
        return np.where(a @ full >= vth, 1.0, -1.0)

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        return self.forward(activations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TiledLinearLayer({self.in_features}->{self.out_features}, "
            f"tiles={self.n_row_tiles}x{self.n_col_tiles}, "
            f"Cs={self.config.crossbar_size}, L={self.config.window_bits})"
        )


class AqfpAccelerator:
    """A pipeline of tiled layers — the full in-memory BNN engine.

    The accelerator executes +-1 activations through each
    :class:`TiledLinearLayer` in order. Convolution lowering (im2col) and
    BN matching are handled by the compiler in :mod:`repro.mapping`; the
    accelerator itself is dataflow only.
    """

    def __init__(self, layers: Optional[Sequence[TiledLinearLayer]] = None) -> None:
        self.layers: List[TiledLinearLayer] = list(layers or [])

    def append(self, layer: TiledLinearLayer) -> None:
        self.layers.append(layer)

    def forward(self, activations: np.ndarray) -> np.ndarray:
        x = activations
        for layer in self.layers:
            x = layer(x)
        return x

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        return self.forward(activations)

    def __len__(self) -> int:
        return len(self.layers)
