"""Vendored vectorized Binomial sampling kernels (inverse-CDF, batched draws).

The fused count path of the crossbar simulator reduces every stochastic
layer pass to "draw exact ``Binomial(L, p)`` counts for a tensor of
precomputed laws". This module owns that math as pure functions over
cached tables, decoupled from the hardware objects, so the same kernel
serves every caller without drift:

* :meth:`~repro.hardware.crossbar.CrossbarArray.sample_window_counts`
  — one crossbar's whole ``(N, cols)`` window counts, drawn from the
  crossbar's own generator;
* the tiled layer's blocked fused pass
  (:meth:`~repro.hardware.accelerator.TiledLinearLayer._fused_pass`),
  which calls the kernel once per cache-sized block of its ``(K, N,
  out)`` count space. Its uniforms come from the shared sampler's
  generator (``forward``, the ``"stochastic"`` backend), from the
  caller's generator or a :class:`DrawBatch` pre-drawn for a whole shard
  pass (``forward_batched``, the ``"stochastic-batched"`` backend), or
  from the grouped shard executor
  (:func:`~repro.runtime.plan.run_stages_group`), which concatenates the
  per-shard uniforms along the batch axis.

Both count kernels take the uniforms as an argument: who owns the
randomness is the caller's contract, the inverse-CDF math is shared.

Draw-batching contract
----------------------
``numpy``'s ``Generator.random`` fills its output from a sequential
uniform stream in C order, so one ``random(total)`` call sliced into
consecutive pieces yields *bit-identical* doubles to a sequence of
smaller ``random(shape)`` calls on the same generator. That identity is
what lets :class:`DrawBatch` hoist every layer's uniforms into a single
generator invocation per shard without changing a single sampled count
(covered by ``tests/test_sc_binomial.py``).
"""

from __future__ import annotations

import numpy as np

#: Number of uniform bins in the quantized quantile table (uint8
#: entries: low 7 bits of payload + 1 "stepped bin" flag bit).
QUANT_BINS = 256


def quantile_table(cdf: np.ndarray, m_bins: int) -> np.ndarray:
    """Quantize inverse-CDF lookup into ``m_bins`` uniform bins.

    For each CDF row, entry ``m`` holds ``count(m / M)`` — the inverse
    CDF at the bin's left edge — in the low 7 bits, with bit 7 set when
    some CDF level falls strictly inside the bin (so the count steps
    within it and the caller must resolve that element exactly).
    Requires ``n <= 127`` counts to fit the payload bits.
    """
    n = cdf.shape[-1] - 1
    rows = cdf[..., :n].reshape(-1, n)
    vc = rows.shape[0]
    s = rows * m_bins
    # First bin edge at/above each CDF level: count(m/M) counts the
    # levels with ceil(s_k) <= m.
    m0 = np.clip(np.ceil(s).astype(np.int64), 0, m_bins)
    hist = np.bincount(
        (np.arange(vc)[:, None] * (m_bins + 1) + m0).ravel(),
        minlength=vc * (m_bins + 1),
    ).reshape(vc, m_bins + 1)
    start = np.cumsum(hist, axis=1)[:, :m_bins].astype(np.uint8)
    # A level strictly inside bin floor(s_k) makes that bin stepped.
    f = np.floor(s)
    interior = (s > f) & (f < m_bins)
    stepped = np.bincount(
        (np.arange(vc)[:, None] * m_bins + np.where(interior, f, 0).astype(np.int64)).ravel(),
        weights=interior.ravel(),
        minlength=vc * m_bins,
    ).reshape(vc, m_bins) > 0
    return start | (stepped.astype(np.uint8) << 7)


def counts_by_quantile(
    quant: np.ndarray,
    cdf: np.ndarray,
    idx: np.ndarray,
    u: np.ndarray,
    col_ids: np.ndarray,
) -> np.ndarray:
    """Exact Binomial counts: one gather against the quantized table.

    ``quant`` is the :func:`quantile_table` for ``cdf`` (any leading
    shape; both are reshaped to ``(laws, ...)`` with ``laws = values *
    cols``); ``idx`` holds the value-row index per element with columns
    on the last axis; ``u`` the uniforms in ``[0, 1)`` of ``idx``'s
    shape; ``col_ids`` the ``(cols,)`` per-column law offsets. Element
    ``(..., c)`` reads law ``idx * cols + col_ids[c]``: with ``col_ids =
    arange(cols)`` that is row ``idx`` of column ``c``, and a caller can
    fold a constant row offset into ``col_ids`` instead of adding it to
    every ``idx`` (the crossbar sampler passes signed column values that
    way). Returns ``uint8`` counts (``L <= 127``) of ``idx``'s shape.

    Unstepped bins return the exact count directly; the rare elements
    whose uniform lands in a stepped bin (a CDF level inside the bin)
    are resolved against the full CDF row with the *same* uniform, so
    the sample stays exactly Binomial. ``u < 1`` guarantees the bin
    index stays in range (``u * M`` is an exact power-of-two scaling,
    so it cannot round up to ``M``) — no clamp pass is spent on it.
    """
    n = cdf.shape[-1] - 1
    cols = col_ids.shape[-1]
    m_bins = quant.shape[-1]
    # law * M + bin, with the M scaling folded into the two offsets.
    law = idx * (cols * m_bins)
    law += col_ids * m_bins
    law += (u * m_bins).astype(np.intp)
    entry = np.take(quant.reshape(-1), law)
    counts = entry & 0x7F
    stepped = np.flatnonzero(entry > 0x7F)
    if stepped.size:
        rows = cdf.reshape(-1, n + 1)[law.reshape(-1)[stepped] // m_bins]
        resolved = (rows[:, :n] <= u.reshape(-1)[stepped][:, None]).sum(axis=-1)
        counts.reshape(-1)[stepped] = resolved
    return counts


def counts_by_search(
    cdf: np.ndarray,
    idx: np.ndarray,
    u: np.ndarray,
    col_ids: np.ndarray,
) -> np.ndarray:
    """Inverse-CDF sample via branchless binary search on the table.

    ``count = #{k < L : cdf_k <= u}`` — since each CDF row is sorted,
    the count is found in ``ceil(log2(L))`` gather/compare rounds
    instead of materializing the per-element CDF row. Used when the
    window is too long for the quantile table. ``idx`` and ``col_ids``
    address laws as in :func:`counts_by_quantile`.
    """
    n = cdf.shape[-1] - 1
    flat = cdf.reshape(-1)
    row_len = n + 1
    cols = col_ids.shape[-1]
    base = idx * (cols * row_len)
    base += col_ids * row_len
    pos = np.zeros(idx.shape, dtype=np.intp)
    b = 1
    while (b << 1) <= n:
        b <<= 1
    while b:
        cand = pos + b
        levels = flat[base + np.minimum(cand, n) - 1]
        pos += np.where((cand <= n) & (levels <= u), b, 0)
        b >>= 1
    return pos


class DrawBatch:
    """Uniforms for a whole shard pass, pre-drawn in one generator call.

    Construction draws ``rng.random(total)`` once; each :meth:`take`
    serves the next consecutive slice reshaped to the requested shape.
    Because ``Generator.random`` fills from a sequential stream in C
    order, the served slices are bit-identical to the per-layer
    ``rng.random(shape)`` calls they replace (same generator, same
    order) — batching changes *when* the uniforms are drawn, never
    *what* they are.
    """

    __slots__ = ("_u", "_pos")

    def __init__(self, rng: np.random.Generator, total: int) -> None:
        total = int(total)
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self._u = rng.random(total)
        self._pos = 0

    @property
    def total(self) -> int:
        return self._u.size

    @property
    def consumed(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._u.size - self._pos

    def take(self, shape) -> np.ndarray:
        """The next ``prod(shape)`` uniforms, reshaped to ``shape``."""
        size = 1
        for dim in shape:
            size *= int(dim)
        end = self._pos + size
        if end > self._u.size:
            raise ValueError(
                f"draw batch exhausted: need {size} uniforms for {tuple(shape)}, "
                f"have {self._u.size - self._pos} of {self._u.size} left"
            )
        out = self._u[self._pos : end].reshape(shape)
        self._pos = end
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DrawBatch {self._pos}/{self._u.size} consumed>"
