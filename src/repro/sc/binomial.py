"""Vendored vectorized Binomial sampling kernels (inverse-CDF count lookups).

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
  out)`` count space. Its uniforms are drawn block by block from the
  shared sampler's generator (``forward``, the ``"stochastic"``
  backend) or from the caller's generator (``forward_batched``, the
  ``"stochastic-batched"`` backend, which passes the session's shard
  generator), or come pre-drawn from the grouped shard executor
  (:func:`~repro.runtime.plan.run_stages_group`), which concatenates the
  per-shard uniforms along the batch axis.

Both count kernels take the uniforms as an argument: who owns the
randomness is the caller's contract, the inverse-CDF math is shared.

Session-generator draws
-----------------------
``numpy``'s ``Generator.random`` fills its output from a sequential
uniform stream in C order, so a sequence of ``random(shape)`` calls on
one generator yields *bit-identical* doubles to one ``random(total)``
call sliced into consecutive pieces. That identity is what lets the
fused pass draw block by block, and the grouped executor draw a shard's
layers one after another, without changing a single sampled count
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
