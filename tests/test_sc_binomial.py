"""Vendored binomial kernel (``repro.sc.binomial``).

Three layers of guarantees:

* the session-generator draw contract — consecutive
  ``Generator.random(shape)`` calls are *bit-identical* to one
  ``random(total)`` call sliced into consecutive pieces (that identity
  is what lets the fused pass draw block by block and the grouped
  executor draw a shard's layers one after another);
* the inverse-CDF count kernels (quantized table gather and branchless
  binary search) agree exactly with the brute-force ``#{cdf_k <= u}``
  reference on the same uniforms — including uniforms sitting exactly
  on CDF levels and in stepped bins;
* grouped execution is bit-identical to serial: ``run_stages_group``
  vs per-shard serial ``run_stages`` for both group-vectorizable
  backends.
"""

import numpy as np
import pytest

from repro.api import Engine
from repro.api.backends import get_backend
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import (
    CompiledNetwork,
    HeadStage,
    LinearStage,
    SignStage,
)
from repro.runtime.plan import (
    group_vectorizable,
    run_stages,
    run_stages_group,
    seed_shard,
)
from repro.sc.binomial import (
    QUANT_BINS,
    counts_by_quantile,
    counts_by_search,
    quantile_table,
)
from repro.utils.rng import binomial_cdf, new_rng


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


# ----------------------------------------------------------------------
# Session-generator draws: consecutive draws == one whole draw
# ----------------------------------------------------------------------
class TestSessionGeneratorDraws:
    def test_consecutive_draws_equal_one_whole_draw(self):
        shapes = [(3, 4), (2,), (5, 1, 2), (0, 7), (6,)]
        total = sum(int(np.prod(s)) for s in shapes)
        whole = np.random.default_rng(7).random(total)
        gen = np.random.default_rng(7)
        pos = 0
        for shape in shapes:
            size = int(np.prod(shape))
            np.testing.assert_array_equal(
                gen.random(shape), whole[pos : pos + size].reshape(shape)
            )
            pos += size


# ----------------------------------------------------------------------
# Count kernels vs the brute-force inverse-CDF reference
# ----------------------------------------------------------------------
def _laws(bits, values=9, cols=5, seed=0):
    """A (values, cols) grid of Binomial(bits, p) CDFs plus random
    element indices/uniforms shaped like a sampler call."""
    rng = new_rng(seed)
    p = np.clip(rng.random((values, cols)), 1e-3, 1 - 1e-3)
    cdf = binomial_cdf(p, bits)
    idx = rng.integers(0, values, size=(64, cols))
    u = rng.random((64, cols))
    return cdf, idx, u, np.arange(cols)


def _reference_counts(cdf, idx, u, col_ids):
    """count = #{k < L : cdf_k <= u}, materializing every CDF row."""
    n = cdf.shape[-1] - 1
    rows = cdf.reshape(-1, n + 1)[idx * col_ids.shape[-1] + col_ids]
    return (rows[..., :n] <= u[..., None]).sum(axis=-1)


class TestCountKernels:
    @pytest.mark.parametrize("bits", [1, 8, 31, 127])
    def test_quantile_kernel_is_exact(self, bits):
        cdf, idx, u, col_ids = _laws(bits)
        quant = quantile_table(cdf, QUANT_BINS)
        got = counts_by_quantile(quant, cdf, idx, u, col_ids)
        np.testing.assert_array_equal(got, _reference_counts(cdf, idx, u, col_ids))

    @pytest.mark.parametrize("bits", [1, 8, 31, 127])
    def test_search_kernel_is_exact(self, bits):
        cdf, idx, u, col_ids = _laws(bits)
        got = counts_by_search(cdf, idx, u, col_ids)
        np.testing.assert_array_equal(got, _reference_counts(cdf, idx, u, col_ids))

    def test_uniforms_on_cdf_levels_resolve_exactly(self):
        # u exactly equal to a CDF level is the boundary both kernels
        # must get right (`<=` semantics); these all land in stepped
        # bins, exercising the quantile path's exact-resolution branch.
        bits = 16
        cdf, idx, _, col_ids = _laws(bits, seed=3)
        n = cdf.shape[-1] - 1
        rows = cdf.reshape(-1, n + 1)[idx * col_ids.shape[-1] + col_ids]
        level = new_rng(4).integers(0, n, size=idx.shape)
        u = np.minimum(
            np.take_along_axis(rows, level[..., None], axis=-1)[..., 0],
            np.nextafter(1.0, 0.0),
        )
        want = _reference_counts(cdf, idx, u, col_ids)
        quant = quantile_table(cdf, QUANT_BINS)
        np.testing.assert_array_equal(
            counts_by_quantile(quant, cdf, idx, u, col_ids), want
        )
        np.testing.assert_array_equal(
            counts_by_search(cdf, idx, u, col_ids), want
        )


# ----------------------------------------------------------------------
# Layer pass: forward_batched on the long-window fallback
# ----------------------------------------------------------------------
class TestForwardBatched:
    def test_long_window_falls_back_to_generator_binomial(self):
        # A window too long for the cached CDF tables falls back to
        # Generator.binomial, drawn from the caller's generator.
        rng = new_rng(3)
        cfg = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=2000)
        layer = TiledLinearLayer(cfg, pm(rng, (64, 48)), seed=1)
        x = pm(new_rng(5), (4, 64))
        assert not layer.supports_batched_draws()
        a = layer.forward_batched(x, rng=np.random.default_rng(1))
        b = layer.forward_batched(x, rng=np.random.default_rng(1))
        assert a.shape == (4, 48)
        np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# Grouped shard executor vs per-shard serial execution
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def group_network():
    rng = new_rng(0)
    cfg = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
    layer = TiledLinearLayer(cfg, pm(rng, (64, 48)), seed=1)
    head = HeadStage(
        weight=pm(rng, (10, 48)),
        alpha=np.ones(10),
        gamma=np.ones(10),
        beta=np.zeros(10),
        mean=np.zeros(10),
        var=np.ones(10),
        eps=1e-5,
    )
    network = CompiledNetwork([SignStage(), LinearStage(layer=layer), head], cfg)
    x = new_rng(99).standard_normal((20, 64))
    return network, x


class TestGroupExecutor:
    @pytest.mark.parametrize("backend", ["stochastic", "stochastic-batched"])
    def test_group_bit_identical_to_per_shard_serial(self, group_network, backend):
        network, x = group_network
        strategy = get_backend(backend)
        assert group_vectorizable(network, strategy)
        specs = [(101, 0, 7), (202, 7, 12), (303, 12, 20)]  # uneven shards
        grouped = run_stages_group(network, x, specs, strategy)
        assert len(grouped) == len(specs)
        for (seed, start, stop), (logits, telemetry) in zip(specs, grouped):
            rng = seed_shard(network, seed)
            serial_telemetry = []
            want = run_stages(
                network, x[start:stop], strategy, rng, serial_telemetry
            )
            np.testing.assert_array_equal(logits, want)
            assert len(telemetry) == len(serial_telemetry)

    def test_string_backend_rejected(self, group_network):
        network, x = group_network
        with pytest.raises(ValueError, match="not group-vectorizable"):
            run_stages_group(network, x, [(1, 0, 20)], "stochastic")

    def test_batched_backend_session_is_reproducible(self, group_network):
        network, _ = group_network
        engine = Engine(network, micro_batch=8)
        images = new_rng(99).standard_normal((20, 64))
        with engine.session(seed=6, backend="stochastic-batched") as a:
            first = a.run(images).logits
        with engine.session(seed=6, backend="stochastic-batched") as b:
            second = b.run(images).logits
        np.testing.assert_array_equal(first, second)
