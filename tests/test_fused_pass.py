"""The cache-blocked fused sampling pass.

:meth:`TiledLinearLayer._fused_pass` walks the ``(K, N, out)`` count
space in blocks of ``_FUSED_BLOCK_ELEMENTS`` instead of building the
whole tensor. Two guarantees:

* **Block boundaries change nothing.** For every block shape — groups of
  whole row-tile slabs, row ranges inside one slab, a ragged last block,
  N = 0 — the blocked pass returns exactly the activations of the
  whole-tensor reference (one matmul, one ``counts_by_quantile`` call,
  one K-axis sum) on the same uniforms, for all three uniform sources:
  a generator drawn block by block, a ``DrawBatch``, and the grouped
  executor's concatenated per-shard pieces.
* **What is drawn does not drift across commits.** A small VGG-shaped
  network built from seeded random weights (no training) has its logits
  pinned by digest under ``stochastic``, ``stochastic-batched`` and
  grouped shard execution. The other bit-identity tests compare paths
  of one commit with each other; this one fails if a change alters the
  sampled stream itself.
"""

import hashlib

import numpy as np
import pytest

from repro.api import Engine
from repro.api.backends import get_backend
from repro.hardware.accelerator import (
    _FUSED_BLOCK_ELEMENTS,
    TiledLinearLayer,
    fused_blocks,
)
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import (
    CompiledNetwork,
    ConvStage,
    HeadStage,
    LinearStage,
    PoolStage,
    SignStage,
)
from repro.runtime.plan import _BatchedChainDraws, _FusedChainDraws, run_stages_group
from repro.sc.binomial import QUANT_BINS, DrawBatch, counts_by_quantile
from repro.utils.rng import new_rng


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Block boundaries vs the whole-tensor reference
# ----------------------------------------------------------------------
CONFIG = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
BLOCK = _FUSED_BLOCK_ELEMENTS

#: (in_features, out_features, rows) -> the block layout it must produce.
#: Fan-ins of 100 and 10 are not multiples of Cs = 16 (K = 7 and K = 1).
GEOMETRIES = {
    "one slab group": (100, 40, 4),  # 7 slabs x 160 elements: one block
    "ragged slab groups": (100, 40, 250),  # slab 10000: groups of 3, 3, 1
    "slab equals block": (128, 64, 512),  # slab == BLOCK: one slab per block
    "ragged row ranges": (100, 40, 1001),  # slab > BLOCK: 501 + 500 rows
    "K=1 row ranges": (10, 40, 1001),
    "K=1 one block": (10, 8, 3),
    "empty batch": (100, 40, 0),
}


def layer_for(fan_in, out, seed=0):
    rng = new_rng(seed)
    return TiledLinearLayer(
        CONFIG, pm(rng, (fan_in, out)), threshold_ua=rng.normal(0, 2, out), seed=seed
    )


def reference_values(layer, x):
    """``(K, N, out)`` column values in one whole-tensor matmul."""
    k, cs = layer.n_row_tiles, CONFIG.crossbar_size
    padded = np.zeros((x.shape[0], k * cs))
    padded[:, : layer.in_features] = x
    strips = padded.reshape(x.shape[0], k, cs).transpose(1, 0, 2)
    return strips @ layer._fused_weights


def reference_pass(layer, x, u):
    """The unblocked pass: one ``counts_by_quantile`` call over the
    whole ``(K, N, out)`` space, one K-axis sum, one comparison."""
    sampler = layer._fused_sampler
    bits = CONFIG.window_bits
    idx = reference_values(layer, x).astype(np.intp) + sampler.rows
    counts = counts_by_quantile(
        sampler._count_quant_table(bits),
        sampler._count_cdf_table(bits),
        idx,
        u,
        np.arange(layer.out_features),
    )
    return np.where(counts.sum(axis=0) >= layer.module.reference, 1.0, -1.0)


def stepped_elements(layer, x, u, block):
    """How many elements of ``block`` draw a stepped bin (the exact
    fix-up branch of the quantile kernel)."""
    k0, k1, r0, r1 = block
    sampler = layer._fused_sampler
    quant = sampler._count_quant_table(CONFIG.window_bits).reshape(-1)
    idx = reference_values(layer, x).astype(np.intp) + sampler.rows
    law = idx * layer.out_features + np.arange(layer.out_features)
    bins = (u * QUANT_BINS).astype(np.intp)
    entry = quant[law * QUANT_BINS + bins][k0:k1, r0:r1]
    return int((entry > 0x7F).sum())


def space(layer, rows):
    return (layer.n_row_tiles, rows, layer.out_features)


class TestBlockLayout:
    def test_geometries_cover_the_block_shapes(self):
        layouts = {
            name: fused_blocks(-(-fan_in // 16), rows, out)
            for name, (fan_in, out, rows) in GEOMETRIES.items()
        }
        assert layouts["one slab group"] == [(0, 7, 0, 4)]
        assert layouts["ragged slab groups"] == [
            (0, 3, 0, 250), (3, 6, 0, 250), (6, 7, 0, 250)
        ]
        assert layouts["slab equals block"] == [(k, k + 1, 0, 512) for k in range(8)]
        assert layouts["ragged row ranges"][:3] == [
            (0, 1, 0, 501), (0, 1, 501, 1001), (1, 2, 0, 501)
        ]
        assert len(layouts["ragged row ranges"]) == 14
        assert layouts["K=1 row ranges"] == [(0, 1, 0, 501), (0, 1, 501, 1001)]
        assert layouts["K=1 one block"] == [(0, 1, 0, 3)]
        assert layouts["empty batch"] == []

    @pytest.mark.parametrize("k_tiles,rows,cols", [
        (7, 250, 40), (8, 512, 64), (7, 1001, 40), (3, 5000, 7), (1, 1, BLOCK + 1),
    ])
    def test_blocks_tile_the_space_in_c_order(self, k_tiles, rows, cols):
        covered = 0
        for k0, k1, r0, r1 in fused_blocks(k_tiles, rows, cols):
            # Consecutive blocks start where the previous one ended in
            # the flattened C-order walk of (K, rows, cols).
            assert (k0 * rows + r0) * cols == covered
            assert r1 - r0 == rows or k1 - k0 == 1
            covered += (k1 - k0) * (r1 - r0) * cols
        assert covered == k_tiles * rows * cols


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
class TestBlockedPassMatchesReference:
    def _case(self, name):
        fan_in, out, rows = GEOMETRIES[name]
        layer = layer_for(fan_in, out)
        x = pm(new_rng(1), (rows, fan_in))
        return layer, x

    def test_generator_source(self, name):
        layer, x = self._case(name)
        u = np.random.default_rng(17).random(space(layer, x.shape[0]))
        got = layer.forward_batched(x, rng=np.random.default_rng(17))
        np.testing.assert_array_equal(got, reference_pass(layer, x, u))

    def test_sampler_generator_source(self, name):
        # The serial "stochastic" path: forward() draws block by block
        # from the shared sampler's own generator.
        layer, x = self._case(name)
        layer._fused_sampler.reseed(23)
        u = np.random.default_rng(23).random(space(layer, x.shape[0]))
        np.testing.assert_array_equal(layer.forward(x), reference_pass(layer, x, u))

    def test_drawbatch_source(self, name):
        layer, x = self._case(name)
        shape = space(layer, x.shape[0])
        draws = DrawBatch(np.random.default_rng(19), 2 * int(np.prod(shape)))
        u = np.random.default_rng(19).random((2,) + shape)
        for u_pass in u:  # two passes: the second starts mid-batch
            got = layer.forward_batched(x, uniforms=draws)
            np.testing.assert_array_equal(got, reference_pass(layer, x, u_pass))
        assert draws.remaining == 0

    @pytest.mark.parametrize("backend", ["stochastic", "stochastic-batched"])
    def test_grouped_executor_source(self, name, backend):
        layer, x = self._case(name)
        rng = new_rng(4)
        head = HeadStage(
            weight=pm(rng, (5, layer.out_features)), alpha=np.ones(5),
            gamma=np.ones(5), beta=np.zeros(5), mean=np.zeros(5), var=np.ones(5),
            eps=0.0,
        )
        network = CompiledNetwork([SignStage(), LinearStage(layer=layer), head], CONFIG)
        rows = x.shape[0]
        cut = rows // 3
        specs = [(31, 0, cut), (32, cut, rows)]
        grouped = run_stages_group(network, x, specs, get_backend(backend))
        for (seed, start, stop), (logits, _) in zip(specs, grouped):
            shape = space(layer, stop - start)
            if backend == "stochastic":
                source = _FusedChainDraws(network.tiled_layers, seed)
            else:
                source = _BatchedChainDraws(
                    network, network.tiled_layers, seed, x.shape[1:], stop - start
                )
            want = reference_pass(layer, x[start:stop], source.take(0, shape))
            np.testing.assert_array_equal(logits, head.logits(want))


class TestStepFixupInPartialBlock:
    def test_fixups_in_ragged_last_block(self):
        # Uniforms placed exactly on CDF levels all land in stepped bins;
        # put them in the ragged last block of a row-range layout.
        fan_in, out, rows = GEOMETRIES["ragged row ranges"]
        layer = layer_for(fan_in, out)
        x = pm(new_rng(1), (rows, fan_in))
        shape = space(layer, rows)
        last = fused_blocks(*shape)[-1]
        k0, k1, r0, r1 = last
        assert (k1 - k0) * (r1 - r0) * out < BLOCK  # partial
        u = np.random.default_rng(5).random(shape)
        sampler = layer._fused_sampler
        cdf = sampler._count_cdf_table(CONFIG.window_bits)
        idx = reference_values(layer, x).astype(np.intp) + sampler.rows
        laws = cdf.reshape(-1, CONFIG.window_bits + 1)[
            idx * out + np.arange(out)
        ][k0:k1, r0:r1]
        level = new_rng(6).integers(0, CONFIG.window_bits, size=laws.shape[:-1])
        on_level = np.take_along_axis(laws, level[..., None], axis=-1)[..., 0]
        u[k0:k1, r0:r1] = np.minimum(on_level, np.nextafter(1.0, 0.0))
        assert stepped_elements(layer, x, u, last) > 0
        # The pre-drawn array source, as the grouped executor passes it.
        got = layer._fused_pass(x, None, u)
        np.testing.assert_array_equal(got, reference_pass(layer, x, u))

    @pytest.mark.parametrize("name", ["ragged slab groups", "ragged row ranges"])
    def test_drawn_uniforms_hit_fixups_in_last_block(self, name):
        fan_in, out, rows = GEOMETRIES[name]
        layer = layer_for(fan_in, out)
        x = pm(new_rng(1), (rows, fan_in))
        shape = space(layer, rows)
        u = np.random.default_rng(17).random(shape)
        # The generator-source tests above use these very uniforms.
        assert stepped_elements(layer, x, u, fused_blocks(*shape)[-1]) > 0


class TestPassEdges:
    def test_empty_batch_draws_nothing(self):
        layer = layer_for(100, 40)
        gen = np.random.default_rng(3)
        out = layer.forward_batched(np.zeros((0, 100)), rng=gen)
        assert out.shape == (0, 40)
        np.testing.assert_array_equal(gen.random(4), np.random.default_rng(3).random(4))

    def test_alphabet_checked_before_any_draw(self):
        layer = layer_for(100, 40)
        draws = DrawBatch(np.random.default_rng(3), 7 * 4 * 40)
        bad = np.full((4, 100), 0.5)
        with pytest.raises(ValueError, match="activations"):
            layer.forward_batched(bad, uniforms=draws)
        assert draws.consumed == 0

    def test_predrawn_shape_mismatch_rejected(self):
        layer = layer_for(100, 40)
        with pytest.raises(ValueError, match="shape"):
            layer._fused_pass(np.ones((4, 100)), None, np.zeros((7, 5, 40)))


# ----------------------------------------------------------------------
# Cross-commit logits pin
# ----------------------------------------------------------------------
PIN_CONFIG = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)


def pin_network() -> CompiledNetwork:
    """Untrained VGG-shaped pipeline: 3x8x8 images, three convs (the
    first with a fan-in of 27, not a multiple of Cs), two pools and an
    integer-valued head, so the logits are exact small integers."""
    rng = new_rng(2024)
    stages = [SignStage()]
    for c_in, c_out, pool in ((3, 16, False), (16, 16, True), (16, 32, True)):
        fan_in = c_in * 9
        layer = TiledLinearLayer(
            PIN_CONFIG,
            pm(rng, (fan_in, c_out)),
            threshold_ua=rng.integers(-2, 3, size=c_out).astype(np.float64),
            seed=int(rng.integers(0, 2**31)),
        )
        stages.append(
            ConvStage(layer=layer, kernel=3, stride=1, padding=1, out_channels=c_out)
        )
        if pool:
            stages.append(PoolStage(kernel=2))
    stages.append(
        HeadStage(
            weight=pm(rng, (10, 32 * 2 * 2)),
            alpha=np.ones(10),
            gamma=np.ones(10),
            beta=np.zeros(10),
            mean=np.zeros(10),
            var=np.ones(10),
            eps=0.0,
        )
    )
    return CompiledNetwork(stages, PIN_CONFIG)


def pin_images() -> np.ndarray:
    return new_rng(77).standard_normal((72, 3, 8, 8))


#: Logit digests of the pin network, recorded before the fused pass was
#: blocked. 72 images in micro-batches of 64 + 8: the 64-image conv1 and
#: conv2 passes cut each slab into row ranges, conv3 is exactly one block
#: per slab, and the 8-image passes group slabs.
PINNED = {
    "stochastic": "4b45a16334f4c75a",
    "stochastic-batched": "eaebebaac1be2259",
    "group:stochastic": "7abe4ca7f558054b",
    "group:stochastic-batched": "71d4bd51c2dce460",
}
PIN_SPECS = [(11, 0, 64), (22, 64, 72)]

#: Layer-level digests, recorded with the pin network's: one 100 -> 40
#: layer per count kernel (L=8 quantile gather, L=200 binary search,
#: L=2000 Generator.binomial), driven through the sampler's generator
#: (``forward``), the layer generator and a caller generator
#: (``forward_batched``), at 300 rows (slab groups) and 1000 rows (row
#: ranges inside a slab).
PINNED_LAYERS = {
    8: "7af3400b52162dde",
    200: "9f068a2b6892bbfd",
    2000: "4f1bc1df0bb41543",
}


def pin_layer_outputs(bits: int):
    rng = new_rng(31)
    cfg = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=bits)
    layer = TiledLinearLayer(
        cfg, pm(rng, (100, 40)), threshold_ua=rng.normal(0, 2, 40), seed=9
    )
    x = pm(rng, (1000, 100))
    outs = []
    for rows in (300, 1000):
        outs.append(layer.forward(x[:rows]))
        outs.append(layer.forward_batched(x[:rows]))
        outs.append(layer.forward_batched(x[:rows], rng=np.random.default_rng(rows)))
    return np.concatenate(outs)


@pytest.fixture(scope="module")
def pin():
    return pin_network(), pin_images()


class TestLogitsPin:
    @pytest.mark.parametrize("backend", ["stochastic", "stochastic-batched"])
    def test_session_logits_pinned(self, pin, backend):
        network, images = pin
        engine = Engine(network, micro_batch=64)
        logits = engine.session(seed=5, backend=backend).run(images).logits
        assert digest(logits) == PINNED[backend]

    @pytest.mark.parametrize("backend", ["stochastic", "stochastic-batched"])
    def test_grouped_logits_pinned(self, pin, backend):
        network, images = pin
        grouped = run_stages_group(network, images, PIN_SPECS, get_backend(backend))
        logits = np.concatenate([out for out, _ in grouped])
        assert digest(logits) == PINNED[f"group:{backend}"]

    @pytest.mark.parametrize("bits", sorted(PINNED_LAYERS))
    def test_layer_outputs_pinned(self, bits):
        assert digest(pin_layer_outputs(bits)) == PINNED_LAYERS[bits]
