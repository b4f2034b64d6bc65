"""Backend equivalence: ideal is bit-exact, the fused count law (and
the session-generator ``stochastic-batched`` backend built on it) is
distribution-equivalent to the legacy dense sampling path."""

import numpy as np
import pytest

from repro.api import get_backend
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.utils.rng import new_rng


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


@pytest.fixture
def tiled_layer():
    """A 20->12 layer on Cs=8 crossbars: 3 row x 2 column tiles."""
    rng = new_rng(0)
    cfg = HardwareConfig(crossbar_size=8, gray_zone_ua=20.0, window_bits=16)
    weights = pm(rng, (20, 12))
    thresholds = rng.normal(0.0, 0.5, size=12) * cfg.unit_current_ua
    return TiledLinearLayer(cfg, weights, threshold_ua=thresholds, seed=1)


class TestIdealBackendExactness:
    def test_matches_layer_ideal_output_bit_for_bit(self, tiled_layer):
        rng = new_rng(2)
        flat = pm(rng, (40, 20))
        backend = get_backend("ideal")
        out = backend.run_layer(tiled_layer, flat, rng=rng)
        np.testing.assert_array_equal(out, tiled_layer.ideal_output(flat))

    def test_deterministic_across_calls(self, tiled_layer):
        rng = new_rng(3)
        flat = pm(rng, (8, 20))
        backend = get_backend("ideal")
        a = backend.run_layer(tiled_layer, flat, rng=new_rng(0))
        b = backend.run_layer(tiled_layer, flat, rng=new_rng(99))
        np.testing.assert_array_equal(a, b)


class TestFusedBatchedDistributionEquivalence:
    """The fused Binomial count law (drawn here with
    ``Generator.binomial``, as the long-window fallback does), and the
    fused pass of the ``stochastic-batched`` backend, must be
    distribution-equivalent to the legacy dense per-tile sampling,
    column by column."""

    def _window_count_moments(self, layer, activations, n_repeats, sampler):
        """Empirical mean/std of the summed window counts per column.

        ``sampler(activations) -> (K, N, cols_total)`` counts; we sum
        over K (what the comparator sees) and pool batch x repeats.
        """
        totals = []
        for _ in range(n_repeats):
            totals.append(sampler(activations).sum(axis=0))
        stacked = np.stack(totals, axis=0)  # (R, N, cols)
        flat = stacked.reshape(-1, stacked.shape[-1])
        return flat.mean(axis=0), flat.std(axis=0)

    def test_counts_match_dense_sampling_per_column(self, tiled_layer):
        layer = tiled_layer
        cfg = layer.config
        rng = new_rng(4)
        # One activation row, repeated: every repeat draws from the
        # same per-column law, so moments concentrate fast.
        row = pm(rng, (1, 20))
        activations = np.repeat(row, 16, axis=0)
        n_repeats = 150
        bits = cfg.window_bits

        def dense_counts(a):
            chunks = layer._split_activations(a)
            per_tile = []
            for i in range(layer.n_row_tiles):
                cols = []
                for j in range(layer.n_col_tiles):
                    window = layer.tiles[i][j].sample_window(chunks[i])
                    cols.append((window > 0).sum(axis=0))
                per_tile.append(np.concatenate(cols, axis=-1))
            return np.stack(per_tile, axis=0)

        fused_rng = new_rng(5)

        def fused_counts(a):
            norm = layer._normalize_activations(a).astype(np.float64)
            padded = np.zeros((norm.shape[0], layer.n_row_tiles * cfg.crossbar_size))
            padded[:, : layer.in_features] = norm
            strips = padded.reshape(
                norm.shape[0], layer.n_row_tiles, cfg.crossbar_size
            ).transpose(1, 0, 2)
            values = strips @ layer._fused_weights
            p = layer._fused_sampler._probabilities_from_values(values)
            return fused_rng.binomial(bits, p)

        dense_mean, dense_std = self._window_count_moments(
            layer, activations, n_repeats, dense_counts
        )
        fused_mean, fused_std = self._window_count_moments(
            layer, activations, n_repeats, fused_counts
        )

        # Analytic law: total = sum_k Binomial(L, p_k) per column.
        chunks = layer._split_activations(activations[:1])
        probs = np.concatenate(
            [
                np.concatenate(
                    [
                        layer.tiles[i][j].output_probabilities(chunks[i])
                        for j in range(layer.n_col_tiles)
                    ],
                    axis=-1,
                )
                for i in range(layer.n_row_tiles)
            ],
            axis=0,
        ).reshape(layer.n_row_tiles, -1)
        true_mean = bits * probs.sum(axis=0)
        true_std = np.sqrt(bits * (probs * (1 - probs)).sum(axis=0))

        n_samples = 16 * n_repeats
        tol = 5.0 * np.maximum(true_std, 0.05) / np.sqrt(n_samples)
        np.testing.assert_allclose(dense_mean, true_mean, atol=tol.max())
        np.testing.assert_allclose(fused_mean, true_mean, atol=tol.max())
        np.testing.assert_allclose(fused_mean, dense_mean, atol=2 * tol.max())
        # Standard deviations agree within 15% relative (loose but
        # catches e.g. accidentally correlated draws or a wrong law).
        mask = true_std > 0.1
        np.testing.assert_allclose(
            fused_std[mask], true_std[mask], rtol=0.15
        )
        np.testing.assert_allclose(
            dense_std[mask], true_std[mask], rtol=0.15
        )

    def test_pm_outputs_and_shapes(self, tiled_layer):
        rng = new_rng(6)
        flat = pm(rng, (24, 20))
        backend = get_backend("stochastic-batched")
        out = backend.run_layer(tiled_layer, flat, rng=new_rng(7))
        assert out.shape == (24, 12)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_fused_batched_mean_output_tracks_dense(self, tiled_layer):
        """End-to-end +-1 outputs: per-column firing rates agree."""
        layer = tiled_layer
        rng = new_rng(8)
        row = pm(rng, (1, 20))
        activations = np.repeat(row, 32, axis=0)
        n_repeats = 60
        dense_backend = get_backend("stochastic-dense")
        fused_backend = get_backend("stochastic-batched")
        fused_rng = new_rng(9)
        dense = np.mean(
            [
                dense_backend.run_layer(layer, activations, rng=fused_rng)
                for _ in range(n_repeats)
            ],
            axis=0,
        ).mean(axis=0)
        fused = np.mean(
            [
                fused_backend.run_layer(layer, activations, rng=fused_rng)
                for _ in range(n_repeats)
            ],
            axis=0,
        ).mean(axis=0)
        # Firing rates live in [-1, 1]; 32*60 samples per column give a
        # worst-case sigma of ~1/sqrt(1920) ~ 0.023 per mean.
        np.testing.assert_allclose(fused, dense, atol=0.15)

    def test_requires_exact_apc(self):
        rng = new_rng(10)
        cfg = HardwareConfig(crossbar_size=8, window_bits=8)
        layer = TiledLinearLayer(
            cfg, pm(rng, (16, 8)), seed=0, approximate_layers=1
        )
        with pytest.raises(ValueError, match="exact APC"):
            layer.forward_batched(pm(rng, (4, 16)))


class TestPackedAndDenseBackends:
    def test_packed_matches_dense_statistically(self):
        """Same per-column firing-rate law from both bit-level paths."""
        rng = new_rng(11)
        cfg = HardwareConfig(crossbar_size=8, gray_zone_ua=20.0, window_bits=16)
        layer = TiledLinearLayer(cfg, pm(rng, (20, 12)), seed=2,
                                 approximate_layers=0)
        row = pm(rng, (1, 20))
        activations = np.repeat(row, 32, axis=0)
        dense = get_backend("stochastic-dense")
        packed = get_backend("stochastic-packed")
        n_repeats = 60
        mean_dense = np.mean(
            [dense.run_layer(layer, activations, rng=rng) for _ in range(n_repeats)],
            axis=0,
        ).mean(axis=0)
        mean_packed = np.mean(
            [packed.run_layer(layer, activations, rng=rng) for _ in range(n_repeats)],
            axis=0,
        ).mean(axis=0)
        np.testing.assert_allclose(mean_packed, mean_dense, atol=0.15)

    def test_stats_updated_by_all_paths(self, tiled_layer):
        layer = tiled_layer
        rng = new_rng(12)
        flat = pm(rng, (4, 20))
        before = layer.n_passes
        layer.forward_dense(flat)
        layer.forward_packed(flat)
        layer.forward_batched(flat)
        assert layer.n_passes == before + 3 * layer.n_row_tiles * layer.n_col_tiles
        assert layer.n_inferences >= 12


class TestReseedSampling:
    def test_reseed_replays_all_paths(self, tiled_layer):
        layer = tiled_layer
        rng = new_rng(13)
        flat = pm(rng, (16, 20))
        for method in ("forward_dense", "forward_packed", "forward",
                       "forward_batched"):
            layer.reseed_sampling(42)
            a = getattr(layer, method)(flat)
            layer.reseed_sampling(42)
            b = getattr(layer, method)(flat)
            np.testing.assert_array_equal(a, b, err_msg=method)
