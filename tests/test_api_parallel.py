"""Parallel shard execution, concurrent serving, and the PR's Engine
correctness fixes (empty-batch accuracy, run_many labels, backend
instance caching)."""

import warnings

import numpy as np
import pytest

from repro.api import (
    Engine,
    Serving,
    StochasticParallelBackend,
    backend_aliases,
    get_backend,
    plan_shards,
)
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import (
    CompiledNetwork,
    HeadStage,
    LinearStage,
    SignStage,
    compile_model,
)
from repro.mapping.executor import evaluate_accuracy
from repro.utils.rng import new_rng

from tests.test_mapping_compiler import quick_mlp  # noqa: F401  (fixture)


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


@pytest.fixture(scope="module")
def small_engine():
    """A crossbar engine built directly from +-1 weights (no training:
    fast enough to run many sharded requests through a process pool)."""
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
    return Engine(network, micro_batch=8)


@pytest.fixture(scope="module")
def request_data():
    rng = new_rng(99)
    images = rng.standard_normal((40, 64))
    labels = rng.integers(0, 10, size=40)
    return images, labels


class TestParallelDeterminism:
    """Acceptance: N-worker `stochastic-parallel` output is bit-identical
    to serial execution for the same Session seed."""

    def test_serial_vs_1_vs_4_workers_bit_identical(self, small_engine, request_data):
        images, _ = request_data
        serial = small_engine.session(seed=11).run(images)
        assert serial.micro_batches == 5
        for workers in (1, 4):
            with StochasticParallelBackend(workers=workers) as backend:
                parallel = small_engine.session(seed=11, backend=backend).run(images)
            np.testing.assert_array_equal(
                parallel.logits, serial.logits, err_msg=f"workers={workers}"
            )
            assert parallel.backend == "stochastic-parallel"
            assert parallel.micro_batches == serial.micro_batches

    def test_parallel_trained_model_matches_serial(self, quick_mlp):
        """Same property through the real compile path (BN matching,
        thresholds, multi-layer reseeding)."""
        model, _, test = quick_mlp
        engine = Engine.from_model(model, micro_batch=16)
        images = test.images[:40]
        serial = engine.session(seed=5).run(images)
        with StochasticParallelBackend(workers=2) as backend:
            parallel = engine.session(seed=5, backend=backend).run(images)
        np.testing.assert_array_equal(parallel.logits, serial.logits)

    def test_telemetry_merges_across_workers(self, small_engine, request_data):
        images, _ = request_data
        serial = small_engine.session(seed=3).run(images)
        with StochasticParallelBackend(workers=4) as backend:
            parallel = small_engine.session(seed=3, backend=backend).run(images)
        assert parallel.total_windows == serial.total_windows
        assert len(parallel.layers) == len(serial.layers)
        assert [t.kind for t in parallel.layers] == [t.kind for t in serial.layers]

    def test_successive_parallel_runs_stay_stochastic(self, small_engine, request_data):
        images, _ = request_data
        with StochasticParallelBackend(workers=2) as backend:
            session = small_engine.session(seed=4, backend=backend)
            a = session.run(images)
            b = session.run(images)
        assert not np.array_equal(a.logits, b.logits)

    def test_empty_request_through_parallel_backend(self, small_engine):
        with StochasticParallelBackend(workers=2) as backend:
            result = small_engine.session(seed=0, backend=backend).run(
                np.zeros((0, 64))
            )
        assert result.logits.shape == (0, 10)
        assert result.batch_size == 0

    def test_inner_backend_configurable(self, small_engine, request_data):
        images, _ = request_data
        serial = small_engine.session(seed=9).run(
            images, backend="stochastic-batched"
        )
        with StochasticParallelBackend(
            workers=2, inner="stochastic-batched"
        ) as backend:
            parallel = small_engine.session(seed=9, backend=backend).run(images)
        np.testing.assert_array_equal(parallel.logits, serial.logits)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            StochasticParallelBackend(workers=0)
        with pytest.raises(KeyError):
            StochasticParallelBackend(inner="nonsense")


class TestShardPlan:
    def test_plan_covers_batch_without_overlap(self):
        plan = plan_shards(37, 8, rng=new_rng(0))
        assert [s.start for s in plan.shards] == [0, 8, 16, 24, 32]
        assert [s.stop for s in plan.shards] == [8, 16, 24, 32, 37]
        assert len({s.seed for s in plan.shards}) == len(plan)

    def test_plan_seeds_deterministic(self):
        a = plan_shards(32, 8, rng=new_rng(7))
        b = plan_shards(32, 8, rng=new_rng(7))
        assert [s.seed for s in a.shards] == [s.seed for s in b.shards]

    def test_empty_batch_gets_one_empty_shard(self):
        plan = plan_shards(0, 8, rng=new_rng(0))
        assert len(plan) == 1
        assert (plan.shards[0].start, plan.shards[0].stop) == (0, 0)

    def test_unseeded_plan_carries_no_seeds(self):
        plan = plan_shards(16, 8)
        assert all(s.seed is None for s in plan.shards)


class TestExpressLanes:
    """``warm()`` on a fork-context pool parks every worker on a
    dedicated pipe lane; waves then bypass the executor's dispatch
    machinery. The lanes must change *only* the transport, never the
    bits, and a severed lane must take the normal rebuild-and-retry
    recovery path."""

    def _warmed(self, network, **kwargs):
        from repro.runtime import ShardParallelScheduler

        scheduler = ShardParallelScheduler(**kwargs)
        scheduler.warm(network)
        if scheduler._lanes is None:  # spawn-context host/thread state
            scheduler.close()
            pytest.skip("fork start method unavailable; no lanes to test")
        return scheduler

    def test_lane_wave_bit_identical_to_executor_wave(
        self, small_engine, request_data
    ):
        images, _ = request_data
        network = small_engine.network
        plan_seed = 13
        with self._warmed(network, workers=2) as warmed:
            plan = plan_shards(len(images), 8, rng=new_rng(plan_seed))
            lane_logits, _ = warmed.run_plan(network, images, plan)
        from repro.runtime import ShardParallelScheduler

        with ShardParallelScheduler(workers=2) as cold:  # executor path
            plan = plan_shards(len(images), 8, rng=new_rng(plan_seed))
            pool_logits, _ = cold.run_plan(network, images, plan)
        np.testing.assert_array_equal(lane_logits, pool_logits)

    def test_severed_lane_rebuilds_and_recovers(self, small_engine, request_data):
        import os as _os
        import signal

        images, _ = request_data
        network = small_engine.network
        with self._warmed(network, workers=1) as scheduler:
            plan = plan_shards(len(images), 8, rng=new_rng(5))
            baseline, _ = scheduler.run_plan(network, images, plan)
            generation = scheduler.pool_generation
            for proc in scheduler._pool._processes.values():
                _os.kill(proc.pid, signal.SIGKILL)
            plan = plan_shards(len(images), 8, rng=new_rng(5))
            recovered, _ = scheduler.run_plan(network, images, plan)
            log = scheduler.last_recovery
            assert log is not None and log.recovered
            assert any(
                entry["action"] == "rebuild-pool" for entry in log.retries
            )
            assert scheduler.pool_generation > generation
            np.testing.assert_array_equal(recovered, baseline)
            # Re-warming the rebuilt pool re-parks the lanes.
            scheduler.warm(network)
            assert scheduler._lanes is not None
            plan = plan_shards(len(images), 8, rng=new_rng(5))
            relaned, _ = scheduler.run_plan(network, images, plan)
            np.testing.assert_array_equal(relaned, baseline)


class TestServing:
    def test_results_in_submission_order_with_accuracy(
        self, small_engine, request_data
    ):
        images, labels = request_data
        requests = [images[:8], images[8:24], images[24:40]]
        request_labels = [labels[:8], labels[8:24], labels[24:40]]
        with Serving(small_engine, workers=3, seed=0) as front:
            report = front.serve(requests, labels=request_labels)
        assert [r.batch_size for r in report.results] == [8, 16, 16]
        assert report.n_requests == 3
        assert report.total_images == 40
        assert report.wall_time_s > 0
        assert report.images_per_s > 0
        assert 0.0 <= report.accuracy <= 1.0
        summary = report.summary()
        assert summary["n_requests"] == 3
        assert summary["accuracy"] == report.accuracy

    def test_seeded_serving_replays_identically(self, small_engine, request_data):
        """Thread scheduling must not leak into results: concurrent
        requests interleave on the shared layers at shard granularity,
        each shard pinned by its own child seed."""
        images, _ = request_data
        requests = [images[:12]] * 6
        with Serving(small_engine, workers=4, seed=21) as front:
            a = front.serve(requests)
        with Serving(small_engine, workers=1, seed=21) as front:
            b = front.serve(requests)
        for left, right in zip(a.results, b.results):
            np.testing.assert_array_equal(left.logits, right.logits)

    def test_serving_with_shared_parallel_backend(self, small_engine, request_data):
        images, labels = request_data
        requests = [images[:10], images[10:20], images[20:40]]
        request_labels = [labels[:10], labels[10:20], labels[20:40]]
        with StochasticParallelBackend(workers=2) as backend:
            with Serving(small_engine, workers=2, backend=backend, seed=1) as front:
                report = front.serve(requests, labels=request_labels)
            with Serving(small_engine, workers=3, backend=backend, seed=1) as front:
                replay = front.serve(requests, labels=request_labels)
        assert report.backend == "stochastic-parallel"
        for left, right in zip(report.results, replay.results):
            np.testing.assert_array_equal(left.logits, right.logits)

    def test_unlabelled_serving_reports_no_accuracy(self, small_engine, request_data):
        images, _ = request_data
        with Serving(small_engine, workers=2, seed=0) as front:
            report = front.serve([images[:4], images[4:8]])
        assert report.accuracy is None
        assert "accuracy" not in report.summary()

    def test_misaligned_labels_rejected(self, small_engine, request_data):
        images, labels = request_data
        with Serving(small_engine, workers=2) as front:
            with pytest.raises(ValueError):
                front.serve([images[:4]], labels=[labels[:4], labels[4:8]])

    def test_empty_request_list(self, small_engine):
        with Serving(small_engine, workers=2) as front:
            report = front.serve([])
        assert report.n_requests == 0
        assert report.accuracy is None

    def test_invalid_workers_rejected(self, small_engine):
        with pytest.raises(ValueError):
            Serving(small_engine, workers=0)


class TestEngineFixes:
    def test_empty_batch_evaluate_returns_zero_warning_free(self, small_engine):
        images = np.zeros((0, 64))
        labels = np.array([], dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert small_engine.evaluate(images, labels) == 0.0
            result = small_engine.run(images, labels=labels)
            assert result.accuracy == 0.0

    def test_empty_batch_shim_consistent_with_engine(self, quick_mlp):
        """The legacy shim no longer special-cases the empty set — both
        paths flow through InferenceResult.accuracy."""
        model, _, test = quick_mlp
        network = compile_model(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shim = evaluate_accuracy(
                network, test.images[:0], test.labels[:0], mode="ideal"
            )
            engine = Engine(network).evaluate(
                test.images[:0], test.labels[:0], backend="ideal"
            )
        assert shim == engine == 0.0

    def test_run_many_threads_labels_through(self, small_engine, request_data):
        images, labels = request_data
        session = small_engine.session(seed=0)
        results = session.run_many(
            [images[:8], images[8:20]], labels=[labels[:8], labels[8:20]]
        )
        assert [r.batch_size for r in results] == [8, 12]
        for result, expected in zip(results, [labels[:8], labels[8:20]]):
            np.testing.assert_array_equal(result.labels, expected)
            assert result.accuracy is not None
            manual = float((result.predictions == expected).mean())
            assert result.accuracy == manual

    def test_run_many_partial_labels(self, small_engine, request_data):
        images, labels = request_data
        session = small_engine.session(seed=0)
        results = session.run_many(
            [images[:8], images[8:16]], labels=[labels[:8], None]
        )
        assert results[0].accuracy is not None
        assert results[1].accuracy is None

    def test_run_many_misaligned_labels_rejected(self, small_engine, request_data):
        images, labels = request_data
        with pytest.raises(ValueError):
            small_engine.session().run_many([images[:8]], labels=[labels[:8], None])

    def test_stateless_backends_cached(self):
        for name in ("ideal", "stochastic", "stochastic-batched"):
            assert get_backend(name) is get_backend(name), name
        assert get_backend("exact") is get_backend("ideal")

    def test_stateful_backend_not_cached(self):
        a = get_backend("stochastic-parallel")
        b = get_backend("stochastic-parallel")
        assert a is not b
        a.close()
        b.close()

    def test_aliases_listed(self):
        aliases = backend_aliases()
        assert aliases["exact"] == "ideal"
        assert aliases["auto"] == "stochastic"

    def test_cli_backends_lists_aliases(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "stochastic-parallel" in out
        assert "exact" in out and "alias of 'ideal'" in out
        assert "auto" in out and "alias of 'stochastic'" in out
