"""Unified Engine API: round-trip parity, sessions, backends, results."""

import numpy as np
import pytest

from repro.api import (
    DEFAULT_MICRO_BATCH,
    Engine,
    EngineBuilder,
    available_backends,
    get_backend,
    register_backend,
)
from repro.autograd import Tensor, no_grad
from repro.hardware.cost import AcceleratorCostModel
from repro.mapping.compiler import compile_model
from repro.mapping.executor import evaluate_accuracy, network_workloads, run_network

from tests.test_mapping_compiler import quick_mlp, quick_vgg  # noqa: F401  (fixtures)

ALL_STOCHASTIC = ("stochastic", "stochastic-dense", "stochastic-packed",
                  "stochastic-batched")
FIRST_CLASS = ("ideal",) + ALL_STOCHASTIC[1:]


class TestRoundTripParity:
    """Acceptance: Engine output matches the legacy executor exactly in
    ideal mode, for both supported topologies."""

    def test_mlp_ideal_matches_legacy_executor(self, quick_mlp):
        model, _, test = quick_mlp
        network = compile_model(model)
        engine = Engine(network)
        legacy = run_network(network, test.images, mode="ideal")
        result = engine.run(test.images, backend="ideal")
        np.testing.assert_array_equal(result.logits, legacy)

    def test_vgg_ideal_matches_legacy_executor(self, quick_vgg):
        model, _, test = quick_vgg
        network = compile_model(model)
        engine = Engine(network)
        images = test.images[:16]
        legacy = run_network(network, images, mode="ideal")
        result = engine.run(images, backend="ideal")
        np.testing.assert_array_equal(result.logits, legacy)

    def test_mlp_ideal_matches_software_model(self, quick_mlp):
        """Non-tautological anchor: the engine agrees with the software
        model evaluated deterministically (the shims share the engine,
        so this pins the whole chain, not just shim consistency)."""
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        with no_grad():
            software = model(Tensor(test.images)).data
        result = engine.run(test.images, backend="ideal")
        np.testing.assert_allclose(result.logits, software, rtol=1e-10)

    def test_vgg_ideal_matches_software_model(self, quick_vgg):
        model, _, test = quick_vgg
        engine = Engine.from_model(model)
        images = test.images[:16]
        with no_grad():
            software = model(Tensor(images)).data.argmax(axis=1)
        result = engine.run(images, backend="ideal")
        np.testing.assert_array_equal(result.predictions, software)

    def test_evaluate_matches_legacy_evaluate_accuracy(self, quick_mlp):
        model, _, test = quick_mlp
        network = compile_model(model)
        legacy = evaluate_accuracy(network, test.images, test.labels, mode="ideal")
        engine_acc = Engine(network).evaluate(test.images, test.labels,
                                              backend="ideal")
        assert engine_acc == legacy


class TestSharedSessionAcrossBackends:
    """Acceptance: all four first-class backends run the same batched
    request through one shared Session."""

    def test_all_backends_one_session(self, quick_mlp):
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        session = engine.session(seed=7)
        images, labels = test.images[:48], test.labels[:48]
        for backend in FIRST_CLASS:
            result = session.run(images, labels=labels, backend=backend)
            assert result.backend == backend
            assert result.logits.shape == (48, 10)
            assert result.batch_size == 48
            assert 0.0 <= result.accuracy <= 1.0

    def test_all_backends_one_session_vgg(self, quick_vgg):
        model, _, test = quick_vgg
        session = Engine.from_model(model).session(seed=3)
        images = test.images[:8]
        for backend in FIRST_CLASS:
            result = session.run(images, backend=backend)
            assert result.logits.shape == (8, 10)

    def test_stochastic_backends_sane_accuracy(self, quick_mlp):
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        ideal = engine.evaluate(test.images, test.labels, backend="ideal")
        for backend in ALL_STOCHASTIC:
            acc = engine.evaluate(test.images, test.labels, backend=backend)
            assert acc > 0.2, backend  # far above 10% chance
            assert acc <= ideal + 0.15, backend


class TestSessionSemantics:
    def test_same_seed_replays_identically(self, quick_mlp):
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        images = test.images[:32]
        for backend in ALL_STOCHASTIC:
            a = engine.session(seed=11).run(images, backend=backend)
            b = engine.session(seed=11).run(images, backend=backend)
            np.testing.assert_array_equal(a.logits, b.logits)

    def test_interleaved_sessions_do_not_clobber_each_other(self, quick_mlp):
        """Constructing or running another session on the same engine
        must not change what a seeded session produces — each run
        re-establishes its own sampler state on the shared layers."""
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        images = test.images[:24]
        for backend in ALL_STOCHASTIC:
            reference = engine.session(seed=11).run(images, backend=backend)
            victim = engine.session(seed=11)
            intruder = engine.session(seed=99)
            intruder.run(images, backend=backend)
            result = victim.run(images, backend=backend)
            np.testing.assert_array_equal(result.logits, reference.logits,
                                          err_msg=backend)

    def test_successive_runs_in_one_session_stay_stochastic(self, quick_mlp):
        model, _, test = quick_mlp
        session = Engine.from_model(model).session(seed=5)
        images = test.images[:64]
        a = session.run(images, backend="stochastic")
        b = session.run(images, backend="stochastic")
        assert not np.array_equal(a.logits, b.logits)

    def test_different_seeds_differ(self, quick_mlp):
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        images = test.images[:64]
        a = engine.session(seed=1).run(images, backend="stochastic-batched")
        b = engine.session(seed=2).run(images, backend="stochastic-batched")
        assert not np.array_equal(a.logits, b.logits)

    def test_micro_batching_invariant_for_ideal(self, quick_mlp):
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        whole = engine.run(test.images, backend="ideal", micro_batch=None)
        sharded = engine.run(test.images, backend="ideal", micro_batch=7)
        np.testing.assert_array_equal(whole.logits, sharded.logits)
        assert sharded.micro_batches == -(-len(test.images) // 7)
        assert whole.micro_batches == 1

    def test_run_many(self, quick_mlp):
        model, _, test = quick_mlp
        session = Engine.from_model(model).session(seed=0)
        results = session.run_many([test.images[:4], test.images[4:12]],
                                   backend="ideal")
        assert [r.batch_size for r in results] == [4, 8]

    def test_empty_request_returns_empty_logits(self, quick_mlp):
        """Legacy executor behavior: an N=0 batch yields (0, n_classes)."""
        model, _, test = quick_mlp
        network = compile_model(model)
        engine = Engine(network)
        for backend in ("ideal",) + ALL_STOCHASTIC:
            result = engine.run(test.images[:0], backend=backend)
            assert result.logits.shape == (0, 10), backend
            assert result.batch_size == 0
        assert run_network(network, test.images[:0], mode="ideal").shape == (0, 10)

    def test_invalid_micro_batch_rejected(self, quick_mlp):
        model, _, _ = quick_mlp
        engine = Engine.from_model(model)
        with pytest.raises(ValueError):
            engine.session(micro_batch=0)


class TestInferenceResultTelemetry:
    def test_workloads_match_legacy_network_workloads(self, quick_vgg):
        model, train, test = quick_vgg
        network = compile_model(model)
        engine = Engine(network)
        result = engine.run(test.images[:8], backend="ideal")
        assert result.workloads == network_workloads(network, train.image_shape)

    def test_workloads_feed_cost_model(self, quick_vgg):
        model, train, test = quick_vgg
        engine = Engine.from_model(model)
        result = engine.run(test.images[:8], backend="stochastic")
        cost = AcceleratorCostModel(engine.config, result.workloads)
        assert cost.energy_efficiency_tops_per_w() > 0

    def test_window_counts(self, quick_mlp):
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        n = 16
        stochastic = engine.run(test.images[:n], backend="stochastic")
        ideal = engine.run(test.images[:n], backend="ideal")
        assert ideal.total_windows == 0
        # MLP: 144->32 on Cs=16 crossbars = 9x2 tiles, plus head (software).
        layer = engine.tiled_layers[0]
        expected = n * layer.n_row_tiles * layer.n_col_tiles
        assert stochastic.total_windows == expected

    def test_telemetry_accumulates_across_micro_batches(self, quick_mlp):
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        whole = engine.run(test.images[:32], backend="stochastic",
                           micro_batch=None)
        sharded = engine.run(test.images[:32], backend="stochastic",
                             micro_batch=8)
        assert sharded.total_windows == whole.total_windows
        assert len(sharded.layers) == len(whole.layers)

    def test_summary_and_labels(self, quick_mlp):
        model, _, test = quick_mlp
        engine = Engine.from_model(model)
        result = engine.run(test.images[:16], labels=test.labels[:16],
                            backend="ideal")
        summary = result.summary()
        assert summary["backend"] == "ideal"
        assert summary["accuracy"] == result.accuracy
        assert result.wall_time_s > 0
        unlabelled = engine.run(test.images[:4], backend="ideal")
        assert unlabelled.accuracy is None


class TestBackendRegistry:
    def test_first_class_backends_registered(self):
        names = available_backends()
        for expected in ("ideal", "stochastic", "stochastic-dense",
                         "stochastic-packed", "stochastic-batched"):
            assert expected in names

    def test_aliases_resolve(self):
        assert get_backend("exact").name == "ideal"
        assert get_backend("auto").name == "stochastic"

    def test_unknown_backend_rejected_with_listing(self, quick_mlp):
        with pytest.raises(KeyError, match="stochastic-packed"):
            get_backend("nonsense")
        model, _, _ = quick_mlp
        with pytest.raises(KeyError):
            Engine.from_model(model, backend="nonsense")

    def test_instance_passthrough(self):
        backend = get_backend("ideal")
        assert get_backend(backend) is backend

    def test_custom_backend_plugs_in(self, quick_mlp):
        @register_backend("test-constant-one", summary="test-only")
        class ConstantBackend:
            deterministic = True

            def run_layer(self, layer, flat, *, rng, validate=None):
                return np.ones((flat.shape[0], layer.out_features))

        try:
            model, _, test = quick_mlp
            engine = Engine.from_model(model, backend="test-constant-one")
            result = engine.run(test.images[:4])
            assert result.backend == "test-constant-one"
            assert result.logits.shape == (4, 10)
        finally:
            from repro.api import backends as backends_module

            backends_module._REGISTRY.pop("test-constant-one", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_backend("ideal")(object)


class TestEngineBuilder:
    def test_fluent_build(self, quick_mlp):
        model, _, test = quick_mlp
        engine = (
            EngineBuilder()
            .model(model)
            .hardware(window_bits=4)
            .seed(5)
            .backend("ideal")
            .micro_batch(16)
            .build()
        )
        assert engine.config.window_bits == 4
        assert engine.config.crossbar_size == model.hardware.crossbar_size
        assert engine.backend == "ideal"
        assert engine.micro_batch == 16
        assert engine.run(test.images[:4]).logits.shape == (4, 10)

    def test_hardware_calls_accumulate(self, quick_mlp):
        """A later overrides-only hardware() call refines, not discards,
        the previously supplied base config."""
        model, _, _ = quick_mlp
        base = model.hardware.with_(gray_zone_ua=99.0)
        engine = (
            EngineBuilder()
            .model(model)
            .hardware(base)
            .hardware(window_bits=2)
            .build()
        )
        assert engine.config.gray_zone_ua == 99.0
        assert engine.config.window_bits == 2

    def test_builder_from_engine_staticmethod(self, quick_mlp):
        model, _, _ = quick_mlp
        engine = Engine.builder().model(model).build()
        assert engine.backend == "stochastic"
        assert engine.micro_batch == DEFAULT_MICRO_BATCH

    def test_network_exclusive_with_model(self, quick_mlp):
        model, _, _ = quick_mlp
        network = compile_model(model)
        with pytest.raises(ValueError):
            EngineBuilder().network(network).model(model).build()

    def test_builder_needs_a_source(self):
        with pytest.raises(ValueError):
            EngineBuilder().build()

    def test_builder_rejects_bad_backend_early(self, quick_mlp):
        with pytest.raises(KeyError):
            EngineBuilder().backend("bogus")
