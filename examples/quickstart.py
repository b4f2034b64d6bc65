#!/usr/bin/env python
"""Quickstart: train a randomized BNN, serve it through the Engine API.

This walks the full SupeRBNN pipeline on a small MLP:

1. generate a synthetic MNIST-like task,
2. train with the AQFP randomized-aware recipe (erf backward, ReCU,
   warmup + cosine LR),
3. build an inference ``Engine`` — compilation (BN matching + tiling)
   happens inside ``Engine.from_model``,
4. open a ``Session`` (owns the RNG state, micro-batches requests) and
   run the same batched request through several execution backends:
   the noise-free ``ideal`` reference, the hardware-default
   ``stochastic`` dispatch, and ``stochastic-batched``, which draws
   from the session's own generator,
5. read the structured ``InferenceResult`` (accuracy, wall time,
   sampled windows) and the hardware cost model (JJs, power, TOPS/W).

Run:  python examples/quickstart.py
"""

from repro import HardwareConfig, Mlp, Trainer, TrainingConfig
from repro.api import Engine
from repro.data import DataLoader, make_mnist_like


def main() -> None:
    # 1. Data ----------------------------------------------------------
    dataset = make_mnist_like(n_samples=2000, seed=0)
    train, test = dataset.split(train_fraction=0.8, seed=1)
    print(f"dataset: {len(train)} train / {len(test)} test, "
          f"images {train.image_shape}")

    # 2. Hardware-aware training ----------------------------------------
    hardware = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=16)
    print(f"hardware: Cs={hardware.crossbar_size}, "
          f"I1={hardware.unit_current_ua:.2f} uA, "
          f"dVin={hardware.value_gray_zone:.3f}")

    model = Mlp(in_features=144, hidden=(64, 32), hardware=hardware, seed=0)
    trainer = Trainer(model, TrainingConfig(epochs=20, warmup_epochs=3))
    trainer.fit(
        DataLoader(train, batch_size=64, seed=2),
        DataLoader(test, batch_size=256, shuffle=False),
        verbose=True,
    )
    print(f"software accuracy (ideal device): {trainer.best_test_accuracy:.3f}")

    # 3. Engine: compile + wrap -----------------------------------------
    engine = Engine.from_model(model)
    for i, layer in enumerate(engine.tiled_layers):
        print(f"layer {i}: {layer}")

    # 4. One session, several execution backends ------------------------
    session = engine.session(seed=0)
    print(f"\n{'backend':>26} {'accuracy':>9} {'windows':>9} {'time':>8}")
    for backend in ("ideal", "stochastic", "stochastic-batched"):
        result = session.run(test.images, labels=test.labels, backend=backend)
        print(
            f"{backend:>26} {result.accuracy:>9.3f} "
            f"{result.total_windows:>9d} {result.wall_time_s:>7.3f}s"
        )

    # 5. Cost report -----------------------------------------------------
    summary = engine.cost_model(train.image_shape).summary()
    print(
        f"\ncost: power={summary['power_mw'] * 1e3:.2f} uW, "
        f"throughput={summary['throughput_images_per_ms']:.1f} img/ms, "
        f"efficiency={summary['tops_per_w']:.3g} TOPS/W "
        f"({summary['tops_per_w_cooled']:.3g} with 400x cooling)"
    )


if __name__ == "__main__":
    main()
