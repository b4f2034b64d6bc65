"""The benchmark workloads listed in ``BENCHMARK.json``.

``offline-vgg``  closed loop, one caller, serial ``Session.run`` on VGG
                 batches in-process: the kernels and the stage lowering
                 do almost all the work.
``wire-mixed``   open loop against ``python -m repro.cli serve
                 --replicas 2`` (router over
                 two daemons), 10% streamed 256-image requests: busy
                 waves, large streamed frames, the router.

Every workload returns a :class:`Result`; ``run.py`` prints it.
"""

from __future__ import annotations

import asyncio
import functools
import gzip
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import loadgen
import tracing
from loadgen import PhaseReport, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(HERE, "out")

#: The ``repro serve`` hardware: Cs=16, L=8, 10 uA gray zone.
HARDWARE = dict(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
SERVE_EPOCHS = 8  # ``repro serve`` default: the server trains this model
VGG_EPOCHS = 1  # chance accuracy at 1 or 2 epochs; only set-up time grows
SETUP_REPEATS = 3
RUN_SECONDS = 30  # the committed --seconds; phase lengths scale with it

#: Phase lengths in seconds at ``RUN_SECONDS``. offline-vgg cycles
#: through OFFLINE_CYCLE (two short calls per long one, so both sizes
#: get similar sample counts) for OFFLINE_SECONDS.
OFFLINE_ROWS = {"low": 64, "high": 256}
OFFLINE_CYCLE = ("low", "low", "high")
OFFLINE_SECONDS = 33.0
WIRE_NAME = "wire-mixed"
REPLICAS = 2
LOW_RATE, HIGH_RATE = 50.0, 200.0  # req/s
LOW_S, HIGH_S, RUNG_S = 22.0, 6.0, 1.6
BULK_SHARE = 0.1
#: Small requests queue behind ~25 ms bulk waves, so their p99 sits at
#: 30-50 ms far below saturation; a 50 ms limit would put the knee
#: inside the run-to-run noise.
P99_LIMIT_MS = 100.0
#: Each schedule draws from its own generator, seeded by the run's seed
#: and (phase, walk, rate, extension), so a phase extended for a noisy
#: host does not change the inputs of the phases after it.
PHASE_KEYS = {"low": 0, "high": 1, "rung": 2}
#: The rate ladder: rungs at high * LADDER_RATIO**k, |k| <= LADDER_MAX_K.
LADDER_RATIO = 1.1
LADDER_STRIDE = 4
LADDER_MAX_K = 28
LADDER_WALKS = 2

#: A phase with too few clean windows (see loadgen.PhaseReport) is
#: extended up to MAX_WINDOWS windows in all, while the run is inside its
#: time budget (counted from the workload's start). Past either, the
#: phase is disturbed: it keeps its least disturbed windows and the run
#: is reported as invalid. The budget keeps a run well inside the time a
#: run may take even on a host that never calms down.
MAX_WINDOWS = 3 * loadgen.WINDOWS
TIME_BUDGET_S = 65.0

WARMUP_REQUESTS = 20
STOP_TIMEOUT_S = 20.0


@dataclass
class Result:
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    lines: List[str] = field(default_factory=list)
    spans: Optional[str] = None


def hardware():
    from repro.hardware.config import HardwareConfig

    return HardwareConfig(**HARDWARE)


def chip_metrics(engine, image_shape) -> Dict[str, float]:
    cost = engine.cost_model(image_shape)
    return {
        "chip.energy_per_img_j": cost.energy_per_image_j(),
        "chip.latency_per_img_s": cost.latency_per_image_s(),
        "chip.tops_per_w": cost.energy_efficiency_tops_per_w(),
    }


def planned_windows(engine, rows: int, image_shape) -> float:
    """Sampled windows the plan's cost estimate predicts for ``rows``."""
    from repro.runtime.plan import compile_plan, plan_shards

    plan = plan_shards(rows, engine.micro_batch)
    return compile_plan(engine.network, plan, input_shape=image_shape).total_cost


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# offline-vgg
def run_offline(seed: int, seconds: float, tracer=None, *, setups: int = SETUP_REPEATS,
                corrupt: bool = False) -> Result:
    """offline-vgg. ``tracer`` (installed by the caller) yields the
    per-layer metrics; ``corrupt`` perturbs one replayed output, so tests
    can see a mismatch counted."""
    from repro.api import Engine
    from repro.experiments.common import clear_model_cache, trained_vgg

    started = time.perf_counter()
    scale = seconds / RUN_SECONDS
    setup_s, parts = [], {"train": [], "compile": [], "ready": [], "warmup": []}
    for _ in range(setups):
        clear_model_cache()
        t0 = time.perf_counter()
        model, _, test, software_acc = trained_vgg(hardware(), epochs=VGG_EPOCHS)
        t1 = time.perf_counter()
        engine = Engine.from_model(model)
        t2 = time.perf_counter()
        engine.session(seed=0).run(test.images[:8])
        t3 = time.perf_counter()
        setup_s.append(t3 - t0)
        parts["train"].append(t1 - t0)
        parts["compile"].append(t2 - t1)
        parts["ready"].append(t2 - t0)
        parts["warmup"].append(t3 - t2)

    rng = np.random.default_rng([seed, 0])
    image_shape = test.images.shape[1:]
    if tracer is not None:
        tracer.open_window()
    first_ticks = loadgen.cpu_ticks()
    measured_again = 0

    def clean(phase):
        """Calls of ``phase`` (seed, index, result, seconds, steal) that
        ran clean of steal."""
        return [c for c in calls[phase] if c[4] <= loadgen.STEAL_LIMIT_PCT]

    def kept(phase):
        """The calls the figures come from: the clean ones, or the
        ``needed`` least stolen ones when too few are clean."""
        if len(clean(phase)) >= needed[phase]:
            return clean(phase)
        return sorted(calls[phase], key=lambda c: c[4])[:needed[phase]]

    # 64- and 256-image calls interleave, so both sizes sample the whole
    # timed span (host speed drifts over tens of seconds). Each call is a
    # window: calls with steal past the bound are left out, and the loop
    # runs on, a cycle at a time, until enough calls of each size are clean.
    calls = {phase: [] for phase in OFFLINE_ROWS}
    deadline = time.perf_counter() + OFFLINE_SECONDS * scale
    needed = None
    for phase in itertools.cycle(OFFLINE_CYCLE):
        idx = rng.integers(0, len(test.images), size=OFFLINE_ROWS[phase])
        call_seed = int(rng.integers(0, 2**62))
        ticks = loadgen.cpu_ticks()
        t0 = time.perf_counter()
        res = engine.session(seed=call_seed).run(test.images[idx], labels=test.labels[idx])
        t1 = time.perf_counter()
        calls[phase].append((call_seed, idx, res, t1 - t0,
                             loadgen.steal_pct(ticks, loadgen.cpu_ticks())))
        if phase != "high" or t1 < deadline:
            continue
        if needed is None:
            needed = {
                p: -(-len(calls[p]) * loadgen.MIN_CLEAN_WINDOWS // loadgen.WINDOWS)
                for p in calls
            }
        if all(len(clean(p)) >= needed[p] for p in calls):
            break
        measured_again += 1
        if t1 - started > TIME_BUDGET_S:
            break
    steal = loadgen.steal_pct(first_ticks, loadgen.cpu_ticks())
    disturbed = [p for p in calls if len(clean(p)) < needed[p]]

    low_ms = [c[3] * 1e3 for c in kept("low")]
    high_ms = [c[3] * 1e3 for c in kept("high")]
    high_s = sum(high_ms) / 1e3
    result = Result(
        metrics={
            "setup_s": percentile(setup_s, 50),
            "images_per_s": OFFLINE_ROWS["high"] * len(high_ms) / high_s,
            "lat_p50_ms.low": percentile(low_ms, 50),
            "lat_p99_ms.low": percentile(low_ms, 99),
            "lat_p50_ms.high": percentile(high_ms, 50),
            "lat_p99_ms.high": percentile(high_ms, 99),
            "max_rate_rps": len(low_ms) / (sum(low_ms) / 1e3),
            "bulk_p50_ms": percentile(high_ms, 50),
        },
    )
    all_calls = calls["low"] + calls["high"]
    result.attempted = len(all_calls)
    if tracer is not None:
        layers = tracing.derive(tracer)

    # Output checks: windows against the plan estimate, and a sample of
    # calls replayed bit-identically in fresh sessions.
    for call_seed, idx, res, _, _ in all_calls:
        if res.total_windows != planned_windows(engine, len(idx), image_shape):
            result.mismatches += 1
    replay = np.random.default_rng([seed, 1]).choice(
        len(all_calls), size=min(2, len(all_calls)), replace=False)
    for n, k in enumerate(replay):
        call_seed, idx, res, _, _ = all_calls[int(k)]
        again = engine.session(seed=call_seed).run(test.images[idx]).logits
        if corrupt and n == 0:
            again = again.copy()
            again.flat[0] += 1
        if not np.array_equal(again, res.logits):
            result.mismatches += 1
    result.failed = result.mismatches

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"requests-offline-vgg-{seed}.json"), "w") as fh:
        json.dump([
            {"phase": phase, "rows": OFFLINE_ROWS[phase],
             "calls": [[c[3] * 1e3, c[4]] for c in calls[phase]]}
            for phase in calls], fh)
    accuracy = float(np.mean([c[2].accuracy for c in all_calls]))
    result.lines += [
        f"offline-vgg: {len(calls['low'])} x 64-image and {len(calls['high'])} x 256-image "
        f"calls ({len(clean('low'))} and {len(clean('high'))} clean of steal, {len(low_ms)} and "
        f"{len(high_ms)} kept); accuracy {accuracy:.3f} (software {software_acc:.3f}); "
        f"logits digest {digest(c[2].logits for c in all_calls)}",
        f"checks: windows/img {all_calls[0][2].total_windows / len(all_calls[0][1]):.0f} "
        f"vs plan {planned_windows(engine, 1, image_shape):.0f}; "
        f"{len(replay)} calls replayed; {result.mismatches} mismatches",
        f"setup (median of {setups}): train {percentile(parts['train'], 50):.2f} s, "
        f"compile {percentile(parts['compile'], 50):.3f} s, "
        f"warm-up {percentile(parts['warmup'], 50):.3f} s; steal {steal:.1f}%; "
        f"{measured_again} calls added for disturbed ones",
    ]
    if disturbed:
        sizes = " and ".join(str(OFFLINE_ROWS[p]) for p in disturbed)
        result.lines.append(
            f"INVALID: host disturbed; too few {sizes}-image calls ran clean of steal, "
            f"their least stolen ones are kept")
    if tracer is not None:
        layers.update(chip_metrics(engine, image_shape))
        layers["setup.ready_s"] = percentile(parts["ready"], 50)
        layers["setup.warmup_s"] = percentile(parts["warmup"], 50)
        layers["host.steal_pct"] = steal
        result.layers = layers
    return result


# ----------------------------------------------------------------------
# wire-mixed
class Server:
    """One ``repro serve --replicas 2`` child on an ephemeral port."""

    def __init__(self, trace_out: Optional[str] = None) -> None:
        serve_args = ["serve", "--port", "0", "--epochs", str(SERVE_EPOCHS),
                      "--crossbar-size", str(HARDWARE["crossbar_size"]),
                      "--window-bits", str(HARDWARE["window_bits"]),
                      "--replicas", str(REPLICAS)]
        if trace_out is None:
            cmd = [sys.executable, "-u", "-m", "repro.cli"] + serve_args
        else:
            cmd = [sys.executable, "-u", os.path.join(HERE, "trace_serve.py"), trace_out] + serve_args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                     text=True, env=env, cwd=ROOT)
        self.output: List[str] = []
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            if line.startswith("serving on "):
                host, port = line.split()[2].rsplit(":", 1)
                self.address = (host, int(port))
                self.ready = time.perf_counter()
                return
        self.proc.wait()
        raise RuntimeError("server exited before serving:\n" + "\n".join(self.output[-20:]))

    def stop(self) -> str:
        """SIGINT (the CLI's clean shutdown), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            rest, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        self.output += (rest or "").splitlines()
        return "\n".join(self.output)


async def _connect(address, n: int = 2):
    from repro.net.client import AsyncNetworkClient

    return [await AsyncNetworkClient.connect(*address) for _ in range(n)]


async def _close(clients) -> None:
    for client in clients:
        await client.aclose()


async def _warm(server: Server, images, labels):
    """Connect and send warm-up requests; returns the clients and the
    warm-up seconds."""
    clients = await _connect(server.address)
    t0 = time.perf_counter()
    for i in range(WARMUP_REQUESTS):
        await clients[i % 2].infer(images[:2], labels[:2], seed=i)
    for i in range(2):
        await clients[i].infer_streamed(images[:256], labels[:256], seed=i)
    return clients, time.perf_counter() - t0


def walk_ladder(high: PhaseReport, phase):
    """The knee on the rate ladder ``HIGH_RATE * LADDER_RATIO**k``.

    Strides :data:`LADDER_STRIDE` rungs away from the high rate (up if
    it passed, down if it failed) until the outcome flips, then bisects
    to adjacent rungs. Returns the report of the highest passing rung
    below the first failing one (None when no rung passed) and the
    rungs run.
    """
    reports = {0: high}
    passed = {0: high.passes(P99_LIMIT_MS)}

    def rate(k: int) -> float:
        return HIGH_RATE * LADDER_RATIO**k

    def rung(k: int) -> bool:
        reports[k] = phase("rung", rate(k), RUNG_S)
        passed[k] = reports[k].passes(P99_LIMIT_MS)
        return passed[k]

    step = LADDER_STRIDE if passed[0] else -LADDER_STRIDE
    same = k = 0  # the furthest rung with the high rate's outcome
    while abs(k + step) <= LADDER_MAX_K and rate(k + step) > LOW_RATE:
        k += step
        if rung(k) != passed[0]:
            break
        same = k
    other = k if passed[k] != passed[0] else None
    while other is not None and abs(other - same) > 1:
        mid = (same + other) // 2
        if rung(mid) == passed[0]:
            same = mid
        else:
            other = mid
    knee = same if passed[0] else other
    rungs = [r for j, r in reports.items() if j != 0]
    return (reports[knee] if knee is not None else None), rungs


def run_wire(seed: int, seconds: float, trace: bool = False, *,
             setups: int = SETUP_REPEATS, corrupt: bool = False) -> Result:
    """wire-mixed against ``repro serve`` children (traced ones when
    ``trace``); ``corrupt`` perturbs one reference output, so tests can
    see a mismatch counted."""
    from repro.api import Engine
    from repro.experiments.common import mnist_datasets

    name = WIRE_NAME
    scale = seconds / RUN_SECONDS
    # The server trains on the same deterministic split; the benchmark
    # only needs its test images to send.
    _, test = mnist_datasets()
    images, labels = test.images, test.labels
    os.makedirs(OUT_DIR, exist_ok=True)

    loop = asyncio.new_event_loop()
    setup_s, ready_s, warm_s, trace_paths = [], [], [], []
    server = clients = None

    started = time.perf_counter()
    extended: List[int] = []

    def phase(label: str, rate: float, length: float, walk: int = 0) -> PhaseReport:
        """Run one phase of ``loadgen.WINDOWS`` windows, extended by
        more windows while too few of them are clean (see
        :data:`MAX_WINDOWS`)."""
        report = PhaseReport(label, rate)
        windows = loadgen.WINDOWS
        for extension in itertools.count():
            rng = np.random.default_rng(
                [seed, PHASE_KEYS[label], walk, round(rate * 1000), extension])
            reqs = loadgen.poisson_schedule(
                rng, rate=rate, duration=length * scale * windows / loadgen.WINDOWS,
                n_images=len(images), bulk_share=BULK_SHARE)
            outcomes, ticks = loop.run_until_complete(
                loadgen.run_phase(clients, reqs, images, labels))
            report.add(outcomes, ticks, windows)
            windows = report.missing_windows
            if not windows:
                return report
            if len(report.windows) >= MAX_WINDOWS or time.perf_counter() - started > TIME_BUDGET_S:
                return report
            extended.append(windows)
            print(f"{name} {report.describe()}: extending by {windows} windows", flush=True)

    try:
        for i in range(setups):
            trace_out = (
                os.path.join(OUT_DIR, f"spans-{name}-{seed}-server{i}.json.gz") if trace else None
            )
            t0 = time.perf_counter()
            server = Server(trace_out)
            clients, warm = loop.run_until_complete(_warm(server, images, labels))
            setup_s.append(time.perf_counter() - t0)
            ready_s.append(server.ready - server.started)
            warm_s.append(warm)
            trace_paths.append(trace_out)
            if i < setups - 1:
                loop.run_until_complete(_close(clients))
                server.stop()

        timed_from = time.perf_counter()
        first_ticks = loadgen.cpu_ticks()
        low = phase("low", LOW_RATE, LOW_S)
        high = phase("high", HIGH_RATE, HIGH_S)
        # The knee is the mean of independent walks: host speed drifts
        # between rungs, and one walk's adjacent-rung decision is noisy.
        walks = [walk_ladder(high, functools.partial(phase, walk=w))
                 for w in range(LADDER_WALKS)]
        knees = [knee or low for knee, _ in walks]
        rungs = [r for _, walk in walks for r in walk]
        steal = loadgen.steal_pct(first_ticks, loadgen.cpu_ticks())
        late_p99 = percentile(np.concatenate([low.lateness(), high.lateness()]), 99)
        timed_s = time.perf_counter() - timed_from
        loop.run_until_complete(_close(clients))
        clients = None
        server_log = server.stop()
        server = None
    finally:
        if clients is not None:
            loop.run_until_complete(_close(clients))
        if server is not None:
            server.stop()
        loop.close()

    result = Result(
        metrics={
            "setup_s": percentile(setup_s, 50),
            "images_per_s": float(np.mean([k.images_per_s() for k in knees])),
            "lat_p50_ms.low": percentile(low.small_latencies(), 50),
            "lat_p99_ms.low": low.small_p99(),
            "lat_p50_ms.high": percentile(high.small_latencies(), 50),
            "lat_p99_ms.high": high.small_p99(),
            "max_rate_rps": float(np.mean([k.rate for k in knees])),
            "bulk_p50_ms": percentile(high.bulk_latencies(), 50),
        },
    )
    # Failures are counted at the fixed rates; on the ladder, sheds are
    # what locates the knee. Every response is bit-checked either way.
    result.attempted = len(low.outcomes) + len(high.outcomes)
    failed_ops = low.failed + high.failed

    # Output checks against a reference engine built like the server's.
    from repro.experiments.common import trained_mlp

    checks_from = time.perf_counter()
    model, _, _, _ = trained_mlp(hardware(), epochs=SERVE_EPOCHS)
    engine = Engine.from_model(model)
    image_shape = images.shape[1:]
    windows = {}
    checked = 0
    outcomes = [o for p in [low, high] + rungs for o in p.outcomes if o.logits is not None]
    for o in outcomes:
        rows = len(o.request.index)
        if rows not in windows:
            windows[rows] = planned_windows(engine, rows, image_shape)
        ref = engine.session(seed=o.request.seed).run(images[o.request.index]).logits
        if corrupt and checked == 0:
            ref = ref.copy()
            ref.flat[0] += 1
        checked += 1
        if not np.array_equal(ref, o.logits) or o.summary.get("total_windows") != windows[rows]:
            result.mismatches += 1
    result.failed = failed_ops + result.mismatches
    checks_s = time.perf_counter() - checks_from

    with open(os.path.join(OUT_DIR, f"requests-{name}-{seed}.json"), "w") as fh:
        json.dump([
            {"phase": p.name, "rate": p.rate, "window_steal": p.window_steal,
             "requests": [[o.due_abs, o.latency_ms, len(o.request.index), o.error]
                          for o in p.outcomes]}
            for p in [low, high] + rungs], fh)
    accuracy = float(np.mean([o.summary.get("accuracy", 0.0) for o in outcomes])) if outcomes else 0.0
    for p in [low, high] + rungs:
        line = f"{name} {p.describe()}, bulk p50 {percentile(p.bulk_latencies(), 50):.2f} ms"
        if p.name == "rung":
            line += ", pass" if p.passes(P99_LIMIT_MS) else ", FAIL"
        result.lines.append(line)
    result.lines += [
        f"checks: {checked}/{len(outcomes)} responses compared bit for bit with serial "
        f"Session(engine, seed=s); {result.mismatches} mismatches; accuracy {accuracy:.3f}; "
        f"logits digest {digest(o.logits for o in outcomes)}",
        f"setup (median of {setups}): ready {percentile(ready_s, 50):.2f} s, "
        f"warm-up {percentile(warm_s, 50):.3f} s; steal {steal:.1f}%, "
        f"generator lateness p99 {late_p99:.2f} ms; {sum(extended)} windows added "
        f"for disturbed ones",
        f"wall: {timed_from - started:.1f} s set-up, {timed_s:.1f} s timed, "
        f"{checks_s:.1f} s checks",
    ]
    disturbed = [p for p in [low, high] + rungs if p.disturbed]
    if disturbed:
        result.lines.append(
            "INVALID: host disturbed; too few clean windows in "
            + ", ".join(f"{p.name} {p.rate:.1f} req/s" for p in disturbed)
            + f", their {loadgen.MIN_CLEAN_WINDOWS} least disturbed windows are kept")
    last_stats = [l for l in server_log.splitlines() if l.startswith("server stats:")]
    result.lines += last_stats
    if trace:
        with gzip.open(trace_paths[-1], "rt") as fh:
            dumped = json.load(fh)
        layers = dict(dumped["metrics"])
        setup_train, setup_compile = [], []
        for path in trace_paths:
            with gzip.open(path, "rt") as fh:
                m = json.load(fh)["metrics"]
            setup_train.append(m["setup.train_s"])
            setup_compile.append(m["setup.compile_s"])
        layers.update(chip_metrics(engine, image_shape))
        layers["setup.train_s"] = percentile(setup_train, 50)
        layers["setup.compile_s"] = percentile(setup_compile, 50)
        layers["setup.ready_s"] = percentile(ready_s, 50)
        layers["setup.warmup_s"] = percentile(warm_s, 50)
        layers["loadgen.late_p99_ms"] = late_p99
        layers["host.steal_pct"] = steal
        result.layers = layers
        result.spans = trace_paths[-1]
        result.lines += tracing.self_time_lines(dumped["self_times"])
    return result
