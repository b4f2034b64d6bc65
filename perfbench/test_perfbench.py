"""Seconds-long miniatures of the benchmark's workloads.

    python -m pytest perfbench/test_perfbench.py -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, and that failure accounting counts a forced shed and a forced
bit mismatch. They assert nothing about speed.
"""

import asyncio
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
MINI_SECONDS = 1.5

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_spec_names_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == ["offline-vgg", workloads.WIRE_NAME]
    for name in list(E2E) + list(LAYERS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert E2E["setup_s"] == "s"
    assert SPEC["run_seconds"] == workloads.RUN_SECONDS
    assert LAYERS == tracing.LAYER_METRICS


@pytest.fixture(autouse=True)
def ignore_host_noise(monkeypatch):
    """Miniature windows last tens of milliseconds, where one stolen
    jiffy is a large share: the window rule has its own test below, the
    miniatures must not turn on the host's steal."""
    monkeypatch.setattr(loadgen, "STEAL_LIMIT_PCT", float("inf"))
    monkeypatch.setattr(loadgen, "LATE_LIMIT_MS", float("inf"))


def test_disturbed_windows_are_left_out():
    def outcome(due, latency_ms):
        o = loadgen.Outcome(loadgen.Request(due=due, conn=0, seed=0, index=np.arange(2)))
        o.due_abs = o.sent = due
        o.done = due + latency_ms / 1e3
        return o

    outcomes = [outcome(t * 0.1, 10.0 if t < 60 else 90.0) for t in range(100)]
    # (steal, total) jiffies: no steal for the first 6 s, then half stolen.
    ticks = [(t, (0 if t <= 6.0 else int((t - 6.0) * 100), int(t * 200))) for t in
             np.arange(0.0, 10.5, 0.05)]
    report = loadgen.PhaseReport("synthetic", 10.0)
    report.add(outcomes, ticks, loadgen.WINDOWS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loadgen, "STEAL_LIMIT_PCT", 3.0)
        mp.setattr(loadgen, "LATE_LIMIT_MS", 8.0)
        assert len(report.clean) == 6
        assert report.missing_windows == 0
        assert report.small_p99() == pytest.approx(10.0)
        assert loadgen.percentile(report.small_latencies(), 50) == pytest.approx(10.0)

        # Three clean windows, all at 90 ms: the phase is disturbed and
        # keeps those three plus the least disturbed other window.
        report.window_steal = [20.0] * 6 + [0.0, 0.0, 0.0, 5.0]
        assert report.disturbed
        assert len(report.kept) == loadgen.MIN_CLEAN_WINDOWS
        assert report.small_p99() == pytest.approx(90.0)


def _check(values, units):
    assert set(values) >= set(units)
    for name in units:
        assert np.isfinite(values[name]), name


def test_offline_miniature_traced():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        result = workloads.run_offline(1, MINI_SECONDS, tracer, setups=1)
    finally:
        tracer.uninstall()
    _check(result.metrics, E2E)
    _check(result.layers, LAYERS)
    assert result.mismatches == 0 and result.failed == 0
    assert result.layers["kernel.windows_per_img"] == 11008
    assert result.layers["stage.conv_us_per_img"] > 0


def test_offline_counts_a_replay_mismatch():
    result = workloads.run_offline(2, 0.5, setups=1, corrupt=True)
    assert result.mismatches == 1
    assert result.failed == 1


def test_wire_miniature_traced():
    result = workloads.run_wire(3, MINI_SECONDS, trace=True, setups=1)
    _check(result.metrics, E2E)
    _check(result.layers, LAYERS)
    assert result.mismatches == 0
    assert result.layers["protocol.frames_per_req"] >= 1
    assert result.layers["router.sticky_ratio"] > 0.9


def test_wire_counts_a_bit_mismatch():
    result = workloads.run_wire(4, 0.5, setups=1, corrupt=True)
    assert result.mismatches == 1
    assert result.failed >= 1


def test_burst_over_the_quota_counts_as_failed():
    """All requests due at once on one connection: the server sheds
    what exceeds its per-connection in-flight quota (32), and the
    phase counts every shed request as failed."""
    from repro.experiments.common import mnist_datasets

    _, test = mnist_datasets()
    server = workloads.Server()
    loop = asyncio.new_event_loop()
    try:
        clients = loop.run_until_complete(workloads._connect(server.address, 1))
        requests = [
            loadgen.Request(due=0.0, conn=0, seed=i, index=np.arange(4)) for i in range(80)
        ]
        outcomes, ticks = loop.run_until_complete(
            loadgen.run_phase(clients, requests, test.images, test.labels)
        )
        loop.run_until_complete(workloads._close(clients))
    finally:
        loop.close()
        server.stop()
    report = loadgen.PhaseReport("burst", 0.0)
    report.add(outcomes, ticks, loadgen.WINDOWS)
    shed = [o for o in report.outcomes if o.error == "quota-exceeded"]
    assert shed
    assert report.failed == len(shed)


def test_cli_prints_one_json_line_and_fails_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "wire-mixed",
         "--seed", "5", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == E2E
    for name, unit in E2E.items():
        assert re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}$", out.stdout, re.M)

    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for fname in os.listdir(HERE):
        if fname.endswith(".py"):
            (bare / "perfbench" / fname).write_text(open(os.path.join(HERE, fname)).read())
    (bare / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wire-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60,
    )
    assert out.returncode != 0
    assert not out.stdout.strip().startswith("{")
