"""The bench-smoke gate's reference lookup: a trajectory without the
pooled+serial rows fails the gate, a ``[skip-bench-smoke]`` label is the
only exemption, and a run carrying both rows yields their ratio."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_bench_smoke():
    spec = importlib.util.spec_from_file_location(
        "bench_smoke", REPO_ROOT / "benchmarks" / "bench_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_smoke = _load_bench_smoke()


def _run(label, **rows):
    return {
        "label": label,
        "benchmarks": {name: {"min_s": value} for name, value in rows.items()},
    }


def _trajectory(tmp_path, *runs):
    path = tmp_path / "BENCH_kernels.json"
    path.write_text(json.dumps({"runs": list(runs)}))
    return path


BOTH = {bench_smoke.POOLED_ROW: 0.006, bench_smoke.SERIAL_ROW: 0.008}


def test_missing_rows_is_no_reference_and_fails_the_gate(tmp_path, capsys):
    path = _trajectory(
        tmp_path, _run("old", **{bench_smoke.SERIAL_ROW: 0.008})
    )
    with pytest.raises(bench_smoke.NoReference, match="pooled and serial"):
        bench_smoke.reference_ratio(path)
    assert bench_smoke.main(["--bench-json", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_missing_or_unreadable_file_fails_the_gate(tmp_path):
    with pytest.raises(bench_smoke.NoReference, match="no trajectory"):
        bench_smoke.reference_ratio(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(bench_smoke.NoReference, match="unreadable"):
        bench_smoke.reference_ratio(bad)
    assert bench_smoke.main(["--bench-json", str(bad)]) == 1


def test_skip_label_exempts(tmp_path, capsys):
    path = _trajectory(
        tmp_path, _run(f"loaded host {bench_smoke.SKIP_TOKEN}", **BOTH)
    )
    ratio, reason = bench_smoke.reference_ratio(path)
    assert ratio is None and bench_smoke.SKIP_TOKEN in reason
    assert bench_smoke.main(["--bench-json", str(path)]) == 0
    assert "SKIP" in capsys.readouterr().out


def test_newest_run_with_both_rows_gives_the_ratio(tmp_path):
    path = _trajectory(
        tmp_path,
        _run("older", **{bench_smoke.POOLED_ROW: 0.010, bench_smoke.SERIAL_ROW: 0.005}),
        _run("newer", **BOTH),
        _run("newest, serial row only", **{bench_smoke.SERIAL_ROW: 0.008}),
    )
    ratio, label = bench_smoke.reference_ratio(path)
    assert ratio == pytest.approx(0.75)
    assert label == "newer"


def test_committed_trajectory_has_a_reference():
    """The committed BENCH_kernels.json gives the gate something to
    compare against (not an exemption)."""
    ratio, label = bench_smoke.reference_ratio(REPO_ROOT / "BENCH_kernels.json")
    assert ratio is not None and ratio > 0, label
