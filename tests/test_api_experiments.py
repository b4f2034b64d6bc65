"""Experiment registry: full coverage of repro/experiments + CLI run."""

import json
import pathlib

import pytest

import repro.experiments as experiments_pkg
from repro.api.experiments import (
    available_experiments,
    experiment_registry,
    get_experiment,
    register_experiment,
    run_experiment,
)


def experiment_modules():
    """Short names of every experiment module (the parity ground truth)."""
    root = pathlib.Path(experiments_pkg.__file__).parent
    return {
        p.stem
        for p in root.glob("*.py")
        if p.stem not in ("__init__", "common")
    }


class TestRegistryParity:
    def test_registry_covers_every_experiment_module(self):
        """Satellite: each module under repro/experiments is reachable
        from the registry, and the registry references no phantom
        modules — adding an experiment without registering it fails."""
        registered = {spec.module_name for spec in experiment_registry().values()}
        assert registered == experiment_modules()

    def test_every_target_resolves_to_a_callable(self):
        for name in available_experiments():
            assert callable(get_experiment(name).resolve()), name

    def test_previously_missing_experiments_now_registered(self):
        """The PR-1 CLI gap: these were unreachable from the CLI."""
        for name in ("table2", "table3", "fig10", "fig11", "headline",
                     "temperature"):
            assert name in available_experiments()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="table1"):
            get_experiment("nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            register_experiment("table1", "repro.experiments.table1:x", "dup")

    def test_run_experiment_executes(self):
        rows = run_experiment("table1", sizes=[4, 8])
        assert [r["size"] for r in rows] == [4, 8]


class TestCliRun:
    def test_run_list_prints_all_experiments(self, capsys):
        from repro.cli import main

        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in available_experiments():
            assert name in out

    def test_run_without_name_lists(self, capsys):
        from repro.cli import main

        assert main(["run"]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_run_fast_experiment_emits_json(self, capsys):
        from repro.cli import main

        assert main(["run", "fig5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "points" in payload and payload["points"]

    def test_run_with_overrides(self, capsys):
        from repro.cli import main

        assert main(["run", "table1", "-k", "sizes=[4]"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1 and payload[0]["size"] == 4

    def test_run_output_file(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "fig5.json"
        assert main(["run", "fig5", "-o", str(target)]) == 0
        assert json.loads(target.read_text())["points"]

    def test_backends_subcommand(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "stochastic-batched" in out

    def test_override_parsing_rejects_garbage(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "table1", "-k", "novalue"])
