"""Tests for the repro-experiments command-line interface."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments.results import ResultTable
from repro.experiments import runner


@pytest.fixture()
def stub_experiment(monkeypatch):
    """Register a fast fake experiment so CLI tests do not run real sweeps."""
    table = ResultTable(name="stub", columns=["peers", "ratio"])
    table.add_row(peers=10, ratio=1.5)
    monkeypatch.setitem(runner.EXPERIMENTS, "stub", lambda: table)
    return table


class TestParser:
    def test_parses_experiments_and_flags(self):
        parser = build_parser()
        args = parser.parse_args(["figure1-quick", "--csv"])
        assert args.experiments == ["figure1-quick"]
        assert args.csv
        assert args.output is None

    def test_output_flag_is_a_path(self, tmp_path):
        args = build_parser().parse_args(["churn", "--output", str(tmp_path)])
        assert args.output == tmp_path


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output
        assert "churn" in output

    def test_no_experiment_is_an_error(self, capsys):
        assert main([]) == 2
        assert "no experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["not-an-experiment", "perf", "convergence"])
    def test_unknown_experiment_is_an_error(self, name, capsys):
        assert main([name]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_experiment_and_prints_table(self, stub_experiment, capsys):
        assert main(["stub"]) == 0
        output = capsys.readouterr().out
        assert "peers" in output
        assert "1.500" in output

    def test_csv_output(self, stub_experiment, capsys):
        assert main(["stub", "--csv"]) == 0
        output = capsys.readouterr().out
        assert "peers,ratio" in output

    def test_saves_json_when_output_given(self, stub_experiment, capsys, tmp_path):
        assert main(["stub", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "stub.json").exists()


class TestShardServeDispatch:
    def test_shard_serve_without_binds_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["shard-serve"])
        assert "--tcp / --unix" in capsys.readouterr().err

    def test_shard_serve_rejects_malformed_tcp_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["shard-serve", "--tcp", "7421"])
        assert "HOST:PORT" in capsys.readouterr().err


class TestPackaging:
    def test_setup_py_names_the_package_and_its_console_script(self):
        """``repro-experiments`` exists because setup.py says so, offline."""
        pytest.importorskip("setuptools")
        setup_py = Path(__file__).resolve().parents[1] / "setup.py"
        described = subprocess.run(
            [sys.executable, str(setup_py), "--name", "--version"],
            capture_output=True, text=True, check=True, cwd=setup_py.parent,
        ).stdout.split()
        assert described == ["repro", repro.__version__]
        assert '"repro-experiments = repro.cli:main"' in setup_py.read_text()
        assert callable(main)
