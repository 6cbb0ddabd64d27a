"""CLI and report-formatting tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import core, obs
from repro.cli import build_parser, main
from repro.core.reports import (
    format_build_report,
    format_evaluation_table,
    format_phase_table,
)
from repro.core.evaluation import EvaluationRow
from repro.nas.evaluation import evaluate_topology
from repro.nn.mlp import Topology
from repro.perf.metrics import SpeedupBreakdown


def make_row(name="CG", speedup=3.0, hit=0.95):
    b = SpeedupBreakdown(10.0, 0.5, 0.5, 2.0)
    return EvaluationRow(
        app_name=name, app_type="I", speedup=speedup, hit_rate=hit,
        breakdown=b, n_problems=10, mu=0.1,
    )


class TestReports:
    def test_evaluation_table_contains_rows_and_hmean(self):
        text = format_evaluation_table([make_row("CG"), make_row("FFT", 6.0)])
        assert "CG" in text and "FFT" in text
        assert "harmonic mean" in text

    def test_evaluation_table_empty_rejected(self):
        with pytest.raises(ValueError):
            format_evaluation_table([])

    def test_phase_table(self):
        text = format_phase_table(
            {"simulated": {"fetch": 0.2, "run": 0.8},
             "measured": {"fetch": 0.3, "run": 0.7}}
        )
        assert "simulated" in text and "measured" in text
        assert "fetch" in text and "run" in text

    def test_phase_table_empty_rejected(self):
        with pytest.raises(ValueError):
            format_phase_table({})


class TestCLIParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["list-apps"]).command == "list-apps"
        args = parser.parse_args(["trace", "CG", "--samples", "5"])
        assert args.app == "CG" and args.samples == 5
        args = parser.parse_args(
            ["build", "FFT", "--samples", "100", "--outer", "1", "--inner", "2"]
        )
        assert args.outer == 1
        args = parser.parse_args(["evaluate", "MG", "--problems", "7"])
        assert args.problems == 7
        args = parser.parse_args(["compare", "FFT", "--problems", "5"])
        assert args.command == "compare" and args.problems == 5

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCLIExecution:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        assert "Blackscholes" in out and "Laghos" in out

    def test_trace(self, capsys):
        assert main(["trace", "Laghos", "--samples", "4"]) == 0
        out = capsys.readouterr().out
        assert "inputs:" in out and "outputs:" in out

    def test_unknown_app_raises(self):
        with pytest.raises(ValueError):
            main(["trace", "doom"])


class TestServeReport:
    @pytest.fixture(autouse=True)
    def fresh_telemetry(self):
        obs.configure(enabled=True, reset=True)
        yield
        obs.configure(enabled=True, reset=True)

    def test_micro_batch_line_prints_exact_count_and_mean(
        self, monkeypatch, capsys, rng
    ):
        x = rng.standard_normal((80, 4))
        package = evaluate_topology(
            Topology(hidden=(8,)), x, x @ rng.standard_normal((4, 2)), rng=rng
        ).package
        surrogate = SimpleNamespace(
            input_schema=SimpleNamespace(flatten=lambda problem: np.ones(4)),
            package=package,
        )

        class StubBuilder:
            def __init__(self, config):
                pass

            def build(self, app):
                return SimpleNamespace(surrogate=surrogate)

        # the serve handler imports the pipeline when it runs
        monkeypatch.setattr(core, "AutoHPCnet", StubBuilder)
        # 256 requests queued in one call drain as 8 batches of 32; the
        # old in-bucket percentile line printed "size p50 24" for them
        assert main(["serve", "Blackscholes", "--requests", "256"]) == 0
        out = capsys.readouterr().out
        assert "micro-batches: 8 (mean size 32.0)" in out
