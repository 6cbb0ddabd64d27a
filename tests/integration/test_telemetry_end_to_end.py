"""End-to-end telemetry: a real pipeline build + serving run produces a
Perfetto-loadable Chrome trace and a Prometheus exposition with the
documented metric names, and the serving spans agree with the PhaseTimer."""

import json
import re

import numpy as np
import pytest

from repro import AutoHPCnet, AutoHPCnetConfig, obs
from repro.apps import BlackscholesApplication
from repro.runtime import ONLINE_PHASES, GuardedSurrogate, ServingSession, default_validator

FAST = AutoHPCnetConfig(
    n_samples=120, outer_iterations=1, inner_trials=2, num_epochs=40,
    quality_problems=4, quality_loss=0.9, qoi_mu=0.5, seed=0,
)


@pytest.fixture(scope="module")
def telemetry_run():
    """One instrumented build + a few serving/guard invocations, with
    the raw rows served and the session's answers to them."""
    obs.configure(enabled=True, reset=True)
    app = BlackscholesApplication()
    build = AutoHPCnet(FAST).build(app)
    session = ServingSession(build.surrogate.package)
    guarded = GuardedSurrogate(build.surrogate, default_validator(app.name))
    rng = np.random.default_rng(3)
    served = []
    for problem in app.generate_problems(4, rng):
        row = build.surrogate.input_schema.flatten(problem)
        served.append((row, session.infer(row)))
        guarded.run(problem)
    yield build, session, guarded, served
    obs.configure(enabled=True, reset=True)


class TestTraceExport:
    def test_trace_is_perfetto_loadable(self, telemetry_run, tmp_path):
        path = obs.get_tracer().export_chrome_trace(tmp_path / "build.trace.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events, "no spans recorded"
        ids = set()
        for event in events:
            assert event["ph"] == "X"           # complete events: always balanced
            assert isinstance(event["name"], str) and event["name"]
            assert event["dur"] >= 0
            assert isinstance(event["ts"], float)
            ids.add(event["args"]["span_id"])
        for event in events:
            parent = event["args"].get("parent_span_id")
            assert parent is None or parent in ids

    def test_expected_span_tree(self, telemetry_run):
        tracer = obs.get_tracer()
        names = {s.name for s in tracer.finished_spans()}
        for expected in (
            "build", "build.preflight", "build.acquire", "build.encode",
            "build.search", "build.package", "nas.outer_iteration",
            "nas.trial", "load_model", "fetch_input", "encode", "run_model",
        ):
            assert expected in names, f"missing span {expected!r}"
        # build children link to the build root
        spans = tracer.finished_spans()
        root = next(s for s in spans if s.name == "build")
        children = {s.name for s in spans if s.parent_id == root.span_id}
        assert {"build.preflight", "build.acquire", "build.search"} <= children
        # NAS spans carry the search coordinates
        outer = next(s for s in spans if s.name == "nas.outer_iteration")
        assert "K" in outer.attributes
        trial = next(s for s in spans if s.name == "nas.trial")
        assert {"f_c", "f_e"} <= set(trial.attributes)

    def test_nas_trials_nest_under_outer_iteration(self, telemetry_run):
        spans = obs.get_tracer().finished_spans()
        outer_ids = {s.span_id for s in spans if s.name == "nas.outer_iteration"}
        trials = [s for s in spans if s.name == "nas.trial"]
        assert trials
        assert all(t.parent_id in outer_ids for t in trials)


class TestPrometheusExport:
    DOCUMENTED = (
        "repro_orchestrator_tensor_store_size",
        "repro_orchestrator_inference_seconds",
        "repro_serving_phase_seconds",
        "repro_guard_invocations_total",
        "repro_nas_best_f_c",
        "repro_nas_best_f_e",
    )

    def test_exposition_parses_and_has_documented_names(self, telemetry_run):
        text = obs.get_registry().to_prometheus()
        line_re = re.compile(
            r'^(# (HELP|TYPE) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+)$'
        )
        for line in text.strip().splitlines():
            assert line_re.match(line), f"bad exposition line: {line!r}"
        for name in self.DOCUMENTED:
            assert name in text, f"missing documented metric {name}"

    def test_serving_histogram_counts_every_phase(self, telemetry_run):
        hist = obs.get_registry().get("repro_serving_phase_seconds")
        for phase in ONLINE_PHASES:
            expected = 1 if phase == "load_model" else 4
            assert hist.count(phase=phase) == expected

    def test_guard_counters_match_stats(self, telemetry_run):
        _, _, guarded, _ = telemetry_run
        registry = obs.get_registry()
        assert (
            registry.get("repro_guard_invocations_total").value(app="Blackscholes")
            == guarded.stats.invocations
        )

    def test_snapshot_renders_as_table(self, telemetry_run):
        from repro.core.reports import format_metrics_table

        table = format_metrics_table(obs.get_registry().snapshot())
        assert "repro_serving_phase_seconds" in table
        assert "p99" in table


class TestSingleSourceOfTruth:
    def test_span_fractions_match_phase_timer(self, telemetry_run):
        """§7.3 phase fractions: spans and PhaseTimer must not drift."""
        _, session, _, _ = telemetry_run
        tracer = obs.get_tracer()
        span_seconds = {
            phase: sum(s.duration for s in tracer.spans_named(phase))
            for phase in ONLINE_PHASES
        }
        for phase in ONLINE_PHASES:
            assert span_seconds[phase] == pytest.approx(
                session.timer.phases[phase], rel=1e-12
            )
        total = sum(span_seconds.values())
        for phase in ONLINE_PHASES:
            assert span_seconds[phase] / total == pytest.approx(
                session.timer.fraction(phase), rel=1e-9
            )

    def test_histogram_sum_matches_timer(self, telemetry_run):
        _, session, _, _ = telemetry_run
        hist = obs.get_registry().get("repro_serving_phase_seconds")
        for phase in ONLINE_PHASES:
            assert hist.sum(phase=phase) == pytest.approx(
                session.timer.phases[phase], rel=1e-12
            )


class TestServedAnswers:
    def test_session_answers_raw_outputs(self, telemetry_run):
        """A raw flattened row in, the surrogate's raw outputs back: what
        the build's own ``DeployedSurrogate`` answers for that row."""
        build, _, _, served = telemetry_run
        surrogate = build.surrogate
        for row, answer in served:
            expected = surrogate.output_schema.flatten(surrogate.run_row(row))
            np.testing.assert_allclose(answer, expected, rtol=1e-9, atol=1e-9)
        # the outputs were standardized for training: the check has teeth
        assert not surrogate.package.y_scaler.is_identity


class TestCLITelemetry:
    def test_telemetry_subcommand_prometheus(self, capsys):
        from repro.cli import main

        assert main(["telemetry", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        # whatever this process accumulated is exposed in valid format
        for line in out.strip().splitlines():
            assert line.startswith("#") or re.match(
                r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$", line
            ), line

    def test_telemetry_subcommand_table(self, capsys):
        from repro.cli import main

        assert main(["telemetry"]) == 0
        assert "metric" in capsys.readouterr().out

    def test_trace_out_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.trace.json"
        assert main(["telemetry", "--trace-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "traceEvents" in payload
