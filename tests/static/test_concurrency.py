"""The CC concurrency analyzer: guards, lock orders, condvars, crossval."""

import json
import os

import pytest

from repro.cli import main
from repro.static import Severity, lint_module, lint_source, lock_order_graph
from repro.static.concurrency import CC_RULES, cross_validate_lock_orders

FIXTURE = os.path.join(os.path.dirname(__file__), "fixture_concurrency_bugs.py")


def rules_of(report):
    return {d.rule for d in report.diagnostics}


def lint(source):
    return lint_source(source).filter(select=("CC",))


def lint_fixture():
    return lint_module(FIXTURE).filter(select=("CC",))


PREAMBLE = "import threading\n"


class TestGuardedBy:
    def test_declared_guard_flags_bare_write(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0  # cc: guarded-by(_lock)\n"
            "    def bad(self):\n"
            "        self.n = 1\n"
        )
        assert rules_of(report) == {"CC101"}

    def test_declared_guard_flags_bare_read(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0  # cc: guarded-by(_lock)\n"
            "    def peek(self):\n"
            "        return self.n\n"
        )
        assert rules_of(report) == {"CC102"}

    def test_atomic_reads_waives_reads_not_writes(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0  # cc: guarded-by(_lock, atomic-reads)\n"
            "    def peek(self):\n"
            "        return self.n\n"
            "    def bad(self):\n"
            "        self.n = 1\n"
        )
        assert rules_of(report) == {"CC101"}

    def test_guarded_access_is_clean(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0  # cc: guarded-by(_lock)\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    def peek(self):\n"
            "        with self._lock:\n"
            "            return self.n\n"
        )
        assert not report.diagnostics

    def test_inference_votes_dominant_lock(self):
        # two locked writes, one bare: the bare one loses the vote
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self.n = 1\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self.n = 2\n"
            "    def c(self):\n"
            "        self.n = 3\n"
        )
        assert "CC101" in rules_of(report)

    def test_inference_tie_is_cc103(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "        self.n = 0\n"
            "    def x(self):\n"
            "        with self._a:\n"
            "            self.n = 1\n"
            "    def y(self):\n"
            "        with self._b:\n"
            "            self.n = 2\n"
        )
        assert rules_of(report) == {"CC103"}

    def test_never_locked_fields_exempt(self):
        # single-threaded class: no lock involvement, nothing to check
        report = lint(
            "class C:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        self.n += 1\n"
            "    def peek(self):\n"
            "        return self.n\n"
        )
        assert not report.diagnostics


class TestRequires:
    SRC = (
        PREAMBLE
        + "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0  # cc: guarded-by(_lock)\n"
        "    def _bump_locked(self):  # cc: requires(_lock)\n"
        "        self.n += 1\n"
    )

    def test_requires_credits_body_and_checked_caller(self):
        report = lint(
            self.SRC
            + "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
        )
        assert not report.diagnostics

    def test_call_without_lock_is_cc104(self):
        report = lint(
            self.SRC
            + "    def bad(self):\n"
            "        self._bump_locked()\n"
        )
        assert rules_of(report) == {"CC104"}

    def test_unresolvable_pragma_is_cc105(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self.n = 0  # cc: guarded-by(_missing)\n"
        )
        assert "CC105" in rules_of(report)

    def test_malformed_directive_is_cc105(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self.n = 0  # cc: guardedby(_lock)\n"
        )
        assert "CC105" in rules_of(report)


class TestLockOrderGraph:
    def test_cycle_is_cc201(self):
        report = lint_fixture()
        assert "CC201" in rules_of(report)

    def test_interprocedural_reacquire_is_cc202(self):
        report = lint_fixture()
        assert "CC202" in rules_of(report)

    def test_rlock_reacquire_is_fine(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        assert "CC202" not in rules_of(report)

    def test_consistent_order_has_edge_no_cycle(self):
        graph = lock_order_graph(FIXTURE)
        assert ("DeadlockPair._a", "DeadlockPair._b") in graph.edge_set()
        assert ("DeadlockPair._b", "DeadlockPair._a") in graph.edge_set()
        assert any("DeadlockPair._a" in scc for scc in graph.cycles())

    def test_cross_class_edges(self):
        source = (
            PREAMBLE
            + "class Inner:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "class Outer:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.inner = Inner()\n"
            "    def drive(self):\n"
            "        with self._lock:\n"
            "            self.inner.poke()\n"
        )
        report = lint(source)
        assert not report.at_least(Severity.ERROR)
        from repro.static.concurrency import analyze_sources, build_graph

        graph, _ = build_graph(analyze_sources([("<mem>", source)]))
        assert ("Outer._lock", "Inner._lock") in graph.edge_set()

    def test_member_of_either_class_reaches_both(self):
        source = (
            PREAMBLE
            + "class ThreadPool:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def stop(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "class ProcPool:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def stop(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "class Front:\n"
            "    def __init__(self, procs):\n"
            "        self._lock = threading.Lock()\n"
            "        if procs:\n"
            "            self.pool = ProcPool()\n"
            "        else:\n"
            "            self.pool = ThreadPool()  # cc: type(ThreadPool, ProcPool)\n"
            "    def stop(self):\n"
            "        with self._lock:\n"
            "            self.pool.stop()\n"
        )
        report = lint(source)
        assert not report.at_least(Severity.WARNING)
        from repro.static.concurrency import analyze_sources, build_graph

        graph, _ = build_graph(analyze_sources([("<mem>", source)]))
        assert ("Front._lock", "ThreadPool._lock") in graph.edge_set()
        assert ("Front._lock", "ProcPool._lock") in graph.edge_set()


class TestCondvars:
    def test_seeded_condvar_lints(self):
        report = lint_fixture()
        assert {"CC301", "CC302", "CC303"} <= rules_of(report)

    def test_wait_for_is_loop_exempt(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "        self.items = []\n"
            "    def take(self):\n"
            "        with self._cond:\n"
            "            self._cond.wait_for(lambda: self.items)\n"
            "            return self.items.pop()\n"
        )
        assert "CC301" not in rules_of(report)

    def test_wait_holding_unrelated_lock_is_cc203(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cond = threading.Condition()\n"
            "    def stall(self):\n"
            "        with self._lock:\n"
            "            with self._cond:\n"
            "                while True:\n"
            "                    self._cond.wait()\n"
        )
        assert "CC203" in rules_of(report)


class TestSuppression:
    def test_ignore_pragma_suppresses_that_line(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0  # cc: guarded-by(_lock)\n"
            "    def bad(self):\n"
            "        self.n = 1  # cc: ignore(CC101)\n"
        )
        assert not report.diagnostics

    def test_ignore_wrong_code_does_not_suppress(self):
        report = lint(
            PREAMBLE
            + "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0  # cc: guarded-by(_lock)\n"
            "    def bad(self):\n"
            "        self.n = 1  # cc: ignore(CC102)\n"
        )
        assert rules_of(report) == {"CC101"}


class TestReportFilter:
    def test_select_prefix(self):
        report = lint_fixture()
        only_3xx = report.filter(select=["CC3"])
        assert rules_of(only_3xx) == {"CC301", "CC302", "CC303"}

    def test_ignore_prefix(self):
        report = lint_fixture()
        no_1xx = report.filter(ignore=["CC1"])
        assert not any(r.startswith("CC1") for r in rules_of(no_1xx))
        assert "CC201" in rules_of(no_1xx)

    def test_select_then_ignore(self):
        report = lint_fixture()
        picked = report.filter(select=["CC2"], ignore=["CC202"])
        assert rules_of(picked) == {"CC201"}


class TestCrossValidation:
    def test_dynamic_only_edge_is_cc401(self):
        graph = lock_order_graph(FIXTURE)
        recorded = {("Nowhere._x", "Nowhere._y"): 3}
        xval = cross_validate_lock_orders(graph, recorded)
        assert not xval.agrees
        assert {d.rule for d in xval.diagnostics if d.severity >= Severity.ERROR} == {"CC401"}
        assert "3 time(s)" in next(
            d.message for d in xval.diagnostics if d.rule == "CC401"
        )

    def test_static_only_edge_is_info_cc402(self):
        graph = lock_order_graph(FIXTURE)
        xval = cross_validate_lock_orders(graph, {})
        assert xval.agrees
        assert all(d.rule == "CC402" for d in xval.diagnostics)
        assert all(d.severity == Severity.INFO for d in xval.diagnostics)

    def test_exact_agreement_summary(self):
        graph = lock_order_graph(FIXTURE)
        recorded = {edge: 1 for edge in graph.edge_set()}
        xval = cross_validate_lock_orders(graph, recorded)
        assert xval.agrees
        assert not xval.diagnostics
        assert "agree" in xval.summary()


class TestCLI:
    def test_fixture_text_output_has_cc_codes(self, capsys):
        assert main(["lint", FIXTURE]) == 1
        out = capsys.readouterr().out
        for code in ("CC101", "CC201", "CC202", "CC301", "CC302", "CC303"):
            assert code in out

    def test_fixture_json_output(self, capsys):
        assert main(["lint", FIXTURE, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {d["rule"] for d in payload["diagnostics"]}
        assert {"CC101", "CC201", "CC202", "CC301", "CC302", "CC303"} <= codes
        assert payload["summary"]["error"] >= 5

    def test_select_filters_rules(self, capsys):
        assert main(["lint", FIXTURE, "--select", "CC3", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {d["rule"] for d in payload["diagnostics"]} == {
            "CC301", "CC302", "CC303"
        }

    def test_ignore_filters_rules(self, capsys):
        assert main([
            "lint", FIXTURE, "--select", "CC", "--ignore", "CC2",
            "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {d["rule"] for d in payload["diagnostics"]}
        assert codes and not any(c.startswith("CC2") for c in codes)

    def test_select_can_zero_out_report(self, capsys):
        # selecting a code family the fixture doesn't trip exits clean
        assert main(["lint", FIXTURE, "--select", "CC4"]) == 0

    def test_directory_target_runs_package_rules(self, capsys):
        pkg = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "src", "repro", "static",
        )
        assert main(["lint", pkg, "--select", "CC", "--fail-on", "warning"]) == 0


class TestRuleCatalog:
    def test_cc_rules_are_registered_globally(self):
        from repro.static import RULES

        assert set(CC_RULES) <= set(RULES)

    def test_all_emitted_rules_are_cataloged(self):
        report = lint_fixture()
        assert rules_of(report) <= set(CC_RULES)
