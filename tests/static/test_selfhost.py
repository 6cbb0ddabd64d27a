"""Self-hosting: the repo's own regions must be lint-clean.

Every application module and every example is linted by path (pure AST),
and every application region again at runtime through its attached spec —
the same gate the CI lint job applies.
"""

import glob
import os

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.static import Severity, lint_module, lint_region_fn

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "repro")
APP_FILES = sorted(glob.glob(os.path.join(REPO_ROOT, "src", "repro", "apps", "*.py")))
EXAMPLE_FILES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))


def test_fixture_paths_found():
    assert len(APP_FILES) >= 12
    assert len(EXAMPLE_FILES) >= 5


@pytest.mark.parametrize("path", APP_FILES + EXAMPLE_FILES, ids=os.path.basename)
def test_module_lints_clean(path):
    report = lint_module(path)
    noisy = report.at_least(Severity.WARNING)
    assert not noisy, "\n".join(d.format() for d in noisy)
    assert report.exit_code() == 0


@pytest.mark.parametrize("app_cls", ALL_APPLICATIONS, ids=lambda c: c.name)
def test_region_fn_lints_clean(app_cls):
    app = app_cls()
    static_report, diags = lint_region_fn(app.region_fn)
    errors = [d for d in diags if d.severity >= Severity.WARNING]
    assert not errors, "\n".join(d.format() for d in errors)
    # the region's declared outputs are all statically derivable
    assert static_report.outputs
    assert static_report.inputs


class TestConcurrencySelfhost:
    """The serving stack must pass its own lock analyzer — on discipline
    alone, with zero ``# cc: ignore`` escapes."""

    def test_package_is_cc_clean(self):
        report = lint_module(PACKAGE_DIR).filter(select=("CC",))
        noisy = report.at_least(Severity.INFO)
        assert not noisy, "\n".join(d.format() for d in noisy)

    def test_no_suppressions_anywhere_in_package(self):
        # tokenize-level check: docstrings *documenting* the pragma are
        # fine, an actual `# cc: ignore(...)` comment is not
        from repro.static.concurrency import analyze_sources
        from repro.static.linter import collect_sources

        analysis = analyze_sources(collect_sources(PACKAGE_DIR))
        offenders = [
            f"{path}:{line}"
            for path, lines in sorted(analysis.ignores.items())
            for line in sorted(lines)
        ]
        assert not offenders, offenders

    def test_static_graph_covers_serving_stack(self):
        # the edges the runtime crossval test exercises must exist statically
        from repro.static import lock_order_graph

        edges = lock_order_graph(PACKAGE_DIR).edge_set()
        assert ("Orchestrator._state_lock", "_RequestQueue._cond") in edges
        # admission takes the store lock alone: the state lock orders
        # start and stop, never a request
        assert ("Orchestrator._state_lock", "Orchestrator._lock") not in edges
