"""Surrogate-fitness rule tests (the SFxxx catalogue)."""

import os

import pytest

from repro.static import RULES, Severity, lint_module, lint_source

FIXTURE_DIR = os.path.dirname(__file__)
BAD_FIXTURE = os.path.join(FIXTURE_DIR, "fixture_bad_regions.py")


def rules_of(diags):
    return {d.rule for d in diags}


def lint_region_source(body: str, *, live_after=("out",), extra_deco="") -> list:
    """Lint one synthetic region; ``body`` is the indented function body."""
    source = (
        "from repro.extract import code_region\n"
        f"@code_region(name='r', live_after={live_after!r}{extra_deco})\n"
        "def region(data, scratch):\n"
        f"{body}"
    )
    return lint_source(source, filename="<test>").diagnostics


class TestBadFixtureModule:
    """The acceptance fixture: an unfit module hits >= 4 error-level rules."""

    def test_at_least_four_distinct_error_rules(self):
        report = lint_module(BAD_FIXTURE)
        error_rules = rules_of(report.errors)
        assert {"SF201", "SF202", "SF203", "SF204", "SF205"} <= error_rules
        assert len(error_rules) >= 4

    def test_metadata_errors_found_without_importing(self):
        report = lint_module(BAD_FIXTURE)
        error_rules = rules_of(report.errors)
        assert "SF102" in error_rules   # continuation_source does not parse
        assert "SF103" in error_rules   # live_after name never written

    def test_fixture_is_not_importable(self):
        # satellite 2: decoration itself rejects the bad continuation_source
        with pytest.raises(ValueError, match="continuation_source"):
            import importlib.util

            spec = importlib.util.spec_from_file_location("bad_regions", BAD_FIXTURE)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)

    def test_exit_code_nonzero(self):
        assert lint_module(BAD_FIXTURE).exit_code() == 1

    def test_diagnostics_carry_locations(self):
        report = lint_module(BAD_FIXTURE)
        for d in report.errors:
            assert d.file == BAD_FIXTURE
            assert d.line > 0
            assert d.region in ("unfit", "bad_meta")


class TestPurityRules:
    def test_nondeterministic_call(self):
        diags = lint_region_source(
            "    out = data + np.random.standard_normal(3)\n    return out\n"
        )
        assert "SF201" in rules_of(diags)

    def test_time_call(self):
        diags = lint_region_source(
            "    out = data * time.time()\n    return out\n"
        )
        assert "SF201" in rules_of(diags)

    def test_io_call(self):
        diags = lint_region_source(
            "    print(data)\n    out = data\n    return out\n"
        )
        assert "SF202" in rules_of(diags)

    def test_open_call(self):
        diags = lint_region_source(
            "    out = open('f').read()\n    return out\n"
        )
        assert "SF202" in rules_of(diags)

    def test_global_statement(self):
        diags = lint_region_source(
            "    global state\n    state = 1\n    out = data\n    return out\n"
        )
        assert "SF203" in rules_of(diags)

    def test_global_element_write(self):
        diags = lint_region_source(
            "    CACHE[0] = data\n    out = data\n    return out\n"
        )
        assert "SF203" in rules_of(diags)

    def test_input_mutation(self):
        diags = lint_region_source(
            "    scratch[0] = 1.0\n    out = data\n    return out\n"
        )
        assert "SF204" in rules_of(diags)

    def test_input_mutation_augassign(self):
        diags = lint_region_source(
            "    scratch[0] += 1.0\n    out = data\n    return out\n"
        )
        assert "SF204" in rules_of(diags)

    def test_mutation_of_live_after_param_allowed(self):
        diags = lint_region_source(
            "    scratch[0] = 1.0\n    out = data\n    return out\n",
            live_after=("out", "scratch"),
        )
        assert "SF204" not in rules_of(diags)

    def test_local_element_write_allowed(self):
        diags = lint_region_source(
            "    buf = data.copy()\n    buf[0] = 1.0\n    out = buf\n    return out\n"
        )
        assert rules_of(diags) <= {"SF105"}

    def test_exec_and_eval(self):
        diags = lint_region_source(
            "    out = eval('data')\n    return out\n"
        )
        assert "SF205" in rules_of(diags)

    def test_import_inside_region(self):
        diags = lint_region_source(
            "    import math\n    out = math.sqrt(2.0) * data\n    return out\n"
        )
        assert "SF205" in rules_of(diags)

    def test_yield_flagged(self):
        diags = lint_region_source(
            "    yield data\n"
        )
        assert "SF205" in rules_of(diags)

    def test_closure_capture_warns(self):
        diags = lint_region_source(
            "    acc = []\n"
            "    def push(v):\n"
            "        acc.append(v)\n"
            "    push(data)\n"
            "    out = acc\n"
            "    return out\n"
        )
        by_rule = {d.rule: d for d in diags}
        assert "SF206" in by_rule
        assert by_rule["SF206"].severity == Severity.WARNING

    def test_clean_region_is_clean(self):
        diags = lint_region_source(
            "    out = data * 2.0 + scratch\n    return out\n"
        )
        assert all(d.severity < Severity.WARNING for d in diags)


class TestMetadataRules:
    def test_live_after_never_written(self):
        diags = lint_region_source(
            "    out = data\n    return out\n", live_after=("out", "ghost")
        )
        assert "SF103" in rules_of(diags)

    def test_live_after_param_passthrough_allowed(self):
        diags = lint_region_source(
            "    out = data\n    return out\n", live_after=("out", "scratch")
        )
        assert "SF103" not in rules_of(diags)

    def test_underivable_outputs_warns(self):
        diags = lint_region_source(
            "    out = data\n    return out * 2\n", live_after=()
        )
        assert "SF104" in rules_of(diags)

    def test_return_not_live_is_info(self):
        diags = lint_region_source(
            "    out = data\n    other = data * 2\n    return out, other\n"
        )
        by_rule = {d.rule: d for d in diags}
        assert "SF105" in by_rule
        assert by_rule["SF105"].severity == Severity.INFO

    def test_live_after_vs_continuation_mismatch(self):
        diags = lint_region_source(
            "    out = data\n    aux = data * 2\n    return out\n",
            extra_deco=", continuation_source='print(aux)'",
        )
        assert "SF106" in rules_of(diags)

    def test_live_after_matching_continuation_clean(self):
        diags = lint_region_source(
            "    out = data\n    return out\n",
            extra_deco=", continuation_source='print(out)'",
        )
        assert "SF106" not in rules_of(diags)


class TestCatalogue:
    def test_every_diagnostic_rule_is_documented(self):
        report = lint_module(BAD_FIXTURE)
        for d in report.diagnostics:
            assert d.rule in RULES
            assert d.severity == RULES[d.rule][0]
