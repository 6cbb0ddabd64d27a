"""Linter front-end, report rendering, and the ``repro lint`` CLI."""

import json
import os

import pytest

from repro.cli import main
from repro.static import Severity, lint_module, lint_source

FIXTURE_DIR = os.path.dirname(__file__)
BAD_FIXTURE = os.path.join(FIXTURE_DIR, "fixture_bad_regions.py")
REPO_ROOT = os.path.dirname(os.path.dirname(FIXTURE_DIR))
QUICKSTART = os.path.join(REPO_ROOT, "examples", "quickstart.py")


class TestDiscovery:
    def test_discovers_decorated_functions(self):
        report = lint_source(
            "from repro.extract import code_region\n"
            "@code_region(name='one', live_after=('a',))\n"
            "def f1(x):\n    a = x\n    return a\n"
            "def plain(x):\n    return x\n"
        )
        assert report.regions == ("one",)

    def test_duplicate_region_names_flagged(self):
        report = lint_source(
            "from repro.extract import code_region\n"
            "@code_region(name='dup', live_after=('a',))\n"
            "def f1(x):\n    a = x\n    return a\n"
            "@code_region(name='dup', live_after=('b',))\n"
            "def f2(x):\n    b = x\n    return b\n"
        )
        assert "SF107" in {d.rule for d in report.errors}

    def test_no_regions_is_info_only(self):
        report = lint_source("x = 1\n")
        assert report.regions == ()
        assert {d.rule for d in report.diagnostics} == {"SF001"}
        assert report.exit_code() == 0

    def test_syntax_error_is_error(self):
        report = lint_source("def broken(:\n")
        assert report.exit_code() == 1

    def test_positional_name_argument(self):
        report = lint_source(
            "from repro.extract import code_region\n"
            "@code_region('pos_name', live_after=('a',))\n"
            "def f1(x):\n    a = x\n    return a\n"
        )
        assert report.regions == ("pos_name",)


class TestReportRendering:
    def test_text_format_has_location_lines(self):
        text = lint_module(BAD_FIXTURE).format_text()
        assert "fixture_bad_regions.py" in text
        assert "error SF201" in text
        assert "error(s)" in text

    def test_json_roundtrip(self):
        payload = json.loads(lint_module(BAD_FIXTURE).format_json())
        assert payload["summary"]["error"] >= 4
        assert {"rule", "severity", "message", "file", "line", "col", "region"} <= set(
            payload["diagnostics"][0]
        )

    def test_exit_code_thresholds(self):
        report = lint_source(
            "from repro.extract import code_region\n"
            "@code_region(name='w', live_after=())\n"
            "def f1(x):\n    a = x\n    return a * 2\n"   # SF104 warning only
        )
        assert report.exit_code(Severity.ERROR) == 0
        assert report.exit_code(Severity.WARNING) == 1


class TestLintModuleResolution:
    def test_path_target(self):
        assert lint_module(BAD_FIXTURE).exit_code() == 1

    def test_dotted_module_target(self):
        report = lint_module("repro.apps.cg")
        assert report.regions == ("cg_solver",)
        assert report.exit_code() == 0

    def test_unresolvable_target(self):
        report = lint_module("no.such.module")
        assert {d.rule for d in report.errors} == {"SF002"}
        assert report.exit_code() == 1


_PACKAGE_FILES = {
    "regions.py": (
        "from repro.extract import code_region\n"
        "\n"
        "@code_region(name='noisy', live_after=('y',))\n"
        "def noisy(x):\n"
        "    y = x + 1\n"
        "    print(y)\n"
        "    return y\n"
    ),
    "left.py": (
        "import threading\n"
        "\n"
        "class Left:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0  # cc: guarded-by(_lock)\n"
        "        self.right = Right()\n"
        "    def drive(self):\n"
        "        with self._lock:\n"
        "            self.right.poke()\n"
        "    def poke(self):\n"
        "        with self._lock:\n"
        "            pass\n"
        "    def waived(self):\n"
        "        self.n = 1  # cc: ignore(CC101)\n"
    ),
    "right.py": (
        "import threading\n"
        "\n"
        "class Right:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.left = Left()\n"
        "    def drive(self):\n"
        "        with self._lock:\n"
        "            self.left.poke()\n"
        "    def poke(self):\n"
        "        with self._lock:\n"
        "            pass\n"
    ),
}


class TestDirectoryTarget:
    """A directory is linted as one package: SF per file, CC across files."""

    @pytest.fixture
    def package(self, tmp_path):
        for name, source in _PACKAGE_FILES.items():
            (tmp_path / name).write_text(source)
        return str(tmp_path)

    def test_one_report_for_the_package(self, package):
        report = lint_module(package)
        rules = {d.rule for d in report.diagnostics}
        assert report.regions == ("noisy",)
        sf202 = [d for d in report.diagnostics if d.rule == "SF202"]
        assert [(os.path.basename(d.file), d.line) for d in sf202] == [
            ("regions.py", 6)
        ]
        cycles = [d for d in report.diagnostics if d.rule == "CC201"]
        assert cycles and "Left._lock" in cycles[0].message
        assert "Right._lock" in cycles[0].message
        # the ignored write is the only unguarded access in the package
        assert "CC101" not in rules
        assert "SF001" not in rules

    def test_package_without_regions_reports_sf001_once(self, package):
        os.remove(os.path.join(package, "regions.py"))
        report = lint_module(package)
        sf001 = [d for d in report.diagnostics if d.rule == "SF001"]
        assert [d.file for d in sf001] == [package]
        assert report.regions == ()

    def test_cycle_needs_both_files(self, package):
        for name in ("left.py", "right.py"):
            alone = lint_module(os.path.join(package, name))
            assert "CC201" not in {d.rule for d in alone.diagnostics}

    def test_ignore_pragma_is_what_hides_the_write(self, package):
        left = os.path.join(package, "left.py")
        with open(left) as handle:
            source = handle.read()
        with open(left, "w") as handle:
            handle.write(source.replace("  # cc: ignore(CC101)", ""))
        report = lint_module(package)
        assert [
            (os.path.basename(d.file), d.line)
            for d in report.diagnostics if d.rule == "CC101"
        ] == [("left.py", 15)]

    def test_undecodable_and_unparsable_modules_are_sf003(self, package, capsys):
        with open(os.path.join(package, "latin1.py"), "wb") as handle:
            handle.write('name = "é"\n'.encode("latin-1"))
        with open(os.path.join(package, "broken.py"), "w") as handle:
            handle.write("def broken(:\n")
        with open(os.path.join(package, "nul.py"), "w") as handle:
            handle.write("x = 1\0\n")
        assert main(["lint", package]) == 1
        out = capsys.readouterr().out
        assert "Traceback" not in out
        sf003 = [
            os.path.basename(d.file)
            for d in lint_module(package).diagnostics if d.rule == "SF003"
        ]
        assert sf003 == ["broken.py", "latin1.py", "nul.py"]
        assert "SF102" not in out and "latin1.py" in out

    def test_coding_declaration_is_honoured(self, tmp_path):
        path = tmp_path / "declared.py"
        path.write_bytes('# -*- coding: latin-1 -*-\nname = "é"\n'.encode("latin-1"))
        assert "SF003" not in {d.rule for d in lint_module(str(path)).diagnostics}


class TestCLI:
    def test_lint_quickstart_exits_zero(self, capsys):
        assert main(["lint", QUICKSTART]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_quickstart_json(self, capsys):
        assert main(["lint", QUICKSTART, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] == 0

    def test_lint_bad_fixture_exits_nonzero(self, capsys):
        assert main(["lint", BAD_FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "SF201" in out and "SF204" in out

    def test_lint_app_runs_crossval(self, capsys):
        assert main(["lint", "CG"]) == 0
        out = capsys.readouterr().out
        assert "cross-validation 'cg_solver': agree" in out

    def test_lint_app_no_crossval(self, capsys):
        assert main(["lint", "CG", "--no-crossval"]) == 0
        assert "cross-validation" not in capsys.readouterr().out

    def test_lint_app_json_is_pure_json(self, capsys):
        assert main(["lint", "Blackscholes", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regions"] == ["blackscholes"]

    def test_fail_on_warning(self):
        # the bad fixture has warnings too; threshold must tighten the gate
        assert main(["lint", BAD_FIXTURE, "--fail-on", "warning"]) == 1

    def test_unknown_target_exits_nonzero(self):
        assert main(["lint", "definitely.not.a.module"]) == 1
