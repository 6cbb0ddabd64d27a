"""One telemetry switch: the instruments check it, and outside ``repro.obs``
only four named lines read it."""

import ast
from pathlib import Path

import pytest

from repro import obs

SRC = Path(obs.__file__).resolve().parents[1]

#: (instrument kind, method, arguments, reading of what it recorded)
RECORDS = [
    ("counter", "inc", (2.0,), lambda m: m.value(k="a")),
    ("gauge", "set", (3.0,), lambda m: m.value(k="a")),
    ("gauge", "inc", (2.0,), lambda m: m.value(k="a")),
    ("gauge", "dec", (2.0,), lambda m: m.value(k="a")),
    ("histogram", "observe", (0.5,), lambda m: m.count(k="a")),
]


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


@pytest.mark.parametrize(
    "kind, method, args, read", RECORDS, ids=[f"{k}.{m}" for k, m, _, _ in RECORDS]
)
def test_instruments_record_nothing_while_disabled(kind, method, args, read):
    metric = getattr(obs.get_registry(), kind)(f"switch_{kind}_{method}", labels=("k",))
    record = getattr(metric, method)
    with obs.disabled():
        record(*args, k="a")
        assert read(metric) == 0
    record(*args, k="a")
    assert read(metric) != 0


def _reads_switch(node: ast.AST) -> bool:
    """``is_enabled()``, a telemetry state's ``.enabled``, or ``TELEMETRY``."""
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "attr", getattr(func, "id", None)) == "is_enabled"
    if isinstance(node, ast.Attribute):
        return node.attr == "TELEMETRY" or (
            node.attr == "enabled" and "telemetry" in ast.unparse(node.value).lower()
        )
    if isinstance(node, ast.Name):
        return node.id == "TELEMETRY"
    if isinstance(node, ast.alias):
        return node.name == "TELEMETRY"
    return False


def test_no_component_outside_obs_reads_the_switch():
    hits = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        found = [
            lines[lineno - 1].strip()
            for lineno in sorted({
                node.lineno
                for node in ast.walk(ast.parse(source))
                if _reads_switch(node)
            })
        ]
        if found:
            hits[rel] = found
    assert hits == {
        # the forward of the switch into a worker process's config
        "runtime/procpool.py": ['"telemetry": obs.is_enabled(),'],
        # the per-request paths the disabled-overhead bound covers
        "runtime/core.py": ["if not obs.TELEMETRY.enabled:"],
        "runtime/guard.py": ["if obs.TELEMETRY.enabled:"],
        "runtime/orchestrator.py": ["if obs.TELEMETRY.enabled:"],
    }
