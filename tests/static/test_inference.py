"""Static region-dataflow inference tests."""

import ast

import pytest

from repro.extract.directives import returned_names
from repro.static import RegionMeta, infer_function, infer_region_fn
from repro.static.inference import function_params


def infer(source: str, **meta_kwargs):
    func = ast.parse(source).body[0]
    return infer_function(func, RegionMeta(name="r", **meta_kwargs))


class TestInputs:
    def test_params_read_before_write_are_inputs(self):
        report = infer(
            "def f(a, b, c):\n"
            "    x = a + b\n"
            "    c = x * 2\n"      # c written before any read
            "    return x\n",
            live_after=("x",),
        )
        assert report.inputs == ("a", "b")

    def test_param_read_after_rebinding_not_input(self):
        report = infer(
            "def f(a):\n    a = 1.0\n    y = a + 2\n    return y\n",
            live_after=("y",),
        )
        assert report.inputs == ()

    def test_read_and_write_same_statement_is_input(self):
        report = infer(
            "def f(x0):\n    x0 = x0 + 1\n    return x0\n",
            live_after=("x0",),
        )
        assert report.inputs == ("x0",)

    def test_branch_writes_do_not_kill(self):
        # only one branch writes `a`, so a later read may still see the
        # caller's value
        report = infer(
            "def f(a, flag):\n"
            "    if flag:\n"
            "        a = 0.0\n"
            "    y = a + 1\n"
            "    return y\n",
            live_after=("y",),
        )
        assert "a" in report.inputs

    def test_both_branches_write_kills(self):
        report = infer(
            "def f(a, flag):\n"
            "    if flag:\n"
            "        a = 0.0\n"
            "    else:\n"
            "        a = 1.0\n"
            "    y = a + 1\n"
            "    return y\n",
            live_after=("y",),
        )
        assert "a" not in report.inputs
        assert "flag" in report.inputs

    def test_loop_body_reads_are_inputs(self):
        report = infer(
            "def f(values, n):\n"
            "    total = 0.0\n"
            "    for i in range(n):\n"
            "        total = total + values[i]\n"
            "    return total\n",
            live_after=("total",),
        )
        assert report.inputs == ("n", "values")

    def test_loop_target_is_not_an_input(self):
        report = infer(
            "def f(i, n):\n"
            "    acc = 0.0\n"
            "    for i in range(n):\n"
            "        acc = acc + i\n"
            "    return acc\n",
            live_after=("acc",),
        )
        assert "i" not in report.inputs

    def test_while_loop_writes_are_may_writes(self):
        # the while body may run zero times, so the read after it can see
        # the parameter
        report = infer(
            "def f(x, n):\n"
            "    while n > 0:\n"
            "        x = x * 0.5\n"
            "        n = n - 1\n"
            "    y = x + 1\n"
            "    return y\n",
            live_after=("y",),
        )
        assert {"n", "x"} <= set(report.inputs)

    def test_comprehension_target_not_free(self):
        report = infer(
            "def f(xs):\n    y = [v * 2 for v in xs]\n    return y\n",
            live_after=("y",),
        )
        assert report.inputs == ("xs",)
        assert "v" not in report.free_reads

    def test_free_reads_exclude_builtins(self):
        report = infer(
            "def f(a):\n    y = np.abs(float(a)) + _HELPER\n    return y\n",
            live_after=("y",),
        )
        assert set(report.free_reads) == {"np", "_HELPER"}


class TestOutputs:
    def test_outputs_are_writes_intersect_live(self):
        report = infer(
            "def f(a):\n    x = a + 1\n    tmp = x * 2\n    return x\n",
            live_after=("x",),
        )
        assert report.outputs == ("x",)
        assert set(report.writes) >= {"x", "tmp"}

    def test_live_from_continuation_source(self):
        report = infer(
            "def f(a):\n    x = a + 1\n    tmp = x * 2\n    return x\n",
            live_after=(),
            continuation_source="print(x)\nprint(tmp)",
        )
        assert set(report.outputs) == {"tmp", "x"}

    def test_live_from_returned_names(self):
        report = infer(
            "def f(a):\n    u = a + 1\n    s = a * 2\n    return u, s\n",
            live_after=(),
        )
        assert report.live == ("u", "s")
        assert set(report.outputs) == {"s", "u"}

    def test_live_from_returned_dict_keys(self):
        report = infer(
            "def f(a):\n"
            "    u = a + 1\n"
            "    s = a * 2\n"
            "    return {'u': u, 's': s}\n",
            live_after=(),
        )
        assert report.returns == ("u", "s")
        assert set(report.outputs) == {"s", "u"}

    def test_live_unknown_when_underivable(self):
        report = infer(
            "def f(a):\n    u = a + 1\n    return u * 2\n",
            live_after=(),
        )
        assert report.live is None
        assert report.outputs == ()

    def test_conditional_write_still_counts_as_write(self):
        report = infer(
            "def f(a, flag):\n"
            "    out = a\n"
            "    if flag:\n"
            "        extra = a + 1\n"
            "    return out\n",
            live_after=("out", "extra"),
        )
        assert set(report.outputs) == {"extra", "out"}


class TestHelpers:
    def test_function_params_varieties(self):
        func = ast.parse(
            "def f(a, b=1, *args, c, **kw):\n    pass\n"
        ).body[0]
        assert function_params(func) == ("a", "b", "c", "args", "kw")

    def test_returned_names_tuple(self):
        func = ast.parse("def f():\n    return x, y\n").body[0]
        assert returned_names(func) == ("x", "y")

    def test_returned_names_expression_is_empty(self):
        func = ast.parse("def f():\n    return x + 1\n").body[0]
        assert returned_names(func) == ()


class TestRuntimeInference:
    def test_matches_real_region(self):
        from repro.apps.cg import cg_solver

        report = infer_region_fn(cg_solver)
        assert report.region_name == "cg_solver"
        assert report.inputs == ("A", "b", "max_iters", "tol", "x0")
        assert report.outputs == ("x",)
        assert report.returns == ("x", "iters")
