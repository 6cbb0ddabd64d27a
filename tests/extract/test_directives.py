"""Region-directive (annotation) tests."""

import pytest

from repro.extract import RegionSpec, code_region, get_region_spec, name_outputs


class TestCodeRegion:
    def test_attaches_spec(self):
        @code_region(name="demo", live_after=("out",), description="d")
        def region(x):
            out = x + 1
            return out

        spec = get_region_spec(region)
        assert spec.name == "demo"
        assert spec.live_after == ("out",)
        assert spec.description == "d"
        assert spec.fn is region

    def test_function_still_callable(self):
        @code_region(name="demo2", live_after=("y",))
        def region(x):
            y = x * 2
            return y

        assert region(3) == 6

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            @code_region(name="")
            def region(x):
                return x

    def test_unannotated_function_rejected(self):
        def plain(x):
            return x

        with pytest.raises(ValueError, match="not an annotated code region"):
            get_region_spec(plain)

    def test_continuation_source_stored(self):
        @code_region(name="demo3", continuation_source="print(z)")
        def region(x):
            z = x
            return z

        assert get_region_spec(region).continuation_source == "print(z)"

    def test_spec_is_frozen(self):
        spec = RegionSpec(name="n", fn=lambda: None)
        with pytest.raises(AttributeError):
            spec.name = "other"


class TestContinuationValidation:
    def test_invalid_continuation_rejected_at_decoration(self):
        with pytest.raises(ValueError, match="continuation_source is not valid"):
            @code_region(name="bad", continuation_source="def broken(:")
            def region(x):
                z = x
                return z

    def test_error_names_the_region(self):
        with pytest.raises(ValueError, match="'bad2'"):
            @code_region(name="bad2", continuation_source="x ===== 1")
            def region(x):
                return x

    def test_indented_continuation_accepted(self):
        # continuations captured from inside a function body arrive indented
        @code_region(name="ok", continuation_source="    print(z)\n    z += 1")
        def region(x):
            z = x
            return z

        assert get_region_spec(region).continuation_source is not None

    def test_direct_regionspec_construction_validated(self):
        with pytest.raises(ValueError, match="continuation_source"):
            RegionSpec(name="n", fn=lambda: None, continuation_source="if :")


class TestRegionContract:
    def test_decoration_parses_no_source(self):
        namespace: dict = {}
        # a function compiled from a string has no source file to read
        exec("def region(x):\n    y = x + 1\n    return y\n", namespace)
        spec = get_region_spec(code_region(name="nosource")(namespace["region"]))
        assert spec.name == "nosource"
        with pytest.raises(OSError):
            spec.returns

    def test_facts_resolve_once(self):
        @code_region(name="pair")
        def region(a, b):
            u = a + b
            s = a * b
            return u, s

        spec = get_region_spec(region)
        assert spec.returns == ("u", "s")
        assert spec.returns is spec.returns

    @pytest.mark.parametrize("directive, live", [
        (dict(live_after=("u",), continuation_source="t = s * 2"), {"u"}),
        (dict(continuation_source="t = s * 2"), {"s"}),
        (dict(), {"u", "s"}),
    ])
    def test_live_precedence(self, directive, live):
        def region(a):
            u = a + 1
            s = a * 2
            return u, s

        spec = get_region_spec(code_region(name="live", **directive)(region))
        assert spec.live == frozenset(live)


class TestNameOutputs:
    def test_mapping_passes_through(self):
        assert name_outputs({"u": 1}, ()) == {"u": 1}

    def test_tuple_of_another_arity_rejected(self):
        with pytest.raises(ValueError, match="returned 3 values but 2"):
            name_outputs((1, 2, 3), ("u", "s"))

    def test_unnamed_lone_value_rejected(self):
        with pytest.raises(ValueError, match="could not infer output names"):
            name_outputs(3, ())
