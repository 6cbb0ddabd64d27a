"""Feature-schema and sample-generation tests."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.extract import (
    FeatureSchema,
    Perturbation,
    SampleGenerator,
    acquire,
    build_schema,
    function_ast,
    perturb_value,
    returned_names,
)
from repro.sparse import from_dense

from . import regions


class TestSchema:
    def test_build_and_flatten(self, rng):
        example = {"a": rng.random((2, 3)), "b": rng.random(4), "c": 1.5}
        schema = build_schema(["a", "b", "c"], example)
        assert schema.total_size == 6 + 4 + 1
        vec = schema.flatten(example)
        assert vec[:6].reshape(2, 3) == pytest.approx(example["a"])
        assert vec[-1] == 1.5

    def test_unflatten_round_trip(self, rng):
        example = {"a": rng.random((2, 3)), "b": rng.random(4)}
        schema = build_schema(["a", "b"], example)
        back = schema.unflatten(schema.flatten(example))
        assert np.allclose(back["a"], example["a"])
        assert np.allclose(back["b"], example["b"])

    def test_sparse_field_round_trip(self, rng):
        dense = rng.random((3, 4)) * (rng.random((3, 4)) < 0.5)
        example = {"m": from_dense(dense, "csr")}
        schema = build_schema(["m"], example)
        assert schema.has_sparse
        back = schema.unflatten(schema.flatten(example))
        assert np.allclose(back["m"].to_dense(), dense)

    def test_shape_mismatch_rejected(self, rng):
        schema = build_schema(["a"], {"a": rng.random((2, 2))})
        with pytest.raises(ValueError):
            schema.flatten({"a": rng.random((3, 3))})

    def test_wrong_vector_length_rejected(self, rng):
        schema = build_schema(["a"], {"a": rng.random(4)})
        with pytest.raises(ValueError):
            schema.unflatten(np.zeros(5))

    def test_missing_example_rejected(self):
        with pytest.raises(KeyError):
            build_schema(["missing"], {})

    def test_field_lookup(self, rng):
        schema = build_schema(["a", "b"], {"a": rng.random(3), "b": rng.random(2)})
        assert schema.field("b").offset == 3
        with pytest.raises(KeyError):
            schema.field("zzz")

    def test_density(self, rng):
        schema = build_schema(["a"], {"a": np.array([1.0, 0.0, 0.0, 2.0])})
        assert schema.density({"a": np.array([1.0, 0.0, 0.0, 2.0])}) == 0.5


class TestPerturbation:
    def test_gaussian_changes_values(self, rng):
        x = rng.random(10) + 1.0
        out = perturb_value(x, Perturbation("gaussian", 0.1), rng)
        assert not np.allclose(out, x)
        assert np.all(np.abs(out - x) < 2.0)

    def test_uniform_multiplicative(self, rng):
        x = np.full(10, 4.0)
        out = perturb_value(x, Perturbation("uniform", 0.2), rng)
        assert np.all(out >= 4.0 * 0.8 - 1e-12)
        assert np.all(out <= 4.0 * 1.2 + 1e-12)

    def test_sparse_structure_preserved(self, rng):
        dense = rng.random((4, 4)) * (rng.random((4, 4)) < 0.4)
        csr = from_dense(dense, "csr")
        out = perturb_value(csr, Perturbation("gaussian", 0.05), rng)
        assert np.array_equal(out.indices, csr.indices)
        assert np.array_equal(out.indptr, csr.indptr)
        assert not np.allclose(out.data, csr.data)

    def test_int_stays_int(self, rng):
        out = perturb_value(50, Perturbation("gaussian", 0.05), rng)
        assert isinstance(out, int) and out >= 0

    def test_bool_rejected(self, rng):
        with pytest.raises(TypeError):
            perturb_value(True, Perturbation(), rng)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Perturbation(kind="levy")

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            Perturbation(scale=-0.1)


class TestReturnedNames:
    def test_single_name(self):
        assert returned_names(function_ast(regions.saxpy)) == ("y",)

    def test_tuple_names(self):
        assert returned_names(function_ast(regions.two_outputs)) == ("u", "s")

    def test_undecorated_expression_return(self):
        assert returned_names(function_ast(regions.undecorated)) == ()


class TestSampleGenerator:
    def test_generates_requested_count(self, rng):
        a, b = rng.random(4), rng.random(4)
        in_schema = build_schema(["a", "b"], {"a": a, "b": b})
        out_schema = build_schema(["u", "s"], {"u": a + b, "s": 1.0})
        gen = SampleGenerator(regions.two_outputs, in_schema, out_schema)
        x, y = gen.generate({"a": a, "b": b}, 12, rng=rng)
        assert x.shape == (12, 8)
        assert y.shape == (12, 5)

    def test_outputs_are_ground_truth(self, rng):
        a, b = rng.random(3), rng.random(3)
        in_schema = build_schema(["a", "b"], {"a": a, "b": b})
        out_schema = build_schema(["u"], {"u": a + b})
        gen = SampleGenerator(regions.two_outputs, in_schema, out_schema,
                              output_names=("u", "s"))
        x, y = gen.generate({"a": a, "b": b}, 5, rng=rng)
        for i in range(5):
            vars_in = in_schema.unflatten(x[i])
            assert np.allclose(y[i], vars_in["a"] + vars_in["b"])

    def test_zero_samples_rejected(self, rng):
        a = rng.random(3)
        schema = build_schema(["a"], {"a": a})
        gen = SampleGenerator(regions.saxpy, schema, schema, output_names=("y",))
        with pytest.raises(ValueError):
            gen.generate({"a": a}, 0)


class TestAcquire:
    def test_end_to_end_pcg(self, rng):
        n = 6
        m = rng.random((n, n))
        A = m @ m.T + n * np.eye(n)
        result = acquire(
            regions.pcg_like,
            dict(A=A, b=rng.random(n), x0=np.zeros(n), iters=30, tol=1e-16),
            n_samples=15,
            rng=rng,
        )
        assert result.x.shape[0] == 15
        assert result.output_dim == n
        assert "A" in result.io.inputs
        assert result.io.outputs == ("x",)
        assert "compression" in result.summary()

    def test_scalar_knobs_not_perturbed_by_default(self, rng):
        n = 5
        m = rng.random((n, n))
        A = m @ m.T + n * np.eye(n)
        result = acquire(
            regions.pcg_like,
            dict(A=A, b=rng.random(n), x0=np.zeros(n), iters=20, tol=1e-14),
            n_samples=8,
            rng=rng,
        )
        tol_field = result.input_schema.field("tol")
        tol_column = result.x[:, tol_field.offset]
        assert np.all(tol_column == tol_column[0])  # never perturbed

    def test_region_runs_once_per_sample_plus_the_trace(self, rng):
        """The output schema comes from the traced run, not a second call."""
        runs = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "saxpy":
                runs.append(frame.f_code.co_filename)

        sys.setprofile(count)
        try:
            result = acquire(
                regions.saxpy,
                dict(a=2.0, x=rng.random(4), y0=rng.random(4)),
                n_samples=5,
                rng=rng,
            )
        finally:
            sys.setprofile(None)
        assert result.x.shape[0] == 5
        # the instrumented copy compiles from other source than the region
        traced = [f for f in runs if f != regions.__file__]
        assert len(traced) == 1
        assert len(runs) == 1 + 5
