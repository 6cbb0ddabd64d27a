"""Cross-cutting contract tests for all 11 applications (Table 2)."""

import numpy as np
import pytest

from repro.apps import ALL_APPLICATIONS, Application, RegionCost, make_application
from repro.extract import code_region


@pytest.fixture(scope="module", params=ALL_APPLICATIONS, ids=lambda c: c.name)
def app(request):
    return request.param()


class TestApplicationContract:
    def test_metadata_complete(self, app):
        assert app.name and app.app_type in ("I", "II", "III")
        assert app.replaced_function and app.qoi_name

    def test_example_problem_is_region_kwargs(self, app):
        problem = app.example_problem(np.random.default_rng(0))
        result = app.region_fn(**problem)
        assert result is not None

    def test_run_exact_deterministic(self, app):
        problem = app.example_problem(np.random.default_rng(1))
        q1 = app.run_exact(problem).qoi
        q2 = app.run_exact(problem).qoi
        assert q1 == q2

    def test_qoi_finite_and_varies_across_problems(self, app):
        problems = app.generate_problems(6, np.random.default_rng(2))
        qois = [app.run_exact(p).qoi for p in problems]
        assert all(np.isfinite(q) for q in qois)
        assert np.std(qois) > 0

    def test_costs_positive(self, app):
        problem = app.example_problem(np.random.default_rng(3))
        run = app.run_exact(problem)
        assert run.region_cost.flops > 0
        assert run.region_cost.bytes_moved > 0
        other = app.other_cost(problem)
        assert other.flops > 0

    def test_region_dominates_remainder(self, app):
        # surrogate acceleration only makes sense when the replaced region
        # is the dominant cost (the paper's selection criterion, §2.1)
        problem = app.example_problem(np.random.default_rng(4))
        run = app.run_exact(problem)
        assert run.region_cost.flops >= app.other_cost(problem).flops * 0.99

    def test_scale_factors_sane(self, app):
        assert app.cost_scale >= 1e5
        assert app.data_scale >= 1e3
        assert app.unrolled_blowup >= 1.0

    def test_acquisition_shapes(self, app):
        acq = app.acquire(n_samples=8, rng=np.random.default_rng(5))
        assert acq.x.shape == (8, acq.input_dim)
        assert acq.y.shape == (8, acq.output_dim)
        assert acq.input_dim > 0 and acq.output_dim > 0

    def test_acquired_samples_vary(self, app):
        acq = app.acquire(n_samples=6, rng=np.random.default_rng(6))
        assert np.std(acq.x, axis=0).max() > 0
        assert np.std(acq.y, axis=0).max() > 0

    def test_io_classification_covers_qoi_path(self, app):
        acq = app.acquire(n_samples=5, rng=np.random.default_rng(7))
        problem = app.example_problem(np.random.default_rng(7))
        run = app.run_exact(problem)
        outputs = {
            name: run.outputs[name] for name in acq.output_schema.names
        }
        qoi = app.qoi_from_outputs(problem, outputs)
        assert np.isfinite(qoi)

    def test_schema_flatten_unflatten_round_trip(self, app):
        acq = app.acquire(n_samples=5, rng=np.random.default_rng(8))
        problem = app.example_problem(np.random.default_rng(8))
        vec = acq.input_schema.flatten(problem)
        back = acq.input_schema.unflatten(vec)
        for field in acq.input_schema.fields:
            value = problem[field.name]
            dense = value.to_dense() if hasattr(value, "to_dense") else np.asarray(value)
            recovered = back[field.name]
            recovered = (
                recovered.to_dense() if hasattr(recovered, "to_dense") else np.asarray(recovered)
            )
            assert np.allclose(np.atleast_1d(dense).ravel(),
                               np.atleast_1d(recovered).ravel())


def test_registry_instantiates_all():
    for cls in ALL_APPLICATIONS:
        assert make_application(cls.name).name == cls.name


def test_registry_case_insensitive():
    assert make_application("blackscholes").name == "Blackscholes"


def test_registry_rejects_unknown():
    with pytest.raises(ValueError):
        make_application("doom")


def test_type_counts_match_table2():
    types = [cls.app_type for cls in ALL_APPLICATIONS]
    assert types.count("I") == 3
    assert types.count("II") == 5
    assert types.count("III") == 3


@code_region(name="ragged", live_after=("a", "b"))
def ragged_region(x, early):
    a = x + 1.0
    b = x * 2.0
    c = x - 1.0
    if early:
        return a, b, c
    return a, b


class _RaggedApp(Application):
    """An app whose early return has one value more than its final one."""

    name = "ragged"

    @property
    def region_fn(self):
        return ragged_region

    def example_problem(self, rng):
        return {"x": 1.0, "early": False}

    def qoi_from_outputs(self, problem, outputs):
        return float(outputs["a"])

    def region_cost(self, problem, outputs):
        return RegionCost(3.0, 24.0)

    def other_cost(self, problem):
        return RegionCost(1.0, 8.0)


def test_run_exact_rejects_a_return_of_another_arity():
    app = _RaggedApp()
    assert app.run_exact({"x": 1.0, "early": False}).outputs == {"a": 2.0, "b": 2.0}
    # the final return names two values: a third is an error, not dropped
    with pytest.raises(ValueError, match="returned 3 values but 2 output names"):
        app.run_exact({"x": 1.0, "early": True})
