"""Sparse inputs stay sparse through a deployed AMG surrogate.

The build gathers A's live CSR positions, so serving never densifies
the matrix, and an input with a stored entry outside those positions
goes to the exact region (counted as a ``schema`` fallback) instead of
reaching first-layer weights no sample ever trained.
"""

import dataclasses

import numpy as np
import pytest

from repro import AutoHPCnet, AutoHPCnetConfig, evaluate_surrogate, obs
from repro.apps import AMGApplication
from repro.extract import SchemaMismatchError
from repro.runtime import GuardedSurrogate, residual_validator
from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix

SMALL = AutoHPCnetConfig(
    n_samples=60, outer_iterations=1, inner_trials=1, num_epochs=20,
    quality_problems=3, quality_loss=1.0, seed=0,
)


@pytest.fixture(scope="module")
def amg_build():
    return AutoHPCnet(SMALL).build(AMGApplication())


@pytest.fixture
def telemetry():
    obs.configure(enabled=True, reset=True)
    yield obs.get_registry()
    obs.configure(enabled=True, reset=True)


def with_extra_entry(matrix: CSRMatrix) -> CSRMatrix:
    """``matrix`` plus one stored entry at (0, n-1), outside its pattern."""
    dense = matrix.to_dense()
    assert dense[0, -1] == 0.0
    indptr = matrix.indptr.copy()
    indptr[1:] += 1
    row0 = slice(matrix.indptr[0], matrix.indptr[1])
    indices = np.concatenate(
        [matrix.indices[row0], [matrix.shape[1] - 1], matrix.indices[row0.stop:]]
    )
    data = np.concatenate(
        [matrix.data[row0], [-0.5], matrix.data[row0.stop:]]
    )
    return CSRMatrix(indptr, indices, data, matrix.shape)


class RecordingDetector:
    def __init__(self):
        self.seen = []

    def observe(self, x, *, fallback):
        self.seen.append((x, fallback))


def test_build_is_gathered(amg_build):
    schema = amg_build.surrogate.input_schema
    assert schema.field("A").size == 156
    assert amg_build.surrogate.package.input_dim == 266
    ae = amg_build.surrogate.package.autoencoder
    assert ae is None or ae.input_dim == 266


def test_serving_never_densifies(amg_build, monkeypatch):
    def refuse(self):
        raise AssertionError("to_dense called while serving")

    for cls in (CSRMatrix, CSCMatrix, COOMatrix):
        monkeypatch.setattr(cls, "to_dense", refuse)
    app = amg_build.surrogate.app
    problem = app.generate_problems(1, np.random.default_rng(7))[0]
    outputs = amg_build.surrogate.run(problem)
    assert outputs["x"].shape == (app.n,)
    guarded = GuardedSurrogate(
        amg_build.surrogate, residual_validator(rtol=1e9),
        drift_detector=RecordingDetector(),
    )
    assert np.array_equal(guarded.run(problem)["x"], outputs["x"])
    assert guarded.stats.fallbacks == 0


def test_extra_entry_runs_exact_region(amg_build, telemetry):
    app = amg_build.surrogate.app
    problem = app.generate_problems(1, np.random.default_rng(8))[0]
    problem["A"] = with_extra_entry(problem["A"])
    with pytest.raises(SchemaMismatchError):
        amg_build.surrogate.run(problem)

    detector = RecordingDetector()
    captured = []
    guarded = GuardedSurrogate(
        amg_build.surrogate, residual_validator(rtol=1e9),
        drift_detector=detector, capture=lambda *args: captured.append(args),
    )
    outputs = guarded.run(problem)
    exact = app.run_exact(problem).outputs
    assert set(outputs) == set(exact)
    for name in exact:
        assert np.asarray(outputs[name]).tobytes() == np.asarray(exact[name]).tobytes()
    fallbacks = telemetry.get("repro_guard_fallbacks_total")
    assert fallbacks.value(app="AMG", reason="schema") == 1
    assert fallbacks.value(app="AMG", reason="invalid") == 0
    assert guarded.stats.fallbacks == 1
    assert detector.seen == [(None, True)]
    assert captured == []          # no model-space row to learn from


def test_validation_miss_is_labelled_invalid(amg_build, telemetry):
    app = amg_build.surrogate.app
    problem = app.generate_problems(1, np.random.default_rng(9))[0]
    guarded = GuardedSurrogate(amg_build.surrogate, lambda p, o: False)
    guarded.run(problem)
    fallbacks = telemetry.get("repro_guard_fallbacks_total")
    assert fallbacks.value(app="AMG", reason="invalid") == 1
    assert fallbacks.value(app="AMG", reason="schema") == 0


class ShiftedPatternAMG(AMGApplication):
    """AMG whose first evaluation problem carries one extra stored entry."""

    def generate_problems(self, n, rng):
        problems = super().generate_problems(n, rng)
        problems[0]["A"] = with_extra_entry(problems[0]["A"])
        return problems


def test_evaluation_counts_schema_mismatch_as_miss(amg_build):
    surrogate = dataclasses.replace(amg_build.surrogate, app=ShiftedPatternAMG())
    rng = np.random.default_rng(3)
    row = evaluate_surrogate(surrogate, n_problems=4, rng=rng, mu=1e9)
    # mu=1e9 accepts every encodable problem: only the mismatch misses
    assert row.hit_rate == 0.75
