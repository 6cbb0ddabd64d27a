"""Evaluation-harness unit tests (Fig. 5 protocol mechanics) and the one
Eqn 3 scorer that the build's f_e and every reported HitRate share."""

import dataclasses
import math

import numpy as np
import pytest

from repro import AutoHPCnet, AutoHPCnetConfig, evaluate_surrogate
from repro.apps import LaghosApplication
from repro.core.evaluation import ProblemSet, score
from repro.extract import SchemaMismatchError
from repro.nas.package import SurrogatePackage

FAST = AutoHPCnetConfig(
    n_samples=120, outer_iterations=1, inner_trials=2, num_epochs=40,
    quality_problems=4, quality_loss=0.9, qoi_mu=0.5, seed=0,
)


@pytest.fixture(scope="module")
def laghos_build():
    return AutoHPCnet(FAST).build(LaghosApplication())


class TestEvaluateSurrogate:
    def test_deterministic_given_rng(self, laghos_build):
        a = evaluate_surrogate(
            laghos_build.surrogate, n_problems=10, rng=np.random.default_rng(5)
        )
        b = evaluate_surrogate(
            laghos_build.surrogate, n_problems=10, rng=np.random.default_rng(5)
        )
        assert a.speedup == b.speedup
        assert a.hit_rate == b.hit_rate

    def test_stricter_mu_never_raises_hit_rate(self, laghos_build):
        loose = evaluate_surrogate(
            laghos_build.surrogate, n_problems=15, mu=0.5,
            rng=np.random.default_rng(1),
        )
        strict = evaluate_surrogate(
            laghos_build.surrogate, n_problems=15, mu=0.01,
            rng=np.random.default_rng(1),
        )
        assert strict.hit_rate <= loose.hit_rate

    def test_transfer_blowup_lowers_speedup(self, laghos_build):
        base = evaluate_surrogate(
            laghos_build.surrogate, n_problems=8, rng=np.random.default_rng(2)
        )
        inflated = evaluate_surrogate(
            laghos_build.surrogate, n_problems=8, rng=np.random.default_rng(2),
            transfer_blowup=1000.0,
        )
        assert inflated.speedup < base.speedup
        assert inflated.breakdown.t_data_load > base.breakdown.t_data_load

    def test_breakdown_terms_consistent(self, laghos_build):
        row = evaluate_surrogate(
            laghos_build.surrogate, n_problems=5, rng=np.random.default_rng(3)
        )
        b = row.breakdown
        assert row.speedup == pytest.approx(b.value)
        assert b.t_original == pytest.approx(b.t_numerical_solver + b.t_other)

    def test_zero_problems_rejected(self, laghos_build):
        with pytest.raises(ValueError):
            evaluate_surrogate(laghos_build.surrogate, n_problems=0)

    def test_row_format_readable(self, laghos_build):
        row = evaluate_surrogate(
            laghos_build.surrogate, n_problems=5, rng=np.random.default_rng(4)
        )
        text = row.format()
        assert "Laghos" in text and "speedup" in text and "HitRate" in text


class _QoIApp:
    """Stub app whose QoI is the ``q`` output the answer returns."""

    def qoi_from_outputs(self, problem, outputs):
        return outputs["q"]


class _Schema:
    """Flattens ``{"x": v}`` to ``[v]``; a problem marked ``bad`` mismatches."""

    def flatten(self, problem):
        if problem.get("bad"):
            raise SchemaMismatchError("outside the live positions")
        return np.array([problem["x"]])


INF = math.inf
NAN = math.nan

#: (exact QoI, approximate QoI or None for a schema mismatch, hit at mu=0.5)
EQN3_TABLE = [
    (1.0, 1.25, True),
    (2.0, 3.0, True),         # |V' - V| == mu |V| meets mu
    (1.0, 1.75, False),
    (-2.0, -2.5, True),
    (0.0, 0.0, True),         # V = 0 leaves no tolerance: only V' = 0 hits
    (0.0, 1e-300, False),
    (1.0, NAN, False),
    (NAN, 1.0, False),
    (NAN, NAN, False),
    (1.0, INF, False),
    (1.0, -INF, False),
    (INF, 1.0, False),        # mu |inf| bounds nothing
    (INF, INF, False),
    (-INF, -INF, False),
    (1.0, None, False),       # the schema cannot encode the problem
]


def _table_set():
    n = len(EQN3_TABLE)
    problems = tuple(
        {"x": approx, "bad": approx is None} for _, approx, _ in EQN3_TABLE
    )
    return ProblemSet(
        app=_QoIApp(),
        problems=problems,
        outputs=tuple({} for _ in range(n)),
        qois=np.array([exact for exact, _, _ in EQN3_TABLE]),
        region_seconds=(1.0,) * n,
        other_seconds=(1.0,) * n,
    )


class TestOneEqn3:
    def test_table(self):
        asked = []

        def answer(problem, row):
            asked.append(problem)
            return {"q": float(row[0])}

        scored = score(_table_set(), answer, mu=0.5, schema=_Schema())
        expected = [hit for _, _, hit in EQN3_TABLE]
        assert scored.hits.tolist() == expected
        assert scored.hit_rate == pytest.approx(np.mean(expected))
        assert scored.miss_rate == pytest.approx(1.0 - np.mean(expected))
        # the mismatched problem is never asked and reads NaN
        assert len(asked) == len(EQN3_TABLE) - 1
        assert math.isnan(scored.qois[-1])

    def test_rows_flattened_once_per_schema(self):
        problems, schema = _table_set(), _Schema()
        assert problems.rows(schema) is problems.rows(schema)
        assert problems.rows(schema)[-1] is None

    def test_without_schema_the_answer_reads_the_problem(self):
        scored = score(
            _table_set(), lambda problem, row: {"q": problem["x"] or 0.0}, mu=0.5
        )
        assert scored.hits[0] and not scored.hits[2]


def _nan_package(package):
    class NaNPackage(SurrogatePackage):
        def predict(self, x):
            return np.full((np.atleast_2d(x).shape[0], self.output_dim), np.nan)

    return NaNPackage(
        **{f.name: getattr(package, f.name) for f in dataclasses.fields(package)}
    )


class TestQualityIsOneMinusHitRate:
    """The build's f_e is 1 - HitRate of the shipped surrogate on the
    build's validation problems, for any package."""

    def quality_and_hit_rate(self, build, package):
        surrogate = dataclasses.replace(build.surrogate, package=package)
        quality_fn = AutoHPCnet(FAST)._make_quality_fn(
            surrogate.app,
            surrogate.input_schema,
            surrogate.output_schema,
            surrogate.x_scaler,
            surrogate.y_scaler,
        )
        row = evaluate_surrogate(
            surrogate,
            n_problems=FAST.quality_problems,
            mu=FAST.qoi_mu,
            rng=np.random.default_rng(FAST.seed + 999),
        )
        return quality_fn(package), row.hit_rate

    def test_every_trial_package(self, laghos_build):
        packages = [
            c.package
            for inner in laghos_build.search.inner_results.values()
            for c in inner.history
        ]
        assert packages
        for package in packages:
            f_e, hit = self.quality_and_hit_rate(laghos_build, package)
            assert f_e == pytest.approx(1.0 - hit, abs=1e-12)

    def test_nan_prediction_is_a_miss(self, laghos_build):
        package = _nan_package(laghos_build.surrogate.package)
        f_e, hit = self.quality_and_hit_rate(laghos_build, package)
        assert hit == 0.0
        assert f_e == 1.0

    def test_build_f_e_is_its_best_candidate_score(self, laghos_build):
        f_e, hit = self.quality_and_hit_rate(
            laghos_build, laghos_build.surrogate.package
        )
        assert laghos_build.f_e == f_e
