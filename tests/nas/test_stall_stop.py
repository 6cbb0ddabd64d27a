"""Algorithm 2's early-termination-on-stall tests."""

import numpy as np
import pytest

from repro.nas import Hierarchical2DSearch, InputDimSpace, SearchConfig, TopologySpace


SPACE = TopologySpace(max_layers=1, width_choices=(4, 8),
                      activations=("relu",), allow_residual=False)


def toy(rng, n=60):
    x = rng.standard_normal((n, 12))
    return x, x @ rng.standard_normal((12, 2))


class TestStallTermination:
    def test_stops_early_when_not_improving(self, rng):
        x, y = toy(rng)
        cfg = SearchConfig(
            outer_iterations=6, inner_trials=1, quality_loss=2.0,
            encoding_loss=1.0, num_epochs=10, ae_epochs=5,
            stall_iterations=1, seed=0,
        )
        space = InputDimSpace(choices=(3, 6, 12))
        result = Hierarchical2DSearch(SPACE, space, cfg).run(x, y)
        assert result.best is not None
        # with a 1-iteration stall budget the loop cannot run all 6 rounds
        assert len(result.outer_history) < 6

    def test_disabled_by_default(self, rng):
        x, y = toy(rng)
        cfg = SearchConfig(
            outer_iterations=3, inner_trials=1, quality_loss=2.0,
            encoding_loss=1.0, num_epochs=10, ae_epochs=5, seed=0,
        )
        space = InputDimSpace(choices=(3, 6, 12))
        result = Hierarchical2DSearch(SPACE, space, cfg).run(x, y)
        assert len(result.outer_history) == 3

