"""Pipeline preflight hook tests."""

import numpy as np
import pytest

from repro.apps.base import Application, RegionCost
from repro.core import AutoHPCnet, AutoHPCnetConfig
from repro.static import (
    PreflightError,
    PreflightWarning,
    preflight_region,
)

from . import fixture_regions


class _ImpureApp(Application):
    """Minimal app wrapping the impure fixture region."""

    name = "ImpureFixture"
    app_type = "I"
    replaced_function = "impure_live"
    qoi_name = "mean"

    @property
    def region_fn(self):
        return fixture_regions.impure_live

    def example_problem(self, rng):
        return {"x": rng.standard_normal(4)}

    def qoi_from_outputs(self, problem, outputs):
        return float(np.mean(outputs["out"]))

    def region_cost(self, problem, outputs):
        return RegionCost(flops=1.0, bytes_moved=1.0)

    def other_cost(self, problem):
        return RegionCost(flops=1.0, bytes_moved=1.0)


class TestPreflightRegion:
    def test_clean_region_passes(self):
        diags = preflight_region(fixture_regions.clean_saxpy, mode="error")
        assert all(d.severity.label == "info" for d in diags)

    def test_error_mode_raises(self):
        with pytest.raises(PreflightError) as excinfo:
            preflight_region(fixture_regions.impure_live, mode="error")
        message = str(excinfo.value)
        assert "SF201" in message and "SF202" in message
        assert excinfo.value.region == "impure_live"
        assert excinfo.value.diagnostics

    def test_warn_mode_warns_instead(self):
        with pytest.warns(PreflightWarning, match="SF20"):
            diags = preflight_region(fixture_regions.impure_live, mode="warn")
        assert any(d.severity.label == "error" for d in diags)

    def test_off_mode_skips(self):
        assert preflight_region(fixture_regions.impure_live, mode="off") == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="preflight mode"):
            preflight_region(fixture_regions.clean_saxpy, mode="loud")


class TestPipelineIntegration:
    def test_build_refuses_unfit_region(self):
        framework = AutoHPCnet(AutoHPCnetConfig(n_samples=10))
        with pytest.raises(PreflightError, match="impure_live"):
            framework.build(_ImpureApp())

    def test_config_validates_preflight(self):
        with pytest.raises(ValueError, match="preflight"):
            AutoHPCnetConfig(preflight="loud")

    def test_config_default_is_error(self):
        assert AutoHPCnetConfig().preflight == "error"
