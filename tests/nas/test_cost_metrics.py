"""Energy-vs-time cost metric tests (§5.1's alternative f_c)."""

import numpy as np
import pytest

from repro.nas import evaluate_topology
from repro.nn import Topology
from repro.perf import TESLA_V100_NN, XEON_E5_2698V4, DeviceModel


def toy(rng, n=60):
    x = rng.standard_normal((n, 6))
    return x, x @ rng.standard_normal((6, 2))


class TestKernelEnergy:
    def test_energy_is_power_times_time(self):
        t = TESLA_V100_NN.kernel_time(1e9, 1e6)
        assert TESLA_V100_NN.kernel_energy(1e9, 1e6) == pytest.approx(t * 300.0)

    def test_two_socket_cpu_power(self):
        assert XEON_E5_2698V4.tdp_watts == 270.0

    def test_custom_tdp(self):
        dev = DeviceModel("x", 1e9, 1e9, 0.0, tdp_watts=42.0)
        assert dev.kernel_energy(1e9, 0.0) == pytest.approx(42.0)


class TestCostMetricInNAS:
    def test_energy_fc_scales_with_power(self, rng):
        x, y = toy(rng)
        topo = Topology(hidden=(8,), activation="relu")
        common = dict(rng=np.random.default_rng(0))
        time_cand = evaluate_topology(topo, x, y, cost_metric="time", **common)
        energy_cand = evaluate_topology(topo, x, y, cost_metric="energy", **common)
        assert energy_cand.f_c == pytest.approx(
            time_cand.f_c * TESLA_V100_NN.tdp_watts, rel=1e-9
        )

    def test_unknown_metric_rejected(self, rng):
        x, y = toy(rng)
        with pytest.raises(ValueError):
            evaluate_topology(
                Topology(hidden=(8,), activation="relu"), x, y, cost_metric="carbon"
            )

    def test_config_threads_metric_through(self):
        from repro.core import AutoHPCnetConfig

        cfg = AutoHPCnetConfig(cost_metric="energy")
        assert cfg.to_search_config().cost_metric == "energy"
