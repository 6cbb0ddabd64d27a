"""Canary deploy-policy: deterministic slicing, outcome windows, promotion.

Extends the versioned-serving contract of ``test_hot_swap.py``: admission
pins a version, so a request admitted to the canary finishes on the
canary even if the experiment ends mid-flight — in thread mode and in
process mode alike.
"""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.runtime import CanaryStatus, Client, Orchestrator

from . import procmodels


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def tagged(value):
    def predict(x):
        return np.asarray(x) * 0.0 + value

    return predict


def two_version_orc(**kwargs):
    orc = Orchestrator(**kwargs)
    orc.register_model("m", tagged(1.0), batchable=True)
    orc.register_model("m", tagged(2.0), batchable=True, deploy=False)
    return orc


def served_versions(orc, n, din=3):
    """Serve ``n`` zero rows synchronously; return the admitted versions."""
    versions = []
    for i in range(n):
        orc.put_tensor("in", np.zeros(din))
        versions.append(orc.run_model("m", ("in",), ("out",)))
        # the result must come from the version the admission chose
        np.testing.assert_array_equal(
            orc.get_tensor("out"), np.full(din, float(versions[-1]))
        )
    return versions


class TestCanaryControls:
    def test_fraction_validated(self):
        orc = two_version_orc()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                orc.canary("m", 2, bad)

    def test_unknown_version_rejected(self):
        orc = two_version_orc()
        with pytest.raises(ValueError):
            orc.canary("m", 9, 0.25)

    def test_active_version_cannot_canary_itself(self):
        orc = two_version_orc()
        with pytest.raises(ValueError):
            orc.canary("m", 1, 0.25)

    def test_status_none_without_canary(self):
        orc = two_version_orc()
        assert orc.canary_status("m") is None

    def test_deploy_and_rollback_clear_the_canary(self):
        orc = two_version_orc()
        orc.canary("m", 2, 0.25)
        assert orc.canary_status("m") is not None
        orc.deploy("m", 2)  # manual deploy wins over the experiment
        assert orc.canary_status("m") is None
        orc.deploy("m", 1)
        orc.canary("m", 2, 0.25)
        orc.rollback("m")
        assert orc.canary_status("m") is None


class TestDeterministicSlice:
    def test_slice_is_deterministic_and_bounded(self):
        orc1 = two_version_orc()
        orc1.canary("m", 2, 0.25)
        seq1 = served_versions(orc1, 200)
        orc2 = two_version_orc()
        orc2.canary("m", 2, 0.25)
        seq2 = served_versions(orc2, 200)
        # same model name + request ordinal => same slice, every run
        assert seq1 == seq2
        share = seq1.count(2) / len(seq1)
        assert seq1.count(2) > 0 and seq1.count(1) > 0
        # a 25% request slice stays a bounded minority of traffic
        assert 0.10 < share <= 0.40

    def test_full_fraction_routes_everything_to_candidate(self):
        orc = two_version_orc()
        orc.canary("m", 2, 1.0)
        assert set(served_versions(orc, 10)) == {2}

    def test_requests_counted_by_role(self):
        orc = two_version_orc()
        orc.canary("m", 2, 0.25)
        served_versions(orc, 40)
        rendered = obs.get_registry().to_prometheus()
        assert 'repro_canary_requests_total{model="m",role="canary"}' in rendered
        assert 'repro_canary_requests_total{model="m",role="incumbent"}' in rendered


class TestOutcomeWindows:
    def test_record_outcome_feeds_status(self):
        orc = two_version_orc()
        orc.canary("m", 2, 0.25)
        for _ in range(8):
            orc.record_outcome("m", 1, True)
        orc.record_outcome("m", 2, True)
        orc.record_outcome("m", 2, False)
        status = orc.canary_status("m")
        assert isinstance(status, CanaryStatus)
        assert status.incumbent == 1 and status.candidate == 2
        assert status.incumbent_count == 8
        assert status.incumbent_hit_rate == 1.0
        assert status.candidate_count == 2
        assert status.candidate_hit_rate == 0.5

    def test_window_is_bounded(self):
        orc = Orchestrator(outcome_window=4)
        orc.register_model("m", tagged(1.0))
        orc.register_model("m", tagged(2.0), deploy=False)
        orc.canary("m", 2, 0.5)
        for _ in range(10):
            orc.record_outcome("m", 2, False)
        for _ in range(4):
            orc.record_outcome("m", 2, True)
        status = orc.canary_status("m")
        # only the newest `outcome_window` outcomes survive
        assert status.candidate_count == 4
        assert status.candidate_hit_rate == 1.0

    def test_promote_activates_candidate(self):
        orc = two_version_orc()
        orc.canary("m", 2, 0.25)
        assert orc.end_canary("m", promote=True) == 2
        assert orc.active_version("m") == 2
        assert orc.canary_status("m") is None
        assert set(served_versions(orc, 5)) == {2}
        rendered = obs.get_registry().to_prometheus()
        assert 'repro_canary_promotions_total{model="m"} 1' in rendered

    def test_abort_keeps_incumbent(self):
        orc = two_version_orc()
        orc.canary("m", 2, 0.25)
        assert orc.end_canary("m", promote=False) == 1
        assert orc.active_version("m") == 1
        assert set(served_versions(orc, 5)) == {1}
        rendered = obs.get_registry().to_prometheus()
        assert 'repro_canary_rollbacks_total{model="m"} 1' in rendered


def gated(model, gate):
    """``model`` behind ``gate``: each forward waits for it first."""

    def predict(x):
        gate.wait(5.0)
        return model(x)

    return predict


class TestCanaryUnderLiveTraffic:
    """Live pool: admitted requests finish on their admitted version.

    The slice crosses the process boundary too: same contract with two
    worker processes.  In thread mode every forward waits on a gate, so
    the decision lands while the whole burst is in flight; a worker
    process cannot see the gate.
    """

    @staticmethod
    def _orc(mode, fraction, gate):
        if mode == "thread":
            orc = Orchestrator(max_batch_size=4)
            models = [gated(procmodels.Tag(v), gate) for v in (1.0, 2.0)]
        else:
            orc = Orchestrator(num_processes=2)
            models = [procmodels.Tag(v) for v in (1.0, 2.0)]
        orc.register_model("m", models[0], batchable=True)
        orc.register_model("m", models[1], batchable=True, deploy=False)
        orc.canary("m", 2, fraction)
        return orc

    @staticmethod
    def _burst(orc, n):
        return [orc.submit("m", [np.zeros(4)], [f"out-{i}"]) for i in range(n)]

    @staticmethod
    def _pinned_versions(handles):
        """The admitted versions, each checked against what served it."""
        versions = []
        for handle in handles:
            (result,) = handle.result(timeout=60)
            version = handle.versions[0]
            assert version in (1, 2)
            np.testing.assert_array_equal(np.ravel(result), [float(version)])
            versions.append(version)
        return versions

    @pytest.mark.parametrize("mode", ("thread", "process"))
    def test_promote_mid_burst(self, mode):
        gate = threading.Event()
        orc = self._orc(mode, 0.25, gate)
        orc.start()
        try:
            in_flight = self._burst(orc, 40)
            orc.end_canary("m", promote=True)  # decision lands mid-burst
            gate.set()
            # in-flight requests keep their admitted version...
            versions = self._pinned_versions(in_flight)
            # zero dropped, both roles served, candidate a bounded minority
            assert len(versions) == 40
            assert set(versions) == {1, 2}
            assert versions.count(2) / len(versions) <= 0.45
            # ...while everything admitted afterwards serves the promoted one
            assert set(self._pinned_versions(self._burst(orc, 8))) == {2}
        finally:
            gate.set()
            orc.stop()

    @pytest.mark.parametrize("mode", ("thread", "process"))
    def test_rollback_mid_burst(self, mode):
        gate = threading.Event()
        orc = self._orc(mode, 0.5, gate)
        orc.start()
        try:
            in_flight = self._burst(orc, 24)
            orc.end_canary("m", promote=False)  # decision lands mid-burst
            gate.set()
            assert set(self._pinned_versions(in_flight)) == {1, 2}
            assert set(self._pinned_versions(self._burst(orc, 8))) == {1}
        finally:
            gate.set()
            orc.stop()


class TestCanaryBulkTraffic:
    """A bulk call admits each of its rows, so the slice splits it."""

    @pytest.mark.parametrize("num_processes", [0, 1], ids=["threads", "processes"])
    def test_every_row_draws_its_own_slot(self, num_processes):
        orc = Orchestrator(num_processes=num_processes)
        orc.register_model("m", procmodels.Tag(1.0), batchable=True)
        orc.register_model("m", procmodels.Tag(2.0), batchable=True, deploy=False)
        orc.canary("m", 2, 0.5)
        requests = obs.get_registry().get("repro_canary_requests_total")
        seq_before, counted_before = orc._models["m"].canary_seq, requests.total()
        orc.start()
        try:
            outs = Client(orc).run_model_batch("m", [np.zeros(4)] * 200, timeout=60)
        finally:
            orc.stop()
        tags = [float(np.ravel(out)[0]) for out in outs]
        assert len(tags) == 200 and set(tags) == {1.0, 2.0}
        assert orc._models["m"].canary_seq - seq_before == 200
        assert requests.total() - counted_before == 200


class TestClientWrappers:
    def test_client_canary_helpers(self):
        orc = two_version_orc()
        client = Client(orc)
        client.canary_model("m", 2, 0.25)
        assert orc.canary_status("m") is not None
        assert client.promote_canary("m") == 2
        orc.deploy("m", 1)
        client.canary_model("m", 2, 0.25)
        assert client.abort_canary("m") == 1
