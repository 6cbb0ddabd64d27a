"""Closed-loop controller e2e: drift → retrain → canary → promote/rollback.

The world is a linear map the surrogate fits well inside its training
box.  "Drift" is traffic far outside the box, where the tanh net
saturates and the validator fails — exactly the §7.1 restart signal the
loop feeds on.  Every scenario runs through the *real* stack: registry
publishes, orchestrator canary routing, guard-style validation, and the
persisted state machine.
"""

import json
import pickle

import numpy as np
import pytest

from repro import obs
from repro.lifecycle import (
    DriftConfig,
    LifecycleConfig,
    LifecycleController,
    LifecycleRecord,
    LifecycleState,
    RetrainConfig,
    Retrainer,
)
from repro.nas import evaluate_topology
from repro.nn import Topology
from repro.registry import ModelRegistry
from repro.registry.store import write_manifest
from repro.runtime import Orchestrator


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


DIN, DOUT, SHIFT = 4, 2, 20.0

CFG = LifecycleConfig(
    fraction=0.25,
    decision_samples=12,
    min_incumbent_samples=6,
    early_rollback_samples=6,
    regression_margin=0.05,
    drift=DriftConfig(
        window=24, min_samples=10, reference_samples=24,
        hit_rate_threshold=0.8, z_threshold=8.0,
    ),
    retrain=RetrainConfig(num_epochs=60, batch_size=8, min_samples=16),
)


class World:
    """One model + registry + calibrated validator, shared by scenarios."""

    def __init__(self, tmp_path, rng):
        self.rng = rng
        self.w = rng.standard_normal((DIN, DOUT)) * 2.0
        x = rng.standard_normal((240, DIN))
        y = x @ self.w
        self.package = evaluate_topology(
            Topology(hidden=(16,), activation="tanh"), x, y, rng=rng
        ).package
        self.registry = ModelRegistry(tmp_path / "registry")
        self.package.publish(self.registry, "m")
        # tolerance: every healthy prediction passes with 4x headroom,
        # so the hit-rate channel only fires on genuinely foreign traffic
        probe = rng.standard_normal((80, DIN))
        errors = np.linalg.norm(
            self.package.predict(probe) - probe @ self.w, axis=1
        )
        self.tol = 4.0 * float(np.max(errors))

    def reference(self, row):
        return np.asarray(row) @ self.w

    def validator(self, row, yhat):
        err = np.linalg.norm(np.ravel(yhat) - self.reference(row))
        return bool(np.isfinite(err) and err < self.tol)

    def controller(self, orchestrator):
        return LifecycleController(
            "m",
            orchestrator,
            self.registry,
            reference=self.reference,
            validator=self.validator,
            config=CFG,
        )

    def healthy_row(self):
        return self.rng.standard_normal(DIN)

    def shifted_row(self):
        return self.rng.standard_normal(DIN) + SHIFT


@pytest.fixture
def world(tmp_path, rng):
    return World(tmp_path, rng)


def drive(ctl, world, make_row, *, until, max_steps=400):
    """Serve + step until the controller reaches ``until``; return results."""
    results = []
    for _ in range(max_steps):
        results.append(ctl.serve(make_row()))
        if ctl.step() is until:
            return results
    raise AssertionError(
        f"never reached {until} (state {ctl.state}, "
        f"buffer {len(ctl.buffer)}, retrains {ctl.retrain_count})"
    )


HAPPY_PATH = [
    ("STABLE", "DRIFTING"),
    ("DRIFTING", "RETRAINING"),
    ("RETRAINING", "CANARY"),
    ("CANARY", "PROMOTE"),
    ("PROMOTE", "STABLE"),
]


class TestRetrainerIdempotence:
    def test_identical_request_returns_cached_candidate(self, world):
        retrainer = Retrainer(world.registry, "m", CFG.retrain)
        x = np.stack([world.shifted_row() for _ in range(20)])
        y = x @ world.w
        first = retrainer.retrain(world.package, x, y, parent_version=1)
        again = retrainer.retrain(world.package, x, y, parent_version=1)
        assert first.version == again.version == 2
        assert retrainer.trained_count == 1  # the second call was a cache hit
        lineage = first.meta["lineage"]
        assert lineage["parent_version"] == 1
        assert lineage["trigger"] == "drift"
        assert lineage["samples"] == 20

    def test_candidate_keeps_the_parent_input_schema(self, world):
        # the parent records a gathered input schema; the candidate must
        # carry it so `registry verify` checks the candidate's input_dim
        record = {
            "dense_width": DIN - 2,
            "live_positions": {"A": {"count": 2, "sha256": "0" * 64}},
        }
        world.package.publish(
            world.registry, "s", extra_meta={"input_schema": record}
        )
        retrainer = Retrainer(world.registry, "s", CFG.retrain)
        x = np.stack([world.shifted_row() for _ in range(20)])
        ref = retrainer.retrain(world.package, x, x @ world.w, parent_version=1)
        assert ref.meta["input_schema"] == record
        assert world.registry.verify("s", ref.version).ok
        # an input_dim edited and the digest re-stamped (so only the
        # schema check can see it) fails verification
        manifest = json.loads((ref.path / "manifest.json").read_text())
        write_manifest(
            ref.path, name="s", version=ref.version, kind=manifest["kind"],
            input_dim=DIN + 1, output_dim=manifest["output_dim"],
            metrics=manifest["metrics"], meta=manifest["meta"],
        )
        assert world.registry.verify("s", ref.version).errors == (
            f"input_dim {DIN + 1} != dense width {DIN - 2} + 2 live "
            "positions of the input schema",
        )

    def test_insufficient_samples_rejected(self, world):
        retrainer = Retrainer(world.registry, "m", CFG.retrain)
        with pytest.raises(ValueError):
            retrainer.retrain(
                world.package, np.zeros((3, DIN)), np.zeros((3, DOUT)),
                parent_version=1,
            )


class TestThreadModeLoop:
    def test_drift_to_promote(self, world):
        orc = Orchestrator()
        ctl = world.controller(orc)
        assert ctl.attach() is LifecycleState.STABLE

        # healthy traffic: the loop stays put
        for _ in range(40):
            result = ctl.serve(world.healthy_row())
            assert result.valid and result.version == 1
            assert ctl.step() is LifecycleState.STABLE

        # foreign traffic: the guard fails, drift fires, the loop runs
        drive(ctl, world, world.shifted_row, until=LifecycleState.CANARY)
        assert ctl.retrain_count == 1
        canary_phase = drive(
            ctl, world, world.shifted_row, until=LifecycleState.STABLE
        )

        record = ctl.record
        assert record.incumbent == 2 and record.candidate is None
        assert [(h["from"], h["to"]) for h in record.history] == HAPPY_PATH
        # the decision is in the history, not just the pointers
        assert record.history[-2]["detail"]["candidate"] == 2
        # persisted state agrees with the in-memory record
        assert ctl.store.load().to_payload() == record.to_payload()
        # the registry carries the lineage of the promoted version
        lineage = world.registry.resolve("m", 2).meta["lineage"]
        assert lineage["parent_version"] == 1
        assert lineage["trigger"] == "drift"
        assert lineage["drift"]["reason"] in ("hit-rate", "input-shift")
        # canary slice stayed a bounded minority; nothing was misrouted
        versions = [r.version for r in canary_phase]
        assert set(versions) <= {1, 2}
        assert versions.count(2) / len(versions) <= 0.45
        # promoted version serves all traffic now
        assert ctl.serve(world.shifted_row()).version == 2

    def test_sabotaged_candidate_rolls_back(self, world):
        class Saboteur(Retrainer):
            """Publishes a candidate whose head weights are garbage."""

            def retrain(self, incumbent, x, y, *, parent_version, **kwargs):
                bad = pickle.loads(pickle.dumps(incumbent))
                for param in bad.model.parameters():
                    param.data[:] = 1e3
                self.trained_count += 1
                return bad.publish(
                    self.registry, self.name,
                    extra_meta={"lineage": {
                        "parent_version": int(parent_version),
                        "trigger": "drift", "content_key": "sabotage",
                    }},
                )

        orc = Orchestrator()
        ctl = world.controller(orc)
        ctl.retrainer = Saboteur(world.registry, "m", CFG.retrain)
        ctl.attach()
        for _ in range(40):
            ctl.serve(world.healthy_row())
            ctl.step()
        drive(ctl, world, world.shifted_row, until=LifecycleState.CANARY)

        # the drift was transient: traffic returns to normal, where the
        # incumbent is healthy and the sabotaged candidate fails hard
        drive(ctl, world, world.healthy_row, until=LifecycleState.STABLE)
        record = ctl.record
        assert record.state is LifecycleState.STABLE
        assert record.incumbent == 1 and record.candidate is None
        transitions = [(h["from"], h["to"]) for h in record.history]
        assert ("CANARY", "ROLLBACK") in transitions
        assert ("CANARY", "PROMOTE") not in transitions
        # the bad candidate is published (with lineage) but not serving
        assert world.registry.versions("m") == [1, 2]
        assert orc.active_version("m") == 1
        assert orc.canary_status("m") is None

    def test_manual_trigger_via_persisted_request(self, world):
        orc = Orchestrator()
        ctl = world.controller(orc)
        ctl.attach()
        for _ in range(40):
            ctl.serve(world.healthy_row())
            ctl.step()
        assert ctl.state is LifecycleState.STABLE
        # the CLI writes the override into the registry; the controller
        # picks it up on its next step without sharing memory
        ctl.store.request("trigger")
        assert ctl.step() is LifecycleState.DRIFTING
        assert ctl.record.trigger == "manual"


class TestKillResume:
    def test_mid_canary_kill_resumes_without_retraining(self, world):
        orc = Orchestrator()
        ctl = world.controller(orc)
        ctl.attach()
        for _ in range(40):
            ctl.serve(world.healthy_row())
            ctl.step()
        drive(ctl, world, world.shifted_row, until=LifecycleState.CANARY)
        pre_kill = ctl.store.load()
        assert pre_kill.state is LifecycleState.CANARY

        # "kill": the process dies; orchestrator + controller memory is gone
        orc2 = Orchestrator()
        ctl2 = world.controller(orc2)
        assert ctl2.resume() is LifecycleState.CANARY
        assert ctl2.retrain_count == 0  # the published candidate is reused
        assert orc2.canary_status("m") is not None
        assert orc2.active_version("m") == pre_kill.incumbent

        drive(ctl2, world, world.shifted_row, until=LifecycleState.STABLE)
        record = ctl2.record
        assert ctl2.retrain_count == 0  # still zero: no duplicate training
        assert record.incumbent == pre_kill.candidate
        # the full pre-kill history survived the crash
        transitions = [(h["from"], h["to"]) for h in record.history]
        assert transitions == HAPPY_PATH
        assert record.seq == len(HAPPY_PATH)

    def test_kill_during_retraining_reuses_published_candidate(self, world):
        """Resume RETRAINING with an empty buffer: the candidate published
        before the kill (found by lineage) goes to canary, not a retrain."""
        retrainer = Retrainer(world.registry, "m", CFG.retrain)
        x = np.stack([world.shifted_row() for _ in range(20)])
        retrainer.retrain(world.package, x, x @ world.w, parent_version=1)

        orc = Orchestrator()
        ctl = world.controller(orc)
        # persisted record says RETRAINING, as if the kill landed mid-fit
        record = LifecycleRecord(
            model="m", incumbent=1, parent_version=1
        )
        record = record.transition(LifecycleState.DRIFTING)
        record = record.transition(LifecycleState.RETRAINING)
        ctl.store.save(record)

        ctl2 = world.controller(orc)
        ctl2.resume()
        assert ctl2.step() is LifecycleState.CANARY
        assert ctl2.retrain_count == 0
        assert ctl2.record.candidate == 2


class TestProcessModeLoop:
    def test_drift_to_promote_across_processes(self, world):
        orc = Orchestrator(num_processes=2)
        ctl = world.controller(orc)
        ctl.attach()
        orc.start()
        try:
            for _ in range(40):
                result = ctl.serve(world.healthy_row())
                assert result.valid and result.version == 1
                ctl.step()
            assert ctl.state is LifecycleState.STABLE
            drive(ctl, world, world.shifted_row, until=LifecycleState.CANARY)
            assert ctl.retrain_count == 1
            canary_phase = drive(
                ctl, world, world.shifted_row, until=LifecycleState.STABLE
            )
            record = ctl.record
            assert record.incumbent == 2
            assert [(h["from"], h["to"]) for h in record.history] == HAPPY_PATH
            versions = [r.version for r in canary_phase]
            assert set(versions) <= {1, 2}
            assert versions.count(2) / len(versions) <= 0.45
            assert ctl.serve(world.shifted_row()).version == 2
        finally:
            orc.stop()
