"""Bit-identity of compiled plans against the interpreted forward path.

The compiler's whole contract is "same floats, less Python": under
``batch_invariant()`` a plan's outputs must be *byte-identical* to
``SurrogatePackage.predict`` for every layer kind, batch size, and
payload round-trip.  ``np.testing.assert_array_equal`` (exact equality,
no tolerance) is deliberate throughout.
"""

import dataclasses

import numpy as np
import pytest

from repro.autoencoder.model import Autoencoder
from repro.compile import (
    CompiledPlan,
    UntraceableModelError,
    compile_package,
    plan_from_payload,
    plan_payload,
)
from repro.compile.plan import _ScalerStep
from repro.core.scaling import Scaler
from repro.nas.package import SurrogatePackage
from repro.nn.cnn import CNNTopology, build_model
from repro.nn.mlp import Topology
from repro.nn.tensor import batch_invariant

ACTIVATIONS = ("relu", "tanh", "sigmoid", "leaky_relu")
BATCHES = (1, 3, 32, 57)


def make_package(
    rng,
    *,
    input_dim=6,
    output_dim=2,
    hidden=(16, 8),
    activation="relu",
    residual=False,
    latent_dim=None,
):
    """A small package with randomized (non-degenerate) weights."""
    topology = Topology(
        hidden=hidden,
        activation=activation,
        residual=residual,
    )
    model_in = latent_dim if latent_dim is not None else input_dim
    model = build_model(model_in, output_dim, topology)
    for p in model.parameters():
        p.data = rng.standard_normal(p.data.shape)
    ae = None
    if latent_dim is not None:
        ae = Autoencoder(input_dim, latent_dim, depth=1)
        for p in ae.parameters():
            p.data = rng.standard_normal(p.data.shape)
    return SurrogatePackage(
        model=model,
        topology=topology,
        input_dim=input_dim,
        output_dim=output_dim,
        autoencoder=ae,
    )


def assert_bit_identical(package, plan, x):
    with batch_invariant():
        ref = package.predict(x)
    np.testing.assert_array_equal(plan.predict(x), ref)


class TestBitIdentity:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_every_activation_batched(self, rng, activation, batch):
        package = make_package(rng, activation=activation)
        plan = compile_package(package)
        assert_bit_identical(package, plan, rng.standard_normal((batch, 6)))

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_every_activation_single_row(self, rng, activation):
        package = make_package(rng, activation=activation)
        plan = compile_package(package)
        x = rng.standard_normal(6)
        assert_bit_identical(package, plan, x)
        assert plan.predict(x).shape == (2,)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_residual_topology(self, rng, batch):
        package = make_package(rng, hidden=(8, 8, 8), residual=True)
        plan = compile_package(package)
        assert_bit_identical(package, plan, rng.standard_normal((batch, 6)))

    @pytest.mark.parametrize("batch", (1, 32))
    def test_autoencoder_chain(self, rng, batch):
        package = make_package(rng, input_dim=10, latent_dim=4)
        plan = compile_package(package)
        assert plan.input_dim == 10
        assert_bit_identical(package, plan, rng.standard_normal((batch, 10)))

    def test_float32_input(self, rng):
        package = make_package(rng)
        plan = compile_package(package)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        assert_bit_identical(package, plan, x)

    def test_payload_round_trip_is_bit_identical(self, rng):
        package = make_package(
            rng, hidden=(8, 8), activation="sigmoid", residual=True
        )
        plan = compile_package(package)
        reloaded = plan_from_payload(*plan_payload(plan))
        x = rng.standard_normal((7, 6))
        np.testing.assert_array_equal(reloaded.predict(x), plan.predict(x))
        assert reloaded.num_steps() == plan.num_steps()
        assert reloaded.batch_invariant == plan.batch_invariant

    def test_blas_mode_plan_matches_blas_interpreter(self, rng):
        # without batch_invariant only allclose is promised (BLAS gemm may
        # reassociate), but the plan must still track the fast interpreter
        package = make_package(rng, hidden=(32, 16))
        plan = compile_package(package, batch_invariant=False)
        x = rng.standard_normal((16, 6))
        np.testing.assert_allclose(
            plan.predict(x), package.predict(x), rtol=1e-12, atol=1e-12
        )

    def test_batch_result_matches_row_results(self, rng):
        # the invariant-mode plan inherits the interpreter's batch
        # invariance: row i of a batch equals serving row i alone
        package = make_package(rng, activation="tanh")
        plan = compile_package(package)
        rows = rng.standard_normal((9, 6))
        batched = plan.predict(rows)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(plan.predict(row), batched[i])


def with_scalers(package, rng):
    """``package`` behind standardizing scalers with awkward values."""
    x_std = rng.uniform(0.1, 3.0, package.input_dim)
    x_std[0] = 1.0
    return dataclasses.replace(
        package,
        x_scaler=Scaler(mean=rng.standard_normal(package.input_dim), std=x_std),
        y_scaler=Scaler(
            mean=rng.standard_normal(package.output_dim),
            std=rng.uniform(0.1, 50.0, package.output_dim),
        ),
    )


class TestScalerSteps:
    """A package's scalers lower to ``scale``/``unscale`` steps that run
    ``Scaler``'s own float ops, so a plan serves raw rows byte for byte."""

    @pytest.mark.parametrize("batch", BATCHES)
    def test_raw_rows_bit_identical(self, rng, batch):
        package = with_scalers(make_package(rng), rng)
        plan = compile_package(package)
        assert plan.step_kinds() == ["gemm", "scale", "unscale"]
        assert_bit_identical(package, plan, rng.standard_normal((batch, 6)))
        assert_bit_identical(package, plan, rng.standard_normal(6))

    def test_matches_scaler_transform_and_inverse(self, rng):
        """The plan computes ``inverse(model(transform(x)))`` as the
        scalers themselves do, NaN and -0.0 included."""
        package = with_scalers(make_package(rng, latent_dim=4), rng)
        x = rng.standard_normal((40, 6))
        x[0, 0], x[1, 1], x[2, 2] = np.nan, -0.0, 0.0
        bare = dataclasses.replace(package, x_scaler=None, y_scaler=None)
        with batch_invariant():
            ref = package.y_scaler.inverse(
                bare.predict(package.x_scaler.transform(x))
            )
        assert compile_package(package).predict(x).tobytes() == ref.tobytes()

    def test_identity_scaler_is_not_skipped(self, rng):
        """Unscaling by an identity scaler adds +0.0, which turns a -0.0
        output into +0.0; a plan that skipped the step would move that
        bit."""
        identity = Scaler.identity(3)
        unscale = CompiledPlan(
            [_ScalerStep("unscale", identity.mean, identity.std)],
            input_dim=3, output_dim=3,
        )
        z = np.array([[-0.0, 1.0, -2.0]])
        assert unscale.predict(z).tobytes() == identity.inverse(z).tobytes()
        assert not np.signbit(unscale.predict(z)[0, 0])

        package = dataclasses.replace(
            make_package(rng),
            x_scaler=Scaler.identity(6), y_scaler=Scaler.identity(2),
        )
        plan = compile_package(package)
        assert plan.step_kinds() == ["gemm", "scale", "unscale"]
        assert_bit_identical(package, plan, rng.standard_normal((7, 6)))

    def test_no_scalers_lower_to_the_bare_program(self, rng):
        package = make_package(rng)
        bare = compile_package(package)
        assert bare.step_kinds() == ["gemm"]
        scaled = compile_package(with_scalers(package, rng))
        x = rng.standard_normal((5, 6))
        bare.predict(x)
        scaled.predict(x)
        # two calls per scaler, nothing else added
        calls = {
            name: len(plan._tls.programs[5].calls)
            for name, plan in (("bare", bare), ("scaled", scaled))
        }
        assert calls["scaled"] == calls["bare"] + 4

    def test_payload_round_trip(self, rng):
        package = with_scalers(make_package(rng), rng)
        meta, arrays = plan_payload(compile_package(package))
        assert [s["kind"] for s in meta["steps"]][::len(meta["steps"]) - 1] == [
            "scale", "unscale",
        ]
        assert_bit_identical(
            package, plan_from_payload(meta, arrays), rng.standard_normal((9, 6))
        )


class TestPlanSemantics:
    def test_fusion_flattens_dense_activation_pairs(self, rng):
        package = make_package(rng, hidden=(16, 8))
        plan = compile_package(package)
        # 3 Dense layers, each fused with its activation (last has none)
        assert plan.num_steps() == 3

    def test_wrong_feature_count_matches_package_error(self, rng):
        package = make_package(rng)
        plan = compile_package(package)
        bad = rng.standard_normal((3, 5))
        with pytest.raises(ValueError, match="expects 6 input features"):
            package.predict(bad)
        with pytest.raises(ValueError, match="expects 6 input features"):
            plan.predict(bad)

    def test_output_is_fresh_per_call(self, rng):
        package = make_package(rng)
        plan = compile_package(package)
        x = rng.standard_normal((3, 6))
        first = plan.predict(x)
        keep = first.copy()
        second = plan.predict(x)
        assert first is not second
        second[:] = 0.0
        np.testing.assert_array_equal(first, keep)

    def test_cnn_family_compiles_bit_identically(self, rng):
        # was untraceable before the conv/pool lowering landed; now the
        # whole CNN family compiles and stays on the compiled fast path
        topology = CNNTopology(
            channels=(4,), kernel_sizes=(3,), pools=(1,), activation="relu"
        )
        model = build_model(8, 2, topology)
        package = SurrogatePackage(
            model=model, topology=topology, input_dim=8, output_dim=2
        )
        plan = compile_package(package)
        assert "conv1d" in plan.step_kinds()
        assert_bit_identical(package, plan, rng.standard_normal((5, 8)))

    def test_recurrent_style_module_is_untraceable(self, rng):
        # a module with no trace_spec lowering still falls back, tagged
        # with a reason the serving counter can label
        from repro.compile import untraceable_reason
        from repro.nn.layers import Module, Sequential

        class Opaque(Module):
            def forward(self, x):
                return x

        package = make_package(rng)
        package.model = Sequential([Opaque()])
        with pytest.raises(UntraceableModelError) as excinfo:
            compile_package(package)
        assert untraceable_reason(excinfo.value) == "unknown-module"

    def test_plan_ignores_runtime_thread_mode(self, rng):
        # specialization is fixed at compile time: an invariant plan keeps
        # its row-by-row product even when called outside the context
        package = make_package(rng)
        plan = compile_package(package, batch_invariant=True)
        x = rng.standard_normal((4, 6))
        inside = None
        with batch_invariant():
            inside = plan.predict(x)
        np.testing.assert_array_equal(plan.predict(x), inside)

    def test_callable_alias(self, rng):
        package = make_package(rng)
        plan = compile_package(package)
        x = rng.standard_normal((2, 6))
        np.testing.assert_array_equal(plan(x), plan.predict(x))

    def test_threaded_execution_is_race_free(self, rng):
        # scratch buffers are thread-local: concurrent predict() calls on
        # one plan must not corrupt each other
        import threading

        package = make_package(rng, hidden=(16, 16, 8))
        plan = compile_package(package)
        rows = rng.standard_normal((64, 6))
        with batch_invariant():
            expected = package.predict(rows)
        failures = []

        def worker():
            for _ in range(20):
                got = plan.predict(rows)
                if not np.array_equal(got, expected):
                    failures.append(got)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
