"""Bit-identity of the conv/pool/upsample plan steps.

Every lowered step must reproduce the interpreter byte-for-byte under
``batch_invariant()``: the im2col gathers, per-tap accumulation order
and staged pool reductions all replay the interpreted
arithmetic exactly, so ``np.testing.assert_array_equal`` (no tolerance)
is the bar throughout — across batch sizes, odd spatial dims, float32
inputs and payload round-trips.
"""

import numpy as np
import pytest

from repro.compile import (
    UntraceableModelError,
    compile_package,
    plan_from_payload,
    plan_payload,
    untraceable_reason,
)
from repro.nas.package import SurrogatePackage
from repro.nn.cnn import CNNTopology, build_model
from repro.nn.conv import Flatten, SignalView
from repro.nn.layers import Dense, Sequential
from repro.nn.tensor import batch_invariant

ACTIVATIONS = ("relu", "tanh", "sigmoid", "leaky_relu")
BATCHES = (1, 3, 32)


def randomize(model, rng):
    for p in model.parameters():
        p.data = rng.standard_normal(p.data.shape)


def cnn_package(rng, in_dim, out_dim, topology):
    model = build_model(in_dim, out_dim, topology)
    randomize(model, rng)
    return SurrogatePackage(
        model=model, topology=topology, input_dim=in_dim, output_dim=out_dim
    )


def assert_bit_identical(package, plan, x):
    with batch_invariant():
        ref = package.predict(x)
    np.testing.assert_array_equal(plan.predict(x), ref)


class TestConv1dFamily:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_conv_pool_upsample_chain(self, rng, activation, batch):
        # pool by 2, then unpool by 2: exercises conv1d, pool1d and
        # upsample1d steps in one compiled plan
        topology = CNNTopology(
            channels=(4, 3),
            kernel_sizes=(3, 5),
            pools=(2, -2),
            activation=activation,
        )
        package = cnn_package(rng, 8, 2, topology)
        plan = compile_package(package)
        assert {"conv1d", "pool1d", "upsample1d"} <= set(plan.step_kinds())
        assert_bit_identical(package, plan, rng.standard_normal((batch, 8)))

    @pytest.mark.parametrize("pool_kind", ("max", "avg"))
    def test_both_pool_kinds(self, rng, pool_kind):
        topology = CNNTopology(
            channels=(4,), kernel_sizes=(3,), pools=(2,), pool_kind=pool_kind
        )
        package = cnn_package(rng, 10, 3, topology)
        plan = compile_package(package)
        assert_bit_identical(package, plan, rng.standard_normal((7, 10)))

    def test_odd_length_no_pooling(self, rng):
        # odd signal length with same-padding: the gather indices cover
        # the asymmetric pad bands exactly
        topology = CNNTopology(channels=(3,), kernel_sizes=(5,), pools=(0,))
        package = cnn_package(rng, 7, 2, topology)
        plan = compile_package(package)
        assert_bit_identical(package, plan, rng.standard_normal((5, 7)))

    def test_kernel_wider_than_signal(self, rng):
        # kernel 5 over length 3: every tap reads into the zero pad
        topology = CNNTopology(channels=(2,), kernel_sizes=(5,), pools=(0,))
        package = cnn_package(rng, 3, 2, topology)
        plan = compile_package(package)
        assert_bit_identical(package, plan, rng.standard_normal((4, 3)))

    def test_single_row_and_float32(self, rng):
        topology = CNNTopology(channels=(4,), kernel_sizes=(3,), pools=(2,))
        package = cnn_package(rng, 8, 2, topology)
        plan = compile_package(package)
        row = rng.standard_normal(8)
        assert_bit_identical(package, plan, row)
        assert plan.predict(row).shape == (2,)
        assert_bit_identical(
            package, plan, rng.standard_normal((6, 8)).astype(np.float32)
        )

    def test_payload_round_trip(self, rng):
        topology = CNNTopology(
            channels=(4, 3), kernel_sizes=(3, 3), pools=(2, -2), pool_kind="avg"
        )
        package = cnn_package(rng, 12, 2, topology)
        plan = compile_package(package)
        reloaded = plan_from_payload(*plan_payload(plan))
        x = rng.standard_normal((9, 12))
        np.testing.assert_array_equal(reloaded.predict(x), plan.predict(x))
        assert reloaded.step_kinds() == plan.step_kinds()


class TestUntraceableReasons:
    def test_geometry_mismatch_reports_conv(self, rng):
        # SignalView(4) over 6 features: 6 % 4 != 0 is a conv-family
        # geometry error, labeled so operators can see why it interprets
        model = Sequential([SignalView(4), Flatten(), Dense(6, 2, rng)])
        topology = CNNTopology(channels=(1,), kernel_sizes=(1,), pools=(0,))
        package = SurrogatePackage(
            model=model, topology=topology, input_dim=6, output_dim=2
        )
        with pytest.raises(UntraceableModelError) as excinfo:
            compile_package(package)
        assert untraceable_reason(excinfo.value) == "conv"

    def test_plain_typeerror_reports_opaque(self):
        assert untraceable_reason(TypeError("boom")) == "opaque"
