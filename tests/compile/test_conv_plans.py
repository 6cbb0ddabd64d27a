"""Bit-identity of the conv/pool/upsample and CSR plan steps.

Every lowered step must reproduce the interpreter byte-for-byte under
``batch_invariant()``: the im2col gathers, per-tap accumulation order,
staged pool reductions and CSR scatter all replay the interpreted
arithmetic exactly, so ``np.testing.assert_array_equal`` (no tolerance)
is the bar throughout — across batch sizes, odd spatial dims, float32
inputs and payload round-trips.
"""

import numpy as np
import pytest

from repro.autoencoder.model import Autoencoder
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
from repro.nn.mlp import Topology, build_mlp
from repro.nn.tensor import batch_invariant
from repro.sparse.formats import COOMatrix, CSRMatrix

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


def make_csr(rng, rows, cols, *, density=0.3, empty_rows=()):
    """A random CSR batch; listed rows are forced completely empty."""
    mask = rng.random((rows, cols)) < density
    for r in empty_rows:
        mask[r] = False
    dense = np.where(mask, rng.standard_normal((rows, cols)), 0.0)
    r, c = np.nonzero(mask)
    return COOMatrix(r, c, dense[mask], (rows, cols)).to_csr()


def sparse_ae_package(rng, in_dim, latent, out_dim):
    ae = Autoencoder(in_dim, latent, depth=1, sparse_input=True)
    randomize(ae, rng)
    topology = Topology(hidden=(8,), sparse_input=True)
    model = build_mlp(latent, out_dim, topology)
    randomize(model, rng)
    return SurrogatePackage(
        model=model,
        topology=topology,
        input_dim=in_dim,
        output_dim=out_dim,
        autoencoder=ae,
    )


class TestCsrPlans:
    def test_sparse_ae_bit_identical(self, rng):
        package = sparse_ae_package(rng, 20, 6, 3)
        x = make_csr(rng, 8, 20)
        plan = compile_package(package, csr_pattern=x)
        assert "csr_gemm" in plan.step_kinds()
        assert_bit_identical(package, plan, x)

    def test_empty_rows(self, rng):
        package = sparse_ae_package(rng, 15, 4, 2)
        x = make_csr(rng, 6, 15, empty_rows=(0, 3, 5))
        plan = compile_package(package, csr_pattern=x)
        assert_bit_identical(package, plan, x)

    def test_all_empty_batch(self, rng):
        package = sparse_ae_package(rng, 10, 4, 2)
        x = make_csr(rng, 4, 10, empty_rows=range(4))
        assert x.nnz == 0
        plan = compile_package(package, csr_pattern=x)
        assert_bit_identical(package, plan, x)

    def test_empty_row_and_negative_zero_product(self, rng):
        # the plan's scatter and the interpreter must agree on an empty
        # row and on a row whose only product is -0.0 (it sums to +0.0
        # from the +0.0 start)
        package = sparse_ae_package(rng, 12, 4, 2)
        first = package.autoencoder.encoder.layers[0]
        first.weight.data[5] = 0.0
        first.bias.data[:] = 0.0
        row = np.array([0, 0, 2, 3, 3])
        col = np.array([1, 5, 5, 2, 9])
        data = np.array([0.7, -1.5, -2.0, 1.1, -0.4])
        x = COOMatrix(row, col, data, (4, 12)).to_csr()
        plan = compile_package(package, csr_pattern=x)
        assert "csr_gemm" in plan.step_kinds()
        assert not np.signbit(x.matmul_dense(first.weight.data)[[1, 2]]).any()
        with batch_invariant():
            ref = package.predict(x)
        out = plan.predict(x)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))

    def test_duplicate_column_coo_round_trip(self, rng):
        # duplicate (row, col) coordinates accumulate on to_csr(); the
        # canonicalized pattern must compile and serve bit-identically
        package = sparse_ae_package(rng, 12, 4, 2)
        row = np.array([0, 0, 0, 1, 2, 2])
        col = np.array([3, 3, 7, 1, 5, 5])
        data = rng.standard_normal(6)
        x = COOMatrix(row, col, data, (3, 12)).to_csr()
        plan = compile_package(package, csr_pattern=x)
        assert_bit_identical(package, plan, x)

    def test_densify_prelude_without_autoencoder(self, rng):
        # no encoder: the plan densifies the CSR batch exactly like
        # package.predict's to_dense() and runs the dense steps
        topology = Topology(hidden=(8,))
        model = build_mlp(10, 2, topology)
        randomize(model, rng)
        package = SurrogatePackage(
            model=model, topology=topology, input_dim=10, output_dim=2
        )
        x = make_csr(rng, 5, 10, empty_rows=(2,))
        plan = compile_package(package, csr_pattern=x)
        assert "csr_densify" in plan.step_kinds()
        assert_bit_identical(package, plan, x)

    def test_dense_ae_with_csr_pattern_is_untraceable(self, rng):
        ae = Autoencoder(10, 4, depth=1, sparse_input=False)
        randomize(ae, rng)
        topology = Topology(hidden=(8,))
        model = build_mlp(4, 2, topology)
        randomize(model, rng)
        package = SurrogatePackage(
            model=model,
            topology=topology,
            input_dim=10,
            output_dim=2,
            autoencoder=ae,
        )
        x = make_csr(rng, 3, 10)
        with pytest.raises(UntraceableModelError) as excinfo:
            compile_package(package, csr_pattern=x)
        assert untraceable_reason(excinfo.value) == "csr"

    def test_pattern_mismatch_rejected(self, rng):
        package = sparse_ae_package(rng, 12, 4, 2)
        x = make_csr(rng, 5, 12)
        plan = compile_package(package, csr_pattern=x)
        other = make_csr(rng, 5, 12, empty_rows=(1,))
        with pytest.raises(ValueError, match="sparsity pattern"):
            plan.predict(other)

    def test_dense_input_to_csr_plan_rejected(self, rng):
        package = sparse_ae_package(rng, 12, 4, 2)
        x = make_csr(rng, 5, 12)
        plan = compile_package(package, csr_pattern=x)
        with pytest.raises(ValueError, match="CSR"):
            plan.predict(rng.standard_normal((5, 12)))

    def test_same_pattern_new_values(self, rng):
        # the plan is keyed to the sparsity pattern, not the values:
        # a batch with the same structure but fresh values serves fine
        package = sparse_ae_package(rng, 12, 4, 2)
        x = make_csr(rng, 5, 12)
        plan = compile_package(package, csr_pattern=x)
        fresh = CSRMatrix(
            indptr=x.indptr,
            indices=x.indices,
            data=rng.standard_normal(x.nnz),
            shape=x.shape,
        )
        assert_bit_identical(package, plan, fresh)

    def test_csr_payload_round_trip(self, rng):
        package = sparse_ae_package(rng, 14, 5, 3)
        x = make_csr(rng, 6, 14, empty_rows=(4,))
        plan = compile_package(package, csr_pattern=x)
        reloaded = plan_from_payload(*plan_payload(plan))
        np.testing.assert_array_equal(reloaded.predict(x), plan.predict(x))


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
