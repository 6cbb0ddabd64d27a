"""2-D batch support and batch-invariant matmul across repro.nn layers."""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Dense,
    Residual,
    Sequential,
    Tensor,
    batch_invariant,
    is_batch_invariant,
    no_grad,
)


def make_stack(rng, din=6, width=8):
    return Sequential(
        [
            Dense(din, width, rng),
            Activation("tanh"),
            Residual(Sequential([Dense(width, width, rng), Activation("relu")])),
            Dense(width, 2, rng),
        ]
    )


class TestBatchedForward:
    def test_dense_accepts_single_row_and_batch(self, rng):
        layer = Dense(5, 3, rng)
        single = layer(Tensor(rng.standard_normal(5))).data
        batch = layer(Tensor(rng.standard_normal((4, 5)))).data
        assert single.shape == (3,)
        assert batch.shape == (4, 3)

    def test_dense_rejects_wrong_width(self, rng):
        layer = Dense(5, 3, rng)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((2, 4))))

    def test_residual_and_sequential_batch(self, rng):
        model = make_stack(rng)
        x = rng.standard_normal((7, 6))
        with no_grad():
            batch = model(Tensor(x)).data
        assert batch.shape == (7, 2)
        for i in range(7):
            with no_grad():
                row = model(Tensor(x[i][None, :])).data[0]
            assert np.allclose(row, batch[i])


class TestBatchInvariantMode:
    def test_context_toggles_flag(self):
        assert not is_batch_invariant()
        with batch_invariant():
            assert is_batch_invariant()
            with batch_invariant():
                assert is_batch_invariant()
            assert is_batch_invariant()
        assert not is_batch_invariant()

    def test_rows_bit_identical_under_mode(self, rng):
        model = make_stack(rng)
        x = rng.standard_normal((32, 6))
        with no_grad(), batch_invariant():
            batch = model(Tensor(x)).data
            for i in range(32):
                row = model(Tensor(x[i][None, :])).data[0]
                assert np.array_equal(row, batch[i])

    def test_split_invariance(self, rng):
        """Any slicing of the batch yields the same rows, bit for bit."""
        model = make_stack(rng)
        x = rng.standard_normal((19, 6))
        with no_grad(), batch_invariant():
            whole = model(Tensor(x)).data
            parts = np.vstack(
                [model(Tensor(x[:5])).data, model(Tensor(x[5:12])).data,
                 model(Tensor(x[12:])).data]
            )
        assert np.array_equal(whole, parts)

    def test_mode_matches_blas_numerically(self, rng):
        model = make_stack(rng)
        x = rng.standard_normal((16, 6))
        with no_grad():
            blas = model(Tensor(x)).data
            with batch_invariant():
                invariant = model(Tensor(x)).data
        assert np.allclose(blas, invariant, rtol=1e-12, atol=1e-12)

    def test_gradients_flow_under_mode(self, rng):
        layer = Dense(4, 3, rng)
        x = Tensor(rng.standard_normal((5, 4)))
        with batch_invariant():
            out = layer(x)
            loss = (out * out).sum()
            loss.backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == (4, 3)


class TestPackageBatch:
    def test_predict_batch_stacks_rows(self, rng):
        from repro.nas import evaluate_topology
        from repro.nn import Topology

        x = rng.standard_normal((60, 6))
        y = x @ rng.standard_normal((6, 2))
        pkg = evaluate_topology(
            Topology(hidden=(8,), activation="tanh"), x, y, rng=rng
        ).package
        rows = [rng.standard_normal(6) for _ in range(5)]
        stacked = pkg.predict_batch(rows)
        assert stacked.shape == (5, 2)
        for i, row in enumerate(rows):
            assert np.allclose(stacked[i], pkg.predict(row))

    def test_predict_batch_empty(self, rng):
        from repro.nas import evaluate_topology
        from repro.nn import Topology

        x = rng.standard_normal((60, 6))
        y = x @ rng.standard_normal((6, 2))
        pkg = evaluate_topology(
            Topology(hidden=(8,), activation="tanh"), x, y, rng=rng
        ).package
        assert pkg.predict_batch([]).shape == (0, 2)

    def test_predict_rejects_wrong_feature_count(self, rng):
        from repro.nas import evaluate_topology
        from repro.nn import Topology

        x = rng.standard_normal((60, 6))
        y = x @ rng.standard_normal((6, 2))
        pkg = evaluate_topology(
            Topology(hidden=(8,), activation="tanh"), x, y, rng=rng
        ).package
        with pytest.raises(ValueError):
            pkg.predict(rng.standard_normal((3, 9)))
