"""Losses, optimizers, MLP builder, training loop, checkpointing, serialization."""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Adam,
    CheckpointSequential,
    Dense,
    SGD,
    Sequential,
    Tensor,
    Topology,
    TrainConfig,
    activation_bytes,
    build_mlp,
    checkpoint,
    huber_loss,
    mae_loss,
    mse_loss,
    predict,
    relative_l2,
    train_model,
)
from repro.registry.formats import read_model_npz, write_model_npz


# ------------------------------------------------------------------- losses


class TestLosses:
    def test_mse_zero_for_equal(self, rng):
        x = Tensor(rng.standard_normal((3, 2)))
        assert mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_mse_value(self):
        assert mse_loss(Tensor([2.0]), Tensor([0.0])).item() == pytest.approx(4.0)

    def test_mae_value(self):
        assert mae_loss(Tensor([2.0, -2.0]), Tensor([0.0, 0.0])).item() == pytest.approx(2.0)

    def test_huber_quadratic_near_zero(self):
        small = huber_loss(Tensor([0.01]), Tensor([0.0])).item()
        assert small == pytest.approx(0.5 * 0.01**2, rel=1e-3)

    def test_huber_linear_in_tails(self):
        big = huber_loss(Tensor([100.0]), Tensor([0.0]), delta=1.0).item()
        assert 90 < big < 101

    def test_losses_differentiable(self, rng):
        for loss in (mse_loss, mae_loss, huber_loss):
            pred = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
            loss(pred, Tensor(rng.standard_normal((4, 2)))).backward()
            assert pred.grad is not None

    def test_relative_l2(self):
        assert relative_l2(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
        assert relative_l2(np.array([2.0]), np.array([1.0])) == pytest.approx(1.0)


# ------------------------------------------------------------------- optimizers


class TestOptimizers:
    def _quadratic_descends(self, make_opt, steps=200):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = make_opt([w])
        for _ in range(steps):
            opt.zero_grad()
            loss = (w * w).sum()
            loss.backward()
            opt.step()
        return np.abs(w.data).max()

    def test_sgd_converges(self):
        assert self._quadratic_descends(lambda p: SGD(p, lr=0.1)) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self._quadratic_descends(lambda p: SGD(p, lr=0.05, momentum=0.9)) < 1e-3

    def test_adam_converges(self):
        assert self._quadratic_descends(lambda p: Adam(p, lr=0.1)) < 1e-3

    def test_adam_weight_decay_shrinks_weights(self):
        w = Tensor(np.ones(4), requires_grad=True)
        opt = Adam([w], lr=0.01, weight_decay=0.5)
        for _ in range(50):
            opt.zero_grad()
            (w * 0.0).sum().backward()   # zero loss gradient
            opt.step()
        assert np.all(np.abs(w.data) < 1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        w = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([w], lr=0.0)

    def test_bad_momentum_rejected(self):
        w = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([w], lr=0.1, momentum=1.0)

    def test_skips_params_without_grad(self):
        w = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([w], lr=0.1)
        opt.step()  # no grad yet; must not crash
        assert np.allclose(w.data, 1.0)


# ------------------------------------------------------------------- MLP builder


class TestTopologyAndBuilder:
    def test_describe(self):
        t = Topology(hidden=(8, 16), activation="relu", residual=True)
        assert "8x16" in t.describe() and "res" in t.describe()

    def test_invalid_hidden_rejected(self):
        with pytest.raises(ValueError):
            Topology(hidden=(0,), activation="relu")

    def test_invalid_activation_rejected(self):
        with pytest.raises(ValueError):
            Topology(hidden=(8,), activation="selu")

    def test_build_shapes(self, rng):
        model = build_mlp(5, 3, Topology(hidden=(8, 8), activation="tanh"), rng)
        assert model.output_dim(5) == 3
        out = model(Tensor(rng.standard_normal((4, 5))))
        assert out.shape == (4, 3)

    def test_residual_blocks_used_for_equal_widths(self, rng):
        model = build_mlp(5, 2, Topology(hidden=(8, 8), activation="relu", residual=True), rng)
        from repro.nn.layers import Residual

        assert any(isinstance(layer, Residual) for layer in model)


# ------------------------------------------------------------------- training loop


class TestTrainModel:
    def test_learns_linear_map(self, rng):
        x = rng.standard_normal((128, 4))
        y = x @ rng.standard_normal((4, 2))
        model = build_mlp(4, 2, Topology(hidden=(16,), activation="tanh"), rng)
        result = train_model(
            model, x, y, TrainConfig(num_epochs=300, lr=1e-2, patience=50, seed=0)
        )
        assert result.best_val_loss < 2e-2

    def test_early_stopping_on_plateau(self, rng):
        x = rng.standard_normal((32, 3))
        y = np.zeros((32, 2))  # trivially learned, then plateaus
        model = build_mlp(3, 2, Topology(hidden=(4,), activation="relu"), rng)
        result = train_model(
            model, x, y, TrainConfig(num_epochs=500, patience=5, lr=1e-2, seed=0)
        )
        assert result.epochs_run < 500

    def test_empty_data_rejected(self, rng):
        model = build_mlp(3, 2, Topology(hidden=(4,), activation="relu"), rng)
        with pytest.raises(ValueError):
            train_model(model, np.empty((0, 3)), np.empty((0, 2)))

    def test_row_mismatch_rejected(self, rng):
        model = build_mlp(3, 2, Topology(hidden=(4,), activation="relu"), rng)
        with pytest.raises(ValueError):
            train_model(model, np.ones((4, 3)), np.ones((5, 2)))

    def test_bad_train_ratio_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(train_ratio=0.0)

    def test_predict_runs_without_grad(self, rng):
        model = build_mlp(3, 2, Topology(hidden=(4,), activation="relu"), rng)
        out = predict(model, rng.standard_normal((5, 3)))
        assert out.shape == (5, 2)
        assert all(p.grad is None for p in model.parameters())

    def test_deterministic_given_seed(self, rng):
        x = rng.standard_normal((64, 3))
        y = x @ rng.standard_normal((3, 1))
        losses = []
        for _ in range(2):
            model = build_mlp(3, 1, Topology(hidden=(8,), activation="tanh"),
                              np.random.default_rng(7))
            r = train_model(model, x, y, TrainConfig(num_epochs=20, seed=3))
            losses.append(r.train_losses)
        assert losses[0] == losses[1]


# ------------------------------------------------------------------- checkpointing


class TestCheckpointing:
    def _model(self, rng):
        return Sequential(
            [Dense(4, 8, rng), Activation("relu"),
             Dense(8, 8, rng), Activation("relu"), Dense(8, 2, rng)]
        )

    def test_gradients_match_plain_backward(self, rng):
        model = self._model(rng)
        x = rng.standard_normal((6, 4))
        model(Tensor(x)).sum().backward()
        expected = [p.grad.copy() for p in model.parameters()]
        model.zero_grad()
        CheckpointSequential(model, segments=2)(Tensor(x)).sum().backward()
        actual = [p.grad.copy() for p in model.parameters()]
        assert all(np.allclose(a, b) for a, b in zip(expected, actual))

    def test_checkpoint_single_module(self, rng):
        layer = Dense(3, 3, rng)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        checkpoint(layer, x).sum().backward()
        assert layer.weight.grad is not None
        assert x.grad is not None

    @pytest.mark.parametrize("segments", [1, 2, 3, 5])
    def test_any_segment_count(self, segments, rng):
        model = self._model(rng)
        ck = CheckpointSequential(model, segments=segments)
        out = ck(Tensor(rng.standard_normal((2, 4))))
        assert out.shape == (2, 2)

    def test_invalid_segments_rejected(self, rng):
        with pytest.raises(ValueError):
            CheckpointSequential(self._model(rng), segments=0)

    def test_activation_bytes_shrink_with_checkpointing(self, rng):
        model = Sequential([Dense(64, 64, rng) for _ in range(6)])
        plain = activation_bytes(model, 64, batch=8)
        ck = activation_bytes(model, 64, batch=8, checkpoint_segments=3)
        assert ck < plain

    def test_checkpoint_flops_double(self, rng):
        model = self._model(rng)
        assert CheckpointSequential(model, 2).flops(4) == 2 * model.flops(4)


# ------------------------------------------------------------------- serialization


class TestSerialization:
    def test_round_trip_predictions(self, rng, tmp_path):
        topo = Topology(hidden=(8, 8), activation="tanh", residual=True)
        model = build_mlp(5, 3, topo, rng)
        path = write_model_npz(model, topo, 5, 3, tmp_path / "model.npz")
        loaded, loaded_topo, fin, fout, _ = read_model_npz(path)
        assert (fin, fout) == (5, 3)
        assert loaded_topo == topo
        x = rng.standard_normal((4, 5))
        assert np.allclose(predict(model, x), predict(loaded, x))

    def test_appends_npz_suffix(self, rng, tmp_path):
        topo = Topology(hidden=(4,), activation="relu")
        model = build_mlp(2, 1, topo, rng)
        path = write_model_npz(model, topo, 2, 1, tmp_path / "model")
        assert path.suffix == ".npz" and path.exists()
