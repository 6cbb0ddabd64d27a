"""Input columns that are zero in every row train like any other.

With the default forward ``train_model`` runs an MLP on the compiled
step; a caller-supplied ``forward`` keeps the autograd loop, which is the
reference here.  A dead column's first-layer weight row gets only weight
decay on both paths, and the model keeps its full-width first layer
throughout, so an ``epoch_callback`` can run it on ``x``.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.cnn import CNNTopology, build_cnn
from repro.nn.mlp import Topology, build_mlp
from repro.nn.train import TrainConfig, train_model


def full_width(model, batch):
    return model(Tensor(batch))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def sparse_data(rng, n, din, dout, n_dead):
    x = rng.standard_normal((n, din))
    dead = np.zeros(din, dtype=bool)
    dead[rng.choice(din, size=n_dead, replace=False)] = True
    x[:, dead] = 0.0
    y = np.tanh(x[:, ~dead][:, :dout]) + 0.1 * rng.standard_normal((n, dout))
    return x, y, dead


def train_pair(x, y, topology, config):
    """(compiled, autograd) models and results from one initialization."""
    runs = []
    for forward in (None, full_width):
        model = build_mlp(x.shape[1], y.shape[1], topology, np.random.default_rng(1))
        runs.append((model, train_model(model, x, y, config, forward=forward)))
    return runs


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_dead_rows_are_bit_identical(rng, weight_decay):
    x, y, dead = sparse_data(rng, n=60, din=40, dout=3, n_dead=25)
    config = TrainConfig(num_epochs=6, weight_decay=weight_decay, lr=1e-2)
    (ours, _), (ref, _) = train_pair(x, y, Topology((16,)), config)
    w, w_ref = ours.layers[0].weight.data, ref.layers[0].weight.data
    np.testing.assert_array_equal(bits(w[dead]), bits(w_ref[dead]))
    if weight_decay:
        init = build_mlp(40, 3, Topology((16,)), np.random.default_rng(1))
        init = init.layers[0].weight.data
        assert not np.array_equal(w[dead], init[dead])


@pytest.mark.parametrize("row", [0, -1])
def test_column_set_in_one_row_stays_live(rng, row):
    x, y, dead = sparse_data(rng, n=60, din=40, dout=3, n_dead=25)
    x[row, np.flatnonzero(dead)[0]] = 5.0
    (_, result), (_, ref_result) = train_pair(x, y, Topology((16,)), TrainConfig(num_epochs=4))
    np.testing.assert_allclose(result.val_losses, ref_result.val_losses, rtol=1e-9)


def test_live_rows_match_on_amg_shaped_data(rng):
    # AMG flattens to 1,406 input columns, 1,176 of them zero in every sample
    x, y, dead = sparse_data(rng, n=160, din=1406, dout=36, n_dead=1176)
    config = TrainConfig(num_epochs=8, patience=4, weight_decay=1e-4)
    (ours, result), (ref, ref_result) = train_pair(x, y, Topology((128, 128)), config)
    assert result.epochs_run == ref_result.epochs_run
    for p, q in zip(ours.parameters(), ref.parameters()):
        assert p.shape == q.shape
        np.testing.assert_allclose(p.data, q.data, rtol=0, atol=1e-9 * np.abs(q.data).max())


def test_input_without_dead_column_is_bit_identical(rng):
    x, y, _ = sparse_data(rng, n=60, din=12, dout=2, n_dead=0)
    (ours, result), (ref, ref_result) = train_pair(
        x, y, Topology((8, 8)), TrainConfig(num_epochs=5, weight_decay=1e-4)
    )
    assert result.val_losses == ref_result.val_losses
    for p, q in zip(ours.parameters(), ref.parameters()):
        np.testing.assert_array_equal(bits(p.data), bits(q.data))


class TestFirstLayerRestored:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x, self.y, _ = sparse_data(rng, n=40, din=20, dout=2, n_dead=12)
        self.model = build_mlp(20, 2, Topology((8,)), np.random.default_rng(0))
        self.layer = self.model.layers[0]
        self.weight = self.layer.weight

    def assert_restored(self):
        assert self.layer.weight is self.weight
        assert self.weight.shape == (20, 8)
        assert self.layer.in_features == 20

    def test_after_return(self):
        shapes = []

        def record(epoch, train_loss, val_loss):
            shapes.append((self.layer.weight.shape, self.layer.in_features))

        train_model(self.model, self.x, self.y, TrainConfig(num_epochs=2),
                    epoch_callback=record)
        assert shapes == [((20, 8), 20)] * 2  # the callback sees the full layer
        self.assert_restored()

    def test_after_raise(self):
        before = self.weight.data.copy()

        def boom(epoch, train_loss, val_loss):
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            train_model(self.model, self.x, self.y, TrainConfig(num_epochs=3),
                        epoch_callback=boom)
        self.assert_restored()
        # the epoch that ran before the raise was written back
        assert not np.array_equal(self.weight.data, before)


def param_shapes(model):
    return [p.shape for p in model.parameters()]


def test_custom_forward_is_not_compacted(rng):
    x, y, _ = sparse_data(rng, n=40, din=20, dout=2, n_dead=12)
    model = build_mlp(20, 2, Topology((8,)), np.random.default_rng(0))
    full = (param_shapes(model), 20)
    seen = []

    def forward(m, batch):
        seen.append((param_shapes(m), batch.shape[1]))
        return full_width(m, batch)

    train_model(model, x, y, TrainConfig(num_epochs=1), forward=forward)
    assert seen and all(entry == full for entry in seen)


def test_cnn_is_not_compacted(rng):
    x, y, _ = sparse_data(rng, n=40, din=16, dout=2, n_dead=10)
    model = build_cnn(16, 2, CNNTopology(channels=(2,), kernel_sizes=(3,), pools=(2,)),
                      np.random.default_rng(0))
    before = param_shapes(model)
    seen = []
    train_model(model, x, y, TrainConfig(num_epochs=2),
                epoch_callback=lambda *_: seen.append(param_shapes(model)))
    assert seen == [before, before]
