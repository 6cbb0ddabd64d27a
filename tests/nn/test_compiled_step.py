"""The compiled training step is bit-identical to the autograd loop.

``train_model`` trains a ``Sequential`` of ``Dense``/``Activation``/
``Residual`` through :mod:`repro.nn.trainstep`.  A
caller-supplied ``forward`` keeps the autograd loop, which is the
reference here: losses, ``epochs_run`` and every parameter must match
byte for byte.
"""

import numpy as np
import pytest

import repro.nn.trainstep as trainstep
from repro.nn import ACTIVATIONS, Tensor, batch_invariant
from repro.nn.cnn import CNNTopology, build_cnn
from repro.nn.mlp import Topology, build_mlp
from repro.nn.train import TrainConfig, predict, train_model


def autograd_forward(model, batch):
    return model(Tensor(batch))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture
def compiled(monkeypatch):
    """Records, per ``train_model`` call, whether the step was compiled."""
    seen = []

    def spy(*args, **kwargs):
        step = compile_step(*args, **kwargs)
        seen.append(step is not None)
        return step

    compile_step = trainstep.compile_step
    monkeypatch.setattr(trainstep, "compile_step", spy)
    return seen


def make_data(seed, n=41, din=5, dout=3, dtype=np.float64):
    # 41 rows: 33 train rows, so batches of 16 end with a batch of one row
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, din))
    y = np.tanh(x @ rng.standard_normal((din, dout)))
    return x.astype(dtype), y.astype(dtype)


def train_both(x, y, topology, config, **kwargs):
    """``[(model, result)]`` for the compiled step, then for autograd."""
    runs = []
    for forward in (None, autograd_forward):
        model = build_mlp(x.shape[1], y.shape[1], topology, np.random.default_rng(2))
        runs.append((model, train_model(model, x, y, config, forward=forward, **kwargs)))
    return runs


def assert_identical(ours, ref):
    (model, result), (ref_model, ref_result) = ours, ref
    assert result.train_losses == ref_result.train_losses
    assert result.val_losses == ref_result.val_losses
    assert result.epochs_run == ref_result.epochs_run
    assert result.stopped_by_callback == ref_result.stopped_by_callback
    for p, q in zip(model.parameters(), ref_model.parameters()):
        np.testing.assert_array_equal(bits(p.data), bits(q.data))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_bit_identical_to_autograd(compiled, activation, residual, weight_decay, dtype):
    x, y = make_data(0, dtype=dtype)
    config = TrainConfig(num_epochs=6, batch_size=16, lr=1e-2, weight_decay=weight_decay)
    ours, ref = train_both(x, y, Topology((8, 8), activation, residual), config)
    assert compiled == [True]   # the autograd reference never asks
    assert_identical(ours, ref)
    assert ours[1].epochs_run == 6


def test_wide_relu_net_with_early_stopping(compiled):
    x, y = make_data(7, n=150, din=60, dout=36)
    config = TrainConfig(num_epochs=40, patience=2, min_delta=1e-2, weight_decay=1e-4)
    ours, ref = train_both(x, y, Topology((128, 128), "relu", True), config)
    assert compiled == [True]   # the autograd reference never asks
    assert_identical(ours, ref)
    assert ours[1].epochs_run < 40


def test_model_wider_than_one_adam_slice(compiled):
    """Adam steps the flat parameter in slices; one boundary cuts a weight."""
    x, y = make_data(8, din=60)
    config = TrainConfig(num_epochs=4, batch_size=16, weight_decay=1e-4)
    ours, ref = train_both(x, y, Topology((256, 128), "tanh"), config)
    sizes = [p.size for p in ours[0].parameters()]
    assert sum(sizes) > trainstep._ADAM_SLICE
    assert trainstep._ADAM_SLICE not in np.cumsum(sizes)
    assert compiled == [True]   # the autograd reference never asks
    assert_identical(ours, ref)


def test_callback_stop_and_live_weights(compiled):
    """A callback stops the run, and mid-run it reads the current weights."""
    x, y = make_data(3)
    runs = []
    for forward in (None, autograd_forward):
        model = build_mlp(5, 3, Topology((8,), "tanh"), np.random.default_rng(2))
        seen = []

        def watch(epoch, train_loss, val_loss):
            seen.append(
                ([p.data.copy() for p in model.parameters()], predict(model, x))
            )
            return epoch == 3

        result = train_model(
            model, x, y, TrainConfig(num_epochs=20, batch_size=16), forward=forward,
            epoch_callback=watch,
        )
        runs.append(((model, result), seen))
    (ours, seen), (ref, ref_seen) = runs
    assert compiled == [True]   # the autograd reference never asks
    assert ours[1].stopped_by_callback and ours[1].epochs_run == 4
    assert_identical(ours, ref)
    assert len(seen) == len(ref_seen) == 4
    for (weights, pred), (ref_weights, ref_pred) in zip(seen, ref_seen):
        np.testing.assert_array_equal(bits(pred), bits(ref_pred))
        for w, r in zip(weights, ref_weights):
            np.testing.assert_array_equal(bits(w), bits(r))
    # the weights moved between epochs, so the callback saw each epoch's
    assert not np.array_equal(seen[0][0][0], seen[-1][0][0])


def test_parameters_own_their_arrays_afterwards(compiled):
    x, y = make_data(4)
    model = build_mlp(5, 3, Topology((8,), "relu"), np.random.default_rng(2))
    arrays = [p.data for p in model.parameters()]
    before = [a.copy() for a in arrays]

    def fail(epoch, train_loss, val_loss):
        raise RuntimeError("stop here")

    with pytest.raises(RuntimeError, match="stop here"):
        train_model(model, x, y, TrainConfig(num_epochs=3), epoch_callback=fail)
    assert compiled == [True]
    for p, a, b in zip(model.parameters(), arrays, before):
        assert p.data is a and p.grad is None
        assert not np.array_equal(a, b)   # the epoch's steps were written back


def test_unlowered_runs_stay_on_autograd(compiled):
    """A CNN, a batch-invariant context or a caller's forward keep autograd."""
    x, y = make_data(5, din=8)
    config = TrainConfig(num_epochs=2)
    cnn = build_cnn(8, 3, CNNTopology((2,), (3,), (0,)), np.random.default_rng(0))
    train_model(cnn, x, y, config)
    mlp = build_mlp(8, 3, Topology((4,)), np.random.default_rng(0))
    with batch_invariant():
        train_model(mlp, x, y, config)
    assert compiled == [False, False]
    train_model(mlp, x, y, config, forward=autograd_forward)
    assert compiled == [False, False]   # a caller's forward never asks
    with pytest.raises(ValueError, match="input features"):
        train_model(mlp, x[:, :5], y, config)
    assert compiled == [False, False, False]
