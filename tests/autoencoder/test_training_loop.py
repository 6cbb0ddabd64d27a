"""``train_autoencoder`` trains through ``train_model`` with the same bits.

The reference is the autoencoder's own epoch loop that ``train_model``
replaced: one split and one Adam over the encoder and decoder, σ_y on the
held-out rows after every epoch, and a stop at the bound or at the epoch
budget.  Under fixed seeds the weights, losses, epochs and σ history must
match it byte for byte, with and without gradient checkpointing.
"""

import numpy as np
import pytest

from repro.autoencoder import AETrainConfig, AETrainResult, Autoencoder, train_autoencoder
from repro.nn.checkpoint import CheckpointSequential
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.perf.metrics import reconstruction_similarity


def reference_train(ae, x, config):
    """The autoencoder's hand-written training loop, kept as the oracle."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(x.shape[0])
    cut = max(1, min(x.shape[0] - 1, int(round(x.shape[0] * config.train_ratio))))
    train_idx, val_idx = perm[:cut], perm[cut:]

    if config.gradient_checkpointing:
        encoder = CheckpointSequential(ae.encoder, config.checkpoint_segments)
        decoder = CheckpointSequential(ae.decoder, config.checkpoint_segments)
    else:
        encoder, decoder = ae.encoder, ae.decoder

    optimizer = Adam(list(ae.parameters()), lr=config.lr)
    result = AETrainResult()
    val = x[val_idx] if val_idx.size else x[train_idx]
    for epoch in range(config.num_epochs):
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, order.size, config.batch_size):
            batch = x[order[start : start + config.batch_size]]
            optimizer.zero_grad()
            loss = mse_loss(decoder(encoder(Tensor(batch))), Tensor(batch))
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        result.train_losses.append(epoch_loss / max(batches, 1))
        with no_grad():
            recon_val = ae.reconstruct(val)
        sigma = reconstruction_similarity(val, recon_val, mu=config.sigma_mu)
        result.sigma_history.append(sigma)
        result.final_sigma = sigma
        result.epochs_run = epoch + 1
        if sigma <= config.encoding_loss_bound:
            result.met_bound = True
            break
    return result


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def gathered_x(rng):
    """AMG-shaped rows: a block of columns is zero in every sample."""
    x = np.tanh(rng.standard_normal((90, 4)) @ rng.standard_normal((4, 48)))
    x[:, 40:] = 0.0
    return x


def dense_x(rng):
    return rng.standard_normal((61, 24))


# (data, latent, depth, activation, config): one case meets its σ_y bound
# early, the others run to the epoch budget; at lr 1e-11 the validation
# loss stalls, where patience would have stopped the run
CASES = {
    "gathered-k8": (gathered_x, 8, 2, "relu", dict(num_epochs=12, batch_size=16)),
    "gathered-bound": (gathered_x, 16, 2, "tanh",
                       dict(num_epochs=200, lr=3e-3, encoding_loss_bound=0.9)),
    "dense": (dense_x, 6, 3, "tanh", dict(num_epochs=9, lr=1e-2, train_ratio=0.7)),
    "dense-stalled": (dense_x, 6, 2, "relu", dict(num_epochs=14, lr=1e-11)),
}


@pytest.mark.parametrize("checkpointing", [False, True], ids=["plain", "checkpointed"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_the_reference_loop(case, checkpointing):
    data, latent, depth, activation, knobs = CASES[case]
    x = data(np.random.default_rng(4))
    config = AETrainConfig(gradient_checkpointing=checkpointing, seed=7, **knobs)
    runs = []
    for train in (train_autoencoder, reference_train):
        ae = Autoencoder(x.shape[1], latent, depth=depth, activation=activation,
                         rng=np.random.default_rng(11))
        runs.append((ae, train(ae, x, config)))
    (ae, result), (ref_ae, ref) = runs
    assert result.epochs_run == ref.epochs_run
    assert result.train_losses == ref.train_losses
    assert result.sigma_history == ref.sigma_history
    assert result.final_sigma == ref.final_sigma
    assert result.met_bound == ref.met_bound
    assert len(result.sigma_history) == result.epochs_run
    assert result.met_bound == (case == "gathered-bound")
    assert result.met_bound or result.epochs_run == config.num_epochs
    for p, q in zip(ae.parameters(), ref_ae.parameters(), strict=True):
        np.testing.assert_array_equal(bits(p.data), bits(q.data))


@pytest.mark.parametrize("checkpointing", [False, True], ids=["plain", "checkpointed"])
def test_autograd_only_with_checkpointing(monkeypatch, checkpointing):
    """Without checkpointing the autoencoder trains on the compiled step."""
    entered = []
    backward = Tensor.backward

    def spy(self, *args, **kwargs):
        entered.append(1)
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", spy)
    x = gathered_x(np.random.default_rng(4))
    ae = Autoencoder(x.shape[1], 8, rng=np.random.default_rng(11))
    result = train_autoencoder(
        ae, x, AETrainConfig(num_epochs=3, gradient_checkpointing=checkpointing)
    )
    assert result.epochs_run == 3
    assert bool(entered) == checkpointing
