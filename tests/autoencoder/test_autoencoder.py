"""Autoencoder model + error-bounded training tests."""

import numpy as np
import pytest

from repro.autoencoder import AETrainConfig, Autoencoder, hourglass_widths, train_autoencoder


def low_rank_data(rng, n=150, dim=32, rank=3):
    z = rng.standard_normal((n, rank))
    w = rng.standard_normal((rank, dim))
    return np.tanh(z @ w)


class TestHourglassWidths:
    def test_monotone_shrink(self):
        widths = hourglass_widths(100, 5, 4)
        assert widths[-1] == 5
        assert all(widths[i] >= widths[i + 1] for i in range(len(widths) - 1))

    def test_depth_one(self):
        assert hourglass_widths(50, 7, 1) == [7]

    def test_latent_larger_than_input_rejected(self):
        with pytest.raises(ValueError):
            hourglass_widths(5, 10, 2)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            hourglass_widths(10, 2, 0)


class TestModel:
    def test_encode_decode_shapes(self, rng):
        ae = Autoencoder(16, 4, depth=2, rng=rng)
        x = rng.standard_normal((5, 16))
        z = ae.encode(x)
        assert z.shape == (5, 4)
        assert ae.decode(z).shape == (5, 16)
        assert ae.reconstruct(x).shape == (5, 16)

    def test_single_row_encode(self, rng):
        ae = Autoencoder(8, 2, rng=rng)
        assert ae.encode(rng.standard_normal(8)).shape == (1, 2)

    def test_evl_perfect_for_identity_data(self, rng):
        ae = Autoencoder(8, 8, depth=1, rng=rng)
        # latent == input: after enough training evl should be low; here we
        # only check the metric is within [0, 1]
        x = rng.standard_normal((10, 8))
        sigma = ae.evl(x)
        assert 0.0 <= sigma <= 1.0

    def test_flops_positive_and_split(self, rng):
        ae = Autoencoder(16, 4, depth=2, rng=rng)
        assert ae.encode_flops(1) > 0
        assert ae.flops(1) > ae.encode_flops(1)


class TestTraining:
    def test_loss_decreases(self, rng):
        x = low_rank_data(rng)
        ae = Autoencoder(32, 6, depth=2, activation="tanh", rng=rng)
        result = train_autoencoder(ae, x, AETrainConfig(num_epochs=40, lr=3e-3, seed=0))
        assert result.train_losses[-1] < result.train_losses[0]

    def test_sigma_tracked_per_epoch(self, rng):
        x = low_rank_data(rng)
        ae = Autoencoder(32, 6, rng=rng)
        result = train_autoencoder(ae, x, AETrainConfig(num_epochs=7, seed=0))
        assert len(result.sigma_history) == result.epochs_run
        assert all(0.0 <= s <= 1.0 for s in result.sigma_history)

    def test_error_bound_stops_early(self, rng):
        x = low_rank_data(rng)
        ae = Autoencoder(32, 16, depth=2, activation="tanh", rng=rng)
        result = train_autoencoder(
            ae, x, AETrainConfig(num_epochs=500, lr=3e-3, encoding_loss_bound=0.95, seed=0)
        )
        assert result.met_bound
        assert result.epochs_run < 500

    def test_gradient_checkpointing_trains_equivalently(self, rng):
        x = low_rank_data(rng, n=60)
        results = []
        for ckpt in (False, True):
            ae = Autoencoder(32, 6, depth=3, rng=np.random.default_rng(3))
            r = train_autoencoder(
                ae, x,
                AETrainConfig(num_epochs=8, gradient_checkpointing=ckpt, seed=2),
            )
            results.append(r.train_losses)
        assert np.allclose(results[0], results[1], rtol=1e-8)

    def test_dimension_mismatch_rejected(self, rng):
        ae = Autoencoder(16, 4, rng=rng)
        with pytest.raises(ValueError):
            train_autoencoder(ae, rng.standard_normal((10, 8)))

    def test_too_few_samples_rejected(self, rng):
        ae = Autoencoder(16, 4, rng=rng)
        with pytest.raises(ValueError):
            train_autoencoder(ae, rng.standard_normal((1, 16)))

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            AETrainConfig(encoding_loss_bound=1.5)
