"""Conv1d / pooling / CNN-builder tests (the §5.1 CNN family)."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool1d,
    CNNTopology,
    Conv1d,
    Flatten,
    MaxPool1d,
    SignalView,
    Tensor,
    TrainConfig,
    Upsample1d,
    build_cnn,
    build_model,
    predict,
    train_model,
)
from repro.registry.formats import read_model_npz, write_model_npz


class TestConv1d:
    def test_output_shape(self, rng):
        conv = Conv1d(2, 5, 3, rng)
        out = conv(Tensor(rng.standard_normal((4, 2, 16))))
        assert out.shape == (4, 5, 16)

    def test_matches_numpy_correlate(self, rng):
        """Single-channel conv equals same-padded correlation."""
        conv = Conv1d(1, 1, 3, rng)
        x = rng.standard_normal((1, 1, 10))
        out = conv(Tensor(x)).data[0, 0]
        w = conv.weight.data[:, 0, 0]       # (K,) taps
        padded = np.concatenate([[0.0], x[0, 0], [0.0]])
        expected = np.array(
            [padded[i : i + 3] @ w for i in range(10)]
        ) + conv.bias.data[0]
        assert np.allclose(out, expected)

    def test_gradients_match_finite_difference(self, rng):
        conv = Conv1d(2, 3, 3, rng)
        x = rng.standard_normal((2, 2, 8))
        (conv(Tensor(x)) ** 2.0).sum().backward()
        analytic = conv.weight.grad.copy()
        eps = 1e-6
        for idx in [(0, 0, 0), (2, 1, 2), (1, 0, 1)]:
            conv.weight.data[idx] += eps
            up = (conv(Tensor(x)) ** 2.0).sum().item()
            conv.weight.data[idx] -= 2 * eps
            dn = (conv(Tensor(x)) ** 2.0).sum().item()
            conv.weight.data[idx] += eps
            assert analytic[idx] == pytest.approx((up - dn) / (2 * eps), abs=1e-5)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 4, rng)

    def test_wrong_channel_count_rejected(self, rng):
        conv = Conv1d(2, 3, 3, rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.standard_normal((1, 5, 8))))

    def test_flops_positive_after_forward(self, rng):
        conv = Conv1d(1, 4, 3, rng)
        conv(Tensor(rng.standard_normal((1, 1, 12))))
        assert conv.flops(2) > 0


class TestPooling:
    def test_max_pool_values(self):
        pool = MaxPool1d(2)
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 0.0]]]))
        assert np.allclose(pool(x).data, [[[3.0, 2.0]]])

    def test_max_pool_gradient_routes_to_argmax(self):
        pool = MaxPool1d(2)
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 0.0]]]), requires_grad=True)
        pool(x).sum().backward()
        assert np.allclose(x.grad, [[[0.0, 1.0, 1.0, 0.0]]])

    def test_avg_pool_values(self):
        pool = AvgPool1d(2)
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 0.0]]]))
        assert np.allclose(pool(x).data, [[[2.0, 1.0]]])

    def test_indivisible_length_rejected(self, rng):
        with pytest.raises(ValueError):
            MaxPool1d(3)(Tensor(rng.standard_normal((1, 1, 8))))

    def test_pool_size_one_is_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6)))
        assert np.allclose(MaxPool1d(1)(x).data, x.data)

    def test_upsample_repeats(self):
        up = Upsample1d(3)
        x = Tensor(np.array([[[1.0, 2.0]]]))
        assert np.allclose(up(x).data, [[[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]]])

    def test_upsample_gradient_accumulates(self):
        up = Upsample1d(2)
        x = Tensor(np.array([[[1.0, 2.0]]]), requires_grad=True)
        up(x).sum().backward()
        assert np.allclose(x.grad, [[[2.0, 2.0]]])


class TestViews:
    def test_signal_view_round_trip(self, rng):
        x = rng.standard_normal((3, 12))
        signal = SignalView(channels=2)(Tensor(x))
        assert signal.shape == (3, 2, 6)
        flat = Flatten()(signal)
        assert np.allclose(flat.data, x)

    def test_signal_view_indivisible_rejected(self, rng):
        with pytest.raises(ValueError):
            SignalView(channels=5)(Tensor(rng.standard_normal((2, 12))))


class TestCNNTopology:
    def test_describe(self):
        t = CNNTopology(channels=(4,), kernel_sizes=(3,), pools=(2,))
        assert "c4k3p2" in t.describe()

    def test_misaligned_knobs_rejected(self):
        with pytest.raises(ValueError):
            CNNTopology(channels=(4, 8), kernel_sizes=(3,), pools=(1, 1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            CNNTopology(channels=(4,), kernel_sizes=(4,), pools=(1,))


class TestBuildCNN:
    def test_end_to_end_shapes(self, rng):
        topo = CNNTopology(channels=(4, 8), kernel_sizes=(3, 3), pools=(2, 2))
        model = build_cnn(32, 6, topo, rng)
        out = model(Tensor(rng.standard_normal((5, 32))))
        assert out.shape == (5, 6)

    def test_upsample_path(self, rng):
        topo = CNNTopology(channels=(4,), kernel_sizes=(3,), pools=(-2,))
        model = build_cnn(8, 3, topo, rng)
        assert model(Tensor(rng.standard_normal((2, 8)))).shape == (2, 3)

    def test_indivisible_pool_rejected(self, rng):
        topo = CNNTopology(channels=(4,), kernel_sizes=(3,), pools=(3,))
        with pytest.raises(ValueError):
            build_cnn(8, 2, topo, rng)

    def test_learns_convolutional_target(self, rng):
        x = rng.standard_normal((150, 32))
        kernel = np.array([0.25, 0.5, 0.25])
        y = np.array([np.convolve(row, kernel, mode="same") for row in x])[:, ::4]
        topo = CNNTopology(channels=(6,), kernel_sizes=(3,), pools=(2,), activation="tanh")
        model = build_cnn(32, 8, topo, rng)
        result = train_model(
            model, x, y, TrainConfig(num_epochs=150, lr=3e-3, patience=40, seed=1)
        )
        assert result.best_val_loss < 0.15

    def test_build_model_dispatches(self, rng):
        from repro.nn import Topology

        mlp = build_model(8, 2, Topology(hidden=(4,), activation="relu"), rng)
        cnn = build_model(
            8, 2, CNNTopology(channels=(2,), kernel_sizes=(3,), pools=(1,)), rng
        )
        assert mlp(Tensor(rng.standard_normal((2, 8)))).shape == (2, 2)
        assert cnn(Tensor(rng.standard_normal((2, 8)))).shape == (2, 2)

    def test_cnn_serialization_round_trip(self, rng, tmp_path):
        topo = CNNTopology(channels=(4,), kernel_sizes=(3,), pools=(2,))
        model = build_cnn(16, 3, topo, rng)
        path = write_model_npz(model, topo, 16, 3, tmp_path / "cnn.npz")
        loaded, loaded_topo, fin, fout, _ = read_model_npz(path)
        assert loaded_topo == topo and (fin, fout) == (16, 3)
        x = rng.standard_normal((4, 16))
        assert np.allclose(predict(model, x), predict(loaded, x))


class TestCNNSpace:
    def test_round_trip_and_legality(self, rng):
        from repro.nas import CNNSpace

        space = CNNSpace(signal_length=24)
        for _ in range(25):
            t = space.sample(rng)
            assert space.decode(space.encode(t)) == t
            # pools always legal for the signal length
            length = 24
            for pool in t.pools:
                assert length % pool == 0
                length //= pool

    def test_grid_topologies_buildable(self, rng):
        from repro.nas import CNNSpace

        space = CNNSpace(signal_length=16, max_layers=1)
        for t in space.grid():
            model = build_cnn(16, 2, t, rng)
            assert model(Tensor(rng.standard_normal((1, 16)))).shape == (1, 2)

    def test_nas_search_over_cnn_space(self, rng):
        from repro.nas import CNNSpace, TopologySearch

        x = rng.standard_normal((80, 16))
        kernel = np.array([0.5, 0.5])
        y = np.array([np.convolve(row, kernel, mode="same") for row in x])[:, ::4]
        space = CNNSpace(signal_length=16, max_layers=1)
        search = TopologySearch(
            space, epsilon=1.0,
            train_config=TrainConfig(num_epochs=40, lr=3e-3, seed=0), seed=0,
        )
        result = search.search(x, y, n_trials=3)
        assert result.best is not None
        assert result.best.topology.describe().startswith("cnn")
