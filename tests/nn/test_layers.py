"""Layer behaviour: shapes, parameters, FLOPs."""

import numpy as np
import pytest

from repro.nn import Activation, Dense, Residual, Sequential, Tensor


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 6, rng)
        out = layer(Tensor(rng.standard_normal((3, 4))))
        assert out.shape == (3, 6)

    def test_affine_math(self, rng):
        layer = Dense(4, 2, rng)
        x = rng.standard_normal((5, 4))
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_parameters_trainable(self, rng):
        layer = Dense(4, 2, rng)
        params = list(layer.parameters())
        assert len(params) == 2
        assert all(p.requires_grad for p in params)

    def test_num_parameters(self, rng):
        assert Dense(4, 6, rng).num_parameters() == 4 * 6 + 6

    def test_flops(self, rng):
        layer = Dense(4, 6, rng)
        assert layer.flops(batch=2) == 2 * (2 * 4 * 6 + 6)

    def test_output_dim_validation(self, rng):
        layer = Dense(4, 6, rng)
        assert layer.output_dim(4) == 6
        with pytest.raises(ValueError):
            layer.output_dim(5)

    def test_invalid_dims_rejected(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 4, rng)


class TestActivation:
    @pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid", "leaky_relu", "identity"])
    def test_kinds(self, kind, rng):
        act = Activation(kind)
        x = rng.standard_normal((2, 3))
        out = act(Tensor(x)).data
        assert out.shape == x.shape

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Activation("swish")

    def test_identity_flops_zero(self, rng):
        act = Activation("identity")
        act(Tensor(rng.standard_normal((2, 3))))
        assert act.flops(2) == 0


class TestResidualAndSequential:
    def test_residual_adds_input(self, rng):
        inner = Dense(4, 4, rng)
        res = Residual(inner)
        x = rng.standard_normal((2, 4))
        assert np.allclose(res(Tensor(x)).data, inner(Tensor(x)).data + x)

    def test_residual_requires_matching_dims(self, rng):
        res = Residual(Dense(4, 5, rng))
        with pytest.raises(ValueError):
            res.output_dim(4)

    def test_sequential_composes(self, rng):
        model = Sequential([Dense(4, 8, rng), Activation("relu"), Dense(8, 2, rng)])
        out = model(Tensor(rng.standard_normal((3, 4))))
        assert out.shape == (3, 2)
        assert model.output_dim(4) == 2
        assert len(model) == 3

    def test_sequential_flops_sum(self, rng):
        a, b = Dense(4, 8, rng), Dense(8, 2, rng)
        model = Sequential([a, b])
        assert model.flops(3) == a.flops(3) + b.flops(3)

    def test_zero_grad_clears(self, rng):
        model = Sequential([Dense(4, 2, rng)])
        (model(Tensor(rng.standard_normal((2, 4)))) ** 2.0).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())
