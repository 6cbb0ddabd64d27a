"""Adam's update is bit-for-bit the plain full-array reference update.

Rows whose gradient is always ``±0.0`` (weight rows fed only by
all-zero input columns) keep ``m = v = +0.0`` and move only by weight decay.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Adam, Tensor


class DenseAdam:
    """The plain full-array Adam update, the exactness reference."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = betas
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bitwise(a, b):
    np.testing.assert_array_equal(bits(a), bits(b))


@st.composite
def schedules(draw):
    """Shapes, per-row first nonzero-gradient steps and a seed for one run."""
    steps = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 5))
    # row i's gradient is ±0.0 before step live_at[i]; steps + 1 = never
    live_at = draw(st.lists(st.integers(0, steps + 1), min_size=rows, max_size=rows))
    return steps, rows, cols, live_at, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(schedules(), st.sampled_from([0.0, 1e-4]))
def test_live_row_adam_matches_dense_update(schedule, weight_decay):
    steps, rows, cols, live_at, seed = schedule
    rng = np.random.default_rng(seed)
    # two matrices of different shapes and a bias
    init = [
        rng.standard_normal((rows, cols)),
        rng.standard_normal((cols + 1, rows)),
        rng.standard_normal(cols),
    ]
    ours = [Tensor(x.copy(), requires_grad=True) for x in init]
    theirs = [Tensor(x.copy(), requires_grad=True) for x in init]
    opt = Adam(ours, lr=1e-2, weight_decay=weight_decay)
    ref = DenseAdam(theirs, lr=1e-2, weight_decay=weight_decay)
    live_at = np.array(live_at)
    for step in range(steps):
        grads = [rng.standard_normal(x.shape) for x in init]
        signed_zeros = rng.choice([0.0, -0.0], size=grads[0].shape)
        # a row's gradient may return to zero; its moments still move
        quiet = (live_at > step) | (rng.random(rows) < 0.3)
        grads[0] = np.where(quiet[:, None], signed_zeros, grads[0])
        grads[2][rng.random(cols) < 0.5] = -0.0
        for a, b, g in zip(ours, theirs, grads):
            a.grad, b.grad = g.copy(), g.copy()
        opt.step()
        ref.step()
        for a, b in zip(ours, theirs):
            assert_bitwise(a.data, b.data)
    for mine, dense in ((opt._m, ref.m), (opt._v, ref.v)):
        for x, y in zip(mine, dense):
            assert_bitwise(x, y)
    never = live_at >= steps
    assert not bits(opt._m[0][never]).any()
    assert not bits(opt._v[0][never]).any()


def test_rows_that_never_go_live_stay_put_without_decay():
    w = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    before = w.data.copy()
    opt = Adam([w], lr=0.1)
    for _ in range(5):
        grad = np.zeros((4, 3))
        grad[1] = 1.0
        grad[3] = -0.0
        w.grad = grad
        opt.step()
    assert_bitwise(w.data[[0, 2, 3]], before[[0, 2, 3]])
    assert not np.array_equal(w.data[1], before[1])
    assert not bits(opt._m[0][[0, 2, 3]]).any()
    assert not bits(opt._v[0][[0, 2, 3]]).any()


def test_parameter_without_gradient_is_skipped():
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([a, b], lr=0.1, weight_decay=0.5)
    a.grad = np.ones((3, 2))
    opt.step()
    assert np.all(a.data < 1.0)
    np.testing.assert_array_equal(b.data, np.ones(2))
