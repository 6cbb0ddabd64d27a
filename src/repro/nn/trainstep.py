"""Compiled MLP training step: one fused forward/backward, one flat Adam.

``train_model`` runs a ``Sequential`` of ``Dense``, ``Activation`` and
``Residual`` (the modules ``repro.compile.plan`` lowers for serving),
trained with the default forward, through this step
instead of the autograd graph (DESIGN §5b).  One step is a flat list of
NumPy calls into buffers allocated once per batch row count: each call
is the float operation ``Tensor`` runs for the same node, on operands of
the same shape and layout, so losses, epochs and weights are
bit-identical to the autograd loop.  For example relu is ``z * (z > 0)``
and its gradient ``g * mask``, the loss gradient is ``t + t`` with
``t = (1/n) * d`` (``d * d``'s two operands each receive ``t``), a
bias gradient is ``g.sum(axis=0)`` and a weight gradient ``a.T @ g``.

While the step is live every parameter's ``data`` is a view into one
contiguous buffer and its gradient a view into a second one, so the
existing :class:`~repro.nn.optim.Adam` updates all of them as a few flat
slices of ``_ADAM_SLICE`` elements.  Adam's update is elementwise, so a
pass over a slice gives each element the bits the per-parameter loop
gives it.  :meth:`CompiledStep.release` copies the trained values back
into the arrays the parameters held before and hands those back.

Anything the step does not lower (another module, a nested residual, a
shape the layers would reject, a batch-invariant or no-grad context)
makes :func:`compile_step` return ``None`` and training stays on
autograd, which also keeps every error message of the layers.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from .layers import Activation, Dense, Module, Residual, Sequential
from .optim import Adam
from .tensor import Tensor, is_batch_invariant, is_grad_enabled

__all__ = ["CompiledStep", "compile_step"]

#: ``Tensor.leaky_relu``'s default slope, the one ``Activation`` uses
_LEAKY_SLOPE = 0.01
#: elements per flat Adam slice: 256 KiB per array, so each of Adam's
#: passes over a slice and its moments stays in a core's L2 cache (one
#: flat pass over a 264k-parameter autoencoder was slower than Adam's
#: per-parameter loop)
_ADAM_SLICE = 1 << 15

#: one emitted call: a NumPy callable and its positional arguments
Call = tuple[Callable, tuple]
#: emits the backward calls of one forward node; maps the gradient of the
#: node's output to that of its input (``None`` when the input is the batch)
Back = Callable[[np.ndarray, list], Optional[np.ndarray]]


def _lower(module: Module, items: list, in_residual: bool = False) -> bool:
    """Append ``module``'s nodes to ``items``; False if it cannot be lowered.

    Nodes are ``("dense", layer)``, ``("act", layer)`` and
    ``("residual", inner_nodes)``.  A residual's inner nodes must start
    with a ``Dense`` and hold no residual, so its input collects exactly
    two gradients, whose sum is the same in either order.
    """
    if isinstance(module, Dense):
        items.append(("dense", module))
    elif isinstance(module, Activation):
        items.append(("act", module))
    elif isinstance(module, Sequential):
        return all(_lower(layer, items, in_residual) for layer in module.layers)
    elif isinstance(module, Residual) and not in_residual:
        inner: list = []
        if not _lower(module.inner, inner, True) or not inner or inner[0][0] != "dense":
            return False
        items.append(("residual", inner))
    else:
        return False
    return True


def _dense_back(node: Dense, a: np.ndarray, tracked: bool) -> Back:
    def emit(g: np.ndarray, calls: list) -> Optional[np.ndarray]:
        # the bias gradient is _unbroadcast's sum over the batch axis
        calls.append((np.matmul, (a.T, g, node.weight.grad)))
        calls.append((np.add.reduce, (g, 0, None, node.bias.grad)))
        if not tracked:
            return None
        ga = np.empty(a.shape)
        calls.append((np.matmul, (g, node.weight.data.T, ga)))
        return ga

    return emit


def _act_back(kind: str, saved: np.ndarray) -> Back:
    """``saved`` is the relu mask, the leaky scale, or the tanh/sigmoid output."""

    def emit(g: np.ndarray, calls: list) -> np.ndarray:
        out = np.empty(g.shape)
        if kind == "tanh":          # g * (1 - h**2)
            t = np.empty(g.shape)
            calls += [(np.square, (saved, t)), (np.subtract, (1.0, t, t)),
                      (np.multiply, (g, t, out))]
        elif kind == "sigmoid":     # g * h * (1 - h)
            t = np.empty(g.shape)
            calls += [(np.multiply, (g, saved, out)), (np.subtract, (1.0, saved, t)),
                      (np.multiply, (out, t, out))]
        else:                       # relu mask, leaky_relu scale
            calls.append((np.multiply, (g, saved, out)))
        return out

    return emit


def _residual_back(inner: list, tracked: bool) -> Back:
    def emit(g: np.ndarray, calls: list) -> Optional[np.ndarray]:
        gi = _emit_backward(inner, g, calls)
        if not tracked:
            return None
        out = np.empty(g.shape)
        calls.append((np.add, (g, gi, out)))
        return out

    return emit


def _emit_forward(
    items: list, a: np.ndarray, tracked: bool, calls: list, backs: list
) -> np.ndarray:
    """Append the forward calls of ``items`` on buffer ``a``; return the output.

    ``tracked`` says whether ``a`` depends on a parameter (autograd's
    ``requires_grad``); a node on an untracked input records no backward.
    """
    n = a.shape[0]
    for kind, node in items:
        if kind == "dense":
            w, b = node.weight.data, node.bias.data
            out = np.empty((n, w.shape[1]))
            calls += [(np.matmul, (a, w, out)), (np.add, (out, b, out))]
            backs.append(_dense_back(node, a, tracked))
            tracked = True
        elif kind == "residual":
            inner: list = []
            r = _emit_forward(node, a, tracked, calls, inner)
            out = np.empty(r.shape)
            calls.append((np.add, (r, a, out)))
            backs.append(_residual_back(inner, tracked))
            tracked = True
        else:
            node._dim = a.shape[-1]   # what Activation.forward records for flops()
            out, saved = _emit_activation(node.kind, a, calls)
            if out is None:
                continue              # identity hands its input on unchanged
            if tracked:
                backs.append(_act_back(node.kind, saved))
        a = out
    return a


def _emit_activation(kind: str, a: np.ndarray, calls: list):
    """Forward calls of one activation: ``(output, saved for backward)``."""
    if kind == "identity":
        return None, None
    out = np.empty(a.shape)
    if kind == "relu":
        mask = np.empty(a.shape, dtype=bool)
        calls += [(np.greater, (a, 0, mask)), (np.multiply, (a, mask, out))]
        return out, mask
    if kind == "leaky_relu":        # scale = where(a > 0, 1.0, slope)
        mask = np.empty(a.shape, dtype=bool)
        scale = np.empty(a.shape)
        calls += [(np.greater, (a, 0, mask)), (np.copyto, (scale, _LEAKY_SLOPE)),
                  (np.copyto, (scale, 1.0, "same_kind", mask)),
                  (np.multiply, (a, scale, out))]
        return out, scale
    if kind == "tanh":
        calls.append((np.tanh, (a, out)))
        return out, out
    # sigmoid: 1 / (1 + exp(-clip(a, -60, 60)))
    t = np.empty(a.shape)
    e = np.empty(a.shape)
    # clip as maximum then minimum (whose out= must be a keyword)
    calls += [(partial(np.maximum, out=t), (a, -60.0)),
              (partial(np.minimum, out=t), (t, 60.0)),
              (np.negative, (t, t)), (np.exp, (t, e)), (np.add, (1.0, e, e)),
              (np.divide, (1.0, e, out))]
    return out, out


def _emit_backward(backs: list, g: np.ndarray, calls: list) -> Optional[np.ndarray]:
    for emit in reversed(backs):
        g = emit(g, calls)
        if g is None:
            break
    return g


class _Program:
    """The calls of one step (or one validation pass) on ``n`` rows."""

    def __init__(self, items: list, n: int, in_dim: int, out_dim: int, train: bool):
        self.x = np.empty((n, in_dim))
        self.y = np.empty((n, out_dim))
        self.loss = np.empty(())
        self.calls: list[Call] = []
        backs: list = []
        pred = _emit_forward(items, self.x, False, self.calls, backs)
        # mse_loss: d = pred - y, loss = (d * d).sum() * (1 / d.size)
        d, sq, total = np.empty(pred.shape), np.empty(pred.shape), np.empty(())
        scale = 1.0 / pred.size
        self.calls += [(np.subtract, (pred, self.y, d)), (np.multiply, (d, d, sq)),
                       (np.add.reduce, (sq, None, None, total)),
                       (np.multiply, (total, scale, self.loss))]
        if train:
            t, g = np.empty(pred.shape), np.empty(pred.shape)
            self.calls += [(np.multiply, (d, scale, t)), (np.add, (t, t, g))]
            _emit_backward(backs, g, self.calls)

    def run(self) -> float:
        for f, args in self.calls:
            f(*args)
        return self.loss.item()


class CompiledStep:
    """A model's training step and validation pass, compiled for one run.

    Build it with :func:`compile_step`; call :meth:`release` when training
    ends, after which the model's parameters own their arrays again.
    """

    def __init__(
        self,
        model: Module,
        items: list,
        x: np.ndarray,
        y: np.ndarray,
        batch_sizes: set[int],
        val_idx: np.ndarray,
        lr: float,
        weight_decay: float,
    ) -> None:
        self.params = list(model.parameters())
        self._owned = [p.data for p in self.params]
        sizes = [p.size for p in self.params]
        offsets = np.cumsum([0] + sizes)
        data, grad = np.empty(offsets[-1]), np.empty(offsets[-1])
        for p, lo, hi in zip(self.params, offsets[:-1], offsets[1:]):
            view = data[lo:hi].reshape(p.shape)
            view[...] = p.data
            p.data = view
            p.grad = grad[lo:hi].reshape(p.shape)
        slices = []
        for lo in range(0, offsets[-1], _ADAM_SLICE) or [0]:
            part = Tensor(data[lo : lo + _ADAM_SLICE], requires_grad=True, name="flat")
            part.grad = grad[lo : lo + _ADAM_SLICE]
            slices.append(part)
        self.optimizer = Adam(slices, lr=lr, weight_decay=weight_decay)
        self._x, self._y = x, y
        in_dim, out_dim = x.shape[1], y.shape[1]
        self._programs = {
            n: _Program(items, n, in_dim, out_dim, train=True) for n in batch_sizes
        }
        self._val = None
        if val_idx.size:
            self._val = _Program(items, val_idx.size, in_dim, out_dim, train=False)
            x.take(val_idx, 0, self._val.x)
            y.take(val_idx, 0, self._val.y)

    def step(self, batch: np.ndarray) -> float:
        """One Adam step on rows ``batch``; returns the batch loss."""
        program = self._programs[batch.size]
        self._x.take(batch, 0, program.x, "clip")
        self._y.take(batch, 0, program.y, "clip")
        loss = program.run()
        self.optimizer.step()
        return loss

    def validate(self) -> float:
        """The loss on the validation rows (requires some)."""
        return self._val.run()

    def release(self) -> None:
        """Copy the trained values into the parameters' own arrays."""
        for p, own in zip(self.params, self._owned):
            own[...] = p.data
            p.data, p.grad = own, None


def compile_step(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    batch_size: int,
    lr: float,
    weight_decay: float,
) -> Optional[CompiledStep]:
    """A :class:`CompiledStep` for an MSE fit of ``model``, or None.

    ``x`` and ``y`` are the float arrays ``train_model`` trains on; the
    step draws its batches from ``train_idx`` in chunks of
    ``batch_size`` and validates on ``val_idx``.
    """
    items: list = []
    if not isinstance(model, Sequential) or not _lower(model, items):
        return None
    if is_batch_invariant() or not is_grad_enabled() or x.ndim != 2 or y.ndim != 2:
        return None
    try:
        if model.output_dim(x.shape[1]) != y.shape[1]:
            return None
    except ValueError:      # the autograd forward raises the layer's message
        return None
    params = list(model.parameters())
    if len({id(p) for p in params}) != len(params) or not all(
        p.requires_grad and p.data.flags.c_contiguous for p in params
    ):
        return None
    # the Tensor(batch) the autograd loop builds holds float64 rows
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sizes = {min(batch_size, train_idx.size), train_idx.size % batch_size or batch_size}
    return CompiledStep(model, items, x, y, sizes, val_idx, lr, weight_decay)
