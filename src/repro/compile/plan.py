"""Plan IR + compiler: partial evaluation of a surrogate forward pass.

The serving hot path interprets the autograd layer graph on every
micro-batch: each ``Dense`` builds ``Tensor`` wrappers, allocates an
output for the matmul, another for the bias add, and each ``Activation``
allocates again.  None of that bookkeeping depends on the input — only
on the *specialization key* ``(model, version, input shape, dtype,
batch_invariant)`` — so it can all be done once, ahead of time.

``compile_package`` traces a :class:`~repro.nas.package.SurrogatePackage`
through the declarative ``trace_spec`` hooks on :mod:`repro.nn.layers`
and partially evaluates the module tree into a :class:`CompiledPlan`: a
flat list of steps with the weights and biases captured as plain
``ndarray`` constants, each adjacent Dense/Activation pair fused into a
single gemm step.  The package's scalers, when it has them, open and
close the list as a ``scale`` and an ``unscale`` step, so a plan maps
raw rows to raw outputs as ``package.predict`` does.  A plan runs a
*program* (:class:`_Program`): the steps lowered once more, for one row
count, into a list of NumPy calls with their operands bound, buffers
included.  Each thread keeps its own programs, one per row count up to
:data:`PROGRAM_CACHE_ROWS`, so a served row only copies its input in,
runs the calls and copies the output out.  Only the autograd/Python overhead is compiled away —
**every floating-point operation runs in the exact order the
interpreted path runs it**, so under :func:`repro.nn.batch_invariant`
the compiled outputs are bit-identical to ``package.predict``:

* ``x @ W`` executes as the same row-by-row stacked matmul that
  :func:`~repro.nn.tensor.invariant_matmul` runs, through the same
  ``[:, None]`` views (invariant mode), or BLAS ``matmul`` (fast mode),
  merely writing into a preallocated ``out`` instead of allocating;
* ``+ bias`` is the same broadcast add, in place;
* scaling is :class:`~repro.core.scaling.Scaler`'s ``(x - mean) / std``
  as a subtract then a divide, and unscaling its ``z * std + mean`` as a
  multiply then an add.  An identity scaler is not skipped: its
  ``+ 0.0`` turns ``-0.0`` into ``+0.0``, as the interpreter's does;
* activations replay the exact expressions of
  :class:`repro.nn.tensor.Tensor` (e.g. sigmoid's clip/negate/exp/add/
  divide chain) element-wise in place.

The 1-D conv/pool family (the CNN space of :mod:`repro.nn.cnn`) lowers
to **im2col with precomputed gather-index plans**: every tap of a
same-padded convolution becomes one gather through an index array baked
at compile time, followed by the exact per-tap product the
interpreter runs, accumulated tap-by-tap in the interpreter's order (a
single fused im2col gemm would *reorder* the accumulation and break
bit-identity, so we never do that).  Pooling and upsampling lower to the
same staged reduction and index gather the ``Tensor`` graph performs —
``mean`` replays as ``sum``-then-scale with the identical reciprocal,
never ``np.mean``.

No algebraic rewrites (no ``W1 @ W2`` folding) are performed — those
would change summation orders and break the bit-identity guarantee the
micro-batching server is built on.

A module that exposes no usable ``trace_spec`` raises
:class:`UntraceableModelError` (tagged with a ``reason``); the
orchestrator catches it and keeps serving that model on the interpreted
path.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from ..nn.tensor import invariant_matmul

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "PROGRAM_CACHE_ROWS",
    "UNTRACEABLE_KINDS",
    "UntraceableModelError",
    "untraceable_reason",
    "CompiledPlan",
    "compile_package",
    "plan_payload",
    "plan_from_payload",
]

#: bump when the step semantics or payload layout change — the schema
#: version is folded into every cache key, so old persisted plans are
#: invalidated for free instead of misinterpreted.  v2 added the
#: conv/pool/upsample step kinds, v3 the scale/unscale steps.
PLAN_SCHEMA_VERSION = 3

#: most rows a thread's cached program holds: each thread keeps one
#: program per row count up to this; a larger input runs a program
#: built for that call alone
PROGRAM_CACHE_ROWS = 32

#: matches the default of :meth:`repro.nn.tensor.Tensor.leaky_relu`
_LEAKY_SLOPE = 0.01

#: what still serves interpreted, by the ``reason`` label each fallback
#: is counted under (``repro_compile_untraceable_total``); surfaced by
#: ``repro compile list`` so operators can see the remaining gaps
UNTRACEABLE_KINDS = {
    "opaque": "callables without trace_spec hooks (raw lambdas, foreign models)",
    "unknown-module": "module kinds with no plan lowering yet",
    "conv": "conv/pool geometries the lowering rejects (non-dividing pool or view sizes)",
}


class UntraceableModelError(TypeError):
    """The module tree cannot lower to a plan; serve interpreted.

    ``reason`` is one of the :data:`UNTRACEABLE_KINDS` keys and feeds
    the ``reason`` label on ``repro_compile_untraceable_total``.
    """

    def __init__(self, message: str, *, reason: str = "unknown-module") -> None:
        super().__init__(message)
        self.reason = reason


def untraceable_reason(exc: BaseException) -> str:
    """Map a compile failure to its counter ``reason`` label.

    Foreign exceptions (a package without ``payload_meta``, a pickling
    surprise) classify as ``opaque``: the model is not something the
    tracer can even inspect.
    """
    reason = getattr(exc, "reason", None)
    if isinstance(reason, str) and reason in UNTRACEABLE_KINDS:
        return reason
    return "unknown-module" if isinstance(exc, UntraceableModelError) else "opaque"


def _relu(x: np.ndarray, out: np.ndarray) -> None:
    np.multiply(x, x > 0, out=out)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> None:
    # 1 / (1 + exp(-clip(x))) with the same clip bounds as Tensor.sigmoid
    np.clip(x, -60.0, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)


def _leaky_relu(x: np.ndarray, out: np.ndarray) -> None:
    np.multiply(x, np.where(x > 0, 1.0, _LEAKY_SLOPE), out=out)


def _identity(x: np.ndarray, out: np.ndarray) -> None:
    if x is not out:
        np.copyto(out, x)


#: ``act(x, out)`` per activation kind, replaying the Tensor op
#: expressions; ``x`` may be ``out`` (a fused step applies it in place).
#: Steps look theirs up once, at compile time.
_ACTIVATIONS = {
    "relu": _relu,
    "tanh": np.tanh,
    "sigmoid": _sigmoid,
    "leaky_relu": _leaky_relu,
}


def _activation(kind: str):
    return _ACTIVATIONS.get(kind, _identity)


class _GemmStep:
    """Fused ``y = act(x @ W + b)`` with weights folded as constants.

    The fusion removes three intermediate allocations per layer pair but
    keeps the float ops verbatim: the interpreter's product
    (:func:`invariant_matmul`'s stacked rows or BLAS ``matmul``) into
    ``out``, in-place broadcast bias add, in-place activation.
    """

    kind = "gemm"
    __slots__ = ("weight", "bias", "_bias_row", "act", "_act", "out_dim")

    def __init__(self, weight: np.ndarray, bias: np.ndarray, act: str = "identity") -> None:
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        # a (1, K) view: adding it to a one-row ``out`` is a same-shape
        # add, which skips NumPy's broadcast set-up (the sums are equal)
        self._bias_row = self.bias[None]
        self.act = act
        self._act = _activation(act)
        self.out_dim = int(self.weight.shape[1])

    def emit(self, x: np.ndarray, out: np.ndarray, invariant: bool, calls: list) -> None:
        if invariant and len(x) > 1:
            # invariant_matmul's (B, 1, F) @ (F, K) stack, its views bound
            # once; ``x`` is a C-contiguous program buffer, as it makes it
            calls.append((np.matmul, (x[:, None], self.weight, out[:, None])))
        else:
            # one row is one (1, F) @ (F, K) product either way
            calls.append((np.matmul, (x, self.weight, out)))
        calls.append((np.add, (out, self._bias_row, out)))
        if self._act is not _identity:
            calls.append((self._act, (out, out)))


class _ActStep:
    """A standalone activation (no preceding Dense/conv to fuse into)."""

    kind = "act"
    __slots__ = ("act", "_act", "out_dim")

    def __init__(self, act: str, out_dim: int) -> None:
        self.act = act
        self._act = _activation(act)
        self.out_dim = int(out_dim)

    def emit(self, x: np.ndarray, out: np.ndarray, invariant: bool, calls: list) -> None:
        calls.append((self._act, (x, out)))


class _ScalerStep:
    """A package scaler's float ops: ``scale`` runs ``(x - mean) / std``,
    ``unscale`` runs ``x * std + mean``, each into ``out`` in place."""

    __slots__ = ("kind", "mean", "std", "_mean_row", "_std_row", "out_dim")

    def __init__(self, kind: str, mean: np.ndarray, std: np.ndarray) -> None:
        self.kind = kind
        self.mean = np.ascontiguousarray(mean, dtype=np.float64)
        self.std = np.ascontiguousarray(std, dtype=np.float64)
        # (1, F) views, as _GemmStep's bias row: same sums, no broadcast set-up
        self._mean_row = self.mean[None]
        self._std_row = self.std[None]
        self.out_dim = int(self.mean.shape[0])

    def emit(self, x: np.ndarray, out: np.ndarray, invariant: bool, calls: list) -> None:
        if self.kind == "scale":
            calls.append((np.subtract, (x, self._mean_row, out)))
            calls.append((np.divide, (out, self._std_row, out)))
        else:
            calls.append((np.multiply, (x, self._std_row, out)))
            calls.append((np.add, (out, self._mean_row, out)))


class _ResidualStep:
    """``y = inner(x) + x`` with the inner chain compiled recursively.

    The inner steps write their final result straight into ``out`` and
    the skip connection is added in place — the same elementwise add the
    interpreted ``Residual.forward`` performs.
    """

    kind = "residual"
    __slots__ = ("steps", "out_dim")

    def __init__(self, steps: list, out_dim: int) -> None:
        self.steps = list(steps)
        self.out_dim = int(out_dim)

    def emit(self, x: np.ndarray, out: np.ndarray, invariant: bool, calls: list) -> None:
        if not self.steps:
            # Residual(identity): inner(x) + x == 2x
            calls.append((np.add, (x, x, out)))
            return
        _emit_steps(self.steps, x, out, invariant, calls)
        calls.append((np.add, (out, x, out)))


class _RunStep:
    """Mixin of the steps that enter a program as one call of their ``run``."""

    __slots__ = ()

    def emit(self, x: np.ndarray, out: np.ndarray, invariant: bool, calls: list) -> None:
        calls.append((self.run, (x, out, invariant)))


class _ConvScratch:
    """Per-thread working set of one conv step (padded/gather/tap/acc)."""

    __slots__ = ("capacity", "padded", "gathered", "tap", "acc")

    def __init__(self, batch: int, pad_shape: tuple, gat: int, accw: int) -> None:
        self.capacity = max(batch, 32)
        # the pad bands must read as the interpreter's concatenated zeros;
        # they are written once here and never touched again (only the
        # center region is overwritten per call)
        self.padded = np.zeros((self.capacity,) + pad_shape)
        self.gathered = np.empty((self.capacity, gat))
        self.tap = np.empty((self.capacity, accw))
        self.acc = np.empty((self.capacity, accw))


class _Conv1dStep(_RunStep):
    """Same-padded Conv1d as per-tap gathers + the interpreter's matmuls.

    ``taps_idx[k]`` maps the flattened padded signal to the im2col
    matrix of tap ``k`` — precomputed at compile time, so each tap is
    one ``np.take`` plus the exact product the autograd layer
    runs, accumulated tap-by-tap in the interpreter's order.
    """

    kind = "conv1d"
    __slots__ = (
        "weight", "bias", "act", "_act", "channels", "length",
        "out_channels", "taps_idx", "out_dim", "_tls",
    )

    def __init__(
        self, weight: np.ndarray, bias: np.ndarray, act: str,
        channels: int, length: int,
    ) -> None:
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        self.act = act
        self._act = _activation(act)
        self.channels = int(channels)
        self.length = int(length)
        kernel, c_in, c_out = self.weight.shape
        if c_in != self.channels:
            raise UntraceableModelError(
                f"Conv1d weight expects {c_in} channels, signal has "
                f"{self.channels}", reason="conv",
            )
        self.out_channels = int(c_out)
        self.out_dim = self.out_channels * self.length
        pad = kernel // 2
        padded_len = self.length + 2 * pad
        l_idx = np.arange(self.length)
        c_idx = np.arange(self.channels)
        self.taps_idx = np.stack([
            (c_idx[None, :] * padded_len + (k + l_idx)[:, None]).ravel()
            for k in range(kernel)
        ])
        self._tls = threading.local()

    def _scratch(self, batch: int) -> _ConvScratch:
        scratch = getattr(self._tls, "s", None)
        if scratch is None or scratch.capacity < batch:
            pad = self.weight.shape[0] // 2
            scratch = _ConvScratch(
                batch,
                (self.channels, self.length + 2 * pad),
                self.length * self.channels,
                self.length * self.out_channels,
            )
            self._tls.s = scratch
        return scratch

    def run(self, x: np.ndarray, out: np.ndarray, invariant: bool) -> None:
        batch, length = x.shape[0], self.length
        kernel = self.weight.shape[0]
        pad = kernel // 2
        s = self._scratch(batch)
        s.padded[:batch, :, pad:pad + length] = x.reshape(
            batch, self.channels, length
        )
        flat_padded = s.padded[:batch].reshape(batch, -1)
        gathered = s.gathered[:batch]
        gmat = gathered.reshape(batch * length, self.channels)
        acc = s.acc[:batch].reshape(batch * length, self.out_channels)
        tap = s.tap[:batch].reshape(batch * length, self.out_channels)
        for k in range(kernel):
            np.take(flat_padded, self.taps_idx[k], axis=1, out=gathered)
            target = acc if k == 0 else tap
            (invariant_matmul if invariant else np.matmul)(
                gmat, self.weight[k], target
            )
            if k:
                np.add(acc, tap, out=acc)
        acc3 = s.acc[:batch].reshape(batch, length, self.out_channels)
        acc3 += self.bias
        self._act(acc3, acc3)
        np.copyto(
            out.reshape(batch, self.out_channels, length),
            acc3.transpose(0, 2, 1),
        )


class _Pool1dStep(_RunStep):
    """Non-overlapping 1-D pooling as the interpreter's staged reduction.

    ``avg`` replays ``Tensor.mean`` exactly: a ``sum`` over the pool
    axis followed by a multiply with the same ``1.0 / pool`` reciprocal
    — never ``np.mean``, whose division differs in the last ulp.
    """

    kind = "pool1d"
    __slots__ = ("op", "pool", "channels", "length", "out_dim")

    def __init__(self, op: str, pool: int, channels: int, length: int) -> None:
        self.op = op
        self.pool = int(pool)
        self.channels = int(channels)
        self.length = int(length)
        self.out_dim = self.channels * (self.length // self.pool)

    def run(self, x: np.ndarray, out: np.ndarray, invariant: bool) -> None:
        batch = x.shape[0]
        blocks = x.reshape(
            batch, self.channels, self.length // self.pool, self.pool
        )
        target = out.reshape(batch, self.channels, self.length // self.pool)
        if self.op == "max":
            np.max(blocks, axis=3, out=target)
        else:
            np.sum(blocks, axis=3, out=target)
            target *= 1.0 / self.pool


class _Upsample1dStep(_RunStep):
    """Nearest-neighbour repeat as a single precomputed index gather."""

    kind = "upsample1d"
    __slots__ = ("factor", "channels", "length", "idx", "out_dim")

    def __init__(self, factor: int, channels: int, length: int) -> None:
        self.factor = int(factor)
        self.channels = int(channels)
        self.length = int(length)
        self.idx = np.repeat(np.arange(self.length), self.factor)
        self.out_dim = self.channels * self.length * self.factor

    def run(self, x: np.ndarray, out: np.ndarray, invariant: bool) -> None:
        batch = x.shape[0]
        np.take(
            x.reshape(batch, self.channels, self.length),
            self.idx,
            axis=2,
            out=out.reshape(batch, self.channels, self.length * self.factor),
        )


def _emit_steps(
    steps: list, x: np.ndarray, out: np.ndarray, invariant: bool, calls: list
) -> None:
    """Append the calls of a step chain: intermediates into fresh
    buffers of ``x``'s row count, the last step into ``out``."""
    last = len(steps) - 1
    for i, step in enumerate(steps):
        target = out if i == last else np.empty((len(x), step.out_dim))
        step.emit(x, target, invariant, calls)
        x = target


class _Program:
    """A plan's calls on ``n`` rows, operands and buffers bound.

    ``x`` is the input buffer and ``y`` the output (``x`` itself for a
    plan with no steps).  The buffers belong to the program, so a
    program serves one thread at a time.
    """

    __slots__ = ("x", "y", "calls")

    def __init__(self, plan: "CompiledPlan", n: int) -> None:
        self.x = np.empty((n, plan.input_dim))
        self.calls: list = []
        if plan.steps:
            self.y = np.empty((n, plan.output_dim))
            _emit_steps(plan.steps, self.x, self.y, plan.batch_invariant, self.calls)
        else:
            self.y = self.x


class CompiledPlan:
    """A specialized, flat executable form of one surrogate package.

    ``predict`` replicates the :meth:`SurrogatePackage.predict` contract
    exactly — 1-D input is one sample returning ``(output_dim,)``, 2-D
    input is a stacked batch, wrong feature counts raise ``ValueError``
    — so the orchestrator can substitute a plan for the package without
    any caller noticing (except in the latency histograms).

    The plan is specialized on ``batch_invariant`` at compile time; it
    does not consult the thread-local mode at run time.  The returned
    output array is freshly allocated per call (never a view of a
    program's buffers), so callers may keep or mutate it freely.
    """

    def __init__(
        self,
        steps: list,
        *,
        input_dim: int,
        output_dim: int,
        batch_invariant: bool = True,
    ) -> None:
        self.steps = list(steps)
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)
        self.batch_invariant = bool(batch_invariant)
        # per thread: row count -> _Program, for up to PROGRAM_CACHE_ROWS rows
        self._tls = threading.local()

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x)
        single = x.ndim == 1
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"surrogate expects {self.input_dim} input features, "
                f"got input of shape {x.shape}"
            )
        n = 1 if single else len(x)
        programs = getattr(self._tls, "programs", None)
        if programs is None:
            programs = self._tls.programs = {}
        program = programs.get(n)
        if program is None:
            program = _Program(self, n)
            if n <= PROGRAM_CACHE_ROWS:
                programs[n] = program
        # the float64 cast the interpreter's Tensor makes, into the buffer
        program.x[...] = x
        for f, args in program.calls:
            f(*args)
        return program.y[0].copy() if single else program.y.copy()

    __call__ = predict

    def num_steps(self) -> int:
        """Flat step count (residual inners included), for introspection."""

        def count(steps: list) -> int:
            total = 0
            for step in steps:
                total += 1
                if isinstance(step, _ResidualStep):
                    total += count(step.steps)
            return total

        return count(self.steps)

    def step_kinds(self) -> list[str]:
        """Sorted distinct step kinds (residual inners included)."""

        def walk(steps: list):
            for step in steps:
                yield step.kind
                if isinstance(step, _ResidualStep):
                    yield from walk(step.steps)

        return sorted(set(walk(self.steps)))


# -- tracing ---------------------------------------------------------------


def _flatten_spec(module) -> list:
    """Lower a module tree to a flat op list via its ``trace_spec`` hooks."""
    if not hasattr(module, "trace_spec"):
        raise UntraceableModelError(
            f"{type(module).__name__} declares no trace_spec; "
            "this model serves on the interpreted path",
            reason="opaque",
        )
    spec = module.trace_spec()
    if spec is None:
        raise UntraceableModelError(
            f"{type(module).__name__} declares no trace_spec; "
            "this model serves on the interpreted path",
            reason="unknown-module",
        )
    kind = spec[0]
    if kind == "sequential":
        ops: list = []
        for child in spec[1]:
            ops.extend(_flatten_spec(child))
        return ops
    if kind == "residual":
        return [("residual", _flatten_spec(spec[1]))]
    if kind in (
        "dense", "activation", "conv1d", "pool1d", "upsample1d",
        "signal_view", "flatten",
    ):
        return [spec]
    raise UntraceableModelError(
        f"unknown trace spec kind {kind!r}", reason="unknown-module"
    )


def _fused_act(ops: list, i: int) -> tuple[str, int]:
    """Activation fused into the op at ``i`` (and the index consumed to)."""
    if i + 1 < len(ops) and ops[i + 1][0] == "activation":
        return ops[i + 1][1], i + 1
    return "identity", i


def _lower(ops: list, in_dim: int, layout) -> tuple[list, int, Optional[tuple]]:
    """Partial evaluation with layout inference.

    ``layout`` tracks how the flat ``(B, dim)`` executor buffer is
    currently viewed: ``None`` for flat rows, ``("signal", C, L)`` for
    the 1-D conv family.  View adapters (SignalView/Flatten) are free —
    reshapes of a contiguous flat buffer move no data — so they lower to
    *no step at all*, just a layout change.
    """
    steps: list = []
    dim = in_dim
    i = 0
    while i < len(ops):
        op = ops[i]
        kind = op[0]
        if kind == "dense":
            if layout is not None:
                raise UntraceableModelError(
                    "dense layer applied to a non-flat layout",
                    reason="unknown-module",
                )
            act, i = _fused_act(ops, i)
            step = _GemmStep(op[1], op[2], act)
            steps.append(step)
            dim = step.out_dim
        elif kind == "activation":
            steps.append(_ActStep(op[1], dim))
        elif kind == "residual":
            inner, inner_dim, inner_layout = _lower(op[1], dim, layout)
            steps.append(_ResidualStep(inner, dim))
        elif kind == "signal_view":
            channels = int(op[1])
            if layout is not None or dim % channels:
                raise UntraceableModelError(
                    f"signal view of {channels} channels does not divide "
                    f"{dim} features", reason="conv",
                )
            layout = ("signal", channels, dim // channels)
        elif kind == "flatten":
            layout = None
        elif kind == "conv1d":
            if layout is None or layout[0] != "signal":
                raise UntraceableModelError(
                    "conv1d applied outside a signal layout", reason="conv"
                )
            act, i = _fused_act(ops, i)
            step = _Conv1dStep(op[1], op[2], act, layout[1], layout[2])
            steps.append(step)
            layout = ("signal", step.out_channels, layout[2])
            dim = step.out_dim
        elif kind == "pool1d":
            pool = int(op[2])
            if pool > 1:
                if layout is None or layout[0] != "signal" or layout[2] % pool:
                    raise UntraceableModelError(
                        f"1-D pool of {pool} does not divide the signal",
                        reason="conv",
                    )
                step = _Pool1dStep(op[1], pool, layout[1], layout[2])
                steps.append(step)
                layout = ("signal", layout[1], layout[2] // pool)
                dim = step.out_dim
        elif kind == "upsample1d":
            factor = int(op[1])
            if factor > 1:
                if layout is None or layout[0] != "signal":
                    raise UntraceableModelError(
                        "1-D upsample outside a signal layout", reason="conv"
                    )
                step = _Upsample1dStep(factor, layout[1], layout[2])
                steps.append(step)
                layout = ("signal", layout[1], layout[2] * factor)
                dim = step.out_dim
        else:  # unreachable: _flatten_spec validated the kinds
            raise UntraceableModelError(
                f"unknown op kind {kind!r}", reason="unknown-module"
            )
        i += 1
    return steps, dim, layout


def compile_package(package, *, batch_invariant: bool = True) -> CompiledPlan:
    """Trace and partially evaluate a surrogate package into a plan.

    The optional autoencoder's encoder is traced first, then the
    surrogate model; the whole chain compiles into one flat plan,
    between the x scaler's step and the y scaler's, each when present.

    Raises :class:`UntraceableModelError` (tagged with a ``reason``)
    for module trees with no plan lowering.
    """
    ops: list = []
    if package.autoencoder is not None:
        ops.extend(_flatten_spec(package.autoencoder.encoder))
    ops.extend(_flatten_spec(package.model))
    steps, _, _ = _lower(ops, package.input_dim, None)
    if package.x_scaler is not None:
        steps.insert(
            0, _ScalerStep("scale", package.x_scaler.mean, package.x_scaler.std)
        )
    if package.y_scaler is not None:
        steps.append(
            _ScalerStep("unscale", package.y_scaler.mean, package.y_scaler.std)
        )
    return CompiledPlan(
        steps,
        input_dim=package.input_dim,
        output_dim=package.output_dim,
        batch_invariant=batch_invariant,
    )


# -- persistence payload ----------------------------------------------------


def plan_payload(plan: CompiledPlan) -> tuple[dict, dict]:
    """Lower a plan to ``(json-safe meta, arrays)`` for the npz codec.

    Weights and biases persist verbatim (npz round-trips bytes exactly);
    conv gather indices are *derived* constants — rebuilt
    deterministically from the folded geometry at load time, so they
    never bloat the payload.
    """
    arrays: dict[str, np.ndarray] = {}

    def encode(steps: list, prefix: str) -> list:
        encoded = []
        for i, step in enumerate(steps):
            tag = f"{prefix}{i}"
            kind = step.kind
            if kind in ("scale", "unscale"):
                arrays[f"m_{tag}"] = step.mean
                arrays[f"d_{tag}"] = step.std
                encoded.append({"kind": kind, "id": tag})
            elif kind in ("gemm", "conv1d"):
                arrays[f"w_{tag}"] = step.weight
                arrays[f"b_{tag}"] = step.bias
                spec = {"kind": kind, "act": step.act, "id": tag}
                if kind == "conv1d":
                    spec.update(channels=step.channels, length=step.length)
                encoded.append(spec)
            elif kind == "act":
                encoded.append({"kind": "act", "act": step.act, "dim": step.out_dim})
            elif kind == "pool1d":
                encoded.append({
                    "kind": kind, "op": step.op, "pool": step.pool,
                    "channels": step.channels, "length": step.length,
                })
            elif kind == "upsample1d":
                encoded.append({
                    "kind": kind, "factor": step.factor,
                    "channels": step.channels, "length": step.length,
                })
            elif kind == "residual":
                encoded.append({
                    "kind": "residual",
                    "dim": step.out_dim,
                    "steps": encode(step.steps, tag + "_"),
                })
            else:
                raise ValueError(f"plan step kind {kind!r} has no payload form")
        return encoded

    meta = {
        "schema": PLAN_SCHEMA_VERSION,
        "input_dim": plan.input_dim,
        "output_dim": plan.output_dim,
        "batch_invariant": plan.batch_invariant,
        "steps": encode(plan.steps, "s"),
    }
    return meta, arrays


def plan_from_payload(meta: dict, arrays: dict) -> CompiledPlan:
    """Rebuild a plan from a persisted payload (arrays round-trip exactly
    through npz, so a disk hit is bit-identical to the plan it memoizes)."""
    if meta.get("schema") != PLAN_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported plan schema {meta.get('schema')!r} "
            f"(this build executes schema {PLAN_SCHEMA_VERSION})"
        )

    def decode(specs: list) -> list:
        steps: list = []
        for spec in specs:
            kind = spec["kind"]
            if kind in ("scale", "unscale"):
                steps.append(
                    _ScalerStep(
                        kind, arrays[f"m_{spec['id']}"], arrays[f"d_{spec['id']}"]
                    )
                )
            elif kind == "gemm":
                steps.append(
                    _GemmStep(
                        arrays[f"w_{spec['id']}"],
                        arrays[f"b_{spec['id']}"],
                        spec["act"],
                    )
                )
            elif kind == "act":
                steps.append(_ActStep(spec["act"], spec["dim"]))
            elif kind == "conv1d":
                steps.append(
                    _Conv1dStep(
                        arrays[f"w_{spec['id']}"], arrays[f"b_{spec['id']}"],
                        spec["act"], spec["channels"], spec["length"],
                    )
                )
            elif kind == "pool1d":
                steps.append(
                    _Pool1dStep(
                        spec["op"], spec["pool"], spec["channels"], spec["length"]
                    )
                )
            elif kind == "upsample1d":
                steps.append(
                    _Upsample1dStep(
                        spec["factor"], spec["channels"], spec["length"]
                    )
                )
            elif kind == "residual":
                steps.append(_ResidualStep(decode(spec["steps"]), spec["dim"]))
            else:
                raise ValueError(
                    f"unknown plan step kind {kind!r} in a schema "
                    f"{PLAN_SCHEMA_VERSION} payload"
                )
        return steps

    return CompiledPlan(
        decode(meta["steps"]),
        input_dim=meta["input_dim"],
        output_dim=meta["output_dim"],
        batch_invariant=meta["batch_invariant"],
    )
