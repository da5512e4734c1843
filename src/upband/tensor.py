"""Reverse-mode automatic differentiation on flat numpy arrays.

A module-level tape records every primitive applied to a tensor that
requires gradients. ``backward`` replays the tape once in reverse and
removes the loss's ancestors from it as it goes, each node with its saved
arrays and its output gradient once its backward function has run; other
nodes stay for a later backward. Gradients add into the ``.grad`` of the
loss's leaves only, never of an intermediate tensor. Float32 is the
working precision; float64 is used by the tests' finite-difference
checker. The module needs numpy only: ``gelu`` takes erf from a float32
rational approximation (GELU within 1.4e-6 of its float64 value) and, for
float64 inputs, from ``math.erf``.

Every operand of a primitive is a ``Tensor``, with one exception: the
second operand of ``add``/``sub``/``mul`` is a tensor of the same shape, or
a constant: a Python or numpy scalar or array, cast to the first operand's
dtype, that must broadcast to its shape. A constant is not a node input and
gets no gradient; ``mul(x32, 0.5)`` stays float32 and ``mul(x64, 0.5)``
float64 under NumPy 1.x and 2.x promotion alike. Primitives that need a
broadcast internally (bias in ``linear``/``conv1d_grouped``, gain/shift in
``layer_norm``) handle it themselves. ``tsum`` and ``tmean`` reduce every
element to a scalar.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Float32 erf(z) = z * P(z^2) / Q(z^2) on z clamped to [-4, 4], beyond which
# erf rounds to +-1 in float32: Eigen's and XLA's rational approximation (odd
# degree 13 over even degree 8), coefficients from the highest power down.
_ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                   -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                   -1.60960333262415e-02], dtype=np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
_math_erf = np.frompyfunc(math.erf, 1, 1)
# elements per pass of gelu: three float32 scratch blocks of 128 KiB stay in
# the L2 cache, where whole-array passes would stream every temporary from memory
GELU_BLOCK = 32768


class Tensor:
    """N-dimensional array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
        self.out = out
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed primitives (topological by construction)."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.enabled = True


_tape = Tape()


def active_tape() -> Tape:
    return _tape


def reset_tape() -> None:
    _tape.nodes.clear()


class no_grad:
    """Context manager: disable tape recording (inference / oracles)."""

    def __enter__(self):
        self._prev = _tape.enabled
        _tape.enabled = False
        return self

    def __exit__(self, *exc):
        _tape.enabled = self._prev
        return False


def _result(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    requires = _tape.enabled and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires)
    if requires:
        _tape.nodes.append(_Node(out, inputs, backward_fn))
    return out


def _operand(a: Tensor, b, op: str) -> tuple[np.ndarray, tuple[Tensor, ...]]:
    """The data of ``op(a, b)``'s second operand and the node's inputs: a
    tensor ``b`` is an input, a constant is not."""
    if isinstance(b, Tensor):
        if b.shape != a.shape:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} must match exactly")
        return b.data, (a, b)
    c = np.asarray(b, dtype=a.dtype)
    try:
        np.broadcast_to(c, a.shape)
    except ValueError:
        raise ShapeError(f"{op}: constant of shape {c.shape} does not broadcast to "
                         f"{a.shape}") from None
    return c, (a,)


# ---------------------------------------------------------------------------
# binary / unary elementwise


def add(a: Tensor, b) -> Tensor:
    bd, inputs = _operand(a, b, "add")
    return _result(a.data + bd, inputs, lambda g: (g,) * len(inputs))


def sub(a: Tensor, b) -> Tensor:
    bd, inputs = _operand(a, b, "sub")
    return _result(a.data - bd, inputs, lambda g: (g, -g) if len(inputs) == 2 else (g,))


def mul(a: Tensor, b) -> Tensor:
    bd, inputs = _operand(a, b, "mul")
    return _result(a.data * bd, inputs,
                   lambda g: (g * bd, g * a.data) if len(inputs) == 2 else (g * bd,))


def tabs(a: Tensor) -> Tensor:
    return _result(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    # 1 where a > 0, else slope (NaN included): for 0 <= slope <= 1 a maximum
    # gives np.where(a > 0, 1.0, slope)'s bytes without its per-element select
    scale = (a.data > 0).astype(a.dtype)
    np.maximum(scale, a.dtype.type(slope), out=scale)
    return _result(a.data * scale, (a,), lambda g: (g * scale,))


def _horner(coeffs: np.ndarray, z2: np.ndarray, out: np.ndarray) -> None:
    """The polynomial with ``coeffs`` (highest power first) at z2, into out."""
    np.multiply(z2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= z2
    out += coeffs[-1]


def _normal_cdf(x: np.ndarray, out: np.ndarray, z: np.ndarray, z2: np.ndarray) -> None:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))) of a block x into out; z and z2
    are scratch of x's size."""
    np.multiply(x, _INV_SQRT2, out=z)
    if x.dtype == np.float64:  # only gradient checks run GELU in float64
        out[...] = _math_erf(z)
    else:
        np.clip(z, -4.0, 4.0, out=z)
        np.multiply(z, z, out=z2)
        _horner(_ERF_P, z2, out)
        out *= z                       # the numerator; z is free after this
        _horner(_ERF_Q, z2, z)
        out /= z
        np.clip(out, -1.0, 1.0, out=out)  # the ratio overshoots +-1 by an ulp near |z| = 4
    out += 1.0
    out *= 0.5


def _gelu_blocks(x: np.ndarray, g: Optional[np.ndarray] = None) -> np.ndarray:
    """GELU x * Phi(x), or with g its input gradient g * (Phi(x) + x * phi(x)),
    evaluated GELU_BLOCK elements at a time into a fresh array of x's shape."""
    xf = np.ascontiguousarray(x).reshape(-1)
    gf = None if g is None else np.ascontiguousarray(g, dtype=x.dtype).reshape(-1)
    out = np.empty(x.shape, dtype=x.dtype)
    of = out.reshape(-1)
    cdf, s1, s2 = (np.empty(min(GELU_BLOCK, xf.size), dtype=x.dtype) for _ in range(3))
    for i in range(0, xf.size, GELU_BLOCK):
        xb = xf[i:i + GELU_BLOCK]
        n = xb.size
        c, pdf = cdf[:n], s1[:n]
        _normal_cdf(xb, c, pdf, s2[:n])
        if gf is None:
            np.multiply(xb, c, out=of[i:i + n])
            continue
        np.multiply(xb, -0.5, out=pdf)
        pdf *= xb
        np.exp(pdf, out=pdf)
        pdf *= _INV_SQRT2PI
        pdf *= xb
        pdf += c
        np.multiply(gf[i:i + n], pdf, out=of[i:i + n])
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: 0.5 * x * (1 + erf(x / sqrt(2))).

    Float32 takes erf from the rational approximation ``_ERF_P / _ERF_Q``,
    clipped to [-1, 1]: the result is within 1.4e-6 of float64 GELU (largest
    near x = 5.6), x >= 5.66 returns x and x <= -5.66 returns -0. Float64
    takes ``math.erf``. Both run in blocks of ``GELU_BLOCK`` elements, and
    the backward pass recomputes Phi(x) from x instead of keeping it.
    """
    x = a.data
    return _result(_gelu_blocks(x), (a,), lambda g: (_gelu_blocks(x, g),))


def max_with_scalar(a: Tensor, c: float) -> Tensor:
    mask = a.data > c
    return _result(np.where(mask, a.data, a.dtype.type(c)), (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor) -> Tensor:
    """Sum of every element."""
    return _result(np.asarray(np.sum(a.data), dtype=a.dtype), (a,),
                   lambda g: (np.broadcast_to(g, a.shape).astype(a.dtype),))


def tmean(a: Tensor) -> Tensor:
    """Mean of every element."""
    return mul(tsum(a), 1.0 / a.size)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    return _result(np.ascontiguousarray(a.data.transpose(axes)), (a,),
                   lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    return _result(out, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


# ---------------------------------------------------------------------------
# linear algebra


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for x [..., d] and a 2-D w as one 2-D GEMM over the rows of x;
    numpy's batched product calls one GEMM per batch entry, which is slower.
    The two agree bit for bit when each batch entry has 17 rows or more (on
    OpenBLAS 0.3.31, at the preset widths); with fewer, OpenBLAS picks other
    kernels and the last bits can differ."""
    out = x.reshape(-1, x.shape[-1]) @ w
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for two inputs of equal rank and batch shape, or a batched a
    [..., n, d] times a 2-D b [d, m]."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: inputs must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    if b.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dimensions differ for shapes {a.shape} and {b.shape}")
    rows = a.ndim > 2 and b.ndim == 2  # a stationary weight: one GEMM over all rows of a
    out = _rows_matmul(a.data, b.data) if rows else np.matmul(a.data, b.data)

    def bwd(g):
        da = _rows_matmul(g, b.data.T) if rows else np.matmul(g, np.swapaxes(b.data, -1, -2))
        db = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if rows:  # sum the weight's gradient over the batch
            db = db.reshape((-1,) + b.shape).sum(axis=0)
        return (da, db)

    return _result(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over leading axes. x: [..., d_in], w: [d_in, d_out], b: [d_out]."""
    if x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: incompatible shapes x={x.shape} w={w.shape} b={b.shape}")
    out = _rows_matmul(x.data, w.data)
    out += b.data

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x.data.reshape(-1, x.shape[-1])
        return (_rows_matmul(g, w.data.T), np.matmul(x2.T, g2), g2.sum(axis=0))

    return _result(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# grouped 1-D convolution


def conv1d_grouped(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0,
                   groups: int = 1) -> Tensor:
    """Grouped 1-D convolution over the last (time) axis.

    x: [B, C_in, T]; w: [C_out, C_in/groups, k]; b: [C_out].
    Output time length is floor((T + 2*padding - k) / stride) + 1. Channel
    group i of the output depends only on channel group i of the input.

    Lowered per kernel tap: tap j is the strided view
    ``xp[:, :, j:j + span:stride]`` of the (zero-padded) input, and its
    batched product with ``w[..., j]`` adds straight into the output, so the
    forward pass copies no window. The backward pass computes dx, dw and db
    only for the inputs that require gradients.
    """
    if x.ndim != 3 or w.ndim != 3 or b.ndim != 1:
        raise ShapeError(f"conv1d_grouped: expected x [B,C,T], w [C_out,C_in/g,k], b [C_out]; "
                         f"got {x.shape}, {w.shape}, {b.shape}")
    B, c_in, t_in = x.shape
    c_out, c_in_g, k = w.shape
    g = int(groups)
    if k < 1 or stride < 1:
        raise ShapeError(f"conv1d_grouped: kernel {k} and stride {stride} must be >= 1")
    if c_in % g != 0 or c_out % g != 0 or c_in_g != c_in // g:
        raise ConfigError(f"conv1d_grouped: C_in={c_in} and C_out={c_out} must both be "
                          f"divisible by groups={g} (weight has {c_in_g} channels per group)")
    if b.shape[0] != c_out:
        raise ShapeError(f"conv1d_grouped: bias length {b.shape[0]} != C_out {c_out}")
    t_out = (t_in + 2 * padding - k) // stride + 1
    if t_out < 1:
        raise ShapeError(f"conv1d_grouped: input length {t_in} too short for kernel {k}, "
                         f"stride {stride}, padding {padding}")

    c_out_g = c_out // g
    span = (t_out - 1) * stride + 1
    if padding:
        xp = np.zeros((B, c_in, t_in + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + t_in] = x.data
    else:
        xp = x.data
    wt = np.ascontiguousarray(w.data.reshape(g, c_out_g, c_in_g, k).transpose(3, 0, 1, 2))

    def tap(j: int) -> np.ndarray:  # [B, g, c_in_g, t_out], a view of xp
        return xp[:, :, j:j + span:stride].reshape(B, g, c_in_g, t_out)

    out = np.matmul(wt[0], tap(0))                     # [B, g, c_out_g, t_out]
    for j in range(1, k):
        out += np.matmul(wt[j], tap(j))
    out = out.reshape(B, c_out, t_out)
    out += b.data[:, None]

    def bwd(grad):
        gg = grad.reshape(B, g, c_out_g, t_out)
        dx = dw = db = None
        if x.requires_grad:
            dxp = np.zeros(xp.shape, dtype=xp.dtype)
            for j in range(k):
                dxp[:, :, j:j + span:stride] += np.matmul(
                    wt[j].transpose(0, 2, 1), gg).reshape(B, c_in, t_out)
            dx = dxp[:, :, padding:padding + t_in]
        if w.requires_grad:
            # the batch joins the contraction: one product per group and tap,
            # where a product per batch entry and a sum over them is slower
            ggt = np.ascontiguousarray(gg.transpose(1, 2, 0, 3)).reshape(g, c_out_g, B * t_out)
            dw = np.empty((g, c_out_g, c_in_g, k), dtype=w.dtype)
            for j in range(k):
                tj = np.ascontiguousarray(tap(j).transpose(1, 2, 0, 3))
                dw[..., j] = np.matmul(ggt, tj.reshape(g, c_in_g, B * t_out).transpose(0, 2, 1))
            dw = dw.reshape(c_out, c_in_g, k)
        if b.requires_grad:
            db = grad.sum(axis=(0, 2))
        return (dx, dw, db)

    return _result(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# softmax / layer norm


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    peak = np.max(a.data, axis=axis, keepdims=True)
    if np.isnan(peak).any():  # max propagates NaN, so any NaN reaches its row's peak
        raise NumericError("softmax: NaN in input")
    out = a.data - peak
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeError(f"layer_norm: gain/shift must have shape ({d},), got {gain.shape}/{shift.shape}")
    y = x.data - np.mean(x.data, axis=-1, keepdims=True)
    out = y * y  # the squares' buffer becomes the output
    var = np.mean(out, axis=-1, keepdims=True)  # np.var's sum and divide, bit for bit
    inv = 1.0 / np.sqrt(var + eps)
    y *= inv
    np.multiply(y, gain.data, out=out)
    out += shift.data

    def bwd(g):
        gy = g * gain.data
        dx = inv * (gy - np.mean(gy, axis=-1, keepdims=True)
                    - y * np.mean(gy * y, axis=-1, keepdims=True))
        dgain = np.sum(g * y, axis=tuple(range(x.ndim - 1)))
        dshift = np.sum(g, axis=tuple(range(x.ndim - 1)))
        return (dx.astype(x.dtype), dgain, dshift)

    return _result(out, (x, gain, shift), bwd)


# ---------------------------------------------------------------------------
# backward


def _add_input_grads(grads: dict[int, tuple[Tensor, np.ndarray]], inputs: Sequence[Tensor],
                     in_grads) -> None:
    """Add one node's input gradients into ``grads``, in input order."""
    for inp, gin in zip(inputs, in_grads):
        if not inp.requires_grad:
            continue
        key = id(inp)
        if key in grads:
            grads[key] = (inp, grads[key][1] + gin)
        else:
            grads[key] = (inp, gin)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every leaf of the loss: each
    requires-grad ancestor that no node of this pass produced, such as a
    parameter or the output of a node an earlier backward consumed.
    Intermediate tensors get no ``.grad``.

    The loss must be a scalar produced on the active tape. The pass walks
    the tape in reverse and frees as it goes: a node's output gradient
    leaves the pass when the node is reached, and the node, with the arrays
    its backward function saved, leaves the tape once that function has run.
    The nodes off the loss's path stay, in order: a node two losses share is
    consumed by the first backward. Leaf gradients are assigned at the end,
    so if a backward function raises, no ``.grad`` changes and the tape
    keeps, in order, every node not yet consumed, the failing one included.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = _tape.nodes
    if not any(n.out is loss for n in nodes):
        raise ShapeError("backward: loss was not produced on the active tape "
                         "(tape empty or already consumed)")
    grads: dict[int, tuple[Tensor, np.ndarray]] = {
        id(loss): (loss, np.ones_like(loss.data))
    }
    kept: list[_Node] = []  # the nodes off the loss's path, last first
    try:
        while nodes:
            entry = grads.pop(id(nodes[-1].out), None)
            if entry is None:
                kept.append(nodes.pop())
                continue
            in_grads = nodes[-1].backward_fn(entry[1])
            # the node leaves with its saved arrays, and its output gradient
            # with it, before its input gradients are added up; those go
            # before the next node's backward function runs
            inputs = nodes.pop().inputs
            del entry
            _add_input_grads(grads, inputs, in_grads)
            del in_grads
    finally:
        nodes.extend(reversed(kept))
    for tensor, g in grads.values():
        tensor.grad = g if tensor.grad is None else tensor.grad + g
