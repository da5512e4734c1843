"""Reverse-mode automatic differentiation on flat numpy arrays.

A module-level tape records every primitive applied to a tensor that
requires gradients. ``backward`` replays the tape once in reverse,
accumulates gradients additively into every requires-grad tensor on the
path, and removes the loss's ancestors from the tape; other nodes stay for
a later backward. Float32 is the working precision; float64 is used by the
finite-difference checker.

The first operand of ``add``/``sub``/``mul`` is a tensor. The second is a
tensor of the same shape, or a constant: a Python or numpy scalar or array,
cast to the first operand's dtype, that must broadcast to its shape. A
constant is not a node input and gets no gradient; ``mul(x32, 0.5)`` stays
float32 and ``mul(x64, 0.5)`` float64 under NumPy 1.x and 2.x promotion
alike. Primitives that need a broadcast internally (bias in
``linear``/``conv1d_grouped``, gain/shift in ``layer_norm``) handle it
themselves.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf

from .errors import ConfigError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


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

    def zero_grad(self) -> None:
        self.grad = None

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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def tabs(a) -> Tensor:
    a = _as_tensor(a)
    return _result(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    scale = np.where(mask, 1.0, slope).astype(a.dtype)
    return _result(a.data * scale, (a,), lambda g: (g * scale,))


def gelu(a) -> Tensor:
    """Exact Gaussian-error-linear unit: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = _as_tensor(a)
    x = a.data
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        return ((g * (cdf + x * pdf)).astype(x.dtype),)

    return _result(out, (a,), bwd)


def max_with_scalar(a, c: float) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > c
    return _result(np.where(mask, a.data, a.dtype.type(c)), (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis: Optional[int] = None) -> Tensor:
    a = _as_tensor(a)
    if axis is not None and not (-a.ndim <= axis < a.ndim):
        raise ShapeError(f"sum: axis {axis} out of range for rank {a.ndim}")
    out = np.sum(a.data, axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(a.dtype),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).astype(a.dtype),)

    return _result(np.asarray(out, dtype=a.dtype), (a,), bwd)


def tmean(a, axis: Optional[int] = None) -> Tensor:
    a = _as_tensor(a)
    if axis is not None and not (-a.ndim <= axis < a.ndim):
        raise ShapeError(f"mean: axis {axis} out of range for rank {a.ndim}")
    count = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / count)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inv = np.argsort(axes)
    return _result(np.ascontiguousarray(a.data.transpose(axes)), (a,),
                   lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
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


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: inputs must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    if a.ndim != b.ndim and min(a.ndim, b.ndim) != 2:
        raise ShapeError(f"matmul: batch ranks incompatible for shapes {a.shape} and {b.shape}")
    if a.ndim == b.ndim and a.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dimensions differ for shapes {a.shape} and {b.shape}")
    rows = a.ndim > 2 and b.ndim == 2  # a stationary weight: one GEMM over all rows of a
    out = _rows_matmul(a.data, b.data) if rows else np.matmul(a.data, b.data)

    def bwd(g):
        da = _rows_matmul(g, b.data.T) if rows else np.matmul(g, np.swapaxes(b.data, -1, -2))
        db = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if da.shape != a.shape:  # a was a stationary 2-D factor under a batched product
            da = da.reshape((-1,) + a.shape).sum(axis=0)
        if db.shape != b.shape:
            db = db.reshape((-1,) + b.shape).sum(axis=0)
        return (da, db)

    return _result(out, (a, b), bwd)


def linear(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over leading axes. x: [..., d_in], w: [d_in, d_out], b: [d_out]."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
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


def conv1d_grouped(x, w, b, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 1-D convolution over the last (time) axis.

    x: [B, C_in, T]; w: [C_out, C_in/groups, k]; b: [C_out].
    Output time length is floor((T + 2*padding - k) / stride) + 1. Channel
    group i of the output depends only on channel group i of the input.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
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
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    s0, s1, s2 = xp.strides
    win = as_strided(xp, shape=(B, g, c_in_g, t_out, k),
                     strides=(s0, s1 * c_in_g, s1, s2 * stride, s2))
    # lower to batched GEMM: [B,g,t,ck] @ [g,ck,o]
    win2 = np.ascontiguousarray(win.transpose(0, 1, 3, 2, 4)).reshape(B, g, t_out, c_in_g * k)
    wg2 = w.data.reshape(g, c_out_g, c_in_g * k).transpose(0, 2, 1)
    out = np.matmul(win2, wg2)                       # [B, g, t_out, c_out_g]
    out = out.transpose(0, 1, 3, 2).reshape(B, c_out, t_out) + b.data[None, :, None]

    def bwd(grad):
        gg = grad.reshape(B, g, c_out_g, t_out).transpose(0, 1, 3, 2)  # [B,g,t,o]
        gg = np.ascontiguousarray(gg)
        dw = np.matmul(win2.transpose(0, 1, 3, 2), gg).sum(axis=0)     # [g,ck,o]
        dw = dw.transpose(0, 2, 1).reshape(c_out, c_in_g, k)
        db = grad.sum(axis=(0, 2))
        dwin = np.matmul(gg, wg2.transpose(0, 2, 1))                   # [B,g,t,ck]
        dwin = dwin.reshape(B, g, t_out, c_in_g, k).transpose(0, 1, 3, 2, 4)
        dwin = dwin.reshape(B, c_in, t_out, k)
        dxp = np.zeros_like(xp)
        span = (t_out - 1) * stride + 1
        for j in range(k):
            dxp[:, :, j:j + span:stride] += dwin[:, :, :, j]
        dx = dxp[:, :, padding:padding + t_in]
        return (dx, dw, db)

    return _result(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# softmax / layer norm


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    peak = np.max(a.data, axis=axis, keepdims=True)
    if np.isnan(peak).any():  # max propagates NaN, so any NaN reaches its row's peak
        raise NumericError("softmax: NaN in input")
    shifted = a.data - peak
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (a,), bwd)


def layer_norm(x, gain, shift, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    x, gain, shift = _as_tensor(x), _as_tensor(gain), _as_tensor(shift)
    d = x.shape[-1]
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeError(f"layer_norm: gain/shift must have shape ({d},), got {gain.shape}/{shift.shape}")
    xc = x.data - np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean(xc * xc, axis=-1, keepdims=True)  # np.var's sum and divide, bit for bit
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = y * gain.data + shift.data

    def bwd(g):
        gy = g * gain.data
        dx = inv * (gy - np.mean(gy, axis=-1, keepdims=True)
                    - y * np.mean(gy * y, axis=-1, keepdims=True))
        dgain = np.sum(g * y, axis=tuple(range(x.ndim - 1)))
        dshift = np.sum(g, axis=tuple(range(x.ndim - 1)))
        return (dx.astype(x.dtype), dgain, dshift)

    return _result(out.astype(x.dtype, copy=False), (x, gain, shift), bwd)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every requires-grad ancestor.

    The loss must be a scalar produced on the active tape. The nodes it
    propagates through are removed from the tape, the rest stay: a node two
    losses share is consumed by the first backward.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not any(n.out is loss for n in _tape.nodes):
        raise ShapeError("backward: loss was not produced on the active tape "
                         "(tape empty or already consumed)")
    grads: dict[int, tuple[Tensor, np.ndarray]] = {
        id(loss): (loss, np.ones_like(loss.data))
    }
    for node in reversed(_tape.nodes):
        entry = grads.get(id(node.out))
        if entry is None:
            continue
        gout = entry[1]
        in_grads = node.backward_fn(gout)
        for inp, gin in zip(node.inputs, in_grads):
            if gin is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in grads:
                grads[key] = (inp, grads[key][1] + gin)
            else:
                grads[key] = (inp, gin)
    for tensor, g in grads.values():
        if tensor.requires_grad:
            tensor.grad = g if tensor.grad is None else tensor.grad + g
    _tape.nodes[:] = [n for n in _tape.nodes if id(n.out) not in grads]


# ---------------------------------------------------------------------------
# finite-difference oracle


def numeric_gradient(fn: Callable[[Sequence[Tensor]], Tensor], inputs: Sequence[Tensor],
                     eps: Optional[float] = None) -> list[np.ndarray]:
    """Central finite differences of a scalar-valued fn w.r.t. each input."""
    grads = []
    with no_grad():
        for t in inputs:
            flat = t.data.reshape(-1)
            scale = max(1.0, float(np.max(np.abs(flat))) if flat.size else 1.0)
            h = eps if eps is not None else (1e-3 * scale if t.dtype == np.float32 else 1e-6 * scale)
            g = np.zeros_like(flat, dtype=np.float64)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(fn(inputs).data)
                flat[i] = orig - h
                fm = float(fn(inputs).data)
                flat[i] = orig
                g[i] = (fp - fm) / (2.0 * h)
            grads.append(g.reshape(t.shape).astype(t.dtype))
    return grads


def check_gradients(fn: Callable[[Sequence[Tensor]], Tensor], inputs: Sequence[Tensor],
                    rel_tol: float, eps: Optional[float] = None) -> float:
    """Compare analytic gradients of scalar fn against central differences.

    Returns the worst relative error; raises NumericError when it exceeds
    rel_tol. Inputs must all have requires_grad set.
    """
    reset_tape()
    for t in inputs:
        t.zero_grad()
    loss = fn(inputs)
    backward(loss)
    numeric = numeric_gradient(fn, inputs, eps=eps)
    worst = 0.0
    for t, num in zip(inputs, numeric):
        if t.grad is None:
            raise NumericError("check_gradients: input missing analytic gradient")
        denom = max(float(np.max(np.abs(num))), float(np.max(np.abs(t.grad))), 1e-8)
        err = float(np.max(np.abs(t.grad.astype(np.float64) - num.astype(np.float64)))) / denom
        worst = max(worst, err)
    if worst > rel_tol:
        raise NumericError(f"gradient check failed: max relative error {worst:.3e} > {rel_tol:.1e}")
    return worst
