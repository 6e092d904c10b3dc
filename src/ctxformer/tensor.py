"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 for training, float64 for verification);
each operation optionally records its inputs and a chain-rule closure so
`Tensor.backward()` can replay the graph in reverse topological order.
Gradients accumulate additively into `.grad`, which is what gradient
accumulation over micro-batches relies on.

A model's dtype flows through every node and every grad: a float32 model
computes in float32 end to end, a float64 one in float64. A Python scalar
operand (an `int` or `float`, `np.float64` included) takes the dtype of the
Tensor it meets in `add`, `mul` and `div`, so `x * math.sqrt(d)` on a
float32 `x` stays float32.

Softmax, log-softmax, sigmoid and the layer-norm standardisation are one
array kernel each (`softmax_array`, `log_softmax_array`, `sigmoid_array`,
`standardize`), run by the graph ops and by graph-free decoding alike.

All operations are deterministic for a fixed seed and BLAS thread count.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericsError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / oracle evals)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """N-dimensional real array with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    # -- introspection -------------------------------------------------

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
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- gradient machinery --------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        # The one place a grad takes its node's dtype. The first write copies:
        # g may be a view that other nodes also hold. A grad buffer that
        # exists is added to in place, never rebound.
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar; visits nodes exactly once.

        Populates `.grad` on every requires_grad leaf reachable from this
        value. Repeated calls add on top of existing gradients. Interior
        nodes' grads are released during the sweep: each is set to None
        once its chain-rule closure has passed it on, so after the call only
        leaves hold a `.grad`.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        # Interior grads are scratch space for this sweep; only leaves keep
        # accumulating across calls (micro-batch accumulation semantics).
        for node in topo:
            if node._backward_fn is not None:
                node.grad = None
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node.grad = None

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -other)

    def __rsub__(self, other):
        return add(-self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a Python scalar takes the other one's dtype."""
    if isinstance(b, (int, float)) and not isinstance(a, (int, float)):
        a = as_tensor(a)
        return a, Tensor(a.data.dtype.type(b))
    if isinstance(a, (int, float)) and not isinstance(b, (int, float)):
        b = as_tensor(b)
        return Tensor(b.data.dtype.type(a)), b
    return as_tensor(a), as_tensor(b)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = track
    if track:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data / b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            gb = -g * a.data / (b.data * b.data)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), bwd)


def relu(x) -> Tensor:
    x = as_tensor(x)
    data = np.maximum(x.data, 0)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return _make(data, (x,), bwd)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), from exp(-|x|) so that no exponent overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    data = sigmoid_array(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * data * (1.0 - data))

    return _make(data, (x,), bwd)


# -- shape manipulation ----------------------------------------------------


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.data.shape))

    return _make(data, (x,), bwd)


def transpose_last(x) -> Tensor:
    """Swap the last two axes."""
    x = as_tensor(x)
    data = np.swapaxes(x.data, -1, -2)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.swapaxes(g, -1, -2))

    return _make(data, (x,), bwd)


def transpose(x, axes) -> Tensor:
    """Permute the axes, as np.transpose."""
    x = as_tensor(x)
    axes = tuple(axes)
    data = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.transpose(g, inverse))

    return _make(data, (x,), bwd)


def broadcast_to(x, shape) -> Tensor:
    x = as_tensor(x)
    data = np.broadcast_to(x.data, shape).copy()

    def bwd(g):
        if x.requires_grad:
            x._accumulate(_unbroadcast(g, x.data.shape))

    return _make(data, (x,), bwd)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    extents = [p.data.shape[axis] for p in parts]

    def bwd(g):
        offset = 0
        for p, ext in zip(parts, extents):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + ext)
                p._accumulate(g[tuple(idx)])
            offset += ext

    return _make(data, tuple(parts), bwd)


# -- reductions -------------------------------------------------------------


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if x.requires_grad:
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(gg, x.data.shape))

    return _make(np.asarray(data), (x,), bwd)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        n = x.data.size
    else:
        n = x.data.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner extents disagree: {a.data.shape} x {b.data.shape}"
        )
    if b.data.ndim == 2:
        return _matmul_flat(a, b)
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), bwd)


def _matmul_flat(a: Tensor, b: Tensor) -> Tensor:
    """(..., d) x (d, k) as one (N, d) x (d, k) GEMM over the flattened rows.

    The weight gradient is then one GEMM too, a2^T g2, rather than one
    product per leading index followed by a sum over them.
    """
    a2 = a.data.reshape(-1, a.data.shape[-1])
    data = (a2 @ b.data).reshape(a.data.shape[:-1] + (b.data.shape[1],))

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            a._accumulate((g2 @ b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            b._accumulate(a2.T @ g2)

    return _make(data, (a, b), bwd)


# -- normalization and probability -------------------------------------------


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; -inf entries map to exactly zero weight."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def standardize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean) / sqrt(var + eps) over the last axis, and 1 / sqrt(var + eps).

    Each mean is sum / width: bitwise ndarray.mean, without its overhead."""
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt((centered**2).sum(axis=-1, keepdims=True) / d + eps)
    return centered * inv_std, inv_std


def softmax(x, axis: int = -1) -> Tensor:
    """Shift-invariant softmax; -inf entries map to exactly zero weight."""
    x = as_tensor(x)
    if not (-x.data.ndim <= axis < x.data.ndim):
        raise DimensionError(f"softmax axis {axis} out of range for rank {x.data.ndim}")
    data = softmax_array(x.data, axis)

    def bwd(g):
        if x.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            x._accumulate(data * (g - inner))

    return _make(data, (x,), bwd)


def masked_fill(x, keep_mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where keep_mask is False by `value` (no grad there)."""
    x = as_tensor(x)
    keep = np.asarray(keep_mask, dtype=bool)
    data = np.where(keep, x.data, x.data.dtype.type(value))

    def bwd(g):
        if x.requires_grad:
            x._accumulate(_unbroadcast(np.where(keep, g, 0.0), x.data.shape))

    return _make(data, (x,), bwd)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"layer_norm affine params must have shape ({d},), got "
            f"{gamma.data.shape} and {beta.data.shape}"
        )
    xhat, inv_std = standardize(x.data, eps)
    data = gamma.data * xhat + beta.data

    def bwd(g):
        reduce_axes = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=reduce_axes))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=reduce_axes))
        if x.requires_grad:
            gx_hat = g * gamma.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (gx_hat - m1 - xhat * m2))

    return _make(data, (x, gamma, beta), bwd)


# -- sequence ops -------------------------------------------------------------


def depthwise_causal_conv1d(s, w) -> Tensor:
    """Per-channel causal convolution with left zero-padding.

    out[..., t, c] = sum_j w[j, c] * s[..., t - j, c], out-of-range terms
    are zero, so position t never reads positions greater than t.
    A kernel (n, F, d) holds one (F, d) kernel per slice s[i] of an input
    (n, ..., T, d): stacked heads convolve in one call.
    """
    s, w = as_tensor(s), as_tensor(w)
    if w.data.ndim not in (2, 3):
        raise DimensionError(f"kernel must be (F, d) or (n, F, d), got {w.data.shape}")
    heads = w.data.shape[:-2]
    if s.data.ndim < 2 + len(heads) or s.data.shape[: len(heads)] != heads:
        raise DimensionError(
            f"input must be (..., T, d) with leading axes {heads} for kernel "
            f"{w.data.shape}, got {s.data.shape}"
        )
    taps, channels = w.data.shape[-2:]
    if taps < 1:
        raise DimensionError("kernel needs at least one tap")
    if channels != s.data.shape[-1]:
        raise DimensionError(
            f"kernel channel count {channels} != input channels {s.data.shape[-1]}"
        )
    t_len = s.data.shape[-2]
    # kern[j] is tap j shaped to broadcast against the input.
    kern = np.moveaxis(w.data, -2, 0).reshape(
        (taps,) + heads + (1,) * (s.data.ndim - 1 - len(heads)) + (channels,)
    )
    data = np.zeros_like(s.data)
    for j in range(min(taps, t_len)):
        data[..., j:, :] += kern[j] * s.data[..., : t_len - j, :]

    def bwd(g):
        if s.requires_grad:
            gs = np.zeros_like(s.data)
            for j in range(min(taps, t_len)):
                gs[..., : t_len - j, :] += kern[j] * g[..., j:, :]
            s._accumulate(gs)
        if w.requires_grad:
            gw = np.zeros_like(w.data)
            summed = tuple(range(len(heads), g.ndim - 1))
            for j in range(min(taps, t_len)):
                gw[..., j, :] = (g[..., j:, :] * s.data[..., : t_len - j, :]).sum(axis=summed)
            w._accumulate(gw)

    return _make(data, (s, w), bwd)


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add gradient into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise DataError(f"token ids must be integers, got dtype {ids.dtype}")
    vocab = table.data.shape[0]
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        pos = np.argwhere(bad)[0]
        raise DataError(
            f"token id {int(ids[tuple(pos)])} at position {tuple(int(i) for i in pos)} "
            f"outside vocabulary of size {vocab}"
        )
    data = table.data[ids]

    def bwd(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
            table._accumulate(gt)

    return _make(data, (table,), bwd)


def cross_entropy(logits, targets: np.ndarray, ignore_id: int = -1) -> Tensor:
    """Mean negative log-softmax probability over non-ignored positions."""
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise DataError(f"targets must be integers, got dtype {targets.dtype}")
    vocab = logits.data.shape[-1]
    if targets.shape != logits.data.shape[:-1]:
        raise DimensionError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    flat_logits = logits.data.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_id
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DataError("cross_entropy: every position is ignored")
    bad = valid & ((flat_targets < 0) | (flat_targets >= vocab))
    if bad.any():
        pos = int(np.argwhere(bad)[0][0])
        raise DataError(
            f"target id {int(flat_targets[pos])} at flat position {pos} "
            f"outside vocabulary of size {vocab}"
        )
    logp = log_softmax_array(flat_logits)
    rows = np.nonzero(valid)[0]
    picked = logp[rows, flat_targets[rows]]
    data = np.asarray(-picked.sum() / n_valid, dtype=logits.data.dtype)

    def bwd(g):
        if not logits.requires_grad:
            return
        grad = np.exp(logp)
        grad[rows, flat_targets[rows]] -= 1.0
        grad[~valid] = 0.0
        grad *= float(g) / n_valid
        logits._accumulate(grad.reshape(logits.data.shape))

    return _make(data, (logits,), bwd)


# -- stochastic regularizers ---------------------------------------------------


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Zero each element with probability p and rescale survivors by 1/(1-p)."""
    if not (0.0 <= p < 1.0):
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    if p == 0.0:
        return x
    scale = 1.0 / (1.0 - p)
    keep = rng.random(x.data.shape, dtype=x.data.dtype) >= p
    mask = keep.astype(x.data.dtype) * x.data.dtype.type(scale)
    data = x.data * mask

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return _make(data, (x,), bwd)


# -- verification ---------------------------------------------------------------


@dataclass
class FiniteDifferenceReport:
    max_rel_error: float
    tol: float
    passed: bool
    n_checked: int

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"finite-difference check: {status} "
            f"(max rel error {self.max_rel_error:.3e} vs tol {self.tol:.1e}, "
            f"{self.n_checked} coordinates)"
        )


def finite_difference_check(
    f,
    x: Tensor,
    h: float = 1e-4,
    tol: float = 1e-4,
    max_entries: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> FiniteDifferenceReport:
    """Compare autograd gradients of scalar f(x) against central differences.

    Rejects non-deterministic f (two forward evaluations must agree bitwise),
    so dropout in training mode is caught explicitly. The error metric is
    |fd - ad| / max(1, |fd|, |ad|), reported as a maximum over the checked
    coordinates; `max_entries` subsamples coordinates for large tensors.
    """
    probe = Tensor(x.data.astype(np.float64).copy(), requires_grad=True)
    with no_grad():
        y1 = f(probe)
        y2 = f(probe)
    if y1.data.shape != () and y1.data.size != 1:
        raise DimensionError(f"f must be scalar-valued, got shape {y1.data.shape}")
    if not np.array_equal(y1.data, y2.data):
        raise NumericsError(
            "f is not deterministic (e.g. dropout in training mode); "
            "finite differences would be meaningless"
        )
    loss = f(probe)
    loss.backward()
    auto = probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)

    flat = probe.data.reshape(-1)
    n = flat.size
    if max_entries is not None and max_entries < n:
        gen = rng if rng is not None else np.random.default_rng(0)
        indices = gen.choice(n, size=max_entries, replace=False)
    else:
        indices = np.arange(n)

    auto_flat = auto.reshape(-1)
    worst = 0.0
    with no_grad():
        for i in indices:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f(probe).data.reshape(()))
            flat[i] = orig - h
            f_minus = float(f(probe).data.reshape(()))
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            ad = float(auto_flat[i])
            err = abs(fd - ad) / max(1.0, abs(fd), abs(ad))
            if err > worst:
                worst = err
    return FiniteDifferenceReport(
        max_rel_error=worst, tol=tol, passed=worst <= tol, n_checked=len(indices)
    )
