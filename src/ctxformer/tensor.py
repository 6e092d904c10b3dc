"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 for training, float64 for verification);
each operation optionally records its inputs and a chain-rule closure so
`Tensor.backward()` can replay the graph in reverse topological order.
Gradients accumulate additively into `.grad`, which is what gradient
accumulation over micro-batches relies on.

Grad ownership: a leaf's grad is its own buffer, allocated on its first
contribution (or by its owner, as a model does at build) and added to in
place. An interior node borrows the first grad it is given, without a
copy: that array may also be another node's grad, or a view of one. A
later contribution adds out of place into a buffer the node allocates,
and further ones add in place into that buffer. So no backward closure may
write into its incoming grad; each one computes new arrays from it.

A model's dtype flows through every node and every grad: a float32 model
computes in float32 end to end, a float64 one in float64. A Python scalar
operand (an `int` or `float`, `np.float64` included) takes the dtype of the
Tensor it meets in `add` and `mul`, so `mul(x, math.sqrt(d))` on a
float32 `x` stays float32.

Softmax, log-softmax, sigmoid and the layer-norm standardisation are one
array kernel each (`softmax_array`, `log_softmax_array`, `sigmoid_array`,
`standardize`), run by the graph ops, the attention nodes and graph-free
decoding alike. Every dropout decision comes from one kernel,
`dropout_mask`, as boolean keep bits and a scale: two decisions per raw
PCG64 word, the same bits in float32 and float64. Every node that drops
keeps those bits, one byte per decision, never a float mask.
`layer_norm` is the model's one normalisation, the post-norm residual
sublayer LN(x + dropout(out)), as one node; every standardisation adds
`LAYER_NORM_EPS` to the variance. `cross_entropy` skips the positions whose
target is `IGNORE_ID`.

`linear` is a matmul plus bias as one node: one GEMM forward, and a
backward of two GEMMs and one column sum for the bias. `matmul` with a
2-D right operand is `linear` without the bias. `linear` can also drop out
its own input, keeping the keep bits instead of the dropped input.

All operations are deterministic for a fixed seed and BLAS thread count.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericsError

_GRAD_ENABLED = True

LAYER_NORM_EPS = 1e-5  # added to the variance before the square root
IGNORE_ID = -1  # a cross-entropy target that has no label


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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_owns_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._owns_grad = False

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
        # The one place a grad takes its node's dtype. See the module
        # docstring on grad ownership: a leaf copies its first grad and adds
        # in place after; an interior node borrows its first grad and adds
        # into a buffer of its own after. A leaf's buffer is never rebound.
        if self._backward_fn is None:
            if self.grad is None:
                self.grad = np.array(g, dtype=self.data.dtype)
            else:
                self.grad += g
        elif self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
        elif self._owns_grad:
            self.grad += g
        else:
            self.grad = np.add(self.grad, g, out=np.empty(self.grad.shape, self.data.dtype))
            self._owns_grad = True

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
                node.grad, node._owns_grad = None, False
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node.grad, node._owns_grad = None, False


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
    out._owns_grad = False
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


# -- shape manipulation ----------------------------------------------------


def broadcast_to(x, shape) -> Tensor:
    x = as_tensor(x)
    data = np.broadcast_to(x.data, shape).copy()

    def bwd(g):
        if x.requires_grad:
            x._accumulate(_unbroadcast(g, x.data.shape))

    return _make(data, (x,), bwd)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """The parts joined along their last axis."""
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=-1)

    def bwd(g):
        offset = 0
        for p in parts:
            ext = p.data.shape[-1]
            if p.requires_grad:
                p._accumulate(g[..., offset : offset + ext])
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
        return linear(a, b)
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), bwd)


def linear(x, w, b=None, input_dropout=None) -> Tensor:
    """x @ w (+ b) for x (..., d), w (d, k) and an optional bias b (k,), as
    one node; with `input_dropout`, dropout(x) @ w (+ b).

    The forward is one (N, d) x (d, k) GEMM over the flattened rows, plus
    the bias. The backward is g2 w^T for x, x2^T g2 for w and one column
    sum of g2 for b, where g2 and x2 are the grad and the input as (N, k)
    and (N, d) rows: the weight gradient is one GEMM, not one product per
    leading index followed by a sum over them. `matmul` runs every product
    with a 2-D right operand here.

    `input_dropout` is an optional (p, rng) pair; its mask is drawn here, as
    `dropout(x, p, rng)` would draw it. The node then keeps the keep bits,
    not the dropped input: its backward recomputes the dropped rows for the
    weight grad and drops the input grad by the same bits. Every output and
    grad is bitwise that of the composed dropout -> linear graph.
    """
    x, w = as_tensor(x), as_tensor(w)
    bias = None if b is None else as_tensor(b)
    d = x.data.shape[-1]
    if w.data.ndim != 2 or w.data.shape[0] != d:
        raise DimensionError(
            f"linear needs x (..., d) and w (d, k), got {x.data.shape} and {w.data.shape}"
        )
    if bias is not None and bias.data.shape != w.data.shape[1:]:
        raise DimensionError(
            f"linear bias must be ({w.data.shape[1]},), got {bias.data.shape}"
        )
    x2 = x.data.reshape(-1, d)
    drawn = None
    if input_dropout is not None:
        p, rng = input_dropout
        drawn = dropout_mask(x2.shape, p, rng, x.data.dtype)
    out = (x2 if drawn is None else apply_dropout(x2, *drawn)) @ w.data
    if bias is not None:
        out += bias.data
    data = out.reshape(x.data.shape[:-1] + (w.data.shape[1],))

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            gx = g2 @ w.data.T
            if drawn is not None:
                apply_dropout(gx, *drawn, out=gx)
            x._accumulate(gx.reshape(x.data.shape))
        if w.requires_grad:
            w._accumulate((x2 if drawn is None else apply_dropout(x2, *drawn)).T @ g2)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))

    return _make(data, (x, w) if bias is None else (x, w, bias), bwd)


# -- normalization and probability -------------------------------------------


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; -inf entries map to exactly zero weight."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean) / sqrt(var + eps) over the last axis, and 1 / sqrt(var + eps),
    with eps `LAYER_NORM_EPS`.

    Each mean is sum / width: bitwise ndarray.mean, without its overhead."""
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt((centered**2).sum(axis=-1, keepdims=True) / d + LAYER_NORM_EPS)
    centered *= inv_std
    return centered, inv_std


def layer_norm(x, gamma, beta, sublayer, residual_dropout=None) -> Tensor:
    """The post-norm residual sublayer LN(x + dropout(sublayer)): the sum is
    standardized over the last axis (`standardize`), then scaled by gamma
    and shifted by beta.

    `residual_dropout` is an optional (p, rng) pair for the sublayer output;
    its mask is drawn here, as `dropout(sublayer, p, rng)` would draw it.
    This is one node: it keeps only the standardized sum, the inverse
    standard deviations and the keep bits, and its backward computes its row
    means as sum / d, bitwise `ndarray.mean`. Every output and grad is
    bitwise that of the composed dropout -> add -> layer-norm graph.
    """
    x, gamma, beta, sublayer = as_tensor(x), as_tensor(gamma), as_tensor(beta), as_tensor(sublayer)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"layer_norm affine params must have shape ({d},), got "
            f"{gamma.data.shape} and {beta.data.shape}"
        )
    if sublayer.data.shape != x.data.shape:
        raise DimensionError(
            f"sublayer output {sublayer.data.shape} does not match the residual "
            f"input {x.data.shape}"
        )
    drawn = None
    if residual_dropout is not None:
        p, rng = residual_dropout
        drawn = dropout_mask(sublayer.data.shape, p, rng, sublayer.data.dtype)
    total = sublayer.data.copy() if drawn is None else apply_dropout(sublayer.data, *drawn)
    total += x.data
    xhat, inv_std = standardize(total)
    del total
    data = xhat * gamma.data
    data += beta.data

    def bwd(g):
        reduce_axes = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=reduce_axes))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=reduce_axes))
        if not (x.requires_grad or sublayer.requires_grad):
            return
        gx_hat = g * gamma.data
        m1 = gx_hat.sum(axis=-1, keepdims=True) / d
        m2 = (gx_hat * xhat).sum(axis=-1, keepdims=True) / d
        gx_hat -= m1
        gx_hat -= xhat * m2
        gx_hat *= inv_std
        if x.requires_grad:
            x._accumulate(gx_hat)
        if sublayer.requires_grad:
            sublayer._accumulate(gx_hat if drawn is None else apply_dropout(gx_hat, *drawn))

    return _make(data, (x, gamma, beta, sublayer), bwd)


# -- sequence ops -------------------------------------------------------------


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


def cross_entropy(logits, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax probability of the target over the
    positions whose target is not `IGNORE_ID`; every other target must be
    a vocabulary id."""
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
    valid = flat_targets != IGNORE_ID
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


def dropout_mask(
    shape, p: float, rng: np.random.Generator, dtype
) -> Optional[tuple[np.ndarray, np.generic]]:
    """The inverted-dropout decisions for an array of `shape`: the boolean
    keep bits, True where a 24-bit uniform draw is >= p, and the scale
    1 / (1 - p) in `dtype`; None when p == 0, which draws nothing.

    `dropout`, `layer_norm`, `linear` and the attention nodes draw every
    mask here, so the masks and the rng stream do not depend on which of
    them asks. The keep bits come from whole raw words, two decisions per
    word, by one rule whatever `dtype` is, so a float32 and a float64 model
    drop the same elements; see `_uniforms_at_least`. `apply_dropout`
    applies them.
    """
    if not (0.0 <= p < 1.0):
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return None
    return _uniforms_at_least(shape, float(p), rng), np.dtype(dtype).type(1.0 / (1.0 - p))


def apply_dropout(x: np.ndarray, keep: np.ndarray, scale, **multiply_kw) -> np.ndarray:
    """x * (keep * scale) without the float mask: one multiply by the keep
    bits, then one in-place scale; `multiply_kw` (`out`, `order`) goes to
    the multiply.

    Bitwise the product with the float mask for every x: a kept element
    gives x * scale, a dropped one x * 0, the zero of x's sign, or NaN for
    a NaN or an infinity.
    """
    out = np.multiply(x, keep, **multiply_kw)
    out *= scale
    return out


def _uniforms_at_least(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Keep bits for an array of `shape`: True where decision i's uniform is >= p.

    Decision i reads 32-bit half i of `ceil(n / 2)` whole PCG64 raw words,
    low half first; an odd n leaves the last high half unread. Its uniform
    is (half >> 8) / 2**24, the one `rng.random(dtype=np.float32)` makes
    from a half, and it is >= p rounded to float32 exactly when the half is
    >= ceil(p * 2**24) << 8, so the halves need no conversion to floats.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ConfigError(f"dropout needs a PCG64 bit generator, got {type(bits).__name__}")
    n = math.prod(shape)
    threshold = math.ceil(float(np.float32(p)) * 2.0**24) << 8  # 2**32 when p rounds to 1
    limit = np.uint32(threshold) if threshold <= 0xFFFFFFFF else np.uint64(threshold)
    halves = bits.random_raw(-(-n // 2)).astype("<u8", copy=False).view("<u4")
    return (halves[:n] >= limit).reshape(shape)


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Zero each element with probability p and rescale survivors by 1/(1-p).

    The node keeps the keep bits, one byte per element."""
    x = as_tensor(x)
    drawn = dropout_mask(x.data.shape, p, rng, x.data.dtype)
    if drawn is None:
        return x

    def bwd(g):
        if x.requires_grad:
            x._accumulate(apply_dropout(g, *drawn))

    return _make(apply_dropout(x.data, *drawn), (x,), bwd)


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
