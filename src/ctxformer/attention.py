"""Hybrid multi-head attention.

Half the heads are scaled dot-product attention over projected
query/key/value (Eq. 1); the other half are convolutional word-context
heads: a depthwise causal convolution with softmax-normalized kernel
columns builds local context (Eq. 2), an adaptive softmax-weighted summary
of the projected sequence acts as a context query (Eq. 3), and a
per-position sigmoid gate scores each local representation against that
context (Eq. 4). Head outputs are concatenated (dot-product heads first)
and linearly recombined.

Each head family is stored head-stacked, one leaf per weight with a
leading head axis, and runs as one: a single projection onto every head
(`head_columns`, one node), then one graph node for all heads of the
family, `scaled_dot_product_attention` for the dot-product heads and
`dynamic_conv_head` for the conv heads. Each node computes its forward in
array code and has a hand-written backward that keeps only the arrays it
needs.

Layouts: both nodes take and return heads as column blocks, (..., T, n * d_h)
with head j in block j. Inside, numpy reduces over a short innermost axis
(d_h = 8, and T and F up to 15 in the paper's setting) 5 to 8 times slower
than over a leading axis, so each node puts the axis it reduces over first.

- `scaled_dot_product_attention` holds its scores and weights key-leading,
  (T_k, n, ..., T_q). The softmax and its backward reduce over axis 0.
- `dynamic_conv_head` works time-leading, on (T, B, n * d_h). The tap loop of
  Eq. 2 adds whole time slices. Eq. 3's projection and scores are one batched
  matmul of each head's rows with its own [w_s | w_q], written into
  (T, B * n, d_h + 1). Its softmax weights are (T_key, B * n, T_query) and
  run over axis 0; full mode is causal mode's last prefix alone, one query
  over every key (T_query = 1). Eq. 4's gate sums are the (T * B * n, d_h)
  rows times ones(d_h). No head's arithmetic reads another head's columns,
  so a NaN or inf stays in its head.

Also hosts the per-layer complexity model. `test_complexity_validation`
checks it on the products the nodes run: `attention_scores` and
`attention_values` for the dot-product half, `local_context` for the conv
half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .errors import ConfigError, DimensionError
from .tensor import Tensor


# ------------------------------------------------------------------ types


@dataclass
class ConvHeadParams:
    """Parameters of convolutional word-context heads.

    w_in projects the model width down to the head width; w_a holds the
    (pre-softmax) kernel weights over the temporal window; w_s and w_q
    build the adaptive context query. n heads run as one hold the same
    fields with a leading head axis, head j in slice j of each.
    """

    w_in: Tensor  # (d, d_h); n heads: (n, d, d_h)
    w_a: Tensor  # (F, d_h), softmax-normalized along F at use time; n heads: (n, F, d_h)
    w_s: Tensor  # (d_h, d_h); n heads: (n, d_h, d_h)
    w_q: Tensor  # (d_h,); n heads: (n, d_h)

    def __post_init__(self):
        taps = self.w_a.shape[-2]
        if taps < 1 or taps % 2 == 0:
            raise ConfigError(f"conv head kernel size must be odd and >= 1, got {taps}")


@dataclass
class MultiHeadParams:
    """One attention sublayer: n >= 1 dot-product heads, n head-stacked conv
    heads, and the output mix.

    Head j of a family is slice j of each of its leaves; the head counts
    are the leaves' leading extents.
    """

    w_q: Tensor  # (n, d, d_k)
    w_k: Tensor  # (n, d, d_k)
    w_v: Tensor  # (n, d, d_v)
    conv: ConvHeadParams  # head-stacked
    w_o: Tensor  # (d, d)

    def __post_init__(self):
        n_dot, n_conv = self.w_q.shape[0], self.conv.w_in.shape[0]
        if n_dot < 1 or n_conv != n_dot:
            raise ConfigError(
                f"need as many conv heads as dot-product heads, at least one each; "
                f"got {n_dot} dot-product and {n_conv} conv"
            )


def head_columns(w: Tensor) -> Tensor:
    """Head-stacked weights (n, d, w) as the (d, n * w) matrix that projects
    onto every head at once, head j in columns j * w ... (j + 1) * w - 1."""
    n, d, width = w.shape

    def bwd(g):
        w._accumulate(g.reshape(d, n, width).transpose(1, 0, 2))

    return tn._make(w.data.transpose(1, 0, 2).reshape(d, n * width), (w,), bwd)


def _head_blocks(x: np.ndarray, heads: int, nd: int) -> np.ndarray:
    """(..., T, heads * w) as a (heads, ..., T, w) view padded to nd axes; head j is block j."""
    return np.moveaxis(x.reshape((1,) * (nd - 1 - x.ndim) + x.shape[:-1] + (heads, -1)), -2, 0)


def _block_columns(x: np.ndarray, shape: tuple) -> np.ndarray:
    """(heads, ..., T, w) as column blocks of `shape`, the inverse of `_head_blocks`."""
    return np.moveaxis(x, 0, -2).reshape(shape)


def causal_mask(t_len: int) -> np.ndarray:
    """Boolean (T, T) mask, True where attending is allowed (s <= t)."""
    return np.tril(np.ones((t_len, t_len), dtype=bool))


def _causal_bias(t_len: int, dtype) -> np.ndarray:
    """Key-leading (T_k, T_q) additive mask: 0 where key s <= query t, else -inf."""
    dtype = np.dtype(dtype)
    return np.where(causal_mask(t_len).T, dtype.type(0), dtype.type(-np.inf))


def _time_leading(x: np.ndarray) -> np.ndarray:
    """(..., T, C) as a contiguous (T, B, C), B the product of the leading axes."""
    t_len, width = x.shape[-2:]
    return np.ascontiguousarray(x.reshape(-1, t_len, width).transpose(1, 0, 2))


def _batch_leading(x: np.ndarray, shape: tuple) -> np.ndarray:
    """The inverse of `_time_leading`: (T, B, C) as a contiguous array of `shape`."""
    return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(shape)


# ---------------------------------------------------------------- Eq. (1)


def attention_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The score product of Eq. 1, k q^T: (..., T_k, T_q), keys before queries."""
    return k @ np.swapaxes(q, -1, -2)


def attention_values(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The value product of Eq. 1: weights (..., T_q, T_k) times v (..., T_k, d_v)."""
    return weights @ v


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    causal: bool = False,
    attn_dropout=None,
    heads: int = 1,
) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v for each of `heads` heads, as one node.

    q, k, v and the output are (..., T, heads * d), head j in block j.
    `causal` lets query t attend keys 0..t only, giving later keys exactly
    zero weight; it needs as many queries as keys. `attn_dropout` is an
    optional (p, rng) pair applied to the attention weights during
    training; its mask is drawn head-major, (heads, ..., T_q, T_k).

    It works on (heads, ..., T, d) views, scores and weights key-leading,
    (T_k, heads, ..., T_q), so that the softmax and its backward reduce over
    axis 0. The backward keeps the weights, the dropout keep bits and q, k,
    v; it recomputes the dropped weights.
    """
    q, k, v = tn.as_tensor(q), tn.as_tensor(k), tn.as_tensor(v)
    nd = 1 + max(q.ndim, k.ndim, v.ndim)
    qh, kh, vh = (_head_blocks(t.data, heads, nd) for t in (q, k, v))
    d_k = qh.shape[-1]
    if kh.shape[-1] != d_k:
        raise DimensionError(f"query width {d_k} != key width {kh.shape[-1]}")
    if kh.shape[-2] != vh.shape[-2]:
        raise DimensionError(f"key length {kh.shape[-2]} != value length {vh.shape[-2]}")
    if causal and qh.shape[-2] != kh.shape[-2]:
        raise DimensionError(
            f"causal attention needs as many queries as keys, "
            f"got {qh.shape[-2]} and {kh.shape[-2]}"
        )
    scale = q.dtype.type(1.0 / math.sqrt(d_k))
    raw = attention_scores(qh, kh)  # (heads, ..., T_k, T_q)
    keys_first = (nd - 2,) + tuple(range(nd - 2)) + (nd - 1,)  # -> (T_k, heads, ..., T_q)
    keys_back = tuple(range(1, nd - 1)) + (0, nd - 1)  # its inverse
    scores = np.multiply(raw.transpose(keys_first), scale, order="C")
    if causal:
        scores += _causal_bias(qh.shape[-2], q.dtype).reshape(
            scores.shape[:1] + (1,) * (nd - 2) + scores.shape[-1:]
        )
    weights = tn.softmax_array(scores, axis=0)
    keep = drop = None  # the keep bits, key-leading, and the dropout scale
    if attn_dropout is not None:
        p, rng = attn_dropout
        drawn = tn.dropout_mask(raw.shape[:-2] + (raw.shape[-1], raw.shape[-2]), p, rng, q.dtype)
        if drawn is not None:
            keep, drop = np.swapaxes(drawn[0], -1, -2).transpose(keys_first), drawn[1]
    dropped = weights if keep is None else tn.apply_dropout(weights, keep, drop)
    data = attention_values(np.swapaxes(dropped.transpose(keys_back), -1, -2), vh)

    def bwd(g):
        g = _head_blocks(g, heads, nd)
        if v.requires_grad:
            kept = weights if keep is None else tn.apply_dropout(weights, keep, drop)
            dv = kept.transpose(keys_back) @ g
            v._accumulate(_block_columns(tn._unbroadcast(dv, vh.shape), v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        dw = (vh @ np.swapaxes(g, -1, -2)).transpose(keys_first)
        if keep is None:
            dw = np.ascontiguousarray(dw)
        else:
            dw = tn.apply_dropout(dw, keep, drop, order="C")
        ds = dw - (dw * weights).sum(axis=0)
        ds *= weights
        ds *= scale
        ds = ds.transpose(keys_back)  # (heads, ..., T_k, T_q)
        if q.requires_grad:
            dq = np.swapaxes(ds, -1, -2) @ kh
            q._accumulate(_block_columns(tn._unbroadcast(dq, qh.shape), q.shape))
        if k.requires_grad:
            k._accumulate(_block_columns(tn._unbroadcast(ds @ qh, kh.shape), k.shape))

    return tn._make(_block_columns(data, data.shape[1:-1] + (-1,)), (q, k, v), bwd)


# ---------------------------------------------------------- Eq. (2) - (4)


def local_context(s: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The depthwise causal convolution of Eq. 2 on arrays, time axis first.

    out[t, ..., c] = sum_j kernel[j, c] * s[t - j, ..., c] for s (T, ..., C)
    and kernel (F, C); terms before position 0 are zero, so position t
    never reads a later one. With softmax-normalized kernel columns every
    output is a convex combination of its channel's window.
    """
    if kernel.ndim != 2 or kernel.shape[0] < 1 or kernel.shape[1] != s.shape[-1]:
        raise DimensionError(
            f"kernel must be (F, C) with F >= 1 and C = {s.shape[-1]} channels, "
            f"got {kernel.shape}"
        )
    t_len = s.shape[0]
    out = s * kernel[0]
    for j in range(1, min(kernel.shape[0], t_len)):
        out[j:] += kernel[j] * s[: t_len - j]
    return out


def _taps_first(w: np.ndarray, n: int) -> np.ndarray:
    """Per-head kernels (n, F, d_h) (or one (F, d_h)) as (F, n * d_h), head j in block j."""
    taps, d_h = w.shape[-2:]
    return w.reshape(n, taps, d_h).transpose(1, 0, 2).reshape(taps, n * d_h)


def dynamic_conv_head(
    s_proj: Tensor,
    params: ConvHeadParams,
    causal: bool = False,
    kernel_dropconnect=None,
) -> Tensor:
    """Conv word-context heads, Eq. 2-4, as one node.

    s_proj is the projected input (..., T, n * d_h), head j in block j; n
    is the params' head count, 1 for params without a head axis. Each head
    convolves its block with its softmax-normalized kernel (Eq. 2, the
    local context), builds a context query from a softmax-weighted summary
    of the block (Eq. 3), and gates the local context:
    sigmoid(<local_t, query_t> / sqrt(d_h)) * local_t (Eq. 4). Full mode
    has one query per sequence; `causal` gives each position the query of
    its own prefix (the local window is causal either way). Both run the
    same Eq. 3: `causal` only sets the number of queries, T or 1, and adds
    the mask that gives a prefix's later keys zero weight.
    `kernel_dropconnect` is an optional (p, rng) pair zeroing kernel taps
    during training; its mask has the shape of `params.w_a`.

    The node works time-leading, head by head (see the module docstring).
    The backward keeps the input, the masked kernel and its DropConnect keep
    bits, the local context, the softmax weights of the queries, the
    queries, the gate and the per-head [w_s | w_q]. It recomputes Eq. 3's
    batched matmul for the projection, sums the gate's query grad back to
    the queries, packs the grads of the projection and the scores per head
    as [dproj | dscores], and gets the input's grad and the w_s and w_q
    grads from one batched matmul each.
    """
    x = tn.as_tensor(s_proj)
    w_a, w_s, w_q = params.w_a, params.w_s, params.w_q
    taps, d_h = w_a.shape[-2:]
    n = w_a.shape[0] if w_a.ndim == 3 else 1
    width = n * d_h
    if x.ndim < 2 or x.shape[-1] != width:
        raise DimensionError(
            f"conv heads need input (..., T, {width}) for {n} heads of width {d_h}, "
            f"got {x.shape}"
        )
    dtype = x.dtype
    t_len = x.shape[-2]
    s = _time_leading(x.data)  # (T, B, C)
    heads = s.shape[1] * n  # B * n (batch, head) pairs, head-minor
    # Eq. 2: the kernel softmaxed over its taps, then DropConnect.
    soft = tn.softmax_array(_taps_first(w_a.data, n), axis=0)  # (F, C)
    keep = drop = None
    if kernel_dropconnect is not None:
        p, rng = kernel_dropconnect
        drawn = tn.dropout_mask(w_a.shape, p, rng, w_a.dtype)
        if drawn is not None:
            keep, drop = _taps_first(drawn[0], n), drawn[1]
    kernel = soft if keep is None else tn.apply_dropout(soft, keep, drop)
    local = local_context(s, kernel).reshape(t_len, heads, d_h)
    # Eq. 3: each head's projection and position scores, one batched matmul
    # of its rows against its [w_s | w_q], into (T, B * n, d_h + 1).
    stacked = np.concatenate((w_s.data.reshape(n, d_h, d_h), w_q.data.reshape(n, d_h, 1)), -1)
    head_rows = s.reshape(-1, n, d_h).transpose(1, 0, 2)  # (n, T * B, d_h)

    def per_head(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a (n, T * B, k) @ b (n, k, m) as (T, B * n, m)."""
        out = np.empty((t_len, heads, b.shape[-1]), dtype)
        np.matmul(a, b, out=out.reshape(-1, n, b.shape[-1]).transpose(1, 0, 2))
        return out

    projected = per_head(head_rows, stacked)
    proj, scores = projected[..., :d_h], projected[..., d_h, None]
    # weights[u, i, t]: key position u of query t's summary, key first. Full
    # mode has one query (t_q = 1); causal mode one per prefix, where later
    # keys get exactly zero weight.
    t_q = t_len if causal else 1
    if causal:
        scores = scores + _causal_bias(t_len, dtype)[:, None]
    weights = tn.softmax_array(scores, axis=0)  # (T, B * n, t_q)
    query = np.empty((t_q, heads, d_h), dtype)
    np.matmul(weights.transpose(1, 2, 0), proj.transpose(1, 0, 2), out=query.transpose(1, 0, 2))
    # Eq. 4: each head's gate sums, one row of d_h each.
    ones = np.ones(d_h, dtype)
    scale = dtype.type(1.0 / math.sqrt(d_h))
    gate = ((local * query).reshape(-1, d_h) @ ones).reshape(t_len, heads, 1)
    gate *= scale
    gate = tn.sigmoid_array(gate)
    data = _batch_leading((local * gate).reshape(s.shape), x.shape)

    def bwd(g):
        proj = per_head(head_rows, stacked)[..., :d_h]
        g = _time_leading(g).reshape(t_len, heads, d_h)
        dgate = ((g * local).reshape(-1, d_h) @ ones).reshape(t_len, heads, 1)
        dscore = dgate * gate * (1 - gate) * scale
        dlocal = g * gate
        dlocal += dscore * query
        dquery = tn._unbroadcast(dscore * local, query.shape)
        dprojected = np.empty((t_len, heads, d_h + 1), dtype)  # [dproj | dscores]
        dproj = dprojected[..., :d_h]
        np.matmul(
            weights.transpose(1, 0, 2), dquery.transpose(1, 0, 2), out=dproj.transpose(1, 0, 2)
        )
        dweights = np.empty_like(weights)
        np.matmul(
            proj.transpose(1, 0, 2), dquery.transpose(1, 2, 0), out=dweights.transpose(1, 0, 2)
        )
        dweights -= (dweights * weights).sum(axis=0)
        dweights *= weights
        dscores = dweights.reshape(-1, t_q) @ np.ones(t_q, dtype)
        dprojected[..., d_h] = dscores.reshape(t_len, heads)
        dheads = dprojected.reshape(-1, n, d_h + 1).transpose(1, 0, 2)  # (n, T * B, d_h + 1)
        dlocal = dlocal.reshape(s.shape)
        if x.requires_grad:
            ds = per_head(dheads, stacked.transpose(0, 2, 1)).reshape(s.shape)
            for j in range(min(taps, t_len)):
                ds[: t_len - j] += kernel[j] * dlocal[j:]
            x._accumulate(_batch_leading(ds, x.shape))
        if w_s.requires_grad or w_q.requires_grad:
            dstacked = head_rows.transpose(0, 2, 1) @ dheads  # (n, d_h, d_h + 1)
            if w_s.requires_grad:
                w_s._accumulate(dstacked[..., :d_h].reshape(w_s.shape))
            if w_q.requires_grad:
                w_q._accumulate(dstacked[..., d_h].reshape(w_q.shape))
        if w_a.requires_grad:
            dkernel = np.zeros_like(kernel)
            for j in range(min(taps, t_len)):
                dkernel[j] = np.einsum("tbc,tbc->c", dlocal[j:], s[: t_len - j])
            if keep is not None:
                tn.apply_dropout(dkernel, keep, drop, out=dkernel)
            dkernel -= (dkernel * soft).sum(axis=0)
            dkernel *= soft
            w_a._accumulate(
                dkernel.reshape(taps, n, d_h).transpose(1, 0, 2).reshape(w_a.shape)
            )

    return tn._make(data, (x, w_a, w_s, w_q), bwd)


# ---------------------------------------------------------------- Eq. (5)


def dot_product_family(
    query_seq: Tensor,
    key_seq: Tensor,
    params: MultiHeadParams,
    causal: bool = False,
    attn_dropout=None,
) -> Tensor:
    """Dot-product heads run as one, (..., T_q, n * d_v), head j in block j.

    One projection each for queries, keys and values onto every head, then
    one `scaled_dot_product_attention` on the column blocks. Dropout masks
    are drawn head-major, as a loop over the heads would draw them.
    """
    q = tn.matmul(query_seq, head_columns(params.w_q))
    k = tn.matmul(key_seq, head_columns(params.w_k))
    v = tn.matmul(key_seq, head_columns(params.w_v))
    return scaled_dot_product_attention(q, k, v, causal, attn_dropout, heads=params.w_q.shape[0])


def conv_family(
    seq: Tensor,
    params: ConvHeadParams,
    causal: bool = False,
    kernel_dropconnect=None,
) -> Tensor:
    """Head-stacked conv word-context heads run as one, (..., T, n * d_h),
    head j in block j.

    One input projection, then one `dynamic_conv_head`. DropConnect masks
    are drawn head-major, as a loop over the heads would draw them.
    """
    s_proj = tn.matmul(seq, head_columns(params.w_in))
    return dynamic_conv_head(s_proj, params, causal, kernel_dropconnect)


def multi_head_forward(
    x: Tensor,
    params: MultiHeadParams,
    causal: bool = False,
    attn_dropout=None,
    kernel_dropconnect=None,
) -> Tensor:
    """Hybrid multi-head self-attention over x: H/2 dot-product heads and
    H/2 conv word-context heads, concatenated (dot-product heads first) and
    mixed by the output matrix. `causal` keeps every head of both families
    from reading later positions.
    """
    d_model = params.w_o.shape[0]
    head_widths = (
        params.w_v.shape[0] * params.w_v.shape[-1]
        + params.conv.w_in.shape[0] * params.conv.w_in.shape[-1]
    )
    if head_widths != d_model:
        raise DimensionError(
            f"concatenated head width {head_widths} != model width {d_model}"
        )
    dot = dot_product_family(x, x, params, causal, attn_dropout)
    conv = conv_family(x, params.conv, causal, kernel_dropconnect)
    return tn.matmul(tn.concat([dot, conv]), params.w_o)


# ------------------------------------------------------ Table of complexities


LAYER_TYPES = (
    "self_attention",
    "recurrent",
    "convolution",
    "depthwise_separable_convolution",
)


@dataclass
class ComplexityEstimate:
    per_layer_ops: int
    sequential_ops: int
    max_path_length: int


def complexity_estimate(layer_type: str, n: int, d: int, f: int = 1) -> ComplexityEstimate:
    """Leading-term op counts per layer type.

    Per-layer ops: n^2*d (self-attention), n*d^2 (recurrent), f*n*d^2
    (convolution), f*n*d (depthwise separable convolution). Sequential ops
    and maximum path length follow the same table; the logarithmic path
    rows need a kernel size of at least 2.
    """
    if layer_type not in LAYER_TYPES:
        raise ConfigError(f"unknown layer type {layer_type!r}; expected one of {LAYER_TYPES}")
    if n < 1 or d < 1 or f < 1:
        raise ConfigError(f"n, d, f must be >= 1, got n={n} d={d} f={f}")
    if layer_type == "self_attention":
        return ComplexityEstimate(n * n * d, 1, 1)
    if layer_type == "recurrent":
        return ComplexityEstimate(n * d * d, n, n)
    if f < 2:
        raise ConfigError(
            f"{layer_type} path length is log base f; needs f >= 2, got {f}"
        )
    path = max(1, math.ceil(math.log(n) / math.log(f))) if n > 1 else 1
    if layer_type == "convolution":
        return ComplexityEstimate(f * n * d * d, 1, path)
    return ComplexityEstimate(f * n * d, 1, path)
