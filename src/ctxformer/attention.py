"""Hybrid multi-head attention.

Half the heads are scaled dot-product attention over projected
query/key/value; the other half are convolutional word-context heads: a
depthwise causal convolution with softmax-normalized kernel columns
builds local context (Eq. 2), an adaptive softmax-weighted summary of the
projected sequence acts as a context query, and a per-position sigmoid
gate scores each local representation against that context. Head outputs
are concatenated (dot-product heads first) and linearly recombined.

Each head family is stored head-stacked, one leaf per weight with a
leading head axis, and runs as one: a single projection onto every head
(`head_columns`), the projected inputs split into a leading head axis
(n, ..., T, width), and the single-head functions below run once on those
head-stacked tensors.

Also hosts the per-layer complexity model, checked on the real halves by
`test_complexity_validation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .tensor import (
    Tensor,
    concat,
    depthwise_causal_conv1d,
    dropout,
    masked_fill,
    matmul,
    mul,
    reshape,
    sigmoid,
    softmax,
    transpose,
    transpose_last,
    tsum,
)


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
    return reshape(transpose(w, (1, 0, 2)), (d, n * width))


def _split_heads(x: Tensor, n: int) -> Tensor:
    """(..., T, n * w) -> (n, ..., T, w)."""
    x = reshape(x, x.shape[:-1] + (n, x.shape[-1] // n))
    nd = x.ndim
    return transpose(x, (nd - 2,) + tuple(range(nd - 2)) + (nd - 1,))


def _merge_heads(x: Tensor) -> Tensor:
    """(n, ..., T, w) -> (..., T, n * w), the inverse of `_split_heads`."""
    nd = x.ndim
    x = transpose(x, tuple(range(1, nd - 1)) + (0, nd - 1))
    return reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def causal_mask(t_len: int) -> np.ndarray:
    """Boolean (T, T) mask, True where attending is allowed (s <= t)."""
    return np.tril(np.ones((t_len, t_len), dtype=bool))


# ---------------------------------------------------------------- Eq. (1)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: Optional[np.ndarray] = None,
    attn_dropout=None,
) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v with optional boolean keep-mask.

    Forbidden positions get exactly zero weight; a row with no allowed
    position is rejected. `attn_dropout` is an optional (p, rng) pair
    applied to the attention weights during training.
    """
    d_k = q.shape[-1]
    if k.shape[-1] != d_k:
        raise DimensionError(f"query width {d_k} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(
            f"key length {k.shape[-2]} != value length {v.shape[-2]}"
        )
    scores = mul(matmul(q, transpose_last(k)), 1.0 / math.sqrt(d_k))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (q.shape[-2], k.shape[-2]):
            raise DimensionError(
                f"mask shape {mask.shape} != ({q.shape[-2]}, {k.shape[-2]})"
            )
        if (~mask).all(axis=-1).any():
            row = int(np.argwhere((~mask).all(axis=-1))[0][0])
            raise DataError(f"attention row {row} has no allowed position to attend")
        scores = masked_fill(scores, mask, -np.inf)
    weights = softmax(scores, axis=-1)
    if attn_dropout is not None:
        p, rng = attn_dropout
        weights = dropout(weights, p, rng)
    return matmul(weights, v)


# ---------------------------------------------------------------- Eq. (2)


def local_conv(s: Tensor, params: ConvHeadParams, kernel_dropconnect=None) -> Tensor:
    """Depthwise causal convolution with a softmax-normalized kernel.

    Each kernel column is a probability distribution over the F-position
    window, so every output element is a convex combination of the current
    and F - 1 previous inputs of its channel (zero-padded on the left).
    `kernel_dropconnect` is an optional (p, rng) pair zeroing kernel taps
    during training.
    """
    kernel = softmax(params.w_a, axis=-2)
    if kernel_dropconnect is not None:
        p, rng = kernel_dropconnect
        kernel = dropout(kernel, p, rng)
    return depthwise_causal_conv1d(s, kernel)


# ---------------------------------------------------------------- Eq. (3)


def adaptive_query(s: Tensor, params: ConvHeadParams, causal: bool = False) -> Tensor:
    """Softmax-weighted summary of the projected sequence.

    Full mode returns one context vector (..., d_h): positions are scored
    by s @ w_q, softmaxed over the sequence, and used to mix s @ w_s.
    Causal mode restricts each position's softmax to the prefix ending at
    it and returns one query per position (..., T, d_h), which is what the
    decoder needs to avoid reading future tokens. Head-stacked params take
    s as (n, ..., T, d_h); each head's positions are then one (n, N, d_h)
    block for the w_s and w_q products.
    """
    heads = params.w_s.shape[:-2]
    d_h = params.w_s.shape[-1]
    rows = reshape(s, heads + (-1, d_h))
    proj = reshape(matmul(rows, params.w_s), s.shape)  # (..., T, d_h)
    scores = reshape(matmul(rows, reshape(params.w_q, heads + (d_h, 1))), s.shape[:-1] + (1,))
    if not causal:
        weights = softmax(scores, axis=-2)
        return tsum(mul(proj, weights), axis=-2)  # (..., d_h)
    t_len = s.shape[-2]
    rows = transpose_last(scores)  # (..., 1, T)
    masked = masked_fill(rows, causal_mask(t_len), -np.inf)  # (..., T, T)
    weights = softmax(masked, axis=-1)
    return matmul(weights, proj)  # (..., T, d_h)


# ---------------------------------------------------------------- Eq. (4)


def dynamic_conv_head(
    s_proj: Tensor,
    params: ConvHeadParams,
    causal_query: bool = False,
    kernel_dropconnect=None,
) -> Tensor:
    """Gate local-context features by their relevance to the context query.

    score_t = <local_t, query_t> / sqrt(d_h) collapses each position to a
    scalar word-context relevance; the head output sigmoid(score_t) *
    local_t keeps the local representation as the value carrier so the
    head still emits (..., T, d_h) for concatenation. With head-stacked
    params s_proj and the output are (n, ..., T, d_h).
    """
    d_h = s_proj.shape[-1]
    local = local_conv(s_proj, params, kernel_dropconnect)
    query = adaptive_query(s_proj, params, causal=causal_query)
    if not causal_query:
        query = reshape(query, query.shape[:-1] + (1, d_h))  # broadcast over T
    score = mul(tsum(mul(local, query), axis=-1, keepdims=True), 1.0 / math.sqrt(d_h))
    return mul(sigmoid(score), local)


# ---------------------------------------------------------------- Eq. (5)


def dot_product_family(
    query_seq: Tensor,
    key_seq: Tensor,
    params: MultiHeadParams,
    mask: Optional[np.ndarray] = None,
    attn_dropout=None,
) -> Tensor:
    """Dot-product heads run as one, (..., T_q, n * d_v), head j in block j.

    One projection each for queries, keys and values, then one
    `scaled_dot_product_attention` over a leading head axis. Dropout masks
    are drawn head-major, as a loop over the heads would draw them.
    """
    n = params.w_q.shape[0]
    q = _split_heads(matmul(query_seq, head_columns(params.w_q)), n)
    k = _split_heads(matmul(key_seq, head_columns(params.w_k)), n)
    v = _split_heads(matmul(key_seq, head_columns(params.w_v)), n)
    return _merge_heads(scaled_dot_product_attention(q, k, v, mask, attn_dropout))


def conv_family(
    seq: Tensor,
    params: ConvHeadParams,
    causal_query: bool = False,
    kernel_dropconnect=None,
) -> Tensor:
    """Head-stacked conv word-context heads run as one, (..., T, n * d_h),
    head j in block j.

    One input projection, then one `dynamic_conv_head` on head-stacked
    tensors. DropConnect masks are drawn head-major, as a loop over the
    heads would draw them.
    """
    s_proj = _split_heads(matmul(seq, head_columns(params.w_in)), params.w_in.shape[0])
    return _merge_heads(dynamic_conv_head(s_proj, params, causal_query, kernel_dropconnect))


def multi_head_forward(
    x: Tensor,
    params: MultiHeadParams,
    mask: Optional[np.ndarray] = None,
    causal_conv: bool = False,
    attn_dropout=None,
    kernel_dropconnect=None,
) -> Tensor:
    """Hybrid multi-head self-attention over x: H/2 dot-product heads and
    H/2 conv word-context heads, concatenated (dot-product heads first) and
    mixed by the output matrix.
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
    dot = dot_product_family(x, x, params, mask, attn_dropout)
    conv = conv_family(x, params.conv, causal_conv, kernel_dropconnect)
    return matmul(concat([dot, conv], axis=-1), params.w_o)


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
