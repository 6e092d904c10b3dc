"""Incremental decoding: the decoder run one target position at a time.

`Seq2SeqModel.start_decoding(memory)` builds a `DecoderCache` once per
source sentence. Each `Seq2SeqModel.decode(ids, memory, cache=cache)` call
then embeds one new token per hypothesis at position `cache.length`, runs
every decoder layer on that position only, and returns its logits. Per
decoder layer the cache holds three append-only prefixes per hypothesis,
one row added per step:

- the keys and the values of the masked self-attention's dot-product heads;
- the projected inputs of its conv heads, after F - 1 zero rows, which are
  the zero padding of the full-prefix convolution. A step reads the last F
  rows against the kernel for the local context and the rows after the
  padding for the causal adaptive query, with the formulas of
  `attention.dynamic_conv_head`.

It also holds what depends only on the memory, computed once and shared
by every hypothesis without a copy:

- the cross-attention keys and values of the (T_src, d) memory;
- the conv half of cross-attention: its mean-pooled heads mixed by their
  rows of the output matrix, one (d,) vector per layer.

The step is plain numpy and builds no graph, with no kernels of its own: it
runs the array kernels of `tensor` that the graph ops run. It reads the model's
head-stacked weights directly; what it derives from them (the joined
q|k|v|w_in projection, the softmaxed kernels, everything computed from the
memory) is built once per cache and never stored on the model, so a new
cache after `load_state` or an optimizer step sees the new weights. The
full-prefix `Seq2SeqModel.decode` stays the training path and the reference
the step is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as tn
from .attention import conv_family, head_columns
from .errors import DataError, DimensionError
from .model import LAYER_NORM_EPS


@dataclass
class _LayerWeights:
    """One decoder layer's head-stacked weights and what it reads of the memory.

    Each attention sublayer has n dot-product and n conv heads, all d_h wide.
    """

    n: int
    d_h: int
    self_in: np.ndarray  # (d, 4 * n * d_h): q | k | v | w_in
    kernel: np.ndarray  # (n, F, d_h), softmax-normalized over the taps
    w_s: np.ndarray  # (n, d_h, d_h)
    w_q: np.ndarray  # (n, d_h, 1)
    self_out: np.ndarray  # (d, d)
    ln1: tuple
    cross_q: np.ndarray  # (d, n * d_h)
    cross_keys: np.ndarray  # (n, d_h, T_src)
    cross_values: np.ndarray  # (n, T_src, d_h)
    cross_out: np.ndarray  # (n * d_h, d): the dot-head rows of the output matrix
    pooled_conv: np.ndarray  # (d,): the conv half of cross-attention, already mixed
    ln2: tuple
    ffn: tuple  # (w1, b1, w2, b2)
    ln3: tuple


@dataclass
class _LayerState:
    """Per-hypothesis prefixes of one decoder layer; axis 0 indexes hypotheses."""

    keys: np.ndarray  # (B, n, length, d_h)
    values: np.ndarray  # (B, n, length, d_h)
    inputs: np.ndarray  # (B, n, F - 1 + length, d_h): zero padding, then conv inputs


def _stack_layer(layer, memory: tn.Tensor) -> _LayerWeights:
    mha, xmha, conv = layer.mha, layer.xmha, layer.mha.conv
    n, _, d_h = xmha.w_q.shape
    mem = memory.data
    cross_q, cross_k, cross_v = (head_columns(w).data for w in (xmha.w_q, xmha.w_k, xmha.w_v))
    t_src = mem.shape[0]
    keys = (mem @ cross_k).reshape(t_src, n, d_h)
    values = (mem @ cross_v).reshape(t_src, n, d_h)
    n_cols = n * d_h
    pooled = conv_family(memory, xmha.conv).data.mean(axis=0)

    def ln(params):
        return params.gamma.data, params.beta.data

    return _LayerWeights(
        n=n,
        d_h=d_h,
        self_in=np.concatenate(
            [head_columns(w).data for w in (mha.w_q, mha.w_k, mha.w_v, conv.w_in)], axis=1
        ),
        kernel=tn.softmax_array(conv.w_a.data, axis=1),
        w_s=conv.w_s.data,
        w_q=conv.w_q.data[..., None],
        self_out=mha.w_o.data,
        ln1=ln(layer.ln1),
        cross_q=cross_q,
        cross_keys=keys.transpose(1, 2, 0),
        cross_values=values.transpose(1, 0, 2),
        cross_out=xmha.w_o.data[:n_cols],
        pooled_conv=pooled @ xmha.w_o.data[n_cols:],
        ln2=ln(layer.ln2),
        ffn=(layer.ffn.w1.data, layer.ffn.b1.data, layer.ffn.w2.data, layer.ffn.b2.data),
        ln3=ln(layer.ln3),
    )


def _empty_state(w: _LayerWeights, dtype) -> _LayerState:
    empty = np.zeros((1, w.n, 0, w.d_h), dtype=dtype)
    padding = np.zeros((1, w.n, w.kernel.shape[1] - 1, w.d_h), dtype=dtype)
    return _LayerState(keys=empty, values=empty, inputs=padding)


def _self_attention(x: np.ndarray, w: _LayerWeights, st: _LayerState) -> np.ndarray:
    """Masked hybrid self-attention of the newest position; appends it to `st`."""
    b, n, d_h = x.shape[0], w.n, w.d_h
    taps = w.kernel.shape[1]
    q, k, v, s = (x @ w.self_in).reshape(b, 4, n, 1, d_h).transpose(1, 0, 2, 3, 4)
    st.keys = np.concatenate([st.keys, k], axis=2)
    st.values = np.concatenate([st.values, v], axis=2)
    st.inputs = np.concatenate([st.inputs, s], axis=2)
    scores = (q @ st.keys.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_h))
    dot_out = (tn.softmax_array(scores) @ st.values).reshape(b, n * d_h)

    local = (st.inputs[:, :, -taps:][:, :, ::-1] * w.kernel).sum(axis=2)  # tap j reads t - j
    prefix = st.inputs[:, :, taps - 1 :]  # (B, n, length, d_h)
    weights = tn.softmax_array((prefix @ w.w_q).swapaxes(-1, -2))  # (B, n, 1, length)
    query = (weights @ (prefix @ w.w_s))[:, :, 0]
    gate = tn.sigmoid_array((local * query).sum(axis=-1) * (1.0 / math.sqrt(d_h)))
    conv_out = (gate[..., None] * local).reshape(b, n * d_h)
    return np.concatenate([dot_out, conv_out], axis=-1) @ w.self_out


def _cross_attention(y: np.ndarray, w: _LayerWeights) -> np.ndarray:
    """Encoder-decoder attention of the newest position of every hypothesis."""
    b = y.shape[0]
    q = (y @ w.cross_q).reshape(b, w.n, w.d_h).transpose(1, 0, 2)
    scores = (q @ w.cross_keys) * (1.0 / math.sqrt(w.d_h))  # (n, B, T_src)
    ctx = (tn.softmax_array(scores) @ w.cross_values).transpose(1, 0, 2).reshape(b, -1)
    return ctx @ w.cross_out + w.pooled_conv


def _feed_forward(y: np.ndarray, ffn: tuple) -> np.ndarray:
    w1, b1, w2, b2 = ffn
    return np.maximum(y @ w1 + b1, 0) @ w2 + b2


def _add_norm(x: np.ndarray, sublayer_out: np.ndarray, ln: tuple) -> np.ndarray:
    """The residual sum through the layer norm `ln` = (gamma, beta)."""
    gamma, beta = ln
    return gamma * tn.standardize(x + sublayer_out, LAYER_NORM_EPS)[0] + beta


class DecoderCache:
    """Decoder state of the live hypotheses of one source sentence.

    Built by `Seq2SeqModel.start_decoding`; `length` target positions have
    been decoded so far. It holds one hypothesis until `select` says
    otherwise.
    """

    def __init__(self, model, memory: tn.Tensor):
        if memory.ndim != 2 or memory.shape[1] != model.config.d_model:
            raise DimensionError(
                f"decoding starts from one sentence's (T_src, {model.config.d_model}) "
                f"memory, got shape {memory.shape}"
            )
        self.memory = memory
        self.length = 0
        self._max_len = model.config.max_len
        self._embed = model.tgt_embed.data
        self._scale = math.sqrt(model.config.d_model)
        self._positions = model._pe
        self._out = (model.out_proj_w.data, model.out_proj_b.data)
        with tn.no_grad():
            self._layers = [_stack_layer(layer, memory) for layer in model.dec_layers]
        self._states = [_empty_state(w, memory.dtype) for w in self._layers]

    @property
    def batch(self) -> int:
        return self._states[0].keys.shape[0]

    def select(self, parent_idx) -> None:
        """Keep hypothesis parent_idx[i] as hypothesis i; indices may repeat.

        Every per-hypothesis array is gathered into a new one, so two
        children of one parent never share storage.
        """
        idx = np.asarray(parent_idx, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise DimensionError(f"select needs a nonempty 1-D index, got shape {idx.shape}")
        if idx.min() < 0 or idx.max() >= self.batch:
            raise DataError(f"select index outside the {self.batch} cached hypotheses")
        for st in self._states:
            for f in fields(st):
                setattr(st, f.name, getattr(st, f.name)[idx])

    def step(self, ids: np.ndarray, memory: tn.Tensor) -> np.ndarray:
        """Logits (B, vocab) of position `length`, given its input tokens (B, 1)."""
        if memory is not self.memory:
            raise DataError("decode was given a memory other than the cache was started from")
        if ids.shape != (self.batch, 1):
            raise DimensionError(
                f"cached decode takes one token per hypothesis, shape ({self.batch}, 1); "
                f"got {ids.shape}"
            )
        if self.length + 1 > self._max_len:
            raise DataError(f"target length {self.length + 1} exceeds max_len {self._max_len}")
        tokens = tn.embedding(self._embed, ids[:, 0]).data  # validates the ids
        x = tokens * self._scale + self._positions[self.length]
        for w, st in zip(self._layers, self._states):
            x = _add_norm(x, _self_attention(x, w, st), w.ln1)
            x = _add_norm(x, _cross_attention(x, w), w.ln2)
            x = _add_norm(x, _feed_forward(x, w.ffn), w.ln3)
        self.length += 1
        out_w, out_b = self._out
        return x @ out_w + out_b
