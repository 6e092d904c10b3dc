"""Incremental decoding: the decoder run one target position at a time.

`Seq2SeqModel.start_decoding(memory)` builds a `DecoderCache` once per
source sentence. Each `Seq2SeqModel.decode(ids, memory, cache=cache)` call
then embeds one new token per hypothesis at position `cache.length`, runs
every decoder layer on that position only, and returns its logits.

Per decoder layer the cache holds one state array, (B, 3, n, length, d_h):
for each hypothesis, the keys, the values and the projected conv inputs of
the masked self-attention's n dot-product and n conv heads, one row per
decoded position. A step appends its row to all three with one
`np.concatenate`, and `select` gathers hypotheses with one indexing per
layer. The dot-product heads attend the keys and values with Eq. 1
(`_attend`). The conv heads read the last min(F, length) input rows,
newest first, against the first taps of the kernel for the local context
(Eq. 2): the full-prefix convolution's zero padding adds only zero terms,
so it is left out. All `length` rows give the causal adaptive query
(Eq. 3) and the gate (Eq. 4), with the formulas of
`attention.dynamic_conv_head`.

It also holds what depends only on the memory, computed once and shared
by every hypothesis without a copy:

- the cross-attention keys and values of the (T_src, d) memory, each
  (n, T_src, d_h), which the newest position attends with the same `_attend`;
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
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .attention import conv_family, head_columns
from .errors import DataError, DimensionError
from .model import DecoderLayerParams, FeedForwardParams, LayerNormParams


@dataclass
class _LayerWeights:
    """One decoder layer's parameters, what the step derives from them, and
    what it reads of the memory. Each attention sublayer has n dot-product
    and n conv heads, all d_h wide."""

    params: DecoderLayerParams
    n: int
    d_h: int
    self_in: np.ndarray  # (d, 4 * n * d_h): q | k | v | w_in
    kernel: np.ndarray  # (n, F, d_h), softmax-normalized over the taps
    w_q: np.ndarray  # (n, d_h, 1)
    cross_q: np.ndarray  # (d, n * d_h)
    cross_keys: np.ndarray  # (n, T_src, d_h)
    cross_values: np.ndarray  # (n, T_src, d_h)
    cross_out: np.ndarray  # (n * d_h, d): the dot-head rows of the output matrix
    pooled_conv: np.ndarray  # (d,): the conv half of cross-attention, already mixed


def _stack_layer(layer: DecoderLayerParams, memory: tn.Tensor) -> _LayerWeights:
    mha, xmha, conv = layer.mha, layer.xmha, layer.mha.conv
    n, _, d_h = xmha.w_q.shape
    mem = memory.data
    cross_q, cross_k, cross_v = (head_columns(w).data for w in (xmha.w_q, xmha.w_k, xmha.w_v))
    t_src = mem.shape[0]
    n_cols = n * d_h
    pooled = conv_family(memory, xmha.conv).data.mean(axis=0)
    return _LayerWeights(
        params=layer,
        n=n,
        d_h=d_h,
        self_in=np.concatenate(
            [head_columns(w).data for w in (mha.w_q, mha.w_k, mha.w_v, conv.w_in)], axis=1
        ),
        kernel=tn.softmax_array(conv.w_a.data, axis=1),
        w_q=conv.w_q.data[..., None],
        cross_q=cross_q,
        cross_keys=(mem @ cross_k).reshape(t_src, n, d_h).transpose(1, 0, 2),
        cross_values=(mem @ cross_v).reshape(t_src, n, d_h).transpose(1, 0, 2),
        cross_out=xmha.w_o.data[:n_cols],
        pooled_conv=pooled @ xmha.w_o.data[n_cols:],
    )


def _attend(q: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Eq. 1: softmax(q k^T / sqrt(d_h)) v, over the second-last axis of keys."""
    scores = (q @ keys.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    return tn.softmax_array(scores) @ values


def _self_attention(x: np.ndarray, w: _LayerWeights, state: np.ndarray):
    """Masked hybrid self-attention of the newest position, and `state` with
    that position appended."""
    b, n, d_h = x.shape[0], w.n, w.d_h
    projected = (x @ w.self_in).reshape(b, 4, n, 1, d_h)  # q | k | v | s
    state = np.concatenate([state, projected[:, 1:]], axis=3)
    keys, values, inputs = state[:, 0], state[:, 1], state[:, 2]
    dot_out = _attend(projected[:, 0], keys, values).reshape(b, n * d_h)

    m = min(w.kernel.shape[1], inputs.shape[2])
    local = (inputs[:, :, -m:][:, :, ::-1] * w.kernel[:, :m]).sum(axis=2)  # tap j reads t - j
    weights = tn.softmax_array((inputs @ w.w_q).swapaxes(-1, -2))  # (B, n, 1, length)
    query = (weights @ (inputs @ w.params.mha.conv.w_s.data))[:, :, 0]
    gate = tn.sigmoid_array((local * query).sum(axis=-1) * (1.0 / math.sqrt(d_h)))
    conv_out = (gate[..., None] * local).reshape(b, n * d_h)
    return np.concatenate([dot_out, conv_out], axis=-1) @ w.params.mha.w_o.data, state


def _cross_attention(y: np.ndarray, w: _LayerWeights) -> np.ndarray:
    """Encoder-decoder attention of the newest position of every hypothesis."""
    b = y.shape[0]
    q = (y @ w.cross_q).reshape(b, w.n, w.d_h).transpose(1, 0, 2)
    ctx = _attend(q, w.cross_keys, w.cross_values).transpose(1, 0, 2).reshape(b, -1)
    return ctx @ w.cross_out + w.pooled_conv


def _feed_forward(y: np.ndarray, ffn: FeedForwardParams) -> np.ndarray:
    return np.maximum(y @ ffn.w1.data + ffn.b1.data, 0) @ ffn.w2.data + ffn.b2.data


def _add_norm(x: np.ndarray, sublayer_out: np.ndarray, ln: LayerNormParams) -> np.ndarray:
    """The residual sum through the layer norm `ln`."""
    return ln.gamma.data * tn.standardize(x + sublayer_out)[0] + ln.beta.data


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
        self._states = [
            np.zeros((1, 3, w.n, 0, w.d_h), dtype=memory.dtype) for w in self._layers
        ]

    @property
    def batch(self) -> int:
        return self._states[0].shape[0]

    def select(self, parent_idx) -> None:
        """Keep hypothesis parent_idx[i] as hypothesis i; indices may repeat.

        Each layer's state is gathered into a new array, so two children
        of one parent never share storage.
        """
        idx = np.asarray(parent_idx, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise DimensionError(f"select needs a nonempty 1-D index, got shape {idx.shape}")
        if idx.min() < 0 or idx.max() >= self.batch:
            raise DataError(f"select index outside the {self.batch} cached hypotheses")
        self._states = [state[idx] for state in self._states]

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
        for i, w in enumerate(self._layers):
            attn, self._states[i] = _self_attention(x, w, self._states[i])
            x = _add_norm(x, attn, w.params.ln1)
            x = _add_norm(x, _cross_attention(x, w), w.params.ln2)
            x = _add_norm(x, _feed_forward(x, w.params.ffn), w.params.ln3)
        self.length += 1
        out_w, out_b = self._out
        return x @ out_w + out_b
