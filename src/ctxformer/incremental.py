"""Incremental decoding: the decoder run one target position at a time.

`Seq2SeqModel.start_decoding(memory)` builds a `DecoderCache` once per
source sentence. Each `Seq2SeqModel.decode(ids, memory, cache=cache)` call
then embeds one new token per hypothesis at position `cache.length`, runs
every decoder layer on that position only, and returns its logits. Per
decoder layer the cache holds:

- the keys and values of the masked self-attention's dot-product heads,
  one row appended per step;
- the projected inputs that each conv head's causal dilated window still
  reads: the last (F - 1) * dilation + 1 positions, zeros before the first
  position, which is the zero padding of the full-prefix convolution;
- the causal adaptive query as a running prefix softmax (max, sum of exp,
  exp-weighted sum of projections), updated with the online-softmax
  recurrence;
- the cross-attention keys and values, computed once from the (T_src, d)
  memory and shared by every hypothesis without a copy;
- the conv half of cross-attention, which depends only on the memory: its
  mean-pooled heads mixed by their rows of the output matrix, one (d,)
  vector per layer.

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
    """One decoder layer's head-stacked weights and what it reads of the memory."""

    n_dot: int  # dot-product heads of the self-attention
    d_k: int  # width of every dot-product head, self- and cross-attention alike
    n_conv: int  # conv heads of the self-attention, each d_h wide
    d_h: int
    self_in: np.ndarray  # (d, 3 * n_dot * d_k + n_conv * d_h): q | k | v | w_in
    kernel: np.ndarray  # (n_conv, F, d_h), softmax-normalized over the taps
    taps: np.ndarray  # (F,) window rows of positions t, t - dilation, ...
    w_s: np.ndarray  # (n_conv, d_h, d_h)
    w_q: np.ndarray  # (n_conv, d_h)
    self_out: np.ndarray  # (d, d)
    ln1: tuple
    n_cross: int  # dot-product heads of the cross-attention
    cross_q: np.ndarray  # (d, n_cross * d_k)
    cross_keys: np.ndarray  # (n_cross, d_k, T_src)
    cross_values: np.ndarray  # (n_cross, T_src, d_k)
    cross_out: np.ndarray  # (n_cross * d_k, d): the dot-head rows of the output matrix
    cross_conv: np.ndarray  # (d,): the conv half's contribution, zero without conv heads
    ln2: tuple
    ffn: tuple  # (w1, b1, w2, b2)
    ln3: tuple


@dataclass
class _LayerState:
    """Per-hypothesis state of one decoder layer; axis 0 indexes hypotheses."""

    keys: np.ndarray  # (B, n_dot, length, d_k)
    values: np.ndarray  # (B, n_dot, length, d_k)
    window: np.ndarray  # (B, n_conv, (F - 1) * dilation + 1, d_h), newest last
    q_max: np.ndarray  # (B, n_conv) running max of the adaptive-query scores
    q_sum: np.ndarray  # (B, n_conv) sum of exp(score - q_max)
    q_acc: np.ndarray  # (B, n_conv, d_h) sum of exp(score - q_max) * projection


def _stack_layer(layer, memory: tn.Tensor) -> _LayerWeights:
    mha, xmha, conv = layer.mha, layer.xmha, layer.mha.conv
    n_conv, taps, d_h = conv.w_a.shape
    width = (taps - 1) * conv.dilation + 1

    mem = memory.data
    n_cross, _, d_k = xmha.w_q.shape
    cross_q, cross_k, cross_v = (head_columns(w).data for w in (xmha.w_q, xmha.w_k, xmha.w_v))
    t_src = mem.shape[0]
    keys = (mem @ cross_k).reshape(t_src, n_cross, d_k)
    values = (mem @ cross_v).reshape(t_src, n_cross, d_k)
    n_cols = n_cross * d_k
    if xmha.conv is not None:
        pooled = conv_family(memory, xmha.conv).data.mean(axis=0)
        cross_conv = pooled @ xmha.w_o.data[n_cols:]
    else:
        cross_conv = np.zeros(xmha.w_o.shape[1], dtype=mem.dtype)

    def ln(params):
        return params.gamma.data, params.beta.data

    return _LayerWeights(
        n_dot=mha.w_q.shape[0],
        d_k=d_k,
        n_conv=n_conv,
        d_h=d_h,
        self_in=np.concatenate(
            [head_columns(w).data for w in (mha.w_q, mha.w_k, mha.w_v, conv.w_in)], axis=1
        ),
        kernel=tn.softmax_array(conv.w_a.data, axis=1),
        taps=(width - 1) - conv.dilation * np.arange(taps),
        w_s=conv.w_s.data,
        w_q=conv.w_q.data,
        self_out=mha.w_o.data,
        ln1=ln(layer.ln1),
        n_cross=n_cross,
        cross_q=cross_q,
        cross_keys=keys.transpose(1, 2, 0),
        cross_values=values.transpose(1, 0, 2),
        cross_out=xmha.w_o.data[:n_cols],
        cross_conv=cross_conv,
        ln2=ln(layer.ln2),
        ffn=(layer.ffn.w1.data, layer.ffn.b1.data, layer.ffn.w2.data, layer.ffn.b2.data),
        ln3=ln(layer.ln3),
    )


def _empty_state(w: _LayerWeights, dtype) -> _LayerState:
    width = int(w.taps[0]) + 1
    return _LayerState(
        keys=np.zeros((1, w.n_dot, 0, w.d_k), dtype=dtype),
        values=np.zeros((1, w.n_dot, 0, w.d_k), dtype=dtype),
        window=np.zeros((1, w.n_conv, width, w.d_h), dtype=dtype),
        q_max=np.full((1, w.n_conv), -np.inf, dtype=dtype),
        q_sum=np.zeros((1, w.n_conv), dtype=dtype),
        q_acc=np.zeros((1, w.n_conv, w.d_h), dtype=dtype),
    )


def _self_attention(x: np.ndarray, w: _LayerWeights, st: _LayerState) -> np.ndarray:
    """Masked hybrid self-attention of the newest position; appends it to `st`."""
    b = x.shape[0]
    n_dot, d_k, n_conv, d_h = w.n_dot, w.d_k, w.n_conv, w.d_h
    cols = n_dot * d_k
    proj = x @ w.self_in
    q = proj[:, :cols].reshape(b, n_dot, 1, d_k)
    st.keys = np.concatenate([st.keys, proj[:, cols : 2 * cols].reshape(b, n_dot, 1, d_k)], axis=2)
    st.values = np.concatenate(
        [st.values, proj[:, 2 * cols : 3 * cols].reshape(b, n_dot, 1, d_k)], axis=2
    )
    scores = (q @ st.keys.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_k))
    dot_out = (tn.softmax_array(scores) @ st.values).reshape(b, cols)

    s = proj[:, 3 * cols :].reshape(b, n_conv, d_h)
    st.window = np.concatenate([st.window[:, :, 1:], s[:, :, None, :]], axis=2)
    local = (st.window[:, :, w.taps, :] * w.kernel).sum(axis=2)
    # Causal adaptive query: one online-softmax update of the prefix state.
    score = (s * w.w_q).sum(axis=-1)
    projected = (s.transpose(1, 0, 2) @ w.w_s).transpose(1, 0, 2)
    new_max = np.maximum(st.q_max, score)
    decay, weight = np.exp(st.q_max - new_max), np.exp(score - new_max)
    st.q_max = new_max
    st.q_sum = st.q_sum * decay + weight
    st.q_acc = st.q_acc * decay[..., None] + weight[..., None] * projected
    query = st.q_acc / st.q_sum[..., None]
    gate = tn.sigmoid_array((local * query).sum(axis=-1) * (1.0 / math.sqrt(d_h)))
    conv_out = (gate[..., None] * local).reshape(b, n_conv * d_h)
    return np.concatenate([dot_out, conv_out], axis=-1) @ w.self_out


def _cross_attention(y: np.ndarray, w: _LayerWeights) -> np.ndarray:
    """Encoder-decoder attention of the newest position of every hypothesis."""
    b = y.shape[0]
    q = (y @ w.cross_q).reshape(b, w.n_cross, w.d_k).transpose(1, 0, 2)
    scores = (q @ w.cross_keys) * (1.0 / math.sqrt(w.d_k))  # (n_cross, B, T_src)
    ctx = (tn.softmax_array(scores) @ w.cross_values).transpose(1, 0, 2).reshape(b, -1)
    return ctx @ w.cross_out + w.cross_conv


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
