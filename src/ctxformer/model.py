"""Encoder-decoder assembly around the hybrid attention layers.

The encoder stack opens with two "base" layers carrying auxiliary
linear+softmax tag heads (part-of-speech on the first, named-entity on the
second) for multi-task training, followed by at least one standard layer.
The decoder mirrors the stack with masked hybrid self-attention and
encoder-decoder attention. Residual connections are post-norm: the
sublayer output is dropped out, added to the input, then layer-normalized,
all in one `layer_norm` node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as tn
from .attention import (
    ConvHeadParams,
    MultiHeadParams,
    conv_family,
    dot_product_family,
    multi_head_forward,
)
from .data import NER_TAGS, POS_TAGS
from .errors import ConfigError, DataError
from .tensor import Tensor

FFN_MULTIPLE = 4


# ------------------------------------------------------------------ config


@dataclass
class ModelConfig:
    d_model: int = 64
    h: int = 8
    n_blocks: int = 3
    kernel_sizes: tuple = (3, 5, 7)
    vocab_src: int = 64
    vocab_tgt: int = 64
    dropout: float = 0.0
    residual_dropout: float = 0.0
    dropconnect: float = 0.0
    max_len: int = 64

    def validate(self) -> None:
        if self.n_blocks < 3:
            raise ConfigError(
                f"need at least 3 blocks (2 base + 1 standard), got {self.n_blocks}"
            )
        if len(self.kernel_sizes) != self.n_blocks:
            raise ConfigError(
                f"kernel_sizes has {len(self.kernel_sizes)} entries for "
                f"{self.n_blocks} blocks"
            )
        if self.h < 2 or self.h % 2 != 0:
            raise ConfigError(f"head count must be even and >= 2, got {self.h}")
        if self.d_model < 1:
            raise ConfigError(f"d_model must be positive, got {self.d_model}")
        if self.d_model % self.h != 0:
            raise ConfigError(
                f"model width {self.d_model} not divisible by head count {self.h}"
            )
        for f in self.kernel_sizes:
            if f < 1 or f % 2 == 0:
                raise ConfigError(f"kernel sizes must be odd and >= 1, got {f}")
        for name in ("dropout", "residual_dropout", "dropconnect"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ConfigError(f"{name} must be in [0, 1), got {p}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be positive, got {self.max_len}")
        for name in ("vocab_src", "vocab_tgt"):
            if getattr(self, name) < 5:
                raise ConfigError(f"{name} must cover the 4 reserved ids plus content")


@dataclass
class EncoderOutput:
    memory: Tensor  # (..., T_src, d)
    pos_logits: Tensor  # (..., T_src, len(POS_TAGS)), from base layer 1
    ner_logits: Tensor  # (..., T_src, len(NER_TAGS)), from base layer 2


# -------------------------------------------------------------- positions


def sinusoidal_positions(t_len: int, d: int) -> np.ndarray:
    """Standard sine/cosine position table, values in [-1, 1]."""
    if d % 2 != 0:
        raise ConfigError(f"position encoding needs even width, got {d}")
    pos = np.arange(t_len, dtype=np.float64)[:, None]
    idx = np.arange(0, d, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, idx / d)
    pe = np.zeros((t_len, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


# ------------------------------------------------------------- layer params


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class EncoderLayerParams:
    mha: MultiHeadParams
    ln1: LayerNormParams
    ffn: FeedForwardParams
    ln2: LayerNormParams


@dataclass
class DecoderLayerParams:
    mha: MultiHeadParams  # masked hybrid self-attention
    ln1: LayerNormParams
    xmha: MultiHeadParams  # encoder-decoder attention; the conv half reads the memory
    ln2: LayerNormParams
    ffn: FeedForwardParams
    ln3: LayerNormParams


@dataclass
class _Regularizers:
    """Dropout plumbing for one forward pass; inactive at inference."""

    attn: Optional[tuple] = None  # (p, rng) on attention weights
    hidden: Optional[tuple] = None  # (p, rng) on FFN activations
    residual: Optional[tuple] = None  # (p, rng) on sublayer outputs
    kernel: Optional[tuple] = None  # (p, rng) DropConnect on conv kernels

    @staticmethod
    def from_config(cfg: ModelConfig, training: bool, rng) -> "_Regularizers":
        if not training:
            return _Regularizers()
        if rng is None:
            raise ConfigError("training forward pass needs an rng for dropout")
        return _Regularizers(
            attn=(cfg.dropout, rng) if cfg.dropout > 0 else None,
            hidden=(cfg.dropout, rng) if cfg.dropout > 0 else None,
            residual=(cfg.residual_dropout, rng) if cfg.residual_dropout > 0 else None,
            kernel=(cfg.dropconnect, rng) if cfg.dropconnect > 0 else None,
        )


# ----------------------------------------------------------- layer forwards


def _feed_forward(x: Tensor, ffn: FeedForwardParams, reg: _Regularizers) -> Tensor:
    """relu(x w1 + b1) w2 + b2, the hidden dropout drawn by the second
    `linear`: the graph keeps its keep bits, not a dropped copy of the hidden.

    Once relu has read the pre-activation, its node's data becomes the
    relu output, so the graph holds one (N, d_ff) hidden array: nothing
    reads the pre-activation again but relu's backward, and its mask
    pre > 0 is hidden > 0 for every pre, -0.0 and NaN included."""
    pre = tn.linear(x, ffn.w1, ffn.b1)
    hidden = tn.relu(pre)
    pre.data = hidden.data
    return tn.linear(hidden, ffn.w2, ffn.b2, input_dropout=reg.hidden)


def _sublayer(x: Tensor, out: Tensor, ln: LayerNormParams, reg: _Regularizers) -> Tensor:
    """LN(x + dropout(out)), one `layer_norm` node."""
    return tn.layer_norm(x, ln.gamma, ln.beta, out, reg.residual)


def encoder_layer(
    x: Tensor,
    layer: EncoderLayerParams,
    reg: _Regularizers = _Regularizers(),
) -> Tensor:
    attn = multi_head_forward(x, layer.mha, attn_dropout=reg.attn, kernel_dropconnect=reg.kernel)
    x = _sublayer(x, attn, layer.ln1, reg)
    return _sublayer(x, _feed_forward(x, layer.ffn, reg), layer.ln2, reg)


def base_encoder_layer(
    x: Tensor,
    layer: EncoderLayerParams,
    head_w: Tensor,
    head_b: Tensor,
    reg: _Regularizers = _Regularizers(),
) -> tuple[Tensor, Tensor]:
    """Encoder layer plus the auxiliary tag logits computed from its output."""
    y = encoder_layer(x, layer, reg)
    aux_logits = tn.linear(y, head_w, head_b)
    return y, aux_logits


def _cross_attention(
    y: Tensor, memory: Tensor, params: MultiHeadParams, reg: _Regularizers
) -> Tensor:
    """Encoder-decoder attention.

    Dot-product heads attend the memory from decoder queries. The conv
    heads read the memory with the full-sequence context query, which is
    safe because the memory is fully observed; their gated features are
    mean-pooled over source positions and broadcast to every decoder
    position, so decoder causality is untouched.
    """
    dot = dot_product_family(y, memory, params, attn_dropout=reg.attn)
    gated = conv_family(memory, params.conv, kernel_dropconnect=reg.kernel)
    pooled = tn.tmean(gated, axis=-2, keepdims=True)
    return tn.matmul(tn.concat([dot, tn.broadcast_to(pooled, dot.shape)]), params.w_o)


def decoder_layer(
    y: Tensor,
    memory: Tensor,
    layer: DecoderLayerParams,
    reg: _Regularizers = _Regularizers(),
) -> Tensor:
    self_attn = multi_head_forward(
        y, layer.mha, causal=True, attn_dropout=reg.attn, kernel_dropconnect=reg.kernel
    )
    y = _sublayer(y, self_attn, layer.ln1, reg)
    y = _sublayer(y, _cross_attention(y, memory, layer.xmha, reg), layer.ln2, reg)
    return _sublayer(y, _feed_forward(y, layer.ffn, reg), layer.ln3, reg)


# --------------------------------------------------------------- the model


class Seq2SeqModel:
    """Full translation model with auxiliary tag heads.

    The structured per-layer params hold the autodiff leaves: each head
    family is one head-stacked leaf per weight. `leaves` maps a name to
    each leaf (`enc.0.mha.self.v` for a family); Adam, `zero_grad` and the
    checkpoints (`state_arrays`, `load_state`) run over it. The flat map
    `params` names one entry per head and is kept for the finite-difference
    checks that perturb one head: `enc.0.mha.self.3.v` is a Tensor whose
    `.data` and `.grad` are views of head 3's slice of the family leaf and
    of its grad. Every other entry is the leaf itself, under the same name.
    Every leaf's grad is a buffer allocated at build, and a parameter's
    `.data` and `.grad` are never rebound, only written in place (backward,
    Adam, `zero_grad`, `load_state`), so the views stay views.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.leaves: dict[str, Tensor] = {}
        self._rng = np.random.default_rng((seed, 0xC0FFEE))
        self._build()
        self._pe = sinusoidal_positions(config.max_len, config.d_model).astype(self.dtype)

    # -- construction ----------------------------------------------------

    def _draw(self, shape, fan_in: Optional[int]) -> np.ndarray:
        if fan_in is None:  # zeros (biases, layer-norm shifts)
            return np.zeros(shape, dtype=self.dtype)
        bound = 1.0 / math.sqrt(fan_in)
        return self._rng.uniform(-bound, bound, size=shape).astype(self.dtype)

    def _leaf(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        t.grad = np.zeros(data.shape, data.dtype)
        self.leaves[name] = t
        return t

    def _param(self, name: str, shape, fan_in: Optional[int] = None) -> Tensor:
        return self._whole(name, self._draw(shape, fan_in))

    def _ones(self, name: str, shape) -> Tensor:
        return self._whole(name, np.ones(shape, dtype=self.dtype))

    def _whole(self, name: str, data: np.ndarray) -> Tensor:
        """A leaf that is also one parameter, under one name."""
        self.params[name] = self._leaf(name, data)
        return self.params[name]

    def _heads(self, prefix: str, n: int, fields: dict) -> list:
        """One head-stacked leaf per field, from {name: (one head's shape, fan_in)}.

        The leaves are `{prefix}.{name}`. Head j's slices are drawn in field
        order before head j + 1's, the order of one leaf per head, and are
        registered as `{prefix}.{j}.{name}` views.
        """
        leaves = [
            self._leaf(f"{prefix}.{name}", np.zeros((n,) + shape, dtype=self.dtype))
            for name, (shape, _) in fields.items()
        ]
        for j in range(n):
            for (name, (shape, fan_in)), leaf in zip(fields.items(), leaves):
                leaf.data[j] = self._draw(shape, fan_in)
                view = Tensor(leaf.data[j], requires_grad=True)
                view.grad = leaf.grad[j]
                self.params[f"{prefix}.{j}.{name}"] = view
        return leaves

    def _mha(self, prefix: str, taps: int) -> MultiHeadParams:
        """H/2 dot-product heads, H/2 conv heads of `taps` taps, then the
        output mix."""
        d, n = self.config.d_model, self.config.h // 2
        d_h = d // self.config.h
        w_q, w_k, w_v = self._heads(
            f"{prefix}.self", n, {f: ((d, d_h), d) for f in ("q", "k", "v")}
        )
        fields = {
            "w_in": ((d, d_h), d),
            "w_a": ((taps, d_h), taps),
            "w_s": ((d_h, d_h), d_h),
            "w_q": ((d_h,), d_h),
        }
        conv = ConvHeadParams(*self._heads(f"{prefix}.conv", n, fields))
        return MultiHeadParams(w_q, w_k, w_v, conv, self._param(f"{prefix}.w_o", (d, d), d))

    def _ffn(self, prefix: str) -> FeedForwardParams:
        d = self.config.d_model
        inner = FFN_MULTIPLE * d
        return FeedForwardParams(
            w1=self._param(f"{prefix}.w1", (d, inner), d),
            b1=self._param(f"{prefix}.b1", (inner,)),
            w2=self._param(f"{prefix}.w2", (inner, d), inner),
            b2=self._param(f"{prefix}.b2", (d,)),
        )

    def _ln(self, prefix: str) -> LayerNormParams:
        d = self.config.d_model
        return LayerNormParams(
            gamma=self._ones(f"{prefix}.gamma", (d,)),
            beta=self._param(f"{prefix}.beta", (d,)),
        )

    def _build(self) -> None:
        cfg = self.config
        d = cfg.d_model
        self.src_embed = self._param("src_embed", (cfg.vocab_src, d), d)
        self.tgt_embed = self._param("tgt_embed", (cfg.vocab_tgt, d), d)
        self.enc_layers = []
        for i, taps in enumerate(cfg.kernel_sizes):
            self.enc_layers.append(
                EncoderLayerParams(
                    mha=self._mha(f"enc.{i}.mha", taps),
                    ln1=self._ln(f"enc.{i}.ln1"),
                    ffn=self._ffn(f"enc.{i}.ffn"),
                    ln2=self._ln(f"enc.{i}.ln2"),
                )
            )
        self.pos_head_w = self._param("pos_head.w", (d, len(POS_TAGS)), d)
        self.pos_head_b = self._param("pos_head.b", (len(POS_TAGS),))
        self.ner_head_w = self._param("ner_head.w", (d, len(NER_TAGS)), d)
        self.ner_head_b = self._param("ner_head.b", (len(NER_TAGS),))
        self.dec_layers = []
        for i, taps in enumerate(cfg.kernel_sizes):
            # Cross-attention is drawn before self-attention; the initial
            # weights depend on that order.
            xmha = self._mha(f"dec.{i}.xmha", taps)
            self.dec_layers.append(
                DecoderLayerParams(
                    mha=self._mha(f"dec.{i}.mha", taps),
                    ln1=self._ln(f"dec.{i}.ln1"),
                    xmha=xmha,
                    ln2=self._ln(f"dec.{i}.ln2"),
                    ffn=self._ffn(f"dec.{i}.ffn"),
                    ln3=self._ln(f"dec.{i}.ln3"),
                )
            )
        self.out_proj_w = self._param("out_proj.w", (d, cfg.vocab_tgt), d)
        self.out_proj_b = self._param("out_proj.b", (cfg.vocab_tgt,))

    # -- forward ----------------------------------------------------------

    def _check_length(self, ids: np.ndarray, what: str) -> None:
        t_len = ids.shape[-1]
        if t_len > self.config.max_len:
            raise DataError(
                f"{what} length {t_len} exceeds max_len {self.config.max_len}"
            )
        if t_len == 0:
            raise DataError(f"{what} is empty")

    def embed(
        self,
        ids: np.ndarray,
        table: Tensor,
        training: bool = False,
        rng=None,
    ) -> Tensor:
        """Token lookup scaled by sqrt(d) plus positions, then dropout at the
        residual rate."""
        ids = np.asarray(ids)
        t_len = ids.shape[-1]
        x = tn.mul(tn.embedding(table, ids), math.sqrt(self.config.d_model))
        x = tn.add(x, self._pe[:t_len])
        if training and self.config.residual_dropout > 0:
            x = tn.dropout(x, self.config.residual_dropout, rng)
        return x

    def encode(
        self,
        src_ids: np.ndarray,
        training: bool = False,
        rng=None,
    ) -> EncoderOutput:
        """Base layer 1 (POS head), base layer 2 (NER head), then the
        remaining standard layers; all three outputs share one pass."""
        src_ids = np.asarray(src_ids)
        self._check_length(src_ids, "source")
        reg = _Regularizers.from_config(self.config, training, rng)
        x = self.embed(src_ids, self.src_embed, training, rng)
        x, pos_logits = base_encoder_layer(
            x, self.enc_layers[0], self.pos_head_w, self.pos_head_b, reg
        )
        x, ner_logits = base_encoder_layer(
            x, self.enc_layers[1], self.ner_head_w, self.ner_head_b, reg
        )
        for layer in self.enc_layers[2:]:
            x = encoder_layer(x, layer, reg)
        return EncoderOutput(memory=x, pos_logits=pos_logits, ner_logits=ner_logits)

    def start_decoding(self, memory: Tensor):
        """An empty `DecoderCache` for one sentence's (T_src, d) memory; its
        layout is described in `incremental`. Build a new one after the
        parameters change.
        """
        from .incremental import DecoderCache

        return DecoderCache(self, memory)

    def decode(
        self,
        tgt_in_ids: np.ndarray,
        memory: Tensor,
        training: bool = False,
        rng=None,
        cache=None,
    ) -> Tensor:
        """Decoder pass; returns target-vocabulary logits.

        Without a cache this is the teacher-forced pass over whole prefixes
        (..., T) against a memory (..., T_src, d): the training path, and the
        reference that incremental decoding is tested against. With a cache
        from `start_decoding(memory)`, `tgt_in_ids` holds the next token of
        each cached hypothesis, shape (B, 1), at position `cache.length`;
        the call returns the (B, 1, vocab) logits of that position only and
        appends it to the cache (see `incremental`). Cached decoding is
        inference only.
        """
        tgt_in_ids = np.asarray(tgt_in_ids)
        if cache is not None:
            if training:
                raise ConfigError("cached decoding is inference only; train on full prefixes")
            return Tensor(cache.step(tgt_in_ids, memory)[:, None, :])
        self._check_length(tgt_in_ids, "target")
        reg = _Regularizers.from_config(self.config, training, rng)
        y = self.embed(tgt_in_ids, self.tgt_embed, training, rng)
        for layer in self.dec_layers:
            y = decoder_layer(y, memory, layer, reg)
        return tn.linear(y, self.out_proj_w, self.out_proj_b)

    def forward_train(
        self,
        src_ids: np.ndarray,
        tgt_in_ids: np.ndarray,
        training: bool = True,
        rng=None,
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Full teacher-forced pass: translation logits plus both tag logits."""
        enc = self.encode(src_ids, training, rng)
        mt_logits = self.decode(tgt_in_ids, enc.memory, training, rng)
        return mt_logits, enc.pos_logits, enc.ner_logits

    # -- parameter plumbing -------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.leaves.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.leaves) - set(arrays)
        extra = set(arrays) - set(self.leaves)
        if missing or extra:
            raise DataError(
                f"checkpoint does not match model: missing {sorted(missing)[:3]}, "
                f"unexpected {sorted(extra)[:3]}"
            )
        for name, t in self.leaves.items():
            arr = np.asarray(arrays[name], dtype=self.dtype)
            if arr.shape != t.data.shape:
                raise DataError(
                    f"parameter {name}: checkpoint shape {arr.shape} != {t.data.shape}"
                )
            t.data[...] = arr

    def zero_grad(self) -> None:
        for t in self.leaves.values():
            t.grad[...] = 0

    def parameter_count(self) -> int:
        return sum(t.size for t in self.leaves.values())


def count_parameters(config: ModelConfig) -> int:
    """Closed-form parameter count for a given configuration."""
    config.validate()
    d, h = config.d_model, config.h
    d_h = d // h
    inner = FFN_MULTIPLE * d

    def mha(taps: int) -> int:
        self_part = (h // 2) * 3 * d * d_h
        conv_part = (h // 2) * (d * d_h + taps * d_h + d_h * d_h + d_h)
        return self_part + conv_part + d * d

    ffn = d * inner + inner + inner * d + d
    ln = 2 * d
    total = (config.vocab_src + config.vocab_tgt) * d
    for taps in config.kernel_sizes:
        total += mha(taps) + ffn + 2 * ln  # encoder block
        total += 2 * mha(taps) + ffn + 3 * ln  # decoder block
    for n_tags in (len(POS_TAGS), len(NER_TAGS)):
        total += d * n_tags + n_tags
    total += d * config.vocab_tgt + config.vocab_tgt
    return total
