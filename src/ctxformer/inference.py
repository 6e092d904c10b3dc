"""Beam-search decoding, corpus BLEU, and the embedding-similarity probe.

Beam search ranks finished hypotheses by log-probability divided by the
length penalty ((5 + |Y|) / 6)^alpha, where |Y| counts generated tokens
including the end marker. Expansion ties break deterministically by token
id, then hypothesis index, so decoding is reproducible bit for bit. The beam
state is arrays: a token matrix and a float64 log-probability vector for
the live hypotheses, ranked with one `lexsort` per step, and a list of
finished (tokens, log_prob) pairs in the order they finished.

Decoding is incremental. The source is encoded once and
`model.start_decoding` builds a decoder cache from the memory: per decoder
layer the self-attention keys and values, each conv head's causal window
and running adaptive-query softmax, and the cross-attention keys, values
and conv half, computed once per sentence. Each step then feeds only the
last token of every live hypothesis to `model.decode(..., cache=cache)`,
and `cache.select` reorders and duplicates the cached states after
pruning. The full-prefix `model.decode` is the training path and the
reference these steps are tested against.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .attention import ConvHeadParams, local_conv, scaled_dot_product_attention
from .data import BOS_ID, EOS_ID, NER_TAGS, POS_TAGS
from .errors import ConfigError, DataError, NumericsError


@dataclass
class DecodeConfig:
    beam_size: int = 5
    alpha: float = 0.5
    max_decode_len: int = 32

    def validate(self) -> None:
        if self.beam_size < 1:
            raise ConfigError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_decode_len < 1:
            raise ConfigError(f"max_decode_len must be >= 1, got {self.max_decode_len}")
        if not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")


@dataclass
class BeamResult:
    tokens: list  # generated ids, begin/end markers stripped
    log_prob: float
    score: float  # length-normalized ranking score
    finished: bool  # False: budget exhausted before the end marker


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def beam_search(src_ids, model, config: DecodeConfig) -> BeamResult:
    """Decode one source sentence; deterministic for a fixed checkpoint."""
    config.validate()
    src = np.asarray(list(src_ids) + [EOS_ID], dtype=np.int64)
    budget = min(config.max_decode_len, model.config.max_len - 1)
    # Live hypotheses: generated ids (B, steps) and float64 log-probabilities
    # (B,); finished ones leave as (tokens, log_prob), end marker kept.
    tokens = np.zeros((1, 0), dtype=np.int64)
    log_probs = np.zeros(1)
    finished: list[tuple[tuple, float]] = []
    with tn.no_grad():
        memory = model.encode(src).memory
        cache = model.start_decoding(memory)
        last = np.full((1, 1), BOS_ID, dtype=np.int64)
        for _ in range(budget):
            logits = model.decode(last, memory, cache=cache).data[:, -1, :]
            flat = (log_probs[:, None] + tn.log_softmax_array(logits)).reshape(-1)
            hyp_idx, tok_idx = np.divmod(np.arange(flat.size), logits.shape[-1])
            keep = np.lexsort((hyp_idx, tok_idx, -flat))[: config.beam_size]
            parents, chosen, kept = hyp_idx[keep], tok_idx[keep], flat[keep]
            grown = np.concatenate([tokens[parents], chosen[:, None]], axis=1)
            ends = chosen == EOS_ID
            finished += zip(map(tuple, grown[ends].tolist()), kept[ends].tolist())
            alive = ~ends
            if not alive.any():
                break
            tokens, log_probs = grown[alive], kept[alive]
            cache.select(parents[alive])
            last = tokens[:, -1:]
    pool = finished or list(zip(map(tuple, tokens.tolist()), log_probs.tolist()))
    scored = [(lp / length_penalty(len(toks), config.alpha), toks, lp) for toks, lp in pool]
    # Highest score first, then the lexicographically smallest token string.
    best_score, best_tokens, best_log_prob = min(scored, key=lambda c: (-c[0], c[1]))
    return BeamResult(
        tokens=[t for t in best_tokens if t != EOS_ID],
        log_prob=best_log_prob,
        score=best_score,
        finished=bool(finished),
    )


# --------------------------------------------------------------------- BLEU


def _ngrams(tokens, n):
    return collections.Counter(
        tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
    )


def bleu(candidates, references) -> float:
    """Corpus BLEU-4: clipped n-gram precision with brevity penalty.

    Orders n >= 2 with zero clipped matches get add-1 smoothing
    ((m+1)/(t+1)); a zero unigram precision yields a score of exactly 0.
    Returned on the 0..100 scale.
    """
    candidates, references = list(candidates), list(references)
    if not candidates:
        raise DataError("bleu needs at least one candidate")
    if len(candidates) != len(references):
        raise DataError(
            f"candidate count {len(candidates)} != reference count {len(references)}"
        )
    if any(len(r) == 0 for r in references):
        raise DataError("references must be nonempty")
    matches = [0] * 4
    totals = [0] * 4
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        cand, ref = list(cand), list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            c_counts = _ngrams(cand, n)
            r_counts = _ngrams(ref, n)
            totals[n - 1] += sum(c_counts.values())
            matches[n - 1] += sum(min(c, r_counts[g]) for g, c in c_counts.items())
    if cand_len == 0 or totals[0] == 0 or matches[0] == 0:
        return 0.0
    log_sum = 0.0
    for n in range(4):
        m, t = matches[n], totals[n]
        if n >= 1 and m == 0:
            m, t = m + 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_sum += math.log(m / t)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum / 4.0)


def exact_match(candidates, references) -> float:
    candidates, references = list(candidates), list(references)
    if len(candidates) != len(references):
        raise DataError(
            f"candidate count {len(candidates)} != reference count {len(references)}"
        )
    if not candidates:
        raise DataError("exact_match needs at least one pair")
    hits = sum(1 for c, r in zip(candidates, references) if list(c) == list(r))
    return hits / len(candidates)


def tag_accuracies(records, model, src_vocab) -> tuple[float, float]:
    """Per-token accuracy of the auxiliary POS/NER heads on tagged records."""
    hits_pos = hits_ner = total = 0
    with tn.no_grad():
        for src, _tgt, pos, ner in records:
            ids = np.asarray(src_vocab.encode(src) + [EOS_ID], dtype=np.int64)
            enc = model.encode(ids)
            pred_pos = enc.pos_logits.data.argmax(-1)[: len(src)]
            pred_ner = enc.ner_logits.data.argmax(-1)[: len(src)]
            gold_pos = [POS_TAGS.index(t) for t in pos]
            gold_ner = [NER_TAGS.index(t) for t in ner]
            hits_pos += int((pred_pos == gold_pos).sum())
            hits_ner += int((pred_ner == gold_ner).sum())
            total += len(src)
    if total == 0:
        raise DataError("no tagged tokens to evaluate")
    return hits_pos / total, hits_ner / total


# -------------------------------------------------------------------- probe


PROBE_LAYERS = ("embedding", "self_head", "conv_local")


def cosine_probe(
    word_a: str,
    word_b: str,
    sentence_words,
    model,
    vocab,
    layer: str = "conv_local",
) -> float:
    """Cosine similarity of two word representations inside one sentence.

    `layer` selects raw embeddings, the first dot-product head's output, or
    the first conv head's local-context output (both heads of the first
    base encoder layer, run alone on the embeddings). Same word and
    position gives exactly 1.
    """
    if layer not in PROBE_LAYERS:
        raise ConfigError(f"unknown probe layer {layer!r}; expected one of {PROBE_LAYERS}")
    words = list(sentence_words)
    try:
        idx_a = words.index(word_a)
        idx_b = words.index(word_b)
    except ValueError as exc:
        raise DataError(f"word not found in sentence: {exc}") from exc
    ids = np.asarray(vocab.encode(words) + [EOS_ID], dtype=np.int64)
    model._check_length(ids, "source")
    mha = model.enc_layers[0].mha
    with tn.no_grad():
        x = model.embed(ids, model.src_embed)
        if layer == "embedding":
            reps = x.data
        elif layer == "self_head":
            q, k, v = (tn.matmul(x, tn.Tensor(w.data[0])) for w in (mha.w_q, mha.w_k, mha.w_v))
            reps = scaled_dot_product_attention(q, k, v).data
        else:
            conv = mha.conv
            head = ConvHeadParams(
                *(tn.Tensor(w.data[0]) for w in (conv.w_in, conv.w_a, conv.w_s, conv.w_q))
            )
            reps = local_conv(tn.matmul(x, head.w_in), head).data
    vec_a, vec_b = reps[idx_a], reps[idx_b]
    norm_a, norm_b = float(np.linalg.norm(vec_a)), float(np.linalg.norm(vec_b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise NumericsError("zero-norm representation; cosine undefined")
    return float(vec_a @ vec_b / (norm_a * norm_b))
