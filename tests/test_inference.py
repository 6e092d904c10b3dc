"""Beam search vs exhaustive/greedy oracles, BLEU arithmetic, probe."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ctxformer import attention as A
from ctxformer import data as D
from ctxformer import inference as I
from ctxformer import tensor as T
from ctxformer.errors import ConfigError, DataError
from ctxformer.model import ModelConfig, Seq2SeqModel, sinusoidal_positions

from oracles import local_conv_oracle


class StubCache:
    """The stub's decoder cache: the prefix of every live hypothesis."""

    def __init__(self):
        self.prefixes = [[]]

    @property
    def length(self):
        return len(self.prefixes[0])

    def select(self, parent_idx):
        self.prefixes = [list(self.prefixes[i]) for i in parent_idx]


class StubModel:
    """Fake decoder whose next-token logits are a seeded function of the
    prefix, so exhaustive enumeration is cheap and exact."""

    def __init__(self, vocab=3, seed=0, max_len=16):
        self.vocab = vocab
        self.seed = seed
        self.config = SimpleNamespace(max_len=max_len)

    def encode(self, src):
        return SimpleNamespace(memory=T.Tensor(np.zeros((len(src), 2))))

    def _row(self, prefix):
        rng = np.random.default_rng((self.seed, 77) + tuple(int(t) for t in prefix))
        return rng.normal(size=self.vocab) * 2.0

    def start_decoding(self, memory):
        return StubCache()

    def decode(self, next_tokens, memory, cache):
        assert next_tokens.shape == (len(cache.prefixes), 1)
        for prefix, token in zip(cache.prefixes, next_tokens[:, 0]):
            prefix.append(int(token))
        rows = [self._row(prefix) for prefix in cache.prefixes]
        return T.Tensor(np.stack(rows)[:, None, :])


def _log_softmax(row):
    shifted = row - row.max()
    return shifted - math.log(np.exp(shifted).sum())


def stub_sequence_logprob(stub, tokens):
    total = 0.0
    prefix = [D.BOS_ID]
    for tok in tokens:
        total += float(_log_softmax(stub._row(prefix))[tok])
        prefix.append(tok)
    return total


def exhaustive_best(stub, max_len, alpha):
    """Enumerate every token string with the end marker only in final
    position, plus unfinished max-length strings; rank like the decoder."""
    non_eos = [t for t in range(stub.vocab) if t != D.EOS_ID]
    best, best_score = None, -math.inf
    candidates = []
    for length in range(1, max_len + 1):
        for body in itertools.product(non_eos, repeat=length - 1):
            candidates.append(tuple(body) + (D.EOS_ID,))
    finished = set(candidates)
    has_finished = bool(finished)
    if not has_finished:
        candidates = [tuple(b) for b in itertools.product(non_eos, repeat=max_len)]
    for tokens in candidates:
        score = stub_sequence_logprob(stub, tokens) / I.length_penalty(len(tokens), alpha)
        if score > best_score:
            best, best_score = tokens, score
    return best, best_score


def greedy_oracle(stub, max_len):
    prefix, tokens = [D.BOS_ID], []
    for _ in range(max_len):
        row = stub._row(prefix)
        tok = int(np.argmax(row))
        tokens.append(tok)
        prefix.append(tok)
        if tok == D.EOS_ID:
            break
    return tokens


# ---------------------------------------------------------------- beam search


@pytest.mark.parametrize("seed", range(6))
def test_pruning_free_beam_equals_exhaustive(seed):
    stub = StubModel(vocab=3, seed=seed)
    cfg = I.DecodeConfig(beam_size=3 ** 3 * 3, alpha=0.5, max_decode_len=3)
    result = I.beam_search([4], stub, cfg)
    best, best_score = exhaustive_best(stub, 3, 0.5)
    assert tuple(result.tokens) + ((D.EOS_ID,) if result.finished else ()) == best
    assert abs(result.score - best_score) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_beam_one_equals_greedy(seed):
    stub = StubModel(vocab=5, seed=seed)
    cfg = I.DecodeConfig(beam_size=1, alpha=0.5, max_decode_len=8)
    result = I.beam_search([4], stub, cfg)
    expected = greedy_oracle(stub, 8)
    produced = list(result.tokens) + ([D.EOS_ID] if result.finished else [])
    assert produced == expected


def test_alpha_zero_ranks_by_raw_log_prob():
    stub = StubModel(vocab=4, seed=3)
    cfg = I.DecodeConfig(beam_size=4, alpha=0.0, max_decode_len=4)
    result = I.beam_search([4], stub, cfg)
    assert result.score == result.log_prob


@pytest.mark.parametrize("seed", range(12))
def test_beam_score_nondecreasing_in_beam_size(seed):
    # meaningful only when every run finishes: an unfinished prefix omits
    # the cost of ever emitting the end marker, so give a generous budget
    stub = StubModel(vocab=4, seed=seed)
    scores = []
    for beam in (1, 2, 4, 8, 16):
        cfg = I.DecodeConfig(beam_size=beam, alpha=0.5, max_decode_len=12)
        result = I.beam_search([4], stub, cfg)
        assert result.finished
        scores.append(result.score)
    for a, b in zip(scores, scores[1:]):
        assert b >= a - 1e-12


def test_beam_deterministic():
    stub = StubModel(vocab=5, seed=9)
    cfg = I.DecodeConfig(beam_size=3, alpha=0.5, max_decode_len=6)
    a = I.beam_search([4, 5], stub, cfg)
    b = I.beam_search([4, 5], stub, cfg)
    assert a == b


def test_beam_warns_when_budget_exhausted():
    # pick a stub where the end marker is never the argmax within one step
    for seed in range(50):
        stub = StubModel(vocab=6, seed=seed)
        cfg = I.DecodeConfig(beam_size=1, alpha=0.5, max_decode_len=1)
        result = I.beam_search([4], stub, cfg)
        if not result.finished:
            assert result.tokens  # best unfinished hypothesis is returned
            return
    pytest.fail("no unfinished case found in 50 seeds")


def test_beam_on_real_model_shapes():
    cfg = ModelConfig(
        d_model=8,
        h=2,
        n_blocks=3,
        kernel_sizes=(3, 3, 3),
        vocab_src=len(D.source_vocabulary()),
        vocab_tgt=len(D.target_vocabulary()),
        max_len=16,
    )
    model = Seq2SeqModel(cfg, seed=1, dtype=np.float64)
    result = I.beam_search([5, 6, 7], model, I.DecodeConfig(beam_size=3, max_decode_len=8))
    assert all(0 <= t < cfg.vocab_tgt for t in result.tokens)
    assert D.EOS_ID not in result.tokens


class TieStub(StubModel):
    """Logits 0 or -1 by the parity of token id plus prefix length, the same
    row for every hypothesis of a step, so candidates tie exactly across
    tokens and hypotheses. The end marker is barred (-inf) except when the
    prefix has `eos_step` tokens. Records the prefixes expanded per step."""

    def __init__(self, eos_step, eos_logit):
        super().__init__(vocab=8)
        self.eos_step, self.eos_logit = eos_step, eos_logit
        self.expanded = []

    def _row(self, prefix):
        row = -((np.arange(self.vocab) + len(prefix)) % 2).astype(np.float64)
        row[D.EOS_ID] = self.eos_logit if len(prefix) == self.eos_step else -np.inf
        return row

    def decode(self, next_tokens, memory, cache):
        logits = super().decode(next_tokens, memory, cache)
        self.expanded.append([tuple(p) for p in cache.prefixes])
        return logits


def list_beam_search(stub, beam_size, budget, alpha):
    """Beam search over Python lists: all candidates sorted by (-score,
    token id, hypothesis index). Returns the best (tokens, log_prob, score)
    and the prefixes expanded per step."""
    live, finished, expanded = [((), 0.0)], [], []
    for _ in range(budget):
        expanded.append([(D.BOS_ID,) + toks for toks, _ in live])
        candidates = []
        for i, (toks, lp) in enumerate(live):
            logp = _log_softmax(stub._row([D.BOS_ID, *toks]))
            candidates += [(-(lp + float(logp[t])), t, i) for t in range(stub.vocab)]
        kept = [(live[i][0] + (t,), -neg) for neg, t, i in sorted(candidates)[:beam_size]]
        finished += [h for h in kept if h[0][-1] == D.EOS_ID]
        live = [h for h in kept if h[0][-1] != D.EOS_ID]
        if not live:
            break
    ranked = [(lp / I.length_penalty(len(toks), alpha), toks, lp) for toks, lp in finished or live]
    score, tokens, log_prob = min(ranked, key=lambda r: (-r[0], r[1]))
    return (tokens, log_prob, score), expanded


@pytest.mark.parametrize("beam_size", [2, 3, 6])
@pytest.mark.parametrize(
    "eos_step, eos_logit",
    [(2, 0.0), (4, 0.5), (9, 0.0)],
    ids=["eos-tied-early", "eos-on-top", "eos-barred"],
)
def test_exact_ties_break_by_token_id_then_hypothesis_index(beam_size, eos_step, eos_logit):
    stub = TieStub(eos_step, eos_logit)
    result = I.beam_search([4], stub, I.DecodeConfig(beam_size=beam_size, max_decode_len=5))
    (tokens, log_prob, score), expanded = list_beam_search(stub, beam_size, 5, 0.5)
    assert stub.expanded == expanded
    assert result.finished == (tokens[-1] == D.EOS_ID)
    assert tuple(result.tokens) + ((D.EOS_ID,) if result.finished else ()) == tokens
    assert abs(result.log_prob - log_prob) < 1e-12 and abs(result.score - score) < 1e-12


def test_decode_config_validation():
    with pytest.raises(ConfigError):
        I.DecodeConfig(beam_size=0).validate()
    with pytest.raises(ConfigError):
        I.DecodeConfig(max_decode_len=0).validate()


# ----------------------------------------------------------------------- BLEU


def test_bleu_perfect_match_is_100():
    sents = [["a", "b", "c", "d"], ["x", "y", "z", "w", "v"]]
    assert abs(I.bleu(sents, sents) - 100.0) < 1e-9


def test_bleu_disjoint_is_zero():
    assert I.bleu([["a", "b", "c"]], [["x", "y", "z"]]) == 0.0


def test_bleu_matches_hand_computed_micro_corpus():
    cands = [["a", "b", "c", "d"], ["a", "x", "c"]]
    refs = [["a", "b", "c", "d"], ["a", "b", "c"]]
    # by hand: unigrams 6/7, bigrams 3/5, trigrams 2/3, 4-grams 1/1,
    # candidate and reference lengths both 7 -> brevity penalty 1
    expected = 100.0 * ((6 / 7) * (3 / 5) * (2 / 3) * 1.0) ** 0.25
    assert abs(I.bleu(cands, refs) - expected) < 1e-6


def test_bleu_brevity_penalty_applies():
    cands = [["a", "b"]]
    refs = [["a", "b", "c", "d"]]
    # all candidate n-grams match (p1 = 2/2, p2 = 1/1); the empty higher
    # orders smooth to 1/1, so only the brevity penalty exp(1 - 4/2) remains
    expected = 100.0 * math.exp(1 - 4 / 2)
    assert abs(I.bleu(cands, refs) - expected) < 1e-6


def test_bleu_permutation_invariant():
    cands = [["a", "b", "c"], ["d", "e"], ["f", "g", "h", "i"]]
    refs = [["a", "b", "x"], ["d", "e"], ["f", "q", "h", "i"]]
    a = I.bleu(cands, refs)
    b = I.bleu(list(reversed(cands)), list(reversed(refs)))
    assert a == b


def test_bleu_rejects_empty_or_mismatched():
    with pytest.raises(DataError):
        I.bleu([], [])
    with pytest.raises(DataError, match="1.*2|2.*1"):
        I.bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(DataError):
        I.bleu([["a"]], [[]])


def test_exact_match_fraction():
    assert I.exact_match([["a"], ["b"], ["c"]], [["a"], ["x"], ["c"]]) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------- probe


def probe_model():
    cfg = ModelConfig(
        d_model=8,
        h=2,
        n_blocks=3,
        kernel_sizes=(3, 3, 3),
        vocab_src=len(D.source_vocabulary()),
        vocab_tgt=len(D.target_vocabulary()),
        max_len=16,
    )
    return Seq2SeqModel(cfg, seed=5, dtype=np.float64)


SENTENCE = "the red fox sees the river".split()


def test_probe_same_word_same_position_is_one():
    model = probe_model()
    vocab = D.source_vocabulary()
    for layer in I.PROBE_LAYERS:
        sim = I.cosine_probe("fox", "fox", SENTENCE, model, vocab, layer)
        assert abs(sim - 1.0) < 1e-12


def test_probe_within_unit_interval():
    model = probe_model()
    vocab = D.source_vocabulary()
    for layer in I.PROBE_LAYERS:
        sim = I.cosine_probe("fox", "river", SENTENCE, model, vocab, layer)
        assert -1.0 - 1e-12 <= sim <= 1.0 + 1e-12


def _cosine_loop(a, b):
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return dot / (na * nb)


def test_probe_matches_scalar_loop_oracle():
    model = probe_model()
    vocab = D.source_vocabulary()
    ids = np.asarray(vocab.encode(SENTENCE) + [D.EOS_ID])
    x = model.src_embed.data[ids] * math.sqrt(8) + sinusoidal_positions(len(ids), 8)
    conv = model.enc_layers[0].mha.conv
    reps = local_conv_oracle(x @ conv.w_in.data[0], conv.w_a.data[0])
    expected = _cosine_loop(reps[2], reps[5])  # fox, river
    sim = I.cosine_probe("fox", "river", SENTENCE, model, vocab, "conv_local")
    assert abs(sim - expected) < 1e-10


def test_probe_rejects_absent_word():
    model = probe_model()
    with pytest.raises(DataError, match="not found"):
        I.cosine_probe("fox", "volcano", SENTENCE, model, D.source_vocabulary())


def test_probe_rejects_unknown_layer():
    model = probe_model()
    with pytest.raises(ConfigError):
        I.cosine_probe("fox", "river", SENTENCE, model, D.source_vocabulary(), "logits")


def test_probe_capture_shapes():
    # The probe reads head 0 of encoder layer 0's head-stacked families.
    model = probe_model()
    vocab = D.source_vocabulary()
    ids = np.asarray(vocab.encode(SENTENCE) + [D.EOS_ID])
    t_len = len(SENTENCE) + 1
    mha = model.enc_layers[0].mha
    with T.no_grad():
        x = model.embed(ids, model.src_embed)
        s_proj = T.matmul(x, A.head_columns(mha.conv.w_in)).data
        s_proj = s_proj.reshape(t_len, -1, 4).transpose(1, 0, 2)
        reps = {
            "embedding": x.data,
            "self_head": A.dot_product_family(x, x, mha).data[:, :4],
            "conv_local": A.local_conv(T.Tensor(s_proj), mha.conv).data[0],
        }
    assert reps["embedding"].shape == (t_len, 8)
    assert reps["self_head"].shape == (t_len, 4)
    assert reps["conv_local"].shape == (t_len, 4)
    for layer in I.PROBE_LAYERS:
        sim = I.cosine_probe("fox", "river", SENTENCE, model, vocab, layer)
        assert abs(sim - _cosine_loop(reps[layer][2], reps[layer][5])) < 1e-12
