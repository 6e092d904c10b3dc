"""Incremental decoding against full-prefix decoder passes and beam search."""

import numpy as np
import pytest

from ctxformer import data as D
from ctxformer import inference as I
from ctxformer import tensor as T
from ctxformer.errors import ConfigError, DataError, DimensionError
from ctxformer.model import ModelConfig, Seq2SeqModel

from oracles import beam_search_oracle

TOL64 = 1e-9

CONFIGS = {
    "h2": dict(d_model=16, h=2, kernel_sizes=(3, 3, 3)),
    "h8": dict(d_model=32, h=8, kernel_sizes=(3, 5, 7)),
    # windows of 7, 9 and 11 positions: wider than the first prefixes decoded
    # here, and 11 wider than all ten
    "wide-kernels": dict(d_model=16, h=2, kernel_sizes=(7, 9, 11)),
}


def make_model(name="h2", seed=3, dtype=np.float64, max_len=16):
    cfg = ModelConfig(
        n_blocks=3,
        vocab_src=len(D.source_vocabulary()),
        vocab_tgt=len(D.target_vocabulary()),
        max_len=max_len,
        **CONFIGS[name],
    )
    return Seq2SeqModel(cfg, seed=seed, dtype=dtype)


def full_prefix_last(model, prefixes, memory):
    batched = T.Tensor(np.broadcast_to(memory.data, (len(prefixes),) + memory.shape).copy())
    return model.decode(np.asarray(prefixes), batched).data[:, -1]


def step_vs_full(model, n_steps=10, select_at=4, seed=0):
    """Worst gap between cached steps and full-prefix passes.

    Three hypotheses start from one; at step `select_at` they become
    (2, 0, 0), so two children share a parent and then read different
    tokens.
    """
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_tgt
    worst = 0.0
    with T.no_grad():
        memory = model.encode(rng.integers(4, model.config.vocab_src, size=6)).memory
        cache = model.start_decoding(memory)
        cache.select([0, 0, 0])
        prefixes = np.full((3, 1), D.BOS_ID)
        for t in range(n_steps):
            if t == select_at:
                cache.select([2, 0, 0])
                prefixes = prefixes[[2, 0, 0]]
            assert cache.length == t
            step = model.decode(prefixes[:, -1:], memory, cache=cache).data
            assert step.shape == (3, 1, vocab)
            full = full_prefix_last(model, prefixes, memory)
            worst = max(worst, float(np.abs(step[:, 0] - full).max()))
            prefixes = np.concatenate([prefixes, rng.integers(4, vocab, size=(3, 1))], axis=1)
    return worst


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cached_step_matches_full_prefix_decode(name):
    assert step_vs_full(make_model(name)) <= TOL64


def test_cached_step_float32_stays_close_to_full_prefix():
    assert step_vs_full(make_model("h8", dtype=np.float32)) <= 1e-5


def test_cache_built_after_load_state_uses_the_new_weights():
    model, other = make_model(seed=3), make_model(seed=4)
    with T.no_grad():
        model.start_decoding(model.encode([5, 6, 7]).memory)  # must leave nothing behind
    model.load_state(other.state_arrays())
    assert step_vs_full(model) <= TOL64


# ----------------------------------------------------------------- misuse


def test_cached_decode_past_max_len_raises():
    model = make_model(max_len=5)
    with T.no_grad():
        memory = model.encode([5, 6, 7]).memory
        cache = model.start_decoding(memory)
        for _ in range(5):
            model.decode([[D.BOS_ID]], memory, cache=cache)
        with pytest.raises(DataError, match="max_len"):
            model.decode([[D.BOS_ID]], memory, cache=cache)
        with pytest.raises(DataError, match="max_len"):
            model.decode(np.full((1, 6), D.BOS_ID), memory)


def test_cache_rejects_misuse():
    model = make_model()
    with T.no_grad():
        memory = model.encode([5, 6, 7]).memory
        with pytest.raises(DimensionError):
            model.start_decoding(T.Tensor(memory.data[None]))
        cache = model.start_decoding(memory)
        with pytest.raises(ConfigError):
            model.decode([[D.BOS_ID]], memory, training=True, cache=cache)
        with pytest.raises(DataError, match="memory"):
            model.decode([[D.BOS_ID]], T.Tensor(memory.data.copy()), cache=cache)
        with pytest.raises(DimensionError):
            model.decode([[D.BOS_ID, 5]], memory, cache=cache)
        with pytest.raises(DataError, match="vocabulary"):
            model.decode([[model.config.vocab_tgt]], memory, cache=cache)
        with pytest.raises(DataError):
            cache.select([1])
        assert cache.length == 0


# ------------------------------------------------------------ beam search


class SelectRecorder:
    """Passes a model through and records every `cache.select` index list."""

    def __init__(self, model):
        self.model = model
        self.config = model.config
        self.selected = []

    def encode(self, src):
        return self.model.encode(src)

    def decode(self, *args, **kwargs):
        return self.model.decode(*args, **kwargs)

    def start_decoding(self, memory):
        cache = self.model.start_decoding(memory)
        select = cache.select

        def recording_select(parent_idx):
            self.selected.append([int(i) for i in parent_idx])
            select(parent_idx)

        cache.select = recording_select
        return cache


# (config, model seed, whether some kept hypotheses emit the end marker)
BEAM_CASES = [("h2", 0, False), ("h2", 3, True), ("h2", 4, True), ("h8", 6, True)]


@pytest.mark.parametrize("name,seed,shrinks", BEAM_CASES)
def test_beam_search_matches_full_prefix_oracle(name, seed, shrinks):
    model = make_model(name, seed=seed)
    beam = 4
    recorder = SelectRecorder(model)
    cfg = I.DecodeConfig(beam_size=beam, alpha=0.5, max_decode_len=10)
    result = I.beam_search([5, 6, 7, 8], recorder, cfg)
    with T.no_grad():
        tokens, log_prob, score, finished = beam_search_oracle(
            [5, 6, 7, 8], model, beam, 0.5, 10, D.BOS_ID, D.EOS_ID
        )
    assert result.tokens == tokens and result.finished == finished
    assert abs(result.log_prob - log_prob) <= TOL64
    assert abs(result.score - score) <= TOL64
    # two kept children of one parent: the cache must copy, not alias
    assert any(len(set(idx)) < len(idx) for idx in recorder.selected)
    assert any(len(idx) < beam for idx in recorder.selected) == shrinks


def test_beam_search_counts_one_position_per_hypothesis_and_step():
    model = make_model()
    positions = []
    decode = model.decode

    def counting_decode(ids, *args, **kwargs):
        positions.append(np.asarray(ids).shape)
        return decode(ids, *args, **kwargs)

    model.decode = counting_decode
    I.beam_search([5, 6, 7], model, I.DecodeConfig(beam_size=3, max_decode_len=6))
    assert positions[0] == (1, 1)
    assert all(shape[1] == 1 and shape[0] <= 3 for shape in positions)
