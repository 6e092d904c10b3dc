"""Synthetic corpus and batching: determinism and oracle checks."""

import collections

import numpy as np
import pytest

from ctxformer import data as D
from ctxformer.errors import ConfigError, DataError


# ---------------------------------------------------------------- corpus


def test_corpus_same_seed_identical():
    a_pairs, a_lines = D.generate_corpus(7, 50)
    b_pairs, b_lines = D.generate_corpus(7, 50)
    assert a_lines == b_lines
    assert all(x.src == y.src and x.tgt == y.tgt for x, y in zip(a_pairs, b_pairs))


def test_corpus_different_seed_differs():
    _, a = D.generate_corpus(1, 50)
    _, b = D.generate_corpus(2, 50)
    assert a != b


def test_pairs_satisfy_invariants():
    pairs, _ = D.generate_corpus(3, 200)
    src_v, tgt_v = len(D.source_vocabulary()), len(D.target_vocabulary())
    for p in pairs:
        assert len(p.pos_tags) == len(p.src)
        assert len(p.ner_tags) == len(p.src)
        assert all(0 <= i < src_v for i in p.src)
        assert all(0 <= i < tgt_v for i in p.tgt)
        assert all(0 <= i < len(D.POS_TAGS) for i in p.pos_tags)
        assert all(0 <= i < len(D.NER_TAGS) for i in p.ner_tags)
        assert len(p.src) <= 12


def test_translation_matches_rule_oracle():
    """Reapply the grammar rules independently on 1000 sampled pairs."""
    _, lines = D.generate_corpus(11, 1000)
    for line in lines:
        src, tgt, pos, ner = D.parse_record(line)
        # oracle: token-level dictionary mapping, verbs moved to the end
        non_verbs = [D.TARGET_OF[w] for w, t in zip(src, pos) if t != "VERB"]
        verbs = [D.TARGET_OF[w] for w, t in zip(src, pos) if t == "VERB"]
        assert tgt == non_verbs + verbs
        # tags are a pure function of the word
        for w, p, n in zip(src, pos, ner):
            assert D.SOURCE_LEXICON[w] == (p, n)


def test_corpus_shortest_sentence_is_the_stated_minimum():
    _, lines = D.generate_corpus(13, 300, max_len=D.MIN_SENTENCE_LEN)
    assert {len(line.split("|||")[0].split()) for line in lines} == {D.MIN_SENTENCE_LEN}


def test_corpus_rejects_a_length_cap_below_the_shortest_sentence():
    # Resampling until a sentence fits would never end.
    with pytest.raises(ConfigError, match="max_sentence_len"):
        D.generate_corpus(13, 1, max_len=D.MIN_SENTENCE_LEN - 1)


def test_tagged_pair_validates_tag_lengths():
    with pytest.raises(DataError):
        D.TaggedPair(src=[4, 5], tgt=[4], pos_tags=[0], ner_tags=[0, 0])


def test_corpus_roundtrip_via_file(tmp_path):
    _, lines = D.generate_corpus(5, 20)
    path = tmp_path / "corpus.txt"
    D.write_corpus(path, lines)
    records = D.read_corpus(path)
    assert len(records) == 20
    rebuilt = [D.format_record(*r) for r in records]
    assert rebuilt == lines


def test_records_to_pairs_matches_generation():
    pairs, lines = D.generate_corpus(9, 30)
    records = [D.parse_record(l) for l in lines]
    rebuilt = D.records_to_pairs(records, D.source_vocabulary(), D.target_vocabulary())
    for a, b in zip(pairs, rebuilt):
        assert a.src == b.src and a.tgt == b.tgt
        assert a.pos_tags == b.pos_tags and a.ner_tags == b.ner_tags


def test_vocab_reserved_ids():
    v = D.source_vocabulary()
    assert v.tokens[:4] == list(D.RESERVED_TOKENS)
    assert v.encode(["<pad>", "<bos>", "<eos>", "<unk>"]) == [0, 1, 2, 3]
    assert v.encode(["zzz-not-a-word"]) == [D.UNK_ID]
    # bijective over its own tokens
    assert v.decode(v.encode(v.tokens)) == v.tokens


# ---------------------------------------------------------------- batching


def _pairs_with_lengths(lengths):
    out = []
    for ls, lt in lengths:
        out.append(
            D.TaggedPair(
                src=[4] * ls, tgt=[4] * lt, pos_tags=[0] * ls, ner_tags=[1] * ls
            )
        )
    return out


def test_batches_never_mix_lengths():
    pairs = _pairs_with_lengths([(3, 4), (3, 4), (5, 6)])
    batches = D.make_batches(pairs, 100, seed=0)
    for batch in batches:
        assert len({len(p.src) for p in batch}) == 1
        assert len({len(p.tgt) for p in batch}) == 1
    sizes = sorted(len(b) for b in batches)
    assert sizes == [1, 2]


def test_batches_partition_the_input():
    pairs, _ = D.generate_corpus(17, 300)
    batches = D.make_batches(pairs, 64, seed=1)
    flat = [p for b in batches for p in b]
    assert len(flat) == len(pairs)
    key = lambda p: (tuple(p.src), tuple(p.tgt))
    assert sorted(map(key, flat)) == sorted(map(key, pairs))


def test_batches_respect_token_budget():
    pairs, _ = D.generate_corpus(19, 200)
    max_tokens = 48
    for batch in D.make_batches(pairs, max_tokens, seed=2):
        total = sum(D.pair_cost(p) for p in batch)
        assert total <= max_tokens or len(batch) == 1


def test_batch_count_matches_reference_packing_oracle():
    rng = np.random.default_rng(3)
    lengths = [(int(rng.integers(2, 9)), int(rng.integers(2, 9))) for _ in range(200)]
    pairs = _pairs_with_lengths(lengths)
    max_tokens = 40
    batches = D.make_batches(pairs, max_tokens, seed=4)

    # oracle: per length-group ceiling division by per-batch capacity
    groups = collections.Counter((ls, lt) for ls, lt in lengths)
    expected = 0
    for (ls, lt), count in groups.items():
        cap = max(1, max_tokens // (ls + lt))
        expected += -(-count // cap)
    assert len(batches) == expected


def test_batches_deterministic_by_seed():
    pairs, _ = D.generate_corpus(23, 100)
    a = D.make_batches(pairs, 64, seed=5)
    b = D.make_batches(pairs, 64, seed=5)
    assert [[id(p) for p in batch] for batch in a] == [[id(p) for p in batch] for batch in b]


def test_oversized_pair_is_rejected_by_name():
    pairs = _pairs_with_lengths([(3, 3), (30, 30)])
    with pytest.raises(DataError, match="pair 1"):
        D.make_batches(pairs, 20, seed=0)


def test_collate_layout():
    pairs = _pairs_with_lengths([(3, 4), (3, 4)])
    batch = D.collate(pairs)
    assert batch.src.shape == (2, 4)
    assert batch.tgt_in.shape == (2, 5)
    assert batch.tgt_out.shape == (2, 5)
    assert batch.src[0, -1] == D.EOS_ID
    assert batch.tgt_in[0, 0] == D.BOS_ID
    assert batch.tgt_out[0, -1] == D.EOS_ID
    assert batch.pos[0, -1] == D.IGNORE_ID
    # no padding anywhere in the source block
    assert (batch.src[:, :-1] != D.PAD_ID).all()


def test_collate_rejects_mixed_lengths():
    pairs = _pairs_with_lengths([(3, 4), (5, 4)])
    with pytest.raises(DataError, match="equal-length"):
        D.collate(pairs)


def test_split_exact_for_divisible_counts():
    lines = [str(i) for i in range(100)]
    train, valid, test = D.split_corpus(lines)
    assert (len(train), len(valid), len(test)) == (90, 5, 5)
    assert train + valid + test == lines
