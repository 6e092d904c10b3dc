"""Synthetic parallel corpus with deterministic POS/NER tags, plus the
word-level vocabulary and equal-length batching.

The source language follows determiner-adjective-noun-verb patterns with
named-entity slots. The target language is a deterministic token-level
mapping of the source with one reordering rule: the verb moves to the end
of the sentence. POS tags are the syntactic slot of each token and NER
tags come from the entity lexicon, so both auxiliary tasks have exact
ground truth and translation quality can be scored by exact match.

A seed's corpus is the one that making each of the grammar's draws as one
scalar `rng.integers`/`rng.random` call gives (see `generate_corpus`); the
draws are read off the generator's raw words in blocks instead.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .checkpoint import _replacing
from .errors import ConfigError, DataError
from .tensor import IGNORE_ID

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

POS_TAGS = ("ADJ", "ADV", "DET", "NOUN", "PROPN", "VERB")
NER_TAGS = ("LOC", "O", "PER")

# The grammar's shortest sentence: determiner noun verb determiner noun.
MIN_SENTENCE_LEN = 5

# -- source lexicon, one syntactic slot per word --------------------------

DETERMINERS = ("the", "a", "every")
ADJECTIVES = ("red", "big", "old", "tiny", "green", "shiny", "quiet", "brave")
NOUNS = ("fox", "dog", "river", "stone", "bird", "tree", "house", "cloud")
VERBS = ("sees", "likes", "follows", "finds", "guards", "paints", "chases", "greets")
ADVERBS = ("quickly", "slowly", "quietly", "bravely")
PERSONS = ("anna", "boris", "clara", "dmitri", "elena", "felix")
LOCATIONS = ("oslo", "cairo", "lima", "quito", "minsk", "tunis")


def _build_lexicon():
    lex = {}
    for w in DETERMINERS:
        lex[w] = ("DET", "O")
    for w in ADJECTIVES:
        lex[w] = ("ADJ", "O")
    for w in NOUNS:
        lex[w] = ("NOUN", "O")
    for w in VERBS:
        lex[w] = ("VERB", "O")
    for w in ADVERBS:
        lex[w] = ("ADV", "O")
    for w in PERSONS:
        lex[w] = ("PROPN", "PER")
    for w in LOCATIONS:
        lex[w] = ("PROPN", "LOC")
    return lex


SOURCE_LEXICON = _build_lexicon()

# Target words are the reversed source words with an "-o" suffix, which
# keeps the mapping bijective and the vocabularies disjoint.
TARGET_OF = {w: w[::-1] + "o" for w in SOURCE_LEXICON}
assert len(set(TARGET_OF.values())) == len(TARGET_OF), "target mapping must be bijective"


# ------------------------------------------------------------- vocabulary


class Vocabulary:
    """Token <-> id bijection with fixed reserved ids 0..3."""

    def __init__(self, tokens):
        self.tokens = list(RESERVED_TOKENS) + sorted(set(tokens) - set(RESERVED_TOKENS))
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocabulary tokens are not unique")

    def __len__(self):
        return len(self.tokens)

    def encode(self, words) -> list[int]:
        return [self.index.get(w, UNK_ID) for w in words]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]


def source_vocabulary() -> Vocabulary:
    return Vocabulary(SOURCE_LEXICON)


def target_vocabulary() -> Vocabulary:
    return Vocabulary(TARGET_OF.values())


def vocab_from_corpus(token_lines) -> Vocabulary:
    seen = set()
    for line in token_lines:
        seen.update(line)
    return Vocabulary(seen)


# ------------------------------------------------------------ tagged pairs


@dataclass
class TaggedPair:
    src: list[int]
    tgt: list[int]
    pos_tags: list[int]
    ner_tags: list[int]

    def __post_init__(self):
        if len(self.pos_tags) != len(self.src) or len(self.ner_tags) != len(self.src):
            raise DataError(
                f"tag sequences must match source length {len(self.src)}, got "
                f"pos={len(self.pos_tags)} ner={len(self.ner_tags)}"
            )
        if not self.src or not self.tgt:
            raise DataError("pairs must be nonempty on both sides")


# -- raw-word draws ------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_RAW_BLOCK = 1024  # words fetched from the bit generator at a time


class RawDraws:
    """The scalar draws `rng.integers(k)` and `rng.random()` of a numpy
    Generator on PCG64 (what `default_rng` makes), read off its bit
    generator's raw 64-bit words.

    `random()` is (word >> 11) * 2**-53 of one whole word. `integers(k)`,
    for 1 <= k <= 2**32, is numpy's Lemire bounded draw on a 32-bit half:
    the low half of a word is used first and the high half is kept for the
    next 32-bit draw (a `random()` leaves it kept). A draw whose product
    half * k has low 32 bits below (2**32 - k) % k is redrawn, and k == 1
    draws nothing. Each draw equals the one the Generator's own call would
    return from the same state, the kept half included. Words are fetched
    `_RAW_BLOCK` at a time, so the Generator runs ahead of the draws and is
    spent once read.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        state = bitgen.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._raw = bitgen.random_raw
        self._words = iter(())

    def _word(self) -> int:
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._raw(_RAW_BLOCK).tolist())
            word = next(self._words)
        return word

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        m = self._uint32() * k
        if (m & _MASK32) < k:
            threshold = (2**32 - k) % k
            while (m & _MASK32) < threshold:
                m = self._uint32() * k
        return m >> 32


# -- the grammar ------------------------------------------------------------


class _Piece(NamedTuple):
    """A noun phrase, verb or adverb slot of a sentence: the ids of its
    source words, of their translations, POS and NER tags, and each of those
    as record text. The adverb slot's texts start with a space, so the
    empty adverb adds nothing to a record."""

    src: list
    tgt: list
    pos: list
    ner: list
    src_text: str
    tgt_text: str
    pos_text: str
    ner_text: str


_HEADS = (NOUNS, PERSONS, LOCATIONS)  # a noun phrase's last word, by kind


def _grammar_tables():
    """The pieces sentences are made of: noun phrases as
    phrases[determiner][adjective][head kind][head], with adjective 0 for
    none and i + 1 for ADJECTIVES[i]; verbs; adverbs, 0 for none."""
    src_index, tgt_index = source_vocabulary().index, target_vocabulary().index

    def piece(words, lead=""):
        pos = [SOURCE_LEXICON[w][0] for w in words]
        ner = [SOURCE_LEXICON[w][1] for w in words]
        tgt = [TARGET_OF[w] for w in words]
        return _Piece(
            [src_index[w] for w in words],
            [tgt_index[w] for w in tgt],
            [POS_TAGS.index(t) for t in pos],
            [NER_TAGS.index(t) for t in ner],
            *(lead * bool(words) + " ".join(field) for field in (words, tgt, pos, ner)),
        )

    def optional(words):  # no word, then each word alone
        return ((),) + tuple((w,) for w in words)

    phrases = tuple(
        tuple(
            tuple(tuple(piece((det, *adj, head)) for head in heads) for heads in _HEADS)
            for adj in optional(ADJECTIVES)
        )
        for det in DETERMINERS
    )
    verbs = tuple(piece((v,)) for v in VERBS)
    adverbs = tuple(piece(words, " ") for words in optional(ADVERBS))
    return phrases, verbs, adverbs


def generate_corpus(grammar_seed: int, n_pairs: int, max_len: int = 12):
    """Sample tagged pairs; returns (pairs, corpus-format text lines).

    The corpus is the one that scalar `rng.integers(k)` and `rng.random()`
    calls on `np.random.default_rng((grammar_seed, 0x5EED))` give, drawn in
    this order per sentence: a noun phrase, the verb, the adverb, a second
    noun phrase. A noun phrase draws its determiner, then `random() < 0.55`
    and if so its adjective, then a `random()` that picks a noun, person or
    location below 0.5, 0.75 or 1, then that word. The adverb is
    `random() < 0.4` and if so the word. Each word is `integers(k)` of its
    list of k. A sentence longer than `max_len` is dropped and the next one
    drawn. `RawDraws` reads the draws off raw words, and each pair is put
    together from the precomputed ids and text of its pieces.
    """
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    if max_len < MIN_SENTENCE_LEN:
        raise ConfigError(
            f"max_sentence_len must be >= {MIN_SENTENCE_LEN}, the grammar's shortest "
            f"sentence, got {max_len}"
        )
    draws = RawDraws(np.random.default_rng((grammar_seed, 0x5EED)))
    integers, random = draws.integers, draws.random
    phrases, verbs, adverbs = _grammar_tables()

    def noun_phrase():
        by_adjective = phrases[integers(len(DETERMINERS))]
        by_kind = by_adjective[integers(len(ADJECTIVES)) + 1 if random() < 0.55 else 0]
        roll = random()
        heads = by_kind[0 if roll < 0.5 else 1 if roll < 0.75 else 2]
        return heads[integers(len(heads))]

    pairs, lines = [], []
    while len(pairs) < n_pairs:
        a = noun_phrase()
        verb = verbs[integers(len(verbs))]
        adverb = adverbs[integers(len(ADVERBS)) + 1 if random() < 0.4 else 0]
        b = noun_phrase()
        if len(a.src) + 1 + len(adverb.src) + len(b.src) > max_len:
            continue
        pairs.append(
            TaggedPair(
                a.src + verb.src + adverb.src + b.src,
                a.tgt + adverb.tgt + b.tgt + verb.tgt,
                a.pos + verb.pos + adverb.pos + b.pos,
                a.ner + verb.ner + adverb.ner + b.ner,
            )
        )
        lines.append(
            f"{a.src_text} {verb.src_text}{adverb.src_text} {b.src_text} ||| "
            f"{a.tgt_text}{adverb.tgt_text} {b.tgt_text} {verb.tgt_text} ||| "
            f"{a.pos_text} {verb.pos_text}{adverb.pos_text} {b.pos_text} ||| "
            f"{a.ner_text} {verb.ner_text}{adverb.ner_text} {b.ner_text}"
        )
    return pairs, lines


# ----------------------------------------------------------- corpus files


def parse_record(line: str):
    parts = [p.strip() for p in line.split("|||")]
    if len(parts) != 4:
        raise DataError(f"corpus record needs 4 fields, got {len(parts)}: {line!r}")
    src, tgt, pos, ner = (p.split() for p in parts)
    if len(pos) != len(src) or len(ner) != len(src):
        raise DataError(f"tag fields must match source length in record {line!r}")
    return src, tgt, pos, ner


def write_lines(path, lines) -> None:
    """Write `lines` to `path` as UTF-8, one per line. The file is replaced
    only once the write completes (see `checkpoint._replacing`), so a write
    that fails midway leaves the previous file in place."""
    with _replacing(Path(path)) as out:
        out.write(("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))


def read_text(path) -> str:
    """The contents of a UTF-8 text file; a file that is missing, cannot be
    read (a directory, no permission) or does not decode raises DataError
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"missing file: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def read_corpus(path):
    text = read_text(path)
    return [parse_record(line) for line in text.splitlines() if line.strip()]


def tag_ids(src, pos, ner) -> tuple[list[int], list[int]]:
    """The POS and NER tag ids of the record with source words `src`; a tag
    name outside `POS_TAGS`/`NER_TAGS` raises DataError naming the record."""
    ids = []
    for names, tags in ((pos, POS_TAGS), (ner, NER_TAGS)):
        unknown = [t for t in names if t not in tags]
        if unknown:
            raise DataError(
                f"unknown tag {unknown[0]!r} in record {' '.join(src)!r}; expected one of {tags}"
            )
        ids.append([tags.index(t) for t in names])
    return ids[0], ids[1]


def records_to_pairs(records, src_vocab: Vocabulary, tgt_vocab: Vocabulary):
    pairs = []
    for src, tgt, pos, ner in records:
        pos_ids, ner_ids = tag_ids(src, pos, ner)
        pairs.append(
            TaggedPair(src_vocab.encode(src), tgt_vocab.encode(tgt), pos_ids, ner_ids)
        )
    return pairs


# ---------------------------------------------------------------- batching


def pair_cost(pair: TaggedPair) -> int:
    return len(pair.src) + len(pair.tgt)


def make_batches(pairs, max_tokens: int, seed: int):
    """Group pairs so each batch has uniform source and target lengths.

    Batches respect the token budget, and the pair order inside groups as
    well as the final batch order are shuffled deterministically by seed.
    """
    for idx, pair in enumerate(pairs):
        if pair_cost(pair) > max_tokens:
            raise DataError(
                f"pair {idx} needs {pair_cost(pair)} tokens, over budget {max_tokens}"
            )
    groups = collections.defaultdict(list)
    for pair in pairs:
        groups[(len(pair.src), len(pair.tgt))].append(pair)
    rng = np.random.default_rng((seed, 0xBA7C4))
    batches = []
    for key in sorted(groups):
        members = groups[key]
        order = rng.permutation(len(members))
        members = [members[i] for i in order]
        per_batch = max(1, max_tokens // (key[0] + key[1]))
        for start in range(0, len(members), per_batch):
            batches.append(members[start : start + per_batch])
    final_order = rng.permutation(len(batches))
    return [batches[i] for i in final_order]


@dataclass
class Batch:
    src: np.ndarray  # (B, T_src+1) source plus end marker
    tgt_in: np.ndarray  # (B, T_tgt+1) begin marker plus target
    tgt_out: np.ndarray  # (B, T_tgt+1) target plus end marker
    pos: np.ndarray  # (B, T_src+1) tags, IGNORE_ID at the end-marker slot
    ner: np.ndarray  # (B, T_src+1)

    @property
    def n_pairs(self):
        return self.src.shape[0]


def collate(batch_pairs) -> Batch:
    if not batch_pairs:
        raise DataError("cannot collate an empty batch")
    src_lens = {len(p.src) for p in batch_pairs}
    tgt_lens = {len(p.tgt) for p in batch_pairs}
    if len(src_lens) != 1 or len(tgt_lens) != 1:
        raise DataError(
            f"equal-length batching violated: src lengths {sorted(src_lens)}, "
            f"tgt lengths {sorted(tgt_lens)}"
        )
    src = np.array([p.src + [EOS_ID] for p in batch_pairs], dtype=np.int64)
    tgt_in = np.array([[BOS_ID] + p.tgt for p in batch_pairs], dtype=np.int64)
    tgt_out = np.array([p.tgt + [EOS_ID] for p in batch_pairs], dtype=np.int64)
    pos = np.array([p.pos_tags + [IGNORE_ID] for p in batch_pairs], dtype=np.int64)
    ner = np.array([p.ner_tags + [IGNORE_ID] for p in batch_pairs], dtype=np.int64)
    return Batch(src=src, tgt_in=tgt_in, tgt_out=tgt_out, pos=pos, ner=ner)


SPLIT_RATIOS = (0.9, 0.05, 0.05)  # train, valid, test


def split_corpus(lines):
    """Deterministic train/valid/test split by `SPLIT_RATIOS`: the first
    lines train, the next validate and the rest test."""
    n = len(lines)
    n_train = int(n * SPLIT_RATIOS[0])
    n_valid = int(n * SPLIT_RATIOS[1])
    return lines[:n_train], lines[n_train : n_train + n_valid], lines[n_train + n_valid :]
