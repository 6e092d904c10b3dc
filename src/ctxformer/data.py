"""Synthetic parallel corpus with deterministic POS/NER tags, plus the
word-level vocabulary and equal-length batching.

The source language follows determiner-adjective-noun-verb patterns with
named-entity slots. The target language is a deterministic token-level
mapping of the source with one reordering rule: the verb moves to the end
of the sentence. POS tags are the syntactic slot of each token and NER
tags come from the entity lexicon, so both auxiliary tasks have exact
ground truth and translation quality can be scored by exact match.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
IGNORE_ID = -1  # cross-entropy skip marker for positions without a label

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

    def __contains__(self, token):
        return token in self.index

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


def translate_tokens(src_words) -> list[str]:
    """Deterministic reference translation: map every token, verb to the end."""
    mapped, verbs = [], []
    for w in src_words:
        if w not in SOURCE_LEXICON:
            raise DataError(f"word {w!r} is not in the source lexicon")
        if SOURCE_LEXICON[w][0] == "VERB":
            verbs.append(TARGET_OF[w])
        else:
            mapped.append(TARGET_OF[w])
    return mapped + verbs


def _sample_noun_phrase(rng):
    words = [DETERMINERS[rng.integers(len(DETERMINERS))]]
    if rng.random() < 0.55:
        words.append(ADJECTIVES[rng.integers(len(ADJECTIVES))])
    roll = rng.random()
    if roll < 0.5:
        words.append(NOUNS[rng.integers(len(NOUNS))])
    elif roll < 0.75:
        words.append(PERSONS[rng.integers(len(PERSONS))])
    else:
        words.append(LOCATIONS[rng.integers(len(LOCATIONS))])
    return words


def sample_sentence(rng) -> list[str]:
    words = _sample_noun_phrase(rng)
    words.append(VERBS[rng.integers(len(VERBS))])
    if rng.random() < 0.4:
        words.append(ADVERBS[rng.integers(len(ADVERBS))])
    words.extend(_sample_noun_phrase(rng))
    return words


def generate_corpus(grammar_seed: int, n_pairs: int, max_len: int = 12):
    """Sample tagged pairs; returns (pairs, corpus-format text lines)."""
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    if max_len < MIN_SENTENCE_LEN:
        raise ConfigError(
            f"max_sentence_len must be >= {MIN_SENTENCE_LEN}, the grammar's shortest "
            f"sentence, got {max_len}"
        )
    rng = np.random.default_rng((grammar_seed, 0x5EED))
    src_vocab, tgt_vocab = source_vocabulary(), target_vocabulary()
    pairs, lines = [], []
    for _ in range(n_pairs):
        src_words = sample_sentence(rng)
        while len(src_words) > max_len:
            src_words = sample_sentence(rng)
        tgt_words = translate_tokens(src_words)
        pos_names = [SOURCE_LEXICON[w][0] for w in src_words]
        ner_names = [SOURCE_LEXICON[w][1] for w in src_words]
        pairs.append(
            TaggedPair(
                src=src_vocab.encode(src_words),
                tgt=tgt_vocab.encode(tgt_words),
                pos_tags=[POS_TAGS.index(t) for t in pos_names],
                ner_tags=[NER_TAGS.index(t) for t in ner_names],
            )
        )
        lines.append(format_record(src_words, tgt_words, pos_names, ner_names))
    return pairs, lines


# ----------------------------------------------------------- corpus files


def format_record(src_words, tgt_words, pos_names, ner_names) -> str:
    return " ||| ".join(
        " ".join(part) for part in (src_words, tgt_words, pos_names, ner_names)
    )


def parse_record(line: str):
    parts = [p.strip() for p in line.split("|||")]
    if len(parts) != 4:
        raise DataError(f"corpus record needs 4 fields, got {len(parts)}: {line!r}")
    src, tgt, pos, ner = (p.split() for p in parts)
    if len(pos) != len(src) or len(ner) != len(src):
        raise DataError(f"tag fields must match source length in record {line!r}")
    return src, tgt, pos, ner


def write_corpus(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


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


def records_to_pairs(records, src_vocab: Vocabulary, tgt_vocab: Vocabulary):
    pairs = []
    for src, tgt, pos, ner in records:
        try:
            pos_ids = [POS_TAGS.index(t) for t in pos]
            ner_ids = [NER_TAGS.index(t) for t in ner]
        except ValueError as exc:
            raise DataError(f"unknown tag in record {src}: {exc}") from exc
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


def split_corpus(lines, ratios=(0.9, 0.05, 0.05)):
    """Deterministic train/valid/test split honoring exact ratios."""
    n = len(lines)
    n_train = int(n * ratios[0])
    n_valid = int(n * ratios[1])
    return lines[:n_train], lines[n_train : n_train + n_valid], lines[n_train + n_valid :]
