"""Command-line entry point.

Subcommands: gen (synthetic corpus), train, translate, eval, probe.
Shared flags: --config PATH, --seed N, --preset NAME (one of
`config.PRESETS`), --out PATH.
`train` into a run directory that already holds checkpoints needs
`--resume` with one of its `ckpt_*.bin` files; otherwise it exits 3 and
changes nothing there. A resume removes the checkpoints newer than the
one it continues from, as it cuts `metrics.log` back to that step.
The CTXFORMER_THREADS environment variable caps BLAS parallelism. The cap
is applied in the package's `__init__`, which runs before this module and
before any submodule loads numpy.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical or OS
error or a failed allocation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config, data, inference, training
from .errors import ConfigError, DataError, NumericsError
from .model import Seq2SeqModel


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="key=value config file")
    sub.add_argument("--preset", choices=config.PRESETS, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", type=Path, default=None, help="output directory or file")
    sub.add_argument("--data", type=Path, default=None, help="corpus directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxformer",
        description="hybrid-attention translation toolkit on synthetic corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate corpus splits")
    _common_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a generated corpus")
    _common_flags(p)
    p.add_argument("--resume", type=Path, default=None, help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="beam-decode a file of source sentences")
    _common_flags(p)
    p.add_argument("input", type=Path)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("eval", help="score hypotheses against references")
    _common_flags(p)
    p.add_argument("hyp", type=Path)
    p.add_argument("ref", type=Path)
    p.add_argument("--corpus", type=Path, default=None, help="tagged corpus for tag accuracy")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="cosine similarity of two words in context")
    _common_flags(p)
    p.add_argument("sentence", help="space-separated source sentence")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.set_defaults(func=cmd_probe)
    return parser


def _load_config(args):
    rc = config.load_run_config(
        config_path=args.config,
        preset=args.preset,
        seed=args.seed,
        out=str(args.out) if args.out is not None else None,
    )
    if args.data is not None:
        rc.data_dir = str(args.data)
    return rc


def _read_split(rc, split: str):
    return data.read_corpus(config.corpus_paths(rc)[split])


def _build_vocabs(train_records):
    src_vocab = data.vocab_from_corpus(r[0] for r in train_records)
    tgt_vocab = data.vocab_from_corpus(r[1] for r in train_records)
    return src_vocab, tgt_vocab


def _build_model(rc, src_vocab, tgt_vocab):
    rc.model.vocab_src = len(src_vocab)
    rc.model.vocab_tgt = len(tgt_vocab)
    return Seq2SeqModel(rc.model, seed=rc.seed)


def _load_trained_model(rc, args):
    ckpt_path = args.checkpoint or Path(rc.out_dir) / "averaged.bin"
    if not Path(ckpt_path).exists():
        raise DataError(f"missing checkpoint: {ckpt_path}")
    train_records = _read_split(rc, "train")
    src_vocab, tgt_vocab = _build_vocabs(train_records)
    model = _build_model(rc, src_vocab, tgt_vocab)
    model.load_state(training.load_checkpoint(ckpt_path).params)
    return model, src_vocab, tgt_vocab


# ----------------------------------------------------------------- commands


def cmd_gen(args) -> int:
    rc = _load_config(args)
    out_dir = Path(args.out) if args.out is not None else Path(rc.data_dir)
    _, lines = data.generate_corpus(rc.seed, rc.n_pairs, rc.max_sentence_len)
    train, valid, test = data.split_corpus(lines)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        data.write_lines(out_dir / f"{name}.txt", part)
    print(f"wrote {len(train)}/{len(valid)}/{len(test)} records to {out_dir}")
    return 0


def cmd_train(args) -> int:
    rc = _load_config(args)
    train_records = _read_split(rc, "train")
    src_vocab, tgt_vocab = _build_vocabs(train_records)
    model = _build_model(rc, src_vocab, tgt_vocab)
    pairs = data.records_to_pairs(train_records, src_vocab, tgt_vocab)
    out_dir = Path(rc.out_dir)
    trainer = training.Trainer(model, pairs, rc.train, out_dir=out_dir)
    if args.resume is not None:
        trainer.resume_from(args.resume)
    lines = trainer.run()
    print(f"trained to step {trainer.state.opt_step}; {len(lines) - 1} metric lines")
    print(f"checkpoints and {training.METRICS_LOG} in {out_dir}")
    return 0


def cmd_translate(args) -> int:
    rc = _load_config(args)
    text = data.read_text(args.input)
    model, src_vocab, tgt_vocab = _load_trained_model(rc, args)
    # One output line per input line, so hypotheses stay aligned with their
    # sources and references; a blank line stays blank and is not decoded.
    out_lines, n, n_finished, n_tokens = [], 0, 0, 0
    for words in (line.split() for line in text.splitlines()):
        if not words:
            out_lines.append("")
            continue
        result = inference.beam_search(src_vocab.encode(words), model, rc.decode)
        out_lines.append(" ".join(tgt_vocab.decode(result.tokens)))
        n += 1
        n_finished += result.finished
        n_tokens += len(result.tokens)
    out_path = Path(args.out) if args.out is not None else Path(rc.out_dir) / "translations.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    data.write_lines(out_path, out_lines)
    print(
        f"translated {n} sentences to {out_path}: {n_finished} finished, "
        f"{n - n_finished} budget exhausted, mean length {n_tokens / max(n, 1):.2f} tokens"
    )
    return 0


def cmd_eval(args) -> int:
    rc = _load_config(args)
    # keep empty lines: an empty hypothesis is still a (bad) translation
    hyp_lines = [l.split() for l in data.read_text(args.hyp).splitlines()]
    ref_lines = [l.split() for l in data.read_text(args.ref).splitlines()]
    if len(hyp_lines) != len(ref_lines):
        raise DataError(
            f"line count mismatch: {len(hyp_lines)} hypotheses vs {len(ref_lines)} references"
        )
    report = {
        "bleu": f"{inference.bleu(hyp_lines, ref_lines):.4f}",
        "exact_match": f"{inference.exact_match(hyp_lines, ref_lines):.4f}",
    }
    if args.corpus is not None:
        records = data.read_corpus(args.corpus)
        model, src_vocab, _ = _load_trained_model(rc, args)
        pos_acc, ner_acc = inference.tag_accuracies(records, model, src_vocab)
        report["pos_acc"] = f"{pos_acc:.4f}"
        report["ner_acc"] = f"{ner_acc:.4f}"
    text = "\n".join(f"{k}={v}" for k, v in report.items())
    print(text)
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        data.write_lines(args.out, [text])
    return 0


def cmd_probe(args) -> int:
    rc = _load_config(args)
    model, src_vocab, _ = _load_trained_model(rc, args)
    words = args.sentence.split()
    for layer in inference.PROBE_LAYERS:
        sim = inference.cosine_probe(args.word_a, args.word_b, words, model, src_vocab, layer)
        print(f"{layer}={sim:.6f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"runtime error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
