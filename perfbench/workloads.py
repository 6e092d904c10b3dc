"""The benchmark's workloads: train-toy, train-paper-heads and decode-beam5.

A workload has a set-up step and a round. A round is a fixed amount of
work with the same make-up on every seed: one `Trainer.run` over exactly
one epoch of a length-balanced corpus, or beam search over eight
sentences with a fixed mix of lengths. The seed picks the sentences,
the initial weights of the trained models and the batch order. The
timed region covers only calls into ctxformer; the checks of `checks.py`
run after it.
"""

from __future__ import annotations

import shutil
import time
import traceback
from collections import defaultdict
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from ctxformer import config, data, inference, model, training
from tracer import patch

# The corpus grammar makes sentences of 5 to 8 words, roughly 1:3:3:1.
WORD_LENGTHS = (5, 6, 7, 8)
NATURAL_MIX = (1, 3, 3, 1)


def length_balanced_pairs(seed: int, counts: dict[int, int]) -> list:
    """The first counts[L] generated pairs of each length L, shortest first."""
    n = 4 * sum(counts.values())
    while True:
        pairs, _ = data.generate_corpus(seed, n)
        by_length = defaultdict(list)
        for pair in pairs:
            by_length[len(pair.src)].append(pair)
        if all(len(by_length[length]) >= c for length, c in counts.items()):
            return [p for length in sorted(counts) for p in by_length[length][: counts[length]]]
        n *= 2


def _with_vocabularies(rc: config.RunConfig) -> config.RunConfig:
    rc.model.vocab_src = len(data.source_vocabulary())
    rc.model.vocab_tgt = len(data.target_vocabulary())
    return rc


@dataclass
class Round:
    op_seconds: list  # one entry per optimizer step or sentence
    work_seconds: float  # wall time of the timed calls
    tokens: int  # train: source + target tokens; decode: generated tokens
    attempted: int
    failed: int
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # per-layer counts the workload sees


def _rounds_failed(attempted: int, reason: str) -> Round:
    return Round([], 0.0, 0, attempted, attempted, [reason])


# ------------------------------------------------------------------ training


@dataclass(frozen=True)
class TrainSpec:
    preset: str
    d_model: int
    max_tokens: int  # per micro-batch
    accum_steps: int
    warmup_steps: int
    checkpoint_every: int  # optimizer steps
    keep_last: int
    batches: tuple  # full micro-batches per epoch of 5-, 6-, 7- and 8-word pairs
    loss_window: int
    loss_margin: float  # nats the loss must fall within one round
    fd_per_param: int


FD_PARAMS = (
    "src_embed",
    "enc.0.mha.self.0.q",
    "enc.0.mha.conv.0.w_a",
    "dec.0.mha.conv.0.w_a",
    "enc.0.ffn.w1",
    "enc.0.ln1.gamma",
    "out_proj.w",
)


class _TrainRecorder:
    """Benchmark-side hooks on `training`: step times, tokens, saves, Adam."""

    def __init__(self, capture_adam: bool):
        self.capture_adam = capture_adam
        self.step_seconds: list[float] = []
        self.tokens = 0
        self.saved: list = []  # (path, Checkpoint) in save order
        self.adam = None
        self._pending = 0.0

    def train_step(self, fn):
        clock = time.perf_counter

        def train_step(batch, model_, state, cfg):
            start = clock()
            metrics = fn(batch, model_, state, cfg)
            self._pending += clock() - start
            self.tokens += int(batch.src.size + batch.tgt_out.size)
            if metrics["applied"]:
                self.step_seconds.append(self._pending)
                self._pending = 0.0
            return metrics

        return train_step

    def save_checkpoint(self, fn):
        def save_checkpoint(path, ckpt):
            fn(path, ckpt)
            self.saved.append((Path(path), ckpt))

        return save_checkpoint

    def adam_step(self, fn):
        def adam_step(params, m, v, step, lr, *args):
            if not self.capture_adam or self.adam is not None:
                return fn(params, m, v, step, lr, *args)
            before = {
                name: (
                    p.data.copy(),
                    None if p.grad is None else p.grad.copy(),
                    m[name].copy(),
                    v[name].copy(),
                )
                for name, p in params.items()
            }
            fn(params, m, v, step, lr, *args)
            betas, eps = args
            self.adam = {
                "step": step,
                "lr": lr,
                "betas": betas,
                "eps": eps,
                "params": {n: (*before[n], params[n].data.copy()) for n, p in params.items()},
            }

        return adam_step

    def installed(self, stack: ExitStack) -> None:
        patch(stack, training, "train_step", self.train_step)
        patch(stack, training, "save_checkpoint", self.save_checkpoint)
        patch(stack, training, "adam_step", self.adam_step)


@dataclass
class TrainRun:
    seed: int
    run_dir: Path
    rc: config.RunConfig
    pairs: list
    model: model.Seq2SeqModel
    initial: dict  # parameter arrays before training
    trainer: training.Trainer  # built in set-up for the first round
    first_averaged: dict = None  # the first round's averaged parameters

    @property
    def out_dir(self) -> Path:
        return self.run_dir / "train"


class TrainWorkload:
    def __init__(self, spec: TrainSpec):
        self.spec = spec

    def run_config(self, seed: int) -> config.RunConfig:
        spec = self.spec
        rc = _with_vocabularies(config.preset_run_config(spec.preset))
        rc.seed = seed
        rc.model.d_model = spec.d_model
        rc.train = replace(
            rc.train,
            seed=seed,
            max_tokens=spec.max_tokens,
            accum_steps=spec.accum_steps,
            warmup_steps=spec.warmup_steps,
            total_steps=sum(spec.batches),  # one epoch of micro-batches
            checkpoint_every=spec.checkpoint_every,
            keep_last=spec.keep_last,
        )
        rc.validate()
        return rc

    def corpus_counts(self) -> dict[int, int]:
        return {
            length: n * (self.spec.max_tokens // (2 * length))
            for length, n in zip(WORD_LENGTHS, self.spec.batches)
        }

    def setup(self, seed: int, run_dir: Path) -> TrainRun:
        rc = self.run_config(seed)
        pairs = length_balanced_pairs(seed, self.corpus_counts())
        net = model.Seq2SeqModel(rc.model, seed=seed)
        initial = {name: arr.copy() for name, arr in net.state_arrays().items()}
        trainer = training.Trainer(net, pairs, rc.train, out_dir=run_dir / "train")
        return TrainRun(seed, run_dir, rc, pairs, net, initial, trainer)

    def round(self, run: TrainRun, index: int, tracer=None) -> Round:
        recorder = _TrainRecorder(capture_adam=index == 0)
        try:
            with tracer.installed() if tracer else nullcontext(), ExitStack() as stack:
                recorder.installed(stack)
                trainer, run.trainer = run.trainer, None
                if trainer is None:
                    run.model.load_state(run.initial)
                    trainer = training.Trainer(
                        run.model, run.pairs, run.rc.train, out_dir=run.out_dir
                    )
                start = time.perf_counter()
                lines = trainer.run()
                wall = time.perf_counter() - start
        except Exception:
            shutil.rmtree(run.out_dir, ignore_errors=True)
            return _rounds_failed(1, traceback.format_exc())
        try:
            failures = self.check_round(run, recorder, lines, index)
        except Exception:
            failures = [traceback.format_exc()]
        finally:
            shutil.rmtree(run.out_dir, ignore_errors=True)
        return Round(
            op_seconds=recorder.step_seconds,
            work_seconds=wall,
            tokens=recorder.tokens,
            attempted=1,
            failed=int(bool(failures)),
            failures=failures,
        )

    def check_round(self, run: TrainRun, recorder: _TrainRecorder, lines, index: int) -> list:
        spec, cfg = self.spec, run.rc.train
        losses = [float(line.split("\t")[2]) for line in lines[1:]]
        fails = checks.check_losses(losses, spec.loss_window, spec.loss_margin)
        cadence = [(p, ck) for p, ck in recorder.saved if p.name.startswith("ckpt_")]
        finals = [(p, ck) for p, ck in recorder.saved if p.name == "averaged.bin"]
        steps = sum(spec.batches) // spec.accum_steps
        if len(cadence) != steps // spec.checkpoint_every or len(finals) != 1:
            return fails + [f"{len(cadence)} cadence and {len(finals)} averaged saves"]
        kept = cadence[-spec.keep_last :]
        for path, _ in cadence[: -spec.keep_last]:
            if path.exists():
                fails.append(f"{path.name} outlived keep_last={spec.keep_last}")
        for path, ck in kept + finals:
            fails += checks.check_reload(ck, training.load_checkpoint(path))
        averaged = finals[0][1]
        fails += checks.check_average([ck for _, ck in kept], averaged)
        if run.first_averaged is None:
            run.first_averaged = averaged.params
        elif any(
            averaged.params[n].tobytes() != a.tobytes() for n, a in run.first_averaged.items()
        ):
            fails.append("round did not reproduce the first round bit for bit")
        if index == 0:
            if recorder.adam is None:
                fails.append("no Adam update was captured")
            else:
                fails += checks.check_adam_update(
                    recorder.adam, run.rc.model.d_model, cfg.warmup_steps
                )
            fails += self.check_gradients(run)
        return fails

    def check_gradients(self, run: TrainRun) -> list:
        model64 = model.Seq2SeqModel(run.rc.model, seed=run.seed, dtype=np.float64)
        model64.load_state(run.model.state_arrays())
        shortest = [p for p in run.pairs if len(p.src) == WORD_LENGTHS[0]]
        batch = data.collate(shortest[:2])
        rng = np.random.default_rng((run.seed, 0xFD))
        coords = checks.fd_coordinates(model64, batch, FD_PARAMS, self.spec.fd_per_param, rng)
        return checks.check_gradients(model64, batch, run.rc.train, coords)


# ------------------------------------------------------------------ decoding


DECODE_MODEL_SEED = 0  # see README: some untrained inits emit the end marker


@dataclass(frozen=True)
class DecodeSpec:
    d_model: int
    budget: int  # tokens generated per sentence at most
    pool_rounds: int  # distinct rounds before the sentence pool repeats
    greedy_every: int  # check beam 1 against greedy on one sentence every n rounds


@dataclass
class DecodeRun:
    rc: config.RunConfig
    model: model.Seq2SeqModel
    rounds: list  # lists of source id lists


class DecodeWorkload:
    def __init__(self, spec: DecodeSpec):
        self.spec = spec

    def setup(self, seed: int, run_dir: Path) -> DecodeRun:
        rc = _with_vocabularies(config.preset_run_config("toy"))
        rc.model.d_model = self.spec.d_model
        rc.decode.max_decode_len = self.spec.budget
        rc.seed = seed
        rc.validate()
        n = self.spec.pool_rounds
        pairs = length_balanced_pairs(seed, {L: n * k for L, k in zip(WORD_LENGTHS, NATURAL_MIX)})
        by_length = defaultdict(list)
        for pair in pairs:
            by_length[len(pair.src)].append(pair.src)
        rounds = [
            [s for L, k in zip(WORD_LENGTHS, NATURAL_MIX) for s in by_length[L][r * k : (r + 1) * k]]
            for r in range(n)
        ]
        net = model.Seq2SeqModel(rc.model, seed=DECODE_MODEL_SEED)
        run_dir.mkdir(parents=True, exist_ok=True)
        path = run_dir / "decode-model.bin"
        training.save_checkpoint(
            path, training.Checkpoint(step=0, params=net.state_arrays(), m={}, v={})
        )
        net.load_state(training.load_checkpoint(path).params)
        return DecodeRun(rc, net, rounds)

    def round(self, run: DecodeRun, index: int, tracer=None) -> Round:
        sentences = run.rounds[index % len(run.rounds)]
        cfg = run.rc.decode
        budget = min(cfg.max_decode_len, run.rc.model.max_len - 1)
        results, seconds = [], []
        clock = time.perf_counter
        try:
            with tracer.installed() if tracer else nullcontext():
                for src in sentences:
                    start = clock()
                    results.append(inference.beam_search(src, run.model, cfg))
                    seconds.append(clock() - start)
        except Exception:
            return _rounds_failed(len(sentences), traceback.format_exc())
        failures, failed = [], 0
        for i, (src, result) in enumerate(zip(sentences, results)):
            try:
                fails = checks.check_beam_result(result, src, run.model, cfg, budget)
                if i == 0 and index % self.spec.greedy_every == 0:
                    fails += checks.check_greedy(src, run.model, cfg, budget)
            except Exception:
                fails = [traceback.format_exc()]
            failures += fails
            failed += int(bool(fails))
        generated = [len(checks.generated(r)) for r in results]
        return Round(
            op_seconds=seconds,
            work_seconds=sum(seconds),
            tokens=sum(generated),
            attempted=len(sentences),
            failed=failed,
            failures=failures,
            counts={
                "inference.tokens_generated": sum(generated),
                "inference.budget_exhausted": sum(not r.finished for r in results),
            },
        )


# ------------------------------------------------------------------ registry


TRAIN_TOY = TrainSpec(
    preset="toy",
    d_model=64,
    max_tokens=1536,
    accum_steps=1,
    warmup_steps=200,
    checkpoint_every=4,
    keep_last=2,
    batches=(2, 6, 6, 2),
    loss_window=4,
    loss_margin=0.25,
    fd_per_param=2,
)
TRAIN_PAPER_HEADS = TrainSpec(
    preset="paper",
    d_model=128,
    max_tokens=512,
    accum_steps=3,
    warmup_steps=30,
    checkpoint_every=2,
    keep_last=2,
    batches=(2, 7, 7, 2),
    loss_window=2,
    loss_margin=0.25,
    fd_per_param=2,
)
DECODE_BEAM5 = DecodeSpec(d_model=64, budget=24, pool_rounds=16, greedy_every=4)

WORKLOADS = {
    "train-toy": TrainWorkload(TRAIN_TOY),
    "train-paper-heads": TrainWorkload(TRAIN_PAPER_HEADS),
    "decode-beam5": DecodeWorkload(DECODE_BEAM5),
}

# Same code paths at a size that runs in seconds, for the benchmark's tests.
TINY = {
    "train-toy": TrainWorkload(
        replace(TRAIN_TOY, d_model=16, max_tokens=96, warmup_steps=8, checkpoint_every=2,
                keep_last=1, batches=(2, 2, 2, 2), loss_window=2, loss_margin=0.01,
                fd_per_param=1)
    ),
    "train-paper-heads": TrainWorkload(
        replace(TRAIN_PAPER_HEADS, d_model=32, max_tokens=64, accum_steps=2, warmup_steps=2,
                checkpoint_every=1, keep_last=1, batches=(1, 1, 1, 1), loss_window=1,
                loss_margin=0.01, fd_per_param=1)
    ),
    "decode-beam5": DecodeWorkload(
        replace(DECODE_BEAM5, d_model=16, budget=6, pool_rounds=1, greedy_every=1)
    ),
}
