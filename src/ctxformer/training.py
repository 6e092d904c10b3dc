"""Optimization loop: Adam with the inverse-square-root warmup schedule,
multi-task loss, gradient accumulation, checkpointing and weight averaging.

Determinism contract: every stochastic draw (dropout, batch order) is
seeded by (base seed, purpose, counter), so a run is a pure function of
(seed, config, corpus) for a fixed platform and BLAS thread count, and an
interrupted run resumed from a checkpoint replays the exact trajectory.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import checkpoint as ckpt_io
from . import tensor as tn
from .data import Batch, collate, make_batches, read_text
from .errors import ConfigError, DataError, NumericsError
from .model import Seq2SeqModel
from .tensor import Tensor


@dataclass
class TrainConfig:
    warmup_steps: int = 400
    total_steps: int = 1000  # micro-steps; optimizer updates = total / accum
    accum_steps: int = 1
    betas: tuple = (0.9, 0.98)
    adam_eps: float = 1e-9
    lambda_pos: float = 0.3
    lambda_ner: float = 0.3
    seed: int = 0
    checkpoint_every: int = 500
    keep_last: int = 10
    max_tokens: int = 1024  # per-batch token budget

    def validate(self) -> None:
        if self.accum_steps < 1:
            raise ConfigError(f"accum_steps must be >= 1, got {self.accum_steps}")
        if not (self.lambda_pos >= 0 and self.lambda_ner >= 0):  # NaN fails too
            raise ConfigError(
                f"auxiliary loss weights lambda_pos and lambda_ner must be nonnegative, "
                f"got {self.lambda_pos} and {self.lambda_ner}"
            )
        if not self.adam_eps > 0:  # NaN fails too
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.warmup_steps < 1:
            raise ConfigError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.total_steps % self.accum_steps != 0:
            raise ConfigError(
                f"total_steps {self.total_steps} must divide evenly into "
                f"accumulation groups of {self.accum_steps}"
            )
        if self.checkpoint_every < 1 or self.keep_last < 1:
            raise ConfigError("checkpoint cadence values must be >= 1")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ConfigError(f"betas must be two values in [0, 1), got {self.betas}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")


# ----------------------------------------------------------------- schedule


def lr_schedule(step: int, d_model: int, warmup: int) -> float:
    """d_model^-0.5 * min(step^-0.5, step * warmup^-1.5); peaks at warmup."""
    if step < 1:
        raise ConfigError(f"schedule step must be >= 1, got {step}")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


# --------------------------------------------------------------------- Adam


def init_moments(params: dict[str, Tensor]):
    m = {name: np.zeros_like(t.data) for name, t in params.items()}
    v = {name: np.zeros_like(t.data) for name, t in params.items()}
    return m, v


def adam_step(
    params: dict[str, Tensor],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    step: int,
    lr: float,
    betas: tuple = (0.9, 0.98),
    eps: float = 1e-9,
) -> None:
    """One bias-corrected Adam update; `step` is 1-based."""
    b1, b2 = betas
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.isfinite(g).all():
            bad = int(np.count_nonzero(~np.isfinite(g)))
            raise NumericsError(
                f"non-finite gradient for {name}: {bad} bad entries at step {step}"
            )
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / c1
        v_hat = v[name] / c2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype, copy=False)


# ----------------------------------------------------------------- the loss


def multi_task_loss(
    mt_logits: Tensor,
    pos_logits: Tensor,
    ner_logits: Tensor,
    batch: Batch,
    lambda_pos: float,
    lambda_ner: float,
):
    """Translation cross-entropy plus weighted tag cross-entropies.

    Returns (total loss Tensor, per-component float dict).
    """
    ce_mt = tn.cross_entropy(mt_logits, batch.tgt_out)
    ce_pos = tn.cross_entropy(pos_logits, batch.pos, ignore_id=-1)
    ce_ner = tn.cross_entropy(ner_logits, batch.ner, ignore_id=-1)
    total = ce_mt
    if lambda_pos != 0.0:
        total = tn.add(total, tn.mul(ce_pos, lambda_pos))
    if lambda_ner != 0.0:
        total = tn.add(total, tn.mul(ce_ner, lambda_ner))
    parts = {
        "loss_mt": ce_mt.item(),
        "loss_pos": ce_pos.item(),
        "loss_ner": ce_ner.item(),
        "loss_total": total.item(),
    }
    return total, parts


# ------------------------------------------------------------- train state


@dataclass
class TrainState:
    micro_step: int = 0
    opt_step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    pending: list = field(default_factory=list)  # component dicts since last update


def dropout_rng(seed: int, micro_step: int) -> np.random.Generator:
    return np.random.default_rng((seed, 11, micro_step))


def train_step(
    batch: Batch,
    model: Seq2SeqModel,
    state: TrainState,
    cfg: TrainConfig,
) -> dict:
    """One micro-batch: forward, scaled loss, backward; the optimizer is
    applied only every accum_steps micro-steps."""
    if batch.n_pairs < 1:
        raise DataError("train_step received an empty batch")
    if not state.m:
        state.m, state.v = init_moments(model.params)
    rng = dropout_rng(cfg.seed, state.micro_step)
    mt, pos, ner = model.forward_train(batch.src, batch.tgt_in, training=True, rng=rng)
    loss, parts = multi_task_loss(mt, pos, ner, batch, cfg.lambda_pos, cfg.lambda_ner)
    tn.mul(loss, 1.0 / cfg.accum_steps).backward()
    state.micro_step += 1
    state.pending.append(parts)
    metrics = {"applied": False, "lr": 0.0, **parts}
    if state.micro_step % cfg.accum_steps == 0:
        state.opt_step += 1
        lr = lr_schedule(state.opt_step, model.config.d_model, cfg.warmup_steps)
        adam_step(model.params, state.m, state.v, state.opt_step, lr, cfg.betas, cfg.adam_eps)
        model.zero_grad()
        averaged = {
            key: sum(p[key] for p in state.pending) / len(state.pending)
            for key in ("loss_total", "loss_mt", "loss_pos", "loss_ner")
        }
        state.pending.clear()
        metrics.update(applied=True, lr=lr, step=state.opt_step, **averaged)
    return metrics


# -------------------------------------------------------------- checkpoints


@dataclass
class Checkpoint:
    step: int
    params: dict[str, np.ndarray]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    def validate(self) -> None:
        """No optimizer moments at all, or m and v each one per parameter."""
        if not self.m and not self.v:
            return
        for space, table in (("m", self.m), ("v", self.v)):
            if table.keys() != self.params.keys():
                odd = sorted(table.keys() ^ self.params.keys())[0]
                raise DataError(f"optimizer moments {space} do not match the parameters at {odd}")
            for name, arr in self.params.items():
                if table[name].shape != arr.shape:
                    raise DataError(
                        f"optimizer moment {space}.{name} shape {table[name].shape} "
                        f"!= parameter shape {arr.shape}"
                    )


STEP_KEY = "__step__"


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write parameters, moments and the step; the container stores float32,
    so a step it cannot hold exactly (past 2**24) is refused, not rounded."""
    step = np.array([ckpt.step], dtype=np.float32)
    if ckpt.step < 0 or float(step[0]) != ckpt.step:
        raise DataError(f"step {ckpt.step} cannot be stored exactly as a float32 step record")
    named = {STEP_KEY: step}
    named.update(ckpt.params)
    named.update({f"adam.m.{k}": arr for k, arr in ckpt.m.items()})
    named.update({f"adam.v.{k}": arr for k, arr in ckpt.v.items()})
    ckpt_io.save_arrays(path, named)


def load_checkpoint(path) -> Checkpoint:
    named = ckpt_io.load_arrays(path)
    if STEP_KEY not in named:
        raise DataError(f"{path}: missing step record")
    record = named.pop(STEP_KEY).reshape(-1)
    if record.size != 1 or not np.isfinite(record[0]) or record[0] < 0 or record[0] % 1:
        raise DataError(
            f"{path}: step record must be one finite non-negative integer, got {record.tolist()}"
        )
    step = int(record[0])
    params, m, v = {}, {}, {}
    for name, arr in named.items():
        if name.startswith("adam.m."):
            m[name[len("adam.m.") :]] = arr
        elif name.startswith("adam.v."):
            v[name[len("adam.v.") :]] = arr
        else:
            params[name] = arr
    ckpt = Checkpoint(step=step, params=params, m=m, v=v)
    try:
        ckpt.validate()
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return ckpt


def _digest(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f4").tobytes())
    return h.hexdigest()


def average_checkpoints(checkpoints) -> Checkpoint:
    """Elementwise mean of parameters; moments dropped, step = max step.

    Inputs are averaged in a canonical order (step, then content digest) so
    the result is exactly permutation-invariant.
    """
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise DataError("average_checkpoints needs at least one checkpoint")
    names = sorted(checkpoints[0].params)
    for i, ck in enumerate(checkpoints[1:], start=1):
        if sorted(ck.params) != names:
            offender = sorted(set(names) ^ set(ck.params))[0]
            raise DataError(f"checkpoint {i} name set differs; first offender: {offender}")
        for name in names:
            if ck.params[name].shape != checkpoints[0].params[name].shape:
                raise DataError(
                    f"checkpoint {i} shape mismatch; first offender: {name} "
                    f"{ck.params[name].shape} vs {checkpoints[0].params[name].shape}"
                )
    ordered = sorted(checkpoints, key=lambda ck: (ck.step, _digest(ck.params)))
    out = {}
    for name in names:
        acc = np.zeros(ordered[0].params[name].shape, dtype=np.float64)
        for ck in ordered:
            acc += ck.params[name]
        out[name] = (acc / len(ordered)).astype(ordered[0].params[name].dtype)
    return Checkpoint(step=max(ck.step for ck in ordered), params=out, m={}, v={})


# ------------------------------------------------------------------ trainer


METRICS_HEADER = "step\tlr\tloss_total\tloss_mt\tloss_pos\tloss_ner\ttokens_per_sec"
_CKPT_NAME = re.compile(r"ckpt_(\d+)\.bin")


def _epoch_seed(seed: int, epoch: int) -> int:
    return (seed * 2654435761 + epoch * 97531) % (2 ** 63)


class Trainer:
    """Drives train_step over epochs of equal-length batches.

    Writes one tab-separated metrics line per optimizer step; the trailing
    tokens/sec column is wall-clock and therefore the only nondeterministic
    field in the log. The log is streamed: `run` writes the header and the
    lines a resume kept when it starts, then appends each line as it is
    logged, so a crash keeps every line before it.
    """

    def __init__(
        self,
        model: Seq2SeqModel,
        pairs,
        cfg: TrainConfig,
        out_dir: Optional[Path] = None,
        log_path: Optional[Path] = None,
    ):
        cfg.validate()
        if not pairs:
            raise DataError("training corpus is empty")
        self.model = model
        self.pairs = pairs
        self.cfg = cfg
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.log_path = Path(log_path) if log_path is not None else None
        self.state = TrainState()
        self._log_lines: list[str] = [METRICS_HEADER]
        self._saved_paths: list[Path] = []
        self._saved_step: Optional[int] = None  # step of the last checkpoint in _saved_paths
        self.batches_per_epoch = len(make_batches(pairs, cfg.max_tokens, _epoch_seed(cfg.seed, 0)))

    def _epoch_batches(self, epoch: int) -> list[Batch]:
        raw = make_batches(self.pairs, self.cfg.max_tokens, _epoch_seed(self.cfg.seed, epoch))
        return [collate(b) for b in raw]

    def resume_from(self, path) -> None:
        ck = load_checkpoint(path)
        self.model.load_state(ck.params)
        self.state.m = {
            k: np.asarray(arr, dtype=self.model.dtype).copy() for k, arr in ck.m.items()
        }
        self.state.v = {
            k: np.asarray(arr, dtype=self.model.dtype).copy() for k, arr in ck.v.items()
        }
        self.state.opt_step = ck.step
        self.state.micro_step = ck.step * self.cfg.accum_steps
        self.model.zero_grad()
        # Continue the run directory's checkpoint set and log as they stood
        # at the resumed step, so rotation and averaged.bin match a run that
        # was never interrupted.
        if self.out_dir is not None:
            saved = {}
            for p in self.out_dir.glob("ckpt_*.bin"):
                match = _CKPT_NAME.fullmatch(p.name)
                if match and int(match[1]) <= ck.step:
                    saved[int(match[1])] = p
            self._saved_paths = [saved[step] for step in sorted(saved)]
            self._saved_step = max(saved, default=None)
        if self.log_path is not None and self.log_path.exists():
            lines = read_text(self.log_path).splitlines()
            steps = [line.split("\t", 1)[0] for line in lines[1:]]
            if lines[:1] != [METRICS_HEADER] or not all(s.isdigit() for s in steps):
                raise DataError(f"{self.log_path} is not a metrics log")
            self._log_lines = [METRICS_HEADER] + [
                line for line, s in zip(lines[1:], steps) if int(s) <= ck.step
            ]

    def _checkpoint(self) -> Checkpoint:
        return Checkpoint(
            step=self.state.opt_step,
            params={k: t.data.copy() for k, t in self.model.params.items()},
            m={k: arr.copy() for k, arr in self.state.m.items()},
            v={k: arr.copy() for k, arr in self.state.v.items()},
        )

    def _save_cadence_checkpoint(self) -> None:
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"ckpt_{self.state.opt_step:07d}.bin"
        save_checkpoint(path, self._checkpoint())
        self._saved_paths.append(path)
        self._saved_step = self.state.opt_step
        while len(self._saved_paths) > self.cfg.keep_last:
            old = self._saved_paths.pop(0)
            old.unlink(missing_ok=True)
            Path(str(old) + ".manifest").unlink(missing_ok=True)

    def _write_log(self, lines: list[str], mode: str) -> None:
        if self.log_path is not None:
            with open(self.log_path, mode, encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in lines))

    def run(self) -> list[str]:
        cfg = self.cfg
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._write_log(self._log_lines, "w")
        epoch = self.state.micro_step // self.batches_per_epoch
        index = self.state.micro_step % self.batches_per_epoch
        batches = self._epoch_batches(epoch)
        window_tokens = 0
        window_start = time.perf_counter()
        while self.state.micro_step < cfg.total_steps:
            if index >= len(batches):
                epoch += 1
                index = 0
                batches = self._epoch_batches(epoch)
            batch = batches[index]
            index += 1
            window_tokens += int(batch.src.size + batch.tgt_out.size)
            metrics = train_step(batch, self.model, self.state, cfg)
            if metrics["applied"]:
                now = time.perf_counter()
                tps = window_tokens / max(now - window_start, 1e-9)
                window_tokens = 0
                window_start = now
                line = (
                    f"{metrics['step']}\t{metrics['lr']:.10e}"
                    f"\t{metrics['loss_total']:.8f}\t{metrics['loss_mt']:.8f}"
                    f"\t{metrics['loss_pos']:.8f}\t{metrics['loss_ner']:.8f}"
                    f"\t{tps:.1f}"
                )
                self._log_lines.append(line)
                self._write_log([line], "a")
                if self.state.opt_step % cfg.checkpoint_every == 0:
                    self._save_cadence_checkpoint()
        if self.out_dir is not None and self.state.opt_step != self._saved_step:
            self._save_cadence_checkpoint()  # so averaged.bin includes the last updates
        if self.out_dir is not None:
            tail = self._saved_paths[-cfg.keep_last :]
            averaged = average_checkpoints([load_checkpoint(p) for p in tail])
            save_checkpoint(self.out_dir / "averaged.bin", averaged)
        return self._log_lines
