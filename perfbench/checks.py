"""Independent checks of what the benchmark's workloads produce.

Each check recomputes a result by other means (numpy Adam, finite
differences, a numpy mean, teacher-forced scoring, a greedy chain) and
returns a list of failure messages; an empty list means the result passed.
None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

from ctxformer import data, inference, tensor, training

# Tolerances, stated once.
LOG_PROB_TOL_PER_TOKEN = 1e-4  # float32 logits rescored in float64
SCORE_RTOL = 1e-12
ADAM_ULPS = 2  # float32 rounding of the parameter after the update
ADAM_UPDATE_RTOL = 1e-5  # float32 arithmetic inside the update itself
FD_STEP = 1e-6  # float64 central differences
FD_ATOL, FD_RTOL = 1e-7, 1e-5


# ------------------------------------------------------------------ training


def check_losses(losses, window: int, margin: float) -> list[str]:
    """All losses finite; the last `window` average below the first by `margin`."""
    losses = np.asarray(losses, dtype=np.float64)
    if len(losses) < 2 * window:
        return [f"need {2 * window} logged losses, got {len(losses)}"]
    if not np.isfinite(losses).all():
        return [f"non-finite loss among {losses.tolist()}"]
    first, last = losses[:window].mean(), losses[-window:].mean()
    if not first - last >= margin:
        return [f"loss fell from {first:.4f} to {last:.4f}, less than the margin {margin}"]
    return []


def check_adam_update(capture: dict, d_model: int, warmup: int) -> list[str]:
    """Recompute one bias-corrected Adam update in float64 numpy.

    `capture` holds the step, lr, betas and eps the trainer used, and per
    parameter the value, gradient and moments before the update and the
    value after it.
    """
    step = capture["step"]
    lr = d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)
    fails = []
    if not math.isclose(capture["lr"], lr, rel_tol=1e-12):
        fails.append(f"learning rate {capture['lr']!r} at step {step}, expected {lr!r}")
    b1, b2 = capture["betas"]
    eps = capture["eps"]
    for name, (before, grad, m, v, after) in capture["params"].items():
        g = np.zeros(before.shape) if grad is None else grad.astype(np.float64)
        m1 = b1 * m.astype(np.float64) + (1.0 - b1) * g
        v1 = b2 * v.astype(np.float64) + (1.0 - b2) * g * g
        m_hat = m1 / (1.0 - b1 ** step)
        v_hat = v1 / (1.0 - b2 ** step)
        expected = before.astype(np.float64) - lr * m_hat / (np.sqrt(v_hat) + eps)
        ulp = np.spacing(np.abs(expected).astype(after.dtype)).astype(np.float64)
        slack = ADAM_ULPS * ulp + ADAM_UPDATE_RTOL * np.abs(expected - before)
        err = np.abs(after.astype(np.float64) - expected)
        if not (err <= slack).all():
            worst = int(np.argmax(err - slack))
            fails.append(
                f"Adam update of {name} off by {err.flat[worst]:.3e} at flat index {worst}"
            )
    return fails


def check_average(kept: list, averaged) -> list[str]:
    """`averaged` (a Checkpoint) is the elementwise mean of the kept checkpoints."""
    fails = []
    if averaged.step != max(ck.step for ck in kept):
        fails.append(f"averaged step {averaged.step} != last kept step {kept[-1].step}")
    for name, got in averaged.params.items():
        mean = np.mean([ck.params[name].astype(np.float64) for ck in kept], axis=0)
        slack = np.spacing(np.abs(mean).astype(got.dtype)).astype(np.float64)
        if not (np.abs(got.astype(np.float64) - mean) <= slack).all():
            fails.append(f"averaged {name} is not the mean of the kept checkpoints")
    if set(averaged.params) != set(kept[0].params):
        fails.append("averaged parameter names differ from the kept checkpoints")
    return fails


def check_reload(saved, loaded) -> list[str]:
    """A checkpoint read back equals what was written, bit for bit."""
    fails = []
    if saved.step != loaded.step:
        fails.append(f"step {loaded.step} read back, {saved.step} written")
    for space in ("params", "m", "v"):
        a, b = getattr(saved, space), getattr(loaded, space)
        if set(a) != set(b):
            fails.append(f"{space} names differ after reload")
            continue
        for name in a:
            if a[name].shape != b[name].shape or a[name].tobytes() != b[name].tobytes():
                fails.append(f"{space}.{name} differs after reload")
    return fails


def fd_loss(model, batch, cfg) -> tensor.Tensor:
    mt, pos, ner = model.forward_train(batch.src, batch.tgt_in, training=False)
    loss, _ = training.multi_task_loss(mt, pos, ner, batch, cfg.lambda_pos, cfg.lambda_ner)
    return loss


def fd_coordinates(model, batch, names, per_param: int, rng) -> list[tuple[str, int]]:
    """Sampled flat coordinates; embedding rows are those the batch reads."""
    coords = []
    for name in names:
        shape = model.params[name].shape
        if name == "src_embed":
            rows = rng.choice(np.unique(batch.src), size=per_param)
            flat = [int(r) * shape[1] + int(rng.integers(shape[1])) for r in rows]
        else:
            flat = rng.choice(int(np.prod(shape)), size=per_param, replace=False).tolist()
        coords += [(name, int(i)) for i in flat]
    return coords


def check_gradients(model64, batch, cfg, coords) -> list[str]:
    """Backward of the multi-task loss against float64 central differences.

    `model64` is a float64 model evaluated with dropout off.
    """
    model64.zero_grad()
    fd_loss(model64, batch, cfg).backward()
    grads = {name: model64.params[name].grad.copy() for name, _ in coords}
    model64.zero_grad()
    fails = []
    with tensor.no_grad():
        for name, i in coords:
            flat = model64.params[name].data.reshape(-1)
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = fd_loss(model64, batch, cfg).item()
            flat[i] = orig - FD_STEP
            down = fd_loss(model64, batch, cfg).item()
            flat[i] = orig
            fd = (up - down) / (2.0 * FD_STEP)
            ad = float(grads[name].reshape(-1)[i])
            if not abs(fd - ad) <= FD_ATOL + FD_RTOL * abs(fd):
                fails.append(f"d loss / d {name}[{i}]: backward {ad:.6e}, differences {fd:.6e}")
    return fails


# ------------------------------------------------------------------ decoding


def _log_softmax64(logits: np.ndarray) -> np.ndarray:
    x = logits.astype(np.float64)
    x = x - x.max(axis=-1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def _memory(model, src_ids) -> tensor.Tensor:
    src = np.asarray(list(src_ids) + [data.EOS_ID], dtype=np.int64)
    memory = model.encode(src).memory
    return tensor.Tensor(memory.data[None])


def generated(result) -> list[int]:
    """The tokens the hypothesis generated, end marker included."""
    return list(result.tokens) + ([data.EOS_ID] if result.finished else [])


def check_beam_result(result, src_ids, model, cfg, budget: int) -> list[str]:
    """Rescore a beam result by one teacher-forced full-prefix pass."""
    gen = generated(result)
    fails = []
    if data.EOS_ID in result.tokens:
        fails.append("end marker left inside the returned tokens")
    if len(gen) > budget:
        fails.append(f"{len(gen)} tokens generated, over the budget {budget}")
    if not result.finished and len(gen) != budget:
        fails.append(f"unfinished hypothesis stopped at {len(gen)} of {budget} tokens")
    if not gen:
        return fails + ["empty hypothesis"]
    with tensor.no_grad():
        prefix = np.asarray([[data.BOS_ID] + gen[:-1]], dtype=np.int64)
        logp = _log_softmax64(model.decode(prefix, _memory(model, src_ids)).data[0])
    log_prob = float(logp[np.arange(len(gen)), gen].sum())
    if not abs(log_prob - result.log_prob) <= LOG_PROB_TOL_PER_TOKEN * len(gen):
        fails.append(f"log_prob {result.log_prob!r}, teacher-forced rescoring gives {log_prob!r}")
    score = result.log_prob / ((5.0 + len(gen)) / 6.0) ** cfg.alpha
    if not math.isclose(result.score, score, rel_tol=SCORE_RTOL):
        fails.append(f"score {result.score!r}, expected {score!r}")
    return fails


def greedy_chain(src_ids, model, budget: int) -> list[int]:
    """Argmax decoding by repeated full-prefix passes, end marker included."""
    tokens: list[int] = []
    with tensor.no_grad():
        memory = _memory(model, src_ids)
        while len(tokens) < budget:
            prefix = np.asarray([[data.BOS_ID] + tokens], dtype=np.int64)
            token = int(np.argmax(model.decode(prefix, memory).data[0, -1]))
            tokens.append(token)
            if token == data.EOS_ID:
                break
    return tokens


def check_greedy(src_ids, model, cfg, budget: int) -> list[str]:
    """Beam size 1 returns exactly the greedy argmax chain."""
    one = inference.DecodeConfig(beam_size=1, alpha=cfg.alpha, max_decode_len=cfg.max_decode_len)
    result = inference.beam_search(src_ids, model, one)
    chain = greedy_chain(src_ids, model, budget)
    if generated(result) != chain:
        return [f"beam 1 gave {generated(result)}, greedy gave {chain}"]
    return []
