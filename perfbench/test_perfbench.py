"""Tests of the benchmark itself: tiny workloads pass, corrupted results fail."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from ctxformer import data, inference, model, tensor, training  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_tiny_workload_passes_its_checks_plain_and_traced(name, tmp_path):
    workload = workloads.TINY[name]
    run = workload.setup(3, tmp_path)
    plain = workload.round(run, 0)
    assert plain.failures == [] and plain.failed == 0 and plain.attempted >= 1
    assert plain.op_seconds and plain.work_seconds > 0 and plain.tokens > 0
    tracer = Tracer()
    traced = workload.round(run, 1, tracer)
    assert traced.failures == [] and traced.failed == 0
    layers = tracer.layer_metrics(len(traced.op_seconds))
    assert layers["attention.dot.calls"][0] > 0 and layers["attention.conv.calls"][0] > 0
    assert layers["tensor.matmul.calls"][0] > 0
    if name.startswith("train"):
        assert layers["tensor.backward_ms"][0] > 0 and layers["checkpoint.save_ms"][0] > 0
    else:
        assert layers["inference.decoder_positions"][0] > 0
        assert layers["tensor.backward_ms"][0] == 0


def test_tracer_restores_every_function():
    before = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
              for _, owner, attr in SPANS]
    with Tracer().installed():
        assert model.Seq2SeqModel.__dict__["embed"] is not before[2]
    after = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
             for _, owner, attr in SPANS]
    assert all(a is b for a, b in zip(after, before))


# -------------------------------------------------------------- training checks


def test_loss_check_rejects_flat_and_non_finite_losses():
    assert checks.check_losses([5.0, 4.8, 3.9, 3.5], window=2, margin=0.5) == []
    assert checks.check_losses([5.0, 4.9, 4.8, 4.8], window=2, margin=0.5)
    assert checks.check_losses([5.0, float("nan"), 3.0, 2.0], window=2, margin=0.5)


def _adam_capture(seed=0):
    rng = np.random.default_rng(seed)
    params = {
        "w": tensor.Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "b": tensor.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True),
    }
    for p in params.values():
        p.grad = rng.normal(size=p.shape).astype(np.float32)
    m, v = training.init_moments(params)
    step, d_model, warmup = 1, 64, 200
    lr = training.lr_schedule(step, d_model, warmup)
    before = {n: (p.data.copy(), p.grad.copy(), m[n].copy(), v[n].copy()) for n, p in params.items()}
    training.adam_step(params, m, v, step, lr, (0.9, 0.98), 1e-9)
    capture = {
        "step": step, "lr": lr, "betas": (0.9, 0.98), "eps": 1e-9,
        "params": {n: (*before[n], p.data.copy()) for n, p in params.items()},
    }
    return capture, d_model, warmup


def test_adam_check_rejects_a_perturbed_update():
    capture, d_model, warmup = _adam_capture()
    assert checks.check_adam_update(capture, d_model, warmup) == []
    before, grad, m, v, after = capture["params"]["w"]
    tampered = after.copy()
    tampered[1, 2] += 0.01 * (tampered[1, 2] - before[1, 2])  # a 1% larger step
    capture["params"]["w"] = (before, grad, m, v, tampered)
    assert checks.check_adam_update(capture, d_model, warmup)


def test_adam_check_rejects_a_wrong_learning_rate():
    capture, d_model, warmup = _adam_capture()
    assert checks.check_adam_update(capture, d_model, warmup + 1)


def _checkpoints():
    rng = np.random.default_rng(1)
    return [
        training.Checkpoint(
            step=s,
            params={"a": rng.normal(size=(3, 2)).astype(np.float32),
                    "b": rng.normal(size=5).astype(np.float32)},
            m={}, v={},
        )
        for s in (4, 8)
    ]


def test_average_check_rejects_a_wrong_average():
    kept = _checkpoints()
    averaged = training.average_checkpoints(kept)
    assert checks.check_average(kept, averaged) == []
    wrong = {**averaged.params, "b": averaged.params["b"].copy()}
    wrong["b"][3] = np.nextafter(wrong["b"][3], np.float32(np.inf))
    wrong["b"][3] = np.nextafter(wrong["b"][3], np.float32(np.inf))
    assert checks.check_average(kept, dataclasses.replace(averaged, params=wrong))
    assert checks.check_average(kept, dataclasses.replace(averaged, step=4))


def test_reload_check_rejects_a_changed_bit(tmp_path):
    ck = _checkpoints()[0]
    path = tmp_path / "ck.bin"
    training.save_checkpoint(path, ck)
    assert checks.check_reload(ck, training.load_checkpoint(path)) == []
    flipped = training.load_checkpoint(path)
    flipped.params["a"].view(np.uint32)[0, 0] ^= 1
    assert checks.check_reload(ck, flipped)


def test_gradient_check_rejects_a_wrong_backward(tmp_path, monkeypatch):
    workload = workloads.TINY["train-toy"]
    run = workload.setup(5, tmp_path)
    assert workload.check_gradients(run) == []
    real_relu = tensor.relu

    def relu_with_wrong_backward(x):
        out = real_relu(x)
        inner = out._backward_fn
        if inner is not None:
            out._backward_fn = lambda g: inner(1.5 * g)
        return out

    monkeypatch.setattr(tensor, "relu", relu_with_wrong_backward)
    assert workload.check_gradients(run)


# -------------------------------------------------------------- decode checks


@pytest.fixture(scope="module")
def decoded(tmp_path_factory):
    workload = workloads.TINY["decode-beam5"]
    run = workload.setup(2, tmp_path_factory.mktemp("decode"))
    src = run.rounds[0][0]
    cfg = run.rc.decode
    budget = min(cfg.max_decode_len, run.rc.model.max_len - 1)
    return run, src, cfg, budget, inference.beam_search(src, run.model, cfg)


def test_beam_check_rejects_a_tampered_log_prob(decoded):
    run, src, cfg, budget, result = decoded
    assert checks.check_beam_result(result, src, run.model, cfg, budget) == []
    tampered = dataclasses.replace(result, log_prob=result.log_prob + 0.05)
    assert checks.check_beam_result(tampered, src, run.model, cfg, budget)


def test_beam_check_rejects_a_wrong_score_length_or_finish_flag(decoded):
    run, src, cfg, budget, result = decoded
    for bad in (
        dataclasses.replace(result, score=result.score * (1 + 1e-9)),
        dataclasses.replace(result, tokens=result.tokens[:-1]),
        dataclasses.replace(result, finished=not result.finished),
    ):
        assert checks.check_beam_result(bad, src, run.model, cfg, budget)


def test_greedy_check_rejects_a_changed_token(decoded, monkeypatch):
    run, src, cfg, budget, _ = decoded
    assert checks.check_greedy(src, run.model, cfg, budget) == []
    real_beam = inference.beam_search

    def one_token_off(src_ids, model_, config):
        result = real_beam(src_ids, model_, config)
        last = (result.tokens[-1] + 1) % run.rc.model.vocab_tgt or data.UNK_ID
        return dataclasses.replace(result, tokens=result.tokens[:-1] + [last])

    monkeypatch.setattr(inference, "beam_search", one_token_off)
    assert checks.check_greedy(src, run.model, cfg, budget)


# -------------------------------------------------------------- the command


def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rounds = [workloads.Round(op_seconds=[0.1, 0.2], work_seconds=0.3, tokens=9,
                              attempted=1, failed=0)]
    printed = {**bench_run.end_to_end(rounds, 1.0), **bench_run.per_layer(Tracer(), rounds, rounds)}
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared == {name: unit for name, (_, unit) in printed.items()}
    assert set(bench_run.end_to_end(rounds, 1.0)) == {m["name"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(bench_run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_command_fails_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "decode-beam5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
