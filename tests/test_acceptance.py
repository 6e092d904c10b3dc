"""Acceptance criteria, one test per criterion with its stated tolerance.

Each test prints `[acceptance] <criterion>: PASS/FAIL` so the suite doubles
as a human-readable report (`pytest tests/test_acceptance.py -v -s`).
"""

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np

from ctxformer import attention as A
from ctxformer import config as C
from ctxformer import data as D
from ctxformer import inference as I
from ctxformer import tensor as T
from ctxformer import training as TR
from ctxformer.model import ModelConfig, Seq2SeqModel

import oracles as O
from test_attention import oracle_head, rand_conv_params, rand_multi_head
from test_inference import StubModel, exhaustive_best, greedy_oracle
from test_model import fd_check_in_place
from test_tensor import _fd_cases


def _report(name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\n[acceptance] {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


def tiny_model(seed, dtype=np.float64, **overrides):
    base = dict(
        d_model=8,
        h=2,
        n_blocks=3,
        kernel_sizes=(3, 3, 3),
        vocab_src=16,
        vocab_tgt=16,
        max_len=16,
    )
    base.update(overrides)
    return Seq2SeqModel(ModelConfig(**base), seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# Criterion: published WMT scores are out of scope at desk scale
# ---------------------------------------------------------------------------


def test_out_of_scope_substitution_note():
    # The published WMT 2014 BLEU figures (and the cosine values measured on
    # those models) need the full-scale corpora and week-scale training; this
    # artifact substitutes the property suites below on synthetic data.
    _report("out-of-scope WMT metrics replaced by property suites", [])


# ---------------------------------------------------------------------------
# Criterion: gradient suite, ops at 1e-4 and full model at 1e-3, >=20 seeds,
# under 60 seconds total
# ---------------------------------------------------------------------------


def test_gradient_suite():
    failures = []
    started = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = T.Tensor(rng.normal(size=(5, 4)))
        for name, f in _fd_cases(rng).items():
            report = T.finite_difference_check(f, x, h=1e-4, tol=1e-4)
            if not report.passed:
                failures.append(f"seed {seed} op {name}: {report.max_rel_error:.2e}")

    # full tiny model: d=8, H=2, N=3, short sequences, dropout off
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        model = tiny_model(seed)
        src = rng.integers(4, 16, size=4)
        tgt_in = rng.integers(4, 16, size=3)
        tgt_out = rng.integers(4, 16, size=3)
        pos = rng.integers(0, 6, size=4)
        ner = rng.integers(0, 3, size=4)

        def loss():
            mt, p, n = model.forward_train(src, tgt_in, training=False)
            return T.add(
                T.cross_entropy(mt, tgt_out),
                T.add(
                    T.mul(T.cross_entropy(p, pos), 0.3),
                    T.mul(T.cross_entropy(n, ner), 0.3),
                ),
            )

        for name in (
            "enc.0.mha.conv.0.w_a",
            "enc.0.mha.self.0.q",
            "dec.0.mha.conv.0.w_q",
            "dec.0.xmha.conv.0.w_s",
            "enc.2.ffn.w1",
            "src_embed",
        ):
            report = fd_check_in_place(
                loss,
                model.params[name],
                h=1e-4,
                tol=1e-3,
                max_entries=3,
                rng=np.random.default_rng(seed),
            )
            if not report.passed:
                failures.append(f"model seed {seed} {name}: {report.max_rel_error:.2e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"gradient suite took {elapsed:.1f}s (budget 60s)")
    _report(f"gradient suite (20 seeds, {elapsed:.1f}s)", failures)


# ---------------------------------------------------------------------------
# Criterion: oracle equivalence of the five core operations at 1e-10 on 100
# random small instances each
# ---------------------------------------------------------------------------


def test_oracle_equivalence_suite():
    failures = []
    rng = np.random.default_rng(42)

    for trial in range(100):
        t_len = int(rng.integers(1, 7))
        d_k = int(rng.integers(1, 7))
        q, k = rng.normal(size=(t_len, d_k)), rng.normal(size=(t_len, d_k))
        v = rng.normal(size=(t_len, int(rng.integers(1, 5))))
        got = A.scaled_dot_product_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v)).data
        if np.max(np.abs(got - O.sdpa_oracle(q, k, v))) > 1e-10:
            failures.append(f"attention trial {trial}")

    for trial in range(100):
        t_len = int(rng.integers(1, 7))
        d_h = int(rng.integers(1, 5))
        taps = int(rng.choice([1, 3, 5]))
        s = rng.normal(size=(t_len, d_h))
        cp = rand_conv_params(rng, 2 * d_h, d_h, taps=taps)
        got = A.local_context(s, T.softmax_array(cp.w_a.data, axis=0))
        if np.max(np.abs(got - O.local_conv_oracle(s, cp.w_a.data))) > 1e-10:
            failures.append(f"local context conv trial {trial}")

    for trial in range(100):
        t_len = int(rng.integers(1, 7))
        d_h = int(rng.integers(1, 5))
        s = rng.normal(size=(t_len, d_h))
        cp = rand_conv_params(rng, 2 * d_h, d_h)
        got = O.adaptive_query(T.Tensor(s), cp).data
        want = O.adaptive_query_oracle(s, cp.w_s.data, cp.w_q.data)
        if np.max(np.abs(got - want)) > 1e-10:
            failures.append(f"adaptive query trial {trial}")

    for trial in range(100):
        t_len = int(rng.integers(1, 7))
        d_h = int(rng.integers(1, 5))
        causal = bool(rng.integers(0, 2))
        s = rng.normal(size=(t_len, d_h))
        cp = rand_conv_params(rng, 2 * d_h, d_h, taps=3)
        got = A.dynamic_conv_head(T.Tensor(s), cp, causal=causal).data
        if np.max(np.abs(got - oracle_head(s, cp, causal))) > 1e-10:
            failures.append(f"conv head trial {trial}")

    for trial in range(100):
        d = int(rng.choice([4, 8]))
        h = int(rng.choice([2, 4]))
        t_len = int(rng.integers(1, 6))
        params = rand_multi_head(rng, d, h)
        x = rng.normal(size=(t_len, d))
        got = A.multi_head_forward(T.Tensor(x), params).data
        if np.max(np.abs(got - O.multi_head_oracle(x, params))) > 1e-10:
            failures.append(f"multi-head trial {trial}")

    _report("oracle equivalence (5 ops x 100 instances, 1e-10)", failures)


# ---------------------------------------------------------------------------
# Criterion: decoder causality, exact invariance, 50 random cases
# ---------------------------------------------------------------------------


def test_causality_suite():
    failures = []
    case = 0
    for model_seed in range(5):
        model = tiny_model(model_seed)
        rng = np.random.default_rng(3000 + model_seed)
        for _ in range(10):
            src = rng.integers(4, 16, size=int(rng.integers(2, 7)))
            t_len = int(rng.integers(2, 6))
            tgt = rng.integers(4, 16, size=t_len)
            memory = model.encode(src).memory
            base = model.decode(tgt, memory).data
            i = int(rng.integers(0, t_len - 1))
            tgt2 = tgt.copy()
            tgt2[i + 1 :] = rng.integers(4, 16, size=t_len - i - 1)
            out = model.decode(tgt2, memory).data
            if not np.array_equal(out[: i + 1], base[: i + 1]):
                failures.append(f"case {case}: logits changed at or before {i}")
            case += 1
    _report("causality (50 cases, exact invariance)", failures)


# ---------------------------------------------------------------------------
# Criterion: normalization invariants and depthwise parameter count
# ---------------------------------------------------------------------------


def test_normalization_suite():
    failures = []
    rng = np.random.default_rng(4000)
    for trial in range(100):
        t_q = int(rng.integers(1, 8))
        t_k = int(rng.integers(1, 8))
        d_k = int(rng.integers(1, 8))
        q = rng.normal(size=(t_q, d_k)) * rng.uniform(0.1, 10)
        k = rng.normal(size=(t_k, d_k))
        k_t = O.transpose(T.Tensor(k), (1, 0))
        scores = O.softmax(T.mul(T.matmul(T.Tensor(q), k_t), 1.0), axis=-1)
        sums = scores.data.sum(axis=-1)
        if np.max(np.abs(sums - 1.0)) > 1e-9 or scores.data.min() < 0:
            failures.append(f"attention rows trial {trial}")
        taps = int(rng.choice([1, 3, 5, 7]))
        d_h = int(rng.integers(1, 8))
        w_a = rng.normal(size=(taps, d_h)) * rng.uniform(0.1, 10)
        kernel = O.softmax(T.Tensor(w_a), axis=0)
        if np.max(np.abs(kernel.data.sum(axis=0) - 1.0)) > 1e-9:
            failures.append(f"kernel columns trial {trial}")
        if w_a.size != taps * d_h:
            failures.append(f"kernel parameter count trial {trial}")
    # depthwise parameter count inside a real model: F * (d/H) per head
    model = tiny_model(0, kernel_sizes=(5, 3, 3))
    w_a = model.params["enc.0.mha.conv.0.w_a"]
    if w_a.size != 5 * (8 // 2):
        failures.append(f"stored kernel weights {w_a.size} != F*d_h")
    _report("normalization invariants + depthwise parameter count", failures)


# ---------------------------------------------------------------------------
# Criterion: paper preset pins the head split and kernel schedule
# ---------------------------------------------------------------------------


def test_head_split_regression():
    failures = []
    rc = C.preset_run_config("paper")
    if rc.model.h != 16 or rc.model.n_blocks != 5:
        failures.append(f"preset shape: h={rc.model.h} blocks={rc.model.n_blocks}")
    if tuple(rc.model.kernel_sizes) != (3, 5, 7, 11, 15):
        failures.append(f"kernel schedule {rc.model.kernel_sizes}")
    rc.model.d_model = 32  # shrink width for construction speed
    rc.model.vocab_src = rc.model.vocab_tgt = 8
    model = Seq2SeqModel(rc.model, seed=0)
    for i, taps in enumerate((3, 5, 7, 11, 15)):
        for stack, layers in (("enc", model.enc_layers), ("dec", model.dec_layers)):
            mha = layers[i].mha
            split = (mha.w_q.shape[0], mha.conv.w_in.shape[0])
            if split != (8, 8):
                failures.append(f"{stack}.{i}: split {split[0]}/{split[1]}")
            if mha.conv.w_a.shape[1] != taps:
                failures.append(f"{stack}.{i}: taps {mha.conv.w_a.shape[1]} != {taps}")
    if rc.train.accum_steps != 10 or rc.decode.beam_size != 5 or rc.decode.alpha != 0.5:
        failures.append("training/decoding constants drifted")
    if rc.model.dropout != 0.25 or rc.model.residual_dropout != 0.10:
        failures.append("dropout constants drifted")
    _report("paper preset head split and constants", failures)


# ---------------------------------------------------------------------------
# Criterion: toy convergence within 5000 optimizer steps and 15 minutes
# ---------------------------------------------------------------------------


def test_toy_convergence(tmp_path):
    failures = []
    started = time.perf_counter()
    pairs, _ = D.generate_corpus(1, 8000)
    train_pairs, held = pairs[:7600], pairs[7600:7800]
    src_vocab, tgt_vocab = D.source_vocabulary(), D.target_vocabulary()
    cfg = ModelConfig(
        d_model=64,
        h=8,
        n_blocks=3,
        kernel_sizes=(3, 5, 7),
        vocab_src=len(src_vocab),
        vocab_tgt=len(tgt_vocab),
        dropout=0.10,
        residual_dropout=0.10,
        max_len=32,
    )
    model = Seq2SeqModel(cfg, seed=0, dtype=np.float32)

    def token_accuracy():
        hit = tot = 0
        with T.no_grad():
            for group in D.make_batches(held, 1536, seed=9):
                b = D.collate(group)
                mt, _, _ = model.forward_train(b.src, b.tgt_in, training=False)
                hit += int((mt.data.argmax(-1) == b.tgt_out).sum())
                tot += b.tgt_out.size
        return hit / tot

    tcfg = TR.TrainConfig(
        warmup_steps=200, total_steps=5000, accum_steps=1, seed=0, max_tokens=1536
    )
    trainer = TR.Trainer(model, train_pairs, tcfg, out_dir=tmp_path / "run")
    # drive the trainer in slices so we can stop at the first passing probe
    acc = 0.0
    checked_at = 0
    while trainer.state.opt_step < 5000:
        slice_target = min(trainer.state.opt_step + 200, 5000)
        tcfg.total_steps = slice_target
        trainer.run()
        acc = token_accuracy()
        checked_at = trainer.state.opt_step
        if acc >= 0.99 and checked_at >= 400:
            break
    if acc < 0.99:
        failures.append(f"teacher-forced token accuracy {acc:.4f} < 0.99 at {checked_at} steps")

    decode_cfg = I.DecodeConfig(beam_size=5, alpha=0.5, max_decode_len=24)
    hits = 0
    for p in held:
        result = I.beam_search(p.src, model, decode_cfg)
        hits += int(result.tokens == p.tgt)
    em = hits / len(held)
    if em < 0.90:
        failures.append(f"beam-5 exact match {em:.3f} < 0.90")

    hit_p = hit_n = tot = 0
    with T.no_grad():
        for group in D.make_batches(held, 1536, seed=11):
            b = D.collate(group)
            enc = model.encode(b.src)
            mask = b.pos != D.IGNORE_ID
            hit_p += int((enc.pos_logits.data.argmax(-1) == b.pos)[mask].sum())
            hit_n += int((enc.ner_logits.data.argmax(-1) == b.ner)[mask].sum())
            tot += int(mask.sum())
    pos_acc, ner_acc = hit_p / tot, hit_n / tot
    if pos_acc < 0.95:
        failures.append(f"POS accuracy {pos_acc:.3f} < 0.95")
    if ner_acc < 0.95:
        failures.append(f"NER accuracy {ner_acc:.3f} < 0.95")

    elapsed = time.perf_counter() - started
    if elapsed > 15 * 60:
        failures.append(f"took {elapsed:.0f}s > 15 minutes")
    if trainer.state.opt_step > 5000:
        failures.append(f"used {trainer.state.opt_step} optimizer steps > 5000")
    _report(
        f"toy convergence (acc {acc:.4f}, EM {em:.3f}, POS {pos_acc:.3f}, "
        f"NER {ner_acc:.3f}, {trainer.state.opt_step} steps, {elapsed:.0f}s)",
        failures,
    )


# ---------------------------------------------------------------------------
# Criterion: training mechanics (accumulation, beam reductions, averaging)
# ---------------------------------------------------------------------------


def test_training_mechanics():
    failures = []

    # gradient-accumulation split equivalence at 1e-6
    rng = np.random.default_rng(7)
    pairs = [
        D.TaggedPair(
            src=list(rng.integers(4, 16, size=5)),
            tgt=list(rng.integers(4, 16, size=6)),
            pos_tags=list(rng.integers(0, 6, size=5)),
            ner_tags=list(rng.integers(0, 3, size=5)),
        )
        for _ in range(4)
    ]
    model_a = tiny_model(31)
    model_b = tiny_model(31)
    cfg1 = TR.TrainConfig(accum_steps=1, total_steps=1, warmup_steps=10, seed=1)
    cfg2 = TR.TrainConfig(accum_steps=2, total_steps=2, warmup_steps=10, seed=1)
    TR.train_step(D.collate(pairs), model_a, TR.TrainState(), cfg1)
    state_b = TR.TrainState()
    TR.train_step(D.collate(pairs[:2]), model_b, state_b, cfg2)
    TR.train_step(D.collate(pairs[2:]), model_b, state_b, cfg2)
    for name in model_a.params:
        diff = np.max(np.abs(model_a.params[name].data - model_b.params[name].data))
        if diff >= 1e-6:
            failures.append(f"accumulation split: {name} differs by {diff:.2e}")

    # beam=1 equals greedy exactly
    for seed in range(10):
        stub = StubModel(vocab=5, seed=seed)
        result = I.beam_search([4], stub, I.DecodeConfig(beam_size=1, alpha=0.5, max_decode_len=8))
        produced = list(result.tokens) + ([D.EOS_ID] if result.finished else [])
        if produced != greedy_oracle(stub, 8):
            failures.append(f"beam-1 != greedy at stub seed {seed}")

    # pruning-free beam equals exhaustive search on vocab-3 length-3 instances
    for seed in range(10):
        stub = StubModel(vocab=3, seed=seed)
        cfg = I.DecodeConfig(beam_size=81, alpha=0.5, max_decode_len=3)
        result = I.beam_search([4], stub, cfg)
        best, best_score = exhaustive_best(stub, 3, 0.5)
        produced = tuple(result.tokens) + ((D.EOS_ID,) if result.finished else ())
        if produced != best or abs(result.score - best_score) > 1e-9:
            failures.append(f"beam != exhaustive at stub seed {seed}")

    # checkpoint averaging: idempotent and permutation-invariant
    def random_ckpt(seed, step):
        gen = np.random.default_rng(seed)
        return TR.Checkpoint(
            step=step,
            params={
                "a": gen.normal(size=(4, 3)).astype(np.float32),
                "b": gen.normal(size=(2,)).astype(np.float32),
            },
            m={},
            v={},
        )

    ck = random_ckpt(0, 3)
    same = TR.average_checkpoints([ck, ck, ck, ck])
    for name in ck.params:
        if not np.allclose(same.params[name], ck.params[name], atol=1e-7):
            failures.append(f"averaging not idempotent on {name}")
    cks = [random_ckpt(s, s) for s in range(5)]
    forward = TR.average_checkpoints(cks)
    backward = TR.average_checkpoints(list(reversed(cks)))
    for name in forward.params:
        if not np.array_equal(forward.params[name], backward.params[name]):
            failures.append(f"averaging not permutation-invariant on {name}")

    _report("training mechanics (accumulation, beam reductions, averaging)", failures)


# ---------------------------------------------------------------------------
# Criterion: measured complexity scaling within 25% of the table exponents
# ---------------------------------------------------------------------------


def _matmul_macs(a, b) -> int:
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return math.prod(batch) * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _tap_macs(s, kernel) -> int:
    # s is time-leading, (T, ..., C); a tap that lands on the left zero
    # padding does no work
    t_len = s.shape[0]
    per_channel = sum(max(0, t_len - j) for j in range(kernel.shape[0]))
    return s.size // t_len * per_channel


def _count_attention_halves(monkeypatch) -> dict:
    """Count, from the shape of each call, the multiply-adds of the two
    halves of `multi_head_forward`: the score and value products of the
    dot-product node (`attention_scores`, `attention_values`) and the tap
    products of the conv node (`local_context`)."""
    counts = {"self_attention": 0, "depthwise_separable_convolution": 0}

    def counted(fn, row, macs):
        def wrapper(*args):
            counts[row] += macs(*args)
            return fn(*args)

        return wrapper

    def score_macs(q, k):
        return _matmul_macs(q, np.swapaxes(k, -1, -2))

    monkeypatch.setattr(
        A, "attention_scores", counted(A.attention_scores, "self_attention", score_macs)
    )
    monkeypatch.setattr(
        A, "attention_values", counted(A.attention_values, "self_attention", _matmul_macs)
    )
    monkeypatch.setattr(
        A, "local_context",
        counted(A.local_context, "depthwise_separable_convolution", _tap_macs),
    )
    return counts


def test_complexity_validation(monkeypatch):
    """The dot-product and conv halves of a hybrid h=8 layer scale as the
    self-attention (n^2*d) and depthwise (F*n*d) rows of the table."""
    failures = []
    counts = _count_attention_halves(monkeypatch)
    grid = {"n": (64, 128, 256), "d": (64, 128), "f": (3, 7)}
    measured = {}
    for n, d, f in itertools.product(*grid.values()):
        rng = np.random.default_rng((n, d, f))
        params = rand_multi_head(rng, d, 8, taps=f)
        x = T.Tensor(rng.normal(size=(n, d)))
        counts.update(dict.fromkeys(counts, 0))
        with T.no_grad():
            A.multi_head_forward(x, params)
        measured[(n, d, f)] = dict(counts)
    # one step per grid point and variable: that variable to its next grid value
    steps = []
    for row in counts:
        for axis, variable in enumerate(grid):
            values = grid[variable]
            for low, after in zip(values, values[1:]):
                for point in measured:
                    if point[axis] != low:
                        continue
                    high = point[:axis] + (after,) + point[axis + 1 :]
                    if not measured[point][row]:
                        failures.append(f"{row}: no work counted at n, d, F = {point}")
                        continue
                    predicted = (
                        A.complexity_estimate(row, *high).per_layer_ops
                        / A.complexity_estimate(row, *point).per_layer_ops
                    )
                    ratio = measured[high][row] / measured[point][row]
                    steps.append((row, variable, low, after, ratio, predicted))
    self_n = [s for s in steps if s[:2] == ("self_attention", "n")]
    depth_d = [s for s in steps if s[:2] == ("depthwise_separable_convolution", "d")]
    depth_f = [s for s in steps if s[:2] == ("depthwise_separable_convolution", "f")]
    if not self_n or not depth_d or not depth_f:
        failures.append("missing scaling pairs in the grid")
    for _, _, low, high, ratio, _ in self_n:
        if abs(ratio - 4.0) / 4.0 > 0.25:
            failures.append(f"self-attention n {low}->{high}: x{ratio:.2f}")
    for _, _, low, high, ratio, _ in depth_d:
        if abs(ratio - 2.0) / 2.0 > 0.25:
            failures.append(f"depthwise d {low}->{high}: x{ratio:.2f}")
    for _, _, low, high, ratio, predicted in depth_f:
        if abs(ratio - predicted) / predicted > 0.25:
            failures.append(f"depthwise f {low}->{high}: x{ratio:.2f}")
    for row, variable, low, high, ratio, predicted in steps:
        deviation = abs(ratio - predicted) / predicted
        if deviation > 0.25:
            failures.append(f"{row} {variable} {low}->{high} deviates {deviation:.2f}")
    _report("complexity scaling within 25% of table exponents", failures)


# ---------------------------------------------------------------------------
# Criterion: bitwise-reproducible training runs
# ---------------------------------------------------------------------------


def _strip_wallclock(log_text: str) -> str:
    # tokens/sec is wall-clock and the single nondeterministic log field
    return "\n".join("\t".join(l.split("\t")[:-1]) for l in log_text.splitlines())


def test_training_determinism(tmp_path):
    failures = []
    pairs, _ = D.generate_corpus(3, 1200)
    src_vocab, tgt_vocab = D.source_vocabulary(), D.target_vocabulary()
    artifacts = []
    for run in ("one", "two"):
        cfg = ModelConfig(
            d_model=64,
            h=8,
            n_blocks=3,
            kernel_sizes=(3, 5, 7),
            vocab_src=len(src_vocab),
            vocab_tgt=len(tgt_vocab),
            dropout=0.10,
            residual_dropout=0.10,
            max_len=32,
        )
        model = Seq2SeqModel(cfg, seed=4, dtype=np.float32)
        tcfg = TR.TrainConfig(
            warmup_steps=40,
            total_steps=60,
            accum_steps=2,
            seed=4,
            checkpoint_every=10,
            keep_last=10,
            max_tokens=768,
        )
        out = tmp_path / run
        trainer = TR.Trainer(model, pairs, tcfg, out_dir=out)
        trainer.run()
        artifacts.append(
            SimpleNamespace(
                log=(out / "metrics.log").read_text(),
                final=(out / "averaged.bin").read_bytes(),
                last=(out / "ckpt_0000030.bin").read_bytes(),
            )
        )
    if _strip_wallclock(artifacts[0].log) != _strip_wallclock(artifacts[1].log):
        failures.append("metrics logs differ")
    if artifacts[0].final != artifacts[1].final:
        failures.append("averaged checkpoints differ")
    if artifacts[0].last != artifacts[1].last:
        failures.append("final cadence checkpoints differ")
    _report("bitwise-reproducible training (same seed/config/threads)", failures)
