"""Schedule, Adam, multi-task loss, accumulation, checkpoint averaging."""

import dataclasses
import itertools
import os
import shutil
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxformer import checkpoint
from ctxformer import data as D
from ctxformer import training as TR
from ctxformer import tensor as T
from ctxformer.checkpoint import SKIP_CHUNK, load_arrays, save_arrays
from ctxformer.config import preset_run_config
from ctxformer.errors import ConfigError, DataError, NumericsError
from ctxformer.model import ModelConfig, Seq2SeqModel

from oracles import cross_entropy_oracle
from test_config_cli import _DiskFullHalfway
from test_tensor import read_only_incoming_grads


def small_model(seed=0, dtype=np.float64, **overrides):
    base = dict(
        d_model=16,
        h=2,
        n_blocks=3,
        kernel_sizes=(3, 3, 3),
        vocab_src=len(D.source_vocabulary()),
        vocab_tgt=len(D.target_vocabulary()),
        max_len=16,
    )
    base.update(overrides)
    return Seq2SeqModel(ModelConfig(**base), seed=seed, dtype=dtype)


def small_batch(n=4, seed=0):
    rng = np.random.default_rng(seed)
    pairs = [
        D.TaggedPair(
            src=list(rng.integers(4, 20, size=5)),
            tgt=list(rng.integers(4, 20, size=6)),
            pos_tags=list(rng.integers(0, 6, size=5)),
            ner_tags=list(rng.integers(0, 3, size=5)),
        )
        for _ in range(n)
    ]
    return D.collate(pairs), pairs


# ---------------------------------------------------------------- schedule


def test_schedule_crossover_at_warmup():
    warmup, d = 400, 64
    lr = TR.lr_schedule(warmup, d, warmup)
    assert abs(lr - d ** -0.5 * warmup ** -0.5) < 1e-15


def test_schedule_first_step_value():
    lr = TR.lr_schedule(1, 512, 4000)
    assert abs(lr - 512 ** -0.5 * 4000 ** -1.5) < 1e-18


def test_schedule_monotone_around_warmup():
    warmup, d = 100, 32
    values = [TR.lr_schedule(s, d, warmup) for s in range(1, 400)]
    for a, b in zip(values[: warmup - 1], values[1:warmup]):
        assert b >= a
    for a, b in zip(values[warmup - 1 : -1], values[warmup:]):
        assert b <= a
    assert all(v > 0 for v in values)


def test_schedule_rejects_step_zero():
    with pytest.raises(ConfigError):
        TR.lr_schedule(0, 64, 400)


# -------------------------------------------------------------------- Adam


def _single_param(value):
    p = T.Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    return {"w": p}


def test_adam_zero_gradient_keeps_params_and_decays_moments():
    params = _single_param([1.0, -2.0])
    m = {"w": np.array([0.5, 0.5])}
    v = {"w": np.array([0.25, 0.25])}
    before = params["w"].data.copy()
    params["w"].grad = np.zeros(2)
    TR.adam_step(params, m, v, step=1, lr=0.1, betas=(0.9, 0.98), eps=1e-9)
    # m_hat = 0.45/0.1 = 4.5 -> params do move under stale moments; with zero
    # moments instead, a zero gradient must leave params untouched
    params2 = _single_param([1.0, -2.0])
    m2, v2 = TR.init_moments(params2)
    params2["w"].grad = np.zeros(2)
    TR.adam_step(params2, m2, v2, step=1, lr=0.1)
    assert np.array_equal(params2["w"].data, [1.0, -2.0])
    assert np.all(m["w"] < 0.5) and np.all(v["w"] < 0.25)
    assert not np.array_equal(params["w"].data, before)


def test_adam_constant_gradient_update_approaches_lr():
    params = _single_param([0.0])
    m, v = TR.init_moments(params)
    g = np.array([3.7])
    lr = 0.01
    prev = params["w"].data.copy()
    for step in range(1, 200):
        params["w"].grad = g.copy()
        TR.adam_step(params, m, v, step=step, lr=lr, betas=(0.9, 0.98), eps=1e-9)
        delta = prev - params["w"].data
        prev = params["w"].data.copy()
    assert abs(abs(delta[0]) - lr) < 1e-4


def test_adam_single_step_matches_hand_oracle():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 2))
    g = rng.normal(size=(3, 2))
    params = _single_param(w)
    m, v = TR.init_moments(params)
    params["w"].grad = g.copy()
    lr, (b1, b2), eps = 0.05, (0.9, 0.98), 1e-9
    TR.adam_step(params, m, v, step=1, lr=lr, betas=(b1, b2), eps=eps)
    m_hat = ((1 - b1) * g) / (1 - b1)
    v_hat = ((1 - b2) * g * g) / (1 - b2)
    expected = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.max(np.abs(params["w"].data - expected)) < 1e-12


def test_adam_aborts_on_nan_gradient():
    params = _single_param([1.0])
    m, v = TR.init_moments(params)
    params["w"].grad = np.array([np.nan])
    with pytest.raises(NumericsError, match="w"):
        TR.adam_step(params, m, v, step=1, lr=0.1)


def test_nan_in_one_heads_grad_names_the_leaf_and_its_first_bad_entry():
    # Adam runs over the leaves: head 1's slice of a family leaf is row 1.
    model = small_model(seed=3, h=4)
    state, cfg = TR.TrainState(), TR.TrainConfig(accum_steps=2, warmup_steps=4)
    TR.train_step(small_batch()[0], model, state, cfg)
    grad = model.params["enc.1.mha.self.1.k"].grad
    grad[2, 1] = np.nan
    grad[3, 0] = np.inf
    with pytest.raises(NumericsError) as info:
        TR.train_step(small_batch(seed=1)[0], model, state, cfg)
    message = str(info.value)
    assert "enc.1.mha.self.k at index (1, 2, 1)" in message
    assert "2 bad entries" in message


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_step_writes_into_no_incoming_grad(dtype, monkeypatch):
    # Interior nodes borrow their first grad (see `tensor`); a backward that
    # wrote into its incoming grad would fail here on a read-only array.
    overrides = dict(h=4, dropout=0.1, residual_dropout=0.1, dropconnect=0.1)
    cfg = TR.TrainConfig(accum_steps=1, warmup_steps=4)
    trained = []
    for wrap in (False, True):
        model, state = small_model(seed=5, dtype=dtype, **overrides), TR.TrainState()
        with monkeypatch.context() as m:
            if wrap:
                m.setattr(T, "_make", read_only_incoming_grads(T._make))
            for seed in range(2):
                TR.train_step(small_batch(seed=seed)[0], model, state, cfg)
        trained.append(model.state_arrays())
    plain, read_only = trained
    for name, arr in plain.items():
        assert arr.dtype == dtype and arr.tobytes() == read_only[name].tobytes(), name


# --------------------------------------------------------- multi-task loss


def test_loss_reduces_to_translation_when_lambdas_zero():
    model = small_model()
    batch, _ = small_batch()
    mt, pos, ner = model.forward_train(batch.src, batch.tgt_in, training=False)
    total, parts = TR.multi_task_loss(mt, pos, ner, batch, 0.0, 0.0)
    assert abs(total.item() - parts["loss_mt"]) < 1e-15


def test_loss_zero_on_perfect_logits():
    batch, _ = small_batch(n=2)
    big = 80.0

    def onehot(targets, vocab):
        out = np.full(targets.shape + (vocab,), -big)
        for idx in np.ndindex(targets.shape):
            t = targets[idx]
            out[idx + (max(t, 0),)] = big
        return T.Tensor(out)

    total, _ = TR.multi_task_loss(
        onehot(batch.tgt_out, 60),
        onehot(batch.pos, 6),
        onehot(batch.ner, 3),
        batch,
        0.3,
        0.3,
    )
    assert total.item() < 1e-8


def test_loss_matches_manual_weighted_sum():
    model = small_model(seed=3)
    batch, _ = small_batch(seed=5)
    mt, pos, ner = model.forward_train(batch.src, batch.tgt_in, training=False)
    total, _ = TR.multi_task_loss(mt, pos, ner, batch, 0.4, 0.7)
    expected = (
        cross_entropy_oracle(mt.data, batch.tgt_out)
        + 0.4 * cross_entropy_oracle(pos.data, batch.pos)
        + 0.7 * cross_entropy_oracle(ner.data, batch.ner)
    )
    assert abs(total.item() - expected) < 1e-10


# ---------------------------------------------------------------- accumulation


def test_gradient_accumulation_split_equivalence():
    batch_full, pairs = small_batch(n=4, seed=7)
    cfg1 = TR.TrainConfig(accum_steps=1, warmup_steps=10, lambda_pos=0.3, lambda_ner=0.3, seed=1)
    cfg2 = TR.TrainConfig(accum_steps=2, warmup_steps=10, lambda_pos=0.3, lambda_ner=0.3, seed=1)
    model_a = small_model(seed=11)
    model_b = small_model(seed=11)
    state_a, state_b = TR.TrainState(), TR.TrainState()

    TR.train_step(batch_full, model_a, state_a, cfg1)

    for half in (pairs[:2], pairs[2:]):
        TR.train_step(D.collate(half), model_b, state_b, cfg2)

    assert state_a.opt_step == state_b.opt_step == 1
    for name in model_a.params:
        diff = np.max(np.abs(model_a.params[name].data - model_b.params[name].data))
        assert diff < 1e-6, f"{name}: {diff}"


def test_train_step_loss_finite_and_deterministic():
    batch, _ = small_batch()
    cfg = TR.TrainConfig(seed=3)
    runs = []
    for _ in range(2):
        model = small_model(seed=5, dtype=np.float32, dropout=0.1, residual_dropout=0.1)
        state = TR.TrainState()
        metrics = TR.train_step(batch, model, state, cfg)
        assert np.isfinite(metrics["loss_total"])
        runs.append((metrics, model.params["out_proj.w"].data.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_zero_lambdas_leave_aux_heads_untrained():
    batch, _ = small_batch()
    cfg = TR.TrainConfig(lambda_pos=0.0, lambda_ner=0.0)
    model = small_model(seed=13)
    pos_before = model.params["pos_head.w"].data.copy()
    state = TR.TrainState()
    TR.train_step(batch, model, state, cfg)
    assert np.array_equal(model.params["pos_head.w"].data, pos_before)


def test_aux_head_values_do_not_change_translation_trajectory():
    batch, _ = small_batch(seed=9)
    cfg = TR.TrainConfig(lambda_pos=0.0, lambda_ner=0.0, seed=2)
    finals = []
    for head_seed in (0, 1):
        model = small_model(seed=17)
        model.params["pos_head.w"].data[...] = np.random.default_rng(head_seed).normal(
            size=model.params["pos_head.w"].data.shape
        )
        state = TR.TrainState()
        for _ in range(3):
            TR.train_step(batch, model, state, cfg)
        finals.append(model.params["out_proj.w"].data.copy())
    assert np.array_equal(finals[0], finals[1])


def test_train_config_rejects_a_negative_seed(tmp_path):
    # The Trainer validates its config on its own, apart from the run config.
    with pytest.raises(ConfigError, match="seed"):
        TR.TrainConfig(seed=-1).validate()
    pairs, _ = D.generate_corpus(29, 10)
    with pytest.raises(ConfigError, match="seed"):
        TR.Trainer(small_model(), pairs, TR.TrainConfig(seed=-1), out_dir=tmp_path)


def test_train_step_rejects_empty_batch():
    with pytest.raises(DataError):
        D.collate([])


# ------------------------------------------------------ checkpoint averaging


def _random_ckpt(seed, step=1, dtype=np.float32):
    rng = np.random.default_rng(seed)
    params = {
        "a": rng.normal(size=(3, 2)).astype(dtype),
        "b": rng.normal(size=(4,)).astype(dtype),
    }
    return TR.Checkpoint(step=step, params=params, m={}, v={})


def test_average_idempotent_on_copies():
    ck = _random_ckpt(0)
    avg = TR.average_checkpoints([ck, ck, ck])
    for name in ck.params:
        assert np.allclose(avg.params[name], ck.params[name], atol=1e-7)


def test_average_of_opposites_is_zero():
    ck = _random_ckpt(1, step=5)
    neg = TR.Checkpoint(
        step=6, params={k: -v for k, v in ck.params.items()}, m={}, v={}
    )
    avg = TR.average_checkpoints([ck, neg])
    assert avg.step == 6
    for arr in avg.params.values():
        assert np.allclose(arr, 0.0, atol=1e-7)


def test_average_matches_scalar_loop_oracle():
    cks = [_random_ckpt(s, step=s, dtype=np.float64) for s in range(3)]
    avg = TR.average_checkpoints(cks)
    for name in cks[0].params:
        flat = [ck.params[name].reshape(-1) for ck in cks]
        for i in range(flat[0].size):
            expected = sum(float(f[i]) for f in flat) / 3
            assert abs(float(avg.params[name].reshape(-1)[i]) - expected) < 1e-12


def test_average_permutation_invariant():
    cks = [_random_ckpt(s, step=s) for s in range(4)]
    a = TR.average_checkpoints(cks)
    b = TR.average_checkpoints(list(reversed(cks)))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_average_of_float64_checkpoints_is_the_same_in_every_input_order():
    # Same step, differences far below float32 resolution: only the stored
    # float64 bytes tell these checkpoints apart for the canonical order.
    base = _random_ckpt(0, step=3, dtype=np.float64).params
    cks = [
        TR.Checkpoint(step=3, params={k: a * (1 + 1e-12 * i) for k, a in base.items()}, m={}, v={})
        for i in range(3)
    ]
    results = {
        b"".join(avg.params[k].tobytes() for k in sorted(base))
        for avg in map(TR.average_checkpoints, itertools.permutations(cks))
    }
    assert len(results) == 1


def test_average_rejects_mismatched_names():
    a = _random_ckpt(0)
    b = _random_ckpt(1)
    b.params["extra"] = np.zeros(2, dtype=np.float32)
    with pytest.raises(DataError, match="extra"):
        TR.average_checkpoints([a, b])


def test_average_rejects_mismatched_shapes():
    a = _random_ckpt(0)
    b = _random_ckpt(1)
    b.params["a"] = np.zeros((9, 9), dtype=np.float32)
    with pytest.raises(DataError, match="first offender: a"):
        TR.average_checkpoints([a, b])


# ---------------------------------------------------------- checkpoint file


def test_checkpoint_roundtrip(tmp_path):
    # one record per leaf and moment, each read back bitwise in its dtype
    for dtype in (np.float32, np.float64):
        model = small_model(seed=19, dtype=dtype)
        rng = np.random.default_rng(20)
        m, v = TR.init_moments(model.leaves)
        for table in (m, v):
            for arr in table.values():
                arr[...] = rng.normal(size=arr.shape)
        ck = TR.Checkpoint(step=42, params=model.state_arrays(), m=m, v=v)
        path = tmp_path / f"{np.dtype(dtype).name}.bin"
        TR.save_checkpoint(path, ck)
        loaded = TR.load_checkpoint(path)
        assert loaded.step == 42
        for space in ("params", "m", "v"):
            saved, read = getattr(ck, space), getattr(loaded, space)
            assert list(read) == list(model.leaves)
            for name, arr in saved.items():
                assert read[name].dtype == dtype and read[name].tobytes() == arr.tobytes(), name
        manifest = path.with_name(path.name + ".manifest").read_text().splitlines()
        assert len(manifest) == 3 * len(model.leaves) + 1
        assert f"out_proj.w {np.dtype(dtype).name} 16x47" in manifest
        assert "__step__ int64 1" in manifest


def test_a_paper_heads_checkpoint_has_one_record_per_leaf_and_moment(tmp_path):
    paper = preset_run_config("paper").model
    config = dataclasses.replace(paper, d_model=32, vocab_src=16, vocab_tgt=16, max_len=16)
    model = Seq2SeqModel(config)
    assert len(model.leaves) == 218
    m, v = TR.init_moments(model.leaves)
    path = tmp_path / "paper.bin"
    TR.save_checkpoint(path, TR.Checkpoint(step=1, params=model.state_arrays(), m=m, v=v))
    (count,) = struct.unpack("<I", path.read_bytes()[8:12])
    assert count == 3 * 218 + 1 == 655


@pytest.mark.parametrize(
    "record",
    [
        np.array([np.nan]),
        np.array([np.inf]),
        np.array([], np.int64),
        np.array([2.5]),
        np.array([2.0]),
        np.array([-1], np.int64),
        np.array([3, 4], np.int64),
        np.array(3, np.int64),
    ],
    ids=["nan", "inf", "empty", "fractional", "float", "negative", "two-values", "rank-0"],
)
def test_load_rejects_a_step_record_that_is_not_one_natural_number(tmp_path, record):
    path = tmp_path / "bad_step.bin"
    save_arrays(path, {TR.STEP_KEY: record, "w": np.ones(3)})
    with pytest.raises(DataError, match="step record") as info:
        TR.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_step_round_trips_exactly_past_float32_range(tmp_path):
    path = tmp_path / "step.bin"
    for step in (0, 2**24 + 1, 2**40):
        TR.save_checkpoint(path, TR.Checkpoint(step=step, params={"w": np.ones(3)}, m={}, v={}))
        assert TR.load_checkpoint(path).step == step


@pytest.mark.parametrize(
    "moments, offender",
    [
        ({"adam.m.w": np.zeros(3), "adam.v.w": np.zeros(3)}, "moments m .* at u"),
        ({"adam.m.w": np.zeros(3), "adam.m.u": np.zeros(2)}, "moments v .* at u"),
    ],
    ids=["moments-miss-a-parameter", "m-without-v"],
)
def test_load_rejects_moment_tables_that_do_not_cover_every_parameter(tmp_path, moments, offender):
    path = tmp_path / "moments.bin"
    step = np.array([2], np.int64)
    save_arrays(path, {TR.STEP_KEY: step, "w": np.ones(3), "u": np.ones(2), **moments})
    with pytest.raises(DataError, match=offender) as info:
        TR.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_unreadable_container_raises_data_error_naming_it(tmp_path):
    with pytest.raises(DataError, match="cannot read") as info:
        load_arrays(tmp_path)
    assert str(tmp_path) in str(info.value)


def test_zero_dim_array_keeps_its_shape_through_a_round_trip(tmp_path):
    path = tmp_path / "scalars.bin"
    save_arrays(path, {"scalar": np.array(2.5), "row": np.array([1.0, 2.0])})
    loaded = load_arrays(path)
    assert loaded["scalar"].shape == ()
    assert loaded["scalar"] == 2.5
    assert loaded["row"].shape == (2,)


def test_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path):
    resource = pytest.importorskip("resource")
    import signal

    path = tmp_path / "model.bin"
    previous = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
    save_arrays(path, previous)
    before = sorted(p.name for p in tmp_path.iterdir())
    # A file-size limit makes the write fail midway, as a full disk would.
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, hard))
    try:
        with pytest.raises(OSError):
            save_arrays(path, {"a": np.zeros(100_000), "b": np.ones(4)})
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    loaded = load_arrays(path)
    for name, arr in previous.items():
        assert np.array_equal(loaded[name], arr)
    assert (tmp_path / "model.bin.manifest").read_text() == "a float64 2x3\nb float64 4\n"


@pytest.mark.parametrize("dtype", [np.float16, np.int32, np.bool_])
def test_save_refuses_other_dtypes_and_keeps_the_previous_file(tmp_path, dtype):
    path = tmp_path / "model.bin"
    save_arrays(path, {"a": np.arange(3.0)})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(DataError, match=np.dtype(dtype).name):
        save_arrays(path, {"ok": np.ones(2), "bad": np.zeros(2, dtype)})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


_RECORD = st.tuples(
    st.sampled_from([np.float32, np.float64, np.int64]),
    st.lists(st.integers(0, 3), min_size=0, max_size=3),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=8), _RECORD, max_size=4))
def test_containers_round_trip_every_record_bitwise_in_its_dtype(tmp_path_factory, records):
    named = {}
    for name, (dtype, shape, seed) in records.items():
        # Raw random bits: NaN payloads, infinities and signed zeros included.
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        raw = np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8)
        named[name] = raw.view(dtype).reshape(shape)
    path = tmp_path_factory.mktemp("roundtrip") / "c.bin"
    save_arrays(path, named)
    loaded = load_arrays(path)
    assert list(loaded) == list(named)
    for name, arr in named.items():
        got = loaded[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape, name
        assert got.tobytes() == arr.tobytes(), name


def _mixed_arrays():
    return {
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "one": np.array([[2.5]], dtype=np.float32),
        "b": np.array([-1.0, 4.0], dtype=np.float32),
        "wide": np.array([1 / 3, -0.0], dtype=np.float64),
        "step": np.array([2**40 + 1], dtype=np.int64),
    }


def test_a_flipped_bit_anywhere_raises_data_error(tmp_path):
    full = tmp_path / "full.bin"
    save_arrays(full, {k: _mixed_arrays()[k] for k in ("one", "wide", "step")})
    blob = bytearray(full.read_bytes())
    bad = tmp_path / "bad.bin"
    for bit in range(8 * len(blob)):
        blob[bit // 8] ^= 1 << (bit % 8)
        bad.write_bytes(blob)
        with pytest.raises(DataError):
            load_arrays(bad)
        blob[bit // 8] ^= 1 << (bit % 8)


def _container(records):
    """A version-2 container of (name, float32 array) records, with a valid
    checksum, written byte by byte: `save_arrays` takes a dict and cannot
    repeat a name."""
    blob = b"CTXF" + struct.pack("<II", 2, len(records))
    for name, arr in records:
        raw = name.encode()
        blob += struct.pack(f"<I{len(raw)}sII{arr.ndim}I", len(raw), raw, 0, arr.ndim, *arr.shape)
        blob += arr.astype("<f4").tobytes()
    return blob + struct.pack("<I", zlib.crc32(blob))


@pytest.mark.parametrize("skip", [None, "adam."])
@pytest.mark.parametrize("repeated", ["w", "adam.m.w"])
def test_a_record_named_twice_raises_data_error_naming_it(tmp_path, repeated, skip):
    first, second = np.ones((2, 2), np.float32), np.full((2, 2), 7.0, np.float32)
    path = tmp_path / "twice.bin"
    path.write_bytes(_container([(repeated, first), ("b", first[0]), (repeated, second)]))
    with pytest.raises(DataError, match=f"record {repeated} appears twice"):
        load_arrays(path, skip=skip)
    path.write_bytes(_container([("w", first), ("b", first[0])]))  # the crafting is sound
    assert load_arrays(path)["w"].tobytes() == first.tobytes()


def test_checkpoint_detects_corruption(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        load_arrays(path)


def test_load_holds_the_file_once(tmp_path):
    path = tmp_path / "big.bin"
    rng = np.random.default_rng(8)
    save_arrays(path, {f"w{i}": rng.normal(size=(256, 256)) for i in range(8)})
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = load_arrays(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 8
    assert peak <= 1.25 * size, f"peak {peak} bytes for a {size}-byte file"


def test_a_skipping_load_keeps_the_rest_and_still_checks_every_byte(tmp_path):
    arrays = _mixed_arrays()
    arrays = {"adam.m.w": arrays["w"], **arrays, "adam.v.w": -arrays["w"]}
    full = tmp_path / "full.bin"
    save_arrays(full, arrays)
    loaded = load_arrays(full, skip="adam.")
    assert list(loaded) == [n for n in arrays if not n.startswith("adam.")]
    for name, arr in loaded.items():
        assert arr.dtype == arrays[name].dtype and arr.tobytes() == arrays[name].tobytes()
    blob = bytearray(full.read_bytes())
    bad = tmp_path / "bad.bin"
    for bit in range(8 * len(blob)):
        blob[bit // 8] ^= 1 << (bit % 8)
        bad.write_bytes(blob)
        with pytest.raises(DataError):
            load_arrays(bad, skip="adam.")
        blob[bit // 8] ^= 1 << (bit % 8)


def test_a_skipping_load_does_not_hold_the_skipped_records(tmp_path):
    path = tmp_path / "big.bin"
    rng = np.random.default_rng(9)
    kept = rng.normal(size=(64, 64))
    save_arrays(path, {"w": kept, **{f"adam.m.{i}": rng.normal(size=(512, 384)) for i in range(3)}})
    tracemalloc.start()
    try:
        loaded = load_arrays(path, skip="adam.")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(loaded) == ["w"] and loaded["w"].tobytes() == kept.tobytes()
    assert peak <= kept.nbytes + SKIP_CHUNK + 64 * 1024, f"peak {peak} bytes"


def test_load_checkpoint_without_moments_reads_the_same_parameters(tmp_path):
    params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(3, np.float32)}
    moments = {k: 2 * a for k, a in params.items()}
    path = tmp_path / "ck.bin"
    TR.save_checkpoint(path, TR.Checkpoint(step=4, params=params, m=moments, v=moments))
    full, lean = TR.load_checkpoint(path), TR.load_checkpoint(path, moments=False)
    assert lean.step == full.step == 4 and not lean.m and not lean.v
    assert full.m and full.v
    for name, arr in full.params.items():
        assert lean.params[name].tobytes() == arr.tobytes()


def test_truncated_container_raises_data_error_at_every_length(tmp_path):
    arrays = _mixed_arrays()
    full = tmp_path / "full.bin"
    save_arrays(full, arrays)
    blob = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for length in range(len(blob)):
        cut.write_bytes(blob[:length])
        with pytest.raises(DataError):
            load_arrays(cut)
    loaded = load_arrays(full)
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes(), name


# ------------------------------------------------------------------ trainer


def _toy_training_setup(tmp_path, total_steps, seed=1, out=None, keep_last=3, dtype=np.float32):
    pairs, _ = D.generate_corpus(29, 120)
    model = small_model(seed=23, dtype=dtype, dropout=0.05, residual_dropout=0.05)
    cfg = TR.TrainConfig(
        warmup_steps=20,
        total_steps=total_steps,
        accum_steps=1,
        seed=seed,
        checkpoint_every=5,
        keep_last=keep_last,
        max_tokens=128,
    )
    trainer = TR.Trainer(model, pairs, cfg, out_dir=tmp_path / "run" if out is None else out)
    return trainer, model


def test_trainer_loss_decreases_and_log_counts(tmp_path):
    trainer, _ = _toy_training_setup(tmp_path, total_steps=30)
    lines = trainer.run()
    assert len(lines) == 31  # header + one line per optimizer step
    first = float(lines[1].split("\t")[2])
    last = float(lines[-1].split("\t")[2])
    assert np.isfinite(first) and np.isfinite(last)
    assert last < first


def test_trainer_resume_reproduces_trajectory(tmp_path):
    out_a = tmp_path / "full"
    trainer_a, model_a = _toy_training_setup(tmp_path, total_steps=10, out=out_a)
    lines_a = trainer_a.run()

    out_b = tmp_path / "interrupted"
    trainer_b, model_b = _toy_training_setup(tmp_path, total_steps=5, out=out_b)
    trainer_b.run()

    trainer_c, model_c = _toy_training_setup(tmp_path, total_steps=10, out=tmp_path / "resumed")
    trainer_c.resume_from(out_b / "ckpt_0000005.bin")
    lines_c = trainer_c.run()

    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_c.params[name].data), name
    # replayed optimizer steps match except the wall-clock column
    tail_a = ["\t".join(l.split("\t")[:-1]) for l in lines_a[6:]]
    tail_c = ["\t".join(l.split("\t")[:-1]) for l in lines_c[1:]]
    assert tail_a == tail_c


@pytest.mark.parametrize("keep_last", [2, 3])
def test_trainer_resume_in_place_matches_uninterrupted_run(tmp_path, keep_last):
    # keep_last=2 rotates ckpt_0000005.bin away at step 15; keep_last=3
    # averages it into averaged.bin
    straight = tmp_path / "straight"
    _toy_training_setup(tmp_path, total_steps=15, out=straight, keep_last=keep_last)[0].run()

    resumed = tmp_path / "resumed"
    _toy_training_setup(tmp_path, total_steps=5, out=resumed, keep_last=keep_last)[0].run()
    # what a write killed mid-way leaves behind; nothing may read it
    (resumed / ".ckpt_0000010.bin.12345.tmp").write_bytes(b"CTXF\x02\x00")
    trainer, _ = _toy_training_setup(tmp_path, total_steps=15, out=resumed, keep_last=keep_last)
    trainer.resume_from(resumed / "ckpt_0000005.bin")
    trainer.run()

    names = [p.name for p in sorted(straight.glob("ckpt_*.bin"))]
    assert names == [p.name for p in sorted(resumed.glob("ckpt_*.bin"))]
    assert len(names) == min(keep_last, 3)
    assert (straight / "averaged.bin").read_bytes() == (resumed / "averaged.bin").read_bytes()

    def without_wall_clock(run):
        lines = (run / "metrics.log").read_text().splitlines()
        return ["\t".join(l.split("\t")[:-1]) for l in lines]

    assert len(without_wall_clock(resumed)) == 16
    assert without_wall_clock(straight) == without_wall_clock(resumed)


def test_float64_resume_is_bitwise_the_uninterrupted_run(tmp_path):
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    trainer_a, model_a = _toy_training_setup(tmp_path, 10, out=straight, dtype=np.float64)
    trainer_a.run()
    _toy_training_setup(tmp_path, 5, out=resumed, dtype=np.float64)[0].run()
    trainer_c, model_c = _toy_training_setup(tmp_path, 10, out=resumed, dtype=np.float64)
    trainer_c.resume_from(resumed / "ckpt_0000005.bin")
    trainer_c.run()
    for space in ("m", "v"):
        a, c = getattr(trainer_a.state, space), getattr(trainer_c.state, space)
        assert list(a) == list(c) == list(model_a.leaves)
        for name in a:
            assert a[name].dtype == np.float64 and a[name].tobytes() == c[name].tobytes(), name
    for name, arr in model_a.state_arrays().items():
        assert arr.tobytes() == model_c.leaves[name].data.tobytes(), name
    assert (straight / "averaged.bin").read_bytes() == (resumed / "averaged.bin").read_bytes()


def test_trainer_streams_metrics_log_before_a_crash(tmp_path, monkeypatch):
    out = tmp_path / "run"
    trainer, _ = _toy_training_setup(tmp_path, total_steps=10, out=out)
    real_step = TR.train_step

    def crash_at_step_3(batch, model, state, cfg):
        if state.opt_step == 2:
            raise RuntimeError("crash during optimizer step 3")
        return real_step(batch, model, state, cfg)

    monkeypatch.setattr(TR, "train_step", crash_at_step_3)
    with pytest.raises(RuntimeError, match="step 3"):
        trainer.run()
    lines = (out / "metrics.log").read_text().splitlines()
    assert lines[0] == TR.METRICS_HEADER
    assert [line.split("\t")[0] for line in lines[1:]] == ["1", "2"]


def test_trainer_log_rewrite_that_fails_midway_keeps_the_previous_log(tmp_path, monkeypatch):
    out = tmp_path / "run"
    _toy_training_setup(tmp_path, total_steps=7, out=out)[0].run()
    before = (out / "metrics.log").read_bytes()
    trainer, _ = _toy_training_setup(tmp_path, total_steps=10, out=out)
    trainer.resume_from(out / "ckpt_0000005.bin")  # keeps 5 of the log's 7 lines
    monkeypatch.setattr(checkpoint, "open", _DiskFullHalfway, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        trainer.run()
    assert (out / "metrics.log").read_bytes() == before
    assert not list(out.glob(".*.tmp"))


# Fault injection: a run that fails at one write point, resumed from its
# newest checkpoint, must leave the checkpoints, averaged.bin and metrics.log
# of a run that never failed. Cadence saves land at steps 5, 10 and 15 and
# the last one at 17; keep_last=2 rotates step 5 away at 15 and step 10 at 17.
FAULT_STEPS, FAULT_KEEP = 17, 2


class _Fault(Exception):
    """The failure a fault point raises."""


def _ckpt_name(step):
    return f"ckpt_{step:07d}.bin"


def _raise_after_log_line(monkeypatch, step):
    # The trainer opens a file only to append a metrics line: call n appends
    # step n's.
    real_open, calls = open, []

    class LineThenFault:
        def __init__(self, *args, **kwargs):
            self.file = real_open(*args, **kwargs)
            calls.append(self)

        def __enter__(self):
            return self.file

        def __exit__(self, *exc):
            self.file.close()
            if len(calls) == step:
                raise _Fault

    monkeypatch.setattr(TR, "open", LineThenFault, raising=False)


def _raise_at_replace(monkeypatch, step, after):
    real_replace = os.replace

    def replace(src, dst):
        hit = Path(dst).name == _ckpt_name(step)
        if hit and not after:
            raise _Fault
        real_replace(src, dst)
        if hit:
            raise _Fault

    monkeypatch.setattr(checkpoint.os, "replace", replace)


def _raise_before_manifest(monkeypatch, step):
    real_replacing = checkpoint._replacing

    def replacing(path):
        if path.name == _ckpt_name(step) + ".manifest":
            raise _Fault
        return real_replacing(path)

    monkeypatch.setattr(checkpoint, "_replacing", replacing)


def _raise_between_rotation_unlinks(monkeypatch, step):
    real_unlink = Path.unlink

    def unlink(path, missing_ok=False):
        real_unlink(path, missing_ok=missing_ok)
        if path.name == _ckpt_name(step):
            raise _Fault

    monkeypatch.setattr(Path, "unlink", unlink)


def _raise_while_averaging(monkeypatch, step):
    real_open = open

    def opened(path, mode="r", *args):
        if ".averaged.bin." in Path(path).name:
            return _FaultHalfway(path, mode)
        return real_open(path, mode, *args)

    monkeypatch.setattr(checkpoint, "open", opened, raising=False)


class _FaultHalfway(_DiskFullHalfway):
    def write(self, data):
        self._file.write(data[: len(data) // 2])
        raise _Fault


FAULT_POINTS = {
    "after_log_line": _raise_after_log_line,
    "before_replace": lambda mp, step: _raise_at_replace(mp, step, after=False),
    "after_replace": lambda mp, step: _raise_at_replace(mp, step, after=True),
    "before_manifest": _raise_before_manifest,
    "between_rotation_unlinks": _raise_between_rotation_unlinks,
    "while_averaging": _raise_while_averaging,
}


@pytest.fixture(scope="module")
def uninterrupted_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("uninterrupted") / "run"
    _toy_training_setup(out.parent, FAULT_STEPS, out=out, keep_last=FAULT_KEEP)[0].run()
    return out


def _run_files(out, manifests):
    """The checkpoint containers, with their manifests if `manifests`, and
    averaged.bin by name, and metrics.log without its wall-clock column."""
    pattern = "ckpt_*.bin*" if manifests else "ckpt_*.bin"
    files = {p.name: p.read_bytes() for p in sorted(out.glob(pattern))}
    files["averaged.bin"] = (out / "averaged.bin").read_bytes()
    lines = (out / "metrics.log").read_text().splitlines()
    files["metrics.log"] = ["\t".join(line.split("\t")[:-1]) for line in lines]
    return files


@pytest.mark.parametrize(
    "point, step",
    [
        ("after_log_line", 12),
        ("after_log_line", 17),
        ("before_replace", 15),
        ("before_replace", 17),
        ("after_replace", 15),
        ("after_replace", 17),
        ("before_manifest", 15),
        ("before_manifest", 17),
        ("between_rotation_unlinks", 5),  # rotated away by the save at 15
        ("between_rotation_unlinks", 10),  # and by the save at 17
        ("while_averaging", 17),
    ],
)
def test_trainer_resumed_after_a_fault_matches_the_uninterrupted_run(
    tmp_path, monkeypatch, uninterrupted_run, point, step
):
    out = tmp_path / "run"
    trainer, _ = _toy_training_setup(tmp_path, FAULT_STEPS, out=out, keep_last=FAULT_KEEP)
    with monkeypatch.context() as mp:
        FAULT_POINTS[point](mp, step)
        with pytest.raises(_Fault):
            trainer.run()
    newest = max(out.glob("ckpt_*.bin"))
    trainer, _ = _toy_training_setup(tmp_path, FAULT_STEPS, out=out, keep_last=FAULT_KEEP)
    trainer.resume_from(newest)
    trainer.run()
    # A fault between a container's rename and its manifest's leaves that
    # checkpoint without a manifest, and the resumed run does not write it again.
    manifests = point not in ("after_replace", "before_manifest")
    assert _run_files(out, manifests) == _run_files(uninterrupted_run, manifests)


def test_trainer_resumed_in_place_from_an_older_checkpoint_matches_a_straight_run(tmp_path):
    # The rewound run finds ckpt 15 and 17 ahead of it and saves both again.
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    _toy_training_setup(tmp_path, FAULT_STEPS, out=straight)[0].run()
    shutil.copytree(straight, resumed)
    assert sorted(p.name for p in resumed.glob("ckpt_*.bin")) == [
        _ckpt_name(step) for step in (10, 15, 17)
    ]
    trainer, _ = _toy_training_setup(tmp_path, FAULT_STEPS, out=resumed)
    trainer.resume_from(resumed / _ckpt_name(10))
    trainer.run()
    assert _run_files(resumed, manifests=True) == _run_files(straight, manifests=True)


def test_trainer_rewound_past_a_shorter_runs_last_checkpoint_matches_a_straight_run(tmp_path):
    # The 12-step run leaves ckpt 5, 10 and 12; the run rewound to step 10
    # must neither rotate nor average that off-cadence ckpt 12.
    straight, out = tmp_path / "straight", tmp_path / "run"
    _toy_training_setup(tmp_path, FAULT_STEPS, out=straight)[0].run()
    _toy_training_setup(tmp_path, 12, out=out)[0].run()
    trainer, _ = _toy_training_setup(tmp_path, FAULT_STEPS, out=out)
    trainer.resume_from(out / _ckpt_name(10))
    trainer.run()
    assert _run_files(out, manifests=True) == _run_files(straight, manifests=True)


def test_trainer_rewound_to_a_shorter_run_removes_the_checkpoints_ahead_of_it(tmp_path):
    out = tmp_path / "run"
    _toy_training_setup(tmp_path, FAULT_STEPS, out=out)[0].run()
    trainer, _ = _toy_training_setup(tmp_path, 12, out=out)
    trainer.resume_from(out / _ckpt_name(10))
    trainer.run()
    # The directory holds the rewound run alone: ckpt 15 and 17 and their
    # manifests are gone, and averaged.bin is ckpt 10 and 12's.
    assert sorted(p.name for p in out.glob("ckpt_*")) == [
        _ckpt_name(step) + end for step in (10, 12) for end in ("", ".manifest")
    ]
    averaged = TR.load_checkpoint(out / "averaged.bin")
    kept = [TR.load_checkpoint(out / _ckpt_name(step)) for step in (10, 12)]
    assert averaged.step == 12
    for name, arr in TR.average_checkpoints(kept).params.items():
        assert np.array_equal(arr, averaged.params[name]), name


def test_trainer_rewound_with_another_seed_overwrites_the_last_checkpoint(tmp_path):
    # The first run saved ckpt_17 as its last step, off the cadence; the
    # rewound run must save its own step 17 there, not keep the first run's.
    out = tmp_path / "run"
    _toy_training_setup(tmp_path, FAULT_STEPS, out=out)[0].run()
    trainer, model = _toy_training_setup(tmp_path, FAULT_STEPS, seed=2, out=out)
    trainer.resume_from(out / _ckpt_name(10))
    trainer.run()
    last = TR.load_checkpoint(out / _ckpt_name(17))
    for name, arr in model.state_arrays().items():
        assert np.array_equal(last.params[name], arr), name


def test_trainer_resume_rejects_a_log_that_is_not_a_metrics_log(tmp_path):
    out = tmp_path / "run"
    _toy_training_setup(tmp_path, total_steps=5, out=out)[0].run()
    (out / "metrics.log").write_text("not\ta log\n")
    trainer, _ = _toy_training_setup(tmp_path, total_steps=10, out=out)
    with pytest.raises(DataError, match="metrics.log"):
        trainer.resume_from(out / "ckpt_0000005.bin")


def test_trainer_saves_the_last_step_off_the_cadence(tmp_path):
    out = tmp_path / "run"
    trainer, model = _toy_training_setup(tmp_path, total_steps=7, out=out)
    trainer.run()
    kept = sorted(out.glob("ckpt_*.bin"))
    assert [p.name for p in kept] == ["ckpt_0000005.bin", "ckpt_0000007.bin"]
    last = TR.load_checkpoint(out / "ckpt_0000007.bin")
    for name, arr in model.state_arrays().items():
        assert np.array_equal(last.params[name], arr)
    averaged = TR.load_checkpoint(out / "averaged.bin")
    assert averaged.step == 7
    manual = TR.average_checkpoints([TR.load_checkpoint(p) for p in kept])
    for name, arr in manual.params.items():
        assert np.array_equal(arr, averaged.params[name])


def test_trainer_writes_averaged_checkpoint(tmp_path):
    out = tmp_path / "run"
    trainer, model = _toy_training_setup(tmp_path, total_steps=10, out=out)
    trainer.run()
    averaged = TR.load_checkpoint(out / "averaged.bin")
    assert averaged.step == 10
    assert not averaged.m and not averaged.v
    kept = sorted(out.glob("ckpt_*.bin"))
    assert len(kept) == 2  # steps 5 and 10 at cadence 5, keep_last 3
    manual = TR.average_checkpoints([TR.load_checkpoint(p) for p in kept])
    for name, arr in manual.params.items():
        assert np.array_equal(arr, averaged.params[name])
