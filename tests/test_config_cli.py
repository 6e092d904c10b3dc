"""Run configuration, presets, CLI commands, and exit codes."""

import configparser
import contextlib
import dataclasses
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxformer import config as C
from ctxformer import training
from ctxformer.cli import main
from ctxformer.errors import ConfigError
from ctxformer.inference import DecodeConfig
from ctxformer.model import ModelConfig

SRC = Path(__file__).resolve().parent.parent / "src"


# ------------------------------------------------------------------ presets


def test_paper_preset_pins_published_recipe():
    rc = C.preset_run_config("paper")
    assert rc.model.n_blocks == 5
    assert rc.model.h == 16
    assert tuple(rc.model.kernel_sizes) == (3, 5, 7, 11, 15)
    assert rc.model.dropout == 0.25
    assert rc.model.residual_dropout == 0.10
    assert not hasattr(rc.model, "embed_dropout")
    assert rc.train.accum_steps == 10
    assert rc.train.total_steps == 320_000
    assert rc.train.warmup_steps == 4000
    assert not hasattr(rc.train, "betas") and not hasattr(rc.train, "adam_eps")
    assert (training.ADAM_BETAS, training.ADAM_EPS) == ((0.9, 0.98), 1e-9)
    assert rc.decode.beam_size == 5
    assert rc.decode.alpha == 0.5


def test_paper_preset_head_split_is_eight_eight():
    from ctxformer.model import Seq2SeqModel

    rc = C.preset_run_config("paper")
    rc.model.d_model = 32  # shrink width only; head structure untouched
    rc.model.vocab_src = rc.model.vocab_tgt = 8
    model = Seq2SeqModel(rc.model, seed=0)
    for i in range(5):
        mha = model.enc_layers[i].mha
        assert mha.w_q.shape[0] == 8
        assert mha.conv.w_in.shape[0] == 8
        assert mha.conv.w_a.shape[1] == (3, 5, 7, 11, 15)[i]


def test_toy_preset_validates():
    rc = C.preset_run_config("toy")
    rc.validate()
    assert rc.model.d_model == 64


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        C.preset_run_config("huge")


# --------------------------------------------------------------- config file


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\nseed = 9\ndata_dir = d\n\n"
        "[model]\nd_model = 32\nh = 4\nkernel_sizes = 3,3,3\n\n"
        "[train]\ntotal_steps = 64\naccum_steps = 2\n\n"
        "[decode]\nbeam_size = 2\n"
    )
    rc = C.load_run_config(config_path=cfg)
    assert rc.seed == 9
    assert rc.data_dir == "d"
    assert rc.model.d_model == 32
    assert rc.model.kernel_sizes == (3, 3, 3)
    assert rc.train.total_steps == 64
    assert rc.train.seed == 9  # run seed propagates
    assert rc.decode.beam_size == 2


def test_config_file_preset_selection(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\npreset = paper\n")
    rc = C.load_run_config(config_path=cfg)
    assert rc.model.n_blocks == 5
    # explicit flag wins over the file
    rc2 = C.load_run_config(config_path=cfg, preset="toy")
    assert rc2.model.n_blocks == 3


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nwidth = 64\n")
    with pytest.raises(ConfigError, match="width"):
        C.load_run_config(config_path=cfg)


def test_config_rejects_invalid_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nd_model = sixty-four\n")
    with pytest.raises(ConfigError):
        C.load_run_config(config_path=cfg)


def test_config_cross_field_validation(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[decode]\nmax_decode_len = 4000\n")
    with pytest.raises(ConfigError, match="max_decode_len"):
        C.load_run_config(config_path=cfg)


def test_flag_seed_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nseed = 9\n")
    rc = C.load_run_config(config_path=cfg, seed=42)
    assert rc.seed == 42 and rc.train.seed == 42


# --------------------------------------------------------------------- CLI


def _toy_flags(tmp_path, extra=""):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "[run]\nn_pairs = 300\n\n"
        "[model]\nd_model = 16\nh = 2\nkernel_sizes = 3,3,3\n\n"
        "[train]\ntotal_steps = 30\nwarmup_steps = 10\ncheckpoint_every = 15\n"
        "max_tokens = 256\n" + extra
    )
    return cfg


def test_cli_gen_is_deterministic(tmp_path, capsys):
    cfg = _toy_flags(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", str(cfg), "--seed", "3", "--out", str(out_a)]) == 0
    assert main(["gen", "--config", str(cfg), "--seed", "3", "--out", str(out_b)]) == 0
    for split in ("train", "valid", "test"):
        assert (out_a / f"{split}.txt").read_bytes() == (out_b / f"{split}.txt").read_bytes()
    n_lines = len((out_a / "train.txt").read_text().splitlines())
    assert n_lines == 270  # 0.9 * 300 exactly


def test_cli_gen_record_count(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[run]\nn_pairs = 10\n")
    out = tmp_path / "corpus"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    total = sum(
        len((out / f"{s}.txt").read_text().splitlines()) for s in ("train", "valid", "test")
    )
    assert total == 10


def test_cli_full_pipeline(tmp_path, capsys):
    cfg = _toy_flags(tmp_path)
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["gen", "--config", str(cfg), "--seed", "5", "--out", str(data)]) == 0
    assert (
        main(
            ["train", "--config", str(cfg), "--seed", "5", "--data", str(data), "--out", str(run)]
        )
        == 0
    )
    assert (run / "metrics.log").exists()
    assert (run / "averaged.bin").exists()
    log_lines = (run / "metrics.log").read_text().splitlines()
    assert len(log_lines) == 31  # header + total_steps/accum_steps

    # translate the test split sources
    src_lines = [
        r.split("|||")[0].strip()
        for r in (data / "test.txt").read_text().splitlines()
    ][:5]
    inp = tmp_path / "input.txt"
    inp.write_text("\n".join(src_lines) + "\n")
    hyp = tmp_path / "hyp.txt"
    assert (
        main(
            [
                "translate",
                "--config",
                str(cfg),
                "--data",
                str(data),
                "--out",
                str(hyp),
                str(inp),
                "--checkpoint",
                str(run / "averaged.bin"),
            ]
        )
        == 0
    )
    out_lines = hyp.read_text().splitlines()
    assert len(out_lines) == 5

    # evaluate against references extracted from the corpus
    refs = [
        r.split("|||")[1].strip()
        for r in (data / "test.txt").read_text().splitlines()
    ][:5]
    ref_path = tmp_path / "ref.txt"
    ref_path.write_text("\n".join(refs) + "\n")
    report = tmp_path / "report.txt"
    assert (
        main(
            [
                "eval",
                "--config",
                str(cfg),
                "--data",
                str(data),
                "--out",
                str(report),
                str(hyp),
                str(ref_path),
                "--corpus",
                str(data / "test.txt"),
                "--checkpoint",
                str(run / "averaged.bin"),
            ]
        )
        == 0
    )
    text = report.read_text()
    assert "bleu=" in text and "exact_match=" in text
    assert "pos_acc=" in text and "ner_acc=" in text

    # probe runs and reports all three layers
    assert (
        main(
            [
                "probe",
                "--config",
                str(cfg),
                "--data",
                str(data),
                "--checkpoint",
                str(run / "averaged.bin"),
                "the red fox sees the river",
                "fox",
                "river",
            ]
        )
        == 0
    )
    probe_out = capsys.readouterr().out
    assert "embedding=" in probe_out
    assert "self_head=" in probe_out
    assert "conv_local=" in probe_out


def test_cli_translate_empty_input(tmp_path):
    cfg = _toy_flags(tmp_path)
    data = tmp_path / "data"
    run = tmp_path / "run"
    main(["gen", "--config", str(cfg), "--out", str(data)])
    main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)])
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "out.txt"
    assert (
        main(
            [
                "translate",
                "--config",
                str(cfg),
                "--data",
                str(data),
                "--out",
                str(out),
                str(empty),
                "--checkpoint",
                str(run / "averaged.bin"),
            ]
        )
        == 0
    )
    assert out.read_text() == ""


def test_cli_identical_translate_runs(tmp_path):
    cfg = _toy_flags(tmp_path)
    data = tmp_path / "data"
    run = tmp_path / "run"
    main(["gen", "--config", str(cfg), "--out", str(data)])
    main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)])
    inp = tmp_path / "inp.txt"
    inp.write_text("the fox sees a dog\n")
    outs = []
    for name in ("o1.txt", "o2.txt"):
        path = tmp_path / name
        main(
            [
                "translate",
                "--config",
                str(cfg),
                "--data",
                str(data),
                "--out",
                str(path),
                str(inp),
                "--checkpoint",
                str(run / "averaged.bin"),
            ]
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_eval_identical_files_bleu_100(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("x y z\np q r\n")
    assert main(["eval", str(a), str(a)]) == 0
    out = capsys.readouterr().out
    assert "bleu=100.0000" in out
    assert "exact_match=1.0000" in out


def test_cli_eval_line_count_mismatch(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("x\n")
    b.write_text("x\ny\n")
    assert main(["eval", str(a), str(b)]) == 3
    err = capsys.readouterr().err
    assert "1" in err and "2" in err


def test_cli_missing_checkpoint_exits_nonzero(tmp_path):
    cfg = _toy_flags(tmp_path)
    data = tmp_path / "data"
    main(["gen", "--config", str(cfg), "--out", str(data)])
    inp = tmp_path / "i.txt"
    inp.write_text("the fox sees a dog\n")
    code = main(
        ["translate", "--config", str(cfg), "--data", str(data), str(inp)]
    )
    assert code == 3


def test_cli_translate_truncated_checkpoint_exits_3(tmp_path, capsys):
    from ctxformer.training import Checkpoint, save_checkpoint

    cfg = _toy_flags(tmp_path)
    data = tmp_path / "data"
    main(["gen", "--config", str(cfg), "--out", str(data)])
    ckpt = tmp_path / "cut.bin"
    save_checkpoint(ckpt, Checkpoint(step=3, params={"w": np.ones((4, 4), np.float32)}, m={}, v={}))
    ckpt.write_bytes(ckpt.read_bytes()[:-3])
    inp = tmp_path / "i.txt"
    inp.write_text("the fox sees a dog\n")
    capsys.readouterr()
    code = main(
        ["translate", "--config", str(cfg), "--data", str(data), str(inp),
         "--checkpoint", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "truncated" in err and "Traceback" not in err


def test_cli_train_resume_from_moments_without_v_exits_3(tmp_path, capsys):
    from ctxformer.checkpoint import save_arrays
    from ctxformer.training import STEP_KEY

    cfg = _toy_flags(tmp_path)
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    ckpt = tmp_path / "m_only.bin"
    step = np.array([1], np.int64)
    save_arrays(ckpt, {STEP_KEY: step, "w": np.ones(3), "adam.m.w": np.zeros(3)})
    capsys.readouterr()
    code = main(
        ["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "run"),
         "--resume", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and str(ckpt) in err and "Traceback" not in err
    assert "optimizer moments v do not match the parameters at w" in err


def test_cli_translate_version_1_checkpoint_exits_3(tmp_path, capsys):
    import struct

    cfg = _toy_flags(tmp_path)
    data = tmp_path / "data"
    main(["gen", "--config", str(cfg), "--out", str(data)])
    ckpt = tmp_path / "v1.bin"
    # a version-1 header: step and weights were float32 records named per head
    ckpt.write_bytes(b"CTXF" + struct.pack("<II", 1, 0))
    inp = tmp_path / "i.txt"
    inp.write_text("the fox sees a dog\n")
    capsys.readouterr()
    code = main(
        ["translate", "--config", str(cfg), "--data", str(data), str(inp),
         "--checkpoint", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "unsupported container version 1" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text, key",
    [
        ("[train]\nbetas = 0.9\n", "betas"),
        ("[train]\nbetas =\n", "betas"),
        ("[train]\nbetas = 0.9, 0.98, 0.5\n", "betas"),
        ("[model]\nd_model = 0\n", "d_model"),
        ("[model]\nd_model = -8\n", "d_model"),
        ("[train]\nmax_tokens = 0\n", "max_tokens"),
        ("[model]\ndilations = 0,1,1\n", "dilations"),
        ("[decode]\nalpha = nan\n", "alpha"),
        ("[model]\ncross_conv = off\n", "cross_conv"),
        ("[model]\nn_pos_tags = 9\n", "n_pos_tags"),
        ("[train]\nadam_eps = 0\n", "adam_eps"),
        ("[train]\nadam_eps = -1e-9\n", "adam_eps"),
        ("[train]\nadam_eps = nan\n", "adam_eps"),
        ("[train]\nlambda_pos = nan\n", "lambda_pos"),
        ("[train]\nlambda_ner = nan\n", "lambda_ner"),
        ("[run]\nmax_sentence_len = 4\n", "max_sentence_len"),
        ("[decode]\nalpha = 500\n", "alpha"),
        ("[decode]\nalpha = -1e308\n", "alpha"),
        ("[train]\nseed = 3\n", "[run] seed"),
        ("[model]\nvocab_src = 40\n", "vocab_src"),
        ("[model]\nvocab_tgt = 40\n", "vocab_tgt"),
        ("[run]\nseed = -1\n", "seed"),
        ("[model]\nembed_dropout = 0.1\n", "embed_dropout"),
    ],
    ids=["one-beta", "no-beta", "three-betas", "zero-width", "negative-width",
         "zero-max-tokens", "zero-dilation", "nan-alpha", "removed-cross-conv",
         "removed-n-pos-tags", "zero-adam-eps", "negative-adam-eps", "nan-adam-eps",
         "nan-lambda-pos", "nan-lambda-ner", "sentences-shorter-than-the-grammar",
         "overflowing-alpha", "vanishing-alpha", "derived-train-seed", "derived-vocab-src",
         "derived-vocab-tgt", "negative-seed", "removed-embed-dropout"],
)
def test_cli_gen_rejects_values_that_would_fail_later(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_cli_negative_seed_flag_exits_2(tmp_path, capsys):
    assert main(["gen", "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[model]\nh = 3\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()  # no partial output on invalid config


def _non_utf8(path):
    path.write_bytes(b"the fox \xff sees a dog\n")
    return path


def test_cli_eval_non_utf8_hypothesis_exits_3(tmp_path, capsys):
    hyp = _non_utf8(tmp_path / "hyp.txt")
    ref = tmp_path / "ref.txt"
    ref.write_text("the fox sees a dog\n")
    assert main(["eval", str(hyp), str(ref)]) == 3
    assert str(hyp) in capsys.readouterr().err


def test_cli_train_non_utf8_corpus_exits_3(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    train = _non_utf8(data / "train.txt")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 3
    assert str(train) in capsys.readouterr().err


def test_cli_translate_non_utf8_input_exits_3(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "[run]\nn_pairs = 40\n\n[model]\nd_model = 16\nh = 2\nkernel_sizes = 3,3,3\n\n"
        "[train]\ntotal_steps = 2\nwarmup_steps = 1\ncheckpoint_every = 2\nmax_tokens = 256\n"
    )
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
    inp = _non_utf8(tmp_path / "in.txt")
    code = main(
        ["translate", "--config", str(cfg), "--data", str(data), str(inp),
         "--checkpoint", str(run / "averaged.bin"), "--out", str(tmp_path / "hyp.txt")]
    )
    assert code == 3
    assert str(inp) in capsys.readouterr().err
    assert not (tmp_path / "hyp.txt").exists()


def test_cli_gen_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[run]\nn_pairs = 10\n# \xff\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "text",
    ["n_pairs = 10\n", "[run]\nn_pairs = 10\nn_pairs = 12\n", "[run]\nn_pairs = 1%\n"],
    ids=["no-section-header", "duplicated-key", "bad-interpolation"],
)
def test_cli_gen_unparsable_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("missing", ["hyp", "ref"])
def test_cli_eval_missing_file_exits_3(tmp_path, capsys, missing):
    files = {"hyp": tmp_path / "hyp.txt", "ref": tmp_path / "ref.txt"}
    for name, path in files.items():
        if name != missing:
            path.write_text("the fox sees a dog\n")
    assert main(["eval", str(files["hyp"]), str(files["ref"])]) == 3
    err = capsys.readouterr().err
    assert str(files[missing]) in err and "Traceback" not in err


def test_cli_translate_missing_input_exits_3(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "[run]\nn_pairs = 40\n\n[model]\nd_model = 16\nh = 2\nkernel_sizes = 3,3,3\n\n"
        "[train]\ntotal_steps = 2\nwarmup_steps = 1\ncheckpoint_every = 2\nmax_tokens = 256\n"
    )
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
    capsys.readouterr()
    inp = tmp_path / "missing.txt"
    code = main(
        ["translate", "--config", str(cfg), "--data", str(data), str(inp),
         "--checkpoint", str(run / "averaged.bin"), "--out", str(tmp_path / "hyp.txt")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert str(inp) in err and "Traceback" not in err
    assert not (tmp_path / "hyp.txt").exists()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A corpus and a 2-step model decoding at most 3 tokens per sentence."""
    root = tmp_path_factory.mktemp("tiny_run")
    cfg = root / "t.cfg"
    cfg.write_text(
        "[run]\nn_pairs = 40\n\n[model]\nd_model = 16\nh = 2\nkernel_sizes = 3,3,3\n\n"
        "[train]\ntotal_steps = 2\nwarmup_steps = 1\ncheckpoint_every = 2\nmax_tokens = 256\n\n"
        "[decode]\nmax_decode_len = 3\n"
    )
    data, run = root / "data", root / "run"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
    text = root / "text.txt"
    text.write_text("the fox sees a dog\n")
    return {"cfg": cfg, "data": data, "ckpt": run / "averaged.bin", "text": text}


def _directory_argv(which, run, directory):
    text = str(run["text"])
    trained = ["--config", str(run["cfg"]), "--data", str(run["data"])]
    return {
        "hyp": ["eval", directory, text],
        "ref": ["eval", text, directory],
        "corpus": ["eval", text, text, "--corpus", directory, *trained,
                   "--checkpoint", str(run["ckpt"])],
        "translate-input": ["translate", directory, *trained, "--checkpoint", str(run["ckpt"])],
        "checkpoint": ["translate", text, *trained, "--checkpoint", directory],
    }[which]


@pytest.mark.parametrize("which", ["hyp", "ref", "corpus", "translate-input", "checkpoint"])
def test_cli_directory_given_as_a_file_exits_3(tmp_path, capsys, tiny_run, which):
    directory = tmp_path / "a_directory"
    directory.mkdir()
    capsys.readouterr()
    argv = _directory_argv(which, tiny_run, str(directory)) + ["--out", str(tmp_path / "o.txt")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(directory) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize(
    "resume, message",
    [
        (None, "holds checkpoints: resume from one"),  # a fresh run would mix its checkpoints in
        ("averaged.bin", "averaged.bin holds no optimizer moments"),  # Adam would restart
    ],
    ids=["fresh", "from-averaged"],
)
def test_cli_train_that_cannot_continue_the_run_exits_3_and_changes_nothing(
    tmp_path, capsys, tiny_run, resume, message
):
    run = tmp_path / "run"
    shutil.copytree(tiny_run["ckpt"].parent, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    argv = ["train", "--config", str(tiny_run["cfg"]), "--data", str(tiny_run["data"]),
            "--out", str(run)]
    if resume is not None:
        argv += ["--resume", str(run / resume)]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(run) in err and message in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize(
    "eos_bias, summary",
    [
        (-1e4, "0 finished, 3 budget exhausted, mean length 3.00 tokens"),
        (1e4, "3 finished, 0 budget exhausted, mean length 0.00 tokens"),
    ],
    ids=["never-ends", "ends-at-once"],
)
def test_cli_translate_prints_one_decoding_summary(tmp_path, capsys, tiny_run, eos_bias, summary):
    from ctxformer.data import EOS_ID
    from ctxformer.training import load_checkpoint, save_checkpoint

    ckpt = load_checkpoint(tiny_run["ckpt"])
    ckpt.params["out_proj.b"][EOS_ID] = eos_bias
    path = tmp_path / "eos.bin"
    save_checkpoint(path, ckpt)
    inp = tmp_path / "in.txt"
    inp.write_text("the fox sees a dog\na dog runs\n\nthe cat sleeps\n")
    out = tmp_path / "hyp.txt"
    capsys.readouterr()
    code = main(
        ["translate", str(inp), "--config", str(tiny_run["cfg"]), "--data",
         str(tiny_run["data"]), "--checkpoint", str(path), "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"translated 3 sentences to {out}: {summary}"]
    assert captured.err == ""
    lengths = [len(line.split()) for line in out.read_text().splitlines()]
    assert lengths == ([3, 3, 0, 3] if eos_bias < 0 else [0, 0, 0, 0])


def test_cli_translate_keeps_a_blank_line_so_eval_stays_aligned(tmp_path, capsys, tiny_run):
    inp, hyp, ref = (tmp_path / name for name in ("in.txt", "hyp.txt", "ref.txt"))
    inp.write_text("the fox sees a dog\n\nthe cat sleeps\n")
    ref.write_text("a b c\nd e\nf g h\n")
    common = ["--config", str(tiny_run["cfg"]), "--data", str(tiny_run["data"])]
    argv = ["translate", str(inp), *common, "--checkpoint", str(tiny_run["ckpt"]), "--out", str(hyp)]
    assert main(argv) == 0
    lines = hyp.read_text().splitlines()
    assert len(lines) == 3 and lines[1] == ""
    assert capsys.readouterr().out.startswith("translated 2 sentences")
    assert main(["eval", str(hyp), str(ref), *common]) == 0


class _DiskFullHalfway:
    """A binary file that writes half of what it is given, then fails as a
    full disk does."""

    def __init__(self, path, mode):
        self._file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def write(self, data):
        self._file.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("command", ["gen", "eval"])
def test_cli_write_that_fails_midway_keeps_the_previous_file(tmp_path, capsys, monkeypatch, command):
    from ctxformer import checkpoint

    text = tmp_path / "a.txt"
    text.write_text("x y z\n")
    target = tmp_path / ("train.txt" if command == "gen" else "report.txt")
    target.write_bytes(b"the previous file\n")
    argv = {
        "gen": ["gen", "--out", str(tmp_path)],
        "eval": ["eval", str(text), str(text), "--out", str(target)],
    }[command]
    monkeypatch.setattr(checkpoint, "open", _DiskFullHalfway, raising=False)
    assert main(argv) == 4
    assert "No space left on device" in capsys.readouterr().err
    assert target.read_bytes() == b"the previous file\n"
    assert not list(tmp_path.glob(".*.tmp"))


def test_cli_eval_corpus_with_an_unknown_tag_exits_3(tmp_path, capsys, tiny_run):
    record = (tiny_run["data"] / "train.txt").read_text().splitlines()[0]
    src, tgt, pos, ner = record.split(" ||| ")
    corpus = tmp_path / "tagged.txt"
    corpus.write_text(" ||| ".join([src, tgt, "XYZ" + pos[pos.index(" "):], ner]) + "\n")
    text = str(tiny_run["text"])
    capsys.readouterr()
    code = main(
        ["eval", text, text, "--corpus", str(corpus), "--config", str(tiny_run["cfg"]),
         "--data", str(tiny_run["data"]), "--checkpoint", str(tiny_run["ckpt"]),
         "--out", str(tmp_path / "o.txt")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'XYZ'" in err and "Traceback" not in err
    assert not (tmp_path / "o.txt").exists()


# ------------------------------------------------------------ BLAS threads

_BLAS_THREADS_PROBE = """
import ctypes, json, os
import ctxformer  # loads numpy, and with it OpenBLAS

threads = None
try:
    with open("/proc/self/maps") as f:
        maps = f.read().splitlines()
except OSError:
    maps = []
for path in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            get_num_threads = getattr(lib, symbol)
            get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
            threads = get_num_threads()
            break
names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
print(json.dumps({"threads": threads, "env": [os.environ.get(n) for n in names]}))
"""


@pytest.mark.parametrize(
    "preset, want_env",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["1", "2", "1"])],
    ids=["unset", "a-variable-already-set-wins"],
)
def test_ctxformer_threads_caps_blas_when_the_package_is_imported(preset, want_env):
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env.update(preset, CTXFORMER_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    seen = json.loads(run.stdout)
    assert seen["env"] == want_env
    if seen["threads"] is not None and not preset:  # an OpenBLAS that reports its count
        assert seen["threads"] == 1


# ------------------------------------------------------- failed allocations


def _address_space_limit(limit):
    """A `preexec_fn` that caps the child's address space at `limit` bytes."""
    import resource

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    return cap


def test_cli_train_that_cannot_allocate_exits_4(tmp_path, tiny_run):
    # a 99999999999-row position table needs 745 GiB; the child may map 4 GiB
    cfg = tmp_path / "huge.cfg"
    text = tiny_run["cfg"].read_text()
    cfg.write_text(text.replace("[model]\n", "[model]\nmax_len = 99999999999\n"))
    env = dict(os.environ, CTXFORMER_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-m", "ctxformer.cli", "train", "--config", str(cfg),
         "--data", str(tiny_run["data"]), "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, preexec_fn=_address_space_limit(4 << 30),
    )
    assert run.returncode == 4
    assert run.stderr.startswith("runtime error: out of memory") and "Traceback" not in run.stderr
    assert len(run.stderr.splitlines()) == 1


def test_cli_maps_a_memory_error_anywhere_to_exit_4(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("ctxformer.data.generate_corpus", refuse)
    assert main(["gen", "--out", str(tmp_path / "x")]) == 4
    assert capsys.readouterr().err == "runtime error: out of memory.\n"


# ------------------------------------------------------------------ fuzzing

# Each example rewrites one key of the tiny run's config, or adds or drops a
# key, or flips or cuts the file's bytes; then it trains with a changed
# [train] section and translates with a changed [model] or [decode] one. Or it
# translates with a flipped or cut checkpoint. A train always keeps a small
# total_steps: a dropped key or a cut file would train the preset's 1,200
# steps, so those only translate. Values stay small, except 10**12 outside
# [train], which fails validation or an allocation; the address space is
# capped meanwhile, so no value can take more than FUZZ_HEADROOM bytes.
FUZZ_HEADROOM = 1 << 30
_FUZZ_SECTIONS = {
    "model": [f.name for f in dataclasses.fields(ModelConfig)],
    "train": [f.name for f in dataclasses.fields(training.TrainConfig)],
    "decode": [f.name for f in dataclasses.fields(DecodeConfig)],
}
_SMALL_VALUES = st.one_of(
    st.integers(-2, 9).map(str),
    st.lists(st.integers(-1, 9), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(
        ["", "0.5", "-0.5", "1.5", "1e-12", "nan", "inf", "-inf", "1e999", "x", "3,,5", "0x10",
         "%", "\u00e9"]
    ),
)
_FUZZ_VALUES = {
    "model": st.one_of(_SMALL_VALUES, st.just("1000000000000")),
    "train": _SMALL_VALUES,  # a train's work grows with total_steps
    "decode": st.one_of(_SMALL_VALUES, st.just("1000000000000")),
}


@contextlib.contextmanager
def _capped_address_space():
    import resource

    with open("/proc/self/statm") as f:
        mapped = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = mapped + FUZZ_HEADROOM
    resource.setrlimit(
        resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard)
    )
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _run_cli(argv):
    """Exit code and stderr of `main(argv)`; any exception it lets out fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with _capped_address_space():
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    return code, err.getvalue()


def _translate_argv(run, root, cfg=None, ckpt=None):
    return ["translate", str(run["text"]), "--config", str(cfg or run["cfg"]),
            "--data", str(run["data"]), "--checkpoint", str(ckpt or run["ckpt"]),
            "--out", str(root / "hyp.txt")]


def _mutate(data: bytes, how: str, where: int) -> bytes:
    """`data` cut to `where` bytes, or with bit `where` flipped, both modulo its size."""
    if how == "cut":
        return data[: where % len(data)]
    byte, bit = divmod(where % (8 * len(data)), 8)
    return data[:byte] + bytes([data[byte] ^ (1 << bit)]) + data[byte + 1 :]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    how=st.sampled_from(["key", "new-key", "drop-key", "cut", "flip"]),
    section=st.sampled_from(sorted(_FUZZ_SECTIONS)),
    pick=st.integers(0, 1 << 16),
    data=st.data(),
)
def test_cli_fuzzed_config_ends_in_an_exit_code(tiny_run, how, section, pick, data):
    sections = configparser.ConfigParser(interpolation=None)  # writes "%" as it is
    sections.read_string(tiny_run["cfg"].read_text())
    keys = _FUZZ_SECTIONS[section]
    value = data.draw(_FUZZ_VALUES[section], label="value")
    if how == "key":
        sections[section][keys[pick % len(keys)]] = value
    elif how == "new-key":
        sections[section][f"k{pick}"] = value
    elif how == "drop-key":
        keys = [k for k in sections[section] if k != "total_steps"]
        del sections[section][keys[pick % len(keys)]]
    text = io.StringIO()
    sections.write(text)
    raw = text.getvalue().encode("utf-8")
    if how in ("cut", "flip"):
        raw = _mutate(raw, how, pick)
    with tempfile.TemporaryDirectory() as root:
        cfg = Path(root) / "fuzz.cfg"
        cfg.write_bytes(raw)
        if section == "train" and how != "cut":
            argv = ["train", "--config", str(cfg), "--data", str(tiny_run["data"]), "--out", root]
        else:
            argv = _translate_argv(tiny_run, Path(root), cfg=cfg)
        code, err = _run_cli(argv)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None, derandomize=True)
@given(how=st.sampled_from(["cut", "flip"]), where=st.integers(0, 1 << 24))
def test_cli_fuzzed_checkpoint_exits_3(tiny_run, how, where):
    raw = tiny_run["ckpt"].read_bytes()
    with tempfile.TemporaryDirectory() as root:
        ckpt = Path(root) / "fuzz.bin"
        ckpt.write_bytes(_mutate(raw, how, where))
        code, err = _run_cli(_translate_argv(tiny_run, Path(root), ckpt=ckpt))
    assert code == 3, err
    assert err.startswith("data error:") and "Traceback" not in err
