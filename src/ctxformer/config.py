"""Run configuration: presets, plain-text config files, validation.

A run config merges the model, training, and decoding configs with data
paths and the preset name. Config files are flat `key = value` text with
one section per constituent config:

    [run]
    seed = 3
    data_dir = work/data

    [model]
    d_model = 64
    kernel_sizes = 3,5,7

    [train]
    total_steps = 1200

    [decode]
    beam_size = 5

The keys of a section are the fields of its config, and a key that is not
one (a misspelt or removed option) is a config error. The model has one
attention layout, H/2 dot-product and H/2 word-context heads in every
sublayer, so `[model]` sets sizes, kernel sizes and dropout rates but not
the layout; the tag heads are sized by `POS_TAGS` and `NER_TAGS`.

The `paper` preset pins the published recipe (5 blocks, 16 heads, kernel
sizes 3,5,7,11,15, dropout 0.25 with 0.10 residual/embedding dropout,
gradient accumulation 10, beam 5 with length-penalty exponent 0.5); the
`toy` preset is sized for minutes-scale desk runs.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .data import MIN_SENTENCE_LEN
from .errors import ConfigError
from .inference import DecodeConfig
from .model import ModelConfig
from .training import TrainConfig

PRESETS = ("paper", "toy")


@dataclass
class RunConfig:
    preset: str = "toy"
    seed: int = 0
    data_dir: str = "work/data"
    out_dir: str = "work/run"
    n_pairs: int = 8000
    max_sentence_len: int = 12
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)

    def validate(self) -> None:
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        if self.n_pairs < 1:
            raise ConfigError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.max_sentence_len < MIN_SENTENCE_LEN:
            raise ConfigError(
                f"max_sentence_len must be >= {MIN_SENTENCE_LEN}, the grammar's shortest "
                f"sentence, got {self.max_sentence_len}"
            )
        self.model.validate()
        self.train.validate()
        self.decode.validate()
        # cross-config invariants
        if self.model.max_len < self.max_sentence_len + 2:
            raise ConfigError(
                f"model max_len {self.model.max_len} cannot hold sentences of "
                f"length {self.max_sentence_len} plus markers"
            )
        if self.decode.max_decode_len >= self.model.max_len:
            raise ConfigError(
                f"max_decode_len {self.decode.max_decode_len} must stay below "
                f"model max_len {self.model.max_len}"
            )


def preset_run_config(name: str) -> RunConfig:
    if name == "paper":
        return RunConfig(
            preset="paper",
            model=ModelConfig(
                d_model=1024,
                h=16,
                n_blocks=5,
                kernel_sizes=(3, 5, 7, 11, 15),
                dropout=0.25,
                residual_dropout=0.10,
                embed_dropout=0.10,
                dropconnect=0.10,
                max_len=512,
            ),
            train=TrainConfig(
                warmup_steps=4000,
                total_steps=320_000,
                accum_steps=10,
                betas=(0.9, 0.98),
                adam_eps=1e-9,
                checkpoint_every=500,
                keep_last=10,
                max_tokens=4096,
            ),
            decode=DecodeConfig(beam_size=5, alpha=0.5, max_decode_len=256),
        )
    if name == "toy":
        return RunConfig(
            preset="toy",
            model=ModelConfig(
                d_model=64,
                h=8,
                n_blocks=3,
                kernel_sizes=(3, 5, 7),
                dropout=0.10,
                residual_dropout=0.10,
                embed_dropout=0.10,
                dropconnect=0.0,
                max_len=32,
            ),
            train=TrainConfig(
                warmup_steps=200,
                total_steps=1200,
                accum_steps=1,
                checkpoint_every=200,
                keep_last=10,
                max_tokens=1536,
            ),
            decode=DecodeConfig(beam_size=5, alpha=0.5, max_decode_len=24),
        )
    raise ConfigError(f"unknown preset {name!r}; expected one of {PRESETS}")


# --------------------------------------------------------------- file format


def _coerce(raw: str, fieldname: str, current):
    raw = raw.strip()
    try:
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        if isinstance(current, tuple):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if current and isinstance(current[0], float):
                return tuple(float(p) for p in parts)
            return tuple(int(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {fieldname} = {raw!r}: {exc}") from exc


def _apply_section(target, name: str, section, skip=()) -> None:
    known = {
        f.name for f in dataclasses.fields(target)
        if not dataclasses.is_dataclass(getattr(target, f.name))
    }
    for key, raw in section.items():
        if key in skip:
            continue
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{name}]; known: {sorted(known)}")
        setattr(target, key, _coerce(raw, key, getattr(target, key)))


def _read_config_file(path) -> dict[str, dict[str, str]]:
    """The sections of an INI config file as {section: {key: value}}; a file
    that is missing or does not parse raises ConfigError naming it."""
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path, encoding="utf-8")
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} does not parse: {exc}") from exc
    if not found:
        raise ConfigError(f"config file not found: {path}")
    return sections


def load_run_config(
    config_path=None,
    preset: str | None = None,
    seed: int | None = None,
    out: str | None = None,
) -> RunConfig:
    """Build a RunConfig: preset defaults, then file overrides, then flags.

    The run-level seed is authoritative and is propagated into the training
    config. Validation runs before the config is returned, so commands
    never act on an invalid configuration.
    """
    sections = {} if config_path is None else _read_config_file(config_path)
    chosen = preset
    if chosen is None:
        chosen = sections.get("run", {}).get("preset")
    rc = preset_run_config(chosen if chosen is not None else "toy")
    for section_name, target, skip in (
        ("run", rc, ("preset",)),
        ("model", rc.model, ()),
        ("train", rc.train, ()),
        ("decode", rc.decode, ()),
    ):
        if section_name in sections:
            _apply_section(target, section_name, sections[section_name], skip)
    unknown = set(sections) - {"run", "model", "train", "decode"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if seed is not None:
        rc.seed = seed
    if out is not None:
        rc.out_dir = str(out)
    rc.train.seed = rc.seed
    rc.validate()
    return rc


def corpus_paths(rc: RunConfig) -> dict[str, Path]:
    base = Path(rc.data_dir)
    return {split: base / f"{split}.txt" for split in ("train", "valid", "test")}
