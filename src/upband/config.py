"""Run configuration: line-oriented ``key = value`` files with sections.

Unknown sections or keys are hard errors; a silent typo in a
hyperparameter name is the costliest failure mode. The ``desk`` preset
shrinks widths for CPU-scale runs.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .metrics import LsdConfig
from .model import DiscriminatorConfig, GeneratorConfig
from .training import TrainConfig


@dataclass
class PathsConfig:
    corpus: str = "corpus"
    run_dir: str = "runs/default"


@dataclass
class DataConfig:
    heldout_fraction: float = 0.15
    heldout_tag: str = ""

    def __post_init__(self):
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ConfigError(f"DataConfig: heldout_fraction must lie in (0, 1), "
                              f"got {self.heldout_fraction}")


@dataclass
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    discriminator: DiscriminatorConfig = field(default_factory=DiscriminatorConfig)
    lsd: LsdConfig = field(default_factory=LsdConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    data: DataConfig = field(default_factory=DataConfig)


_SECTIONS = {
    "train": TrainConfig,
    "generator": GeneratorConfig,
    "discriminator": DiscriminatorConfig,
    "lsd": LsdConfig,
    "paths": PathsConfig,
    "data": DataConfig,
}

# reduced widths for CPU-scale experiments; 128 channels forces the top
# group count down from 256 (divisibility); max_frames follows batch_frames
DESK_PRESET = {
    "generator": {"d_model": 128, "n_heads": 4, "d_ff": 512, "max_frames": 64},
    "discriminator": {"channels": 128, "group_counts": (1, 4, 16, 64, 128)},
    "train": {"batch_size": 4, "batch_frames": 64},
}


def _coerce(raw: str, current):
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(int(v.strip()) for v in raw.split(","))
    return raw


def apply_preset(cfg: RunConfig, preset: str) -> RunConfig:
    if preset == "default":
        return cfg
    if preset != "desk":
        raise ConfigError(f"unknown preset {preset!r} (available: default, desk)")
    for section, values in DESK_PRESET.items():
        sub = getattr(cfg, section)
        replaced = dataclasses.replace(sub, **values)
        setattr(cfg, section, replaced)
    return cfg


def load_config(path, preset: str = "default", overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, preset, optional file, and CLI overrides,
    in that order of increasing precedence."""
    cfg = RunConfig()
    cfg = apply_preset(cfg, preset)
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"{path}: unknown section [{section}] "
                                  f"(known: {', '.join(_SECTIONS)})")
            sub = getattr(cfg, section)
            known = {f.name for f in fields(sub)}
            updates = {}
            for key, raw in parser.items(section):
                if key not in known:
                    raise ConfigError(f"{path}: unknown key {key!r} in [{section}] "
                                      f"(known: {', '.join(sorted(known))})")
                try:
                    updates[key] = _coerce(raw, getattr(sub, key))
                except ValueError as exc:
                    raise ConfigError(f"{path}: bad value for {section}.{key}: {exc}") from exc
            setattr(cfg, section, dataclasses.replace(sub, **updates))
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"override {dotted!r}: unknown section {section!r}")
        sub = getattr(cfg, section)
        if key not in {f.name for f in fields(sub)}:
            raise ConfigError(f"override {dotted!r}: unknown key {key!r}")
        if isinstance(value, str):
            value = _coerce(value, getattr(sub, key))
        setattr(cfg, section, dataclasses.replace(sub, **{key: value}))
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Serialize the effective configuration back to the file format."""
    out = []
    for section in _SECTIONS:
        out.append(f"[{section}]")
        sub = getattr(cfg, section)
        for f in fields(sub):
            value = getattr(sub, f.name)
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            out.append(f"{f.name} = {value}")
        out.append("")
    return "\n".join(out)
