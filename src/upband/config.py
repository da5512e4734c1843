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


# reduced widths for CPU-scale experiments; 128 channels forces the top
# group count down from 256 (divisibility); max_frames follows batch_frames
PRESETS = {
    "default": {},
    "desk": {
        "generator": {"d_model": 128, "n_heads": 4, "d_ff": 512, "max_frames": 64},
        "discriminator": {"channels": 128, "group_counts": (1, 4, 16, 64, 128)},
        "train": {"batch_size": 4, "batch_frames": 64},
    },
}


def _coerce(raw, current):
    """``raw`` as the type of ``current`` when it is a string, else as is."""
    if not isinstance(raw, str):
        return raw
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(int(v.strip()) for v in raw.split(","))
    return raw


def _apply(cfg: RunConfig, layer: dict, where: str) -> RunConfig:
    """Set every ``{section: {key: value}}`` of ``layer`` on ``cfg``; a string
    takes the type of the value it replaces. ``where`` names the layer in errors."""
    sections = [f.name for f in fields(RunConfig)]
    for section, values in layer.items():
        if section not in sections:
            raise ConfigError(f"{where}: unknown section [{section}] "
                              f"(known: {', '.join(sections)})")
        sub = getattr(cfg, section)
        known = {f.name for f in fields(sub)}
        updates = {}
        for key, value in values.items():
            if key not in known:
                raise ConfigError(f"{where}: unknown key {key!r} in [{section}] "
                                  f"(known: {', '.join(sorted(known))})")
            try:
                updates[key] = _coerce(value, getattr(sub, key))
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {section}.{key}: {exc}") from exc
        setattr(cfg, section, dataclasses.replace(sub, **updates))
    return cfg


def load_config(path, preset: str = "default", overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, preset, optional file, and dotted
    ``section.key`` overrides, in that order of increasing precedence. File
    values are literal: no ``%`` interpolation."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r} (available: {', '.join(PRESETS)})")
    cfg = _apply(RunConfig(), PRESETS[preset], f"preset {preset}")
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        try:
            parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        _apply(cfg, {s: dict(parser.items(s)) for s in parser.sections()}, str(path))
    layer: dict[str, dict] = {}
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        layer.setdefault(section, {})[key] = value
    return _apply(cfg, layer, "override")


def render_config(cfg: RunConfig) -> str:
    """Serialize the effective configuration back to the file format."""
    out = []
    for section in fields(RunConfig):
        out.append(f"[{section.name}]")
        sub = getattr(cfg, section.name)
        for f in fields(sub):
            value = getattr(sub, f.name)
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            out.append(f"{f.name} = {value}")
        out.append("")
    return "\n".join(out)
