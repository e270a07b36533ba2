"""Run configuration files: INI sections mapped onto the module configs.

A run config is plain text with one section per subsystem; every key has a
default, so the empty file is a valid config. Each section is read by
``fileio.read_section`` into its dataclass, every value parsed by its
field's type hint, and a bad one is rejected with the offending
section.key, never silently ignored — a typo'd key must not produce a
differently configured run. The [run] keys are parsed the same way, by
``fileio.parse_value``.
One seed drives every random stage: [run] seed (or --seed) becomes the
seed of the embedder, the cluster tree and the training run, and a seed
key in any other section is refused. It must lie in 0..2**32-1.
The tree's depth is derived the same way: [memory] rs holds one width
per level, so the number of rs values becomes [cluster] depth, and a
depth key is refused.
A value that an input fixes is not a key: the tree records its embedder,
a bank is laid out for its model, a report has a row per bucket its facts
carry, and the masked-block policy is a setting of [eval], not of the bank.
Each artifact records the sections it was built from, not the whole run
config, so a section a command does not read cannot change its output.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace

from . import cluster as cl
from . import embed as em
from . import fileio
from . import membank as mb
from . import model as mdl
from . import train as tr


class ConfigError(ValueError):
    """Unknown section/key or unparseable/invalid value in a run config."""


@dataclass(frozen=True)
class EvalConfig:
    max_new: int = 8
    batch_size: int = 64
    masked_policy: str = "generic"     # what a blocked fetch substitutes: generic | zero

    def __post_init__(self):
        if self.max_new < 1 or self.batch_size < 1:
            raise ValueError("eval sizes must be positive")
        if self.masked_policy not in mb.MASKED_POLICIES:
            raise ValueError(f"masked_policy must be one of {mb.MASKED_POLICIES}, got {self.masked_policy!r}")


_SECTIONS = {
    "embedder": em.EmbedderConfig,
    "cluster": cl.ClusterConfig,
    "anchor": mdl.AnchorConfig,
    "memory": mb.MemoryConfig,
    "train": tr.TrainConfig,
    "eval": EvalConfig,
}
_RUN_KEYS = ("seed", "out")


@dataclass(frozen=True)
class RunConfig:
    embedder: em.EmbedderConfig = em.EmbedderConfig()
    cluster: cl.ClusterConfig = cl.ClusterConfig()
    anchor: mdl.AnchorConfig = mdl.AnchorConfig()
    memory: mb.MemoryConfig = mb.MemoryConfig()
    train: tr.TrainConfig = tr.TrainConfig()
    eval: EvalConfig = EvalConfig()
    seed: int = 0
    out: str = "runs"

    def __post_init__(self):
        # the embedder's hash starts from seed * 0x9E3779B9 as a uint64
        if not 0 <= self.seed < 2**32:
            raise ConfigError(f"[run] seed {self.seed} is outside 0..2**32-1")
        for name in ("embedder", "cluster", "train"):
            object.__setattr__(self, name, replace(getattr(self, name), seed=self.seed))
        object.__setattr__(self, "cluster", replace(self.cluster, depth=self.memory.depth))


def load_config(path=None, *, seed: int | None = None, out: str | None = None) -> RunConfig:
    """Parse an INI run config; flag overrides beat file values.

    ``path=None`` yields the all-defaults config, so every command works
    without a file.
    """
    sections = fileio.read_ini(path, ConfigError) if path is not None else {}
    kwargs: dict = {}
    for section, items in sections.items():
        if section == "run":
            hints = typing.get_type_hints(RunConfig)
            for key, raw in items.items():
                if key not in _RUN_KEYS:
                    raise ConfigError(f"[run] has no key {key!r}")
                try:
                    kwargs[key] = fileio.parse_value(hints[key], raw)
                except ValueError as e:
                    raise ConfigError(f"[run] {key}: {e}") from None
            continue
        cls = _SECTIONS.get(section)
        if cls is None:
            raise ConfigError(f"unknown section [{section}]")
        if "seed" in items:
            raise ConfigError(f"[{section}] seed: the one seed of a run is [run] seed (or --seed)")
        if section == "cluster" and "depth" in items:
            raise ConfigError("[cluster] depth: the tree has one level per [memory] rs value")
        kwargs[section] = fileio.read_section(cls, items, f"[{section}]", ConfigError)

    if seed is not None:
        kwargs["seed"] = seed
    if out is not None:
        kwargs["out"] = out
    return RunConfig(**kwargs)
