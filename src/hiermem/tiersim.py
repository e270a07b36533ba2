"""Storage-tier latency model for hierarchical memory fetches.

Each tree level's blocks live on one storage tier (bandwidth + fixed
per-request latency). Loading level l costs fixed + bytes/bandwidth with
bytes = params * bytes_per_param (2 by default, 16-bit storage). A fetch
loads every level; levels load concurrently ("parallel": total is the
slowest level) or back to back ("serial": total is the sum).

Sessions exploit the hierarchy's compositionality: consecutive queries
reload only the levels whose block actually changed, so a repeated query
costs nothing and Zipf-like locality mostly swaps the cheap deep levels.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from . import cluster as cl

MODES = ("parallel", "serial")

DEFAULT_BYTES_PER_PARAM = 2


class TierError(ValueError):
    pass


@dataclass(frozen=True)
class Tier:
    name: str
    bandwidth: float        # bytes per second
    fixed_latency: float    # seconds per request

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise TierError(f"tier {self.name!r}: bandwidth must be positive, got {self.bandwidth}")
        if self.fixed_latency < 0:
            raise TierError(f"tier {self.name!r}: fixed latency must be >= 0, got {self.fixed_latency}")


@dataclass(frozen=True)
class TierPlacement:
    tiers: tuple[Tier, ...]           # tiers[l-1] serves level l
    bytes_per_param: int = DEFAULT_BYTES_PER_PARAM

    def __post_init__(self):
        if not self.tiers:
            raise TierError("placement needs at least one level")
        if self.bytes_per_param < 1:
            raise TierError(f"bytes_per_param must be >= 1, got {self.bytes_per_param}")

    @property
    def depth(self) -> int:
        return len(self.tiers)


def level_latency(params: int, tier: Tier, bytes_per_param: int) -> float:
    """Seconds to load one level's block; an empty level costs nothing."""
    if params <= 0:
        return 0.0
    return tier.fixed_latency + params * bytes_per_param / tier.bandwidth


def load_latency(level_params: list[int], placement: TierPlacement, mode: str = "parallel") -> dict:
    """Latency of one full fetch. Returns per-level seconds and the total."""
    if mode not in MODES:
        raise TierError(f"mode must be one of {MODES}, got {mode!r}")
    if len(level_params) != placement.depth:
        raise TierError(f"{len(level_params)} level sizes for a {placement.depth}-level placement")
    per = [
        level_latency(p, placement.tiers[l], placement.bytes_per_param)
        for l, p in enumerate(level_params)
    ]
    total = max(per, default=0.0) if mode == "parallel" else float(sum(per))
    return {"per_level": per, "total": total, "mode": mode}


def session_latency(
    level_params: list[int],
    placement: TierPlacement,
    queries: list[tuple],
    mode: str = "parallel",
) -> dict:
    """Marginal load cost per query in a session of cluster indices.

    The first query loads every level; after that only levels whose block
    id changed reload. Identical consecutive queries cost zero.
    """
    if mode not in MODES:
        raise TierError(f"mode must be one of {MODES}, got {mode!r}")
    depth = placement.depth
    per_query: list[float] = []
    reloads = [0] * depth
    prev: tuple | None = None
    for q in queries:
        q = tuple(q)
        if len(q) != depth:
            raise TierError(f"query {q} does not have {depth} levels")
        changed = [
            l for l in range(depth)
            if prev is None or q[: l + 1] != prev[: l + 1]
        ]
        costs = [
            level_latency(level_params[l], placement.tiers[l], placement.bytes_per_param)
            for l in changed
        ]
        for l in changed:
            if level_params[l] > 0:
                reloads[l] += 1
        per_query.append((max(costs, default=0.0) if mode == "parallel" else float(sum(costs))))
        prev = q
    return {
        "per_query": per_query,
        "total": float(sum(per_query)),
        "reloads_per_level": reloads,
        "mode": mode,
    }


def sample_zipf_paths(n: int, k: int, depth: int, exponent: float, seed: int = 0) -> list[tuple]:
    """Zipf-distributed leaf visits (shared popularity ranks over leaves)."""
    rng = np.random.default_rng(seed)
    leaves = k ** depth
    ranks = rng.permutation(leaves)
    w = 1.0 / (ranks + 1.0) ** exponent
    w /= w.sum()
    flats = rng.choice(leaves, size=n, p=w)
    return [tuple(int(i) for i in p) for p in cl.paths_of_flats(flats, k, depth)]


def parse_tier_spec(path) -> TierPlacement:
    """Read a placement from a key-value spec file.

    Sections [tier.<name>] define bandwidth/fixed_latency; [placement]
    assigns level<N> = <tier name> and an optional bytes_per_param.
    """
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise TierError(f"cannot read tier spec {path}")
    tiers: dict[str, Tier] = {}
    for sec in cp.sections():
        if sec.startswith("tier."):
            name = sec[len("tier."):]
            try:
                tiers[name] = Tier(
                    name=name,
                    bandwidth=cp.getfloat(sec, "bandwidth"),
                    fixed_latency=cp.getfloat(sec, "fixed_latency"),
                )
            except (configparser.NoOptionError, ValueError) as e:
                raise TierError(f"tier spec {path}: section [{sec}]: {e}")
    if "placement" not in cp:
        raise TierError(f"tier spec {path}: missing [placement] section")
    pl = cp["placement"]
    levels = sorted((key for key in pl if key.startswith("level")), key=lambda s: (len(s), s))
    ordered = []
    for i, key in enumerate(levels, start=1):
        if key != f"level{i}":
            raise TierError(f"tier spec {path}: placement levels must be level1..levelN, found {key!r}")
        tname = pl[key].strip()
        if tname not in tiers:
            raise TierError(f"tier spec {path}: level{i} references unknown tier {tname!r}")
        ordered.append(tiers[tname])
    bpp = pl.getint("bytes_per_param", fallback=DEFAULT_BYTES_PER_PARAM)
    return TierPlacement(tiers=tuple(ordered), bytes_per_param=bpp)


def latency_csv(rows: list[dict], path) -> None:
    """Write session/load reports as a small CSV (deterministic bytes)."""
    from pathlib import Path

    cols = sorted({k for r in rows for k in r})
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_cell(r.get(c, "")) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    if isinstance(v, (list, tuple)):
        return "|".join(_cell(x) for x in v)
    return str(v)
