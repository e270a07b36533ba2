"""Storage-tier latency model for hierarchical memory fetches.

Each tree level's blocks live on one storage tier (bandwidth + fixed
per-request latency). Loading level l costs fixed + bytes/bandwidth with
bytes = params * bytes_per_param, the width of the bank's float32
parameters. A fetch loads every level; levels load concurrently ("parallel": total is the
slowest level) or back to back ("serial": total is the sum).

Sessions exploit the hierarchy's compositionality: consecutive queries
reload only the levels whose block actually changed, so a repeated query
costs nothing and queries that share a subtree swap only the levels below
it. `hiermem simulate` replays the routes a recall report wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio

MODES = ("parallel", "serial")


class TierError(ValueError):
    pass


@dataclass(frozen=True)
class Tier:
    name: str
    bandwidth: float        # bytes per second
    fixed_latency: float    # seconds per request

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise TierError(f"tier {self.name!r}: bandwidth must be positive and finite, got {self.bandwidth}")
        if not (math.isfinite(self.fixed_latency) and self.fixed_latency >= 0):
            raise TierError(f"tier {self.name!r}: fixed latency must be finite and >= 0, got {self.fixed_latency}")


@dataclass(frozen=True)
class TierPlacement:
    tiers: tuple[Tier, ...]           # tiers[l-1] serves level l
    bytes_per_param = np.dtype(np.float32).itemsize  # not a field: banks store float32

    def __post_init__(self):
        if not self.tiers:
            raise TierError("placement needs at least one level")

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


def session_latency(level_params: list[int], placement: TierPlacement, queries: list[tuple]) -> dict:
    """Marginal load cost per query in a session of cluster indices.

    The first query loads every level; after that only levels whose block
    id changed reload, all at once, so a query costs its slowest reload.
    Identical consecutive queries cost zero. ``per_level`` is each level's
    load time summed over its reloads.
    """
    depth = placement.depth
    lat = [
        level_latency(level_params[l], placement.tiers[l], placement.bytes_per_param)
        for l in range(depth)
    ]
    per_query: list[float] = []
    per_level = [0.0] * depth
    prev: tuple | None = None
    for q in queries:
        q = tuple(q)
        if len(q) != depth:
            raise TierError(f"query {q} does not have {depth} levels")
        changed = [
            l for l in range(depth)
            if prev is None or q[: l + 1] != prev[: l + 1]
        ]
        for l in changed:
            per_level[l] += lat[l]
        per_query.append(max((lat[l] for l in changed), default=0.0))
        prev = q
    return {
        "per_query": per_query,
        "total": float(sum(per_query)),
        "per_level": per_level,
    }


def parse_tier_spec(path) -> TierPlacement:
    """Read a placement from a key-value spec file.

    Each section [tier.<name>] is a ``Tier`` of that name, read by
    ``fileio.read_section``: it sets every other field (bandwidth and
    fixed_latency) and no more. [placement] assigns level<N> = <tier
    name>. Any other section or key is an error.
    """
    spec = fileio.read_ini(path, TierError)
    tiers: dict[str, Tier] = {}
    for sec, items in spec.items():
        if sec == "placement":
            continue
        if not sec.startswith("tier."):
            raise TierError(f"tier spec {path}: unknown section [{sec}]; expected [tier.<name>] or [placement]")
        name = sec[len("tier."):]
        tiers[name] = fileio.read_section(Tier, items, f"tier spec {path}: section [{sec}]", TierError, name=name)
    if "placement" not in spec:
        raise TierError(f"tier spec {path}: missing [placement] section")
    pl = spec["placement"]
    levels = sorted((key for key in pl if key.startswith("level")), key=lambda s: (len(s), s))
    unknown = sorted(set(pl) - set(levels))
    if unknown:
        raise TierError(f"tier spec {path}: section [placement] has unknown keys {unknown}")
    ordered = []
    for i, key in enumerate(levels, start=1):
        if key != f"level{i}":
            raise TierError(f"tier spec {path}: placement levels must be level1..levelN, found {key!r}")
        tname = pl[key].strip()
        if tname not in tiers:
            raise TierError(f"tier spec {path}: level{i} references unknown tier {tname!r}")
        ordered.append(tiers[tname])
    return TierPlacement(tiers=tuple(ordered))

