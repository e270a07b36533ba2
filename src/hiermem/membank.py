"""Hierarchical memory bank: storage, accounting, fetch, and masking.

One memory block exists per cluster tree node. A block at level l is a
flat float32 vector of s_l parameters whose layout is a fixed sequence of
per-layer slots (weight matrices for the chosen memory type). ``fetch``
takes a batch of 0-based leaf ids and gathers, per level, one row per
sequence: the block of the leaf's ancestor at that level. A single
"generic" block of size sum(s_l) rides along for out-of-distribution use
and is trained on a sampled fraction of sequences; ``fetch`` serves it to
the rows marked generic and, per ``masked_policy``, to rows whose path
enters a masked subtree.

Block sizes per memory type, with r the width multiplier, d the model
width, H = heads * head_dim, d_f the FFN width, and l the number of
layers the memory is placed on:

    ffn        3 * r * l * d
    lora_qk    2 * r * l * (d + H)
    lora_ov    2 * r * l * (d + H)
    lora_ffn   3 * r * l * (d + d_f)
    kv         2 * r * l * H

The bank holds k^l blocks at level l; total bank size is sum_l s_l * k^l
and a fetch touches sum_l s_l parameters regardless of which path is hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field

import numpy as np

from . import cluster as cl
from . import fileio

BANK_MAGIC = "HMBANK"

MEMORY_TYPES = ("ffn", "lora_qk", "lora_ov", "lora_ffn", "kv")
PLACEMENTS = ("uniform", "early", "mid", "late")

# LoRa-style attachments scale their delta by alpha / r.
LORA_ALPHA = 2.0


class BankError(RuntimeError):
    pass


@dataclass(frozen=True)
class MemoryConfig:
    mem_type: str = "ffn"
    rs: tuple[int, ...] = (16, 16)     # width multiplier per level, coarse to fine
    placement: str = "uniform"
    masked_policy: str = "generic"     # what a blocked fetch substitutes: generic | zero

    def __post_init__(self):
        if self.mem_type not in MEMORY_TYPES:
            raise ValueError(f"unknown memory type {self.mem_type!r}, expected one of {MEMORY_TYPES}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}, expected one of {PLACEMENTS}")
        # r_l = 0 marks a level holding no memories, e.g. single-level setups
        if not self.rs or any(r < 0 for r in self.rs):
            raise ValueError(f"width multipliers must be >= 0 per level, got {self.rs}")
        if self.masked_policy not in ("generic", "zero"):
            raise ValueError(f"masked_policy must be 'generic' or 'zero', got {self.masked_policy!r}")

    @property
    def depth(self) -> int:
        return len(self.rs)

    @classmethod
    def from_meta(cls, meta: dict) -> MemoryConfig:
        """The config an artifact recorded under ``meta["config"]``."""
        c = meta["config"]
        return cls(mem_type=c["mem_type"], rs=tuple(c["rs"]), placement=c["placement"],
                   masked_policy=c.get("masked_policy", "generic"))


def layer_subset(placement: str, num_layers: int) -> list[int]:
    """1-based layers a non-uniform placement covers.

    The subset size scales with depth as ceil(num_layers * 10 / 35): early
    takes the first chunk, late the last, mid a centered chunk starting at
    floor((num_layers - m) / 2) + 1.
    """
    if placement == "uniform":
        return list(range(1, num_layers + 1))
    m = min(num_layers, math.ceil(num_layers * 10 / 35))
    if placement == "early":
        return list(range(1, m + 1))
    if placement == "late":
        return list(range(num_layers - m + 1, num_layers + 1))
    if placement == "mid":
        start = (num_layers - m) // 2 + 1
        return list(range(start, start + m))
    raise ValueError(f"unknown placement {placement!r}")


def block_size(mem_type: str, r: int, dim: int, heads: int, head_dim: int, ffn_dim: int, placed_layers: int) -> int:
    """Closed-form parameter count of one level's block."""
    H = heads * head_dim
    if mem_type == "ffn":
        return 3 * r * placed_layers * dim
    if mem_type == "lora_qk":
        return 2 * r * placed_layers * (dim + H)
    if mem_type == "lora_ov":
        return 2 * r * placed_layers * (dim + H)
    if mem_type == "lora_ffn":
        return 3 * r * placed_layers * (dim + ffn_dim)
    if mem_type == "kv":
        return 2 * r * placed_layers * H
    raise ValueError(f"unknown memory type {mem_type!r}")


@dataclass(frozen=True)
class Slot:
    layer: int          # 1-based layer the slot attaches to
    name: str           # role within the layer, e.g. "m1", "qa"
    shape: tuple[int, ...]
    init: str           # "tn" | "zero" | "kaiming"

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def level_slots(mem_type: str, r: int, dim: int, heads: int, head_dim: int, ffn_dim: int, layers: list[int]) -> list[Slot]:
    """Flat slot layout of one block; concatenation order is the layout."""
    H = heads * head_dim
    out: list[Slot] = []
    for li in layers:
        if mem_type == "ffn":
            out += [
                Slot(li, "m1", (dim, r), "tn"),
                Slot(li, "m2", (dim, r), "tn"),
                Slot(li, "m3", (r, dim), "zero"),
            ]
        elif mem_type == "lora_qk":
            out += [
                Slot(li, "qa", (dim, r), "kaiming"),
                Slot(li, "qb", (r, H), "zero"),
                Slot(li, "ka", (dim, r), "kaiming"),
                Slot(li, "kb", (r, H), "zero"),
            ]
        elif mem_type == "lora_ov":
            out += [
                Slot(li, "va", (dim, r), "kaiming"),
                Slot(li, "vb", (r, H), "zero"),
                Slot(li, "oa", (H, r), "kaiming"),
                Slot(li, "ob", (r, dim), "zero"),
            ]
        elif mem_type == "lora_ffn":
            out += [
                Slot(li, "f1a", (dim, r), "kaiming"),
                Slot(li, "f1b", (r, ffn_dim), "zero"),
                Slot(li, "f2a", (dim, r), "kaiming"),
                Slot(li, "f2b", (r, ffn_dim), "zero"),
                Slot(li, "f3a", (ffn_dim, r), "kaiming"),
                Slot(li, "f3b", (r, dim), "zero"),
            ]
        elif mem_type == "kv":
            out += [
                Slot(li, "mk", (r, H), "tn"),
                Slot(li, "mv", (r, H), "zero"),
            ]
        else:
            raise ValueError(f"unknown memory type {mem_type!r}")
    return out


def bank_accounting(cfg: MemoryConfig, dim: int, heads: int, head_dim: int, ffn_dim: int, num_layers: int, k: int) -> dict:
    """Fetch/bank parameter totals plus the per-level block sizes.

    c0 is the block size at r=1 (the granularity the width multipliers
    scale), identical across levels.
    """
    placed = len(layer_subset(cfg.placement, num_layers))
    sizes = [block_size(cfg.mem_type, r, dim, heads, head_dim, ffn_dim, placed) for r in cfg.rs]
    c0 = block_size(cfg.mem_type, 1, dim, heads, head_dim, ffn_dim, placed)
    fetch = int(sum(sizes))
    bank = int(sum(s * k ** (l + 1) for l, s in enumerate(sizes)))
    return {
        "level_sizes": sizes,
        "fetch_params": fetch,
        "bank_params": bank,
        "generic_params": fetch,
        "c0": c0,
        "placed_layers": placed,
    }


@dataclass
class MemoryBank:
    cfg: MemoryConfig
    k: int
    dims: dict                     # dim, heads, head_dim, ffn_dim, num_layers
    levels: list[np.ndarray]       # levels[l-1]: (k^l, s_l) float32
    generic: list[np.ndarray]      # generic[l-1]: (s_l,) float32
    meta: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return self.cfg.depth

    def level_size(self, level: int) -> int:
        return self.levels[level - 1].shape[1]


class BlockMask:
    """A set of masked subtree roots, closed over descendants.

    Masking node (l, i_1..i_l) masks its whole subtree: any path whose
    prefix matches a masked root is treated as blocked at fetch time.
    """

    def __init__(self, roots=()):
        roots = [tuple(int(i) for i in r) for r in roots]
        for r in roots:
            if not r:
                raise BankError("cannot mask the tree root (empty path)")
        self.roots = frozenset(roots)

    def blocked(self, ids, level: int, k: int) -> np.ndarray:
        """Whether each 0-based block id at ``level`` lies in a masked subtree."""
        ids = np.asarray(ids, dtype=np.int64)
        out = np.zeros(ids.shape, dtype=bool)
        for r in self.roots:
            # out-of-range components would alias other nodes' flat ids
            if not all(1 <= i <= k for i in r):
                raise BankError(f"mask root {r} has a component outside 1..{k}")
            if len(r) <= level:
                out |= ids // k ** (level - len(r)) == cl.flats_of_paths(r, k)
        return out

    def __bool__(self):
        return bool(self.roots)


@dataclass
class FetchedMemory:
    """Per-level rows gathered for a batch of leaves (copies, not views)."""

    levels: list[np.ndarray]            # levels[l-1]: (B, s_l) float32
    blocks: list[np.ndarray]            # blocks[l-1]: (B,) int64 block id, -1 where generic/zero


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until within 2 standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    for _ in range(64):
        bad = np.abs(out) > 2 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    return np.clip(out, -2 * std, 2 * std)


def init_bank(cfg: MemoryConfig, *, dim: int, heads: int, head_dim: int, ffn_dim: int, num_layers: int, k: int, seed: int = 0) -> MemoryBank:
    """Allocate and gracefully initialize every block.

    Graceful means a freshly initialized memory leaves the model's output
    exactly unchanged: down/out projections ("zero" slots) start at zero
    while input-side slots get small random values, so each attachment's
    delta is identically zero at step 0.
    """
    if not any(cfg.rs):
        raise BankError(f"bank with multipliers {cfg.rs} would hold no parameters")
    layers = layer_subset(cfg.placement, num_layers)
    rng = np.random.default_rng([seed, 0xB4_4E])
    levels = []
    generic = []
    for l, r in enumerate(cfg.rs, start=1):
        slots = level_slots(cfg.mem_type, r, dim, heads, head_dim, ffn_dim, layers)
        s_l = sum(s.size for s in slots)
        n_blocks = k ** l
        arr = np.empty((n_blocks, s_l), dtype=np.float32)
        gen = np.empty(s_l, dtype=np.float32)
        off = 0
        for s in slots:
            block_cols = slice(off, off + s.size)
            if s.init == "zero":
                arr[:, block_cols] = 0.0
                gen[block_cols] = 0.0
            elif s.init == "tn":
                arr[:, block_cols] = _trunc_normal(rng, (n_blocks, s.size)).astype(np.float32)
                gen[block_cols] = _trunc_normal(rng, (s.size,)).astype(np.float32)
            elif s.init == "kaiming":
                bound = 1.0 / math.sqrt(s.shape[0])
                arr[:, block_cols] = rng.uniform(-bound, bound, (n_blocks, s.size)).astype(np.float32)
                gen[block_cols] = rng.uniform(-bound, bound, s.size).astype(np.float32)
            off += s.size
        levels.append(arr)
        generic.append(gen)
    dims = {"dim": dim, "heads": heads, "head_dim": head_dim, "ffn_dim": ffn_dim, "num_layers": num_layers}
    return MemoryBank(cfg=cfg, k=k, dims=dims, levels=levels, generic=generic, meta={"seed": seed})


def fetch(bank: MemoryBank, leaf_flats, generic_rows=None, mask: BlockMask | None = None) -> FetchedMemory:
    """Root-to-leaf blocks for each 0-based leaf id in ``leaf_flats``.

    Rows flagged in ``generic_rows`` get the generic block at every level.
    Other rows whose path enters a subtree of ``mask`` get the generic
    block, or zeros under ``masked_policy = "zero"``, from that level down.
    """
    leaf_flats = np.asarray(leaf_flats, dtype=np.int64)
    n_leaves = bank.k ** bank.depth
    if leaf_flats.ndim != 1:
        raise BankError(f"fetch takes a 1-D batch of leaf ids, got shape {leaf_flats.shape}")
    if leaf_flats.size and (leaf_flats.min() < 0 or leaf_flats.max() >= n_leaves):
        raise BankError(f"leaf id outside [0, {n_leaves}) for k={bank.k}, depth {bank.depth}")
    generic = np.zeros(leaf_flats.shape, dtype=bool) if generic_rows is None else np.asarray(generic_rows, bool)
    levels, blocks = [], []
    for l in range(1, bank.depth + 1):
        ids = leaf_flats // bank.k ** (bank.depth - l)
        rows = bank.levels[l - 1][ids]
        masked = mask.blocked(ids, l, bank.k) & ~generic if mask else np.zeros_like(generic)
        rows[masked] = 0.0 if bank.cfg.masked_policy == "zero" else bank.generic[l - 1]
        rows[generic] = bank.generic[l - 1]
        levels.append(rows)
        blocks.append(np.where(generic | masked, -1, ids))
    return FetchedMemory(levels=levels, blocks=blocks)


def save_bank(bank: MemoryBank, path, extra_meta: dict | None = None) -> None:
    meta = {
        "config": asdict(bank.cfg),
        "k": bank.k,
        "dims": bank.dims,
        "bank_meta": bank.meta,
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = {}
    for l in range(1, bank.depth + 1):
        arrays[f"level{l}"] = bank.levels[l - 1]
    for l in range(1, bank.depth + 1):
        arrays[f"generic.l{l}"] = bank.generic[l - 1]
    fileio.write_artifact(path, BANK_MAGIC, meta, arrays)


def load_bank(path) -> MemoryBank:
    _, meta, arrays = fileio.read_artifact(path, expect_magic=BANK_MAGIC)
    cfg = MemoryConfig.from_meta(meta)
    depth = cfg.depth
    return MemoryBank(
        cfg=cfg,
        k=meta["k"],
        dims=meta["dims"],
        levels=[arrays[f"level{l}"] for l in range(1, depth + 1)],
        generic=[arrays[f"generic.l{l}"] for l in range(1, depth + 1)],
        meta=meta.get("bank_meta", {}),
    )
