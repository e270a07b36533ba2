"""Hierarchical memory bank: storage, accounting, fetch, and masking.

One memory block exists per cluster tree node. A block at level l is a
flat float32 vector of s_l parameters whose layout is a fixed sequence of
per-layer slots (weight matrices for the chosen memory type).
``block_layout`` alone owns the slot order and the placement: the placed
layers in order, each with the type's slots. ``init_bank``,
``bank_accounting`` and ``model.AttachedMemories`` all read it. ``fetch``
takes a batch of 0-based leaf ids and gathers, per level, one row per
sequence: the block of the leaf's ancestor at that level. A single
"generic" block of size sum(s_l) rides along for out-of-distribution use
and is trained on a sampled fraction of sequences. Its level-l part is
one more row of level l, row k^l, so a level is one array and ``fetch``
one gather: the rows marked generic and, under a ``BlockMask`` whose
policy is "generic", rows whose path enters a masked subtree fetch
block id k^l.

The three LoRA types are one rule: at each site (projection) that
``LORA_SITES`` names for the type, a layer holds a low-rank pair, an
input-side (in, r) matrix and an output-side (r, out) one.

Block sizes per memory type, with r the width multiplier, d the model
width, H = heads * head_dim, d_f the FFN width, and l the number of
layers the memory is placed on:

    ffn        3 * r * l * d
    lora_qk    2 * r * l * (d + H)
    lora_ov    2 * r * l * (d + H)
    lora_ffn   3 * r * l * (d + d_f)
    kv         2 * r * l * H

A level of width r = 0 has no slots: its blocks and its generic block
are empty, a fetch gathers (B, 0) rows for it, and nothing attaches or
trains there.

The bank holds k^l blocks at level l, plus the generic row; total bank
size is sum_l s_l * k^l without the generic block, and a fetch touches
sum_l s_l parameters regardless of which path is hit.

A bank only means something next to the tree and the anchor it was laid
out for: its leaf ids are the tree's, packed with its k and depth, and its
slots are placed by the anchor's sizes. ``check_fits`` alone owns that
rule, for the CLI, ``train.train_run`` and ``evals.fact_recall`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field

import numpy as np

from . import cluster as cl
from . import fileio

BANK_MAGIC = "HMBANK"

# the projections, or sites, each LoRA type adapts; a site's pair is
# <site>a (in, r), kaiming init, then <site>b (r, out), zero init
LORA_SITES = {"lora_qk": ("q", "k"), "lora_ov": ("v", "o"), "lora_ffn": ("f1", "f2", "f3")}
MEMORY_TYPES = ("ffn", *LORA_SITES, "kv")
PLACEMENTS = ("uniform", "early", "mid", "late")
MASKED_POLICIES = ("generic", "zero")  # what a blocked fetch substitutes

# LoRa-style attachments scale their delta by alpha / r.
LORA_ALPHA = 2.0


class BankError(RuntimeError):
    pass


@dataclass(frozen=True)
class MemoryConfig:
    mem_type: str = "ffn"
    rs: tuple[int, ...] = (16, 16)     # width multiplier per level, coarse to fine; one per tree level
    placement: str = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "rs", tuple(self.rs))  # a stored config holds a JSON list
        if self.mem_type not in MEMORY_TYPES:
            raise ValueError(f"unknown memory type {self.mem_type!r}, expected one of {MEMORY_TYPES}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}, expected one of {PLACEMENTS}")
        # r_l = 0 marks a level with no slots, so no memories, e.g. single-level setups
        if not self.rs or any(r < 0 for r in self.rs):
            raise ValueError(f"width multipliers must be >= 0 per level, got {self.rs}")

    @property
    def depth(self) -> int:
        return len(self.rs)


@dataclass(frozen=True)
class Slot:
    layer: int          # 1-based layer the slot attaches to
    name: str           # role within the layer, e.g. "m1", "qa"
    shape: tuple[int, ...]
    init: str           # "tn" | "zero" | "kaiming"

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def _placed_layers(placement: str, num_layers: int) -> range:
    """1-based layers a placement covers: a run of m layers from ``start``.

    Uniform takes every layer. The others take m = ceil(num_layers * 10 / 35)
    layers: early the first ones, late the last ones, mid a centered run
    starting at floor((num_layers - m) / 2) + 1.
    """
    m = num_layers if placement == "uniform" else math.ceil(num_layers * 10 / 35)
    start = {"mid": (num_layers - m) // 2 + 1, "late": num_layers - m + 1}.get(placement, 1)
    return range(start, start + m)


def block_layout(cfg: MemoryConfig, dim: int, heads: int, head_dim: int, ffn_dim: int, num_layers: int) -> list[list[Slot]]:
    """Each level's slots in block order; their concatenation is the block's flat layout.

    A level's block holds, for each placed layer in order, the memory
    type's slots at the level's width; a width-0 level has none.
    """
    H = heads * head_dim
    # each LoRA site's (input, output) width
    widths = {"q": (dim, H), "k": (dim, H), "v": (dim, H), "o": (H, dim),
              "f1": (dim, ffn_dim), "f2": (dim, ffn_dim), "f3": (ffn_dim, dim)}

    def layer_slots(li: int, r: int) -> list[Slot]:
        if cfg.mem_type == "ffn":
            return [
                Slot(li, "m1", (dim, r), "tn"),
                Slot(li, "m2", (dim, r), "tn"),
                Slot(li, "m3", (r, dim), "zero"),
            ]
        if cfg.mem_type == "kv":
            return [
                Slot(li, "mk", (r, H), "tn"),
                Slot(li, "mv", (r, H), "zero"),
            ]
        out = []
        for site in LORA_SITES[cfg.mem_type]:
            d_in, d_out = widths[site]
            out += [Slot(li, site + "a", (d_in, r), "kaiming"), Slot(li, site + "b", (r, d_out), "zero")]
        return out

    layers = _placed_layers(cfg.placement, num_layers)
    return [[s for li in layers for s in layer_slots(li, r)] if r else [] for r in cfg.rs]


def bank_accounting(cfg: MemoryConfig, dim: int, heads: int, head_dim: int, ffn_dim: int, num_layers: int, k: int) -> dict:
    """Fetch/bank parameter totals plus the per-level block sizes."""
    layout = block_layout(cfg, dim, heads, head_dim, ffn_dim, num_layers)
    sizes = [sum(s.size for s in slots) for slots in layout]
    fetch = int(sum(sizes))
    bank = int(sum(s * k ** (l + 1) for l, s in enumerate(sizes)))
    return {
        "level_sizes": sizes,
        "fetch_params": fetch,
        "bank_params": bank,
        "generic_params": fetch,
    }


@dataclass
class MemoryBank:
    cfg: MemoryConfig
    k: int
    dims: dict                     # dim, heads, head_dim, ffn_dim, num_layers
    levels: list[np.ndarray]       # levels[l-1]: (k^l + 1, s_l) float32, the generic block last
    meta: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return self.cfg.depth

    @property
    def generic(self) -> list[np.ndarray]:
        """The generic block per level: views of each level's last row."""
        return [lvl[-1] for lvl in self.levels]


class BlockMask:
    """A set of masked subtree roots, closed over descendants, and a policy.

    Masking node (l, i_1..i_l) masks its whole subtree: any path whose
    prefix matches a masked root is treated as blocked at fetch time, and
    gets the generic block or zeros there as ``policy`` says.
    """

    def __init__(self, roots, policy: str):
        roots = [tuple(int(i) for i in r) for r in roots]
        for r in roots:
            if not r:
                raise BankError("cannot mask the tree root (empty path)")
        if policy not in MASKED_POLICIES:
            raise BankError(f"masked policy must be one of {MASKED_POLICIES}, got {policy!r}")
        self.roots = frozenset(roots)
        self.policy = policy

    def blocked(self, ids, level: int, k: int) -> np.ndarray:
        """Whether each 0-based block id at ``level`` lies in a masked subtree.

        The roots must be paths of a k-ary tree; ``fetch`` checks that.
        """
        ids = np.asarray(ids, dtype=np.int64)
        out = np.zeros(ids.shape, dtype=bool)
        for r in self.roots:
            if len(r) <= level:
                out |= ids // k ** (level - len(r)) == cl.flats_of_paths(r, k)
        return out

    def __bool__(self):
        return bool(self.roots)


@dataclass
class FetchedMemory:
    """Per-level rows gathered for a batch of leaves (copies, not views)."""

    levels: list[np.ndarray]            # levels[l-1]: (B, s_l) float32
    blocks: list[np.ndarray]            # blocks[l-1]: (B,) int64 row of levels[l-1], k^l where generic, -1 where zero


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
    rng = np.random.default_rng([seed, 0xB4_4E])
    levels = []
    for l, slots in enumerate(block_layout(cfg, dim, heads, head_dim, ffn_dim, num_layers), start=1):
        n_blocks = k ** l
        arr = np.zeros((n_blocks + 1, sum(s.size for s in slots)), dtype=np.float32)  # "zero" slots stay so
        off = 0
        for s in slots:
            # each slot draws its blocks first, then the generic row
            blocks, gen = arr[:n_blocks, off : off + s.size], arr[n_blocks, off : off + s.size]
            if s.init == "tn":
                blocks[:] = _trunc_normal(rng, blocks.shape)
                gen[:] = _trunc_normal(rng, gen.shape)
            elif s.init == "kaiming":
                bound = 1.0 / math.sqrt(s.shape[0])
                blocks[:] = rng.uniform(-bound, bound, blocks.shape)
                gen[:] = rng.uniform(-bound, bound, gen.shape)
            off += s.size
        levels.append(arr)
    dims = {"dim": dim, "heads": heads, "head_dim": head_dim, "ffn_dim": ffn_dim, "num_layers": num_layers}
    return MemoryBank(cfg=cfg, k=k, dims=dims, levels=levels, meta={"seed": seed})


def check_fits(bank: MemoryBank, dims: dict, tree: cl.ClusterTree | None, error: type[Exception]) -> None:
    """Raise ``error`` unless ``bank`` has the k and depth of ``tree``
    (unchecked when ``tree`` is None) and was laid out for an anchor whose
    ``bank_dims`` are ``dims``."""
    # leaf ids are packed with the tree's k and decoded with the bank's
    if tree is not None and (bank.k, bank.depth) != (tree.k, tree.depth):
        raise error(f"the bank is k={bank.k} depth {bank.depth} but the tree is k={tree.k} depth {tree.depth}")
    # equal block sizes do not make equal slot layouts
    if bank.dims != dims:
        raise error(f"the bank is laid out for anchor {dict(bank.dims)} but the model is {dims}")


def fetch(bank: MemoryBank, leaf_flats, generic_rows=None, mask: BlockMask | None = None) -> FetchedMemory:
    """Root-to-leaf blocks for each 0-based leaf id in ``leaf_flats``.

    Rows flagged in ``generic_rows`` get the generic block at every level.
    Other rows whose path enters a subtree of ``mask`` get the generic
    block, or zeros under the mask's "zero" policy, from that level down.
    A mask root deeper than the bank or with a component outside 1..k is
    a ``BankError``.
    """
    leaf_flats = np.asarray(leaf_flats, dtype=np.int64)
    n_leaves = bank.k ** bank.depth
    if leaf_flats.ndim != 1:
        raise BankError(f"fetch takes a 1-D batch of leaf ids, got shape {leaf_flats.shape}")
    if leaf_flats.size and (leaf_flats.min() < 0 or leaf_flats.max() >= n_leaves):
        raise BankError(f"leaf id outside [0, {n_leaves}) for k={bank.k}, depth {bank.depth}")
    for r in sorted(mask.roots) if mask else []:
        if len(r) > bank.depth:
            raise BankError(f"mask root {r} is deeper than the depth-{bank.depth} bank")
        # out-of-range components would alias other nodes' flat ids
        if not all(1 <= i <= bank.k for i in r):
            raise BankError(f"mask root {r} has a component outside 1..{bank.k}")
    generic = np.zeros(leaf_flats.shape, dtype=bool) if generic_rows is None else np.asarray(generic_rows, bool)
    levels, blocks = [], []
    for l in range(1, bank.depth + 1):
        ids = leaf_flats // bank.k ** (bank.depth - l)
        masked = mask.blocked(ids, l, bank.k) & ~generic if mask else np.zeros_like(generic)
        ids = np.where(generic | masked, bank.k ** l, ids)  # the level's generic row
        if mask and mask.policy == "zero":
            ids[masked] = -1
        rows = bank.levels[l - 1][ids]
        rows[ids < 0] = 0.0
        levels.append(rows)
        blocks.append(ids)
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
    fileio.write_artifact(path, BANK_MAGIC, meta, {f"level{l}": a for l, a in enumerate(bank.levels, 1)})


def load_bank(path) -> MemoryBank:
    _, meta, arrays = fileio.read_artifact(path, expect_magic=BANK_MAGIC)
    cfg = fileio.stored_config(MemoryConfig, meta["config"], path)
    k, dims = meta["k"], meta["dims"]
    if not (type(k) is int and k >= 1):  # type, not isinstance, so a bool is refused
        raise fileio.ArtifactError(f"{path}: stored k {k!r} is not an int >= 1")
    try:
        sizes = bank_accounting(cfg, k=k, **dims)["level_sizes"]
    except (TypeError, ValueError) as e:
        raise fileio.ArtifactError(f"{path}: stored k {k!r} and dims {dims!r} give no bank layout ({e})") from None
    layout = {f"level{l}": (k**l + 1, s) for l, s in enumerate(sizes, 1)}
    fileio.check_layout(path, arrays, layout, np.float32)
    return MemoryBank(cfg=cfg, k=k, dims=dims, levels=[arrays[name] for name in layout],
                      meta=meta.get("bank_meta", {}))
