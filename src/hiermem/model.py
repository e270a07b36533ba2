"""Decoder-only anchor transformer with attachable memory blocks.

The anchor follows the usual pre-norm SwiGLU recipe: RMS norms (gain
only, no bias anywhere), per-head q/k norms, rotary positions on the
self-attention path, and a tied or separate output head. Width ``dim``
and the attention width heads*head_dim are decoupled.

Memory blocks fetched from a bank attach as additive deltas:

    ffn       extra SwiGLU branch  silu(x M1) * (x M2) @ M3   added to FFN out
    lora_qk   low-rank updates to the q and k projections
    lora_ov   low-rank updates to the v projection and attention output
    lora_ffn  low-rank updates to all three FFN matrices
    kv        r learned key/value head vectors cross-attended by the
              (normed, un-rotated) queries, added to self-attention output

Every attachment's output-side weights start at zero, so a freshly
initialized memory leaves logits bit-identical — attaching is graceful.
Memory weights are per-sequence (each sequence in a batch may carry a
different block), hence the batched (B, ., .) matmuls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import fileio
from . import numcore as nc
from .membank import LORA_ALPHA, MemoryConfig, _trunc_normal, level_slots, layer_subset

MODEL_MAGIC = "HMMODEL"


class ModelError(RuntimeError):
    pass


@dataclass(frozen=True)
class AnchorConfig:
    num_layers: int = 4
    dim: int = 128
    num_heads: int = 4
    head_dim: int = 32
    ffn_dim: int = 512
    vocab_size: int = 273
    tied_head: bool = True
    rope_base: float = 100_000.0
    context_length: int = 2048
    norm_eps: float = 1e-5

    def __post_init__(self):
        if self.head_dim % 2:
            raise ValueError(f"head_dim must be even for rotary positions, got {self.head_dim}")
        for f in ("num_layers", "dim", "num_heads", "head_dim", "ffn_dim", "vocab_size", "context_length"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be positive, got {getattr(self, f)}")

    @property
    def attn_width(self) -> int:
        return self.num_heads * self.head_dim


def count_params(cfg: AnchorConfig) -> int:
    """Closed-form anchor parameter count (must equal the enumerated sum)."""
    H = cfg.attn_width
    per_layer = 4 * cfg.dim * H + 2 * H + 3 * cfg.dim * cfg.ffn_dim + 2 * cfg.dim
    emb = cfg.vocab_size * cfg.dim * (1 if cfg.tied_head else 2)
    return emb + cfg.num_layers * per_layer + cfg.dim


class TransformerModel:
    def __init__(self, cfg: AnchorConfig, params: dict[str, nc.Tensor], dtype=np.float32):
        self.cfg = cfg
        self.params = params
        self.dtype = np.dtype(dtype)

    def named_params(self) -> list[tuple[str, nc.Tensor]]:
        return list(self.params.items())

    def num_params(self) -> int:
        return sum(int(t.data.size) for t in self.params.values())

    def set_trainable(self, trainable: bool) -> None:
        for t in self.params.values():
            t.requires_grad = trainable


def init_model(cfg: AnchorConfig, seed: int = 0, dtype=np.float32) -> TransformerModel:
    rng = np.random.default_rng([seed, 0x40DE1])
    H = cfg.attn_width
    dt = np.dtype(dtype)
    p: dict[str, nc.Tensor] = {}

    def w(shape):
        return nc.Tensor(_trunc_normal(rng, shape).astype(dt), requires_grad=True)

    def gain(n):
        return nc.Tensor(np.ones(n, dtype=dt), requires_grad=True)

    p["tok_embeddings.weight"] = w((cfg.vocab_size, cfg.dim))
    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        p[pre + "attn_norm.gain"] = gain(cfg.dim)
        p[pre + "wq"] = w((cfg.dim, H))
        p[pre + "wk"] = w((cfg.dim, H))
        p[pre + "wv"] = w((cfg.dim, H))
        p[pre + "q_norm.gain"] = gain(H)
        p[pre + "k_norm.gain"] = gain(H)
        p[pre + "wo"] = w((H, cfg.dim))
        p[pre + "ffn_norm.gain"] = gain(cfg.dim)
        p[pre + "w1"] = w((cfg.dim, cfg.ffn_dim))
        p[pre + "w2"] = w((cfg.dim, cfg.ffn_dim))
        p[pre + "w3"] = w((cfg.ffn_dim, cfg.dim))
    p["final_norm.gain"] = gain(cfg.dim)
    if not cfg.tied_head:
        p["head.weight"] = w((cfg.vocab_size, cfg.dim))
    return TransformerModel(cfg, p, dtype=dt)


class AttachedMemories:
    """Per-sequence memory weights organized for the forward pass.

    Built from one (B, s_l) tensor per level; splitting/reshaping happens
    through tape ops so gradients flow back to those row tensors, which
    the trainer then scatters into bank blocks.
    """

    def __init__(self, mem_cfg: MemoryConfig, anchor: AnchorConfig, level_rows: list[nc.Tensor]):
        if len(level_rows) != mem_cfg.depth:
            raise ModelError(f"expected {mem_cfg.depth} level tensors, got {len(level_rows)}")
        self.cfg = mem_cfg
        self.level_rows = level_rows
        self.scales = [LORA_ALPHA / r if r else 0.0 for r in mem_cfg.rs]
        layers = layer_subset(mem_cfg.placement, anchor.num_layers)
        self._by_layer: dict[int, list[dict[str, nc.Tensor]]] = {li: [] for li in layers}
        for lv, rows in enumerate(level_rows):
            slots = level_slots(
                mem_cfg.mem_type, mem_cfg.rs[lv], anchor.dim, anchor.num_heads,
                anchor.head_dim, anchor.ffn_dim, layers,
            )
            total = sum(s.size for s in slots)
            if rows.data.ndim != 2 or rows.data.shape[1] != total:
                raise ModelError(
                    f"level {lv + 1} rows shaped {rows.data.shape}, layout needs (B, {total})"
                )
            B = rows.data.shape[0]
            pieces = nc.split(rows, [s.size for s in slots], axis=1)
            per_layer: dict[int, dict[str, nc.Tensor]] = {li: {} for li in layers}
            for slot, piece in zip(slots, pieces):
                per_layer[slot.layer][slot.name] = nc.reshape(piece, (B,) + slot.shape)
            for li in layers:
                self._by_layer[li].append(per_layer[li])

    def at_layer(self, layer_1based: int) -> list[dict[str, nc.Tensor]]:
        return self._by_layer.get(layer_1based, [])


def causal_mask(S: int, dtype=np.float32) -> np.ndarray:
    # built per call: a cache keyed by length would keep one S x S mask
    # for every length a caller ever used
    m = np.where(np.tril(np.ones((S, S), dtype=bool)), 0.0, nc.NEG_INF).astype(dtype)
    return m.reshape(1, 1, S, S)


def forward(
    model: TransformerModel,
    tokens: np.ndarray,
    doc_mask: np.ndarray | None = None,
    mems: AttachedMemories | None = None,
    positions: np.ndarray | None = None,
) -> nc.Tensor:
    """Logits (B, S, V) for a batch of token id sequences (B, S)."""
    cfg = model.cfg
    p = model.params
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ModelError(f"tokens must be (B, S), got {tokens.shape}")
    B, S = tokens.shape
    if S > cfg.context_length:
        raise ModelError(f"sequence length {S} exceeds context length {cfg.context_length}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab_size):
        raise ModelError(f"token id outside [0, {cfg.vocab_size})")
    heads, dh = cfg.num_heads, cfg.head_dim
    mask = doc_mask if doc_mask is not None else causal_mask(S, model.dtype)
    pos = positions if positions is not None else np.arange(S)

    x = nc.embedding(p["tok_embeddings.weight"], tokens)
    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        layer_mems = mems.at_layer(i + 1) if mems is not None else []

        h = nc.rms_norm(x, p[pre + "attn_norm.gain"], cfg.norm_eps)
        q = nc.matmul(h, p[pre + "wq"])
        k = nc.matmul(h, p[pre + "wk"])
        v = nc.matmul(h, p[pre + "wv"])
        for lv, sl in enumerate(layer_mems):
            sc = mems.scales[lv]
            if "qa" in sl:
                q = nc.add(q, nc.scale(nc.matmul(nc.matmul(h, sl["qa"]), sl["qb"]), sc))
                k = nc.add(k, nc.scale(nc.matmul(nc.matmul(h, sl["ka"]), sl["kb"]), sc))
            if "va" in sl:
                v = nc.add(v, nc.scale(nc.matmul(nc.matmul(h, sl["va"]), sl["vb"]), sc))

        q4 = nc.rms_norm(nc.reshape(q, (B, S, heads, dh)), nc.reshape(p[pre + "q_norm.gain"], (heads, dh)), cfg.norm_eps)
        k4 = nc.rms_norm(nc.reshape(k, (B, S, heads, dh)), nc.reshape(p[pre + "k_norm.gain"], (heads, dh)), cfg.norm_eps)
        qh = nc.transpose(q4, (0, 2, 1, 3))          # (B, h, S, dh)
        kh = nc.transpose(k4, (0, 2, 1, 3))
        vh = nc.transpose(nc.reshape(v, (B, S, heads, dh)), (0, 2, 1, 3))
        qr = nc.rope(qh, pos, cfg.rope_base)
        kr = nc.rope(kh, pos, cfg.rope_base)
        att = nc.attention(qr, kr, vh, mask)
        for lv, sl in enumerate(layer_mems):
            if "mk" in sl:
                r = mems.cfg.rs[lv]
                if r == 0:
                    continue  # attention over zero learned keys is undefined
                mk = nc.transpose(nc.reshape(sl["mk"], (B, r, heads, dh)), (0, 2, 1, 3))
                mv = nc.transpose(nc.reshape(sl["mv"], (B, r, heads, dh)), (0, 2, 1, 3))
                # learned keys carry no positional encoding and no causal
                # mask; queries are the normed, un-rotated ones
                att = nc.add(att, nc.attention(qh, mk, mv, None))
        am = nc.reshape(nc.transpose(att, (0, 2, 1, 3)), (B, S, heads * dh))
        out = nc.matmul(am, p[pre + "wo"])
        for lv, sl in enumerate(layer_mems):
            if "oa" in sl:
                out = nc.add(out, nc.scale(nc.matmul(nc.matmul(am, sl["oa"]), sl["ob"]), mems.scales[lv]))
        x = nc.add(x, out)

        h2 = nc.rms_norm(x, p[pre + "ffn_norm.gain"], cfg.norm_eps)
        pre_g = nc.matmul(h2, p[pre + "w1"])
        pre_u = nc.matmul(h2, p[pre + "w2"])
        for lv, sl in enumerate(layer_mems):
            sc = mems.scales[lv]
            if "f1a" in sl:
                pre_g = nc.add(pre_g, nc.scale(nc.matmul(nc.matmul(h2, sl["f1a"]), sl["f1b"]), sc))
                pre_u = nc.add(pre_u, nc.scale(nc.matmul(nc.matmul(h2, sl["f2a"]), sl["f2b"]), sc))
        inner = nc.mul(nc.silu(pre_g), pre_u)
        down = nc.matmul(inner, p[pre + "w3"])
        for lv, sl in enumerate(layer_mems):
            if "f3a" in sl:
                down = nc.add(down, nc.scale(nc.matmul(nc.matmul(inner, sl["f3a"]), sl["f3b"]), mems.scales[lv]))
            if "m1" in sl:
                mg = nc.silu(nc.matmul(h2, sl["m1"]))
                mu = nc.matmul(h2, sl["m2"])
                down = nc.add(down, nc.matmul(nc.mul(mg, mu), sl["m3"]))
        x = nc.add(x, down)

    xf = nc.rms_norm(x, p["final_norm.gain"], cfg.norm_eps)
    head = p["tok_embeddings.weight"] if cfg.tied_head else p["head.weight"]
    return nc.matmul(xf, head, transpose_b=True)


def save_model(model: TransformerModel, path, extra_meta: dict | None = None) -> None:
    meta = {"config": asdict(model.cfg), "dtype": model.dtype.str}
    if extra_meta:
        meta.update(extra_meta)
    arrays = {name: t.data for name, t in model.params.items()}
    fileio.write_artifact(path, MODEL_MAGIC, meta, arrays)


def load_model(path) -> tuple[TransformerModel, dict]:
    _, meta, arrays = fileio.read_artifact(path, expect_magic=MODEL_MAGIC)
    cfg = AnchorConfig(**{**meta["config"], "rope_base": float(meta["config"]["rope_base"])})
    dtype = np.dtype(meta["dtype"])
    params = {name: nc.Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    return TransformerModel(cfg, params, dtype=dtype), meta
