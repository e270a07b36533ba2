"""Decoder-only anchor transformer with attachable memory blocks.

The anchor follows the usual pre-norm SwiGLU recipe: RMS norms (gain
only, no bias anywhere), per-head q/k norms, rotary positions on the
self-attention path, and a tied or separate output head. Width ``dim``
and the attention width heads*head_dim are decoupled.

Memory blocks fetched from a bank attach as additive deltas:

    ffn       extra SwiGLU branch  silu(x M1) * (x M2) @ M3   added to FFN out
    lora_*    low-rank updates to the projections ``membank.LORA_SITES`` names
    kv        r learned key/value head vectors cross-attended by the
              (normed, un-rotated) queries, added to self-attention output

Every attachment's output-side weights start at zero, so a freshly
initialized memory leaves logits bit-identical — attaching is graceful.
Memories are one row per sequence: each level is a (B, s_l) row tensor
for the B sequences of the batch, and ``forward`` refuses memories of
another batch size. Each sequence may carry a different block, hence the
batched (B, ., .) matmuls.

Incremental decode passes a ``KVCache`` to ``forward``: the call's
tokens take positions ``cache.length`` onward, each layer writes their
rotated keys and values into the cache and attends over every cached
position, and the cache's length then advances. Only self-attention keys
are cached; ``kv`` memories' learned keys are attended afresh by each
call's new queries. A cached forward is for decode, which reads the next
token off the last position alone: its last layer writes every position's
keys and values, then runs the queries and all that follows for the last
position only, and it returns (B, 1, V) logits. It is for inference: the
cached keys and values carry no gradient. Batch rows are independent, so
a prompt's prefill may run as row shards on separate threads
(``evals.greedy_decode_batch`` does), each writing its rows of one cache
through ``KVCache.rows`` and reading its rows of the memories through
``AttachedMemories.rows``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, asdict

import numpy as np

from . import fileio
from . import numcore as nc
from .membank import LORA_ALPHA, MemoryConfig, _trunc_normal, block_layout

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
        object.__setattr__(self, "rope_base", float(self.rope_base))
        if self.head_dim % 2:
            raise ValueError(f"head_dim must be even for rotary positions, got {self.head_dim}")
        for f in ("num_layers", "dim", "num_heads", "head_dim", "ffn_dim", "vocab_size", "context_length"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be positive, got {getattr(self, f)}")

    @property
    def attn_width(self) -> int:
        return self.num_heads * self.head_dim

    @property
    def bank_dims(self) -> dict:
        """The sizes a memory bank's layout takes from its anchor, as ``init_bank`` takes them."""
        return {"dim": self.dim, "heads": self.num_heads, "head_dim": self.head_dim,
                "ffn_dim": self.ffn_dim, "num_layers": self.num_layers}


def _anchor_layout(cfg: AnchorConfig) -> dict[str, tuple[int, ...]]:
    """Every anchor parameter's name and shape, in init and file order.

    2-D entries are weights, 1-D entries are RMS-norm gains.
    """
    H = cfg.attn_width
    layout = {"tok_embeddings.weight": (cfg.vocab_size, cfg.dim)}
    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        layout |= {
            pre + "attn_norm.gain": (cfg.dim,),
            pre + "wq": (cfg.dim, H),
            pre + "wk": (cfg.dim, H),
            pre + "wv": (cfg.dim, H),
            pre + "q_norm.gain": (H,),
            pre + "k_norm.gain": (H,),
            pre + "wo": (H, cfg.dim),
            pre + "ffn_norm.gain": (cfg.dim,),
            pre + "w1": (cfg.dim, cfg.ffn_dim),
            pre + "w2": (cfg.dim, cfg.ffn_dim),
            pre + "w3": (cfg.ffn_dim, cfg.dim),
        }
    layout["final_norm.gain"] = (cfg.dim,)
    if not cfg.tied_head:
        layout["head.weight"] = (cfg.vocab_size, cfg.dim)
    return layout


class TransformerModel:
    def __init__(self, cfg: AnchorConfig, params: dict[str, nc.Tensor], dtype=np.float32):
        self.cfg = cfg
        self.params = params
        self.dtype = np.dtype(dtype)


def init_model(cfg: AnchorConfig, seed: int = 0, dtype=np.float32) -> TransformerModel:
    rng = np.random.default_rng([seed, 0x40DE1])
    dt = np.dtype(dtype)
    p = {
        name: nc.Tensor(
            _trunc_normal(rng, shape).astype(dt) if len(shape) == 2 else np.ones(shape, dtype=dt),
            requires_grad=True,
        )
        for name, shape in _anchor_layout(cfg).items()
    }
    return TransformerModel(cfg, p, dtype=dt)


class AttachedMemories:
    """Per-sequence memory weights organized for the forward pass.

    Built from one (B, s_l) tensor per level, one row per sequence and the
    same B, kept as ``batch``, at every level, split into the slots of
    ``membank.block_layout``: a layer holds one dict of slot tensors per
    level with slots there, so a width-0 level or an unplaced layer adds
    none. Splitting/reshaping happens through tape ops so gradients flow
    back to those row tensors, which the trainer then scatters into bank blocks.
    """

    def __init__(self, mem_cfg: MemoryConfig, anchor: AnchorConfig, level_rows: list[nc.Tensor]):
        if len(level_rows) != mem_cfg.depth:
            raise ModelError(f"expected {mem_cfg.depth} level tensors, got {len(level_rows)}")
        self._by_layer: dict[int, list[dict[str, nc.Tensor]]] = {}
        for lv, (rows, slots) in enumerate(zip(level_rows, block_layout(mem_cfg, **anchor.bank_dims))):
            total = sum(s.size for s in slots)
            if rows.data.ndim != 2 or rows.data.shape[1] != total:
                raise ModelError(
                    f"level {lv + 1} rows shaped {rows.data.shape}, layout needs (B, {total})"
                )
            B = rows.data.shape[0]
            if B != len(level_rows[0].data):
                raise ModelError(f"level {lv + 1} has {B} rows but level 1 has {len(level_rows[0].data)}")
            pieces = nc.split(rows, [s.size for s in slots], axis=1)
            per_layer: dict[int, dict[str, nc.Tensor]] = {}
            for slot, piece in zip(slots, pieces):
                per_layer.setdefault(slot.layer, {})[slot.name] = nc.reshape(piece, (B,) + slot.shape)
            for li, sl in per_layer.items():
                self._by_layer.setdefault(li, []).append(sl)
        self.batch = len(level_rows[0].data)

    def at_layer(self, layer_1based: int) -> list[dict[str, nc.Tensor]]:
        return self._by_layer.get(layer_1based, [])

    def rows(self, a: int, b: int) -> AttachedMemories:
        """The memories of batch rows ``[a, b)``, one row per sequence of
        those rows, for inference: views with no gradient."""
        view = copy.copy(self)
        view.batch = len(range(self.batch)[a:b])
        view._by_layer = {
            li: [{name: nc.Tensor(t.data[a:b]) for name, t in sl.items()} for sl in sls]
            for li, sls in self._by_layer.items()
        }
        return view


class KVCache:
    """Rotated self-attention keys and values of the positions run so far.

    Per layer, ``keys`` and ``values`` are preallocated (B, heads,
    capacity, head_dim) arrays; ``forward`` fills positions
    ``[length, length + S)`` and then advances ``length`` by S.
    """

    def __init__(self, cfg: AnchorConfig, batch: int, capacity: int, dtype=np.float32):
        shape = (batch, cfg.num_heads, capacity, cfg.head_dim)
        self.keys = [np.zeros(shape, dtype=dtype) for _ in range(cfg.num_layers)]
        self.values = [np.zeros(shape, dtype=dtype) for _ in range(cfg.num_layers)]
        self.capacity = capacity
        self.length = 0

    def rows(self, a: int, b: int) -> KVCache:
        """A cache over rows ``[a, b)`` of this one's arrays, at its length and
        capacity: a forward on it writes those rows of this cache and is
        checked as on this one. Its length advances on its own."""
        view = copy.copy(self)
        view.keys = [k[a:b] for k in self.keys]
        view.values = [v[a:b] for v in self.values]
        return view


def causal_mask(S: int, dtype=np.float32, past: int = 0) -> np.ndarray:
    """(1, 1, S, past + S) additive mask: query i sees keys up to past + i."""
    # built per call: a cache keyed by length would keep one S x S mask
    # for every length a caller ever used
    m = np.where(np.tril(np.ones((S, past + S), dtype=bool), k=past), 0.0, nc.NEG_INF).astype(dtype)
    return m.reshape(1, 1, S, past + S)


def _lora(x: nc.Tensor, inp: nc.Tensor, sl: dict[str, nc.Tensor], site: str) -> nc.Tensor:
    """x + ((LORA_ALPHA / r) * (inp @ A)) @ B with the low-rank pair ``site + "a"``
    (in, r), ``site + "b"`` (r, out), or ``x`` itself where the level has no
    pair at ``site``. The scale comes from the pair's own width r, and is
    applied to the r-wide product, not the out-wide one."""
    if site + "a" not in sl:
        return x
    a = sl[site + "a"]
    return nc.add(x, nc.matmul(nc.scale(nc.matmul(inp, a), LORA_ALPHA / a.data.shape[-1]), sl[site + "b"]))


def forward(
    model: TransformerModel,
    tokens: np.ndarray,
    doc_mask: np.ndarray | None = None,
    mems: AttachedMemories | None = None,
    cache: KVCache | None = None,
) -> nc.Tensor:
    """Logits (B, S, V) for a batch of token id sequences (B, S).

    The tokens take positions 0..S-1. With a ``cache``, they continue the
    cached positions instead: they attend over those and themselves, their
    keys and values are appended to the cache, and the logits are the last
    position's only, (B, 1, V).
    """
    cfg = model.cfg
    p = model.params
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ModelError(f"tokens must be (B, S), got {tokens.shape}")
    B, S = tokens.shape
    past = 0
    if cache is not None:
        if doc_mask is not None:
            raise ModelError("a cached forward takes no doc_mask")
        past = cache.length
        if past + S > cache.capacity:
            raise ModelError(f"{S} tokens after {past} cached overrun the cache's {cache.capacity}")
    end = past + S
    if end > cfg.context_length:
        raise ModelError(f"sequence length {end} exceeds context length {cfg.context_length}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab_size):
        raise ModelError(f"token id outside [0, {cfg.vocab_size})")
    if mems is not None and mems.batch != B:
        raise ModelError(f"memories for {mems.batch} sequences attached to a batch of {B}")
    heads, dh = cfg.num_heads, cfg.head_dim
    mask = doc_mask if doc_mask is not None else causal_mask(S, model.dtype, past)
    pos = np.arange(past, end)

    x = nc.embedding(p["tok_embeddings.weight"], tokens)
    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        layer_mems = mems.at_layer(i + 1) if mems is not None else []

        h = nc.rms_norm(x, p[pre + "attn_norm.gain"], cfg.norm_eps)
        # queries and all that follows them run for Sq positions: every one,
        # or in a cached forward's last layer, the last one that decode reads
        hq, Sq, qpos, qmask = h, S, pos, mask
        if cache is not None and S > 1 and i == cfg.num_layers - 1:
            x, hq = (nc.split(t, [S - 1, 1], axis=1)[1] for t in (x, h))
            Sq, qpos, qmask = 1, pos[-1:], mask[:, :, -1:]
        q = nc.matmul(hq, p[pre + "wq"])
        k = nc.matmul(h, p[pre + "wk"])
        v = nc.matmul(h, p[pre + "wv"])
        for sl in layer_mems:
            q = _lora(q, hq, sl, "q")
            k = _lora(k, h, sl, "k")
            v = _lora(v, h, sl, "v")

        q4 = nc.rms_norm(nc.reshape(q, (B, Sq, heads, dh)), nc.reshape(p[pre + "q_norm.gain"], (heads, dh)), cfg.norm_eps)
        k4 = nc.rms_norm(nc.reshape(k, (B, S, heads, dh)), nc.reshape(p[pre + "k_norm.gain"], (heads, dh)), cfg.norm_eps)
        qh = nc.transpose(q4, (0, 2, 1, 3))          # (B, h, Sq, dh)
        kh = nc.transpose(k4, (0, 2, 1, 3))          # (B, h, S, dh)
        vh = nc.transpose(nc.reshape(v, (B, S, heads, dh)), (0, 2, 1, 3))
        qr = nc.rope(qh, qpos, cfg.rope_base)
        kr = nc.rope(kh, pos, cfg.rope_base)
        if cache is not None:
            cache.keys[i][:, :, past:end] = kr.data
            cache.values[i][:, :, past:end] = vh.data
            kr = nc.Tensor(cache.keys[i][:, :, :end])
            vh = nc.Tensor(cache.values[i][:, :, :end])
        att = nc.attention(qr, kr, vh, qmask)
        for sl in layer_mems:
            if "mk" in sl:
                r = sl["mk"].data.shape[1]  # (B, r, H)
                mk = nc.transpose(nc.reshape(sl["mk"], (B, r, heads, dh)), (0, 2, 1, 3))
                mv = nc.transpose(nc.reshape(sl["mv"], (B, r, heads, dh)), (0, 2, 1, 3))
                # learned keys carry no positional encoding and no causal
                # mask; queries are the normed, un-rotated ones
                att = nc.add(att, nc.attention(qh, mk, mv, None))
        am = nc.reshape(nc.transpose(att, (0, 2, 1, 3)), (B, Sq, heads * dh))
        out = nc.matmul(am, p[pre + "wo"])
        for sl in layer_mems:
            out = _lora(out, am, sl, "o")
        x = nc.add(x, out)

        h2 = nc.rms_norm(x, p[pre + "ffn_norm.gain"], cfg.norm_eps)
        pre_g = nc.matmul(h2, p[pre + "w1"])
        pre_u = nc.matmul(h2, p[pre + "w2"])
        for sl in layer_mems:
            pre_g = _lora(pre_g, h2, sl, "f1")
            pre_u = _lora(pre_u, h2, sl, "f2")
        inner = nc.swiglu(pre_g, pre_u)
        down = nc.matmul(inner, p[pre + "w3"])
        for sl in layer_mems:
            down = _lora(down, inner, sl, "f3")
            if "m1" in sl:
                mg = nc.swiglu(nc.matmul(h2, sl["m1"]), nc.matmul(h2, sl["m2"]))
                down = nc.add(down, nc.matmul(mg, sl["m3"]))
        x = nc.add(x, down)

    if cache is not None:
        cache.length = end
    xf = nc.rms_norm(x, p["final_norm.gain"], cfg.norm_eps)
    head = p["tok_embeddings.weight"] if cfg.tied_head else p["head.weight"]
    return nc.matmul(xf, nc.transpose(head, (1, 0)))


def save_model(model: TransformerModel, path, extra_meta: dict | None = None) -> None:
    meta = {"config": asdict(model.cfg), "dtype": model.dtype.str}
    if extra_meta:
        meta.update(extra_meta)
    arrays = {name: t.data for name, t in model.params.items()}
    fileio.write_artifact(path, MODEL_MAGIC, meta, arrays)


def load_model(path) -> tuple[TransformerModel, dict]:
    """The model a checkpoint holds, checked against its config's layout.

    Its dtype is float32, what the stack runs, or float64, what gradient
    checks use; any other is an ``ArtifactError``.
    """
    _, meta, arrays = fileio.read_artifact(path, expect_magic=MODEL_MAGIC)
    cfg = fileio.stored_config(AnchorConfig, meta["config"], path)
    try:
        dtype = np.dtype(meta["dtype"])
    except TypeError as e:
        raise fileio.ArtifactError(f"{path}: stored dtype {meta['dtype']!r} is not a dtype ({e})") from None
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise fileio.ArtifactError(f"{path}: stored dtype {dtype.str} is not float32 or float64")
    layout = _anchor_layout(cfg)
    fileio.check_layout(path, arrays, layout, dtype)
    params = {name: nc.Tensor(arrays[name], requires_grad=True) for name in layout}
    return TransformerModel(cfg, params, dtype=dtype), meta
