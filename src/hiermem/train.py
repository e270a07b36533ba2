"""Training: byte tokenizer, cluster-wise packing, sparse-update loop.

Documents are byte-level token streams packed into fixed-length sequences
per leaf cluster: position 0 carries a cluster-prefix token (routing
metadata, stripped before the model sees the sequence), documents are
joined by single EOT separators, the tail is right-padded with EOT, and
attention never crosses document boundaries. Loss covers next-token
prediction inside each document plus the EOT that closes it; nothing is
predicted across an EOT and padding carries no loss.

Each training step fetches the memory path for every sequence's leaf; a
sequence flips to the shared generic block with probability 1/(k+1).
AdamW updates touch the anchor (unless frozen) and exactly the fetched
blocks — optimizer state for a block is allocated lazily on first touch
and keeps its own step counter for bias correction, so untouched blocks
are never read or written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import cluster as cl
from . import fileio
from . import membank as mb
from . import model as mdl
from . import numcore as nc

STATE_MAGIC = "HMSTATE"

METRIC_COLUMNS = ("step", "lr", "loss", "loss_fetched", "loss_generic", "tokens_seen")


class TrainError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

class ByteTokenizer:
    """Raw bytes as tokens, plus EOT and a reserved range of cluster prefixes.

    ids 0..255 are content bytes, 256 is EOT (separator and padding), and
    257..257+prefix_slots-1 name leaf clusters (leaf id modulo the range).
    """

    EOT = 256
    BASE = 257

    def __init__(self, prefix_slots: int = 16):
        if prefix_slots < 1:
            raise ValueError(f"prefix_slots must be >= 1, got {prefix_slots}")
        self.prefix_slots = prefix_slots
        self.vocab_size = self.BASE + prefix_slots

    def encode(self, text: str) -> np.ndarray:
        return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int32)

    def decode(self, ids) -> str:
        ids = np.asarray(ids)
        content = ids[(ids >= 0) & (ids < 256)].astype(np.uint8)
        return content.tobytes().decode("utf-8", errors="replace")

    def prefix_id(self, leaf_flat: int) -> int:
        return self.BASE + leaf_flat % self.prefix_slots

    @staticmethod
    def is_content(ids: np.ndarray) -> np.ndarray:
        return ids < 256


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

@dataclass
class PackedSequence:
    tokens: np.ndarray        # (L,) int32; tokens[0] is the cluster prefix
    leaf: tuple               # 1-based leaf index
    leaf_flat: int
    spans: list               # [(start, end)) content spans in token coords


def pack_corpus(
    doc_tokens: list[np.ndarray],
    doc_leaves: list[tuple],
    seq_len: int,
    tokenizer: ByteTokenizer,
    k: int,
    seed: int = 0,
) -> list[PackedSequence]:
    """Pack documents into per-cluster sequences, then shuffle globally.

    Documents of one leaf stream into length ``seq_len`` sequences in
    corpus order; a document longer than seq_len - 1 spills into the next
    sequence of the same cluster.
    """
    if seq_len < 3:
        raise TrainError(f"seq_len must be at least 3, got {seq_len}")
    by_leaf: dict[tuple, list[int]] = {}
    for i, leaf in enumerate(doc_leaves):
        by_leaf.setdefault(tuple(leaf), []).append(i)

    out: list[PackedSequence] = []
    for leaf, doc_ids in by_leaf.items():
        flat = int(cl.flats_of_paths(leaf, k))
        prefix = tokenizer.prefix_id(flat)

        buf = np.full(seq_len, tokenizer.EOT, dtype=np.int32)
        buf[0] = prefix
        pos = 1
        spans: list[tuple[int, int]] = []

        def flush():
            nonlocal buf, pos, spans
            if pos > 1:
                out.append(PackedSequence(tokens=buf, leaf=leaf, leaf_flat=flat, spans=spans))
            buf = np.full(seq_len, tokenizer.EOT, dtype=np.int32)
            buf[0] = prefix
            pos = 1
            spans = []

        for di in doc_ids:
            toks = doc_tokens[di]
            off = 0
            while off < len(toks):
                if pos >= seq_len:
                    flush()
                take = min(seq_len - pos, len(toks) - off)
                buf[pos : pos + take] = toks[off : off + take]
                spans.append((pos, pos + take))
                pos += take
                off += take
            # EOT separator after the document, if there is room; a doc
            # ending exactly at the boundary is separated by the boundary
            if pos < seq_len:
                pos += 1  # the buffer is EOT-filled already
            else:
                flush()
        flush()

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def build_batch(seqs: list[PackedSequence], dtype=np.float32) -> dict:
    """Model-ready arrays for a batch of packed sequences.

    The prefix token is stripped: inputs are tokens[1:], targets shift by
    one more, the weight mask selects content positions with a real next
    token, and the additive attention mask blocks cross-document lookback.
    """
    L = seqs[0].tokens.shape[0]
    B = len(seqs)
    S = L - 1
    toks = np.stack([s.tokens for s in seqs])              # (B, L)
    inputs = toks[:, 1:]
    targets = np.concatenate([toks[:, 2:], np.full((B, 1), ByteTokenizer.EOT, dtype=np.int32)], axis=1)
    weights = np.zeros((B, S), dtype=dtype)
    weights[:, : S - 1] = ByteTokenizer.is_content(toks[:, 1 : L - 1]).astype(dtype)

    # span ids per input position; EOT/padding positions are isolated
    sid = -(np.arange(S, dtype=np.int64)[None, :] + 1) - np.arange(B, dtype=np.int64)[:, None] * (S + 1)
    for b, s in enumerate(seqs):
        for si, (a, e) in enumerate(s.spans):
            sid[b, a - 1 : e - 1] = si
    same = sid[:, :, None] == sid[:, None, :]
    causal = np.tril(np.ones((S, S), dtype=bool))
    mask = np.where(same & causal, 0.0, nc.NEG_INF).astype(dtype).reshape(B, 1, S, S)
    return {
        "inputs": inputs,
        "targets": targets,
        "weights": weights,
        "mask": mask,
        "leaf_flats": np.array([s.leaf_flat for s in seqs], dtype=np.int64),
    }


# ---------------------------------------------------------------------------
# schedule / optimizer state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    regime: str = "memory"            # memory (frozen anchor) | cotrain | scratch
    batch_size: int = 32
    seq_len: int = 128
    total_steps: int = 1000
    warmup_steps: int = 100
    lr_max: float = 1e-4
    lr_min: float = 1e-5
    anchor_wd: float = 0.1
    memory_wd: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    generic_prob: float | None = None  # default 1/(k+1)
    checkpoint_interval: int = 0       # 0: only final
    log_interval: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.regime not in ("memory", "cotrain", "scratch"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.total_steps < 1 or self.batch_size < 1:
            raise ValueError("total_steps and batch_size must be positive")
        if self.warmup_steps < 0 or self.warmup_steps > self.total_steps:
            raise ValueError(f"warmup_steps {self.warmup_steps} outside [0, {self.total_steps}]")
        if self.generic_prob is not None and not (0.0 <= self.generic_prob <= 1.0):
            raise ValueError(f"generic_prob {self.generic_prob} outside [0, 1]")


def cosine_lr(step: int, cfg: TrainConfig) -> float:
    """LR at 1-based ``step``: linear warmup to lr_max, cosine to lr_min."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr_max * step / cfg.warmup_steps
    t = (step - cfg.warmup_steps) / max(1, cfg.total_steps - cfg.warmup_steps)
    t = min(max(t, 0.0), 1.0)
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(math.pi * t))


class _BlockState:
    __slots__ = ("m", "v", "steps")

    def __init__(self, size: int):
        self.m = np.zeros(size, dtype=np.float32)
        self.v = np.zeros(size, dtype=np.float32)
        self.steps = 0


class TrainState:
    """Everything the run loop needs to continue bit-exactly after a resume."""

    def __init__(self, cfg: TrainConfig, model: mdl.TransformerModel, bank: mb.MemoryBank | None):
        self.cfg = cfg
        self.step = 0
        self.anchor_steps = 0
        self.aborted = 0
        self.tokens_seen = 0.0
        self.rng = np.random.default_rng([cfg.seed, 0x7A41])
        self.epoch_order = np.empty(0, dtype=np.int64)
        self.epoch_pos = 0
        self.metrics = []  # rows of METRIC_COLUMNS
        self.opt_m: dict[str, np.ndarray] = {}
        self.opt_v: dict[str, np.ndarray] = {}
        if cfg.regime in ("cotrain", "scratch"):
            for name, p in model.named_params():
                self.opt_m[name] = np.zeros_like(p.data)
                self.opt_v[name] = np.zeros_like(p.data)
        # bank_state[level-1]: flat block id -> _BlockState
        self.bank_state: list[dict[int, _BlockState]] = []
        self.generic_state: list[_BlockState] = []
        if bank is not None:
            for l in range(bank.depth):
                self.bank_state.append({})
                self.generic_state.append(_BlockState(bank.generic[l].shape[0]))


def _adamw(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, steps: int,
           lr: float, wd: float, cfg: TrainConfig) -> None:
    """Decoupled AdamW on one parameter array, in place. ``steps`` is the
    per-parameter update count including this one."""
    m *= cfg.beta1
    m += (1 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1 - cfg.beta2) * np.square(g)
    mhat = m / (1 - cfg.beta1 ** steps)
    vhat = v / (1 - cfg.beta2 ** steps)
    p -= lr * (mhat / (np.sqrt(vhat) + cfg.adam_eps) + wd * p)


def train_step(
    model: mdl.TransformerModel,
    bank: mb.MemoryBank | None,
    batch: dict,
    state: TrainState,
    cfg: TrainConfig,
) -> dict:
    """One optimizer step. Returns the step's metrics row as a dict."""
    B = batch["inputs"].shape[0]
    lr = cosine_lr(state.step + 1, cfg)
    # frozen anchors must not pay for weight gradients they will discard
    model.set_trainable(cfg.regime != "memory")

    generic_rows = np.zeros(B, dtype=bool)
    level_tensors: list[nc.Tensor] = []
    if bank is not None:
        gp = cfg.generic_prob if cfg.generic_prob is not None else 1.0 / (bank.k + 1)
        generic_rows = state.rng.random(B) < gp
        fm = mb.fetch(bank, batch["leaf_flats"], generic_rows)
        level_tensors = [nc.Tensor(rows.astype(model.dtype, copy=False), requires_grad=True) for rows in fm.levels]

    with nc.Tape() as tape:
        mems = None
        if bank is not None:
            mems = mdl.AttachedMemories(bank.cfg, model.cfg, level_tensors)
        logits = mdl.forward(model, batch["inputs"], doc_mask=batch["mask"], mems=mems)
        loss = nc.cross_entropy(logits, batch["targets"], batch["weights"])
    loss_val = float(loss.data)

    ntok = float(batch["weights"].sum())
    pw = loss._pointwise.reshape(batch["weights"].shape)
    wsum = batch["weights"].sum(axis=1)
    row_nll = np.divide((pw * batch["weights"]).sum(axis=1), wsum, out=np.zeros(B), where=wsum > 0)
    loss_fetched = float(row_nll[~generic_rows].mean()) if (~generic_rows).any() else float("nan")
    loss_generic = float(row_nll[generic_rows].mean()) if generic_rows.any() else float("nan")

    metrics = {
        "step": state.step + 1,
        "lr": lr,
        "loss": loss_val,
        "loss_fetched": loss_fetched,
        "loss_generic": loss_generic,
        "tokens_seen": state.tokens_seen + ntok,
    }
    if not math.isfinite(loss_val):
        # abort the step: no parameter or optimizer movement, schedule advances
        state.aborted += 1
        state.step += 1
        state.tokens_seen += ntok
        state.metrics.append([metrics[c] for c in METRIC_COLUMNS])
        return metrics

    nc.backward(tape, loss)

    anchor_training = cfg.regime in ("cotrain", "scratch")
    clip_list: list[np.ndarray] = []
    anchor_grads: list[tuple[str, np.ndarray]] = []
    if anchor_training:
        for name, p in model.named_params():
            if p.grad is not None:
                anchor_grads.append((name, p.grad))
                clip_list.append(p.grad)

    # scatter per-sequence memory row gradients into per-block sums
    block_updates: list[tuple[int, np.ndarray, np.ndarray]] = []  # (level, ids, grads)
    generic_updates: list[tuple[int, np.ndarray]] = []
    if bank is not None:
        for l in range(1, bank.depth + 1):
            g = level_tensors[l - 1].grad
            if g is None:
                continue
            fetched = fm.blocks[l - 1] >= 0
            if fetched.any():
                ids, inv = np.unique(fm.blocks[l - 1][fetched], return_inverse=True)
                gsum = np.zeros((ids.shape[0], g.shape[1]), dtype=np.float32)
                np.add.at(gsum, inv, g[fetched].astype(np.float32))
                block_updates.append((l, ids, gsum))
                clip_list.extend(gsum)
            if generic_rows.any():
                ggen = g[generic_rows].sum(axis=0).astype(np.float32)
                generic_updates.append((l, ggen))
                clip_list.append(ggen)

    gnorm = nc.clip_global_norm(clip_list, cfg.grad_clip)
    metrics["grad_norm"] = gnorm

    if anchor_training:
        state.anchor_steps += 1
        for name, g in anchor_grads:
            p = model.params[name]
            wd = cfg.anchor_wd if p.data.ndim >= 2 else 0.0  # no decay on gains
            _adamw(p.data, g, state.opt_m[name], state.opt_v[name], state.anchor_steps, lr, wd, cfg)

    if bank is not None:
        for l, ids, gsum in block_updates:
            lvl = bank.levels[l - 1]
            states = state.bank_state[l - 1]
            for j, flat in enumerate(ids):
                st = states.get(int(flat))
                if st is None:
                    st = states[int(flat)] = _BlockState(lvl.shape[1])
                st.steps += 1
                _adamw(lvl[flat], gsum[j], st.m, st.v, st.steps, lr, cfg.memory_wd, cfg)
        for l, ggen in generic_updates:
            st = state.generic_state[l - 1]
            st.steps += 1
            _adamw(bank.generic[l - 1], ggen, st.m, st.v, st.steps, lr, cfg.memory_wd, cfg)

    # drop step gradients
    for _, p in model.named_params():
        p.grad = None

    state.step += 1
    state.tokens_seen += ntok
    state.metrics.append([metrics[c] for c in METRIC_COLUMNS])
    return metrics


# ---------------------------------------------------------------------------
# state serialization
# ---------------------------------------------------------------------------

def save_state(state: TrainState, path) -> None:
    meta = {
        "config": asdict(state.cfg),
        "step": state.step,
        "anchor_steps": state.anchor_steps,
        "aborted": state.aborted,
        "tokens_seen": state.tokens_seen,
        "epoch_pos": state.epoch_pos,
        "rng_state": json.loads(json.dumps(state.rng.bit_generator.state)),
        "generic_steps": [st.steps for st in state.generic_state],
        "bank_levels": len(state.bank_state),
    }
    arrays: dict[str, np.ndarray] = {"sched.order": state.epoch_order.astype(np.int64)}
    arrays["metrics.rows"] = np.asarray(state.metrics, dtype=np.float64).reshape(-1, len(METRIC_COLUMNS))
    for name in state.opt_m:
        arrays[f"opt.m.{name}"] = state.opt_m[name]
        arrays[f"opt.v.{name}"] = state.opt_v[name]
    for l, states in enumerate(state.bank_state, start=1):
        ids = np.array(sorted(states.keys()), dtype=np.int64)
        arrays[f"bank.l{l}.ids"] = ids
        if len(ids):
            arrays[f"bank.l{l}.m"] = np.stack([states[int(i)].m for i in ids])
            arrays[f"bank.l{l}.v"] = np.stack([states[int(i)].v for i in ids])
            arrays[f"bank.l{l}.steps"] = np.array([states[int(i)].steps for i in ids], dtype=np.int64)
    for l, st in enumerate(state.generic_state, start=1):
        arrays[f"gen.l{l}.m"] = st.m
        arrays[f"gen.l{l}.v"] = st.v
    fileio.write_artifact(path, STATE_MAGIC, meta, arrays)


def load_state(path, model: mdl.TransformerModel, bank: mb.MemoryBank | None) -> TrainState:
    _, meta, arrays = fileio.read_artifact(path, expect_magic=STATE_MAGIC)
    raw = dict(meta["config"])
    cfg = TrainConfig(**{k: (tuple(v) if isinstance(v, list) else v) for k, v in raw.items()})
    state = TrainState(cfg, model, bank)
    state.step = meta["step"]
    state.anchor_steps = meta["anchor_steps"]
    state.aborted = meta["aborted"]
    state.tokens_seen = meta["tokens_seen"]
    state.epoch_pos = meta["epoch_pos"]
    state.epoch_order = arrays["sched.order"]
    state.metrics = [list(r) for r in arrays["metrics.rows"]]
    rng_state = meta["rng_state"]
    state.rng = np.random.default_rng()
    state.rng.bit_generator.state = rng_state
    for name in list(state.opt_m):
        state.opt_m[name] = arrays[f"opt.m.{name}"]
        state.opt_v[name] = arrays[f"opt.v.{name}"]
    for l in range(1, len(state.bank_state) + 1):
        ids = arrays.get(f"bank.l{l}.ids", np.empty(0, dtype=np.int64))
        if len(ids):
            ms = arrays[f"bank.l{l}.m"]
            vs = arrays[f"bank.l{l}.v"]
            steps = arrays[f"bank.l{l}.steps"]
            for j, flat in enumerate(ids):
                st = _BlockState(ms.shape[1])
                st.m = ms[j].copy()
                st.v = vs[j].copy()
                st.steps = int(steps[j])
                state.bank_state[l - 1][int(flat)] = st
    for l, st in enumerate(state.generic_state, start=1):
        st.m = arrays[f"gen.l{l}.m"].copy()
        st.v = arrays[f"gen.l{l}.v"].copy()
        st.steps = meta["generic_steps"][l - 1]
    return state


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def save_checkpoint(run_dir, tag: str, model, bank, state, extra_meta=None) -> Path:
    d = Path(run_dir) / f"ckpt_{tag}"
    d.mkdir(parents=True, exist_ok=True)
    meta = {"step": state.step}
    if extra_meta:
        meta.update(extra_meta)
    mdl.save_model(model, d / "model.ckpt", extra_meta=meta)
    if bank is not None:
        mb.save_bank(bank, d / "bank.bin", extra_meta=meta)
    save_state(state, d / "trainstate.bin")
    fileio.write_csv(d / "metrics.csv", METRIC_COLUMNS, state.metrics)
    return d


def train_run(
    model: mdl.TransformerModel,
    bank: mb.MemoryBank | None,
    sequences: list[PackedSequence],
    cfg: TrainConfig,
    run_dir,
    resume_state: TrainState | None = None,
    log=print,
    extra_meta: dict | None = None,
) -> TrainState:
    """Run cfg.total_steps optimizer steps with periodic checkpoints.

    Sequences are drawn in seeded per-epoch shuffles; a resumed state
    continues the exact draw order and optimizer trajectory.
    """
    if not sequences:
        raise TrainError("no packed sequences to train on")
    state = resume_state if resume_state is not None else TrainState(cfg, model, bank)
    n = len(sequences)
    while state.step < cfg.total_steps:
        if state.epoch_pos + cfg.batch_size > len(state.epoch_order):
            state.epoch_order = state.rng.permutation(n)
            # epochs shorter than a batch cycle immediately
            while len(state.epoch_order) < cfg.batch_size:
                state.epoch_order = np.concatenate([state.epoch_order, state.rng.permutation(n)])
            state.epoch_pos = 0
        idx = state.epoch_order[state.epoch_pos : state.epoch_pos + cfg.batch_size]
        state.epoch_pos += cfg.batch_size
        batch = build_batch([sequences[i] for i in idx], dtype=model.dtype)
        metrics = train_step(model, bank, batch, state, cfg)
        if cfg.log_interval and state.step % cfg.log_interval == 0:
            log(
                f"step {metrics['step']}/{cfg.total_steps} "
                f"lr {metrics['lr']:.3e} loss {metrics['loss']:.4f}"
            )
        if cfg.checkpoint_interval and state.step % cfg.checkpoint_interval == 0 and state.step < cfg.total_steps:
            save_checkpoint(run_dir, f"step{state.step}", model, bank, state, extra_meta)
    save_checkpoint(run_dir, "final", model, bank, state, extra_meta)
    return state
