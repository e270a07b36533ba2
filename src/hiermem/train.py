"""Training: byte tokenizer, cluster-wise packing, sparse-update loop.

Documents are byte-level token streams packed into fixed-length sequences
per leaf cluster; the leaf rides along as ``leaf_flat`` and never enters
the token stream. Documents are joined by single EOT separators, the tail
is right-padded with EOT, and attention never crosses document boundaries.
Loss covers next-token prediction inside each document plus the EOT that
closes it; nothing is predicted across an EOT and padding carries no loss.

Each training step fetches the memory path for every sequence's leaf; a
sequence flips to the shared generic block with probability 1/(k+1).
AdamW updates touch the anchor (unless frozen) and exactly the fetched
blocks. Every trained array (an anchor parameter, a block, a level's
generic block) has one optimizer state, made on its first update, with its
own step counter for bias correction, so untouched blocks are never read
or written.
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

# AdamW and clipping constants, the same for every run; anchor gains get no weight decay
BETA1, BETA2, ADAM_EPS, GRAD_CLIP = 0.9, 0.95, 1e-8, 1.0
ANCHOR_WD, MEMORY_WD = 0.1, 1e-3  # anchor matrices; memory and generic blocks

# grad_norm is the pre-clip global norm; NaN (an empty CSV cell) on an aborted step
METRIC_COLUMNS = ("step", "lr", "loss", "loss_fetched", "loss_generic", "tokens_seen", "grad_norm")


class TrainError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

class ByteTokenizer:
    """Raw bytes as tokens: ids 0..255 are content, 256 is EOT (separator
    and padding)."""

    EOT = 256

    def encode(self, text: str) -> np.ndarray:
        return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int32)

    def decode(self, ids) -> str:
        ids = np.asarray(ids)
        content = ids[(ids >= 0) & (ids < 256)].astype(np.uint8)
        return content.tobytes().decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

@dataclass
class PackedSequence:
    tokens: np.ndarray        # (seq_len - 1,) int32 model inputs
    leaf_flat: int            # 0-based leaf id
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

    Each sequence holds ``seq_len - 1`` input positions, so that the targets
    (inputs shifted by one) fit in ``seq_len`` tokens. Documents of one leaf
    stream into sequences in corpus order; a document longer than a sequence
    spills into the next sequence of the same cluster.
    """
    if seq_len < 3:
        raise TrainError(f"seq_len must be at least 3, got {seq_len}")
    L = seq_len - 1
    by_leaf: dict[tuple, list[int]] = {}
    for i, leaf in enumerate(doc_leaves):
        by_leaf.setdefault(tuple(leaf), []).append(i)

    out: list[PackedSequence] = []
    for leaf, doc_ids in by_leaf.items():
        flat = int(cl.flats_of_paths(leaf, k))

        buf = np.full(L, tokenizer.EOT, dtype=np.int32)
        pos = 0
        spans: list[tuple[int, int]] = []

        def flush():
            nonlocal buf, pos, spans
            if pos > 0:
                out.append(PackedSequence(tokens=buf, leaf_flat=flat, spans=spans))
            buf = np.full(L, tokenizer.EOT, dtype=np.int32)
            pos = 0
            spans = []

        for di in doc_ids:
            toks = doc_tokens[di]
            off = 0
            while off < len(toks):
                if pos >= L:
                    flush()
                take = min(L - pos, len(toks) - off)
                buf[pos : pos + take] = toks[off : off + take]
                spans.append((pos, pos + take))
                pos += take
                off += take
            # EOT separator after the document, if there is room; a doc
            # ending exactly at the boundary is separated by the boundary
            if pos < L:
                pos += 1  # the buffer is EOT-filled already
            else:
                flush()
        flush()

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def build_batch(seqs: list[PackedSequence], dtype=np.float32) -> dict:
    """Model-ready arrays for a batch of packed sequences.

    Targets are the inputs shifted left by one and EOT-extended, the weight
    mask selects content positions with a real next token, and the additive
    attention mask blocks cross-document lookback.
    """
    inputs = np.stack([s.tokens for s in seqs])            # (B, S)
    B, S = inputs.shape
    targets = np.concatenate([inputs[:, 1:], np.full((B, 1), ByteTokenizer.EOT, dtype=np.int32)], axis=1)
    weights = np.zeros((B, S), dtype=dtype)
    weights[:, : S - 1] = (inputs[:, : S - 1] < ByteTokenizer.EOT).astype(dtype)

    # span ids per input position; EOT/padding positions are isolated
    sid = -(np.arange(S, dtype=np.int64)[None, :] + 1) - np.arange(B, dtype=np.int64)[:, None] * (S + 1)
    for b, s in enumerate(seqs):
        for si, (a, e) in enumerate(s.spans):
            sid[b, a:e] = si
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


def cosine_lr(step: int, cfg: TrainConfig) -> float:
    """LR at 1-based ``step``: linear warmup to lr_max, cosine to lr_min."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr_max * step / cfg.warmup_steps
    t = (step - cfg.warmup_steps) / max(1, cfg.total_steps - cfg.warmup_steps)
    t = min(max(t, 0.0), 1.0)
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(math.pi * t))


@dataclass
class _AdamState:
    m: np.ndarray
    v: np.ndarray
    steps: int = 0            # updates applied, for bias correction


class TrainState:
    """Everything the run loop needs to continue bit-exactly after a resume."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.step = 0
        self.aborted = 0
        self.tokens_seen = 0.0
        self.rng = np.random.default_rng([cfg.seed, 0x7A41])
        self.epoch_order = np.empty(0, dtype=np.int64)
        self.epoch_pos = 0
        self.metrics = []  # rows of METRIC_COLUMNS
        # one entry per trained array, keyed anchor.<param>, l<level>.<block id>
        # or l<level>.generic, made on the array's first update
        self.opt: dict[str, _AdamState] = {}


def _adamw(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, steps: int,
           lr: float, wd: float) -> None:
    """Decoupled AdamW on one parameter array, in place. ``steps`` is the
    per-parameter update count including this one."""
    m *= BETA1
    m += (1 - BETA1) * g
    v *= BETA2
    v += (1 - BETA2) * np.square(g)
    mhat = m / (1 - BETA1 ** steps)
    vhat = v / (1 - BETA2 ** steps)
    p -= lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + wd * p)


def _step_loss(model: mdl.TransformerModel, bank: mb.MemoryBank | None, batch: dict,
               level_tensors: list[nc.Tensor]) -> nc.Tensor:
    """The step's loss on the active tape. The logits and the attached
    memories go out of scope here, so backward does not keep them."""
    mems = None
    if bank is not None:
        mems = mdl.AttachedMemories(bank.cfg, model.cfg, level_tensors)
    logits = mdl.forward(model, batch["inputs"], doc_mask=batch["mask"], mems=mems)
    return nc.cross_entropy(logits, batch["targets"], batch["weights"])


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
        generic_rows = state.rng.random(B) < 1.0 / (bank.k + 1)
        fm = mb.fetch(bank, batch["leaf_flats"], generic_rows)
        level_tensors = [nc.Tensor(rows.astype(model.dtype, copy=False), requires_grad=True) for rows in fm.levels]

    with nc.Tape() as tape:
        loss = _step_loss(model, bank, batch, level_tensors)
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
        "grad_norm": float("nan"),
    }
    if not math.isfinite(loss_val):
        # abort the step: no parameter or optimizer movement, schedule advances
        state.aborted += 1
        state.step += 1
        state.tokens_seen += ntok
        state.metrics.append([metrics[c] for c in METRIC_COLUMNS])
        return metrics

    nc.backward(tape, loss)

    # (state key, array, gradient, weight decay), in the order the clip sums
    updates: list[tuple[str, np.ndarray, np.ndarray, float]] = []
    if cfg.regime != "memory":
        for name, p in model.named_params():
            if p.grad is not None:
                wd = ANCHOR_WD if p.data.ndim >= 2 else 0.0  # no decay on gains
                updates.append((f"anchor.{name}", p.data, p.grad, wd))

    # scatter per-sequence memory row gradients into per-block sums
    if bank is not None:
        for l in range(1, bank.depth + 1):
            g = level_tensors[l - 1].grad
            if g is None:
                continue
            fetched = fm.blocks[l - 1] >= 0
            if fetched.any():
                ids, inv = np.unique(fm.blocks[l - 1][fetched], return_inverse=True)
                gsum = np.zeros((ids.shape[0], g.shape[1]), dtype=np.float32)
                # row by row in batch order: the sums np.add.at gives, without its per-element loop
                for j, row in zip(inv, g[fetched].astype(np.float32, copy=False)):
                    gsum[j] += row
                lvl = bank.levels[l - 1]
                updates += [(f"l{l}.{i}", lvl[i], gsum[j], MEMORY_WD) for j, i in enumerate(ids)]
            if generic_rows.any():
                ggen = g[generic_rows].sum(axis=0).astype(np.float32)
                updates.append((f"l{l}.generic", bank.generic[l - 1], ggen, MEMORY_WD))

    metrics["grad_norm"] = nc.clip_global_norm([u[2] for u in updates], GRAD_CLIP)

    for key, p, g, wd in updates:
        st = state.opt.get(key)
        if st is None:
            st = state.opt[key] = _AdamState(np.zeros_like(p), np.zeros_like(p))
        st.steps += 1
        _adamw(p, g, st.m, st.v, st.steps, lr, wd)

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
    keys = sorted(state.opt)
    meta = {
        "config": asdict(state.cfg),
        "step": state.step,
        "aborted": state.aborted,
        "tokens_seen": state.tokens_seen,
        "epoch_pos": state.epoch_pos,
        "rng_state": json.loads(json.dumps(state.rng.bit_generator.state)),
        "opt_steps": {key: state.opt[key].steps for key in keys},
    }
    arrays: dict[str, np.ndarray] = {"sched.order": state.epoch_order.astype(np.int64)}
    arrays["metrics.rows"] = np.asarray(state.metrics, dtype=np.float64).reshape(-1, len(METRIC_COLUMNS))
    for key in keys:
        arrays[f"opt.{key}.m"] = state.opt[key].m
        arrays[f"opt.{key}.v"] = state.opt[key].v
    fileio.write_artifact(path, STATE_MAGIC, meta, arrays)


def load_state(path) -> TrainState:
    _, meta, arrays = fileio.read_artifact(path, expect_magic=STATE_MAGIC)
    if arrays["metrics.rows"].shape[1:] != (len(METRIC_COLUMNS),):
        raise TrainError(f"{path}: metrics rows are not the {len(METRIC_COLUMNS)} columns {METRIC_COLUMNS}")
    state = TrainState(fileio.stored_config(TrainConfig, meta["config"], path))
    state.step = meta["step"]
    state.aborted = meta["aborted"]
    state.tokens_seen = meta["tokens_seen"]
    state.epoch_pos = meta["epoch_pos"]
    state.epoch_order = arrays["sched.order"]
    state.metrics = [list(r) for r in arrays["metrics.rows"]]
    state.rng = np.random.default_rng()
    state.rng.bit_generator.state = meta["rng_state"]
    state.opt = {key: _AdamState(arrays[f"opt.{key}.m"], arrays[f"opt.{key}.v"], steps)
                 for key, steps in meta["opt_steps"].items()}
    return state


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def _check_resume(state: TrainState, model: mdl.TransformerModel, bank: mb.MemoryBank | None) -> None:
    """Refuse a state whose optimizer entries do not fit the arrays they update.

    Every ``opt`` key must name an existing anchor parameter, bank block or
    generic block whose shape equals its ``m`` and ``v`` shapes.
    """
    params = dict(model.named_params())
    for key, st in state.opt.items():
        target = None
        head, _, rest = key.partition(".")
        if head == "anchor":
            if rest in params:
                target = params[rest].data
        elif bank is not None and head[:1] == "l" and head[1:].isdigit():
            level = int(head[1:])
            if 1 <= level <= bank.depth:
                if rest == "generic":
                    target = bank.generic[level - 1]
                elif rest.isdigit() and int(rest) < bank.k ** level:
                    target = bank.levels[level - 1][int(rest)]
        if target is None:
            raise TrainError(f"resume state: optimizer key {key!r} names no trained array")
        if st.m.shape != target.shape or st.v.shape != target.shape:
            raise TrainError(
                f"resume state: optimizer key {key!r} holds shape {st.m.shape}/{st.v.shape}, "
                f"its array is {target.shape}"
            )


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
    if resume_state is not None:
        _check_resume(resume_state, model, bank)
        state = resume_state
    else:
        state = TrainState(cfg)
    n = len(sequences)
    # every step has the same shapes, so from the second on the ops reuse
    # the first step's buffers
    with nc.StepBuffers():
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
