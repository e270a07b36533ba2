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
blocks. Every trained array has one optimizer state, made on its first
update and keyed by the array's name in ``model.ckpt`` or ``bank.bin``: an
anchor parameter, a bank level ``level<l>`` or a level's generic block
``generic.l<l>``. A state holds AdamW's ``m`` and ``v``, shaped like the
array, and an int64 ``steps`` for bias correction: one count per block,
shape (k^l,), for a bank level, and a single count, shape (), for any other
array. A level is updated block by block, on row views of the level and of
its state, each with its block's own count, so blocks that were never
fetched are never read or written. ``m`` and ``v`` start on fresh
anonymous pages, which take memory only once a row on them is written: the
state of a level costs what its trained blocks need, not twice the level.

Row shards. A step runs its batch as ``STEP_SHARDS`` = 2 contiguous row
shards, or as one when the batch has one row. Every op of the step works
per row (shared-weight GEMMs, per-sequence memory products, attention per
row and head), so the shards are independent until their gradients meet.
Each shard runs the forward and the cross-entropy on its own tape. Every
shard passes ``nc.cross_entropy`` the whole batch's weight sum as its
denominator, which that function requires of every caller. The calling
thread runs the last shard and a helper pool of ``STEP_SHARDS - 1``
threads, made once, the others (``evals.greedy_decode_batch`` runs its
prefill on the same pool). Only a finite loss starts the backward, on the
same threads; a step with any other loss is aborted, and moves nothing but
the schedule and the counts. Level-row gradients are concatenated in row
order. Where the anchor trains, each shard has its own gradient leaves
over the anchor's arrays, and their gradients are summed in shard order.
Scatter, clip and AdamW then run once, as for one shard. The step's loss
is summed over the pointwise NLL of every row in row order, as one tape
sums it.

What a run's bytes depend on. ``STEP_SHARDS`` is a constant and not the CPU
count, and a shard computes the same whichever thread runs it, so the bytes
are the same on any number of CPUs. They do depend on the shard count:
a shared GEMM over fewer rows can round a row differently where BLAS picks
its small-matrix kernels (the tests' toy shapes, 62 rows per shard), and
weight gradients of a training anchor are summed per shard. At the
benchmark's shapes, 1016 rows or more in every shared GEMM and a frozen
anchor, OpenBLAS rounds each row alike whatever the row count, and the
trained bytes equal those of an unsharded step.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import mmap
from concurrent.futures import ThreadPoolExecutor, wait
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

# row shards per train step and per decode prefill; fixed, so bytes never depend on the CPU count
STEP_SHARDS = 2

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
        for f in ("lr_max", "lr_min"):
            if not (math.isfinite(getattr(self, f)) and getattr(self, f) >= 0):
                raise ValueError(f"{f} must be finite and >= 0, got {getattr(self, f)}")


def cosine_lr(step: int, cfg: TrainConfig) -> float:
    """LR at 1-based ``step``: linear warmup to lr_max, cosine to lr_min."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr_max * step / cfg.warmup_steps
    t = (step - cfg.warmup_steps) / max(1, cfg.total_steps - cfg.warmup_steps)
    t = min(max(t, 0.0), 1.0)
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(math.pi * t))


@dataclass
class _AdamState:
    m: np.ndarray             # shaped like the trained array
    v: np.ndarray
    steps: np.ndarray         # int64 updates applied: (k^l,) for a bank level, () otherwise


def _fresh_zeros(like: np.ndarray) -> np.ndarray:
    """Zeros shaped like ``like`` on fresh anonymous pages, none of them
    resident until written. ``np.zeros`` is no substitute: numpy asks for
    huge pages for arrays of 4 MiB or more, and a level's state then turns
    resident in 2-MiB steps after a few of its rows are touched."""
    buf = mmap.mmap(-1, max(like.nbytes, 1))  # an empty map is an error
    return np.frombuffer(buf, dtype=like.dtype, count=like.size).reshape(like.shape)


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
        # one entry per trained array, keyed by its name in model.ckpt or
        # bank.bin and made on the array's first update: m and v shaped like
        # the array, on fresh pages that take memory only once written, and
        # steps, one count per block of a bank level (see the module doc)
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


class _Shard:
    """One contiguous row range of a step's batch, on its own tape, with its
    own leaves over the fetched level rows and, when the anchor trains, over
    the anchor's arrays (a frozen anchor pays for no weight gradients)."""

    def __init__(self, model: mdl.TransformerModel, rows: slice, level_rows: list[np.ndarray],
                 train_anchor: bool):
        self.rows = rows
        params = {name: nc.Tensor(p.data, requires_grad=train_anchor) for name, p in model.params.items()}
        self.model = mdl.TransformerModel(model.cfg, params, dtype=model.dtype)
        self.levels = [nc.Tensor(r[rows].astype(model.dtype, copy=False), requires_grad=True)
                       for r in level_rows]
        self.tape = nc.Tape()
        self.loss: nc.Tensor | None = None

    def forward(self, bank: mb.MemoryBank | None, batch: dict, denom) -> None:
        """The shard's loss on its tape. The logits and the attached
        memories go out of scope on return, so backward does not keep them."""
        rows = self.rows
        with self.tape:
            mems = None
            if bank is not None:
                mems = mdl.AttachedMemories(bank.cfg, self.model.cfg, self.levels)
            logits = mdl.forward(self.model, batch["inputs"][rows], doc_mask=batch["mask"][rows], mems=mems)
            self.loss = nc.cross_entropy(logits, batch["targets"][rows], batch["weights"][rows], denom)

    def backward(self) -> None:
        nc.backward(self.tape, self.loss)


_POOL: ThreadPoolExecutor | None = None


def _helper_pool() -> ThreadPoolExecutor:
    """The ``STEP_SHARDS - 1`` threads that run every shard but the last,
    made once on first use."""
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(STEP_SHARDS - 1, thread_name_prefix="hiermem-shard")
    return _POOL


def _row_ranges(B: int) -> list[tuple[int, int]]:
    """The contiguous row ranges ``[a, b)`` a batch of B rows runs as:
    ``STEP_SHARDS`` of them, or B when the batch has fewer rows."""
    n = min(STEP_SHARDS, B)
    bounds = [B * i // n for i in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def _on_shards(fn, shards: list) -> None:
    """``fn(shard)`` for every shard: the helper pool takes all but the last
    and the calling thread the last, so a lone shard runs inline. Every call
    has ended when this returns or raises."""
    futures = [_helper_pool().submit(fn, s) for s in shards[:-1]]
    try:
        fn(shards[-1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def train_step(
    model: mdl.TransformerModel,
    bank: mb.MemoryBank | None,
    batch: dict,
    state: TrainState,
    cfg: TrainConfig,
) -> dict:
    """One optimizer step over row shards of the batch (see the module doc).
    A step whose loss is not finite is aborted: it runs no backward and moves
    no parameter or optimizer state, but the schedule advances. Returns the
    step's metrics row as a dict."""
    B = batch["inputs"].shape[0]
    lr = cosine_lr(state.step + 1, cfg)
    train_anchor = cfg.regime != "memory"

    generic_rows = np.zeros(B, dtype=bool)
    fm = None
    if bank is not None:
        generic_rows = state.rng.random(B) < 1.0 / (bank.k + 1)
        fm = mb.fetch(bank, batch["leaf_flats"], generic_rows)

    shards = [_Shard(model, slice(a, b), [] if fm is None else fm.levels, train_anchor) for a, b in _row_ranges(B)]
    # every shard divides by the whole batch's weight sum, as one tape would
    w = np.asarray(batch["weights"], dtype=model.dtype).reshape(-1)
    denom = w.sum()
    _on_shards(lambda s: s.forward(bank, batch, denom), shards)

    # the shards' losses are their shares of the batch mean; when they are
    # finite, the mean is summed over the pointwise NLL in row order, as an
    # unsharded cross_entropy sums it
    wnll = np.concatenate([s.loss._pointwise for s in shards]) * w
    loss_val = sum(float(s.loss.data) for s in shards)
    if math.isfinite(loss_val):
        loss_val = float(np.asarray(wnll.sum() / denom, dtype=model.dtype))

    row_w = w.reshape(B, -1).sum(axis=1)
    row_nll = np.divide(wnll.reshape(B, -1).sum(axis=1), row_w, out=np.zeros(B), where=row_w > 0)
    metrics = {
        "step": state.step + 1,
        "lr": lr,
        "loss": loss_val,
        "loss_fetched": float(row_nll[~generic_rows].mean()) if (~generic_rows).any() else float("nan"),
        "loss_generic": float(row_nll[generic_rows].mean()) if generic_rows.any() else float("nan"),
        "tokens_seen": state.tokens_seen + float(denom),
        "grad_norm": float("nan"),
    }
    if math.isfinite(loss_val):
        _on_shards(_Shard.backward, shards)
        metrics["grad_norm"] = _apply_gradients(model, bank, fm, generic_rows, shards, state, lr)
    else:
        state.aborted += 1
    state.step += 1
    state.tokens_seen = metrics["tokens_seen"]
    state.metrics.append([metrics[c] for c in METRIC_COLUMNS])
    return metrics


def _apply_gradients(model: mdl.TransformerModel, bank: mb.MemoryBank | None, fm: mb.FetchedMemory | None,
                     generic_rows: np.ndarray, shards: list[_Shard], state: TrainState, lr: float) -> float:
    """Clip the shards' gradients and apply AdamW to every array they reach:
    the anchor's parameters when it trains, and the fetched blocks and
    generic blocks of each bank level. Returns the pre-clip global norm."""
    # (state name, array, the indices its gradients update, the gradients,
    # weight decay), in the order the clip sums. A bank level's gradients are
    # one row per fetched block; any other array takes one gradient at ``whole``.
    whole = [()]
    updates: list[tuple[str, np.ndarray, list, list, float]] = []
    for name, p in model.named_params():
        grads = [s.model.params[name].grad for s in shards]
        if grads[0] is not None:  # None on a frozen anchor
            wd = ANCHOR_WD if p.data.ndim >= 2 else 0.0  # no decay on gains
            updates.append((name, p.data, whole, [functools.reduce(np.add, grads)], wd))  # in shard order

    # scatter per-sequence memory row gradients into per-block sums
    if bank is not None:
        named = list(mb.bank_arrays(bank.levels, bank.generic).items())  # the levels, then the generic blocks
        for l in range(bank.depth):
            grads = [s.levels[l].grad for s in shards]
            if grads[0] is None:
                continue
            g = np.concatenate(grads)  # row order
            (name, lvl), (gname, gen) = named[l], named[bank.depth + l]
            fetched = fm.blocks[l] >= 0
            if fetched.any():
                ids, inv = np.unique(fm.blocks[l][fetched], return_inverse=True)
                gsum = np.zeros((ids.shape[0], g.shape[1]), dtype=np.float32)
                # row by row in batch order: the sums np.add.at gives, without its per-element loop
                for j, row in zip(inv, g[fetched].astype(np.float32, copy=False)):
                    gsum[j] += row
                updates.append((name, lvl, ids, gsum, MEMORY_WD))
            if generic_rows.any():
                updates.append((gname, gen, whole, [g[generic_rows].sum(axis=0).astype(np.float32)], MEMORY_WD))

    grad_norm = nc.clip_global_norm([g for u in updates for g in u[3]], GRAD_CLIP)

    for name, p, at, grads, wd in updates:
        st = state.opt.get(name)
        if st is None:
            steps = np.zeros(p.shape[:1] if at is not whole else (), dtype=np.int64)
            st = state.opt[name] = _AdamState(_fresh_zeros(p), _fresh_zeros(p), steps)
        # in place on views: a level's block rows, or a whole array at ()
        for i, g in zip(at, grads):
            st.steps[i] += 1
            _adamw(p[i], g, st.m[i], st.v[i], int(st.steps[i]), lr, wd)
    return grad_norm


# ---------------------------------------------------------------------------
# state serialization
# ---------------------------------------------------------------------------

OPT_PARTS = ("m", "v", "steps")  # the arrays opt.<name>.<part> of one state


def save_state(state: TrainState, path) -> None:
    meta = {
        "config": asdict(state.cfg),
        "step": state.step,
        "aborted": state.aborted,
        "tokens_seen": state.tokens_seen,
        "epoch_pos": state.epoch_pos,
        "rng_state": json.loads(json.dumps(state.rng.bit_generator.state)),
    }
    arrays: dict[str, np.ndarray] = {"sched.order": state.epoch_order.astype(np.int64)}
    arrays["metrics.rows"] = np.asarray(state.metrics, dtype=np.float64).reshape(-1, len(METRIC_COLUMNS))
    for name in sorted(state.opt):
        st = state.opt[name]
        arrays |= {f"opt.{name}.{part}": getattr(st, part) for part in OPT_PARTS}
    fileio.write_artifact(path, STATE_MAGIC, meta, arrays)


def load_state(path) -> TrainState:
    """The state a ``trainstate.bin`` holds. A file whose arrays are not
    ``sched.order``, ``metrics.rows`` and complete ``opt.<name>.m``, ``.v``
    and int64 ``.steps`` triples, such as one with per-block state, is an
    ``ArtifactError``. Whether the states fit a model and bank is checked
    when a run resumes. So are metadata of the wrong types: ``step``,
    ``aborted`` and ``epoch_pos`` must be ints >= 0, ``tokens_seen`` a
    finite float and ``rng_state`` a generator state, ``sched.order`` 1-D
    int64 and ``metrics.rows`` float64."""
    _, meta, arrays = fileio.read_artifact(path, expect_magic=STATE_MAGIC)
    if "opt_steps" in meta:
        raise fileio.ArtifactError(f"{path}: per-block optimizer state from an older version, which is not read")
    parts: dict[str, dict[str, np.ndarray]] = {}
    for key, arr in arrays.items():
        if key in ("sched.order", "metrics.rows"):
            continue
        name, _, part = key.removeprefix("opt.").rpartition(".")
        if not key.startswith("opt.") or not name or part not in OPT_PARTS:
            raise fileio.ArtifactError(f"{path}: unknown array {key!r}")
        parts.setdefault(name, {})[part] = arr
    for name, have in parts.items():
        if len(have) < len(OPT_PARTS):
            raise fileio.ArtifactError(f"{path}: optimizer state {name!r} has {sorted(have)}, not {list(OPT_PARTS)}")
        if have["steps"].dtype != np.int64:
            raise fileio.ArtifactError(f"{path}: opt.{name}.steps is {have['steps'].dtype}, expected int64")
    if arrays["metrics.rows"].shape[1:] != (len(METRIC_COLUMNS),):
        raise TrainError(f"{path}: metrics rows are not the {len(METRIC_COLUMNS)} columns {METRIC_COLUMNS}")
    order, rows = arrays["sched.order"], arrays["metrics.rows"]
    if order.dtype != np.int64 or order.ndim != 1 or rows.dtype != np.float64:
        raise fileio.ArtifactError(f"{path}: sched.order is {order.dtype} {order.shape} and metrics.rows "
                                   f"{rows.dtype}, expected 1-D int64 and float64")
    for key in ("step", "aborted", "epoch_pos"):
        if not (type(meta[key]) is int and meta[key] >= 0):  # type, not isinstance, so a bool is refused
            raise fileio.ArtifactError(f"{path}: {key} {meta[key]!r} is not an int >= 0")
    tokens = meta["tokens_seen"]  # a float sum of weights, written as a float even when whole
    if not (isinstance(tokens, float) and math.isfinite(tokens)):
        raise fileio.ArtifactError(f"{path}: tokens_seen {tokens!r} is not a finite float")
    state = TrainState(fileio.stored_config(TrainConfig, meta["config"], path))
    state.step = meta["step"]
    state.aborted = meta["aborted"]
    state.tokens_seen = tokens
    state.epoch_pos = meta["epoch_pos"]
    state.epoch_order = order
    state.metrics = [list(r) for r in rows]
    state.rng = np.random.default_rng()
    try:
        state.rng.bit_generator.state = meta["rng_state"]
    except (TypeError, ValueError, KeyError) as e:
        raise fileio.ArtifactError(f"{path}: rng_state is not a generator state ({e})") from None
    state.opt = {name: _AdamState(**have) for name, have in parts.items()}
    return state


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

# TrainConfig fields a resumed run may change: none of them alters a step
RESUMABLE_CHANGES = ("total_steps", "checkpoint_interval", "log_interval")


def _check_resume(state: TrainState, cfg: TrainConfig, model: mdl.TransformerModel,
                  bank: mb.MemoryBank | None) -> None:
    """Refuse a state that was trained under another config, or whose optimizer
    states do not fit the arrays of the same names: ``m`` and ``v`` shaped like
    the array and of its dtype, ``steps`` one count per block of a bank level
    and a single count otherwise."""
    stored, run = asdict(state.cfg), asdict(cfg)
    differ = [f for f in stored if f not in RESUMABLE_CHANGES and stored[f] != run[f]]
    if differ:
        raise TrainError("resume state was trained with another config: "
                         + ", ".join(f"{f} {stored[f]!r}, this run {run[f]!r}" for f in differ))
    trained = {name: (t.data, ()) for name, t in model.named_params()}
    if bank is not None:
        trained |= {name: (a, a.shape[:-1]) for name, a in mb.bank_arrays(bank.levels, bank.generic).items()}
    for name, st in state.opt.items():
        if name not in trained:
            raise TrainError(f"resume state: optimizer state {name!r} names no trained array")
        p, steps = trained[name]
        got = (st.m.shape, st.m.dtype, st.v.shape, st.v.dtype, st.steps.shape)
        if got != (p.shape, p.dtype, p.shape, p.dtype, steps):
            raise TrainError(f"resume state: opt.{name} holds m/v {got[0]} {got[1]}/{got[2]} {got[3]} and steps "
                             f"{got[4]}; {name} needs {p.shape} {p.dtype} and steps {steps}")


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


def _keep_freed_pages() -> bool:
    """Make the C allocator keep the pages of freed arrays for reuse.

    Two loops call it on entry, because each allocates the same shapes over
    and over: ``train_run``, whose every step does, and
    ``evals.fact_recall``, whose every decode batch does. By default glibc
    maps an array of 128 KiB or more on its own and unmaps it when it is
    freed, and it gives the free top of its heap back to the system once
    that passes its trim threshold; both thresholds rise on the fly, up to
    32 MiB and 64 MiB, but only as far as the largest mapped array freed so
    far. So a step or batch faults in fresh zeroed pages for what the last
    one freed. With every array under 32 MiB on the heap and the heap never
    trimmed, freed arrays stay on the heap for the next step, batch or run,
    in glibc's free lists, with no size classes to fill. Setting either
    threshold switches off glibc's dynamic mmap threshold, so both are set:
    one alone would leave the other at 128 KiB.

    One arena. The helper thread that runs a train step's or a decode
    prefill's other row shards (see ``_on_shards``) would get an arena of
    its own from glibc, which keeps the high-water of that thread's shards
    apart from the main heap. Capping glibc at one arena makes the helper
    allocate from, and free into, the main heap, so either thread reuses
    what the other freed. glibc reads the cap when a thread first needs an
    arena, and both loops call this before their first shard.

    The settings are process-wide and permanent: they hold for every later
    allocation in the process, and the heap does not shrink again. Where
    the C library has no ``mallopt`` nothing is set, and both loops run the
    same without the page reuse. Returns whether all three settings took;
    the first one the library refuses ends the calls.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # glibc's M_ARENA_MAX (-8) to 1, M_MMAP_THRESHOLD (-3) to 32 MiB, then
    # M_TRIM_THRESHOLD (-1) to the largest int
    return all(mallopt(param, value) == 1 for param, value in ((-8, 1), (-3, 32 << 20), (-1, 2**31 - 1)))


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
    if (bank is None) != (cfg.regime == "scratch"):
        raise TrainError(f"regime {cfg.regime!r} trains "
                         + ("a memory bank, and this run has none" if bank is None
                            else "no memory bank, and this run was given one"))
    _keep_freed_pages()  # every step has the same shapes: the next one reuses what this one frees
    if resume_state is not None:
        _check_resume(resume_state, cfg, model, bank)
        state = resume_state
    else:
        state = TrainState(cfg)
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
