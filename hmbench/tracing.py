"""Span tracer for the hiermem layer modules.

The tracer replaces every public function of each layer module (and the
constructor of ``model.AttachedMemories``) with a wrapper that records a
span: name, start, end, parent span and a group id. A group is one
pipeline stage (a span with no parent), one train step or one decode
batch. Spans are kept in memory and written out when the run ends.

Wrappers live only in this benchmark; the package itself is unchanged.
Inside the package, calls go through module attributes (``nc.matmul``,
``mb.fetch``), so replacing those attributes sees every call. Names a
module imported from another (``from .membank import level_slots``) are
replaced in the importing module too.

Hooks attached to a few functions turn their arguments and results into
counts (documents embedded, bytes written, matmul flops, rows gathered).
``layer_metrics`` folds spans and counts into the per-layer metrics named
in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("embed", "cluster", "fileio", "membank", "model", "numcore", "train", "evals")

NUMCORE_OPS = (
    "matmul", "attention", "rms_norm", "rope", "silu", "mul", "add", "scale",
    "embedding", "split", "reshape", "transpose", "cross_entropy",
)

# spans that start a group of their own even when they have a parent
GROUP_ROOTS = frozenset({"train.train_step", "evals.greedy_decode_batch"})

# metrics that are ratios; every other metric is a per-round total
RATIOS = frozenset({
    "cluster.balance_converged_share", "membank.unique_block_share",
    "train.generic_row_share", "train.step_s", "train.step_tail_s",
    "train.step_tail_pct", "evals.batch_fill", "evals.positions_per_token",
    "trace.overhead",
})

# a step-time tail needs this many steps beyond it
TAIL_BEYOND = 10


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# ---------------------------------------------------------------------------
# hooks: (tracer, span, args, kwargs, result) -> None, run after the span
# ---------------------------------------------------------------------------

def _embed_batch(tr, span, args, kwargs, out):
    texts = _arg(args, kwargs, 0, "texts")
    tr.counts["embed.docs"] += len(texts)
    tr.counts["embed.bytes"] += sum(len(t.encode("utf-8")) for t in texts)


def _train_tree(tr, span, args, kwargs, out):
    stats = out.meta["node_stats"].values()
    tr.counts["cluster.nodes"] += len(stats)
    tr.counts["cluster.pool_rows"] += sum(s["pool_size"] for s in stats)
    tr.counts["cluster.converged"] += sum(bool(s["balance_converged"]) for s in stats)


def _assign_batch(tr, span, args, kwargs, out):
    tr.counts["cluster.assigned"] += out.shape[0]


def _write_artifact(tr, span, args, kwargs, out):
    tr.counts["fileio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _read_artifact(tr, span, args, kwargs, out):
    tr.counts["fileio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _pack_corpus(tr, span, args, kwargs, out):
    tr.counts["train.sequences"] += len(out)


def _train_step(tr, span, args, kwargs, out):
    tr.step_s.append(span_seconds(span))
    if not math.isfinite(out["loss"]):
        tr.counts["train.aborted"] += 1


def _forward(tr, span, args, kwargs, out):
    n = np.asarray(_arg(args, kwargs, 1, "tokens")).size
    tr.counts["model.forward_positions"] += n
    if tr.open_names["evals.greedy_decode_batch"]:
        tr.counts["evals.decode_positions"] += n


def _attach(tr, span, args, kwargs, out):
    """Block reuse in one batch of attached memory rows, per level."""
    level_rows = _arg(args, kwargs, 3, "level_rows")
    workload = tr.context.get("workload")
    bank = workload.bank if workload is not None else None
    in_step = bool(tr.open_names["train.train_step"])
    for lv, t in enumerate(level_rows, start=1):
        rows = t.data
        generic = np.zeros(rows.shape[0], dtype=bool)
        if bank is not None:
            generic = np.all(rows == bank.generic[lv - 1], axis=1)
        fetched = rows[~generic]
        if in_step:
            tr.counts["train.rows"] += rows.shape[0]
            tr.counts["train.generic_rows"] += int(generic.sum())
        # rows of one block are identical; np.unique(axis=0) would build
        # a structured dtype with one field per column, so key on bytes
        seen = Counter(row.tobytes() for row in fetched)
        tr.counts["membank.fetched_rows"] += fetched.shape[0]
        tr.counts["membank.distinct_blocks"] += len(seen)
        tr.counts[f"inputs.repeat_rows_l{lv}"] += sum(n for n in seen.values() if n > 1)
        tr.counts[f"inputs.fetched_rows_l{lv}"] += fetched.shape[0]


def _matmul(tr, span, args, kwargs, out):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    tr.counts["numcore.matmul.flops"] += 2 * out.data.size * a.data.shape[-1]
    # a 2-D right operand is a shared anchor weight; a stacked (B, k, n)
    # one is a per-sequence memory weight
    key = "numcore.matmul.shared_s" if b.data.ndim == 2 else "numcore.matmul.batched_s"
    tr.counts[key] += span_seconds(span)


def _fetch(tr, span, args, kwargs, out):
    tr.counts["membank.rows_gathered"] += len(out.levels)
    tr.counts["membank.bytes_gathered"] += sum(x.nbytes for x in out.levels)


def _decode(tr, span, args, kwargs, out):
    tr.counts["evals.decode_rows"] += out.shape[0]
    tr.counts["evals.tokens_generated"] += out.size


HOOKS = {
    "embed.embed_batch": _embed_batch,
    "cluster.train_tree": _train_tree,
    "cluster.assign_batch": _assign_batch,
    "fileio.write_artifact": _write_artifact,
    "fileio.read_artifact": _read_artifact,
    "train.pack_corpus": _pack_corpus,
    "train.train_step": _train_step,
    "model.forward": _forward,
    "model.AttachedMemories": _attach,
    "numcore.matmul": _matmul,
    "membank.fetch": _fetch,
    "evals.greedy_decode_batch": _decode,
}


def span_seconds(span) -> float:
    return (span[5] - span[4]) / 1e9


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Context manager that wraps the layer modules while it is entered.

    ``context`` carries what hooks need: the ``workload``, whose ``bank``
    attribute is the bank in use (to tell generic rows from fetched ones),
    and the decode ``batch_size``.
    """

    def __init__(self, context: dict | None = None):
        self.context = dict(context or {})
        self.spans: list[list] = []  # [id, parent, group, name, start_ns, end_ns]
        self._stack: list[list] = []
        self.open_names: Counter = Counter()
        self.counts: defaultdict = defaultdict(float)
        self.step_s: list[float] = []
        self._restore: list[tuple] = []
        self._paused = 0

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, exc_type, exc, tb):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block run untraced (output checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        group = sid if parent is None or name in GROUP_ROOTS else parent[2]
        span = [sid, parent[0] if parent else None, group, name, time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._stack.append(span)
        self.open_names[name] += 1
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()
        self.open_names[span[3]] -= 1

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, span, args, kwargs, out)
            return out

        return traced

    def _install(self) -> None:
        import hiermem

        every = [
            importlib.import_module(f"hiermem.{m.name}")
            for m in pkgutil.iter_modules(hiermem.__path__)
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"hiermem.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for m in every:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, traced)
                            self._restore.append((m, a, fn))
        cls = importlib.import_module("hiermem.model").AttachedMemories
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("model.AttachedMemories", cls.__init__)

    def write_spans(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0
        with open(path, "w") as fh:
            for sid, parent, group, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "group": group, "name": name,
                    "start": (start - t0) / 1e9, "end": (end - t0) / 1e9,
                }) + "\n")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest sample with TAIL_BEYOND samples above it, and its percentile."""
    if len(values) <= TAIL_BEYOND:
        return 0.0, 0.0
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def layer_metrics(tracer: Tracer, rounds: int, overhead: float) -> dict:
    """Per-layer metrics of ``rounds`` traced rounds.

    Times and counts are per round (totals divided by ``rounds``); the
    names in RATIOS are ratios of the pooled totals.
    """
    spans = tracer.spans
    child_s: defaultdict = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_s[s[1]] += span_seconds(s)
    fn_s: defaultdict = defaultdict(float)
    fn_self_s: defaultdict = defaultdict(float)
    fn_calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    for s in spans:
        name, dur = s[3], span_seconds(s)
        layer = name.split(".", 1)[0]
        fn_s[name] += dur
        fn_self_s[name] += dur - child_s[s[0]]
        fn_calls[name] += 1
        self_s[layer] += dur - child_s[s[0]]
        if s[1] is None or spans[s[1]][3].split(".", 1)[0] != layer:
            busy[layer] += dur
    c = tracer.counts
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_s[layer]

    m["embed.docs"] = c["embed.docs"]
    m["embed.bytes"] = c["embed.bytes"]

    m["cluster.train_tree_s"] = fn_s["cluster.train_tree"]
    m["cluster.nodes"] = c["cluster.nodes"]
    m["cluster.pool_rows"] = c["cluster.pool_rows"]
    m["cluster.balance_converged_share"] = _share(c["cluster.converged"], c["cluster.nodes"])
    m["cluster.assign_s"] = fn_s["cluster.assign_batch"]
    m["cluster.assigned"] = c["cluster.assigned"]

    m["fileio.write_s"] = fn_s["fileio.write_artifact"]
    m["fileio.read_s"] = fn_s["fileio.read_artifact"]
    m["fileio.bytes_written"] = c["fileio.bytes_written"]
    m["fileio.bytes_read"] = c["fileio.bytes_read"]

    m["train.pack_s"] = fn_s["train.pack_corpus"]
    m["train.sequences"] = c["train.sequences"]
    m["train.build_batch_s"] = fn_s["train.build_batch"]
    m["train.steps"] = fn_calls["train.train_step"]
    m["train.aborted"] = c["train.aborted"]
    m["train.step_s"] = statistics.median(tracer.step_s) if tracer.step_s else 0.0
    m["train.step_tail_s"], m["train.step_tail_pct"] = _tail(tracer.step_s)
    # step minus forward, backward, attach, clip and loss: gather, scatter, AdamW
    m["train.step_self_s"] = fn_self_s["train.train_step"]
    m["train.generic_row_share"] = _share(c["train.generic_rows"], c["train.rows"])

    m["membank.unique_block_share"] = _share(c["membank.distinct_blocks"], c["membank.fetched_rows"])
    m["membank.fetch_calls"] = fn_calls["membank.fetch"]
    m["membank.fetch_s"] = fn_s["membank.fetch"]
    m["membank.rows_gathered"] = c["membank.rows_gathered"]
    m["membank.bytes_gathered"] = c["membank.bytes_gathered"]

    m["model.forward_calls"] = fn_calls["model.forward"]
    m["model.forward_s"] = fn_s["model.forward"]
    m["model.forward_positions"] = c["model.forward_positions"]
    m["model.attach_s"] = fn_s["model.AttachedMemories"]

    for op in NUMCORE_OPS:
        m[f"numcore.{op}.calls"] = fn_calls[f"numcore.{op}"]
        m[f"numcore.{op}.s"] = fn_s[f"numcore.{op}"]
    m["numcore.matmul.shared_s"] = c["numcore.matmul.shared_s"]
    m["numcore.matmul.batched_s"] = c["numcore.matmul.batched_s"]
    m["numcore.matmul.flops"] = c["numcore.matmul.flops"]
    m["numcore.backward_s"] = fn_s["numcore.backward"]
    m["numcore.clip_s"] = fn_s["numcore.clip_global_norm"]

    batches = fn_calls["evals.greedy_decode_batch"]
    m["evals.route_s"] = fn_s["evals.route_texts"]
    m["evals.decode_s"] = fn_s["evals.greedy_decode_batch"]
    m["evals.decode_batches"] = batches
    m["evals.batch_fill"] = _share(c["evals.decode_rows"], batches * tracer.context.get("batch_size", 0))
    m["evals.tokens_generated"] = c["evals.tokens_generated"]
    m["evals.positions_per_token"] = _share(c["evals.decode_positions"], c["evals.tokens_generated"])

    m["trace.overhead"] = overhead
    return {k: (float(v) if k in RATIOS else float(v) / rounds) for k, v in m.items()}


def input_shares(tracer: Tracer, depth: int) -> dict:
    """Share of fetched rows whose block repeats within its batch, for each
    level that fetched any."""
    c = tracer.counts
    return {
        f"repeat_row_share_l{lv}": _share(c[f"inputs.repeat_rows_l{lv}"], c[f"inputs.fetched_rows_l{lv}"])
        for lv in range(1, depth + 1) if c[f"inputs.fetched_rows_l{lv}"]
    }
