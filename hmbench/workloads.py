"""The benchmark's three workloads: set-up, one timed round, output checks.

Each workload draws its inputs from ``SyntheticCorpusSpec`` with the seed
it is given and calls only hiermem's public functions. A round is one unit
of closed-loop work (one client, the next round starts when the last one
ended); ``Round.wall`` covers only the calls into hiermem, and the output
checks run after the clock stops.

- index:  embed_batch -> train_tree -> assign_batch -> save_tree/load_tree
          -> pack_corpus over the whole corpus. Work: documents routed.
- train:  train_run in the frozen-anchor memory regime with ffn memories,
          from the same fresh model and bank every round, including the
          final checkpoint. Work: input positions.
- recall: fact_recall in fetched mode over a seeded sample of facts, with
          a perturbed bank so memory deltas are non-zero and differ by
          leaf. Work: facts recalled.
"""

from __future__ import annotations

import contextlib
import copy
import math
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hiermem import cluster as cl
from hiermem import embed as em
from hiermem import evals as ev
from hiermem import membank as mb
from hiermem import model as mdl
from hiermem import numcore as nc
from hiermem import train as tr


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark; tests shrink them."""

    topics: int = 8
    entities_per_topic: int = 64       # topics x entities = 512 facts
    fact_mentions: int = 4000
    filler_per_topic: int = 500        # 4000 + 8 x 500 = 8000 documents
    k: int = 8
    depth: int = 2
    em_steps: int = 10
    batch_per_step: int = 1024
    balance_limit: float = 0.1875      # 1.5 / k
    seq_len: int = 128
    train_batch: int = 16
    round_steps: int = 4               # optimizer steps per train round
    loss_steps: int = 2                # final steps averaged into train_loss
    rs: tuple = (16, 16)
    recall_facts: int = 128            # facts per recall round
    recall_batch: int = 64
    max_new: int = 8
    ref_facts: int = 64                # prompts decoded by the reference
    perturb_std: float = 0.05


@dataclass
class Round:
    wall: float                        # seconds inside hiermem calls
    work: float                        # docs, input positions or facts
    attempted: int                     # operations: docs, steps or facts
    failed: int
    checks: dict = field(default_factory=dict)   # check name -> passed
    quality: dict = field(default_factory=dict)
    error: str | None = None


def _quiet(*_args, **_kwargs) -> None:
    pass


def corpus(sizes: Sizes, seed: int):
    spec = ev.SyntheticCorpusSpec(
        topics=sizes.topics,
        entities_per_topic=sizes.entities_per_topic,
        total_fact_mentions=sizes.fact_mentions,
        filler_docs_per_topic=sizes.filler_per_topic,
        seed=seed,
    )
    return ev.gen_corpus(spec)


def cluster_config(sizes: Sizes, seed: int) -> cl.ClusterConfig:
    return cl.ClusterConfig(
        k=sizes.k, depth=sizes.depth, em_steps=sizes.em_steps,
        batch_per_step=sizes.batch_per_step, balance_limit=sizes.balance_limit, seed=seed,
    )


def leaf_counts(paths: np.ndarray, k: int) -> np.ndarray:
    flats = np.zeros(paths.shape[0], dtype=np.int64)
    for level in range(paths.shape[1]):
        flats = flats * k + (paths[:, level] - 1)
    return np.bincount(flats, minlength=k ** paths.shape[1])


def leaf_stats(counts: np.ndarray) -> dict:
    return {"min": int(counts.min()), "median": float(np.median(counts)), "max": int(counts.max())}


def new_bank(sizes: Sizes, acfg: mdl.AnchorConfig, seed: int) -> mb.MemoryBank:
    return mb.init_bank(
        mb.MemoryConfig(mem_type="ffn", rs=tuple(sizes.rs)),
        dim=acfg.dim, heads=acfg.num_heads, head_dim=acfg.head_dim,
        ffn_dim=acfg.ffn_dim, num_layers=acfg.num_layers, k=sizes.k, seed=seed,
    )


class Workload:
    """Set-up state plus the timed round of one workload."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = Path(workdir)
        self.ecfg = em.EmbedderConfig()
        self.ccfg = cluster_config(sizes, seed)
        self.tok = tr.ByteTokenizer()
        self.bank = None    # the memory bank the current round uses
        # context for output checks; a tracer swaps in its own pause
        self.untraced = contextlib.nullcontext

    def round(self) -> Round:
        """One timed round; an exception fails every operation in it."""
        try:
            return self._round()
        except Exception:
            n = self.ops_per_round()
            return Round(wall=0.0, work=0.0, attempted=n, failed=n, checks={"raised": False},
                         error=traceback.format_exc())

    def finish(self, rounds: list[Round]) -> dict:
        """Checks made once after the timed rounds; returns extra results."""
        return {}

    def inputs(self) -> dict:
        """Input properties later claims about the inputs can cite."""
        return {}

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def _round(self) -> Round:
        raise NotImplementedError


class Index(Workload):
    name = "index"

    def __init__(self, sizes, seed, workdir):
        super().__init__(sizes, seed, workdir)
        docs, _ = corpus(sizes, seed)
        self.texts = [d.text for d in docs]
        self.doc_tokens = sum(len(t.encode("utf-8")) for t in self.texts)
        self.last_counts = None

    def ops_per_round(self) -> int:
        return len(self.texts)

    def _round(self) -> Round:
        path = self.workdir / "tree.bin"
        t0 = perf_counter()
        vecs = em.embed_batch(self.texts, self.ecfg)
        tree = cl.train_tree(vecs, self.ccfg)
        paths = cl.assign_batch(vecs, tree)
        cl.save_tree(tree, path)
        loaded = cl.load_tree(path)
        seqs = tr.pack_corpus([self.tok.encode(t) for t in self.texts], [tuple(p) for p in paths],
                              self.sizes.seq_len, self.tok, loaded.k, seed=self.seed)
        wall = perf_counter() - t0

        with self.untraced():
            return self._check_index(tree, loaded, paths, seqs, path, wall)

    def _check_index(self, tree, loaded, paths, seqs, path, wall) -> Round:
        n = len(self.texts)
        k, depth = self.sizes.k, self.sizes.depth
        bad_rows = n
        if paths.shape == (n, depth):
            bad_rows = int((~((paths >= 1) & (paths <= k)).all(axis=1)).sum())
        counts = leaf_counts(np.clip(paths, 1, k), k) if paths.shape == (n, depth) else np.zeros(1)
        checks = {
            "valid_leaves": bad_rows == 0,
            "leaf_counts_sum": int(counts.sum()) == n,
            "tree_roundtrip": self._roundtrip_equal(tree, loaded, path),
            "packing_keeps_tokens": sum(e - a for s in seqs for a, e in s.spans) == self.doc_tokens,
        }
        self.last_counts = counts
        failed = n if not all(checks.values()) else bad_rows
        return Round(wall=wall, work=n, attempted=n, failed=failed, checks=checks,
                     quality={"tree_max_leaf_share": float(counts.max() / n)})

    def _roundtrip_equal(self, tree, loaded, path: Path) -> bool:
        """load_tree(save_tree(t)) is array-equal and re-saves byte-identical."""
        same = (
            loaded.config == tree.config and loaded.dim == tree.dim
            and loaded.meta == tree.meta and len(loaded.levels) == len(tree.levels)
            and all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(tree.levels, loaded.levels))
        )
        again = self.workdir / "tree_again.bin"
        cl.save_tree(loaded, again)
        return same and again.read_bytes() == path.read_bytes()

    def inputs(self) -> dict:
        c = self.last_counts
        if c is None:
            return {}
        return {"docs": len(self.texts), "docs_per_leaf": leaf_stats(c)}


class Train(Workload):
    name = "train"

    def __init__(self, sizes, seed, workdir):
        super().__init__(sizes, seed, workdir)
        docs, _ = corpus(sizes, seed)
        texts = [d.text for d in docs]
        vecs = em.embed_batch(texts, self.ecfg)
        tree = cl.train_tree(vecs, self.ccfg)
        paths = cl.assign_batch(vecs, tree)
        self.leaf_counts = leaf_counts(paths, sizes.k)
        self.seqs = tr.pack_corpus([self.tok.encode(t) for t in texts], [tuple(p) for p in paths],
                                   sizes.seq_len, self.tok, sizes.k, seed=seed)
        self.acfg = mdl.AnchorConfig()
        self.fresh_model = mdl.init_model(self.acfg, seed=seed)
        self.fresh_bank = new_bank(sizes, self.acfg, seed)
        self.tcfg = tr.TrainConfig(
            regime="memory", batch_size=sizes.train_batch, seq_len=sizes.seq_len,
            total_steps=sizes.round_steps, warmup_steps=sizes.round_steps // 4,
            log_interval=0, seed=seed,
        )
        self.first_loss = None

    def ops_per_round(self) -> int:
        return self.sizes.round_steps

    def _round(self) -> Round:
        model = copy.deepcopy(self.fresh_model)
        bank = self.bank = copy.deepcopy(self.fresh_bank)
        run_dir = self.workdir / "train"
        t0 = perf_counter()
        state = tr.train_run(model, bank, self.seqs, self.tcfg, run_dir, log=_quiet)
        wall = perf_counter() - t0
        with self.untraced():
            return self._check_train(state, model, bank, run_dir, wall)

    def _check_train(self, state, model, bank, run_dir, wall) -> Round:
        steps = self.sizes.round_steps
        losses = [row[tr.METRIC_COLUMNS.index("loss")] for row in state.metrics]
        loss = float(np.mean(losses[-self.sizes.loss_steps:]))
        if self.first_loss is None:
            self.first_loss = loss
        checks = {
            "no_aborted_steps": state.aborted == 0,
            "finite_loss": all(math.isfinite(x) for x in losses),
            "checkpoint_roundtrip": self._checkpoint_equal(run_dir / "ckpt_final", model, bank),
            # every round trains the same copy on the same data
            "bit_exact_rerun": loss == self.first_loss or not math.isfinite(loss),
        }
        failed = steps if not all(v for c, v in checks.items() if c != "no_aborted_steps") else state.aborted
        positions = self.sizes.train_batch * (self.sizes.seq_len - 1) * state.step
        return Round(wall=wall, work=positions, attempted=steps, failed=int(failed), checks=checks,
                     quality={"train_loss": loss})

    @staticmethod
    def _checkpoint_equal(ckpt: Path, model, bank) -> bool:
        loaded, _ = mdl.load_model(ckpt / "model.ckpt")
        lb = mb.load_bank(ckpt / "bank.bin")
        if loaded.cfg != model.cfg or list(loaded.params) != list(model.params):
            return False
        if not all(np.array_equal(loaded.params[n].data, p.data) for n, p in model.params.items()):
            return False
        pairs = list(zip(lb.levels, bank.levels)) + list(zip(lb.generic, bank.generic))
        return lb.cfg == bank.cfg and all(np.array_equal(a, b) for a, b in pairs)

    def inputs(self) -> dict:
        return {"sequences": len(self.seqs), "docs_per_leaf": leaf_stats(self.leaf_counts)}


class Recall(Workload):
    name = "recall"

    def __init__(self, sizes, seed, workdir):
        super().__init__(sizes, seed, workdir)
        docs, facts = corpus(sizes, seed)
        vecs = em.embed_batch([d.text for d in docs], self.ecfg)
        self.tree = cl.train_tree(vecs, self.ccfg)
        self.leaf_counts = leaf_counts(cl.assign_batch(vecs, self.tree), sizes.k)
        self.acfg = mdl.AnchorConfig()
        self.model = mdl.init_model(self.acfg, seed=seed)
        self.bank = new_bank(sizes, self.acfg, seed)
        rng = np.random.default_rng([seed, 0x4EC411])
        for lv in range(self.bank.depth):
            self.bank.levels[lv] += rng.normal(0.0, sizes.perturb_std, self.bank.levels[lv].shape).astype(np.float32)
            self.bank.generic[lv] += rng.normal(0.0, sizes.perturb_std, self.bank.generic[lv].shape).astype(np.float32)
        pick = np.sort(rng.permutation(len(facts))[: sizes.recall_facts])
        self.facts = [facts[i] for i in pick]
        self.first_report = None

    def ops_per_round(self) -> int:
        return len(self.facts)

    def _round(self) -> Round:
        s = self.sizes
        t0 = perf_counter()
        rep = ev.fact_recall(self.model, self.bank, self.tree, self.ecfg, self.tok, self.facts,
                             mode="fetched", max_new=s.max_new, batch_size=s.recall_batch)
        wall = perf_counter() - t0
        # the reference decode in finish() reads the first round's report
        if self.first_report is None:
            self.first_report = rep
        # every round decodes the same prompts with the same weights
        first = self.first_report.traces
        differs = sum(a["predicted"] != b["predicted"] or a["routed"] != b["routed"]
                      for a, b in zip(rep.traces, first))
        checks = {"bit_exact_rerun": differs == 0 and len(rep.traces) == len(first)}
        failed = len(self.facts) if len(rep.traces) != len(first) else differs
        return Round(wall=wall, work=len(self.facts), attempted=len(self.facts), failed=failed,
                     checks=checks, quality={"recall_accuracy": rep.overall})

    def finish(self, rounds: list[Round]) -> dict:
        """Reference decode on a fixed subset, after the timed rounds.

        The reference reruns the full forward for every token and gathers
        memory rows straight from the bank arrays. ``decode_match`` is the
        share of tokens ``greedy_decode_batch`` decodes equal to it; a fact
        whose decoded tokens or whose ``fact_recall`` prediction differ
        from the reference fails.
        """
        if self.first_report is None:
            return {"decode_match": 0.0, "failed": 0}
        subset = list(range(min(self.sizes.ref_facts, len(self.facts))))
        matched = total = 0
        bad = set()
        groups: dict[int, list[int]] = {}
        for i in subset:
            groups.setdefault(len(ev.fact_prompt(self.facts[i]).encode("utf-8")), []).append(i)
        for idx in groups.values():
            toks = np.stack([self.tok.encode(ev.fact_prompt(self.facts[i])) for i in idx])
            paths = np.array([self.first_report.traces[i]["routed"] for i in idx], dtype=np.int64)
            ref = reference_decode(self.model, self.bank, toks, paths, self.sizes.max_new)
            got = ev.greedy_decode_batch(self.model, toks, self.sizes.max_new,
                                         attach_rows(self.model, self.bank, paths))
            same = got == ref
            matched += int(same.sum())
            total += same.size
            for j, i in enumerate(idx):
                want = extract_prediction(self.tok, ref[j])
                if not same[j].all() or self.first_report.traces[i]["predicted"] != want:
                    bad.add(i)
        return {"decode_match": matched / total if total else 0.0, "failed": len(bad)}

    def inputs(self) -> dict:
        lengths = Counter(len(ev.fact_prompt(f).encode("utf-8")) for f in self.facts)
        b = self.sizes.recall_batch
        batches = sum(math.ceil(g / b) for g in lengths.values())
        return {
            "facts": len(self.facts),
            "prompt_lengths": sorted(lengths),
            "batch_fill": len(self.facts) / (batches * b),
            "docs_per_leaf": leaf_stats(self.leaf_counts),
        }


def attach_rows(model, bank, paths: np.ndarray):
    """Memories for root-to-leaf ``paths``, gathered from the bank arrays."""
    k = bank.k
    flats = np.zeros(paths.shape[0], dtype=np.int64)
    rows = []
    for lv in range(bank.depth):
        flats = flats * k + (paths[:, lv] - 1)
        rows.append(nc.Tensor(bank.levels[lv][flats].astype(model.dtype)))
    return mdl.AttachedMemories(bank.cfg, model.cfg, rows)


def reference_decode(model, bank, toks: np.ndarray, paths: np.ndarray, max_new: int) -> np.ndarray:
    """Naive greedy decode: the full forward again for every new token."""
    mems = attach_rows(model, bank, paths)
    out = toks
    for _ in range(max_new):
        logits = mdl.forward(model, out, mems=mems)
        nxt = np.argmax(logits.data[:, -1, :], axis=-1).astype(out.dtype)
        out = np.concatenate([out, nxt[:, None]], axis=1)
    return out[:, toks.shape[1]:]


def extract_prediction(tok: tr.ByteTokenizer, out: np.ndarray):
    """The first integer before the first EOT, as fact_recall reads it."""
    stop = np.flatnonzero(out == tr.ByteTokenizer.EOT)
    if len(stop):
        out = out[: stop[0]]
    return ev.extract_int(tok.decode(out))


WORKLOADS = {w.name: w for w in (Index, Train, Recall)}
