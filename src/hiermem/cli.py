"""Command-line pipeline: cluster, train, eval, simulate, block, inspect.

Every command resolves one RunConfig (file + flag overrides) and writes its
outputs under the config's out directory. [run] seed, or --seed, is the
one seed of a run: it seeds the embedder hash, the tree's k-means, the
model and bank init, the packing order and the batch and generic draws.
Each artifact records the configs it was built from and the names and
sha256 of its input files, and nothing else of the run config, so a
setting a command does not read never changes its output bytes.
Besides [run], each command reads only the sections that no input fixes:
`cluster` [embedder], [cluster] (tree.bin records the embedder) and the
number of [memory] rs values, which is the tree's depth;
`train` [train], [anchor] without --init and [memory] without --bank;
`eval` and `block` [eval]; `simulate` [anchor] and [memory] (its rs sets
the bank's depth), so neither [run] seed nor [cluster] k enters its
output. `simulate` replays, in file order, the `routed` paths of the
`recall_<mode>.jsonl` that `eval --mode fetched` or `block` wrote, and
writes latency.csv and leaf_visits.csv.
`train` embeds with the tree's embedder and lays a new bank out for the
model it trains. A tree that records no embedder, a --bank under [train]
regime = scratch, or a bank that does not fit the tree or the model is
refused; `membank.check_fits` is the one fit rule, and the CLI runs it
before the corpus is embedded or a prompt is routed.
Exit codes: 0 success, 1 runtime failure, 2 bad config or usage.

BLAS threads: the CLI sets OPENBLAS_NUM_THREADS to 1 before numpy loads,
unless it is set already, in which case the user's value is kept.
`train` runs each step's batch as row shards on two threads of its own
(see `train.train_step`), and OpenBLAS threads under each shard compete
with them for the CPUs. On a 2-vCPU host, benchmark `train` rounds with
two BLAS threads ran 7084-8367 positions/s sharded and 7561-8656
unsharded; with one BLAS thread, sharded rounds run about 14000. A
program that imports hiermem instead of running the CLI chooses its own.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import Counter
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import cluster as cl
from . import config as hc
from . import embed as em
from . import evals as ev
from . import fileio
from . import membank as mb
from . import model as mdl
from . import tiersim as ts
from . import train as tr


def _load(args) -> hc.RunConfig:
    return hc.load_config(args.config, seed=args.seed, out=args.out)


def _outdir(rc: hc.RunConfig) -> Path:
    d = Path(rc.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _read_corpus(path) -> list[str]:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ev.EvalError(f"corpus {path} is not UTF-8: byte {e.start} is {raw[e.start]:#04x}") from None
    # lines split as a text-mode file splits them: at \n, \r\n and \r
    docs = [line.rstrip("\n") for line in io.StringIO(text, newline=None)]
    docs = [d for d in docs if d]
    if not docs:
        raise ev.EvalError(f"corpus {path} has no documents")
    return docs


def _provenance(**inputs) -> dict:
    # the file name, not the path: artifact bytes must not depend on where
    # the inputs sit or where the command runs
    return {f"input_{name}": {"name": Path(p).name, "sha256": fileio.sha256_file(p)}
            for name, p in inputs.items()}


def _load_tree(path) -> cl.ClusterTree:
    tree = cl.load_tree(path)
    if tree.embedder is None:
        raise fileio.ArtifactError(f"{path}: the tree records no embedder; rebuild it with `hiermem cluster`")
    return tree


def cmd_cluster(args) -> int:
    rc = _load(args)
    out = _outdir(rc)
    docs = _read_corpus(args.corpus)
    vecs = em.embed_batch(docs, rc.embedder)
    tree = cl.train_tree(vecs, rc.cluster)
    tree.embedder = rc.embedder
    tree_path = out / "tree.bin"
    cl.save_tree(tree, tree_path, extra_meta=_provenance(corpus=args.corpus))
    paths = cl.assign_batch(vecs, tree)
    index_path = out / "doc_index.csv"
    fileio.write_csv(index_path, ["doc"] + [f"level{l}" for l in range(1, tree.depth + 1)],
                     ([i, *row] for i, row in enumerate(paths.tolist())))
    counts = np.bincount(cl.flats_of_paths(paths, tree.k), minlength=tree.k**tree.depth)
    print(f"tree: k={tree.k} depth={tree.depth} over {len(docs)} docs -> {tree_path}")
    print(f"doc index -> {index_path}; leaf counts min {counts.min()} max {counts.max()}")
    return 0


def cmd_train(args) -> int:
    rc = _load(args)
    out = _outdir(rc)
    docs = _read_corpus(args.corpus)
    tree = _load_tree(args.tree)
    model = mdl.load_model(args.init)[0] if args.init else mdl.init_model(rc.anchor, seed=rc.seed)

    tok = tr.ByteTokenizer()
    if model.cfg.vocab_size <= tok.EOT:
        raise hc.ConfigError(
            f"the model's vocab_size {model.cfg.vocab_size} has no id for EOT ({tok.EOT}); "
            f"it must be at least {tok.EOT + 1}"
        )
    # a packed sequence of seq_len tokens feeds the model seq_len - 1 positions
    if rc.train.seq_len - 1 > model.cfg.context_length:
        raise hc.ConfigError(f"[train] seq_len {rc.train.seq_len} feeds {rc.train.seq_len - 1} positions, "
                             f"more than the model's context length {model.cfg.context_length}")
    # the bank is checked against the tree and the model before the corpus is embedded
    bank = None
    if args.bank:
        if rc.train.regime == "scratch":
            raise hc.ConfigError("--bank was given but [train] regime = scratch trains no bank")
        bank = mb.load_bank(args.bank)
        mb.check_fits(bank, model.cfg.bank_dims, tree, hc.ConfigError)
    elif rc.train.regime != "scratch":
        if len(rc.memory.rs) != tree.depth:
            raise hc.ConfigError(
                f"[memory] rs has {len(rc.memory.rs)} levels but the tree has depth {tree.depth}"
            )
        bank = mb.init_bank(rc.memory, **model.cfg.bank_dims, k=tree.k, seed=rc.seed)

    paths = [tuple(p) for p in ev.route_texts(docs, tree, tree.embedder)]
    seqs = tr.pack_corpus([tok.encode(d) for d in docs], paths, rc.train.seq_len, tok,
                          tree.k, seed=rc.seed)

    meta = _provenance(corpus=args.corpus, tree=args.tree)
    state = tr.train_run(model, bank, seqs, rc.train, out, extra_meta=meta)
    print(f"trained {state.step} steps ({state.tokens_seen:.0f} tokens) -> {out}/ckpt_final")
    return 0


def _recall(args, rc: hc.RunConfig, mode: str, mask: mb.BlockMask | None, name: str) -> int:
    """Fact recall of ``args.checkpoint``, reported to ``recall_<name>.csv`` and ``.jsonl``."""
    out = _outdir(rc)
    model, _ = mdl.load_model(args.checkpoint)
    bank = mb.load_bank(args.bank) if args.bank else None
    if mode != "none" and bank is None:
        raise hc.ConfigError(f"{mode}-mode evaluation needs --bank")
    tree = None
    if mode == "fetched":
        if not args.tree:
            raise hc.ConfigError("fetched-mode evaluation needs --tree")
        tree = _load_tree(args.tree)
    if bank is not None:
        mb.check_fits(bank, model.cfg.bank_dims, tree, hc.ConfigError)
    facts = ev.load_facts(args.facts)
    rep = ev.fact_recall(model, bank, tree, tree.embedder if tree else None, tr.ByteTokenizer(),
                         facts, mode=mode, mask=mask, max_new=rc.eval.max_new,
                         batch_size=rc.eval.batch_size)
    ev.write_recall_report(rep, out / f"recall_{name}.csv", out / f"recall_{name}.jsonl")
    print(f"mode {rep.mode}: overall {rep.overall:.3f}"
          + (f", routing {rep.routing_accuracy:.3f}" if rep.routing_accuracy is not None else ""))
    for b in rep.buckets:
        print(f"  bucket {b['bucket']} (n={b['count']}): {b['accuracy']:.3f}")
    print(f"report -> {out}/recall_{name}.csv")
    return 0


def cmd_eval(args) -> int:
    return _recall(args, _load(args), args.mode, None, args.mode)


def cmd_simulate(args) -> int:
    rc = _load(args)
    placement = ts.parse_tier_spec(args.tierspec)
    # a level's block size does not depend on the tree's k
    sizes = mb.bank_accounting(rc.memory, **rc.anchor.bank_dims, k=1)["level_sizes"]
    if len(sizes) != placement.depth:
        raise hc.ConfigError(
            f"[memory] rs has {len(sizes)} levels but the tier spec has {placement.depth}"
        )
    routes = ev.load_routes(args.routes)
    rows = []
    for mode in ts.MODES:
        r = ts.load_latency(sizes, placement, mode=mode)
        rows.append(("load", mode, r["per_level"], r["total"]))
    sess = ts.session_latency(sizes, placement, routes)
    rows.append(("session", "parallel", sess["per_level"], sess["total"]))
    out = _outdir(rc)
    fileio.write_csv(out / "latency.csv", ("kind", "mode", "per_level_s", "total_s"), rows)
    fileio.write_csv(out / "leaf_visits.csv", [f"level{l}" for l in range(1, placement.depth + 1)] + ["visits"],
                     ([*leaf, n] for leaf, n in sorted(Counter(routes).items())))
    for kind, mode, _, total in rows:
        print(f"{kind:8s} {mode:8s} total {total:.6g} s")
    print(f"latency table -> {out}/latency.csv, leaf visits -> {out}/leaf_visits.csv")
    return 0


def cmd_block(args) -> int:
    rc = _load(args)
    roots = []
    for spec in args.subtree:
        try:
            roots.append(tuple(int(x) for x in spec.split(".")))
        except ValueError:
            raise hc.ConfigError(f"bad subtree {spec!r}; expected e.g. 2 or 2.3") from None
    mask = mb.BlockMask(roots, rc.eval.masked_policy)
    print("blocked subtrees:", ", ".join(args.subtree))
    return _recall(args, rc, "fetched", mask, "blocked")


_LOADERS = {cl.TREE_MAGIC: cl.load_tree, mdl.MODEL_MAGIC: mdl.load_model,
            mb.BANK_MAGIC: mb.load_bank, tr.STATE_MAGIC: tr.load_state}


def cmd_inspect(args) -> int:
    magic, meta, arrays = fileio.read_artifact(args.artifact)
    listing = [(name, arr.dtype, arr.shape) for name, arr in arrays.items()]
    total = sum(arr.size for arr in arrays.values())
    del arrays  # the loader reads the file again; hold its arrays only once
    # an artifact is shown only if the command that reads it would accept it
    loaded = _LOADERS[magic](args.artifact) if magic in _LOADERS else None
    print(f"{args.artifact}: {magic} v{fileio.FORMAT_VERSION}")
    for key in sorted(meta):
        val = meta[key]
        if isinstance(val, dict) and set(val) == {"name", "sha256"}:
            val = f"{val['name']} sha256:{val['sha256'][:16]}…"
        if key == "tree_meta":  # one stats dict per node; the balance line sums them up
            val = {name: v for name, v in val.items() if name != "node_stats"}
        print(f"  {key}: {val}")
    for name, dtype, shape in listing:
        print(f"  array {name}: {dtype} {shape}")
    print(f"  total elements: {total:,}")
    if magic == cl.TREE_MAGIC:
        stats = loaded.meta["node_stats"].values()
        print(f"  balance: largest child share {max(s['max_fraction'] for s in stats):.3f}, "
              f"{sum(s['balance_converged'] for s in stats)} of {len(stats)} nodes converged")
    if magic == mb.BANK_MAGIC:
        acc = mb.bank_accounting(loaded.cfg, k=loaded.k, **loaded.dims)
        print(f"  fetch {acc['fetch_params']:,} / bank {acc['bank_params']:,}")
    if magic == tr.STATE_MAGIC:
        print(f"  step {loaded.step}, aborted {loaded.aborted}")
        # a width-0 level trains nothing, so the levels with state need not be 1..n
        levels = {int(name[5:]): st for name, st in loaded.opt.items()
                  if name.startswith("level") and name[5:].isdigit()}
        for level, st in sorted(levels.items()):
            n = st.steps[:-1][st.steps[:-1] > 0]  # block rows; the last row is the generic block
            span = f", updates min {n.min()} max {n.max()}" if n.size else ""
            print(f"  level {level}: {n.size} blocks trained{span}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hiermem", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="run config file (INI)")
        sp.add_argument("--seed", type=int, default=None, help="override [run] seed")
        sp.add_argument("--out", default=None, help="override [run] out directory")

    sp = sub.add_parser("cluster", help="embed a corpus and train the cluster tree")
    common(sp)
    sp.add_argument("corpus", help="text file, one document per line")
    sp.set_defaults(fn=cmd_cluster)

    sp = sub.add_parser("train", help="pack the corpus by leaf and run one training phase")
    common(sp)
    sp.add_argument("corpus")
    sp.add_argument("tree")
    sp.add_argument("--init", default=None, help="initial model checkpoint")
    sp.add_argument("--bank", default=None, help="initial memory bank")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="fact-recall evaluation of a checkpoint")
    common(sp)
    sp.add_argument("checkpoint")
    sp.add_argument("facts", help="fact table (JSON)")
    sp.add_argument("--bank", default=None)
    sp.add_argument("--tree", default=None)
    sp.add_argument("--mode", choices=("none", "generic", "fetched"), default="fetched")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("simulate", help="storage-tier latency of the configured bank, loaded whole "
                        "and over the session of routes a recall report wrote")
    common(sp)
    sp.add_argument("tierspec", help="tier spec file")
    sp.add_argument("routes", help="recall_<mode>.jsonl that `eval --mode fetched` or `block` wrote")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("block", help="fact recall with subtrees masked out")
    common(sp)
    sp.add_argument("checkpoint")
    sp.add_argument("facts")
    sp.add_argument("subtree", nargs="+", help="subtree roots, e.g. 2 or 2.3")
    sp.add_argument("--bank", required=True)
    sp.add_argument("--tree", required=True)
    sp.set_defaults(fn=cmd_block)

    sp = sub.add_parser("inspect", help="summarize an artifact file")
    sp.add_argument("artifact")
    sp.set_defaults(fn=cmd_inspect)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except hc.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (fileio.ArtifactError, cl.ClusterError, mb.BankError, tr.TrainError,
            ts.TierError, ev.EvalError, mdl.ModelError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
