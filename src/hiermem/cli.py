"""Command-line pipeline: cluster, train, eval, simulate, block, inspect.

Every command resolves one RunConfig (file + flag overrides), writes its
outputs under the config's out directory, and stamps the config digest
into each artifact so `inspect` can show which settings produced what.
Exit codes: 0 success, 1 runtime failure, 2 bad config or usage.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

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
    out = args.out or os.environ.get("HIERMEM_OUT")
    return hc.load_config(args.config, seed=args.seed, out=out)


def _outdir(rc: hc.RunConfig) -> Path:
    d = Path(rc.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _read_corpus(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        docs = [line.rstrip("\n") for line in fh]
    docs = [d for d in docs if d]
    if not docs:
        raise ev.EvalError(f"corpus {path} has no documents")
    return docs


def _provenance(rc: hc.RunConfig, **inputs) -> dict:
    meta = {"config_digest": rc.digest}
    for name, p in inputs.items():
        meta[f"input_{name}"] = {"path": str(p), "sha256": fileio.sha256_file(p)}
    return meta


def cmd_cluster(args) -> int:
    rc = _load(args)
    out = _outdir(rc)
    docs = _read_corpus(args.corpus)
    vecs = em.embed_batch(docs, rc.embedder)
    tree = cl.train_tree(vecs, rc.cluster)
    tree_path = out / "tree.bin"
    cl.save_tree(tree, tree_path, extra_meta=_provenance(rc, corpus=args.corpus))
    paths = cl.assign_batch(vecs, tree)
    index_path = out / "doc_index.csv"
    with open(index_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["doc"] + [f"level{l}" for l in range(1, tree.depth + 1)])
        for i, row in enumerate(paths):
            w.writerow([i] + [int(x) for x in row])
    counts = np.bincount(cl.flats_of_paths(paths, tree.k), minlength=tree.k**tree.depth)
    print(f"tree: k={tree.k} depth={tree.depth} over {len(docs)} docs -> {tree_path}")
    print(f"doc index -> {index_path}; leaf counts min {counts.min()} max {counts.max()}")
    return 0


def cmd_train(args) -> int:
    rc = _load(args)
    out = _outdir(rc)
    docs = _read_corpus(args.corpus)
    tree = cl.load_tree(args.tree)

    slots = rc.anchor.vocab_size - 1 - tr.ByteTokenizer().EOT
    if tree.k**tree.depth > slots:
        raise hc.ConfigError(
            f"[anchor] vocab_size {rc.anchor.vocab_size} leaves {slots} prefix slots; "
            f"the tree has {tree.k**tree.depth} leaves"
        )
    tok = tr.ByteTokenizer(prefix_slots=slots)
    vecs = em.embed_batch(docs, rc.embedder)
    paths = [tuple(p) for p in cl.assign_batch(vecs, tree)]
    seqs = tr.pack_corpus([tok.encode(d) for d in docs], paths, rc.train.seq_len, tok,
                          tree.k, seed=rc.seed)

    if args.init:
        model, _ = mdl.load_model(args.init)
    else:
        model = mdl.init_model(rc.anchor, seed=rc.seed)
    bank = None
    if rc.train.regime in ("memory", "cotrain"):
        if args.bank:
            bank = mb.load_bank(args.bank)
        else:
            bank = mb.init_bank(
                rc.memory, dim=rc.anchor.dim, heads=rc.anchor.num_heads,
                head_dim=rc.anchor.head_dim, ffn_dim=rc.anchor.ffn_dim,
                num_layers=rc.anchor.num_layers, k=tree.k, seed=rc.seed,
            )
        if bank.depth != tree.depth:
            raise hc.ConfigError(
                f"[memory] rs has {bank.depth} levels but the tree depth is {tree.depth}"
            )

    meta = _provenance(rc, corpus=args.corpus, tree=args.tree)
    state = tr.train_run(model, bank, seqs, rc.train, out, extra_meta=meta)
    print(f"trained {state.step} steps ({state.tokens_seen:.0f} tokens) -> {out}/ckpt_final")
    return 0


def _eval_bundle(args, rc, need_tree: bool):
    model, _ = mdl.load_model(args.checkpoint)
    bank = mb.load_bank(args.bank) if args.bank else None
    facts = ev.load_facts(args.facts)
    tree = ecfg = None
    if need_tree:
        if not args.tree:
            raise hc.ConfigError("fetched-mode evaluation needs --tree")
        tree = cl.load_tree(args.tree)
        ecfg = rc.embedder
    slots = model.cfg.vocab_size - 1 - tr.ByteTokenizer().EOT
    return model, bank, facts, tree, ecfg, tr.ByteTokenizer(prefix_slots=slots)


def _print_report(rep: ev.RecallReport) -> None:
    print(f"mode {rep.mode}: overall {rep.overall:.3f}"
          + (f", routing {rep.routing_accuracy:.3f}" if rep.routing_accuracy is not None else ""))
    for b in rep.buckets:
        print(f"  bucket {b['bucket']} (n={b['count']}): {b['accuracy']:.3f}")


def cmd_eval(args) -> int:
    rc = _load(args)
    out = _outdir(rc)
    mode = args.mode
    model, bank, facts, tree, ecfg, tok = _eval_bundle(args, rc, need_tree=mode == "fetched")
    if mode != "none" and bank is None:
        raise hc.ConfigError(f"{mode}-mode evaluation needs --bank")
    rep = ev.fact_recall(model, bank, tree, ecfg, tok, facts, mode=mode,
                         max_new=rc.eval.max_new, batch_size=rc.eval.batch_size,
                         n_buckets=rc.eval.n_buckets)
    ev.write_recall_report(rep, out / f"recall_{mode}.csv", out / f"recall_{mode}.jsonl")
    _print_report(rep)
    print(f"report -> {out}/recall_{mode}.csv")
    return 0


def cmd_simulate(args) -> int:
    rc = _load(args)
    out = _outdir(rc)
    placement = ts.parse_tier_spec(args.tierspec)
    acc = mb.bank_accounting(
        rc.memory, dim=rc.anchor.dim, heads=rc.anchor.num_heads,
        head_dim=rc.anchor.head_dim, ffn_dim=rc.anchor.ffn_dim,
        num_layers=rc.anchor.num_layers, k=rc.cluster.k,
    )
    sizes = acc["level_sizes"]
    if len(sizes) != placement.depth:
        raise hc.ConfigError(
            f"[memory] rs has {len(sizes)} levels but the tier spec has {placement.depth}"
        )
    rows = []
    for mode in ("parallel", "serial"):
        r = ts.load_latency(sizes, placement, mode=mode)
        rows.append({"kind": "load", "mode": mode, "total_s": r["total"],
                     "per_level_s": r["per_level"]})
    queries = ts.sample_zipf_paths(args.queries, rc.cluster.k, rc.cluster.depth,
                                   args.zipf, seed=rc.seed)
    sess = ts.session_latency(sizes, placement, queries)
    rows.append({"kind": "session", "mode": "parallel", "total_s": sess["total"],
                 "per_level_s": sess["reloads_per_level"]})
    ts.latency_csv(rows, out / "latency.csv")
    for r in rows:
        print(f"{r['kind']:8s} {r['mode']:8s} total {r['total_s']:.6g} s")
    print(f"latency table -> {out}/latency.csv")
    return 0


def cmd_block(args) -> int:
    rc = _load(args)
    out = _outdir(rc)
    model, bank, facts, tree, ecfg, tok = _eval_bundle(args, rc, need_tree=True)
    if bank is None:
        raise hc.ConfigError("blocking evaluation needs --bank")
    roots = []
    for spec in args.subtree:
        try:
            roots.append(tuple(int(x) for x in spec.split(".")))
        except ValueError:
            raise hc.ConfigError(f"bad subtree {spec!r}; expected e.g. 2 or 2.3") from None
    mask = mb.BlockMask(roots)
    rep = ev.fact_recall(model, bank, tree, ecfg, tok, facts, mode="fetched", mask=mask,
                         max_new=rc.eval.max_new, batch_size=rc.eval.batch_size,
                         n_buckets=rc.eval.n_buckets)
    ev.write_recall_report(rep, out / "recall_blocked.csv", out / "recall_blocked.jsonl")
    print("blocked subtrees:", ", ".join(args.subtree))
    _print_report(rep)
    print(f"report -> {out}/recall_blocked.csv")
    return 0


def cmd_inspect(args) -> int:
    magic, meta, arrays = fileio.read_artifact(args.artifact)
    print(f"{args.artifact}: {magic} v{fileio.FORMAT_VERSION}")
    for key in sorted(meta):
        val = meta[key]
        if isinstance(val, dict) and set(val) == {"path", "sha256"}:
            val = f"{val['path']} sha256:{val['sha256'][:16]}…"
        print(f"  {key}: {val}")
    total = 0
    for name, arr in arrays.items():
        total += arr.size
        print(f"  array {name}: {arr.dtype} {arr.shape}")
    print(f"  total elements: {total:,}")
    if magic == mb.BANK_MAGIC:
        acc = mb.bank_accounting(mb.MemoryConfig.from_meta(meta), k=meta["k"], **meta["dims"])
        print(f"  fetch {acc['fetch_params']:,} / bank {acc['bank_params']:,}")
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

    sp = sub.add_parser("simulate", help="storage-tier latency table for the configured bank")
    common(sp)
    sp.add_argument("tierspec", help="tier spec file")
    sp.add_argument("--queries", type=int, default=1000, help="session length")
    sp.add_argument("--zipf", type=float, default=1.1, help="session skew exponent")
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
