"""Digest the bytes one round of each benchmark workload produces.

    python3 tools/bench_bytes.py SEED

Sets up the benchmark's ``train`` and ``recall`` workloads from
``hmbench/workloads.py`` (default ``Sizes()``, the given seed, a temporary
work directory) and runs one round of each. Prints one JSON line: the seed,
the sha256 of each file in the ``train`` round's ``ckpt_final`` directory
(``model.ckpt``, ``bank.bin``, ``trainstate.bin``, ``metrics.csv``), and
for ``recall`` the sha256 of its traces (routes and predictions, as sorted
JSON lines) and of every token it decoded, batch by batch. A change that
keeps every digest at two seeds keeps the benchmark's outputs byte for
byte. A round with a failed operation gives exit status 1. It imports
``hiermem`` from the ``src/`` beside it and gives OpenBLAS one thread, as
the benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hiermem import evals as ev  # noqa: E402
from hiermem import fileio  # noqa: E402
from hmbench.workloads import WORKLOADS, Sizes  # noqa: E402

CKPT_FILES = ("model.ckpt", "bank.bin", "trainstate.bin", "metrics.csv")


def recall_round(workload) -> tuple:
    """One ``recall`` round, and every token array ``fact_recall`` decoded."""
    decoded = []
    decode = ev.greedy_decode_batch

    def recording(*args, **kwargs):
        out = decode(*args, **kwargs)
        decoded.append(out.copy())
        return out

    ev.greedy_decode_batch = recording
    try:
        return workload.round(), decoded
    finally:
        ev.greedy_decode_batch = decode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int, help="seed of the workloads' inputs")
    args = ap.parse_args()
    out = {"seed": args.seed}
    with tempfile.TemporaryDirectory() as workdir:
        train = WORKLOADS["train"](Sizes(), args.seed, Path(workdir))
        failed = train.round().failed
        ckpt = Path(workdir) / "train" / "ckpt_final"
        out["train"] = {name: fileio.sha256_file(ckpt / name) for name in CKPT_FILES}

        recall = WORKLOADS["recall"](Sizes(), args.seed, Path(workdir))
        r, decoded = recall_round(recall)
        failed += r.failed
        traces = "\n".join(json.dumps(t, sort_keys=True) for t in recall.first_report.traces)
        tokens = hashlib.sha256()
        for arr in decoded:
            tokens.update(json.dumps(arr.tolist()).encode("ascii"))
        out["recall"] = {"traces": hashlib.sha256(traces.encode("utf-8")).hexdigest(),
                         "tokens": tokens.hexdigest()}
    print(json.dumps(out))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
