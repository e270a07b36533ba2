"""Count the page faults of repeated benchmark rounds in one process.

    python3 tools/train_faults.py R [--workload train|recall] [--batch B]

Sets up the benchmark's ``train`` or ``recall`` workload (default ``train``)
from ``hmbench/workloads.py`` (default ``Sizes()``, seed 1, a temporary work
directory) and runs R of its rounds one after another in this process.
``--batch`` sets the ``train`` workload's batch (default the benchmark's,
``Sizes().train_batch``), so the peak resident set of a train step can be
read at other batch sizes. Prints one JSON line: the workload and the
train batch, then for each round its minor page faults (the ``ru_minflt``
delta over the round), its wall time inside hiermem and its failed
operations, then ``state_bytes``, the size of the last ``train`` round's
``ckpt_final/trainstate.bin`` (null for ``recall``), and the process's
peak resident set (``ru_maxrss``). Rounds after the first show whether
the arrays a round frees (a training run's step arrays, a recall's decode
batches) are reused or faulted in again.
A round with a failed operation gives exit status 1. It imports
``hiermem`` from the ``src/`` beside it and gives OpenBLAS one thread, as
the benchmark does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hmbench.workloads import WORKLOADS, Sizes  # noqa: E402

SEED = 1


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rounds", type=int, help="rounds to run")
    ap.add_argument("--workload", choices=("train", "recall"), default="train", help="benchmark workload")
    ap.add_argument("--batch", type=int, default=Sizes().train_batch, help="train batch size")
    args = ap.parse_args()
    if args.batch < 1:
        ap.error(f"--batch must be at least 1, got {args.batch}")
    out = {"workload": args.workload, "train_batch": args.batch, "rounds": args.rounds, "seed": SEED, "minflt": [],
           "round_s": [], "failed": []}
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](Sizes(train_batch=args.batch), SEED, Path(workdir))
        for _ in range(args.rounds):
            before = minflt()
            r = workload.round()
            out["minflt"].append(minflt() - before)
            out["round_s"].append(round(r.wall, 3))
            out["failed"].append(r.failed)
        state = Path(workdir) / "train" / "ckpt_final" / "trainstate.bin"
        out["state_bytes"] = state.stat().st_size if args.workload == "train" else None
    out["ru_maxrss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(out))
    return 1 if any(out["failed"]) else 0


if __name__ == "__main__":
    sys.exit(main())
