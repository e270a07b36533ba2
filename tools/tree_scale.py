"""Time one ``train_tree`` at the paper's branching factor on synthetic vectors.

    python3 tools/tree_scale.py N D

Draws N 384-d vectors from a Gaussian mixture of seed 0 (one centre per 16
vectors, at most 4096 centres, unit-variance centres plus noise of
standard deviation 0.3), trains ``train_tree(k=16, depth=D)`` with the
other ``ClusterConfig`` defaults, and prints one JSON line: the inputs,
the wall time of ``train_tree`` alone, the process's peak resident set
(``ru_maxrss``; the vectors are drawn in row chunks, so the peak is
``train_tree``'s, not the draw's) and the sha256 of the centre arrays, so
runs of two versions can be checked for equal trees.
A tree that fails (a node with fewer than k vectors) gives its error and
time to failure instead of the digest, and exit status 1. It imports
``hiermem`` from the ``src/`` beside it and gives OpenBLAS one thread, as
the benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from hiermem import cluster as cl  # noqa: E402

DIM = 384
CHUNK_ROWS = 8192


def mixture(n: int) -> np.ndarray:
    """The vectors, drawn in row chunks so that the draw's temporaries stay
    small beside ``train_tree``'s; the chunks continue one random stream, so
    the array equals a single draw's."""
    rng = np.random.default_rng(0)
    n_centres = max(1, min(4096, n // 16))
    centres = rng.standard_normal((n_centres, DIM), dtype=np.float32)
    pick = rng.integers(n_centres, size=n)
    out = np.empty((n, DIM), dtype=np.float32)
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(n, lo + CHUNK_ROWS)
        out[lo:hi] = centres[pick[lo:hi]] + np.float32(0.3) * rng.standard_normal((hi - lo, DIM), dtype=np.float32)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="number of vectors")
    ap.add_argument("depth", type=int, help="tree depth")
    args = ap.parse_args()
    vecs = mixture(args.n)
    out = {"n": args.n, "depth": args.depth, "k": 16}
    t0 = time.perf_counter()
    try:
        tree = cl.train_tree(vecs, cl.ClusterConfig(k=16, depth=args.depth))
    except cl.ClusterError as e:  # a node too small for k: report how long it took to fail
        tree, out["error"] = None, str(e)
    out["train_tree_s"] = round(time.perf_counter() - t0, 3)
    out["ru_maxrss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    if tree is not None:
        out["levels_sha256"] = hashlib.sha256(b"".join(c.tobytes() for c in tree.levels)).hexdigest()
    print(json.dumps(out))
    return 1 if tree is None else 0


if __name__ == "__main__":
    sys.exit(main())
