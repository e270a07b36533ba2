"""Benchmark entry point: run one workload and print its result.

    python3 hmbench/run.py --workload index|train|recall --seed N \\
        --seconds S --trace 0|1

Run from the repository root; hiermem is imported from ``src/``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it print every metric with its unit and
the result of each output check. The full report is written to
``hmbench/results/<workload>-seed<N>-trace<T>.json``; a traced run also
writes its spans next to it.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("index", "train", "recall"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # BLAS reads its thread count once, when numpy loads. One thread, always:
    # on a small shared host a second BLAS thread waits whenever anything
    # else holds the other CPU, and the times then measure the scheduler.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = HERE.parent / "src"
    if not (src / "hiermem" / "__init__.py").is_file():
        sys.exit(f"hiermem sources not found under {src}")
    sys.path.insert(0, str(src))
    import runner

    line, report = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = runner.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for text in runner.describe(report):
        print(text)
    print(f"report -> {out.relative_to(HERE.parent)}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
