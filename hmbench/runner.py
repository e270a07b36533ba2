"""Run one workload: set-up, timed rounds, checks, metrics and report.

Untraced runs (``trace=False``) give the end-to-end metrics. Traced runs
first time rounds untraced for half the time, then with every layer
wrapped for the other half; the per-layer metrics come from the traced
rounds and ``trace.overhead`` compares the two halves.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from hiermem import membank as mb
from hiermem import model as mdl
from hiermem import tiersim as ts

import tracing
from workloads import WORKLOADS, Sizes

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
RESULTS = HERE / "results"
TIERS = HERE / "tiers.ini"

# An untraced run sets up at least SETUPS times and until SETUP_SECONDS
# have passed; setup_s is the median. Cheap set-ups repeat more often,
# which keeps their median steady.
SETUPS = 3
SETUP_SECONDS = 2.0

# Claims of a gain must also hold on this seed, which is kept out of tuning.
HELD_OUT_SEED = 9001

# Each workload's own figures in the report: its throughput under its own
# name, the quality figures its rounds return, and the failed share.
THROUGHPUT_NAME = {"index": "index_docs_per_s", "train": "train_tokens_per_s",
                   "recall": "recall_facts_per_s"}
UNITS = {
    "index_docs_per_s": "docs/s", "tree_max_leaf_share": "fraction",
    "train_tokens_per_s": "positions/s", "train_loss": "nats",
    "recall_facts_per_s": "facts/s", "recall_accuracy": "fraction", "decode_match": "fraction",
    "failed_share": "fraction",
}


def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# machine and settings
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def cache_sizes() -> dict:
    """Per-core cache sizes in bytes from /sys, keyed L1d, L1i, L2, L3."""
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level"), _read(f"{d}/type")
        if level is None or kind is None:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = _size_bytes(_read(f"{d}/size"))
    return out


def machine() -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# computed (not measured) figures
# ---------------------------------------------------------------------------

def fetch_cost(sizes: Sizes) -> dict:
    """Bytes one fetch touches, and tiersim's latency for it under TIERS."""
    acfg = mdl.AnchorConfig()
    acc = mb.bank_accounting(
        mb.MemoryConfig(mem_type="ffn", rs=tuple(sizes.rs)), dim=acfg.dim, heads=acfg.num_heads,
        head_dim=acfg.head_dim, ffn_dim=acfg.ffn_dim, num_layers=acfg.num_layers, k=sizes.k,
    )
    placement = ts.parse_tier_spec(TIERS)
    return {
        "kind": "computed, not measured",
        "level_params": acc["level_sizes"],
        "bank_bytes_float32": 4 * (acc["bank_params"] + acc["generic_params"]),
        "fetch_bytes_float32": 4 * acc["fetch_params"],
        "fetch_bytes_tiersim": placement.bytes_per_param * acc["fetch_params"],
        "tiersim_bytes_per_param": placement.bytes_per_param,
        "tiersim_load_latency_s": {
            mode: ts.load_latency(acc["level_sizes"], placement, mode=mode)["total"]
            for mode in ts.MODES
        },
        "tier_spec": TIERS.name,
        "note": "the page cache cannot be dropped machine-wide here, so no cold-read figure exists",
    }


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def timed_rounds(wl, seconds: float) -> list:
    """Closed loop: rounds back to back until ``seconds`` have passed."""
    rounds = []
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        rounds.append(wl.round())
    return rounds


def _median_wall(rounds) -> float:
    walls = [r.wall for r in rounds if r.wall > 0]
    return statistics.median(walls) if walls else 0.0


def _metrics(names: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
        setups: int = SETUPS, setup_seconds: float = SETUP_SECONDS,
        results: Path = RESULTS) -> tuple[dict, dict]:
    """Returns (result line, full report) for one run of one workload."""
    spec = load_spec()
    cls = WORKLOADS[name]
    results.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=results))
    try:
        setup_s = []
        wl = None
        want, want_s = (1, 0.0) if trace else (setups, setup_seconds)
        while len(setup_s) < want or sum(setup_s) < want_s:
            wl = None  # release the previous set-up before building the next
            t0 = perf_counter()
            wl = cls(sizes, seed, workdir)
            setup_s.append(perf_counter() - t0)

        tracer = None
        if trace:
            untraced = timed_rounds(wl, seconds / 2)
            with tracing.Tracer({"workload": wl, "batch_size": sizes.recall_batch}) as tracer:
                wl.untraced = tracer.paused
                traced = timed_rounds(wl, seconds / 2)
            rounds = untraced + traced
        else:
            rounds = timed_rounds(wl, seconds)
        extra = wl.finish(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = min(attempted, sum(r.failed for r in rounds) + extra.get("failed", 0))
    checks = {}
    for r in rounds:
        for c, ok in r.checks.items():
            checks[c] = checks.get(c, True) and ok
    if "decode_match" in extra:
        checks["decode_match"] = extra["decode_match"] == 1.0
    correct = failed == 0 and all(checks.values())

    # The fastest round, not the median: each vCPU of the shared host
    # flips between a fast and a ~1.6x slower state, and the slow share
    # drifts over minutes, so a median measures the neighbours. Rounds are
    # short enough that a run holds some that ran wholly in the fast state.
    rates = [r.work / r.wall for r in rounds if r.wall > 0]
    throughput = max(rates) if rates else 0.0
    quality = {}
    for r in rounds:
        for q, v in r.quality.items():
            quality.setdefault(q, v)
    quality.update({k: v for k, v in extra.items() if k != "failed"})
    own = {THROUGHPUT_NAME[name]: throughput, **quality, "failed_share": failed / attempted}
    report = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": bool(trace),
        "closed_loop": {"clients": 1, "processes": 1},
        "machine": machine(),
        "sizes": {k: (list(v) if isinstance(v, tuple) else v) for k, v in sizes.__dict__.items()},
        "setup_s": setup_s,
        "rounds": [
            {"wall_s": r.wall, "work": r.work, "attempted": r.attempted, "failed": r.failed,
             "checks": r.checks, "quality": r.quality, "error": r.error}
            for r in rounds
        ],
        "checks": checks,
        "workload_metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in own.items()},
        "inputs": wl.inputs(),
        "fetch_cost": fetch_cost(sizes),
    }
    caches = report["machine"]["caches"]
    bank_bytes = report["fetch_cost"]["bank_bytes_float32"]
    report["inputs"]["bank_bytes_vs_cache"] = {
        lvl: bank_bytes / caches[lvl] for lvl in ("L2", "L3") if caches.get(lvl)
    }

    if trace:
        base = _median_wall(untraced)
        overhead = _median_wall(traced) / base - 1 if base else 0.0
        values = tracing.layer_metrics(tracer, len(traced), overhead)
        metrics = _metrics(spec["per_layer"], values)
        report["inputs"].update(tracing.input_shares(tracer, sizes.depth))
        report["traced_rounds"] = len(traced)
        stem = results / f"{name}-seed{seed}-spans.jsonl"
        tracer.write_spans(stem)
        report["spans_file"] = stem.name
    else:
        values = {
            "throughput": throughput,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = _metrics(spec["end_to_end"], values)
    report["metrics"] = metrics
    line = {"correct": correct, "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    return line, report


def describe(report: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the checks."""
    out = [f"workload {report['workload']} seed {report['seed']} trace {int(report['trace'])} "
           f"rounds {len(report['rounds'])}"]
    for name, m in report["metrics"].items():
        out.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, m in report["workload_metrics"].items():
        out.append(f"workload metric {name} = {m['value']:.6g} {m['unit']}")
    for name, ok in report["checks"].items():
        out.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    for r in report["rounds"]:
        if r["error"]:
            out.append("round error:\n" + r["error"])
    return out
