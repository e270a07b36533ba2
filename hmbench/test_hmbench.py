"""Tests of the benchmark's own checks, on tiny inputs.

    PYTHONPATH=src python3 -m pytest hmbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiermem import evals as ev
from hiermem import numcore as nc

import runner
from workloads import Sizes

TINY = Sizes(
    topics=2, entities_per_topic=4, fact_mentions=40, filler_per_topic=20,
    k=2, depth=2, em_steps=2, batch_per_step=32, balance_limit=0.75,
    seq_len=32, train_batch=4, round_steps=2, loss_steps=1, rs=(2, 2),
    recall_facts=8, recall_batch=4, max_new=3, ref_facts=4,
)

HERE = Path(__file__).resolve().parent


def _run(tmp_path, workload, trace=False):
    return runner.run(workload, seed=3, seconds=0.01, trace=trace, sizes=TINY, setups=2,
                      setup_seconds=0.0, results=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["index", "train", "recall"])
def test_every_metric_emitted_with_its_unit(tmp_path, workload, trace):
    line, report = _run(tmp_path, workload, trace)
    spec = runner.load_spec()
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert [(n, m["unit"]) for n, m in line["metrics"].items()] == [(m["name"], m["unit"]) for m in want]
    assert all(isinstance(m["value"], float) and math.isfinite(m["value"]) for m in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert all(report["checks"].values())
    json.dumps(line)


def test_per_layer_counts_repeat_exactly(tmp_path):
    a, _ = _run(tmp_path, "recall", trace=True)
    b, _ = _run(tmp_path, "recall", trace=True)
    for name in ("model.forward_positions", "numcore.matmul.flops", "membank.fetch_calls",
                 "evals.tokens_generated"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"] > 0


def test_quality_figures_repeat_exactly(tmp_path):
    runs = [_run(tmp_path, w)[1]["workload_metrics"] for w in ("index", "train", "recall") for _ in range(2)]
    for first, second in (runs[0:2], runs[2:4], runs[4:6]):
        for name in ("tree_max_leaf_share", "train_loss", "decode_match"):
            if name in first:
                assert first[name]["value"] == second[name]["value"]
    assert runs[4]["decode_match"]["value"] == 1.0


def test_corrupted_decode_counts_as_failed(tmp_path, monkeypatch):
    decode = ev.greedy_decode_batch

    def corrupted(*args, **kwargs):
        out = decode(*args, **kwargs)
        return (out + 1) % 256

    monkeypatch.setattr(ev, "greedy_decode_batch", corrupted)
    line, report = _run(tmp_path, "recall")
    assert not line["correct"]
    assert line["failed"] > 0
    assert not report["checks"]["decode_match"]
    assert report["workload_metrics"]["decode_match"]["value"] < 1.0


def test_nan_loss_counts_as_failed(tmp_path, monkeypatch):
    cross_entropy = nc.cross_entropy

    def poisoned(*args, **kwargs):
        out = cross_entropy(*args, **kwargs)
        out.data = np.asarray(np.nan, dtype=out.data.dtype)
        return out

    monkeypatch.setattr(nc, "cross_entropy", poisoned)
    line, report = _run(tmp_path, "train")
    assert not line["correct"]
    assert line["failed"] == line["attempted"]
    assert not report["checks"]["no_aborted_steps"]
    assert not report["checks"]["finite_loss"]


def test_layer_map_names_every_per_layer_metric():
    spec = runner.load_spec()
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert set(layer_map) == {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for entry in layer_map.values():
        for target in entry["moves"]:
            metric, _, workload = target.partition(" on ")
            assert metric in e2e and workload in workloads, target


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run fails."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "hmbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hmbench/run.py", "--workload", "index", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
