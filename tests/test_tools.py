import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def tool(name, *args):
    run = subprocess.run([sys.executable, str(TOOLS / name), *map(str, args)],
                         capture_output=True, text=True, timeout=60)
    return run.returncode, json.loads(run.stdout.splitlines()[-1])


def test_tree_scale_reports_a_digest_or_the_error():
    code, out = tool("tree_scale.py", 512, 1)
    assert code == 0 and "error" not in out
    assert (out["n"], out["depth"], out["k"]) == (512, 1, 16)
    assert len(out["levels_sha256"]) == 64 and out["train_tree_s"] >= 0 and out["ru_maxrss_mib"] > 0
    # 256 vectors give level-2 nodes of about 16, some fewer than k
    code, out = tool("tree_scale.py", 256, 2)
    assert code == 1 and "levels_sha256" not in out
    assert "< k=16" in out["error"] and out["train_tree_s"] >= 0


# the size of a benchmark train round's trainstate.bin at seed 1 with m and v
# of every bank level row stored, trained or not
DENSE_STATE_BYTES_SEED1 = 14_598_800


def test_train_faults_reports_each_round():
    code, out = tool("train_faults.py", 2)
    assert code == 0 and (out["workload"], out["train_batch"], out["rounds"], out["seed"]) == ("train", 16, 2, 1)
    assert len(out["minflt"]) == len(out["round_s"]) == 2 and out["failed"] == [0, 0]
    assert all(n >= 0 for n in out["minflt"]) and all(t > 0 for t in out["round_s"]) and out["ru_maxrss_mib"] > 0
    # a round frees what the next one allocates, the helper thread's arrays
    # too: later rounds fault only the new optimizer state's pages
    assert max(out["minflt"][1:]) < 5000, out["minflt"]
    # a level's optimizer state is stored as its trained rows alone
    assert 0 < out["state_bytes"] < DENSE_STATE_BYTES_SEED1, out["state_bytes"]


def test_train_faults_runs_another_train_batch():
    code, out = tool("train_faults.py", 1, "--batch", 2)
    assert code == 0 and (out["workload"], out["train_batch"], out["rounds"]) == ("train", 2, 1)
    assert out["failed"] == [0] and out["round_s"][0] > 0 and out["ru_maxrss_mib"] > 0


def test_train_faults_reports_recall_rounds():
    code, out = tool("train_faults.py", 3, "--workload", "recall")
    assert code == 0 and (out["workload"], out["rounds"], out["seed"]) == ("recall", 3, 1)
    assert out["state_bytes"] is None
    assert len(out["minflt"]) == len(out["round_s"]) == 3 and out["failed"] == [0, 0, 0]
    assert all(t > 0 for t in out["round_s"]) and out["ru_maxrss_mib"] > 0
    # a recall round frees what the next one allocates: later rounds keep the pages
    assert max(out["minflt"][1:]) < 1000, out["minflt"]


# sha256 of one benchmark round at seed 1: the train round's final
# checkpoint files, and the recall round's traces and decoded tokens. A
# change to the order of any operation the benchmark runs changes them, and
# must re-pin them on purpose.
BENCH_BYTES_SEED1 = {
    "train": {
        "model.ckpt": "e6c0a9e002745e0899eeea154ec13217f6821b79e67955380db5733f8d272d26",
        "bank.bin": "a1f05aca60e39eb5eff8f1d05b686b0cf9ec9142855ff036654d82e26704a8a7",
        "trainstate.bin": "770e9fc91cf6b9f5f19b0524d5f19c4f11ca5d51c10969ca5076cb738f90ce9e",
        "metrics.csv": "c2c2b89acc98fff11b03aff4fa85f6b1ae57ba447a28be0244b4e277c8a413bf",
    },
    "recall": {
        "traces": "ea5a7ec79e860a335629156240d1b1ba03da3ebe396ebedcfa99d0a0c99e53ae",
        "tokens": "f35b60e72442bc07524ee57af9914ae7a687903ada13cb144169aaf57a0d5f50",
    },
}


def test_bench_bytes_are_pinned():
    code, out = tool("bench_bytes.py", 1)
    assert code == 0 and out == {"seed": 1, **BENCH_BYTES_SEED1}
