import json
import subprocess
import sys
from pathlib import Path

TREE_SCALE = Path(__file__).resolve().parents[1] / "tools" / "tree_scale.py"


def tree_scale(*args):
    run = subprocess.run([sys.executable, str(TREE_SCALE), *map(str, args)],
                         capture_output=True, text=True, timeout=60)
    return run.returncode, json.loads(run.stdout.splitlines()[-1])


def test_tree_scale_reports_a_digest_or_the_error():
    code, out = tree_scale(512, 1)
    assert code == 0 and "error" not in out
    assert (out["n"], out["depth"], out["k"]) == (512, 1, 16)
    assert len(out["levels_sha256"]) == 64 and out["train_tree_s"] >= 0 and out["ru_maxrss_mib"] > 0
    # 256 vectors give level-2 nodes of about 16, some fewer than k
    code, out = tree_scale(256, 2)
    assert code == 1 and "levels_sha256" not in out
    assert "< k=16" in out["error"] and out["train_tree_s"] >= 0
