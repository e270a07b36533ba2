from dataclasses import replace

import pytest

from hiermem import config as hc

OPTIMIZER_KEYS = ("beta1", "beta2", "adam_eps", "grad_clip", "anchor_wd", "memory_wd")


def test_defaults_without_file():
    rc = hc.load_config(None)
    assert rc.seed == 0 and rc.out == "runs"
    assert rc.cluster.k == 16
    assert rc.cluster.depth == len(rc.memory.rs)
    assert rc.train.regime == "memory"
    assert rc.eval.masked_policy == "generic"


def test_file_values_and_flag_overrides(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(
        "[cluster]\nk = 4\nbalance_limit = 0.5\n"
        "[memory]\nrs = 4, 8, 8\nmem_type = kv\n"
        "[anchor]\ntied_head = false\n"
        "[train]\nlr_max = 5e-4\n"
        "[eval]\nmasked_policy = zero\n"
        "[run]\nseed = 11\nout = somewhere\n"
    )
    rc = hc.load_config(p)
    # the tree has one level per rs value
    assert rc.cluster.k == 4 and rc.cluster.depth == 3
    assert rc.memory.rs == (4, 8, 8) and rc.memory.mem_type == "kv"
    assert rc.anchor.tied_head is False
    assert rc.eval.masked_policy == "zero"
    assert rc.train.lr_max == pytest.approx(5e-4)
    assert rc.seed == 11 and rc.out == "somewhere"
    rc2 = hc.load_config(p, seed=99, out="elsewhere")
    assert rc2.seed == 99 and rc2.out == "elsewhere"
    # flag overrides only touch [run], and the run seed is every stage's seed
    assert rc2.cluster == replace(rc.cluster, seed=99)
    assert (rc.embedder.seed, rc.cluster.seed, rc.train.seed) == (11, 11, 11)
    assert (rc2.embedder.seed, rc2.cluster.seed, rc2.train.seed) == (99, 99, 99)


def test_error_messages(tmp_path):
    p = tmp_path / "bad.ini"
    with pytest.raises(hc.ConfigError, match="cannot read"):
        hc.load_config(tmp_path / "absent.ini")
    p.write_text("[warp]\nx = 1\n")
    with pytest.raises(hc.ConfigError, match=r"unknown section \[warp\]"):
        hc.load_config(p)
    p.write_text("[cluster]\nwarp = 1\n")
    with pytest.raises(hc.ConfigError, match=r"\[cluster\] has no key 'warp'"):
        hc.load_config(p)
    p.write_text("[cluster]\nk = banana\n")
    with pytest.raises(hc.ConfigError, match=r"\[cluster\] k"):
        hc.load_config(p)
    p.write_text("[memory]\nrs = 2, x\n")
    with pytest.raises(hc.ConfigError, match=r"^\[memory\] rs: invalid literal"):
        hc.load_config(p)
    p.write_text("[anchor]\ntied_head = maybe\n")
    with pytest.raises(hc.ConfigError, match="not a boolean"):
        hc.load_config(p)
    p.write_text("[run]\nwarp = 1\n")
    with pytest.raises(hc.ConfigError, match=r"\[run\] has no key"):
        hc.load_config(p)
    # invalid values surface the dataclass's own message under the section
    p.write_text("[cluster]\nk = 0\n")
    with pytest.raises(hc.ConfigError, match=r"\[cluster\].*branching"):
        hc.load_config(p)
    # settings an input fixes, the mask policy's old home and the optimizer constants are not keys
    for section, key in (("eval", "n_buckets"), ("train", "generic_prob"), ("memory", "masked_policy"),
                         *(("train", key) for key in OPTIMIZER_KEYS)):
        p.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(hc.ConfigError, match=rf"\[{section}\] has no key '{key}'"):
            hc.load_config(p)
    # [run] seed is the one seed
    for section in ("embedder", "cluster", "anchor", "memory", "train", "eval"):
        p.write_text(f"[{section}]\nseed = 1\n")
        with pytest.raises(hc.ConfigError, match=rf"\[{section}\] seed: .*\[run\] seed"):
            hc.load_config(p)


def test_eval_config_validation():
    with pytest.raises(ValueError):
        hc.EvalConfig(max_new=0)
    with pytest.raises(ValueError, match="masked_policy"):
        hc.EvalConfig(masked_policy="warp")
