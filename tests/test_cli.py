import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from hiermem import cli
from hiermem import cluster as cl
from hiermem import embed as em
from hiermem import evals as ev
from hiermem import fileio
from hiermem import membank as mb
from hiermem import model as mdl
from hiermem import tiersim as ts
from hiermem import train as tr

BASE_INI = """\
[embedder]
dim = 64

[cluster]
k = 2
em_steps = 4
batch_per_step = 64
balance_limit = 0.75

[anchor]
num_layers = 2
dim = 16
num_heads = 2
head_dim = 8
ffn_dim = 32
vocab_size = 262
tied_head = true
context_length = 192

[memory]
mem_type = ffn
rs = 2, 2

[train]
regime = scratch
batch_size = 4
seq_len = 48
total_steps = 5
warmup_steps = 2
lr_max = 1e-3
log_interval = 0

[run]
seed = 7
"""


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    spec = ev.SyntheticCorpusSpec(topics=2, entities_per_topic=4, zipf_exponent=1.0,
                                  total_fact_mentions=40, filler_docs_per_topic=8, seed=3)
    docs, facts = ev.gen_corpus(spec)
    (root / "corpus.txt").write_text("".join(d.text + "\n" for d in docs))
    (root / "facts.json").write_text(json.dumps([asdict(f) for f in facts]))
    (root / "run.ini").write_text(BASE_INI)
    (root / "tiers.ini").write_text(
        "[tier.ram]\nbandwidth = 12e9\nfixed_latency = 100e-6\n"
        "[tier.ssd]\nbandwidth = 2e9\nfixed_latency = 1e-3\n"
        "[placement]\nlevel1 = ram\nlevel2 = ssd\n"
    )
    # a session in the form `eval --mode fetched` writes it
    (root / "routes.jsonl").write_text("".join(f'{{"routed": {r}}}\n' for r in ([1, 1], [1, 1], [1, 2], [2, 1])))
    return root


@pytest.fixture(scope="module")
def trained(ws):
    """cluster -> scratch train -> memory train, shared by the later tests."""
    ini = str(ws / "run.ini")
    corpus = str(ws / "corpus.txt")
    outc = ws / "outc"
    assert cli.main(["cluster", corpus, "--config", ini, "--out", str(outc)]) == 0
    tree = str(outc / "tree.bin")

    outa = ws / "runA"
    assert cli.main(["train", corpus, tree, "--config", ini, "--out", str(outa)]) == 0

    mem_ini = ws / "run_mem.ini"
    mem_ini.write_text(BASE_INI.replace("regime = scratch", "regime = memory"))
    outb = ws / "runB"
    assert cli.main(["train", corpus, tree, "--config", str(mem_ini), "--out", str(outb),
                     "--init", str(outa / "ckpt_final" / "model.ckpt")]) == 0
    return {
        "tree": tree,
        "model": outb / "ckpt_final" / "model.ckpt",
        "bank": outb / "ckpt_final" / "bank.bin",
        "state": outb / "ckpt_final" / "trainstate.bin",
        "facts": str(ws / "facts.json"),
        "ini": ini,
    }


@pytest.mark.parametrize("given, expect", [(None, "1"), ("3", "3")])
def test_cli_gives_openblas_one_thread_unless_set(given, expect):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    run = subprocess.run([sys.executable, "-c", "import os, hiermem.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0 and run.stdout.strip() == expect, run.stderr


def test_bad_config_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[cluster]\nk = banana\n")
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    bad.write_text("[warp]\nx = 1\n")
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown section" in err
    bad.write_text("[cluster]\nwarp = 1\n")
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(bad)]) == 2
    assert "no key" in capsys.readouterr().err


# (file, text, exit code, message): one INI file the CLI cannot use, and why
BAD_INI = {
    "tier spec with a repeated section": ("tiers", "[tier.ram]\nbandwidth = 1e9\nfixed_latency = 0\n"
                                          "[tier.ram]\nbandwidth = 2e9\nfixed_latency = 0\n"
                                          "[placement]\nlevel1 = ram\n", 1, "already exists"),
    "tier spec with no section header": ("tiers", "bandwidth = 1e9\n", 1, "no section headers"),
    "tier spec with % in a value": ("tiers", "[tier.ram]\nbandwidth = 1e9\nfixed_latency = 0\n"
                                    "[placement]\nlevel1 = ram\nlevel2 = %(x)s\n", 1, "unknown tier '%(x)s'"),
    "tier spec with a misspelt tier section": ("tiers", "[tier.ram]\nbandwidth = 1e9\nfixed_latency = 0\n"
                                               "[tier-ssd]\nbandwidth = 1e8\n"
                                               "[placement]\nlevel1 = ram\nlevel2 = ram\n", 1,
                                               "unknown section [tier-ssd]"),
    "tier spec that is not UTF-8": ("tiers", b"[tier.r\xffm]\n", 1, "can't decode byte 0xff"),
    "tier with a NaN bandwidth": ("tiers", "[tier.ram]\nbandwidth = nan\nfixed_latency = 0\n"
                                  "[placement]\nlevel1 = ram\nlevel2 = ram\n", 1, "bandwidth must be"),
    "tier with an infinite bandwidth": ("tiers", "[tier.ram]\nbandwidth = inf\nfixed_latency = 0\n"
                                        "[placement]\nlevel1 = ram\nlevel2 = ram\n", 1, "bandwidth must be"),
    "tier with a NaN latency": ("tiers", "[tier.ram]\nbandwidth = 1e9\nfixed_latency = nan\n"
                                "[placement]\nlevel1 = ram\nlevel2 = ram\n", 1, "fixed latency must be"),
    "run config with a [DEFAULT] section": ("config", "[DEFAULT]\nk = 4\n", 2, "unknown section [DEFAULT]"),
    "run config that is not UTF-8": ("config", b"[train]\nregime = m\xe9mory\n", 2, "can't decode byte 0xe9"),
    "NaN lr_max": ("config", BASE_INI.replace("lr_max = 1e-3", "lr_max = nan"), 2, "[train] lr_max must be"),
    "negative lr_max": ("config", BASE_INI.replace("lr_max = 1e-3", "lr_max = -1e-3"), 2, "[train] lr_max must be"),
    "infinite lr_min": ("config", BASE_INI.replace("lr_max = 1e-3", "lr_max = 1e-3\nlr_min = inf"), 2,
                        "[train] lr_min must be"),
    "[cluster] depth": ("config", BASE_INI.replace("k = 2\n", "k = 2\ndepth = 2\n"), 2,
                        "[cluster] depth: the tree has one level per [memory] rs value"),
    # no EM step left NaN cluster shares, and an empty batch a numpy traceback
    "zero em_steps": ("config", BASE_INI.replace("em_steps = 4", "em_steps = 0"), 2,
                      "[cluster] em_steps must be >= 1, got 0"),
    "zero batch_per_step": ("config", BASE_INI.replace("batch_per_step = 64", "batch_per_step = 0"), 2,
                            "[cluster] batch_per_step must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", BAD_INI)
def test_unusable_ini_file_is_a_typed_error(ws, tmp_path, capsys, case):
    kind, text, code, message = BAD_INI[case]
    path = tmp_path / "bad.ini"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    tiers, config = (path, ws / "run.ini") if kind == "tiers" else (ws / "tiers.ini", path)
    assert cli.main(["simulate", str(tiers), str(ws / "routes.jsonl"), "--config", str(config),
                     "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "error:") and message in err, err


def test_missing_artifact_exits_1(ws, tmp_path, capsys):
    rc = cli.main(["inspect", str(tmp_path / "absent.bin")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_damaged_artifact_exits_1(trained, tmp_path, capsys):
    raw = Path(trained["tree"]).read_bytes()
    p = tmp_path / "damaged.bin"
    for data in (raw[:10], raw[:20], raw[:30], raw + b"junk"):
        p.write_bytes(data)
        assert cli.main(["inspect", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def damaged(source, name, change):
        magic, meta, arrays = fileio.read_artifact(source)
        change(meta, arrays)
        fileio.write_artifact(tmp_path / name, magic, meta, arrays)
        return str(tmp_path / name)

    def cut_wq(meta, arrays):
        arrays["layers.0.wq"] = arrays["layers.0.wq"][:, :3]

    def narrow_metrics(meta, arrays):
        arrays["metrics.rows"] = arrays["metrics.rows"][:, :-1]

    no_wq = damaged(trained["model"], "no_wq.ckpt", lambda meta, arrays: arrays.pop("layers.0.wq"))
    cut = damaged(trained["model"], "cut_wq.ckpt", cut_wq)
    no_level2 = damaged(trained["bank"], "no_level2.bin", lambda meta, arrays: arrays.pop("level2"))
    no_k = damaged(trained["bank"], "no_k.bin", lambda meta, arrays: meta.pop("k"))
    narrow = damaged(trained["state"], "narrow.bin", narrow_metrics)
    no_steps = damaged(trained["state"], "no_steps.bin", lambda meta, arrays: arrays.pop("opt.level1.steps"))
    old_state = damaged(trained["state"], "old_state.bin", lambda meta, arrays: meta.update(opt_steps={}))

    def config_set(key, value):
        def change(meta, arrays):
            meta["config"][key] = value
        return change

    warp_model = damaged(trained["model"], "warp.ckpt", config_set("warp", 1))
    no_layers = damaged(trained["model"], "no_layers.ckpt", config_set("num_layers", 0))
    word_base = damaged(trained["model"], "word_base.ckpt", config_set("rope_base", "big"))
    warp_tree = damaged(trained["tree"], "warp_tree.bin", config_set("warp", 1))
    flat_tree = damaged(trained["tree"], "flat_tree.bin", config_set("depth", 0))
    warp_state = damaged(trained["state"], "warp_state.bin", config_set("warp", 1))
    foo_bank = damaged(trained["bank"], "foo_bank.bin", config_set("mem_type", "foo"))
    flat_rs = damaged(trained["bank"], "flat_rs.bin", config_set("rs", 2))

    def arrays_set(name, value):
        def change(meta, arrays):
            arrays[name] = value(arrays)
        return change

    short_bank = damaged(trained["bank"], "short_bank.bin", arrays_set("level2", lambda a: a["level2"][:1]))

    # the layout of an older version: each level's generic block, or its
    # optimizer state, in arrays of its own
    def generic_apart(prefix, generic_prefix, levels, parts=("",)):
        def change(meta, arrays):
            for l in levels:
                for part in parts:
                    lvl = arrays[f"{prefix}{l}{part}"]
                    arrays[f"{prefix}{l}{part}"], arrays[f"{generic_prefix}{l}{part}"] = lvl[:-1], lvl[-1]
        return change

    old_bank = damaged(trained["bank"], "old_bank.bin", generic_apart("level", "generic.l", (1, 2)))
    old_generic_state = damaged(trained["state"], "old_generic_state.bin",
                                generic_apart("opt.level", "opt.generic.l", (1, 2), (".m", ".v", ".steps")))
    extra_bank = damaged(trained["bank"], "extra_bank.bin", arrays_set("level3", lambda a: a["level2"]))
    short_tree = damaged(trained["tree"], "short_tree.bin", arrays_set("level2", lambda a: a["level2"][:0]))
    extra_tree = damaged(trained["tree"], "extra_tree.bin", arrays_set("warp", lambda a: a["level1"]))
    bad_dims = damaged(trained["bank"], "bad_dims.bin", lambda meta, arrays: meta["dims"].pop("heads"))

    def meta_set(*keys, value):
        def change(meta, arrays):
            for key in keys[:-1]:
                meta = meta[key]
            meta[keys[-1]] = value
        return change

    # (artifact, change, what the error names): metadata of the wrong type or shape
    wrong_types = [
        ("state", meta_set("rng_state", value={"x": 1}), "rng_state"),
        ("state", meta_set("rng_state", value=[1, 2]), "rng_state"),
        ("state", meta_set("step", value="seven"), "step"),
        ("state", meta_set("aborted", value=None), "aborted"),
        ("state", meta_set("epoch_pos", value=True), "epoch_pos"),
        ("state", meta_set("tokens_seen", value=float("nan")), "tokens_seen"),
        ("state", arrays_set("sched.order", lambda a: a["sched.order"].astype(np.float64)), "sched.order"),
        ("state", arrays_set("metrics.rows", lambda a: np.zeros_like(a["metrics.rows"], dtype=np.int8)), "metrics.rows"),
        ("state", meta_set("config", "batch_size", value=4.0), "batch_size"),
        ("tree", meta_set("tree_meta", value=[1, 2]), "tree_meta"),
        ("tree", meta_set("tree_meta", "node_stats", value=[1, 2]), "node_stats"),
        ("tree", meta_set("tree_meta", "node_stats", "1.0", value=3), "node_stats"),
        ("tree", meta_set("config", "k", value=2.0), "ClusterConfig field k"),
        ("bank", meta_set("k", value=2.0), "k 2.0"),
        ("bank", meta_set("config", "rs", value=[2.0, 2.0]), "rs"),
        ("model", meta_set("config", "num_layers", value=True), "num_layers"),
        ("model", meta_set("config", "tied_head", value=1), "tied_head"),
    ]
    common = ["--config", trained["ini"], "--out", str(tmp_path / "o")]
    cases = [
        (["eval", no_wq, trained["facts"], "--mode", "none", *common], "layers.0.wq"),
        (["eval", cut, trained["facts"], "--mode", "none", *common], "layers.0.wq"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", no_level2,
          "--tree", trained["tree"], *common], "level2"),
        (["inspect", no_k], "'k'"),
        (["inspect", narrow], "columns"),
        (["inspect", no_steps], "'level1'"),
        (["inspect", old_state], "older version"),
        (["eval", warp_model, trained["facts"], "--mode", "none", *common], "warp"),
        (["eval", no_layers, trained["facts"], "--mode", "none", *common], "num_layers"),
        (["eval", word_base, trained["facts"], "--mode", "none", *common], "big"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", str(trained["bank"]),
          "--tree", warp_tree, *common], "warp"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", str(trained["bank"]),
          "--tree", flat_tree, *common], "depth"),
        (["inspect", warp_state], "warp"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", foo_bank,
          "--tree", trained["tree"], *common], "foo"),
        (["inspect", flat_rs], "MemoryConfig"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", short_bank,
          "--tree", trained["tree"], *common], "level2"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", old_bank,
          "--tree", trained["tree"], *common], "generic.l1"),
        (["inspect", old_bank], "generic.l1"),
        (["inspect", old_generic_state], "older version"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", extra_bank,
          "--tree", trained["tree"], *common], "level3"),
        (["inspect", bad_dims], "dims"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", str(trained["bank"]),
          "--tree", short_tree, *common], "level2"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", str(trained["bank"]),
          "--tree", extra_tree, *common], "warp"),
        (["inspect", short_tree], "level2"),
    ]
    cases += [(["inspect", damaged(trained[kind], f"typed{i}.bin", change)], named)
              for i, (kind, change, named) in enumerate(wrong_types)]
    for argv, named in cases:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and named in err, err


def test_artifact_of_another_dtype_exits_1(trained, tmp_path, capsys):
    def widened(source, name, meta_change=lambda meta: None, dtype=np.float64):
        magic, meta, arrays = fileio.read_artifact(source)
        meta_change(meta)
        fileio.write_artifact(tmp_path / name, magic, meta, {n: a.astype(dtype) for n, a in arrays.items()})
        return str(tmp_path / name)

    bank = widened(trained["bank"], "bank.bin")
    tree = widened(trained["tree"], "tree.bin")
    model = widened(trained["model"], "model.ckpt")
    with pytest.raises(fileio.ArtifactError, match="level1 is <f8, expected <f4"):
        mb.load_bank(bank)
    with pytest.raises(fileio.ArtifactError, match="level1 is <f8, expected <f4"):
        cl.load_tree(tree)
    # a float64 checkpoint that says so loads; one whose meta says float32 does not
    assert mdl.load_model(widened(trained["model"], "f8.ckpt", lambda m: m.update(dtype="<f8")))[0].dtype == np.float64
    word = widened(trained["model"], "word.ckpt", lambda m: m.update(dtype="banana"))
    common = ["--config", trained["ini"], "--out", str(tmp_path / "o")]
    cases = [
        (["eval", str(trained["model"]), trained["facts"], "--bank", bank, "--tree", trained["tree"], *common],
         "level1 is <f8"),
        (["eval", str(trained["model"]), trained["facts"], "--bank", str(trained["bank"]), "--tree", tree, *common],
         "level1 is <f8"),
        (["eval", model, trained["facts"], "--mode", "none", *common], "is <f8, expected <f4"),
        (["eval", word, trained["facts"], "--mode", "none", *common], "banana"),
    ]
    # float32 is what the stack runs and float64 what gradient checks use;
    # a checkpoint of any other dtype is refused even when its meta says so
    for dtype in ("int32", "float16", "complex64"):
        odd = widened(trained["model"], f"{dtype}.ckpt", lambda m: m.update(dtype=np.dtype(dtype).str), dtype)
        cases.append((["eval", odd, trained["facts"], "--mode", "none", *common],
                      f"stored dtype {np.dtype(dtype).str} is not float32 or float64"))
    for argv, named in cases:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and named in err, err


BAD_HOME_LEAF = r"fact 0: .*home_leaf"


# a home-leaf case is named for what its table has wrong, not by its pattern
@pytest.mark.parametrize("table, named", [
    ({"entity": 1}, "list"),
    ([{"entity": 1}], "missing"),
    ([{"entity": 1, "name": "a", "topic": 0, "attribute": "b", "value": "7", "mentions": 1}],
     "value"),
    ([], "no facts"),
    *(([{"entity": 1, "name": "a", "topic": 0, "attribute": "b", "value": 7, "mentions": 1, "home_leaf": hl}],
       BAD_HOME_LEAF) for hl in ("12", [1.5, "x", 9, 9, 9], 0, [], [0, 1], [True, 1], {"1": 2})),
], ids=lambda v: "fact 0 has home_leaf" if v == BAD_HOME_LEAF else None)
def test_malformed_fact_table_exits_1(trained, tmp_path, capsys, table, named):
    facts = tmp_path / "facts.json"
    facts.write_text(json.dumps(table))
    common = ["--config", trained["ini"], "--out", str(tmp_path / "o")]
    for argv in (["eval", str(trained["model"]), str(facts), "--mode", "none", *common],
                 ["block", str(trained["model"]), str(facts), "1", "--bank", str(trained["bank"]),
                  "--tree", trained["tree"], *common]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and re.search(named, err), err


def test_corpus_that_is_not_utf8_exits_1(trained, tmp_path, capsys):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes(b"one doc\ncaf\xe9\n")
    common = ["--config", trained["ini"], "--out", str(tmp_path / "o")]
    for argv in (["cluster", str(corpus), *common], ["train", str(corpus), trained["tree"], *common]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert str(corpus) in err and "byte 11 is 0xe9" in err, err


def test_cluster_writes_tree_and_index(ws, trained, capsys):
    outc = ws / "outc"
    assert (outc / "tree.bin").exists()
    lines = (outc / "doc_index.csv").read_text().splitlines()
    assert lines[0] == "doc,level1,level2"
    n_docs = len((ws / "corpus.txt").read_text().splitlines())
    assert len(lines) == 1 + n_docs
    for ln in lines[1:]:
        _, l1, l2 = ln.split(",")
        assert l1 in ("1", "2") and l2 in ("1", "2")


def test_cluster_tree_has_one_level_per_rs_value(ws, tmp_path):
    ini = tmp_path / "three.ini"
    ini.write_text(BASE_INI.replace("rs = 2, 2", "rs = 2, 0, 2"))
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert cl.load_tree(tmp_path / "tree.bin").depth == 3
    assert (tmp_path / "doc_index.csv").read_text().startswith("doc,level1,level2,level3\n")


def test_cluster_k1_yields_trivial_index(ws, tmp_path):
    ini = tmp_path / "k1.ini"
    ini.write_text(BASE_INI.replace("k = 2", "k = 1").replace("balance_limit = 0.75",
                                                              "balance_limit = 1.0"))
    out = tmp_path / "out"
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(ini),
                     "--out", str(out)]) == 0
    rows = (out / "doc_index.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1:] == ["1", "1"] for r in rows)


def test_k1_tree_trains_evaluates_and_blocks(ws, tmp_path, monkeypatch):
    ini = tmp_path / "k1.ini"
    ini.write_text(BASE_INI.replace("k = 2", "k = 1").replace("balance_limit = 0.75", "balance_limit = 1.0"))
    mem_ini = tmp_path / "k1_mem.ini"
    mem_ini.write_text(ini.read_text().replace("regime = scratch", "regime = memory"))
    corpus, facts = str(ws / "corpus.txt"), str(ws / "facts.json")
    out = tmp_path / "out"
    assert cli.main(["cluster", corpus, "--config", str(ini), "--out", str(out)]) == 0
    tree = str(out / "tree.bin")
    assert cli.main(["train", corpus, tree, "--config", str(ini), "--out", str(out / "a")]) == 0
    assert cli.main(["train", corpus, tree, "--config", str(mem_ini), "--out", str(out / "b"),
                     "--init", str(out / "a" / "ckpt_final" / "model.ckpt")]) == 0
    model = out / "b" / "ckpt_final" / "model.ckpt"
    # five steps move the memories too little to change a decoded token, so
    # the evals read the trained bank with its blocks and generic blocks redrawn apart
    loaded = mb.load_bank(out / "b" / "ckpt_final" / "bank.bin")
    rng = np.random.default_rng(5)
    for arr in loaded.levels:
        arr[:] = rng.normal(0, 0.3, size=arr.shape)
    bank = out / "redrawn.bin"
    mb.save_bank(loaded, bank)

    decoded = []
    decode = ev.greedy_decode_batch

    def recording_decode(*args):
        decoded.append(decode(*args))
        return decoded[-1]

    monkeypatch.setattr(ev, "greedy_decode_batch", recording_decode)
    tokens = {}
    common = ["--bank", str(bank), "--tree", tree, "--config", str(ini), "--out", str(out)]
    for name, argv in (("none", ["eval", str(model), facts, "--mode", "none", "--config", str(ini), "--out", str(out)]),
                       ("generic", ["eval", str(model), facts, "--mode", "generic", *common]),
                       ("fetched", ["eval", str(model), facts, "--mode", "fetched", *common]),
                       ("blocked", ["block", str(model), facts, "1", *common])):
        decoded.clear()
        assert cli.main(argv) == 0
        tokens[name] = np.concatenate(decoded)
    traces = {name: [json.loads(line) for line in (out / f"recall_{name}.jsonl").read_text().splitlines()]
              for name in tokens}
    assert all(t["routed"] == [1, 1] for t in traces["fetched"] + traces["blocked"])
    # under masked_policy = generic, masking the root's one child leaves every row generic
    assert np.array_equal(tokens["blocked"], tokens["generic"])
    assert not np.array_equal(tokens["fetched"], tokens["generic"])
    assert [t["predicted"] for t in traces["blocked"]] == [t["predicted"] for t in traces["generic"]]


def test_train_refuses_sequences_longer_than_the_context_before_embedding(ws, trained, tmp_path, capsys, monkeypatch):
    def no_embedding(*args, **kwargs):
        raise AssertionError("the corpus was embedded before the sequence length was checked")

    monkeypatch.setattr(em, "embed_batch", no_embedding)
    short = tmp_path / "short.ini"
    short.write_text(BASE_INI.replace("context_length = 192", "context_length = 16"))
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(short),
                     "--out", str(tmp_path / "o")]) == 2
    assert "seq_len 48 feeds 47 positions, more than the model's context length 16" in capsys.readouterr().err
    # with --init the context length is the checkpoint's (192), not [anchor]'s
    long = tmp_path / "long.ini"
    long.write_text(BASE_INI.replace("context_length = 192", "context_length = 4096")
                    .replace("seq_len = 48", "seq_len = 194"))
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(long),
                     "--out", str(tmp_path / "o"), "--init", str(trained["model"])]) == 2
    assert "more than the model's context length 192" in capsys.readouterr().err


def test_train_checkpoints_exist(ws, trained):
    assert trained["model"].exists()
    assert trained["bank"].exists()
    assert (ws / "runA" / "ckpt_final" / "model.ckpt").exists()
    assert not (ws / "runA" / "ckpt_final" / "bank.bin").exists()  # scratch: no bank


def test_train_rejects_small_vocab(ws, trained, tmp_path, capsys):
    ini = tmp_path / "tiny_vocab.ini"
    ini.write_text(BASE_INI.replace("vocab_size = 262", "vocab_size = 256"))
    rc = cli.main(["train", str(ws / "corpus.txt"), trained["tree"],
                   "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "EOT" in capsys.readouterr().err


def test_train_accepts_more_leaves_than_vocab_spare_ids(ws, tmp_path):
    # k=3, depth=2: 9 leaves against vocab_size 262, which leaves 5 ids past EOT
    ini = tmp_path / "wide.ini"
    ini.write_text(BASE_INI.replace("k = 2", "k = 3"))
    corpus = str(ws / "corpus.txt")
    out = tmp_path / "o"
    assert cli.main(["cluster", corpus, "--config", str(ini), "--out", str(out)]) == 0
    assert cli.main(["train", corpus, str(out / "tree.bin"), "--config", str(ini),
                     "--out", str(out)]) == 0
    assert (out / "ckpt_final" / "model.ckpt").exists()


def test_train_checks_level_count_before_embedding(ws, trained, tmp_path, capsys, monkeypatch):
    def no_embedding(*args, **kwargs):
        raise AssertionError("the corpus was embedded before the level count was checked")

    monkeypatch.setattr(em, "embed_batch", no_embedding)
    ini = tmp_path / "three_levels.ini"
    ini.write_text(BASE_INI.replace("regime = scratch", "regime = memory")
                   .replace("rs = 2, 2", "rs = 2, 2, 2"))
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(ini),
                     "--out", str(tmp_path / "o")]) == 2
    assert "rs has 3 levels but the tree has depth 2" in capsys.readouterr().err


@pytest.mark.parametrize("line, bad, named", [
    ("seq_len = 48", "seq_len = 2", "seq_len must be at least 3, got 2"),
    ("lr_max = 1e-3", "lr_max = 1e-3\ncheckpoint_interval = -2", "checkpoint_interval must be >= 0"),
    ("log_interval = 0", "log_interval = -2", "log_interval must be >= 0"),
])
def test_train_checks_train_lengths_before_embedding(ws, trained, tmp_path, capsys, monkeypatch, line, bad, named):
    def no_embedding(*args, **kwargs):
        raise AssertionError("the corpus was embedded before [train] was checked")

    monkeypatch.setattr(em, "embed_batch", no_embedding)
    ini = tmp_path / "bad_train.ini"
    ini.write_text(BASE_INI.replace(line, bad))
    out = tmp_path / "o"
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(ini),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[train]" in err and named in err
    assert not out.exists()


def test_train_refuses_a_bank_under_scratch_before_embedding(ws, trained, tmp_path, capsys, monkeypatch):
    def no_embedding(*args, **kwargs):
        raise AssertionError("the corpus was embedded before --bank was checked")

    monkeypatch.setattr(em, "embed_batch", no_embedding)
    out = tmp_path / "o"
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(ws / "run.ini"),
                     "--out", str(out), "--bank", str(trained["bank"])]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--bank" in err and "scratch" in err
    assert not (out / "ckpt_final").exists()


def test_fact_recall_refuses_an_embedder_the_tree_did_not_use(trained):
    tree = cl.load_tree(trained["tree"])
    other = em.EmbedderConfig(dim=64, ngram_sizes=(2, 3), seed=7)
    model, _ = mdl.load_model(trained["model"])
    with pytest.raises(ev.EvalError) as e:
        ev.fact_recall(model, mb.load_bank(trained["bank"]), tree, other, tr.ByteTokenizer(),
                       ev.load_facts(trained["facts"]), mode="fetched")
    assert str(tree.embedder) in str(e.value) and str(other) in str(e.value)


def test_bank_k_must_match_tree_k(ws, trained, tmp_path, capsys):
    # a k=3 bank on the k=2 tree would decode the tree's leaf ids as other blocks
    bank = mb.init_bank(mb.MemoryConfig(mem_type="ffn", rs=(2, 2)), dim=16, heads=2,
                        head_dim=8, ffn_dim=32, num_layers=2, k=3, seed=0)
    k3 = tmp_path / "k3.bin"
    mb.save_bank(bank, k3)
    mem_ini = ws / "run_mem.ini"
    out = str(tmp_path / "o")
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(mem_ini),
                     "--out", out, "--init", str(trained["model"]), "--bank", str(k3)]) == 2
    assert "k=3" in capsys.readouterr().err
    assert cli.main(["eval", str(trained["model"]), trained["facts"], "--bank", str(k3),
                     "--tree", trained["tree"], "--config", trained["ini"], "--out", out]) == 2
    assert "k=3" in capsys.readouterr().err
    assert cli.main(["block", str(trained["model"]), trained["facts"], "1", "--bank", str(k3),
                     "--tree", trained["tree"], "--config", trained["ini"], "--out", out]) == 2
    assert "k=3" in capsys.readouterr().err


def test_eval_and_train_embed_with_the_tree_embedder(ws, trained, tmp_path, capsys):
    tree = cl.load_tree(trained["tree"])
    assert tree.embedder == em.EmbedderConfig(dim=64, seed=7)  # cluster's [embedder] and [run] seed
    ngram23 = tmp_path / "ngram23.ini"
    ngram23.write_text(BASE_INI.replace("dim = 64", "dim = 64\nngram_sizes = 2, 3"))
    prompts = [ev.fact_prompt(f) for f in ev.load_facts(trained["facts"])]
    want = ev.route_texts(prompts, tree, tree.embedder).tolist()
    # the config's embedder would route these prompts elsewhere
    assert ev.route_texts(prompts, tree, em.EmbedderConfig(dim=64, ngram_sizes=(2, 3), seed=7)).tolist() != want

    out = tmp_path / "ev"
    assert cli.main(["eval", str(trained["model"]), trained["facts"], "--bank", str(trained["bank"]),
                     "--tree", trained["tree"], "--config", str(ngram23), "--out", str(out)]) == 0
    lines = (out / "recall_fetched.jsonl").read_text().splitlines()
    assert [json.loads(line)["routed"] for line in lines] == want

    # train packs the corpus by the tree's embedder too: the same bank as under cluster's config
    mem23 = tmp_path / "mem23.ini"
    mem23.write_text(ngram23.read_text().replace("regime = scratch", "regime = memory"))
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(mem23),
                     "--out", str(tmp_path / "t"),
                     "--init", str(ws / "runA" / "ckpt_final" / "model.ckpt")]) == 0
    a, b = mb.load_bank(trained["bank"]), mb.load_bank(tmp_path / "t" / "ckpt_final" / "bank.bin")
    assert all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))

    # a tree that records no embedder is refused: one written before trees
    # recorded it, and one saved by a caller that never set it
    magic, meta, arrays = fileio.read_artifact(trained["tree"])
    del meta["embedder"]
    fileio.write_artifact(tmp_path / "old.bin", magic, meta, arrays)
    tree.embedder = None
    cl.save_tree(tree, tmp_path / "unset.bin")
    for t in ("old.bin", "unset.bin"):
        t = str(tmp_path / t)
        assert cli.main(["eval", str(trained["model"]), trained["facts"], "--bank", str(trained["bank"]),
                         "--tree", t, "--config", trained["ini"], "--out", str(out)]) == 1
        assert "records no embedder" in capsys.readouterr().err
        assert cli.main(["train", str(ws / "corpus.txt"), t, "--config", trained["ini"],
                         "--out", str(out)]) == 1
        assert "records no embedder" in capsys.readouterr().err


def test_train_init_lays_out_the_bank_for_the_model_it_trains(ws, trained, tmp_path):
    # 1 layer of width 32 gives the same ffn block size as the model's 2 layers of 16
    ini = tmp_path / "other_anchor.ini"
    ini.write_text(BASE_INI.replace("regime = scratch", "regime = memory")
                   .replace("num_layers = 2", "num_layers = 1").replace("dim = 16", "dim = 32"))
    init = ws / "runA" / "ckpt_final" / "model.ckpt"
    out = tmp_path / "o"
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(ini),
                     "--out", str(out), "--init", str(init)]) == 0
    bank = mb.load_bank(out / "ckpt_final" / "bank.bin")
    assert bank.dims == mdl.load_model(init)[0].cfg.bank_dims
    # [anchor] is not read under --init: the run matches the one under the model's own sizes
    want = mb.load_bank(trained["bank"])
    assert all(np.array_equal(x, y) for x, y in zip(want.levels, bank.levels))


def test_bank_dims_must_match_the_model(ws, trained, tmp_path, capsys, monkeypatch):
    def no_embedding(*args, **kwargs):
        raise AssertionError("embedded before the bank was checked against the model")

    # the same ffn block size as the trained model's (2 layers of width 16), another layout
    bank = mb.init_bank(mb.MemoryConfig(mem_type="ffn", rs=(2, 2)), dim=32, heads=2,
                        head_dim=8, ffn_dim=32, num_layers=1, k=2, seed=0)
    path = str(tmp_path / "wide.bin")
    mb.save_bank(bank, path)
    monkeypatch.setattr(em, "embed_batch", no_embedding)
    model, facts, out = str(trained["model"]), trained["facts"], str(tmp_path / "o")
    for argv in (["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(ws / "run_mem.ini"),
                  "--init", model],
                 ["eval", model, facts, "--tree", trained["tree"], "--config", trained["ini"]],
                 ["eval", model, facts, "--mode", "generic", "--config", trained["ini"]],
                 ["block", model, facts, "1", "--tree", trained["tree"], "--config", trained["ini"]]):
        assert cli.main([*argv, "--bank", path, "--out", out]) == 2
        assert "laid out for anchor" in capsys.readouterr().err


def test_block_fills_masked_blocks_by_eval_masked_policy(trained, tmp_path, monkeypatch):
    fetch, fetched = mb.fetch, []

    def recording_fetch(*args, **kwargs):
        fetched.append(fetch(*args, **kwargs))
        return fetched[-1]

    monkeypatch.setattr(mb, "fetch", recording_fetch)
    bank = mb.load_bank(trained["bank"])
    for policy in ("zero", "generic"):
        ini = tmp_path / f"{policy}.ini"
        ini.write_text(BASE_INI + f"\n[eval]\nmasked_policy = {policy}\n")
        fetched.clear()
        assert cli.main(["block", str(trained["model"]), trained["facts"], "1",
                         "--bank", str(trained["bank"]), "--tree", trained["tree"],
                         "--config", str(ini), "--out", str(tmp_path / policy)]) == 0
        masked = 0
        for fm in fetched:
            for level, (rows, blocks) in enumerate(zip(fm.levels, fm.blocks), 1):
                # a masked row's id: -1 under zeros, else the level's generic row k^l
                hit = blocks == (-1 if policy == "zero" else bank.k**level)
                fill = 0.0 if policy == "zero" else bank.generic[level - 1]
                assert np.array_equal(rows[hit], np.broadcast_to(fill, rows[hit].shape))
                masked += int(hit.sum())
        assert masked > 0
    assert bank.generic[0].any()  # the two policies fill differently


def test_bucket_table_keeps_every_fact(trained, tmp_path):
    facts = ev.load_facts(trained["facts"])
    ev.assign_buckets(facts, 8)
    table = tmp_path / "facts8.json"
    table.write_text(json.dumps([asdict(f) for f in facts]))
    out = tmp_path / "o"
    assert cli.main(["eval", str(trained["model"]), str(table), "--mode", "none",
                     "--config", trained["ini"], "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "recall_none.csv").read_text().splitlines()[1:]]
    buckets = [r for r in rows if r[0] not in ("overall", "routing")]
    assert [int(r[0]) for r in buckets] == sorted({f.bucket for f in facts}) == list(range(8))
    assert sum(int(r[1]) for r in buckets) == len(facts)


def test_eval_and_block_reports_ignore_embedder_anchor_and_memory(trained, tmp_path):
    other = tmp_path / "other.ini"
    other.write_text(BASE_INI.replace("dim = 64", "dim = 32\nngram_sizes = 2, 3")
                     .replace("num_layers = 2", "num_layers = 1").replace("dim = 16", "dim = 32")
                     .replace("mem_type = ffn", "mem_type = kv").replace("rs = 2, 2", "rs = 4, 4, 4"))
    model, facts, bank = str(trained["model"]), trained["facts"], str(trained["bank"])
    for ini, out in ((trained["ini"], tmp_path / "a"), (str(other), tmp_path / "b")):
        common = ["--bank", bank, "--tree", trained["tree"], "--config", ini, "--out", str(out)]
        for mode in ("fetched", "generic"):
            assert cli.main(["eval", model, facts, "--mode", mode, *common]) == 0
        assert cli.main(["block", model, facts, "1", "2.2", *common]) == 0
    for name in ("recall_fetched", "recall_generic", "recall_blocked"):
        for ext in (".csv", ".jsonl"):
            assert (tmp_path / "a" / (name + ext)).read_bytes() == (tmp_path / "b" / (name + ext)).read_bytes()


def test_eval_modes_and_reports(ws, trained, tmp_path, capsys):
    out = tmp_path / "ev"
    rc = cli.main(["eval", str(trained["model"]), trained["facts"],
                   "--bank", str(trained["bank"]), "--tree", trained["tree"],
                   "--config", trained["ini"], "--out", str(out)])
    assert rc == 0
    assert (out / "recall_fetched.csv").exists()
    assert (out / "recall_fetched.jsonl").exists()
    assert "mode fetched: overall" in capsys.readouterr().out

    assert cli.main(["eval", str(trained["model"]), trained["facts"], "--mode", "none",
                     "--config", trained["ini"], "--out", str(out)]) == 0
    capsys.readouterr()

    # fetched without a tree, generic without a bank: both config errors
    assert cli.main(["eval", str(trained["model"]), trained["facts"],
                     "--bank", str(trained["bank"]),
                     "--config", trained["ini"], "--out", str(out)]) == 2
    assert "--tree" in capsys.readouterr().err
    assert cli.main(["eval", str(trained["model"]), trained["facts"], "--mode", "generic",
                     "--config", trained["ini"], "--out", str(out)]) == 2
    assert "--bank" in capsys.readouterr().err


def test_block_command(ws, trained, tmp_path, capsys):
    out = tmp_path / "blk"
    rc = cli.main(["block", str(trained["model"]), trained["facts"], "1", "2.2",
                   "--bank", str(trained["bank"]), "--tree", trained["tree"],
                   "--config", trained["ini"], "--out", str(out)])
    assert rc == 0
    assert (out / "recall_blocked.csv").exists()
    assert "blocked subtrees: 1, 2.2" in capsys.readouterr().out
    rc = cli.main(["block", str(trained["model"]), trained["facts"], "x.y",
                   "--bank", str(trained["bank"]), "--tree", trained["tree"],
                   "--config", trained["ini"], "--out", str(out)])
    assert rc == 2
    assert "bad subtree" in capsys.readouterr().err
    # k = 2: root 1.3 would alias the flat id of 2.1
    rc = cli.main(["block", str(trained["model"]), trained["facts"], "1.3",
                   "--bank", str(trained["bank"]), "--tree", trained["tree"],
                   "--config", trained["ini"], "--out", str(out)])
    assert rc == 1
    assert "outside 1..2" in capsys.readouterr().err
    # the tree has depth 2: a level-3 root names no block
    rc = cli.main(["block", str(trained["model"]), trained["facts"], "1.1.1",
                   "--bank", str(trained["bank"]), "--tree", trained["tree"],
                   "--config", trained["ini"], "--out", str(out)])
    assert rc == 1
    assert "deeper" in capsys.readouterr().err


def test_simulate_writes_latency_table(ws, trained, tmp_path, capsys):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", str(ws / "tiers.ini"), str(ws / "routes.jsonl"),
                   "--config", trained["ini"], "--out", str(out)])
    assert rc == 0
    lines = (out / "latency.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # parallel load, serial load, session
    assert "kind" in lines[0]
    capsys.readouterr()
    # depth mismatch between bank levels and tier spec
    one = tmp_path / "one.ini"
    one.write_text("[tier.ram]\nbandwidth = 12e9\nfixed_latency = 0\n"
                   "[placement]\nlevel1 = ram\n")
    assert cli.main(["simulate", str(one), str(ws / "routes.jsonl"), "--config", trained["ini"],
                     "--out", str(out)]) == 2
    assert "tier spec" in capsys.readouterr().err


def test_simulate_replays_a_route_file_byte_for_byte(ws, tmp_path):
    # two 192-parameter float32 levels: 768 bytes from ram (100 us + 64 ns),
    # then from ssd (1 ms + 384 ns). The session loads both levels, repeats
    # leaf 1.1 for free, swaps leaf 1.2's level 2, then reloads both for 2.1.
    out = tmp_path / "sim"
    assert cli.main(["simulate", str(ws / "tiers.ini"), str(ws / "routes.jsonl"),
                     "--config", str(ws / "run.ini"), "--out", str(out)]) == 0
    assert (out / "latency.csv").read_bytes() == (
        b"kind,mode,per_level_s,total_s\n"
        b"load,parallel,0.000100064|0.001000384,0.001000384\n"
        b"load,serial,0.000100064|0.001000384,0.001100448\n"
        b"session,parallel,0.000200128|0.003001152,0.003001152\n"
    )
    assert (out / "leaf_visits.csv").read_bytes() == b"level1,level2,visits\n1,1,2\n1,2,1\n2,1,1\n"


def test_simulate_replays_the_routes_eval_wrote(ws, trained, tmp_path):
    out = tmp_path / "o"
    assert cli.main(["eval", str(trained["model"]), trained["facts"], "--bank", str(trained["bank"]),
                     "--tree", trained["tree"], "--mode", "fetched",
                     "--config", trained["ini"], "--out", str(out)]) == 0
    report = out / "recall_fetched.jsonl"
    assert cli.main(["simulate", str(ws / "tiers.ini"), str(report),
                     "--config", trained["ini"], "--out", str(out)]) == 0
    routes = [tuple(json.loads(line)["routed"]) for line in report.read_text().splitlines()]
    acc = mb.bank_accounting(mb.MemoryConfig(mem_type="ffn", rs=(2, 2)), dim=16, heads=2, head_dim=8,
                             ffn_dim=32, num_layers=2, k=2)
    sess = ts.session_latency(acc["level_sizes"], ts.parse_tier_spec(ws / "tiers.ini"), routes)
    row = (out / "latency.csv").read_text().splitlines()[-1]
    assert row == ",".join(["session", "parallel", "|".join(f"{s:.10g}" for s in sess["per_level"]),
                            f"{sess['total']:.10g}"])
    visits = (out / "leaf_visits.csv").read_text().splitlines()
    assert visits[0] == "level1,level2,visits"
    assert sum(int(line.split(",")[-1]) for line in visits[1:]) == len(json.loads(Path(trained["facts"]).read_text()))


# (how a route file is made, what the error names): a route file simulate cannot replay
BAD_ROUTES = {
    "recall_none.jsonl": (None, "no routed list of ints >= 1, got None"),
    "an empty file": (b"", "the route report holds no routes"),
    "a line that is not JSON": (b'{"routed": [1, 1]}\n{"routed": [1,\n', "not a JSON-lines route report"),
    "bytes that are not UTF-8": (b'{"routed": [1, 1], "name": "B\xe9a"}\n', "can't decode byte 0xe9"),
    "a route of the wrong depth": (b'{"routed": [1, 1]}\n{"routed": [1]}\n', "query (1,) does not have 2 levels"),
}


@pytest.mark.parametrize("case", BAD_ROUTES)
def test_simulate_refuses_a_bad_route_file(ws, trained, tmp_path, capsys, case):
    data, message = BAD_ROUTES[case]
    routes = tmp_path / "routes.jsonl"
    if data is None:
        assert cli.main(["eval", str(trained["model"]), trained["facts"], "--mode", "none",
                         "--config", trained["ini"], "--out", str(tmp_path)]) == 0
        routes = tmp_path / "recall_none.jsonl"
    else:
        routes.write_bytes(data)
    capsys.readouterr()
    out = tmp_path / "sim"
    assert cli.main(["simulate", str(ws / "tiers.ini"), str(routes), "--config", trained["ini"],
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err, err
    assert not (out / "latency.csv").exists()


def test_simulate_runs_on_the_default_config(ws, tmp_path):
    # [memory] rs alone sets the bank's depth; [cluster] depth does not enter
    out = tmp_path / "sim"
    assert cli.main(["simulate", str(ws / "tiers.ini"), str(ws / "routes.jsonl"), "--out", str(out)]) == 0
    assert len((out / "latency.csv").read_text().splitlines()) == 1 + 3


def test_inspect_shows_provenance_and_accounting(ws, trained, capsys):
    assert cli.main(["inspect", trained["tree"]]) == 0
    out = capsys.readouterr().out
    assert "HMTREE" in out
    assert "config_digest" not in out
    assert "input_corpus" in out and "sha256:" in out

    assert cli.main(["inspect", str(trained["bank"])]) == 0
    out = capsys.readouterr().out
    assert "HMBANK" in out
    acc = mb.bank_accounting(mb.MemoryConfig(mem_type="ffn", rs=(2, 2)),
                             dim=16, heads=2, head_dim=8, ffn_dim=32,
                             num_layers=2, k=2)
    assert f"fetch {acc['fetch_params']:,} / bank {acc['bank_params']:,}" in out

    assert cli.main(["inspect", str(trained["state"])]) == 0
    out = capsys.readouterr().out
    assert "HMSTATE" in out and "step 5, aborted 0" in out
    arrays = fileio.read_artifact(trained["state"])[2]
    for level in (1, 2):
        n = arrays[f"opt.level{level}.steps"][:-1]  # block rows, not the generic row
        n = n[n > 0]
        assert f"level {level}: {n.size} blocks trained, updates min {n.min()} max {n.max()}" in out
    assert "level 3" not in out


def test_inspect_lists_every_trained_level(ws, trained, tmp_path, capsys):
    # a width-0 level trains nothing: the state holds level 2 but no level 1
    ini = tmp_path / "kv.ini"
    ini.write_text((ws / "run_mem.ini").read_text().replace("mem_type = ffn", "mem_type = kv")
                   .replace("rs = 2, 2", "rs = 0, 2"))
    assert cli.main(["train", str(ws / "corpus.txt"), trained["tree"], "--config", str(ini), "--out", str(tmp_path),
                     "--init", str(ws / "runA" / "ckpt_final" / "model.ckpt")]) == 0
    state = tmp_path / "ckpt_final" / "trainstate.bin"
    assert cli.main(["inspect", str(state)]) == 0
    out = capsys.readouterr().out
    n = tr.load_state(state).opt["level2"].steps[:-1]
    assert f"level 2: {(n > 0).sum()} blocks trained" in out
    assert "level 1:" not in out


def test_inspect_holds_each_array_once(trained, tmp_path, capsys):
    state = tr.load_state(trained["state"])
    for name in ("level1", "level2"):  # 12 MiB of m and v, so the arrays outweigh the rest
        st = state.opt[name]
        st.m = st.v = np.ones((st.steps.size, 1 << 18), dtype=np.float32)
    path = tmp_path / "big_state.bin"
    tr.save_state(state, path)
    del state, st
    array_bytes = sum(a.nbytes for a in fileio.read_artifact(path)[2].values())
    tracemalloc.start()
    try:
        assert cli.main(["inspect", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "array opt.level2.m: float32 (5, 262144)" in capsys.readouterr().out
    assert peak < 1.5 * array_bytes, (peak, array_bytes)


def test_inspect_tree_shows_embedder_and_balance(trained, capsys):
    assert cli.main(["inspect", trained["tree"]]) == 0
    out = capsys.readouterr().out
    assert "embedder: {'dim': 64, 'ngram_sizes': [3, 4, 5], 'seed': 7}" in out
    stats = cl.load_tree(trained["tree"]).meta["node_stats"].values()
    share = max(s["max_fraction"] for s in stats)
    converged = sum(s["balance_converged"] for s in stats)
    assert f"balance: largest child share {share:.3f}, {converged} of 3 nodes converged" in out
    # the balance line sums up the per-node stats, which are not printed one by one
    assert "node_stats" not in out and "max_fraction" not in out and "n_train" in out


def test_identical_reruns_are_bit_identical(ws, trained, tmp_path):
    ini, corpus = trained["ini"], str(ws / "corpus.txt")
    for tag in ("r1", "r2"):
        assert cli.main(["cluster", corpus, "--config", ini,
                         "--out", str(tmp_path / f"c_{tag}")]) == 0
    assert sha(tmp_path / "c_r1" / "tree.bin") == sha(tmp_path / "c_r2" / "tree.bin")
    # same inputs -> byte-identical checkpoints
    tree = str(tmp_path / "c_r1" / "tree.bin")
    for tag in ("r1", "r2"):
        assert cli.main(["train", corpus, tree, "--config", ini,
                         "--out", str(tmp_path / f"t_{tag}")]) == 0
    for name in ("model.ckpt", "trainstate.bin"):
        assert sha(tmp_path / "t_r1" / "ckpt_final" / name) == \
               sha(tmp_path / "t_r2" / "ckpt_final" / name)


def test_artifacts_do_not_depend_on_the_working_directory(ws, tmp_path, monkeypatch):
    digests = []
    for tag in ("a", "b"):
        d = tmp_path / tag / "inputs"
        d.mkdir(parents=True)
        (d / "corpus.txt").write_bytes((ws / "corpus.txt").read_bytes())
        (d / "run.ini").write_text(BASE_INI)
        monkeypatch.chdir(d)
        assert cli.main(["cluster", str(d / "corpus.txt"), "--config", "run.ini",
                         "--out", "out"]) == 0
        digests.append(sha(d / "out" / "tree.bin"))
    assert digests[0] == digests[1]


def test_out_dir_comes_from_flag_or_run_out(ws, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HIERMEM_OUT", str(tmp_path / "env"))  # not a setting
    ini = tmp_path / "out.ini"
    ini.write_text(BASE_INI + "out = from_ini\n")
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(ini)]) == 0
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(ini), "--out", "from_flag"]) == 0
    assert sorted(q.name for q in tmp_path.iterdir()) == ["from_flag", "from_ini", "out.ini"]


def test_run_seed_seeds_cluster_and_train(ws, tmp_path):
    corpus = str(ws / "corpus.txt")
    trees = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        assert cli.main(["cluster", corpus, "--config", str(ws / "run.ini"), "--seed", str(seed),
                         "--out", str(out)]) == 0
        tree = cl.load_tree(out / "tree.bin")
        assert tree.config.seed == tree.embedder.seed == seed
        trees.append(fileio.read_artifact(out / "tree.bin")[2])
    assert any(not np.array_equal(trees[0][name], trees[1][name]) for name in trees[0])

    out = tmp_path / "t"
    assert cli.main(["train", corpus, str(tmp_path / "s1" / "tree.bin"), "--config", str(ws / "run.ini"),
                     "--seed", "3", "--out", str(out)]) == 0
    assert tr.load_state(out / "ckpt_final" / "trainstate.bin").cfg.seed == 3


@pytest.mark.parametrize("seed", [-1, 2**40])
def test_seed_outside_uint32_exits_2(ws, trained, tmp_path, capsys, seed):
    corpus = str(ws / "corpus.txt")
    ini = tmp_path / "seed.ini"
    ini.write_text(BASE_INI.replace("seed = 7", f"seed = {seed}"))
    for cmd in (["cluster", corpus], ["train", corpus, str(trained["tree"])]):
        for how in (["--config", str(ws / "run.ini"), "--seed", str(seed)], ["--config", str(ini)]):
            assert cli.main(cmd + how + ["--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "0..2**32-1" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [0, 2**32 - 1])
def test_seed_at_the_uint32_bounds_runs(ws, tmp_path, seed):
    corpus = str(ws / "corpus.txt")
    out = tmp_path / "out"
    flags = ["--config", str(ws / "run.ini"), "--seed", str(seed), "--out", str(out)]
    assert cli.main(["cluster", corpus] + flags) == 0
    assert cli.main(["train", corpus, str(out / "tree.bin")] + flags) == 0
    assert tr.load_state(out / "ckpt_final" / "trainstate.bin").cfg.seed == seed


@pytest.mark.parametrize("section, key", [
    ("embedder", "seed"), ("cluster", "seed"), ("train", "seed"),
    *(("train", key) for key in ("beta1", "beta2", "adam_eps", "grad_clip", "anchor_wd", "memory_wd")),
])
def test_stage_seeds_and_optimizer_constants_are_not_keys(ws, tmp_path, capsys, section, key):
    ini = tmp_path / "bad.ini"
    ini.write_text(BASE_INI.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(ini), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"[{section}] " in err
    assert ("[run] seed" if key == "seed" else "has no key") in err


def test_unread_sections_leave_outputs_byte_identical(ws, trained, tmp_path):
    corpus = str(ws / "corpus.txt")
    # cluster reads [embedder], [cluster], [run] and only the number of [memory] rs values
    other = tmp_path / "not_cluster.ini"
    other.write_text(BASE_INI.replace("num_layers = 2", "num_layers = 1").replace("rs = 2, 2", "rs = 4, 4")
                     .replace("total_steps = 5", "total_steps = 3")
                     + "\n[eval]\nmax_new = 2\nmasked_policy = zero\n")
    assert cli.main(["cluster", corpus, "--config", str(other), "--out", str(tmp_path / "c")]) == 0
    assert sha(tmp_path / "c" / "tree.bin") == sha(ws / "outc" / "tree.bin")

    # train reads [train], [memory], [run] and, without --init, [anchor]
    other = tmp_path / "not_train.ini"
    other.write_text((ws / "run_mem.ini").read_text().replace("dim = 64", "dim = 32\nngram_sizes = 2, 3")
                     .replace("k = 2", "k = 3").replace("em_steps = 4", "em_steps = 1")
                     + "\n[eval]\nbatch_size = 3\n")
    assert cli.main(["train", corpus, trained["tree"], "--config", str(other), "--out", str(tmp_path / "t"),
                     "--init", str(ws / "runA" / "ckpt_final" / "model.ckpt")]) == 0
    for name in ("model.ckpt", "bank.bin", "trainstate.bin", "metrics.csv"):
        assert sha(tmp_path / "t" / "ckpt_final" / name) == sha(ws / "runB" / "ckpt_final" / name), name

    # simulate reads the tier spec, the routes, [anchor] and [memory]
    other = tmp_path / "not_simulate.ini"
    other.write_text(BASE_INI.replace("seed = 7", "seed = 8").replace("k = 2", "k = 3")
                     .replace("dim = 64", "dim = 32\nngram_sizes = 2, 3").replace("total_steps = 5", "total_steps = 3"))
    for name, ini in (("s", ws / "run.ini"), ("s_other", other)):
        assert cli.main(["simulate", str(ws / "tiers.ini"), str(ws / "routes.jsonl"),
                         "--config", str(ini), "--out", str(tmp_path / name)]) == 0
    for name in ("latency.csv", "leaf_visits.csv"):
        assert sha(tmp_path / "s_other" / name) == sha(tmp_path / "s" / name), name
