import hashlib
import shutil

import pytest

from hiermem import cli
from hiermem import evals as ev
from hiermem import membank as mb

BASE_INI = """\
[embedder]
dim = 64

[cluster]
k = 2
depth = 2
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
    ev.save_corpus(docs, root / "corpus.txt")
    ev.save_facts(facts, root / "facts.json")
    (root / "run.ini").write_text(BASE_INI)
    (root / "tiers.ini").write_text(
        "[tier.ram]\nbandwidth = 12e9\nfixed_latency = 100e-6\n"
        "[tier.ssd]\nbandwidth = 2e9\nfixed_latency = 1e-3\n"
        "[placement]\nlevel1 = ram\nlevel2 = ssd\nbytes_per_param = 2\n"
    )
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
        "facts": str(ws / "facts.json"),
        "ini": ini,
    }


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


def test_missing_artifact_exits_1(ws, tmp_path, capsys):
    rc = cli.main(["inspect", str(tmp_path / "absent.bin")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_damaged_artifact_exits_1(trained, tmp_path, capsys):
    raw = open(trained["tree"], "rb").read()
    p = tmp_path / "damaged.bin"
    for data in (raw[:10], raw[:20], raw[:30], raw + b"junk"):
        p.write_bytes(data)
        assert cli.main(["inspect", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error:")


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


def test_cluster_k1_yields_trivial_index(ws, tmp_path):
    ini = tmp_path / "k1.ini"
    ini.write_text(BASE_INI.replace("k = 2", "k = 1").replace("balance_limit = 0.75",
                                                              "balance_limit = 1.0"))
    out = tmp_path / "out"
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", str(ini),
                     "--out", str(out)]) == 0
    rows = (out / "doc_index.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1:] == ["1", "1"] for r in rows)


def test_train_checkpoints_exist(ws, trained):
    assert trained["model"].exists()
    assert trained["bank"].exists()
    assert (ws / "runA" / "ckpt_final" / "model.ckpt").exists()
    assert not (ws / "runA" / "ckpt_final" / "bank.bin").exists()  # scratch: no bank


def test_train_rejects_small_vocab(ws, trained, tmp_path, capsys):
    ini = tmp_path / "tiny_vocab.ini"
    ini.write_text(BASE_INI.replace("vocab_size = 262", "vocab_size = 259"))
    rc = cli.main(["train", str(ws / "corpus.txt"), trained["tree"],
                   "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "prefix slots" in capsys.readouterr().err


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


def test_simulate_writes_latency_table(ws, trained, tmp_path, capsys):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", str(ws / "tiers.ini"), "--queries", "50",
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
    assert cli.main(["simulate", str(one), "--config", trained["ini"],
                     "--out", str(out)]) == 2
    assert "tier spec" in capsys.readouterr().err


def test_inspect_shows_provenance_and_accounting(ws, trained, capsys):
    assert cli.main(["inspect", trained["tree"]]) == 0
    out = capsys.readouterr().out
    assert "HMTREE" in out
    assert "config_digest" in out
    assert "input_corpus" in out and "sha256:" in out

    assert cli.main(["inspect", str(trained["bank"])]) == 0
    out = capsys.readouterr().out
    assert "HMBANK" in out
    acc = mb.bank_accounting(mb.MemoryConfig(mem_type="ffn", rs=(2, 2)),
                             dim=16, heads=2, head_dim=8, ffn_dim=32,
                             num_layers=2, k=2)
    assert f"fetch {acc['fetch_params']:,} / bank {acc['bank_params']:,}" in out


def test_identical_reruns_are_bit_identical(ws, trained, tmp_path):
    ini, corpus = trained["ini"], str(ws / "corpus.txt")
    for tag in ("r1", "r2"):
        assert cli.main(["cluster", corpus, "--config", ini,
                         "--out", str(tmp_path / f"c_{tag}")]) == 0
    assert sha(tmp_path / "c_r1" / "tree.bin") == sha(tmp_path / "c_r2" / "tree.bin")
    # same inputs by the same paths -> byte-identical checkpoints
    tree = str(tmp_path / "c_r1" / "tree.bin")
    for tag in ("r1", "r2"):
        assert cli.main(["train", corpus, tree, "--config", ini,
                         "--out", str(tmp_path / f"t_{tag}")]) == 0
    assert sha(tmp_path / "t_r1" / "ckpt_final" / "model.ckpt") == \
           sha(tmp_path / "t_r2" / "ckpt_final" / "model.ckpt")


def test_out_env_fallback(ws, trained, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("HIERMEM_OUT", str(target))
    assert cli.main(["cluster", str(ws / "corpus.txt"), "--config", trained["ini"]]) == 0
    assert (target / "tree.bin").exists()
