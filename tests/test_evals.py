import json
import threading
from dataclasses import asdict

import numpy as np
import pytest

from hiermem import cluster as cl
from hiermem import embed as em
from hiermem import evals as ev
from hiermem import membank as mb
from hiermem import model as mdl
from hiermem import numcore as nc
from hiermem import refcheck as rc
from hiermem.train import ByteTokenizer

SPEC = ev.SyntheticCorpusSpec(topics=3, entities_per_topic=4, zipf_exponent=1.0,
                              total_fact_mentions=60, filler_docs_per_topic=5, seed=2)
ECFG = em.EmbedderConfig(dim=64, seed=0)


@pytest.fixture(scope="module")
def corpus():
    return ev.gen_corpus(SPEC)


@pytest.fixture(scope="module")
def setup(corpus):
    docs, facts = corpus
    X = em.embed_batch([d.text for d in docs], ECFG)
    tree = cl.train_tree(X, cl.ClusterConfig(k=2, depth=2, em_steps=4,
                                             batch_per_step=64,
                                             balance_limit=0.75, seed=1))
    acfg = mdl.AnchorConfig(num_layers=2, dim=16, num_heads=2, head_dim=8,
                            ffn_dim=32, vocab_size=262, tied_head=True,
                            context_length=192)
    model = mdl.init_model(acfg, seed=3)
    bank = mb.init_bank(mb.MemoryConfig(mem_type="ffn", rs=(2, 2)),
                        dim=16, heads=2, head_dim=8, ffn_dim=32,
                        num_layers=2, k=2, seed=4)
    tok = ByteTokenizer()
    return docs, facts, tree, model, bank, tok


# --- corpus generation ---

def test_spec_validation():
    with pytest.raises(ValueError):
        ev.SyntheticCorpusSpec(topics=0)
    with pytest.raises(ValueError):
        ev.SyntheticCorpusSpec(zipf_exponent=-0.1)
    with pytest.raises(ValueError):
        ev.SyntheticCorpusSpec(topics=4, entities_per_topic=4, total_fact_mentions=15)
    with pytest.raises(ValueError):
        ev.SyntheticCorpusSpec(value_low=500, value_high=100)


def test_gen_corpus_counts(corpus):
    docs, facts = corpus
    assert len(facts) == SPEC.topics * SPEC.entities_per_topic
    assert sum(f.mentions for f in facts) == SPEC.total_fact_mentions
    assert min(f.mentions for f in facts) >= 1
    assert len(docs) == SPEC.total_fact_mentions + SPEC.topics * SPEC.filler_docs_per_topic
    by_id = {f.entity: f for f in facts}
    n_fact_docs = 0
    for d in docs:
        if d.entity is not None:
            n_fact_docs += 1
            f = by_id[d.entity]
            assert d.topic == f.topic
            assert d.text.endswith(f"{f.name} {f.attribute} is {f.value}.")
    assert n_fact_docs == SPEC.total_fact_mentions
    # ranks interleave across topics, so every topic owns one of the T most
    # frequent facts and one of the T rarest
    counts = sorted(f.mentions for f in facts)
    T = SPEC.topics
    for t in range(T):
        mine = [f.mentions for f in facts if f.topic == t]
        assert min(mine) <= counts[T - 1]
        assert max(mine) >= counts[-T]


def test_gen_corpus_deterministic(corpus):
    docs, facts = corpus
    docs2, facts2 = ev.gen_corpus(SPEC)
    assert [d.text for d in docs] == [d.text for d in docs2]
    assert [(f.name, f.value, f.mentions) for f in facts] == \
           [(f.name, f.value, f.mentions) for f in facts2]
    docs3, _ = ev.gen_corpus(ev.SyntheticCorpusSpec(**{**SPEC.__dict__, "seed": 3}))
    assert [d.text for d in docs] != [d.text for d in docs3]


def test_apportion_sums_and_tracks_weights():
    w = np.array([5.0, 3.0, 1.0, 1.0])
    c = ev._apportion(100, w)
    assert c.sum() == 100
    exact = 100 * w / w.sum()
    assert np.all(np.abs(c - exact) < 1.0)


def test_assign_buckets_partitions_by_frequency(corpus):
    _, facts = corpus
    sizes = [sum(f.bucket == b for f in facts) for b in range(5)]
    assert sum(sizes) == len(facts)
    assert max(sizes) - min(sizes) <= 1
    rare = max(f.mentions for f in facts if f.bucket == 0)
    freq = min(f.mentions for f in facts if f.bucket == 4)
    assert rare <= freq


def test_fact_io_roundtrip(tmp_path, corpus):
    _, facts = corpus
    facts = [ev.Fact(**{**f.__dict__}) for f in facts]
    facts[0].home_leaf = (2, 1)
    rows = [asdict(f) for f in facts]
    del rows[2]["home_leaf"]  # an absent home leaf reads as None, as null does
    p = tmp_path / "facts.json"
    p.write_text(json.dumps(rows))
    back = ev.load_facts(p)
    assert back == facts
    assert back[0].home_leaf == (2, 1) and back[1].home_leaf is None and back[2].home_leaf is None


# --- prompts and parsing ---

def test_extract_int_and_prompt():
    assert ev.extract_int("the code is 402.") == 402
    assert ev.extract_int("a 12 b 34") == 12
    assert ev.extract_int("no digits") is None
    f = ev.Fact(entity=0, name="Bakode Li", topic=0, attribute="code",
                value=7, mentions=1)
    assert ev.fact_prompt(f) == "Bakode Li code is"


# --- routing ---

def test_route_texts_paths(setup):
    docs, _, tree, *_ = setup
    paths = ev.route_texts([d.text for d in docs[:10]], tree, ECFG)
    assert paths.shape == (10, 2)
    assert paths.min() >= 1 and paths.max() <= 2


# --- fact recall ---

def test_fact_recall_report_structure(setup):
    _, facts, tree, model, bank, tok = setup
    rep = ev.fact_recall(model, bank, tree, ECFG, tok, facts, mode="fetched")
    assert rep.mode == "fetched"
    assert 0.0 <= rep.overall <= 1.0
    assert sum(b["count"] for b in rep.buckets) == len(facts)
    assert len(rep.traces) == len(facts)
    for t in rep.traces:
        assert set(t) == {"entity", "name", "topic", "bucket", "value",
                          "predicted", "correct", "routed"}
        assert len(t["routed"]) == tree.depth
    # routing accuracy appears once every fact has a home; self-assignment
    # scores 1.0 by construction
    assert rep.routing_accuracy is None
    homed = [ev.Fact(**{**f.__dict__}) for f in facts]
    for f, t in zip(homed, rep.traces):
        f.home_leaf = tuple(t["routed"])
    rep2 = ev.fact_recall(model, bank, tree, ECFG, tok, homed, mode="fetched")
    assert rep2.routing_accuracy == 1.0


def test_fact_recall_refuses_a_home_leaf_off_the_tree(setup):
    _, facts, tree, model, bank, tok = setup
    for home in ((1, 2, 1), (3, 1), (1,)):
        homed = [ev.Fact(**{**f.__dict__}) for f in facts]
        homed[-1].home_leaf = home
        with pytest.raises(ev.EvalError, match="home leaf"):
            ev.fact_recall(model, bank, tree, ECFG, tok, homed, mode="fetched")
    with pytest.raises(ev.EvalError, match="needs a cluster tree"):
        ev.fact_recall(model, bank, None, ECFG, tok, facts, mode="fetched")


def test_fact_recall_generic_mode_on_kv_memories(setup):
    _, facts, tree, model, _, tok = setup
    bank = mb.init_bank(mb.MemoryConfig(mem_type="kv", rs=(2, 2)),
                        dim=16, heads=2, head_dim=8, ffn_dim=32,
                        num_layers=2, k=2, seed=4)
    rep = ev.fact_recall(model, bank, None, None, tok, facts, mode="generic")
    assert rep.mode == "generic" and len(rep.traces) == len(facts)


def test_fact_recall_counts_rigged_decoder(setup, monkeypatch):
    _, facts, tree, model, bank, tok = setup
    answers = {ev.fact_prompt(f): f.value for f in facts}

    def rigged(model, prompts_tokens, max_new, mems):
        out = np.full((prompts_tokens.shape[0], max_new), ByteTokenizer.EOT,
                      dtype=np.int32)
        for j in range(prompts_tokens.shape[0]):
            v = answers[tok.decode(prompts_tokens[j])]
            ids = tok.encode(f" {v}.")[:max_new]
            out[j, : len(ids)] = ids
        return out

    monkeypatch.setattr(ev, "greedy_decode_batch", rigged)
    rep = ev.fact_recall(model, bank, tree, ECFG, tok, facts, mode="fetched")
    assert rep.overall == 1.0
    assert all(b["accuracy"] == 1.0 for b in rep.buckets if b["count"])
    assert all(t["predicted"] == t["value"] for t in rep.traces)
    with pytest.raises(ev.EvalError):
        ev.fact_recall(model, bank, tree, ECFG, tok, facts, mode="warp")


# --- cached greedy decode ---

DECODE_CFG = mdl.AnchorConfig(num_layers=2, dim=16, num_heads=2, head_dim=8, ffn_dim=32,
                              vocab_size=37, tied_head=False, context_length=24)


def decode_memories(model, mem_type, rs, B, rng):
    """Random memories for B rows: every third row generic, the rest fetched blocks."""
    cfg = model.cfg
    bank = mb.init_bank(mb.MemoryConfig(mem_type=mem_type, rs=rs), dim=cfg.dim,
                        heads=cfg.num_heads, head_dim=cfg.head_dim, ffn_dim=cfg.ffn_dim,
                        num_layers=cfg.num_layers, k=2, seed=1)
    for arr in bank.levels + bank.generic:
        arr[:] = rng.normal(0, 0.3, size=arr.shape)
    fm = mb.fetch(bank, rng.integers(0, 4, size=B), generic_rows=np.arange(B) % 3 == 0)
    rows = [nc.Tensor(r.astype(model.dtype)) for r in fm.levels]
    return mdl.AttachedMemories(bank.cfg, cfg, rows)


@pytest.mark.parametrize("rs", [(2, 3), (0, 4)])
@pytest.mark.parametrize("mem_type", mb.MEMORY_TYPES)
def test_cached_decode_matches_full_rerun_in_float64(mem_type, rs):
    rng = np.random.default_rng(7)
    model = mdl.init_model(DECODE_CFG, seed=5, dtype=np.float64)
    B, S0, max_new = 6, 5, 6
    prompts = rng.integers(0, DECODE_CFG.vocab_size, size=(B, S0)).astype(np.int32)
    mems = decode_memories(model, mem_type, rs, B, rng)
    got = ev.greedy_decode_batch(model, prompts, max_new, mems)
    assert np.array_equal(got, rc.oracle_greedy_decode(model, prompts, max_new, mems))
    # every cached call's (B, 1, V) logits against the last position of the
    # full forward over the same prefix
    seq = np.concatenate([prompts, got], axis=1)
    cache = mdl.KVCache(DECODE_CFG, B, S0 + max_new - 1, model.dtype)
    for end in range(S0, S0 + max_new):
        step = mdl.forward(model, seq[:, cache.length:end], mems=mems, cache=cache).data
        full = mdl.forward(model, seq[:, :end], mems=mems).data
        assert step.shape == (B, 1, DECODE_CFG.vocab_size)
        assert np.abs(step - full[:, -1:]).max() < 1e-12


@pytest.mark.parametrize("mem_type", mb.MEMORY_TYPES)
def test_cached_decode_tokens_match_full_rerun_in_float32(mem_type):
    rng = np.random.default_rng(11)
    model = mdl.init_model(DECODE_CFG, seed=6)
    prompts = rng.integers(0, DECODE_CFG.vocab_size, size=(16, 9)).astype(np.int32)
    mems = decode_memories(model, mem_type, (2, 3), 16, rng)
    got = ev.greedy_decode_batch(model, prompts, 8, mems)
    assert np.array_equal(got, rc.oracle_greedy_decode(model, prompts, 8, mems))
    plain = ev.greedy_decode_batch(model, prompts, 8, None)
    assert np.array_equal(plain, rc.oracle_greedy_decode(model, prompts, 8, None))


def recording_forward(monkeypatch):
    """Replace model.forward with one that records each call's token shape
    and thread name, in call order."""
    calls = []
    forward = mdl.forward

    def recording(model, tokens, *args, **kwargs):
        calls.append((np.asarray(tokens).shape, threading.current_thread().name))
        return forward(model, tokens, *args, **kwargs)

    monkeypatch.setattr(mdl, "forward", recording)
    return calls


def test_decode_runs_the_prompt_once_then_one_position_per_token(monkeypatch):
    model = mdl.init_model(DECODE_CFG, seed=6)
    prompts = np.ones((3, 5), dtype=np.int32)
    calls = recording_forward(monkeypatch)
    ev.greedy_decode_batch(model, prompts, 4, None)
    # the prompt as rows [0, 1) and [1, 3), then the whole batch per token
    assert sorted(shape for shape, _ in calls[:2]) == [(1, 5), (2, 5)]
    assert [shape for shape, _ in calls[2:]] == [(3, 1)] * 3
    calls.clear()
    assert ev.greedy_decode_batch(model, prompts, 0, None).shape == (3, 0)
    assert calls == []


def test_decode_of_no_prompts_is_empty(monkeypatch):
    model = mdl.init_model(DECODE_CFG, seed=6)
    calls = recording_forward(monkeypatch)
    for max_new in (0, 3):
        out = ev.greedy_decode_batch(model, np.empty((0, 5), dtype=np.int32), max_new, None)
        assert out.shape == (0, max_new) and out.dtype == np.int32
    assert calls == []


def test_prefill_runs_two_row_shards_on_two_threads(monkeypatch):
    model = mdl.init_model(DECODE_CFG, seed=6)
    prompts = np.arange(24, dtype=np.int32).reshape(4, 6) % DECODE_CFG.vocab_size
    calls = recording_forward(monkeypatch)
    ev.greedy_decode_batch(model, prompts, 3, None)
    main = threading.current_thread().name
    prefill, steps = calls[:2], calls[2:]
    assert [shape for shape, _ in prefill] == [(2, 6), (2, 6)]
    # one shard on the calling thread, the other on the helper pool's thread
    assert sorted(name == main for _, name in prefill) == [False, True]
    assert any(name.startswith("hiermem-shard") for _, name in prefill)
    # the one-position steps run on the calling thread at the full batch
    assert steps == [((4, 1), main)] * 2
    calls.clear()
    ev.greedy_decode_batch(model, prompts[:1], 3, None)
    assert calls == [((1, 6), main), ((1, 1), main), ((1, 1), main)]


def test_cache_row_view_writes_the_parents_rows_and_keeps_its_checks():
    model = mdl.init_model(DECODE_CFG, seed=6)
    prompts = np.arange(15, dtype=np.int32).reshape(3, 5)
    whole = mdl.KVCache(DECODE_CFG, 3, 7, model.dtype)
    mdl.forward(model, prompts, cache=whole)
    parent = mdl.KVCache(DECODE_CFG, 3, 7, model.dtype)
    view = parent.rows(1, 3)
    logits = mdl.forward(model, prompts[1:], cache=view)
    assert logits.data.shape == (2, 1, DECODE_CFG.vocab_size)
    assert (view.length, parent.length) == (5, 0)
    for i in range(DECODE_CFG.num_layers):
        assert np.shares_memory(view.keys[i], parent.keys[i])
        assert np.allclose(parent.keys[i][1:, :, :5], whole.keys[i][1:, :, :5], atol=1e-6)
        assert np.allclose(parent.values[i][1:, :, :5], whole.values[i][1:, :, :5], atol=1e-6)
        assert not parent.keys[i][0].any() and not parent.values[i][0].any()
    # the view is checked against the parent's capacity and context length
    with pytest.raises(mdl.ModelError, match="overrun"):
        mdl.forward(model, prompts[1:, :3], cache=view)
    long = mdl.KVCache(DECODE_CFG, 2, DECODE_CFG.context_length + 1, model.dtype).rows(0, 1)
    mdl.forward(model, np.zeros((1, DECODE_CFG.context_length), dtype=np.int32), cache=long)
    with pytest.raises(mdl.ModelError, match="exceeds context length"):
        mdl.forward(model, np.zeros((1, 1), dtype=np.int32), cache=long)


@pytest.mark.parametrize("mem_type", mb.MEMORY_TYPES)
def test_one_generic_row_decodes_as_that_row_repeated(mem_type):
    rng = np.random.default_rng(13)
    model = mdl.init_model(DECODE_CFG, seed=6, dtype=np.float64)
    cfg = model.cfg
    bank = mb.init_bank(mb.MemoryConfig(mem_type=mem_type, rs=(2, 3)), **cfg.bank_dims, k=2, seed=1)
    for arr in bank.generic:
        arr[:] = rng.normal(0, 0.3, size=arr.shape)
    prompts = rng.integers(0, cfg.vocab_size, size=(5, 6)).astype(np.int32)
    one = mdl.AttachedMemories(bank.cfg, cfg, [nc.Tensor(g[None]) for g in bank.generic])
    repeated = mdl.AttachedMemories(bank.cfg, cfg, [nc.Tensor(np.repeat(g[None], 5, axis=0)) for g in bank.generic])
    got = ev.greedy_decode_batch(model, prompts, 6, one)
    assert np.array_equal(got, ev.greedy_decode_batch(model, prompts, 6, repeated))
    assert np.array_equal(got, rc.oracle_greedy_decode(model, prompts, 6, repeated))
    # the generic rows change the decode, so the test sees them
    assert not np.array_equal(got, ev.greedy_decode_batch(model, prompts, 6, None))


def test_decode_lengths_and_context_limit():
    model = mdl.init_model(DECODE_CFG, seed=6)
    prompts = np.arange(12, dtype=np.int32).reshape(3, 4)
    one = ev.greedy_decode_batch(model, prompts, 1, None)
    assert one.shape == (3, 1)
    assert np.array_equal(one, rc.oracle_greedy_decode(model, prompts, 1, None))
    # the last new token is never fed back, so S0 + max_new - 1 positions must fit
    S0 = DECODE_CFG.context_length - 2
    long = np.ones((2, S0), dtype=np.int32)
    assert ev.greedy_decode_batch(model, long, 3, None).shape == (2, 3)
    with pytest.raises(mdl.ModelError):
        ev.greedy_decode_batch(model, long, 4, None)


def test_write_recall_report(tmp_path):
    rep = ev.RecallReport(
        mode="fetched", overall=0.5,
        buckets=[{"bucket": 0, "count": 2, "correct": 1, "accuracy": 0.5},
                 {"bucket": 1, "count": 0, "correct": 0, "accuracy": float("nan")}],
        routing_accuracy=0.75,
        traces=[{"entity": 0, "correct": True}, {"entity": 1, "correct": False}],
    )
    csv, jl = tmp_path / "r.csv", tmp_path / "r.jsonl"
    ev.write_recall_report(rep, csv, jl)
    lines = csv.read_text().splitlines()
    assert lines[0] == "bucket,count,correct,accuracy"
    assert lines[1:] == ["0,2,1,0.5", "1,0,0,", "overall,2,1,0.5", "routing,,,0.75"]
    assert [json.loads(l)["entity"] for l in jl.read_text().splitlines()] == [0, 1]
    rep.routing_accuracy = None
    ev.write_recall_report(rep, csv, jl)
    assert "routing" not in csv.read_text()
