import json

import numpy as np
import pytest

from hiermem import cluster as cl
from hiermem import embed as em
from hiermem import evals as ev
from hiermem import membank as mb
from hiermem import model as mdl
from hiermem import numcore as nc
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
    tok = ByteTokenizer(prefix_slots=4)
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
        if d.is_fact:
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
    p = tmp_path / "facts.json"
    ev.save_facts(facts, p)
    back = ev.load_facts(p)
    assert back == facts
    assert back[0].home_leaf == (2, 1) and back[1].home_leaf is None


def test_save_corpus_rejects_multiline(tmp_path):
    with pytest.raises(ev.EvalError):
        ev.save_corpus([ev.Document(text="a\nb", topic=0)], tmp_path / "c.txt")


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


# --- perplexity ---

def test_perplexity_modes(setup):
    docs, _, tree, model, bank, tok = setup
    texts = [d.text for d in docs[:8]]
    outs = {m: ev.perplexity(model, bank if m != "none" else None,
                             tree if m == "fetched" else None,
                             ECFG if m == "fetched" else None,
                             tok, texts, mode=m)
            for m in ("none", "generic", "fetched")}
    for m, o in outs.items():
        assert o["mode"] == m
        assert np.isfinite(o["nll"]) and o["perplexity"] > 1.0
        # a document cut at the context scores one position fewer: its
        # last kept byte has no next byte in view
        assert o["tokens"] == sum(n if n <= 192 else 191 for n in (len(t.encode()) for t in texts))
    with pytest.raises(ev.EvalError):
        ev.perplexity(model, bank, tree, ECFG, tok, texts, mode="warp")
    with pytest.raises(ev.EvalError):
        ev.perplexity(model, None, None, None, tok, texts, mode="generic")


def test_perplexity_truncated_document_scores_no_eot(setup):
    *_, bank, tok = setup
    acfg = mdl.AnchorConfig(num_layers=2, dim=16, num_heads=2, head_dim=8, ffn_dim=32,
                            vocab_size=262, tied_head=True, context_length=16)
    model = mdl.init_model(acfg, seed=3)
    text = "the quick brown fox jumps over the lazy."
    assert len(text) == 40
    out = ev.perplexity(model, None, None, None, tok, [text], mode="none")
    assert out["tokens"] == 15
    ids = tok.encode(text)
    logits = mdl.forward(model, ids[None, :16])
    weights = np.ones((1, 16), dtype=np.float32)
    weights[0, 15] = 0.0  # its next byte, "f", lies beyond the context
    ce = nc.cross_entropy(logits, ids[None, 1:17], weights)
    assert out["nll"] == pytest.approx(float(ce.data), rel=1e-6)


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


def test_blocking_sweep_structure(setup):
    _, facts, tree, model, bank, tok = setup
    out = ev.blocking_sweep(model, bank, tree, ECFG, tok, facts,
                            blocked_counts=[0, 1, 2])
    assert [o["blocked"] for o in out] == [0, 1, 2]
    assert out[0]["blocked_roots"] == [] and out[0]["affected_count"] == 0
    assert np.isnan(out[0]["affected_accuracy"])
    assert set(out[1]["blocked_roots"]) <= set(out[2]["blocked_roots"])
    assert out[2]["affected_count"] == len(facts)  # every root blocked
    for o in out:
        assert isinstance(o["report"], ev.RecallReport)
        assert 0.0 <= o["overall"] <= 1.0
    with pytest.raises(ev.EvalError):
        ev.blocking_sweep(model, bank, tree, ECFG, tok, facts, blocked_counts=[3])


# --- retrieval baseline ---

def test_rag_store_and_baseline(setup):
    docs, _, tree, *_ = setup
    texts = [d.text for d in docs[:40]]
    store = ev.build_rag_store(texts, tree, ECFG)
    assert store.embeddings.shape == (40, 64)
    assert store.paths.shape == (40, 2)
    # an exact stored text is its own nearest neighbor inside its cell
    assert ev.rag_retrieve(texts[7], store, tree, ECFG) == 7
    out = ev.rag_baseline(texts[7], store, tree, ECFG,
                          generate_fn=lambda s: "the code is 123")
    assert out["retrieved"] == 7
    assert out["prompt"] == texts[7] + "\n" + texts[7]
    assert out["predicted"] == 123


def test_write_recall_report(tmp_path):
    rep = ev.RecallReport(
        mode="fetched", overall=0.5,
        buckets=[{"bucket": 0, "count": 2, "correct": 1, "accuracy": 0.5}],
        routing_accuracy=0.75,
        traces=[{"entity": 0, "correct": True}, {"entity": 1, "correct": False}],
    )
    csv, jl = tmp_path / "r.csv", tmp_path / "r.jsonl"
    ev.write_recall_report(rep, csv, jl)
    lines = csv.read_text().splitlines()
    assert lines[0] == "bucket,count,correct,accuracy"
    assert lines[1] == "0,2,1,0.500000"
    assert lines[2] == "overall,2,1,0.500000"
    assert lines[3] == "routing,,,0.750000"
    assert [json.loads(l)["entity"] for l in jl.read_text().splitlines()] == [0, 1]
    rep.routing_accuracy = None
    ev.write_recall_report(rep, csv)
    assert "routing" not in csv.read_text()
