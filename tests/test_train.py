import copy
import hashlib
import json
import mmap
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import cli
from hiermem import fileio
from hiermem import membank as mb
from hiermem import model as mdl
from hiermem import train as tr

ACFG = mdl.AnchorConfig(num_layers=2, dim=16, num_heads=2, head_dim=8,
                        ffn_dim=32, vocab_size=262, tied_head=True,
                        context_length=64)
ACFG4 = replace(ACFG, num_layers=4)


def toy_setup(regime="memory", k=2, depth=2, steps=6, seed=0, rs=(2, 2), mem_type="ffn",
              placement="uniform", acfg=ACFG, dtype=np.float32):
    rng = np.random.default_rng(seed)
    tok = tr.ByteTokenizer()
    docs = ["".join(rng.choice(list("abcdef "), size=rng.integers(8, 30))) for _ in range(40)]
    leaves = [(int(rng.integers(1, k + 1)), int(rng.integers(1, k + 1))) for _ in docs]
    seqs = tr.pack_corpus([tok.encode(d) for d in docs], leaves, 32, tok, k, seed=1)
    model = mdl.init_model(acfg, seed=3, dtype=dtype)
    bank = None
    if regime != "scratch":
        bank = mb.init_bank(mb.MemoryConfig(mem_type=mem_type, rs=rs, placement=placement),
                            **acfg.bank_dims, k=k, seed=4)
    cfg = tr.TrainConfig(regime=regime, batch_size=4, seq_len=32, total_steps=steps,
                         warmup_steps=min(2, steps), lr_max=1e-3, seed=5, log_interval=0)
    return model, bank, seqs, cfg


def bank_digest(bank):
    """sha256 of every level's block rows, then of every level's generic row."""
    h = hashlib.sha256()
    for lv in bank.levels:
        h.update(lv[:-1].tobytes())
    for lv in bank.levels:
        h.update(lv[-1].tobytes())
    return h.hexdigest()


def model_digest(model):
    h = hashlib.sha256()
    for _, p in model.params.items():
        h.update(p.data.tobytes())
    return h.hexdigest()


# --- tokenizer ---

def test_tokenizer_roundtrip_and_specials():
    tok = tr.ByteTokenizer()
    ids = tok.encode("héllo")
    assert tok.decode(ids) == "héllo"
    assert tok.EOT == 256
    assert ids.dtype == np.int32 and (ids < tok.EOT).all()
    # EOT and ids outside the byte range decode to nothing
    assert tok.decode(np.concatenate([ids, [tok.EOT, 300, -1]])) == "héllo"


# --- packing ---

def test_pack_preserves_content_and_leaves():
    tok = tr.ByteTokenizer()
    rng = np.random.default_rng(1)
    docs = ["x" * int(n) for n in rng.integers(3, 90, size=12)]
    leaves = [(int(rng.integers(1, 3)), int(rng.integers(1, 3))) for _ in docs]
    toks = [tok.encode(d) for d in docs]
    seqs = tr.pack_corpus(toks, leaves, 24, tok, 2, seed=0)
    assert {s.leaf_flat for s in seqs} <= {(a - 1) * 2 + (b - 1) for a, b in leaves}
    total_content = sum(len(t) for t in toks)
    packed = 0
    for s in seqs:
        assert len(s.tokens) == 23  # seq_len - 1 inputs; targets take the last slot
        covered = np.zeros(len(s.tokens), dtype=bool)
        for start, end in s.spans:
            span = s.tokens[start:end]
            assert (span < tok.EOT).all()
            covered[start:end] = True
            packed += end - start
        # outside the spans lie only EOT separators and padding
        assert (s.tokens[~covered] == tok.EOT).all()
    assert packed == total_content


def test_pack_groups_by_leaf():
    tok = tr.ByteTokenizer()
    docs = ["aaa", "bbb", "ccc", "ddd"]
    leaves = [(1, 1), (2, 2), (1, 1), (2, 2)]
    seqs = tr.pack_corpus([tok.encode(d) for d in docs], leaves, 16, tok, 2, seed=0)
    for s in seqs:
        body = []
        for start, end in s.spans:
            body.append(tok.decode(s.tokens[start:end]))
        if s.leaf_flat == 0:  # path (1, 1)
            assert set("".join(body)) <= {"a", "c"}
        else:
            assert set("".join(body)) <= {"b", "d"}


# --- batches ---

def test_build_batch_shift_targets_and_weights():
    tok = tr.ByteTokenizer()
    seqs = tr.pack_corpus([tok.encode("abcd"), tok.encode("efgh")],
                          [(1, 1), (1, 2)], 8, tok, 2, seed=0)
    batch = tr.build_batch(seqs)
    B, S = batch["inputs"].shape
    assert batch["targets"].shape == (B, S)
    # targets are inputs shifted left once, EOT-extended
    assert np.array_equal(batch["targets"][:, :-1], batch["inputs"][:, 1:])
    assert (batch["targets"][:, -1] == tok.EOT).all()
    # the leaf never enters the token stream: routing rides on leaf_flats
    assert (batch["inputs"] <= tok.EOT).all()
    assert batch["inputs"][0, 0] == ord("a")
    assert np.array_equal(batch["inputs"], np.stack([s.tokens for s in seqs]))
    assert np.array_equal(batch["leaf_flats"], [s.leaf_flat for s in seqs])
    # loss weights select exactly the content positions (last column unused)
    assert batch["weights"].shape == (B, S)
    assert (batch["weights"][:, -1] == 0).all()
    w = batch["weights"][:, :-1] > 0
    assert np.array_equal(w, batch["inputs"][:, :-1] < tok.EOT)
    assert batch["mask"].shape[-2:] == (S, S)


def test_batch_doc_mask_blocks_cross_document_attention():
    tok = tr.ByteTokenizer()
    seqs = tr.pack_corpus([tok.encode("aaaa"), tok.encode("bbbb")],
                          [(1, 1), (1, 1)], 16, tok, 2, seed=0)
    batch = tr.build_batch(seqs)
    m = batch["mask"][0, 0]
    spans = seqs[0].spans
    (s1, e1), (s2, e2) = spans[0], spans[1]
    assert m[s2, s1] < -1e30  # second doc cannot read the first
    assert m[s2, s2] == 0.0
    assert m[e1 - 1, s1] == 0.0  # within a document, causal lookback is open


def _packed_by_rule(docs, leaves, seq_len, k, eot):
    """(leaf_flat, tokens, spans) per sequence, from the documented packing rule.

    Per leaf, its documents in corpus order form one stream of L = seq_len - 1
    wide sequences: each document is followed by one EOT unless it ends exactly
    at a sequence end, a longer one runs on into the leaf's next sequence, and
    the last sequence is padded with EOT.
    """
    L = seq_len - 1
    out = []
    for leaf in dict.fromkeys(leaves):
        flat = sum((i - 1) * k ** (len(leaf) - 1 - j) for j, i in enumerate(leaf))
        stream, owner = [], []  # token and the document it belongs to, None for EOT
        for di, (doc, lf) in enumerate(zip(docs, leaves)):
            if lf != leaf:
                continue
            stream += list(doc)
            owner += [di] * len(doc)
            if len(stream) % L:
                stream.append(eot)
                owner.append(None)
        pad = -len(stream) % L
        stream += [eot] * pad
        owner += [None] * pad
        for a in range(0, len(stream), L):
            spans, own = [], owner[a : a + L]
            for j, di in enumerate(own):
                if di is not None and (j == 0 or own[j - 1] != di):
                    spans.append((j, j))
                if di is not None:
                    spans[-1] = (spans[-1][0], j + 1)
            out.append((flat, tuple(stream[a : a + L]), tuple(spans)))
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), depth=st.integers(1, 3), seq_len=st.integers(3, 12))
def test_pack_and_batch_follow_the_documented_rule(data, k, depth, seq_len):
    tok = tr.ByteTokenizer()
    leaf = st.tuples(*[st.integers(1, k)] * depth)
    doc = st.lists(st.integers(0, tok.EOT - 1), min_size=1, max_size=3 * seq_len)
    pairs = data.draw(st.lists(st.tuples(doc, leaf), min_size=1, max_size=10))
    docs = [np.array(d, dtype=np.int32) for d, _ in pairs]
    leaves = [lf for _, lf in pairs]
    seqs = tr.pack_corpus(docs, leaves, seq_len, tok, k, seed=data.draw(st.integers(0, 99)))
    got = sorted((s.leaf_flat, tuple(s.tokens.tolist()), tuple(s.spans)) for s in seqs)
    assert got == _packed_by_rule(docs, leaves, seq_len, k, tok.EOT)

    batch = tr.build_batch(seqs)
    inputs = batch["inputs"]
    B, S = inputs.shape
    assert np.array_equal(batch["targets"], np.concatenate([inputs[:, 1:], np.full((B, 1), tok.EOT)], axis=1))
    content = inputs < tok.EOT
    assert np.array_equal(batch["weights"] == 1, content & (np.arange(S) < S - 1))
    assert np.isin(batch["weights"], (0, 1)).all()
    i, j = np.arange(S)[:, None], np.arange(S)[None, :]
    for b, s in enumerate(seqs):
        same_span = np.zeros((S, S), dtype=bool)
        for a, e in s.spans:
            same_span |= (a <= i) & (i < e) & (a <= j) & (j < e)
        open_ = ((j <= i) & same_span) | (i == j)
        assert np.array_equal(batch["mask"][b, 0] == 0, open_)
        assert (batch["mask"][b, 0][~open_] == -np.inf).all()


# --- schedule ---

def test_cosine_schedule_shape():
    cfg = tr.TrainConfig(regime="scratch", total_steps=100, warmup_steps=10,
                         lr_max=1e-3, lr_min=1e-5)
    assert np.isclose(tr.cosine_lr(1, cfg), 1e-4)
    assert np.isclose(tr.cosine_lr(10, cfg), 1e-3)
    assert np.isclose(tr.cosine_lr(100, cfg), 1e-5)
    mid = tr.cosine_lr(55, cfg)
    assert 1e-5 < mid < 1e-3


# --- sparse updates ---

def test_memory_step_touches_only_fetched_and_generic_blocks():
    model, bank, seqs, cfg = toy_setup(steps=1)
    state = tr.TrainState(cfg)
    before_model = model_digest(model)
    before = [lv.copy() for lv in bank.levels]
    batch = tr.build_batch(seqs[:4])
    tr.train_step(model, bank, batch, state, cfg)

    assert model_digest(model) == before_model  # anchor frozen
    touched = set()
    for l in range(bank.depth):
        for row in range(bank.levels[l].shape[0]):
            if not np.array_equal(bank.levels[l][row], before[l][row]):
                touched.add((l + 1, row))
    # every touched row must be an ancestor of some batch leaf, or the level's generic row k^l
    k = bank.k
    allowed = {(l, k**l) for l in range(1, bank.depth + 1)}
    for lf in batch["leaf_flats"]:
        for l in range(1, bank.depth + 1):
            allowed.add((l, int(lf) // k ** (bank.depth - l)))
    assert touched <= allowed
    assert touched


def test_memory_step_keeps_state_only_for_fetched_and_generic_blocks(monkeypatch):
    model, bank, seqs, cfg = toy_setup(steps=1, k=3)
    state = tr.TrainState(cfg)
    batch = tr.build_batch(seqs[:4])
    fetch, fetched_ids = mb.fetch, []

    def recorded(*args, **kwargs):
        out = fetch(*args, **kwargs)
        fetched_ids.extend(out.blocks)  # k^l on a generic row
        return out

    monkeypatch.setattr(mb, "fetch", recorded)
    tr.train_step(model, bank, batch, state, cfg)
    # no anchor parameter has a state: the anchor is frozen
    assert set(state.opt) == {"level1", "level2"}
    for l, ids in enumerate(fetched_ids, 1):
        st = state.opt[f"level{l}"]
        fetched = np.zeros(bank.k**l + 1, dtype=bool)  # the blocks, then the generic row
        fetched[ids] = True
        assert st.m.shape == st.v.shape == bank.levels[l - 1].shape and st.m.dtype == np.float32
        assert st.steps.dtype == np.int64 and np.array_equal(st.steps, fetched.astype(np.int64))
        assert st.m[fetched].any() and st.v[fetched].any()
        assert not st.m[~fetched].any() and not st.v[~fetched].any()
    assert not fetched.all()  # 4 rows reach at most 4 of the 9 level-2 blocks


def test_scratch_regime_updates_anchor_and_no_bank():
    model, _, seqs, cfg = toy_setup(regime="scratch", steps=2)
    state = tr.TrainState(cfg)
    before = model_digest(model)
    for s in range(2):
        batch = tr.build_batch(seqs[4 * s : 4 * s + 4])
        m = tr.train_step(model, None, batch, state, cfg)
    assert model_digest(model) != before
    assert np.isfinite(m["loss"])


@pytest.mark.parametrize("regime, with_bank, named", [
    ("memory", False, "has none"), ("cotrain", False, "has none"), ("scratch", True, "was given one"),
])
def test_regime_that_does_not_fit_the_bank_is_refused(tmp_path, monkeypatch, regime, with_bank, named):
    model, bank, seqs, cfg = toy_setup(regime="memory" if with_bank else "scratch", steps=2)
    cfg = replace(cfg, regime=regime, checkpoint_interval=1)
    steps = []
    monkeypatch.setattr(tr, "train_step", lambda *args: steps.append(args))
    with pytest.raises(tr.TrainError, match=f"regime {regime!r} .*{named}"):
        tr.train_run(model, bank, seqs, cfg, tmp_path, log=lambda m: None)
    assert steps == [] and not any(tmp_path.iterdir())


def test_a_bank_laid_out_for_another_anchor_is_refused(tmp_path, monkeypatch):
    # the bank's ffn blocks, 2 layers of width 16, hold the 192 floats that
    # 1 layer of width 32 takes, in another slot layout
    model, _, seqs, cfg = toy_setup(steps=2, acfg=replace(ACFG, num_layers=1, dim=32))
    bank = toy_setup(steps=2)[1]
    assert [lv.shape[1] for lv in bank.levels] == [192, 192]
    steps, step = [], tr.train_step
    monkeypatch.setattr(tr, "train_step", lambda *args: steps.append(args) or step(*args))
    with pytest.raises(tr.TrainError, match="the bank is laid out for anchor"):
        tr.train_run(model, bank, seqs, cfg, tmp_path, log=lambda m: None)
    assert steps == [] and not (tmp_path / "ckpt_final").exists()


def test_nonfinite_loss_aborts_step():
    model, bank, seqs, cfg = toy_setup(steps=1)
    bank.levels[0][:] = np.inf  # poisoned block must not move any parameter
    state = tr.TrainState(cfg)
    before_gen = [g.copy() for g in bank.generic]
    before_model = model_digest(model)
    batch = tr.build_batch(seqs[:4])
    with pytest.warns(RuntimeWarning, match="invalid value"):
        metrics = tr.train_step(model, bank, batch, state, cfg)
    assert not np.isfinite(metrics["loss"])
    assert state.aborted == 1 and state.step == 1
    assert model_digest(model) == before_model
    for g, b in zip(bank.generic, before_gen):
        assert np.array_equal(g, b)


# --- row shards ---

def _one_step(monkeypatch, shards, regime, seqs=None, positions=tr.SHARD_POSITIONS, dtype=np.float32):
    """Metrics and trained arrays after one step of a toy batch as ``shards``
    halves of row shards of at most ``positions`` input positions."""
    monkeypatch.setattr(tr, "STEP_SHARDS", shards)
    monkeypatch.setattr(tr, "SHARD_POSITIONS", positions)
    model, bank, toy_seqs, cfg = toy_setup(regime, steps=1, dtype=dtype)
    batch = tr.build_batch(seqs or toy_seqs[:4], dtype=dtype)
    metrics = tr.train_step(model, bank, batch, tr.TrainState(cfg), cfg)
    arrays = [p.data for _, p in model.params.items()] + (bank.levels if bank else [])
    return metrics, arrays


def _assert_close(got, ref):
    (m, arrays), (m_ref, ref_arrays) = got, ref
    for name in ("loss", "loss_fetched", "loss_generic", "grad_norm", "tokens_seen"):
        assert m[name] == pytest.approx(m_ref[name], rel=1e-6, nan_ok=True), name
    for a, b in zip(arrays, ref_arrays, strict=True):
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)


@pytest.mark.parametrize("regime", ["memory", "cotrain", "scratch"])
def test_sharded_step_matches_one_tape(monkeypatch, regime):
    ref = _one_step(monkeypatch, 1, regime)
    _assert_close(_one_step(monkeypatch, 2, regime), ref)
    # the step moved the arrays it trains
    model, bank = toy_setup(regime)[:2]
    fresh = [p.data for _, p in model.params.items()] + (bank.levels if bank else [])
    assert any(not np.array_equal(a, b) for a, b in zip(ref[1], fresh))


def test_one_row_batch_is_one_shard(monkeypatch):
    seqs = toy_setup()[2][:1]
    sizes, on_shards = [], tr._on_shards

    def counted(fn, shards):
        sizes.append(len(shards))
        on_shards(fn, shards)

    monkeypatch.setattr(tr, "_on_shards", counted)
    m, arrays = _one_step(monkeypatch, 2, "cotrain", seqs)
    m_ref, ref_arrays = _one_step(monkeypatch, 1, "cotrain", seqs)
    assert sizes == [1, 1]  # one call per step, forward and backward in it, in each run
    np.testing.assert_array_equal([m[c] for c in tr.METRIC_COLUMNS], [m_ref[c] for c in tr.METRIC_COLUMNS])
    assert all(np.array_equal(a, b) for a, b in zip(arrays, ref_arrays, strict=True))


def test_shard_of_padding_only(monkeypatch):
    seqs = toy_setup()[2]
    pad = tr.PackedSequence(tokens=np.full(31, tr.ByteTokenizer.EOT, np.int32), leaf_flat=0, spans=[])
    batch = seqs[:2] + [pad, pad]  # the second shard holds no position with a loss
    got = _one_step(monkeypatch, 2, "cotrain", batch)
    _assert_close(got, _one_step(monkeypatch, 1, "cotrain", batch))
    assert np.isfinite(got[0]["loss"]) and got[0]["tokens_seen"] == tr.build_batch(seqs[:2])["weights"].sum()


@pytest.mark.parametrize("block", [0, 1])
def test_nonfinite_loss_in_one_shard_aborts_the_step(monkeypatch, block):
    model, bank, seqs, cfg = toy_setup(steps=1)
    bank.levels[0][block] = np.inf
    before = [a.copy() for a in bank.levels]
    before_model = model_digest(model)
    fetch, blocks = mb.fetch, []

    def recorded(*args, **kwargs):
        out = fetch(*args, **kwargs)
        blocks.append(out.blocks[0])  # level-1 block per row, k on a generic row
        return out

    monkeypatch.setattr(mb, "fetch", recorded)
    state = tr.TrainState(cfg)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        metrics = tr.train_step(model, bank, tr.build_batch(seqs[:4]), state, cfg)
    poisoned = blocks[0] == block
    assert poisoned[:2].any() != poisoned[2:].any()  # the poisoned rows lie in one shard
    assert not np.isfinite(metrics["loss"]) and np.isnan(metrics["grad_norm"])
    assert state.aborted == 1 and state.step == 1 and not state.opt
    assert model_digest(model) == before_model
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(bank.levels, before))


# 62 positions hold 2 toy rows of 31, so an 8-row batch runs 2 shards per half
TWO_ROWS = 62


def test_each_shard_runs_its_backward_before_the_next_forward(monkeypatch):
    events, lock = [], threading.Lock()
    forward, backward = tr._Shard.forward, tr._Shard.backward

    def record_forward(shard, *args):
        with lock:
            events.append(("forward", threading.get_ident(), shard.rows.start))
        forward(shard, *args)

    def record_backward(shard):
        backward(shard)
        with lock:
            events.append(("backward", threading.get_ident(), shard.rows.start))

    monkeypatch.setattr(tr._Shard, "forward", record_forward)
    monkeypatch.setattr(tr._Shard, "backward", record_backward)
    _one_step(monkeypatch, 2, "cotrain", toy_setup()[2][:8], positions=TWO_ROWS)
    threads = {t: [(kind, row) for kind, u, row in events if u == t] for _, t, _ in events}
    assert sorted(threads.values()) == [
        [("forward", a), ("backward", a), ("forward", a + 2), ("backward", a + 2)] for a in (0, 4)
    ]
    # a shard holds a tape from its forward until its backward has ended
    live = np.cumsum([1 if kind == "forward" else -1 for kind, _, _ in events])
    assert live.max() <= tr.STEP_SHARDS and live[-1] == 0


@pytest.mark.parametrize("regime", ["memory", "cotrain", "scratch"])
def test_shards_of_a_half_match_one_tape(monkeypatch, regime):
    # in float64, so that only the sharding is compared: float32 rounds an
    # anchor gradient summed per shard in another order, and AdamW's first
    # step, about lr * sign(g), turns that into a whole lr where a gradient
    # is near 0. In float32 an 8-row cotrain step's weights differ from one
    # tape's by 1.1e-6 of their norm in 2-row shards, 9.4e-7 in halves.
    seqs = toy_setup()[2][:8]
    ref = _one_step(monkeypatch, 1, regime, seqs, positions=10**6, dtype=np.float64)
    _assert_close(_one_step(monkeypatch, 2, regime, seqs, positions=TWO_ROWS, dtype=np.float64), ref)


def test_nonfinite_block_in_one_of_four_shards_aborts_the_step(monkeypatch):
    model, bank, seqs, cfg = toy_setup(steps=1)
    state = tr.TrainState(cfg)
    # level-1 block 0 goes to the fetched rows of one 2-row shard only:
    # the step's generic draw, made ahead on a copy of its generator
    generic = copy.deepcopy(state.rng).random(8) < 1.0 / (bank.k + 1)
    own = mb.fetch(bank, np.array([s.leaf_flat for s in seqs])).blocks[0]
    by_block = {b: [s for s, o in zip(seqs, own) if o == b] for b in (0, 1)}
    shard = np.flatnonzero(~generic)[0] // 2
    batch = tr.build_batch([by_block[0 if r // 2 == shard and not generic[r] else 1].pop() for r in range(8)])

    def step(shards, positions):
        """Warnings, metrics and state of the step, and whether nothing moved."""
        model, bank, _, _ = toy_setup(steps=1)
        bank.levels[0][0] = np.inf
        before, before_model = [a.copy() for a in bank.levels], model_digest(model)
        monkeypatch.setattr(tr, "STEP_SHARDS", shards)
        monkeypatch.setattr(tr, "SHARD_POSITIONS", positions)
        state = tr.TrainState(cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            metrics = tr.train_step(model, bank, batch, state, cfg)
        moved = model_digest(model) != before_model or not all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(bank.levels, before))
        return {(w.category, str(w.message)) for w in caught}, metrics, state, moved

    fetch, blocks = mb.fetch, []
    monkeypatch.setattr(mb, "fetch", lambda *args: blocks.append(fetch(*args).blocks[0]) or fetch(*args))
    seen, metrics, state, moved = step(2, TWO_ROWS)
    assert (blocks[0] == 0).reshape(4, 2).any(axis=1).tolist().count(True) == 1
    assert not np.isfinite(metrics["loss"]) and np.isnan(metrics["grad_norm"])
    assert state.aborted == 1 and state.step == 1 and not state.opt and not moved
    # only the poisoned shard's forward warns, as the one tape's does
    assert any("invalid value" in m for _, m in seen) and {c for c, _ in seen} == {RuntimeWarning}
    assert seen == step(1, 10**6)[0]


@pytest.mark.parametrize("regime", ["memory", "cotrain"])
def test_a_half_hands_over_one_anchor_gradient(monkeypatch, regime):
    model, seen, apply = toy_setup()[0], [], tr._apply_gradients

    def recorded(*args):
        halves = args[3]
        seen.append([(len(h.shards), {n: g.shape for n, g in h.anchor_grads.items()}) for h in halves])
        # the shards gave their anchor gradients over to their half's sums
        assert all(p.grad is None for h in halves for s in h.shards for p in s.model.params.values())
        return apply(*args)

    monkeypatch.setattr(tr, "_apply_gradients", recorded)
    _one_step(monkeypatch, 2, regime, toy_setup()[2][:8], positions=TWO_ROWS)
    shapes = {n: p.data.shape for n, p in model.params.items()} if regime == "cotrain" else {}
    assert seen == [[(2, shapes), (2, shapes)]]


def test_train_runs_share_one_helper_pool(tmp_path):
    model, bank, seqs, cfg = toy_setup(steps=2)
    tr.train_run(model, bank, seqs, cfg, tmp_path / "a", log=lambda m: None)
    after_one = threading.active_count()
    tr.train_run(model, bank, seqs, cfg, tmp_path / "b", log=lambda m: None)
    assert threading.active_count() == after_one


@pytest.mark.parametrize("shards", [1, 2])
def test_the_pool_sets_the_allocator_before_any_shard_runs(monkeypatch, shards):
    events = []
    monkeypatch.setattr(tr, "STEP_SHARDS", shards)
    monkeypatch.setattr(tr, "_POOL", None)
    monkeypatch.setattr(tr, "_keep_freed_pages", lambda: events.append("allocator"))
    # a lone shard runs inline, and still only after the pool is made
    tr._on_shards(events.append, ["lone"])
    tr._on_shards(events.append, ["a", "b"])
    tr._POOL.shutdown()
    assert events[:2] == ["allocator", "lone"] and sorted(events[2:]) == ["a", "b"]


def test_generic_prob_default_rate(monkeypatch):
    model, bank, seqs, cfg = toy_setup(steps=1)
    state = tr.TrainState(cfg)
    batch = tr.build_batch(seqs[:4])
    fetch, generic = mb.fetch, []

    class Fetched(Exception):
        pass

    def fetch_and_stop(*args, **kwargs):
        # no mask in training: a row that fetched level 1's last row, id k, got the generic block
        generic.append(fetch(*args, **kwargs).blocks[0] == bank.k)
        raise Fetched

    monkeypatch.setattr(mb, "fetch", fetch_and_stop)
    for _ in range(1000):
        with pytest.raises(Fetched):
            tr.train_step(model, bank, batch, state, cfg)
    rows = np.concatenate(generic)
    n, hits = rows.size, int(rows.sum())
    p = 1.0 / (bank.k + 1)
    sigma = (n * p * (1 - p)) ** 0.5
    assert n == 4000 and abs(hits - n * p) < 4 * sigma


# --- state save/load ---

@pytest.mark.parametrize("regime", ["memory", "cotrain", "scratch"])
def test_resume_is_bit_exact(tmp_path, regime):
    model_a, bank_a, seqs, cfg6 = toy_setup(regime, steps=6)
    tr.train_run(model_a, bank_a, seqs, cfg6, tmp_path / "full", log=lambda m: None)

    # identical schedule, but checkpointed at step 3 and restarted from the
    # saved artifacts; the LR curve depends on total_steps so both runs must
    # share cfg6
    cfg_ck = replace(cfg6, checkpoint_interval=3)
    model_b, bank_b, _, _ = toy_setup(regime, steps=6)
    tr.train_run(model_b, bank_b, seqs, cfg_ck, tmp_path / "half", log=lambda m: None)
    ck = tmp_path / "half" / "ckpt_step3"
    model_c, _ = mdl.load_model(ck / "model.ckpt")
    bank_c = mb.load_bank(ck / "bank.bin") if bank_a is not None else None
    st = tr.load_state(ck / "trainstate.bin")
    assert st.step == 3
    tr.train_run(model_c, bank_c, seqs, cfg6, tmp_path / "rest",
                 resume_state=st, log=lambda m: None)

    assert model_digest(model_a) == model_digest(model_c)
    if bank_a is not None:
        assert bank_digest(bank_a) == bank_digest(bank_c)


# sha256 of the model and of the bank after six toy_setup steps, with the
# batch run as train.STEP_SHARDS = 2 row shards and as one shard. A change
# to the order of any operation in numcore, the model or the optimizer
# changes them, and must re-pin them on purpose. One shard is the unsharded
# step. Two shards round differently at these toy shapes (62 rows per
# shared GEMM), and where the anchor trains, its weight gradients are
# summed per shard.
PINNED = {
    ("memory", 2): ("9b9a8563cbfbde65a0edf80b5c0f2000bc4174243267205754d299b4b7d6bf38",
                    "dcfc7072bbb75662f290ad8fd2fcd9e2b9857c9c11611d7d69ccb0fe977ccc95"),
    ("memory", 1): ("9b9a8563cbfbde65a0edf80b5c0f2000bc4174243267205754d299b4b7d6bf38",
                    "4ec1505f0d072cbf9202641fc505a90bbdd595698511cbe4d58e5a64ba27078f"),
    ("cotrain", 2): ("ed43b4591be4450961c83e8aaec9816ab40361d23619531d2ac92df601b691af",
                     "0ff58b88ac4bf993624906508fce820d9787ead1d32bcee8102eee79c81c9943"),
    ("cotrain", 1): ("118f72353b7added9410b6710983cb61770cbfed59f25aba2cef77017163aca8",
                     "e6f7bdf8c19e51c851d08def29b4b69658ac8b36ecafe86cb3bf77b6cdd1d647"),
    ("scratch", 2): ("38a1a968799d9227c93083cbcb3e9dacf5e404a06debcf0aebc422593368a16c", None),
    ("scratch", 1): ("276c893ebee6c95cc589fa5049edf2bf6619ce78e3c6612b0c318c66c45ad823", None),
}


@pytest.mark.parametrize("regime", ["memory", "cotrain", "scratch"])
def test_trained_bytes_are_pinned(tmp_path, monkeypatch, regime):
    for shards in (2, 1):
        monkeypatch.setattr(tr, "STEP_SHARDS", shards)
        model, bank, seqs, cfg = toy_setup(regime)
        tr.train_run(model, bank, seqs, cfg, tmp_path / str(shards), log=lambda m: None)
        assert (model_digest(model), bank and bank_digest(bank)) == PINNED[regime, shards]


def test_shard_bytes_do_not_depend_on_the_threads(tmp_path, monkeypatch):
    # the calling thread runs every shard in turn, the helper pool none
    monkeypatch.setattr(tr, "_on_shards", lambda fn, shards: [fn(s) for s in shards])
    model, bank, seqs, cfg = toy_setup("cotrain")
    tr.train_run(model, bank, seqs, cfg, tmp_path, log=lambda m: None)
    assert (model_digest(model), bank_digest(bank)) == PINNED["cotrain", tr.STEP_SHARDS]


# sha256 of model.ckpt, bank.bin and metrics.csv after four cotrain steps of
# each memory type on a 4-layer anchor under placement "mid", with and without
# a width-0 level, as two row shards and as one. Re-pin them on purpose, as PINNED.
TYPE_PINS = {
    ("ffn", (2, 3), 2): (
        "cba64f6ffb2b818b8c8caf2a67f0bf5495b1b155a806202a42be075c76ecafe0",
        "eb06c8408819a62a357fdee6c2fd9e5aad66fdd7d9ac15f252a19fb93c2c9347",
        "4f63134fab74e064e0b3c93781acc4a5561c5af8299aa0e09ac827ac07ab3283",
    ),
    ("ffn", (2, 3), 1): (
        "d4acaa4aa3ec4a83dcaac2ab76d22089b9af133975cd9ec6ed415f04a5d72092",
        "29873501365e87a57c647e8559df9273c36226b639fcc9965c4f27d4d433f3b9",
        "c09dda3ade2db77102d4ad6acea20a77ce626004331ef9788609e9255a167ef0",
    ),
    ("ffn", (0, 3), 2): (
        "2aadc837e3b42947107e25b5000c0441b60fcd8acf97ab869c6dd13dcad6a7e3",
        "d6e0afbbb9a1a62c791a07a20b33ab5f7dc8c408b775cc7f8c2d1113e86916ab",
        "cf2243fcb8424236dc4de720b531c6b0e2295774167b47692e50537982e52695",
    ),
    ("ffn", (0, 3), 1): (
        "37a3f3ba8e72dabf4928640af67e0b35e421ba8e1e6f344dcef002479258e1e1",
        "e9558fe28ce5cf313c06d72995479c7657f94a1405d6989b7c11e8f692b96347",
        "8337caab93a12a8d48bab454df0c82bc6dce1d5cee21df5a5e08a941f2e4478a",
    ),
    ("lora_qk", (2, 3), 2): (
        "3c131caa1962b5fd01e135bd72eb360bc2883f7c5d6569ce23c4e0099e89c0e8",
        "010503a93070e0c88be2a7ae1aebed63b5a532c38d0ba25c84cd93367b0d6520",
        "58a71f2408e464f704ef7418d8fc0ca31897a1ee77b4a128ec8a662cd6ee9cd3",
    ),
    ("lora_qk", (2, 3), 1): (
        "7aa99b6a825f7b1b06de34618325abbd9502f663618e426807eb166ada55b098",
        "cdf19f5254e3bb5db800af1fd98f2f66e7833fef371742e2dff3a64dad337995",
        "3be1703fbc72d38d94b476d332993077730530c53227d52876e964ece92bb929",
    ),
    ("lora_qk", (0, 3), 2): (
        "6b5bf9d69253b00681fd38413ef00448fc7f40b49a1a2398537cb9dd7a3a0a33",
        "01d1432b8a102a92d08bc8f8ca42d8d5e75d7323986f83fd1f0e5c334a7e912c",
        "7cfbefcccc986cfe872d3f9ece85a5367dd996f436e336a00f062c527cd7ebf0",
    ),
    ("lora_qk", (0, 3), 1): (
        "e10403d0240e8c51cbc51fe87043637c89b5e5f6c782bcd3b6aecc9c821fef62",
        "15ac0bd3a2c8cb0b68122c27ac3146c3904a519c5c2f8e841609ca6f9d35cd21",
        "05853cd990876151eceafe0a52e7b9d5183f2b19c4d5e06506d638fdc9fb8514",
    ),
    ("lora_ov", (2, 3), 2): (
        "2bb5a7118d9f20b2ce26ea3280dd437d80abd88573744952f5e7e453b101ea6f",
        "19e96aec5e07e7c8167c81b9afabb324258287bde44efc100313909dfd85fc08",
        "66863cd421ad394c52b1c2db52f0b5897510e9ced1d6578ce62e4980f315025a",
    ),
    ("lora_ov", (2, 3), 1): (
        "c41f4461d54367c8fbe0bbc8898a3484438feb9c4a2b19c1e2328192f0118daf",
        "5de2c76f1750fc6b9e7796a2eb42230ae54dcb68f36b059485605454f643f020",
        "6a0c4e25f2fd9926d41de91b580129e7cc2e140d134b42a4857aa8055f7c1255",
    ),
    ("lora_ov", (0, 3), 2): (
        "eb03dd39c7b3e9866bb05cdecd6dad47e70a3c7c9fc2dd6b6c9d004cfdd34380",
        "12881ffc3352aa6dace0868c36d695aca04e0432d4c7df8423f12c9d135fdfa4",
        "49e5fcdfc088e39d707d81a7877a734d35835f290aedb992867e08926cb04c94",
    ),
    ("lora_ov", (0, 3), 1): (
        "db6338c693494cc141ed0b3d5d8deaa7b03ca59ce447311ace6561de8338b137",
        "39b5259b5232c07a409265bb24a971b9b59dae22b7ea8d35b289acedb21f120a",
        "790d6626fab3fda3f73b4051843f88ee23ed336c30ca41586285cf81100f7932",
    ),
    ("lora_ffn", (2, 3), 2): (
        "90e5249c43f94aae754952230198342856fe3ccd214a7847685b7b45adb09401",
        "4d7e560dcdd7a254290e7bee942e96a57db2861973d45ddcc4a554ab5fc59be5",
        "9a123fb21ed5a43eee26ab36c8bb4dc7e582fdc8e1fdf78c440c4d7c440b8464",
    ),
    ("lora_ffn", (2, 3), 1): (
        "c9a783418f03519bc028ff58dac1abb71d5b068d6c757e7a0fdc31fb69415aa2",
        "8a071cd2bd8a0b3ff2951eccc019fe7f5eaec323edd8bf5099dda5605a426d4f",
        "2fe658c624f3366758d15f0c1227e13e5086f4ee203cae399111259d39fabb16",
    ),
    ("lora_ffn", (0, 3), 2): (
        "82d2f8d0c840031ef3a32e503631df0f69e1b7eb1755d19ec3e9607cbcb241db",
        "8ce52a7fe44e04be1e01421accc7bb8e4403fa83bafff5f9ec37d6fd9f72d879",
        "b126dc210b44ec04ad11a059e1fdc5cefc53fe3fda3ca373b080fa5aff684617",
    ),
    ("lora_ffn", (0, 3), 1): (
        "bcbb03b107a66cdcab26c29886ce65049b51a000865a5c9013bafa044cb1dd5f",
        "3d904af1aa2433a352e10a14c1473682327eb6b80caa6a87cc62a08f44bd2ed3",
        "eba9f9f4251c91af7c9ea68c4a6755e9ccb8cd10ce2ce0ffad77c1ec1db40dce",
    ),
    ("kv", (2, 3), 2): (
        "12c547e2dd9f5dd3ba8fdd6b8e01bf386160fe409397c242de06ab925201d7f4",
        "b1ff3643c583dfe7e681584a473b30ae4c70ada7c9a146a88cb5d355f8c100ef",
        "76b41b8df63ff2319a7637fec76b38f75d399f8dd0701863cb336dfce8badd5c",
    ),
    ("kv", (2, 3), 1): (
        "5a17a796d0e8428ebc80b9eaae9485dee7b9ec96ce17812410c287f2ba0e24e9",
        "78cad55de418924879a133ce14ebbbbaf345916aa7afa5e85a7f83f795ee71eb",
        "5af9eb371774f89f32fccbac7b88de2076643474ae12d31cc890973ef4a4a629",
    ),
    ("kv", (0, 3), 2): (
        "70e1a8ff292a348580cbdec47a3543812b38fae3643ecff1c87c6c367a7c0f31",
        "b547b124da43ee8c05290fefcbf6d776b0f8eeb5c48aa7ab30e77840d1d73eb2",
        "a4f8fce2c2b65603e9407438ad6701cabe8cbe52283ccf1e143325fcb2f2d192",
    ),
    ("kv", (0, 3), 1): (
        "fe157e8172b5ccdc5a584f5f4c3fa2eab80aa8aa1e94dce4d4fe5e19620efe01",
        "95e8d3a298143600877ae73f6e18ab4869e9b37b4f7e729c06cd8f69e290d5fa",
        "8fce052d794348c47580284c07609116886fb957c426cad07efc1b35f5f48e7e",
    ),
}


@pytest.mark.parametrize("rs", [(2, 3), (0, 3)])
@pytest.mark.parametrize("mem_type", mb.MEMORY_TYPES)
def test_memory_type_bytes_are_pinned(tmp_path, monkeypatch, mem_type, rs):
    for shards in (2, 1):
        monkeypatch.setattr(tr, "STEP_SHARDS", shards)
        model, bank, seqs, cfg = toy_setup("cotrain", steps=4, rs=rs, mem_type=mem_type, placement="mid", acfg=ACFG4)
        run_dir = tmp_path / str(shards)
        tr.train_run(model, bank, seqs, cfg, run_dir, log=lambda m: None)
        got = tuple(hashlib.sha256((run_dir / "ckpt_final" / name).read_bytes()).hexdigest()
                    for name in ("model.ckpt", "bank.bin", "metrics.csv"))
        assert got == TYPE_PINS[mem_type, rs, shards]


@pytest.mark.parametrize("mem_type", mb.MEMORY_TYPES)
def test_width_0_level_trains_no_state(tmp_path, mem_type):
    model, bank, seqs, cfg = toy_setup(steps=4, rs=(0, 3), mem_type=mem_type)
    state = tr.train_run(model, bank, seqs, cfg, tmp_path / "a", log=lambda m: None)
    assert set(state.opt) == {"level2"}


def test_state_with_width_0_levels_resumes_bit_exactly(tmp_path):
    model, bank, seqs, cfg = toy_setup(steps=4, rs=(0, 3), mem_type="lora_ffn")
    tr.train_run(model, bank, seqs, replace(cfg, checkpoint_interval=2), tmp_path, log=lambda m: None)
    ck = tmp_path / "ckpt_step2"

    def resume(state, run_dir):
        model_b, bank_b = mdl.load_model(ck / "model.ckpt")[0], mb.load_bank(ck / "bank.bin")
        tr.train_run(model_b, bank_b, seqs, cfg, run_dir, resume_state=state, log=lambda m: None)
        return model_digest(model_b), bank_digest(bank_b)

    assert resume(tr.load_state(ck / "trainstate.bin"), tmp_path / "rest") == (model_digest(model), bank_digest(bank))
    # a width-0 level trains nothing, so a state for it, even an empty one, is refused
    state = tr.load_state(ck / "trainstate.bin")
    empty = np.zeros((3, 0), np.float32)
    state.opt["level1"] = tr._AdamState(empty, empty, np.full(3, 2, np.int64))
    with pytest.raises(tr.TrainError, match="optimizer state 'level1' names no trained array"):
        resume(state, tmp_path / "refused")


def test_resume_state_that_lost_a_trained_array_is_refused(tmp_path):
    # every applied step updates every trained array, so a state that lacks
    # one was cut, not never made; resuming it would restart that array's moments
    for regime, lost in (("memory", "level2"), ("cotrain", "layers.0.wq")):
        model, bank, seqs, cfg = toy_setup(regime, steps=4)
        run = tmp_path / regime
        tr.train_run(model, bank, seqs, replace(cfg, checkpoint_interval=2), run, log=lambda m: None)
        ck = run / "ckpt_step2"
        magic, meta, arrays = fileio.read_artifact(ck / "trainstate.bin")
        assert {f"opt.{lost}.{part}" for part in ("m", "v", "steps")} <= set(arrays)
        cut = {name: a for name, a in arrays.items() if not name.startswith(f"opt.{lost}.")}
        fileio.write_artifact(run / "cut.bin", magic, meta, cut)
        # a state whose steps were all aborted holds no optimizer state
        fileio.write_artifact(run / "none_applied.bin", magic, dict(meta) | {"aborted": meta["step"]}, arrays)
        for path, named in ((run / "cut.bin", f"2 applied steps train .*'{lost}'.*, but it holds optimizer "
                             r"states for \[(?!.*'" + lost + "')"),
                            (run / "none_applied.bin", r"0 applied steps train \[\], but it holds optimizer "
                             r"states for \['")):
            model_b, bank_b = mdl.load_model(ck / "model.ckpt")[0], mb.load_bank(ck / "bank.bin")
            before = model_digest(model_b), bank_digest(bank_b)
            with pytest.raises(tr.TrainError, match=named):
                tr.train_run(model_b, bank_b, seqs, cfg, run / "rest", resume_state=tr.load_state(path),
                             log=lambda m: None)
            assert (model_digest(model_b), bank_digest(bank_b)) == before
            assert not (run / "rest").exists()


def test_resume_state_that_does_not_fit_the_bank_is_refused(tmp_path):
    model, bank, seqs, cfg = toy_setup(steps=2, rs=(2, 2))
    state = tr.train_run(model, bank, seqs, cfg, tmp_path / "a", log=lambda m: None)
    assert "level2" in state.opt
    saved = tmp_path / "a" / "ckpt_final" / "trainstate.bin"
    cfg4 = replace(cfg, total_steps=4)
    # level 2 is rank 3 here: its blocks are longer than the state's m and v
    model_b, bank_b, _, _ = toy_setup(steps=4, rs=(2, 3))
    before = bank_digest(bank_b), model_digest(model_b)
    with pytest.raises(tr.TrainError, match="l2 holds"):
        tr.train_run(model_b, bank_b, seqs, cfg4, tmp_path / "b",
                     resume_state=tr.load_state(saved), log=lambda m: None)
    assert (bank_digest(bank_b), model_digest(model_b)) == before
    # a tree of k=3 has 3 level-1 blocks and the generic row, one count each; the state has 3
    model_c, bank_c, _, _ = toy_setup(steps=4, k=3)
    with pytest.raises(tr.TrainError, match=r"level1 needs \(4, \d+\) float32 and steps \(4,\)"):
        tr.train_run(model_c, bank_c, seqs, cfg4, tmp_path / "c", resume_state=tr.load_state(saved),
                     log=lambda m: None)
    # names that fit no array: an unknown parameter, a level past the
    # bank's depth, and a bare word
    for name in ("anchor.warp", "level3", "x"):
        bad = tr.load_state(saved)
        bad.opt[name] = bad.opt["level1"]
        with pytest.raises(tr.TrainError, match=f"optimizer state '{name}' names no trained array"):
            tr.train_run(model, bank, seqs, cfg4, tmp_path / "d", resume_state=bad, log=lambda m: None)
    # the right names with the wrong shapes or dtype
    for name, part, value in [("level1", "steps", np.zeros((), np.int64)),
                              ("level1", "steps", np.zeros(4, np.int64)),
                              ("level1", "steps", np.zeros(2, np.int64)),  # no count for the generic row
                              ("level2", "m", np.zeros((5, 1), np.float32)),
                              ("level2", "v", np.zeros(bank.levels[1].shape, np.float64))]:
        bad = tr.load_state(saved)
        setattr(bad.opt[name], part, value)
        with pytest.raises(tr.TrainError, match=f"opt.{name} holds"):
            tr.train_run(model, bank, seqs, cfg4, tmp_path / "d", resume_state=bad, log=lambda m: None)


def test_resume_that_draws_a_sequence_this_run_lacks_is_refused(tmp_path):
    model, bank, seqs, cfg = toy_setup(steps=2)
    assert len(seqs) > 3
    tr.train_run(model, bank, seqs, replace(cfg, checkpoint_interval=1), tmp_path / "a", log=lambda m: None)
    ck = tmp_path / "a" / "ckpt_step1"
    model_b, bank_b = mdl.load_model(ck / "model.ckpt")[0], mb.load_bank(ck / "bank.bin")
    state = tr.load_state(ck / "trainstate.bin")
    before = bank_digest(bank_b), model_digest(model_b)
    with pytest.raises(tr.TrainError, match="epoch order draws sequence .*, and this run has 3 sequences"):
        tr.train_run(model_b, bank_b, seqs[:3], cfg, tmp_path / "b", resume_state=state, log=lambda m: None)
    assert state.step == 1 and (bank_digest(bank_b), model_digest(model_b)) == before
    assert not (tmp_path / "b").exists()


def test_fewer_sequences_than_a_batch_train_and_resume_bit_exactly(tmp_path):
    model, bank, seqs, cfg = toy_setup(steps=4)
    seqs = seqs[:3]  # a batch of 4 spans two epochs
    state = tr.train_run(model, bank, seqs, replace(cfg, checkpoint_interval=1), tmp_path / "full",
                         log=lambda m: None)
    assert state.step == 4 and state.aborted == 0
    assert len(state.epoch_order) == 6 and sorted(state.epoch_order.tolist()) == [0, 0, 1, 1, 2, 2]
    final_state = (tmp_path / "full" / "ckpt_final" / "trainstate.bin").read_bytes()
    for step in (1, 2, 3):  # every step starts a new pair of epochs
        ck = tmp_path / "full" / f"ckpt_step{step}"
        model_b, bank_b = mdl.load_model(ck / "model.ckpt")[0], mb.load_bank(ck / "bank.bin")
        tr.train_run(model_b, bank_b, seqs, cfg, tmp_path / f"rest{step}",
                     resume_state=tr.load_state(ck / "trainstate.bin"), log=lambda m: None)
        assert (model_digest(model_b), bank_digest(bank_b)) == (model_digest(model), bank_digest(bank))
        assert (tmp_path / f"rest{step}" / "ckpt_final" / "trainstate.bin").read_bytes() == final_state


@pytest.mark.parametrize("field, value", [
    ("regime", "cotrain"), ("batch_size", 3), ("seq_len", 64), ("warmup_steps", 1),
    ("lr_max", 2e-3), ("lr_min", 1e-6), ("seed", 6),
])
def test_resume_under_another_config_is_refused(tmp_path, field, value):
    model, bank, seqs, cfg = toy_setup(steps=2)
    tr.train_run(model, bank, seqs, cfg, tmp_path / "a", log=lambda m: None)
    saved = tmp_path / "a" / "ckpt_final" / "trainstate.bin"
    # these may change: they alter no step
    free = replace(cfg, total_steps=3, checkpoint_interval=2, log_interval=5)
    tr.train_run(model, bank, seqs, free, tmp_path / "b", resume_state=tr.load_state(saved), log=lambda m: None)
    before = bank_digest(bank), model_digest(model)
    with pytest.raises(tr.TrainError, match=f"another config: {field} .*, this run {value!r}"):
        tr.train_run(model, bank, seqs, replace(free, **{field: value}), tmp_path / "c",
                     resume_state=tr.load_state(saved), log=lambda m: None)
    assert (bank_digest(bank), model_digest(model)) == before


@pytest.mark.parametrize("regime, trained", [
    ("memory", {"level1", "level2"}),
    ("cotrain", {"level1", "level2"} | set(mdl._anchor_layout(ACFG))),
    ("scratch", set(mdl._anchor_layout(ACFG))),
])
@pytest.mark.parametrize("k", [2, 4])
def test_state_file_holds_three_arrays_per_trained_array(tmp_path, regime, trained, k):
    model, bank, seqs, cfg = toy_setup(regime, k=k, steps=3)
    state = tr.train_run(model, bank, seqs, cfg, tmp_path, log=lambda m: None)
    assert set(state.opt) == trained
    arrays = fileio.read_artifact(tmp_path / "ckpt_final" / "trainstate.bin")[2]
    # however many blocks were trained: a level's blocks share its arrays
    assert len(arrays) == 2 + 3 * len(trained)
    assert set(arrays) == {"sched.order", "metrics.rows"} | {f"opt.{name}.{part}" for name in trained
                                                             for part in ("m", "v", "steps")}
    if bank is not None:
        assert arrays["opt.level2.steps"].shape == (k**2 + 1,) and 0 < arrays["opt.level2.steps"].max() <= 3
    assert all(arrays[f"opt.{name}.steps"].dtype == np.int64 for name in trained)


@pytest.mark.parametrize("regime", ["memory", "cotrain"])
def test_state_file_stores_the_trained_rows_of_each_level(tmp_path, capsys, regime):
    # k=4: 16 level-2 blocks, of which 3 steps of 4 rows fetch at most 12
    model, bank, seqs, cfg = toy_setup(regime, k=4, steps=3)
    state = tr.train_run(model, bank, seqs, replace(cfg, checkpoint_interval=1), tmp_path / "run",
                         log=lambda m: None)
    path = tmp_path / "run" / "ckpt_final" / "trainstate.bin"
    magic, meta, arrays = fileio.read_artifact(path)
    levels = {name: st for name, st in state.opt.items() if name.startswith("level")}
    assert sorted(levels) == ["level1", "level2"] and (levels["level2"].steps == 0).sum() >= 4
    for name, st in state.opt.items():
        for part in ("m", "v"):
            # a level's trained rows in row order, shaped (count_nonzero(steps), s_l); an anchor array whole
            want = getattr(st, part)[st.steps > 0] if name in levels else getattr(st, part)
            assert np.array_equal(arrays[f"opt.{name}.{part}"], want), (name, part)
        assert np.array_equal(arrays[f"opt.{name}.steps"], st.steps)
    # smaller than the dense layout by exactly the untrained rows' bytes
    dense = {f"opt.{name}.{part}": getattr(st, part) for name, st in levels.items() for part in ("m", "v")}
    fileio.write_artifact(tmp_path / "dense.bin", magic, meta, dict(arrays) | dense)
    untrained = sum(2 * st.m[st.steps == 0].nbytes for st in levels.values())
    assert (tmp_path / "dense.bin").stat().st_size - path.stat().st_size == untrained > 0
    # loading scatters the rows back into zeros: the state in RAM is the saved one
    loaded = tr.load_state(path)
    assert sorted(loaded.opt) == sorted(state.opt)
    for name, st in state.opt.items():
        for part in tr.OPT_PARTS:
            got, want = getattr(loaded.opt[name], part), getattr(st, part)
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, part)
    # resumes from every checkpoint end on the uninterrupted run's bytes
    final = path.read_bytes()
    for step in (1, 2):
        ck = tmp_path / "run" / f"ckpt_step{step}"
        model_b, bank_b = mdl.load_model(ck / "model.ckpt")[0], mb.load_bank(ck / "bank.bin")
        tr.train_run(model_b, bank_b, seqs, cfg, tmp_path / f"rest{step}",
                     resume_state=tr.load_state(ck / "trainstate.bin"), log=lambda m: None)
        assert (model_digest(model_b), bank_digest(bank_b)) == (model_digest(model), bank_digest(bank))
        assert (tmp_path / f"rest{step}" / "ckpt_final" / "trainstate.bin").read_bytes() == final
    # inspect lists the stored arrays and counts every block trained, as from the dense layout
    assert cli.main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "step 3, aborted 0" in out
    for level, name in enumerate(sorted(levels), 1):
        n = levels[name].steps[:-1][levels[name].steps[:-1] > 0]
        assert f"level {level}: {n.size} blocks trained, updates min {n.min()} max {n.max()}" in out
        assert f"array opt.{name}.m: float32 {arrays[f'opt.{name}.m'].shape}" in out


def _resident_kib(arr: np.ndarray) -> int:
    """The ``Rss:`` of the mapping that starts at ``arr``'s first byte, in KiB."""
    lines = Path("/proc/self/smaps").read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith(f"{arr.ctypes.data:x}-"))
    return next(int(line.split()[1]) for line in lines[head + 1:] if line.startswith("Rss:"))


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="reads /proc/self/smaps (Linux)")
def test_saving_and_loading_a_state_touch_only_its_trained_rows(tmp_path):
    # a page of the state's shared map turns resident when read, so a save
    # that read an untrained row would show here; one page per float32 row
    rows, trained = 9, [1, 4, 8]
    state = tr.TrainState(tr.TrainConfig())
    m, v = (tr._fresh_zeros((rows, mmap.PAGESIZE // 4), np.float32) for _ in range(2))
    steps = np.zeros(rows, np.int64)
    steps[trained] = 2
    m[trained], v[trained] = 0.5, 0.25  # written as AdamW writes the fetched rows
    state.opt["level1"] = tr._AdamState(m, v, steps)
    resident = len(trained) * mmap.PAGESIZE // 1024
    assert [_resident_kib(a) for a in (m, v)] == [resident] * 2
    tr.save_state(state, tmp_path / "state.bin")
    assert [_resident_kib(a) for a in (m, v)] == [resident] * 2
    loaded = tr.load_state(tmp_path / "state.bin").opt["level1"]
    assert [_resident_kib(a) for a in (loaded.m, loaded.v)] == [resident] * 2
    assert np.array_equal(loaded.m, m) and np.array_equal(loaded.v, v) and np.array_equal(loaded.steps, steps)


def test_malformed_or_old_state_files_are_refused(tmp_path, capsys):
    model, bank, seqs, cfg = toy_setup(steps=2)
    tr.train_run(model, bank, seqs, cfg, tmp_path, log=lambda m: None)
    magic, meta, arrays = fileio.read_artifact(tmp_path / "ckpt_final" / "trainstate.bin")
    m = arrays["opt.level1.m"]
    steps = np.zeros(2, np.int64)
    cases = {
        # the layout before one state per array: per-block m and v, counts in the metadata
        "per-block": ({"opt.l1.0.m": m[0], "opt.l1.0.v": m[0]}, {"opt_steps": {"l1.0": 2}}, "older version"),
        "opt_steps": ({}, {"opt_steps": {}}, "older version"),
        # the layout before the generic block was its level's last row
        "generic apart": ({"opt.generic.l1.m": m[-1], "opt.generic.l1.v": m[-1], "opt.generic.l1.steps": steps[0]},
                          {}, "older version"),
        "per-block names": ({"opt.l1.3.m": m[0], "opt.l1.3.v": m[0]}, {}, "'l1.3' has ['m', 'v'], not"),
        "no v": ({"opt.level3.m": m, "opt.level3.steps": steps}, {}, "'level3' has ['m', 'steps'], not"),
        "float steps": ({"opt.level3.m": m, "opt.level3.v": m, "opt.level3.steps": steps * 1.0}, {},
                        "opt.level3.steps is float64, expected int64"),
        "int32 steps": ({"opt.level3.m": m, "opt.level3.v": m, "opt.level3.steps": steps.astype(np.int32)}, {},
                        "opt.level3.steps is int32"),
        "unknown part": ({"opt.level1.w": m}, {}, "unknown array 'opt.level1.w'"),
        "no name": ({"opt.m": m}, {}, "unknown array 'opt.m'"),
        "unknown array": ({"extra": m}, {}, "unknown array 'extra'"),
    }
    # a level's m and v hold one row per count above 0, and no other
    m2, trained2 = arrays["opt.level2.m"], int(np.count_nonzero(arrays["opt.level2.steps"]))
    cases |= {
        "a row too many": ({"opt.level2.m": np.concatenate([m2, m2[:1]])}, {},
                           f"opt.level2.m holds {trained2 + 1} rows, and opt.level2.steps counts {trained2}"),
        "a row too few": ({"opt.level2.v": m2[1:]}, {},
                          f"opt.level2.v holds {trained2 - 1} rows, and opt.level2.steps counts {trained2}"),
        "2-D steps": ({"opt.level3.m": m, "opt.level3.v": m, "opt.level3.steps": np.ones((2, 2), np.int64)}, {},
                      "opt.level3.steps is shaped (2, 2)"),
    }
    paths = {}
    for case, (more_arrays, more_meta, match) in cases.items():
        paths[case] = tmp_path / f"{case}.bin", match
        fileio.write_artifact(paths[case][0], magic, dict(meta) | more_meta, dict(arrays) | more_arrays)
    # the dense layout of an older version: every row of a level's m and v,
    # here at k=4, where 2 steps of 4 rows leave some level-2 blocks untrained
    model, bank, seqs, cfg = toy_setup(k=4, steps=2)
    st = tr.train_run(model, bank, seqs, cfg, tmp_path / "k4", log=lambda m: None).opt["level2"]
    assert (st.steps == 0).any()
    magic, meta, arrays = fileio.read_artifact(tmp_path / "k4" / "ckpt_final" / "trainstate.bin")
    paths["dense"] = tmp_path / "dense.bin", (f"opt.level2.m holds {st.steps.size} rows, and opt.level2.steps "
                                              f"counts {np.count_nonzero(st.steps)} trained rows (a dense state")
    fileio.write_artifact(paths["dense"][0], magic, meta, dict(arrays) | {"opt.level2.m": st.m, "opt.level2.v": st.v})
    for case, (path, match) in paths.items():
        with pytest.raises(fileio.ArtifactError) as err:
            tr.load_state(path)
        message = str(err.value)
        assert message.startswith(str(path)) and match in message and "\n" not in message, case
    # a resume and `hiermem inspect` read the file through load_state
    with pytest.raises(fileio.ArtifactError, match="a dense state of an older version is not read"):
        tr.train_run(model, bank, seqs, replace(cfg, total_steps=3), tmp_path / "resumed",
                     resume_state=tr.load_state(paths["dense"][0]), log=lambda m: None)
    for case in ("dense", "a row too many", "a row too few"):
        path, match = paths[case]
        assert cli.main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and match in err, err


def test_metrics_csv_and_checkpoint_files(tmp_path):
    model, bank, seqs, cfg = toy_setup(steps=3)
    state = tr.train_run(model, bank, seqs, cfg, tmp_path, log=lambda m: None)
    ckpt = tmp_path / "ckpt_final"
    assert (ckpt / "model.ckpt").exists()
    assert (ckpt / "bank.bin").exists()
    assert (ckpt / "trainstate.bin").exists()
    lines = (ckpt / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(tr.METRIC_COLUMNS)
    assert len(lines) == 1 + 3
    assert state.step == 3
    norm = tr.METRIC_COLUMNS.index("grad_norm")
    assert all(np.isfinite(float(line.split(",")[norm])) for line in lines[1:])
    # an aborted step computes no gradient: its grad_norm cell is empty
    bank.levels[0][:] = np.inf
    with pytest.warns(RuntimeWarning, match="invalid value"):
        tr.train_step(model, bank, tr.build_batch(seqs[:4]), state, cfg)
    assert state.aborted == 1
    ckpt = tr.save_checkpoint(tmp_path, "aborted", model, bank, state)
    last = (ckpt / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "4" and last[norm] == ""
    # a state file from before the grad_norm column is refused, not misread
    magic, meta, arrays = fileio.read_artifact(ckpt / "trainstate.bin")
    arrays["metrics.rows"] = arrays["metrics.rows"][:, :norm]
    fileio.write_artifact(tmp_path / "old.bin", magic, meta, arrays)
    with pytest.raises(tr.TrainError, match="columns"):
        tr.load_state(tmp_path / "old.bin")


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(regime="warp")
    with pytest.raises(ValueError):
        tr.TrainConfig(total_steps=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(warmup_steps=11, total_steps=10)
    for field in ("lr_max", "lr_min"):
        for value in (float("nan"), float("inf"), -1e-3):
            with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
                tr.TrainConfig(**{field: value})
    tr.TrainConfig(lr_max=0.0, lr_min=0.0)
    with pytest.raises(ValueError, match="seq_len must be at least 3, got 2"):
        tr.TrainConfig(seq_len=2)
    for field in ("checkpoint_interval", "log_interval"):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            tr.TrainConfig(**{field: -2})
    tr.TrainConfig(seq_len=3, checkpoint_interval=0, log_interval=0)


# A step's churn: twelve 1-MiB and four 4-MiB float32 arrays made, then freed
# newest first with a 4-MiB temporary made at each free; minor faults per round.
CHURN = """
import json, resource, sys
import numpy as np
from hiermem import train as tr
if not tr._keep_freed_pages():
    sys.exit(3)
MIB = 1 << 20
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(MIB // 4, np.float32) for _ in range(12)] + [np.ones(MIB, np.float32) for _ in range(4)]
    while arrays:
        arrays.pop()
        np.ones(MIB, np.float32)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_freed_step_arrays_keep_their_pages():
    # a subprocess: the allocator setting holds for the rest of a process
    src = str(Path(tr.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", CHURN], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    if run.returncode == 3:
        pytest.skip("the C library takes no mallopt settings")
    assert run.returncode == 0, run.stderr
    faults = json.loads(run.stdout)
    assert all(f < 100 for f in faults[1:]), faults


# Four 4-MiB float32 arrays made and freed on another thread, as a helper
# shard's are; then the minor faults of making four more on the calling thread.
THREAD_CHURN = """
import json, resource, sys, threading
import numpy as np
from hiermem import train as tr
if not tr._keep_freed_pages():
    sys.exit(3)
MIB = 1 << 20
def churn():
    arrays = [np.ones(MIB, np.float32) for _ in range(4)]
helper = threading.Thread(target=churn)
helper.start()
helper.join(30)
if helper.is_alive():
    sys.exit(4)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
arrays = [np.ones(MIB, np.float32) for _ in range(4)]
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


def test_a_helper_threads_freed_arrays_serve_the_calling_thread():
    # one malloc arena: without it, the helper frees into an arena of its
    # own and the calling thread faults in about 2000 fresh pages
    src = str(Path(tr.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", THREAD_CHURN], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    if run.returncode == 3:
        pytest.skip("the C library takes no mallopt settings")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) < 100


def test_keep_freed_pages_does_nothing_without_mallopt(monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(tr.ctypes, "CDLL", NoMallopt)
    assert tr._keep_freed_pages() is False
