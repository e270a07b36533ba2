from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import membank as mb
from hiermem import model as mdl
from hiermem import numcore as nc
from hiermem import refcheck as rc

TOY = mdl.AnchorConfig(num_layers=2, dim=16, num_heads=2, head_dim=8,
                       ffn_dim=32, vocab_size=37, tied_head=False,
                       context_length=64)


def oracle_cfg(cfg):
    return dict(num_layers=cfg.num_layers, num_heads=cfg.num_heads,
                head_dim=cfg.head_dim, ffn_dim=cfg.ffn_dim,
                rope_base=cfg.rope_base, norm_eps=cfg.norm_eps,
                tied_head=cfg.tied_head)


def attach_rows(bank, model, B, dtype):
    rows = [nc.Tensor(np.repeat(bank.generic[l][None], B, axis=0).astype(dtype))
            for l in range(bank.depth)]
    return mdl.AttachedMemories(bank.cfg, model.cfg, rows)


def test_forward_matches_straight_line_oracle_per_sequence():
    rng = np.random.default_rng(0)
    model = mdl.init_model(TOY, seed=5, dtype=np.float64)
    toks = rng.integers(0, TOY.vocab_size, size=(3, 9)).astype(np.int32)
    logits = mdl.forward(model, toks)
    weights = {n: p.data for n, p in model.params.items()}
    for b in range(3):
        ref = rc.oracle_forward(toks[b], weights, oracle_cfg(TOY))
        assert np.abs(logits.data[b] - ref).max() < 1e-12


def test_param_count_matches_closed_form_tied_and_untied():
    for tied in (False, True):
        cfg = mdl.AnchorConfig(num_layers=3, dim=24, num_heads=3, head_dim=8,
                               ffn_dim=48, vocab_size=101, tied_head=tied)
        model = mdl.init_model(cfg, seed=1)
        H = cfg.attn_width
        per_layer = 4 * cfg.dim * H + 2 * H + 3 * cfg.dim * cfg.ffn_dim + 2 * cfg.dim
        emb = cfg.vocab_size * cfg.dim * (1 if tied else 2)
        want = emb + cfg.num_layers * per_layer + cfg.dim
        assert sum(p.data.size for _, p in model.params.items()) == want
    tied_names = {n for n, _ in mdl.init_model(
        mdl.AnchorConfig(num_layers=1, dim=8, num_heads=1, head_dim=8,
                         ffn_dim=16, vocab_size=11, tied_head=True), seed=0).params.items()}
    assert "head.weight" not in tied_names


def test_graceful_attach_all_memory_types():
    rng = np.random.default_rng(3)
    cfg = mdl.AnchorConfig(num_layers=4, dim=32, num_heads=4, head_dim=8,
                           ffn_dim=64, vocab_size=259, tied_head=True,
                           context_length=64)
    model = mdl.init_model(cfg, seed=2)
    toks = rng.integers(0, cfg.vocab_size, size=(2, 12)).astype(np.int32)
    base = mdl.forward(model, toks).data
    for mem_type in mb.MEMORY_TYPES:
        bank = mb.init_bank(
            mb.MemoryConfig(mem_type=mem_type, rs=(2, 3)),
            dim=cfg.dim, heads=cfg.num_heads, head_dim=cfg.head_dim,
            ffn_dim=cfg.ffn_dim, num_layers=cfg.num_layers, k=2, seed=7,
        )
        out = mdl.forward(model, toks, mems=attach_rows(bank, model, 2, model.dtype)).data
        assert np.abs(out - base).max() <= 1e-6, mem_type


def test_memories_are_one_row_per_sequence():
    # a one-row memory no longer broadcasts over the batch, at any level
    rng = np.random.default_rng(6)
    model = mdl.init_model(TOY, seed=5)
    toks = rng.integers(0, TOY.vocab_size, size=(3, 7)).astype(np.int32)
    for mem_type in mb.MEMORY_TYPES:
        bank = mb.init_bank(mb.MemoryConfig(mem_type=mem_type, rs=(2, 2)), **TOY.bank_dims, k=2, seed=1)
        with pytest.raises(mdl.ModelError, match="memories for 1 sequences attached to a batch of 3"):
            mdl.forward(model, toks, mems=attach_rows(bank, model, 1, model.dtype))
        with pytest.raises(mdl.ModelError, match="level 2 has 1 rows but level 1 has 3"):
            mdl.AttachedMemories(bank.cfg, TOY, [nc.Tensor(np.zeros((3, bank.generic[0].size), np.float32)),
                                                 nc.Tensor(bank.generic[1][None])])
        mems = attach_rows(bank, model, 3, model.dtype)
        assert mems.batch == 3 and mems.rows(1, 3).batch == 2 and mems.rows(2, 9).batch == 1
        with pytest.raises(mdl.ModelError, match="memories for 2 sequences"):
            mdl.forward(model, toks, mems=mems.rows(1, 3))


@pytest.mark.parametrize("mem_type", mb.MEMORY_TYPES)
def test_width_0_level_runs_no_zero_size_op(monkeypatch, mem_type):
    # a width-0 level has no slots, so forward computes nothing for it
    rng = np.random.default_rng(8)
    model = mdl.init_model(TOY, seed=5)
    toks = rng.integers(0, TOY.vocab_size, size=(2, 6)).astype(np.int32)
    bank = mb.init_bank(mb.MemoryConfig(mem_type=mem_type, rs=(0, 3)), **TOY.bank_dims, k=2, seed=1)
    bank.generic[1][:] = rng.normal(0, 0.3, size=bank.generic[1].shape)
    base = mdl.forward(model, toks).data
    sizes = []
    for name in ("matmul", "scale", "add"):
        def spy(*args, op=getattr(nc, name), name=name):
            sizes.append((name, *(a.data.size for a in args if isinstance(a, nc.Tensor))))
            return op(*args)
        monkeypatch.setattr(nc, name, spy)
    out = mdl.forward(model, toks, mems=attach_rows(bank, model, 2, model.dtype)).data
    assert [s for s in sizes if 0 in s] == []
    assert np.abs(out - base).max() > 1e-4  # level 2 still attaches


# the anchor weight each LoRA site adapts; its pair folds into that weight
LORA_WEIGHTS = {"q": "wq", "k": "wk", "v": "wv", "o": "wo", "f1": "w1", "f2": "w2", "f3": "w3"}


def random_lora_rows(mem_type, cfg, B, rng):
    """(bank config, per-level (B, s_l) float64 rows): random pairs, both sides nonzero."""
    mcfg = mb.MemoryConfig(mem_type=mem_type, rs=(2, 3))
    bank = mb.init_bank(mcfg, **cfg.bank_dims, k=2, seed=1)
    return mcfg, [rng.normal(0, 0.3, size=(B, g.size)) for g in bank.generic]


@pytest.mark.parametrize("mem_type", list(mb.LORA_SITES))
def test_lora_memories_match_the_oracle_with_pairs_folded_in(mem_type):
    # x @ W + (alpha / r) (x @ A) @ B is x @ (W + (alpha / r) A @ B), per row
    rng = np.random.default_rng(9)
    model = mdl.init_model(TOY, seed=5, dtype=np.float64)
    toks = rng.integers(0, TOY.vocab_size, size=(3, 7)).astype(np.int32)
    mcfg, rows = random_lora_rows(mem_type, TOY, 3, rng)
    mems = mdl.AttachedMemories(mcfg, TOY, [nc.Tensor(r) for r in rows])
    logits = mdl.forward(model, toks, mems=mems).data
    for b in range(3):
        weights = {n: p.data.copy() for n, p in model.params.items()}
        for li in range(TOY.num_layers):
            for sl in mems.at_layer(li + 1):
                for site in mb.LORA_SITES[mem_type]:
                    a, bb = sl[site + "a"].data[b], sl[site + "b"].data[b]
                    weights[f"layers.{li}.{LORA_WEIGHTS[site]}"] += mb.LORA_ALPHA / a.shape[-1] * (a @ bb)
        ref = rc.oracle_forward(toks[b], weights, oracle_cfg(TOY))
        assert np.abs(logits[b] - ref).max() < 1e-12


@pytest.mark.parametrize("mem_type", list(mb.LORA_SITES))
def test_lora_row_gradients_match_finite_differences(mem_type):
    cfg = mdl.AnchorConfig(num_layers=1, dim=8, num_heads=2, head_dim=4, ffn_dim=12,
                           vocab_size=11, tied_head=False, context_length=8)
    rng = np.random.default_rng(10)
    model = mdl.init_model(cfg, seed=2, dtype=np.float64)
    toks = rng.integers(0, cfg.vocab_size, size=(2, 5))
    targets = rng.integers(0, cfg.vocab_size, size=(2, 5))
    mcfg, rows = random_lora_rows(mem_type, cfg, 2, rng)

    w = np.ones(targets.shape)

    def loss(level_rows):
        mems = mdl.AttachedMemories(mcfg, cfg, level_rows)
        return nc.cross_entropy(mdl.forward(model, toks, mems=mems), targets, w, w.sum())

    leaves = [nc.Tensor(r.copy(), requires_grad=True) for r in rows]
    with nc.Tape() as tape:
        out = loss(leaves)
    nc.backward(tape, out)
    ref = rc.oracle_grad(lambda ps: float(loss([nc.Tensor(p) for p in ps]).data), [r.copy() for r in rows])
    for t, r in zip(leaves, ref):
        assert np.abs(t.grad - r).max() / np.abs(r).max() < 1e-6


def test_nonzero_memories_change_logits():
    rng = np.random.default_rng(4)
    model = mdl.init_model(TOY, seed=5)
    bank = mb.init_bank(mb.MemoryConfig(mem_type="ffn", rs=(2, 2)),
                        dim=TOY.dim, heads=TOY.num_heads, head_dim=TOY.head_dim,
                        ffn_dim=TOY.ffn_dim, num_layers=TOY.num_layers, k=2, seed=1)
    for l in range(2):
        bank.generic[l][:] = rng.normal(0, 0.3, size=bank.generic[l].shape)
    toks = rng.integers(0, TOY.vocab_size, size=(1, 8)).astype(np.int32)
    base = mdl.forward(model, toks).data
    out = mdl.forward(model, toks, mems=attach_rows(bank, model, 1, model.dtype)).data
    assert np.abs(out - base).max() > 1e-4


def test_causality_future_tokens_do_not_leak():
    rng = np.random.default_rng(5)
    model = mdl.init_model(TOY, seed=6)
    toks = rng.integers(0, TOY.vocab_size, size=(1, 10)).astype(np.int32)
    alt = toks.copy()
    alt[0, -1] = (alt[0, -1] + 3) % TOY.vocab_size
    a = mdl.forward(model, toks).data
    b = mdl.forward(model, alt).data
    assert np.allclose(a[0, :-1], b[0, :-1])
    assert not np.allclose(a[0, -1], b[0, -1])


def test_doc_mask_isolates_spans():
    rng = np.random.default_rng(6)
    model = mdl.init_model(TOY, seed=7)
    toks = rng.integers(0, TOY.vocab_size, size=(1, 8)).astype(np.int32)
    # span ids [0,0,0,0, 1,1,1,1]: the second doc must not see the first
    span = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    neg = nc.NEG_INF
    block = np.where(span[None, :] == span[:, None], 0.0, neg).astype(np.float32)
    causal = np.where(np.tril(np.ones((8, 8), dtype=bool)), 0.0, neg).astype(np.float32)
    mask = (block + causal).reshape(1, 1, 8, 8)
    alt = toks.copy()
    alt[0, 1] = (alt[0, 1] + 5) % TOY.vocab_size
    a = mdl.forward(model, toks, doc_mask=mask).data
    b = mdl.forward(model, alt, doc_mask=mask).data
    assert np.allclose(a[0, 4:], b[0, 4:])
    assert not np.allclose(a[0, 1:4], b[0, 1:4])


def test_save_load_roundtrip_and_meta(tmp_path):
    model = mdl.init_model(TOY, seed=11)
    p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    mdl.save_model(model, p1, extra_meta={"note": "x"})
    again, meta = mdl.load_model(p1)
    assert meta["note"] == "x"
    assert again.cfg == model.cfg
    mdl.save_model(again, p2, extra_meta={"note": "x"})
    assert p1.read_bytes() == p2.read_bytes()
    for (n1, t1), (n2, t2) in zip(model.params.items(), again.params.items()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)


def test_forward_rejects_bad_tokens():
    model = mdl.init_model(TOY, seed=0)
    with pytest.raises(mdl.ModelError):
        mdl.forward(model, np.array([1, 2, 3]))  # not (B, S)
    with pytest.raises(mdl.ModelError):
        mdl.forward(model, np.array([[TOY.vocab_size]]))
    with pytest.raises(mdl.ModelError):
        mdl.forward(model, np.zeros((1, TOY.context_length + 1), dtype=np.int32))


def test_cached_forward_rejects_mask_positions_and_overrun():
    model = mdl.init_model(TOY, seed=0)
    toks = np.zeros((2, 3), dtype=np.int32)
    cache = mdl.KVCache(TOY, 2, 4, model.dtype)
    with pytest.raises(mdl.ModelError):
        mdl.forward(model, toks, doc_mask=mdl.causal_mask(3), cache=cache)
    mdl.forward(model, toks, cache=cache)
    assert cache.length == 3
    with pytest.raises(mdl.ModelError):
        mdl.forward(model, toks[:, :2], cache=cache)  # 5 positions in a cache of 4
    assert cache.length == 3
    mdl.forward(model, toks[:, :1], cache=cache)
    assert cache.length == 4


def test_cached_length_past_context_is_rejected():
    model = mdl.init_model(TOY, seed=0)
    cache = mdl.KVCache(TOY, 1, TOY.context_length + 1, model.dtype)
    mdl.forward(model, np.zeros((1, TOY.context_length), dtype=np.int32), cache=cache)
    with pytest.raises(mdl.ModelError, match="exceeds context length"):
        mdl.forward(model, np.zeros((1, 1), dtype=np.int32), cache=cache)


def test_causal_mask_with_past_positions():
    m = mdl.causal_mask(2, np.float64, past=3)
    assert m.shape == (1, 1, 2, 5)
    assert np.array_equal(np.isfinite(m[0, 0]), [[1, 1, 1, 1, 0], [1, 1, 1, 1, 1]])
    assert np.array_equal(mdl.causal_mask(4, past=0), mdl.causal_mask(4))


# the layers each placement covers on 4 layers: ceil(4 * 10 / 35) = 2 of them
PLACED_ON_4 = {"uniform": [1, 2, 3, 4], "early": [1, 2], "mid": [2, 3], "late": [3, 4]}
SLOT_NAMES = {"ffn": {"m1", "m2", "m3"}, "kv": {"mk", "mv"}, "lora_qk": {"qa", "qb", "ka", "kb"},
              "lora_ov": {"va", "vb", "oa", "ob"}, "lora_ffn": {"f1a", "f1b", "f2a", "f2b", "f3a", "f3b"}}


@settings(max_examples=60, deadline=None)
@given(mem_type=st.sampled_from(mb.MEMORY_TYPES), placement=st.sampled_from(mb.PLACEMENTS),
       rs=st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any))
def test_init_accounting_and_attach_share_one_block_layout(mem_type, placement, rs):
    acfg = replace(TOY, num_layers=4)
    cfg = mb.MemoryConfig(mem_type=mem_type, rs=tuple(rs), placement=placement)
    bank = mb.init_bank(cfg, **acfg.bank_dims, k=2, seed=0)
    sizes = mb.bank_accounting(cfg, **acfg.bank_dims, k=2)["level_sizes"]
    assert sizes == [a.shape[1] for a in bank.levels] == [g.shape[0] for g in bank.generic]
    rows = [nc.Tensor(np.zeros((3, s), np.float32)) for s in sizes]
    mems = mdl.AttachedMemories(cfg, acfg, rows)
    for lv, s in enumerate(sizes):
        wide = rows[:lv] + [nc.Tensor(np.zeros((3, s + 1), np.float32))] + rows[lv + 1:]
        with pytest.raises(mdl.ModelError, match=f"level {lv + 1} rows"):
            mdl.AttachedMemories(cfg, acfg, wide)
    widths = [r for r in rs if r]
    for li in range(6):
        got = mems.at_layer(li)
        if li not in PLACED_ON_4[placement]:
            assert got == []
            continue
        assert len(got) == len(widths)
        for sl, r in zip(got, widths):
            assert set(sl) == SLOT_NAMES[mem_type]
            assert all(t.data.shape[0] == 3 and r in t.data.shape[1:] for t in sl.values())
