import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import fileio
from hiermem import membank as mb

DIMS = dict(dim=32, heads=4, head_dim=8, ffn_dim=64, num_layers=4)


def small_bank(mem_type="ffn", rs=(2, 4), k=3, **over):
    cfg = mb.MemoryConfig(mem_type=mem_type, rs=rs, **over)
    return mb.init_bank(cfg, k=k, seed=5, **DIMS)


def test_block_size_formulas():
    # the closed forms in the module docstring, at r=2 on 3 placed layers
    d, H, d_f, r, l = 32, 4 * 8, 64, 2, 3
    want = {
        "ffn": 3 * r * l * d,
        "lora_qk": 2 * r * l * (d + H),
        "lora_ov": 2 * r * l * (d + H),
        "lora_ffn": 3 * r * l * (d + d_f),
        "kv": 2 * r * l * H,
    }
    dims = dict(DIMS, num_layers=3)
    for mem_type, size in want.items():
        acc = mb.bank_accounting(mb.MemoryConfig(mem_type=mem_type, rs=(r, 0)), k=2, **dims)
        assert acc["level_sizes"] == [size, 0]
        # block sizes scale linearly in the width multiplier
        acc = mb.bank_accounting(mb.MemoryConfig(mem_type=mem_type, rs=(1, r, 3 * r)), k=2, **dims)
        assert acc["level_sizes"] == [size // r, size, 3 * size]


def test_accounting_fetch_and_bank_totals():
    cfg = mb.MemoryConfig(mem_type="ffn", rs=(2, 4))
    acc = mb.bank_accounting(cfg, k=3, **DIMS)
    s1, s2 = 3 * 2 * 4 * 32, 3 * 4 * 4 * 32  # ffn: 3 * r * layers * dim
    assert acc["level_sizes"] == [s1, s2]
    assert acc["fetch_params"] == s1 + s2
    assert acc["bank_params"] == s1 * 3 + s2 * 9
    assert acc["generic_params"] == acc["fetch_params"]


def _placed(placement, num_layers):
    """The layers ``block_layout`` gives slots, in block order."""
    cfg = mb.MemoryConfig(rs=(1,), placement=placement)
    slots = mb.block_layout(cfg, **dict(DIMS, num_layers=num_layers))[0]
    return list(dict.fromkeys(s.layer for s in slots))


def test_placement_subsets():
    assert _placed("uniform", 4) == [1, 2, 3, 4]
    # ceil(8 * 10 / 35) = 3 layers each; mid starts at (8 - 3) // 2 + 1
    assert (_placed("early", 8), _placed("mid", 8), _placed("late", 8)) == ([1, 2, 3], [3, 4, 5], [6, 7, 8])
    assert _placed("mid", 1) == _placed("late", 1) == [1]


def test_bank_shapes_and_block_lookup():
    bank = small_bank()
    sizes = mb.bank_accounting(bank.cfg, k=3, **DIMS)["level_sizes"]
    # k^l blocks, then the level's generic block as its last row
    assert bank.levels[0].shape == (3 + 1, sizes[0])
    assert bank.levels[1].shape == (9 + 1, sizes[1])
    assert all(np.shares_memory(g, lv[-1]) and np.array_equal(g, lv[-1]) for g, lv in zip(bank.generic, bank.levels))
    leaf = (2 - 1) * 3 + (3 - 1)  # path (2, 3)
    fm = mb.fetch(bank, [leaf])
    assert [b.tolist() for b in fm.blocks] == [[1], [leaf]]
    assert np.array_equal(fm.levels[0][0], bank.levels[0][1])
    assert np.array_equal(fm.levels[1][0], bank.levels[1][leaf])
    assert not np.shares_memory(fm.levels[1], bank.levels[1])


def test_fetch_path_and_masking_policies():
    bank = small_bank()
    leaves = [3, 2]  # paths (2, 1) and (1, 3)
    fm = mb.fetch(bank, leaves)
    assert [b.tolist() for b in fm.blocks] == [[1, 0], [3, 2]]

    mask = mb.BlockMask([(2,)], "generic")  # level-1 subtree: prefix closure blocks level 2 too
    fm = mb.fetch(bank, leaves, mask=mask)
    assert [b.tolist() for b in fm.blocks] == [[3, 0], [9, 2]]  # k^l: the level's generic row
    assert np.array_equal(fm.levels[0][0], bank.generic[0])
    assert np.array_equal(fm.levels[1][1], bank.levels[1][2])

    fm0 = mb.fetch(bank, leaves, mask=mb.BlockMask([(2,)], "zero"))
    assert [b.tolist() for b in fm0.blocks] == [[-1, 0], [-1, 2]]
    assert not fm0.levels[0][0].any() and not fm0.levels[1][0].any()
    assert np.array_equal(fm0.levels[0][1], bank.levels[0][0])
    with pytest.raises(mb.BankError, match="policy"):
        mb.BlockMask([(2,)], "warp")


def test_blockmask_deeper_subtree_only_hits_descendants():
    mask = mb.BlockMask([(1, 2)], "generic")
    assert mask.blocked([1, 2], 2, 3).tolist() == [True, False]  # (1, 2) and (1, 3)
    assert not mask.blocked([0], 1, 3).any()  # level-1 block untouched
    bank = small_bank()
    fm = mb.fetch(bank, [1], mask=mask)
    assert [b.tolist() for b in fm.blocks] == [[0], [9]]


def test_mask_roots_outside_branching_factor_rejected():
    bank = small_bank()
    # at k=3, (1, 4) would otherwise alias the flat id of (2, 1)
    for root in [(1, 4), (0,), (4,)]:
        with pytest.raises(mb.BankError):
            mb.fetch(bank, [0], mask=mb.BlockMask([root], "generic"))


def test_mask_roots_deeper_than_bank_rejected():
    bank = small_bank()
    # a depth-3 root names no block of a depth-2 bank, so it would mask nothing
    with pytest.raises(mb.BankError, match="deeper"):
        mb.fetch(bank, [0], mask=mb.BlockMask([(1, 1, 1)], "generic"))


def test_generic_fetch():
    bank = small_bank()
    fm = mb.fetch(bank, [0, 8], generic_rows=[True, False])
    for l in range(2):
        assert np.array_equal(fm.levels[l][0], bank.generic[l])
    assert [b.tolist() for b in fm.blocks] == [[3, 2], [9, 8]]
    # a generic row stays generic under a mask, whatever the policy
    fm = mb.fetch(bank, [0], [True], mb.BlockMask([(1,)], "zero"))
    assert fm.levels[1].any() and fm.blocks[1].tolist() == [9]


def test_fetch_depth_mismatch_errors():
    bank = small_bank()
    for bad in ([9], [-1], [[0, 1]]):  # leaf ids of a deeper tree, negative, not 1-D
        with pytest.raises(mb.BankError):
            mb.fetch(bank, bad)


def per_row_fetch(bank, leaf_flats, generic_rows, mask):
    """Reference gather: one row and one level at a time."""
    out = []
    for l in range(1, bank.depth + 1):
        rows = []
        for leaf, gen in zip(leaf_flats, generic_rows):
            path = []
            x = int(leaf)
            for _ in range(bank.depth):
                path.insert(0, x % bank.k + 1)
                x //= bank.k
            prefix = tuple(path[:l])
            if gen:
                rows.append(bank.generic[l - 1])
            elif any(prefix[: len(r)] == r for r in mask.roots if len(r) <= l):
                rows.append(bank.generic[l - 1] * (mask.policy != "zero"))
            else:
                flat = 0
                for c in prefix:
                    flat = flat * bank.k + c - 1
                rows.append(bank.levels[l - 1][flat])
        out.append(np.array(rows, dtype=np.float32).reshape(len(rows), bank.levels[l - 1].shape[1]))
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), policy=st.sampled_from(["generic", "zero"]), r1=st.sampled_from([0, 2]))
def test_batched_fetch_equals_per_row_reference(data, policy, r1):
    k, depth = 3, 3
    bank = small_bank(rs=(r1, 1, 2), k=k)
    B = data.draw(st.integers(0, 12))
    leaves = np.array(data.draw(st.lists(st.integers(0, k ** depth - 1), min_size=B, max_size=B)), dtype=np.int64)
    generic = np.array(data.draw(st.lists(st.booleans(), min_size=B, max_size=B)), dtype=bool)
    path = st.lists(st.integers(1, k), min_size=1, max_size=depth).map(tuple)
    mask = mb.BlockMask(data.draw(st.lists(path, max_size=4)), policy)
    fm = mb.fetch(bank, leaves, generic, mask)
    for got, want in zip(fm.levels, per_row_fetch(bank, leaves, generic, mask)):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got, want)
    # each row is the level's row its id names, and zeros where the id is -1
    for lv, rows, ids in zip(bank.levels, fm.levels, fm.blocks):
        assert ((ids >= -1) & (ids < lv.shape[0])).all()
        assert np.array_equal(rows, np.where((ids >= 0)[:, None], lv[ids], 0))


def test_save_load_roundtrip_bytes(tmp_path):
    bank = small_bank(mem_type="lora_ffn")
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    mb.save_bank(bank, p1)
    again = mb.load_bank(p1)
    mb.save_bank(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert again.cfg == bank.cfg and again.k == bank.k
    for l in range(2):
        assert np.array_equal(again.levels[l], bank.levels[l])


def test_init_seed_determinism():
    a = small_bank()
    b = small_bank()
    for l in range(2):
        assert np.array_equal(a.levels[l], b.levels[l])
        assert np.array_equal(a.generic[l], b.generic[l])


def test_config_validation():
    with pytest.raises(ValueError):
        mb.MemoryConfig(mem_type="psychic")
    with pytest.raises(ValueError):
        mb.MemoryConfig(rs=())
    with pytest.raises(ValueError):
        mb.MemoryConfig(rs=(-1, 2))
    with pytest.raises(ValueError):
        mb.MemoryConfig(placement="everywhere")
    # a zero multiplier is a level without memories, not an error
    assert mb.MemoryConfig(rs=(0, 2)).depth == 2
    with pytest.raises(mb.BankError):
        mb.init_bank(mb.MemoryConfig(rs=(0, 0)), k=2, seed=0, **DIMS)


def test_zero_width_levels():
    bank = small_bank(rs=(0, 4))
    assert bank.levels[0].shape == (3 + 1, 0)
    assert bank.levels[1].shape == (9 + 1, 3 * 4 * 4 * 32)
    f = mb.fetch(bank, [3])  # path (2, 1)
    assert f.levels[0].shape == (1, 0) and f.levels[1].shape[1] > 0
    acc = mb.bank_accounting(mb.MemoryConfig(rs=(0, 4)), k=3, **DIMS)
    assert acc["level_sizes"][0] == 0
    assert acc["fetch_params"] == acc["level_sizes"][1]
    assert acc["bank_params"] == 9 * acc["level_sizes"][1]
    # an all-zero config is a representable empty bank in the accounting
    acc0 = mb.bank_accounting(mb.MemoryConfig(rs=(0, 0, 0, 0)), k=16, **DIMS)
    assert acc0["fetch_params"] == 0 and acc0["bank_params"] == 0


def test_config_from_artifact_meta(tmp_path):
    bank = small_bank(rs=(0, 3), placement="late")
    mb.save_bank(bank, tmp_path / "b.bin")
    assert mb.load_bank(tmp_path / "b.bin").cfg == bank.cfg
    stored = {"mem_type": "kv", "rs": [1, 2], "placement": "mid"}
    assert fileio.stored_config(mb.MemoryConfig, stored, "b.bin") == mb.MemoryConfig("kv", (1, 2), "mid")
    # a bank file from when the mask policy was stored in the bank is refused
    magic, meta, arrays = fileio.read_artifact(tmp_path / "b.bin")
    meta["config"]["masked_policy"] = "generic"
    fileio.write_artifact(tmp_path / "old.bin", magic, meta, arrays)
    with pytest.raises(fileio.ArtifactError, match="masked_policy"):
        mb.load_bank(tmp_path / "old.bin")
