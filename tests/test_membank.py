import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import membank as mb

DIMS = dict(dim=32, heads=4, head_dim=8, ffn_dim=64, num_layers=4)


def small_bank(mem_type="ffn", rs=(2, 4), k=3, **over):
    cfg = mb.MemoryConfig(mem_type=mem_type, rs=rs, **over)
    return mb.init_bank(cfg, k=k, seed=5, **DIMS)


def test_block_size_formulas():
    H = 4 * 8
    assert mb.block_size("ffn", 2, 32, 4, 8, 64, 3) == 3 * 2 * 3 * 32
    assert mb.block_size("lora_qk", 2, 32, 4, 8, 64, 3) == 2 * 2 * 3 * (32 + H)
    assert mb.block_size("lora_ov", 2, 32, 4, 8, 64, 3) == 2 * 2 * 3 * (32 + H)
    assert mb.block_size("lora_ffn", 2, 32, 4, 8, 64, 3) == 3 * 2 * 3 * (32 + 64)
    assert mb.block_size("kv", 2, 32, 4, 8, 64, 3) == 2 * 2 * 3 * H


def test_accounting_fetch_and_bank_totals():
    cfg = mb.MemoryConfig(mem_type="ffn", rs=(2, 4))
    acc = mb.bank_accounting(cfg, k=3, **DIMS)
    s1 = mb.block_size("ffn", 2, 32, 4, 8, 64, 4)
    s2 = mb.block_size("ffn", 4, 32, 4, 8, 64, 4)
    assert acc["level_sizes"] == [s1, s2]
    assert acc["fetch_params"] == s1 + s2
    assert acc["bank_params"] == s1 * 3 + s2 * 9
    assert acc["generic_params"] == acc["fetch_params"]


def test_placement_subsets():
    assert mb.layer_subset("uniform", 4) == [1, 2, 3, 4]
    for name in ("early", "mid", "late"):
        layers = mb.layer_subset(name, 8)
        assert layers == sorted(layers)
        assert len(set(layers)) == len(layers)
        assert all(1 <= l <= 8 for l in layers)
    assert max(mb.layer_subset("early", 8)) < min(mb.layer_subset("late", 8))


def test_bank_shapes_and_block_lookup():
    bank = small_bank()
    assert bank.levels[0].shape == (3, bank.level_size(1))
    assert bank.levels[1].shape == (9, bank.level_size(2))
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

    mask = mb.BlockMask([(2,)])  # level-1 subtree: prefix closure blocks level 2 too
    fm = mb.fetch(bank, leaves, mask=mask)
    assert [b.tolist() for b in fm.blocks] == [[-1, 0], [-1, 2]]
    assert np.array_equal(fm.levels[0][0], bank.generic[0])
    assert np.array_equal(fm.levels[1][1], bank.levels[1][2])

    bank_zero = small_bank(masked_policy="zero")
    fm0 = mb.fetch(bank_zero, leaves, mask=mask)
    assert not fm0.levels[0][0].any() and not fm0.levels[1][0].any()
    assert np.array_equal(fm0.levels[0][1], bank_zero.levels[0][0])


def test_blockmask_deeper_subtree_only_hits_descendants():
    mask = mb.BlockMask([(1, 2)])
    assert mask.blocked([1, 2], 2, 3).tolist() == [True, False]  # (1, 2) and (1, 3)
    assert not mask.blocked([0], 1, 3).any()  # level-1 block untouched
    bank = small_bank()
    fm = mb.fetch(bank, [1], mask=mask)
    assert [b.tolist() for b in fm.blocks] == [[0], [-1]]


def test_mask_roots_outside_branching_factor_rejected():
    bank = small_bank()
    # at k=3, (1, 4) would otherwise alias the flat id of (2, 1)
    for root in [(1, 4), (0,), (4,)]:
        with pytest.raises(mb.BankError):
            mb.fetch(bank, [0], mask=mb.BlockMask([root]))


def test_generic_fetch():
    bank = small_bank()
    fm = mb.fetch(bank, [0, 8], generic_rows=[True, False])
    for l in range(2):
        assert np.array_equal(fm.levels[l][0], bank.generic[l])
    assert [b.tolist() for b in fm.blocks] == [[-1, 2], [-1, 8]]
    # a generic row stays generic under a mask, whatever the policy
    fm = mb.fetch(small_bank(masked_policy="zero"), [0], [True], mb.BlockMask([(1,)]))
    assert fm.levels[1].any() and fm.blocks[1].tolist() == [-1]


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
                rows.append(bank.generic[l - 1] * (bank.cfg.masked_policy != "zero"))
            else:
                flat = 0
                for c in prefix:
                    flat = flat * bank.k + c - 1
                rows.append(bank.levels[l - 1][flat])
        out.append(np.array(rows, dtype=np.float32).reshape(len(rows), bank.level_size(l)))
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), policy=st.sampled_from(["generic", "zero"]), r1=st.sampled_from([0, 2]))
def test_batched_fetch_equals_per_row_reference(data, policy, r1):
    k, depth = 3, 3
    bank = small_bank(rs=(r1, 1, 2), k=k, masked_policy=policy)
    B = data.draw(st.integers(0, 12))
    leaves = np.array(data.draw(st.lists(st.integers(0, k ** depth - 1), min_size=B, max_size=B)), dtype=np.int64)
    generic = np.array(data.draw(st.lists(st.booleans(), min_size=B, max_size=B)), dtype=bool)
    path = st.lists(st.integers(1, k), min_size=1, max_size=depth).map(tuple)
    mask = mb.BlockMask(data.draw(st.lists(path, max_size=4)))
    fm = mb.fetch(bank, leaves, generic, mask)
    for got, want in zip(fm.levels, per_row_fetch(bank, leaves, generic, mask)):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got, want)


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
    assert bank.levels[0].shape == (3, 0)
    assert bank.levels[1].shape == (9, 3 * 4 * 4 * 32)
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
    bank = small_bank(rs=(0, 3), placement="late", masked_policy="zero")
    mb.save_bank(bank, tmp_path / "b.bin")
    assert mb.load_bank(tmp_path / "b.bin").cfg == bank.cfg
    legacy = {"config": {"mem_type": "kv", "rs": [1, 2], "placement": "mid"}}
    assert mb.MemoryConfig.from_meta(legacy) == mb.MemoryConfig("kv", (1, 2), "mid", "generic")
