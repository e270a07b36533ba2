import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import cluster as cl
from hiermem import fileio
from hiermem import refcheck as rc


def blobs(n_per=10, centers=((5, 0), (-5, 0), (0, 5), (0, -5)), seed=0, spread=0.3):
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [rng.normal(c, spread, size=(n_per, 2)) for c in centers]
    ).astype(np.float32)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_four_blobs_match_lloyds_oracle():
    pts = blobs()
    cfg = cl.ClusterConfig(k=4, depth=1, em_steps=10, batch_per_step=40,
                           balance_limit=0.5, seed=1)
    tree = cl.train_tree(pts, cfg)
    got = cl.assign_batch(pts, tree)[:, 0] - 1
    ref, _ = rc.oracle_kmeans(pts, 4, seed=0)
    # same partition up to label permutation
    mapping = {}
    for g, r in zip(got, ref):
        mapping.setdefault(g, r)
        assert mapping[g] == r
    assert len(set(mapping.values())) == 4


def test_balance_fractions_within_limit():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(600, 8)).astype(np.float32)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    cfg = cl.ClusterConfig(k=4, depth=2, em_steps=12, batch_per_step=300,
                           balance_limit=0.375, seed=0)
    tree = cl.train_tree(pts, cfg)
    for name, st in tree.meta["node_stats"].items():
        assert st["balance_converged"], name
        assert st["max_fraction"] <= 0.375 + 1e-9, (name, st["max_fraction"])


def test_nested_consistency_and_flat_roundtrip():
    pts = blobs(n_per=40, seed=3)
    cfg = cl.ClusterConfig(k=3, depth=3, em_steps=6, batch_per_step=160,
                           balance_limit=0.6, seed=2)
    tree = cl.train_tree(pts, cfg)
    paths = cl.assign_batch(pts, tree)
    for l in range(1, paths.shape[1]):
        # child index determines the parent index
        flat_child = cl.flats_of_paths(paths[:, : l + 1], 3)
        flat_parent = cl.flats_of_paths(paths[:, :l], 3)
        assert (flat_child // 3 == flat_parent).all()
    flats = cl.flats_of_paths(paths, 3)
    assert (flats // 3 ** 2 == paths[:, 0] - 1).all()  # level-1 ancestor of a leaf
    assert np.array_equal(cl.paths_of_flats(flats, 3, paths.shape[1]), paths)


def test_k1_trivial_tree():
    pts = blobs()
    cfg = cl.ClusterConfig(k=1, depth=2, em_steps=2, batch_per_step=10,
                           balance_limit=1.0, seed=0)
    tree = cl.train_tree(pts, cfg)
    assert (cl.assign_batch(pts, tree) == 1).all()
    with pytest.raises(cl.ClusterError):
        cl.assign_batch(np.ones((3, 5), dtype=np.float32), tree)  # tree dim is 2


def test_argmin_tie_breaks_to_lowest_index():
    cfg = cl.ClusterConfig(k=2, depth=1, em_steps=1, batch_per_step=4,
                           balance_limit=1.0, seed=0)
    tree = cl.train_tree(blobs(n_per=4), cfg)
    tree.levels[0][:] = np.float32(0.25)  # identical children: distance ties
    assert cl.assign_batch(np.ones((1, 2), dtype=np.float32), tree).tolist() == [[1]]


def test_greedy_agrees_with_exhaustive_leaf_oracle_mostly():
    pts = blobs(n_per=25, seed=5)
    cfg = cl.ClusterConfig(k=2, depth=2, em_steps=10, batch_per_step=100,
                           balance_limit=0.75, seed=1)
    tree = cl.train_tree(pts, cfg)
    agree = 0
    greedy = cl.flats_of_paths(cl.assign_batch(pts, tree), tree.k)
    for p, g in zip(pts, greedy):
        agree += g == rc.oracle_nearest_leaf(p, tree.levels[-1])
    assert agree >= int(0.9 * len(pts))  # greedy is not globally optimal


def test_seed_determinism_and_roundtrip_bytes(tmp_path):
    pts = blobs(seed=9)
    cfg = cl.ClusterConfig(k=2, depth=2, em_steps=5, batch_per_step=40,
                           balance_limit=0.8, seed=4)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    cl.save_tree(cl.train_tree(pts, cfg), a)
    cl.save_tree(cl.train_tree(pts, cfg), b)
    assert a.read_bytes() == b.read_bytes()
    tree = cl.load_tree(a)
    c = tmp_path / "c.bin"
    cl.save_tree(tree, c)
    assert c.read_bytes() == a.read_bytes()


def test_corrupt_magic_rejected(tmp_path):
    p = tmp_path / "x.bin"
    cl.save_tree(cl.train_tree(blobs(), cl.ClusterConfig(
        k=2, depth=1, em_steps=2, batch_per_step=20, balance_limit=0.9, seed=0)), p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(raw)
    with pytest.raises(fileio.ArtifactError):
        cl.load_tree(p)


def test_too_few_distinct_vectors_errors():
    pts = np.tile(np.float32([1, 0]), (5, 1))
    cfg = cl.ClusterConfig(k=4, depth=1, em_steps=2, batch_per_step=5,
                           balance_limit=0.5, seed=0)
    with pytest.raises(cl.ClusterError):
        cl.train_tree(pts, cfg)


@pytest.mark.parametrize("pts, k, message", [
    (np.eye(3, dtype=np.float32), 4, "node root: 3 vectors < k=4"),
    (np.tile(np.float32([[1, 0], [0, 1]]), (6, 1)), 3, "node root: fewer than k=3 distinct vectors"),
])
def test_small_or_duplicate_node_keeps_its_error(pts, k, message):
    cfg = cl.ClusterConfig(k=k, depth=1, em_steps=2, batch_per_step=8, balance_limit=1.0, seed=0)
    with pytest.raises(cl.ClusterError, match=f"^{message}$"):
        cl.train_tree(pts, cfg)


def test_first_sample_short_of_k_distinct_rows_falls_back_to_the_members(monkeypatch):
    # 61 rows, 2 distinct; the first 4-row sample holds only the repeated
    # one, so k-means++ draws at zero distance and the node's members decide
    pts = np.concatenate([np.tile(np.float32([1, 0]), (60, 1)), np.float32([[0, 1]])])
    draws = []

    def spy(*args):
        out = init(*args)
        draws.append(out[1])
        return out

    init = cl._kmeanspp_init
    monkeypatch.setattr(cl, "_kmeanspp_init", spy)
    cfg = cl.ClusterConfig(k=2, depth=1, em_steps=3, batch_per_step=4, balance_limit=1.0, seed=0)
    tree = cl.train_tree(pts, cfg)
    assert draws == [True]
    assert tree.levels[0].shape == (2, 2) and np.isfinite(tree.levels[0]).all()


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), m=st.integers(1, 60), dim=st.integers(2, 9), seed=st.integers(0, 2**16))
def test_add_rows_matches_add_at_bitwise(k, m, dim, seed):
    rng = np.random.default_rng(seed)
    sums = rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-3, 4, size=(k, 1))
    rows = rng.normal(size=(m, dim)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
    a = rng.integers(k, size=m)
    expect = sums.copy()
    np.add.at(expect, a, rows)
    cl._add_rows(sums, rows, a, np.bincount(a, minlength=k))
    assert sums.tobytes() == expect.tobytes()


def test_tree_bytes_are_pinned(tmp_path):
    """A change to the bytes a seeded tree trains to must re-pin this digest on purpose."""
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.normal(c, 0.4, size=(40, 3))
                          for c in ((4, 0, 0), (0, 4, 0), (0, 0, 4), (-4, -4, 0))]).astype(np.float32)
    cfg = cl.ClusterConfig(k=3, depth=2, em_steps=6, batch_per_step=50, balance_limit=0.5, seed=7)
    p = tmp_path / "tree.bin"
    cl.save_tree(cl.train_tree(pts, cfg), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "eef3f9866f3748be54523fe467a076ee4d954672223a1530be4a3f7311da5565")


def mixture(n, dim, seed, centres=12, spread=0.8):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(centres, dim))
    return (c[rng.integers(centres, size=n)] + rng.normal(0.0, spread, size=(n, dim))).astype(np.float32)


def tree_and_paths(pts, cfg, path):
    tree = cl.train_tree(pts, cfg)
    cl.save_tree(tree, path)
    return path.read_bytes(), cl.assign_batch(pts, tree)


@pytest.mark.parametrize("block_rows", [2, 5, 7])
def test_descent_block_size_changes_no_tree_or_path(tmp_path, monkeypatch, block_rows):
    # 301 rows fill each node with one default block, and with many small
    # blocks whose last one overlaps the one before it
    pts = mixture(301, 8, seed=3)
    cfg = cl.ClusterConfig(k=3, depth=2, em_steps=4, batch_per_step=60, balance_limit=0.5, seed=2)
    want_bytes, want_paths = tree_and_paths(pts, cfg, tmp_path / "default.bin")
    monkeypatch.setattr(cl, "_BLOCK_ROWS", block_rows)
    got_bytes, got_paths = tree_and_paths(pts, cfg, tmp_path / "blocks.bin")
    assert got_bytes == want_bytes
    assert np.array_equal(got_paths, want_paths)


def test_descent_digests_are_pinned(tmp_path):
    """Pinned before the descent took rows in blocks: the root and a level-1
    node hold more rows than one block, so their blocks must not change a byte."""
    pts = mixture(3001, 48, seed=23)
    cfg = cl.ClusterConfig(k=3, depth=2, em_steps=4, batch_per_step=400, balance_limit=0.5, seed=5)
    tree_bytes, paths = tree_and_paths(pts, cfg, tmp_path / "tree.bin")
    assert np.bincount(paths[:, 0]).max() > cl._BLOCK_ROWS
    assert hashlib.sha256(tree_bytes).hexdigest() == (
        "b2fbe2f094780a7339aa8370c90c85e4b31729784a27e53899020b03d7540215")
    assert hashlib.sha256(paths.astype(np.int64).tobytes()).hexdigest() == (
        "7dba4e535efb4470fa6e6c70c4f29b4cccf66d8918a4443fd098dfe66705b98a")


def test_descent_memory_stays_a_few_blocks():
    """``assign_batch`` holds the unit rows ``normalize_rows`` makes (their
    squares come and go before them) plus a few float64 blocks: about 1.2x
    the input's bytes, where float64 copies of a whole node reach 5x."""
    rng = np.random.default_rng(4)
    tree = cl.train_tree(rng.normal(size=(200, 384)).astype(np.float32),
                         cl.ClusterConfig(k=4, depth=2, em_steps=2, batch_per_step=100, balance_limit=0.5))
    x = rng.standard_normal((20_000, 384), dtype=np.float32)
    tracemalloc.start()
    try:
        paths = cl.assign_batch(x, tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths.shape == (20_000, 2)
    assert peak < 2.5 * x.nbytes, peak / x.nbytes


def test_config_bounds():
    with pytest.raises(ValueError):
        cl.ClusterConfig(k=0)
    with pytest.raises(ValueError):
        cl.ClusterConfig(k=4, balance_limit=0.2)
    with pytest.raises(ValueError):
        cl.ClusterConfig(k=4, balance_limit=1.5)
    cl.ClusterConfig(k=4, balance_limit=0.25)  # 1/k inclusive


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 16), depth=st.integers(1, 4), data=st.data())
def test_codec_roundtrips(k, depth, data):
    paths = np.array(data.draw(st.lists(st.lists(st.integers(1, k), min_size=depth, max_size=depth),
                                        min_size=1, max_size=8)))
    flats = cl.flats_of_paths(paths, k)
    assert ((0 <= flats) & (flats < k ** depth)).all()
    assert np.array_equal(cl.paths_of_flats(flats, k, depth), paths)
    every = np.arange(k ** depth)
    assert np.array_equal(cl.flats_of_paths(cl.paths_of_flats(every, k, depth), k), every)
