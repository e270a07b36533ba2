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
    ref, _ = rc.oracle_kmeans(pts, 4, seed=0).value
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
        agree += g == rc.oracle_nearest_leaf(p, tree.levels[-1]).value
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
