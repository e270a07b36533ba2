"""Balanced hierarchical k-means over document embeddings.

The tree has a fixed branching factor k and depth p. It is trained level
by level from the root: each node runs a sampled EM loop (k-means++ init,
then per-step batches whose row ids fill a pool preallocated for all
steps, with cumulative per-cluster counters), re-balancing whenever a child's
share of the pool exceeds ``balance_limit`` by moving a random half of
the largest cluster into the smallest. Parents are frozen before their
children train. A node needs k distinct vectors; the costly check of its
members runs only when k-means++ had to draw at zero total distance,
since otherwise it has already picked k distinct rows.

Assignment (``assign_batch``) is a greedy root-to-leaf descent: k
distance evaluations per level, p*k per vector, ties resolved toward the
lowest index; training splits each node's vectors by the same step.
Both find a node's rows from one stable sort of the rows' node ids, and
take them in fixed blocks of rows, so the descent's float64 copies stay a
few blocks in size however many vectors it routes. A
path is 1-based, (i_1, ..., i_p); its flat id is the 0-based mixed-radix
number sum_l (i_l - 1) * k^(p-l), so the children of a node are
contiguous and the level-l ancestor of leaf f is f // k^(p-l).
``flats_of_paths`` and ``paths_of_flats`` are the one codec between them.
A tree records the embedder that made its vectors, if known, so that
queries are embedded alike.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import embed as em
from . import fileio

TREE_MAGIC = "HMTREE"
_BLOCK_ROWS = 1024  # rows a descent copies to float64 at a time

class ClusterError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClusterConfig:
    k: int = 16
    depth: int = 4
    em_steps: int = 20
    batch_per_step: int = 6400
    balance_limit: float = 0.094
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"branching factor must be >= 1, got {self.k}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        # Below the uniform share 1/k no assignment can satisfy the limit.
        if not (1.0 / self.k) <= self.balance_limit <= 1.0:
            raise ValueError(
                f"balance_limit {self.balance_limit} must lie in [1/k, 1] for k={self.k}"
            )


@dataclass
class ClusterTree:
    config: ClusterConfig
    dim: int
    levels: list[np.ndarray]  # levels[l-1]: (k^l, dim) float32, children contiguous
    meta: dict
    embedder: em.EmbedderConfig | None = None  # what made the vectors, if known

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def depth(self) -> int:
        return self.config.depth


def flats_of_paths(paths, k: int) -> np.ndarray:
    """0-based flat ids of (..., depth) 1-based paths, shape (...)."""
    paths = np.asarray(paths, dtype=np.int64)
    radix = np.int64(k) ** np.arange(paths.shape[-1] - 1, -1, -1, dtype=np.int64)
    return (paths - 1) @ radix


def paths_of_flats(flats, k: int, depth: int) -> np.ndarray:
    """Inverse of ``flats_of_paths``: (..., depth) 1-based paths."""
    flats = np.asarray(flats, dtype=np.int64)
    radix = np.int64(k) ** np.arange(depth - 1, -1, -1, dtype=np.int64)
    return flats[..., None] // radix % k + 1


def normalize_rows(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float32)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.divide(v, n, out=np.zeros_like(v), where=n > 0)


def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; the ||x||^2 term is constant
    # per row and kept so the values are true squared distances.
    x2 = np.sum(pts * pts, axis=1, keepdims=True)
    c2 = np.sum(centers * centers, axis=1)
    return np.maximum(x2 - 2.0 * (pts @ centers.T) + c2, 0.0)


def _kmeanspp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """k-means++ centres, and whether a draw found zero total distance.

    Without such a draw every centre was picked at a positive distance
    from the ones before it, so the k centres are distinct rows.
    """
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]), dtype=np.float64)
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    drew_at_zero = False
    for j in range(1, k):
        tot = d2.sum()
        if tot > 0:
            idx = int(rng.choice(n, p=d2 / tot))
        else:
            idx = int(rng.integers(n))
            drew_at_zero = True
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers, drew_at_zero


def _add_rows(sums: np.ndarray, rows: np.ndarray, a: np.ndarray, counts: np.ndarray) -> None:
    """``sums[j] += rows[i]`` for every row i with ``a[i] == j``, in row order.

    ``counts`` is ``bincount(a)``. A stable sort groups each cluster's rows,
    and each group, stacked under the cluster's current sum, is reduced
    down its rows. That adds them one after another, as ``np.add.at``
    does, so the float64 sums agree bit for bit; ``np.add.reduceat`` would
    sum each group pairwise. (With one column, where ``reduce`` may go
    pairwise, the normalised rows are ±1 or 0 and every order is exact.)
    """
    order = np.argsort(a, kind="stable")
    bounds = np.cumsum(counts)
    for j in np.flatnonzero(counts):
        group = order[bounds[j] - counts[j] : bounds[j]]
        sums[j] = np.add.reduce(np.vstack((sums[j], rows[group])), axis=0)


def _train_node(
    pts: np.ndarray, members: np.ndarray, cfg: ClusterConfig, rng: np.random.Generator, node_name: str
) -> tuple[np.ndarray, dict]:
    """EM with a growing sample pool and cumulative counters for one node.

    Returns (centers (k, dim) float32, stats). ``members`` indexes rows of
    ``pts`` belonging to this node.
    """
    k = cfg.k
    n, dim = members.shape[0], pts.shape[1]
    if n < k:
        raise ClusterError(f"node {node_name}: {n} vectors < k={k}")

    m = min(cfg.batch_per_step, n)
    first = rng.choice(n, size=m, replace=False)
    centers, drew_at_zero = _kmeanspp_init(pts[members[first]].astype(np.float64), k, rng)
    if drew_at_zero and np.unique(pts[members], axis=0).shape[0] < k:
        raise ClusterError(f"node {node_name}: fewer than k={k} distinct vectors")

    counts = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, dim), dtype=np.float64)
    # cumulative sample pool: the rows of pts drawn so far, filled in order
    pool = np.empty(cfg.em_steps * m, dtype=np.int64)
    pool_assign = np.empty(cfg.em_steps * m, dtype=np.int64)
    balanced = True

    def rebalance(pool: np.ndarray, pool_assign: np.ndarray) -> bool:
        """Repeatedly split the largest cluster evenly at random into the
        smallest (also fills empty clusters). Stops once every share is
        within the limit, or — for limits the halving dynamics cannot
        reach, e.g. two clusters trading the same excess — once a further
        split cannot lower the current maximum. Returns whether the limit
        was met."""
        while True:
            total = counts.sum()
            if counts.min() > 0 and counts.max() <= cfg.balance_limit * total:
                return True
            a = int(np.argmax(counts))
            b = int(np.argmin(counts))
            where_a = np.flatnonzero(pool_assign == a)
            move = rng.permutation(where_a)[: len(where_a) // 2]
            if move.size == 0:
                return bool(counts.max() <= cfg.balance_limit * total)
            if counts[b] > 0 and max(counts[a] - move.size, counts[b] + move.size) >= counts[a]:
                return False
            pool_assign[move] = b
            moved_sum = pts[pool[move]].astype(np.float64).sum(axis=0)
            counts[a] -= move.size
            counts[b] += move.size
            sums[a] -= moved_sum
            sums[b] += moved_sum
            centers[a] = sums[a] / counts[a]
            centers[b] = sums[b] / counts[b]

    for step in range(cfg.em_steps):
        batch_idx = rng.choice(n, size=m, replace=False)
        used = (step + 1) * m
        pool[used - m : used] = members[batch_idx]
        batch, a = pts[pool[used - m : used]].astype(np.float64), pool_assign[used - m : used]
        a[:] = np.argmin(_sq_dists(batch, centers), axis=1)  # ties: lowest index
        step_counts = np.bincount(a, minlength=k)
        _add_rows(sums, batch, a, step_counts)
        counts += step_counts
        nz = counts > 0
        centers[nz] = sums[nz] / counts[nz, None]
        balanced = rebalance(pool[:used], pool_assign[:used]) and balanced

    stats = {
        "pool_size": int(counts.sum()),
        "max_fraction": float(counts.max() / counts.sum()),
        "min_count": int(counts.min()),
        "balance_converged": bool(balanced),
    }
    return centers.astype(np.float32), stats


def _by_node(flat: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds): ``order[bounds[p]:bounds[p + 1]]`` are the rows whose
    node id in ``flat`` is p, ascending (one stable sort, not a scan per node)."""
    order = np.argsort(flat, kind="stable")
    bounds = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n_nodes), out=bounds[1:])
    return order, bounds


def _descend(x: np.ndarray, flat: np.ndarray, centers: np.ndarray, k: int) -> np.ndarray:
    """Each row's nearest child (0-based flat id) under its node ``flat``,
    among the level's (k^l, dim) ``centers``; ties go to the lowest index.

    A node's rows are copied to float64 in blocks, through one buffer of at
    most ``_BLOCK_ROWS`` rows that the call allocates once. A node with more
    rows than that runs in blocks of exactly ``_BLOCK_ROWS``, the last one
    overlapping the one before it rather than running short: BLAS may take
    another kernel for a product of few rows, which rounds differently, and
    blocks no shorter than the node or than ``_BLOCK_ROWS`` give every row
    the distances one product over the whole node gives it.
    """
    child = np.empty_like(flat)
    order, bounds = _by_node(flat, centers.shape[0] // k)
    sizes = np.diff(bounds)
    buf = np.empty((min(int(sizes.max(initial=0)), _BLOCK_ROWS), x.shape[1]), dtype=np.float64)
    for pf in np.flatnonzero(sizes):
        lo, hi = int(bounds[pf]), int(bounds[pf + 1])
        rows = min(hi - lo, _BLOCK_ROWS)
        c = centers[pf * k : (pf + 1) * k].astype(np.float64)
        for start in range(lo, hi, rows):
            start = min(start, hi - rows)  # the last block ends at the node's last row
            sel = order[start : start + rows]
            buf[:rows] = x[sel]
            child[sel] = pf * k + np.argmin(_sq_dists(buf[:rows], c), axis=1)
    return child


def train_tree(vectors: np.ndarray, cfg: ClusterConfig) -> ClusterTree:
    """Train the full tree top-down on (n, dim) embedding vectors."""
    pts = normalize_rows(vectors)
    n, dim = pts.shape
    levels: list[np.ndarray] = []
    node_stats: dict[str, dict] = {}
    flat = np.zeros(n, dtype=np.int64)  # each vector's node at the level being split
    for level in range(1, cfg.depth + 1):
        centers_lvl = np.empty((cfg.k ** level, dim), dtype=np.float32)
        order, bounds = _by_node(flat, cfg.k ** (level - 1))
        for parent_flat in range(cfg.k ** (level - 1)):
            name = f"level{level}/node{parent_flat}" if level > 1 else "root"
            rng = np.random.default_rng([cfg.seed, level, parent_flat])
            members = order[bounds[parent_flat] : bounds[parent_flat + 1]]
            centers, stats = _train_node(pts, members, cfg, rng, name)
            centers_lvl[parent_flat * cfg.k : (parent_flat + 1) * cfg.k] = centers
            node_stats[f"{level}.{parent_flat}"] = stats
        levels.append(centers_lvl)
        if level < cfg.depth:
            flat = _descend(pts, flat, centers_lvl, cfg.k)
    meta = {"n_train": n, "node_stats": node_stats, "config": asdict(cfg)}
    return ClusterTree(config=cfg, dim=dim, levels=levels, meta=meta)


def assign_batch(vectors: np.ndarray, tree: ClusterTree) -> np.ndarray:
    """Greedy descent for many vectors; returns (n, depth) of 1-based ids."""
    x = normalize_rows(vectors)
    if x.ndim != 2 or x.shape[1] != tree.dim:
        raise ClusterError(f"assign: vectors of shape {x.shape}, expected (n, {tree.dim})")
    flat = np.zeros(x.shape[0], dtype=np.int64)
    for centers in tree.levels:
        flat = _descend(x, flat, centers, tree.k)
    return paths_of_flats(flat, tree.k, tree.depth)


def save_tree(tree: ClusterTree, path, extra_meta: dict | None = None) -> None:
    meta = {
        "config": asdict(tree.config),
        "dim": tree.dim,
        "embedder": asdict(tree.embedder) if tree.embedder else None,
        "tree_meta": tree.meta,
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = {f"level{l + 1}": tree.levels[l] for l in range(tree.depth)}
    fileio.write_artifact(path, TREE_MAGIC, meta, arrays)


def load_tree(path) -> ClusterTree:
    _, meta, arrays = fileio.read_artifact(path, expect_magic=TREE_MAGIC)
    cfg = fileio.stored_config(ClusterConfig, meta["config"], path)
    fileio.check_layout(path, arrays, {f"level{l}": (cfg.k**l, meta["dim"]) for l in range(1, cfg.depth + 1)},
                        np.float32)
    levels = [arrays[f"level{l}"] for l in range(1, cfg.depth + 1)]
    # one stats object per split node, as train_tree records them; inspect sums them up
    tree_meta = meta["tree_meta"]
    stats = tree_meta["node_stats"] if isinstance(tree_meta, dict) else None
    if not (isinstance(stats, dict) and len(stats) == sum(cfg.k**l for l in range(cfg.depth))
            and all(isinstance(s, dict) and isinstance(s["balance_converged"], bool)
                    and isinstance(s["max_fraction"], (int, float)) for s in stats.values())):
        raise fileio.ArtifactError(f"{path}: tree_meta.node_stats is not an object of one stats object per node")
    # None for a tree saved without one; the CLI refuses such a tree
    emb = meta.get("embedder")
    embedder = fileio.stored_config(em.EmbedderConfig, emb, path) if emb else None
    return ClusterTree(config=cfg, dim=meta["dim"], levels=levels, meta=tree_meta, embedder=embedder)
