"""Balanced hierarchical k-means over document embeddings.

The tree has a fixed branching factor k and depth p. It is trained level
by level from the root: each node runs a sampled EM loop (k-means++ init,
then per-step batches accumulated into a growing pool with cumulative
per-cluster counters), re-balancing whenever a child's share of the pool
exceeds ``balance_limit`` by moving a random half of the largest cluster
into the smallest. Parents are frozen before their children train.

Assignment (``assign_batch``) is a greedy root-to-leaf descent: k
distance evaluations per level, p*k per vector, ties resolved toward the
lowest index. A path is 1-based, (i_1, ..., i_p); its flat id is the
0-based mixed-radix number sum_l (i_l - 1) * k^(p-l), so the children of a
node are contiguous and the level-l ancestor of leaf f is f // k^(p-l).
``flats_of_paths`` and ``paths_of_flats`` are the one codec between them.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import fileio

TREE_MAGIC = "HMTREE"

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

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def depth(self) -> int:
        return self.config.depth

    def node_children(self, level: int, parent_flat: int) -> np.ndarray:
        """Centers of the k children under 0-based ``parent_flat`` at ``level``."""
        return self.levels[level - 1][parent_flat * self.k : (parent_flat + 1) * self.k]


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


def _kmeanspp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]), dtype=np.float64)
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        tot = d2.sum()
        if tot > 0:
            idx = int(rng.choice(n, p=d2 / tot))
        else:
            idx = int(rng.integers(n))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def _train_node(
    pts: np.ndarray, members: np.ndarray, cfg: ClusterConfig, rng: np.random.Generator, node_name: str
) -> tuple[np.ndarray, dict]:
    """EM with a growing sample pool and cumulative counters for one node.

    Returns (centers (k, dim) float32, stats). ``members`` indexes rows of
    ``pts`` belonging to this node.
    """
    k = cfg.k
    n = members.shape[0]
    if n < k:
        raise ClusterError(f"node {node_name}: {n} vectors < k={k}")
    if np.unique(pts[members], axis=0).shape[0] < k:
        raise ClusterError(f"node {node_name}: fewer than k={k} distinct vectors")

    first = rng.choice(n, size=min(cfg.batch_per_step, n), replace=False)
    centers = _kmeanspp_init(pts[members[first]].astype(np.float64), k, rng)

    counts = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, pts.shape[1]), dtype=np.float64)
    pool = np.empty((0, pts.shape[1]), dtype=np.float64)  # cumulative sample pool
    pool_assign = np.empty(0, dtype=np.int64)
    balanced = True

    def rebalance() -> bool:
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
            moved_sum = pool[move].sum(axis=0)
            counts[a] -= move.size
            counts[b] += move.size
            sums[a] -= moved_sum
            sums[b] += moved_sum
            centers[a] = sums[a] / counts[a]
            centers[b] = sums[b] / counts[b]

    for _ in range(cfg.em_steps):
        batch_idx = rng.choice(n, size=min(cfg.batch_per_step, n), replace=False)
        batch = pts[members[batch_idx]].astype(np.float64)
        d2 = _sq_dists(batch, centers)
        a = np.argmin(d2, axis=1)  # ties: lowest index
        pool = np.concatenate([pool, batch])
        pool_assign = np.concatenate([pool_assign, a])
        np.add.at(counts, a, 1)
        np.add.at(sums, a, batch)
        nz = counts > 0
        centers[nz] = sums[nz] / counts[nz, None]
        balanced = rebalance() and balanced

    stats = {
        "pool_size": int(counts.sum()),
        "max_fraction": float(counts.max() / counts.sum()),
        "min_count": int(counts.min()),
        "balance_converged": bool(balanced),
    }
    return centers.astype(np.float32), stats


def train_tree(vectors: np.ndarray, cfg: ClusterConfig) -> ClusterTree:
    """Train the full tree top-down on (n, dim) embedding vectors."""
    pts = normalize_rows(vectors)
    n, dim = pts.shape
    levels: list[np.ndarray] = []
    node_stats: dict[str, dict] = {}
    # member lists per node at the level being split; root holds everything
    member_sets: list[np.ndarray] = [np.arange(n)]
    for level in range(1, cfg.depth + 1):
        centers_lvl = np.empty((cfg.k ** level, dim), dtype=np.float32)
        next_members: list[np.ndarray] = []
        for parent_flat, members in enumerate(member_sets):
            name = f"level{level}/node{parent_flat}" if level > 1 else "root"
            rng = np.random.default_rng([cfg.seed, level, parent_flat])
            centers, stats = _train_node(pts, members, cfg, rng, name)
            centers_lvl[parent_flat * cfg.k : (parent_flat + 1) * cfg.k] = centers
            node_stats[f"{level}.{parent_flat}"] = stats
            if level < cfg.depth:
                d2 = _sq_dists(pts[members].astype(np.float64), centers.astype(np.float64))
                child = np.argmin(d2, axis=1)
                for j in range(cfg.k):
                    next_members.append(members[child == j])
        levels.append(centers_lvl)
        member_sets = next_members
    meta = {"n_train": n, "node_stats": node_stats, "config": asdict(cfg)}
    return ClusterTree(config=cfg, dim=dim, levels=levels, meta=meta)


def assign_batch(vectors: np.ndarray, tree: ClusterTree) -> np.ndarray:
    """Greedy descent for many vectors; returns (n, depth) of 1-based ids."""
    x = normalize_rows(vectors)
    if x.ndim != 2 or x.shape[1] != tree.dim:
        raise ClusterError(f"assign: vectors of shape {x.shape}, expected (n, {tree.dim})")
    n = x.shape[0]
    flat = np.zeros(n, dtype=np.int64)
    out = np.zeros((n, tree.depth), dtype=np.int64)
    for level in range(1, tree.depth + 1):
        new_flat = np.empty_like(flat)
        for pf in np.unique(flat):
            sel = np.flatnonzero(flat == pf)
            centers = tree.node_children(level, int(pf))
            d2 = _sq_dists(x[sel].astype(np.float64), centers.astype(np.float64))
            j = np.argmin(d2, axis=1)
            out[sel, level - 1] = j + 1
            new_flat[sel] = pf * tree.k + j
        flat = new_flat
    return out


def save_tree(tree: ClusterTree, path, extra_meta: dict | None = None) -> None:
    meta = {
        "config": asdict(tree.config),
        "dim": tree.dim,
        "tree_meta": tree.meta,
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = {f"level{l + 1}": tree.levels[l] for l in range(tree.depth)}
    fileio.write_artifact(path, TREE_MAGIC, meta, arrays)


def load_tree(path) -> ClusterTree:
    _, meta, arrays = fileio.read_artifact(path, expect_magic=TREE_MAGIC)
    cfg = ClusterConfig(**meta["config"])
    levels = [arrays[f"level{l + 1}"] for l in range(cfg.depth)]
    return ClusterTree(config=cfg, dim=meta["dim"], levels=levels, meta=meta.get("tree_meta", {}))
