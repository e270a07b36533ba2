"""Hashed character n-gram text embedder.

Documents and queries are mapped to a fixed-dimensional vector by signed
feature hashing of their character n-grams (sizes 3, 4 and 5 by default),
then L2-normalized. Deterministic across processes and platforms: the
hash is a vectorized 64-bit polynomial over raw bytes with a splitmix64
finisher, nothing drawn from Python's randomized ``hash``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_P = np.uint64(0x100000001B3)  # FNV-ish odd multiplier


@dataclass(frozen=True)
class EmbedderConfig:
    dim: int = 384
    ngram_sizes: tuple[int, ...] = (3, 4, 5)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ngram_sizes", tuple(self.ngram_sizes))  # a stored config holds a JSON list
        if self.dim <= 0:
            raise ValueError(f"embedder dim must be positive, got {self.dim}")
        if not self.ngram_sizes or any(n <= 0 for n in self.ngram_sizes):
            raise ValueError(f"bad ngram sizes {self.ngram_sizes}")


def _normalize_text(text: str) -> bytes:
    return " ".join(text.lower().split()).encode("utf-8")


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _ngram_hashes(data: np.ndarray, n: int, seed: int) -> np.ndarray:
    """64-bit hashes of every length-n byte window (vectorized)."""
    if data.shape[0] < n:
        return np.empty(0, dtype=np.uint64)
    h = np.full(data.shape[0] - n + 1, np.uint64(seed * 0x9E3779B9 + n), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(n):
            h = h * _P + data[i : data.shape[0] - n + 1 + i].astype(np.uint64)
        return _splitmix64(h)


def embed_text(text: str, cfg: EmbedderConfig) -> np.ndarray:
    """Embed one document. Empty/too-short text gives the zero vector."""
    data = np.frombuffer(_normalize_text(text), dtype=np.uint8)
    vec = np.zeros(cfg.dim, dtype=np.float32)
    for n in cfg.ngram_sizes:
        hashes = _ngram_hashes(data, n, cfg.seed)
        if hashes.size == 0:
            continue
        buckets = (hashes % np.uint64(cfg.dim)).astype(np.int64)
        signs = np.where((hashes >> np.uint64(63)) & np.uint64(1), -1.0, 1.0).astype(np.float32)
        np.add.at(vec, buckets, signs)
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def embed_batch(texts: list[str], cfg: EmbedderConfig) -> np.ndarray:
    """Embed a list of documents into an (n, dim) float32 matrix."""
    out = np.zeros((len(texts), cfg.dim), dtype=np.float32)
    for i, t in enumerate(texts):
        out[i] = embed_text(t, cfg)
    return out
