"""Hashed character n-gram text embedder.

Documents and queries are mapped to a fixed-dimensional vector by signed
feature hashing of their character n-grams (sizes 3, 4 and 5 by default),
then L2-normalized. Deterministic across processes and platforms: the
hash is a vectorized 64-bit polynomial over raw bytes with a splitmix64
finisher, nothing drawn from Python's randomized ``hash``.

``embed_batch`` works in chunks of at most ``_CHUNK_DOCS`` documents and,
unless a chunk is one document, at most ``_CHUNK_BYTES`` normalised bytes:
it hashes every window of a chunk's joined bytes at once, drops the
windows that cross a document's end, and sums the ±1 signs of each
(document, bucket) with one ``bincount``. The sums are integers, so
neither the order of the additions nor the chunk a document falls in
changes its vector. A chunk holds about 110 bytes of index, hash and sign
arrays per byte of text, which the byte budget keeps under 30 MiB unless
one document alone is longer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_P = np.uint64(0x100000001B3)  # FNV-ish odd multiplier
_CHUNK_DOCS = 1024  # documents hashed together; bounds the (chunk, dim) float64 sums
_CHUNK_BYTES = 1 << 18  # text bytes hashed together; bounds the per-window arrays


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


def _embed_chunk(docs: list[bytes], cfg: EmbedderConfig) -> np.ndarray:
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    ends = np.cumsum(lengths)
    data = np.frombuffer(b"".join(docs), dtype=np.uint8)
    doc_of = np.repeat(np.arange(len(docs)), lengths)  # each byte's document
    keys, signs = [], []
    for n in cfg.ngram_sizes:
        hashes = _ngram_hashes(data, n, cfg.seed)
        doc = doc_of[: hashes.size]
        inside = np.arange(hashes.size) + n <= ends[doc]  # the window ends in its document
        hashes, doc = hashes[inside], doc[inside]
        keys.append(doc * cfg.dim + (hashes % np.uint64(cfg.dim)).astype(np.int64))
        signs.append(np.where((hashes >> np.uint64(63)) & np.uint64(1), -1.0, 1.0))
    sums = np.bincount(np.concatenate(keys), weights=np.concatenate(signs),
                       minlength=len(docs) * cfg.dim).reshape(len(docs), cfg.dim)
    vecs = sums.astype(np.float32)
    # An integer sum of squares below 2**24 is exact in float32, so its
    # float32 root is the norm the per-document float32 dot gives; a
    # larger one takes that dot itself.
    sq = np.einsum("ij,ij->i", sums, sums)
    norms = np.sqrt(sq.astype(np.float32))
    for i in np.flatnonzero(sq >= 2.0**24):
        norms[i] = np.linalg.norm(vecs[i])
    return np.divide(vecs, norms[:, None], out=vecs, where=norms[:, None] > 0)


def embed_batch(texts: list[str], cfg: EmbedderConfig) -> np.ndarray:
    """Embed a list of documents into an (n, dim) float32 matrix.

    Empty or too-short text gives the zero vector.
    """
    out = np.empty((len(texts), cfg.dim), dtype=np.float32)
    docs, size, lo = [], 0, 0
    for doc in map(_normalize_text, texts):
        if docs and (len(docs) == _CHUNK_DOCS or size + len(doc) > _CHUNK_BYTES):
            out[lo : lo + len(docs)] = _embed_chunk(docs, cfg)
            docs, size, lo = [], 0, lo + len(docs)
        docs.append(doc)
        size += len(doc)
    if docs:
        out[lo:] = _embed_chunk(docs, cfg)
    return out
