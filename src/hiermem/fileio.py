"""Deterministic on-disk container shared by tree / bank / checkpoint files.

Layout (all integers little-endian):

    magic     8 bytes, ascii, space-padded
    version   u32
    meta_len  u64, followed by canonical JSON metadata (sorted keys)
    n_arrays  u32
    per array: name_len u16 + utf8 name, dtype_len u8 + dtype str,
               ndim u8 + ndim * u64 dims, raw C-order bytes

Identical inputs produce identical bytes (no timestamps, no compression),
so sha256 digests of artifacts are stable across runs — that property is
what the resume and determinism checks lean on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class ArtifactError(RuntimeError):
    """Bad magic, version, or truncated/corrupt artifact file."""


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest_of(obj) -> str:
    """sha256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj)).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_artifact(path, magic: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    if len(magic) > 8:
        raise ValueError(f"magic {magic!r} longer than 8 bytes")
    mb = canonical_json(meta)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "wb") as f:
        f.write(magic.encode("ascii").ljust(8))
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(mb)))
        f.write(mb)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            nb = name.encode("utf-8")
            dt = arr.dtype.str.encode("ascii")  # e.g. '<f4'
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", len(dt)))
            f.write(dt)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            f.write(np.ascontiguousarray(arr).tobytes())


def read_artifact(path, expect_magic: str | None = None):
    """Returns (magic, meta, arrays) with arrays in file order.

    Every length field is checked against the bytes left in the file
    before it is read, so a damaged file raises ``ArtifactError`` rather
    than a struct, JSON or allocation error; bytes after the last array
    are rejected too.
    """
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def take(n: int, what: str) -> bytes:
            nonlocal left
            if n > left:
                raise ArtifactError(f"{path}: truncated {what}")
            left -= n
            return f.read(n)

        def unpack(fmt: str, what: str) -> int:
            return struct.unpack(fmt, take(struct.calcsize(fmt), what))[0]

        magic = take(8, "header").decode("ascii", errors="replace").rstrip()
        if expect_magic is not None and magic != expect_magic:
            raise ArtifactError(f"{path}: magic {magic!r}, expected {expect_magic!r}")
        version = unpack("<I", "header")
        if version != FORMAT_VERSION:
            raise ArtifactError(f"{path}: unsupported format version {version}")
        raw_meta = take(unpack("<Q", "header"), "metadata")
        try:
            meta = json.loads(raw_meta.decode("utf-8"))
        except ValueError as e:  # bad UTF-8 or bad JSON
            raise ArtifactError(f"{path}: corrupt metadata ({e})") from None
        if not isinstance(meta, dict):
            raise ArtifactError(f"{path}: metadata is not a JSON object")
        n = unpack("<I", "header")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n):
            raw_name = take(unpack("<H", "array header"), "array header")
            raw_dtype = take(unpack("<B", "array header"), "array header")
            try:
                name = raw_name.decode("utf-8")
                dtype = np.dtype(raw_dtype.decode("ascii"))
            except (TypeError, ValueError) as e:
                raise ArtifactError(f"{path}: corrupt array header ({e})") from None
            if dtype.hasobject or dtype.itemsize == 0:
                raise ArtifactError(f"{path}: array {name!r} has unsupported dtype {dtype}")
            shape = tuple(unpack("<Q", "array header") for _ in range(unpack("<B", "array header")))
            buf = take(math.prod(shape) * dtype.itemsize, f"array {name!r}")
            try:
                arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
            except ValueError as e:  # e.g. a zero-sized shape too large to index
                raise ArtifactError(f"{path}: corrupt array {name!r} ({e})") from None
        if left:
            raise ArtifactError(f"{path}: {left} trailing bytes after the last array")
        return magic, meta, arrays
