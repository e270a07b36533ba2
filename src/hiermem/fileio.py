"""Deterministic on-disk container shared by tree / bank / checkpoint files.

Layout (all integers little-endian):

    magic     8 bytes, ascii, space-padded
    version   u32
    meta_len  u64, followed by canonical JSON metadata (sorted keys)
    n_arrays  u32
    per array: name_len u16 + utf8 name, dtype_len u8 + dtype str,
               ndim u8 + ndim * u64 dims, raw C-order bytes

An array may be given to ``write_artifact`` as a ``Rows`` selection of a
larger array; the file then holds the selected rows alone, as one array.

Identical inputs produce identical bytes (no timestamps, no compression),
so sha256 digests of artifacts are stable across runs — that property is
what the resume and determinism checks lean on. ``write_csv`` is the one
writer of the package's CSV reports and ``read_ini`` the one reader of its
INI files (run configs and tier specs). Artifacts, CSVs and JSONL reports are
all written to a temporary file that then replaces the target.

A record with a dataclass is read through that dataclass's type hints, by
one of two readers: ``stored_config`` reads a JSON record (an artifact's
stored config, a row of a fact table), and ``read_section`` an INI section
(a run config's section, a tier). Neither keeps its own list of fields.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import itertools
import json
import math
import os
import struct
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class ArtifactError(RuntimeError):
    """Bad magic, version, or truncated/corrupt artifact file."""


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_ini(path, error: type[Exception]) -> dict[str, dict[str, str]]:
    """The sections of the UTF-8 INI file at ``path``, each a dict of its raw
    values, in file order. Values are taken literally (no ``%`` interpolation),
    and ``[DEFAULT]`` is an ordinary section, not one whose keys every other
    section inherits. A file that cannot be read or parsed raises ``error``."""
    # no header can name the empty section, so no section is the default
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise error(f"{path}: {e}") from None
    except configparser.Error as e:
        # configparser names the file itself, on up to three lines
        raise error(" ".join(str(e).split())) from None
    return {name: dict(parser[name]) for name in parser.sections()}


def parse_value(hint, raw: str):
    """The INI value ``raw`` as a field of type ``hint``: a bool is one of
    1/true/yes/on or 0/false/no/off, and a tuple lists its items apart by
    commas or spaces. A value that does not parse is a ``ValueError``."""
    raw = raw.strip()
    if hint is bool:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if hint in (int, float, str):
        return hint(raw)
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(parse_value(item, p) for p in raw.replace(",", " ").split())
    raise ValueError(f"unsupported config type {hint}")


def read_section(cls, items: dict[str, str], where: str, error: type[Exception], **fixed):
    """The dataclass ``cls`` an INI section's raw ``items`` describe, each value
    parsed by its field's type hint (see ``parse_value``); ``fixed`` gives the
    fields the section may not set. A key that is not a field or is fixed, a
    value that does not parse, or a missing field or value the dataclass
    refuses raises ``error``, prefixed by ``where``."""
    hints = typing.get_type_hints(cls)
    kwargs = dict(fixed)
    for key, raw in items.items():
        if key not in hints or key in fixed:
            raise error(f"{where} has no key {key!r}")
        try:
            kwargs[key] = parse_value(hints[key], raw)
        except ValueError as e:
            raise error(f"{where} {key}: {e}") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise error(f"{where} {e}") from None


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return "" if math.isnan(v) else f"{v:.10g}"
    if isinstance(v, (list, tuple)):
        return "|".join(_csv_cell(x) for x in v)
    return str(v)


@contextlib.contextmanager
def _replacing(path):
    """A binary file whose bytes replace ``path`` when the block completes.

    The bytes go to a temporary file beside ``path``, which then replaces
    it, so a write that fails or is interrupted leaves the previous file as
    it was. There is no fsync, so this does not guard against power loss.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines) -> None:
    """Write text lines, each ended by LF, whole or not at all."""
    with _replacing(path) as f:
        for line in lines:
            f.write(line.encode("utf-8") + b"\n")


def write_csv(path, header, rows) -> None:
    """Write a small table as CSV, the one format for every ``.csv`` output.

    Floats are written ``%.10g``, NaN and None as an empty cell, and lists
    joined by ``|``. No cell is quoted, so cells must not hold commas or
    newlines.
    """
    lines = (",".join(_csv_cell(v) for v in row) for row in rows)
    write_lines(path, itertools.chain([",".join(header)], lines))


def _raw_bytes(arr: np.ndarray) -> memoryview:
    """The raw bytes of a C-contiguous array: a view of its buffer, not a copy."""
    return memoryview(arr.reshape(-1).view(np.uint8))


# the most bytes of a ``Rows`` selection gathered at once (at least one row)
_GATHER_BYTES = 1 << 20


@dataclass(frozen=True)
class Rows:
    """The rows ``index`` of ``array``, in that order, written as one array
    of ``len(index)`` rows. ``write_artifact`` gathers them a bounded chunk
    at a time, so it reads no other row of ``array`` and never copies the
    selection whole."""

    array: np.ndarray
    index: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.index), *self.array.shape[1:])

    def chunks(self):
        row_bytes = self.array.itemsize * math.prod(self.array.shape[1:])
        per = max(1, _GATHER_BYTES // max(1, row_bytes))
        for i in range(0, len(self.index), per):
            yield self.array[self.index[i:i + per]]


def write_artifact(path, magic: str, meta: dict, arrays: dict[str, np.ndarray | Rows]) -> None:
    """Write an artifact whole or not at all. An array given as ``Rows`` is
    stored as the selected rows alone."""
    if len(magic) > 8:
        raise ValueError(f"magic {magic!r} longer than 8 bytes")
    mb = canonical_json(meta)
    with _replacing(path) as f:
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
            f.write(struct.pack("<B", len(arr.shape)))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            for part in arr.chunks() if isinstance(arr, Rows) else (arr,):
                f.write(_raw_bytes(np.ascontiguousarray(part)))


class _Fields(dict):
    """Metadata keys or arrays read from ``path``; a missing key is an ``ArtifactError``."""

    def __init__(self, pairs, path, what: str):
        super().__init__(pairs)
        self.path = path
        self.what = what

    def __missing__(self, key):
        raise ArtifactError(f"{self.path}: no {self.what} {key!r}")


def read_artifact(path, expect_magic: str | None = None):
    """Returns (magic, meta, arrays) with arrays in file order.

    Every length field is checked against the bytes left in the file
    before it is read, so a damaged file raises ``ArtifactError`` rather
    than a struct, JSON or allocation error; bytes after the last array
    are rejected too. Looking up a metadata key (at any depth) or an array
    the file lacks raises ``ArtifactError`` as well.
    """
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def reserve(n: int, what: str) -> int:
            nonlocal left
            if n > left:
                raise ArtifactError(f"{path}: truncated {what}")
            left -= n
            return n

        def take(n: int, what: str) -> bytes:
            return f.read(reserve(n, what))

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
            meta = json.loads(raw_meta.decode("utf-8"),
                              object_pairs_hook=lambda pairs: _Fields(pairs, path, "metadata key"))
        except ValueError as e:  # bad UTF-8 or bad JSON
            raise ArtifactError(f"{path}: corrupt metadata ({e})") from None
        if not isinstance(meta, dict):
            raise ArtifactError(f"{path}: metadata is not a JSON object")
        n = unpack("<I", "header")
        arrays: dict[str, np.ndarray] = _Fields((), path, "array")
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
            nbytes = reserve(math.prod(shape) * dtype.itemsize, f"array {name!r}")
            try:
                arr = arrays[name] = np.empty(shape, dtype=dtype)
            except ValueError as e:  # e.g. a zero-sized shape too large to index
                raise ArtifactError(f"{path}: corrupt array {name!r} ({e})") from None
            # straight into the array's own buffer: no bytes object, no copy
            if f.readinto(_raw_bytes(arr)) != nbytes:
                raise ArtifactError(f"{path}: truncated array {name!r}")
        if left:
            raise ArtifactError(f"{path}: {left} trailing bytes after the last array")
        return magic, meta, arrays


def check_layout(path, arrays: dict[str, np.ndarray], layout: dict[str, tuple[int, ...]], dtype) -> None:
    """An ``ArtifactError`` unless ``arrays`` has exactly ``layout``'s names and
    shapes, each array of ``dtype``."""
    extra = [name for name in arrays if name not in layout]
    if extra:
        raise ArtifactError(f"{path}: arrays {extra} are not in the stored config's layout")
    for name, shape in layout.items():
        if arrays[name].shape != shape:  # a missing array is an ArtifactError too
            raise ArtifactError(f"{path}: {name} is shaped {arrays[name].shape}, the stored config needs {shape}")
        if arrays[name].dtype != dtype:
            raise ArtifactError(f"{path}: {name} is {arrays[name].dtype.str}, expected {np.dtype(dtype).str}")


def _fits(value, hint) -> bool:
    """Whether a JSON value has a config field's type: an int field takes an
    int (not a bool or a float), a float field an int or a float, a tuple
    field, which JSON stores as a list, a list of its item type, and an
    ``X | None`` field null or an ``X``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return type(value) is list and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    return type(value) in ((int, float) if hint is float else (hint,))


def stored_config(cls, fields: dict, path):
    """The dataclass ``cls`` a JSON record holds as the dict ``fields``: an
    artifact's stored config, or a row of a table read from ``path``.

    A field ``cls`` does not know or lacks, a value not of its field's type
    (see ``_fits``), or a value the dataclass's checks refuse is an
    ``ArtifactError`` naming ``path``.
    """
    hints = typing.get_type_hints(cls)
    for name, value in fields.items() if isinstance(fields, dict) else ():
        if name in hints and not _fits(value, hints[name]):
            raise ArtifactError(f"{path}: stored {cls.__name__} field {name} is {value!r}, "
                                f"not {hints[name].__name__ if isinstance(hints[name], type) else hints[name]}")
    try:
        return cls(**fields)
    except (TypeError, ValueError) as e:
        raise ArtifactError(f"{path}: stored config is not a valid {cls.__name__} ({e})") from None
