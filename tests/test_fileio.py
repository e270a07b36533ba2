import math
import os
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import cluster as cl
from hiermem import fileio


def small_tree_bytes(tmp_path) -> bytes:
    pts = np.random.default_rng(0).normal(size=(12, 3)).astype(np.float32)
    tree = cl.train_tree(pts, cl.ClusterConfig(k=2, depth=2, em_steps=2, batch_per_step=12,
                                               balance_limit=1.0, seed=0))
    p = tmp_path / "tree.bin"
    cl.save_tree(tree, p)
    return p.read_bytes()


def test_every_truncation_and_trailing_bytes_raise_artifact_error(tmp_path):
    raw = small_tree_bytes(tmp_path)
    p = tmp_path / "damaged.bin"
    for n in range(len(raw)):
        p.write_bytes(raw[:n])
        with pytest.raises(fileio.ArtifactError):
            fileio.read_artifact(p)
    p.write_bytes(raw + b"\0")
    with pytest.raises(fileio.ArtifactError, match="trailing"):
        fileio.read_artifact(p)
    p.write_bytes(raw)
    assert fileio.read_artifact(p)[0] == cl.TREE_MAGIC


def test_corrupt_metadata_and_array_headers_raise_artifact_error(tmp_path):
    raw = bytearray(small_tree_bytes(tmp_path))
    p = tmp_path / "damaged.bin"
    meta_at = 8 + 4 + 8
    for offset, byte in ((meta_at, ord("[")), (meta_at, 0xFF), (12, 0xFF)):
        bad = bytearray(raw)
        bad[offset] = byte  # breaks the JSON, its UTF-8, or the metadata length
        p.write_bytes(bad)
        with pytest.raises(fileio.ArtifactError):
            fileio.read_artifact(p)
    p.write_bytes(b"HMTEST  " + raw[8:8 + 4] + (2).to_bytes(8, "little") + b"[]" + (0).to_bytes(4, "little"))
    with pytest.raises(fileio.ArtifactError, match="not a JSON object"):
        fileio.read_artifact(p)
    fileio.write_artifact(p, "HMTEST", {}, {"a": np.zeros(2, dtype=np.float32)})
    bad = bytearray(p.read_bytes())
    at = bad.index(b"<f4")
    bad[at : at + 3] = b"|O8"  # an object dtype cannot come from raw bytes
    p.write_bytes(bad)
    with pytest.raises(fileio.ArtifactError):
        fileio.read_artifact(p)


def test_round_trip_keeps_dtype_shape_and_bytes(tmp_path):
    arrays = {
        "f4": np.arange(6, dtype=np.float32).reshape(2, 3),
        "empty": np.zeros((0, 5), dtype=np.float32),
        "big_endian": np.arange(4, dtype=">f8"),
        "scalar": np.array(7, dtype=np.int64),
        "strided": np.arange(12, dtype=np.int16).reshape(3, 4)[:, ::2],
    }
    p, q = tmp_path / "a.bin", tmp_path / "b.bin"
    fileio.write_artifact(p, "TEST", {"v": 1}, arrays)
    magic, meta, got = fileio.read_artifact(p, expect_magic="TEST")
    assert (magic, meta) == ("TEST", {"v": 1})
    assert list(got) == list(arrays)
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        assert np.array_equal(got[name], arr) and got[name].flags.writeable, name
    assert got["big_endian"].dtype.str == ">f8"
    fileio.write_artifact(q, "TEST", {"v": 1}, got)
    assert q.read_bytes() == p.read_bytes()
    # raw C-order bytes as stored, native or not
    assert arrays["big_endian"].tobytes() in p.read_bytes()


def test_rows_are_written_as_the_selected_rows_a_chunk_at_a_time(tmp_path, monkeypatch):
    arr = np.arange(7 * 3, dtype=np.float32).reshape(7, 3)
    index = np.array([0, 2, 3, 6])
    monkeypatch.setattr(fileio, "_GATHER_BYTES", 2 * arr[0].nbytes)
    assert [c.tolist() for c in fileio.Rows(arr, index).chunks()] == [arr[[0, 2]].tolist(), arr[[3, 6]].tolist()]
    for name, rows in (("some", index), ("none", index[:0])):
        fileio.write_artifact(tmp_path / f"{name}.bin", "HMTEST", {}, {"a": fileio.Rows(arr, rows), "b": arr})
        fileio.write_artifact(tmp_path / f"{name}_taken.bin", "HMTEST", {}, {"a": arr[rows], "b": arr})
        assert (tmp_path / f"{name}.bin").read_bytes() == (tmp_path / f"{name}_taken.bin").read_bytes()
    assert fileio.read_artifact(tmp_path / "none.bin")[2]["a"].shape == (0, 3)


def test_write_csv_cells(tmp_path):
    out = tmp_path / "t.csv"
    fileio.write_csv(out, ["mode", "per_level", "total"], [
        ["serial", [0.1, 0.15], 0.25],
        ["parallel", None, 0.15],
        ["none", [3, np.int64(4)], float("nan")],
        ["round", 2, np.float64(1 / 3)],
    ])
    assert out.read_bytes() == (
        b"mode,per_level,total\n"
        b"serial,0.1|0.15,0.25\n"
        b"parallel,,0.15\n"
        b"none,3|4,\n"
        b"round,2,0.3333333333\n"
    )


class _FailsMidArray:
    """Array stand-in whose header fields write but whose data raises."""

    dtype = np.dtype("<f4")
    ndim = 1
    shape = (4,)

    def __array__(self, dtype=None, copy=None):
        raise OSError("device lost mid-array")


def test_failed_write_leaves_previous_artifact_and_no_temp_file(tmp_path):
    p = tmp_path / "a.bin"
    fileio.write_artifact(p, "TEST", {"v": 1}, {"x": np.arange(3.0)})
    before = p.read_bytes()
    with pytest.raises(OSError, match="mid-array"):
        fileio.write_artifact(p, "TEST", {"v": 2}, {"x": np.arange(5.0), "y": _FailsMidArray()})
    assert p.read_bytes() == before
    assert sorted(q.name for q in tmp_path.iterdir()) == ["a.bin"]
    fileio.write_artifact(p, "TEST", {"v": 2}, {"x": np.arange(5.0)})
    assert fileio.read_artifact(p)[1] == {"v": 2}
    assert sorted(q.name for q in tmp_path.iterdir()) == ["a.bin"]

    c = tmp_path / "m.csv"
    fileio.write_csv(c, ["step"], [[1], [2]])
    before = c.read_bytes()

    def rows():
        yield [3]
        raise OSError("device lost mid-table")

    with pytest.raises(OSError, match="mid-table"):
        fileio.write_csv(c, ["step"], rows())
    assert c.read_bytes() == before
    assert sorted(q.name for q in tmp_path.iterdir()) == ["a.bin", "m.csv"]


_DTYPES = [np.dtype(bo + code) for code in ("i2", "i4", "i8", "u2", "u4", "u8", "f2", "f4", "f8")
           for bo in "<>"] + [np.dtype(np.bool_), np.dtype(np.int8), np.dtype(np.uint8)]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _arrays(draw):
    names = draw(st.lists(st.text(max_size=6), unique=True, max_size=4))
    out = {}
    for name in names:
        dtype = draw(st.sampled_from(_DTYPES))
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        n = math.prod(shape) * dtype.itemsize
        raw = draw(st.binary(min_size=n, max_size=n))
        if dtype == np.bool_:
            raw = bytes(b & 1 for b in raw)
        out[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return out


@settings(max_examples=40, deadline=None)
@given(magic=st.text(alphabet=string.ascii_uppercase, max_size=8),
       meta=st.dictionaries(st.text(max_size=6), _JSON, max_size=4), arrays=_arrays())
def test_any_artifact_round_trips_and_every_cut_is_an_artifact_error(magic, meta, arrays):
    with tempfile.TemporaryDirectory() as d:
        p, q = Path(d) / "a.bin", Path(d) / "b.bin"
        fileio.write_artifact(p, magic, meta, arrays)
        got_magic, got_meta, got = fileio.read_artifact(p)
        assert (got_magic, got_meta) == (magic, meta)
        assert list(got) == list(arrays)
        for name, arr in arrays.items():
            assert (got[name].dtype.str, got[name].shape) == (arr.dtype.str, arr.shape), name
            assert got[name].tobytes() == arr.tobytes(), name
        fileio.write_artifact(q, got_magic, got_meta, got)
        raw = p.read_bytes()
        assert q.read_bytes() == raw
        for n in reversed(range(len(raw))):  # q holds raw[:n]
            os.truncate(q, n)
            with pytest.raises(fileio.ArtifactError):
                fileio.read_artifact(q)
