import numpy as np
import pytest

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
