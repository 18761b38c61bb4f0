"""Contract tests for the optional-dependency gates (VERDICT round-1
items: the HAVE_PIL / HAVE_LANCE branches were never exercised because
neither library ships in this container).

A PIL stand-in (implementing the exact Pillow surface codec.py's pil
backend touches: Image.fromarray/open/save/convert/format/size) and a
fake ``lance`` module are injected into sys.modules; the tests fail if
the dispatch rots — e.g. the pil branch stops being reachable, or
read_table stops routing ``.lance`` dirs to ray.data.read_lance.
"""

from __future__ import annotations

import importlib
import io
import struct
import sys
import types
import zlib

import numpy as np
import pyarrow as pa
import pytest


# ----------------------------------------------------- PIL stand-in
_MAGIC = b"FPIL"
_FMTS = ("PNG", "JPEG", "WEBP")


class _FakeImage:
    def __init__(self, arr: np.ndarray, fmt: str | None = None):
        self.arr = arr
        self.format = fmt

    @property
    def size(self):
        return (self.arr.shape[1], self.arr.shape[0])

    def save(self, buf: io.BytesIO, format: str = "PNG", **kwargs):
        if format not in _FMTS:
            raise ValueError(format)
        h, w, c = self.arr.shape
        head = _MAGIC + format.encode().ljust(8, b"\0") + struct.pack("<HHB", w, h, c)
        buf.write(head + zlib.compress(self.arr.tobytes()))

    def convert(self, mode: str):
        assert mode == "RGB"
        return self

    def __array__(self, dtype=None, copy=None):
        return self.arr


def _fake_open(buf: io.BytesIO) -> _FakeImage:
    data = buf.read()
    if not data.startswith(_MAGIC):
        raise OSError("cannot identify image file")
    fmt = data[4:12].rstrip(b"\0").decode()
    w, h, c = struct.unpack_from("<HHB", data, 12)
    raw = zlib.decompress(data[17:])
    arr = np.frombuffer(raw, np.uint8).reshape(h, w, c)
    return _FakeImage(arr, fmt)


@pytest.fixture
def fake_pil(monkeypatch):
    image_mod = types.ModuleType("PIL.Image")
    image_mod.fromarray = lambda arr: _FakeImage(np.asarray(arr))
    image_mod.open = _fake_open
    pil_pkg = types.ModuleType("PIL")
    pil_pkg.Image = image_mod
    monkeypatch.setitem(sys.modules, "PIL", pil_pkg)
    monkeypatch.setitem(sys.modules, "PIL.Image", image_mod)
    yield


def test_codec_pil_backend_switches(fake_pil):
    from schisma_ray.sources import codec

    prev = codec.set_backend("pil")
    try:
        assert codec.get_backend() == "pil"
        px = np.arange(9 * 7 * 3, dtype=np.uint8).reshape(9, 7, 3)
        data = codec.encode(px, "png")
        assert data.startswith(_MAGIC)  # really produced by the pil path
        out, fmt = codec.decode(data)
        assert fmt == "png" and np.array_equal(out, px)
        with pytest.raises(codec.CodecError):
            codec.decode(b"not an image")
        with pytest.raises(codec.CodecError):
            codec.encode(px, "tiff")
    finally:
        codec.set_backend(prev)
    # builtin restored: same pixels, different container
    assert codec.decode(codec.encode(px, "png"))[0].shape == (9, 7, 3)


def test_decode_stage_runs_on_pil_backend(fake_pil):
    """The decode stages' backend parameter must flip the codec inside
    each call (the call, not the constructor, runs in the worker that
    executes the stage), restore the caller's backend afterwards, and
    produce the same violation semantics over PIL-encoded payloads."""
    from schisma_ray.sources import codec
    from schisma_ray.stages.decoder import DecodeConformer, DecodeValidator

    prev = codec.set_backend("pil")
    try:
        px = np.zeros((8, 6, 3), dtype=np.uint8)
        good = codec.encode(px, "jpeg")
    finally:
        codec.set_backend(prev)
    batch = pa.table(
        {
            "image_id": pa.array(["ok", "wrong-w", "bad"], pa.string()),
            "bytes": pa.array([good, good, b"junk"], pa.binary()),
            "w": pa.array([6, 11, 6], pa.int32()),
            "h": pa.array([8, 8, 8], pa.int32()),
            "fmt": pa.array(["jpeg", "jpeg", "jpeg"], pa.string()),
            "phash": pa.array([0, 0, 0], pa.int64()),
        }
    )
    validator = DecodeValidator(backend="pil")
    conformer = DecodeConformer(backend="pil")
    # constructing a stage leaves the process-wide backend alone
    assert codec.get_backend() == prev == "builtin"
    vio = validator(batch).to_pydict()
    got = set(zip(vio["row_ref"], vio["path"], vio["received"]))
    # the builtin codec cannot read the pil payloads: these rows prove
    # the call decoded through pil
    assert got == {("wrong-w", "w", "11"), ("bad", "bytes", "undecodable")}
    conf = conformer(batch)
    assert conf["w"].to_pylist() == [6, 6, 8]  # repaired from decode; placeholder 8x8
    assert conf["fmt"].to_pylist() == ["jpeg", "jpeg", "png"]
    # the placeholder is encoded by the call's backend too
    assert conf["bytes"].to_pylist()[2].startswith(_MAGIC)
    assert codec.get_backend() == "builtin"


def test_set_backend_pil_requires_pil():
    """Without an importable PIL the gate must fail loudly, not fall
    back silently."""
    from schisma_ray.sources import codec

    try:  # probe directly: codec.HAVE_PIL may have been baked while a
        # fake PIL was injected by an earlier test in this process
        import PIL.Image  # noqa: F401

        pytest.skip("real PIL present")  # pragma: no cover
    except ImportError:
        pass
    with pytest.raises(ImportError):
        codec.set_backend("pil")
    assert codec.get_backend() == "builtin"


# ----------------------------------------------------- lance gate
def test_reader_lance_gate_switches(monkeypatch, tmp_path):
    fake_lance = types.ModuleType("lance")
    monkeypatch.setitem(sys.modules, "lance", fake_lance)
    from schisma_ray.sources import reader as reader_mod

    reader = importlib.reload(reader_mod)
    try:
        assert reader.HAVE_LANCE  # the import gate actually flipped

        calls = {}

        def fake_read_lance(path, columns=None):
            calls["path"] = path
            calls["columns"] = columns
            return "LANCE_DS"

        monkeypatch.setattr(reader.rd, "read_lance", fake_read_lance, raising=False)
        lance_dir = tmp_path / "table.lance"
        (lance_dir / "_versions").mkdir(parents=True)
        out = reader.read_table(lance_dir, columns=["image_id", "w"])
        assert out == "LANCE_DS"
        assert calls == {"path": str(lance_dir), "columns": ["image_id", "w"]}
    finally:
        monkeypatch.delitem(sys.modules, "lance")
        importlib.reload(reader_mod)
    assert reader_mod.HAVE_LANCE is False  # restored for other tests


def test_reader_parquet_fallback(ray_session, tmp_path):
    """Without lance, the same call reads parquet fragments."""
    import pyarrow.parquet as pq

    from schisma_ray.sources.reader import read_table

    d = tmp_path / "tbl"
    d.mkdir()
    pq.write_table(pa.table({"x": [1, 2]}), d / "a.parquet")
    pq.write_table(pa.table({"x": [3]}), d / "b.parquet")
    ds = read_table(d, columns=["x"])
    assert sorted(ds.to_pandas()["x"]) == [1, 2, 3]
