"""Deterministic synthetic image+caption table (the engine's canonical input).

Schema is exactly BASELINE.json ``input_hint``:
``(image_id: string, bytes: binary, w: int32, h: int32, fmt: string,
caption: string, phash: int64)``.

Violations are *seeded* on deterministic row subsets (fixed moduli of the
row index), and the generator writes the expected violation rows
alongside, so end-to-end pipeline output can be compared exactly:

=================  =========================  ======================
defect (modulus)   corruption                 expected violation
=================  =========================  ======================
i % 101 == 5       stored w = actual + 3      invalid  @ w (decode)
i % 103 == 7       fmt label rotated          invalid  @ fmt (decode)
i % 107 == 9       bytes truncated            invalid  @ bytes (decode)
i % 109 == 11      caption null               missing key @ caption
i % 113 == 13      w null                     missing key @ w
i % 97 == 0, i>0   pixels copied from i-1     invalid @ phash (both rows)
i % 127 == 17      id absent from reference   invalid @ image_id
=================  =========================  ======================

Precedence: truncation suppresses the w/fmt decode expectations (an
undecodable payload yields exactly one ``bytes`` violation); a null w
suppresses the wrong-w expectation.

Companions: ``reference_ids.parquet`` (referential target),
``reference_profile.parquet`` (fmt frequency profile for drift checks),
``expected_violations.parquet`` (the bookkeeping above), and
``expected_conform.parquet`` — the exact (image_id, w, h, fmt, caption,
phash) rows the conform pipeline must produce: schema conform fills
caption nulls with '' and w nulls with the default, then the decode
conform repairs w/h/fmt from the decoded truth and replaces undecodable
payloads with the deterministic 8x8 placeholder.

Everything is a pure function of (n, seed); outputs are cached under
``CACHE_ROOT`` (``$SCHISMA_RAY_CACHE``, default ``/tmp/schisma_ray_cache``)
and written atomically (tmp dir + rename) so concurrent callers and
reruns are safe. ``cached`` gives every other cached fixture and model
artifact the same guarantee.
"""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..schema.result import VIOLATION_SCHEMA
from . import codec

CACHE_ROOT = Path(os.environ.get("SCHISMA_RAY_CACHE", "/tmp/schisma_ray_cache"))

IMAGE_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


#: skewed on purpose (exercises salted groupby); profile table mirrors it
FMT_PROBS = {"png": 0.70, "jpeg": 0.25, "webp": 0.05}
_FMT_ROTATE = {"png": "jpeg", "jpeg": "webp", "webp": "png"}

_ADJ = ["red", "small", "ancient", "bright", "quiet", "heavy", "golden", "wet"]
_NOUN = ["fox", "harbor", "mountain", "circuit", "lantern", "garden", "mirror", "train"]


def _caption_for(i: int) -> str | None:
    if i % 109 == 11:
        return None  # seeded missing caption
    if i % 131 == 19:
        return ""
    base = f"a photo of {_ADJ[i % 8]} {_NOUN[(i // 8) % 8]} number {i}"
    if i % 137 == 23:
        base = base + " with " + " very" * 100 + " long description"
    return base


def rows_for(indices: np.ndarray, seed: int = 42,
             px: tuple[int, int] = (8, 33)) -> pa.Table:
    """Materialize table rows for the given row indices (deterministic).

    Safe to call from parallel workers: each row depends only on
    (seed, index, px). ``px`` bounds the random image dimensions — small
    for fast correctness tables, larger for compute-proportionate
    benchmarks.
    """
    ids, blobs, ws, hs, fmts, captions, phashes = [], [], [], [], [], [], []
    for i in (int(x) for x in indices):
        content_i = i - 1 if (i % 97 == 0 and i > 0) else i  # phash dup pairs
        rng = np.random.default_rng([seed, content_i])
        w = int(rng.integers(px[0], px[1]))
        h = int(rng.integers(px[0], px[1]))
        pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        row_rng = np.random.default_rng([seed, i, 1])
        fmt = str(row_rng.choice(list(FMT_PROBS), p=list(FMT_PROBS.values())))

        actual_fmt = fmt
        stored_fmt = fmt
        if i % 103 == 7:  # fmt label lies
            stored_fmt = _FMT_ROTATE[fmt]
        data = codec.encode(pixels, actual_fmt)
        if i % 107 == 9:  # truncated payload
            data = data[:10]
        stored_w: int | None = w
        if i % 113 == 13:
            stored_w = None  # seeded missing w
        elif i % 101 == 5:
            stored_w = w + 3  # wrong dimension

        ids.append(f"img-{i:09d}")
        blobs.append(data)
        ws.append(stored_w)
        hs.append(h)
        fmts.append(stored_fmt)
        captions.append(_caption_for(i))
        phashes.append(codec.phash64(pixels))
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.string()),
            pa.array(blobs, pa.binary()),
            pa.array(ws, pa.int32()),
            pa.array(hs, pa.int32()),
            pa.array(fmts, pa.string()),
            pa.array(captions, pa.string()),
            pa.array(phashes, pa.int64()),
        ],
        schema=IMAGE_SCHEMA,
    )


def expected_violations_for(n: int, seed: int = 42,
                            px: tuple[int, int] = (8, 33)) -> pa.Table:
    """Bookkeeping: the exact violation rows the pipeline must produce."""
    refs, paths, codes, exps, recs, msgs, checks = [], [], [], [], [], [], []

    def add(i, path, code, expected, received, check, message=None):
        refs.append(f"img-{i:09d}")
        paths.append(path)
        codes.append(code)
        exps.append(expected)
        recs.append(received)
        msgs.append(message)
        checks.append(check)

    dup_members: set[int] = set()
    for i in range(n):
        if i % 97 == 0 and i > 0:
            dup_members.add(i)
            dup_members.add(i - 1)
    for i in range(n):
        truncated = i % 107 == 9
        null_w = i % 113 == 13
        if i % 109 == 11:
            add(i, "caption", "missing key", None, None, "schema")
        if null_w:
            add(i, "w", "missing key", None, None, "schema")
        if truncated:
            add(i, "bytes", "invalid", "decodable image", "undecodable", "decode")
        else:
            content_i = i - 1 if (i % 97 == 0 and i > 0) else i
            rng = np.random.default_rng([seed, content_i])
            w = int(rng.integers(px[0], px[1]))
            int(rng.integers(px[0], px[1]))  # h (advance stream)
            if i % 101 == 5 and not null_w:
                add(i, "w", "invalid", str(w), str(w + 3), "decode")
            if i % 103 == 7:
                row_rng = np.random.default_rng([seed, i, 1])
                fmt = str(row_rng.choice(list(FMT_PROBS), p=list(FMT_PROBS.values())))
                add(i, "fmt", "invalid", fmt, _FMT_ROTATE[fmt], "decode")
        if i in dup_members:
            add(i, "phash", "invalid", "unique", None, "uniqueness")
        if i % 127 == 17:
            add(i, "image_id", "invalid", "known image_id", f"img-{i:09d}", "referential")
    return pa.Table.from_arrays(
        [
            pa.array(refs, pa.string()),
            pa.array(paths, pa.string()),
            pa.array(codes, pa.string()),
            pa.array(exps, pa.string()),
            pa.array(recs, pa.string()),
            pa.array(msgs, pa.string()),
            pa.array(checks, pa.string()),
        ],
        schema=VIOLATION_SCHEMA,
    )


def expected_conform_for(n: int, seed: int = 42,
                         px: tuple[int, int] = (8, 33)) -> pa.Table:
    """Independent bookkeeping of the conform pipeline's output rows
    (bytes column excluded): decode-truth repairs for w/h/fmt, schema
    default for null captions, placeholder metadata for truncated
    payloads. Mirrors DecodeConformer + TableConformer semantics without
    executing either."""
    placeholder_phash = codec.phash64(np.zeros((8, 8, 3), dtype=np.uint8))
    ids, ws, hs, fmts, captions, phashes = [], [], [], [], [], []
    for i in range(n):
        content_i = i - 1 if (i % 97 == 0 and i > 0) else i
        rng = np.random.default_rng([seed, content_i])
        w = int(rng.integers(px[0], px[1]))
        h = int(rng.integers(px[0], px[1]))
        pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        row_rng = np.random.default_rng([seed, i, 1])
        fmt = str(row_rng.choice(list(FMT_PROBS), p=list(FMT_PROBS.values())))
        ids.append(f"img-{i:09d}")
        if i % 107 == 9:  # truncated payload -> placeholder repair
            ws.append(8)
            hs.append(8)
            fmts.append("png")
            phashes.append(placeholder_phash)
        else:
            ws.append(w)
            hs.append(h)
            fmts.append(fmt)  # decode conform repairs the rotated label
            phashes.append(codec.phash64(pixels))
        cap = _caption_for(i)
        captions.append("" if cap is None else cap)
    return pa.Table.from_arrays(
        [
            pa.array(ids, pa.string()),
            pa.array(ws, pa.int32()),
            pa.array(hs, pa.int32()),
            pa.array(fmts, pa.string()),
            pa.array(captions, pa.string()),
            pa.array(phashes, pa.int64()),
        ],
        schema=pa.schema(
            [
                ("image_id", pa.string()),
                ("w", pa.int32()),
                ("h", pa.int32()),
                ("fmt", pa.string()),
                ("caption", pa.string()),
                ("phash", pa.int64()),
            ]
        ),
    )


def rows_for_sf(sf_dir: str) -> int:
    """Row count for a testdata sf directory name (sf0.01 -> 10_000)."""
    name = Path(sf_dir).name
    try:
        sf = float(name.replace("sf", ""))
    except ValueError:
        sf = 0.001
    return max(100, int(round(sf * 1_000_000)))


def publish_dir(tmp: Path, out: Path) -> None:
    """Rename the finished directory ``tmp`` to ``out``. A concurrent
    writer of the same content may have published first: then its
    complete copy (``out/_SUCCESS`` present) wins, and ``tmp`` is left
    for the caller to delete."""
    try:
        os.rename(tmp, out)
    except OSError as ex:
        if (ex.errno not in (errno.EEXIST, errno.ENOTEMPTY)
                or not (out / "_SUCCESS").exists()):
            raise


def cached(name: str, build: Callable[[Path], object]) -> Path:
    """The cache entry ``CACHE_ROOT / name``, built on first use.

    ``build(tmp)`` writes the entry (a file, or a directory it makes) at
    a temporary path of this process next to it, which is renamed to the
    final path once ``build`` returns. A write killed midway leaves only
    that temporary path, which no caller reads, so the next call builds
    the entry again. Concurrent writers each build the same content in a
    path of their own, so a caller only ever sees a complete entry."""
    out = CACHE_ROOT / name
    if out.exists():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f"{out.name}.tmp-{os.getpid()}")
    try:
        _remove(tmp)
        build(tmp)
        try:
            os.replace(tmp, out)
        except OSError as ex:  # a directory another writer published
            if ex.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                raise
    finally:
        _remove(tmp)
    return out


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def generate(n: int, seed: int = 42, force: bool = False,
             px: tuple[int, int] = (8, 33)) -> Path:
    """Generate (or reuse cached) table files; returns the directory.

    Layout: ``{cache}/images_n{n}_s{seed}/{images,reference_ids,
    reference_profile,expected_violations}.parquet``. Written to a temp
    dir of its own then renamed, so partially-written caches are never
    observed and concurrent callers never touch each other's files.
    """
    suffix = "" if px == (8, 33) else f"_px{px[0]}-{px[1]}"
    # cache key includes the codec generation so codec changes invalidate
    # (v3: adds expected_conform.parquet)
    out = CACHE_ROOT / f"images_v3_n{n}_s{seed}{suffix}"
    done = out / "_SUCCESS"
    if done.exists() and not force:
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=out.name + ".tmp-"))
    try:
        _write_table(tmp, n, seed, px)
        if out.exists() and (force or not done.exists()):
            shutil.rmtree(out, ignore_errors=True)
        publish_dir(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def _write_table(tmp: Path, n: int, seed: int, px: tuple[int, int]) -> None:

    # images: one file per shard — shards are the unit of parallel read
    # AND of checkpoint/resume (state/checkpoint.py), mirroring how a
    # 100 TB Lance/parquet table splits into fragments.
    img_dir = tmp / "images"
    img_dir.mkdir()
    # shard size targets ~24 MB per file: large enough for efficient
    # parquet, small enough that Ray never block-splits a file (slicing a
    # block re-serializes the whole parent buffer per slice — a silent
    # multi-GB copy amplification for binary-heavy rows)
    est_row_bytes = 3 * ((px[0] + px[1]) // 2) ** 2 + 2000
    chunk = max(500, min(5000, 24_000_000 // est_row_bytes))
    shards = [
        (shard, start, min(start + chunk, n))
        for shard, start in enumerate(range(0, n, chunk))
    ]
    try:
        import ray

        use_ray = len(shards) >= 4 and ray.is_initialized()
    except ImportError:  # pragma: no cover
        use_ray = False
    if use_ray:
        import ray

        @ray.remote
        def _write(shard: int, start: int, stop: int) -> None:
            t = rows_for(np.arange(start, stop), seed, px)
            pq.write_table(t, img_dir / f"part-{shard:05d}.parquet")

        ray.get([_write.remote(*s) for s in shards])
    else:
        for shard, start, stop in shards:
            idx = np.arange(start, stop)
            pq.write_table(rows_for(idx, seed, px), img_dir / f"part-{shard:05d}.parquet")

    ref_ids = [f"img-{i:09d}" for i in range(n) if i % 127 != 17]
    pq.write_table(
        pa.table({"image_id": pa.array(ref_ids, pa.string())}),
        tmp / "reference_ids.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "column": pa.array(["fmt"] * len(FMT_PROBS)),
                "bucket": pa.array(list(FMT_PROBS)),
                "freq": pa.array(list(FMT_PROBS.values()), pa.float64()),
            }
        ),
        tmp / "reference_profile.parquet",
    )
    pq.write_table(expected_violations_for(n, seed, px), tmp / "expected_violations.parquet")
    pq.write_table(expected_conform_for(n, seed, px), tmp / "expected_conform.parquet")
    (tmp / "_SUCCESS").touch()


def generate_for_sf(sf_dir: str, seed: int = 42) -> Path:
    return generate(rows_for_sf(sf_dir), seed)
