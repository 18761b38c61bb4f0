"""End-to-end pipeline tests on the seeded synthetic image table."""

from pathlib import Path

import numpy as np
import pyarrow.parquet as pq
import pytest

from schisma_ray.sources import codec, image_table


def _vio_set(df):
    key = ["row_ref", "path", "code", "expected", "received", "check"]
    return set(map(tuple, df[key].fillna("~").values.tolist()))


@pytest.fixture(scope="module")
def table_dir(ray_session):
    return image_table.generate(1500)


def test_validate_matches_seeded_expectations(table_dir):
    from schisma_ray.pipelines import validate_images

    got = _vio_set(validate_images(table_dir).to_pandas())
    exp = _vio_set(pq.read_table(table_dir / "expected_violations.parquet").to_pandas())
    assert got == exp


def test_conform_round_trip_fidelity(table_dir):
    """Conformed rows decode; pixels match originals (PSNR >= 40 dB for
    lossy formats); captions preserved except seeded nulls -> default."""
    from schisma_ray.pipelines import conform_images

    conf = conform_images(table_dir).to_pandas().set_index("image_id")
    sample = list(range(0, 1500, 37))
    for i in sample:
        row = conf.loc[f"img-{i:09d}"]
        px, fmt = codec.decode(row["bytes"])
        assert fmt == row["fmt"]
        assert px.shape[1] == row["w"] and px.shape[0] == row["h"]
        if i % 107 == 9:  # truncated source -> deterministic placeholder
            assert row["w"] == 8 and row["h"] == 8
            continue
        content_i = i - 1 if (i % 97 == 0 and i > 0) else i
        rng = np.random.default_rng([42, content_i])
        w = int(rng.integers(8, 33))
        h = int(rng.integers(8, 33))
        orig = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert codec.psnr(orig, px) >= 40.0
        expected_caption = image_table._caption_for(i)
        if expected_caption is None:
            expected_caption = ""  # required-null repaired with default
        assert row["caption"] == expected_caption


def test_fused_matches_unfused(table_dir):
    """``fused`` selects nothing: ``validate_images(fused=True)`` runs the
    one read of every check family and emits exactly the seeded rows."""
    from schisma_ray.pipelines import validate_images

    fused = _vio_set(validate_images(table_dir, fused=True).to_pandas())
    exp = _vio_set(pq.read_table(table_dir / "expected_violations.parquet").to_pandas())
    assert fused == exp
    assert {c for *_, c in fused} == {"schema", "decode", "uniqueness", "referential"}


def test_per_partition_verdicts(table_dir, tmp_path):
    """Checkpoint records carry per-partition violation counts that match
    the seeded expectations exactly (the per-partition pass/fail gate)."""
    import pyarrow.parquet as pq

    from schisma_ray.pipelines.validate_pipeline import FusedValidator
    from schisma_ray.state import checkpoint

    def pipe(ds):
        return ds.map_batches(
            FusedValidator(), batch_format="pyarrow", zero_copy_batch=True
        )

    out = tmp_path / "verdicts"
    checkpoint.run_resumable(table_dir, out, pipe, files_per_partition=1)
    records = checkpoint.load_records(out)
    exp = pq.read_table(table_dir / "expected_violations.parquet").to_pandas()
    exp = exp[exp["check"].isin(["schema", "decode"])]  # fused pipe's scope
    exp["row_idx"] = exp["row_ref"].str.slice(4).astype(int)
    for rec in records:
        # partition = one 5000-row shard; shard index from the file name
        shard = int(Path(rec["inputs"][0]).stem.split("-")[1])
        lo, hi = shard * 5000, (shard + 1) * 5000
        part_exp = exp[(exp["row_idx"] >= lo) & (exp["row_idx"] < hi)]
        expected_counts = part_exp["code"].value_counts().to_dict()
        assert rec["violation_counts"] == expected_counts, rec["partition_id"]
        assert rec["row_count"] == len(part_exp)


def test_resume_skips_committed_partitions(table_dir, tmp_path):
    from schisma_ray.pipelines import image_table_schema
    from schisma_ray.stages.validate import TableValidator
    from schisma_ray.state import checkpoint

    ts = image_table_schema()

    def pipe(ds):
        return ds.map_batches(
            TableValidator(ts), batch_format="pyarrow", zero_copy_batch=True
        )

    out = tmp_path / "run"
    # simulate a crash: only 1 partition commits (1500 rows -> 1 shard of
    # 5000 is 1 file; force smaller partitions via files_per_partition=1)
    first = checkpoint.run_resumable(
        table_dir, out, pipe, files_per_partition=1, max_partitions=1
    )
    assert len(first) == 1
    done_before = checkpoint.committed_partitions(out)
    # resume: finishes the rest, skips the committed one
    second = checkpoint.run_resumable(table_dir, out, pipe, files_per_partition=1)
    assert {r["partition_id"] for r in second}.isdisjoint(done_before)
    records = checkpoint.load_records(out)
    assert len(records) == len(checkpoint.partition_inputs(table_dir, 1))
    for r in records:
        assert r["schema_version"] == 1 and r["inputs"]
    # third run: everything committed, nothing to do
    assert checkpoint.run_resumable(table_dir, out, pipe, files_per_partition=1) == []


def test_uniqueness_and_referential_units(ray_session, monkeypatch):
    """Both checks give the same violations with their key sets folded
    and broadcast (the default) and on the keyed exchange (fold limit 0)."""
    import pyarrow as pa
    import ray.data as rd

    from schisma_ray.stages import _bucket
    from schisma_ray.stages.referential import referential_violations
    from schisma_ray.stages.uniqueness import uniqueness_violations

    t = pa.table(
        {
            "image_id": pa.array([f"i{k}" for k in range(6)]),
            "phash": pa.array([1, 2, 2, 3, 1, 4], pa.int64()),
        }
    )
    ref = pa.table({"image_id": pa.array(["i0", "i1", "i2", "i3"])})
    for limit in (None, 0):
        if limit is not None:
            monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", limit)
        vio = uniqueness_violations(rd.from_arrow(t), "phash").to_pandas()
        assert sorted(vio["row_ref"]) == ["i0", "i1", "i2", "i4"], limit
        assert set(vio["code"]) == {"invalid"} and set(vio["path"]) == {"phash"}

        ids = rd.from_arrow(t.select(["image_id"]))
        orphans = referential_violations(ids, "image_id", ref).to_pandas()
        assert sorted(orphans["row_ref"]) == ["i4", "i5"], limit
        assert set(orphans["code"]) == {"invalid"}


def test_stats_and_drift(ray_session):
    import ray.data as rd

    from schisma_ray.stages.stats import (
        HLL,
        ValueCounts,
        categorical_drift,
        ks_drift,
        numeric_stats,
    )

    n = 20_000
    ds = rd.range(n).map_batches(
        lambda b: {
            "x": b["id"].astype("float64"),
            "k": np.mod(b["id"], 1000),
            "c": np.where(np.mod(b["id"], 10) < 7, "a", "b"),
        },
        batch_format="numpy",
    )
    stats = numeric_stats(ds, ["x"], distinct=True)["x"]
    assert stats["count"] == n and stats["nulls"] == 0
    assert stats["min"] == 0.0 and stats["max"] == float(n - 1)
    assert abs(stats["mean"] - (n - 1) / 2) < 1e-6
    assert abs(stats["distinct_hll"] - n) / n < 0.05  # HLL ~1.6% error

    hll_k = ds.aggregate(HLL("k", alias_name="d"))["d"]
    assert abs(hll_k - 1000) / 1000 < 0.05

    counts = ds.aggregate(ValueCounts("c", alias_name="vc"))["vc"]
    assert counts == {"a": 14000, "b": 6000}
    ok = categorical_drift(counts, {"a": 0.7, "b": 0.3})
    assert ok["p_value"] > 0.9  # exact match -> no drift
    bad = categorical_drift(counts, {"a": 0.5, "b": 0.5})
    assert bad["p_value"] < 1e-6  # strong drift detected

    flat = ks_drift([100, 100, 100, 100], [0.25, 0.25, 0.25, 0.25])
    assert flat["p_value"] > 0.9
    skewed = ks_drift([400, 0, 0, 0], [0.25, 0.25, 0.25, 0.25])
    assert skewed["p_value"] < 1e-6


def test_codec_malformed_payloads():
    from schisma_ray.sources import codec

    px = np.zeros((9, 9, 3), dtype=np.uint8)
    good = codec.encode(px, "jpeg")
    for bad in (
        None,
        b"",
        b"\x00" * 3,
        b"XXXX" + good[4:],          # wrong magic
        good[:12],                    # truncated payload
        good[:-5],                    # corrupt tail
    ):
        with pytest.raises(codec.CodecError):
            codec.decode(bad)
    # trailing garbage after a complete stream is tolerated, like real
    # codecs ignoring bytes after the end-of-image marker
    out, _ = codec.decode(good + b"extra")
    assert out.shape == (9, 9, 3)
    out, fmt = codec.decode(good)
    assert fmt == "jpeg" and out.shape == (9, 9, 3)  # non-multiple-of-8 dims


def test_curate_images_composite(ray_session):
    """validate -> quarantine -> byte dedup -> phash survivors on a
    small generated table: survivors are clean, byte-dup twins drop."""
    from schisma_ray.pipelines.curation import curate_images
    from schisma_ray.sources import image_table

    d = image_table.generate(600)
    out = curate_images(d, inject_dup_every=50).to_pandas()
    ids = set(out["image_id"])
    assert len(ids) == len(out)                  # no dup survivors
    assert not any(i.endswith("-d") for i in ids)  # twins lost to keep-first
    # every survivor is a clean id (no violations) — spot-check shape
    assert all(i.startswith("img-") for i in ids)
    assert 0 < len(ids) < 600
