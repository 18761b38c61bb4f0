"""Scale-path fallbacks and edge-case robustness."""

import pyarrow as pa
import pytest


def _sorted(pairs) -> pa.Table:
    """A pair Dataset's rows as one table in (a, b) order."""
    import ray

    # materialized first: ``to_arrow_refs`` of a lazy Dataset runs its plan twice
    blocks = [t for t in ray.get(pairs.materialize().to_arrow_refs())
              if t.num_columns]
    return pa.concat_tables(blocks).sort_by([("a", "ascending"),
                                             ("b", "ascending")])


def test_duplicate_keys_groupby_fallback(ray_session, monkeypatch):
    """Past the fold limit the per-batch partials are summed on the keyed
    exchange; results must match the driver fold exactly."""
    import ray.data as rd

    from schisma_ray.stages import _bucket
    from schisma_ray.stages.uniqueness import duplicate_keys

    t = pa.table(
        {
            "image_id": pa.array([f"i{k}" for k in range(2000)]),
            "phash": pa.array([k % 500 for k in range(2000)], pa.int64()),
        }
    )
    ds = rd.from_arrow(t).repartition(8)
    big = duplicate_keys(ds, "phash")
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 10)  # overflow
    small = duplicate_keys(ds, "phash")
    as_set = lambda tbl: {
        (k, n) for k, n in zip(tbl["phash"].to_pylist(), tbl["partial"].to_pylist())
    }
    assert as_set(small) == as_set(big)
    assert len(as_set(big)) == 500  # every key appears 4x -> all duplicated


def test_bucket_pairs_groupby_fallback(ray_session, monkeypatch):
    import ray.data as rd

    from schisma_ray.stages import _bucket, dedup

    t = pa.table(
        {
            "doc_id": pa.array(list(range(20)), pa.int64()),
            "band": pa.array([0] * 20, pa.int32()),
            "band_hash": pa.array([k % 5 for k in range(20)], pa.int64()),
        }
    )
    ds = rd.from_arrow(t)
    driver = _sorted(dedup._bucket_pairs(ds, ["band", "band_hash"], "doc_id",
                                         max_bucket=100))
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)  # overflow
    fallback = _sorted(dedup._bucket_pairs(ds, ["band", "band_hash"], "doc_id",
                                           max_bucket=100))
    key = lambda tbl: {(a, b) for a, b in zip(tbl["a"].to_pylist(), tbl["b"].to_pylist())}
    assert key(driver) == key(fallback)
    assert len(key(driver)) == 5 * 6  # 5 buckets x C(4,2)=6 pairs


def test_hamming_pairs_overflow_matches_driver(ray_session, monkeypatch):
    """The per-bucket path that runs past the driver-fold limit gives the
    driver fold's pairs, distances and types."""
    import numpy as np
    import ray.data as rd

    from schisma_ray.stages import _bucket, dedup

    rng = np.random.default_rng(11)
    base = rng.integers(0, 2**64 - 1, 12, dtype=np.uint64)
    flips = np.zeros(120, np.uint64)
    for i in range(120):  # 12 families of 10 signatures 0-4 bits apart
        for bit in rng.choice(64, size=i % 5, replace=False):
            flips[i] |= np.uint64(1) << np.uint64(bit)
    sigs = (base[np.arange(120) % 12] ^ flips).view(np.int64).tolist()
    ds = rd.from_arrow(pa.table({
        "id": pa.array(range(len(sigs)), pa.int64()),
        "sig": pa.array(sigs, pa.int64()),
    })).repartition(4)
    driver = _sorted(dedup.hamming_near_dup_pairs(ds, sig_col="sig", id_col="id"))
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)  # overflow
    overflow = _sorted(dedup.hamming_near_dup_pairs(ds, sig_col="sig",
                                                    id_col="id"))
    assert driver.num_rows > 0
    assert overflow.equals(driver)
    for a, b, d in zip(*(driver[c].to_pylist() for c in ("a", "b", "hamming"))):
        assert a < b and d == dedup._hamming64(sigs[a], sigs[b]) <= 3


def test_validator_and_conformer_on_empty_batch(ray_session):
    from schisma_ray.pipelines.validate_pipeline import image_table_schema
    from schisma_ray.sources.image_table import IMAGE_SCHEMA
    from schisma_ray.stages.conform import TableConformer
    from schisma_ray.stages.validate import TableValidator

    empty = IMAGE_SCHEMA.empty_table()
    ts = image_table_schema()
    vio = TableValidator(ts)(empty)
    assert vio.num_rows == 0
    out = TableConformer(ts)(empty)
    assert out.num_rows == 0
    assert out.schema.names == list(ts.plans)


def test_decoder_on_empty_batch(ray_session):
    from schisma_ray.sources.image_table import IMAGE_SCHEMA
    from schisma_ray.stages.decoder import DecodeConformer, DecodeValidator

    empty = IMAGE_SCHEMA.empty_table()
    assert DecodeValidator()(empty).num_rows == 0
    assert DecodeConformer()(empty).num_rows == 0


def test_referential_shuffle_matches_broadcast_midsize(ray_session, monkeypatch):
    import ray.data as rd

    from schisma_ray.stages import _bucket
    from schisma_ray.stages.referential import referential_violations

    ids = pa.table({"image_id": pa.array([f"k{i}" for i in range(5000)])})
    ref = pa.table({"image_id": pa.array([f"k{i}" for i in range(0, 5000, 2)])})
    ds = rd.from_arrow(ids).repartition(4)
    b = referential_violations(ds, "image_id", ref).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    s = referential_violations(
        rd.from_arrow(ids).repartition(4), "image_id", ref
    ).to_pandas()
    assert set(b["row_ref"]) == set(s["row_ref"])
    assert len(set(b["row_ref"])) == 2500
