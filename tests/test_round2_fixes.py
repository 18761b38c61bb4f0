"""Round-2 regression tests: ADVICE.md fixes.

* ECMAScript Number::toString formatting (jstypes.format_number)
* JS binary/octal numeric-string coercion (js_number / js_bigint)
* tumbling/hopping window floor-division agreement on negative ts
* checkpoint crash hygiene (stale partial output) + content-addressed
  partition identity (changed assignment refuses to resume)
"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from schisma_ray.schema.jstypes import JSError, format_number, js_bigint, js_number


# Expected strings produced by `node -e "String(v)"` for each value.
JS_STRING_CASES = [
    (0.00005, "0.00005"),
    (1e-7, "1e-7"),
    (1.5e-7, "1.5e-7"),
    (1e-6, "0.000001"),
    (0.000001234, "0.000001234"),
    (1e21, "1e+21"),
    (1.5e21, "1.5e+21"),
    (9.999e20, "999900000000000000000"),
    (1.2345678901234568e21, "1.2345678901234568e+21"),
    (1e16, "10000000000000000"),
    (123.456, "123.456"),
    (100.0, "100"),
    (5.0, "5"),
    (-0.0, "0"),
    (0.1, "0.1"),
    (1e-21, "1e-21"),
    (2.5e-8, "2.5e-8"),
    (-0.00005, "-0.00005"),
    (-1e-7, "-1e-7"),
    (3.141592653589793, "3.141592653589793"),
    (float("nan"), "NaN"),
    (float("inf"), "Infinity"),
    (float("-inf"), "-Infinity"),
]


def test_format_number_matches_js():
    for v, expected in JS_STRING_CASES:
        assert format_number(v) == expected, v


def test_js_number_binary_octal_literals():
    assert js_number("0b101") == 5.0
    assert js_number("0B11") == 3.0
    assert js_number("0o17") == 15.0
    assert js_number("0O7") == 7.0
    assert js_number("0x1f") == 31.0
    # malformed digit-set stays NaN
    import math

    assert math.isnan(js_number("0b102"))
    assert math.isnan(js_number("0o19"))


def test_js_bigint_binary_octal_literals():
    assert js_bigint("0b101") == 5
    assert js_bigint("0o17") == 15
    assert js_bigint("0x10") == 16
    with pytest.raises(JSError):
        js_bigint("0b102")


def test_conform_string_small_magnitude(ray_session):
    """End-to-end: conform({'s': 0.00005}) stringifies like the reference."""
    from schisma_ray.schema import SchemaNode, String

    sch = SchemaNode({"s": String})
    assert sch.conform({"s": 0.00005}) == {"s": "0.00005"}
    assert sch.conform({"s": 1e-7}) == {"s": "1e-7"}
    assert sch.conform({"s": 1e21}) == {"s": "1e+21"}


def test_tumbling_hopping_agree_on_negative_ts(ray_session):
    import ray.data as rd

    from schisma_ray.stages.window import hopping_window_agg, tumbling_window_agg

    # events 1us before and after the epoch, plus deep negative
    ts_us = [-1, 0, 1, -3_600_000_000, -3_600_000_001]
    ds = rd.from_arrow(pa.table({"ts": pa.array(ts_us, pa.int64())}))
    tumble = tumbling_window_agg(ds, width_s=3600).to_pandas()
    got = dict(zip(tumble["window_start"], tumble["n"]))
    # floor semantics: -1us is in [-3600, 0), -3600s exactly starts its
    # own window, -3600s-1us falls one window earlier
    assert got == {-3600: 2, 0: 2, -7200: 1}
    # hopping with width == slide degenerates to tumbling — must agree
    hop = hopping_window_agg(ds, width_s=3600, slide_s=3600).to_pandas()
    hop_got = dict(zip(hop["window_start"], hop["n"]))
    assert hop_got == got


def test_checkpoint_crash_hygiene_and_identity(ray_session, tmp_path):
    from schisma_ray.state import checkpoint

    tdir = tmp_path / "tbl"
    (tdir / "images").mkdir(parents=True)
    for i in range(3):
        pq.write_table(
            pa.table({"code": [f"c{i}"] * 5}),
            tdir / "images" / f"part-{i:05d}.parquet",
        )

    def pipe(ds):
        return ds

    out = tmp_path / "out"
    first = checkpoint.run_resumable(
        tdir, out, pipe, files_per_partition=1, max_partitions=1
    )
    assert len(first) == 1

    # simulate a crash after write_parquet but before commit on partition
    # 1: stale output dir + stale .inprogress dir, both with junk rows
    parts = checkpoint.partition_inputs(tdir, 1)
    pid1 = checkpoint.partition_id(1, parts[1])
    junk = pa.table({"code": ["junk"] * 50})
    (out / pid1).mkdir()
    pq.write_table(junk, out / pid1 / "stale.parquet")
    (out / f"{pid1}.inprogress").mkdir()
    pq.write_table(junk, out / f"{pid1}.inprogress" / "stale.parquet")

    recs = checkpoint.run_resumable(tdir, out, pipe, files_per_partition=1)
    by_pid = {r["partition_id"]: r for r in recs}
    # stale files must NOT be double-counted in the committed metrics
    assert by_pid[pid1]["row_count"] == 5
    assert by_pid[pid1]["violation_counts"] == {"c1": 5}
    written = pq.read_table(out / pid1)
    assert written.num_rows == 5 and "junk" not in written["code"].to_pylist()

    # a different files-per-partition assignment maps committed ids onto
    # different input groups — must refuse, not silently skip/rerun
    with pytest.raises(RuntimeError, match="checkpoint mismatch"):
        checkpoint.run_resumable(tdir, out, pipe, files_per_partition=2)


def test_components_distributed_pointer_doubling(ray_session):
    """A path graph (worst-case diameter) must converge in O(log V)
    rounds via the pointer-doubling edges, matching union-find."""
    from schisma_ray.stages._fold import fold_table
    from schisma_ray.stages.components import components_distributed

    chain = pa.table(
        {
            "a": pa.array(list(range(199)), pa.int64()),
            "b": pa.array(list(range(1, 200)), pa.int64()),
        }
    )
    out = fold_table(components_distributed(chain))
    assert out.num_rows == 200
    assert set(out["component"].to_pylist()) == {0}


def test_components_distributed_matches_union_find(ray_session):
    import numpy as np

    from schisma_ray.stages._fold import fold_table
    from schisma_ray.stages.components import (
        components_distributed,
        components_from_pairs,
    )

    rng = np.random.default_rng(11)
    a = rng.integers(0, 500, 400).astype("int64")
    b = rng.integers(0, 500, 400).astype("int64")
    keep = a != b
    pairs = pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})
    truth = components_from_pairs(pairs)
    dist = fold_table(components_distributed(pairs))
    assert truth.sort_by("node").equals(dist.sort_by("node"))


def test_minhash_verify_bucketed_matches_driver(ray_session, monkeypatch):
    """Forcing the bucketed-join verification (a verify limit of 0
    candidates) must yield exactly the driver-path pair set."""
    import ray.data as rd

    from schisma_ray.stages import _bucket, dedup
    from schisma_ray.stages.dedup import minhash_dedup_pairs, simhash_dup_pairs

    texts = [f"the quick brown fox jumps over dog number {i} " * 4 for i in range(40)]
    texts += [t + "tail" for t in texts[:8]]  # seeded near-dups
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    drv = minhash_dedup_pairs(ds, "text", "doc_id", threshold=0.5).to_pandas()
    monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    dist = minhash_dedup_pairs(ds, "text", "doc_id", threshold=0.5).to_pandas()
    key = lambda t: sorted(zip(t["a"], t["b"], t["jaccard"]))
    assert len(drv) > 0
    assert key(drv) == key(dist)

    # the simhash pairs verify inside their band buckets: the per-bucket
    # side of the switch must give the driver fold's pair set
    drv_s = simhash_dup_pairs(ds, "text", "doc_id", max_hamming=10).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    dist_s = simhash_dup_pairs(ds, "text", "doc_id", max_hamming=10).to_pandas()
    key_s = lambda t: sorted(zip(t["a"], t["b"], t["hamming"]))
    assert len(drv_s) > 0
    assert key_s(drv_s) == key_s(dist_s)


def test_join_operators(ray_session):
    import ray.data as rd

    from schisma_ray.stages.join import broadcast_hash_join, shuffle_hash_join

    l = rd.from_arrow(pa.table({"k": pa.array([1, 2, 2, 3, 4], pa.int64()),
                                "v": pa.array(list("abcde"))}))
    r = pa.table({"k": pa.array([2, 3, 3, 9], pa.int64()),
                  "w": pa.array([10, 20, 21, 90], pa.int64())})
    # duplicate right keys multiply rows (ANSI semantics)
    inner = broadcast_hash_join(l, r, on="k").to_pandas()
    assert sorted(zip(inner["k"], inner["v"], inner["w"])) == [
        (2, "b", 10), (2, "c", 10), (3, "d", 20), (3, "d", 21)]
    # left outer keeps unmatched fact rows with null payload
    left = broadcast_hash_join(l, r, on="k", how="left outer").to_pandas()
    assert len(left) == 6 and left["w"].isna().sum() == 2
    # native shuffle join agrees with the broadcast result
    sh = shuffle_hash_join(l, rd.from_arrow(r), on="k").to_pandas()
    assert sorted(zip(sh["k"], sh["v"], sh["w"])) == sorted(
        zip(inner["k"], inner["v"], inner["w"]))


def test_grouped_count_topk_ties(ray_session):
    import ray.data as rd

    from schisma_ray.stages.topk import grouped_count_topk

    t = pa.table(
        {
            "g": pa.array(["x"] * 6 + ["y"] * 2),
            "u": pa.array([1, 1, 2, 2, 3, 4, 7, 7], pa.int64()),
        }
    )
    out = grouped_count_topk(rd.from_arrow(t), "g", "u", k=2).to_pandas()
    got = sorted(zip(out["g"], out["u"], out["n"]))
    # tie between u=1 and u=2 (both n=2): item asc breaks it; y has one user
    assert got == [("x", 1, 2), ("x", 2, 2), ("y", 7, 2)]


def test_exact_quantiles(ray_session):
    import numpy as np
    import ray.data as rd

    from schisma_ray.stages.rank import exact_quantiles

    rng = np.random.default_rng(3)
    vals = rng.permutation(np.arange(1001, dtype=np.float64))
    ds = rd.from_arrow(pa.table({"x": pa.array(vals)})).repartition(7)
    out = exact_quantiles(ds, "x", [0.0, 0.5, 0.9, 1.0]).to_pydict()
    assert out["value"] == [0.0, 500.0, 900.0, 1000.0]
    empty = exact_quantiles(
        rd.from_arrow(pa.table({"x": pa.array([], pa.float64())})), "x", [0.5]
    )
    assert empty.num_rows == 0


def test_grouped_distinct_count_nulls(ray_session):
    import ray.data as rd

    from schisma_ray.stages.topk import grouped_distinct_count

    t = pa.table(
        {
            "g": pa.array(["a", "a", "a", "b", None]),
            "i": pa.array([1, 1, None, 2, 3], pa.int64()),
        }
    )
    out = grouped_distinct_count(rd.from_arrow(t), "g", "i").to_pandas()
    got = {row["g"]: row["n_distinct"] for _, row in out.iterrows()}
    # null items excluded (COUNT DISTINCT semantics); null group kept
    assert got == {"a": 1, "b": 1, None: 1}


def test_profile_and_expectations(ray_session):
    import ray.data as rd

    from schisma_ray.stages.profile import expect_null_rates, profile_table

    t = pa.table(
        {
            "a": pa.array([1, None, 3, None], pa.int64()),
            "b": pa.array(["x", "y", "z", "w"]),
        }
    )
    ds = rd.from_arrow(t)
    prof = {r["column"]: r for r in profile_table(ds).to_pandas().to_dict("records")}
    assert prof["a"]["n_nulls"] == 2 and prof["a"]["null_rate"] == 0.5
    assert prof["b"]["n_nulls"] == 0
    vio = expect_null_rates(ds, {"a": 0.25, "b": 0.0}).to_pandas()
    assert list(vio["path"]) == ["a"] and vio["code"].iloc[0] == "invalid"
    assert "0.5 (2/4)" in vio["received"].iloc[0]


def test_partitioned_writer_roundtrip(ray_session, tmp_path):
    import ray.data as rd

    from schisma_ray.sources.writer import read_partitioned, write_partitioned

    t = pa.table(
        {
            "lang": pa.array(["en", "de", "en", "fr"]),
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        }
    )
    out = write_partitioned(rd.from_arrow(t), tmp_path / "out",
                            partition_cols=["lang"])
    # hive layout: one directory per key value + atomic-write manifest
    assert sorted(p.name for p in out.iterdir()) == [
        "_MANIFEST.json", "lang=de", "lang=en", "lang=fr"]
    import json

    manifest = json.loads((out / "_MANIFEST.json").read_text())
    assert sorted(manifest["partitions"]) == ["lang=de", "lang=en", "lang=fr"]
    assert not out.with_name(out.name + ".inprogress").exists()
    back = read_partitioned(out).to_pandas()
    assert sorted(back["doc_id"]) == [1, 2, 3, 4]
    en = read_partitioned(out, partition_filter={"lang": "en"}).to_pandas()
    assert sorted(en["doc_id"]) == [1, 3]


def test_minhash_verify_bucketed_string_ids(ray_session, monkeypatch):
    """The bucketed pair-verify must support string ids (the image_id
    shape), not just int64 doc ids."""
    import ray.data as rd

    from schisma_ray.stages import dedup
    from schisma_ray.stages.dedup import minhash_dedup_pairs

    texts = [f"quick brown fox jumps over lazy dog {i} " * 5 for i in range(20)]
    texts += [t + "x" for t in texts[:4]]
    ids = [f"doc-{i:03d}" for i in range(len(texts))]
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.string()),
                                 "text": pa.array(texts, pa.string())}))
    drv = minhash_dedup_pairs(ds, "text", "doc_id", threshold=0.5).to_pandas()
    monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    dist = minhash_dedup_pairs(ds, "text", "doc_id", threshold=0.5).to_pandas()
    key = lambda t: sorted(zip(t["a"], t["b"], t["jaccard"]))
    assert len(drv) > 0 and key(drv) == key(dist)


def test_table_diff_classification(ray_session):
    import ray.data as rd

    from schisma_ray.stages.diff import table_diff

    old = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                    "v": pa.array(["a", "b", "c", None])})
    new = pa.table({"k": pa.array([2, 3, 5], pa.int64()),
                    "v": pa.array(["b", "CHANGED", "e"])})
    out = table_diff(rd.from_arrow(old), rd.from_arrow(new), "k", ["v"]).to_pandas()
    got = dict(zip(out["k"], out["change"]))
    # 1,4 removed; 5 added; 3 changed; 2 unchanged (absent)
    assert got == {1: "removed", 4: "removed", 5: "added", 3: "changed"}


def test_near_dedup_survivors_join_strategy(ray_session, monkeypatch):
    """The non-keeper ids anti-join the corpus broadcast (default) and on
    the keyed exchange (fold limit 0) alike."""
    import ray.data as rd

    from schisma_ray.stages import _bucket
    from schisma_ray.stages.components import near_dedup_survivors

    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(20), pa.int64())}))
    pairs = rd.from_arrow(pa.table({"a": pa.array([1, 2, 7], pa.int64()),
                                    "b": pa.array([2, 3, 8], pa.int64())}))
    e = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                "b": pa.array([], pa.int64())}))
    # components: {1,2,3} keeper 1; {7,8} keeper 7 -> drop 2,3,8
    bc = sorted(near_dedup_survivors(docs, pairs, "doc_id").to_pandas()["doc_id"])
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    jn = sorted(near_dedup_survivors(docs, pairs, "doc_id").to_pandas()["doc_id"])
    assert bc == jn == [i for i in range(20) if i not in (2, 3, 8)]
    # empty pair set: everything survives
    assert sorted(near_dedup_survivors(docs, e, "doc_id")
                  .to_pandas()["doc_id"]) == list(range(20))


def test_uniqueness_join_strategy_edges(ray_session, monkeypatch):
    """Past the fold limit the rows semi-join the duplicate keys on the
    keyed exchange: no duplicates, and a duplicate-heavy key."""
    import ray.data as rd

    from schisma_ray.stages import _bucket
    from schisma_ray.stages.uniqueness import uniqueness_violations

    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    nodup = pa.table({"image_id": pa.array(["i1", "i2", "i3"]),
                      "phash": pa.array([1, 2, 3], pa.int64())})
    assert uniqueness_violations(rd.from_arrow(nodup), "phash").count() == 0
    heavy = pa.table({"image_id": pa.array(["i1", "i2", "i3", "i4"]),
                      "phash": pa.array([1, 1, 1, 2], pa.int64())})
    out = uniqueness_violations(rd.from_arrow(heavy), "phash").to_pandas()
    assert sorted(out["row_ref"]) == ["i1", "i2", "i3"]


def test_json_column_validator_edges(ray_session):
    import ray.data as rd

    from schisma_ray.schema import Number, String
    from schisma_ray.stages.validate import JsonColumnValidator

    schema = {"k": Number, "tag": {"$type": String, "$required": False}}
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "props": pa.array(
                ['{"k": 5}', "not json", None, '{"k": 5, "extra": 1}', '{}'],
                pa.string(),
            ),
        }
    )
    out = rd.from_arrow(t).map_batches(
        JsonColumnValidator(schema, "props", "event_id"),
        batch_format="pyarrow",
    ).to_pandas()
    got = set(zip(out["row_ref"], out["path"], out["code"]))
    # JS numbers: json 5 -> 5.0 passes Number; unparseable -> invalid;
    # null column -> skipped; unexpected key + missing key via kernel
    assert got == {
        ("2", "props", "invalid"),
        ("4", "props.extra", "unexpected key"),
        ("5", "props.k", "missing key"),
    }


def test_json_column_conformer_repairs(ray_session):
    import ray.data as rd

    from schisma_ray.schema import Number
    from schisma_ray.stages.validate import JsonColumnConformer

    schema = {"k": Number, "m": Number}
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "props": pa.array(
                ['{"k": 7}', '{"k": "32", "junk": true}', "garbage", None, '{}'],
                pa.string(),
            ),
        }
    )
    out = rd.from_arrow(t).map_batches(
        JsonColumnConformer(schema, "props", "event_id"),
        batch_format="pyarrow",
    ).to_pandas()
    got = dict(zip(out["event_id"], out["props"]))
    assert got[1] == '{"k":7,"m":0}'        # insert-missing default
    assert got[2] == '{"k":32,"m":0}'       # '32' coerced, junk dropped
    assert got[3] == '{"k":0,"m":0}'        # unparseable -> default instance
    assert got[4] is None                   # null stays null
    assert got[5] == '{"k":0,"m":0}'        # both defaults inserted
