"""Shuffle joins: the skew-aware salted join, the full-outer
reconciliation join, and the bucketed shuffle join's edge cases (empty
sides, buckets without right rows, null and duplicate keys)."""

import numpy as np
import pyarrow as pa
import ray.data as rd


def _facts(n=500, hot_frac=0.6, seed=3):
    """Fact table with one HOT key: `hot_frac` of rows share key 7."""
    rng = np.random.default_rng(seed)
    keys = np.where(
        rng.random(n) < hot_frac, 7, rng.integers(0, 40, n)
    ).astype(np.int64)
    return pa.table(
        {
            "fid": pa.array(np.arange(n, dtype=np.int64)),
            "k": pa.array(keys),
            "x": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
        }
    )


def _dim():
    ks = np.arange(0, 40, 2, dtype=np.int64)  # half the keys match
    return pa.table(
        {"dk": pa.array(ks), "label": pa.array([f"L{k}" for k in ks])}
    )


def _sorted_rows(t: pa.Table, cols):
    df = t.select(cols).to_pandas()
    return sorted(map(tuple, df.astype(str).to_numpy().tolist()))


def test_salted_join_matches_unsalted(ray_session):
    from schisma_ray.stages.join import salted_shuffle_join, shuffle_hash_join

    facts, dim = _facts(), _dim()
    ds = rd.from_arrow(facts).repartition(8)
    plain = shuffle_hash_join(
        rd.from_arrow(facts).repartition(8), rd.from_arrow(dim),
        on="k", right_on="dk",
    )
    salted = salted_shuffle_join(
        ds, rd.from_arrow(dim), on="k", right_on="dk",
        salt_on="fid", salt=4,
    )
    cols = ["fid", "k", "x", "label"]
    a = _sorted_rows(pa.Table.from_pandas(plain.to_pandas()), cols)
    b = _sorted_rows(pa.Table.from_pandas(salted.to_pandas()), cols)
    assert a == b
    assert len(a) > 0
    # no salt plumbing may leak into the output schema
    assert set(salted.schema().names) == set(cols)


def test_salted_join_left_outer_keeps_unmatched(ray_session):
    from schisma_ray.stages.join import salted_shuffle_join

    facts, dim = _facts(200), _dim()
    out = salted_shuffle_join(
        rd.from_arrow(facts), rd.from_arrow(dim), on="k", right_on="dk",
        salt_on="fid", salt=3, how="left outer",
    ).to_pandas()
    assert len(out) == 200  # every fact row survives exactly once
    odd = out[out.k % 2 == 1]
    assert len(odd) > 0 and odd.label.isna().all()
    even = out[out.k % 2 == 0]
    assert even.label.notna().all()


def test_salted_join_spreads_hot_key(ray_session):
    """The hot key's fact rows must land in more than one salt bucket —
    the whole point of the operator."""
    from schisma_ray.stages._bucket import key_bucket

    facts = _facts()
    hot = facts.filter(pa.compute.equal(facts["k"], 7))
    salts = key_bucket(hot["fid"].combine_chunks(), 4).to_numpy()
    assert len(np.unique(salts)) > 1


def test_full_outer_join_both_null_sides(ray_session):
    from schisma_ray.stages.join import shuffle_hash_join

    left = pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()),
         "v": pa.array(["a", "b", "c"])}
    )
    right = pa.table(
        {"rk": pa.array([2, 3, 4], pa.int64()),
         "w": pa.array(["x", "y", "z"])}
    )
    out = shuffle_hash_join(
        rd.from_arrow(left), rd.from_arrow(right), on="k", right_on="rk",
        how="full outer",
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert out.k.tolist() == [1, 2, 3, 4]  # right key coalesced into k
    assert out.v.tolist()[:3] == ["a", "b", "c"] and out.v.isna().tolist()[3]
    assert out.w.isna().tolist() == [True, False, False, False]


def test_catalog_queries_smoke(ray_session):
    from schisma_ray.pipelines.catalog import (
        q_events_enriched_salted,
        q_orders_customer_full,
    )

    sf = "/root/testdata/sf0.001"
    salted = q_events_enriched_salted(sf)
    assert salted.num_rows > 0
    full = q_orders_customer_full(sf)
    df = full.to_pandas()
    # the F-status filter makes both null sides live
    assert df.n_orders.isna().any() or df.c_name.isna().any()


def test_winsorize_known_values(ray_session):
    from schisma_ray.stages.rank import winsorize

    vals = list(range(1, 101))  # 1..100
    t = pa.table({"i": pa.array(range(100), pa.int64()),
                  "v": pa.array(vals, pa.float64())})
    # P05 rank = floor(99*0.05)+1 = 5th value = 5; P95 -> 95
    out = (
        winsorize(rd.from_arrow(t).repartition(4), "v",
                  lo_q=0.05, hi_q=0.95)
        .to_pandas().sort_values("i")
    )
    w = out.v_winsorized.tolist()
    assert min(w) == 5.0 and max(w) == 95.0
    assert w[0] == 5.0 and w[-1] == 95.0 and w[49] == 50.0
    # untouched middle stays identical to the input
    assert out.v.tolist()[10:90] == w[10:90]


# --------------------------------------------- shuffle join edge cases
# Each case is checked against the same join in DuckDB, whose null keys
# never match.

_LEFT = pa.table({"k": pa.array([1, 2, 2, 3, None, 5], pa.int64()),
                  "v": pa.array(list("abcdef"))})
_EMPTY = pa.table({"k2": pa.array([], pa.int64()),
                   "w": pa.array([], pa.float64())})


def _duck(sql: str, **tables) -> list:
    import duckdb

    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return sorted(con.execute(sql).fetchall(), key=repr)


def _rows(ds, cols) -> list:
    return sorted((tuple(r[c] for c in cols) for r in ds.take_all()), key=repr)


def _empty_rights():
    return {
        "from_arrow": rd.from_arrow(_EMPTY),
        "filtered": rd.from_arrow(pa.table({"k2": pa.array([1], pa.int64()),
                                            "w": pa.array([1.0])}))
        .filter(lambda row: False),
    }


def test_shuffle_join_empty_right_inner(ray_session):
    from schisma_ray.stages.join import shuffle_hash_join

    want = _duck("SELECT l.k FROM l JOIN r ON l.k = r.k2", l=_LEFT, r=_EMPTY)
    assert want == []
    for name, right in _empty_rights().items():
        out = shuffle_hash_join(rd.from_arrow(_LEFT).repartition(3), right,
                                on="k", right_on="k2")
        assert out.count() == 0, name


def test_shuffle_join_empty_right_left_anti(ray_session):
    from schisma_ray.stages.join import shuffle_hash_join

    want = _duck("SELECT k, v FROM l WHERE NOT EXISTS "
                 "(SELECT 1 FROM r WHERE r.k2 = l.k)", l=_LEFT, r=_EMPTY)
    assert len(want) == _LEFT.num_rows
    for name, right in _empty_rights().items():
        out = shuffle_hash_join(rd.from_arrow(_LEFT).repartition(3), right,
                                on="k", right_on="k2", how="left anti")
        assert _rows(out, ["k", "v"]) == want, name


def test_shuffle_join_empty_right_left_outer(ray_session):
    import pytest

    from schisma_ray.stages.join import shuffle_hash_join

    want = _duck("SELECT l.k, v, w FROM l LEFT JOIN r ON l.k = r.k2",
                 l=_LEFT, r=_EMPTY)
    # an Arrow table carries its schema: the right's columns come back
    # null with their own types
    out = shuffle_hash_join(rd.from_arrow(_LEFT).repartition(3), _EMPTY,
                            on="k", right_on="k2", how="left outer")
    assert _rows(out, ["k", "v", "w"]) == want
    assert out.schema().base_schema.field("w").type == pa.float64()
    # a Dataset whose schema Ray does not know: the columns cannot be
    # typed, which names the empty side instead of hanging or failing
    # inside Arrow
    for name, right in _empty_rights().items():
        out = shuffle_hash_join(rd.from_arrow(_LEFT).repartition(3), right,
                                on="k", right_on="k2", how="left outer")
        with pytest.raises(ValueError, match="right side"):
            out.to_pandas()


def test_shuffle_join_buckets_without_right_rows_keep_types(ray_session):
    """Most buckets get no right row; under left outer their rows still
    carry the right's typed (null) columns."""
    from schisma_ray.stages.join import shuffle_hash_join

    left = pa.table({"k": pa.array(range(200), pa.int64()),
                     "v": pa.array([f"v{i}" for i in range(200)])})
    right = pa.table({"k2": pa.array([7, 7, 150], pa.int64()),
                      "w": pa.array([0.5, 1.5, 2.5]),
                      "tag": pa.array(["x", "y", "z"])})
    out = shuffle_hash_join(
        rd.from_arrow(left).repartition(4),
        rd.from_arrow(right).map_batches(lambda t: t, batch_format="pyarrow"),
        on="k", right_on="k2", how="left outer").materialize()
    want = _duck("SELECT l.k, v, w, tag FROM l LEFT JOIN r ON l.k = r.k2",
                 l=left, r=right)
    assert _rows(out, ["k", "v", "w", "tag"]) == want
    for block in out.iter_batches(batch_format="pyarrow", batch_size=None):
        if block.num_rows:
            assert block.schema.field("w").type == pa.float64()
            assert block.schema.field("tag").type == pa.string()


def test_shuffle_join_null_keys_never_match(ray_session):
    from schisma_ray.stages.join import shuffle_hash_join

    right = pa.table({"k2": pa.array([None, 2, 5, None], pa.int64()),
                      "w": pa.array([1.0, 2.0, 5.0, 9.0])})
    for how, sql in [("inner", "JOIN"), ("left outer", "LEFT JOIN")]:
        out = shuffle_hash_join(rd.from_arrow(_LEFT).repartition(2),
                                rd.from_arrow(right), on="k", right_on="k2",
                                how=how)
        want = _duck(f"SELECT l.k, v, w FROM l {sql} r ON l.k = r.k2",
                     l=_LEFT, r=right)
        assert _rows(out, ["k", "v", "w"]) == want, how
    # the null-key left row comes back unmatched under left outer
    assert (None, "e", None) in want


def test_shuffle_join_duplicate_right_keys_multiply(ray_session):
    from schisma_ray.stages.join import shuffle_hash_join

    right = pa.table({"k2": pa.array([2, 2, 2, 3], pa.int64()),
                      "w": pa.array([1.0, 2.0, 3.0, 4.0])})
    out = shuffle_hash_join(rd.from_arrow(_LEFT).repartition(2),
                            rd.from_arrow(right), on="k", right_on="k2")
    want = _duck("SELECT l.k, v, w FROM l JOIN r ON l.k = r.k2",
                 l=_LEFT, r=right)
    assert len(want) == 7  # two left rows of key 2 times three right rows
    assert _rows(out, ["k", "v", "w"]) == want
