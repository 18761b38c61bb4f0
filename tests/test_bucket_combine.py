"""bucket_combine: keyed aggregation as an Arrow combine over the bucket exchange.

Properties checked here, on small inputs:

* re-blocking invariance against one Arrow ``group_by`` over all rows —
  int, string and composite keys, with an empty block and a block whose
  key is all null among the blocks, for every op (string ``min``/``max``
  too, and ``count`` against ``count_all`` on null values) — for
  ``bucket_combine`` and for the eager ``fold_combine`` on both sides
  of its size switch (driver fold, and the exchange with
  ``_DRIVER_FOLD_ROWS`` patched to 0);
* keys keep their input types, aggregates carry their partial types,
  also when ``fold_combine``'s ``where`` keeps no row; an input of no
  rows gives ``[*keys, *aggs]`` without a second run of its plan;
* ``tumbling_window_agg``'s plan holds no Ray ``Aggregate`` operator and
  building it executes nothing;
* a nullable string key split over several blocks aggregates (Ray's
  sort aggregate raised ``TypeError`` comparing None with str there).
"""

from unittest import mock

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from schisma_ray.stages import _bucket
from schisma_ray.stages._bucket import bucket_combine, fold_combine

#: output column -> (input column, op); pyarrow's own name for each
AGGS = {
    "v_sum": ("v", "sum"), "v_min": ("v", "min"), "v_max": ("v", "max"),
    "v_count": ("v", "count"), "rows": ("v", "count_all"),
    "s_min": ("s", "min"), "s_max": ("s", "max"), "s_count": ("s", "count"),
}
ARROW_NAMES = ["v_sum", "v_min", "v_max", "v_count", "count_all",
               "s_min", "s_max", "s_count"]


def _rows(t: pa.Table) -> list:
    return sorted(map(repr, zip(*(c.to_pylist() for c in t.columns))))


def _expected(blocks, keys) -> pa.Table:
    whole = pa.concat_tables(blocks)
    out = whole.group_by(keys).aggregate(
        [([], "count_all") if op == "count_all" else (col, op)
         for col, op in AGGS.values()])
    return out.select(keys + ARROW_NAMES).rename_columns(keys + list(AGGS))


def _check(key_cols: dict, values, strings, cuts, n_null):
    """``key_cols`` maps each key column to (values, type)."""
    t = pa.table({**{k: pa.array(v, typ) for k, (v, typ) in key_cols.items()},
                  "v": pa.array(values, pa.int64()),
                  "s": pa.array(strings, pa.string())})
    n = t.num_rows
    bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
    blocks = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    blocks.insert(len(blocks) // 2, t.slice(0, 0))
    blocks.append(pa.table({
        **{k: pa.nulls(n_null, typ) for k, (_, typ) in key_cols.items()},
        "v": pa.array([None, *range(n_null - 1)], pa.int64()),
        "s": pa.array(["q", *[None] * (n_null - 1)], pa.string()),
    }))
    keys = list(key_cols)
    want = _rows(_expected(blocks, keys))
    got = pa.concat_tables([
        b for b in bucket_combine(rd.from_arrow(blocks), keys, AGGS)
        .iter_batches(batch_format="pyarrow", batch_size=None) if b.num_rows])
    assert _rows(got) == want
    assert _rows(fold_combine(rd.from_arrow(blocks), keys, AGGS)) == want
    with mock.patch.object(_bucket, "_DRIVER_FOLD_ROWS", 0):
        assert _rows(fold_combine(rd.from_arrow(blocks), keys, AGGS)) == want


def _paired(keys):
    n = len(keys)
    return st.tuples(st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                              min_size=n, max_size=n),
                     st.lists(st.one_of(st.none(), st.text("xyzé", max_size=2)),
                              min_size=n, max_size=n))


def test_reblocking_matches_one_group_by_int_key(ray_session):
    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(-4, 12)), min_size=1,
                    max_size=30).flatmap(lambda k: st.tuples(st.just(k),
                                                             _paired(k))),
           st.lists(st.integers(0, 40), max_size=3), st.integers(1, 3))
    def check(kv, cuts, n_null):
        keys, (values, strings) = kv
        _check({"k": (keys, pa.int64())}, values, strings, cuts, n_null)

    check()


def test_reblocking_matches_one_group_by_string_key(ray_session):
    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.text("ab", max_size=2)),
                    min_size=1, max_size=30).flatmap(
               lambda k: st.tuples(st.just(k), _paired(k))),
           st.lists(st.integers(0, 40), max_size=3), st.integers(1, 3))
    def check(kv, cuts, n_null):
        keys, (values, strings) = kv
        _check({"k": (keys, pa.string())}, values, strings, cuts, n_null)

    check()


def test_reblocking_matches_one_group_by_composite_key(ray_session):
    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                              st.one_of(st.none(), st.sampled_from("ab"))),
                    min_size=1, max_size=30).flatmap(
               lambda k: st.tuples(st.just(k), _paired(k))),
           st.lists(st.integers(0, 40), max_size=3), st.integers(1, 3))
    def check(kv, cuts, n_null):
        pairs, (values, strings) = kv
        _check({"k": ([a for a, _ in pairs], pa.int64()),
                "k2": ([b for _, b in pairs], pa.string())},
               values, strings, cuts, n_null)

    check()


def test_count_skips_nulls_count_all_does_not(ray_session):
    t = pa.table({"k": ["a", "a", "a", "b"],
                  "v": pa.array([1, None, None, None], pa.int64())})
    got = bucket_combine(rd.from_arrow([t.slice(0, 2), t.slice(2)]), "k",
                         {"n": ("v", "count"), "rows": ("v", "count_all"),
                          "total": ("v", "sum")}).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    assert got["n"].tolist() == [1, 0]
    assert got["rows"].tolist() == [3, 1]
    assert got["total"].iloc[0] == 1 and pd.isna(got["total"].iloc[1])


def test_output_columns_and_types(ray_session):
    t = pa.table({"k": pa.array([3, 3, 9], pa.int32()),
                  "v": pa.array([1, 2, 3], pa.int32()),
                  "s": ["x", "y", "z"]})
    out = bucket_combine(rd.from_arrow(t), "k",
                         {"total": ("v", "sum"), "hi": ("s", "max"),
                          "n": ("s", "count")})
    blocks = [b for b in out.iter_batches(batch_format="pyarrow",
                                          batch_size=None) if b.num_columns]
    assert blocks
    want = pa.schema([("k", pa.int32()), ("total", pa.int64()),
                      ("hi", pa.string()), ("n", pa.int64())])
    assert all(b.schema.equals(want) for b in blocks)


@pytest.mark.parametrize("side", ["driver", "exchange"])
def test_fold_combine_where_keeps_types_without_rows(ray_session, side):
    """A ``where`` that drops every combined row leaves the columns and
    types of the partials, on both sides of the switch."""
    t = pa.table({"k": pa.array([3, 3, 9], pa.int32()),
                  "k2": pa.array(["a", "a", None], pa.string()),
                  "v": pa.array([1, 2, 3], pa.int32()),
                  "s": ["x", "y", "z"]})
    aggs = {"total": ("v", "sum"), "hi": ("s", "max"),
            "n": ("s", "count"), "rows": ("v", "count_all")}
    limit = 0 if side == "exchange" else _bucket._DRIVER_FOLD_ROWS
    with mock.patch.object(_bucket, "_DRIVER_FOLD_ROWS", limit):
        kept = fold_combine(rd.from_arrow(t).repartition(2), ["k", "k2"], aggs,
                            where=pc.field("rows") > 1)
        out = fold_combine(rd.from_arrow(t), ["k", "k2"], aggs,
                           where=pc.field("rows") > 3)
    assert kept.to_pylist() == [{"k": 3, "k2": "a", "total": 3, "hi": "y",
                                 "n": 2, "rows": 2}]
    assert out.num_rows == 0
    assert out.schema.equals(pa.schema([
        ("k", pa.int32()), ("k2", pa.string()), ("total", pa.int64()),
        ("hi", pa.string()), ("n", pa.int64()), ("rows", pa.int64())]))


def test_fold_combine_of_no_rows_has_its_columns(ray_session):
    """An input without rows leaves no partial block with columns (Ray
    runs no map over an empty block): the result has ``[*keys, *aggs]``,
    keys null-typed and aggregates int64, and ``ds`` is not run again."""
    empty = pa.table({"k": pa.array([], pa.int32()), "v": pa.array([], pa.int32())})
    out = fold_combine(rd.from_arrow(empty), "k", {"total": ("v", "sum")})
    assert out.num_rows == 0
    assert out.schema.equals(pa.schema([("k", pa.null()), ("total", pa.int64())]))


def test_unknown_op_is_rejected():
    with pytest.raises(ValueError, match="mean"):
        bucket_combine(None, "k", {"m": ("v", "mean")})


def _operators(op):
    yield op
    for dep in op.input_dependencies:
        yield from _operators(dep)


def test_tumbling_plan_has_no_aggregate_and_builds_lazily(ray_session):
    from schisma_ray.stages.window import tumbling_window_agg

    def boom(t):
        raise AssertionError("executed while building the plan")

    ds = rd.from_items([{"ts": 1, "user_id": 1}]).map_batches(boom)
    out = tumbling_window_agg(ds, key_col="user_id")
    names = [op.name for op in _operators(out._logical_plan.dag)]
    assert not any("Aggregate" in n for n in names), names
    assert "MapBatches(combine)" in names
    with pytest.raises(Exception, match="executed while building"):
        out.take_all()


def test_token_count_by_lang_with_null_lang_over_blocks(ray_session):
    from schisma_ray.stages.text import token_count_by_lang

    langs = ["en", None, "fr", "en", None, "de", "fr", None, "en"]
    t = pa.table({"text": [f"w{i} " * (i + 1) for i in range(len(langs))],
                  "lang": pa.array(langs, pa.string())})
    ds = rd.from_arrow(t).repartition(3)
    got = token_count_by_lang(ds).to_pandas()
    df = t.to_pandas()
    df["tokens"] = df["text"].str.split(" ").str.len()
    want = df.groupby("lang", dropna=False)["tokens"].sum()
    assert sorted(zip(got["lang"].where(got["lang"].notna(), None),
                      got["tokens"]), key=repr) == sorted(
        ((None if pd.isna(k) else k, v) for k, v in want.items()), key=repr)
