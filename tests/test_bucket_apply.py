"""bucket_apply: the one keyed exchange (hash bucket -> shuffle -> per-bucket fn).

Properties checked here, on small inputs:

* re-blocking invariance — the same rows split into any number of
  blocks, with an empty block and a block whose key is all null among
  them, give the same multiset of output rows (equal keys always meet
  in one call, nulls included);
* every block the per-bucket function produces carries the declared
  schema, also when the function returns nothing;
* rows route exactly as ``key_bucket`` says, for string and int keys;
* building the plan executes nothing.
"""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from schisma_ray.stages._bucket import bucket_apply, key_bucket

NUM_BUCKETS = 8


def _per_key():
    # built inside a function so Ray ships it by value: workers cannot
    # import this test module
    def per_key(t: pa.Table) -> pd.DataFrame:
        """(k, n, s) per key of one call, null keys as one group."""
        return (t.to_pandas().groupby("k", dropna=False, sort=False)
                .agg(n=("v", "size"), s=("v", "sum")).reset_index())

    return per_key


def _rows(df: pd.DataFrame) -> list:
    return sorted((((None if pd.isna(k) else k), int(n), int(s))
                   for k, n, s in df[["k", "n", "s"]].itertuples(index=False)),
                  key=repr)


def _blocks(keys, values, cuts, key_type, n_null):
    t = pa.table({"k": pa.array(keys, key_type),
                  "v": pa.array(values, pa.int64())})
    bounds = [0, *sorted(c % (len(keys) + 1) for c in cuts), len(keys)]
    blocks = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    blocks.insert(len(blocks) // 2, t.slice(0, 0))
    blocks.append(pa.table({"k": pa.nulls(n_null, key_type),
                            "v": pa.array(range(n_null), pa.int64())}))
    return blocks


def _check_reblocking(keys, values, cuts, key_type, n_null):
    blocks = _blocks(keys, values, cuts, key_type, n_null)
    out = bucket_apply(rd.from_arrow(blocks), "k", _per_key(),
                       num_buckets=NUM_BUCKETS,
                       schema={"k": "k", "n": pa.int64(), "s": pa.int64()})
    want = _per_key()(pa.concat_tables(blocks))
    assert _rows(out.to_pandas()) == _rows(want)


def test_reblocking_invariance_int_key(ray_session):
    @settings(max_examples=6, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(-5, 40)), min_size=1,
                    max_size=40),
           st.lists(st.integers(0, 60), max_size=4),
           st.integers(1, 4))
    def check(keys, cuts, n_null):
        _check_reblocking(keys, list(range(len(keys))), cuts, pa.int64(),
                          n_null)

    check()


def test_reblocking_invariance_string_key(ray_session):
    @settings(max_examples=6, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.text("abcé", max_size=3)),
                    min_size=1, max_size=40),
           st.lists(st.integers(0, 60), max_size=4),
           st.integers(1, 4))
    def check(keys, cuts, n_null):
        _check_reblocking(keys, list(range(len(keys))), cuts, pa.string(),
                          n_null)

    check()


def _blocks_of(ds) -> list:
    return [ray.get(ref) for ref in ds.to_arrow_refs()]


def test_every_produced_block_carries_the_declared_schema(ray_session):
    declared = pa.schema([("k", pa.string()), ("n", pa.int64()),
                          ("note", pa.string())])

    def keep_even(t: pa.Table) -> pd.DataFrame:
        # pandas output whose dtypes say nothing of the declared types;
        # most calls return no rows at all
        df = t.to_pandas()
        df = df[df["v"] % 10 == 0]
        return pd.DataFrame({"k": df["k"], "n": df["v"].astype(float),
                             "note": [None] * len(df)})

    t = pa.table({"k": [f"key{i % 7}" for i in range(30)],
                  "v": pa.array(range(30), pa.int64())})
    out = bucket_apply(rd.from_arrow([t.slice(0, 12), t.slice(12)]), "k",
                       keep_even, num_buckets=NUM_BUCKETS, schema=declared)
    blocks = _blocks_of(out)
    produced = [b for b in blocks if b.num_columns]
    assert produced
    assert all(b.schema.equals(declared) for b in produced)
    # Ray's sort gives a partition that receives no rows a zero-column
    # block, and map stages pass empty blocks through without a call
    assert all(b.num_rows == 0 for b in blocks if not b.num_columns)
    assert sorted(pa.concat_tables(produced)["n"].to_pylist()) == [0, 10, 20]

    # a function that never returns a row still yields typed blocks
    nothing = bucket_apply(rd.from_arrow(t), "k", lambda t: t.slice(0, 0),
                           num_buckets=NUM_BUCKETS, schema=None)
    produced = [b for b in _blocks_of(nothing) if b.num_columns]
    assert produced and all(b.schema.equals(t.schema) for b in produced)
    assert nothing.count() == 0


def test_empty_input_yields_no_rows(ray_session):
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "v": pa.array([], pa.int64())}))
    out = bucket_apply(empty, "k", _per_key(), num_buckets=NUM_BUCKETS,
                       schema={"k": "k", "n": pa.int64(), "s": pa.int64()})
    blocks = _blocks_of(out)
    assert sum(b.num_rows for b in blocks) == 0


@pytest.mark.parametrize("key_type, keys", [
    (pa.string(), [f"u{i % 23}" for i in range(200)]),
    (pa.int64(), [i % 31 - 7 for i in range(200)]),
])
def test_rows_route_like_key_bucket(ray_session, key_type, keys):
    t = pa.table({"k": pa.array(keys, key_type),
                  "v": pa.array(range(len(keys)), pa.int64())})

    def calls(group: pa.Table) -> pa.Table:
        ks = pc.unique(group["k"].combine_chunks())
        return pa.table({"k": ks, "call": [uuid.uuid4().hex] * len(ks)})

    out = bucket_apply(rd.from_arrow([t.slice(0, 90), t.slice(90)]), "k",
                       calls, num_buckets=NUM_BUCKETS,
                       schema={"k": "k", "call": pa.string()})
    got = out.to_pandas()
    assert got["k"].is_unique  # a key meets all its rows in one call
    got["bucket"] = key_bucket(pa.array(got["k"].tolist(), key_type),
                               NUM_BUCKETS).to_numpy()
    # one call per bucket value, and one bucket value per call
    assert (got.groupby("call")["bucket"].nunique() == 1).all()
    assert (got.groupby("bucket")["call"].nunique() == 1).all()


def test_null_keys_route_like_nonnull_blocks():
    """An int key hashes the same in a block with nulls as without."""
    with_nulls = pa.array([3, None, 17, 5], pa.int64())
    without = pa.array([3, 17, 5], pa.int64())
    got = key_bucket(with_nulls, 64).to_pylist()
    assert [got[0], got[2], got[3]] == key_bucket(without, 64).to_pylist()
    # composite keys mix column order
    a, b = pa.array([1, 2]), pa.array(["x", "y"])
    assert key_bucket([a, b], 1 << 20) != key_bucket([b, a], 1 << 20)


def test_building_the_plan_executes_nothing(ray_session):
    def boom(t):
        raise AssertionError("executed while building the plan")

    ds = rd.from_items([{"k": 1, "v": 2}]).map_batches(boom)
    out = bucket_apply(ds, "k", _per_key(), num_buckets=NUM_BUCKETS,
                       schema={"k": "k", "n": pa.int64(), "s": pa.int64()})
    assert isinstance(out, rd.Dataset)
    with pytest.raises(Exception, match="executed while building"):
        out.take_all()


def test_composite_key_meets_in_one_call(ray_session):
    t = pa.table({"a": np.arange(60) % 4, "b": [f"s{i % 3}" for i in range(60)],
                  "v": pa.array(range(60), pa.int64())})

    def count(group: pa.Table) -> pa.Table:
        return group.group_by(["a", "b"]).aggregate([("v", "count")])

    out = bucket_apply(rd.from_arrow([t.slice(0, 25), t.slice(25)]), ["a", "b"],
                       count, num_buckets=NUM_BUCKETS,
                       schema={"a": "a", "b": "b", "v_count": pa.int64()})
    got = out.to_pandas()
    assert len(got) == 12 and (got["v_count"] == 5).all()
