"""Round-5 third-batch property tests: hypothesis brute force +
partition invariance for the fuzzy-matching, selection-quantile and
ordering-audit families."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st


def _table(ds) -> pa.Table:
    """A result Dataset as one table that keeps its columns when empty
    (``to_pandas`` drops the columns of a Dataset without rows)."""
    import ray

    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs())
                             if t.num_columns])


def _brute_lev(a, b):
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]


def test_edit_distance_pairs_property(ray_session):
    from schisma_ray.stages.dedup import edit_distance_pairs

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.text(alphabet="abc", min_size=0, max_size=6),
                    min_size=2, max_size=25),
           st.integers(2, 5))
    def check(names, parts):
        ids = list(range(1, len(names) + 1))
        tbl = pa.table({
            "key": pa.array(ids, pa.int64()),
            "name": pa.array(names, pa.string()),
        })
        t = _table(edit_distance_pairs(
            rd.from_arrow(tbl).repartition(parts), "name", "key",
            max_dist=1))
        got = set(zip(t["a"].to_pylist(), t["b"].to_pylist(),
                      t["dist"].to_pylist()))
        want = {
            (i, j, _brute_lev(a, b))
            for i, a in zip(ids, names)
            for j, b in zip(ids, names)
            if i < j and _brute_lev(a, b) <= 1
        }
        assert got == want

    check()


def test_exact_quantiles_select_property(ray_session):
    from schisma_ray.stages.rank import exact_quantiles_select

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(-2**50, 2**50), min_size=1,
                    max_size=120),
           st.lists(st.integers(0, 1_000_000), min_size=1, max_size=4),
           st.integers(2, 5))
    def check(vals, qs, parts):
        tbl = pa.table({"x": pa.array(vals, pa.int64())})
        t = exact_quantiles_select(
            rd.from_arrow(tbl).repartition(parts), "x", qs)
        s = sorted(vals)
        n = len(s)
        want = [(q, s[(n - 1) * q // 1_000_000]) for q in qs]
        got = list(zip(t["q_e6"].to_pylist(), t["value"].to_pylist()))
        assert got == want

    check()


def test_late_events_property(ray_session):
    from schisma_ray.stages.window import late_events

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 30)),
                    min_size=1, max_size=50),
           st.integers(2, 5))
    def check(rows, parts):
        tbl = pa.table({
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] * 1_000_000 for r in rows],
                           pa.timestamp("us")),
        })
        df = late_events(
            rd.from_arrow(tbl).repartition(parts)).to_pandas()
        got = {int(r.user_id): (int(r.n_events), int(r.n_late))
               for r in df.itertuples()}
        want: dict = {}
        seen: dict = {}
        for eid, (u, ts) in enumerate(rows):
            n, late = want.get(u, (0, 0))
            mx = seen.get(u)
            late += 1 if (mx is not None and ts < mx) else 0
            seen[u] = ts if mx is None else max(mx, ts)
            want[u] = (n + 1, late)
        assert got == want

    check()


def test_edit_distance_pairs_d2_property(ray_session):
    from schisma_ray.stages.dedup import edit_distance_pairs

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.text(alphabet="ab", min_size=0, max_size=5),
                    min_size=2, max_size=18),
           st.integers(2, 4))
    def check(names, parts):
        ids = list(range(1, len(names) + 1))
        tbl = pa.table({
            "key": pa.array(ids, pa.int64()),
            "name": pa.array(names, pa.string()),
        })
        t = _table(edit_distance_pairs(
            rd.from_arrow(tbl).repartition(parts), "name", "key",
            max_dist=2))
        got = set(zip(t["a"].to_pylist(), t["b"].to_pylist(),
                      t["dist"].to_pylist()))
        want = {
            (i, j, _brute_lev(a, b))
            for i, a in zip(ids, names)
            for j, b in zip(ids, names)
            if i < j and _brute_lev(a, b) <= 2
        }
        assert got == want

    check()
