"""Event-time windowing: tumbling + hopping windows and sessionization.

Ray Data has no event-time windows; a tumbling window IS a grouped
aggregation on ``(key, floor(ts / width))`` (SURVEY.md §2:
streaming-shaped workloads), so the implementation is a per-batch
window projection into ``_bucket.bucket_combine``: an Arrow
``group_by`` per batch, the hash-bucket exchange, an Arrow ``group_by``
per bucket. Hopping windows emit width/slide (key, window) rows per
event before the same combine; sessions and the other per-key scans
(transitions, funnels, gaps, bounces) are segmented numpy scans per
hash bucket in ``bucket_apply``, and their per-bucket counts fold
through ``bucket_combine``. No cross-batch ordering assumption
anywhere: rows may arrive in any order across blocks (late data is
just another row in its window/session group).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ._bucket import NUM_BUCKETS, bucket_apply, bucket_combine


def session_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap_s: int = 1800,
    num_buckets: int = NUM_BUCKETS,
):
    """Sessionization: (key, n_sessions, n_events) with a gap threshold.

    A session breaks when the time since the previous event of the same
    key exceeds ``gap_s``. One shuffle carrying only (key, ts) — keys
    co-locate by HASH BUCKET, and each bucket runs a segmented numpy
    scan (sort by (key, ts), session boundary = key change OR gap)
    over ALL its users at once: one Python call per bucket, not per
    user. The partitioning assumption is per-bucket, not per-user, so
    a single giant user no longer bounds the group task alone.

    ``num_buckets`` is read by no code; it stays only because
    ``perfbench/layers.py:283`` reads its default through ``inspect``.
    """
    import numpy as np
    import pandas as pd

    gap_us = gap_s * 1_000_000

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({key_col: t[key_col],
                         "ts_us": pc.cast(t[ts_col], pa.int64())})

    narrow = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us"])
        k = g[key_col].to_numpy()
        ts = g["ts_us"].to_numpy()
        new_s = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            same_key = k[1:] == k[:-1]
            small_gap = (ts[1:] - ts[:-1]) <= gap_us
            new_s[1:] = ~(same_key & small_gap)
        return (
            pd.DataFrame({key_col: k, "new_s": new_s})
            .groupby(key_col, sort=False)
            .agg(n_sessions=("new_s", "sum"), n_events=("new_s", "size"))
            .reset_index()
        )

    return bucket_apply(narrow, key_col, per_bucket,
                        schema={key_col: key_col, "n_sessions": pa.int64(),
                                "n_events": pa.int64()})


def hopping_window_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str | None = None,
    width_s: int = 3600,
    slide_s: int = 1800,
):
    """Hopping (sliding) windows: each event lands in width/slide
    overlapping windows, counted per (key, window) by ``bucket_combine``
    (same shape as tumbling)."""
    if width_s % slide_s:
        raise ValueError("width must be a multiple of slide")
    k = width_s // slide_s
    slide_us = slide_s * 1_000_000

    def prep(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col].combine_chunks(), pa.int64()).to_numpy()
        base = (ts // slide_us) * slide_s  # seconds
        pieces = []
        for i in range(k):
            cols = {"window_start": pa.array(base - i * slide_s, pa.int64())}
            if key_col:
                cols[key_col] = batch[key_col]
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    return bucket_combine(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ([key_col] if key_col else []) + ["window_start"],
        {"n": ("window_start", "count")})


def tumbling_window_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str | None = None,
    width_s: int = 3600,
    value_col: str | None = None,
):
    """Counts (and optional value sums) per (key, window).

    Output columns: ``[key_col?, window_start (epoch seconds), n,
    value_sum?]`` — names chosen to be SQL-mirrorable.
    """
    width_us = width_s * 1_000_000

    def prep(batch: pa.Table) -> pa.Table:
        # floor division (numpy //), matching the hopping path: negative
        # timestamps land in the window at-or-before them, not after
        ts = pc.cast(batch[ts_col].combine_chunks(), pa.int64()).to_numpy()
        cols = {"window_start": pa.array((ts // width_us) * width_s, pa.int64())}
        if key_col:
            cols[key_col] = batch[key_col]
        if value_col:
            cols[value_col] = batch[value_col]
        return pa.table(cols)

    aggs = {"n": ("window_start", "count")}
    if value_col:
        aggs["value_sum"] = (value_col, "sum")
    return bucket_combine(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ([key_col] if key_col else []) + ["window_start"], aggs)


def windowed_topk(
    ds,
    *,
    ts_col: str = "ts",
    item_col: str = "event_type",
    width_s: int = 3600,
    k: int = 3,
):
    """Top-k items per tumbling window: (window_start, item, n) — the
    streaming-analytics "trending per hour" shape.

    Composition of the engine's existing scale paths: a per-batch
    window-bucket projection (floor division, matching
    ``tumbling_window_agg``) feeding ``grouped_count_topk``'s
    combiner-first count + per-window top-k — the shuffle carries one
    row per (window, item) per batch, never raw events."""
    from .topk import grouped_count_topk

    width_us = width_s * 1_000_000

    def bucket(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col].combine_chunks(), pa.int64()).to_numpy()
        window = (ts // width_us) * width_s
        return pa.table(
            {
                "window_start": pa.array(window, pa.int64()),
                item_col: batch[item_col],
            }
        )

    buckets = ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_count_topk(buckets, "window_start", item_col, k=k)


def session_ids(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    id_col: str = "event_id",
    gap_s: int = 1800,
):
    """Per-EVENT session assignment: (event_id, key, session_id) where
    session_id is the 1-based index of the session within its key (the
    feature-generation variant of ``session_agg`` — every event gets its
    session, instead of per-key aggregates).

    Same scale shape as ``session_agg``: one shuffle carrying
    (event_id, key, ts), hash-bucket groups, and a segmented cumulative
    sum over each bucket's (key, ts)-sorted frame — session boundary =
    key change OR gap > gap_s, session_id = running boundary count
    within the key. Matches SQL
    ``1 + SUM(gap-break) OVER (PARTITION BY key ORDER BY ts, id)``.
    """
    import numpy as np
    import pandas as pd

    gap_us = gap_s * 1_000_000

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t[id_col],
                key_col: t[key_col],
                "ts_us": pc.cast(t[ts_col], pa.int64()),
            }
        )

    narrow = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us", id_col])
        k = g[key_col].to_numpy()
        ts = g["ts_us"].to_numpy()
        new_s = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            same_key = k[1:] == k[:-1]
            small_gap = (ts[1:] - ts[:-1]) <= gap_us
            new_s[1:] = (~(same_key & small_gap)).astype(np.int64)
        # running session index within each key: cumsum of breaks,
        # reset at key change (new_s is 1 at every key start)
        total = np.cumsum(new_s)
        key_start = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            key_start[1:] = k[1:] != k[:-1]
        base = total[key_start]  # cumulative count at each key's first row
        key_idx = np.cumsum(key_start) - 1
        session_id = total - base[key_idx] + 1
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                key_col: k,
                "session_id": session_id,
            }
        )

    return bucket_apply(narrow, key_col, per_bucket,
                        schema={id_col: id_col, key_col: key_col,
                                "session_id": pa.int64()})


def grouped_rolling_mean(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value",
    id_col: str = "event_id",
    window: int = 3,
):
    """Per-key moving average over the last ``window`` events (inclusive,
    ordered by ts then id) — SQL ``AVG(v) OVER (PARTITION BY key ORDER
    BY ts, id ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)``.

    Same scale shape as session_ids: one shuffle carrying
    (id, key, ts, value), hash buckets, and a segmented shifted-add scan
    per bucket — lag-k contributions masked at key boundaries (rows are
    key-contiguous after the in-bucket sort). One Python call per
    bucket, never per key.
    """
    import numpy as np
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t[id_col],
                key_col: t[key_col],
                "ts_us": pc.cast(t[ts_col], pa.int64()),
                value_col: pc.cast(t[value_col], pa.float64()),
            }
        )

    narrow = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us", id_col])
        k = g[key_col].to_numpy()
        v = g[value_col].to_numpy(dtype=np.float64)
        n = len(g)
        # oldest-first accumulation mirrors the SQL frame sum order;
        # null values occupy their frame SLOT but contribute neither to
        # the sum nor the count (SQL AVG null semantics)
        has_v = np.isfinite(v)
        vfill = np.where(has_v, v, 0.0)
        total = np.zeros(n, np.float64)
        cnt = np.zeros(n, np.int64)
        for lag in range(window - 1, -1, -1):
            if lag >= n:
                continue
            valid = np.zeros(n, bool)
            valid[lag:] = k[lag:] == k[: n - lag] if lag else True
            shifted_v = np.concatenate([np.zeros(lag), vfill[: n - lag]])
            shifted_has = np.concatenate([np.zeros(lag, bool), has_v[: n - lag]])
            contrib = valid & shifted_has
            total[contrib] += shifted_v[contrib]
            cnt[contrib] += 1
        with np.errstate(invalid="ignore"):
            mean = np.round(np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan), 6)
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                key_col: k,
                "rolling_mean": mean,
            }
        )

    return bucket_apply(narrow, key_col, per_bucket,
                        schema={id_col: id_col, key_col: key_col,
                                "rolling_mean": pa.float64()})


def event_transitions(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    id_col: str = "event_id",
    type_col: str = "event_type",
):
    """Markov transition counts: for each key's event stream ordered by
    (ts, id), count (previous type -> type) pairs globally — the
    behavioral-sequence / next-event-model feature. Output
    ``(prev_type, type, n)``.

    Per bucket the lag is one shifted compare over the (key, ts, id)
    sort (key boundaries masked), collapsed to an Arrow group_by partial
    before the shuffle — the global groupby carries one row per
    (prev, type) per bucket, never raw events.
    """
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: t[key_col],
                id_col: t[id_col],
                "ts_us": pc.cast(t[ts_col], pa.int64()),
                type_col: t[type_col],
            }
        )

    narrow = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us", id_col])
        k = g[key_col].to_numpy()
        typ = g[type_col].to_numpy()
        same_key = k[1:] == k[:-1]
        return (
            pd.DataFrame({"prev_type": typ[:-1][same_key],
                          type_col: typ[1:][same_key]})
            .groupby(["prev_type", type_col], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    partials = bucket_apply(narrow, key_col, per_bucket,
                            schema={"prev_type": type_col, type_col: type_col,
                                    "n": pa.int64()})
    return bucket_combine(partials, ["prev_type", type_col],
                          {"n": ("n", "sum")})


def funnel_counts(
    ds,
    steps: tuple,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    type_col: str = "event_type",
):
    """Ordered funnel conversion: how many users performed step 1, then
    step 2 strictly after their first step-1 event, then step 3 after
    that, ... (the product-analytics funnel; SQL = a chain of
    min-ts-after-previous-step joins).

    Shape: events filter to funnel types at the read (narrow rows), one
    hash-bucket shuffle co-locating each user's rows, and a per-bucket
    pandas pass whose per-step work is groupby-min + merge (vectorized,
    one Python call per bucket). The per-bucket step counts sum in a
    3-row groupby. Output: (step, step_name, users).
    """
    import numpy as np
    import pandas as pd

    step_set = pa.array(list(steps), pa.string())

    def prep(t: pa.Table) -> pa.Table:
        typ = t[type_col].combine_chunks()
        keep = pc.fill_null(pc.is_in(typ, value_set=step_set), False)
        return pa.table(
            {
                key_col: t[key_col],
                "ts_us": pc.cast(t[ts_col], pa.int64()),
                type_col: typ,
            }
        ).filter(keep)

    narrow = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(rows: pa.Table) -> pd.DataFrame:
        group = rows.to_pandas()
        out_step, out_name, out_users = [], [], []
        prev = None  # DataFrame(key, t_prev)
        for i, s in enumerate(steps):
            sub = group[group[type_col] == s][[key_col, "ts_us"]]
            if i == 0:
                t = sub.groupby(key_col)["ts_us"].min()
            else:
                prev_df = prev.rename("t_prev").reset_index()
                prev_df.columns = [key_col, "t_prev"]
                m = sub.merge(prev_df, on=key_col)
                m = m[m["ts_us"] > m["t_prev"]]
                t = m.groupby(key_col)["ts_us"].min()
            out_step.append(i + 1)
            out_name.append(s)
            out_users.append(len(t))
            prev = t
        return pd.DataFrame(
            {"step": out_step, "step_name": out_name, "users": out_users}
        )

    import ray.data as rd

    schema = {"step": pa.int64(), "step_name": pa.string(), "users": pa.int64()}
    # zero-row baseline keeps the 3-step output shape even when no
    # event matches any funnel type (SQL returns count 0, not no rows)
    zeros = rd.from_arrow(pa.table(
        {
            "step": np.arange(1, len(steps) + 1, dtype=np.int64),
            "step_name": list(steps),
            "users": np.zeros(len(steps), np.int64),
        },
        schema=pa.schema(schema),
    ))
    per = bucket_apply(narrow, key_col, per_bucket, schema=schema)
    return bucket_combine(per.union(zeros), ["step", "step_name"],
                          {"users": ("users", "sum")})


def retention_cohorts(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    period_s: int = 604800,
):
    """Period-over-period retention: for each period (week by default),
    how many distinct users were active, and how many of those were
    also active in the NEXT period — the classic cohort-retention
    curve's first step.

    Shape: per-batch distinct (user, period) partials -> one distinct
    groupby; each (user, period) row then emits itself as "active" and
    its PREDECESSOR period as "retained-next" so the pairing needs only
    a second (user, period) groupby of flag maxima — no self-join, no
    per-user tasks; final per-period counts are a per-batch combiner +
    a tiny groupby.
    """
    import numpy as np

    period_us = period_s * 1_000_000

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t[ts_col].combine_chunks(), pa.int64()).to_numpy()
        week = (ts // period_us) * period_s
        return pa.table({key_col: t[key_col], "week": pa.array(week, pa.int64())})

    distinct = bucket_combine(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        [key_col, "week"], {})

    def emit_flags(t: pa.Table) -> pa.Table:
        user = t[key_col].combine_chunks()
        week = t["week"].combine_chunks().to_numpy(zero_copy_only=False)
        n = len(week)
        return pa.table(
            {
                key_col: pa.concat_arrays([user, user]),
                "week": pa.array(
                    np.concatenate([week, week - period_s]), pa.int64()
                ),
                "is_active": pa.array(
                    np.concatenate([np.ones(n, np.int8), np.zeros(n, np.int8)]),
                    pa.int8(),
                ),
                "is_next": pa.array(
                    np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]),
                    pa.int8(),
                ),
            }
        )

    flags = distinct.map_batches(emit_flags, batch_format="pyarrow",
                                 zero_copy_batch=True)
    merged = bucket_combine(flags, [key_col, "week"],
                            {"is_active": ("is_active", "max"),
                             "is_next": ("is_next", "max")})

    def flag_counts(t: pa.Table) -> pa.Table:
        active = pc.cast(t["is_active"], pa.int64())
        return pa.table({"week": t["week"], "active": active,
                         "retained": pc.multiply(
                             active, pc.cast(t["is_next"], pa.int64()))})

    total = bucket_combine(
        merged.map_batches(flag_counts, batch_format="pyarrow",
                           zero_copy_batch=True),
        "week", {"active_users": ("active", "sum"),
                 "retained_users": ("retained", "sum")})

    def project(t: pa.Table) -> pa.Table:
        # periods that only appeared as someone's "previous week" have
        # zero active users — not real cohorts
        return t.filter(pc.greater(t["active_users"], 0))

    return total.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def event_time_dedup(
    ds,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    key_cols: tuple = ("user_id", "event_type"),
    min_gap_s: int = 600,
):
    """Time-window event dedup: drop an event when ANOTHER event with
    the same key tuple occurred within the previous ``min_gap_s``
    seconds (double-fire / at-least-once-delivery cleanup). Keep rule
    is lag-based — an event survives iff it is the first of its key or
    ``ts - prev_ts > min_gap_s`` with lag order (ts, id) — exactly
    SQL's ``lag(ts) OVER (PARTITION BY keys ORDER BY ts, id)``.

    One shuffle carrying (id, keys, ts): keys co-locate by hash bucket
    (type-agnostic), each bucket runs ONE segmented numpy scan over all
    its keys (sort by (keys, ts, id); keep = key change OR gap
    exceeded) — per-bucket Python, never per-key tasks.
    """
    import numpy as np
    import pandas as pd

    gap_us = min_gap_s * 1_000_000
    keys = list(key_cols)

    def prep(t: pa.Table) -> pa.Table:
        cols = {id_col: t[id_col], "ts_us": pc.cast(t[ts_col], pa.int64())}
        for k in keys:
            cols[k] = t[k]
        return pa.table(cols)

    narrow = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values(keys + ["ts_us", id_col], kind="stable")
        ts = g["ts_us"].to_numpy()
        keep = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            same = np.ones(len(g) - 1, dtype=bool)
            for k in keys:
                col = g[k].to_numpy()
                same &= col[1:] == col[:-1]
            keep[1:] = ~same | ((ts[1:] - ts[:-1]) > gap_us)
        return g.loc[keep, [id_col] + keys + ["ts_us"]]

    deduped = bucket_apply(
        narrow, keys, per_bucket,
        schema={id_col: id_col, **{k: k for k in keys}, "ts_us": pa.int64()})

    def restore_ts(t: pa.Table) -> pa.Table:
        cols = {
            id_col: t[id_col],
            **{k: t[k] for k in keys},
            ts_col: pc.cast(t["ts_us"], pa.timestamp("us")),
        }
        return pa.table(cols)

    return deduped.map_batches(restore_ts, batch_format="pyarrow",
                               zero_copy_batch=True)


def event_gaps(
    ds,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    key_col: str = "user_id",
    min_gap_s: int = 21600,
):
    """Telemetry gap report: per key, every consecutive-event gap longer
    than ``min_gap_s`` as (key, gap_start_ts, gap_us) — the monitoring
    question "which users went silent, when, for how long". Lag order is
    (ts, id); gaps are exact microsecond diffs (== SQL
    ``date_diff('microsecond', ...)``). One narrow shuffle, segmented
    per-bucket scan — never per-key tasks."""
    import pandas as pd

    gap_us = min_gap_s * 1_000_000

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: t[key_col],
                id_col: t[id_col],
                "ts_us": pc.cast(t[ts_col], pa.int64()),
            }
        )

    narrow = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us", id_col], kind="stable")
        k = g[key_col].to_numpy()
        ts = g["ts_us"].to_numpy()
        same = k[1:] == k[:-1]
        diff = ts[1:] - ts[:-1]
        hit = same & (diff > gap_us)
        return pd.DataFrame(
            {
                key_col: k[:-1][hit],
                "start_us": ts[:-1][hit],
                "gap_us": diff[hit],
            }
        )

    gaps = bucket_apply(narrow, key_col, per_bucket,
                        schema={key_col: key_col, "start_us": pa.int64(),
                                "gap_us": pa.int64()})

    def restore(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: t[key_col],
                "gap_start_ts": pc.cast(t["start_us"], pa.timestamp("us")),
                "gap_us": t["gap_us"],
            }
        )

    return gaps.map_batches(restore, batch_format="pyarrow", zero_copy_batch=True)


OVERFLOW_TYPE = "__overflow_keys__"


def event_type_cooccurrence(
    ds,
    *,
    key_col: str = "user_id",
    type_col: str = "event_type",
    max_types_per_key: int | None = 64,
):
    """(type_a, type_b, n_users) for every unordered type pair with
    type_a < type_b: how many keys exhibit both (market-basket
    co-occurrence). Combiner-first: each batch collapses to its
    distinct (key, type) rows; one key-hash-bucket shuffle co-locates a
    key's types; each bucket emits per-key pairs with a vectorized
    merge (sorted keys -> segment offsets -> per-segment triangle),
    and a final tiny groupby folds pair counts. The pair space is
    O(distinct types squared) — type vocabularies are small by nature;
    keys never pair across buckets because a key lives in one bucket.

    ``max_types_per_key`` ENFORCES the small-vocabulary assumption the
    triangle relies on: a key with more distinct types than the cap
    emits no pairs (its triangle would be O(cap^2)-unbounded) and is
    instead counted in one overflow marker row
    (type_a = type_b = OVERFLOW_TYPE, n_users = capped-key count), so
    pointing this at a high-cardinality column degrades loudly instead
    of exploding a bucket task. ``None`` disables the guard."""
    import numpy as np
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({key_col: t[key_col], type_col: t[type_col]})
        return g.group_by([key_col, type_col]).aggregate([])

    pairs_in = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().drop_duplicates([key_col, type_col])
        # sorted keys -> segment offsets -> per-segment upper triangle,
        # fully vectorized: row r pairs with rows r+1..seg_end-1; types
        # are sorted within a segment so type_a < type_b by construction
        # (materializes exactly the k*(k-1)/2 pairs, not a full k^2
        # self-merge)
        g = g.sort_values([key_col, type_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        types = g[type_col].to_numpy()

        def segments(ks):
            m = len(ks)
            start = np.flatnonzero(
                np.concatenate(([True], ks[1:] != ks[:-1]))
            )
            end = np.concatenate((start[1:], [m]))
            return start, end, end - start

        seg_start, seg_end, seg_len = segments(keys)
        n_over = 0
        if max_types_per_key is not None:
            over = seg_len > max_types_per_key
            n_over = int(over.sum())
            if n_over:
                keep = ~np.repeat(over, seg_len)
                keys = keys[keep]
                types = types[keep]
                seg_start, seg_end, seg_len = segments(keys)
        n = len(keys)

        def with_overflow(df):
            if n_over:
                marker = pd.DataFrame({
                    "type_a": [OVERFLOW_TYPE], "type_b": [OVERFLOW_TYPE],
                    "n": [n_over],
                })
                return pd.concat([df, marker], ignore_index=True)
            return df
        # per-row count of partners to its right within the segment
        reps = np.repeat(seg_end, seg_len) - np.arange(n) - 1
        total = int(reps.sum())
        a_idx = np.repeat(np.arange(n), reps)
        cum = np.concatenate(([0], np.cumsum(reps)))
        b_idx = (np.arange(total) - np.repeat(cum[:-1], reps)
                 + a_idx + 1)
        out = (
            pd.DataFrame({"type_a": types[a_idx], "type_b": types[b_idx]})
            .groupby(["type_a", "type_b"], sort=True)
            .size().rename("n").reset_index()
        )
        return with_overflow(out)

    per = bucket_apply(pairs_in, key_col, per_bucket,
                       schema={"type_a": type_col, "type_b": type_col,
                               "n": pa.int64()})
    return bucket_combine(per, ["type_a", "type_b"], {"n_users": ("n", "sum")})


def monotonic_violations(
    ds,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value",
    strict: bool = False,
):
    """Monotonicity constraint: per key, every row whose ``value_col``
    DECREASES versus the previous row in (ts, id) order (``strict=True``
    also flags equal values) — the counter/odometer/sequence-number
    invariant a row-local check cannot express. Returns (key, id, value,
    prev_value). Rows with a null key, ts, or value carry no evidence
    and are excluded on both sides.

    Scale shape: narrow projection -> one key-hash bucket shuffle ->
    per-bucket vectorized lexsort + segmented lag compare (the
    ``event_gaps`` shape) — never per-key tasks, no values on the
    driver."""
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[ts_col])),
            pc.is_valid(t[value_col]),
        )
        t = t.filter(mask)
        return pa.table(
            {
                key_col: t[key_col],
                id_col: t[id_col],
                "ts_us": pc.cast(t[ts_col], pa.int64()),
                value_col: t[value_col],
            }
        )

    narrow = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us", id_col], kind="stable")
        k = g[key_col].to_numpy()
        v = g[value_col].to_numpy()
        ids = g[id_col].to_numpy()
        same = k[1:] == k[:-1]
        drop = (v[1:] <= v[:-1]) if strict else (v[1:] < v[:-1])
        hit = same & drop
        return pd.DataFrame(
            {
                key_col: k[1:][hit],
                id_col: ids[1:][hit],
                value_col: v[1:][hit],
                "prev_value": v[:-1][hit],
            }
        )

    return bucket_apply(narrow, key_col, per_bucket,
                        schema={key_col: key_col, id_col: id_col,
                                value_col: value_col, "prev_value": value_col})


def event_transition_counts(
    ds,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    key_col: str = "user_id",
    type_col: str = "event_type",
):
    """Markov transition counts: (prev_type, next_type, n) over every
    key's (ts, id)-ordered consecutive event pair — the behavioral
    sequence profile (what follows what). One narrow key-hash shuffle
    co-locates a key's events; each bucket does a segmented vectorized
    adjacency scan and collapses to per-bucket pair counts; a tiny
    global groupby folds them. Wire cost after the shuffle is
    O(type-vocab^2) per bucket, never per-event."""
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t[key_col],
            id_col: t[id_col],
            "ts_us": pc.cast(t[ts_col], pa.int64()),
            type_col: t[type_col],
        })

    narrow = ds.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us", id_col], kind="stable")
        k = g[key_col].to_numpy()
        ty = g[type_col].to_numpy()
        same = k[1:] == k[:-1]
        return (
            pd.DataFrame({"prev_type": ty[:-1][same],
                          "next_type": ty[1:][same]})
            .groupby(["prev_type", "next_type"], sort=True, dropna=False)
            .size().rename("n").reset_index()
        )

    per = bucket_apply(narrow, key_col, per_bucket,
                       schema={"prev_type": pa.string(),
                               "next_type": pa.string(), "n": pa.int64()})
    return bucket_combine(per, ["prev_type", "next_type"], {"n": ("n", "sum")})


def first_repeat_gap(
    ds,
    *,
    key_col: str = "o_custkey",
    ts_col: str = "o_orderdate",
    id_col: str = "o_orderkey",
):
    """Time-to-repeat (survival-style): for every key with >= 2 rows,
    the whole-day gap between its FIRST and SECOND row in (ts, id)
    order — the repeat-purchase / re-engagement latency metric.
    Output (key, gap_days). One narrow key-hash shuffle; per bucket a
    segmented scan keeps each key's first two rows only."""
    import numpy as np
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t[key_col],
            id_col: t[id_col],
            "ts_us": pc.cast(t[ts_col], pa.int64()),
        })

    narrow = ds.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us", id_col], kind="stable")
        k = g[key_col].to_numpy()
        ts = g["ts_us"].to_numpy()
        starts = np.concatenate(([True], k[1:] != k[:-1]))
        second = np.concatenate(([False], starts[:-1]))  # row after a start
        # rows that are both "second row of a segment" and same key as prev
        hit = second & np.concatenate(([False], k[1:] == k[:-1]))
        gaps = np.zeros(len(g), np.int64)
        gaps[1:] = ts[1:] - ts[:-1]
        return pd.DataFrame({
            key_col: k[hit],
            "gap_days": gaps[hit] // 86_400_000_000,
        })

    return bucket_apply(narrow, key_col, per_bucket,
                        schema={key_col: key_col, "gap_days": pa.int64()})


def session_bounce_by_day(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap_s: int = 1800,
):
    """Bounce-rate audit: per DAY of session start, how many sessions
    began and how many were single-event "bounces", plus the bounce
    share as a half-up e6 integer — the engagement canary (a bounce
    spike on one day means a broken landing flow or a bot wave).

    Session rule is ``session_agg``'s (same-key events closer than
    ``gap_s``); a session belongs to the day of its FIRST event. Ties
    on ts are harmless by construction: a tied pair contributes gap 0,
    so boundaries — and therefore session lengths and start days —
    depend only on the sorted ts multiset, never on tie order (the SQL
    oracle's window functions agree for the same reason).

    Scale shape: one (key, ts) shuffle into hash buckets; each bucket
    runs a single segmented numpy scan over all its users (boundary =
    key change OR gap; session lengths via bincount on the boundary
    prefix-sum) and emits per-day partial counts — |days| rows per
    bucket — folded by a tiny day groupby."""
    import numpy as np
    import pandas as pd

    gap_us = gap_s * 1_000_000
    day_us = 86_400_000_000

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t[key_col],
            "ts_us": pc.cast(t[ts_col], pa.int64()),
        })

    narrow = ds.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([key_col, "ts_us"], kind="mergesort")
        k = g[key_col].to_numpy()
        ts = g["ts_us"].to_numpy()
        n = len(g)
        new_s = np.ones(n, dtype=bool)
        if n > 1:
            new_s[1:] = ~((k[1:] == k[:-1]) & ((ts[1:] - ts[:-1]) <= gap_us))
        sid = np.cumsum(new_s) - 1
        lengths = np.bincount(sid)
        first = np.flatnonzero(new_s)
        day = ts[first] // day_us
        return (
            pd.DataFrame({"day": day, "bounce": (lengths == 1)})
            .groupby("day", sort=False)
            .agg(n_sessions=("bounce", "size"), n_bounce=("bounce", "sum"))
            .reset_index()
        )

    folded = bucket_combine(
        bucket_apply(narrow, key_col, per_bucket,
                     schema={"day": pa.int64(), "n_sessions": pa.int64(),
                             "n_bounce": pa.int64()}),
        "day", {"n_sessions": ("n_sessions", "sum"),
                "n_bounce": ("n_bounce", "sum")})

    def final(t: pa.Table) -> pa.Table:
        import numpy as np

        ns = t["n_sessions"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = t["n_bounce"].to_numpy(zero_copy_only=False).astype(np.int64)
        e6 = (2_000_000 * nb + ns) // (2 * ns)
        return pa.table({
            "day": pc.cast(t["day"], pa.int64()),
            "n_sessions": pa.array(ns, pa.int64()),
            "n_bounce": pa.array(nb, pa.int64()),
            "bounce_e6": pa.array(e6, pa.int64()),
        })

    return folded.map_batches(final, batch_format="pyarrow",
                              zero_copy_batch=True)


def event_type_lift(
    ds,
    *,
    key_col: str = "user_id",
    type_col: str = "event_type",
    max_types_per_key: int | None = 64,
):
    """Association-rule audit over type pairs: for every unordered pair
    (a, b), the co-exhibiting key count ``n_ab``, the per-type marginals
    ``n_a``/``n_b``, both direction confidences and the LIFT — all
    shares as half-up e6 integers computed in Python ints (the lift
    numerator ``n_ab * n_keys`` overflows int64 well below web scale;
    the oracle's HUGEINT equivalent). Lift > 1e6 marks genuinely
    associated behaviors; lift near 0 marks types that split the user
    base — the market-basket read on event streams.

    Scale shape: pair counts reuse ``event_type_cooccurrence`` (bucket
    triangle, capped); marginals and the key universe come from ONE
    extra pass over the same deduped (key, type) buckets — a key lives
    in one bucket, so per-bucket distinct counts sum exactly. Both
    folds are |types|- or |types|^2-bounded by contract."""
    import pandas as pd

    from ._fold import fold_table

    pairs = fold_table(event_type_cooccurrence(
        ds, key_col=key_col, type_col=type_col,
        max_types_per_key=max_types_per_key,
    ))

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({key_col: t[key_col], type_col: t[type_col]})
        return g.group_by([key_col, type_col]).aggregate([])

    deduped = ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().drop_duplicates([key_col, type_col])
        if max_types_per_key is not None:
            # the keys the pair pass caps out leave the marginals and the
            # key universe too, so every share counts one population
            size = g.groupby(key_col, dropna=False)[type_col].transform("size")
            g = g[size <= max_types_per_key]
        m = (g.groupby(type_col, sort=False).size()
             .rename("n").reset_index())
        m[type_col] = m[type_col].astype(str)
        keys = pd.DataFrame({type_col: ["__keys__"],
                             "n": [g[key_col].nunique()]})
        return pd.concat([m, keys], ignore_index=True)

    marg = fold_table(bucket_apply(
        deduped, key_col, per_bucket,
        schema={type_col: pa.string(), "n": pa.int64()}))
    n_of: dict[str, int] = {}
    n_keys = 0
    if marg is not None:
        for ty, n in zip(marg[type_col].to_pylist(),
                         marg["n"].to_pylist()):
            if ty == "__keys__":
                n_keys += int(n)
            else:
                n_of[ty] = n_of.get(ty, 0) + int(n)

    rows = {k: [] for k in ("type_a", "type_b", "n_ab", "n_a", "n_b",
                            "conf_a_to_b_e6", "conf_b_to_a_e6",
                            "lift_e6")}
    if pairs is not None:
        recs = sorted(zip(pairs["type_a"].to_pylist(),
                          pairs["type_b"].to_pylist(),
                          pairs["n_users"].to_pylist()))
        for a, b, n_ab in recs:
            if a == OVERFLOW_TYPE or b == OVERFLOW_TYPE:
                continue
            na, nb = n_of[a], n_of[b]
            n_ab = int(n_ab)
            rows["type_a"].append(a)
            rows["type_b"].append(b)
            rows["n_ab"].append(n_ab)
            rows["n_a"].append(na)
            rows["n_b"].append(nb)
            rows["conf_a_to_b_e6"].append(
                (2_000_000 * n_ab + na) // (2 * na))
            rows["conf_b_to_a_e6"].append(
                (2_000_000 * n_ab + nb) // (2 * nb))
            rows["lift_e6"].append(
                (2_000_000 * n_ab * n_keys + na * nb) // (2 * na * nb))
    return pa.table({
        "type_a": pa.array(rows["type_a"], pa.string()),
        "type_b": pa.array(rows["type_b"], pa.string()),
        "n_ab": pa.array(rows["n_ab"], pa.int64()),
        "n_a": pa.array(rows["n_a"], pa.int64()),
        "n_b": pa.array(rows["n_b"], pa.int64()),
        "conf_a_to_b_e6": pa.array(rows["conf_a_to_b_e6"], pa.int64()),
        "conf_b_to_a_e6": pa.array(rows["conf_b_to_a_e6"], pa.int64()),
        "lift_e6": pa.array(rows["lift_e6"], pa.int64()),
    })


def late_events(ds, *, user_col: str = "user_id",
                order_col: str = "event_id", ts_col: str = "ts"):
    """Watermark/ordering audit: per user, how many events arrive (in
    ``order_col`` order — the ingestion sequence) with a timestamp
    BEHIND the running max of that user's earlier events, plus the
    half-up e6 late share. This is the out-of-orderness a streaming
    pipeline's watermark must absorb — ``monotonic_violations`` flags
    lag-1 value dips row by row; this is the running-MAX summary that
    sizes the watermark.

    Scale shape: narrow projection -> one user-hash bucket shuffle ->
    per-bucket vectorized sort + grouped cummax/shift (pandas C
    kernels) -> per-user count rows emitted directly from the bucket
    (a user is atomic to its bucket, so bucket-local aggregates ARE
    global). Null user/ts rows are excluded on both sides."""
    import numpy as np
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t[user_col]), pc.is_valid(t[ts_col]))
        t = t.filter(mask)
        return pa.table({
            user_col: t[user_col],
            order_col: t[order_col],
            "ts_us": pc.cast(t[ts_col], pa.int64()),
        })

    narrow = ds.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([user_col, order_col], kind="stable")
        grp = g.groupby(user_col, sort=False)
        cm = grp["ts_us"].cummax()
        g = g.assign(__cm=cm)
        prev_cm = g.groupby(user_col, sort=False)["__cm"].shift(1)
        late = (g["ts_us"] < prev_cm).fillna(False)
        agg = pd.DataFrame({
            user_col: g[user_col],
            "late": late.astype(np.int64),
        }).groupby(user_col, sort=False, as_index=False).agg(
            n_events=("late", "size"), n_late=("late", "sum"))
        n = agg["n_events"].to_numpy(np.int64)
        d = agg["n_late"].to_numpy(np.int64)
        agg["late_e6"] = (2_000_000 * d + n) // (2 * n)
        return agg

    return bucket_apply(narrow, user_col, per_bucket,
                        schema={user_col: user_col, "n_events": pa.int64(),
                                "n_late": pa.int64(), "late_e6": pa.int64()})
