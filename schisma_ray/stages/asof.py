"""As-of join: for each left row, the most recent right row at-or-before
its timestamp, per key.

Ray Data has no asof join; the composition (SURVEY.md §2 custom
operators, option a) is: align both sides to a common narrow schema
(key, ts, side, id), union, co-locate keys by HASH BUCKET, and resolve
each bucket with ONE vectorized segmented scan — sort by
(key, ts, side) with right rows ordered before left rows at equal
timestamps, then a segmented ``np.maximum.accumulate`` of last-seen
right-row positions (reset at key boundaries) gives every left row its
at-or-before match. One Python call per bucket, never per key — the
same shape as session_agg (window.py): 10^9 distinct keys cost
``_bucket.NUM_BUCKETS`` group tasks, not 10^9.

The shuffle carries only (key, ts, side, id) — never the wide payloads.
NULL keys follow SQL equi-join semantics: a null never matches anything
(each null row is its own segment in the scan), unlike the pre-round-3
per-key groupby which co-grouped nulls.
Partitioning assumption: one BUCKET (≈ total_rows / ``NUM_BUCKETS``,
both sides, with the exchange's fixed width of 64) fits a group task.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._bucket import bucket_apply


def asof_join_latest(
    left_ds,
    right_ds,
    *,
    key: str,
    right_key: str | None = None,
    left_ts: str = "ts",
    right_ts: str = "ts",
    left_id: str = "event_id",
    tolerance_s: int | None = None,
):
    """(left_id, key, asof_ts) — asof_ts = max right ts <= left ts, or
    null. ``tolerance_s`` bounds staleness (pandas ``merge_asof``
    tolerance semantics): a match older than the tolerance is treated
    as no match."""
    right_key = right_key or key
    tol_us = None if tolerance_s is None else tolerance_s * 1_000_000

    def prep(key_col: str, ts_col: str, id_col: str | None, side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table(
                {
                    "k": pc.cast(t[key_col], pa.int64()),
                    "ts_us": pc.cast(t[ts_col], pa.int64()),
                    "row_id": (
                        pc.cast(t[id_col], pa.int64())
                        if id_col is not None
                        else pa.array([None] * n, pa.int64())
                    ),
                    # right rows sort BEFORE left rows at equal (k, ts):
                    # an at-or-before match includes equal timestamps
                    "side": pa.array(np.full(n, side, np.int8), pa.int8()),
                }
            )

        return fn

    left = left_ds.map_batches(
        prep(key, left_ts, left_id, 1), batch_format="pyarrow", zero_copy_batch=True
    )
    right = right_ds.map_batches(
        prep(right_key, right_ts, None, 0), batch_format="pyarrow", zero_copy_batch=True
    )

    def resolve_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values(["k", "ts_us", "side"], kind="stable")
        k = g["k"].to_numpy()
        ts = g["ts_us"].to_numpy()
        side = g["side"].to_numpy()
        n = len(g)
        pos = np.arange(n, dtype=np.int64)
        key_start = np.ones(n, dtype=bool)
        if n > 1:
            key_start[1:] = k[1:] != k[:-1]
        seg_id = np.cumsum(key_start) - 1
        seg_start = pos[key_start]
        # last right-row position at-or-before each row, reset per key:
        # positions of R rows accumulate via max; a value below the
        # row's own segment start belongs to a previous key -> no match
        last_r = np.maximum.accumulate(np.where(side == 0, pos, -1))
        valid = last_r >= seg_start[seg_id]
        asof = np.where(valid, ts[np.clip(last_r, 0, None)], np.nan).astype(
            np.float64
        )
        if tol_us is not None:
            asof = np.where(ts - asof <= tol_us, asof, np.nan)
        lmask = side == 1
        return pd.DataFrame(
            {
                "row_id": g["row_id"].to_numpy()[lmask],
                "k": k[lmask],
                "asof_ts_us": asof[lmask],
            }
        )

    joined = bucket_apply(left.union(right), "k", resolve_bucket,
                          schema={"row_id": pa.int64(), "k": pa.int64(),
                                  "asof_ts_us": pa.float64()})

    def finalize(t: pa.Table) -> pa.Table:
        # float64 with NaN/null for no-match; trunc-to-int then integer
        # floor-div mirrors python's int(v) // 1_000_000 exactly
        v = t["asof_ts_us"].combine_chunks().to_numpy(zero_copy_only=False)
        miss = np.isnan(v)
        secs = np.where(miss, 0.0, v).astype(np.int64) // 1_000_000
        return pa.table(
            {
                "row_id": t["row_id"],
                "k": t["k"],
                "asof_epoch_s": pa.array(secs, pa.int64(), mask=miss),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)
