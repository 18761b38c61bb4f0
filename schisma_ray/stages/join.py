"""Equi-join operators (SURVEY.md §2.4 joins/lookups).

The referential anti-join (stages/referential.py) covers the
existence-check direction; this module adds the enrichment direction —
attaching columns of a dimension table to a fact stream:

* ``broadcast_hash_join`` — the small side is ``ray.put`` ONCE as an
  Arrow table and every batch runs a vectorized ``pa.Table.join``
  against it. No shuffle at all; the join cost is a per-batch hash
  probe. The right shape whenever the dimension side fits the object
  store (the common case: dimensions are orders of magnitude smaller
  than facts).
* ``shuffle_hash_join`` — both sides hash their key into
  ``_bucket.NUM_BUCKETS`` buckets and meet per bucket on
  ``bucket_cogroup``, the package's one keyed exchange; each bucket runs
  one Arrow join (inner, left outer, full outer, left semi, left anti).
  The path when the dimension side outgrows a broadcast.
  ``salted_shuffle_join`` is its skew-aware form.

Both match ANSI semantics (duplicate right keys multiply rows, null
keys never match), verified against DuckDB oracles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ._fold import fold_table


def broadcast_hash_join(ds, ref, on: str, right_on: str | None = None,
                        *, how: str = "inner"):
    """Join ``ds`` (fact Dataset) with ``ref`` (small side: Arrow table
    or Dataset) on an equi-key. ``how``: "inner" or "left outer"."""
    right = ref if isinstance(ref, pa.Table) else fold_table(ref)
    right_key = right_on or on
    ref_handle = ray.put(right)

    def fn(batch: pa.Table) -> pa.Table:
        r = ray.get(ref_handle)
        return batch.join(r, keys=on, right_keys=right_key, join_type=how)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _known_schema(ds) -> pa.Schema | None:
    """The schema of an Arrow table, or the Arrow schema Ray knows for
    a Dataset without executing it."""
    if isinstance(ds, pa.Table):
        return ds.schema
    schema = ds.schema(fetch_if_missing=False)
    schema = getattr(schema, "base_schema", schema)
    return schema if isinstance(schema, pa.Schema) else None


def shuffle_hash_join(ds, ref, on, right_on=None, *, how: str = "inner"):
    """Equi-join ``ds`` with ``ref`` (a Dataset or an Arrow table) on
    ``on`` = ``right_on`` (a column name or a list of them): both sides
    meet per hash bucket on ``bucket_cogroup`` and each bucket runs one
    Arrow join. ``how`` is an Arrow join type: "inner", "left outer",
    "full outer", "left semi" or "left anti". Keys are coalesced into
    the left's key columns, null keys never match and duplicate right
    keys multiply rows.

    A side that produced no rows at all joins as an empty table of its
    schema: an Arrow table's, or the one Ray knows for a Dataset without
    executing it (often none for a lazy or empty one). Without one, the
    side's key columns stand in for it, unless the join keeps the other
    side's unmatched rows (left outer, full outer), whose columns from
    the empty side could then not be typed: that raises a ValueError.
    """
    import ray.data as rd

    from ._bucket import NUM_BUCKETS, bucket_cogroup

    known = _known_schema(ds), _known_schema(ref)
    if not hasattr(ref, "map_batches"):
        ref = rd.from_arrow(ref)
    keys = [on] if isinstance(on, str) else list(on)
    right_keys = (keys if right_on is None else
                  [right_on] if isinstance(right_on, str) else list(right_on))
    keeps_unmatched = {"left outer": ("right",),
                       "full outer": ("left", "right")}.get(how, ())

    def stand_in(side: str, schema, other: pa.Table, own_keys, other_keys):
        if schema is not None:
            return schema.empty_table()
        if side in keeps_unmatched:
            raise ValueError(
                f"the {side} side of a {how} join produced no rows and its "
                "schema is unknown, so its columns cannot be typed; pass "
                "an Arrow table or a Dataset whose schema Ray knows")
        return pa.table({k: other[o].slice(0, 0)
                         for k, o in zip(own_keys, other_keys)})

    def join(l: pa.Table | None, r: pa.Table | None) -> pa.Table:
        if l is None:
            l = stand_in("left", known[0], r, keys, right_keys)
        if r is None:
            r = stand_in("right", known[1], l, right_keys, keys)
        return l.join(r, keys=keys, right_keys=right_keys, join_type=how)

    return bucket_cogroup(ds, ref, keys, right_keys, join,
                          num_buckets=NUM_BUCKETS)


def salted_shuffle_join(ds, ref, on: str, right_on: str | None = None,
                        *, salt_on: str, salt: int = 8, how: str = "inner"):
    """Skew-aware shuffle equi-join: a HOT join key no longer lands
    in one straggler bucket.

    A plain shuffle join routes every fact row for a key to one
    bucket — at web scale one dominant key (the top domain, the bot
    user) turns the join into a single-task tail. Salting splits it:

    * fact side gets ``_salt = hash(salt_on) % salt`` — ``salt_on`` is a
      unique-ish FACT column (its primary key), so one join key's rows
      spread uniformly over ``salt`` sub-keys, deterministically and
      independently of block layout;
    * dimension side is replicated once per salt value (cost: the
      explicit ``salt``x dimension shuffle traffic traded against the
      hot key's entire fact volume in one task);
    * ``shuffle_hash_join`` runs on the composite ``(key, _salt)`` and
      the salt column is dropped — output rows are exactly the unsalted
      join's, every fact row probes exactly one replica of its key.

    ``how``: "inner" or "left outer" (each left row still finds its
    salt's dimension copy, so outer semantics are preserved)."""
    import ray.data as rd

    from ._bucket import key_bucket

    if not hasattr(ref, "map_batches"):
        ref = rd.from_arrow(ref)

    def salt_facts(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_salt", key_bucket(t[salt_on].combine_chunks(), salt)
        )

    def replicate_dim(t: pa.Table) -> pa.Table:
        n = t.num_rows
        rep = t.take(np.tile(np.arange(n, dtype=np.int64), salt))
        salts = np.repeat(np.arange(salt, dtype=np.int32), n)
        return rep.append_column("_salt_r", pa.array(salts, pa.int32()))

    left = ds.map_batches(salt_facts, batch_format="pyarrow",
                          zero_copy_batch=True)
    right = ref.map_batches(replicate_dim, batch_format="pyarrow",
                            zero_copy_batch=True)
    joined = shuffle_hash_join(left, right, [on, "_salt"],
                               [right_on or on, "_salt_r"], how=how)
    # the right "_salt_r" key is coalesced into the left's "_salt"
    return joined.map_batches(lambda t: t.drop_columns(["_salt"]),
                              batch_format="pyarrow", zero_copy_batch=True)


def range_join(ds, intervals, *, ts_col: str, start_col: str, end_col: str,
               bucket_s: int | None = None, max_bucket: int = 100_000):
    """Interval/range join WITHOUT an equi key: pair every left row with
    every interval whose half-open [start, end) contains its timestamp.
    (The equi-keyed flavor — "same user within a window" — is just an
    equi-join plus a filter; this operator covers the genuinely hard
    case: point-in-interval against an interval table.)

    Bucketed shape (the documented partitioning assumption): time is
    cut into ``bucket_s``-wide buckets (default: the longest interval,
    so an interval spans <= 2 buckets); left rows land in ONE bucket,
    intervals replicate to every bucket they overlap, and the join
    runs per bucket as one vectorized point-in-interval test against
    only that bucket's candidate intervals — never a global cross
    product. Work per batch is rows x (intervals overlapping their
    buckets); ``max_bucket`` documents the skew bound on that factor.

    ``intervals`` is an Arrow table or small Dataset (campaign periods,
    maintenance windows, holiday calendars — dimension-sized by
    nature); it is broadcast via one ``ray.put``. Timestamps are int64
    epoch-us columns on both sides.
    """
    import numpy as np
    import pyarrow.compute as pc

    it = intervals if isinstance(intervals, pa.Table) else fold_table(intervals)
    if it is None:
        raise ValueError("intervals side has no schema (empty Dataset); "
                         "pass an Arrow table so the joined schema is known")
    if it.num_rows == 0:
        # keep the JOINED schema (left + interval columns) so downstream
        # projections of interval columns still work on the empty result
        def empty_join(t: pa.Table) -> pa.Table:
            left = t.slice(0, 0)
            cols = {name: left[name] for name in left.column_names}
            for name in it.column_names:
                if name not in cols:
                    cols[name] = it.slice(0, 0)[name]
            return pa.table(cols)

        return ds.map_batches(
            empty_join, batch_format="pyarrow", zero_copy_batch=True
        )
    starts = pc.cast(it[start_col], pa.int64()).to_numpy()
    ends = pc.cast(it[end_col], pa.int64()).to_numpy()
    if bucket_s is None:
        width_us = int((ends - starts).max())
    else:
        width_us = bucket_s * 1_000_000
    width_us = max(width_us, 1)

    # interval replication: (bucket -> rows of `it`) index, built once
    order = np.argsort(starts, kind="stable")
    it_sorted = it.take(pa.array(order))
    s_sorted, e_sorted = starts[order], ends[order]
    buckets: dict[int, np.ndarray] = {}
    lo_b = s_sorted // width_us
    hi_b = (np.maximum(e_sorted - 1, s_sorted)) // width_us
    for i in range(len(s_sorted)):
        for b in range(int(lo_b[i]), int(hi_b[i]) + 1):
            buckets.setdefault(b, []).append(i)
    buckets = {b: np.asarray(v, dtype=np.int64) for b, v in buckets.items()}
    worst = max((len(v) for v in buckets.values()), default=0)
    if worst > max_bucket:
        raise ValueError(
            f"a time bucket holds {worst} intervals (> max_bucket="
            f"{max_bucket}); widen bucket_s or raise max_bucket — the "
            "per-batch work factor is rows x bucket-local intervals"
        )
    bref = ray.put((it_sorted, s_sorted, e_sorted, buckets))

    def probe(batch: pa.Table) -> pa.Table:
        it_s, ss, es, bk = ray.get(bref)
        ts = pc.cast(batch[ts_col].combine_chunks(), pa.int64()).to_numpy()
        row_idx_parts, int_idx_parts = [], []
        bvals = ts // width_us
        for b in np.unique(bvals):
            cand = bk.get(int(b))
            if cand is None:
                continue
            rows = np.nonzero(bvals == b)[0]
            t_here = ts[rows]
            # vectorized point-in-interval over the bucket's candidates
            hit = (t_here[:, None] >= ss[cand][None, :]) & (
                t_here[:, None] < es[cand][None, :]
            )
            r, c = np.nonzero(hit)
            row_idx_parts.append(rows[r])
            int_idx_parts.append(cand[c])
        if not row_idx_parts:
            left = batch.slice(0, 0)
            right = it_s.slice(0, 0)
        else:
            ridx = np.concatenate(row_idx_parts)
            iidx = np.concatenate(int_idx_parts)
            left = batch.take(pa.array(ridx))
            right = it_s.take(pa.array(iidx))
        cols = {name: left[name] for name in left.column_names}
        for name in right.column_names:
            if name not in cols:
                cols[name] = right[name]
        return pa.table(cols)

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def upsert_compact(base, updates, *, key: str, ts_col: str,
                   num_buckets: int = 32):
    """CDC snapshot compaction (lakehouse MERGE/upsert): one surviving
    row per key — the latest version by (``ts_col``, source), updates
    winning exact-timestamp ties against the base snapshot.

    Scale shape: tag each side with a source priority, union, ONE
    key-hash bucketed shuffle, then one vectorized sort +
    drop-duplicates per bucket (no per-key group tasks). Both inputs
    stream; nothing is broadcast, so base and updates may each be
    corpus-sized. Equal (ts, source) ties within one side are not
    ordered — feed deduplicated snapshots."""
    from ._bucket import bucket_apply

    def tag(src: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "_src", pa.array(np.full(t.num_rows, src, np.int8))
            )

        return fn

    u = base.map_batches(tag(0), batch_format="pyarrow",
                         zero_copy_batch=True).union(
        updates.map_batches(tag(1), batch_format="pyarrow",
                            zero_copy_batch=True)
    )

    def latest(t: pa.Table):
        g = t.to_pandas().sort_values([key, ts_col, "_src"],
                                      ascending=[True, False, False],
                                      kind="mergesort")
        return g[~g.duplicated(key)].drop(columns=["_src"])

    return bucket_apply(u, key, latest, num_buckets=num_buckets, schema=None)
