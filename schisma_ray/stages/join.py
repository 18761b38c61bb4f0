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
* ``shuffle_hash_join`` — delegates to Ray Data's native hash-shuffle
  ``Dataset.join`` (both sides repartition on the key, per-partition
  hash joins). The fallback when the dimension side outgrows a
  broadcast; ``num_partitions`` is the shuffle width.

Both match ANSI inner/left-outer semantics (duplicate right keys
multiply rows), verified against DuckDB oracles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray


def _as_arrow(ref) -> pa.Table | None:
    if isinstance(ref, pa.Table):
        return ref
    if hasattr(ref, "iter_batches"):
        parts = [
            b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
            for b in ref.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        parts = [t for t in parts if t.num_rows]
        return pa.concat_tables(parts) if parts else None
    raise TypeError(type(ref))


def broadcast_hash_join(ds, ref, on: str, right_on: str | None = None,
                        *, how: str = "inner"):
    """Join ``ds`` (fact Dataset) with ``ref`` (small side: Arrow table
    or Dataset) on an equi-key. ``how``: "inner" or "left outer"."""
    right = _as_arrow(ref)
    right_key = right_on or on
    ref_handle = ray.put(right)

    def fn(batch: pa.Table) -> pa.Table:
        r = ray.get(ref_handle)
        return batch.join(r, keys=on, right_keys=right_key, join_type=how)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def shuffle_hash_join(ds, ref, on: str, right_on: str | None = None,
                      *, how: str = "inner", num_partitions: int | None = None):
    """Hash-shuffle equi-join via Ray Data's native ``Dataset.join``.
    ``num_partitions=None`` derives the shuffle width from input blocks
    / cluster CPUs instead of a hardcoded constant."""
    import ray.data as rd

    from .components import derive_join_partitions

    if not hasattr(ref, "join"):
        ref = rd.from_arrow(ref)
    return ds.join(
        ref,
        join_type=("left_outer" if how == "left outer" else how),
        num_partitions=num_partitions or derive_join_partitions(ds, ref),
        on=(on,),
        right_on=(right_on or on,),
    )


def salted_shuffle_join(ds, ref, on: str, right_on: str | None = None,
                        *, salt_on: str, salt: int = 8, how: str = "inner",
                        num_partitions: int | None = None):
    """Skew-aware hash-shuffle equi-join: a HOT join key no longer lands
    in one straggler partition.

    A plain hash-shuffle join routes every fact row for a key to one
    partition — at web scale one dominant key (the top domain, the bot
    user) turns the join into a single-task tail. Salting splits it:

    * fact side gets ``_salt = hash(salt_on) % salt`` — ``salt_on`` is a
      unique-ish FACT column (its primary key), so one join key's rows
      spread uniformly over ``salt`` sub-keys, deterministically and
      independently of block layout;
    * dimension side is replicated once per salt value (cost: the
      explicit ``salt``x dimension shuffle traffic traded against the
      hot key's entire fact volume in one task);
    * the join runs on the composite ``(key, _salt)`` and the salt
      columns are dropped — output rows are exactly the unsalted
      join's, every fact row probes exactly one replica of its key.

    ``how``: "inner" or "left outer" (each left row still finds its
    salt's dimension copy, so outer semantics are preserved)."""
    import ray.data as rd

    from ._bucket import key_bucket
    from .components import derive_join_partitions

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
    joined = left.join(
        right,
        join_type=("left_outer" if how == "left outer" else how),
        num_partitions=num_partitions or derive_join_partitions(ds, ref),
        on=(on, "_salt"),
        right_on=((right_on or on), "_salt_r"),
    )

    # Ray's join coalesces right keys into the left's columns, so only
    # the left "_salt" survives — drop whichever salt columns exist.
    def drop_salt(t: pa.Table) -> pa.Table:
        return t.drop_columns(
            [c for c in ("_salt", "_salt_r") if c in t.column_names]
        )

    return joined.map_batches(drop_salt, batch_format="pyarrow",
                              zero_copy_batch=True)


def full_outer_join(ds, ref, on: str, right_on: str | None = None,
                    *, num_partitions: int | None = None):
    """FULL OUTER hash-shuffle equi-join: rows of either side without a
    partner survive with the other side's columns null — the
    reconciliation shape (expected-vs-observed manifests, two snapshot
    versions). Thin wrapper over Ray Data's native ``full_outer`` join
    so the join-type matrix (inner / left / full / semi / anti) is
    complete in one module."""
    import ray.data as rd

    from .components import derive_join_partitions

    if not hasattr(ref, "join"):
        ref = rd.from_arrow(ref)
    return ds.join(
        ref,
        join_type="full_outer",
        num_partitions=num_partitions or derive_join_partitions(ds, ref),
        on=(on,),
        right_on=(right_on or on,),
    )


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

    it = _as_arrow(intervals)
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
