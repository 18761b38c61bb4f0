"""Uniqueness check: duplicated key values -> ``invalid`` violations.

Scale-first design (SURVEY.md §2 set-ops): instead of shuffling every
row by the key (a full all-to-all on, say, ``phash`` at 10^12 rows), we

1. **pre-aggregate per batch** — one (key, partial_count) row per
   distinct key per batch (`map_batches`, vectorized Arrow group_by);
2. **small shuffle** — ``bucket_combine`` sums the much smaller
   partials; skew-safe because identical keys collapse within every
   batch first (the classic combiner; a hot key contributes at most one
   row per batch);
3. **broadcast the duplicate key set** (`ray.put`) into the per-batch
   ``DuplicateRows`` check, a vectorized ``is_in`` that emits one
   violation per member row.

Step 3 needs no pass of its own: ``DuplicateRows`` is a callable that
runs in whatever read task already scans the rows (``validate_images``
runs it next to the schema and decode checks), so only the narrow key
fold of steps 1-2 reads the input apart. The violation rows match the
reference's ``$validate``-style code ``invalid`` (path = key column). A
null key is never a duplicate, as in SQL's ``UNIQUE``: the counts skip
nulls, so no key set holds one.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..sources.image_table import VIOLATION_SCHEMA
from ._bucket import NUM_BUCKETS, bucket_cogroup, bucket_combine
from ._fold import column_type, fold_table


def _partial_counts(column: str):
    def fn(batch: pa.Table) -> pa.Table:
        t = batch.select([column]).group_by(column).aggregate([(column, "count")])
        return t.rename_columns([column, "partial"])

    return fn


def duplicate_keys(ds, column: str, *, driver_merge_limit: int = 2_000_000) -> pa.Table:
    """Small table (key, n) of keys appearing more than once.

    Two merge strategies for the per-batch partial counts:

    * **driver merge** (default up to ``driver_merge_limit`` distinct
      keys): stream the partials to the driver and fold them with Arrow
      ``group_by`` every few batches. Memory is O(distinct keys) — the
      floor for any exact distinct count — and it avoids Ray's sort
      shuffle entirely (which has seconds of fixed cost).
    * **keyed exchange** fallback when the running distinct count
      exceeds the limit: ``bucket_combine`` counts every key — the
      scalable all-to-all for key spaces that don't fit one machine.
    """
    partials = ds.map_batches(
        _partial_counts(column), batch_format="pyarrow", zero_copy_batch=True
    )
    merged: pa.Table | None = None
    pending: list[pa.Table] = []
    overflow = False
    for batch in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        t = batch if isinstance(batch, pa.Table) else pa.Table.from_batches([batch])
        pending.append(t)
        if sum(x.num_rows for x in pending) >= 64 * 1024:
            parts = pending if merged is None else [merged, *pending]
            merged = (
                pa.concat_tables(parts)
                .group_by(column)
                .aggregate([("partial", "sum")])
                .rename_columns([column, "partial"])
            )
            pending = []
            if merged.num_rows > driver_merge_limit:
                overflow = True
                break
    if overflow:
        return _dups(bucket_combine(ds, column, {"partial": (column, "count")}),
                     ds, column)
    parts = ([merged] if merged is not None else []) + pending
    if not parts:
        return _no_dups(ds, column)
    merged = (
        pa.concat_tables(parts)
        .group_by(column)
        .aggregate([("partial", "sum")])
        .rename_columns([column, "partial"])
    )
    return merged.filter(pc.greater(merged["partial"], 1))


def _bloom_positions(arr, bits: int, n_hashes: int):
    """n_hashes position arrays via double hashing from ONE hash_array
    call: pos_i = (h + i * step) % bits with an odd step derived from
    the high bits (hash_key only affects object dtypes in pandas, so
    per-seed re-hashing would silently degenerate for numeric keys)."""
    import numpy as np
    import pandas as pd

    h = pd.util.hash_array(arr).astype(np.uint64)
    step = (h >> np.uint64(32)) | np.uint64(1)
    return [
        ((h + np.uint64(i) * step) % np.uint64(bits)).astype(np.int64)
        for i in range(n_hashes)
    ]


class CountingBloomAgg:
    """Mergeable counting-Bloom as a Ray ``AggregateFn`` (the BloomBits
    pattern, referential.py) — per-position counts saturated at 2,
    encoded as TWO packed bitmasks: ``seen`` (count >= 1) and ``dup``
    (count >= 2). Saturating addition of block contributions is then
    associative + commutative bitwise algebra::

        dup' = dup_a | dup_b | (seen_a & seen_b);  seen' = seen_a | seen_b

    so partials tree-merge through Ray's aggregation — no per-block
    bloom bytes ever reach the driver, which receives only the final
    2 x bits/8-byte state. Each block contributes a BIT vector over its
    distinct keys (within-block repeats collapse; they are carried
    exactly in the state's bounded ``definite`` key list instead).
    """

    def __new__(cls, on: str, bits: int = 1 << 22, n_hashes: int = 3,
                alias_name: str | None = None):
        import numpy as np
        import pandas as pd
        from ray.data.aggregate import AggregateFn

        nbytes = bits >> 3

        def init(_):
            return {
                "seen": np.zeros(nbytes, np.uint8),
                "dup": np.zeros(nbytes, np.uint8),
                "definite": [],
            }

        def _arr(x):
            # Ray may round-trip accumulator state through a block
            # conversion that turns numpy arrays into lists — coerce back
            return np.asarray(x, dtype=np.uint8)

        def accumulate_block(state, block):
            if isinstance(block, pd.DataFrame):
                block = pa.Table.from_pandas(block, preserve_index=False)
            t = (
                block.select([on]).group_by(on).aggregate([(on, "count")])
            ).rename_columns([on, "partial"])
            definite = t.filter(pc.greater(t["partial"], 1))[on].combine_chunks()
            key_bits = np.zeros(nbytes, dtype=np.uint8)
            arr = t[on].combine_chunks().to_numpy(zero_copy_only=False)
            for pos in _bloom_positions(arr, bits, n_hashes):
                np.bitwise_or.at(
                    key_bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8)
                )
            seen = _arr(state["seen"])
            return {
                # dup uses the PRE-update seen: second sighting of a
                # position across blocks is what flips its dup bit
                "dup": _arr(state["dup"]) | (seen & key_bits),
                "seen": seen | key_bits,
                "definite": list(state["definite"]) + definite.to_pylist(),
            }

        def merge(a, b):
            sa, sb = _arr(a["seen"]), _arr(b["seen"])
            return {
                "dup": _arr(a["dup"]) | _arr(b["dup"]) | (sa & sb),
                "seen": sa | sb,
                "definite": list(a["definite"]) + list(b["definite"]),
            }

        return AggregateFn(
            init=init,
            merge=merge,
            accumulate_block=accumulate_block,
            finalize=lambda s: s,
            name=alias_name or f"counting_bloom({on})",
        )


def duplicate_keys_bloom(ds, column: str, *, bits: int = 1 << 22,
                         n_hashes: int = 3) -> pa.Table:
    """Counting-Bloom prefilter for duplicate detection at extreme key
    cardinality — the path when even one (key, partial) row per distinct
    key per batch is too much shuffle/driver traffic (10^12
    mostly-unique keys; see DESIGN.md).

    Pass 1: one distributed ``CountingBloomAgg`` over the (pruned) key
    column. Each block contributes a bit vector over its distinct keys;
    partials saturating-add as packed (seen, dup) bitmask pairs and
    tree-merge through Ray's aggregation — the driver receives only the
    final bits/8-byte ``dup`` mask plus the exact (bounded) set of keys
    duplicated WITHIN a block. A key seen in >= 2 blocks has every hash
    position's dup bit set; so may a false positive, which the exact
    pass kills.

    Pass 2: re-scan partials, keep only candidate keys (dup-bit test
    OR in-block-definite), exact Ray groupby over that small subset.
    Output matches ``duplicate_keys``: a small (key, partial=n>1) table.
    """
    import numpy as np

    agg = ds.select_columns([column]).aggregate(
        CountingBloomAgg(column, bits=bits, n_hashes=n_hashes,
                         alias_name="cb")
    )
    state = agg["cb"] if agg else None
    if state is None:
        return _no_dups(ds, column)
    dup_bits = np.asarray(state["dup"], dtype=np.uint8)
    # set membership only — order irrelevant (and None-safe, unlike sort)
    definite_vals = list(set(state["definite"])) or None

    dup_ref = ray.put(dup_bits)
    def_ref = ray.put(definite_vals)

    def pass2(batch: pa.Table) -> pa.Table:
        t = batch.select([column]).group_by(column).aggregate([(column, "count")])
        t = t.rename_columns([column, "partial"])
        d = ray.get(dup_ref)
        arr = t[column].combine_chunks().to_numpy(zero_copy_only=False)
        ok = np.ones(len(arr), dtype=bool)
        for pos in _bloom_positions(arr, bits, n_hashes):
            ok &= (d[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
        dkeys = ray.get(def_ref)
        if dkeys is not None:
            ok |= pc.is_in(
                t[column].combine_chunks(),
                value_set=pa.array(dkeys, type=t.schema.field(column).type),
            ).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ok))

    cand = ds.map_batches(pass2, batch_format="pyarrow", zero_copy_batch=True)
    return _dups(bucket_combine(cand, column, {"partial": ("partial", "sum")}),
                 ds, column)


def _no_dups(ds, column: str) -> pa.Table:
    """The empty (key, partial) result, the key typed as in ``ds``."""
    return pa.table({column: pa.array([], column_type(ds, column)),
                     "partial": pa.array([], pa.int64())})


def _dups(totals, ds, column: str) -> pa.Table:
    """The (key, partial > 1) rows of a keyed count of ``ds``, collected."""
    merged = fold_table(totals)
    if merged is None:
        return _no_dups(ds, column)
    return merged.filter(pc.greater(merged["partial"], 1))


def duplicate_keys_ds(ds, column: str):
    """Dataset of (column, n) for keys appearing more than once — the
    never-materialize variant of ``duplicate_keys``: ``bucket_combine``
    counts -> filter, everything stays distributed."""
    return bucket_combine(ds, column, {"n": (column, "count")}).map_batches(
        lambda t: t.filter(pc.greater(t["n"], 1)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _violation_table(ids: pa.Array, column: str) -> pa.Table:
    """One ``invalid`` uniqueness violation per id in ``ids``."""
    from .validate import stringify_column

    n = len(ids)
    return pa.Table.from_arrays(
        [
            stringify_column(ids),
            pa.array([column] * n, pa.string()),
            pa.array(["invalid"] * n, pa.string()),
            pa.array(["unique"] * n, pa.string()),
            pa.array([None] * n, pa.string()),
            pa.array([None] * n, pa.string()),
            pa.array(["uniqueness"] * n, pa.string()),
        ],
        schema=VIOLATION_SCHEMA,
    )


class DuplicateRows:
    """Per-batch uniqueness check: one violation per row whose ``column``
    value is in ``dup`` (a ``duplicate_keys`` result), which is
    ``ray.put`` once, here. A callable instance, so Ray runs it as a task
    fused into its read."""

    def __init__(self, dup: pa.Table, column: str, id_column: str):
        self.keys_ref = ray.put(dup[column].combine_chunks())
        self.column, self.id_column = column, id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        hit = pc.is_in(batch[self.column], value_set=ray.get(self.keys_ref))
        ids = batch[self.id_column].filter(hit).combine_chunks()
        return _violation_table(ids, self.column)


def uniqueness_violations(ds, column: str, id_column: str = "image_id",
                          *, strategy: str = "broadcast"):
    """Dataset of violations for rows whose ``column`` value is duplicated.

    * ``broadcast`` (default): the duplicate-key set is collected and
      broadcast; ``DuplicateRows`` maps over the input. Right while
      duplicates are rare (the common case for a uniqueness check).
    * ``join``: the duplicate keys stay a DATASET and semi-join the
      input per hash bucket (``bucket_cogroup``) — the path for
      duplicate-heavy tables where the dup-key set outgrows a broadcast.
    * ``bloom``: counting-Bloom prefilter (``duplicate_keys_bloom``) —
      the extreme-cardinality path where even per-batch partials are too
      much traffic; exact after the second pass.
    """
    if strategy == "join":
        narrow = ds.map_batches(
            lambda t: t.select([id_column, column]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

        def emit_rows(rows: pa.Table | None, dups: pa.Table | None) -> pa.Table:
            if rows is None or dups is None:
                return VIOLATION_SCHEMA.empty_table()
            t = rows.join(dups, column, join_type="left semi")
            return _violation_table(t[id_column].combine_chunks(), column)

        return bucket_cogroup(narrow, duplicate_keys_ds(ds, column), column,
                              column, emit_rows, num_buckets=NUM_BUCKETS,
                              schema=VIOLATION_SCHEMA)

    if strategy == "bloom":
        dup = duplicate_keys_bloom(ds, column)
    else:
        dup = duplicate_keys(ds, column)
    if dup.num_rows == 0:
        import ray.data as rd

        return rd.from_arrow(VIOLATION_SCHEMA.empty_table())
    return ds.map_batches(DuplicateRows(dup, column, id_column),
                          batch_format="pyarrow", zero_copy_batch=True)
