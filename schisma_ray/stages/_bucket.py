"""Keyed exchange: hash a key into a bucket, shuffle, run a function per bucket.

Every keyed check that needs all rows of a key in one place (sessions,
as-of joins, diffs, line and text dedup, FD audits, LSH band and
k-means cluster pairs, per-query top-k merges, per-key caps) has the
same shape, and ``bucket_apply`` is its one
implementation: ``key_bucket`` routes each row, ``groupby(bucket)
.map_groups`` under Ray's default sort shuffle co-locates each bucket,
and the caller's function sees one bucket as a ``pa.Table``. A bucket
holds many keys, so the function splits it by key itself (a sort plus
segment bounds, or a pandas ``groupby(..., dropna=False)``). The
function's output is cast to a schema the caller declares once, so every
block it returns, empty or not, carries the same columns and types.
This module is the only caller of Ray's ``map_groups`` in the package:
the sort it runs compares bucket numbers, never a nullable key.

Keyed aggregation (sum/min/max/count per key) is ``bucket_combine``, the
combiner pattern on the same exchange: an Arrow ``group_by`` per batch
bounds every key to one row per batch before the shuffle, and one more
``group_by`` per bucket finalizes. It replaces Ray's generic
``groupby(...).aggregate``, whose sort aggregate calls each aggregate
once per group in a Python loop, and which cannot sort a string key
column that holds nulls.

Two-sided keyed work (equi-joins, the referential anti-join, semi-joins,
attaching payloads to pair slots) is ``bucket_cogroup``: both sides
route by their own keys into the same buckets on the same exchange, and
the caller's function sees one bucket's rows of each side. It replaces
Ray's hash-shuffle ``Dataset.join``, a second exchange on aggregator
actors that hung on a 1-CPU session and raised ``ArrowInvalid`` on an
empty side.

A keyed step whose input is small runs faster without the exchange:
Ray's sort shuffle has seconds of fixed cost that dwarfs inputs below
millions of rows. ``fold_or_apply`` is the one switch between the two:
it materializes its input once, and by the row count and bytes in the
block metadata either runs the function once on the driver over every
row or hands the same blocks to ``bucket_apply``.
"""

from __future__ import annotations

import pyarrow as pa

#: the routing column; dropped before the per-bucket function runs
BUCKET = "__bucket"

#: buckets of a ``bucket_combine`` or ``bucket_cogroup`` exchange
NUM_BUCKETS = 64

#: ``bucket_cogroup``'s packed columns: the side (0 left, 1 right) and
#: one bucket's rows of one batch of that side as an Arrow IPC stream
_SIDE = "__side"
_PAYLOAD = "__payload"

#: rows a ``fold_small`` input may hold to fold onto the driver
_DRIVER_FOLD_ROWS = 5_000_000

#: bytes of rows ``fold_or_apply`` folds onto the driver, which runs its
#: function serially there. Measured on cosine LSH bands (4 tables of
#: 64-dim float32 vectors, 280 B per row) in a 4-CPU session: 107 MiB
#: ran 3.4-3.6 s on the driver vs 4.1 s per bucket, 160 MiB 5.4 vs
#: 5.0 s; driver peak RSS 0.8 and 1.1 GB vs 0.25 and 0.4 GB. Narrow
#: banded or pair rows (16-24 B) reach ``_DRIVER_FOLD_ROWS`` first.
_DRIVER_FOLD_BYTES = 128 << 20

#: the op that folds each aggregate's per-batch partials into its total
_FINAL = {"sum": "sum", "count": "sum", "count_all": "sum",
          "min": "min", "max": "max"}


def key_bucket(key, num_buckets: int) -> pa.Array:
    """Type-agnostic hash bucket for a key column — or a list of
    columns for composite keys (int, string, UUID...).

    pandas hash_array works on any dtype (object included), unlike an
    int64 cast which rejects strings and silently *parses* numeric
    strings. Multi-column hashes combine with odd multipliers so
    (a, b) != (b, a). Identical key tuples always co-locate, which is
    all the segmented per-bucket scans need."""
    import numpy as np
    import pandas as pd

    arrays = key if isinstance(key, (list, tuple)) else [key]
    h = np.zeros(len(arrays[0]), np.uint64)
    for i, a in enumerate(arrays):
        if a.null_count and (pa.types.is_integer(a.type)
                             or pa.types.is_boolean(a.type)):
            # nulls turn an int/bool array into float/object numpy, which
            # hashes the same key differently: route nulls with the zero
            # key so a key's bucket never depends on its block's nulls
            a = a.fill_null(pa.scalar(0, a.type) if pa.types.is_integer(a.type)
                            else False)
        h ^= pd.util.hash_array(
            a.to_numpy(zero_copy_only=False)
        ) * np.uint64(2 * i + 1)
    return pa.array((h % np.uint64(num_buckets)).astype(np.int32), pa.int32())


def bucket_apply(ds, key, fn, *, schema, num_buckets: int):
    """Run ``fn`` on every hash bucket of ``key`` (a column name or a
    list of them) and return the union of its outputs.

    ``fn`` takes one bucket's rows as a ``pa.Table`` (the input columns,
    without the routing column) and returns a ``pa.Table`` or a pandas
    DataFrame. ``schema`` declares the output: a ``pa.Schema``, or a
    dict mapping each output column, in order, to its ``pa.DataType`` or
    to the NAME of an input column whose type it carries (a key or id
    passed through), or ``None`` when ``fn`` returns a subset of its
    input columns with their input types. Input types are read from the
    block being processed, so the plan never executes anything and never
    asks ``ds`` for its schema.

    Rows with equal keys always meet in one call; a call may hold many
    keys. The routing column is appended in a ``map_batches`` that Ray
    fuses with the caller's own projection, and the exchange is one
    sort shuffle. Ray's sort emits a column-less block for a partition
    that receives no rows and passes empty blocks through map stages
    without calling them, so those blocks stay column-less; every block
    ``fn`` produces carries ``schema``, empty ones included.
    """
    keys = [key] if isinstance(key, str) else list(key)

    def route(t: pa.Table) -> pa.Table:
        cols = [t[k].combine_chunks() for k in keys]
        return t.append_column(BUCKET, key_bucket(cols, num_buckets))

    def apply(t: pa.Table) -> pa.Table:
        body = t.drop_columns([BUCKET])
        return _cast(fn(body), schema, [body.schema])

    routed = ds.map_batches(route, batch_format="pyarrow", zero_copy_batch=True)
    return _exchange(routed, apply, fn.__name__)


def _cast(out, schema, inputs: list) -> pa.Table:
    """``out`` (a ``pa.Table`` or pandas DataFrame) as the declared
    ``schema`` (see ``resolve_schema``); ``None`` keeps ``out``'s
    columns, each typed as the input column of that name."""
    if not isinstance(out, pa.Table):
        out = pa.Table.from_pandas(out, preserve_index=False)
    declared = resolve_schema(
        schema or {name: name for name in out.column_names}, inputs)
    return out.select(declared.names).cast(declared)


def resolve_schema(schema, inputs: list) -> pa.Schema:
    """A declared output ``schema`` as a ``pa.Schema``: ``schema`` is a
    ``pa.Schema``, or a dict of output column -> ``pa.DataType`` or the
    name of the input column whose type it carries, looked up in the
    first of the ``inputs`` schemas that holds it."""
    if isinstance(schema, pa.Schema):
        return schema

    def typed(typ):
        if not isinstance(typ, str):
            return typ
        for s in inputs:
            if typ in s.names:
                return s.field(typ).type
        raise KeyError(f"no input column {typ!r} to take a type from")

    return pa.schema([(name, typed(typ)) for name, typ in schema.items()])


def keep_columns(ds, schema: pa.Schema):
    """``ds`` plus one typed empty block of ``schema``, so an exchange
    result whose every bucket came out empty (only Ray's column-less
    sort blocks) still reports ``schema``. The extra operator costs
    about 0.17 s per exchange on a 4-CPU session (0.40 vs 0.23 s for a
    20k-row ``bucket_apply``), so only the exchange side of a size
    switch, where the input is large, pays it."""
    import ray.data as rd

    return ds.union(rd.from_arrow(schema.empty_table()))


def _exchange(routed, apply, name: str):
    """Run ``apply`` once per value of the ``BUCKET`` column that
    ``routed`` already carries: the one sort shuffle of this module."""
    apply.__name__ = name  # names the operator in Ray's stats
    return routed.groupby(BUCKET).map_groups(apply, batch_format="pyarrow")


def _pack(t: pa.Table, keys: list, side: int, num_buckets: int) -> pa.Table:
    """One ``(BUCKET, _SIDE, _PAYLOAD)`` row per bucket: the rows of
    ``t`` whose ``keys`` hash into it, as an Arrow IPC stream. Empty
    slices are packed too, so each bucket learns the side's schema."""
    import numpy as np

    bucket = key_bucket([t[k].combine_chunks() for k in keys],
                        num_buckets).to_numpy()
    t = t.take(np.argsort(bucket, kind="stable"))
    ends = np.cumsum(np.bincount(bucket, minlength=num_buckets))
    payloads = []
    for end, n in zip(ends, np.diff(ends, prepend=0)):
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as writer:
            writer.write_table(t.slice(end - n, n))
        payloads.append(sink.getvalue().to_pybytes())
    return pa.table({
        BUCKET: pa.array(np.arange(num_buckets, dtype=np.int32)),
        _SIDE: pa.array(np.full(num_buckets, side, np.int8)),
        _PAYLOAD: pa.array(payloads, pa.large_binary()),
    })


def bucket_cogroup(left, right, keys, right_keys, fn, *, num_buckets: int,
                   schema=None):
    """Run ``fn(l, r)`` on every hash bucket of two Datasets and return
    the union of its outputs: ``l`` holds the bucket's rows of ``left``
    by ``keys`` and ``r`` those of ``right`` by ``right_keys`` (a column
    name or a list of them each), so rows with equal keys on either side
    meet in one call (the two sides' keys have the same types, as an
    Arrow join requires). Each is a ``pa.Table`` with its own side's
    schema, or ``None`` when that side produced no rows at all.

    Each batch is packed into one ``(BUCKET, side, Arrow IPC payload)``
    row per bucket, empty slices included, and both sides' packed rows
    run through ``bucket_apply``'s exchange. Ray's sort drops zero-row
    blocks before it concatenates a partition, so a bucket that received
    only empty slices of one side would otherwise never see that side's
    columns; packed, every routed block has the same three columns and
    every bucket sees both schemas whenever both sides have rows.

    ``fn`` returns a ``pa.Table`` (or a pandas DataFrame when ``schema``
    is given), or ``None`` for no rows, which becomes a column-less
    block like the ones Ray's sort emits. ``schema`` declares the output
    as in ``bucket_apply`` (a name stands for that column of ``l``, else
    of ``r``); ``None`` keeps the table ``fn`` returns.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    right_keys = [right_keys] if isinstance(right_keys, str) else list(right_keys)

    def packer(side: int, on: list):
        def pack(t: pa.Table) -> pa.Table:
            return _pack(t, on, side, num_buckets)

        return pack

    def apply(t: pa.Table) -> pa.Table:
        sides = ([], [])
        for side, payload in zip(t[_SIDE].to_pylist(),
                                 t[_PAYLOAD].combine_chunks()):
            sides[side].append(pa.ipc.open_stream(payload.as_buffer()).read_all())
        l, r = (pa.concat_tables(parts, promote_options="permissive")
                if parts else None for parts in sides)
        out = fn(l, r)
        if out is None:
            return pa.table({})
        if schema is None:
            return out
        return _cast(out, schema, [s.schema for s in (l, r) if s is not None])

    packed = left.map_batches(packer(0, keys), batch_format="pyarrow").union(
        right.map_batches(packer(1, right_keys), batch_format="pyarrow"))
    return _exchange(packed, apply, fn.__name__)


def _group(t: pa.Table, keys: list, aggs: dict) -> pa.Table:
    """``[*keys, *aggs]`` of one Arrow ``group_by`` over ``t``."""
    out = t.group_by(keys, use_threads=False).aggregate([
        ([], "count_all") if op == "count_all" else (col, op)
        for col, op in aggs.values()
    ])
    # pyarrow puts the keys first, then one column per aggregate in order
    return pa.Table.from_arrays(out.columns, names=[*keys, *aggs])


def bucket_combine(ds, key, aggs: dict):
    """Keyed aggregation: one row per distinct ``key`` (a column name or
    a list of them) with the columns ``[*keys, *aggs]``.

    ``aggs`` maps each output column to ``(input column, op)``, ``op``
    one of ``sum``, ``min``, ``max``, ``count`` (non-null values) and
    ``count_all`` (rows, nulls included; its input column is ignored).
    Null keys form one group, as in pyarrow. Each batch is combined by
    an Arrow ``group_by`` in a map that Ray fuses with the caller's
    projection and ``bucket_apply``'s route, and each bucket finalizes
    with one more ``group_by`` (counts are summed). Keys keep their
    input types; aggregates carry the types of their per-batch partials
    (``sum`` of int32 is int64, ``count`` is int64). Rows come out in no
    particular order.
    """
    keys = [key] if isinstance(key, str) else list(key)
    for col, op in aggs.values():
        if op not in _FINAL:
            raise ValueError(f"unknown aggregate op {op!r} for {col!r}")
    final = {name: (name, _FINAL[op]) for name, (_, op) in aggs.items()}

    def partial(t: pa.Table) -> pa.Table:
        return _group(t, keys, aggs)

    def combine(t: pa.Table) -> pa.Table:
        return _group(t, keys, final)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucket_apply(partials, keys, combine, num_buckets=NUM_BUCKETS,
                        schema={name: name for name in [*keys, *aggs]})


def fold_small(ds, limit: int | None = None, max_bytes: int | None = None):
    """``(mat, rows)``: ``ds`` materialized once, and all its rows as one
    ``pa.Table`` when the block metadata counts at most ``limit`` of
    them (``_DRIVER_FOLD_ROWS`` by default), in at most ``max_bytes``
    when that is given; else ``rows`` is None and only ``mat`` is left
    to run on. Neither the count nor a later run on ``mat`` reads ``ds``
    again. With no rows, ``rows`` is an empty table of ``ds``'s columns,
    or of none when no block carries any."""
    import ray

    mat = ds.materialize()
    limit = _DRIVER_FOLD_ROWS if limit is None else limit
    if mat.count() > limit or (max_bytes is not None
                               and mat.size_bytes() > max_bytes):
        return mat, None
    blocks = [t for t in ray.get(mat.to_arrow_refs()) if t.num_columns]
    full = [t for t in blocks if t.num_rows] or blocks[:1]
    return mat, pa.concat_tables(full) if full else pa.table({})


def fold_or_apply(ds, key, fn, *, schema, combine=None):
    """``bucket_apply(ds, key, fn, schema=schema)``, or ``fn`` run once
    on the driver over every row of ``ds`` when ``fold_small`` folds
    them (at most ``_DRIVER_FOLD_ROWS`` in ``_DRIVER_FOLD_BYTES``): the
    same function on both sides of the switch, chosen by the size the
    materialized input reports, never by a flag. Either way the result
    is a Dataset of the declared ``schema`` (as in ``bucket_apply``),
    empty ones included, and ``ds`` runs once.

    One driver call sees every key, so it also folds rows that a
    per-bucket run emits once per bucket (a pair found under several
    band keys); on the exchange side ``combine=(keys, aggs)`` folds
    those with ``bucket_combine(out, keys, aggs)``, whose columns must
    be the declared ones in order. Without rows ``fn`` does not run; a
    column typed by an input column that no block carries (an input
    without columns, as an all-empty exchange leaves) falls back to
    int64. The exchange side carries the declared columns through
    ``keep_columns`` even when no bucket emits a row.
    """
    import ray.data as rd

    mat, rows = fold_small(ds, max_bytes=_DRIVER_FOLD_BYTES)
    if rows is None:
        declared = resolve_schema(schema, [mat.schema().base_schema])
        out = bucket_apply(mat, key, fn, schema=declared,
                           num_buckets=NUM_BUCKETS)
        if combine is not None:
            out = bucket_combine(out, *combine)
        return keep_columns(out, declared)
    if rows.num_rows:
        return rd.from_arrow(_cast(fn(rows), schema, [rows.schema]))
    names = [] if isinstance(schema, pa.Schema) else [
        t for t in schema.values() if isinstance(t, str)]
    fallback = pa.schema([(n, pa.int64()) for n in dict.fromkeys(names)])
    return rd.from_arrow(
        resolve_schema(schema, [rows.schema, fallback]).empty_table())
