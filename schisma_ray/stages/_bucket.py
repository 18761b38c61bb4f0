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

A caller that reads the per-key totals on the driver (statistics,
audits, histogram bins, duplicate keys) uses ``fold_combine``, the
eager form of the same combine: the same per-batch partial, then one
final ``group_by``. Its partials go through ``fold_small`` once, so
they fold onto the driver when they are few and are summed on the
exchange past ``_DRIVER_FOLD_ROWS``, and only the combined rows its
caller's filter keeps (duplicated keys, pairs sharing enough
fingerprints) come back. ``bucket_combine`` itself stays lazy: nothing
runs while a plan that uses it is built.

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

Every membership check (uniqueness, referential, cross-corpus and
near-dup survivors, clean ids, dedup survivors) asks one question, "is
this row's key in that key set?", and ``semi_join`` is its one
implementation, switched the same way: a key set that ``fold_small``
folds is ``ray.put`` once into a per-batch ``is_in`` (``KeyFilter``)
that Ray fuses into the probe's read; a larger one meets the probe per
bucket on ``bucket_cogroup``, where each bucket runs the same ``is_in``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

#: the routing column; dropped before the per-bucket function runs
BUCKET = "__bucket"

#: the width of every keyed exchange: ``bucket_apply`` and
#: ``bucket_cogroup`` read it once, when a plan is built, and route
#: every row by ``key_bucket(key, NUM_BUCKETS)``. No caller picks a
#: width; one bucket holds about 1/64 of an exchange's input.
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
        if pa.types.is_integer(a.type) and a.type not in (pa.int64(),
                                                          pa.uint64()):
            # int32 -1 and int64 -1 hash apart as numpy values: hash every
            # integer width as int64, so equal keys of two sides meet
            a = a.cast(pa.int64())
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


def bucket_apply(ds, key, fn, *, schema):
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
    sort shuffle over ``NUM_BUCKETS`` buckets, a width read once here,
    when the plan is built. Ray's sort emits a column-less block for a
    partition that receives no rows and passes empty blocks through map
    stages without calling them, so those blocks stay column-less; every
    block ``fn`` produces carries ``schema``, empty ones included.
    """
    keys = [key] if isinstance(key, str) else list(key)
    width = NUM_BUCKETS

    def route(t: pa.Table) -> pa.Table:
        cols = [t[k].combine_chunks() for k in keys]
        return t.append_column(BUCKET, key_bucket(cols, width))

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


def _pack(t: pa.Table, keys: list, side: int, width: int) -> pa.Table:
    """One ``(BUCKET, _SIDE, _PAYLOAD)`` row per bucket: the rows of
    ``t`` whose ``keys`` hash into it, as an Arrow IPC stream. Empty
    slices are packed too, so each bucket learns the side's schema."""
    import numpy as np

    bucket = key_bucket([t[k].combine_chunks() for k in keys],
                        width).to_numpy()
    t = t.take(np.argsort(bucket, kind="stable"))
    ends = np.cumsum(np.bincount(bucket, minlength=width))
    payloads = []
    for end, n in zip(ends, np.diff(ends, prepend=0)):
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as writer:
            writer.write_table(t.slice(end - n, n))
        payloads.append(sink.getvalue().to_pybytes())
    return pa.table({
        BUCKET: pa.array(np.arange(width, dtype=np.int32)),
        _SIDE: pa.array(np.full(width, side, np.int8)),
        _PAYLOAD: pa.array(payloads, pa.large_binary()),
    })


def bucket_cogroup(left, right, keys, right_keys, fn, *, schema=None):
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
    width = NUM_BUCKETS

    def packer(side: int, on: list):
        def pack(t: pa.Table) -> pa.Table:
            return _pack(t, on, side, width)

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
    keys, partials, combine = _combiner(ds, key, aggs)
    return bucket_apply(partials, keys, combine,
                        schema={name: name for name in [*keys, *aggs]})


def _combiner(ds, key, aggs: dict):
    """``(keys, partials, combine)`` of a keyed aggregation: the key
    columns, ``ds`` behind the per-batch ``group_by`` partial, and the
    function that finalizes any set of partial rows."""
    keys = [key] if isinstance(key, str) else list(key)
    for col, op in aggs.values():
        if op not in _FINAL:
            raise ValueError(f"unknown aggregate op {op!r} for {col!r}")
    final = {name: (name, _FINAL[op]) for name, (_, op) in aggs.items()}

    def partial(t: pa.Table) -> pa.Table:
        return _group(t, keys, aggs)

    def combine(t: pa.Table) -> pa.Table:
        return _group(t, keys, final)

    return keys, ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True), combine


def fold_combine(ds, key, aggs: dict, where=None) -> pa.Table:
    """``bucket_combine(ds, key, aggs)`` collected on the driver as one
    ``pa.Table`` of ``[*keys, *aggs]``, typed as there: the eager keyed
    fold for a caller that reads the totals. ``where`` (a ``pyarrow
    .compute`` expression over those columns) keeps only the combined
    rows it holds for, such as keys counted more than once.

    The per-batch partials go through ``fold_small`` once. Partials that
    fold are finalized by one ``group_by`` on the driver; past
    ``_DRIVER_FOLD_ROWS`` the materialized partial blocks are summed and
    filtered per bucket on ``bucket_apply``'s exchange, and only the
    rows ``where`` keeps come back. Without rows the types come from the
    partial blocks. An input without rows leaves none with columns (Ray
    runs no map over an empty block): keys are then null-typed and
    aggregates int64, and ``ds`` is not run again to type them.
    """
    keys, partials, combine = _combiner(ds, key, aggs)
    if where is not None:
        combine = _filtered(combine, where)
    mat, rows = fold_small(partials)
    if rows is None:
        out = bucket_apply(mat, keys, combine,
                           schema={name: name for name in [*keys, *aggs]})
        return _concat(out.materialize())
    if rows.num_columns:
        return combine(rows)
    return pa.table({**{k: pa.array([], pa.null()) for k in keys},
                     **{name: pa.array([], pa.int64()) for name in aggs}})


def _filtered(combine, where):
    """``combine`` followed by a filter on the expression ``where``."""

    def combine_where(t: pa.Table) -> pa.Table:
        return combine(t).filter(where)

    return combine_where


def _concat(mat) -> pa.Table:
    """Every row of the materialized ``mat`` as one ``pa.Table``: an
    empty one of its columns without rows, of none without columns."""
    import ray

    blocks = [t for t in ray.get(mat.to_arrow_refs()) if t.num_columns]
    full = [t for t in blocks if t.num_rows] or blocks[:1]
    return pa.concat_tables(full) if full else pa.table({})


def fold_small(ds, limit: int | None = None, max_bytes: int | None = None):
    """``(mat, rows)``: ``ds`` materialized once, and all its rows as one
    ``pa.Table`` when the block metadata counts at most ``limit`` of
    them (``_DRIVER_FOLD_ROWS`` by default), in at most ``max_bytes``
    when that is given; else ``rows`` is None and only ``mat`` is left
    to run on. Neither the count nor a later run on ``mat`` reads ``ds``
    again. With no rows, ``rows`` is an empty table of ``ds``'s columns,
    or of none when no block carries any."""
    mat = ds.materialize()
    limit = _DRIVER_FOLD_ROWS if limit is None else limit
    if mat.count() > limit or (max_bytes is not None
                               and mat.size_bytes() > max_bytes):
        return mat, None
    return mat, _concat(mat)


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
        out = bucket_apply(mat, key, fn, schema=declared)
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


def _key_array(keys) -> pa.Array:
    """The keys of a key side without nulls: the first column of a
    table (none when it has no columns), or the array itself."""
    if isinstance(keys, pa.Table):
        keys = keys.column(0) if keys.num_columns else pa.array([], pa.null())
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return keys.drop_null()


def _matched(t: pa.Table, column: str, keys: pa.Array, anti: bool,
             columns) -> pa.Table:
    """The rows of ``t`` (its ``columns``, all when None) whose
    ``column`` value is in ``keys`` (a null-free array), or with
    ``anti`` those whose value is not: a null key never matches, so a
    semi join drops its row and an anti join keeps it."""
    col = t[column]
    if keys.type != col.type:
        keys = keys.cast(col.type) if len(keys) else pa.array([], col.type)
    hit = pc.is_in(col, value_set=keys)
    if anti:
        hit = pc.invert(hit)
    return (t if columns is None else t.select(columns)).filter(hit)


def _rows(t: pa.Table) -> pa.Table:
    return t


class KeyFilter:
    """The broadcast side of ``semi_join``: per batch, ``emit`` of the
    rows whose ``column`` value is in ``keys`` (not in them with
    ``anti``), restricted to ``columns``. ``keys`` is a table (its first
    column) or an array, ``ray.put`` once, here; nulls never match. A
    callable instance, so Ray runs it as a task fused into its read."""

    def __init__(self, keys, column: str, emit=_rows, *, anti: bool = False,
                 columns=None):
        import ray

        self.keys_ref = ray.put(_key_array(keys))
        self.column, self.emit, self.anti = column, emit, anti
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        return self.emit(_matched(batch, self.column, ray.get(self.keys_ref),
                                  self.anti, self.columns))


def semi_join(ds, column: str, keys, emit=_rows, *, anti: bool = False,
              columns=None):
    """``emit`` of the rows of ``ds`` whose ``column`` value is in the
    key side ``keys`` (a left semi join), or with ``anti`` of those
    whose value is not (a left anti join), restricted to ``columns``
    (all when None). ``keys`` is a Dataset, or a ``pa.Table`` or array
    already on the driver; its first column holds the keys, under any
    name. A null key never matches: a semi join drops a null-key row
    and an anti join keeps it. The keys are cast to ``column``'s type.

    A key Dataset runs through ``fold_small``: keys that fold, like a
    key table of at most ``_DRIVER_FOLD_ROWS`` rows, are ``ray.put``
    once into one ``KeyFilter`` that Ray fuses into ``ds``'s read; past
    the limit, ``ds`` (its ``column`` and ``columns``) and the keys meet
    per bucket on ``bucket_cogroup`` and each bucket runs the same
    ``is_in`` (an Arrow semi or anti join would reject list-typed
    columns, such as embeddings, among the probe's columns). Either
    way ``emit`` sees the matched rows of one batch or bucket as a
    ``pa.Table`` and returns the output rows, so both sides give the
    same rows and columns. ``emit`` must keep an empty input's output
    typed; a bucket that holds no row of ``ds`` emits nothing.
    """
    import ray.data as rd

    if hasattr(keys, "map_batches"):
        mat, rows = fold_small(keys)
    else:
        rows = keys if isinstance(keys, pa.Table) else pa.table({column: keys})
        if rows.num_rows > _DRIVER_FOLD_ROWS:
            mat, rows = rd.from_arrow(rows), None
    if rows is not None:
        return ds.map_batches(
            KeyFilter(rows, column, emit, anti=anti, columns=columns),
            batch_format="pyarrow", zero_copy_batch=True)
    key_column = mat.schema().names[0]

    def select(cols):
        return lambda t: t.select(cols)

    def match(l: pa.Table | None, r: pa.Table | None):
        if l is None:
            return None
        found = (_key_array(r) if r is not None else pa.array([], pa.null()))
        return emit(_matched(l, column, found, anti, columns))

    match.__name__ = "anti_join" if anti else "semi_join"
    if columns is not None:
        ds = ds.map_batches(select(list(dict.fromkeys([column, *columns]))),
                            batch_format="pyarrow", zero_copy_batch=True)
    keys = mat.map_batches(select([key_column]), batch_format="pyarrow",
                           zero_copy_batch=True)
    return bucket_cogroup(ds, keys, column, key_column, match)
