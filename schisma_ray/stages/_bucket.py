"""Keyed exchange: hash a key into a bucket, shuffle, run a function per bucket.

Every keyed check that needs all rows of a key in one place (sessions,
as-of joins, diffs, line and text dedup, the referential shuffle, FD
audits) has the same shape, and ``bucket_apply`` is its one
implementation: ``key_bucket`` routes each row, ``groupby(bucket)
.map_groups`` under Ray's default sort shuffle co-locates each bucket,
and the caller's function sees one bucket as a ``pa.Table``. The
function's output is cast to a schema the caller declares once, so every
block it returns, empty or not, carries the same columns and types.
"""

from __future__ import annotations

import pyarrow as pa

#: the routing column; dropped before the per-bucket function runs
BUCKET = "__bucket"


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

    if isinstance(schema, pa.Schema):
        schema = dict(zip(schema.names, schema.types))

    def apply(t: pa.Table) -> pa.Table:
        body = t.drop_columns([BUCKET])
        out = fn(body)
        if not isinstance(out, pa.Table):
            out = pa.Table.from_pandas(out, preserve_index=False)
        declared = schema or {name: name for name in out.column_names}
        return out.select(list(declared)).cast(pa.schema([
            (name, body.schema.field(typ).type if isinstance(typ, str) else typ)
            for name, typ in declared.items()
        ]))

    apply.__name__ = fn.__name__  # names the operator in Ray's stats
    return (
        ds.map_batches(route, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(BUCKET)
        .map_groups(apply, batch_format="pyarrow")
    )
