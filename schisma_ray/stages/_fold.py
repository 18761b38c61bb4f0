"""Single implementation of the bounded driver fold.

Several operators end with a deliberately SMALL driver-resident result
(local top-k rows per block, distinct-id arrays, non-keeper label ids,
one partial row per block). They all fold the same way; keeping one
implementation stops the copies from drifting and gives tests a single
place to reason about. ``fold_table`` is for row sets bounded by
construction. Never use it on anything O(rows-of-corpus), and never to
sum per-key partials: a keyed sum, count, min or max read on the driver
is ``_bucket.fold_combine``, and a keyed step whose input may be large
picks the driver or the keyed exchange by its observed size through
``_bucket.fold_or_apply``.
"""

from __future__ import annotations

import pyarrow as pa


def fold_table(ds) -> pa.Table | None:
    """Collect a (bounded) Dataset to one pa.Table; None when empty."""
    parts = [
        b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    parts = [t for t in parts if t.num_rows]
    return pa.concat_tables(parts) if parts else None


def fold_column(ds, column: str) -> pa.Array:
    """One column of a (bounded) Dataset as one Arrow array, such as the
    id side of a broadcast filter; an empty int64 array without rows."""
    folded = fold_table(ds.select_columns([column]))
    if folded is None:
        return pa.array([], pa.int64())
    return folded[column].combine_chunks()


def column_type(ds, column: str) -> pa.DataType:
    """The type of ``column`` in ``ds``, for an empty fold result that
    must keep its key's type (``pc.is_in`` rejects a null-typed value
    set); null when no block of ``ds`` carries columns."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    if base is None or column not in base.names:
        return pa.null()
    return base.field(column).type
