"""Uniqueness check: duplicated key values -> ``invalid`` violations.

Scale-first design (SURVEY.md §2 set-ops): instead of shuffling every
row by the key (a full all-to-all on, say, ``phash`` at 10^12 rows), we

1. **pre-aggregate per batch** — one (key, partial_count) row per
   distinct key per batch (`map_batches`, vectorized Arrow group_by);
2. **fold or combine the partials** by their observed size
   (``_bucket.fold_combine``, the one eager keyed fold): up to
   ``_bucket._DRIVER_FOLD_ROWS`` of them fold onto the driver and one
   Arrow ``group_by`` sums them; past it the keyed exchange sums the
   materialized partials and keeps each bucket's duplicated keys,
   skew-safe because identical keys collapse within every batch first
   (a hot key contributes at most one row per batch);
3. **semi-join the rows against the duplicate keys**
   (``_bucket.semi_join``): keys that fold are ``ray.put`` once into a
   per-batch ``is_in`` (``duplicate_rows``) that emits one violation
   per member row; a duplicate-key set past the fold limit meets the
   rows per hash bucket instead.

Step 3 needs no pass of its own on the broadcast side:
``duplicate_rows`` is a callable that runs in whatever read task
already scans the rows (``validate_images`` runs it next to the schema
and decode checks), so only the narrow key fold of steps 1-2 reads the
input apart. The violation rows match the reference's
``$validate``-style code ``invalid`` (path = key column). A null key is
never a duplicate, as in SQL's ``UNIQUE``: the counts skip nulls, so no
key set holds one.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schema.result import VIOLATION_SCHEMA, violation_table
from ._bucket import KeyFilter, fold_combine, semi_join
from ._fold import column_type
from .validate import stringify_column


def duplicate_keys(ds, column: str) -> pa.Table:
    """Small table (key, partial = n) of keys appearing more than once,
    counted by ``fold_combine`` (``ds`` runs once). Past the fold limit
    the partials are summed and filtered per bucket on the keyed
    exchange, so only the duplicated keys reach the driver. An input
    without rows keeps its key's type (``pc.is_in`` rejects a
    null-typed value set), read from ``ds``'s schema at the cost of
    running ``ds`` again."""
    dup = fold_combine(ds, column, {"partial": (column, "count")},
                       where=pc.field("partial") > 1)
    if dup.num_rows or not pa.types.is_null(dup.schema.field(column).type):
        return dup
    return pa.table({column: pa.array([], column_type(ds, column)),
                     "partial": pa.array([], pa.int64())})


def _members(column: str, id_column: str):
    """The ``emit`` of the semi-join: one violation per member row."""

    def emit(rows: pa.Table) -> pa.Table:
        return violation_table(stringify_column(rows[id_column].combine_chunks()),
                               column, "invalid", expected="unique",
                               check="uniqueness")

    return emit


def duplicate_rows(dup: pa.Table, column: str, id_column: str) -> KeyFilter:
    """Per-batch uniqueness check: one violation per row whose ``column``
    value is in ``dup`` (a ``duplicate_keys`` result, ``ray.put`` once)."""
    return KeyFilter(dup, column, _members(column, id_column),
                     columns=[id_column])


def uniqueness_violations(ds, column: str, id_column: str = "image_id"):
    """Dataset of violations for rows whose ``column`` value is duplicated:
    the rows semi-joined against the duplicate keys, broadcast when they
    fold and per hash bucket when they do not (``_bucket.semi_join``)."""
    dup = duplicate_keys(ds, column)
    if dup.num_rows == 0:
        import ray.data as rd

        return rd.from_arrow(VIOLATION_SCHEMA.empty_table())
    return semi_join(ds, column, dup, _members(column, id_column),
                     columns=[id_column])
