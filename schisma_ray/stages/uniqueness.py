"""Uniqueness check: duplicated key values -> ``invalid`` violations.

Scale-first design (SURVEY.md §2 set-ops): instead of shuffling every
row by the key (a full all-to-all on, say, ``phash`` at 10^12 rows), we

1. **pre-aggregate per batch** — one (key, partial_count) row per
   distinct key per batch (`map_batches`, vectorized Arrow group_by);
2. **fold or combine the partials** by their observed size: up to
   ``_bucket._DRIVER_FOLD_ROWS`` of them fold onto the driver
   (``fold_small``) and one Arrow ``group_by`` sums them; past it
   ``bucket_combine`` sums the materialized partials on the keyed
   exchange, skew-safe because identical keys collapse within every
   batch first (a hot key contributes at most one row per batch);
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
from ._bucket import KeyFilter, bucket_combine, fold_small, semi_join
from ._fold import column_type, fold_table
from .validate import stringify_column


def _partial_counts(column: str):
    def fn(batch: pa.Table) -> pa.Table:
        t = batch.select([column]).group_by(column).aggregate([(column, "count")])
        return t.rename_columns([column, "partial"])

    return fn


def _over_one(t: pa.Table) -> pa.Table:
    return t.filter(pc.greater(t["partial"], 1))


def _no_dups(ds, column: str) -> pa.Table:
    """The empty (key, partial) result, the key typed as in ``ds``
    (``pc.is_in`` rejects a null-typed value set)."""
    return pa.table({column: pa.array([], column_type(ds, column)),
                     "partial": pa.array([], pa.int64())})


def _duplicates(ds, column: str):
    """The (key, partial = n > 1) rows of the keys of ``ds`` appearing
    more than once: a ``pa.Table`` when the per-batch partial counts
    fold onto the driver, else a Dataset summed on the keyed exchange
    from the partials materialized for the count (``ds`` runs once)."""
    partials = ds.map_batches(
        _partial_counts(column), batch_format="pyarrow", zero_copy_batch=True
    )
    mat, rows = fold_small(partials)
    if rows is None:
        totals = bucket_combine(mat, column, {"partial": ("partial", "sum")})
        return totals.map_batches(_over_one, batch_format="pyarrow",
                                  zero_copy_batch=True)
    if column not in rows.column_names:
        return _no_dups(ds, column)
    merged = rows.group_by(column, use_threads=False).aggregate(
        [("partial", "sum")])
    return _over_one(merged.rename_columns([column, "partial"]))


def duplicate_keys(ds, column: str) -> pa.Table:
    """Small table (key, partial = n) of keys appearing more than once.
    Past the fold limit the partials are summed on the keyed exchange
    and only the duplicated keys are collected."""
    dup = _duplicates(ds, column)
    if isinstance(dup, pa.Table):
        return dup
    folded = fold_table(dup)
    return _no_dups(ds, column) if folded is None else folded


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
    dup = _duplicates(ds, column)
    if isinstance(dup, pa.Table) and dup.num_rows == 0:
        import ray.data as rd

        return rd.from_arrow(VIOLATION_SCHEMA.empty_table())
    return semi_join(ds, column, dup, _members(column, id_column),
                     columns=[id_column])
