"""Referential integrity: anti-join of a key column against a reference
id set -> ``invalid`` violations for orphans.

One code path, ``_bucket.semi_join`` with ``anti=True``, switched by the
size of the reference side: ids that ``fold_small`` folds are ``ray.put``
once into a per-batch ``is_in`` (``orphan_rows``, which
``validate_images`` runs in the read task of its other checks), with no
shuffle at all; a reference side past ``_bucket._DRIVER_FOLD_ROWS``
meets the key column per hash bucket on ``bucket_cogroup``, one
all-to-all over the key columns only. A null key is not an orphan.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schema.result import violation_table
from ._bucket import KeyFilter, semi_join


def _orphans(column: str):
    """The ``emit`` of the anti-join: one violation per non-null key."""

    def emit(rows: pa.Table) -> pa.Table:
        ids = pc.cast(rows[column].combine_chunks().drop_null(), pa.string())
        return violation_table(ids, column, "invalid", expected=f"known {column}",
                               received=ids, check="referential")

    return emit


def orphan_rows(reference_ids, column: str) -> KeyFilter:
    """Per-batch referential check over ids already on the driver (a
    table, its first column, or an array), ``ray.put`` once: one
    violation per non-null ``column`` value missing from them."""
    return KeyFilter(reference_ids, column, _orphans(column), anti=True,
                     columns=[column])


def referential_violations(ds, column: str, reference_ids, *,
                           strategy: str = "broadcast"):
    """Violations for the non-null ``column`` values of ``ds`` missing
    from ``reference_ids``: a Dataset, ``pa.Table`` (first column) or
    array of valid ids, under any column name. The reference side's size
    picks the broadcast or the exchange body (``_bucket.semi_join``).

    ``strategy`` is read by no code; it stays only because
    ``perfbench/layers.py:227`` passes ``strategy="broadcast"``.
    """
    return semi_join(ds, column, reference_ids, _orphans(column), anti=True,
                     columns=[column])
