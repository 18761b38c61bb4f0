"""Table version diff: added / removed / changed rows between two
versions of a keyed table (the snapshot-comparison check a validation
engine runs between pipeline runs: what did the last job change?).

Shape: each side maps to (key, row_hash, side) — a batch-vectorized md5
over a canonical column serialization — then ONE bucketed shuffle
co-locates both versions of every key and a vectorized per-bucket
classification emits the change rows. The all-to-all carries two hashes
per key, never the row payloads.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._bucket import bucket_apply

_NULL = "\x00null"


def row_hashes(batch: pa.Table, key: str, columns: list[str]) -> pa.Table:
    """(key, h): md5 of the '|'-joined stringified columns (nulls -> a
    sentinel). Matches DuckDB
    ``md5(concat_ws('|', COALESCE(CAST(c AS VARCHAR), sentinel), ...))``
    so diffs are SQL-oracle-able."""
    parts = [
        pc.fill_null(pc.cast(batch[c].combine_chunks(), pa.string()), _NULL)
        for c in columns
    ]
    joined = parts[0]
    for p in parts[1:]:
        joined = pc.binary_join_element_wise(joined, p, "|")
    hashes = [
        hashlib.md5(s.encode("utf-8")).hexdigest() for s in joined.to_pylist()
    ]
    return pa.table({key: batch[key], "h": pa.array(hashes, pa.string())})


def table_diff(ds_old, ds_new, key: str, columns: list[str]):
    """Dataset of (key, change) with change in added/removed/changed.

    Keys present only in ``ds_new`` -> added; only in ``ds_old`` ->
    removed; in both with different row hashes -> changed. Unchanged
    keys emit nothing. Assumes ``key`` is unique per side (a keyed
    table); duplicate keys collapse to their first hash per side.
    """

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            t = row_hashes(batch, key, columns)
            return t.append_column(
                "side", pa.array([side] * t.num_rows, pa.int8()))

        return fn

    old = ds_old.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True)
    new = ds_new.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True)

    def classify(t: pa.Table) -> pd.DataFrame:
        group = t.to_pandas()
        o = group[group["side"] == 0].drop_duplicates(key).set_index(key)["h"]
        n = group[group["side"] == 1].drop_duplicates(key).set_index(key)["h"]
        added = n.index.difference(o.index)
        removed = o.index.difference(n.index)
        both = n.index.intersection(o.index)
        changed = both[(n.loc[both] != o.loc[both]).to_numpy()]
        return pd.DataFrame(
            {
                key: np.concatenate(
                    [added.to_numpy(), removed.to_numpy(), changed.to_numpy()]
                ),
                "change": ["added"] * len(added)
                + ["removed"] * len(removed)
                + ["changed"] * len(changed),
            }
        )

    return bucket_apply(old.union(new), key, classify,
                        schema={key: key, "change": pa.string()})
