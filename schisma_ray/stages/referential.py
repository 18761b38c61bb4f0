"""Referential integrity: anti-join of a key column against a reference
id set -> ``invalid`` violations for orphans.

Two strategies (SURVEY.md §2 joins/lookups):

* ``broadcast`` (default) — the reference side is ``ray.put`` once and
  each batch filters with a vectorized ``is_in`` (``OrphanRows``, which
  ``validate_images`` runs in the read task of its other checks); no
  shuffle at all.
  Right whenever the id set fits comfortably in the object store (a
  10^9-id string set is a few tens of GB — prefer the shuffle path
  beyond that).
* ``shuffle`` — both sides' keys meet per hash bucket
  (``bucket_cogroup``); each bucket performs a local Arrow anti-join.
  One all-to-all over the key columns only — bytes-light even at
  10^12 rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..sources.image_table import VIOLATION_SCHEMA
from ._bucket import bucket_cogroup


def _violation_table(ids: pa.Array, column: str) -> pa.Table:
    n = len(ids)
    return pa.Table.from_arrays(
        [
            pc.cast(ids, pa.string()),
            pa.array([column] * n, pa.string()),
            pa.array(["invalid"] * n, pa.string()),
            pa.array([f"known {column}"] * n, pa.string()),
            pc.cast(ids, pa.string()),
            pa.array([None] * n, pa.string()),
            pa.array(["referential"] * n, pa.string()),
        ],
        schema=VIOLATION_SCHEMA,
    )


def _id_array(reference_ids) -> pa.Array:
    """The reference ids as one array: the first column of a table, or
    of a Dataset folded on the driver (an empty one keeps its key type)."""
    if hasattr(reference_ids, "to_pandas") and not isinstance(
        reference_ids, (pa.Table, pa.Array, pa.ChunkedArray)
    ):
        from ._fold import fold_table

        folded = fold_table(reference_ids)
        if folded is None:
            pa_sch = getattr(reference_ids.schema(), "base_schema", None)
            folded = (
                pa_sch.empty_table()
                if pa_sch is not None
                else pa.table({"id": pa.array([], pa.string())})
            )
        reference_ids = folded
    if isinstance(reference_ids, pa.Table):
        return reference_ids.column(0).combine_chunks()
    return reference_ids


class OrphanRows:
    """Per-batch referential check: one violation per non-null ``column``
    value missing from ``reference_ids`` (a Dataset, table or array of
    ids, folded and ``ray.put`` once, here). A callable instance, so Ray
    runs it as a task fused into its read."""

    def __init__(self, reference_ids, column: str):
        self.ids_ref = ray.put(_id_array(reference_ids))
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.column]
        orphan = pc.and_not(pc.is_valid(col),
                            pc.is_in(col, value_set=ray.get(self.ids_ref)))
        return _violation_table(col.filter(orphan).combine_chunks(), self.column)


def referential_violations(
    ds,
    column: str,
    reference_ids,
    *,
    strategy: str = "broadcast",
    num_buckets: int = 64,
):
    """`reference_ids`: pa.Table/Array of valid ids, or a Dataset of them."""
    if strategy == "broadcast":
        return ds.map_batches(OrphanRows(reference_ids, column),
                              batch_format="pyarrow", zero_copy_batch=True)

    if strategy == "shuffle":
        import ray.data as rd

        def keys(batch: pa.Table) -> pa.Table:
            col = pc.cast(batch[column].combine_chunks(), pa.string())
            return pa.table({"key": col.filter(pc.is_valid(col))})

        if not hasattr(reference_ids, "map_batches"):
            tbl = reference_ids if isinstance(reference_ids, pa.Table) else pa.table({column: reference_ids})
            reference_ids = rd.from_arrow(tbl)

        def anti(facts: pa.Table | None, refs: pa.Table | None) -> pa.Table:
            # one vectorized Arrow left-anti join per BUCKET (not per key)
            if facts is None:
                return VIOLATION_SCHEMA.empty_table()
            if refs is not None:
                facts = facts.join(refs, keys="key", join_type="left anti")
            return _violation_table(facts["key"].combine_chunks(), column)

        return bucket_cogroup(
            ds.map_batches(keys, batch_format="pyarrow"),
            reference_ids.map_batches(keys, batch_format="pyarrow"),
            "key", "key", anti, num_buckets=num_buckets,
            schema=VIOLATION_SCHEMA)

    raise ValueError(f"unknown strategy {strategy!r}")


class BloomFilter:
    """Vectorized Bloom filter over string/int keys (numpy bit array).

    k hash functions derived by salting pandas.util.hash_array. No false
    negatives: "absent" answers are certain — exactly the property the
    anti-join prefilter needs (an absent key is *definitely* an orphan).
    """

    @staticmethod
    def _set_bits(bits, values, n_bits: int, k: int):
        import numpy as np
        import pandas as pd

        arr = np.asarray(values, dtype=object)
        for salt in range(k):
            h = pd.util.hash_array(arr, hash_key=f"{salt:016d}") % n_bits
            np.bitwise_or.at(bits, h // 8, (1 << (h % 8)).astype(np.uint8))

    def __init__(self, values, n_bits: int = 1 << 22, k: int = 5):
        import numpy as np

        self.n_bits = n_bits
        self.k = k
        self.bits = np.zeros(n_bits // 8, dtype=np.uint8)
        self._set_bits(self.bits, values, n_bits, k)

    @classmethod
    def from_bits(cls, bits, n_bits: int, k: int = 5) -> "BloomFilter":
        obj = cls.__new__(cls)
        obj.n_bits = n_bits
        obj.k = k
        obj.bits = bits
        return obj

    def maybe_contains(self, values) -> "np.ndarray":
        import numpy as np
        import pandas as pd

        arr = np.asarray(values, dtype=object)
        out = np.ones(len(arr), dtype=bool)
        for salt in range(self.k):
            h = pd.util.hash_array(arr, hash_key=f"{salt:016d}") % self.n_bits
            out &= (self.bits[h // 8] & (1 << (h % 8)).astype(np.uint8)) != 0
        return out


class BloomBits:
    """Mergeable Bloom bit array as a Ray ``AggregateFn``: each block
    contributes a partial bit array, partials OR-merge through the
    aggregation tree (associative + commutative, the HLL pattern) — the
    reference id set never exists on the driver; only the fixed-size
    bit array (n_bits/8 bytes) does. Keys are cast to string before
    hashing so the probe side (which stringifies) always agrees."""

    def __new__(cls, on: str, n_bits: int = 1 << 22, k: int = 5,
                alias_name: str | None = None):
        import numpy as np
        import pandas as pd
        from ray.data.aggregate import AggregateFn

        def accumulate_block(bits, block):
            if isinstance(block, pd.DataFrame):
                block = pa.Table.from_pandas(block, preserve_index=False)
            col = pc.cast(block[on].combine_chunks(), pa.string()).drop_null()
            if len(col) == 0:
                return bits
            bits = bits.copy()
            BloomFilter._set_bits(
                bits, col.to_numpy(zero_copy_only=False), n_bits, k
            )
            return bits

        return AggregateFn(
            init=lambda _: np.zeros(n_bits // 8, dtype=np.uint8),
            merge=np.bitwise_or,
            accumulate_block=accumulate_block,
            finalize=lambda b: b,
            name=alias_name or f"bloom({on})",
        )


def referential_violations_bloom(
    ds,
    column: str,
    reference_ids,
    *,
    n_bits: int = 1 << 22,
    num_buckets: int = 64,
):
    """Anti-join via Bloom prefilter + exact residual check.

    Phase 1 broadcasts only the Bloom bits (n_bits/8 bytes, vs the full
    id set): keys the filter rejects are *certain* orphans and are
    flagged locally with no shuffle. Phase 2 exact-checks the remaining
    "maybe present" keys (members + false positives) through the
    bucketed shuffle anti-join — the shuffle now carries only that
    residual instead of every row. The two violation streams union.

    The Bloom bits are BUILT distributed (``BloomBits`` mergeable
    aggregate) — the reference side may be a Dataset that is never
    collected; a pa.Table/Array reference is wrapped into one.
    """
    import numpy as np
    import ray.data as rd

    if not hasattr(reference_ids, "map_batches"):
        tbl = (
            reference_ids
            if isinstance(reference_ids, pa.Table)
            else pa.table({column: reference_ids})
        )
        reference_ids = rd.from_arrow(tbl)
    ref_schema = reference_ids.schema()
    ref_col = getattr(ref_schema, "names", [column])[0]
    bits = reference_ids.aggregate(BloomBits(ref_col, n_bits=n_bits, alias_name="b"))["b"]
    bloom = BloomFilter.from_bits(bits, n_bits=n_bits)
    bloom_ref = ray.put(bloom)

    def split(batch: pa.Table) -> pa.Table:
        bf = ray.get(bloom_ref)
        col = pc.cast(batch[column].combine_chunks(), pa.string())
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        vals = col.to_numpy(zero_copy_only=False)
        maybe = np.zeros(len(vals), dtype=bool)
        if valid.any():
            arr = np.where(valid, vals, "").astype(object)
            maybe = bf.maybe_contains(arr) & valid
        certain_orphan = valid & ~maybe
        return pa.table(
            {
                "key": col,
                "certain": pa.array(certain_orphan),
                "maybe": pa.array(maybe),
            }
        )

    tagged = ds.map_batches(split, batch_format="pyarrow", zero_copy_batch=True)

    def certain_violations(t: pa.Table) -> pa.Table:
        hit = t.filter(t["certain"])
        if hit.num_rows == 0:
            return VIOLATION_SCHEMA.empty_table()
        return _violation_table(hit["key"].combine_chunks(), column)

    certain = tagged.map_batches(
        certain_violations, batch_format="pyarrow", zero_copy_batch=True
    )
    residual = tagged.map_batches(
        lambda t: pa.table({column: t.filter(t["maybe"])["key"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    ref_for_exact = reference_ids.map_batches(
        lambda t: pa.table({column: t[ref_col]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    exact = referential_violations(
        residual,
        column,
        ref_for_exact,
        strategy="shuffle",
        num_buckets=num_buckets,
    )
    return certain.union(exact)
