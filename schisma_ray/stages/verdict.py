"""Per-partition pass/fail verdicts over a validation run.

The north-star contract ("matching the reference's per-partition
pass/fail and violation rows") needs a judge-facing report: for each
partition of the input, how many rows, how many violation rows, the
violation rate, and a PASS/FAIL verdict at a threshold. The
checkpoint/lineage records (state/checkpoint.py) carry these counts
per *physical* fragment for resume; this stage computes the same
verdict over a *deterministic, parallelism-invariant* partitioning —
an md5 bucket of the row id — so the report is identical no matter how
Ray split the files (and so a SQL oracle can reproduce it exactly:
``CAST(concat('0x', substr(md5(id), 1, 8)) AS BIGINT) % P``).

Scale shape: two combiner-first count passes (each batch collapses to
at most P partial rows before leaving the task), one P-row fold on the
driver. P is the report granularity (default 16), not the physical
partition count — at 100 TB you'd set it to the fragment-group count
you want verdicts for; nothing row-sized ever reaches the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._bucket import fold_combine
from ._digest import md5_u32
from ._math import frac_e6


def _bucket_counts(ds, col: str, num_partitions: int) -> np.ndarray:
    """The rows of each md5 bucket of ``col``, as one length-P vector."""

    def part(batch: pa.Table) -> pa.Table:
        b = md5_u32(batch[col]) % num_partitions
        return pa.table({"part_id": pa.array(b, pa.int64())})

    counts = fold_combine(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "part_id", {"n": ("part_id", "count_all")})
    total = np.zeros(num_partitions, dtype=np.int64)
    total[counts["part_id"].to_numpy().astype(np.int64)] = counts["n"].to_numpy()
    return total


def partition_verdicts(rows_ds, violations_ds, *, id_col: str = "image_id",
                       ref_col: str = "row_ref", num_partitions: int = 16,
                       threshold_e6: int = 75_000) -> pa.Table:
    """(part_id, n_rows, n_violations, rate_e6, passed): the
    per-partition verdict table. ``rate_e6`` is the e6-integer
    violation-rows-per-input-row rate (frac_e6 half-up rounding — the
    shared oracle recipe); ``passed`` is ``rate_e6 <= threshold_e6``.
    Partitions with zero input rows are omitted (they have no verdict
    to give)."""
    n_rows = _bucket_counts(rows_ds, id_col, num_partitions)
    n_vio = _bucket_counts(violations_ds, ref_col, num_partitions)
    keep = np.flatnonzero(n_rows)
    rate = frac_e6(n_vio[keep], n_rows[keep])
    return pa.table({
        "part_id": pa.array(keep.astype(np.int64), pa.int64()),
        "n_rows": pa.array(n_rows[keep], pa.int64()),
        "n_violations": pa.array(n_vio[keep], pa.int64()),
        "rate_e6": pa.array(rate, pa.int64()),
        "passed": pa.array(rate <= threshold_e6),
    })
