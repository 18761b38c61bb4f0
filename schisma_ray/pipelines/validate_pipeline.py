"""Flagship pipeline: full validation of the image+caption table.

Composes every check family over one streaming read:

  read_parquet (column-pruned per stage)
    ├─ schema stage      map_batches(TableValidator)     [task]
    ├─ decode stage      map_batches(DecodeValidator)    [task]
    ├─ uniqueness stage  partial-agg -> groupby -> broadcast re-scan
    └─ referential stage broadcast anti-join
  -> union -> one violations Dataset (schema sources/image_table.VIOLATION_SCHEMA)

Column pruning matters: the schema/uniqueness/referential stages never
read ``bytes`` (the heavy column); only the decode stage does.

Every per-batch stage is a callable instance, not a class, so Ray runs
it as a task fused into its read and a batch is the read block.
``fused=True`` runs schema and decode in one such task over one read.
"""

from __future__ import annotations

from pathlib import Path

import ray.data as rd

from ..schema import BigInt, String
from ..sources import image_table
from ..stages import ColumnSpec, TableSchema, in_set, range_check
from ..stages.decoder import DecodeConformer, DecodeValidator
from ..stages.referential import referential_violations
from ..stages.uniqueness import uniqueness_violations
from ..stages.validate import TableValidator

LIGHT_COLUMNS = ["image_id", "w", "h", "fmt", "caption", "phash"]
DECODE_COLUMNS = ["image_id", "bytes", "w", "h", "fmt"]


def image_table_schema() -> TableSchema:
    """The canonical input_hint schema with engine invariants."""
    return TableSchema(
        {
            "image_id": String,
            "bytes": bytes,
            "w": ColumnSpec(BigInt, checks=[range_check(1, 65535)]),
            "h": ColumnSpec(BigInt, checks=[range_check(1, 65535)]),
            "fmt": ColumnSpec(String, checks=[in_set(["png", "jpeg", "webp"])]),
            "caption": String,
            "phash": BigInt,
        },
        id_column="image_id",
    )


def read_images(table_dir: str | Path, columns: list[str] | None = None):
    """Read the image table (Lance-first, parquet fallback), one block per
    fragment file.

    Ray's default heuristic block-splits bytes-heavy fragments, and each
    split slice re-serializes its parent buffer — a silent copy
    amplification (measured 3-4x read CPU). Fragments are generated at
    ~24 MB precisely so one-block-per-file is the right granularity.
    """
    from ..sources.reader import read_table

    return read_table(Path(table_dir) / "images", columns=columns)


class FusedValidator:
    """Schema + decode validation in ONE pass over the full row.

    One read of the (bytes-heavy) table instead of two, one stage in the
    plan instead of a union branch — the right shape when the decode
    stage touches every row anyway. Runs as a task fused into the read
    (see the NOTE in ``validate_images``).
    """

    def __init__(self, full_decode: bool = True):
        import pyarrow as _pa  # noqa: F401 (worker import warm-up)

        self.schema_v = TableValidator(image_table_schema())
        self.decode_v = DecodeValidator(full_decode, report_missing_bytes=False)

    def __call__(self, batch):
        import pyarrow as pa

        return pa.concat_tables([self.schema_v(batch), self.decode_v(batch)])


def validate_images(
    table_dir: str | Path,
    *,
    decode: bool = True,
    uniqueness: bool = True,
    referential: bool = True,
    fused: bool = False,
):
    """Violations Dataset for every enabled check family (streaming)."""
    table_dir = Path(table_dir)
    ts = image_table_schema()

    if fused and decode:
        # NOTE: no explicit batch_size and no actor pool here — both break
        # Ray's read->map operator fusion, which would push every bytes
        # block through the object store (measured 20x read-CPU inflation
        # from concurrent plasma puts). Fused, the image bytes never
        # leave the read task; a fragment (~24 MB) is the batch.
        full = read_images(table_dir)
        parts = [
            full.map_batches(
                FusedValidator(),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        ]
    else:
        light = read_images(table_dir, LIGHT_COLUMNS)
        parts = [
            light.map_batches(
                TableValidator(ts.subset(LIGHT_COLUMNS)),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        ]
        if decode:
            heavy = read_images(table_dir, DECODE_COLUMNS)
            parts.append(
                heavy.map_batches(
                    DecodeValidator(),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                )
            )
    if uniqueness:
        keys = read_images(table_dir, ["image_id", "phash"])
        parts.append(uniqueness_violations(keys, "phash", id_column="image_id"))
    if referential:
        ref = rd.read_parquet(str(table_dir / "reference_ids.parquet"))
        ids = read_images(table_dir, ["image_id"])
        parts.append(
            referential_violations(ids, "image_id", ref, strategy="broadcast")
        )
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


class FusedConformer:
    """Schema conform + decode conform in one pass (fusable with the read)."""

    def __init__(self):
        from ..stages.conform import TableConformer

        self.schema_c = TableConformer(image_table_schema())
        self.decode_c = DecodeConformer()

    def __call__(self, batch):
        return self.decode_c(self.schema_c(batch))


def conform_images(table_dir: str | Path):
    """Repaired table Dataset: schema conform then decode conform, both
    inside the read task (operator fusion; bytes never round-trip the
    object store)."""
    return read_images(table_dir).map_batches(
        FusedConformer(), batch_format="pyarrow", zero_copy_batch=True
    )
