"""Flagship pipeline: full validation of the image+caption table.

Runs every check family in ONE read task, with no union:

  duplicate_keys(read ["phash"])         narrow key fold -> dup keys
  pq.read_table(reference_ids.parquet)   driver read -> reference ids
  read_parquet (all columns)
    -> map_batches(Checks: TableValidator + DecodeValidator
                   + DuplicateRows(dup keys) + OrphanRows(reference ids))
  -> one violations Dataset (schema sources/image_table.VIOLATION_SCHEMA)

Both key sets are collected while the plan is built and ``ray.put``
once; each batch then tests its keys with a vectorized ``is_in``. So
the image table is read once in full, plus the narrow ``phash`` fold.

Every per-batch check is a callable instance, not a class, so Ray runs
it as a task fused into its read and a batch is the read block.
``fused=False`` runs the row checks over the light columns instead and
decodes in a second read, unioned in.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow.parquet as pq

from ..schema import BigInt, String
from ..sources import image_table
from ..stages import ColumnSpec, TableSchema, in_set, range_check
from ..stages.decoder import DecodeConformer, DecodeValidator
from ..stages.referential import OrphanRows
from ..stages.uniqueness import DuplicateRows, duplicate_keys
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


class Checks:
    """Several per-batch checks as one callable: their violation tables,
    concatenated. Runs as a task fused into the read (see the NOTE in
    ``validate_images``)."""

    def __init__(self, *checks):
        self.checks = checks

    def __call__(self, batch):
        import pyarrow as pa

        return pa.concat_tables([check(batch) for check in self.checks])


class FusedValidator(Checks):
    """Schema + decode validation in ONE pass over the full row.

    One read of the (bytes-heavy) table instead of two — the right shape
    when the decode stage touches every row anyway.
    """

    def __init__(self, full_decode: bool = True):
        super().__init__(TableValidator(image_table_schema()),
                         DecodeValidator(full_decode, report_missing_bytes=False))


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
    if fused and decode:
        read, checks = read_images(table_dir), [FusedValidator()]
    else:
        read = read_images(table_dir, LIGHT_COLUMNS)
        checks = [TableValidator(image_table_schema().subset(LIGHT_COLUMNS))]
    if uniqueness:
        dup = duplicate_keys(read_images(table_dir, ["phash"]), "phash")
        if dup.num_rows:
            checks.append(DuplicateRows(dup, "phash", "image_id"))
    if referential:
        # the broadcast folds every id onto the driver anyway: read them there
        ref = pq.read_table(table_dir / "reference_ids.parquet")
        checks.append(OrphanRows(ref, "image_id"))
    # NOTE: no explicit batch_size and no actor pool here — both break
    # Ray's read->map operator fusion, which would push every bytes
    # block through the object store (measured 20x read-CPU inflation
    # from concurrent plasma puts). Fused, the image bytes never leave
    # the read task; a fragment (~24 MB) is the batch.
    out = read.map_batches(Checks(*checks), batch_format="pyarrow",
                           zero_copy_batch=True)
    if decode and not fused:
        heavy = read_images(table_dir, DECODE_COLUMNS)
        out = out.union(heavy.map_batches(DecodeValidator(), batch_format="pyarrow",
                                          zero_copy_batch=True))
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
