"""Batch validation: `ds.map_batches(TableValidator(schema))` -> violations.

Emits one violation row per (row, problem), with the reference's exact
result codes and dot-paths (see schema/result.py). Vectorized Arrow
kernels handle nulls/types/invariants; only residual columns (unions,
nested values, hooks) and JSON columns drop to the row kernel, both
through ``table_schema.validate_values``.

Reference parity notes (SURVEY.md §2 V5):
* unexpected / missing COLUMNS are detected once per batch (Arrow
  batches have fixed schemas) and emitted for every row — same rows the
  reference would emit per-document.
* ``unexpected key``.received carries the stringified cell value, as the
  reference stores the received value (src/schisma.mjs:302-305).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import SchemaNode
from ..schema.jstypes import format_number, js_json_stringify
from ..schema.result import VIOLATION_SCHEMA, violation_table
from .table_schema import (TableSchema, _expected_name, arrow_js_typeof,
                           conform_values, js_values, validate_values)


def stringify_column(col: pa.Array) -> pa.Array:
    """Stringified cell values (JS String() formatting for floats)."""
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return col
    if pa.types.is_floating(t):
        vals = col.to_pylist()
        return pa.array(
            [None if v is None else format_number(v) for v in vals], pa.string()
        )
    if pa.types.is_boolean(t):
        return pc.if_else(col, "true", "false")
    try:
        return pc.cast(col, pa.string())
    except pa.ArrowNotImplementedError:
        return pa.array(
            [None if v is None else str(v) for v in col.to_pylist()], pa.string()
        )


class _Builder:
    """Accumulates violation pieces as tables; concatenated once per batch."""

    __slots__ = ("refs", "pieces")

    def __init__(self, refs: pa.Array):
        self.refs = refs
        self.pieces: list[pa.Table] = []

    def all_rows(self, path, code, **fields):
        self.pieces.append(violation_table(self.refs, path, code, **fields))

    def mask(self, mask: np.ndarray, path, code, *, received=None, **fields):
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            return
        take = pa.array(idx, pa.int64())
        if isinstance(received, (pa.Array, pa.ChunkedArray)):
            received = pc.take(received, take)
        self.pieces.append(violation_table(pc.take(self.refs, take), path, code,
                                           received=received, **fields))

    def table(self) -> pa.Table:
        if not self.pieces:
            return VIOLATION_SCHEMA.empty_table()
        return pa.concat_tables(self.pieces)


class TableValidator:
    """Callable batch transform: pa.Table -> violations pa.Table.

    Stateless apart from the compiled schema, so it runs as cheap Ray
    tasks: ``ds.map_batches(TableValidator(ts), batch_format="pyarrow",
    zero_copy_batch=True)``. The compiled plan is pickled once into the
    task closure, not per batch.
    """

    def __init__(self, table_schema: TableSchema, check_label: str = "schema",
                 conf: dict | None = None):
        # reference validate() conf flags honored at batch level:
        # ignoreUnexpected / ignoreRequired here; array flags and hooks
        # pass through to the row-kernel residual path
        self.ts = table_schema
        self.check_label = check_label
        self.conf = conf or {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        ts = self.ts
        n = batch.num_rows
        if ts.id_column and ts.id_column in batch.schema.names:
            refs = stringify_column(batch[ts.id_column].combine_chunks())
        else:
            refs = pa.array([None] * n, pa.string())
        b = _Builder(refs)

        batch_cols = set(batch.schema.names)
        ignore_unexpected = self.conf.get("ignoreUnexpected", ts.ignore_unexpected)
        ignore_required = self.conf.get("ignoreRequired", False)
        # unexpected columns (once per batch -> every row)
        if not ignore_unexpected:
            for name in batch.schema.names:
                if name not in ts.plans:
                    b.all_rows(
                        name,
                        "unexpected key",
                        received=stringify_column(batch[name].combine_chunks()),
                        check=self.check_label,
                    )
        # missing columns
        for name, plan in ts.plans.items():
            if name not in batch_cols:
                if plan.required and not ignore_required:
                    b.all_rows(name, "missing key", check=self.check_label)
                continue
            col = batch[name].combine_chunks()
            null_mask = pc.is_null(col).to_numpy(zero_copy_only=False)
            if plan.required and not ignore_required and null_mask.any():
                b.mask(null_mask, name, "missing key", check=self.check_label)
            valid = ~null_mask
            if not valid.any():
                continue
            if not plan.residual:
                if not plan.arrow_type_ok(col.type):
                    b.mask(
                        valid,
                        name,
                        "no match",
                        expected=_expected_name(plan.node.typeof[0]),
                        received=arrow_js_typeof(col.type),
                        check=self.check_label,
                    )
                else:
                    self._run_checks(b, plan, col, valid)
            else:
                self._run_residual(b, plan, col, null_mask)
                self._run_checks(b, plan, col, valid)
        return b.table()

    def _run_checks(self, b: _Builder, plan, col: pa.Array, valid: np.ndarray):
        received_cache = None
        for check in plan.checks:
            bad = check.fn(col)
            bad &= valid
            if not bad.any():
                continue
            if received_cache is None:
                received_cache = stringify_column(col)
            b.mask(
                bad,
                plan.name,
                "invalid",
                expected=check.expected,
                received=received_cache,
                message=check.message,
                check=self.check_label,
            )

    def _run_residual(self, b: _Builder, plan, col: pa.Array, null_mask: np.ndarray):
        idx = np.nonzero(~null_mask)[0]
        values = js_values(col.take(pa.array(idx, pa.int64())))
        b.pieces.append(validate_values(plan.node, values, b.refs.take(idx), plan.name,
                                        self.conf, self.check_label))


def _parse_json(texts: list) -> tuple[list, list[int], list[int]]:
    """JSON texts parsed with JS number semantics (every number a float,
    as ``JSON.parse`` yields JS numbers): (documents, their positions,
    the positions of unparseable texts). A null cell is in neither."""
    docs, at, bad = [], [], []
    for i, s in enumerate(texts):
        if s is None:
            continue
        try:
            docs.append(json.loads(s, parse_int=float))
            at.append(i)
        except ValueError:
            bad.append(i)
    return docs, at, bad


def _node(schema_literal) -> SchemaNode:
    if isinstance(schema_literal, SchemaNode):
        return schema_literal
    return SchemaNode(schema_literal)


class JsonColumnConformer:
    """The reference's conform over a JSON string column — parse
    with JS number semantics, repair via the full kernel (coercions,
    default insertion, unexpected-key removal, ``__typeIndex`` union
    dispatch), re-serialize with ``JSON.stringify`` formatting (compact,
    JS number strings). Null cells stay null; unparseable payloads, and
    documents the kernel throws on, conform to the schema's default
    instance (the create() path)."""

    def __init__(self, schema_literal, col: str, id_col: str,
                 conf: dict | None = None, out_col: str | None = None):
        self.node = _node(schema_literal)
        self.col = col
        self.id_col = id_col
        self.conf = dict(conf or {})
        self.out_col = out_col or col
        self.default = self.node.create(dict(self.conf))

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.col].to_pylist()
        docs, at, bad = _parse_json(texts)
        out = [None] * len(texts)
        for i in bad:
            out[i] = js_json_stringify(self.default)
        for i, doc in zip(at, conform_values(self.node, docs, self.default, self.conf)):
            out[i] = js_json_stringify(doc)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                self.out_col: pa.array(out, pa.string()),
            }
        )


class JsonColumnValidator:
    """The reference's FULL row kernel over a JSON string column.

    The table checks above vectorize flat columns; semi-structured
    payload columns (event properties, API blobs) are where the actual
    schisma semantics — nested descent, unions, ``$validate`` hooks,
    regex keys, dot-paths — run per document. JSON is parsed with JS
    number semantics; the ``SchemaNode`` is compiled once per instance;
    violations come out of ``validate_values``, dot-prefixed with the
    column name (``props.k``), the same rows a residual column gives.
    An unparseable document is one ``invalid`` row at the column.
    """

    def __init__(self, schema_literal, col: str, id_col: str,
                 conf: dict | None = None, check: str = "json"):
        self.node = _node(schema_literal)
        self.col = col
        self.id_col = id_col
        self.conf = dict(conf or {})
        self.check = check

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = stringify_column(batch[self.id_col].combine_chunks())
        # column-level null checks belong to the schema stage
        docs, at, bad = _parse_json(batch[self.col].to_pylist())
        rows = validate_values(self.node, docs, refs.take(pa.array(at, pa.int64())),
                               self.col, self.conf, self.check)
        if not bad:
            return rows
        unparseable = violation_table(refs.take(pa.array(bad, pa.int64())), self.col,
                                      "invalid", expected="valid JSON",
                                      received="unparseable", check=self.check)
        return pa.concat_tables([rows, unparseable])
