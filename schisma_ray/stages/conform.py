"""Batch conform: `ds.map_batches(TableConformer(schema))` -> repaired batch.

Implements the reference's repair actions (SURVEY.md §2 C1-C8) at batch
granularity:

* C3  unexpected column  -> dropped (column projection)
* C4  missing column     -> added, filled with the schema default
* C4  null cell, required-> filled with the schema default
* C1  wrong-typed column -> vectorized JS coercion (Number()/String()/
      Boolean()/BigInt() semantics; NaN/throw falls back to the default,
      mirroring src/schisma.mjs:579-607)
* residual columns       -> row kernel ``conform`` per value (exact
      reference semantics for unions/nested/arrays), through
      ``table_schema.conform_values``, the conform a JSON column runs too;
      a null struct member is an absent key there, as in validate

Engine-defined divergences (documented, reference-verified):
* the reference *throws* on a failed ``$validate`` during conform
  ("Unhandled: invalid:..."); the batch conformer instead repairs the
  value with the column default (validation reports it; conform is
  total). The row kernel keeps the reference throw.
* JS BigInt() throws on junk; the batch conformer repairs with the
  column default instead of failing the whole batch. A residual or JSON
  value the row kernel throws on (``JSError``) takes the default the
  same way.

Output column order is the schema's declaration order; Arrow types are
preserved when compatible, canonicalized when coerced.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema.jstypes import (
    JSError,
    format_number,
    js_bigint,
    js_boolean,
    js_json_stringify,
    js_number,
    js_string,
)
from .table_schema import TableSchema, arrow_js_typeof, conform_values, js_values

_CANONICAL = {
    "Number": pa.float64(),
    "BigInt": pa.int64(),
    "String": pa.string(),
    "Boolean": pa.bool_(),
    "bytes": pa.binary(),
    "Null": pa.null(),
}


class TableConformer:
    """Callable batch transform: pa.Table -> conformed pa.Table."""

    def __init__(self, table_schema: TableSchema, conf: dict | None = None):
        self.ts = table_schema
        self.conf = conf or {}
        # per-column default value (create() result), computed once
        self.defaults: dict[str, Any] = {
            name: plan.node.create(self.conf) for name, plan in table_schema.plans.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        ts = self.ts
        n = batch.num_rows
        names = []
        arrays = []
        batch_cols = set(batch.schema.names)
        for name, plan in ts.plans.items():
            names.append(name)
            if name not in batch_cols:
                arrays.append(self._full_default(plan, n))
                continue
            col = batch[name].combine_chunks()
            if plan.residual:
                arrays.append(self._conform_residual(plan, col))
                continue
            if plan.fast_type == "Null":
                arrays.append(pa.nulls(n))
                continue
            if not plan.arrow_type_ok(col.type):
                col = self._coerce(plan, col)
            if plan.required:
                col = self._fill_default(plan, col)
            arrays.append(col)
        return pa.Table.from_arrays(arrays, names=names)

    # ---------------------------------------------------------------- utils
    def _target_type(self, plan) -> pa.DataType:
        return _CANONICAL.get(plan.fast_type, pa.string())

    def _full_default(self, plan, n: int) -> pa.Array:
        v = self.defaults[plan.name]
        if plan.residual:
            return pa.array([v] * n, pa.scalar(v).type)
        t = self._target_type(plan)
        if pa.types.is_null(t):
            return pa.nulls(n)
        return pa.array([v] * n, t)

    def _fill_default(self, plan, col: pa.Array) -> pa.Array:
        if col.null_count == 0:
            return col
        v = self.defaults[plan.name]
        if pa.types.is_null(col.type):
            return pa.array([v] * len(col), self._target_type(plan))
        return pc.fill_null(col, pa.scalar(v, col.type))

    # ------------------------------------------------------------- coercion
    def _coerce(self, plan, col: pa.Array) -> pa.Array:
        kind = plan.fast_type
        src = arrow_js_typeof(col.type)
        default = self.defaults[plan.name]
        t = col.type
        if kind == "Number":
            if pa.types.is_integer(t) or pa.types.is_boolean(t):
                return pc.cast(col, pa.float64())
            vals = col.to_pylist()
            out = [None if v is None else _num_or(default, v) for v in vals]
            return pa.array(out, pa.float64())
        if kind == "BigInt":
            if pa.types.is_boolean(t):
                return pc.cast(col, pa.int64())
            vals = col.to_pylist()
            return pa.array(
                [None if v is None else _bigint_or(default, v) for v in vals],
                pa.int64(),
            )
        if kind == "String":
            if pa.types.is_floating(t):
                return pa.array(
                    [None if v is None else format_number(v) for v in col.to_pylist()],
                    pa.string(),
                )
            if pa.types.is_boolean(t):
                return pc.if_else(col, "true", "false")
            if pa.types.is_integer(t):
                return pc.cast(col, pa.string())
            vals = col.to_pylist()
            out = []
            for v in vals:
                if v is None:
                    out.append(None)
                elif isinstance(v, (dict, list)):
                    out.append(js_json_stringify(v))
                else:
                    out.append(js_string(v))
            return pa.array(out, pa.string())
        if kind == "Boolean":
            if pa.types.is_floating(t):
                arr = col.to_numpy(zero_copy_only=False)
                good = ~np.isnan(arr) & (arr != 0)
                out = pa.array(good, pa.bool_())
                return _mask_nulls(out, col)
            if pa.types.is_integer(t):
                return _mask_nulls(pc.not_equal(col, 0), col)
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                return _mask_nulls(pc.not_equal(col, ""), col)
            return pa.array(
                [None if v is None else js_boolean(v) for v in col.to_pylist()],
                pa.bool_(),
            )
        if kind == "bytes":
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                return pc.cast(col, pa.binary())
            return pa.array(
                [None if v is None else default for v in col.to_pylist()], pa.binary()
            )
        # unknown target: stringify
        return pa.array(
            [None if v is None else js_string(v) for v in col.to_pylist()], pa.string()
        )

    def _conform_residual(self, plan, col: pa.Array) -> pa.Array:
        default = self.defaults[plan.name]
        values = js_values(col)
        at = [i for i, v in enumerate(values) if v is not None]
        out = [default if plan.required else None] * len(values)
        conformed = conform_values(plan.node, [values[i] for i in at], default, self.conf)
        for i, v in zip(at, conformed):
            out[i] = v
        return pa.array(out)


def _num_or(default, v) -> float:
    out = js_number(v)
    return default if (isinstance(out, float) and math.isnan(out)) else out


def _bigint_or(default, v) -> int:
    try:
        return js_bigint(v)
    except JSError:
        return default


def _mask_nulls(out: pa.Array, src: pa.Array) -> pa.Array:
    if src.null_count == 0:
        return out
    return pc.if_else(pc.is_null(src), pa.scalar(None, out.type), out)
