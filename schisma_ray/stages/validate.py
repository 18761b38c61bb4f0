"""Batch validation: `ds.map_batches(TableValidator(schema))` -> violations.

Emits one violation row per (row, problem), with the reference's exact
result codes and dot-paths (see schema/result.py). Vectorized Arrow
kernels handle nulls/types/invariants; only residual columns (unions,
nested values, hooks) drop to the row kernel.

Reference parity notes (SURVEY.md §2 V5):
* unexpected / missing COLUMNS are detected once per batch (Arrow
  batches have fixed schemas) and emitted for every row — same rows the
  reference would emit per-document.
* ``unexpected key``.received carries the stringified cell value, as the
  reference stores the received value (src/schisma.mjs:302-305).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import PROBLEM_CODES, SchemaNode, SchemaResult
from ..schema.jstypes import format_number
from ..schema.result import PARTIAL_MATCH, UNSET
from ..sources.image_table import VIOLATION_SCHEMA
from .table_schema import TableSchema, arrow_js_typeof, _expected_name


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


def flatten_rooted(node: SchemaNode, value: Any, root_where: str, conf: dict | None = None):
    """Validate one value as if it were field ``root_where`` of a row.

    Returns flat problem results with dot-paths prefixed by the column
    name — identical to what the reference produces when validating the
    whole row object (flatten logic of src/schisma.mjs:117-133 applied
    to the column's subtree).
    """
    res = node._validate(value, {**_VCONF, **(conf or {})}, root_where)
    if not res.is_problem():
        return []
    flat: list[SchemaResult] = []

    def add_children(err: SchemaResult) -> None:
        if err.errors is not None:
            next_errors = err.errors
            for e in next_errors:
                e.where = f"{err.where}.{e.where}"
            err.errors = None
            flat.append(err)
            for e in next_errors:
                add_children(e)
        else:
            flat.append(err)

    add_children(res)
    return [e for e in flat if e.code != PARTIAL_MATCH]


_VCONF = {
    "ignoreUnexpected": False,
    "ignoreRequired": False,
    "ignoreShortArrays": True,
    "ignoreLongArrays": True,
    "matchArray": "any",
    "flattenErrors": False,
    "filterNonErrors": False,
}


class _Builder:
    """Accumulates violation pieces as arrays; concatenated once per batch."""

    __slots__ = ("refs", "pieces")

    def __init__(self, refs: pa.Array):
        self.refs = refs
        self.pieces: list[pa.Table] = []

    def _mk(self, refs, n, path, code, expected, received, message, check):
        def col(v, is_array_ok=True):
            if isinstance(v, (pa.Array, pa.ChunkedArray)):
                return v
            return pa.array([v] * n, pa.string())

        self.pieces.append(
            pa.Table.from_arrays(
                [
                    refs,
                    col(path),
                    col(code),
                    col(expected),
                    col(received),
                    col(message),
                    col(check),
                ],
                schema=VIOLATION_SCHEMA,
            )
        )

    def all_rows(self, path, code, *, expected=None, received=None, message=None, check="schema"):
        n = len(self.refs)
        self._mk(self.refs, n, path, code, expected, received, message, check)

    def mask(self, mask: np.ndarray, path, code, *, expected=None, received=None, message=None, check="schema"):
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            return
        take = pa.array(idx, pa.int64())
        refs = pc.take(self.refs, take)
        if isinstance(received, (pa.Array, pa.ChunkedArray)):
            received = pc.take(received, take)
        self._mk(refs, len(idx), path, code, expected, received, message, check)

    def rows(self, indices: list[int], columns: dict[str, list]):
        if not indices:
            return
        take = pa.array(indices, pa.int64())
        refs = pc.take(self.refs, take)
        n = len(indices)
        self._mk(
            refs,
            n,
            pa.array(columns["path"], pa.string()),
            pa.array(columns["code"], pa.string()),
            pa.array(columns["expected"], pa.string()),
            pa.array(columns["received"], pa.string()),
            pa.array(columns["message"], pa.string()),
            pa.array(columns["check"], pa.string()),
        )

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
        values = col.to_pylist()
        idx: list[int] = []
        cols = {k: [] for k in ("path", "code", "expected", "received", "message", "check")}
        for i, v in enumerate(values):
            if null_mask[i]:
                continue
            for err in flatten_rooted(plan.node, _to_js(v), plan.name, self.conf):
                if err.code not in PROBLEM_CODES:
                    continue
                idx.append(i)
                cols["path"].append(str(err.where))
                cols["code"].append(err.code)
                exp = err.expected
                cols["expected"].append(
                    None if exp is UNSET else _expected_name(exp) if not isinstance(exp, str) else exp
                )
                rec = err.received
                cols["received"].append(
                    None if rec is UNSET else rec if isinstance(rec, str) else _js_str(rec)
                )
                cols["message"].append(err.message if err.message else None)
                cols["check"].append(self.check_label)
        b.rows(idx, cols)


def _to_js(v: Any) -> Any:
    """Arrow pylist value -> kernel value model (already aligned)."""
    return v


def _js_str(v: Any) -> str:
    from ..schema.jstypes import js_string

    return js_string(v)


def violations_dataset(ds, table_schema: TableSchema, **map_kwargs):
    """`ds` (Arrow batches) -> violations Dataset (streaming)."""
    kwargs = dict(batch_format="pyarrow", zero_copy_batch=True)
    kwargs.update(map_kwargs)
    return ds.map_batches(TableValidator(table_schema), **kwargs)


class JsonColumnConformer:
    """The reference's conform over a JSON string column — parse
    with JS number semantics, repair via the full kernel (coercions,
    default insertion, unexpected-key removal, ``__typeIndex`` union
    dispatch), re-serialize with ``JSON.stringify`` formatting (compact,
    JS number strings). Null cells stay null; unparseable payloads
    conform to the schema's default instance (the create() path)."""

    def __init__(self, schema_literal, col: str, id_col: str,
                 conf: dict | None = None, out_col: str | None = None):
        self.node = (
            schema_literal
            if isinstance(schema_literal, SchemaNode)
            else SchemaNode(schema_literal)
        )
        self.col = col
        self.id_col = id_col
        self.conf = dict(conf or {})
        self.out_col = out_col or col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json

        from ..schema.jstypes import js_json_stringify

        out = []
        for s in batch[self.col].to_pylist():
            if s is None:
                out.append(None)
                continue
            try:
                doc = json.loads(s, parse_int=float)
            except ValueError:
                out.append(js_json_stringify(self.node.create(dict(self.conf))))
                continue
            out.append(
                js_json_stringify(self.node.conform(doc, dict(self.conf)))
            )
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
    number semantics (every number -> float, as ``JSON.parse`` yields
    JS numbers); the ``SchemaNode`` is compiled once per instance;
    violations come out dot-prefixed with the column name
    (``props.k``), codes/strings identical to the reference.
    """

    def __init__(self, schema_literal, col: str, id_col: str,
                 conf: dict | None = None, check: str = "json"):
        self.node = (
            schema_literal
            if isinstance(schema_literal, SchemaNode)
            else SchemaNode(schema_literal)
        )
        self.col = col
        self.id_col = id_col
        self.conf = dict(conf or {})
        self.check = check

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json

        ids = stringify_column(batch[self.id_col].combine_chunks()).to_pylist()
        texts = batch[self.col].to_pylist()
        refs, paths, codes, exps, recs, msgs = [], [], [], [], [], []

        def emit(rid, path, code, expected, received, message):
            refs.append(rid)
            paths.append(path)
            codes.append(code)
            exps.append(expected)
            recs.append(received)
            msgs.append(message)

        for rid, s in zip(ids, texts):
            if s is None:
                continue  # column-level null checks belong to the schema stage
            try:
                doc = json.loads(s, parse_int=float)
            except ValueError:
                emit(rid, self.col, "invalid", "valid JSON", "unparseable", None)
                continue
            for r in self.node.validate(doc, dict(self.conf)):
                where = "" if r.where is UNSET else str(r.where)
                path = f"{self.col}.{where}" if where else self.col
                exp = None if r.expected is UNSET else _js_str(r.expected)
                rec = None if r.received is UNSET else _js_str(r.received)
                msg = None if r.message is UNSET or r.message is None else str(r.message)
                emit(rid, path, r.code, exp, rec, msg)
        n = len(refs)
        return pa.Table.from_arrays(
            [
                pa.array(refs, pa.string()),
                pa.array(paths, pa.string()),
                pa.array(codes, pa.string()),
                pa.array(exps, pa.string()),
                pa.array(recs, pa.string()),
                pa.array(msgs, pa.string()),
                pa.array([self.check] * n, pa.string()),
            ],
            schema=VIOLATION_SCHEMA,
        )
