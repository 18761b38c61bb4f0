"""Table-level schema: the bridge from the row kernel to Arrow batches.

A ``TableSchema`` maps column name -> kernel schema literal (plus
optional vectorized invariant checks). At compile time each column is
classified:

* **fast path** — the literal is a single Class-kind node for one of the
  JS primitive types (or ``bytes``): validation is a per-batch Arrow
  type comparison plus a vectorized null mask. Zero per-row Python.
* **residual path** — unions, nested objects/arrays, regex keys or
  ``$validate``/``$unmarshal`` hooks: values fall back to the row kernel
  (exact reference semantics), still batched inside the same function.

The row-kernel fallback is written once, here: ``validate_values`` turns
kernel results into violation rows and ``conform_values`` conforms
values through the kernel. A residual column (``js_values`` of its Arrow
cells) and a JSON column (``json.loads`` of its text) both run them.

Null mapping (engine decision, documented in SURVEY.md §7 hard parts):
an Arrow **null cell is JS `undefined`** (the key is absent), so a null
in a required column emits ``missing key`` — Arrow has no undefined/null
distinction, and "absent" is what a null cell means in a table. A
schema can still model explicit JS ``null`` with the ``Null`` type. The
same holds one level down: a null struct member is an absent key
(``js_values``). A JSON ``null`` is JS ``null``.

Vectorized checks are the engine's ``$validate`` equivalent: they take
the whole column and return a violation mask, and emit rows with code
``invalid`` — the same code the reference's ``$validate`` produces
(src/schisma.mjs:141-172).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import PROBLEM_CODES, SchemaNode
from ..schema.jstypes import (BigInt, Boolean, JSError, JSType, Null, Number,
                              String, js_string)
from ..schema.result import UNSET, violation_table

#: JSType -> acceptable Arrow types (fast-path type check)
_JS_NAME = {
    "Number": "number",
    "BigInt": "bigint",
    "String": "string",
    "Boolean": "boolean",
    "Null": "object",
}


def arrow_js_typeof(t: pa.DataType) -> str:
    """js_typeof of the values held by an Arrow column of type ``t``."""
    if pa.types.is_floating(t):
        return "number"
    if pa.types.is_integer(t):
        return "bigint"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "string"
    if pa.types.is_boolean(t):
        return "boolean"
    return "object"  # binary, struct, list, map, timestamp, null, ...


def _np_bool(arr) -> np.ndarray:
    """Arrow boolean array -> numpy bool mask (nulls -> False)."""
    return pc.fill_null(arr, False).to_numpy(zero_copy_only=False).astype(bool)


def _plain(col):
    """Decode dictionary-encoded columns before value comparisons —
    parquet readers may preserve dictionary pages, and kernels like
    ``is_in`` reject dictionary arrays against a plain value set."""
    if pa.types.is_dictionary(col.type):
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return col.dictionary_decode()
    return col


def _expected_name(alt: Any) -> str:
    if isinstance(alt, JSType):
        return alt.name
    return getattr(alt, "__name__", str(alt))


def _text(v: Any) -> str | None:
    """A kernel result field as violation-row text: a type by its name,
    a value as JS ``String()``."""
    if v is UNSET:
        return None
    if isinstance(v, str):
        return v
    if isinstance(v, JSType) or callable(v):
        return _expected_name(v)
    return js_string(v)


def _drop_null_members(v: Any) -> Any:
    if isinstance(v, dict):
        return {k: _drop_null_members(x) for k, x in v.items() if x is not None}
    if isinstance(v, list):
        return [_drop_null_members(x) for x in v]
    return v


def js_values(col: pa.Array) -> list:
    """An Arrow column's cells in the kernel's value model. A null struct
    member is JS ``undefined``, so its key is absent; a null cell stays
    ``None`` for the caller's null rule."""
    return [_drop_null_members(v) for v in col.to_pylist()]


def validate_values(node: SchemaNode, values: list, refs: pa.Array, root: str,
                    conf: dict | None, check: str) -> pa.Table:
    """The row kernel's problems with ``values`` as violation rows:
    ``node.validate`` on each value, its paths rooted at ``root`` (the
    kernel's ``dot`` roots only the top result), ``refs[i]`` the
    ``row_ref`` of every row of ``values[i]``."""
    # a violation row is one flat problem, whatever the caller's conf asks
    conf = {**(conf or {}), "flattenErrors": True, "filterNonErrors": True}
    at, paths, codes, exps, recs, msgs = [], [], [], [], [], []
    for i, v in enumerate(values):
        for r in node.validate(v, conf):
            if r.code not in PROBLEM_CODES:
                continue
            where = "" if r.where is UNSET else str(r.where)
            at.append(i)
            paths.append(f"{root}.{where}" if where else root)
            codes.append(r.code)
            exps.append(_text(r.expected))
            recs.append(_text(r.received))
            msgs.append(str(r.message) if r.message else None)
    return violation_table(refs.take(pa.array(at, pa.int64())), paths, codes,
                           expected=exps, received=recs, message=msgs,
                           check=check)


def conform_values(node: SchemaNode, values: list, default: Any,
                   conf: dict | None) -> list:
    """``values`` conformed through the row kernel. Conform is total: a
    value the kernel throws on (``JSError``) becomes ``default``."""
    out = []
    for v in values:
        try:
            out.append(node.conform(v, conf))
        except JSError:
            out.append(default)
    return out


@dataclass
class Check:
    """A vectorized column invariant (engine-level ``$validate``).

    ``fn(col: pa.Array) -> np.ndarray[bool]`` returns the VIOLATION mask
    (True = row fails). Nulls are excluded by the caller. ``expected``
    describes the invariant; ``received`` defaults to the stringified
    cell value.
    """

    name: str
    fn: Callable[[pa.Array], np.ndarray]
    expected: str
    message: str | None = None


def range_check(lo=None, hi=None) -> Check:
    def fn(col: pa.Array) -> np.ndarray:
        col = _plain(col)
        bad = np.zeros(len(col), dtype=bool)
        if lo is not None:
            bad |= _np_bool(pc.less(col, lo))
        if hi is not None:
            bad |= _np_bool(pc.greater(col, hi))
        return bad

    desc = (
        f">={lo}" if hi is None else f"<={hi}" if lo is None else f"in [{lo}, {hi}]"
    )
    return Check(f"range{desc}", fn, desc)


def finite_check() -> Check:
    """Violation for NaN / +inf / -inf values (nulls are the caller's
    concern, as everywhere) — the float-sanity invariant for embedding
    and metric columns."""

    def fn(col: pa.Array) -> np.ndarray:
        return ~_np_bool(pc.is_finite(_plain(col)))

    return Check("finite", fn, "finite")


def in_set(values) -> Check:
    values = list(values)

    def fn(col: pa.Array) -> np.ndarray:
        col = _plain(col)
        ok = pc.is_in(col, value_set=pa.array(values, col.type))
        return ~_np_bool(ok)

    return Check("in_set", fn, f"one of {values}")


def str_len_between(lo=None, hi=None) -> Check:
    def fn(col: pa.Array) -> np.ndarray:
        lengths = pc.utf8_length(_plain(col))
        bad = np.zeros(len(col), dtype=bool)
        if lo is not None:
            bad |= _np_bool(pc.less(lengths, lo))
        if hi is not None:
            bad |= _np_bool(pc.greater(lengths, hi))
        return bad

    return Check("str_len", fn, f"length in [{lo}, {hi}]")


def regex_match(pattern: str) -> Check:
    def fn(col: pa.Array) -> np.ndarray:
        ok = pc.match_substring_regex(_plain(col), pattern)
        return ~_np_bool(ok)

    return Check("regex", fn, f"matches /{pattern}/")


def not_empty() -> Check:
    def fn(col: pa.Array) -> np.ndarray:
        return _np_bool(pc.equal(_plain(col), ""))

    return Check("not_empty", fn, "non-empty string")


@dataclass
class ColumnSpec:
    literal: Any
    checks: list[Check] = field(default_factory=list)
    required: bool | None = None  # override; default = node.required


@dataclass
class _ColumnPlan:
    name: str
    node: SchemaNode
    required: bool
    checks: list[Check]
    fast_type: str | None  # JSType name or 'bytes' when vectorizable
    residual: bool

    def arrow_type_ok(self, t: pa.DataType) -> bool:
        if self.fast_type == "bytes":
            return pa.types.is_binary(t) or pa.types.is_large_binary(t)
        if self.fast_type == "Null":
            return pa.types.is_null(t)
        return arrow_js_typeof(t) == _JS_NAME[self.fast_type]


class TableSchema:
    """Compiled table schema; picklable, compiled once on the driver.

    ``columns`` maps column name -> kernel schema literal or
    ``ColumnSpec``. The compiled object ships to workers inside the
    ``map_batches`` closure (small: node trees + check callables).
    """

    def __init__(
        self,
        columns: dict[str, Any],
        *,
        ignore_unexpected: bool = False,
        id_column: str | None = None,
    ):
        self.ignore_unexpected = ignore_unexpected
        self.id_column = id_column
        self.plans: dict[str, _ColumnPlan] = {}
        for name, spec in columns.items():
            if not isinstance(spec, ColumnSpec):
                spec = ColumnSpec(spec)
            node = SchemaNode(spec.literal)
            fast = self._fast_type(node)
            self.plans[name] = _ColumnPlan(
                name=name,
                node=node,
                required=spec.required if spec.required is not None else node.required,
                checks=spec.checks,
                fast_type=fast,
                residual=fast is None,
            )

    @staticmethod
    def _fast_type(node: SchemaNode) -> str | None:
        """Single-alternative Class node without hooks -> vectorizable."""
        if node.validate_fn is not None or node.unmarshal is not None:
            return None
        if node.kind not in ("Class", "Primitive", "Null", "SchismaObject"):
            return None
        if len(node.typeof) != 1:
            return None
        alt = node.typeof[0]
        if isinstance(alt, JSType):
            return alt.name
        if alt is bytes:
            return "bytes"
        if isinstance(alt, SchemaNode):  # SchismaObject with one alternative
            return TableSchema._fast_type(alt)
        return None

    def subset(self, names) -> "TableSchema":
        """Schema restricted to ``names`` — for column-pruned stages that
        only see a projection (a pruned read is not a missing column)."""
        out = TableSchema.__new__(TableSchema)
        out.ignore_unexpected = self.ignore_unexpected
        out.id_column = self.id_column
        out.plans = {n: self.plans[n] for n in names if n in self.plans}
        return out

    def expected_names(self) -> dict[str, str]:
        out = {}
        for name, plan in self.plans.items():
            alt = plan.node.typeof[0] if plan.node.typeof else None
            out[name] = _expected_name(alt)
        return out
