"""Result model for schema validation.

Mirrors the reference result type and its string-valued codes
(/root/reference/src/schisma_result.mjs:12-58) so violation rows compare
row-for-row. Codes are the exact reference string literals
(src/schisma_result.mjs:34-57).
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

UNHANDLED = "unhandled"
PARTIAL_MATCH = "partial match"
EXACT_MATCH = "exact match"
NO_MATCH = "no match"
UNEXPECTED_KEY = "unexpected key"
MISSING_KEY = "missing key"
INVALID = "invalid"
VALID = "valid"

#: Codes that count as problems (src/schisma_result.mjs:25-33).
PROBLEM_CODES = frozenset(
    {PARTIAL_MATCH, NO_MATCH, UNEXPECTED_KEY, MISSING_KEY, INVALID}
)


class _Unset:
    """Sentinel for 'field never assigned' (JS: property absent)."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):  # pragma: no cover
        return "<unset>"

    def __bool__(self):
        return False


UNSET = _Unset()


class SchemaResult:
    """One validation outcome for one node of the document tree.

    Field presence mirrors the reference constructor
    (src/schisma_result.mjs:13-24): a field is only set when provided.
    ``where`` may be a string key/path or an int array index.
    """

    __slots__ = (
        "code",
        "where",
        "expected",
        "expected_schema",
        "received",
        "value",
        "type_index",
        "errors",
        "results",
        "message",
    )

    def __init__(
        self,
        code: str,
        *,
        where: Any = UNSET,
        expected: Any = UNSET,
        expected_schema: Any = UNSET,
        received: Any = UNSET,
        value: Any = UNSET,
        type_index: Any = UNSET,
        errors: Any = None,
        results: Any = None,
        message: Any = None,
    ):
        self.code = code
        self.where = where
        self.expected = expected
        self.expected_schema = expected_schema
        self.received = received
        self.value = value
        self.type_index = type_index
        # reference: `if (extra.errors) ...` — truthiness, so [] stays set
        # only if passed; we keep None = absent, list (possibly empty) = set.
        self.errors = errors
        self.results = results
        self.message = message

    def is_problem(self) -> bool:
        return self.code in PROBLEM_CODES

    def to_dict(self) -> dict:
        """Serialize set fields (for golden-fixture comparison)."""
        d: dict[str, Any] = {"code": self.code}
        if self.where is not UNSET:
            d["where"] = self.where
        if self.expected is not UNSET:
            d["expected"] = self.expected
        if self.expected_schema is not UNSET:
            d["expectedSchema"] = self.expected_schema
        if self.received is not UNSET:
            d["received"] = self.received
        if self.value is not UNSET:
            d["value"] = self.value
        if self.type_index is not UNSET:
            d["__typeIndex"] = self.type_index
        if self.errors:
            d["errors"] = [e.to_dict() for e in self.errors]
        if self.results:
            d["results"] = [r.to_dict() for r in self.results]
        if self.message:
            d["message"] = self.message
        return d

    def __repr__(self):  # pragma: no cover
        return f"SchemaResult({self.to_dict()!r})"


#: One row per (row, problem): the shape every validation stage emits.
VIOLATION_SCHEMA = pa.schema(
    [
        ("row_ref", pa.string()),
        ("path", pa.string()),
        ("code", pa.string()),
        ("expected", pa.string()),
        ("received", pa.string()),
        ("message", pa.string()),
        ("check", pa.string()),
    ]
)


def violation_table(row_ref, path, code, *, expected=None, received=None,
                    message=None, check) -> pa.Table:
    """The violation rows of ``row_ref`` (an Arrow string array or a list
    of str): one per entry. Every other field is an array or list of the
    same length, or one value (str or None) broadcast to every row."""
    n = len(row_ref)

    def col(v):
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            return v
        return pa.array(v if isinstance(v, list) else [v] * n, pa.string())

    return pa.Table.from_arrays(
        [col(row_ref), col(path), col(code), col(expected), col(received),
         col(message), col(check)],
        schema=VIOLATION_SCHEMA,
    )
