"""Native ``pa.struct`` column validation — vectorized nested descent.

SURVEY.md §1.4 maps schisma's nested objects to Arrow struct columns;
the row kernel handles them as Python dicts (exact reference
semantics) through ``table_schema.validate_values``, the one bridge
that a residual struct column and a ``JsonColumnValidator`` JSON-string
column share. This stage is the other shape: a REAL struct column
validated without leaving Arrow — every field check is one
compute-kernel pass over the child array (``pc.struct_field``), nested
structs recurse with dotted paths, and a null child under a non-null
parent is schisma's ``missing key`` (the same null-as-undefined
convention as table_schema.py and its ``js_values``).

Scale shape: pure ``map_batches``, zero shuffle; violations emit as
(id, path, code, expected) rows — the reference's flattened result
contract (src/schisma_result.mjs:34-57 codes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .table_schema import Check, _np_bool


@dataclass
class StructField:
    """One struct member: ``required`` drives missing-key emission;
    ``checks`` are the vectorized invariants (range_check / in_set /
    ...); ``fields`` makes this member itself a nested struct."""

    required: bool = True
    checks: list[Check] = field(default_factory=list)
    fields: dict[str, "StructField"] | None = None


def _emit(out: dict, ids: pa.Array, idx: np.ndarray, path: str,
          code: str, expected: str | None) -> None:
    out["id"].append(ids.take(pa.array(idx)))
    n = len(idx)
    out["path"].extend([path] * n)
    out["code"].extend([code] * n)
    out["expected"].extend([expected] * n)


def _finish(out: dict, id_col: str, ids: pa.Array) -> pa.Table:
    id_arr = (
        pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                          else a for a in out["id"]])
        if out["id"] else pa.array([], ids.type)
    )
    return pa.table(
        {
            id_col: id_arr,
            "path": pa.array(out["path"], pa.string()),
            "code": pa.array(out["code"], pa.string()),
            "expected": pa.array(out["expected"], pa.string()),
        }
    )


def _validate_node(ids: pa.Array, arr: pa.Array, path: str,
                   spec: dict[str, StructField], parent_valid: np.ndarray,
                   out: dict) -> None:
    for name, fs in spec.items():
        child = pc.struct_field(arr, name)
        child_valid = _np_bool(pc.is_valid(child)) & parent_valid
        if fs.required:
            missing = parent_valid & ~_np_bool(pc.is_valid(child))
            if missing.any():
                _emit(out, ids, np.flatnonzero(missing),
                      f"{path}.{name}", "missing key", None)
        for chk in fs.checks:
            bad = chk.fn(child) & child_valid
            if bad.any():
                _emit(out, ids, np.flatnonzero(bad),
                      f"{path}.{name}", "invalid", chk.expected)
        if fs.fields:
            _validate_node(ids, child, f"{path}.{name}", fs.fields,
                           child_valid, out)


def validate_struct_column(ds, *, col: str, id_col: str,
                           spec: dict[str, StructField],
                           required: bool = True):
    """Violations Dataset (id, path, code, expected) for a struct
    column: missing required members (null child under non-null
    parent), failed vectorized checks, recursing into nested structs.
    A null top-level struct on a required column is its own
    ``missing key`` at the column path."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks()
        arr = batch[col].combine_chunks()
        parent_valid = _np_bool(pc.is_valid(arr))
        out = {"id": [], "path": [], "code": [], "expected": []}
        if required:
            missing = ~parent_valid
            if missing.any():
                _emit(out, ids, np.flatnonzero(missing), col,
                      "missing key", None)
        _validate_node(ids, arr, col, spec, parent_valid, out)
        return _finish(out, id_col, ids)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def validate_list_column(ds, *, col: str, id_col: str,
                         element_checks: list[Check] = (),
                         min_len: int | None = None,
                         max_len: int | None = None,
                         forbid_null_elements: bool = False,
                         forbid_zero_vector: bool = False):
    """Native ``pa.list_`` column validation — the array-side twin of
    ``validate_struct_column``: length invariants per row plus
    vectorized element checks over the FLATTENED child array (one
    kernel pass for the whole batch; violating elements report their
    0-based indexed path ``col.IDX`` — schisma's array path shape).
    Null lists on a required column are the caller's concern
    (compose with the table validator); null lists here emit nothing.

    ``forbid_null_elements`` flags null entries INSIDE non-null lists
    (``invalid`` at ``col.IDX``); ``forbid_zero_vector`` flags non-empty
    lists with no non-zero valid element (``invalid`` at ``col``) — the
    degenerate-embedding check (NaN/Inf count as non-zero; compose with
    ``finite_check`` to catch those)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks()
        arr = batch[col].combine_chunks()
        out = {"id": [], "path": [], "code": [], "expected": []}

        lens = pc.list_value_length(arr)
        lens_np = pc.fill_null(lens, -1).to_numpy(zero_copy_only=False)
        valid = lens_np >= 0
        if min_len is not None or max_len is not None:
            bad = np.zeros(len(arr), bool)
            if min_len is not None:
                bad |= valid & (lens_np < min_len)
            if max_len is not None:
                bad |= valid & (lens_np > max_len)
            if bad.any():
                desc = (f"length in [{min_len}, {max_len}]"
                        if min_len is not None and max_len is not None
                        else f"length >= {min_len}" if min_len is not None
                        else f"length <= {max_len}")
                _emit(out, ids, np.flatnonzero(bad), col, "invalid", desc)

        if element_checks or forbid_null_elements or forbid_zero_vector:
            flat = pc.list_flatten(arr)
            parent = pc.list_parent_indices(arr).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            starts = np.zeros(len(arr), np.int64)
            ln = np.where(lens_np < 0, 0, lens_np)
            if len(ln) > 1:
                starts[1:] = np.cumsum(ln)[:-1]
            pos = np.arange(len(flat), dtype=np.int64) - starts[parent]
            elem_valid = _np_bool(pc.is_valid(flat))

            def emit_elements(idx: np.ndarray, expected: str) -> None:
                # per-element emission: id comes from the PARENT row
                out["id"].append(ids.take(pa.array(parent[idx])))
                out["path"].extend(f"{col}.{p}" for p in pos[idx])
                out["code"].extend(["invalid"] * len(idx))
                out["expected"].extend([expected] * len(idx))

            for chk in element_checks:
                bad = chk.fn(flat) & elem_valid
                if bad.any():
                    emit_elements(np.flatnonzero(bad), chk.expected)

            if forbid_null_elements and not elem_valid.all():
                emit_elements(np.flatnonzero(~elem_valid),
                              "non-null element")

            if forbid_zero_vector:
                nonzero = elem_valid & _np_bool(
                    pc.fill_null(pc.not_equal(flat, 0), False)
                )
                counts = np.bincount(parent[nonzero], minlength=len(arr))
                bad = valid & (lens_np > 0) & (counts == 0)
                if bad.any():
                    _emit(out, ids, np.flatnonzero(bad), col, "invalid",
                          "non-zero vector")

        return _finish(out, id_col, ids)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def validate_map_column(ds, *, col: str, id_col: str,
                        key_pattern: str | None = None,
                        value_checks: list[Check] = ()):
    """Native ``pa.map_`` column validation — the table-level analogue
    of schisma's regex keys (``$/.../`` members, src/schisma.mjs:58-68,
    README.md:80-106): every entry key must match ``key_pattern``
    (violations emit schisma's ``unexpected key`` code), and entry
    values run the vectorized ``value_checks``. One flatten pass per
    batch: a MapArray is list<struct<key, value>>, so entries explode
    with ``list_flatten`` + ``list_parent_indices`` and every check is
    one kernel over the child arrays. Paths are ``col.KEY`` — the same
    dynamic-key path shape the row kernel produces."""
    import re as _re

    if key_pattern is not None:
        _re.compile(key_pattern)  # fail fast on a bad pattern

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks()
        arr = batch[col].combine_chunks()
        out = {"id": [], "path": [], "code": [], "expected": []}
        # Arrow has no list_flatten/list_parent_indices kernel for maps:
        # slice the (untrimmed) key/item children by the absolute
        # offsets and rebuild parents from per-row entry counts. Null
        # map rows repeat their offset (zero entries) — handled free.
        offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        keys = arr.keys.slice(offs[0], offs[-1] - offs[0])
        values = arr.items.slice(offs[0], offs[-1] - offs[0])
        parent = np.repeat(np.arange(len(arr), dtype=np.int64), lens)
        keys_py = None
        if key_pattern is not None:
            bad = ~_np_bool(pc.match_substring_regex(keys, key_pattern))
            bad &= _np_bool(pc.is_valid(keys))
            if bad.any():
                idx = np.flatnonzero(bad)
                keys_py = keys.to_pylist()
                out["id"].append(ids.take(pa.array(parent[idx])))
                out["path"].extend(f"{col}.{keys_py[i]}" for i in idx)
                out["code"].extend(["unexpected key"] * len(idx))
                out["expected"].extend([f"key matches /{key_pattern}/"]
                                       * len(idx))
        for chk in value_checks:
            bad = chk.fn(values) & _np_bool(pc.is_valid(values))
            if bad.any():
                idx = np.flatnonzero(bad)
                if keys_py is None:
                    keys_py = keys.to_pylist()
                out["id"].append(ids.take(pa.array(parent[idx])))
                out["path"].extend(f"{col}.{keys_py[i]}" for i in idx)
                out["code"].extend(["invalid"] * len(idx))
                out["expected"].extend([chk.expected] * len(idx))
        return _finish(out, id_col, ids)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
