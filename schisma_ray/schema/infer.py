"""Schema inference: bootstrap a schisma schema literal from data.

The reference (kettek/schisma) expects users to hand-write schema
literals; at 100-TB scale nobody hand-writes a schema for a table they
just received. ``infer_schema_literal`` maps an Arrow schema — obtained
from Dataset metadata, NO data scan — onto the kernel's literal form:

    arrow string          -> String
    arrow int8..int64     -> BigInt   (Python ints are 'bigint' in the
                                       kernel's JS value model)
    arrow float16..64     -> Number
    arrow bool            -> Boolean
    arrow timestamp/date  -> BigInt   (validated as epoch integers, the
                                       form ``JsonColumnValidator`` sees)
    arrow list<T>         -> [T]
    arrow struct{...}     -> {...} recursively
    arrow binary          -> String  (opaque payloads; decode stages own
                                      deeper checks)

The output literal round-trips through ``schema()`` so the inferred
node can be handed straight to ``TableValidator`` / ``JsonColumnValidator``;
a nested (struct or list) column runs on the row kernel through their
one bridge, ``stages.table_schema.validate_values``.
"""

from __future__ import annotations

import pyarrow as pa

from .jstypes import BigInt, Boolean, Number, String


def _infer_type(t: pa.DataType):
    if pa.types.is_boolean(t):
        return Boolean
    if pa.types.is_integer(t):
        return BigInt
    if pa.types.is_floating(t) or pa.types.is_decimal(t):
        return Number
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return String
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return String
    if pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t):
        return BigInt
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return [_infer_type(t.value_type)]
    if pa.types.is_struct(t):
        return {f.name: _infer_type(f.type) for f in t}
    if pa.types.is_dictionary(t):
        return _infer_type(t.value_type)
    if pa.types.is_null(t):
        return String  # all-null column: no evidence; weakest check
    raise TypeError(f"no schisma mapping for arrow type {t}")


def infer_schema_literal(source) -> dict:
    """Arrow schema / table / Ray Dataset -> schisma schema literal.

    For a Dataset this touches only ``ds.schema()`` metadata — inference
    over a 100-TB table costs one metadata fetch, not a scan.
    """
    if isinstance(source, pa.Schema):
        sch = source
    elif isinstance(source, pa.Table):
        sch = source.schema
    else:  # ray Dataset
        sch = pa.schema(
            [pa.field(n, t) for n, t in zip(source.schema().names,
                                            source.schema().types)]
        )
    return {f.name: _infer_type(f.type) for f in sch}


def literal_repr(lit) -> str:
    """Readable rendering of a schema literal ('String', '[BigInt]',
    '{k: Number}') for the CLI."""
    if isinstance(lit, list):
        return "[" + ", ".join(literal_repr(x) for x in lit) + "]"
    if isinstance(lit, dict):
        return "{" + ", ".join(f"{k}: {literal_repr(v)}" for k, v in lit.items()) + "}"
    name = getattr(lit, "name", None)
    return name if name else repr(lit).strip("<>").replace("JSType ", "")


def infer_schema(source):
    """Arrow schema / table / Dataset -> compiled ``SchemaNode``."""
    from .kernel import schema

    return schema(infer_schema_literal(source))
