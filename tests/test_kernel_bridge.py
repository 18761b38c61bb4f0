"""One fallback path per verb: a residual column and a JSON column run
the row kernel through the same ``table_schema.validate_values`` and
``table_schema.conform_values``, so the same document gives the same
violation rows and the same repair whichever shape it arrives in."""

import json

import pyarrow as pa

from schisma_ray.schema import BigInt, Number, String
from schisma_ray.stages.conform import TableConformer
from schisma_ray.stages.table_schema import TableSchema
from schisma_ray.stages.validate import (JsonColumnConformer,
                                         JsonColumnValidator, TableValidator)

FIELDS = ["path", "code", "expected", "received", "message"]


def _rows(t: pa.Table) -> list[tuple]:
    return sorted(zip(*(t[f].to_pylist() for f in FIELDS)), key=repr)


def _residual(literal, values, arrow_type=None) -> list[tuple]:
    """Violation rows of ``values`` as the residual column ``col``."""
    batch = pa.table({"id": pa.array([str(i) for i in range(len(values))]),
                      "col": pa.array(values, arrow_type)})
    return _rows(TableValidator(TableSchema({"id": String, "col": literal},
                                            id_column="id"))(batch))


def _json(literal, docs) -> list[tuple]:
    """Violation rows of ``docs`` as the JSON column ``col``."""
    batch = pa.table({"id": pa.array([str(i) for i in range(len(docs))]),
                      "col": pa.array([json.dumps(d) for d in docs])})
    return _rows(JsonColumnValidator(literal, "col", "id")(batch))


def test_json_and_residual_name_the_expected_type_alike():
    """A JS type is named by its name in both paths (the JSON path used
    to write ``<JSType Number>``)."""
    doc = {"a": "x"}
    want = [("col.a", "no match", "Number", "string", None)]
    assert _json({"a": Number}, [doc]) == want
    assert _residual({"a": Number}, [doc]) == want


def test_null_struct_member_is_a_missing_key(ray_session):
    """A null member of an Arrow struct is JS ``undefined``: a required
    one is a ``missing key``, as in the JSON document without it and in
    ``validate_struct_column``. A JSON ``null`` stays JS ``null``."""
    import ray.data as rd

    from schisma_ray.stages.struct_validate import (StructField,
                                                    validate_struct_column)

    literal = {"c": String, "d": String}
    struct = pa.struct([("c", pa.string()), ("d", pa.string())])
    doc = {"c": None, "d": "x"}
    want = [("col.c", "missing key", None, None, None)]
    assert _residual(literal, [doc], struct) == want
    assert _json(literal, [{"d": "x"}]) == want
    native = validate_struct_column(
        rd.from_arrow(pa.table({"id": ["0"], "col": pa.array([doc], struct)})),
        col="col", id_col="id",
        spec={"c": StructField(), "d": StructField()}).take_all()
    assert [(r["path"], r["code"]) for r in native] == [("col.c", "missing key")]
    assert _json(literal, [doc]) == [("col.c", "no match", "String", "object", None)]


def _small(v, where=None):
    return v < 5 or "too big"


def test_conform_is_total_on_json_and_residual():
    """A value the row kernel throws on conforms to the default in both
    paths; the JSON path used to fail the whole batch. The kernel throws
    on a failed ``$validate`` and on a BigInt it cannot convert."""
    literal = {"k": {"$type": Number, "$validate": _small}}
    batch = pa.table({"id": ["0", "1"], "props": ['{"k": 7}', '{"k": 3}']})
    out = JsonColumnConformer(literal, "props", "id")(batch)
    assert out["props"].to_pylist() == ['{"k":0}', '{"k":3}']
    col = pa.table({"props": pa.array([{"k": 7.0}, {"k": 3.0}])})
    conformed = TableConformer(TableSchema({"props": literal}))(col)
    assert conformed["props"].to_pylist() == [{"k": 0.0}, {"k": 3.0}]

    col = pa.table({"props": pa.array([{"k": "abc"}, {"k": "7"}])})
    conformed = TableConformer(TableSchema({"props": {"k": BigInt}}))(col)
    assert conformed["props"].to_pylist() == [{"k": 0}, {"k": 7}]
