"""Driver-contract smoke tests: __ray_entry__.{entry,queries,oracle_sql}."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def test_entry_runs(ray_session):
    import __ray_entry__ as e

    result = e.entry()
    # driver checks: runs, >= 0 rows, stable schema
    batches = list(result.iter_batches(batch_format="pyarrow", batch_size=65536))
    total = sum(b.num_rows for b in batches)
    assert total > 0
    cols = set(batches[0].schema.names)
    assert {"row_ref", "path", "code", "expected", "received", "check"} <= cols


def test_queries_and_oracles_consistent(ray_session):
    import __ray_entry__ as e

    qs = e.queries()
    sql = e.oracle_sql()
    assert len(qs) >= 25
    # every oracle key must have a query
    assert set(sql) <= set(qs)
    # oracles must be non-trivial SQL strings
    for s in sql.values():
        assert "SELECT" in s.upper()


@pytest.mark.parametrize("name", ["validate_documents", "image_stats", "knn_cosine"])
def test_sample_queries_run_at_sf0001(ray_session, name):
    import __ray_entry__ as e

    fn = e.queries()[name]
    out = fn("/root/testdata/sf0.001")
    import pandas as pd
    import pyarrow as pa

    if not isinstance(out, (pd.DataFrame, pa.Table)):
        out = out.to_pandas()
    assert len(out) >= 0  # runs without raising; schema stable


def test_error_sanitizer_is_diagnosable():
    """Round-4 lesson: a red driver row had 1500 chars of raw fixture
    text and no exception type. The sanitizer must lead AND trail with
    the exception class, elide long quoted data runs, and cap length."""
    import __ray_entry__ as e

    doc = "data line big filter window batch slow hash sort value " * 40
    ex = ValueError(f'could not convert "{doc}","{doc}" to expected shape')
    msg = e._sanitize_error("normalized_text_dups", ex)
    assert msg.startswith("[ValueError] query=normalized_text_dups:")
    assert msg.endswith("[end ValueError query=normalized_text_dups]")
    assert "data elided" in msg
    assert "slow hash sort" not in msg  # raw doc text gone
    assert len(msg) < 900


def test_error_sanitizer_leads_with_innermost_error_line():
    """A task traceback is long and its root-cause line sits in the
    middle: the sanitized row must lead with it, not cut it out."""
    import __ray_entry__ as e

    frames = "".join(f'  File "/site/pkg/mod{i}.py", line {i}, in fn{i}\n'
                     f"    call_something(arg{i})\n" for i in range(40))
    text = "x" * 200
    ex = RuntimeError(
        "ray::MapBatches(fn)() (pid=1)\n" + frames
        + f"pyarrow.lib.ArrowInvalid: No match for FieldRef.Name(node) in '{text}'\n"
        + "\nThe above exception was the direct cause of the following "
        + "exception:\n\n" + frames)
    msg = e._sanitize_error("components", ex)
    assert msg.startswith("[RuntimeError] query=components: "
                          "pyarrow.lib.ArrowInvalid: No match for "
                          "FieldRef.Name(node)")
    assert msg.endswith("[end RuntimeError query=components]")
    assert text not in msg and "data elided" in msg
    assert len(msg) < 1200


def test_wrapped_query_raises_sanitized(ray_session):
    import pytest

    import __ray_entry__ as e

    boom_calls = []

    def boom(sf_dir):
        boom_calls.append(sf_dir)
        raise RuntimeError("secret payload: '" + "x" * 500 + "'")

    wrapped = e._wrap("boom", boom)
    with pytest.raises(RuntimeError) as ei:
        wrapped("/nonexistent")
    s = str(ei.value)
    assert s.startswith("[RuntimeError] query=boom:")
    assert "x" * 100 not in s
    assert len(boom_calls) == 2  # one retry happened


def test_wrapped_query_materializes_dataset(ray_session):
    import pyarrow as pa
    import ray.data as rd

    import __ray_entry__ as e

    wrapped = e._wrap("tiny", lambda sf: rd.range(5))
    out = wrapped("ignored")
    assert isinstance(out, pa.Table)
    assert out.num_rows == 5
