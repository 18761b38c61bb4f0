"""Every queries() entry runs at sf0.001, and every oracled one gives its
DuckDB oracle's values there: the ``__ray_entry__`` contract guard and
the value gate in one pass.

A query whose name is a key of ``catalog.ORACLES`` is compared with
``catalog.oracle(name, SF)`` on the same inputs: rows, sorted column
names and the order-insensitive value hash, through the ``compare``
that ``tools/check_oracle.py`` runs at any scale. Each query runs once.
"""

import pytest

from tools.check_oracle import compare, duckdb_views, to_pandas

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def queries(ray_session):
    import __ray_entry__ as e

    return e.queries()


@pytest.fixture(scope="module")
def duck():
    """DuckDB views of the sf0.001 tables, for the oracles."""
    con = duckdb_views(SF)
    yield con
    con.close()


def _names():
    # enumerate without initializing ray (names only)
    from schisma_ray.pipelines import catalog

    return list(catalog.QUERIES)


@pytest.mark.parametrize("name", _names())
def test_query_runs(queries, duck, name):
    from schisma_ray.pipelines.catalog import ORACLES, oracle

    out = to_pandas(queries[name](SF))
    if name in ORACLES:
        problems = compare(out, duck.execute(oracle(name, SF)).df())
        assert not problems, f"{name} vs its oracle: " + "; ".join(problems)
