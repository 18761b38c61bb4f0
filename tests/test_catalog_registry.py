"""The catalog states each query once: ``QUERIES`` is derived from the
``q_*`` functions plus ``ALIASES``, no two query bodies or oracle
templates are copies, and ``oracle(name, sf_dir)`` renders one template
for any scale, generating only the fixtures it names."""

import ast
import inspect
import re

from schisma_ray.pipelines import catalog

def _body(fn) -> str:
    node = ast.parse(inspect.getsource(fn)).body[0]
    body = node.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # the docstring
    return ast.dump(ast.Module(body=body, type_ignores=[]))


def test_registry_is_the_functions_plus_the_aliases():
    functions = {n[2:] for n in vars(catalog) if n.startswith("q_")}
    assert list(catalog.QUERIES) == sorted(functions | set(catalog.ALIASES))
    for alias, canonical in catalog.ALIASES.items():
        assert canonical in functions and canonical not in catalog.ALIASES
        own = getattr(catalog, f"q_{alias}", None)
        assert catalog.QUERIES[alias] is (own or catalog.QUERIES[canonical])
        assert (alias in catalog.ORACLES) == (canonical in catalog.ORACLES)
    assert set(catalog.ORACLES) <= set(catalog.QUERIES)


def test_no_two_query_bodies_are_identical():
    seen = {}
    for name, fn in vars(catalog).items():
        if name.startswith("q_"):
            seen.setdefault(_body(fn), []).append(name)
    assert [names for names in seen.values() if len(names) > 1] == []


def test_no_two_oracle_templates_are_identical():
    seen = {}
    for name, sql in catalog._SQL.items():
        seen.setdefault(sql, []).append(name)
    assert [names for names in seen.values() if len(names) > 1] == []
    assert not set(catalog._SQL) & set(catalog.ALIASES)


def test_every_placeholder_has_a_fixture():
    named = {p for sql in catalog._SQL.values()
             for p in catalog._PLACEHOLDER.findall(sql)}
    assert named == set(catalog._PLACEHOLDERS)


def test_one_oracle_generates_only_its_fixtures(tmp_path, monkeypatch, sf_dir):
    from schisma_ray.sources import image_table

    monkeypatch.setattr(image_table, "CACHE_ROOT", tmp_path)
    sql = catalog.oracle("lineitem_pricing_summary", sf_dir)
    assert "FROM lineitem" in sql and list(tmp_path.iterdir()) == []

    sql = catalog.oracle("simhash_dedup", sf_dir)
    built = [p.name for p in tmp_path.iterdir()]
    assert len(built) == 1 and built[0].startswith("simhash_sigs_")
    assert f"read_parquet('{tmp_path / built[0]}')" in sql
    assert not re.search(r"\{[a-z_]+\}", sql)
