"""One map shape: every per-batch operator in ``schisma_ray`` is a
function or a callable INSTANCE, which Ray runs as a task fused into
its read. A class handed to ``map_batches`` (with ``concurrency=``,
``fn_constructor_args=`` or ``compute=``) starts an actor pool instead:
its actors start up on every execution, which costs more than any
constructor in this package saves.

A pool that a measurement justifies goes into ``MEASURED_POOLS``
(``"<module path>:<function>"`` -> the measurement), and only there.
The tests are scanned too: a test that starts a pool pays its start-up
on every run.

One keyed exchange: Ray's ``groupby(key).map_groups`` runs only inside
``stages/_bucket.py``. Every other keyed step goes through
``bucket_apply``, ``bucket_combine`` or ``bucket_cogroup``, which hash
the key into a bucket, so a nullable key never reaches Ray's sort
comparisons. Joins too: a two-sided keyed step runs on
``bucket_cogroup`` (``join.shuffle_hash_join`` for a plain equi-join),
never on Ray's ``Dataset.join``, whose hash shuffle runs on a second
exchange of aggregator actors.

One pair path: a pair producer picks its driver or bucketed body by the
size it observes (``_bucket.fold_or_apply``, ``_bucket.fold_small``),
so no function takes a flag that picks the body or its return type.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "schisma_ray"
TESTS = REPO / "tests"

#: pools kept on purpose, each with the measurement that justifies it
MEASURED_POOLS: dict[str, str] = {}

POOL_KEYWORDS = {"concurrency", "fn_constructor_args",
                 "fn_constructor_kwargs", "compute"}


def _functions(tree: ast.AST):
    """(enclosing top-level function or class name, node) for every node."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            yield name, node


def _sources(roots=(PACKAGE, TESTS)):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            yield rel, ast.parse(path.read_text(), filename=rel)


def _params(node) -> list[str]:
    a = node.args
    return [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]


def test_map_batches_never_starts_an_actor_pool():
    found = []
    for rel, tree in _sources():
        for owner, node in _functions(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            site = f"{rel}:{owner}"
            if site in MEASURED_POOLS:
                continue
            bad = sorted(kw.arg for kw in node.keywords
                         if kw.arg in POOL_KEYWORDS)
            # a class passed uncalled (CamelCase name) is an actor pool
            fn = node.args[0] if node.args else None
            fn_name = (fn.id if isinstance(fn, ast.Name)
                       else fn.attr if isinstance(fn, ast.Attribute) else "")
            if fn_name[:1].isupper():
                bad.append(f"class {fn_name}")
            if bad:
                found.append(f"{site}:{node.lineno} {', '.join(bad)}")
    assert not found, "map_batches actor pools:\n" + "\n".join(found)


def test_no_stage_function_takes_concurrency():
    found = []
    for rel, tree in _sources():
        for owner, node in _functions(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = _params(node)
            if "concurrency" in names and f"{rel}:{owner}" not in MEASURED_POOLS:
                found.append(f"{rel}:{node.lineno} {node.name}")
    assert not found, "functions with a concurrency knob:\n" + "\n".join(found)


#: the one module that calls Ray's ``map_groups``
EXCHANGE = "schisma_ray/stages/_bucket.py"


def test_map_groups_only_in_the_keyed_exchange():
    found = []
    for rel, tree in _sources():
        if rel == EXCHANGE:
            continue
        for owner, node in _functions(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_groups"):
                found.append(f"{rel}:{node.lineno} {owner}")
    assert not found, "map_groups outside the keyed exchange:\n" + "\n".join(found)


#: keywords of Ray's ``Dataset.join``; Arrow's ``Table.join`` takes ``keys=``
RAY_JOIN_KEYWORDS = {"on", "right_on", "num_partitions"}


def test_no_ray_dataset_join():
    found = []
    for rel, tree in _sources():
        for owner, node in _functions(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and any(kw.arg in RAY_JOIN_KEYWORDS
                            for kw in node.keywords)):
                found.append(f"{rel}:{node.lineno} {owner}")
    assert not found, "Ray Dataset.join calls:\n" + "\n".join(found)


#: flags that picked a pair producer's body or its return type; the
#: observed size picks the body now, and the result is always a Dataset
PATH_FLAGS = {"as_dataset", "verify_driver_limit"}


def test_no_function_takes_a_path_flag():
    found = []
    for rel, tree in _sources((PACKAGE,)):
        for _, node in _functions(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = sorted(PATH_FLAGS.intersection(_params(node)))
            if (node.name in {"near_dedup_survivors", "components_from_pairs"}
                    and "driver_limit" in _params(node)):
                names.append("driver_limit")
            if names:
                found.append(f"{rel}:{node.lineno} {node.name} {', '.join(names)}")
    assert not found, "functions with a path flag:\n" + "\n".join(found)
