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
exchange of aggregator actors. Keyed aggregation too: no code calls
Ray's ``groupby(key).aggregate``, whose sort cannot compare a nullable
key. The exchange owns its width: no function takes a ``num_buckets``
except those of a stored bucketed table and the hash itself.

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


#: flags that picked a pair producer's or a membership check's body or
#: its return type; the observed size picks the body now, and the result
#: is always a Dataset
PATH_FLAGS = {"as_dataset", "verify_driver_limit", "strategy",
              "driver_merge_limit"}

#: (function, flag) kept although no code reads it:
#: ``perfbench/layers.py:227`` passes ``strategy="broadcast"``,
#: ``perfbench/layers.py:283`` reads ``session_agg``'s default width
#: through ``inspect``, and ``perfbench/workloads.py:86`` and
#: ``perfbench/layers.py`` pass ``validate_images(fused=True)``
UNREAD_FLAGS = {("referential_violations", "strategy"),
                ("session_agg", "num_buckets"),
                ("validate_images", "fused")}


def test_unread_flags_are_passed_only_by_the_benchmark():
    """Each ``UNREAD_FLAGS`` keyword stays in its function's signature,
    which never reads it, and no code outside ``perfbench/`` passes it."""
    defs = {node.name: (rel, node) for rel, tree in _sources((PACKAGE,))
            for _, node in _functions(tree)
            if isinstance(node, ast.FunctionDef)}
    found = []
    for fn, flag in sorted(UNREAD_FLAGS):
        rel, node = defs[fn]
        reads = [n for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and n.id == flag]
        if flag not in _params(node) or reads:
            found.append(f"{rel}:{node.lineno} {fn} reads or lost {flag}")
    roots = (PACKAGE, TESTS, REPO / "tools", REPO / "jobs")
    top = [(p.name, ast.parse(p.read_text(), filename=p.name))
           for p in sorted(REPO.glob("*.py"))]
    for rel, tree in [*_sources(roots), *top]:
        for owner, node in _functions(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            for kw in node.keywords:
                if (callee, kw.arg) in UNREAD_FLAGS:
                    found.append(f"{rel}:{node.lineno} {owner} passes "
                                 f"{callee}({kw.arg}=)")
    assert not found, "unread flags in use:\n" + "\n".join(found)


def test_no_function_takes_a_path_flag():
    found = []
    for rel, tree in _sources((PACKAGE,)):
        for _, node in _functions(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = sorted(flag for flag in PATH_FLAGS.intersection(_params(node))
                           if (node.name, flag) not in UNREAD_FLAGS)
            if (node.name in {"near_dedup_survivors", "components_from_pairs"}
                    and "driver_limit" in _params(node)):
                names.append("driver_limit")
            if names:
                found.append(f"{rel}:{node.lineno} {node.name} {', '.join(names)}")
    assert not found, "functions with a path flag:\n" + "\n".join(found)


#: the one constructor of violation tables, and the fixture oracles,
#: which keep their own bookkeeping on purpose
VIOLATION_BUILDERS = {"schisma_ray/schema/result.py:violation_table",
                      "schisma_ray/sources/image_table.py",
                      "schisma_ray/sources/av_table.py"}


def test_one_violation_table_constructor():
    """Only ``schema/result.violation_table`` (and the fixture oracles)
    pass ``schema=VIOLATION_SCHEMA`` to a table builder."""
    found = []
    for rel, tree in _sources((PACKAGE,)):
        for owner, node in _functions(tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                v = kw.value
                name = (v.id if isinstance(v, ast.Name)
                        else v.attr if isinstance(v, ast.Attribute) else "")
                if (kw.arg == "schema" and name == "VIOLATION_SCHEMA"
                        and rel not in VIOLATION_BUILDERS
                        and f"{rel}:{owner}" not in VIOLATION_BUILDERS):
                    found.append(f"{rel}:{node.lineno} {owner}")
    assert not found, "violation tables built by hand:\n" + "\n".join(found)


#: the bridge: the one function that turns kernel results into violation
#: rows and the one that conforms values through the kernel
KERNEL_BRIDGE = {"schisma_ray/stages/table_schema.py:validate_values",
                 "schisma_ray/stages/table_schema.py:conform_values"}


def test_one_row_kernel_bridge():
    """Outside the bridge no batch stage or pipeline calls the row
    kernel's ``validate``, ``conform`` or ``_validate``."""
    found = []
    roots = (PACKAGE / "stages", PACKAGE / "pipelines")
    for rel, tree in _sources(roots):
        for owner, node in _functions(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"validate", "conform", "_validate"}
                    and f"{rel}:{owner}" not in KERNEL_BRIDGE):
                found.append(f"{rel}:{node.lineno} {owner}.{node.func.attr}")
    assert not found, "row kernel calls outside the bridge:\n" + "\n".join(found)


#: the one eager keyed fold, and the one bounded fold it may sit beside
FOLDS = {"schisma_ray/stages/_bucket.py", "schisma_ray/stages/_fold.py"}

#: former copies of ``fold_table``'s loop, now calls of it
FORMER_FOLD_COPIES = {"_small_ids", "_as_arrow", "_fold_id_array"}


def _collects(node) -> bool:
    """Whether ``node`` holds a ``fold_table(...)`` or ``.iter_batches(``
    call."""
    return any(isinstance(n, ast.Call)
               and (getattr(n.func, "id", "") == "fold_table"
                    or getattr(n.func, "attr", "") == "iter_batches")
               for n in ast.walk(node))


def _folded_names(fn) -> set[str]:
    """Names bound in ``fn`` from an expression that collects a Dataset
    (``fold_table(...)``, a list built from ``iter_batches``) or by a
    ``for`` loop over ``.iter_batches(...)``."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _collects(node.value):
            targets = node.targets
        elif isinstance(node, ast.For) and _collects(node.iter):
            targets = [node.target]
        else:
            continue
        names |= {n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name)}
    return names


def test_keyed_sums_use_the_one_eager_fold():
    """No function outside ``_bucket.py`` merges fold partials by hand:
    a ``.group_by(`` on rows collected by ``fold_table(...)`` or an
    ``iter_batches`` loop is a keyed combine, which is
    ``_bucket.fold_combine``'s job."""
    found = []
    for rel, tree in _sources((PACKAGE,)):
        if rel in FOLDS:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            folded = _folded_names(node)
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "group_by"):
                    continue
                receiver = call.func.value
                if _collects(receiver) or any(
                        isinstance(n, ast.Name) and n.id in folded
                        for n in ast.walk(receiver)):
                    found.append(f"{rel}:{call.lineno} {node.name}")
    assert not found, "hand-rolled keyed combines:\n" + "\n".join(found)


def test_no_copy_of_fold_table():
    """``fold_table`` is the one loop that collects a bounded Dataset:
    no function outside ``_fold.py`` turns ``iter_batches`` output into
    tables (``from_batches``) and concatenates them (``concat_tables``
    or ``concat_arrays``), and none of its former copies is defined
    again."""
    found = []
    for rel, tree in _sources((PACKAGE,)):
        if rel in FOLDS:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in FORMER_FOLD_COPIES:
                found.append(f"{rel}:{node.lineno} {node.name} defined")
            attrs = {n.attr for n in ast.walk(node)
                     if isinstance(n, ast.Attribute)}
            if ({"iter_batches", "from_batches"} <= attrs
                    and attrs & {"concat_tables", "concat_arrays"}):
                found.append(f"{rel}:{node.lineno} {node.name}")
    assert not found, "copies of fold_table:\n" + "\n".join(found)


#: functions that take a bucket count: ``bucketed.py``'s, where the
#: count is a property of a stored table, and ``key_bucket``, the hash
#: itself (``perfbench/layers.py:284`` calls it with a width)
BUCKET_COUNT_TAKERS = {"schisma_ray/stages/bucketed.py",
                       "schisma_ray/stages/_bucket.py:key_bucket"}


def test_no_function_takes_a_bucket_count():
    """``_bucket.NUM_BUCKETS`` is the width of every keyed exchange: no
    other function takes ``num_buckets``."""
    found = []
    for rel, tree in _sources((PACKAGE,)):
        for _, node in _functions(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and "num_buckets" in _params(node)
                    and (node.name, "num_buckets") not in UNREAD_FLAGS
                    and rel not in BUCKET_COUNT_TAKERS
                    and f"{rel}:{node.name}" not in BUCKET_COUNT_TAKERS):
                found.append(f"{rel}:{node.lineno} {node.name}")
    assert not found, "functions with a bucket count:\n" + "\n".join(found)


def test_no_ray_keyed_aggregate():
    """No ``groupby(...).aggregate(...)`` chain: keyed aggregation runs
    on ``_bucket.bucket_combine`` or ``bucket_apply``. (Arrow spells its
    grouping ``group_by``, and pandas code uses ``.agg``.)"""
    roots = (PACKAGE, TESTS, REPO / "tools", REPO / "perfbench")
    found = []
    for rel, tree in _sources(roots):
        for owner, node in _functions(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "aggregate"
                    and isinstance(node.func.value, ast.Call)
                    and isinstance(node.func.value.func, ast.Attribute)
                    and node.func.value.func.attr == "groupby"):
                found.append(f"{rel}:{node.lineno} {owner}")
    assert not found, "Ray keyed aggregates:\n" + "\n".join(found)
