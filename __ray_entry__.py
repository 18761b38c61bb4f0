"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in schisma_ray) calls ``ray.init``/``ray.shutdown``.

* ``entry()`` — flagship pipeline: generate the deterministic synthetic
  image+caption table at sf0.001 scale and run the full validation
  pipeline (schema + decode + uniqueness + referential); returns the
  violations Dataset.
* ``queries()`` — one callable per implemented operator/pipeline
  (SURVEY.md §2 + the training-data battery): ``catalog.QUERIES``,
  derived from schisma_ray/pipelines/catalog.py's ``q_*`` functions.
* ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible
  query, column names matched to the Ray outputs, rendered for sf0.01.
  ``catalog.ORACLES`` names the oracled queries without rendering, and
  ``catalog.oracle(name, sf_dir)`` renders one of them for any scale,
  generating only the fixtures it reads.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from schisma_ray.pipelines import validate_images
    from schisma_ray.sources import image_table

    table_dir = image_table.generate_for_sf("/root/testdata/sf0.001")
    return validate_images(table_dir)


#: a traceback's error line: "pkg.mod.SomeError: ..." / "ArrowInvalid: ..."
_ERROR_LINE = r"^\s*[\w.]*(?:Error|Exception|Invalid)(?:\([\w.]*\))?: \S.*$"


def _sanitize_error(name: str, ex: Exception) -> str:
    """Compress an exception into a diagnosable, data-free line.

    A failing query's message can be a long task traceback full of raw
    fixture text, with the error that started it deep inside. This
    leads with that innermost error line (the last one of the message),
    elides long quoted data runs, collapses whitespace, caps the total,
    and states the exception class at BOTH ends so the row stays
    diagnosable whichever end the driver truncates."""
    import re

    def clean(text: str) -> str:
        text = re.sub(r"(['\"]).{60,}?\1", "'<data elided>'", text, flags=re.S)
        return re.sub(r"\s+", " ", text).strip()

    raw = str(ex)
    msg = clean(raw)
    if len(msg) > 700:
        msg = msg[:350] + " <...> " + msg[-350:]
    inner = re.findall(_ERROR_LINE, raw, flags=re.M)
    if inner:
        msg = f"{clean(inner[-1])[:300]} | {msg}"
    cls = type(ex).__name__
    return f"[{cls}] query={name}: {msg} [end {cls} query={name}]"


def _materialize(result: Any) -> Any:
    """Eagerly execute a lazy Dataset result into a pyarrow.Table so
    failures surface here (where they can be retried and sanitized)
    instead of inside the driver's to_pandas."""
    import pyarrow as pa
    import ray.data as rd

    if not isinstance(result, rd.Dataset):
        return result
    batches = list(result.iter_batches(batch_format="pyarrow",
                                       batch_size=65536))
    tables = [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
              for b in batches]
    tables = [t for t in tables if t.num_rows]
    if tables:
        return pa.concat_tables(tables)
    schema = result.schema(fetch_if_missing=True)
    base = getattr(schema, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base.empty_table()
    names = list(getattr(schema, "names", []) or [])
    return pa.schema([(n, pa.string()) for n in names]).empty_table()


def _wrap(name: str, fn: Callable[[str], Any]) -> Callable[[str], Any]:
    def run(sf_dir: str) -> Any:
        try:
            return _materialize(fn(sf_dir))
        except Exception:
            pass  # retry once: first-run cold-cache / cold-actor flakes
        try:
            return _materialize(fn(sf_dir))
        except Exception as ex:
            raise RuntimeError(_sanitize_error(name, ex)) from None

    run.__name__ = f"q_{name}"
    run.__wrapped__ = fn
    return run


def queries() -> dict[str, Callable[[str], Any]]:
    from schisma_ray.pipelines import catalog

    return {name: _wrap(name, fn) for name, fn in catalog.QUERIES.items()}


def oracle_sql() -> dict[str, str]:
    from schisma_ray.pipelines import catalog

    return catalog.oracle_sql()
