"""Table readers: Lance-first with parquet fallback.

The north-star input is a Lance table of image+caption pairs
(BASELINE.json input_hint). The ``lance`` package is not installed in
this sandbox, so ``read_table`` prefers ``ray.data.read_lance`` when the
dependency (and a ``.lance`` dataset) is present and otherwise reads the
same schema from parquet fragments — callers are agnostic.
"""

from __future__ import annotations

from pathlib import Path

import ray.data as rd

try:  # pragma: no cover - lance not present in this container
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def read_table(path: str | Path, columns: list[str] | None = None):
    """Read a dataset directory or file by format:

    * ``.lance`` dataset via ``read_lance`` when the dependency exists
    * parquet fragments, one block per file (the bytes-heavy-block
      countermeasure, see NOTES.md)
    * ``.csv`` via ``read_csv``; ``.json``/``.jsonl`` via ``read_json``
      (ingest formats for raw drops; projection happens post-read via
      ``select_columns`` since text readers can't prune at the scan)
    """
    path = Path(path)
    if HAVE_LANCE and (path.suffix == ".lance" or (path / "_versions").exists()):
        return rd.read_lance(str(path), columns=columns)  # pragma: no cover
    if path.suffix == ".csv":
        ds = rd.read_csv(str(path))
        return ds.select_columns(columns) if columns else ds
    if path.suffix in (".json", ".jsonl"):
        ds = rd.read_json(str(path))
        return ds.select_columns(columns) if columns else ds
    if path.is_dir():
        csvs = sorted(str(p) for p in path.glob("*.csv"))
        jsons = sorted(str(p) for p in path.glob("*.json*"))
        files = sorted(str(p) for p in path.glob("*.parquet"))
        if files:
            return rd.read_parquet(files, columns=columns,
                                   override_num_blocks=len(files))
        if csvs:
            ds = rd.read_csv(csvs)
            return ds.select_columns(columns) if columns else ds
        if jsons:
            ds = rd.read_json(jsons)
            return ds.select_columns(columns) if columns else ds
    return rd.read_parquet(str(path), columns=columns)
