"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry at ``--sf`` (default sf0.01) and compares
row count, sorted column names and an order-insensitive value hash
against the DuckDB result of its oracle, ``catalog.oracle(name, sf)``,
rendered for the same directory. Queries without an oracle (the
registry ``catalog.ORACLES`` has no key for them) get a rows-only
sanity check. Every query that runs prints its own rows and value hash
(columns included), so two checkouts compare by diffing their runs with
the trailing seconds cut:

    diff <(sed 's/ *[0-9.]*s$//' a.log) <(sed 's/ *[0-9.]*s$//' b.log)

``compare`` and ``duckdb_views`` are the comparison that
``tests/test_all_queries_smoke.py`` runs in tier-1 at sf0.001.

Ray gets one CPU per core this process may run on.

Usage: python tools/check_oracle.py [--sf DIR] [--only SUBSTR]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

import duckdb  # noqa: E402
import pandas as pd  # noqa: E402

#: the testdata tables an oracle reads by name
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def duckdb_views(sf_dir: str) -> duckdb.DuckDBPyConnection:
    """A DuckDB connection with one view per testdata table of ``sf_dir``."""
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    return con


def to_pandas(result) -> pd.DataFrame:
    """A query's result (DataFrame, Arrow table or Ray Dataset) as pandas."""
    return result if isinstance(result, pd.DataFrame) else result.to_pandas()


def value_hash(df: pd.DataFrame) -> str:
    """sha256 over the sorted column names and the rows in sorted order."""
    df = df[sorted(df.columns, key=str)].copy()
    for c in df.columns:
        df[c] = df[c].map(lambda v: repr(v))
    rows = sorted(tuple(r) for r in df.itertuples(index=False, name=None))
    h = hashlib.sha256()
    h.update("\x1f".join(map(str, df.columns)).encode())
    h.update(b"\x1d")
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def compare(mine: pd.DataFrame, ref: pd.DataFrame) -> list[str]:
    """How a query's result differs from its oracle's: row count, sorted
    column names, then the value hash, followed by up to three rows
    found on one side only. Empty when they agree."""
    problems = []
    if len(mine) != len(ref):
        problems.append(f"rows {len(mine)} != {len(ref)}")
    if sorted(map(str, mine.columns)) != sorted(map(str, ref.columns)):
        return problems + [f"cols {sorted(mine.columns)} != {sorted(ref.columns)}"]
    if value_hash(mine) == value_hash(ref):
        return problems
    problems.append("value-hash mismatch")
    m = mine[sorted(mine.columns)]
    r = ref[sorted(ref.columns)]
    ms = set(map(tuple, m.astype(str).values.tolist()))
    rs = set(map(tuple, r.astype(str).values.tolist()))
    return problems + [f"mine-only: {sorted(ms - rs)[:3]}",
                       f"ref-only: {sorted(rs - ms)[:3]}"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--only")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e
    from schisma_ray.pipelines.catalog import ORACLES, oracle

    con = duckdb_views(args.sf)
    failures = 0
    for name, fn in e.queries().items():
        if args.only and args.only not in name:
            continue
        t0 = time.monotonic()
        try:
            mine = to_pandas(fn(args.sf))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        dt = time.monotonic() - t0
        got = f"rows={len(mine):6d} hash={value_hash(mine)[:16]}"
        if name not in ORACLES:
            print(f"ok   {name:32s} {got} (rows-only) {dt:5.1f}s")
            continue
        try:
            ref = con.execute(oracle(name, args.sf)).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {ex} ({got}) {dt:5.1f}s")
            failures += 1
            continue
        problems = compare(mine, ref)
        if problems:
            failures += 1
            print(f"FAIL {name}: {'; '.join(problems)} ({got}) {dt:5.1f}s")
        else:
            print(f"ok   {name:32s} {got} (oracle)    {dt:5.1f}s")
    print(f"{failures} failures")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
