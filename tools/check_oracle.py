"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry at sf0.01 and compares row count, sorted
column names and an order-insensitive value hash against the matching
``oracle_sql()`` DuckDB result. Queries without an oracle get a
rows-only sanity check. The oracles build their fixtures from
``catalog.ORACLE_SF_DIR`` whatever ``--sf`` says, so at any other scale
the tool says so once and runs no oracle comparison. Every query that
runs prints its own rows and value hash (columns included), so two
checkouts compare by diffing their runs with the trailing seconds cut:

    diff <(sed 's/ *[0-9.]*s$//' a.log) <(sed 's/ *[0-9.]*s$//' b.log)

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


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


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
    from schisma_ray.pipelines.catalog import ORACLE_SF_DIR

    qs = e.queries()
    oracles = e.oracle_sql()
    at_scale = Path(args.sf).resolve() == Path(ORACLE_SF_DIR).resolve()
    if not at_scale:
        print(f"oracles read {ORACLE_SF_DIR}, not {args.sf}: rows and hash "
              "only (checkout parity), oracle comparisons not run")

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{args.sf}/{t}.parquet')"
        )

    failures = 0
    for name, fn in qs.items():
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
        mine_hash = value_hash(mine)
        got = f"rows={len(mine):6d} hash={mine_hash[:16]}"
        if name not in oracles or not at_scale:
            note = ("(rows-only)" if name not in oracles
                    else "(oracle not run at this scale)")
            print(f"ok   {name:32s} {got} {note} {dt:5.1f}s")
            continue
        try:
            ref = con.execute(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {ex} ({got}) {dt:5.1f}s")
            failures += 1
            continue
        problems = []
        if len(mine) != len(ref):
            problems.append(f"rows {len(mine)} != {len(ref)}")
        if sorted(map(str, mine.columns)) != sorted(map(str, ref.columns)):
            problems.append(f"cols {sorted(mine.columns)} != {sorted(ref.columns)}")
        elif mine_hash != value_hash(ref):
            problems.append("value-hash mismatch")
        if problems:
            failures += 1
            print(f"FAIL {name}: {'; '.join(problems)} ({got}) {dt:5.1f}s")
            if "value-hash mismatch" in problems or len(mine) != len(ref):
                m = mine[sorted(mine.columns)]
                r = ref[sorted(ref.columns)]
                ms = set(map(tuple, m.astype(str).values.tolist()))
                rs = set(map(tuple, r.astype(str).values.tolist()))
                print("   mine-only:", sorted(ms - rs)[:3])
                print("   ref-only: ", sorted(rs - ms)[:3])
        else:
            print(f"ok   {name:32s} {got} (oracle)    {dt:5.1f}s")
    print(f"{failures} failures")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
