"""Output checks, each against a computation made apart from the program.

Every check returns a list of error strings; an empty list means the
operation's output is correct. Sources of truth:

* the image generator's bookkeeping files (``expected_violations``,
  ``expected_conform``) and closed-form counts from its defect moduli;
* DuckDB over the same parquet files (profile, sessions, windows — the
  last two through the SQL that ``catalog.oracle_sql()`` holds for
  ``event_sessions`` and ``events_windowed``, copied below);
* the events generator's own record of planted props defects.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VIOLATION_COLUMNS = ["row_ref", "path", "code", "expected", "received",
                     "message", "check"]
#: HyperLogLog at p=12: standard error 1.04 / sqrt(2**12)
HLL_SE = 1.04 / math.sqrt(1 << 12)

#: ``catalog.oracle_sql()["event_sessions"]`` and ``["events_windowed"]``.
#: The function itself is not called: building its dict generates the
#: fixtures of every catalog query from the sf0.01 testdata directory,
#: outside the benchmark's inputs, and takes about 30 s.
SESSIONS_SQL = """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id ORDER BY ts)) > 1800000000
              THEN 1 ELSE 0 END AS new_s
    FROM events)
SELECT user_id, CAST(SUM(new_s) AS BIGINT) AS n_sessions,
       count(*) AS n_events
  FROM o GROUP BY user_id
"""
WINDOWS_SQL = """
SELECT event_type,
       (CAST(epoch_us(ts) AS BIGINT) // 3600000000) * 3600 AS window_start,
       count(*) AS n,
       CAST(ROUND(SUM(value) * 100) AS BIGINT) AS value_sum_cents
  FROM events GROUP BY 1, 2
"""


def _rows(t: pa.Table, columns: list[str]) -> Counter:
    return Counter(zip(*(t[c].to_pylist() for c in columns)))


def _diff(name: str, got: Counter, want: Counter) -> list[str]:
    if got == want:
        return []
    extra, missing = got - want, want - got
    return [f"{name}: {sum(extra.values())} unexpected rows "
            f"(e.g. {next(iter(extra), None)}), {sum(missing.values())} "
            f"missing rows (e.g. {next(iter(missing), None)})"]


def closed_form_counts(n: int) -> Counter:
    """(path, code) -> count, from the defect moduli documented in
    ``sources/image_table.py``."""
    i = np.arange(n)
    truncated = i % 107 == 9
    null_w = i % 113 == 13
    dup = np.zeros(n, dtype=bool)
    heads = i[(i % 97 == 0) & (i > 0)]
    dup[heads] = True
    dup[heads - 1] = True
    counts = {
        ("caption", "missing key"): i % 109 == 11,
        ("w", "missing key"): null_w,
        ("bytes", "invalid"): truncated,
        ("w", "invalid"): (i % 101 == 5) & ~null_w & ~truncated,
        ("fmt", "invalid"): (i % 103 == 7) & ~truncated,
        ("phash", "invalid"): dup,
        ("image_id", "invalid"): i % 127 == 17,
    }
    return Counter({k: int(v.sum()) for k, v in counts.items() if v.any()})


def violations(table_dir: Path, got: pa.Table, n: int) -> list[str]:
    """Exact violation rows against ``expected_violations.parquet``, plus
    per-(path, code) counts against the closed-form counts."""
    want = pq.read_table(table_dir / "expected_violations.parquet")
    errs = _diff("violations", _rows(got, VIOLATION_COLUMNS),
                 _rows(want, VIOLATION_COLUMNS))
    by_code = Counter(zip(got["path"].to_pylist(), got["code"].to_pylist()))
    if by_code != closed_form_counts(n):
        errs.append(f"(path, code) counts {dict(by_code)} differ from the "
                    f"closed form {dict(closed_form_counts(n))}")
    return errs


def _duck():
    import duckdb

    # every check uses built-in functions only; never fetch an extension
    return duckdb.connect(config={"autoinstall_known_extensions": False,
                                  "autoload_known_extensions": False})


def profile(table_dir: Path, stats: dict, drift: dict) -> list[str]:
    """numeric_stats and the chi-square drift against DuckDB."""
    con = _duck()
    src = f"read_parquet('{table_dir}/images/*.parquet')"
    errs = []
    for c in ("w", "h", "phash"):
        row = con.execute(
            f"SELECT count(*), count(*) - count({c}), min({c}), max({c}), "
            f"avg({c}), stddev_samp({c}) FROM {src}"
        ).fetchone()
        st = stats[c]
        exact = {"count": row[0], "nulls": row[1], "min": row[2], "max": row[3]}
        for k, v in exact.items():
            if st[k] != v:
                errs.append(f"{c}.{k}: got {st[k]}, DuckDB {v}")
        if c != "phash":  # int64 hash means overflow; the profile skips them
            for k, v in (("mean", row[4]), ("std", row[5])):
                if not math.isclose(st[k], v, rel_tol=1e-9):
                    errs.append(f"{c}.{k}: got {st[k]}, DuckDB {v}")
    counts = dict(con.execute(f"SELECT fmt, count(*) FROM {src} "
                              "WHERE fmt IS NOT NULL GROUP BY fmt").fetchall())
    ref = dict(con.execute(
        f"SELECT bucket, freq FROM read_parquet('{table_dir}/reference_profile.parquet') "
        "WHERE \"column\" = 'fmt'").fetchall())
    n = sum(counts.values())
    chi2 = sum((counts.get(b, 0) - f * n) ** 2 / (f * n) for b, f in ref.items())
    if not math.isclose(drift["statistic"], chi2, rel_tol=1e-9):
        errs.append(f"chi-square: got {drift['statistic']}, DuckDB counts give {chi2}")
    return errs


def distinct(table_dir: Path, hll: dict) -> list[str]:
    """HLL estimates within three standard errors of the exact count."""
    src = f"read_parquet('{table_dir}/images/*.parquet')"
    exact = _duck().execute(
        f"SELECT count(DISTINCT image_id), count(DISTINCT phash) FROM {src}"
    ).fetchone()
    errs = []
    for (name, est), want in zip(hll.items(), exact):
        if abs(est - want) > 3 * HLL_SE * want:
            errs.append(f"HLL {name}: {est} vs exact {want} (> 3 SE)")
    return errs


def conform(table_dir: Path, out_dir: Path) -> list[str]:
    """Rows against ``expected_conform.parquet``, and every payload
    decodes to its own w/h/fmt."""
    from schisma_ray.sources import codec

    got = pq.read_table(out_dir).sort_by("image_id")
    want = pq.read_table(table_dir / "expected_conform.parquet").sort_by("image_id")
    errs = []
    if got.num_rows != want.num_rows:
        return [f"conform: {got.num_rows} rows, expected {want.num_rows}"]
    for c in want.column_names:
        if got[c].to_pylist() != want[c].to_pylist():
            errs.append(f"conform column {c} differs from expected_conform")
    bad = 0
    for blob, w, h, fmt in zip(got["bytes"].to_pylist(), got["w"].to_pylist(),
                               got["h"].to_pylist(), got["fmt"].to_pylist()):
        try:
            px, f = codec.decode(blob)
        except codec.CodecError:
            bad += 1
            continue
        bad += (px.shape[1], px.shape[0], f) != (w, h, fmt)
    if bad:
        errs.append(f"conform: {bad} payloads do not decode to their w/h/fmt")
    return errs


def partition_rows(out_dir: Path) -> Counter:
    """Union of every committed partition's violation rows."""
    rows: Counter = Counter()
    for d in sorted(out_dir.glob("part-*")):
        if d.is_dir() and not d.name.endswith(".inprogress"):
            rows += _rows(pq.read_table(d), VIOLATION_COLUMNS)
    return rows


def partition_files(out_dir: Path, exclude: list[str]) -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file of the committed partitions not in
    ``exclude``: a resume that leaves them alone leaves this unchanged."""
    return {str(f.relative_to(out_dir)): (f.stat().st_size, f.stat().st_mtime_ns)
            for d in sorted(out_dir.glob("part-*"))
            if d.is_dir() and d.name not in exclude and not d.name.endswith(".inprogress")
            for f in sorted(d.rglob("*")) if f.is_file()}


def resumable(table_dir: Path, out_dir: Path) -> list[str]:
    want = pq.read_table(table_dir / "expected_violations.parquet")
    keep = np.isin(np.asarray(want["check"].to_pylist()), ["schema", "decode"])
    return _diff("resumable partitions", partition_rows(out_dir),
                 _rows(want.filter(pa.array(keep)), VIOLATION_COLUMNS))


def _events_con(events_dir: Path):
    con = _duck()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{events_dir}/events.parquet/*.parquet')")
    return con


def sessions(events_dir: Path, got: pa.Table) -> list[str]:
    want = _events_con(events_dir).execute(SESSIONS_SQL).arrow()
    cols = ["user_id", "n_sessions", "n_events"]
    return _diff("sessions", _rows(got, cols), _rows(want, cols))


def windows(events_dir: Path, got: pa.Table) -> list[str]:
    """Counts exact; value sums within one cent."""
    want = _events_con(events_dir).execute(WINDOWS_SQL).arrow()
    key = ["event_type", "window_start"]

    def index(t):
        cols = [t[c].to_pylist() for c in key + ["n", "value_sum_cents"]]
        return {(e, ws): (n, cents) for e, ws, n, cents in zip(*cols)}

    g, w = index(got), index(want)
    if g.keys() != w.keys():
        return [f"windows: {len(g.keys() ^ w.keys())} (event_type, window) keys differ"]
    bad = [k for k in w if g[k][0] != w[k][0] or abs(g[k][1] - w[k][1]) > 1]
    return [f"windows: {len(bad)} windows differ (e.g. {bad[0]})"] if bad else []


def props(events_dir: Path, got: pa.Table) -> list[str]:
    from inputs import PROPS_COLUMNS

    want = pq.read_table(events_dir / "expected_props.parquet")
    return _diff("props", _rows(got, PROPS_COLUMNS), _rows(want, PROPS_COLUMNS))
