"""Distributed column statistics: null-rate, min/max/mean, HyperLogLog
distinct counts, histograms / value counts.

The column sketches (HLL, null and value counts, histograms,
Count-Min) are *mergeable* ``AggregateFn``s driven through Ray Data's
``Dataset.aggregate`` tree (accumulate per block, pairwise merge), one
pass over the data for the whole stats profile. The keyed audits
(per-group moments, per-day and per-hour counts, drift halves) project
each row and sum per key through ``_bucket.fold_combine``: an Arrow
``group_by`` per batch, then one final ``group_by`` over the partials
on the driver, or on the keyed exchange when the partials pass the
driver fold limit. Some audits end in a driver-side pass over that
key-sized table (the EWMA and CUSUM recursions, apportionment). This
is the partial-per-batch + final-merge pattern from SURVEY.md §2
aggregations.

Hashing uses ``pandas.util.hash_array`` (vectorized, deterministic
64-bit) so HLL register updates are numpy-only per block.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data.aggregate import AggregateFn, Count, Max, Mean, Min, Std

from ._bucket import bucket_apply, bucket_combine, fold_combine
from ._math import chi2_sf, frac_e6 as _share_e6, ks_pvalue


def _hash64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = arr.drop_null()
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    np_vals = arr.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np_vals).astype(np.uint64)


def hll_slots(col: pa.ChunkedArray | pa.Array,
              p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(register, rank)`` of every value of ``col`` in a HyperLogLog
    of ``2**p`` registers: the top ``p`` bits of the value's 64-bit hash
    pick the register, and the rank is 1 plus the leading zeros of the
    other ``64 - p`` bits. A null gets rank 0, which raises no register."""
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    h = np.zeros(len(col), np.uint64)
    h[valid] = _hash64(col)
    rest = h << np.uint64(p)
    # the bit length of ``rest``, from the float exponents of its 32-bit
    # halves (a float64 holds each one exactly)
    hi = np.frexp((rest >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((rest & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    zeros = 64 - np.where(hi > 0, hi + 32, lo)
    rank = np.where(valid, np.minimum(zeros, 64 - p) + 1, 0)
    return (h >> np.uint64(64 - p)).astype(np.int64), rank.astype(np.uint8)


def hll_estimate(regs: np.ndarray) -> int:
    """The distinct count a HyperLogLog's register ranks estimate, with
    the small-range correction while registers are still zero."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** (-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range correction
    return int(round(est))


class HLL(AggregateFn):
    """HyperLogLog distinct-count sketch (p=12 -> ~1.6% rel. error).

    Register arrays merge by elementwise max — associative and
    commutative, so Ray's aggregation tree can combine partials in any
    order (the mergeable-sketch property).
    """

    def __init__(self, on: str, p: int = 12, alias_name: str | None = None):
        m = 1 << p

        def accumulate_block(regs: np.ndarray, block) -> np.ndarray:
            if isinstance(block, pd.DataFrame):
                block = pa.Table.from_pandas(block, preserve_index=False)
            idx, rank = hll_slots(block[on], p)
            regs = regs.copy()
            np.maximum.at(regs, idx, rank)
            return regs

        super().__init__(
            init=lambda k: np.zeros(m, dtype=np.uint8),
            merge=lambda a, b: np.maximum(a, b),
            accumulate_block=accumulate_block,
            finalize=hll_estimate,
            name=alias_name or f"hll({on})",
        )


class NullCount(AggregateFn):
    def __init__(self, on: str, alias_name: str | None = None):
        def accumulate_block(acc: int, block) -> int:
            if isinstance(block, pd.DataFrame):
                return acc + int(block[on].isna().sum())
            if on not in block.schema.names:
                return acc + block.num_rows
            return acc + block[on].null_count

        super().__init__(
            init=lambda k: 0,
            merge=lambda a, b: a + b,
            accumulate_block=accumulate_block,
            finalize=lambda a: a,
            name=alias_name or f"null_count({on})",
        )


class ValueCounts(AggregateFn):
    """Per-value counts for a (low-cardinality) categorical column.

    Partial dicts merge by key-sum. ``max_keys`` guards against
    accidentally aggregating a high-cardinality column: overflowing keys
    collapse into ``__other__`` rather than OOMing the driver.
    """

    def __init__(self, on: str, max_keys: int = 10_000, alias_name: str | None = None):
        def accumulate_block(acc: dict, block) -> dict:
            if isinstance(block, pd.DataFrame):
                block = pa.Table.from_pandas(block, preserve_index=False)
            t = block.select([on]).group_by(on).aggregate([(on, "count")])
            acc = dict(acc)
            for k, n in zip(t[on].to_pylist(), t[f"{on}_count"].to_pylist()):
                key = "__null__" if k is None else str(k)
                if key not in acc and len(acc) >= max_keys:
                    key = "__other__"
                acc[key] = acc.get(key, 0) + n
            return acc

        def merge(a: dict, b: dict) -> dict:
            out = dict(a)
            for k, n in b.items():
                if k not in out and len(out) >= max_keys:
                    k = "__other__"
                out[k] = out.get(k, 0) + n
            return out

        super().__init__(
            init=lambda k: {},
            merge=merge,
            accumulate_block=accumulate_block,
            finalize=lambda a: a,
            name=alias_name or f"value_counts({on})",
        )


class Histogram(AggregateFn):
    """Fixed-bin histogram sketch for a numeric column (mergeable)."""

    def __init__(self, on: str, lo: float, hi: float, bins: int = 64,
                 alias_name: str | None = None):
        edges = np.linspace(lo, hi, bins + 1)

        def accumulate_block(acc: np.ndarray, block) -> np.ndarray:
            if isinstance(block, pd.DataFrame):
                vals = block[on].dropna().to_numpy(dtype=np.float64)
            else:
                vals = block[on].drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
            if len(vals) == 0:
                return acc
            counts, _ = np.histogram(np.clip(vals, lo, hi), bins=edges)
            return acc + counts

        super().__init__(
            init=lambda k: np.zeros(bins, dtype=np.int64),
            merge=lambda a, b: a + b,
            accumulate_block=accumulate_block,
            finalize=lambda a: a.tolist(),
            name=alias_name or f"hist({on})",
        )


def numeric_stats(ds, columns: list[str], distinct: bool = True,
                  std_columns: list[str] | None = None) -> dict[str, dict[str, Any]]:
    """One aggregation pass -> {column: {count,nulls,min,max,mean[,std]}}.

    ``std_columns`` limits the Welford variance aggregate (Ray's Std
    overflows on extreme-magnitude int64 columns like hashes); default
    = all columns.
    """
    std_columns = columns if std_columns is None else std_columns
    aggs: list[AggregateFn] = [Count(alias_name="__rows__")]
    for c in columns:
        aggs += [
            NullCount(c, alias_name=f"nulls:{c}"),
            Min(c, alias_name=f"min:{c}"),
            Max(c, alias_name=f"max:{c}"),
            Mean(c, alias_name=f"mean:{c}"),
        ]
        if c in std_columns:
            aggs.append(Std(c, alias_name=f"std:{c}"))
        if distinct:
            aggs.append(HLL(c, alias_name=f"distinct:{c}"))
    row = ds.aggregate(*aggs)
    out: dict[str, dict[str, Any]] = {}
    for c in columns:
        out[c] = {
            "count": row["__rows__"],
            "nulls": row[f"nulls:{c}"],
            "min": row[f"min:{c}"],
            "max": row[f"max:{c}"],
            "mean": row[f"mean:{c}"],
        }
        if c in std_columns:
            out[c]["std"] = row[f"std:{c}"]
        if distinct:
            out[c]["distinct_hll"] = row[f"distinct:{c}"]
    return out


def psi_drift(observed: dict[str, int], profile: dict[str, float],
              *, eps: float = 1e-6) -> dict[str, Any]:
    """Population Stability Index vs a frequency profile.

    PSI = sum over buckets (p_obs - p_ref) * ln(p_obs / p_ref), with the
    conventional epsilon floor for empty buckets. Buckets observed but
    absent from the reference profile contribute terms with p_ref
    floored at eps — novel-category mass is a canonical drift signal
    (same stance as categorical_drift's unseen-category handling).
    Common monitoring thresholds: < 0.1 stable, 0.1-0.25 moderate
    shift, > 0.25 major.
    """
    import math

    n = sum(v for k, v in observed.items() if k != "__null__")
    stat = 0.0
    for b, ref in profile.items():
        p_obs = max(observed.get(b, 0) / n if n else 0.0, eps)
        p_ref = max(ref, eps)
        stat += (p_obs - p_ref) * math.log(p_obs / p_ref)
    for b, cnt in observed.items():
        if b == "__null__" or b in profile:
            continue
        p_obs = max(cnt / n if n else 0.0, eps)
        stat += (p_obs - eps) * math.log(p_obs / eps)
    return {"statistic": stat, "n": n,
            "shifted": stat > 0.25}


def categorical_drift(
    observed: dict[str, int], profile: dict[str, float]
) -> dict[str, Any]:
    """Chi-square goodness-of-fit of observed counts vs a frequency profile."""
    n = sum(v for k, v in observed.items() if k != "__null__")
    buckets = list(profile)
    stat = 0.0
    other_obs = sum(v for k, v in observed.items() if k not in profile and k != "__null__")
    for b in buckets:
        exp = profile[b] * n
        obs = observed.get(b, 0)
        if exp > 0:
            stat += (obs - exp) ** 2 / exp
    dof = len(buckets) - 1
    if other_obs:
        stat += float("inf") if n else 0.0  # unseen categories: certain drift
    p = 0.0 if stat == float("inf") else chi2_sf(stat, dof)
    return {"statistic": stat, "dof": dof, "p_value": p, "n": n,
            "unexpected_categories": other_obs}


def ks_drift(observed_hist: list[int], profile_freqs: list[float]) -> dict[str, Any]:
    """KS distance between a histogram and a reference bucket profile."""
    obs = np.asarray(observed_hist, dtype=np.float64)
    n = obs.sum()
    if n == 0:
        return {"statistic": 0.0, "p_value": 1.0, "n": 0}
    ecdf = np.cumsum(obs) / n
    ref = np.cumsum(np.asarray(profile_freqs, dtype=np.float64))
    ref = ref / ref[-1]
    d = float(np.max(np.abs(ecdf - ref)))
    return {"statistic": d, "p_value": ks_pvalue(d, n), "n": int(n)}


class CountMin(AggregateFn):
    """Count-Min sketch: a (d x w) count matrix; row r increments
    position h_r(key). Merge = elementwise sum (associative/commutative
    -> tree-aggregable); point estimate = min over rows, which only
    OVERcounts (by <= 2N/w with prob 1-2^-d). Constant memory no matter
    the key cardinality — the frequency analogue of the HLL sketch."""

    def __init__(self, on: str, w: int = 4096, d: int = 4,
                 alias_name: str | None = None):
        def accumulate_block(mat: np.ndarray, block) -> np.ndarray:
            if isinstance(block, pd.DataFrame):
                block = pa.Table.from_pandas(block, preserve_index=False)
            h = _hash64(block[on])
            if len(h) == 0:
                return mat
            mat = mat.copy()
            step = (h >> np.uint64(32)) | np.uint64(1)  # double hashing
            for r in range(d):
                pos = ((h + np.uint64(r) * step) % np.uint64(w)).astype(np.int64)
                np.add.at(mat[r], pos, 1)
            return mat

        super().__init__(
            init=lambda k: np.zeros((d, w), dtype=np.int64),
            merge=lambda a, b: a + b,
            accumulate_block=accumulate_block,
            finalize=lambda m: m,
            name=alias_name or f"cm({on})",
        )


def cm_estimate(mat: np.ndarray, keys, w: int, d: int) -> np.ndarray:
    """Point-estimate counts for an Arrow array of keys from a CountMin
    matrix (vectorized min-over-rows)."""
    h = _hash64(keys if isinstance(keys, (pa.Array, pa.ChunkedArray))
                else pa.array(keys))
    step = (h >> np.uint64(32)) | np.uint64(1)
    ests = np.empty((d, len(h)), dtype=np.int64)
    for r in range(d):
        pos = ((h + np.uint64(r) * step) % np.uint64(w)).astype(np.int64)
        ests[r] = mat[r][pos]
    return ests.min(axis=0)


def heavy_hitters_cm(ds, col: str, *, k: int = 10, w: int = 4096, d: int = 4,
                     candidates_per_batch: int = 64) -> pa.Table:
    """Approximate top-k frequent keys at unbounded cardinality:
    Count-Min sketch (constant memory, tree-merged) + a bounded
    candidate stream (each batch surfaces its local top
    ``candidates_per_batch`` keys — any global heavy hitter is locally
    frequent somewhere). Output (key, est_n), est desc / key asc;
    estimates only overcount. The constant-state scale path next to the
    exact ``grouped_count_topk`` (which shuffles every distinct key).
    """
    import pyarrow.compute as pc

    from ._fold import column_type, fold_table

    def local_top(batch: pa.Table) -> pa.Table:
        # null keys are excluded (the CM hash drops nulls, and SQL
        # GROUP BY semantics for the oracle count them separately)
        t = batch.select([col]).filter(pc.is_valid(batch[col].combine_chunks()))
        t = t.group_by(col).aggregate([([], "count_all")])
        t = t.rename_columns([col, "n"])
        return t.sort_by([("n", "descending")]).slice(0, candidates_per_batch)

    cand = fold_table(ds.map_batches(local_top, batch_format="pyarrow",
                                     zero_copy_batch=True))
    if cand is None:
        return pa.table({col: pa.array([], column_type(ds, col)),
                         "est_n": pa.array([], pa.int64())})
    cand = pc.unique(cand[col].combine_chunks())

    mat = np.asarray(ds.aggregate(CountMin(col, w=w, d=d, alias_name="cm"))["cm"])
    est = cm_estimate(mat, cand, w, d)
    out = pa.table({col: cand, "est_n": pa.array(est, pa.int64())})
    return out.sort_by([("est_n", "descending"), (col, "ascending")]).slice(0, k)


def zscore_by_group(ds, value_col: str, group_col: str, id_cols: list,
                    *, ddof: int = 1):
    """(ids..., group, z): per-group standardization of a numeric column
    — the feature-engineering normalize step. Two passes, zero large
    shuffles: a grouped (count, sum, sum-of-squares) combiner produces
    one tiny (groups x 3) table that is broadcast; the second streaming
    pass computes z = round((v - mean) / std, 6) per batch. Groups with
    std == 0 (or a single row) emit z = 0, matching SQL's NULL-guarded
    oracle convention.
    """
    import pyarrow.compute as pc
    import ray

    def moments(batch) -> pa.Table:
        v = pc.cast(batch[value_col], pa.float64())
        # null values don't contribute to the moments (SQL AVG/STDDEV
        # semantics); their rows are dropped from the output too
        return pa.table({group_col: batch[group_col], "v": v,
                         "vv": pc.multiply(v, v)}).filter(pc.is_valid(v))

    merged = fold_combine(
        ds.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
        group_col, {"n": ("v", "count_all"), "s": ("v", "sum"),
                    "ss": ("vv", "sum")})
    stats = {}
    for g, n, s, ss in zip(
        merged[group_col].to_pylist(), merged["n"].to_pylist(),
        merged["s"].to_pylist(), merged["ss"].to_pylist(),
    ):
        mean = s / n
        var = (ss - n * mean * mean) / (n - ddof) if n > ddof else 0.0
        std = var ** 0.5 if var > 0 else 0.0
        stats[g] = (mean, std)
    stats_ref = ray.put(stats)

    def apply(batch) -> pa.Table:
        st = ray.get(stats_ref)
        batch = batch.filter(
            pc.is_valid(pc.cast(batch[value_col], pa.float64()))
        )
        groups = batch[group_col].to_pylist()
        v = pc.cast(batch[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        means = np.fromiter((st.get(g, (0.0, 0.0))[0] for g in groups),
                            dtype=np.float64, count=len(groups))
        stds = np.fromiter((st.get(g, (0.0, 0.0))[1] for g in groups),
                           dtype=np.float64, count=len(groups))
        z = np.where(stds > 0, (v - means) / np.where(stds > 0, stds, 1.0), 0.0)
        cols = {c: batch[c] for c in id_cols}
        cols[group_col] = batch[group_col]
        cols["z"] = pa.array(np.round(z, 6), pa.float64())
        return pa.table(cols)

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)




def _grouped_int_sums(ds, key_col: str, val_col):
    """One combiner-first pass -> pa.Table (key, total int64). The
    result is bounded by KEY CARDINALITY, not data size — callers
    broadcast it, so the key must be low-cardinality by contract
    (categorical flags, event types, languages). ``val_col=None``
    counts rows instead of summing a column."""
    import pyarrow.compute as pc

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({key_col: batch[key_col],
                         "v": pc.cast(batch[val_col], pa.int64())})

    if val_col is None:
        merged = fold_combine(ds, key_col, {"total": (key_col, "count_all")})
    else:
        merged = fold_combine(
            ds.map_batches(project, batch_format="pyarrow",
                           zero_copy_batch=True),
            key_col, {"total": ("v", "sum")})
    # a key whose values are ALL null sums to null; freeze it to 0 (SQL
    # SUM-skips-nulls semantics) so no NaN reaches the grand total
    return merged.set_column(
        1, "total", pc.fill_null(pc.cast(merged["total"], pa.int64()), 0)
    )


def group_share_of_total(ds, key_col: str, *, val_col: str | None = None):
    """(key, total, share_e6): each key's integer total (row count when
    ``val_col`` is None, else the int64 sum of ``val_col``) and its
    e6-integer share of the grand total — the percent-of-total report.
    One combiner-first pass; the grand total folds from the tiny
    (key-cardinality) grouped table, never from the data."""
    g = _grouped_int_sums(ds, key_col, val_col)
    tot = g["total"].to_numpy(zero_copy_only=False).astype(np.int64)
    grand = int(tot.sum())
    return pa.table(
        {
            key_col: g[key_col],
            "total": g["total"],
            "share_e6": pa.array(
                _share_e6(tot, np.full(len(tot), grand, np.int64)),
                pa.int64(),
            ),
        }
    )


def grouped_moments(ds, key_col: str, x_col: str, y_col: str) -> pa.Table:
    """Per-key EXACT integer second moments of two int columns:
    ``(key, n, sum_x, sum_y, sum_xx, sum_yy, sum_xy)`` — everything a
    Pearson correlation / covariance / regression audit needs, kept as
    int64 so Ray and the SQL oracle agree bit-for-bit (no
    float-summation-order drift; correlation itself is one driver-side
    division over a key-cardinality table). Rows with a null key, x or
    y are dropped (SQL ``WHERE x IS NOT NULL AND y IS NOT NULL``).

    Combiner-first: each batch collapses to at most key-cardinality
    partial rows; the fold is over partials only."""
    import pyarrow.compute as pc

    def products(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch[x_col], pa.int64())
        y = pc.cast(batch[y_col], pa.int64())
        keep = pc.and_(pc.is_valid(batch[key_col]),
                       pc.and_(pc.is_valid(x), pc.is_valid(y)))
        return pa.table({
            key_col: batch[key_col], "x": x, "y": y,
            "xx": pc.multiply(x, x), "yy": pc.multiply(y, y),
            "xy": pc.multiply(x, y),
        }).filter(keep)

    return fold_combine(
        ds.map_batches(products, batch_format="pyarrow", zero_copy_batch=True),
        key_col, {"n": ("x", "count"),
                  **{f"sum_{c}": (c, "sum")
                     for c in ("x", "y", "xx", "yy", "xy")}})


def share_of_group_total(ds, key_col: str, val_col: str, id_cols: list):
    """(ids..., key, val, share_e6): the percent-of-total WINDOW — each
    row's e6-integer share of its group's total, i.e. SQL
    ``v * 1e6 / SUM(v) OVER (PARTITION BY key)`` rounded half-up.

    Two passes, zero row-level shuffle: grouped int64 totals (bounded
    by key cardinality — the broadcast contract) fold once and ship via
    ``ray.put``; the second streaming pass does a vectorized
    ``pc.index_in`` lookup + integer divide per batch. Rows whose value
    is null are dropped (SQL WHERE v IS NOT NULL convention)."""
    import pyarrow.compute as pc
    import ray

    g = _grouped_int_sums(ds, key_col, val_col)
    side_ref = ray.put(
        (g[key_col].combine_chunks(),
         g["total"].to_numpy(zero_copy_only=False).astype(np.int64))
    )

    def apply(batch: pa.Table) -> pa.Table:
        keys_arr, totals = ray.get(side_ref)
        batch = batch.filter(pc.is_valid(batch[val_col]))
        v = pc.cast(batch[val_col], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        # index_in yields NULL for unseen keys; every key was seen in
        # pass 1 by construction, but null-typed indices crash the take
        idx = pc.fill_null(
            pc.index_in(batch[key_col].combine_chunks(), value_set=keys_arr),
            -1,
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        tot = totals[np.where(idx >= 0, idx, 0)]
        cols = {c: batch[c] for c in id_cols}
        cols[key_col] = batch[key_col]
        cols["val"] = pa.array(v, pa.int64())
        cols["share_e6"] = pa.array(_share_e6(v, tot), pa.int64())
        return pa.table(cols)

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


def grouped_corr(ds, group_col: str, x_col: str, y_col: str, *,
                 x_scale: int = 100, y_scale: int = 100) -> pa.Table:
    """Per-group Pearson correlation of two numeric columns as an e6
    integer — the feature-redundancy / leakage screen ("is this column
    just a rescale of that one?").

    Parity design: values freeze to integers (``floor(v*scale + .5)``),
    the five moments accumulate EXACTLY (grouped_moments' combiner-first
    integer fold), and only the last step — one divide and one sqrt per
    GROUP, over identical integers — runs in float64, where IEEE
    correctly-rounded ops in the same order make numpy and DuckDB
    bit-identical. Zero-variance groups emit 0 (SQL CASE mirror).

    Scale: one combiner pass (per-batch partials at group cardinality),
    a tiny fold, O(groups) driver math. At 100 TB the int64 per-batch
    products are safe (bounded blocks); the cross-batch fold uses
    HUGEINT-equivalent Python ints via the final to_pylist."""
    import math

    import pyarrow.compute as pc

    def proj(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(t[x_col]), pc.is_valid(t[y_col]))
        t = t.filter(keep)
        x = np.floor(
            t[x_col].to_numpy(zero_copy_only=False) * x_scale + 0.5
        ).astype(np.int64)
        y = np.floor(
            t[y_col].to_numpy(zero_copy_only=False) * y_scale + 0.5
        ).astype(np.int64)
        return pa.table({
            group_col: t[group_col],
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
        })

    m = grouped_moments(
        ds.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True),
        group_col, "x", "y",
    )
    groups = m[group_col].to_pylist()
    if not groups:
        return pa.schema([
            (group_col, m.schema.field(group_col).type),
            ("n", pa.int64()), ("corr_e6", pa.int64()),
        ]).empty_table()
    out_n, out_c = [], []
    for g, n, sx, sy, sxx, syy, sxy in zip(
        groups, m["n"].to_pylist(), m["sum_x"].to_pylist(),
        m["sum_y"].to_pylist(), m["sum_xx"].to_pylist(),
        m["sum_yy"].to_pylist(), m["sum_xy"].to_pylist(),
    ):
        num = n * sxy - sx * sy          # exact Python ints
        varx = n * sxx - sx * sx
        vary = n * syy - sy * sy
        if varx <= 0 or vary <= 0:
            c = 0
        else:
            corr = float(num) / math.sqrt(float(varx) * float(vary))
            c = int(math.floor(corr * 1e6 + 0.5))
        out_n.append(n)
        out_c.append(c)
    return pa.table({
        group_col: m[group_col].combine_chunks(),
        "n": pa.array(out_n, pa.int64()),
        "corr_e6": pa.array(out_c, pa.int64()),
    })


def _exact_dot(n: np.ndarray) -> int:
    """Exact sum of squares of an int64 count vector. Vectorized int64
    dot when provably overflow-free (hottest key < ~2^31 AND the total
    fits), Python-int fallback otherwise (exactness is load-bearing for
    the oracle; the fallback only triggers on astronomically hot keys).
    Caller note: the per-block partial must itself fit int64 — true
    whenever the result path is reachable (the fallback raises past
    2^63, which would need a single key hotter than 3e9 rows)."""
    if len(n) == 0:
        return 0
    mx = int(n.max())
    if mx < 2**31 and len(n) * mx * mx < 2**62:
        return int(np.dot(n, n))
    total = sum(int(x) * int(x) for x in n)
    if total >= 2**63:
        raise OverflowError(
            "key_skew_report partial sum-of-squares exceeds int64 — "
            "a single key exceeds ~3e9 rows; pre-aggregate or sample"
        )
    return total


def key_skew_report(ds, key_col: str) -> pa.Table:
    """One-row key-distribution skew report — the "should I salt this
    shuffle?" advisor that pairs with salted_shuffle_join (keyed
    aggregation needs no salt: ``bucket_combine`` folds a hot key to one
    row per batch): distinct keys, total rows, the heaviest key's
    count, the Herfindahl concentration index (sum over keys of
    (n_i/N)^2; 1e6/n_keys = uniform, 1e6 = one key owns everything)
    and the imbalance factor max/mean — all as exact e6 integers
    (half-up integer divides, no float anywhere).

    Two combiner passes: ``bucket_combine`` key counts -> per-block
    (cnt, sum, sum-of-squares, max) moment partials folded driver-side
    with Python ints (the grouped_moments overflow-free recipe). Null
    keys dropped."""
    import pyarrow.compute as pc

    from ._fold import fold_table

    def valid(t: pa.Table) -> pa.Table:
        return t.select([key_col]).filter(pc.is_valid(t[key_col]))

    counts = bucket_combine(
        ds.map_batches(valid, batch_format="pyarrow", zero_copy_batch=True),
        key_col, {"n": (key_col, "count_all")})

    def moments(t: pa.Table) -> pa.Table:
        n = pc.cast(t["n"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "keys": pa.array([len(n)], pa.int64()),
            "total": pa.array([int(n.sum())], pa.int64()),
            "sum_n2": pa.array([_exact_dot(n)], pa.int64()),
            "max_n": pa.array([int(n.max()) if len(n) else 0], pa.int64()),
        })

    folded = fold_table(
        counts.map_batches(moments, batch_format="pyarrow",
                           zero_copy_batch=True)
    )
    schema = pa.schema([
        ("n_keys", pa.int64()), ("total", pa.int64()),
        ("max_n", pa.int64()), ("hhi_e6", pa.int64()),
        ("imbalance_e6", pa.int64()),
    ])
    if folded is None:
        return schema.empty_table()
    n_keys = sum(folded["keys"].to_pylist())
    total = sum(folded["total"].to_pylist())
    sum_n2 = sum(folded["sum_n2"].to_pylist())
    max_n = max(folded["max_n"].to_pylist())
    if total == 0:
        return schema.empty_table()
    hhi_e6 = (2 * sum_n2 * 1_000_000 + total * total) // (2 * total * total)
    imb_e6 = (2 * max_n * n_keys * 1_000_000 + total) // (2 * total)
    return pa.table({
        "n_keys": pa.array([n_keys], pa.int64()),
        "total": pa.array([total], pa.int64()),
        "max_n": pa.array([max_n], pa.int64()),
        "hhi_e6": pa.array([hhi_e6], pa.int64()),
        "imbalance_e6": pa.array([imb_e6], pa.int64()),
    })


# floor(log10(1 + 1/d) * 1e6 + 0.5) for d = 1..9 — sums to exactly
# 1_000_000; the same literals appear in the SQL oracle's VALUES list
BENFORD_P_E6 = (301030, 176091, 124939, 96910, 79181, 66947, 57992,
                51153, 45757)


def benford_digits(ds, col: str, *, cents: bool = True) -> pa.Table:
    """First-significant-digit distribution audit vs Benford's law —
    the classic fabricated-/synthetic-data detector for positive
    numeric columns spanning several orders of magnitude (amounts,
    populations, file sizes). Emits one row per digit 1..9 with the
    observed count, the Benford-expected count in e6 units
    (``total * p_e6``, exact int) and the chi-square contribution
    ``(obs - exp)^2 / exp`` as a half-up e6 integer, so the oracle
    agrees bit-for-bit (HUGEINT on the SQL side, Python ints here).

    Distributed shape: per-batch first-digit bincount partials (one
    float->cents vectorized pass + one Arrow int->string slice, no
    Python loop), folded driver-side — 9 ints per block, so the fold
    is O(blocks * 9) regardless of data size. ``cents=True`` freezes
    doubles as ``floor(x*100 + 0.5)`` (the shared money recipe);
    null / non-positive values are excluded on both sides."""
    import pyarrow.compute as pc

    from ._fold import fold_table

    def partial(t: pa.Table) -> pa.Table:
        v = t[col].combine_chunks().drop_null()
        x = v.to_numpy(zero_copy_only=False)
        n = (
            np.floor(x * 100.0 + 0.5).astype(np.int64)
            if cents else x.astype(np.int64)
        )
        n = n[n > 0]
        if len(n):
            digits = pc.cast(
                pc.utf8_slice_codeunits(
                    pc.cast(pa.array(n, pa.int64()), pa.string()), 0, 1
                ),
                pa.int64(),
            ).to_numpy(zero_copy_only=False)
            counts = np.bincount(digits, minlength=10)[1:10]
        else:
            counts = np.zeros(9, np.int64)
        return pa.table(
            {f"d{d}": pa.array([int(counts[d - 1])], pa.int64())
             for d in range(1, 10)}
        )

    folded = fold_table(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True)
    )
    obs = [
        (sum(folded[f"d{d}"].to_pylist()) if folded is not None else 0)
        for d in range(1, 10)
    ]
    total = sum(obs)
    exp_e6 = [total * p for p in BENFORD_P_E6]
    # diff = obs_e6 - exp_e6 = 1e6*(obs - exp); diff^2/exp_e6 =
    # 1e6*(obs-exp)^2/exp — the chi-square term ALREADY e6-scaled, so
    # the divisor is exp_e6 alone (an extra 1e6 would floor every
    # term < 0.5 to zero and destroy the audit's resolution)
    term_e6 = [
        0 if e == 0 else
        (2 * (o * 1_000_000 - e) ** 2 + e) // (2 * e)
        for o, e in zip(obs, exp_e6)
    ]
    return pa.table({
        "digit": pa.array(list(range(1, 10)), pa.int64()),
        "n_obs": pa.array(obs, pa.int64()),
        "expected_e6": pa.array(exp_e6, pa.int64()),
        "chi2_term_e6": pa.array(term_e6, pa.int64()),
    })


def volume_drift(ds, ts_col: str, key_col: str, *,
                 threshold_e6: int = 50_000) -> pa.Table:
    """Temporal volume-drift audit: per key, the row count in the first
    vs second half of the table's time range and their half-up e6
    ratio, flagging keys whose volume moved more than ``threshold_e6``
    (default 5%) — the monitoring staple that catches a source that
    went quiet or a bot that spun up mid-capture.

    Two combiner passes, both bounded: (1) per-block (min, max)
    timestamp partials folded to the global midpoint in integer
    microseconds (identical to SQL ``epoch_us``); (2) per-batch
    (key, half) count partials folded per key — ``key_col`` must be
    low-cardinality by contract (event types, languages, formats).
    Null timestamps / keys are excluded on both sides. Keys absent
    from a half report 0; ``ratio_e6`` is -1 when the first half has
    no rows (division undefined, always drifted)."""
    import pyarrow.compute as pc

    from ._fold import fold_table

    def minmax(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col].combine_chunks(), pa.int64()).drop_null()
        if len(us) == 0:
            return pa.schema(
                [("mn", pa.int64()), ("mx", pa.int64())]
            ).empty_table()
        return pa.table({
            "mn": pa.array([pc.min(us).as_py()], pa.int64()),
            "mx": pa.array([pc.max(us).as_py()], pa.int64()),
        })

    schema = pa.schema([
        (key_col, pa.string()), ("n_first", pa.int64()),
        ("n_second", pa.int64()), ("ratio_e6", pa.int64()),
        ("drifted", pa.bool_()),
    ])
    bounds = fold_table(
        ds.map_batches(minmax, batch_format="pyarrow", zero_copy_batch=True)
    )
    if bounds is None:
        return schema.empty_table()
    mn = min(bounds["mn"].to_pylist())
    mx = max(bounds["mx"].to_pylist())
    mid = (mn + mx) // 2

    def halves(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col].combine_chunks(), pa.int64())
        return pa.table({
            key_col: t[key_col],
            "second": pc.greater_equal(us, mid),
        }).filter(
            pc.and_(pc.is_valid(t[key_col].combine_chunks()),
                    pc.is_valid(us))
        )

    merged = fold_combine(
        ds.map_batches(halves, batch_format="pyarrow", zero_copy_batch=True),
        [key_col, "second"], {"n": ("second", "count_all")})
    if not merged.num_rows:
        return schema.empty_table()
    df = merged.to_pandas().pivot_table(
        index=key_col, columns="second", values="n",
        aggfunc="sum", fill_value=0,
    )
    keys = df.index.to_numpy()
    n_first = (
        df[False].to_numpy(np.int64) if False in df.columns
        else np.zeros(len(df), np.int64)
    )
    n_second = (
        df[True].to_numpy(np.int64) if True in df.columns
        else np.zeros(len(df), np.int64)
    )
    ratio = np.where(
        n_first > 0,
        (2 * n_second * 1_000_000 + n_first) // (2 * np.maximum(n_first, 1)),
        -1,
    ).astype(np.int64)
    drifted = (n_first == 0) | (np.abs(ratio - 1_000_000) > threshold_e6)
    order = np.argsort(keys, kind="stable")
    return pa.table({
        key_col: pa.array(keys[order]),
        "n_first": pa.array(n_first[order], pa.int64()),
        "n_second": pa.array(n_second[order], pa.int64()),
        "ratio_e6": pa.array(ratio[order], pa.int64()),
        "drifted": pa.array(drifted[order], pa.bool_()),
    })


def _day_counts(ds, ts_col: str, day_us: int):
    """``(days, ns)``: each day holding a non-null ``ts_col`` (integer
    microseconds // ``day_us``, SQL's ``epoch_us // day_us``) in
    ascending order, and its row count, as int64 arrays."""
    import pyarrow.compute as pc

    def day(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col].combine_chunks(), pa.int64()).drop_null()
        return pa.table({"day_idx": pc.divide(us, day_us)})  # floor division

    counts = fold_combine(
        ds.map_batches(day, batch_format="pyarrow", zero_copy_batch=True),
        "day_idx", {"n": ("day_idx", "count_all")}).sort_by("day_idx")
    return (counts["day_idx"].to_numpy().astype(np.int64),
            counts["n"].to_numpy().astype(np.int64))


def ewma_anomalies(ds, ts_col: str, *, alpha_e6: int = 300_000,
                   threshold_e6: int = 100_000,
                   day_us: int = 86_400_000_000) -> pa.Table:
    """Daily-volume anomaly detection via an exponentially-weighted
    moving average: each day's row count is compared against the EWMA
    of the PRECEDING days and flagged when it deviates by more than
    ``threshold_e6`` (e6 ratio, default 10%) — the capture-side
    monitoring alarm for a source that spiked or died (the sequential
    complement of ``volume_drift``'s two-halves view).

    Distributed shape: per-batch (day, n) count partials (day = integer
    microseconds // day_us, identical to SQL ``epoch_us // day_us``),
    folded and summed driver-side — bounded by DISTINCT DAYS, never
    rows. The EWMA recursion runs over that day table (sequential by
    definition; bounded by construction). All smoothing state is exact
    integer fixed-point: ``s_t = halfup((a*n_t*1e6 + (1e6-a)*s_{t-1}) /
    1e6)`` — bit-identical to the recursive-CTE oracle. The first day
    has no baseline: ``ewma_prev_e6 = -1``, never anomalous."""
    days, ns = _day_counts(ds, ts_col, day_us)
    prev_e6, flags = [], []
    s = None
    for n in ns:
        n = int(n)
        if s is None:
            prev_e6.append(-1)
            flags.append(False)
            s = n * 1_000_000
        else:
            prev_e6.append(s)
            flags.append(
                abs(n * 1_000_000 - s) * 1_000_000 > threshold_e6 * s
            )
            num = alpha_e6 * n * 1_000_000 + (1_000_000 - alpha_e6) * s
            s = (2 * num + 1_000_000) // 2_000_000
    return pa.table({
        "day_idx": pa.array(days.astype(np.int64), pa.int64()),
        "n": pa.array(ns.astype(np.int64), pa.int64()),
        "ewma_prev_e6": pa.array(prev_e6, pa.int64()),
        "anomalous": pa.array(flags, pa.bool_()),
    })


def daily_active_users(ds, ts_col: str, user_col: str, *,
                       day_us: int = 86_400_000_000) -> pa.Table:
    """Daily-active / new-user audit: per day the EXACT distinct user
    count and how many of those users appeared for the first time —
    the engagement-shape check that catches id-space resets (every
    user suddenly "new") and logging dropouts (DAU cliff).

    Scale shape: per-batch local (day, user) dedup shrinks the input
    before ONE distributed distinct groupby; per-day counts and
    first-seen days then fold from DISTINCT-PAIR partials, bounded by
    days x blocks and users respectively, and the final assembly is a
    days-sized driver table. Null timestamps / users are excluded."""
    import pyarrow.compute as pc

    def pairs(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col].combine_chunks(), pa.int64())
        return pa.table({
            "day_idx": pc.divide(us, day_us),
            user_col: t[user_col],
        }).filter(
            pc.and_(pc.is_valid(us),
                    pc.is_valid(t[user_col].combine_chunks()))
        )

    # materialized: BOTH the per-day fold and the first-seen branch
    # consume it — without this the read + dedup + distinct shuffle
    # would re-execute per consumer (the multi-consumer lesson)
    distinct = bucket_combine(
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["day_idx", user_col], {},
    ).materialize()

    def per_day(rows) -> dict:
        m = fold_combine(rows, "day_idx", {"n": ("day_idx", "count_all")})
        return dict(zip(m["day_idx"].to_pylist(), m["n"].to_pylist()))

    dau = per_day(distinct)
    if not dau:
        return pa.schema([("day_idx", pa.int64()), ("dau", pa.int64()),
                          ("new_users", pa.int64())]).empty_table()
    new = per_day(bucket_combine(distinct, user_col,
                                 {"day_idx": ("day_idx", "min")}))
    days = sorted(dau)
    return pa.table({
        "day_idx": pa.array(days, pa.int64()),
        "dau": pa.array([int(dau[d]) for d in days], pa.int64()),
        "new_users": pa.array([int(new.get(d, 0)) for d in days],
                              pa.int64()),
    })


def rate_wilson_ci(ds, col: str, value, *, z: float = 1.96) -> pa.Table:
    """One-row Wilson score interval for the rate of ``col == value``:
    (n, k, rate_e6, lo, hi) — the sample-size-aware version of a flat
    rate threshold (a 2% error rate over 100 rows and over 10 million
    rows are different facts; a release gate should compare the BOUND,
    not the point estimate).

    Counts fold from per-batch integer partials (bounded, exact). The
    interval itself is one float expression over those two integers,
    written identically in the SQL oracle and rounded to 6dp on both
    sides (the grouped-corr recipe: correctly-rounded IEEE div/sqrt
    over identical integers). Null cells count in n, not in k."""
    import math

    import pyarrow.compute as pc

    from ._fold import fold_table

    def partial(t: pa.Table) -> pa.Table:
        c = t[col].combine_chunks()
        k = pc.sum(pc.equal(c, value)).as_py() or 0
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "k": pa.array([int(k)], pa.int64()),
        })

    schema = pa.schema([
        ("n", pa.int64()), ("k", pa.int64()), ("rate_e6", pa.int64()),
        ("lo", pa.float64()), ("hi", pa.float64()),
    ])
    folded = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if folded is None:
        return schema.empty_table()
    n = sum(folded["n"].to_pylist())
    k = sum(folded["k"].to_pylist())
    if n == 0:
        return schema.empty_table()
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = p + z2 / (2.0 * n)
    margin = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "k": pa.array([k], pa.int64()),
        "rate_e6": pa.array([(2 * k * 1_000_000 + n) // (2 * n)],
                            pa.int64()),
        "lo": pa.array([round((center - margin) / denom, 6)], pa.float64()),
        "hi": pa.array([round((center + margin) / denom, 6)], pa.float64()),
    })


def hourly_profile_drift(ds, ts_col: str, *,
                         hour_us: int = 3_600_000_000) -> pa.Table:
    """Hour-of-day seasonality drift: the 24-bin hour profile of the
    first vs second half of the capture window, each hour's share of
    its half as half-up e6 integers, and the share delta — the
    cyclical complement of ``volume_drift`` (a bot ramping up at night
    moves the PROFILE long before it moves daily totals).

    Two bounded combiner passes (global midpoint in integer
    microseconds, then per-(hour, half) count partials folded
    driver-side — 48 ints per block). All 24 hours emit a row (zeros
    included); shares are -1 for an empty half."""
    import pyarrow.compute as pc

    from ._fold import fold_table

    def minmax(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col].combine_chunks(), pa.int64()).drop_null()
        if len(us) == 0:
            return pa.schema(
                [("mn", pa.int64()), ("mx", pa.int64())]
            ).empty_table()
        return pa.table({
            "mn": pa.array([pc.min(us).as_py()], pa.int64()),
            "mx": pa.array([pc.max(us).as_py()], pa.int64()),
        })

    schema = pa.schema([
        ("hour", pa.int64()), ("n_first", pa.int64()),
        ("n_second", pa.int64()), ("share_first_e6", pa.int64()),
        ("share_second_e6", pa.int64()), ("delta_e6", pa.int64()),
    ])
    bounds = fold_table(
        ds.map_batches(minmax, batch_format="pyarrow", zero_copy_batch=True)
    )
    if bounds is None:
        return schema.empty_table()
    mid = (min(bounds["mn"].to_pylist()) + max(bounds["mx"].to_pylist())) // 2

    def hours(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col].combine_chunks(), pa.int64()).drop_null()
        v = us.to_numpy(zero_copy_only=False)
        return pa.table({"hour": pa.array((v // hour_us) % 24, pa.int64()),
                         "second": pa.array((v >= mid).astype(np.int64))})

    m = fold_combine(
        ds.map_batches(hours, batch_format="pyarrow", zero_copy_batch=True),
        ["hour", "second"], {"n": ("hour", "count_all")})
    counts = np.zeros((24, 2), np.int64)
    np.add.at(counts, (m["hour"].to_numpy(), m["second"].to_numpy()),
              m["n"].to_numpy())
    f, s = counts[:, 0], counts[:, 1]
    tf, ts_ = int(f.sum()), int(s.sum())
    sf = (
        (2 * f * 1_000_000 + tf) // (2 * tf) if tf > 0
        else np.full(24, -1, np.int64)
    )
    ss = (
        (2 * s * 1_000_000 + ts_) // (2 * ts_) if ts_ > 0
        else np.full(24, -1, np.int64)
    )
    delta = np.where((tf > 0) & (ts_ > 0), ss - sf, 0)
    return pa.table({
        "hour": pa.array(np.arange(24, dtype=np.int64), pa.int64()),
        "n_first": pa.array(f, pa.int64()),
        "n_second": pa.array(s, pa.int64()),
        "share_first_e6": pa.array(sf, pa.int64()),
        "share_second_e6": pa.array(ss, pa.int64()),
        "delta_e6": pa.array(np.asarray(delta, np.int64), pa.int64()),
    })


def grouped_share_ci(ds, key_col: str, *, z: float = 1.96) -> pa.Table:
    """Per-key share of total with Wilson 95% bounds — the error-bar
    version of the percent-of-total report (a dashboard that renders a
    2% share from 50 rows and from 5 million rows identically is
    lying about certainty).

    One combiner-first count pass (key cardinality bounded by
    contract); shares as half-up e6 ints; the bounds are one float
    expression per key over exact integers, written identically in the
    SQL oracle and rounded to 6dp (the Wilson/corr parity recipe).
    Null keys are excluded from n entirely."""
    import math

    keys_tbl = _grouped_int_sums(ds, key_col, None)
    pairs = [
        (k, int(v))
        for k, v in zip(keys_tbl[key_col].to_pylist(),
                        keys_tbl["total"].to_pylist())
        if k is not None
    ]
    pairs.sort()
    n = sum(v for _, v in pairs)
    schema = pa.schema([
        (key_col, pa.string()), ("n_key", pa.int64()),
        ("share_e6", pa.int64()), ("lo", pa.float64()),
        ("hi", pa.float64()),
    ])
    if n == 0:
        return schema.empty_table()
    z2 = z * z
    rows = {name: [] for name in schema.names}
    for k, v in pairs:
        p = v / n
        denom = 1.0 + z2 / n
        center = p + z2 / (2.0 * n)
        margin = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
        rows[key_col].append(k)
        rows["n_key"].append(v)
        rows["share_e6"].append((2 * v * 1_000_000 + n) // (2 * n))
        rows["lo"].append(round((center - margin) / denom, 6))
        rows["hi"].append(round((center + margin) / denom, 6))
    return pa.table(
        {name: pa.array(rows[name], schema.field(name).type)
         for name in schema.names}
    )


def grouped_key_entropy(ds, group_col: str, key_col: str,
                        log2_e12: np.ndarray) -> "object":
    """Per-group Shannon entropy of the key distribution (e6-integer
    bits) + event and distinct-key counts — the behavioral-diversity
    fingerprint (a user whose events are one type at entropy 0 is a
    bot or a broken logger; the same signal flags single-value columns
    per partition).

    INTEGER-EXACT via the frozen log2 artifact (the char_entropy
    recipe): with L(m) = floor(log2(m)*1e12 + 0.5),
    ``H_num = N*L(N) - sum_k c_k*L(c_k)`` and
    ``entropy_e6 = (H_num + N*500000) // (N*1000000)`` — both sides do
    pure int64/HUGEINT arithmetic. Distributed shape: per-batch
    (group, key) count partials -> one distributed (group, key) groupby
    -> vectorized c*L(c) map -> one tiny (group) groupby -> final
    vectorized entropy map. ``log2_e12`` is the artifact's l_e12 array
    (1-indexed by count); counts beyond its range raise."""
    import pyarrow.compute as pc
    import ray

    L = np.concatenate(([0], log2_e12)).astype(np.int64)
    L_ref = ray.put(L)

    def valid(t: pa.Table) -> pa.Table:
        return pa.table({
            group_col: t[group_col],
            key_col: t[key_col],
        }).filter(
            pc.and_(pc.is_valid(t[group_col].combine_chunks()),
                    pc.is_valid(t[key_col].combine_chunks()))
        )

    counts = bucket_combine(
        ds.map_batches(valid, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, key_col], {"c": (key_col, "count_all")})

    def to_cl(t: pa.Table) -> pa.Table:
        Lw = ray.get(L_ref)
        c = t["c"].to_numpy(zero_copy_only=False)
        if len(c) and int(c.max()) >= len(Lw):
            raise ValueError(
                f"count {int(c.max())} exceeds the log2 artifact range "
                f"({len(Lw) - 1}); rebuild with a larger table"
            )
        return pa.table({
            group_col: t[group_col],
            "c": pa.array(c, pa.int64()),
            "cl": pa.array(c * Lw[c], pa.int64()),
        })

    per = bucket_combine(
        counts.map_batches(to_cl, batch_format="pyarrow",
                           zero_copy_batch=True),
        group_col, {"n": ("c", "sum"), "scl": ("cl", "sum"),
                    "n_keys": ("c", "count_all")})

    def finish(t: pa.Table) -> pa.Table:
        Lw = ray.get(L_ref)
        n = t["n"].to_numpy(zero_copy_only=False)
        scl = t["scl"].to_numpy(zero_copy_only=False)
        keys = t["n_keys"].to_numpy(zero_copy_only=False)
        if len(n) and int(n.max()) >= len(Lw):
            raise ValueError(
                f"group size {int(n.max())} exceeds the log2 artifact "
                f"range ({len(Lw) - 1}); rebuild with a larger table"
            )
        h_num = n * Lw[n] - scl
        ent = (h_num + n * 500_000) // (n * 1_000_000)
        return pa.table({
            group_col: t[group_col],
            "n": pa.array(n, pa.int64()),
            "n_keys": pa.array(keys, pa.int64()),
            "entropy_e6": pa.array(ent, pa.int64()),
        })

    return per.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def grouped_trend_slope(ds, group_col: str, ts_col: str = "ts"):
    """(group, slope): per-group OLS slope of DAILY ROW COUNTS against
    the epoch-day index — the volume-trend detector ("which event types
    are growing/shrinking, how fast"). SQL mirror: regr_slope over the
    daily-count CTE, spelled as the integer-moment formula so both
    sides divide IDENTICAL exact integers (the grouped_corr recipe):

        slope = (n*Sxy - Sx*Sy) / (n*Sxx - Sx^2),  round 6

    Combiner-first: per-batch Arrow (group, day) count partials -> one
    small groupby-sum (rows bounded by groups x days) -> per-group
    Python-int moments (n*Sxy overflows int64 at 100 TB daily counts;
    exact big-int == the oracle's HUGEINT) and ONE float divide, per
    hash bucket of groups in ``bucket_apply``. A null group is one
    group, as in SQL ``GROUP BY``.
    Groups with < 2 distinct days (or zero day variance) are omitted —
    a slope needs two x values."""
    import pyarrow.compute as pc

    day_us = 86_400_000_000

    def day(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col].combine_chunks(), pa.int64())
        # integer division on int64
        return pa.table({group_col: batch[group_col],
                         "day": pc.divide(ts, day_us)})

    totals = bucket_combine(
        ds.map_batches(day, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, "day"], {"cnt": ("day", "count_all")})

    def slopes(t: pa.Table) -> pa.Table:
        # one row per (group, day): collect each group's points by the
        # index of its first row, so the output keeps the input's type
        points: dict = {}
        for i, (g, d, c) in enumerate(zip(t[group_col].to_pylist(),
                                          t["day"].to_pylist(),
                                          t["cnt"].to_pylist())):
            points.setdefault(g, (i, []))[1].append((d, c))
        first, vals = [], []
        for i, pts in points.values():
            n = len(pts)
            sx = sum(d for d, _ in pts)
            sy = sum(c for _, c in pts)
            sxy = sum(d * c for d, c in pts)
            sxx = sum(d * d for d, _ in pts)
            den = n * sxx - sx * sx
            if n < 2 or den == 0:
                continue
            first.append(i)
            vals.append(round(float(n * sxy - sx * sy) / float(den), 6))
        return pa.table({
            group_col: t[group_col].take(pa.array(first, pa.int64())),
            "slope": pa.array(vals, pa.float64()),
        })

    return bucket_apply(totals, group_col, slopes,
                        schema={group_col: group_col, "slope": pa.float64()})


def neyman_allocation(ds, *, group_col: str = "lang",
                      value_col: str = "n_chars",
                      budget: int = 10_000) -> pa.Table:
    """Neyman-optimal stratified sample allocation: split a sampling
    ``budget`` across strata proportionally to ``N_h * S_h`` (stratum
    size x population std of ``value_col``) — the variance-minimizing
    design for estimating the corpus mean, and the principled way to
    size per-language eval slices (a big low-variance stratum needs
    FEWER samples than a small noisy one).

    Exactness contract: per-stratum integer moments (n, Σx, Σx²) ride
    the shuffle, so ``N_h * S_h = sqrt(n·Σx² − (Σx)²)`` is ONE IEEE
    sqrt of an exact integer — quantized to e6 via the shared
    ``floor(x·1e6 + 0.5)`` expression on both sides — and the
    apportionment itself is pure integer largest-remainder math
    (``budget·w // W`` + leftovers by remainder desc, stratum asc), so
    the oracle matches bit-for-bit. Zero-variance strata get weight 0.

    Scale shape: per-batch per-stratum int partials -> |strata|-row
    fold -> driver apportionment over |strata| rows. Null group or
    value rows are excluded on both sides."""
    import pyarrow.compute as pc

    def moments(t: pa.Table) -> pa.Table:
        x = pc.cast(t[value_col], pa.int64())
        keep = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(x))
        return pa.table({group_col: t[group_col], "sx": x,
                         "sxx": pc.multiply(x, x)}).filter(keep)

    m = fold_combine(
        ds.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
        group_col, {"n": ("sx", "count_all"), "sx": ("sx", "sum"),
                    "sxx": ("sxx", "sum")})
    keys = [str(k) for k in m[group_col].to_pylist()]
    n = m["n"].to_numpy(zero_copy_only=False).astype(object)
    sx = m["sx"].to_numpy(zero_copy_only=False).astype(object)
    sxx = m["sxx"].to_numpy(zero_copy_only=False).astype(object)
    # Python ints: n*sxx - sx*sx is exact at any magnitude
    disc = [int(a) * int(b) - int(c) * int(c)
            for a, b, c in zip(n, sxx, sx)]
    w_e6 = [int(np.floor(np.sqrt(float(d)) * 1_000_000 + 0.5))
            for d in disc]
    total_w = sum(w_e6)
    if total_w == 0:
        alloc = [0] * len(keys)
    else:
        base = [budget * w // total_w for w in w_e6]
        rem = [budget * w % total_w for w in w_e6]
        leftover = budget - sum(base)
        order = sorted(range(len(keys)),
                       key=lambda i: (-rem[i], keys[i]))
        alloc = list(base)
        for i in order[:leftover]:
            alloc[i] += 1
    return pa.table({
        group_col: pa.array(keys, pa.string()),
        "n_docs": pa.array([int(v) for v in n], pa.int64()),
        "weight_e6": pa.array(w_e6, pa.int64()),
        "alloc": pa.array(alloc, pa.int64()),
    })


def cusum_drift(ds, ts_col: str, *, slack_pct: int = 5,
                h_pct: int = 20, day_us: int = 86_400_000_000) -> pa.Table:
    """One-sided CUSUM drift alarms on daily row volume — the
    change-point detector that catches a SUSTAINED small shift the
    EWMA's per-day threshold misses (ten days each 6% high never trip
    a 10% alarm; their accumulated sum does). Upper and lower CUSUMs
    against the global half-up mean daily count ``mu``:

        s_hi_t = max(0, s_hi_{t-1} + n_t - mu - slack)
        s_lo_t = max(0, s_lo_{t-1} + mu - n_t - slack)

    with ``slack = halfup(mu * slack_pct / 100)`` and alarm when either
    sum exceeds ``h = halfup(mu * h_pct / 100)``. All state is exact
    integer arithmetic; the oracle unrolls the same recursion as a
    recursive CTE over the day table (max() recursion is genuinely
    sequential in both engines — the third member of the oracled
    ITERATIVE family after EWMA and PageRank).

    Distributed shape: identical to ``ewma_anomalies`` — per-batch
    (day, count) partials bounded by distinct days; the recursion runs
    over the day table only."""
    schema = pa.schema([
        ("day_idx", pa.int64()), ("n", pa.int64()),
        ("cusum_hi", pa.int64()), ("cusum_lo", pa.int64()),
        ("alarm", pa.bool_()),
    ])
    days, ns = _day_counts(ds, ts_col, day_us)
    if not len(days):
        return schema.empty_table()
    total = int(ns.sum())
    nd = len(ns)
    mu = (2 * total + nd) // (2 * nd)
    slack = (2 * mu * slack_pct + 100) // 200
    h = (2 * mu * h_pct + 100) // 200
    hi, lo, alarms = [], [], []
    s_hi = s_lo = 0
    for n in ns:
        n = int(n)
        s_hi = max(0, s_hi + n - mu - slack)
        s_lo = max(0, s_lo + mu - n - slack)
        hi.append(s_hi)
        lo.append(s_lo)
        alarms.append(s_hi > h or s_lo > h)
    return pa.table({
        "day_idx": pa.array(days.astype(np.int64), pa.int64()),
        "n": pa.array(ns.astype(np.int64), pa.int64()),
        "cusum_hi": pa.array(hi, pa.int64()),
        "cusum_lo": pa.array(lo, pa.int64()),
        "alarm": pa.array(alarms, pa.bool_()),
    })
