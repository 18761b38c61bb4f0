"""Distributed rank / zip-with-index over an ordered Dataset.

Ray Data has no zip-with-index; the classic distributed recipe
(SURVEY.md §2.4 sorts/limits) is:

1. materialize the (already sorted) Dataset — the sort shuffle has
   materialized the blocks anyway, so this adds no data movement;
2. pull ONLY block metadata to the driver (one ``num_rows`` int per
   block) and prefix-sum the offsets — bytes, not rows;
3. append the ordinal column inside one remote task per block using its
   offset — rows never touch the driver.

At 10^12 rows this is exactly the plan a multi-node engine runs: the
driver handles O(num_blocks) integers; rank assignment is embarrassing
parallel over blocks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ._bucket import fold_combine


@ray.remote
def _add_index(block, column: str, offset: int):
    t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
    idx = pa.array(np.arange(offset, offset + t.num_rows, dtype=np.int64), pa.int64())
    return t.append_column(column, idx)


def zip_with_index(ds, *, index_col: str = "rank", start: int = 1):
    """Append a global 1-based ordinal column to an ordered Dataset.

    ``ds`` must already carry the intended order (e.g. the output of
    ``ds.sort``) — block order defines the numbering.
    """
    mat = ds.materialize()
    refs: list = []
    counts: list[int] = []
    for bundle in mat.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            refs.append(block_ref)
            counts.append(meta.num_rows)
    if not refs:
        # keep the empty-input schema identical to non-empty outputs
        # (downstream projections of index_col must not fail)
        schema = mat.schema()
        base = getattr(schema, "base_schema", None) if schema is not None else None
        cols = (
            {n: pa.array([], t) for n, t in zip(base.names, base.types)}
            if base is not None
            else {}
        )
        cols[index_col] = pa.array([], pa.int64())
        return rd.from_arrow(pa.table(cols))
    offsets = start + np.concatenate([[0], np.cumsum(counts[:-1])])
    out = [
        _add_index.remote(r, index_col, int(o)) for r, o in zip(refs, offsets)
    ]
    return rd.from_arrow_refs(out)


@ray.remote
def _block_sum(block, column: str) -> int:
    t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
    import pyarrow.compute as pc

    s = pc.sum(t[column])
    return int(s.as_py() or 0)


@ray.remote
def _add_offsets(block, column: str, offset_col: str, offset: int):
    t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
    vals = t[column].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    excl = offset + np.concatenate([[0], np.cumsum(vals[:-1])]) if len(vals) else (
        np.empty(0, np.int64)
    )
    return t.append_column(offset_col, pa.array(excl, pa.int64()))


def zip_with_cumsum(ds, value_col: str, *, offset_col: str = "offset",
                    start: int = 0):
    """Append the EXCLUSIVE running sum of ``value_col`` in dataset
    order (SQL ``SUM(v) OVER (ORDER BY ... ROWS UNBOUNDED PRECEDING AND
    1 PRECEDING)``) — the zip_with_index recipe generalized from counts
    to value prefix sums: one tiny remote sum per block, a driver
    prefix-sum over O(num_blocks) ints, then an embarrassingly parallel
    per-block cumsum task. Rows never touch the driver."""
    mat = ds.materialize()
    refs: list = []
    for bundle in mat.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    if not refs:
        schema = mat.schema()
        base = getattr(schema, "base_schema", None) if schema is not None else None
        cols = (
            {n: pa.array([], t) for n, t in zip(base.names, base.types)}
            if base is not None
            else {}
        )
        cols[offset_col] = pa.array([], pa.int64())
        return rd.from_arrow(pa.table(cols))
    sums = ray.get([_block_sum.remote(r, value_col) for r in refs])
    offsets = start + np.concatenate([[0], np.cumsum(sums[:-1])])
    out = [
        _add_offsets.remote(r, value_col, offset_col, int(o))
        for r, o in zip(refs, offsets)
    ]
    return rd.from_arrow_refs(out)


def ranked(ds, sort_keys: list[str], *, index_col: str = "rank"):
    """Global sort + rank: ``ds.sort(sort_keys)`` then zip-with-index."""
    return zip_with_index(ds.sort(sort_keys), index_col=index_col)


def approx_quantiles(ds, col: str, qs: list[float], *, bins: int = 4096) -> pa.Table:
    """Approximate quantiles via a mergeable two-pass histogram sketch —
    the 100-TB path (exact_quantiles sorts the whole column; this does
    two streaming aggregate passes with constant-size state).

    Pass 1: min/max (tree aggregate). Pass 2: fixed-bin histogram
    between them (mergeable int vector). Quantile = linear interpolation
    inside the target bin; worst-case error is one bin width
    ((max-min)/bins).
    """
    from ray.data.aggregate import Max, Min

    from ..stages.stats import Histogram

    bounds = ds.aggregate(Min(col, alias_name="lo"), Max(col, alias_name="hi"))
    lo, hi = float(bounds["lo"]), float(bounds["hi"])
    if hi <= lo:
        return pa.table({"q": pa.array(list(qs), pa.float64()),
                         "value": pa.array([lo] * len(qs), pa.float64())})
    hist = np.asarray(
        ds.aggregate(Histogram(col, lo=lo, hi=hi, bins=bins, alias_name="h"))["h"],
        dtype=np.float64,
    )
    n = hist.sum()
    cdf = np.cumsum(hist) / n
    edges = np.linspace(lo, hi, bins + 1)
    out = []
    for q in qs:
        b = int(np.searchsorted(cdf, q, side="left"))
        b = min(b, bins - 1)
        prev = cdf[b - 1] if b > 0 else 0.0
        frac = (q - prev) / max(cdf[b] - prev, 1e-300)
        out.append(edges[b] + frac * (edges[b + 1] - edges[b]))
    return pa.table({"q": pa.array(list(qs), pa.float64()),
                     "value": pa.array(out, pa.float64())})


def exact_quantiles(ds, col: str, qs: list[float]) -> pa.Table:
    """EXACT quantiles of a column via the distributed order statistics:
    sort shuffle -> per-block offsets -> each target rank fetched from
    exactly one block. No approximation, no driver sort; the driver
    touches O(num_blocks) counts and len(qs) scalar lookups.

    Rank convention: value at 1-based rank ``floor((n-1) * q) + 1`` of
    the ascending order — i.e. ``ORDER BY col LIMIT 1 OFFSET
    floor((n-1)*q)``, so a SQL oracle reproduces it exactly.
    """
    mat = ds.sort(col).materialize()
    refs: list = []
    counts: list[int] = []
    for bundle in mat.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            refs.append(block_ref)
            counts.append(meta.num_rows)
    n = int(sum(counts))
    if n == 0:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})
    offsets = np.concatenate([[0], np.cumsum(counts)])

    @ray.remote
    def pick(block, local_idx: list[int]):
        t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
        return [t[col][i].as_py() for i in local_idx]

    # map each target rank to (block, local index); one task per block hit
    wanted: dict[int, list[tuple[int, int]]] = {}
    for qi, q in enumerate(qs):
        r = int(np.floor((n - 1) * q))  # 0-based global index
        b = int(np.searchsorted(offsets, r, side="right")) - 1
        wanted.setdefault(b, []).append((qi, r - int(offsets[b])))
    out: list = [None] * len(qs)
    futures = {
        b: pick.remote(refs[b], [idx for _, idx in pairs])
        for b, pairs in wanted.items()
    }
    for b, pairs in wanted.items():
        vals = ray.get(futures[b])
        for (qi, _), v in zip(pairs, vals):
            out[qi] = v
    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            "value": pa.array([float(v) for v in out], pa.float64()),
        }
    )


def winsorize(ds, col: str, *, lo_q: float = 0.05, hi_q: float = 0.95,
              out_col: str | None = None, method: str = "exact"):
    """Two-pass percentile clamp (winsorization), the standard outlier
    repair for heavy-tailed numeric columns before stats/training:
    pass 1 computes the [lo_q, hi_q] bounds (``method="exact"`` via the
    distributed order statistics of ``exact_quantiles``; ``"approx"``
    via the mergeable histogram sketch — the 100 TB path, one scan, no
    sort shuffle), the two scalars broadcast in the task closure, and
    pass 2 clamps in one vectorized map. Values outside the band snap
    to the boundary VALUE (an actual column value under ``exact``), so
    a SQL oracle reproduces the output bit-for-bit from the same rank
    convention.

    Note the input scans twice — inherent to any percentile-then-apply
    shape; at scale prefer ``method="approx"`` so at least no global
    sort happens."""
    import pyarrow.compute as pc

    qt = (exact_quantiles if method == "exact" else approx_quantiles)(
        ds, col, [lo_q, hi_q]
    )
    lo = qt["value"][0].as_py()
    hi = qt["value"][1].as_py()
    name = out_col or f"{col}_winsorized"

    def clamp(t: pa.Table) -> pa.Table:
        v = pc.cast(t[col].combine_chunks(), pa.float64())
        w = pc.min_element_wise(
            pc.max_element_wise(v, pa.scalar(float(lo), pa.float64())),
            pa.scalar(float(hi), pa.float64()),
        )
        if name in t.column_names:
            return t.set_column(t.schema.get_field_index(name), name, w)
        return t.append_column(name, w)

    return ds.map_batches(clamp, batch_format="pyarrow",
                          zero_copy_batch=True)


def ntile_pct_rank(ds, sort_keys: list[str], *, k: int = 100,
                   keep_cols: list[str] | None = None):
    """Distributed NTILE(k) + percent_rank over a global order — the
    quantile-bucketing / CDF-feature step (equal-frequency binning,
    percentile features). Rides the zip-with-index plan: one sort
    shuffle, O(blocks) driver ints, bucket/pct assigned per block.

    Output: keep_cols + ``ntile`` (1..k, SQL NTILE sizing: the first
    n % k buckets get the extra row) + ``pct_rank``
    (= round((rank-1)/(n-1), 6); 0.0 for n == 1).
    """
    import pyarrow.compute as pc

    with_rank = ranked(ds, sort_keys, index_col="__rank")
    n = with_rank.count()
    if n == 0:
        return with_rank
    size = n // k
    rem = n % k
    # rank r (1-based) -> bucket: first rem buckets hold size+1 rows
    cut = rem * (size + 1)

    def assign(t: pa.Table) -> pa.Table:
        r = t["__rank"].combine_chunks().to_numpy(zero_copy_only=False)
        big = r <= cut
        if size > 0:
            bucket = np.where(
                big,
                (r - 1) // (size + 1) + 1,
                rem + (r - cut - 1) // size + 1,
            )
        else:
            bucket = r  # n < k: one row per bucket
        pct = np.zeros(len(r)) if n == 1 else (r - 1) / (n - 1)
        cols = {c: t[c] for c in (keep_cols or t.column_names) if c != "__rank"}
        cols["ntile"] = pa.array(bucket.astype(np.int64))
        cols["pct_rank"] = pa.array(np.round(pct, 6), pa.float64())
        return pa.table(cols)

    return with_rank.map_batches(assign, batch_format="pyarrow",
                                 zero_copy_batch=True)


def group_starts(ds, group_col: str, value_col: str | None = None):
    """``(starts, totals)``: each group's total (its row count, or the
    sum of ``value_col``) and the sum of the totals of the groups before
    it in (group, ...) sort order, keyed in that order: a group's first
    global 0-based ordinal or prefix-sum offset. None sorts first in
    Ray's sort, and here."""
    t = fold_combine(ds, group_col, {"n": (
        (group_col, "count_all") if value_col is None else (value_col, "sum"))})
    totals = dict(zip(t[group_col].to_pylist(), t["n"].to_pylist()))
    starts: dict = {}
    acc = 0
    for g in sorted(totals, key=lambda x: (x is not None, x)):
        starts[g] = acc
        acc += totals[g]
    return starts, totals


def grouped_ntile(ds, group_col: str, sort_keys: list[str], *, k: int = 4,
                  keep_cols: list[str] | None = None):
    """NTILE(k) PARTITIONED BY a (low-cardinality) group column —
    per-language quality quartiles, per-format size deciles, etc.

    Rides the same zip-with-index plan as the global NTILE: ONE sort by
    (group, *sort_keys), O(blocks) driver ints for the global ordinals,
    plus one tiny combiner pass for per-group row counts. Each row's
    within-group rank = global ordinal - its group's start offset (the
    groups are contiguous after the sort), then the SQL NTILE sizing
    rule per group. Broadcast state is O(groups) — the documented
    assumption is group cardinality that fits a dict (languages,
    formats, sources), NOT per-user grouping.
    """
    import ray

    starts, counts = group_starts(ds, group_col)
    if not counts:
        return ds
    state_ref = ray.put((starts, counts))

    with_rank = ranked(ds, [group_col] + list(sort_keys), index_col="__rank")

    def assign(t: pa.Table) -> pa.Table:
        starts_, counts_ = ray.get(state_ref)
        groups = t[group_col].to_pylist()
        r = t["__rank"].combine_chunks().to_numpy(zero_copy_only=False)
        gstart = np.fromiter((starts_[g] for g in groups), np.int64, count=len(groups))
        gn = np.fromiter((counts_[g] for g in groups), np.int64, count=len(groups))
        wr = r - gstart  # 1-based within-group rank
        size = gn // k
        rem = gn % k
        cut = rem * (size + 1)
        bucket = np.where(
            size > 0,
            np.where(
                wr <= cut,
                (wr - 1) // np.maximum(size + 1, 1) + 1,
                rem + (wr - cut - 1) // np.maximum(size, 1) + 1,
            ),
            wr,  # group smaller than k: one row per bucket
        )
        cols = {c: t[c] for c in (keep_cols or t.column_names) if c != "__rank"}
        cols["ntile"] = pa.array(bucket.astype(np.int64))
        return pa.table(cols)

    return with_rank.map_batches(assign, batch_format="pyarrow",
                                 zero_copy_batch=True)


def grouped_exact_quantiles(ds, group_col: str, col: str,
                            qs: list[float]) -> pa.Table:
    """EXACT per-group quantiles (per-format width percentiles, per-
    language length medians): ONE sort by (group, col) co-locates and
    orders every group; per-group row counts (a tiny combiner fold,
    O(groups)) turn each (group, q) into a single global row index via
    the group's start offset, fetched from exactly one block — the
    exact_quantiles order-statistics plan generalized with the
    grouped_ntile offset trick. The driver touches O(blocks) counts and
    O(groups x qs) scalar lookups; rank convention matches
    ``floor((n_g - 1) * q) + 1`` so a SQL row_number oracle reproduces
    it exactly. Group cardinality must fit a dict (formats, languages).
    """
    starts, counts = group_starts(ds, group_col)
    empty = pa.table({group_col: pa.array([], pa.string()),
                      "q": pa.array([], pa.float64()),
                      "value": pa.array([], pa.float64())})
    if not counts:
        return empty

    mat = ds.sort([group_col, col]).materialize()
    refs: list = []
    block_counts: list[int] = []
    for bundle in mat.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            refs.append(block_ref)
            block_counts.append(meta.num_rows)
    if not refs:
        return empty
    offsets = np.concatenate([[0], np.cumsum(block_counts)])

    @ray.remote
    def pick(block, local_idx: list[int]):
        t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
        return [t[col][i].as_py() for i in local_idx]

    targets = []  # (group, q, global 0-based index)
    for g in starts:
        for q in qs:
            targets.append((g, q, starts[g] + int(np.floor((counts[g] - 1) * q))))
    wanted: dict[int, list[tuple[int, int]]] = {}
    for ti, (_, _, r) in enumerate(targets):
        b = int(np.searchsorted(offsets, r, side="right")) - 1
        wanted.setdefault(b, []).append((ti, r - int(offsets[b])))
    out: list = [None] * len(targets)
    futures = {
        b: pick.remote(refs[b], [idx for _, idx in pairs])
        for b, pairs in wanted.items()
    }
    for b, pairs in wanted.items():
        vals = ray.get(futures[b])
        for (ti, _), v in zip(pairs, vals):
            out[ti] = v
    return pa.table(
        {
            group_col: pa.array([g for g, _, _ in targets]),
            "q": pa.array([q for _, q, _ in targets], pa.float64()),
            "value": pa.array([float(v) for v in out], pa.float64()),
        }
    )


def grouped_mode(ds, key_col: str, val_col: str):
    """Per-key mode (most frequent value, ties broken by smallest
    value) — the categorical "typical value" aggregate SQL spells as a
    row_number-over-counts window.

    Combiner-first: each batch collapses to (key, value, n) partials
    with one Arrow group_by; the shuffle carries partials bucketed by
    key hash (values of one key always co-locate); each bucket does one
    vectorized pandas sum + stable sort + drop_duplicates. Null keys or
    values are dropped (SQL WHERE ... IS NOT NULL convention)."""
    import pandas as pd
    import pyarrow.compute as pc

    from ._bucket import bucket_apply

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t[key_col]),
                             pc.is_valid(t[val_col])))
        return (
            t.select([key_col, val_col])
            .group_by([key_col, val_col])
            .aggregate([([], "count_all")])
        ).rename_columns([key_col, val_col, "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        c = (t.to_pandas().groupby([key_col, val_col], sort=False)["n"].sum()
             .reset_index())
        c = c.sort_values([key_col, "n", val_col],
                          ascending=[True, False, True], kind="mergesort")
        return (c.drop_duplicates(key_col, keep="first")
                .rename(columns={val_col: "mode"}))

    return bucket_apply(parts, key_col, per_bucket,
                        schema={key_col: key_col, "mode": val_col,
                                "n": pa.int64()})


def quantile_bins(ds, val_col: str, id_cols: list[str], *,
                  qs: tuple = (0.25, 0.5, 0.75), val_scale: int = 1):
    """Equal-frequency discretization (quartile/decile binning) of a
    BOUNDED-DOMAIN numeric column — the feature-bucketing step before
    hashing/embedding categorical-ized numerics.

    Pass 1 folds per-value integer counts (domain-bounded combiner:
    partials are at most |domain| rows per block, folded once); the
    breakpoints use the percentile_disc rule — smallest v with
    cumulative count >= ceil(q*n) — so a SQL window oracle reproduces
    them exactly. Pass 2 streams, assigning
    ``bin = #{breakpoints < v}`` per row (vectorized searchsorted).
    The domain must be small (integer quantities, star ratings, ages);
    unbounded-domain columns belong to approx_quantiles' fixed-width
    histogram instead."""
    import math

    import pyarrow.compute as pc

    def scaled(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[val_col]))
        v = np.floor(
            t[val_col].to_numpy(zero_copy_only=False) * val_scale + 0.5
        ).astype(np.int64)
        return pa.table({"v": pa.array(v, pa.int64())})

    counts = fold_combine(
        ds.map_batches(scaled, batch_format="pyarrow", zero_copy_batch=True),
        "v", {"n": ("v", "count_all")}).sort_by("v")
    vals = counts["v"].to_numpy()
    cum = np.cumsum(counts["n"].to_numpy())
    total = int(cum[-1]) if len(cum) else 0
    breaks = np.array(
        [vals[int(np.searchsorted(cum, math.ceil(q * total)))] for q in qs],
        np.int64,
    ) if total else np.array([], np.int64)
    breaks.sort()

    def assign(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[val_col]))
        v = np.floor(
            t[val_col].to_numpy(zero_copy_only=False) * val_scale + 0.5
        ).astype(np.int64)
        cols = {c: t[c] for c in id_cols}
        cols["val"] = pa.array(v, pa.int64())
        cols["bin"] = pa.array(
            np.searchsorted(breaks, v, side="left").astype(np.int64),
            pa.int64(),
        )
        return pa.table(cols)

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


def grouped_weighted_median(ds, group_col: str, val_col: str,
                            weight_col: str) -> pa.Table:
    """EXACT per-group weighted median: the smallest value v in each
    group with ``2 * sum(weight | value <= v) >= total_weight`` — the
    lower weighted median, SQL-mirrorable as
    ``min(v) FILTER (2*cum >= tot)`` over a cumulative window.

    Scale shape (the grouped_exact_quantiles plan generalized from row
    ranks to WEIGHT ranks): one sort by (group, value) co-locates and
    orders every group; per-block (group, weight-sum) partials — a
    driver fold of O(blocks x groups) tiny rows — locate the single
    block where each group's cumulative weight crosses half; one remote
    scan per hit block finds the crossing row. The driver never holds a
    group's value set. Weights are int64-cast (exact comparisons);
    groups must fit a dict (formats, flags)."""
    mat = ds.sort([group_col, val_col]).materialize()
    refs: list = []
    for bundle in mat.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows:  # empty blocks can be schema-less
                refs.append(block_ref)
    empty = pa.table({group_col: pa.array([], pa.string()),
                      "wmedian": pa.array([], pa.float64())})
    if not refs:
        return empty

    @ray.remote
    def block_weights(block):
        t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
        agg = t.select([group_col, weight_col]).group_by(group_col).aggregate(
            [(weight_col, "sum")])
        return list(zip(agg[group_col].to_pylist(),
                        [int(v) for v in agg[f"{weight_col}_sum"].to_pylist()]))

    per_block = ray.get([block_weights.remote(r) for r in refs])
    totals: dict = {}
    for rows in per_block:
        for g, w in rows:
            totals[g] = totals.get(g, 0) + w
    # walk blocks in sort order; find, per group, the first block where
    # cumulative weight reaches half the total
    cum: dict = {}
    hit_block: dict = {}
    cum_before: dict = {}
    for bi, rows in enumerate(per_block):
        for g, w in rows:
            prev = cum.get(g, 0)
            if g not in hit_block and 2 * (prev + w) >= totals[g]:
                hit_block[g] = bi
                cum_before[g] = prev
            cum[g] = prev + w

    @ray.remote
    def pick(block, wanted: list):
        t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
        groups = t[group_col].to_pylist()
        vals = t[val_col].to_pylist()
        ws = [int(v) for v in t[weight_col].to_pylist()]
        out = []
        for g, before, tot in wanted:
            c = before
            for gg, v, w in zip(groups, vals, ws):
                if gg != g:
                    continue
                c += w
                if 2 * c >= tot:
                    out.append((g, v))
                    break
        return out

    by_block: dict = {}
    for g, bi in hit_block.items():
        by_block.setdefault(bi, []).append((g, cum_before[g], totals[g]))
    results = ray.get([
        pick.remote(refs[bi], wanted) for bi, wanted in by_block.items()
    ])
    found = dict(pair for rows in results for pair in rows)
    keys = sorted(found, key=lambda x: (x is not None, x))
    return pa.table({
        group_col: pa.array(keys),
        "wmedian": pa.array([float(found[k]) for k in keys], pa.float64()),
    })


def exact_quantiles_select(ds, col: str, qs_e6: list[int], *,
                           bins: int = 65536, max_passes: int = 8) -> pa.Table:
    """EXACT quantiles of an INTEGER column by streaming selection —
    the zero-shuffle alternative to ``exact_quantiles``: a global sort
    moves EVERY row over the network once; this runs
    ``ceil(log_bins(range))`` read-only scans (2 passes cover a 2^32
    value range at the default 65536 bins), each folding only nonzero
    per-batch bin counts. At 100 TB the sort is the cluster-wide
    exchange you architect around; k cheap combiner scans are not.

    Rank convention matches ``exact_quantiles`` / ``ORDER BY col
    LIMIT 1 OFFSET ((n-1)*q_e6)//1e6`` — quantiles as e6 integers so
    the target rank is exact integer math on both sides. Nulls are
    excluded. The interval walk per pass is exact: the answer value
    always lies in the located bin, counts are int64 partials."""
    import pyarrow.compute as pc

    from ._fold import fold_table

    def minmax_partial(t: pa.Table) -> pa.Table:
        x = pc.cast(t[col], pa.int64())
        x = x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x
        x = x.filter(pc.is_valid(x))
        if len(x) == 0:
            return pa.schema([("n", pa.int64()), ("lo", pa.int64()),
                              ("hi", pa.int64())]).empty_table()
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "lo": pa.array([pc.min(x).as_py()], pa.int64()),
            "hi": pa.array([pc.max(x).as_py()], pa.int64()),
        })

    folded = fold_table(
        ds.map_batches(minmax_partial, batch_format="pyarrow",
                       zero_copy_batch=True)
    )
    empty = pa.table({"q_e6": pa.array([], pa.int64()),
                      "value": pa.array([], pa.int64())})
    if folded is None or folded.num_rows == 0:
        return empty
    n = int(sum(folded["n"].to_pylist()))
    gmin = int(min(folded["lo"].to_pylist()))
    gmax = int(max(folded["hi"].to_pylist()))
    if n == 0:
        return empty

    # per-quantile selection state: answer is the (rank+1)-smallest
    # value inside [lo, hi]; rank is 0-based within the interval
    state = {}
    for q in qs_e6:
        rank = (n - 1) * int(q) // 1_000_000
        state[int(q)] = {"lo": gmin, "hi": gmax, "rank": rank}

    for _ in range(max_passes):
        active = {q: s for q, s in state.items() if s["lo"] < s["hi"]}
        if not active:
            break
        plan = {
            q: (s["lo"], s["hi"],
                -(-(s["hi"] - s["lo"] + 1) // bins))  # ceil width
            for q, s in active.items()
        }

        def hist_partial(t: pa.Table, plan=plan) -> pa.Table:
            x = pc.cast(t[col], pa.int64())
            x = x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x
            x = x.filter(pc.is_valid(x))
            arr = x.to_numpy(zero_copy_only=False)
            qs_out, bin_out, cnt_out = [], [], []
            for q, (lo, hi, width) in plan.items():
                sub = arr[(arr >= lo) & (arr <= hi)]
                if len(sub) == 0:
                    continue
                b = (sub - lo) // width
                counts = np.bincount(b)
                nz = np.nonzero(counts)[0]
                qs_out.append(np.full(len(nz), q, np.int64))
                bin_out.append(nz.astype(np.int64))
                cnt_out.append(counts[nz].astype(np.int64))
            if not qs_out:
                return pa.schema([("q", pa.int64()), ("bin", pa.int64()),
                                  ("cnt", pa.int64())]).empty_table()
            return pa.table({
                "q": pa.array(np.concatenate(qs_out), pa.int64()),
                "bin": pa.array(np.concatenate(bin_out), pa.int64()),
                "cnt": pa.array(np.concatenate(cnt_out), pa.int64()),
            })

        merged = fold_combine(
            ds.map_batches(hist_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
            ["q", "bin"], {"cnt": ("cnt", "sum")})
        if merged.num_rows == 0:
            break
        df = merged.to_pandas()
        for q, s in active.items():
            lo, hi, width = plan[q]
            sub = df[df["q"] == q].sort_values("bin")
            cum = 0
            for b, c in zip(sub["bin"], sub["cnt"]):
                if cum + int(c) > s["rank"]:
                    s["lo"] = lo + int(b) * width
                    s["hi"] = min(hi, s["lo"] + width - 1)
                    s["rank"] -= cum
                    break
                cum += int(c)

    return pa.table({
        "q_e6": pa.array([int(q) for q in qs_e6], pa.int64()),
        "value": pa.array([state[int(q)]["lo"] for q in qs_e6],
                          pa.int64()),
    })


def grouped_quantiles_select(ds, group_col: str, col: str,
                             qs_e6: list[int], *, bins: int = 4096,
                             max_passes: int = 12) -> pa.Table:
    """Per-group EXACT integer quantiles by streaming selection — the
    zero-shuffle twin of ``grouped_exact_quantiles`` (which sorts the
    whole table by (group, col)): every (group, quantile) pair runs the
    histogram bisection of ``exact_quantiles_select`` SIMULTANEOUSLY in
    the same read-only scans, so k passes answer all groups at once and
    nothing is ever exchanged but per-batch bin counts. Group
    cardinality must fit a dict (formats, languages — the same contract
    as the sort-based path). Rank convention ``floor((n_g-1)*q_e6/1e6)``
    matches the sort path and the SQL row_number oracle; null group or
    value rows are excluded."""
    import pyarrow.compute as pc

    def valid(t: pa.Table) -> pa.Table:
        x = pc.cast(t[col], pa.int64())
        keep = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(x))
        return pa.table({group_col: t[group_col], "x": x}).filter(keep)

    m = fold_combine(
        ds.map_batches(valid, batch_format="pyarrow", zero_copy_batch=True),
        group_col, {"n": ("x", "count"), "lo": ("x", "min"),
                    "hi": ("x", "max")})
    state = {}
    for g, n, lo, hi in zip(m[group_col].to_pylist(), m["n"].to_pylist(),
                            m["lo"].to_pylist(), m["hi"].to_pylist()):
        for q in qs_e6:
            rank = (int(n) - 1) * int(q) // 1_000_000
            state[(str(g), int(q))] = {
                "lo": int(lo), "hi": int(hi), "rank": rank}

    for _ in range(max_passes):
        active = {k: s for k, s in state.items() if s["lo"] < s["hi"]}
        if not active:
            break
        plan = {
            k: (s["lo"], s["hi"],
                -(-(s["hi"] - s["lo"] + 1) // bins))
            for k, s in active.items()
        }

        def hist_partial(t: pa.Table, plan=plan) -> pa.Table:
            x = pc.cast(t[col], pa.int64())
            keep = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(x))
            tt = pa.table({group_col: t[group_col], "x": x}).filter(keep)
            empty_h = pa.schema([
                ("g", pa.string()), ("q", pa.int64()),
                ("bin", pa.int64()), ("cnt", pa.int64()),
            ]).empty_table()
            if tt.num_rows == 0:
                return empty_h
            garr = tt[group_col].to_numpy(zero_copy_only=False)
            arr = tt["x"].to_numpy(zero_copy_only=False)
            gs, qs_o, bins_o, cnts = [], [], [], []
            for (g, q), (lo, hi, width) in plan.items():
                sub = arr[(garr == g) & (arr >= lo) & (arr <= hi)]
                if len(sub) == 0:
                    continue
                counts = np.bincount((sub - lo) // width)
                nz = np.nonzero(counts)[0]
                gs.extend([g] * len(nz))
                qs_o.append(np.full(len(nz), q, np.int64))
                bins_o.append(nz.astype(np.int64))
                cnts.append(counts[nz].astype(np.int64))
            if not gs:
                return empty_h
            return pa.table({
                "g": pa.array(gs, pa.string()),
                "q": pa.array(np.concatenate(qs_o), pa.int64()),
                "bin": pa.array(np.concatenate(bins_o), pa.int64()),
                "cnt": pa.array(np.concatenate(cnts), pa.int64()),
            })

        merged = fold_combine(
            ds.map_batches(hist_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
            ["g", "q", "bin"], {"cnt": ("cnt", "sum")})
        if merged.num_rows == 0:
            break
        merged = merged.to_pandas()
        for (g, q), s in active.items():
            lo, hi, width = plan[(g, q)]
            sub = merged[(merged["g"] == g)
                         & (merged["q"] == q)].sort_values("bin")
            cum = 0
            for b, c in zip(sub["bin"], sub["cnt"]):
                if cum + int(c) > s["rank"]:
                    s["lo"] = lo + int(b) * width
                    s["hi"] = min(hi, s["lo"] + width - 1)
                    s["rank"] -= cum
                    break
                cum += int(c)

    keys = sorted(state)
    return pa.table({
        group_col: pa.array([g for g, _ in keys], pa.string()),
        "q_e6": pa.array([q for _, q in keys], pa.int64()),
        "value": pa.array([state[k]["lo"] for k in keys], pa.int64()),
    })
