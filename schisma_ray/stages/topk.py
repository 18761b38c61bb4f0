"""Grouped top-k: the per-group reporting pattern (top offenders per
code, heaviest users per event type, ...).

Combiner-first (SURVEY.md §2.4 sorts/limits): ``bucket_combine``
counts (group, item) pairs, collapsing duplicates per batch before the
shuffle so it carries one row per (group, item) per batch, and the
final per-group top-k is a vectorized sort + per-group head over each
hash bucket of groups in ``bucket_apply``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._bucket import bucket_apply, bucket_combine


def _count_local_topk_fn(group_col: str, item_col: str, k: int):
    """Per-block local top-k over the collapsed (group, item) totals —
    module-level so the skew bound (at most k rows per group per block
    entering the final merge) is directly unit-testable. Exact, not a
    heuristic: after the global groupby-sum each (group, item) total is
    exactly one row, so any item outside a block's per-group top k is
    outside the global top k too."""

    def local_topk(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        g = g.sort_values(["n", item_col], ascending=[False, True],
                          kind="mergesort")
        return pa.Table.from_pandas(
            g.groupby(group_col, sort=False, dropna=False).head(k),
            preserve_index=False,
        )

    return local_topk


def grouped_count_topk(ds, group_col: str, item_col: str, *, k: int = 3):
    """(group, item, n): the k most frequent items per group.

    Deterministic order: n desc, item asc (the same ordering as SQL
    ``row_number() OVER (PARTITION BY group ORDER BY count(*) DESC,
    item)``).

    Skew shape (the tfidf_top_terms / bm25_topk pattern): the final
    per-group task never receives a hot group's full distinct-item set
    — each block of the collapsed totals keeps only its local top k
    per group first, so the merge group is bounded by k x blocks, not
    by the group's item cardinality. The merge is the same local top k
    over each hash bucket of groups (null groups included).
    """

    totals = bucket_combine(ds, [group_col, item_col],
                            {"n": (item_col, "count")})
    local_topk = _count_local_topk_fn(group_col, item_col, k)
    locals_ds = totals.map_batches(local_topk, batch_format="pyarrow")
    return bucket_apply(locals_ds, group_col, local_topk, schema=None)


def grouped_vector_mean(ds, group_col: str, vec_col: str):
    """(group, dim, mean_v): per-group centroid of an embedding column —
    the class-centroid / cluster-profile aggregation. Combiner-first:
    each batch emits one (sum-vector, count) partial per group (numpy
    segment sums); ``bucket_apply`` folds the groups x batches tiny
    partials per hash bucket of groups; division happens once at the
    end. A null group is one group, as in SQL ``GROUP BY``.
    Output is long-format (1-based dim) so a SQL oracle can reproduce it
    via unnest + generate_subscripts.
    """

    def segment_sums(t: pa.Table, vecs: pa.ChunkedArray, counts):
        """(each group's first key, per-group vector sums, per-group
        counts) over the rows of ``t``."""
        keys = t[group_col].combine_chunks()
        vecs = vecs.combine_chunks()
        flat = vecs.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        mat = flat.reshape(len(vecs), len(flat) // len(vecs) if len(vecs) else 0)
        codes, _ = pd.factorize(keys.to_numpy(zero_copy_only=False),
                                use_na_sentinel=False)
        # codes number the groups in order of first appearance
        first = np.unique(codes, return_index=True)[1]
        sums = np.zeros((len(first), mat.shape[1]))
        np.add.at(sums, codes, mat)
        n = np.bincount(codes, weights=counts, minlength=len(first))
        return keys.take(pa.array(first, pa.int64())), sums, n.astype(np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        keys, sums, n = segment_sums(batch, batch[vec_col],
                                     np.ones(batch.num_rows))
        return pa.table({
            group_col: keys,
            "vsum": pa.array(sums.tolist(), pa.list_(pa.float64())),
            "n": pa.array(n, pa.int64()),
        })

    def fold(t: pa.Table) -> pa.Table:
        keys, total, n = segment_sums(t, t["vsum"], t["n"].to_numpy())
        mean = np.round(total / np.maximum(n, 1)[:, None], 6)
        dim = mean.shape[1]
        return pa.table({
            group_col: keys.take(pa.array(np.repeat(np.arange(len(keys)), dim))),
            "dim": pa.array(np.tile(np.arange(1, dim + 1), len(keys)), pa.int64()),
            "mean_v": pa.array(mean.ravel(), pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return bucket_apply(partials, group_col, fold,
                        schema={group_col: group_col, "dim": pa.int64(),
                                "mean_v": pa.float64()})


def grouped_distinct_count(ds, group_col: str, item_col: str):
    """(group, n_distinct): EXACT distinct items per group.

    Two ``bucket_combine`` passes: distinct (group, item) pairs (unique
    pairs per batch before the shuffle), then a row count per group.
    Memory floor is O(distinct pairs) spread over the cluster — the
    exact-distinct lower bound (use the HLL aggregate when an estimate
    suffices).
    """

    def valid_items(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.select([group_col, item_col])
        # null items don't count (SQL COUNT(DISTINCT) semantics); null
        # groups are kept as their own group (SQL GROUP BY semantics)
        return t.filter(pc.is_valid(t[item_col]))

    distinct_pairs = bucket_combine(
        ds.map_batches(valid_items, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, item_col], {})
    # count_all, not count(group_col): a NULL group key must still count
    return bucket_combine(distinct_pairs, group_col,
                          {"n_distinct": (group_col, "count_all")})


def grouped_distinct_hll(ds, group_col: str, item_col: str, *, p: int = 12):
    """(group, n_distinct): APPROXIMATE distinct items per group via a
    per-group HyperLogLog — the constant-state-per-group scale path next
    to the exact ``grouped_distinct_count`` (whose memory floor is the
    distinct-pair count); ~1.6% relative error at p=12.

    Combiner-first on the keyed exchange: each batch emits one
    (group, register, rank) row per register a group touches, its
    largest rank there (``stats.hll_slots``); ``bucket_apply`` routes
    them by group, takes the max rank per (group, register) over all
    batches and estimates each group (``stats.hll_estimate``). A null
    item raises no register, so a group of only null items comes out at
    0; a null group is one group, as in SQL ``GROUP BY``.
    """
    from .stats import hll_estimate, hll_slots

    def registers(batch: pa.Table) -> pa.Table:
        reg, rank = hll_slots(batch[item_col], p)
        t = pa.table({group_col: batch[group_col], "reg": reg, "rank": rank})
        return t.group_by([group_col, "reg"], use_threads=False).aggregate(
            [("rank", "max")])

    def estimate(t: pa.Table) -> pa.Table:
        codes, _ = pd.factorize(t[group_col].to_numpy(zero_copy_only=False),
                                use_na_sentinel=False)
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        reg, rank = t["reg"].to_numpy(), t["rank_max"].to_numpy()
        n = []
        for seg in np.split(order, starts)[1:]:
            regs = np.zeros(1 << p, np.uint8)
            np.maximum.at(regs, reg[seg], rank[seg])
            n.append(hll_estimate(regs))
        return pa.table({group_col: t[group_col].take(order[starts]),
                         "n_distinct": pa.array(n, pa.int64())})

    partials = ds.map_batches(registers, batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucket_apply(partials, group_col, estimate,
                        schema={group_col: group_col,
                                "n_distinct": pa.int64()})


def pivot_counts(ds, row_key: str, col_key: str, categories: list[str]):
    """Wide pivot table: one row per ``row_key`` value, one BIGINT count
    column per category in the FIXED ``categories`` list (explicit so
    the output schema is stable no matter which categories appear in
    which bucket — dynamic pivot schemas don't distribute).

    Combiner-first: each batch collapses to (row, col) partial counts
    with one Arrow group_by; the shuffle carries those partials
    bucketed by row-key hash; each bucket does one vectorized
    pandas pivot + reindex."""

    def partial(t: pa.Table) -> pa.Table:
        agg = (
            t.select([row_key, col_key])
            .group_by([row_key, col_key])
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns([row_key, col_key, "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(t: pa.Table):
        wide = t.to_pandas().pivot_table(
            index=row_key, columns=col_key, values="n",
            aggfunc="sum", fill_value=0,
        ).reindex(columns=categories, fill_value=0)
        wide.columns = list(categories)
        return wide.reset_index()

    return bucket_apply(partials, row_key, merge,
                        schema={row_key: row_key,
                                **{c: pa.int64() for c in categories}})


def unpivot(ds, id_cols: list[str], value_cols: list[str], *,
            var_col: str = "variable", value_col: str = "value"):
    """Long/melt reshape — the inverse of ``pivot_counts``: each input
    row becomes ``len(value_cols)`` rows of (id..., variable, value).
    Row-local and zero shuffle (the batch is concatenated once per
    value column, all Arrow takes/casts); the value columns must share
    a castable type (everything goes through int64 — counts, flags,
    integer metrics)."""
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {k: t[k] for k in id_cols}
            cols[var_col] = pa.array([c] * t.num_rows, pa.string())
            cols[value_col] = pc.cast(t[c], pa.int64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def cube_counts(ds, dims: list[str], val_col: str, *,
                val_scale: int = 100, all_label: str = "ALL") -> pa.Table:
    """GROUP BY CUBE over low-cardinality dimensions: row counts and an
    integer-scaled value sum for EVERY subset of ``dims`` (the BI
    subtotal lattice — 2^len(dims) grouping sets), rolled-up levels
    marked with ``all_label``. Dimensions are cast to string so the
    output schema is uniform across grouping sets.

    Scale: ONE combiner pass over the data (per-batch partials at
    finest-grouping cardinality), a bounded driver fold, then the
    2^d expansion computed on the already-aggregated finest table —
    never on raw rows. Dimension cardinality must be small (formats,
    event types, weekdays); rows with a null dim or value are dropped
    (SQL WHERE ... IS NOT NULL convention)."""
    import itertools

    import pyarrow.compute as pc

    from ._bucket import fold_combine

    def scaled(t: pa.Table) -> pa.Table:
        keep = pc.is_valid(t[val_col])
        for d in dims:
            keep = pc.and_(keep, pc.is_valid(t[d]))
        t = t.filter(keep)
        v = np.floor(
            t[val_col].to_numpy(zero_copy_only=False) * val_scale + 0.5
        ).astype(np.int64)
        cols = {d: pc.cast(t[d], pa.string()) for d in dims}
        cols["s"] = pa.array(v, pa.int64())
        return pa.table(cols)

    finest = fold_combine(
        ds.map_batches(scaled, batch_format="pyarrow", zero_copy_batch=True),
        dims, {"n": ("s", "count_all"), "s": ("s", "sum")})
    if not finest.num_rows:
        return pa.schema([(d, pa.string()) for d in dims]
                         + [("n", pa.int64()), ("sum_val", pa.int64())]
                         ).empty_table()
    import pandas as pd

    fin = finest.to_pandas()
    outs = []
    for r in range(len(dims) + 1):
        for keep_dims in itertools.combinations(dims, r):
            if keep_dims:
                g = fin.groupby(list(keep_dims), sort=False, as_index=False)[
                    ["n", "s"]].sum()
            else:
                g = pd.DataFrame({"n": [fin["n"].sum()],
                                  "s": [fin["s"].sum()]})
            for d in dims:
                if d not in keep_dims:
                    g[d] = all_label
            outs.append(g[list(dims) + ["n", "s"]])
    allg = pd.concat(outs, ignore_index=True)
    return pa.table({
        **{d: pa.array(allg[d].astype(str), pa.string()) for d in dims},
        "n": pa.array(allg["n"].to_numpy().astype(np.int64), pa.int64()),
        "sum_val": pa.array(allg["s"].to_numpy().astype(np.int64),
                            pa.int64()),
    })
