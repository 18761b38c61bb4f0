"""Whole-table column profiling: the expectations-suite building block.

``profile_table`` computes (column, n_rows, n_nulls, null_rate) for every
column in ONE streaming pass — per-batch partials are a handful of ints
per column, folded by ``bucket_combine``. ``expect_null_rates`` turns a
profile into schisma-style ``invalid`` violations when a column's
null-rate exceeds its budget (the table-level analogue of a ``$validate``
hook on presence).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ._bucket import bucket_apply, bucket_combine


def profile_table(ds, columns: list[str] | None = None):
    """(column, n_rows, n_nulls, null_rate) per column, one pass."""

    def partial(batch: pa.Table) -> pa.Table:
        cols = columns or batch.column_names
        names, rows, nulls = [], [], []
        for c in cols:
            names.append(c)
            rows.append(batch.num_rows)
            nulls.append(batch[c].null_count)
        return pa.table(
            {
                "column": pa.array(names, pa.string()),
                "n_rows": pa.array(rows, pa.int64()),
                "n_nulls": pa.array(nulls, pa.int64()),
            }
        )

    total = bucket_combine(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "column", {"n_rows": ("n_rows", "sum"), "n_nulls": ("n_nulls", "sum")})

    def finalize(t: pa.Table) -> pa.Table:
        n = pc.cast(t["n_rows"], pa.float64())
        nn = pc.cast(t["n_nulls"], pa.float64())
        rate = pc.round(pc.divide(nn, pc.max_element_wise(n, 1.0)), ndigits=6)
        return t.append_column("null_rate", rate)

    return total.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


def _valid_rows(cols: list):
    """Batch map: ``cols`` of the rows with no null in any of them."""

    def fn(t: pa.Table) -> pa.Table:
        sub = t.select(cols)
        mask = None
        for c in cols:
            v = pc.is_valid(sub[c])
            mask = v if mask is None else pc.and_(mask, v)
        return sub.filter(mask)

    return fn


def expect_null_rates(ds, budgets: dict[str, float]):
    """Violations for columns whose null_rate exceeds its budget.

    Output columns: (path, code, expected, received) — one row per
    failing column, schisma's ``invalid`` code.
    """
    prof = profile_table(ds, columns=sorted(budgets))

    def check(t: pa.Table) -> pa.Table:
        paths, codes, exps, recs = [], [], [], []
        for col, n_nulls, n_rows, rate in zip(
            t["column"].to_pylist(),
            t["n_nulls"].to_pylist(),
            t["n_rows"].to_pylist(),
            t["null_rate"].to_pylist(),
        ):
            budget = budgets[col]
            if rate > budget:
                paths.append(col)
                codes.append("invalid")
                exps.append(f"null_rate<={budget}")
                recs.append(f"{rate} ({n_nulls}/{n_rows})")
        return pa.table(
            {
                "path": pa.array(paths, pa.string()),
                "code": pa.array(codes, pa.string()),
                "expected": pa.array(exps, pa.string()),
                "received": pa.array(recs, pa.string()),
            }
        )

    return prof.map_batches(check, batch_format="pyarrow", zero_copy_batch=True)


def coverage_gaps(ds, *, cols: list[str], expected: dict[str, list]):
    """Stratum-coverage audit: which cells of the expected cross
    product ``expected[cols[0]] x expected[cols[1]] x ...`` have NO
    rows in the data — the "is every (format, size-bucket, ...)
    stratum represented" completeness check that a drift test cannot
    express (drift compares observed proportions; an entirely absent
    stratum needs the grid).

    Scale shape: each batch collapses to its distinct combos
    (combiner), one groupby collapses those globally, and the gap set
    is computed driver-side over at most ``prod(len(v))`` grid cells —
    bounded by construction, never by data size. Rows with a null in
    any audited column don't witness a cell. Returns a pa.Table
    (``cols``, sorted by the grid order) — a small driver-side result,
    not a Dataset."""
    from itertools import product

    import pandas as pd

    observed = bucket_combine(
        ds.map_batches(_valid_rows(cols), batch_format="pyarrow",
                       zero_copy_batch=True),
        cols, {}).to_pandas()
    if observed.empty or not set(cols).issubset(observed.columns):
        seen = set()  # zero observed combos (e.g. all-null strata)
    else:
        seen = set(map(tuple, observed[cols].itertuples(index=False)))
    gaps = [combo for combo in product(*(expected[c] for c in cols))
            if combo not in seen]
    df = pd.DataFrame(gaps, columns=cols)
    return pa.Table.from_pandas(df, preserve_index=False) if len(df) else \
        pa.table({c: pa.array([], pa.array(expected[c]).type) for c in cols})


def fd_violations(ds, *, lhs: str, rhs: str, min_group: int = 1):
    """Functional-dependency audit ``lhs -> rhs``: every lhs value that
    maps to MORE than one distinct rhs value, with its group size
    (total occurrences) and distinct-rhs count — the "same key,
    conflicting attribute" data-quality check. ``min_group`` restricts
    the audit to lhs values appearing at least that often (total
    occurrences, not distinct rhs).

    Scale shape: each batch first collapses to its DISTINCT (lhs, rhs)
    pairs plus per-pair occurrence counts (combiner — repeated pairs
    cost one row per batch), then ONE groupby on an lhs hash bucket;
    per bucket a vectorized pandas pass counts distinct rhs per lhs.
    Null lhs rows are excluded (no key, no dependency)."""
    import numpy as np
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[lhs]))
        g = pa.table({lhs: t[lhs], rhs: t[rhs],
                      "one": pa.array(np.ones(t.num_rows, np.int64))})
        return g.group_by([lhs, rhs]).aggregate([("one", "sum")])

    pairs = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pd.DataFrame:
        agg = t.to_pandas().groupby(lhs).agg(
            n_rhs=(rhs, "nunique"), n_rows=("one_sum", "sum")
        )
        bad = agg[(agg["n_rhs"] > 1) & (agg["n_rows"] >= min_group)]
        return bad.reset_index()

    return bucket_apply(pairs, lhs, per_bucket,
                        schema={lhs: lhs, "n_rows": pa.int64(),
                                "n_rhs": pa.int64()})


def group_cardinality_violations(ds, *, key_cols: list[str],
                                 min_count: int = 0, max_count: int = 0):
    """Group-cardinality constraint: every key whose row count falls
    outside ``[min_count, max_count]`` (either bound 0 = unchecked), as
    (key..., n_rows, code) with schisma-style codes ``group too small``
    / ``group too large`` — the aggregate-level analogue of a
    ``$validate`` hook ("each campaign must have >= N events", "no user
    may exceed M rows"). Rows with a null in any key column carry no
    group and are excluded, like ``coverage_gaps``.

    Scale shape: one ``bucket_combine`` row count per key; the
    violation filter is vectorized in the finalize map. Nothing reaches
    the driver."""
    import numpy as np

    totals = bucket_combine(
        ds.map_batches(_valid_rows(key_cols), batch_format="pyarrow",
                       zero_copy_batch=True),
        key_cols, {"n_rows": (key_cols[0], "count_all")})

    def finalize(t: pa.Table) -> pa.Table:
        n = t["n_rows"]
        small = (pc.less(n, min_count) if min_count > 0
                 else pa.array(np.zeros(len(t), bool)))
        large = (pc.greater(n, max_count) if max_count > 0
                 else pa.array(np.zeros(len(t), bool)))
        bad = pc.or_(small, large)
        code = pc.if_else(pc.filter(small, bad), "group too small",
                          "group too large")
        out = t.filter(bad)
        return pa.table({
            **{c: out[c] for c in key_cols},
            "n_rows": pc.filter(n, bad),
            "code": code,
        })

    return totals.map_batches(finalize, batch_format="pyarrow",
                              zero_copy_batch=True)


def null_cooccurrence(ds, columns: list[str]):
    """Pairwise null-co-occurrence audit: for every column pair, how
    often both are null together and the Jaccard overlap of their null
    sets (as a half-up e6 integer) — the missing-data STRUCTURE view
    that per-column null rates can't give (nulls that always travel
    together point at one upstream failure; independent nulls at many).

    One streaming pass: per batch the k null masks become a k x k
    joint-count matrix via one boolean matmul (vectorized, no Python
    loop over rows); partials are k^2 ints per block, folded
    driver-side — bounded by columns squared, never by rows.
    ``jaccard_e6`` is -0- when neither column has nulls."""
    import numpy as np

    from ._fold import fold_table

    k = len(columns)

    def partial(batch: pa.Table) -> pa.Table:
        m = np.stack([
            pc.is_null(batch[c].combine_chunks()).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            for c in columns
        ])
        joint = m @ m.T  # diagonal = per-column null counts
        ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
        return pa.table({
            "i": pa.array(ii.ravel(), pa.int64()),
            "j": pa.array(jj.ravel(), pa.int64()),
            "n": pa.array(joint.ravel(), pa.int64()),
        })

    schema = pa.schema([
        ("col_a", pa.string()), ("col_b", pa.string()),
        ("n_a_null", pa.int64()), ("n_b_null", pa.int64()),
        ("n_both_null", pa.int64()), ("jaccard_e6", pa.int64()),
    ])
    folded = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if folded is None:
        return schema.empty_table()
    tot = np.zeros((k, k), np.int64)
    np.add.at(
        tot,
        (folded["i"].to_numpy(zero_copy_only=False),
         folded["j"].to_numpy(zero_copy_only=False)),
        folded["n"].to_numpy(zero_copy_only=False),
    )
    rows = {name: [] for name in schema.names}
    for a in range(k):
        for b in range(a + 1, k):
            na, nb, both = int(tot[a, a]), int(tot[b, b]), int(tot[a, b])
            union = na + nb - both
            jac = 0 if union == 0 else (
                (2 * both * 1_000_000 + union) // (2 * union)
            )
            rows["col_a"].append(columns[a])
            rows["col_b"].append(columns[b])
            rows["n_a_null"].append(na)
            rows["n_b_null"].append(nb)
            rows["n_both_null"].append(both)
            rows["jaccard_e6"].append(jac)
    return pa.table(
        {n: pa.array(rows[n], schema.field(n).type) for n in schema.names}
    )


def string_length_profile(ds, columns: list[str]):
    """Per-string-column length profile: row/null/empty counts and
    min/max/total codepoint length (mean as a half-up e6 integer) —
    the width-sanity sweep a schema migration runs before declaring
    VARCHAR bounds (a 0-char name and a 4000-char status are both
    schema smells that type checks alone never see).

    One streaming pass; per-batch partials are five ints per column,
    folded driver-side (bounded by columns x blocks). Null cells count
    in ``n_nulls`` only; empty strings in ``n_empty`` and the length
    stats (length 0)."""
    from ._fold import fold_table

    def partial(batch: pa.Table) -> pa.Table:
        rows = {"column": [], "n_rows": [], "n_nulls": [], "n_empty": [],
                "min_len": [], "max_len": [], "sum_len": []}
        for c in columns:
            col = batch[c].combine_chunks()
            valid = col.drop_null()
            lens = pc.utf8_length(valid)
            n_valid = len(valid)
            rows["column"].append(c)
            rows["n_rows"].append(batch.num_rows)
            rows["n_nulls"].append(col.null_count)
            rows["n_empty"].append(
                pc.sum(pc.equal(lens, 0)).as_py() or 0 if n_valid else 0
            )
            rows["min_len"].append(
                pc.min(lens).as_py() if n_valid else None
            )
            rows["max_len"].append(
                pc.max(lens).as_py() if n_valid else None
            )
            rows["sum_len"].append(
                pc.sum(lens).as_py() or 0 if n_valid else 0
            )
        return pa.table({
            "column": pa.array(rows["column"], pa.string()),
            "n_rows": pa.array(rows["n_rows"], pa.int64()),
            "n_nulls": pa.array(rows["n_nulls"], pa.int64()),
            "n_empty": pa.array(rows["n_empty"], pa.int64()),
            "min_len": pa.array(rows["min_len"], pa.int64()),
            "max_len": pa.array(rows["max_len"], pa.int64()),
            "sum_len": pa.array(rows["sum_len"], pa.int64()),
        })

    schema = pa.schema([
        ("column", pa.string()), ("n_rows", pa.int64()),
        ("n_nulls", pa.int64()), ("n_empty", pa.int64()),
        ("min_len", pa.int64()), ("max_len", pa.int64()),
        ("mean_len_e6", pa.int64()),
    ])
    folded = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if folded is None:
        return schema.empty_table()
    df = folded.to_pandas()
    out = {n: [] for n in schema.names}
    for c in columns:
        g = df[df["column"] == c]
        n_rows = int(g["n_rows"].sum())
        n_nulls = int(g["n_nulls"].sum())
        n_valid = n_rows - n_nulls
        sum_len = int(g["sum_len"].sum())
        mins = g["min_len"].dropna()
        maxs = g["max_len"].dropna()
        out["column"].append(c)
        out["n_rows"].append(n_rows)
        out["n_nulls"].append(n_nulls)
        out["n_empty"].append(int(g["n_empty"].sum()))
        out["min_len"].append(int(mins.min()) if len(mins) else -1)
        out["max_len"].append(int(maxs.max()) if len(maxs) else -1)
        out["mean_len_e6"].append(
            -1 if n_valid == 0
            else (2 * sum_len * 1_000_000 + n_valid) // (2 * n_valid)
        )
    return pa.table(
        {n: pa.array(out[n], schema.field(n).type) for n in schema.names}
    )


def join_cardinality(left, right, *, left_key: str, right_key: str):
    """Shuffle-planner audit: the EXACT output size and skew profile of
    an equi-join WITHOUT executing it — ``|A ⋈ B| = Σ_k n_A(k)·n_B(k)``
    over per-key counts. At 100 TB this is what you run BEFORE a join
    to decide partition counts, salting, and whether the output even
    fits: the count tables are distinct-key-sized, orders of magnitude
    smaller than the join they describe, and the hot key falls out for
    free.

    Combiner-first per-batch counts on each side, one distinct-key
    groupby each, one count-table join, then integer partials fold to
    a single row: (left_rows, right_rows, left_keys, right_keys,
    matched_keys, est_rows, max_key_rows, hot_key)."""
    import numpy as np

    from ._fold import fold_table
    from .join import shuffle_hash_join

    def counts(ds, key):
        def keys(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t[key]))
            return pa.table({"k": pc.cast(t[key], pa.int64())})

        return bucket_combine(
            ds.map_batches(keys, batch_format="pyarrow", zero_copy_batch=True),
            "k", {"n": ("k", "count_all")})

    lc = counts(left, left_key)
    rc = counts(right, right_key)

    def side_total(cds):
        def p(t: pa.Table) -> pa.Table:
            return pa.table({
                "rows": pa.array([int(pc.sum(t["n"]).as_py() or 0)],
                                 pa.int64()),
                "keys": pa.array([t.num_rows], pa.int64()),
            })

        f = fold_table(cds.map_batches(p, batch_format="pyarrow",
                                       zero_copy_batch=True))
        if f is None:
            return 0, 0
        return (int(sum(f["rows"].to_pylist())),
                int(sum(f["keys"].to_pylist())))

    l_rows, l_keys = side_total(lc)
    r_rows, r_keys = side_total(rc)

    lc2 = lc.map_batches(
        lambda t: t.rename_columns(["k", "nl"]),
        batch_format="pyarrow", zero_copy_batch=True)
    rc2 = rc.map_batches(
        lambda t: t.rename_columns(["k", "nr"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = shuffle_hash_join(lc2, rc2, on="k")

    def prod_partial(t: pa.Table) -> pa.Table:
        nl = t["nl"].to_numpy(zero_copy_only=False).astype(np.int64)
        nr = t["nr"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks = t["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        prod = nl * nr
        if len(prod) == 0:
            return pa.schema([
                ("matched", pa.int64()), ("est", pa.int64()),
                ("mx", pa.int64()), ("hot", pa.int64()),
            ]).empty_table()
        # deterministic hot key: max product, ties to the SMALLEST key
        order = np.lexsort((ks, -prod))
        i = order[0]
        return pa.table({
            "matched": pa.array([len(prod)], pa.int64()),
            "est": pa.array([int(prod.sum())], pa.int64()),
            "mx": pa.array([int(prod[i])], pa.int64()),
            "hot": pa.array([int(ks[i])], pa.int64()),
        })

    f = fold_table(joined.map_batches(prod_partial,
                                      batch_format="pyarrow"))
    if f is None or f.num_rows == 0:
        matched = est = mx = 0
        hot = -1
    else:
        matched = int(sum(f["matched"].to_pylist()))
        est = int(sum(f["est"].to_pylist()))
        mxs = f["mx"].to_numpy(zero_copy_only=False).astype(np.int64)
        hots = f["hot"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((hots, -mxs))
        mx = int(mxs[order[0]])
        hot = int(hots[order[0]])
    return pa.table({
        "left_rows": pa.array([l_rows], pa.int64()),
        "right_rows": pa.array([r_rows], pa.int64()),
        "left_keys": pa.array([l_keys], pa.int64()),
        "right_keys": pa.array([r_keys], pa.int64()),
        "matched_keys": pa.array([matched], pa.int64()),
        "est_rows": pa.array([est], pa.int64()),
        "max_key_rows": pa.array([mx], pa.int64()),
        "hot_key": pa.array([hot], pa.int64()),
    })
