"""Round-5 third batch: TPC-H Q18/Q5/Q10 join shapes and the
per-stratum hash-rank sample — brute-force parity + layout invariance."""

import hashlib

import numpy as np
import pyarrow as pa
import ray.data as rd


def test_stratified_hash_sample_bruteforce_and_layout(ray_session):
    from schisma_ray.stages.corpus import stratified_hash_sample

    ids = list(range(1, 61))
    langs = [["en", "de", "fr", None][i % 4] for i in range(60)]
    tbl = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "lang": pa.array(langs, pa.string()),
    })
    outs = []
    for rep in (1, 7):
        ds = rd.from_arrow(tbl).repartition(rep)
        t = stratified_hash_sample(ds, group_col="lang",
                                   id_col="doc_id", n=4)
        outs.append(t.to_pandas().sort_values(
            ["lang", "sample_rank"]).reset_index(drop=True))
    assert outs[0].equals(outs[1])
    df = outs[0]
    # brute force: per lang, 4 lowest (md5_u32(id), id)
    want = {}
    for lang in ("en", "de", "fr"):
        group = [(int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16), i)
                 for i, l in zip(ids, langs) if l == lang]
        group.sort()
        want[lang] = [i for _, i in group[:4]]
    got = {lang: list(sub.sort_values("sample_rank")["doc_id"])
           for lang, sub in df.groupby("lang")}
    assert got == want
    assert set(df["lang"]) == {"en", "de", "fr"}   # null lang excluded
    assert sorted(df["sample_rank"].unique()) == [1, 2, 3, 4]


def test_stratified_hash_sample_small_groups(ray_session):
    from schisma_ray.stages.corpus import stratified_hash_sample

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "lang": pa.array(["en", "en", "zh"], pa.string()),
    })
    t = stratified_hash_sample(rd.from_arrow(tbl).repartition(2),
                               group_col="lang", id_col="doc_id", n=10)
    df = t.to_pandas()
    # groups smaller than n return everything, ranks dense from 1
    assert sorted(df[df.lang == "en"]["sample_rank"]) == [1, 2]
    assert sorted(df[df.lang == "zh"]["sample_rank"]) == [1]


def test_big_volume_orders_bruteforce(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from schisma_ray.pipelines.catalog import q_big_volume_orders

    rng = np.random.default_rng(7)
    n_li = 400
    okeys = rng.integers(1, 60, n_li)
    qty = rng.integers(1, 120, n_li).astype(float)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(okeys, pa.int64()),
        "l_quantity": pa.array(qty, pa.float64()),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(1, 61), pa.int64()),
        "o_custkey": pa.array((np.arange(1, 61) % 7) + 1, pa.int64()),
    }), tmp_path / "orders.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array(np.arange(1, 8), pa.int64()),
        "c_name": pa.array([f"C{i}" for i in range(1, 8)], pa.string()),
    }), tmp_path / "customer.parquet")

    out = q_big_volume_orders(str(tmp_path)).to_pandas()
    totals = {}
    for k, q in zip(okeys, qty):
        totals[int(k)] = totals.get(int(k), 0) + int(round(q * 100))
    want = {k: v for k, v in totals.items() if v > 20000}
    got = dict(zip(out["o_orderkey"], out["total_qty_c"]))
    assert got == want
    for r in out.itertuples():
        assert r.c_name == f"C{((r.o_orderkey % 7) + 1)}"


def test_returned_revenue_topk_order(ray_session):
    from schisma_ray.pipelines.catalog import q_returned_revenue_customers

    out = q_returned_revenue_customers("/root/testdata/sf0.001")
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    assert len(df) <= 20
    rev = list(df["revenue_c4"])
    assert rev == sorted(rev, reverse=True)


def test_regional_revenue_conation_filter(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from schisma_ray.pipelines.catalog import q_regional_revenue

    # one lineitem matches (supplier nation == customer nation),
    # one does not, one falls outside the 1996 window
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2], pa.int64()),
        "l_suppkey": pa.array([10, 11, 10], pa.int64()),
        "l_extendedprice": pa.array([100.0, 100.0, 100.0], pa.float64()),
        "l_discount": pa.array([0.1, 0.0, 0.0], pa.float64()),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([5, 5], pa.int64()),
        "o_orderdate": pa.array(
            [np.datetime64("1996-06-01", "us"),
             np.datetime64("1999-06-01", "us")],
            pa.timestamp("us")),
    }), tmp_path / "orders.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([5], pa.int64()),
        "c_nationkey": pa.array([3], pa.int32()),
    }), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([10, 11], pa.int64()),
        "s_nationkey": pa.array([3, 4], pa.int32()),
    }), tmp_path / "supplier.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([3, 4], pa.int32()),
        "n_name": pa.array(["N3", "N4"], pa.string()),
    }), tmp_path / "nation.parquet")

    out = q_regional_revenue(str(tmp_path))
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    # only (order 1, supplier 10) qualifies: 10000 cents * 90
    assert list(df["n_name"]) == ["N3"]
    assert list(df["revenue_c4"]) == [10000 * 90]


def _brute_lev(a, b):
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]


def test_edit_distance_capped_matches_bruteforce():
    from schisma_ray.stages.dedup import _edit_distance_capped

    words = ["", "a", "ab", "ba", "abc", "abd", "abcd", "acbd",
             "hello", "hallo", "helllo", "helo", "xyz", "aa", "aaa"]
    for a in words:
        for b in words:
            want = _brute_lev(a, b)
            got = _edit_distance_capped(a, b, 1)
            assert got == (want if want <= 1 else 2), (a, b, want, got)


def test_edit_distance_pairs_bruteforce_and_layout(ray_session):
    from schisma_ray.stages.dedup import edit_distance_pairs

    names = ["alpha", "alphb", "alpha", "alpine", "beta", "betas",
             "bet", "gamma", "gamm", "gamme", "aa11", "aa21",
             None, "x" * 70, "x" * 70 + "y"]
    ids = list(range(1, len(names) + 1))
    tbl = pa.table({
        "key": pa.array(ids, pa.int64()),
        "name": pa.array(names, pa.string()),
    })
    want = set()
    for i, a in zip(ids, names):
        for j, b in zip(ids, names):
            if i < j and a is not None and b is not None \
                    and len(a) <= 64 and len(b) <= 64 \
                    and _brute_lev(a, b) <= 1:
                want.add((i, j, _brute_lev(a, b)))
    outs = []
    for rep in (1, 5):
        ds = rd.from_arrow(tbl).repartition(rep)
        t = edit_distance_pairs(ds, "name", "key", max_dist=1).to_pandas()
        outs.append(set(zip(t["a"], t["b"], t["dist"])))
    assert outs[0] == outs[1] == want
    # the >max_len strings are excluded even though they are 1 apart
    assert not any(a >= 14 for a, _, _ in outs[0])


def test_edit_distance_pairs_dataset_twin(ray_session, monkeypatch):
    """The per-bucket side of both size switches gives the driver
    side's pairs."""
    from schisma_ray.stages import _bucket, dedup
    from schisma_ray.stages.dedup import edit_distance_pairs

    names = [f"node{i:03d}" for i in range(40)] + ["node00x", "node01x"]
    tbl = pa.table({
        "key": pa.array(range(len(names)), pa.int64()),
        "name": pa.array(names, pa.string()),
    })
    ds = rd.from_arrow(tbl).repartition(3)
    drv = edit_distance_pairs(ds, "name", "key", max_dist=1).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    ct = edit_distance_pairs(ds, "name", "key", max_dist=1).to_pandas()
    got_drv = set(zip(drv["a"], drv["b"], drv["dist"]))
    got_chain = set(zip(ct["a"], ct["b"], ct["dist"]))
    assert got_drv == got_chain and len(got_drv) > 0


def test_neyman_allocation_bruteforce_and_layout(ray_session):
    from schisma_ray.stages.stats import neyman_allocation

    vals = {
        "en": [100, 200, 300, 400, 1000],      # noisy
        "de": [250, 250, 250, 250],            # zero variance
        "fr": [10, 20],                        # tiny
    }
    rows_lang, rows_val = [], []
    for lang, vs in vals.items():
        for v in vs:
            rows_lang.append(lang)
            rows_val.append(v)
    rows_lang += ["en", None]
    rows_val += [None, 5]                      # null value / null lang
    tbl = pa.table({
        "lang": pa.array(rows_lang, pa.string()),
        "n_chars": pa.array(rows_val, pa.int64()),
    })
    outs = []
    for rep in (1, 4):
        ds = rd.from_arrow(tbl).repartition(rep)
        t = neyman_allocation(ds, group_col="lang",
                              value_col="n_chars", budget=100)
        outs.append(t.to_pandas().sort_values("lang")
                    .reset_index(drop=True))
    assert outs[0].equals(outs[1])
    df = outs[0].set_index("lang")
    # brute-force weights: w = floor(sqrt(n*sxx - sx^2)*1e6 + 0.5)
    import math
    want_w = {}
    for lang, vs in vals.items():
        n, sx, sxx = len(vs), sum(vs), sum(v * v for v in vs)
        want_w[lang] = int(math.floor(
            math.sqrt(float(n * sxx - sx * sx)) * 1_000_000 + 0.5))
    assert {k: int(v) for k, v in df["weight_e6"].items()} == want_w
    assert int(df.loc["de", "weight_e6"]) == 0          # zero variance
    assert int(df["alloc"].sum()) == 100                 # budget exact
    # largest-remainder brute force
    W = sum(want_w.values())
    base = {k: 100 * w // W for k, w in want_w.items()}
    rem = {k: 100 * w % W for k, w in want_w.items()}
    leftover = 100 - sum(base.values())
    for k in sorted(want_w, key=lambda k: (-rem[k], k))[:leftover]:
        base[k] += 1
    assert {k: int(v) for k, v in df["alloc"].items()} == base


def test_neyman_allocation_all_zero_variance(ray_session):
    from schisma_ray.stages.stats import neyman_allocation

    tbl = pa.table({
        "lang": pa.array(["en", "en", "de"], pa.string()),
        "n_chars": pa.array([7, 7, 9], pa.int64()),
    })
    t = neyman_allocation(rd.from_arrow(tbl), budget=10)
    df = t.to_pandas()
    assert list(df["alloc"]) == [0, 0]


def test_exact_quantiles_select_bruteforce_and_layout(ray_session):
    from schisma_ray.stages.rank import exact_quantiles_select

    rng = np.random.default_rng(11)
    # huge range forces multiple bisection passes; duplicates + nulls
    vals = np.concatenate([
        rng.integers(-2**40, 2**40, 5000),
        np.full(500, 123456789),
    ])
    tbl = pa.table({"x": pa.array(
        list(vals) + [None, None], pa.int64())})
    qs = [0, 250_000, 500_000, 900_000, 1_000_000]
    outs = []
    for rep in (1, 6):
        ds = rd.from_arrow(tbl).repartition(rep)
        t = exact_quantiles_select(ds, "x", qs)
        outs.append(list(zip(t["q_e6"].to_pylist(),
                             t["value"].to_pylist())))
    assert outs[0] == outs[1]
    s = np.sort(vals)
    n = len(s)
    want = [(q, int(s[(n - 1) * q // 1_000_000])) for q in qs]
    assert outs[0] == want
    # min and max come out exactly
    assert outs[0][0][1] == int(s[0])
    assert outs[0][-1][1] == int(s[-1])


def test_exact_quantiles_select_matches_sort_path(ray_session):
    from schisma_ray.stages.rank import exact_quantiles, exact_quantiles_select

    rng = np.random.default_rng(13)
    vals = rng.integers(0, 10_000, 3000)
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.int64())}))
    sel = exact_quantiles_select(ds.repartition(4), "x",
                                 [100_000, 500_000, 990_000])
    srt = exact_quantiles(ds.repartition(4), "x", [0.1, 0.5, 0.99])
    assert [int(v) for v in sel["value"].to_pylist()] == \
        [int(v) for v in srt["value"].to_pylist()]


def test_exact_quantiles_select_constant_and_empty(ray_session):
    from schisma_ray.stages.rank import exact_quantiles_select

    const = rd.from_arrow(pa.table({"x": pa.array([7] * 50, pa.int64())}))
    t = exact_quantiles_select(const, "x", [0, 500_000, 1_000_000])
    assert t["value"].to_pylist() == [7, 7, 7]
    empty = rd.from_arrow(pa.table({"x": pa.array([None, None],
                                                  pa.int64())}))
    t2 = exact_quantiles_select(empty, "x", [500_000])
    assert t2.num_rows == 0


def test_knn_label_disagreement_bruteforce_and_layout(ray_session):
    from schisma_ray.stages.similarity import knn_label_disagreement

    rng = np.random.default_rng(21)
    n, d = 60, 6
    vecs = rng.standard_normal((n, d))
    labels = rng.integers(0, 3, n)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    qn = 4
    qmat = np.array([np.asarray(
        pa.array([list(map(float, vecs[i]))],
                 pa.list_(pa.float32()))[0].as_py()) for i in range(qn)])
    outs = []
    for rep in (1, 5):
        ds = rd.from_arrow(tbl).repartition(rep)
        t = knn_label_disagreement(ds, qmat, list(range(qn)),
                                   list(labels[:qn]), k=7)
        outs.append(t.to_pandas().sort_values("query_id")
                    .reset_index(drop=True))
    assert outs[0].equals(outs[1])
    df = outs[0].set_index("query_id")
    # brute force with float32-truncated corpus vectors (same as stored)
    v32 = vecs.astype(np.float32).astype(np.float64)
    for qi in range(qn):
        sims = (v32[qi] @ v32.T) / (np.linalg.norm(v32[qi])
                                    * np.linalg.norm(v32, axis=1))
        order = sorted((i for i in range(n) if i != qi),
                       key=lambda i: (-sims[i], i))[:7]
        dis = sum(1 for i in order if labels[i] != labels[qi])
        assert int(df.loc[qi, "n_disagree"]) == dis
        assert int(df.loc[qi, "n_neighbors"]) == 7
        assert int(df.loc[qi, "disagree_e6"]) == \
            (2_000_000 * dis + 7) // 14


def test_hard_negative_mining_bruteforce(ray_session):
    from schisma_ray.stages.similarity import hard_negative_mining

    rng = np.random.default_rng(23)
    n, d = 50, 5
    vecs = rng.standard_normal((n, d))
    labels = rng.integers(0, 2, n)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    v32 = vecs.astype(np.float32).astype(np.float64)
    qn = 3
    ds = rd.from_arrow(tbl).repartition(4)
    t = hard_negative_mining(ds, v32[:qn], list(range(qn)),
                             list(labels[:qn]), k=4).to_pandas()
    for qi in range(qn):
        sims = (v32[qi] @ v32.T) / (np.linalg.norm(v32[qi])
                                    * np.linalg.norm(v32, axis=1))
        order = sorted((i for i in range(n) if labels[i] != labels[qi]),
                       key=lambda i: (-sims[i], i))[:4]
        got = t[t["query_id"] == qi].sort_values(
            ["sim", "neighbor_id"], ascending=[False, True])
        assert list(got["neighbor_id"]) == order
        # every mined negative really has the other label
        assert all(labels[i] != labels[qi] for i in got["neighbor_id"])


def test_record_linkage_scores_bruteforce(ray_session):
    from schisma_ray.stages.dedup import record_linkage_scores

    tbl = pa.table({
        "key": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "name": pa.array(["acme co", "acme cx", "acme co",
                          "zeta inc", "zeta inz"], pa.string()),
        "seg": pa.array(["A", "A", "B", "C", "C"], pa.string()),
        "cents": pa.array([1000, 1500, 50_000, 70_000, 70_500],
                          pa.int64()),
    })
    ds = rd.from_arrow(tbl).repartition(3)
    t = record_linkage_scores(
        ds, id_col="key", name_col="name", exact_cols=["seg"],
        value_col="cents", value_tol=1000)
    got = {(r["a"], r["b"]):
           (r["name_dist"], r["n_exact_agree"], r["value_close"],
            r["score"])
           for r in t.take_all()}
    # (1,2): dist1, seg agree, |500|<=1000 -> score 1+1+1=3
    # (1,3): dist0, seg differ, far -> 2+0+0=2
    # (2,3): dist1, differ, far -> 1
    # (4,5): dist1, seg agree, close -> 3
    assert got == {
        (1, 2): (1, 1, 1, 3),
        (1, 3): (0, 0, 0, 2),
        (2, 3): (1, 0, 0, 1),
        (4, 5): (1, 1, 1, 3),
    }


def test_compression_ratio_properties(ray_session):
    import zlib
    from schisma_ray.stages.text import compression_ratio

    docs = {
        1: "the quick brown fox jumps over the lazy dog " * 3,
        2: "ab" * 400,                   # highly repetitive
        3: "x",
        5: "natural language has entropy unlike repeated tokens",
    }
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([docs[1], docs[2], docs[3], None, docs[5]],
                         pa.string()),
    })
    outs = []
    for rep in (1, 4):
        ds = rd.from_arrow(tbl).repartition(rep)
        df = compression_ratio(ds).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        outs.append(df)
    assert outs[0].equals(outs[1])
    df = outs[0].set_index("doc_id")
    assert list(df.index) == [1, 2, 3, 5]      # null dropped
    for did, txt in docs.items():
        raw = txt.encode()
        z = len(zlib.compress(raw, 6))
        assert int(df.loc[did, "n_bytes"]) == len(raw)
        assert int(df.loc[did, "z_bytes"]) == z
        assert int(df.loc[did, "ratio_e6"]) == \
            (2_000_000 * z + len(raw)) // (2 * len(raw))
    # repetition compresses hardest
    assert df.loc[2, "ratio_e6"] < df.loc[5, "ratio_e6"]
    # threshold filter keeps only the repetitive doc
    flagged = compression_ratio(
        rd.from_arrow(tbl), max_ratio_e6=int(df.loc[2, "ratio_e6"])
    ).to_pandas()
    assert list(flagged["doc_id"]) == [2]


def test_join_cardinality_bruteforce_and_layout(ray_session):
    from schisma_ray.stages.profile import join_cardinality

    rng = np.random.default_rng(31)
    lk = rng.integers(1, 20, 300)
    rk = rng.integers(1, 25, 80)
    left = pa.table({"lkey": pa.array(
        list(lk) + [None], pa.int64())})
    right = pa.table({"rkey": pa.array(
        list(rk) + [None], pa.int64())})
    outs = []
    for rep in (1, 5):
        t = join_cardinality(
            rd.from_arrow(left).repartition(rep),
            rd.from_arrow(right).repartition(rep),
            left_key="lkey", right_key="rkey")
        outs.append(t.to_pylist()[0])
    assert outs[0] == outs[1]
    got = outs[0]
    from collections import Counter
    cl, cr = Counter(lk.tolist()), Counter(rk.tolist())
    prods = {k: cl[k] * cr[k] for k in cl if k in cr}
    assert got["left_rows"] == 300 and got["right_rows"] == 80
    assert got["left_keys"] == len(cl) and got["right_keys"] == len(cr)
    assert got["matched_keys"] == len(prods)
    assert got["est_rows"] == sum(prods.values())
    mx = max(prods.values())
    assert got["max_key_rows"] == mx
    assert got["hot_key"] == min(k for k, v in prods.items() if v == mx)
    # the estimate IS the true join size
    import pandas as pd
    true = pd.DataFrame({"k": lk}).merge(pd.DataFrame({"k": rk}), on="k")
    assert got["est_rows"] == len(true)


def test_join_cardinality_disjoint(ray_session):
    from schisma_ray.stages.profile import join_cardinality

    t = join_cardinality(
        rd.from_arrow(pa.table({"a": pa.array([1, 2], pa.int64())})),
        rd.from_arrow(pa.table({"b": pa.array([3, 4], pa.int64())})),
        left_key="a", right_key="b")
    row = t.to_pylist()[0]
    assert row["est_rows"] == 0 and row["matched_keys"] == 0
    assert row["hot_key"] == -1


def test_cusum_drift_bruteforce_with_planted_shift(ray_session):
    from schisma_ray.stages.stats import cusum_drift

    # 20 baseline days of ~100 events, then 10 days shifted to 115 —
    # each day individually under the ~21-count alarm band around the
    # global mean (105), but the CUSUM accumulates +5/day past the
    # decision interval
    day_us = 86_400_000_000
    counts = [100] * 20 + [115] * 10
    ts, rows = [], []
    for d, c in enumerate(counts):
        rows.extend([d * day_us + i for i in range(c)])
    tbl = pa.table({"ts": pa.array(
        np.array(rows, np.int64), pa.timestamp("us"))})
    outs = []
    for rep in (1, 6):
        t = cusum_drift(rd.from_arrow(tbl).repartition(rep), "ts")
        outs.append(t.to_pandas().sort_values("day_idx")
                    .reset_index(drop=True))
    assert outs[0].equals(outs[1])
    df = outs[0]
    # brute-force recursion
    total, nd = sum(counts), len(counts)
    mu = (2 * total + nd) // (2 * nd)
    slack = (2 * mu * 5 + 100) // 200
    h = (2 * mu * 20 + 100) // 200
    s_hi = s_lo = 0
    want = []
    for c in counts:
        s_hi = max(0, s_hi + c - mu - slack)
        s_lo = max(0, s_lo + mu - c - slack)
        want.append((s_hi, s_lo, s_hi > h or s_lo > h))
    got = list(zip(df["cusum_hi"], df["cusum_lo"], df["alarm"]))
    assert [(int(a), int(b), bool(c)) for a, b, c in got] == want
    # the sustained small shift eventually alarms
    assert bool(df["alarm"].iloc[-1])
    # and no single baseline day alarms
    assert not df["alarm"].iloc[:20].any()


def test_bucketed_join_matches_plain_join(ray_session, tmp_path):
    from schisma_ray.stages.bucketed import bucket_write, bucketed_join

    rng = np.random.default_rng(41)
    lk = rng.integers(1, 40, 200)
    left = pa.table({
        "k": pa.array(lk, pa.int64()),
        "v": pa.array(rng.integers(0, 100, 200), pa.int64()),
    })
    right = pa.table({
        "rk": pa.array(np.arange(1, 31), pa.int64()),
        "name": pa.array([f"n{i}" for i in range(1, 31)], pa.string()),
    })
    bucket_write(rd.from_arrow(left).repartition(3), "k",
                 str(tmp_path / "l"), num_buckets=8)
    bucket_write(rd.from_arrow(right), "rk",
                 str(tmp_path / "r"), num_buckets=8)
    got = bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"),
                        on="k", right_on="rk",
                        num_buckets=8).to_pandas()
    import pandas as pd
    want = pd.DataFrame({"k": lk,
                         "v": left["v"].to_numpy()}).merge(
        pd.DataFrame({"k": np.arange(1, 31),
                      "name": [f"n{i}" for i in range(1, 31)]}),
        on="k")
    key = lambda df: sorted(map(tuple, df[["k", "v", "name"]].values))
    assert key(got) == key(want)
    # bucket partition column does not leak into the result
    assert "bucket" not in got.columns


def test_bucketed_join_disjoint_sides(ray_session, tmp_path):
    from schisma_ray.stages.bucketed import bucket_write, bucketed_join

    bucket_write(rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64())})), "k", str(tmp_path / "l"),
        num_buckets=4)
    bucket_write(rd.from_arrow(pa.table({
        "rk": pa.array([999], pa.int64())})), "rk", str(tmp_path / "r"),
        num_buckets=4)
    out = bucketed_join(str(tmp_path / "l"), str(tmp_path / "r"),
                        on="k", right_on="rk", num_buckets=4)
    assert out.count() == 0


def test_late_events_bruteforce_and_layout(ray_session):
    from schisma_ray.stages.window import late_events

    day = 86_400_000_000
    # user 1: arrival order 1..5, ts goes 3,1,4,2,5 days -> late at
    # arrivals 2 and 4 (behind running max 3 resp. 4)
    # user 2: perfectly ordered -> 0 late
    rows = [
        (1, 1, 3), (2, 1, 1), (3, 1, 4), (4, 1, 2), (5, 1, 5),
        (6, 2, 1), (7, 2, 2), (8, 2, 3),
        (9, None, 1), (10, 3, None),
    ]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array(
            [None if r[2] is None else r[2] * day for r in rows],
            pa.timestamp("us")),
    })
    outs = []
    for rep in (1, 4):
        ds = rd.from_arrow(tbl).repartition(rep)
        df = late_events(ds).to_pandas().sort_values(
            "user_id").reset_index(drop=True)
        outs.append(df)
    assert outs[0].equals(outs[1])
    df = outs[0].set_index("user_id")
    assert list(df.index) == [1, 2]           # null user/ts excluded
    assert (int(df.loc[1, "n_events"]), int(df.loc[1, "n_late"])) == (5, 2)
    assert int(df.loc[1, "late_e6"]) == (2_000_000 * 2 + 5) // 10
    assert (int(df.loc[2, "n_events"]), int(df.loc[2, "n_late"])) == (3, 0)


def test_ann_recall_report_math(ray_session):
    from schisma_ray.pipelines.catalog import q_ann_recall_report

    t = q_ann_recall_report("/root/testdata/sf0.001")
    df = t.to_pandas() if hasattr(t, "to_pandas") else t
    assert len(df) == 5
    for r in df.itertuples():
        assert 0 <= r.hits <= r.k_true <= 10
        assert r.recall_e6 == (2_000_000 * r.hits + r.k_true) // (
            2 * r.k_true)


def test_grouped_quantiles_select_matches_bruteforce(ray_session):
    from schisma_ray.stages.rank import grouped_quantiles_select

    rng = np.random.default_rng(51)
    groups = np.array(["a", "b", "c"])[rng.integers(0, 3, 4000)]
    vals = rng.integers(-2**35, 2**35, 4000)
    tbl = pa.table({
        "g": pa.array(list(groups) + [None, "a"], pa.string()),
        "x": pa.array(list(vals) + [5, None], pa.int64()),
    })
    qs = [250_000, 500_000, 900_000]
    outs = []
    for rep in (1, 5):
        ds = rd.from_arrow(tbl).repartition(rep)
        t = grouped_quantiles_select(ds, "g", "x", qs)
        outs.append(sorted(zip(t["g"].to_pylist(),
                               t["q_e6"].to_pylist(),
                               t["value"].to_pylist())))
    assert outs[0] == outs[1]
    want = []
    for g in ("a", "b", "c"):
        s = np.sort(vals[groups == g])
        for q in qs:
            want.append((g, q, int(s[(len(s) - 1) * q // 1_000_000])))
    assert outs[0] == sorted(want)


def test_record_linkage_dataset_twin(ray_session, monkeypatch):
    """The per-bucket side of both size switches gives the driver
    side's scores."""
    from schisma_ray.stages import _bucket, dedup
    from schisma_ray.stages.dedup import record_linkage_scores

    tbl = pa.table({
        "key": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "name": pa.array(["acme co", "acme cx", "acme co",
                          "zeta inc", "zeta inz"], pa.string()),
        "seg": pa.array(["A", "A", "B", "C", "C"], pa.string()),
        "cents": pa.array([1000, 1500, 50_000, 70_000, 70_500],
                          pa.int64()),
    })
    ds = rd.from_arrow(tbl).repartition(3)
    kw = dict(id_col="key", name_col="name", exact_cols=["seg"],
              value_col="cents", value_tol=1000)
    drv = record_linkage_scores(ds, **kw).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    chain = record_linkage_scores(ds, **kw).to_pandas()
    key = lambda rows: sorted(map(tuple, rows))
    assert key(drv.values) == key(chain.values)
    assert len(chain) == 4


def test_source_overlap_bruteforce_and_layout(ray_session):
    from schisma_ray.stages.corpus import source_overlap

    docs = [
        ("s1", "the cat sat on the mat"),
        ("s1", "a dog ran in the park"),
        ("s2", "the cat sat on the mat"),     # full copy of s1 doc
        ("s2", "different words entirely here"),
        ("s3", "too short"),                   # no 3-grams
        (None, "the cat sat on the mat"),      # null source excluded
        ("s4", None),                          # null text: 0 grams
    ]
    tbl = pa.table({
        "source": pa.array([d[0] for d in docs], pa.string()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    })

    def grams(txt):
        w = txt.split()
        return {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}

    per = {}
    for s, txt in docs:
        if s is None:
            continue
        per.setdefault(s, set()).update(grams(txt) if txt else set())
    srcs = sorted(per)
    want = {}
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            inter = len(per[a] & per[b])
            na, nb = len(per[a]), len(per[b])
            union = na + nb - inter
            want[(a, b)] = (inter, na, nb,
                            (2_000_000 * inter + union) // (2 * union)
                            if union else 0)
    outs = []
    for rep in (1, 4):
        ds = rd.from_arrow(tbl).repartition(rep)
        t = source_overlap(ds)
        outs.append({(r["src_a"], r["src_b"]):
                     (r["inter"], r["n_a"], r["n_b"], r["jaccard_e6"])
                     for r in t.to_pylist()})
    assert outs[0] == outs[1] == want
    # the copied doc makes (s1, s2) the most-overlapping pair
    assert outs[0][("s1", "s2")][0] == 4
    # zero-gram sources still appear with zero rows
    assert outs[0][("s3", "s4")] == (0, 0, 0, 0)
