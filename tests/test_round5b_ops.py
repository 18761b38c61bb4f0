"""Round-5 second batch: split balance, vocab stats, doc novelty,
word PageRank — brute-force parity + determinism across block layouts."""

import hashlib

import numpy as np
import pyarrow as pa
import ray.data as rd

DOCS = [
    (1, "the cat sat on the mat", "en"),
    (2, "the cat sat on the rug", "en"),
    (3, "a dog ran in the park", "en"),
    (4, "der hund lief im park", "de"),
    (5, "der hund lief im wald", "de"),
    (6, "one two", "en"),          # < 3 words: no novelty row
    (7, None, "en"),               # null text
    (8, "unique words entirely here now", None),  # null lang
    (9, "the cat sat on the mat", "en"),  # exact dup of doc 1
]


def _docs(repartition=3):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in DOCS], pa.int64()),
        "text": pa.array([d[1] for d in DOCS], pa.string()),
        "lang": pa.array([d[2] for d in DOCS], pa.string()),
    })).repartition(repartition)


def _md5_train(doc_id, mod=10, pct=8):
    return int(hashlib.md5(str(doc_id).encode()).hexdigest()[:8], 16) % mod < pct


def _half_up(num, den):
    return (2 * num + den) // (2 * den)


def test_split_balance_bruteforce(ray_session):
    from schisma_ray.stages.corpus import split_balance

    out = split_balance(_docs(), group_col="lang", id_col="doc_id",
                        threshold_e6=1).to_pandas()
    rows = [(d[0], d[2]) for d in DOCS if d[2] is not None]
    per = {}
    for doc_id, lang in rows:
        tr = _md5_train(doc_id)
        a, b = per.get(lang, (0, 0))
        per[lang] = (a + tr, b + (not tr))
    g_tr = sum(a for a, _ in per.values())
    g_tot = sum(a + b for a, b in per.values())
    g_e6 = _half_up(1_000_000 * g_tr, g_tot)
    got = {r.lang: r for r in out.itertuples()}
    assert set(got) == set(per)
    for lang, (a, b) in per.items():
        r = got[lang]
        assert (r.n_train, r.n_val) == (a, b)
        share = _half_up(1_000_000 * a, a + b)
        assert r.train_share_e6 == share
        assert r.global_share_e6 == g_e6
        assert r.diff_e6 == abs(share - g_e6)
        assert bool(r.flagged) == (abs(share - g_e6) > 1)


def test_vocab_stats_bruteforce(ray_session):
    from schisma_ray.stages.text import vocab_stats

    out = vocab_stats(_docs()).to_pandas()
    per = {}
    for _, text, lang in DOCS:
        if lang is None or text is None:
            continue
        for w in text.split():
            per.setdefault(lang, {}).setdefault(w, 0)
            per[lang][w] += 1
    got = {r.lang: r for r in out.itertuples()}
    assert set(got) == set(per)
    for lang, wc in per.items():
        r = got[lang]
        n_tokens = sum(wc.values())
        n_types = len(wc)
        n_hapax = sum(1 for n in wc.values() if n == 1)
        assert (r.n_tokens, r.n_types, r.n_hapax) == (
            n_tokens, n_types, n_hapax)
        assert r.ttr_e6 == _half_up(1_000_000 * n_types, n_tokens)
        assert r.hapax_e6 == _half_up(1_000_000 * n_hapax, n_types)


def _brute_novelty(k=3):
    grams = {}
    for doc_id, text, _ in DOCS:
        if text is None:
            continue
        w = text.split()
        if len(w) < k:
            continue
        grams[doc_id] = {" ".join(w[i:i + k]) for i in range(len(w) - k + 1)}
    df = {}
    for gs in grams.values():
        for g in gs:
            df[g] = df.get(g, 0) + 1
    return {
        d: (len(gs), sum(1 for g in gs if df[g] == 1))
        for d, gs in grams.items()
    }


def test_doc_novelty_bruteforce(ray_session):
    from schisma_ray.stages.text import doc_novelty

    out = doc_novelty(_docs()).to_pandas()
    want = _brute_novelty()
    got = {r.doc_id: r for r in out.itertuples()}
    assert set(got) == set(want)
    for d, (ng, nv) in want.items():
        r = got[d]
        assert (r.n_grams, r.n_novel) == (ng, nv)
        assert r.novelty_e6 == _half_up(1_000_000 * nv, ng)
    # exact duplicate docs share every gram: zero novelty both sides
    assert got[1].n_novel == 0 and got[9].n_novel == 0


def _brute_pagerank(vocab_k=30, iters=5, damping_pct=85):
    docs = {d: set(t.split()) for d, t, _ in DOCS if t is not None}
    df = {}
    for ws in docs.values():
        for w in ws:
            df[w] = df.get(w, 0) + 1
    vocab = sorted(sorted(df), key=lambda w: (-df[w], w))[:vocab_k]
    vocab = sorted(vocab)
    idx = {w: i for i, w in enumerate(vocab)}
    n = len(vocab)
    pair_n = {}
    for ws in docs.values():
        vs = sorted(w for w in ws if w in idx)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                pair_n[(vs[i], vs[j])] = pair_n.get((vs[i], vs[j]), 0) + 1
    out_w = [0] * n
    for (a, b), w in pair_n.items():
        out_w[idx[a]] += w
        out_w[idx[b]] += w
    base = (1_000_000 - damping_pct * 10_000) // n
    pr = [1_000_000 // n] * n
    for _ in range(iters):
        contrib = [0] * n
        for (a, b), w in pair_n.items():
            ia, ib = idx[a], idx[b]
            contrib[ib] += pr[ia] * w // out_w[ia]
            contrib[ia] += pr[ib] * w // out_w[ib]
        pr = [base + (damping_pct * c) // 100 for c in contrib]
    return dict(zip(vocab, pr))


def test_word_pagerank_bruteforce(ray_session):
    from schisma_ray.stages.text import word_pagerank

    out = word_pagerank(_docs()).to_pandas()
    want = _brute_pagerank()
    got = dict(zip(out["word"], out["pr_e6"]))
    assert got == want
    # probability mass sanity: e6 floor arithmetic only loses mass
    assert 0 < sum(got.values()) <= 1_000_000


def test_new_ops_layout_invariant(ray_session):
    """Identical results across block layouts (1 vs 5 partitions)."""
    from schisma_ray.stages.corpus import split_balance
    from schisma_ray.stages.text import doc_novelty, vocab_stats

    for rep in (1, 5):
        ds = _docs(rep)
        sb = split_balance(
            ds, group_col="lang", id_col="doc_id"
        ).to_pandas().sort_values("lang").reset_index(drop=True)
        vs = vocab_stats(ds).to_pandas().sort_values(
            "lang").reset_index(drop=True)
        nv = doc_novelty(ds).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        if rep == 1:
            sb1, vs1, nv1 = sb, vs, nv
        else:
            assert sb.equals(sb1)
            assert vs.equals(vs1)
            assert nv.equals(nv1)


def test_split_leakage_near_tags_cross_split_only(ray_session):
    """Every reported near-dup pair straddles the md5 split, train id
    first; jaccard >= 0.8."""
    import pyarrow.parquet  # noqa: F401

    from schisma_ray.pipelines.catalog import q_split_leakage_near

    out = q_split_leakage_near("/root/testdata/sf0.001")
    df = out.to_pandas() if not hasattr(out, "to_pandas_df") else out
    if not isinstance(df, __import__("pandas").DataFrame):
        df = df.to_pandas()
    assert len(df) > 0
    assert (df["jaccard"] >= 0.8).all()
    for r in df.itertuples():
        assert _md5_train(r.train_id)
        assert not _md5_train(r.val_id)


def test_split_leakage_near_keeps_columns_without_pairs(ray_session, tmp_path):
    """A corpus without near-duplicates (no id the synthetic crawl
    re-keys) still reports the query's three columns."""
    import pyarrow.parquet as pq

    from schisma_ray.pipelines.catalog import q_split_leakage_near

    docs = pa.table({"doc_id": pa.array([2, 3, 4, 7], pa.int64()),
                     "text": ["alpha beta gamma delta", "one two three four",
                              "red green blue cyan", "north south east west"]})
    pq.write_table(docs, tmp_path / "documents.parquet")
    out = q_split_leakage_near(str(tmp_path))
    assert out.count() == 0
    assert out.schema().names == ["train_id", "val_id", "jaccard"]


def test_session_bounce_bruteforce(ray_session):
    from schisma_ray.stages.window import session_bounce_by_day

    rng = np.random.default_rng(11)
    n = 400
    ts = rng.integers(0, 5 * 86_400_000_000, n)  # 5 days of us
    users = rng.integers(0, 25, n)
    ds = rd.from_arrow(pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })).repartition(4)
    out = session_bounce_by_day(ds).to_pandas()
    # brute force
    per_day = {}
    for u in np.unique(users):
        t = np.sort(ts[users == u])
        breaks = np.flatnonzero(
            np.concatenate(([True], (t[1:] - t[:-1]) > 1_800_000_000)))
        lengths = np.diff(np.concatenate((breaks, [len(t)])))
        for b, ln in zip(breaks, lengths):
            day = int(t[b] // 86_400_000_000)
            s, bo = per_day.get(day, (0, 0))
            per_day[day] = (s + 1, bo + (ln == 1))
    got = {r.day: r for r in out.itertuples()}
    assert set(got) == set(per_day)
    for day, (s, bo) in per_day.items():
        r = got[day]
        assert (r.n_sessions, r.n_bounce) == (s, bo)
        assert r.bounce_e6 == _half_up(1_000_000 * bo, s)


def test_dedup_lang_shift_bruteforce(ray_session):
    from schisma_ray.stages.dedup import dedup_lang_shift

    docs = [
        (1, "same text", "en"), (5, "same text", "de"),
        (2, "same text", "en"),                      # min id 1 -> en wins
        (3, "other", "de"), (4, "third", "en"),
        (6, None, "en"), (7, "has null lang", None),  # excluded
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
        "lang": pa.array([d[2] for d in docs], pa.string()),
    })).repartition(3)
    out = dedup_lang_shift(ds).to_pandas().set_index("lang")
    # before: en 3, de 2 (rows 6,7 excluded); after: survivors 1(en),3(de),4(en)
    assert out.loc["en", "n_before"] == 3 and out.loc["de", "n_before"] == 2
    assert out.loc["en", "n_after"] == 2 and out.loc["de", "n_after"] == 1
    assert out.loc["en", "share_before_e6"] == _half_up(3_000_000, 5)
    assert out.loc["en", "share_after_e6"] == _half_up(2_000_000, 3)
    assert (out["shift_e6"] ==
            out["share_after_e6"] - out["share_before_e6"]).all()


def test_shipping_priority_bruteforce(ray_session):
    import pandas as pd

    from schisma_ray.pipelines.catalog import q_shipping_priority

    sf = "/root/testdata/sf0.001"
    out = q_shipping_priority(sf)
    df = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    li = pd.read_parquet(f"{sf}/lineitem.parquet")
    orders = pd.read_parquet(f"{sf}/orders.parquet")
    cust = pd.read_parquet(f"{sf}/customer.parquet")
    cutoff = pd.Timestamp("1998-01-01")
    li = li[li["l_shipdate"] > cutoff].copy()
    li["rev"] = (
        (li["l_extendedprice"] * 100).round().astype("int64")
        * (100 - (li["l_discount"] * 100).round().astype("int64"))
    )
    rev = li.groupby("l_orderkey")["rev"].sum()
    o = orders[(orders["o_orderdate"] < cutoff)
               & orders["o_custkey"].isin(
                   cust[cust["c_mktsegment"] == "BUILDING"]["c_custkey"])]
    j = o.merge(rev.rename("revenue_c4"), left_on="o_orderkey",
                right_index=True)
    want = j.sort_values(["revenue_c4", "o_orderkey"],
                         ascending=[False, True]).head(10)
    assert df["o_orderkey"].tolist() == want["o_orderkey"].tolist()
    assert df["revenue_c4"].tolist() == want["revenue_c4"].tolist()


def test_promo_share_bruteforce(ray_session):
    import pandas as pd

    from schisma_ray.pipelines.catalog import q_promo_revenue_share

    sf = "/root/testdata/sf0.001"
    out = q_promo_revenue_share(sf).to_pandas().set_index("month")
    li = pd.read_parquet(f"{sf}/lineitem.parquet")
    part = pd.read_parquet(f"{sf}/part.parquet")
    j = li.merge(part[["p_partkey", "p_type"]], left_on="l_partkey",
                 right_on="p_partkey")
    j["rev"] = (
        (j["l_extendedprice"] * 100).round().astype("int64")
        * (100 - (j["l_discount"] * 100).round().astype("int64"))
    )
    j["month"] = (j["l_shipdate"].dt.year * 100
                  + j["l_shipdate"].dt.month).astype("int64")
    per = j.groupby("month").agg(
        total=("rev", "sum"),
        promo=("rev", lambda s: s[j.loc[s.index, "p_type"]
                                  == "PROMO"].sum()))
    assert set(out.index) == set(per.index)
    for m, r in per.iterrows():
        assert out.loc[m, "total_c4"] == r["total"]
        assert out.loc[m, "promo_c4"] == r["promo"]
        assert out.loc[m, "promo_share_e6"] == _half_up(
            1_000_000 * int(r["promo"]), int(r["total"]))


def test_event_type_lift_bruteforce(ray_session):
    from schisma_ray.stages.window import event_type_lift

    rng = np.random.default_rng(7)
    n = 300
    users = rng.integers(0, 40, n)
    types = np.array(["a", "b", "c", "d"])[rng.integers(0, 4, n)]
    ds = rd.from_arrow(pa.table({
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array(types, pa.string()),
    })).repartition(4)
    out = event_type_lift(ds).to_pandas()
    # brute force
    per_user = {}
    for u, t in zip(users, types):
        per_user.setdefault(int(u), set()).add(t)
    n_keys = len(per_user)
    marg = {}
    pair = {}
    for ts in per_user.values():
        for t in ts:
            marg[t] = marg.get(t, 0) + 1
        s = sorted(ts)
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                pair[(s[i], s[j])] = pair.get((s[i], s[j]), 0) + 1
    got = {(r.type_a, r.type_b): r for r in out.itertuples()}
    assert set(got) == set(pair)
    for (a, b), n_ab in pair.items():
        r = got[(a, b)]
        na, nb = marg[a], marg[b]
        assert (r.n_ab, r.n_a, r.n_b) == (n_ab, na, nb)
        assert r.conf_a_to_b_e6 == _half_up(1_000_000 * n_ab, na)
        assert r.conf_b_to_a_e6 == _half_up(1_000_000 * n_ab, nb)
        assert r.lift_e6 == _half_up(1_000_000 * n_ab * n_keys, na * nb)


def test_embedding_pair_sample_fixed_and_layout_invariant(ray_session):
    from schisma_ray.stages.similarity import embedding_pair_sample

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((40, 8)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(40), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    })
    outs = []
    for rep in (1, 6):
        ds = rd.from_arrow(tbl).repartition(rep)
        df = embedding_pair_sample(ds, m=8).to_pandas().sort_values(
            ["a", "b"]).reset_index(drop=True)
        outs.append(df)
    assert outs[0].equals(outs[1])
    df = outs[0]
    assert len(df) == 8 * 7 // 2
    # brute force the hash-rank sample + cosine
    h = np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                  for i in range(40)], dtype=np.int64)
    pick = np.lexsort((np.arange(40), h))[:8]
    ids = np.arange(40)[pick]
    m = vecs[pick].astype(np.float64)
    norms = np.linalg.norm(m, axis=1)
    want = {}
    for i in range(8):
        for j in range(i + 1, 8):
            a, b = sorted((int(ids[i]), int(ids[j])))
            want[(a, b)] = round(
                float(m[i] @ m[j] / (norms[i] * norms[j])), 6)
    got = {(r.a, r.b): r.sim for r in df.itertuples()}
    assert got == want
