"""Unit tests for the round-3 operator additions: stored-hash near-dups,
sequence packing, rolling means, BM25 retrieval."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd


def test_hamming_near_dup_pairs_stored_column(ray_session):
    """Banding over a stored int64 signature column: pairs within
    Hamming<=3 always share a band (pigeonhole) and are found; far
    pairs are not."""
    from schisma_ray.stages.dedup import hamming_near_dup_pairs

    def s64(u: int) -> int:
        u &= (1 << 64) - 1
        return u - (1 << 64) if u >= (1 << 63) else u

    base = 0x0123456789ABCDEF
    sigs = pa.table({
        "image_id": pa.array(["a", "b", "c", "d"], pa.string()),
        "phash": pa.array(
            [base,
             base ^ 0b111,          # hamming 3 from a
             s64(base ^ ((1 << 63) | (1 << 2) | (1 << 40) | (1 << 20))),  # hamming 4
             s64(0xFFFFFFFFFFFFFFFF)],
            pa.int64()),
    })
    out = hamming_near_dup_pairs(
        rd.from_arrow(sigs), sig_col="phash", id_col="image_id", max_hamming=3
    ).to_pandas()
    got = sorted(zip(out["a"], out["b"], out["hamming"]))
    assert got == [("a", "b", 3)]


def test_hamming_banding_vectorized_matches_python(ray_session):
    """The vectorized numpy banding must equal the definitional
    per-value band keys for negative signatures."""
    from schisma_ray.stages.dedup import hamming_near_dup_pairs

    rng = np.random.default_rng(3)
    vals = rng.integers(-(2**63), 2**63 - 1, size=50, dtype=np.int64)
    # two planted twins
    vals[10] = vals[0]
    vals[11] = vals[1] ^ 1
    sigs = pa.table({"id": pa.array(range(50), pa.int64()),
                     "sig": pa.array(vals, pa.int64())})
    out = hamming_near_dup_pairs(
        rd.from_arrow(sigs), sig_col="sig", id_col="id", max_hamming=3
    ).to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert (0, 10) in pairs and (1, 11) in pairs


def test_zip_with_cumsum(ray_session):
    from schisma_ray.stages.rank import zip_with_cumsum

    t = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                  "v": pa.array([5, 0, 7, 3], pa.int64())})
    out = (
        zip_with_cumsum(rd.from_arrow(t).repartition(2).sort("k"), "v",
                        offset_col="off")
        .to_pandas()
        .sort_values("k")
    )
    assert out["off"].tolist() == [0, 5, 5, 12]


def test_pack_sequences_semantics(ray_session):
    """Concat-and-split: offsets are global exclusive prefix sums in id
    order; pack ids/offsets are plain arithmetic; docs straddling a
    boundary span 2 packs."""
    from schisma_ray.stages.corpus import pack_sequences

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a b c", "d e f g", "h i"], pa.string()),
    })).repartition(2)
    out = (
        pack_sequences(docs, seq_len=5)
        .to_pandas()
        .sort_values("doc_id")
        .set_index("doc_id")
    )
    assert out.loc[1].tolist() == [3, 0, 0, 0, 1]      # tokens,start,pack,off,n
    assert out.loc[2].tolist() == [4, 3, 0, 3, 2]      # straddles packs 0-1
    assert out.loc[3].tolist() == [2, 7, 1, 2, 1]


def test_grouped_rolling_mean(ray_session):
    from schisma_ray.stages.window import grouped_rolling_mean

    rows = [
        {"event_id": 1, "user_id": 1, "ts": 1_000_000, "value": 2.0},
        {"event_id": 2, "user_id": 1, "ts": 2_000_000, "value": 4.0},
        {"event_id": 3, "user_id": 1, "ts": 3_000_000, "value": 6.0},
        {"event_id": 4, "user_id": 1, "ts": 4_000_000, "value": 8.0},
        {"event_id": 5, "user_id": 2, "ts": 1_500_000, "value": 10.0},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(2)
    out = (
        grouped_rolling_mean(ds, window=3)
        .to_pandas()
        .set_index("event_id")["rolling_mean"]
    )
    assert out.loc[1] == 2.0
    assert out.loc[2] == 3.0          # (2+4)/2
    assert out.loc[3] == 4.0          # (2+4+6)/3
    assert out.loc[4] == 6.0          # (4+6+8)/3 — window slides
    assert out.loc[5] == 10.0         # other key unaffected


def test_bm25_ranks_term_frequency_and_rarity(ray_session):
    from schisma_ray.stages.text import bm25_topk

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "rare rare common filler filler",
            "common filler filler filler filler",
            "filler filler filler filler filler",
            None,
        ], pa.string()),
    }))
    out = bm25_topk(docs, ["rare", "common"], k=3)
    ids = out["doc_id"].to_pylist()
    scores = out["score"].to_pylist()
    # doc 1 has the rare term twice + common -> highest; doc 3 matches
    # nothing and doc 4 is null -> absent
    assert ids[0] == 1
    assert set(ids) == {1, 2}
    assert scores == sorted(scores, reverse=True)


def test_weighted_sample_properties(ray_session):
    """Deterministic, parallelism-invariant, weight-proportional-ish:
    the same rows win at any block count, and heavily-weighted rows win
    far more often than light ones."""
    from schisma_ray.stages.corpus import weighted_sample

    t = pa.table({
        "doc_id": pa.array(range(400), pa.int64()),
        # first 100 rows carry 50x the weight of the rest
        "w": pa.array([50.0] * 100 + [1.0] * 300, pa.float64()),
    })
    a = weighted_sample(rd.from_arrow(t), weight_col="w", n=40)
    b = weighted_sample(rd.from_arrow(t).repartition(7), weight_col="w", n=40)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    heavy = sum(1 for i in a["doc_id"].to_pylist() if i < 100)
    assert heavy >= 25  # 50x weight on 1/4 of rows dominates the sample


def test_weighted_sample_excludes_nonpositive(ray_session):
    from schisma_ray.stages.corpus import weighted_sample

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "w": pa.array([1.0, 0.0, None], pa.float64()),
    })
    out = weighted_sample(rd.from_arrow(t), weight_col="w", n=10)
    assert out["doc_id"].to_pylist() == [1]


def test_funnel_counts_ordering(ray_session):
    """Funnel requires strict ordering: a click BEFORE the first view
    must not count toward step 2."""
    from schisma_ray.stages.window import funnel_counts

    rows = [
        # user 1 converts fully: view(10) click(20) purchase(30)
        {"event_id": 1, "user_id": 1, "ts": 10, "event_type": "view"},
        {"event_id": 2, "user_id": 1, "ts": 20, "event_type": "click"},
        {"event_id": 3, "user_id": 1, "ts": 30, "event_type": "purchase"},
        # user 2 clicked before viewing -> stops at step 1
        {"event_id": 4, "user_id": 2, "ts": 5, "event_type": "click"},
        {"event_id": 5, "user_id": 2, "ts": 10, "event_type": "view"},
        # user 3 never viewed -> no steps
        {"event_id": 6, "user_id": 3, "ts": 7, "event_type": "purchase"},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(2)
    out = (
        funnel_counts(ds, ("view", "click", "purchase"))
        .to_pandas()
        .set_index("step")["users"]
    )
    assert out.loc[1] == 2   # users 1 and 2 viewed
    assert out.loc[2] == 1   # only user 1 clicked after viewing
    assert out.loc[3] == 1


def test_decontam_attribution_pairs(ray_session):
    from schisma_ray.stages.corpus import decontam_attribution

    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array([100, 101], pa.int64()),
        "text": pa.array(["alpha beta gamma delta epsilon",
                          "one two three four five"], pa.string()),
    }))
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "x alpha beta gamma delta y",          # shares 4-gram with 100
            "zero one two three four end",          # shares 4-gram with 101
            "nothing shared here at all now",
        ], pa.string()),
    }))
    out = decontam_attribution(corpus, bench, n=4).to_pandas()
    pairs = sorted(zip(out["doc_id"], out["bench_id"]))
    assert pairs == [(1, 100), (2, 101)]


def test_rolling_mean_null_value_occupies_slot(ray_session):
    """A null value takes its frame slot but contributes to neither the
    sum nor the count (SQL AVG null semantics) — and must not poison
    later windows with NaN."""
    from schisma_ray.stages.window import grouped_rolling_mean

    rows = [
        {"event_id": 1, "user_id": 1, "ts": 1_000_000, "value": 2.0},
        {"event_id": 2, "user_id": 1, "ts": 2_000_000, "value": None},
        {"event_id": 3, "user_id": 1, "ts": 3_000_000, "value": 6.0},
        {"event_id": 4, "user_id": 1, "ts": 4_000_000, "value": 8.0},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = (
        grouped_rolling_mean(ds, window=3)
        .to_pandas()
        .set_index("event_id")["rolling_mean"]
    )
    assert out.loc[1] == 2.0
    assert out.loc[2] == 2.0          # AVG(2, NULL) = 2
    assert out.loc[3] == 4.0          # AVG(2, NULL, 6) = 4
    assert out.loc[4] == 7.0          # AVG(NULL, 6, 8) = 7 — no NaN leak


def test_funnel_counts_empty_input_keeps_steps(ray_session):
    from schisma_ray.stages.window import funnel_counts

    rows = [{"event_id": 1, "user_id": 1, "ts": 10, "event_type": "error"}]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = (
        funnel_counts(ds, ("view", "click", "purchase"))
        .to_pandas()
        .sort_values("step")
    )
    assert out["step"].tolist() == [1, 2, 3]
    assert out["users"].tolist() == [0, 0, 0]


def test_write_partitioned_crash_between_renames_recovers(ray_session, tmp_path):
    """Simulate a crash after the old output was moved aside but before
    the new one landed: the next write must restore the old data first
    (never lose the only good copy)."""
    import os

    from schisma_ray.sources.writer import read_partitioned, write_partitioned

    out = tmp_path / "out"
    ds1 = rd.from_arrow(pa.table({"k": ["a"], "v": [1]}))
    write_partitioned(ds1, out, partition_cols=["k"])
    # simulate the crash window: out moved aside, new never arrived
    os.rename(out, tmp_path / "out.replaced")
    assert not out.exists()
    ds2 = rd.from_arrow(pa.table({"k": ["b"], "v": [2]}))
    write_partitioned(ds2, out, partition_cols=["k"])
    got = read_partitioned(out).to_pandas()
    assert got["v"].tolist() == [2]
    assert not (tmp_path / "out.replaced").exists()


def test_grouped_ntile_sizing(ray_session):
    """SQL NTILE sizing per group: first n%k buckets get the extra row;
    groups are independent."""
    from schisma_ray.stages.rank import grouped_ntile

    rows = []
    for i in range(6):
        rows.append({"doc_id": i, "lang": "en", "v": i})
    for i in range(3):
        rows.append({"doc_id": 100 + i, "lang": "de", "v": i})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    out = (
        grouped_ntile(ds, "lang", ["v", "doc_id"], k=4,
                      keep_cols=["doc_id", "lang"])
        .to_pandas()
        .set_index("doc_id")["ntile"]
    )
    # en: 6 rows, k=4 -> sizes 2,2,1,1
    assert out.loc[[0, 1, 2, 3, 4, 5]].tolist() == [1, 1, 2, 2, 3, 4]
    # de: 3 rows < k -> one per bucket
    assert out.loc[[100, 101, 102]].tolist() == [1, 2, 3]


def test_retention_cohorts(ray_session):
    from schisma_ray.stages.window import retention_cohorts

    w = 604800 * 1_000_000  # one week in us
    rows = [
        # user 1 active weeks 0 and 1 -> retained from week 0
        {"user_id": 1, "ts": 10},
        {"user_id": 1, "ts": w + 10},
        # user 2 active week 0 only
        {"user_id": 2, "ts": 20},
        # user 3 active week 1 only
        {"user_id": 3, "ts": w + 20},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(2)
    out = (
        retention_cohorts(ds)
        .to_pandas()
        .sort_values("week")
        .set_index("week")
    )
    assert out.loc[0, "active_users"] == 2
    assert out.loc[0, "retained_users"] == 1
    assert out.loc[604800, "active_users"] == 2
    assert out.loc[604800, "retained_users"] == 0


def test_grouped_exact_quantiles(ray_session):
    from schisma_ray.stages.rank import grouped_exact_quantiles

    rows = []
    for i in range(1, 101):
        rows.append({"g": "a", "v": i})
    for i in range(1, 5):
        rows.append({"g": "b", "v": i * 10})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    out = grouped_exact_quantiles(ds, "g", "v", [0.5]).to_pandas()
    got = dict(zip(out["g"], out["value"]))
    # rank floor((n-1)*q)+1: a -> rank 50 -> 50; b -> rank 2 -> 20
    assert got == {"a": 50.0, "b": 20.0}


def test_assign_with_centroids_matches_numpy(ray_session):
    import numpy as np

    from schisma_ray.stages.cluster import (
        assign_with_centroids,
        kmeans_train_numpy,
    )

    rng = np.random.default_rng(3)
    # three separable blobs
    x = np.concatenate(
        [rng.normal(c, 0.05, size=(40, 8)) for c in (0.0, 5.0, -5.0)]
    )
    ids = list(range(len(x)))
    cents = kmeans_train_numpy(ids, x, k=3, iters=5)
    # determinism: retraining yields byte-identical centroids
    assert np.array_equal(cents, kmeans_train_numpy(ids, x, k=3, iters=5))
    ds = rd.from_arrow(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(x.tolist(), pa.list_(pa.float64()))})
    ).repartition(4)
    out = assign_with_centroids(ds, cents).to_pandas().sort_values("vec_id")
    scores = x @ cents.T - 0.5 * (cents * cents).sum(axis=1)[None, :]
    assert np.array_equal(out["cluster"].to_numpy(), np.argmax(scores, axis=1))
    # each blob lands in exactly one cluster
    assert len({tuple(sorted(set(out["cluster"][i * 40:(i + 1) * 40])))
                for i in range(3)}) == 3


def test_inverted_index_bruteforce(ray_session, exchange_width):
    from collections import defaultdict

    from schisma_ray.stages.text import inverted_index

    docs = {
        1: "a b c",
        2: "b c d",
        3: "c d e a",
        4: "a a b",  # repeated term counts once
    }
    exp = defaultdict(list)
    for d in sorted(docs):
        for w in set(docs[d].split()):
            exp[w].append(d)
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)])})
    ).repartition(2)
    exchange_width(4)
    out = inverted_index(ds, max_postings=2).to_pandas()
    got = {r.term: (r.df, r.postings) for r in out.itertuples()}
    assert got == {
        w: (len(ids), ",".join(str(i) for i in sorted(ids)[:2]))
        for w, ids in exp.items()
    }


def test_upsert_compact_latest_wins(ray_session, exchange_width):
    """One survivor per key: updates beat base on equal ts; newer ts
    beats older regardless of source."""
    import pandas as pd

    from schisma_ray.stages.join import upsert_compact

    base = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([10, 20, 30, 40], pa.int64()),
        "v": pa.array(["b1", "b2", "b3", "b4"]),
    })).repartition(2)
    upd = rd.from_arrow(pa.table({
        "k": pa.array([2, 3, 5], pa.int64()),
        "ts": pa.array([20, 25, 50], pa.int64()),  # tie on 2, older on 3
        "v": pa.array(["u2", "u3", "u5"]),
    })).repartition(2)
    exchange_width(4)
    out = (upsert_compact(base, upd, key="k", ts_col="ts")
           .to_pandas().sort_values("k").reset_index(drop=True))
    exp = pd.DataFrame({
        "k": [1, 2, 3, 4, 5],
        "ts": [10, 20, 30, 40, 50],
        # k=2: tie -> update wins; k=3: base ts newer -> base wins
        "v": ["b1", "u2", "b3", "b4", "u5"],
    })
    pd.testing.assert_frame_equal(out[["k", "ts", "v"]], exp)
    assert "_src" not in out.columns and "_kb" not in out.columns


def test_pivot_counts_fixed_schema(ray_session, exchange_width):
    """Every row carries every category column (0-filled), int64."""
    from schisma_ray.stages.topk import pivot_counts

    ds = rd.from_arrow(pa.table({
        "u": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "e": pa.array(["a", "a", "b", "b", "zz", "a"]),  # zz not listed
    })).repartition(3)
    exchange_width(4)
    out = (pivot_counts(ds, "u", "e", ["a", "b", "c"])
           .to_pandas().sort_values("u").reset_index(drop=True))
    assert list(out.columns) == ["u", "a", "b", "c"]
    assert out["a"].tolist() == [2, 0, 1]
    assert out["b"].tolist() == [1, 1, 0]
    assert out["c"].tolist() == [0, 0, 0]
    assert all(out[c].dtype == "int64" for c in ("a", "b", "c"))


def test_semdedup_pairs_bruteforce_within_clusters(ray_session):
    """semdedup_pairs == brute-force within-cluster cosine pairs, and
    never emits a cross-cluster pair even when one exists globally."""
    from schisma_ray.stages.similarity import semdedup_pairs

    rng = np.random.default_rng(11)
    # two blobs + planted near-dups inside each blob
    x = np.concatenate(
        [rng.normal(c, 1.0, size=(30, 16)) for c in (4.0, -4.0)]
    )
    x[5] = x[4] + 0.001 * rng.standard_normal(16)      # dup in blob 0
    x[40] = x[39] + 0.001 * rng.standard_normal(16)    # dup in blob 1
    cents = np.stack([x[:30].mean(axis=0), x[30:].mean(axis=0)])
    ids = np.arange(len(x))
    ds = rd.from_arrow(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(x.tolist(), pa.list_(pa.float64()))})
    ).repartition(5)
    got = semdedup_pairs(ds, cents, threshold=0.999, max_cluster=None).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))

    # brute force with the operator's own cluster-partitioned semantics
    n = x / np.linalg.norm(x, axis=1, keepdims=True)
    sims = n @ n.T
    scores = x @ cents.T - 0.5 * (cents * cents).sum(axis=1)[None, :]
    assign = np.argmax(scores, axis=1)
    want = {
        (i, j)
        for i in range(len(x)) for j in range(i + 1, len(x))
        if assign[i] == assign[j] and sims[i, j] >= 0.999
    }
    assert got_pairs == want
    assert (4, 5) in got_pairs and (39, 40) in got_pairs


def test_semdedup_survivors_drop_non_keepers(ray_session):
    from schisma_ray.stages.components import near_dedup_survivors
    from schisma_ray.stages.similarity import semdedup_pairs

    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, size=(20, 8))
    # chain of three near-identical vectors -> one component {2,3,4}
    x[3] = x[2] + 1e-4 * rng.standard_normal(8)
    x[4] = x[3] + 1e-4 * rng.standard_normal(8)
    cents = x[:1].copy()  # single cluster: everything compared
    ds = rd.from_arrow(
        pa.table({"vec_id": pa.array(np.arange(20), pa.int64()),
                  "embedding": pa.array(x.tolist(), pa.list_(pa.float64()))})
    ).repartition(3)
    pairs = semdedup_pairs(ds, cents, threshold=0.9999, max_cluster=None)
    kept = sorted(
        near_dedup_survivors(ds, pairs, "vec_id").to_pandas()["vec_id"]
    )
    assert kept == [i for i in range(20) if i not in (3, 4)]


def test_line_dedup_bruteforce(ray_session, exchange_width):
    """line_dedup == brute-force first-occurrence filter; intra-doc
    repeats drop, all-dropped docs disappear, the exchange width is
    routing only (results identical at 1, 2 and 64 buckets)."""
    from schisma_ray.stages.lines import duplicated_lines, line_dedup

    docs = {
        0: "header\nalpha beta\ngamma",
        1: "header\ndelta",            # header dropped (doc 0 owns it)
        2: "alpha beta\nalpha beta",   # 2nd line dropped (doc 0 owns 1st? no:
                                       # doc 0 pos 1 owns "alpha beta")
        3: "header",                   # all lines dropped -> doc vanishes
        4: "unique line\ngamma",       # gamma dropped
    }
    tbl = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                    "text": pa.array([docs[k] for k in sorted(docs)])})

    # brute force
    seen, want = set(), {}
    for did in sorted(docs):
        kept = []
        lines = docs[did].split("\n")
        for ln in lines:
            if ln not in seen:
                seen.add(ln)
                kept.append(ln)
        if kept:
            want[did] = ("\n".join(kept), len(kept), len(lines))

    for nb in (1, 2, 64):
        exchange_width(nb)
        ds = rd.from_arrow(tbl).repartition(3)
        out = line_dedup(ds).to_pandas().sort_values("doc_id")
        got = {
            int(r.doc_id): (r.text, int(r.n_kept), int(r.n_total))
            for r in out.itertuples()
        }
        assert got == want, nb

    exchange_width(2)
    dup = duplicated_lines(rd.from_arrow(tbl)).to_pandas()
    got_counts = dict(zip(dup["line"], dup["n"]))
    assert got_counts == {"header": 3, "alpha beta": 3, "gamma": 2}


def test_c4_clean_bruteforce(ray_session):
    import re

    from schisma_ray.stages.lines import c4_clean

    docs = {
        0: 'good line one here.\nbad\nanother fine line!\nquote line ok"\n'
           'question line ok?\nfifth good line.',           # survives (5 kept)
        1: 'good line one here.\ngood line two here.\ngood line three here.\n'
           'good line four here.',                          # 4 kept -> dropped
        2: 'lorem ipsum somewhere.\na.\nb.\nc.\nd.\ne.',    # page filter
        3: 'has a { brace.\na.\nb.\nc.\nd.\ne.',            # page filter
        4: 'enable javascript now ok.\nl one fine here.\nl two fine here.\n'
           'l three fine here.\nl four fine here.\nl five fine here.',
        5: 'no terminal punctuation here\n' * 6,            # 0 kept
    }
    tbl = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                    "text": pa.array([docs[k] for k in sorted(docs)])})

    want = {}
    for did, text in docs.items():
        if "lorem ipsum" in text.lower() or "{" in text:
            continue
        lines = text.split("\n")
        kept = [
            ln for ln in lines
            if re.search(r'[.!?"]$', ln) and len(ln.split()) >= 3
            and "javascript" not in ln.lower()
        ]
        if len(kept) >= 5:
            want[did] = ("\n".join(kept), len(kept), len(lines))

    out = c4_clean(rd.from_arrow(tbl).repartition(3)).to_pandas()
    got = {int(r.doc_id): (r.text, int(r.n_kept), int(r.n_total))
           for r in out.itertuples()}
    assert got == want
    assert 0 in got and 4 in got and 1 not in got


def test_gopher_quality_rules(ray_session):
    from schisma_ray.stages.text import gopher_quality

    docs = {
        0: "the quick brown fox jumps over the lazy dog " * 10,  # passes
        1: "short the one",                                      # too few words
        2: " ".join(["zz"] * 60),                                # no stopword, mean 2.0
        3: " ".join(["the"] + ["pneumonoultramicroscopic"] * 59),  # mean too long
    }
    tbl = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                    "text": pa.array([docs[k] for k in sorted(docs)])})
    out = gopher_quality(
        rd.from_arrow(tbl).repartition(2),
        min_words=50, min_distinct_stop=1,
    ).to_pandas().set_index("doc_id").sort_index()

    assert bool(out.loc[0, "passed"])
    assert not out.loc[1, "pass_words"] and out.loc[1, "pass_stop"]
    assert not out.loc[2, "pass_stop"] and not out.loc[2, "pass_mean"]
    assert not out.loc[3, "pass_mean"] and out.loc[3, "pass_stop"]
    # integer mean: doc 2 = 2.0 exactly
    assert out.loc[2, "mean_len_e6"] == 2_000_000
    assert int(out.loc[0, "n_stop"]) == 1  # only 'the' from the list


def test_gopher_quality_null_text(ray_session):
    """Null text rows count as empty (n_words = 0, all rules fail) —
    mirroring the oracle's coalesce(text, '') — rather than raising in
    the numpy casts (ADVICE r3)."""
    from schisma_ray.stages.text import gopher_quality

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(
            ["the quick brown fox jumps over the lazy dog " * 10,
             None, ""]),
    })
    out = gopher_quality(
        rd.from_arrow(tbl).repartition(2), min_distinct_stop=1,
    ).to_pandas().set_index("doc_id").sort_index()

    assert bool(out.loc[0, "pass_stop"])
    for did in (1, 2):
        assert int(out.loc[did, "n_words"]) == 0
        assert int(out.loc[did, "mean_len_e6"]) == 0
        assert int(out.loc[did, "n_stop"]) == 0
        assert not out.loc[did, "passed"]


def test_concat_chunks_bruteforce(ray_session, exchange_width):
    from schisma_ray.stages.corpus import concat_chunks

    docs = {i: " ".join([f"w{i}_{j}" for j in range(5 + 3 * i)])
            for i in range(7)}
    tbl = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                    "text": pa.array([docs[k] for k in sorted(docs)])})

    stream = []
    for did in sorted(docs):
        stream.extend(docs[did].split())
        stream.append("<|eos|>")
    C = 16
    want = {
        k: (" ".join(stream[k * C:(k + 1) * C]),
            len(stream[k * C:(k + 1) * C]))
        for k in range((len(stream) + C - 1) // C)
    }
    exchange_width(3)
    out = concat_chunks(
        rd.from_arrow(tbl).repartition(4), chunk_tokens=C
    ).to_pandas()
    got = {int(r.chunk_id): (r.text, int(r.n_tokens)) for r in out.itertuples()}
    assert got == want
    # every token exactly once, order preserved across chunk boundaries
    assert " ".join(got[k][0] for k in sorted(got)) == " ".join(stream)


def test_event_time_dedup_lag_semantics(ray_session, exchange_width):
    """Lag-based keep rule: each event compares to the immediately
    previous event of its key, kept or not (chain of 3 events 400s
    apart with a 600s gap drops BOTH followers). String keys work."""
    from schisma_ray.stages.window import event_time_dedup

    us = 1_000_000
    rows = [
        {"event_id": 1, "user_id": "u1", "event_type": "view", "ts": 0},
        {"event_id": 2, "user_id": "u1", "event_type": "view", "ts": 400 * us},
        {"event_id": 3, "user_id": "u1", "event_type": "view", "ts": 800 * us},
        {"event_id": 4, "user_id": "u1", "event_type": "click", "ts": 100 * us},
        {"event_id": 5, "user_id": "u2", "event_type": "view", "ts": 450 * us},
        # exact tie: same key, same ts -> lower event_id wins
        {"event_id": 7, "user_id": "u3", "event_type": "view", "ts": 9 * us},
        {"event_id": 6, "user_id": "u3", "event_type": "view", "ts": 9 * us},
    ]
    t = pa.table({
        "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
        "user_id": pa.array([r["user_id"] for r in rows]),
        "event_type": pa.array([r["event_type"] for r in rows]),
        "ts": pa.array([r["ts"] for r in rows], pa.timestamp("us")),
    })
    exchange_width(4)
    out = event_time_dedup(
        rd.from_arrow(t).repartition(3), min_gap_s=600
    ).to_pandas()
    assert sorted(out["event_id"]) == [1, 4, 5, 6]


def test_paired_cosine_filter(ray_session):
    from schisma_ray.stages.similarity import paired_cosine_filter

    a = np.eye(4)[[0, 1, 2, 3]].astype(np.float64)
    b = a.copy()
    b[1] = [0, -1, 0, 0]          # anti-aligned
    b[3] = [0.6, 0.8, 0, 0]       # partial (cos = 0 vs e3... actually 0)
    b[3] = [0, 0, 0.8, 0.6]       # cos vs e3 = 0.6
    t = pa.table({
        "pair_id": pa.array([10, 11, 12, 13], pa.int64()),
        "img_emb": pa.array(a.tolist(), pa.list_(pa.float32())),
        "cap_emb": pa.array(b.tolist(), pa.list_(pa.float32())),
    })
    kept = paired_cosine_filter(rd.from_arrow(t).repartition(2),
                                threshold=0.5).to_pandas()
    rej = paired_cosine_filter(rd.from_arrow(t).repartition(2),
                               threshold=0.5, keep_below=True).to_pandas()
    assert sorted(kept["pair_id"]) == [10, 12, 13]
    assert sorted(rej["pair_id"]) == [11]
    assert dict(zip(kept["pair_id"], kept["sim"]))[13] == pytest.approx(0.6)


def test_aspect_bucket_assign(ray_session):
    from schisma_ray.stages.multimodal import aspect_bucket_assign

    t = pa.table({
        "image_id": pa.array(["sq", "wide", "tall", "between", "bad"]),
        "w": pa.array([100, 200, 50, 20, None], pa.int32()),
        "h": pa.array([100, 100, 100, 10, 5], pa.int32()),
    })
    out = aspect_bucket_assign(
        rd.from_arrow(t).repartition(2)
    ).to_pandas().set_index("image_id")
    assert tuple(out.loc["sq", ["bucket_w", "bucket_h"]]) == (24, 24)
    assert tuple(out.loc["wide", ["bucket_w", "bucket_h"]]) == (32, 16)
    assert tuple(out.loc["tall", ["bucket_w", "bucket_h"]]) == (16, 32)
    # ar=2.0 exactly -> (32,16); null dims dropped
    assert tuple(out.loc["between", ["bucket_w", "bucket_h"]]) == (32, 16)
    assert "bad" not in out.index
    # tie semantics: ar midway between buckets 2 (1.0) and 3 (1.5) ->
    # equidistant at 1.25 -> lower index wins
    t2 = pa.table({"image_id": pa.array(["mid"]),
                   "w": pa.array([125], pa.int32()),
                   "h": pa.array([100], pa.int32())})
    out2 = aspect_bucket_assign(rd.from_arrow(t2)).to_pandas()
    assert tuple(out2.loc[0, ["bucket_w", "bucket_h"]]) == (24, 24)


def test_lm_score_bruteforce(ray_session):
    """lm_score == per-doc dict-lookup sum under the trained model; the
    ascii fast path equals the string-pair fallback; unseen bigrams get
    the sentinel floor."""
    import math

    from schisma_ray.stages.text import lm_score, train_char_bigram_lm

    ref = ["abab", "abba"]
    model = train_char_bigram_lm(ref)
    lut = dict(zip(model["bigram"].to_pylist(), model["lp_e6"].to_pylist()))
    floor = lut.pop("")
    # trained mass: ab x3, ba x2, bb x1 -> total 6, denom 6 + 65536
    assert lut["ab"] == math.floor(math.log(4 / 65542) * 1e6 + 0.5)
    assert floor == math.floor(math.log(1 / 65542) * 1e6 + 0.5)

    docs = {1: "abab", 2: "zq", 3: "a", 4: "caba"}
    t = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)])})
    out = lm_score(rd.from_arrow(t).repartition(2), model).to_pandas()
    got = {int(r.doc_id): (int(r.lp_e6), int(r.n_bigrams))
           for r in out.itertuples()}
    def brute(s):
        pairs = [s[i:i + 2] for i in range(len(s) - 1)]
        return (sum(lut.get(p, floor) for p in pairs), len(pairs))
    assert got == {1: brute("abab"), 2: brute("zq"), 4: brute("caba")}
    assert 3 not in got  # single char -> no bigrams -> no row


def test_binary_fingerprint_matches_duckdb(ray_session):
    import duckdb

    from schisma_ray.stages.dedup import binary_fingerprint

    payloads = [b"\x00\x01\xff", b"hello", None, b"", b"\x00\x01\xff"]
    t = pa.table({"id": pa.array(range(5), pa.int64()),
                  "bytes": pa.array(payloads, pa.binary())})
    out = binary_fingerprint(
        rd.from_arrow(t), col="bytes", id_col="id"
    ).to_pandas().set_index("id")["fingerprint"]
    want = duckdb.connect().execute(
        "SELECT md5(hex(bytes)) FROM t ORDER BY id"
    ).fetchall()
    for i in range(5):
        assert out.loc[i] == want[i][0]
    assert out.loc[0] == out.loc[4] and out.loc[2] is None


def test_event_gaps_bruteforce(ray_session, exchange_width):
    import pandas as pd

    from schisma_ray.stages.window import event_gaps

    us = 1_000_000
    rows = [
        # user 1: gaps of 100s, 7h, 50s
        (1, 1, 0), (2, 1, 100 * us), (3, 1, (100 + 25200) * us),
        (4, 1, (100 + 25200 + 50) * us),
        # user 2: single event -> no gaps
        (5, 2, 0),
        # user 3: exactly the threshold -> NOT a gap (strict >)
        (6, 3, 0), (7, 3, 21600 * us),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })
    exchange_width(4)
    out = event_gaps(rd.from_arrow(t).repartition(3),
                     min_gap_s=21600).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert int(r.user_id) == 1 and int(r.gap_us) == 25200 * us
    assert r.gap_start_ts == pd.Timestamp(100 * us, unit="us")


def test_mad_outliers_query(ray_session):
    import __ray_entry__

    out = __ray_entry__.queries()["lineitem_mad_outliers"](
        "/root/testdata/sf0.001"
    )
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    assert (df["dev"] * 10 > 0).all()
    assert len(df) > 0


def test_lm_score_nonascii_and_mixed_batches(ray_session):
    """The buffer fast path and the 2-char-string fallback agree with
    per-doc brute force; null / short / unicode docs behave."""
    from schisma_ray.stages.text import lm_score, train_char_bigram_lm

    model = train_char_bigram_lm(["hello world", "héllo"])
    lut = dict(zip(model["bigram"].to_pylist(), model["lp_e6"].to_pylist()))
    floor = lut.pop("")

    def brute(s):
        pairs = [s[i:i + 2] for i in range(len(s) - 1)]
        return (sum(lut.get(p, floor) for p in pairs), len(pairs))

    docs = {1: "hello", 2: None, 3: "x", 4: "héllo wörld", 5: "world hello"}
    t = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)])})
    out = lm_score(rd.from_arrow(t).repartition(2), model).to_pandas()
    got = {int(r.doc_id): (int(r.lp_e6), int(r.n_bigrams))
           for r in out.itertuples()}
    assert got == {1: brute("hello"), 4: brute("héllo wörld"),
                   5: brute("world hello")}


def test_fd_violations_bruteforce(ray_session, exchange_width):
    from schisma_ray.stages.profile import fd_violations

    t = pa.table({
        "k": pa.array(["a", "a", "b", "b", "c", None, "d"], pa.string()),
        "v": pa.array(["x", "y", "x", "x", "x", "z", "w"], pa.string()),
    })
    exchange_width(2)
    out = fd_violations(
        rd.from_arrow(t).repartition(3), lhs="k", rhs="v"
    ).to_pandas()
    got = dict(zip(out["k"], out["n_rhs"]))
    assert got == {"a": 2}          # b maps to one v; c/d singletons; null dropped
    assert dict(zip(out["k"], out["n_rows"])) == {"a": 2}
    out2 = fd_violations(
        rd.from_arrow(t), lhs="k", rhs="v", min_group=3
    ).to_pandas()
    assert len(out2) == 0           # 'a' only has 2 rows


def test_event_type_cooccurrence_bruteforce(ray_session, exchange_width):
    from itertools import combinations

    from schisma_ray.stages.window import event_type_cooccurrence

    rng = np.random.default_rng(5)
    rows = [{"user_id": int(rng.integers(0, 12)),
             "event_type": str(rng.choice(["a", "b", "c", "d"]))}
            for _ in range(150)]
    t = pa.Table.from_pylist(rows)
    want = {}
    by_user = {}
    for r in rows:
        by_user.setdefault(r["user_id"], set()).add(r["event_type"])
    for types in by_user.values():
        for a, b in combinations(sorted(types), 2):
            want[(a, b)] = want.get((a, b), 0) + 1
    exchange_width(3)
    out = event_type_cooccurrence(
        rd.from_arrow(t).repartition(4)
    ).to_pandas()
    got = {(r.type_a, r.type_b): int(r.n_users) for r in out.itertuples()}
    assert got == want


def test_validate_struct_column_bruteforce(ray_session):
    from schisma_ray.stages.struct_validate import (
        StructField,
        validate_struct_column,
    )
    from schisma_ray.stages.table_schema import in_set, range_check

    meta_t = pa.struct([
        ("k", pa.int64()),
        ("geo", pa.struct([("lat", pa.float64())])),
    ])
    rows = [
        {"k": 1, "geo": {"lat": 10.0}},          # clean
        {"k": None, "geo": {"lat": 95.0}},       # missing k + bad lat
        None,                                    # missing meta entirely
        {"k": 5, "geo": None},                   # geo itself null: no
                                                 # lat rows (geo not req'd
                                                 # here -> nothing)
    ]
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "meta": pa.array(rows, meta_t),
    })
    spec = {
        "k": StructField(required=True),
        "geo": StructField(
            required=False,
            fields={"lat": StructField(checks=[range_check(lo=-90, hi=90)])},
        ),
    }
    out = validate_struct_column(
        rd.from_arrow(t).repartition(2), col="meta", id_col="event_id",
        spec=spec,
    ).to_pandas()
    got = sorted(zip(out["event_id"], out["path"], out["code"]))
    assert got == [
        (2, "meta.geo.lat", "invalid"),
        (2, "meta.k", "missing key"),
        (3, "meta", "missing key"),
    ]


def test_validate_list_column_bruteforce(ray_session):
    from schisma_ray.stages.struct_validate import validate_list_column
    from schisma_ray.stages.table_schema import range_check

    t = pa.table({
        "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([[0.1, 0.9, 0.2],      # element 1 out of range
                       [0.0],                # too short
                       None,                 # null list: nothing
                       [0.1, 0.2]], pa.list_(pa.float32())),
    })
    out = validate_list_column(
        rd.from_arrow(t).repartition(2), col="v", id_col="vec_id",
        element_checks=[range_check(lo=-0.5, hi=0.5)],
        min_len=2, max_len=3,
    ).to_pandas()
    got = sorted(zip(out["vec_id"], out["path"], out["code"]))
    assert got == [(1, "v.1", "invalid"), (2, "v", "invalid")]


def test_validate_map_column_bruteforce(ray_session):
    from schisma_ray.stages.struct_validate import validate_map_column
    from schisma_ray.stages.table_schema import range_check

    rows = [
        [("k1", 5), ("k2", 50)],          # clean
        [("bad key", 1), ("k3", 200)],    # unexpected key + bad value
        None,                             # null map: nothing
        [],                               # empty map: nothing
    ]
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "attrs": pa.array(rows, pa.map_(pa.string(), pa.int64())),
    })
    out = validate_map_column(
        rd.from_arrow(t).repartition(2), col="attrs", id_col="event_id",
        key_pattern="^k[0-9]+$", value_checks=[range_check(lo=0, hi=99)],
    ).to_pandas()
    got = sorted(zip(out["event_id"], out["path"], out["code"]))
    assert got == [
        (2, "attrs.bad key", "unexpected key"),
        (2, "attrs.k3", "invalid"),
    ]
