"""Skew-cap probes for the term/language group stages (VERDICT r3 #2):
with a 40x-replicated vocabulary, no single group task may receive a
vocabulary-sized input. The per-batch partial functions are
module-level factories so the bound is asserted DIRECTLY on the rows
that enter each shuffle, plus end-to-end parity on the same corpus."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

VOCAB = [f"w{i:03d}" for i in range(50)]
N_REP = 40  # every doc repeats the full vocabulary


def _replicated_corpus():
    """40 docs, each containing the whole 50-word vocab (one hot
    language) — the worst-case skew for per-term / per-language
    grouping."""
    docs = [" ".join(VOCAB) for _ in range(N_REP)]
    return pa.table({
        "doc_id": pa.array(list(range(N_REP)), pa.int64()),
        "text": pa.array(docs),
        "lang": pa.array(["en"] * N_REP),
    })


def test_inverted_index_partials_are_capped(ray_session):
    """The shuffle input carries at most max_postings rows per term per
    batch — never the full (term, doc) explosion."""
    from schisma_ray.stages.text import _index_partial_fn

    m = 5
    fn = _index_partial_fn("text", "doc_id", m)
    out = fn(_replicated_corpus())  # ONE batch holding all 40 docs
    sizes = out.groupby("term").size()
    assert len(sizes) == len(VOCAB)
    assert int(sizes.max()) == m  # capped, though every doc has every term
    # the df partial still carries the exact per-batch doc count
    assert out.groupby("term")["df_part"].sum().eq(N_REP).all()
    # and the capped ids are the LOWEST doc ids of the batch
    w0 = out[out["term"] == VOCAB[0]]["doc_id"].tolist()
    assert sorted(w0) == list(range(m))


def test_inverted_index_end_to_end_replicated_vocab(ray_session, exchange_width):
    from schisma_ray.stages.text import inverted_index

    exchange_width(4)
    out = inverted_index(
        rd.from_arrow(_replicated_corpus()).repartition(8),
        max_postings=5,
    ).to_pandas().set_index("term").sort_index()
    assert len(out) == len(VOCAB)
    assert (out["df"] == N_REP).all()
    assert (out["postings"] == "0,1,2,3,4").all()


def test_tfidf_local_topk_is_capped(ray_session):
    """Each block forwards at most k rows per language to the final
    merge — a language's whole vocabulary never co-locates."""
    from schisma_ray.stages.text import _tfidf_local_topk_fn

    k = 5
    totals = pa.table({
        "lang": pa.array(["en"] * len(VOCAB) + ["fr"] * 10),
        "word": pa.array(VOCAB + [f"f{i}" for i in range(10)]),
        "tf": pa.array(
            list(range(1, len(VOCAB) + 1)) + [3] * 10, pa.int64()),
        "df": pa.array([1] * (len(VOCAB) + 10), pa.int64()),
    })
    fn = _tfidf_local_topk_fn(ray.put({"en": 100, "fr": 100}), k, "lang")
    out = fn(totals)
    assert out.groupby("lang").size().max() == k
    # the survivors are the language's true top-k (score desc, word asc)
    en = out[out["lang"] == "en"]["word"].tolist()
    assert en == [f"w{i:03d}" for i in range(49, 44, -1)]


def test_tfidf_top_terms_end_to_end_replicated_vocab(ray_session):
    """Uniform tf/df -> score ties across the whole vocab; the global
    tie-break (word asc) must survive the per-block local top-k."""
    from schisma_ray.stages.text import tfidf_top_terms

    # make tf differ per word so top-k is unique: repeat word i (i+1) times
    docs = [" ".join(w for j, w in enumerate(VOCAB) for _ in range(j + 1))
            for _ in range(N_REP)]
    tbl = pa.table({
        "doc_id": pa.array(list(range(N_REP)), pa.int64()),
        "text": pa.array(docs),
        "lang": pa.array(["en"] * N_REP),
    })
    out = tfidf_top_terms(
        rd.from_arrow(tbl).repartition(8), k=5
    ).to_pandas()
    # df == n_docs for every word -> idf = ln(1) = 0 -> all scores 0;
    # ties break word-ascending
    assert out["word"].tolist() == [f"w{i:03d}" for i in range(5)]
    assert (out["score"] == 0.0).all()


def test_grouped_count_topk_local_stage_is_capped(ray_session):
    """VERDICT r4 #2: the final per-group task must never receive a hot
    group's full distinct-item set — each block forwards at most k rows
    per group."""
    from schisma_ray.stages.topk import _count_local_topk_fn

    k = 3
    hot = pa.table({
        "g": pa.array(["hot"] * 500 + ["cold"] * 4),
        "u": pa.array([f"u{i:04d}" for i in range(500)] + list("abcd")),
        "n": pa.array(list(range(1, 501)) + [9, 9, 9, 9], pa.int64()),
    })
    out = _count_local_topk_fn("g", "u", k)(hot).to_pandas()
    assert out.groupby("g").size().max() == k
    assert out[out["g"] == "hot"]["u"].tolist() == ["u0499", "u0498", "u0497"]
    # ties within a block break item-ascending
    assert out[out["g"] == "cold"]["u"].tolist() == ["a", "b", "c"]


def test_grouped_count_topk_end_to_end_replicated(ray_session):
    """Same answer with the hot key spread over many blocks: local
    top-k over collapsed totals is exact, merge is k x blocks bounded."""
    from schisma_ray.stages.topk import grouped_count_topk

    # item i appears i+1 times for the hot group across 8 partitions
    rows_g, rows_u = [], []
    for i in range(40):
        rows_g += ["hot"] * (i + 1)
        rows_u += [f"u{i:02d}"] * (i + 1)
    rows_g += ["cold", "cold", "cold"]
    rows_u += ["x", "x", "y"]
    t = pa.table({"g": pa.array(rows_g), "u": pa.array(rows_u)})
    out = (
        grouped_count_topk(rd.from_arrow(t).repartition(8), "g", "u", k=2)
        .to_pandas()
        .sort_values(["g", "n"], ascending=[True, False])
    )
    assert out[out["g"] == "hot"]["u"].tolist() == ["u39", "u38"]
    assert out[out["g"] == "hot"]["n"].tolist() == [40, 39]
    assert out[out["g"] == "cold"]["u"].tolist() == ["x", "y"]


def test_event_type_cooccurrence_cap_emits_overflow_marker(ray_session):
    """VERDICT r4 #3: a key whose distinct-type set exceeds
    max_types_per_key emits no pairs — only one overflow marker row
    counting the capped keys — so a high-cardinality column degrades
    loudly instead of exploding a bucket task O(k^2)."""
    from schisma_ray.stages.window import OVERFLOW_TYPE, event_type_cooccurrence

    rows_k, rows_t = [], []
    # two hot keys with 50 distinct types each; two small keys sharing a pair
    for key in ("hot1", "hot2"):
        for i in range(50):
            rows_k.append(key)
            rows_t.append(f"t{i:02d}")
    for key in ("a", "b"):
        rows_k += [key, key]
        rows_t += ["x", "y"]
    t = pa.table({"user_id": pa.array(rows_k), "event_type": pa.array(rows_t)})
    out = event_type_cooccurrence(
        rd.from_arrow(t).repartition(4), max_types_per_key=10
    ).to_pandas().sort_values(["type_a", "type_b"]).reset_index(drop=True)
    marker = out[out["type_a"] == OVERFLOW_TYPE]
    assert len(marker) == 1
    assert marker["n_users"].iloc[0] == 2  # both hot keys capped
    pairs = out[out["type_a"] != OVERFLOW_TYPE]
    assert pairs[["type_a", "type_b", "n_users"]].values.tolist() == [["x", "y", 2]]
    # uncapped: hot keys contribute their full triangles, no marker
    full = event_type_cooccurrence(
        rd.from_arrow(t).repartition(4), max_types_per_key=None
    ).to_pandas()
    assert OVERFLOW_TYPE not in set(full["type_a"])
    assert full["n_users"].sum() == 2 * (50 * 49) // 2 + 2
