"""A null group key is one group, as in SQL ``GROUP BY``, at every
keyed site that runs its per-group step on ``bucket_apply``.

Each input is interleaved and read over ``repartition(3)``, so the null
key sits in every block: Ray's sort-based ``groupby(key).map_groups``
raised ``TypeError`` comparing None with str on that shape, and a
pandas ``groupby`` with its default ``dropna=True`` dropped the null
group without a word.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data as rd

GROUPS = ["a", None, "b"]


def test_grouped_trend_slope_keeps_null_group(ray_session):
    from schisma_ray.stages.stats import grouped_trend_slope

    day = 86_400_000_000
    # counts per day: a 1,2,3 (slope 1); None 3,1 (slope -2); b 2,2 (slope 0)
    counts = {"a": [1, 2, 3], None: [3, 1], "b": [2, 2]}
    rows = [(g, d * day + i) for g, cs in counts.items()
            for d, c in enumerate(cs) for i in range(c)]
    rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
    ds = rd.from_arrow(pa.table({
        "event_type": pa.array([g for g, _ in rows], pa.string()),
        "ts": pa.array([t for _, t in rows], pa.timestamp("us")),
    })).repartition(3)
    out = grouped_trend_slope(ds, "event_type").to_pandas()
    got = dict(zip(out["event_type"], out["slope"]))
    assert got == {"a": 1.0, None: -2.0, "b": 0.0}


def test_grouped_vector_mean_keeps_null_group(ray_session):
    from schisma_ray.stages.topk import grouped_vector_mean

    rng = np.random.default_rng(5)
    n, dim = 60, 4
    labels = [GROUPS[i % 3] for i in range(n)]
    mat = rng.standard_normal((n, dim))
    ds = rd.from_arrow(pa.table({
        "label": pa.array(labels, pa.string()),
        "embedding": pa.array(mat.tolist(), pa.list_(pa.float64())),
    })).repartition(3)
    out = grouped_vector_mean(ds, "label", "embedding").to_pandas()
    assert out.shape[0] == len(GROUPS) * dim
    for g in GROUPS:
        mask = np.array([lbl == g for lbl in labels])
        exp = np.round(mat[mask].mean(axis=0), 6)
        sel = out["label"].isna() if g is None else out["label"] == g
        got = out[sel].sort_values("dim")
        assert got["dim"].tolist() == list(range(1, dim + 1))
        assert np.allclose(got["mean_v"].to_numpy(), exp, atol=1e-6), g


def test_tfidf_top_terms_keeps_null_language(ray_session):
    from schisma_ray.stages.text import tfidf_top_terms

    # per language: 'x' in every doc (idf 0), one rare word per doc
    docs = []
    for i in range(12):
        lang = GROUPS[i % 3]
        docs.append((i, f"x {lang or 'null'}{i} {lang or 'null'}{i}", lang))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
        "lang": pa.array([d[2] for d in docs], pa.string()),
    })).repartition(3)
    out = tfidf_top_terms(ds, k=2).to_pandas()
    assert len(out) == 2 * len(GROUPS)
    rare = round(2 * math.log(4), 6)  # tf 2, df 1 of 4 docs per language
    for g in GROUPS:
        sel = out["lang"].isna() if g is None else out["lang"] == g
        got = out[sel].sort_values(["score", "word"], ascending=[False, True])
        prefix = g or "null"
        # four rare words tie at tf*ln(4): word-ascending breaks the tie
        assert got["word"].tolist() == sorted(
            f"{prefix}{i}" for i in range(12) if GROUPS[i % 3] == g)[:2]
        assert (got["score"] == rare).all()


def test_cap_per_key_keeps_null_group(ray_session):
    from schisma_ray.stages.corpus import cap_per_key
    from schisma_ray.stages._digest import md5_hex

    n = 4
    sources = [GROUPS[i % 3] for i in range(36)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(sources)), pa.int64()),
        "source": pa.array(sources, pa.string()),
    })).repartition(3)
    out = cap_per_key(ds, key_col="source", n=n).to_pandas()
    hexes = md5_hex(pa.array(range(len(sources)), pa.int64())).tolist()
    for g in GROUPS:
        ids = [i for i, s in enumerate(sources) if s == g]
        sel = out["source"].isna() if g is None else out["source"] == g
        # the n smallest (md5(id), id) of the group
        assert sorted(out[sel]["doc_id"]) == sorted(
            sorted(ids, key=lambda i: (hexes[i], i))[:n]), g
    assert len(out) == n * len(GROUPS)
