"""Tests for the corpus-preparation operators (decontaminate, mixture
sampling, chunking, PII redaction)."""

import hashlib

import pyarrow as pa
import pytest


def _ds(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
                "lang": pa.array([r[2] for r in rows], pa.string()),
            }
        )
    )


def test_decontaminate_planted(ray_session):
    from schisma_ray.stages.corpus import decontaminate

    bench = _ds([(100, "alpha beta gamma delta epsilon", "en")])
    corpus = _ds(
        [
            # shares the 4-grams "alpha beta gamma delta" and
            # "beta gamma delta epsilon" with the benchmark doc
            (1, "x alpha beta gamma delta epsilon y", "en"),
            # shares only a 3-gram — must NOT be flagged at n=4
            (2, "alpha beta gamma nothing else here at all", "en"),
            (3, "entirely unrelated words in this row", "en"),
        ]
    )
    out = decontaminate(corpus, bench, n=4).to_pandas()
    assert out.set_index("doc_id")["n_hits"].to_dict() == {1: 2}


def test_decontaminate_counts_distinct_grams(ray_session):
    from schisma_ray.stages.corpus import decontaminate

    bench = _ds([(100, "a b c d", "en")])
    # "a b c d" appears twice but is ONE distinct shared gram
    corpus = _ds([(1, "a b c d a b c d", "en")])
    out = decontaminate(corpus, bench, n=4).to_pandas()
    # grams of corpus doc: {a b c d, b c d a, c d a b, d a b c} -> 1 hit
    assert out.set_index("doc_id")["n_hits"].to_dict() == {1: 1}


def test_sample_by_rate_matches_md5_rule_and_is_deterministic(ray_session):
    from schisma_ray.stages.corpus import sample_by_rate

    rows = [(i, f"text {i}", ["en", "de", "fr"][i % 3]) for i in range(300)]
    rates = {"en": 0.5, "de": 0.25}

    def expect(i, lang):
        b = int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 10000
        return b < int(rates.get(lang, 0.1) * 10000)

    want = sorted(i for i, _, lang in rows if expect(i, lang))
    got1 = sorted(sample_by_rate(_ds(rows), rates, default_rate=0.1).to_pandas()["doc_id"])
    got2 = sorted(sample_by_rate(_ds(rows), rates, default_rate=0.1).to_pandas()["doc_id"])
    assert got1 == want
    assert got2 == want  # process-invariant (md5, not PYTHONHASHSEED)


def test_sample_by_rate_keeps_full_rows(ray_session):
    from schisma_ray.stages.corpus import sample_by_rate

    out = sample_by_rate(
        _ds([(i, f"t{i}", "en") for i in range(50)]), {"en": 1.0}
    ).to_pandas()
    assert sorted(out.columns) == ["doc_id", "lang", "text"]
    assert len(out) == 50  # rate 1.0 keeps everything


def _py_chunks(text, size, stride):
    """Reference semantics: windows at 0, stride, 2*stride... while
    start < max(len, 1)."""
    out = []
    start, k = 0, 0
    while start < max(len(text), 1):
        out.append((k, text[start : start + size]))
        start += stride
        k += 1
    return out


@pytest.mark.parametrize(
    "text",
    [
        "",
        "short",
        "x" * 80,  # exactly one window
        "x" * 81,  # spills into a second
        "abcdefghij" * 25,  # many windows
        "汉字" * 100,  # codepoint (not byte) slicing
    ],
)
def test_chunk_text_windows(ray_session, text):
    from schisma_ray.stages.corpus import chunk_text

    out = (
        chunk_text(_ds([(7, text, "zh")]), size=80, stride=60)
        .to_pandas()
        .sort_values("chunk_idx")
    )
    got = list(zip(out["chunk_idx"], out["chunk_text"]))
    assert got == _py_chunks(text, 80, 60)


def test_chunk_text_multiple_docs(ray_session):
    from schisma_ray.stages.corpus import chunk_text

    rows = [(i, "word " * (i * 20), "en") for i in range(5)]
    out = chunk_text(_ds(rows), size=50, stride=40).to_pandas()
    for i, text, _ in rows:
        mine = out[out.doc_id == i].sort_values("chunk_idx")
        assert list(zip(mine["chunk_idx"], mine["chunk_text"])) == _py_chunks(
            text, 50, 40
        )


def test_redact_regex(ray_session):
    from schisma_ray.stages.text import redact_regex

    ds = _ds(
        [
            (1, "mail me at bob@example.com or alice@test.org now", "en"),
            (2, "no pii here", "en"),
            (3, "x@y.io", "en"),
        ]
    )
    pat = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    out = redact_regex(ds, pat, "[EMAIL]").to_pandas().set_index("doc_id")
    assert out.loc[1, "redacted"] == "mail me at [EMAIL] or [EMAIL] now"
    assert out.loc[1, "n_redacted"] == 2
    assert out.loc[2, "redacted"] == "no pii here"
    assert out.loc[2, "n_redacted"] == 0
    assert out.loc[3, "redacted"] == "[EMAIL]"


def test_cap_per_key_deterministic_and_capped(ray_session):
    from schisma_ray.stages.corpus import cap_per_key

    rows = [(i, f"t{i}", ["a", "b", "c"][i % 3]) for i in range(90)]
    ds = _ds(rows).map_batches(
        lambda t: t.rename_columns(["doc_id", "text", "source"]),
        batch_format="pyarrow",
    )
    out = cap_per_key(ds, key_col="source", n=5).to_pandas()
    assert out.groupby("source").size().to_dict() == {"a": 5, "b": 5, "c": 5}

    # matches the md5-order rule exactly
    def md5h(i):
        return hashlib.md5(str(i).encode()).hexdigest()

    for src in ["a", "b", "c"]:
        ids = [i for i, _, s in rows if ["a", "b", "c"][i % 3] == src and s]
        want = sorted(sorted(ids, key=lambda i: (md5h(i), i))[:5])
        got = sorted(out[out.source == src]["doc_id"])
        assert got == want

    # parallelism-invariant: same result over a many-block layout
    out2 = cap_per_key(
        _ds(rows).map_batches(
            lambda t: t.rename_columns(["doc_id", "text", "source"]),
            batch_format="pyarrow",
        ).repartition(16),
        key_col="source",
        n=5,
    ).to_pandas()
    assert sorted(map(tuple, out2[["source", "doc_id"]].values.tolist())) == sorted(
        map(tuple, out[["source", "doc_id"]].values.tolist())
    )


def test_windowed_topk(ray_session):
    import ray.data as rd
    from schisma_ray.stages.window import windowed_topk

    # two windows; counts a:3 b:2 c:1 in w0, ties b=c=2 in w1 (item asc wins)
    events = [
        (0, "a"), (1, "a"), (2, "a"), (3, "b"), (4, "b"), (5, "c"),
        (3600, "b"), (3601, "b"), (3602, "c"), (3603, "c"),
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "ts": pa.array([t * 1_000_000 for t, _ in events], pa.int64()),
                "event_type": pa.array([e for _, e in events]),
            }
        )
    )
    out = windowed_topk(ds, width_s=3600, k=2).to_pandas()
    got = sorted(map(tuple, out[["window_start", "event_type", "n"]].values.tolist()))
    assert got == [(0, "a", 3), (0, "b", 2), (3600, "b", 2), (3600, "c", 2)]


def test_quantize_embeddings(ray_session):
    import numpy as np
    import ray.data as rd
    from schisma_ray.stages.similarity import quantize_embeddings

    vecs = [
        [1.0, -0.5, 0.25, 0.0],
        [0.0, 0.0, 0.0, 0.0],  # all-zero -> q=0, scale_e6=0
        [-2.0, 2.0, 1.0, -1.0],
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([0, 1, 2], pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
            }
        )
    )
    out = quantize_embeddings(ds).to_pandas()
    assert len(out) == 12
    q0 = out[out.vec_id == 0].sort_values("dim")["q"].tolist()
    assert q0 == [127, -63, 32, 0]  # floor(x*127 + 0.5) half-up
    assert (out[out.vec_id == 1]["q"] == 0).all()
    assert (out[out.vec_id == 1]["scale_e6"] == 0).all()
    q2 = out[out.vec_id == 2].sort_values("dim")["q"].tolist()
    assert q2 == [-127, 127, 64, -63]  # note: floor(-0.5*127+0.5) = -63
    # dequantization error bound: one half-step of the grid
    for vid, vec in enumerate(vecs):
        rows = out[out.vec_id == vid].sort_values("dim")
        s = rows["scale_e6"].iloc[0] / 1e6
        if s == 0:
            continue
        deq = rows["q"].to_numpy() * s / 127.0
        assert np.abs(deq - np.array(vec, np.float32)).max() <= s / 127.0


def test_cap_per_key_carry_cols(ray_session):
    from schisma_ray.stages.corpus import cap_per_key

    rows = [(i, f"text-{i}", ["a", "b"][i % 2]) for i in range(40)]
    ds = _ds(rows).map_batches(
        lambda t: t.rename_columns(["doc_id", "text", "source"]),
        batch_format="pyarrow",
    )
    out = cap_per_key(ds, key_col="source", n=3, carry_cols=("text",)).to_pandas()
    assert sorted(out.columns) == ["doc_id", "source", "text"]
    assert len(out) == 6
    for _, r in out.iterrows():
        assert r["text"] == f"text-{r['doc_id']}"  # carried faithfully


# ---------------------------------------------------------- infer/reader
def test_infer_schema_literal_and_roundtrip(ray_session):
    import ray.data as rd
    from schisma_ray.schema import BigInt, Boolean, Number, String
    from schisma_ray.schema.infer import infer_schema, infer_schema_literal

    t = pa.table(
        {
            "s": pa.array(["a"]),
            "i": pa.array([1], pa.int64()),
            "f": pa.array([1.5], pa.float64()),
            "b": pa.array([True]),
            "ls": pa.array([["x"]], pa.list_(pa.string())),
            "st": pa.array([{"k": 2}], pa.struct([("k", pa.int32())])),
        }
    )
    lit = infer_schema_literal(t)
    assert lit == {
        "s": String, "i": BigInt, "f": Number, "b": Boolean,
        "ls": [String], "st": {"k": BigInt},
    }
    node = infer_schema(t)
    assert node.validate({"s": "x", "i": 3, "f": 0.5, "b": False,
                          "ls": ["y"], "st": {"k": 7}}) == []
    bad = node.validate({"s": 1, "i": 3, "f": 0.5, "b": False,
                         "ls": ["y"], "st": {"k": 7}})
    assert len(bad) == 1 and bad[0].where == "s"

    # Dataset metadata path (no scan)
    ds = rd.from_arrow(t)
    assert infer_schema_literal(ds) == lit


def test_read_table_csv_and_jsonl(ray_session, tmp_path):
    import json

    from schisma_ray.sources.reader import read_table

    csv = tmp_path / "t.csv"
    csv.write_text("a,b\n1,x\n2,y\n")
    out = read_table(csv).to_pandas()
    assert sorted(out["a"]) == [1, 2]

    jl = tmp_path / "t.json"
    with jl.open("w") as f:
        for i in range(3):
            f.write(json.dumps({"a": i, "b": f"v{i}"}) + "\n")
    out = read_table(jl, columns=["a"]).to_pandas()
    assert sorted(out.columns) == ["a"] and len(out) == 3


# -------------------------------------------------------- range join
def test_range_join_half_open_and_overlaps(ray_session):
    import ray.data as rd
    from schisma_ray.stages.join import range_join

    intervals = pa.table(
        {
            "iv": pa.array([0, 1, 2], pa.int64()),
            "s": pa.array([0, 50, 200], pa.int64()),
            "e": pa.array([100, 150, 300], pa.int64()),
        }
    )
    # ts 75 -> both iv0 and iv1; 100 -> iv1 only (half-open); 150 -> none;
    # 299 -> iv2; 300 -> none (half-open end)
    events = pa.table(
        {
            "eid": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "ts": pa.array([75, 100, 150, 299, 300], pa.int64()),
        }
    )
    out = range_join(
        rd.from_arrow(events).repartition(3), intervals,
        ts_col="ts", start_col="s", end_col="e",
    ).to_pandas()
    got = sorted(map(tuple, out[["eid", "iv"]].values.tolist()))
    assert got == [(1, 0), (1, 1), (2, 1), (4, 2)]


def test_range_join_matches_bruteforce(ray_session):
    import numpy as np
    import ray.data as rd
    from schisma_ray.stages.join import range_join

    rng = np.random.default_rng(7)
    ts = rng.integers(0, 10_000, size=400)
    starts = rng.integers(0, 9_000, size=30)
    lengths = rng.integers(1, 2_000, size=30)
    ends = starts + lengths
    intervals = pa.table(
        {
            "iv": pa.array(range(30), pa.int64()),
            "s": pa.array(starts, pa.int64()),
            "e": pa.array(ends, pa.int64()),
        }
    )
    events = pa.table(
        {
            "eid": pa.array(range(400), pa.int64()),
            "ts": pa.array(ts, pa.int64()),
        }
    )
    out = range_join(
        rd.from_arrow(events).repartition(8), intervals,
        ts_col="ts", start_col="s", end_col="e",
    ).to_pandas()
    got = sorted(map(tuple, out[["eid", "iv"]].values.tolist()))
    want = sorted(
        (int(e), int(i))
        for e in range(400)
        for i in range(30)
        if starts[i] <= ts[e] < ends[i]
    )
    assert got == want


def test_tfidf_top_terms(ray_session):
    from schisma_ray.stages.text import tfidf_top_terms

    # en: 'cat' in 2/3 docs (tf=3), 'dog' in 1/3 (tf=2); fr: one doc
    docs = _ds(
        [
            (1, "cat cat dog", "en"),
            (2, "cat fish", "en"),
            (3, "bird bird bird", "en"),
            (4, "chat chien", "fr"),
        ]
    )
    out = tfidf_top_terms(docs, k=2).to_pandas()
    import math

    en = out[out.lang == "en"].sort_values("score", ascending=False)
    # scores: bird tf=3 df=1 -> 3*ln(3)=3.295837; cat tf=3 df=2 -> 3*ln(1.5)
    assert list(en["word"]) == ["bird", "cat"]
    assert abs(en["score"].iloc[0] - round(3 * math.log(3), 6)) < 1e-9
    fr = out[out.lang == "fr"]
    assert sorted(fr["word"]) == ["chat", "chien"]
    assert (fr["score"] == 0.0).all()  # df == n_docs -> ln(1) = 0


# ---------------------------------------------------- count-min sketch
def test_count_min_heavy_hitters(ray_session):
    import numpy as np
    import ray.data as rd
    from schisma_ray.stages.stats import heavy_hitters_cm

    # zipf-ish: key-i appears (50 - i) * 10 times for i < 5, tail once
    keys = []
    for i in range(5):
        keys += [f"hot-{i}"] * ((50 - i) * 10)
    keys += [f"tail-{j}" for j in range(2000)]
    rng = np.random.default_rng(3)
    rng.shuffle(keys)
    ds = rd.from_arrow(pa.table({"k": pa.array(keys)})).repartition(16)

    out = heavy_hitters_cm(ds, "k", k=5, w=4096, d=4)
    got = list(zip(out["k"].to_pylist(), out["est_n"].to_pylist()))
    assert [k for k, _ in got] == [f"hot-{i}" for i in range(5)]
    for i, (_, est) in enumerate(got):
        true = (50 - i) * 10
        assert est >= true            # CM only overcounts
        assert est <= true + 10       # and tightly here (2N/w ~ 2)


def test_count_min_merge_property(ray_session):
    import numpy as np
    import ray.data as rd
    from schisma_ray.stages.stats import CountMin, cm_estimate

    vals = [f"v{i % 7}" for i in range(700)]
    one = rd.from_arrow(pa.table({"k": pa.array(vals)}))
    mat_1 = np.asarray(one.aggregate(CountMin("k", alias_name="cm"))["cm"])
    mat_16 = np.asarray(
        one.repartition(16).aggregate(CountMin("k", alias_name="cm"))["cm"]
    )
    assert (mat_1 == mat_16).all()  # tree merge == single accumulate
    est = cm_estimate(mat_16, pa.array([f"v{i}" for i in range(7)]), 4096, 4)
    assert (est == 100).all()


def test_grouped_distinct_hll_accuracy(ray_session):
    import ray.data as rd
    from schisma_ray.stages.topk import grouped_distinct_count, grouped_distinct_hll

    # two groups: 1000 and 50 distinct items
    rows = [("big", f"item-{i}") for i in range(1000)] + [
        ("small", f"item-{i % 50}") for i in range(400)
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "g": pa.array([g for g, _ in rows]),
                "v": pa.array([v for _, v in rows]),
            }
        )
    ).repartition(8)
    exact = grouped_distinct_count(ds, "g", "v").to_pandas().set_index("g")["n_distinct"]
    approx = grouped_distinct_hll(ds, "g", "v").to_pandas().set_index("g")["n_distinct"]
    for g in ["big", "small"]:
        rel = abs(approx[g] - exact[g]) / exact[g]
        assert rel < 0.05, (g, approx[g], exact[g])


def test_grouped_distinct_hll_equals_one_sketch_per_group(ray_session,
                                                          exchange_width):
    """The keyed max of (register, rank) rows builds the same registers
    as one ``stats.HLL`` sketch over each group's rows, with many groups
    in one bucket."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data as rd
    from schisma_ray.stages.stats import HLL
    from schisma_ray.stages.topk import grouped_distinct_hll

    rng = np.random.default_rng(5)
    g = rng.integers(0, 6, 3000)
    v = rng.integers(0, 900, 3000) * (g + 1)
    t = pa.table({"g": pa.array(g.astype(str)), "v": pa.array(v)})
    exchange_width(2)
    out = grouped_distinct_hll(rd.from_arrow(t).repartition(5), "g", "v")
    got = {r["g"]: r["n_distinct"] for r in out.take_all()}
    want = {}
    for key in set(t["g"].to_pylist()):
        part = t.filter(pc.equal(t["g"], key))
        want[key] = rd.from_arrow(part).repartition(3).aggregate(
            HLL("v", alias_name="n"))["n"]
    assert got == want


@pytest.mark.parametrize("p", [4, 12, 16])
def test_hll_slots_match_the_bit_loop(monkeypatch, p):
    """``stats.hll_slots`` counts leading zeros from float exponents; the
    bit-by-bit loop it replaced is the reference, on random hashes and on
    every bit length, zero included."""
    import numpy as np
    import pandas as pd
    from schisma_ray.stages.stats import hll_slots

    rng = np.random.default_rng(p)
    edge = [0, 2**64 - 1] + [2**k + d for k in range(64) for d in (-1, 0, 1)
                             if 0 <= 2**k + d < 2**64]
    h = np.concatenate([rng.integers(0, 2**64 - 1, 5000, np.uint64,
                                     endpoint=True),
                        np.array(edge, np.uint64)])
    monkeypatch.setattr(pd.util, "hash_array", lambda values: h)

    rank = np.ones(len(h), np.uint8)
    rest, live = h << np.uint64(p), np.ones(len(h), bool)
    for _ in range(64 - p):
        live &= (rest >> np.uint64(63)) == 0
        rank[live] += 1
        rest = rest << np.uint64(1)
    reg, got = hll_slots(pa.array(range(len(h))), p)
    assert (reg == (h >> np.uint64(64 - p)).astype(np.int64)).all()
    assert (got == rank).all()


def test_grouped_distinct_hll_null_group_spans_blocks(ray_session):
    """A null group key is one group, even when its rows sit in several
    blocks; a null item counts toward no group."""
    import ray.data as rd
    from schisma_ray.stages.topk import grouped_distinct_hll

    t = pa.table({"g": ["a", None, "b", None, "a", None],
                  "v": [1, 2, 3, 4, 5, None]})
    out = grouped_distinct_hll(rd.from_arrow(t).repartition(3), "g", "v")
    got = {r["g"]: r["n_distinct"] for r in out.take_all()}
    assert got == {"a": 2, "b": 1, None: 2}


# -------------------------------------------------------------- k-means
def test_kmeans_separable_blobs(ray_session):
    import numpy as np
    import ray.data as rd
    from schisma_ray.stages.cluster import kmeans_assignments

    rng = np.random.default_rng(11)
    centers = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
    vecs, true = [], []
    for ci, c in enumerate(centers):
        for _ in range(60):
            vecs.append((c + rng.normal(0, 0.5, 2)).tolist())
            true.append(ci)
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
            }
        )
    ).repartition(6)
    out = kmeans_assignments(ds, k=3, iters=6).to_pandas()
    # blobs are well-separated: every true cluster maps to exactly one
    # k-means label and vice versa
    df = out.sort_values("vec_id")
    df["true"] = true
    mapping = df.groupby("true")["cluster"].nunique()
    assert (mapping == 1).all()
    assert df["cluster"].nunique() == 3


def test_kmeans_parallelism_invariant(ray_session):
    import numpy as np
    import ray.data as rd
    from schisma_ray.stages.cluster import kmeans_assignments

    rng = np.random.default_rng(5)
    vecs = rng.normal(0, 1, (200, 8)).astype(np.float32)
    table = pa.table(
        {
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
        }
    )
    a = kmeans_assignments(
        rd.from_arrow(table), k=4, iters=3
    ).to_pandas().sort_values("vec_id")["cluster"].tolist()
    b = kmeans_assignments(
        rd.from_arrow(table).repartition(16), k=4, iters=3
    ).to_pandas().sort_values("vec_id")["cluster"].tolist()
    assert a == b


def test_new_ops_on_empty_input(ray_session):
    """Empty datasets must flow through without schema-loss crashes
    (Ray drops schemas on empty blocks — a documented sharp edge)."""
    import ray.data as rd
    from schisma_ray.stages.corpus import cap_per_key, chunk_text, sample_by_rate
    from schisma_ray.stages.text import redact_regex, tfidf_top_terms

    empty = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "lang": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
            }
        )
    )
    assert chunk_text(empty).to_pandas().empty
    assert sample_by_rate(empty, {"en": 0.5}).to_pandas().empty
    assert redact_regex(empty, "x").to_pandas().empty
    assert cap_per_key(empty, key_col="source", n=3).to_pandas().empty
    assert tfidf_top_terms(empty).to_pandas().empty


def test_range_join_empty_sides(ray_session):
    import ray.data as rd
    from schisma_ray.stages.join import range_join

    events = pa.table(
        {"eid": pa.array([1], pa.int64()), "ts": pa.array([5], pa.int64())}
    )
    no_intervals = pa.table(
        {
            "iv": pa.array([], pa.int64()),
            "s": pa.array([], pa.int64()),
            "e": pa.array([], pa.int64()),
        }
    )
    out = range_join(
        rd.from_arrow(events), no_intervals, ts_col="ts", start_col="s", end_col="e"
    ).to_pandas()
    assert out.empty


def test_cap_per_key_null_keys_kept(ray_session):
    import ray.data as rd
    from schisma_ray.stages.corpus import cap_per_key

    t = pa.table(
        {
            "doc_id": pa.array(range(10), pa.int64()),
            "source": pa.array(["a"] * 4 + [None] * 6, pa.string()),
        }
    )
    out = cap_per_key(rd.from_arrow(t), key_col="source", n=3).to_pandas()
    # null keys form their own capped partition (SQL PARTITION BY)
    assert len(out[out.source.isna()]) == 3
    assert len(out[out.source == "a"]) == 3


def test_cross_corpus_duplicates(ray_session):
    import ray.data as rd
    from schisma_ray.stages.dedup import cross_corpus_duplicates

    base = _ds([(1, "alpha", "en"), (2, "beta", "en"), (3, "gamma", "en")])
    new = _ds(
        [
            (10, "beta", "en"),      # dup of base 2
            (11, "delta", "en"),     # fresh
            (12, "alpha", "en"),     # dup of base 1
            (13, "beta extra", "en"),  # near miss
        ]
    )
    out = cross_corpus_duplicates(new, base).to_pandas()
    assert sorted(out["doc_id"]) == [10, 12]


def test_zscore_by_group(ray_session):
    import numpy as np
    import ray.data as rd
    from schisma_ray.stages.stats import zscore_by_group

    rng = np.random.default_rng(2)
    vals = np.concatenate([rng.normal(10, 3, 200), rng.normal(-5, 0.5, 100),
                           np.full(50, 7.0)])  # constant group -> z = 0
    groups = ["a"] * 200 + ["b"] * 100 + ["c"] * 50
    t = pa.table(
        {
            "rid": pa.array(range(len(vals)), pa.int64()),
            "g": pa.array(groups),
            "v": pa.array(vals, pa.float64()),
        }
    )
    out = (
        zscore_by_group(rd.from_arrow(t).repartition(8), "v", "g", ["rid"])
        .to_pandas()
        .sort_values("rid")
    )
    for g, sl in [("a", slice(0, 200)), ("b", slice(200, 300))]:
        v = vals[sl]
        want = np.round((v - v.mean()) / v.std(ddof=1), 6)
        got = out[out.g == g].sort_values("rid")["z"].to_numpy()
        assert np.allclose(got, want, atol=1e-6)
    assert (out[out.g == "c"]["z"] == 0).all()


def test_ntile_pct_rank_sizing(ray_session):
    import numpy as np
    import ray.data as rd
    from schisma_ray.stages.rank import ntile_pct_rank

    # n=10, k=3 -> bucket sizes 4,3,3 (SQL NTILE rule)
    t = pa.table(
        {
            "rid": pa.array(range(10), pa.int64()),
            "v": pa.array([float(9 - i) for i in range(10)], pa.float64()),
        }
    )
    out = (
        ntile_pct_rank(rd.from_arrow(t).repartition(4), ["v", "rid"], k=3)
        .to_pandas()
        .sort_values(["v", "rid"])
    )
    assert out["ntile"].tolist() == [1, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert out["pct_rank"].iloc[0] == 0.0
    assert out["pct_rank"].iloc[-1] == 1.0
    assert np.isclose(out["pct_rank"].iloc[1], round(1 / 9, 6))

    # n < k: one row per bucket
    small = pa.table(
        {"rid": pa.array([1, 2], pa.int64()), "v": pa.array([2.0, 1.0])}
    )
    o2 = (
        ntile_pct_rank(rd.from_arrow(small), ["v", "rid"], k=5)
        .to_pandas()
        .sort_values("v")
    )
    assert o2["ntile"].tolist() == [1, 2]


def test_session_ids_per_event(ray_session):
    import ray.data as rd
    from schisma_ray.stages.window import session_ids

    # user 1: events at 0s, 100s (same session), 4000s (new session)
    # user 2: single event
    rows = [(1, 1, 0), (2, 1, 100), (3, 1, 4000), (4, 2, 50)]
    ds = rd.from_arrow(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "ts": pa.array([r[2] * 1_000_000 for r in rows], pa.int64()),
            }
        )
    )
    out = session_ids(ds, gap_s=1800).to_pandas().set_index("event_id")
    assert out.loc[1, "session_id"] == 1
    assert out.loc[2, "session_id"] == 1
    assert out.loc[3, "session_id"] == 2
    assert out.loc[4, "session_id"] == 1


def test_redact_all_counts_on_original(ray_session):
    from schisma_ray.stages.text import redact_all

    ds = _ds([(1, "mail a@b.io call 555-1234 from 10.0.0.1", "en")])
    out = redact_all(
        ds,
        [
            ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
            ("phone", r"\b\d{3}-\d{4}\b", "[PHONE]"),
            ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "[IP]"),
        ],
    ).to_pandas().iloc[0]
    assert out["redacted"] == "mail [EMAIL] call [PHONE] from [IP]"
    assert (out["n_email"], out["n_phone"], out["n_ip"]) == (1, 1, 1)


def test_split_assign_disjoint_exhaustive(ray_session):
    import ray.data as rd
    from schisma_ray.stages.corpus import split_assign

    rows = [(i, f"t{i}", "en") for i in range(1000)]
    out = split_assign(
        _ds(rows), {"train": 0.8, "val": 0.1, "test": 0.1}
    ).to_pandas()
    assert len(out) == 1000  # exhaustive: every row labeled
    counts = out["split"].value_counts().to_dict()
    assert set(counts) <= {"train", "val", "test"}
    assert 700 < counts["train"] < 900  # md5 buckets approximate 80/10/10
    # parallelism-invariant
    out2 = split_assign(
        _ds(rows).repartition(16), {"train": 0.8, "val": 0.1, "test": 0.1}
    ).to_pandas()
    a = out.sort_values("doc_id")["split"].tolist()
    b = out2.sort_values("doc_id")["split"].tolist()
    assert a == b

    with pytest.raises(ValueError):
        split_assign(_ds(rows), {"train": 0.8, "val": 0.1})


def test_asof_tolerance(ray_session):
    import ray.data as rd
    from schisma_ray.stages.asof import asof_join_latest

    left = rd.from_arrow(
        pa.table(
            {
                "event_id": pa.array([1, 2], pa.int64()),
                "user_id": pa.array([5, 5], pa.int64()),
                "ts": pa.array([100 * 10**6, 10_000 * 10**6], pa.int64()),
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "user_id": pa.array([5], pa.int64()),
                "ts": pa.array([50 * 10**6], pa.int64()),
            }
        )
    )
    out = asof_join_latest(
        left, right, key="user_id", left_id="event_id", tolerance_s=1000
    ).to_pandas().set_index("row_id")
    assert out.loc[1, "asof_epoch_s"] == 50       # 50s old: within tolerance
    assert out.loc[2, "asof_epoch_s"] is None or out.loc[2].isna()["asof_epoch_s"]


# ------------------------------------------------- review-fix regressions
def test_prepare_corpus_exact_dedup(ray_session):
    """``dedup="exact"`` keeps the minimum id per distinct text: the
    rows the former ``broadcast`` and ``join`` values gave alike. The
    former values are gone."""
    import ray.data as rd
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus

    rows = [{"doc_id": i, "text": f"the same english page about topic {i % 4} " * 3,
             "lang": "en", "source": f"s{i % 2}"} for i in range(12)]
    docs = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    kw = dict(langs=("en",), min_quality=0.0, chunk_size=50, chunk_stride=40)
    out = prepare_corpus(docs, dedup="exact", **kw).to_pandas()
    out = out.sort_values(["doc_id", "chunk_idx"])
    page = "the same english page about topic {0} "
    assert out.values.tolist() == [
        row for i in range(4) for row in (
            [i, 0, (page.format(i) * 2)[:50]],
            [i, 1, (page.format(i) * 3)[40:90]],
            [i, 2, (page.format(i) * 3)[80:]])]
    for gone in ("join", "broadcast"):
        with pytest.raises(ValueError, match="unknown dedup"):
            prepare_corpus(docs, dedup=gone, **kw)


def test_prepare_corpus_with_bench_and_empty_blocks(ray_session):
    import ray.data as rd
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus

    docs = _ds(
        [(1, "alpha beta gamma delta epsilon words here", "en"),
         (2, "totally different content in this document", "en")]
    ).map_batches(
        lambda t: t.append_column("source", pa.array(["s"] * t.num_rows)),
        batch_format="pyarrow",
    ).repartition(8)  # forces empty blocks through prep
    bench = _ds([(9, "alpha beta gamma delta", "en")])
    out = prepare_corpus(docs, bench=bench, ngram=4, langs=("en",),
                         min_quality=0.0, chunk_size=30, chunk_stride=25)
    df = out.to_pandas()
    assert set(df["doc_id"]) == {2}  # doc 1 decontaminated away


def test_zscore_ignores_null_values(ray_session):
    import ray.data as rd
    from schisma_ray.stages.stats import zscore_by_group

    t = pa.table(
        {
            "rid": pa.array([1, 2, 3], pa.int64()),
            "g": pa.array(["a", "a", "a"]),
            "v": pa.array([10.0, 10.0, None], pa.float64()),
        }
    )
    out = zscore_by_group(rd.from_arrow(t), "v", "g", ["rid"]).to_pandas()
    assert sorted(out["rid"]) == [1, 2]  # null row dropped
    assert (out["z"] == 0).all()  # std of [10, 10] is 0 -> z = 0


def test_heavy_hitters_null_keys(ray_session):
    import ray.data as rd
    from schisma_ray.stages.stats import heavy_hitters_cm

    t = pa.table({"k": pa.array(["a", "a", None, "b", None, None])})
    out = heavy_hitters_cm(rd.from_arrow(t), "k", k=5)
    got = dict(zip(out["k"].to_pylist(), out["est_n"].to_pylist()))
    assert got == {"a": 2, "b": 1}  # nulls excluded, no crash


def test_range_join_empty_intervals_keeps_joined_schema(ray_session):
    import ray.data as rd
    from schisma_ray.stages.join import range_join

    events = pa.table(
        {"eid": pa.array([1], pa.int64()), "ts": pa.array([5], pa.int64())}
    )
    empty_iv = pa.table(
        {"iv": pa.array([], pa.int64()), "s": pa.array([], pa.int64()),
         "e": pa.array([], pa.int64())}
    )
    out = range_join(rd.from_arrow(events), empty_iv,
                     ts_col="ts", start_col="s", end_col="e")
    # projecting an interval column on the empty result must not crash
    df = out.map_batches(
        lambda t: t.select(["eid", "iv"]), batch_format="pyarrow"
    ).to_pandas()
    assert df.empty


def test_range_join_max_bucket_guard(ray_session):
    import ray.data as rd
    from schisma_ray.stages.join import range_join

    intervals = pa.table(
        {"iv": pa.array(range(10), pa.int64()),
         "s": pa.array([0] * 10, pa.int64()),
         "e": pa.array([100] * 10, pa.int64())}
    )
    events = rd.from_arrow(
        pa.table({"eid": pa.array([1], pa.int64()),
                  "ts": pa.array([5], pa.int64())})
    )
    with pytest.raises(ValueError):
        range_join(events, intervals, ts_col="ts", start_col="s",
                   end_col="e", max_bucket=5)
