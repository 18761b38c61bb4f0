"""ExactSubstr span dedup (Lee et al. 2021): span extraction + removal."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from schisma_ray.stages.dedup import (
    _merge_spans,
    exact_substr_clean,
    exact_substr_spans,
)


def _docs(rows):
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })
    return rd.from_arrow(t).repartition(3)


def test_merge_spans_kernel():
    k = 3
    # overlapping + touching windows coalesce; a gap of > k splits
    s, e = _merge_spans(np.array([0, 1, 2]), k)       # 0..5 contiguous
    assert list(s) == [0] and list(e) == [5]
    s, e = _merge_spans(np.array([0, 3]), k)          # touching (3 == 0+3)
    assert list(s) == [0] and list(e) == [6]
    s, e = _merge_spans(np.array([0, 4]), k)          # gap -> two spans
    assert list(s) == [0, 4] and list(e) == [3, 7]
    s, e = _merge_spans(np.array([7]), k)
    assert list(s) == [7] and list(e) == [10]


def test_exact_substr_spans_planted(ray_session):
    shared = "alpha beta gamma delta epsilon zeta"   # 6 tokens, dup span
    docs = _docs([
        (1, f"one two {shared} three four"),
        (2, f"{shared} five six seven eight nine"),
        (3, "unique tokens only here nothing repeats ever at all"),
        (4, "tiny doc"),                              # < k tokens: no grams
    ])
    out = exact_substr_spans(docs, "text", "doc_id", k=5).to_pandas()
    got = {(r.doc_id, r.span_start, r.span_end)
           for r in out.itertuples(index=False)}
    # doc 1: shared occupies tokens 2..8; doc 2: tokens 0..6
    assert got == {(1, 2, 8), (2, 0, 6)}
    assert (out["span_toks"] == 6).all()


def test_exact_substr_spans_intra_doc(ray_session):
    # duplication WITHIN one doc counts (the ExactSubstr criterion)
    rep = "a b c d e"
    docs = _docs([(1, f"{rep} x y z w v {rep}"),
                  (2, "completely different words with no overlap here")])
    out = exact_substr_spans(docs, "text", "doc_id", k=5).to_pandas()
    got = {(r.doc_id, r.span_start, r.span_end)
           for r in out.itertuples(index=False)}
    assert got == {(1, 0, 5), (1, 10, 15)}


def test_exact_substr_clean_rebuild(ray_session):
    shared = "alpha beta gamma delta epsilon"
    docs = _docs([
        (1, f"keep these {shared} and these"),
        (2, f"{shared}"),                             # fully covered
        (3, "unique tokens only here nothing repeats ever at all"),
    ])
    out = (exact_substr_clean(docs, "text", "doc_id", k=5)
           .to_pandas().set_index("doc_id").sort_index())
    assert list(out.index) == [1, 2]                  # doc 3 untouched/absent
    assert out.loc[1, "clean_text"] == "keep these and these"
    assert out.loc[1, "n_removed_toks"] == 5
    assert out.loc[2, "clean_text"] == ""
    assert out.loc[2, "n_removed_toks"] == 5


def test_exact_substr_clean_emit_all_carry(ray_session):
    shared = "alpha beta gamma delta epsilon"
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([f"keep these {shared} and these",
                          f"{shared}", "totally unique words here now"]),
        "source": pa.array(["s1", "s2", "s3"]),
    })
    out = (exact_substr_clean(rd.from_arrow(t).repartition(2),
                              "text", "doc_id", k=5, emit_all=True,
                              carry_cols=("source",))
           .to_pandas().set_index("doc_id").sort_index())
    assert list(out.index) == [1, 2, 3]
    assert out.loc[3, "clean_text"] == "totally unique words here now"
    assert out.loc[3, "n_removed_toks"] == 0
    assert list(out["source"]) == ["s1", "s2", "s3"]


def test_prepare_corpus_exact_substr_stage(ray_session):
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus

    boiler = "all rights reserved contact the webmaster for details"
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            f"some real actual content words here {boiler}",
            f"{boiler} and other real genuine content words too",
            f"{boiler}",                      # nothing but boilerplate
        ]),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
    })
    docs = rd.from_arrow(t).repartition(2)
    chunks = prepare_corpus(
        docs, exact_substr_k=5, langs=("en",), min_quality=0.0,
        chunk_size=200, chunk_stride=200,
    ).to_pandas()
    text_by_doc = dict(zip(chunks["doc_id"], chunks["chunk_text"]))
    # boilerplate span removed from both survivors; doc 3 emptied out
    assert text_by_doc == {
        1: "some real actual content words here",
        2: "and other real genuine content words too",
    }
    # k=0 leaves the pipeline untouched (all three docs chunk)
    plain = prepare_corpus(
        docs, langs=("en",), min_quality=0.0,
        chunk_size=200, chunk_stride=200,
    ).to_pandas()
    assert set(plain["doc_id"]) == {1, 2, 3}


def test_merge_spans_property_bruteforce():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 60), min_size=1, max_size=25),
           st.integers(1, 8))
    def check(posset, k):
        pos = np.array(sorted(posset), np.int64)
        s, e = _merge_spans(pos, k)
        # brute force: union of [p, p+k) windows, maximal runs
        covered = np.zeros(70 + k, bool)
        for p in pos:
            covered[p:p + k] = True
        idx = np.flatnonzero(covered)
        brk = np.flatnonzero(np.diff(idx) > 1)
        starts = idx[np.r_[0, brk + 1]]
        ends = idx[np.r_[brk, len(idx) - 1]] + 1
        assert list(s) == list(starts) and list(e) == list(ends)

    check()


def test_exact_substr_parallelism_invariant(ray_session):
    import ray.data as rd

    t = pa.table({
        "doc_id": pa.array(range(30), pa.int64()),
        "text": pa.array(
            [f"unique{i} words only here" if i % 3 else
             "a common shared boilerplate run appears here often"
             for i in range(30)]),
    })
    outs = []
    for parts in (1, 4, 9):
        out = exact_substr_spans(
            rd.from_arrow(t).repartition(parts), "text", "doc_id", k=5
        ).to_pandas().sort_values(["doc_id", "span_start"]).reset_index(drop=True)
        outs.append(out)
    assert outs[0].equals(outs[1]) and outs[1].equals(outs[2])


def test_positioned_grams_match_bruteforce():
    """The rolling word-hash emitter must mark EXACTLY the positions a
    brute-force tuple count marks (hash collisions would surface here)."""
    from collections import Counter

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from schisma_ray.stages.dedup import _positioned_gram_rows

    words = st.sampled_from("a b c d e aa bb cc dd".split())
    doc = st.lists(words, min_size=0, max_size=30).map(" ".join)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=8), st.integers(2, 5))
    def check(texts, k):
        t = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        rows = _positioned_gram_rows(t, "text", "doc_id", k)
        # brute force: every k-tuple with its (doc, pos); dup iff the
        # tuple occurs >= 2 times corpus-wide
        tuples = {}
        for d, txt in enumerate(texts):
            w = txt.split()
            for i in range(max(len(w) - k + 1, 0)):
                tuples.setdefault(tuple(w[i:i + k]), []).append((d, i))
        # 1: one row per position
        expect_rows = sorted(p for v in tuples.values() for p in v)
        got_rows = sorted(zip(rows["doc_id"].to_pylist(),
                              rows["pos"].to_pylist()))
        assert got_rows == expect_rows
        # 2: gram-hash equality groups == tuple equality groups
        by_hash = {}
        for d, p, g in zip(rows["doc_id"].to_pylist(),
                           rows["pos"].to_pylist(),
                           rows["gram"].to_pylist()):
            by_hash.setdefault(g, set()).add((d, p))
        expect_groups = {frozenset(v) for v in tuples.values()}
        assert {frozenset(v) for v in by_hash.values()} == expect_groups

    check()


def test_merge_spans_empty_input():
    s, e = _merge_spans(np.empty(0, np.int64), 3)
    assert list(s) == [] and list(e) == []


def test_positioned_char_grams_match_bruteforce():
    """The codepoint-window emitter must mark exactly the positions a
    brute-force substring count marks, including non-ASCII codepoints."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from schisma_ray.stages.dedup import _positioned_char_gram_rows

    alphabet = "ab一丁é"  # ascii + CJK + accented
    doc = st.text(alphabet=alphabet, min_size=0, max_size=25)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=6), st.integers(2, 5))
    def check(texts, k):
        t = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        rows = _positioned_char_gram_rows(t, "text", "doc_id", k)
        subs = {}
        for d, txt in enumerate(texts):
            for i in range(max(len(txt) - k + 1, 0)):
                subs.setdefault(txt[i:i + k], []).append((d, i))
        expect_rows = sorted(p for v in subs.values() for p in v)
        got_rows = sorted(zip(rows["doc_id"].to_pylist(),
                              rows["pos"].to_pylist()))
        assert got_rows == expect_rows
        by_hash = {}
        for d, p, g in zip(rows["doc_id"].to_pylist(),
                           rows["pos"].to_pylist(),
                           rows["gram"].to_pylist()):
            by_hash.setdefault(g, set()).add((d, p))
        assert ({frozenset(v) for v in by_hash.values()}
                == {frozenset(v) for v in subs.values()})

    check()


def test_exact_substr_char_spans_unsegmented(ray_session):
    """Char granularity positions duplicated runs INSIDE unsegmented
    lines, which word granularity cannot (each line is one token)."""
    boiler = "一二三四五六七八"  # 8 cjk
    docs = _docs([
        (0, "x" * 4 + boiler + "y" * 4),
        (1, "z" * 6 + boiler + "w" * 2),
        (2, "qrstuvabcdefghijklmn"),  # 20 distinct chars, no dup run
    ])
    out = (exact_substr_spans(docs, "text", "doc_id", k=8,
                              granularity="char")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [0, 1]
    assert out["span_start"].tolist() == [4, 6]
    assert out["span_end"].tolist() == [12, 14]
    assert out["span_toks"].tolist() == [8, 8]
    # word mode sees three distinct single-token lines: nothing
    word = exact_substr_spans(docs, "text", "doc_id", k=1).to_pandas()
    assert len(word) == 0


def test_exact_substr_char_clean_rebuild(ray_session):
    boiler = "一二三四五六七八"
    docs = _docs([
        (0, "abcd" + boiler + "efgh"),
        (1, boiler + "ijkl"),
        (2, "mnopqrstuv"),
    ])
    out = (exact_substr_clean(docs, "text", "doc_id", k=8,
                              granularity="char")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [0, 1]
    assert out["clean_text"].tolist() == ["abcdefgh", "ijkl"]
    assert out["n_removed_toks"].tolist() == [8, 8]
