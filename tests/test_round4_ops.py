"""Round-4 operators: character-entropy quality scorer and the
``prepare_corpus`` line-dedup / entropy-band stages (VERDICT r3 asks
#3 and #4)."""

import math

import numpy as np
import pyarrow as pa
import ray.data as rd


def _L():
    from schisma_ray.stages.text import build_log2_table

    lt = build_log2_table(4096)["l_e12"].to_numpy(zero_copy_only=False)
    return np.concatenate(([0], lt)).astype(np.int64)


def test_char_entropy_known_values():
    from schisma_ray.stages.text import char_entropy_values

    texts = pa.array(["aaaa", "aabb", "abcd", "", None, "ab"], pa.string())
    lengths, ent = char_entropy_values(texts, _L())
    assert lengths.tolist() == [4, 4, 4, 0, 0, 2]
    # H(aaaa)=0, H(aabb)=1 bit, H(abcd)=2 bits, H(ab)=1 bit
    assert ent.tolist() == [0, 1_000_000, 2_000_000, 0, 0, 1_000_000]


def test_char_entropy_matches_float_formula():
    """The integer pipeline must agree with the straight float Shannon
    entropy to within the e6 rounding granularity."""
    import random

    from schisma_ray.stages.text import char_entropy_values

    rng = random.Random(7)
    texts = [
        "".join(rng.choice("abcdefg xyz.!") for _ in range(rng.randint(1, 400)))
        for _ in range(50)
    ]
    _, ent = char_entropy_values(pa.array(texts, pa.string()), _L())
    for s, e in zip(texts, ent.tolist()):
        n = len(s)
        counts = {}
        for c in s:
            counts[c] = counts.get(c, 0) + 1
        h = -sum(k / n * math.log2(k / n) for k in counts.values())
        assert abs(e / 1e6 - h) < 2e-6, (s, e, h)


def test_char_entropy_unicode_codepoints():
    """Lengths and distinctness count CODEPOINTS (utf-32), not bytes."""
    from schisma_ray.stages.text import char_entropy_values

    lengths, ent = char_entropy_values(
        pa.array(["日本語日本語", "ééàà"], pa.string()), _L()
    )
    assert lengths.tolist() == [6, 4]
    # 3 distinct each twice over 6 -> log2(3); 2 distinct -> 1 bit
    assert abs(ent[0] / 1e6 - math.log2(3)) < 2e-6
    assert ent[1] == 1_000_000


def test_char_entropy_stage_and_doc_too_long(ray_session):
    from schisma_ray.stages.text import build_log2_table, char_entropy
    from schisma_ray.stages.text import char_entropy_values

    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["hello world", None], pa.string()),
    })
    out = (
        char_entropy(rd.from_arrow(t), build_log2_table(1024))
        .to_pandas().set_index("doc_id")
    )
    assert out.loc[1, "n_chars"] == 11 and out.loc[2, "n_chars"] == 0
    assert out.loc[2, "entropy_e6"] == 0

    # a doc longer than the artifact must raise, not silently wrap
    import pytest

    with pytest.raises(ValueError, match="log2 table"):
        char_entropy_values(pa.array(["x" * 50], pa.string()), _L()[:11])


def test_prepare_corpus_entropy_band(ray_session):
    """min/max entropy knobs drop exactly the docs outside the band,
    measured on the post-redaction text (same kernel as the stage)."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus
    from schisma_ray.stages.text import char_entropy_values

    rows = []
    texts = {
        0: "aaaaaaaa aaaaaaaa aaaaaaaa aaaaaaaa",          # ~0.4 bits: low
        1: "the quick brown fox jumps over the lazy dog "
           "and keeps running through the quiet field",     # mid entropy
        2: "q7$Zp!x9@Kf#3mW&v8^Lc*2jH(5yT)1bN-4dR_6gS+0aE=", # high entropy
    }
    for i, tx in texts.items():
        rows.append({"doc_id": i, "text": tx, "lang": "en", "source": "s"})
    docs = rd.from_arrow(pa.Table.from_pylist(rows))
    _, ent = char_entropy_values(
        pa.array([texts[0], texts[1], texts[2]], pa.string()), _L()
    )
    lo, hi = int(ent[0]), int(ent[2])
    assert lo < int(ent[1]) < hi

    kw = dict(langs=("en",), min_quality=0.0, chunk_size=500, chunk_stride=400)
    out = prepare_corpus(
        docs, min_entropy_e6=lo + 1, max_entropy_e6=hi - 1, **kw
    ).to_pandas()
    assert set(out["doc_id"]) == {1}
    out_lo = prepare_corpus(docs, min_entropy_e6=lo + 1, **kw).to_pandas()
    assert set(out_lo["doc_id"]) == {1, 2}
    out_hi = prepare_corpus(docs, max_entropy_e6=hi - 1, **kw).to_pandas()
    assert set(out_hi["doc_id"]) == {0, 1}


def test_prepare_corpus_line_dedup_passthrough(ray_session):
    """Single-line corpora with no repeated lines must come out of
    prepare_corpus(line_dedup=True) byte-identical to the plain path
    (the VERDICT r3 #4 'done' condition)."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus

    rows = []
    for i in range(24):
        rows.append({
            "doc_id": i,
            "text": f"unique single line document {i} with plenty of "
                    "distinct english words to clear every filter",
            "lang": "en",
            "source": f"src{i % 2}",
        })
    docs = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    kw = dict(langs=("en",), min_quality=0.0, cap_per_source=0,
              chunk_size=60, chunk_stride=45)
    plain = prepare_corpus(docs, **kw).to_pandas()
    lined = prepare_corpus(docs, line_dedup=True, **kw).to_pandas()
    key = ["doc_id", "chunk_idx"]
    plain = plain.sort_values(key).reset_index(drop=True)
    lined = lined.sort_values(key).reset_index(drop=True)
    assert len(plain) > 0
    assert plain[["doc_id", "chunk_idx", "chunk_text"]].equals(
        lined[["doc_id", "chunk_idx", "chunk_text"]]
    )


def test_prepare_corpus_line_dedup_removes_boilerplate(ray_session):
    """A shared header line must survive only in its first-occurrence
    document; all-boilerplate documents drop out entirely."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus

    header = "cookie banner please accept terms"
    body = "the actual english content of document number"
    rows = [
        {"doc_id": 0, "text": f"{header}\n{body} zero with words",
         "lang": "en", "source": "s"},
        {"doc_id": 1, "text": f"{header}\n{body} one with words",
         "lang": "en", "source": "s"},
        {"doc_id": 2, "text": header,  # only the boilerplate -> drops
         "lang": "en", "source": "s"},
    ]
    docs = rd.from_arrow(pa.Table.from_pylist(rows))
    out = prepare_corpus(
        docs, line_dedup=True, langs=("en",), min_quality=0.0,
        chunk_size=500, chunk_stride=400,
    ).to_pandas()
    texts = dict(zip(out["doc_id"], out["chunk_text"]))
    assert set(texts) == {0, 1}
    assert header in texts[0]
    assert header not in texts[1]


def test_line_dedup_carry_cols(ray_session):
    from schisma_ray.stages.lines import line_dedup

    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a\nb", "b\nc"], pa.string()),
        "lang": pa.array(["en", "de"], pa.string()),
        "source": pa.array(["s1", "s2"], pa.string()),
    })
    out = (
        line_dedup(rd.from_arrow(t), num_buckets=2,
                   carry_cols=("lang", "source"))
        .to_pandas().set_index("doc_id")
    )
    assert out.loc[1, "lang"] == "en" and out.loc[2, "lang"] == "de"
    assert out.loc[1, "source"] == "s1" and out.loc[2, "source"] == "s2"
    assert out.loc[1, "text"] == "a\nb" and out.loc[2, "text"] == "c"


def test_group_share_of_total_counts(ray_session):
    from schisma_ray.stages.stats import group_share_of_total

    t = pa.table({
        "k": pa.array(["a"] * 3 + ["b"] * 1, pa.string()),
        "v": pa.array([10, 20, 30, 40], pa.int64()),
    })
    out = group_share_of_total(rd.from_arrow(t), "k").to_pandas()
    out = out.set_index("k")
    assert out.loc["a", "total"] == 3 and out.loc["b", "total"] == 1
    assert out.loc["a", "share_e6"] == 750_000
    assert out.loc["b", "share_e6"] == 250_000

    summed = group_share_of_total(
        rd.from_arrow(t), "k", val_col="v"
    ).to_pandas().set_index("k")
    assert summed.loc["a", "total"] == 60 and summed.loc["b", "total"] == 40
    assert summed.loc["a", "share_e6"] == 600_000
    assert summed.loc["b", "share_e6"] == 400_000


def test_share_of_group_total_window(ray_session):
    """Row-level shares must sum to ~1e6 per group and round half-up
    exactly like the SQL window expression."""
    from schisma_ray.stages.stats import share_of_group_total

    t = pa.table({
        "id": pa.array(list(range(6)), pa.int64()),
        "k": pa.array(["x", "x", "x", "y", "y", "y"], pa.string()),
        "v": pa.array([1, 1, 1, 5, None, 15], pa.int64()),
    })
    out = (
        share_of_group_total(rd.from_arrow(t).repartition(3), "k", "v", ["id"])
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    # null value row (id=4) dropped; totals computed without it
    assert out["id"].tolist() == [0, 1, 2, 3, 5]
    # 1/3 -> floor(333333.33 + .5) = 333333
    assert out.loc[0, "share_e6"] == 333_333
    assert out.loc[3, "share_e6"] == 250_000  # 5/20
    assert out.loc[4, "share_e6"] == 750_000  # 15/20


def test_gopher_repetition_known_values(ray_session):
    from schisma_ray.stages.text import gopher_repetition

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "x x x x x x",        # 6 words: "x x" 2-gram x5, one dup 5-gram
            "a b\na b\nc",        # 3 lines, one duplicate line
            None,                  # -> "" : 1 empty line, all fracs 0
        ], pa.string()),
    })
    out = (
        gopher_repetition(rd.from_arrow(t))
        .to_pandas().set_index("doc_id").sort_index()
    )
    # doc 0: single line; tc=11; top2 = 5 * len("x x")=3 -> 15e6/11
    assert out.loc[0, "n_lines"] == 1
    assert out.loc[0, "dup_line_frac_e6"] == 0
    assert out.loc[0, "top2_char_frac_e6"] == (2 * 15_000_000 + 11) // 22
    # dup 5-grams: "x x x x x" occurs twice, len 9 -> 18e6/11
    assert out.loc[0, "dup5_char_frac_e6"] == (2 * 18_000_000 + 11) // 22
    # doc 1: 3 lines, 1 dup ("a b"); line chars 7, dup chars 3
    assert out.loc[1, "n_lines"] == 3
    assert out.loc[1, "dup_line_frac_e6"] == 333_333
    assert out.loc[1, "dup_line_char_frac_e6"] == (2 * 3_000_000 + 7) // 14
    assert out.loc[1, "dup5_char_frac_e6"] == 0
    # doc 2 (null text): one empty line, zero everything
    assert out.loc[2, "n_lines"] == 1
    assert (out.loc[2, ["dup_line_frac_e6", "dup_line_char_frac_e6",
                        "top2_char_frac_e6", "dup5_char_frac_e6"]] == 0).all()


def test_url_blocklist_suffix_semantics(ray_session):
    from schisma_ray.stages.urlfilter import url_blocklist

    t = pa.table({
        "doc_id": pa.array(list(range(7)), pa.int64()),
        "url": pa.array([
            "https://badhost0.com/x",           # exact match
            "https://a.b.c.badhost0.com/x",     # deep subdomain
            "https://notbadhost0.com/x",        # suffix WITHOUT dot: clean
            "https://badhost0.com.evil.io/x",   # blocked name mid-host: clean
            "https://www0.site3.org/x",         # clean
            None,                                # null url -> null host, clean
            "ftp://cdn.tracker1.net:8080/x",    # port kept; host w/ port
        ], pa.string()),
    })
    out = (
        url_blocklist(rd.from_arrow(t), ("badhost0.com", "tracker1.net"))
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert out["blocked"].tolist() == [
        True, True, False, False, False, False,
        False,  # 'cdn.tracker1.net:8080' != 'tracker1.net' (port differs)
    ]
    assert out.loc[2, "host"] == "notbadhost0.com"
    assert out.loc[6, "host"] == "cdn.tracker1.net:8080"


def test_gopher_format_known_values(ray_session):
    from schisma_ray.stages.text import gopher_format

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "normal english words here\nanother fine line",
            "- bullet one\n- bullet two",               # 100% bullets
            "trailing off...\nalso trailing…\nplain",   # 2/3 ellipsis
            "12 34 56 78 # # #",                        # no alpha + symbols
        ], pa.string()),
    })
    out = (
        gopher_format(rd.from_arrow(t))
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert bool(out.loc[0, "passed"])
    assert out.loc[1, "bullet_frac_e6"] == 1_000_000
    assert not out.loc[1, "pass_bullet"]
    assert out.loc[2, "ellipsis_frac_e6"] == 666_667
    assert not out.loc[2, "pass_ellipsis"]
    # doc 3: 7 words, 0 alpha, 3 '#' symbols -> ratio 3/7
    assert out.loc[3, "alpha_word_frac_e6"] == 0
    assert out.loc[3, "symbol_ratio_e6"] == (2 * 3_000_000 + 7) // 14
    assert not out.loc[3, "pass_alpha"] and not out.loc[3, "pass_symbol"]


def test_word_classifier_train_and_score(ray_session):
    """Log-odds weights must separate the classes and score as exact
    integer occurrence sums (including repeated words and OOV = 0)."""
    from schisma_ray.stages.text import classifier_score, train_word_classifier

    pos_texts = ["good clean prose here"] * 5
    neg_texts = ["spam junk noise words"] * 5
    model = train_word_classifier(
        pos_texts + neg_texts, [True] * 5 + [False] * 5
    )
    w = dict(zip(model["word"].to_pylist(), model["weight_e6"].to_pylist()))
    assert w["good"] > 0 > w["spam"]

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(
            ["good good unknownword", "spam", None], pa.string()
        ),
    })
    out = (
        classifier_score(rd.from_arrow(t), model)
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert out.loc[0, "score_e6"] == 2 * w["good"]
    assert out.loc[0, "n_hits"] == 2
    assert out.loc[1, "score_e6"] == w["spam"]
    assert out.loc[2, "score_e6"] == 0 and out.loc[2, "n_hits"] == 0


def test_prepare_corpus_minhash_fuzzy_dedup(ray_session):
    """dedup='minhash' must collapse near-duplicate AND exact-duplicate
    documents to the min-id survivor while keeping unique docs."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus

    base = ("the quick brown fox jumps over the lazy dog and keeps "
            "going through the quiet green field toward the distant barn")
    rows = [
        {"doc_id": 0, "text": base, "lang": "en", "source": "s"},
        {"doc_id": 1, "text": base, "lang": "en", "source": "s"},          # exact dup
        {"doc_id": 2, "text": base + " tonight", "lang": "en",            # near dup
         "source": "s"},
        {"doc_id": 3, "text": "an entirely different document about "
                              "sailing ships and ocean navigation charts",
         "lang": "en", "source": "s"},
    ]
    docs = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(2)
    out = prepare_corpus(
        docs, dedup="minhash", langs=("en",), min_quality=0.0,
        chunk_size=500, chunk_stride=400,
    ).to_pandas()
    assert set(out["doc_id"]) == {0, 3}


def test_cross_corpus_near_duplicates(ray_session, monkeypatch):
    """Near-dups across the corpus boundary only; the per-bucket side of
    both size switches must return identical pairs."""
    from schisma_ray.stages import _bucket, dedup
    from schisma_ray.stages.dedup import cross_corpus_near_duplicates

    body = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    base_rows = [
        {"doc_id": 10, "text": body},                     # near-dup anchor
        {"doc_id": 11, "text": "completely different base text about "
                               "mountain weather forecasting models"},
        {"doc_id": 12, "text": body},                     # base-side dup of 10
    ]
    new_rows = [
        {"doc_id": 20, "text": body + " extra"},          # near-dup of 10/12
        {"doc_id": 21, "text": "novel content with no counterpart in "
                               "the existing corpus at all"},
    ]
    new = rd.from_arrow(pa.Table.from_pylist(new_rows)).repartition(2)
    base = rd.from_arrow(pa.Table.from_pylist(base_rows)).repartition(2)
    out = cross_corpus_near_duplicates(new, base, threshold=0.8).to_pandas()
    got = sorted(zip(out["new_id"], out["base_id"]))
    # cross pairs only: (20,10) and (20,12); base-side dup 10~12 NOT emitted
    assert got == [(20, 10), (20, 12)]
    assert all(j >= 0.8 for j in out["jaccard"])

    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    ds_out = cross_corpus_near_duplicates(new, base, threshold=0.8).to_pandas()
    assert sorted(zip(ds_out["new_id"], ds_out["base_id"])) == got


def test_group_share_all_null_key(ray_session):
    """A key whose values are ALL null must total 0 (SQL SUM-skips-null
    semantics), never poison the grand total with NaN garbage."""
    from schisma_ray.stages.stats import group_share_of_total

    t = pa.table({
        "k": pa.array(["a", "a", "b"], pa.string()),
        "v": pa.array([1, 2, None], pa.int64()),
    })
    out = group_share_of_total(
        rd.from_arrow(t), "k", val_col="v"
    ).to_pandas().set_index("k")
    assert out.loc["a", "total"] == 3 and out.loc["b", "total"] == 0
    assert out.loc["a", "share_e6"] == 1_000_000
    assert out.loc["b", "share_e6"] == 0


def test_gopher_repetition_empty_batch():
    from schisma_ray.stages.text import gopher_repetition_values

    out = gopher_repetition_values(pa.array([], pa.string()))
    assert all(len(a) == 0 for a in out)


def test_prepare_corpus_entropy_skips_filtered_rows(ray_session):
    """A doc longer than the log2 table must NOT crash the prepare run
    when the cheap filters already reject it (entropy runs on
    survivors only)."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus
    from schisma_ray.stages.text import LOG2_TABLE_SIZE

    rows = [
        {"doc_id": 0, "text": "x" * (LOG2_TABLE_SIZE + 10),
         "lang": "zh", "source": "s"},            # filtered by lang
        {"doc_id": 1, "text": "a normal english document body here",
         "lang": "en", "source": "s"},
    ]
    out = prepare_corpus(
        rd.from_arrow(pa.Table.from_pylist(rows)), langs=("en",),
        min_quality=0.0, min_entropy_e6=1, chunk_size=500, chunk_stride=400,
    ).to_pandas()
    assert set(out["doc_id"]) == {1}


def test_url_blocklist_any_depth(ray_session):
    from schisma_ray.stages.urlfilter import url_blocklist

    t = pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "url": pa.array(
            ["https://a.b.c.d.e.f.g.h.badhost0.com/x"], pa.string()
        ),
    })
    out = url_blocklist(rd.from_arrow(t), ("badhost0.com",)).to_pandas()
    assert bool(out.loc[0, "blocked"])


def test_minhash_blank_docs_never_pair(ray_session):
    """Zero-shingle (empty/whitespace) documents must not enter LSH:
    the SQL oracles emit no grams for them, so the engine must emit no
    pairs — within one corpus and across two."""
    from schisma_ray.stages.dedup import (
        cross_corpus_near_duplicates,
        minhash_dedup_pairs,
    )

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["", "   ", None], pa.string()),
    })
    ds = rd.from_arrow(t)
    assert minhash_dedup_pairs(ds, col="text", id_col="doc_id").count() == 0
    out = cross_corpus_near_duplicates(ds, ds, threshold=0.5)
    assert out.count() == 0


def test_text_hygiene_known_values(ray_session):
    from schisma_ray.stages.text import text_hygiene

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                ["clean text", "bad �� here", "ctl\x07\x1b\ttab",
                 None],
                pa.string(),
            ),
        }
    )
    out = (
        text_hygiene(rd.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.n_replacement.tolist() == [0, 2, 0, 0]
    # tab/newline/CR are allowed; BEL and ESC are not
    assert out.n_control.tolist() == [0, 0, 2, 0]
    assert out.passed.tolist() == [True, False, False, True]
    assert out.n_chars.tolist() == [10, 11, 9, 0]


def test_hygiene_fixture_plants(ray_session):
    """The seeded fixture must actually plant both defect classes."""
    import pyarrow.parquet as pq

    from schisma_ray.sources.line_fixture import hygiene_documents

    path = hygiene_documents("/root/testdata/sf0.001")
    texts = pq.read_table(path)["text"].to_pylist()
    assert any("�" in (x or "") for x in texts)
    assert any("\x07" in (x or "") for x in texts)


def test_prepare_corpus_hygiene_drops_planted(ray_session):
    """hygiene=True must drop exactly the docs carrying planted
    defects; hygiene=False must keep them (same fixture)."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus
    from schisma_ray.sources.line_fixture import hygiene_documents

    docs = rd.read_parquet(str(hygiene_documents("/root/testdata/sf0.001")))
    on = prepare_corpus(
        docs, hygiene=True, langs=("en",), min_quality=0.5,
        cap_per_source=0, chunk_size=80, chunk_stride=60,
    ).to_pandas()
    off = prepare_corpus(
        docs, hygiene=False, langs=("en",), min_quality=0.5,
        cap_per_source=0, chunk_size=80, chunk_stride=60,
    ).to_pandas()
    dropped = set(off.doc_id) - set(on.doc_id)
    assert dropped, "the screen must fire on the seeded fixture"
    assert all(d % 13 == 0 or d % 17 == 0 for d in dropped)
    # no clean doc may be dropped: ids in neither plant class survive
    clean_off = {d for d in off.doc_id if d % 13 != 0 and d % 17 != 0}
    assert clean_off <= set(on.doc_id)
