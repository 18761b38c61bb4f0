"""Regression tests for the round-3 ADVICE fixes."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


def test_session_agg_string_keys(ray_session):
    """Non-integer user ids must bucket (hash) instead of raising
    ArrowInvalid from an int64 cast — ADVICE r2 (window.py)."""
    from schisma_ray.stages.window import session_agg

    rows = []
    for uid in ("alice", "bob-7f3a", "c3de4567-e89b"):
        for i in range(3):
            rows.append({"user_id": uid, "ts": i * 10_000_000})  # one session
        rows.append({"user_id": uid, "ts": 10_000_000_000})  # gap -> new session
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = session_agg(ds, gap_s=1800).to_pandas().set_index("user_id")
    assert sorted(out.index) == ["alice", "bob-7f3a", "c3de4567-e89b"]
    assert (out["n_sessions"] == 2).all()
    assert (out["n_events"] == 4).all()


def test_session_ids_string_keys(ray_session):
    from schisma_ray.stages.window import session_ids

    rows = [
        {"event_id": 1, "user_id": "u-a", "ts": 0},
        {"event_id": 2, "user_id": "u-a", "ts": 10_000_000_000},
        {"event_id": 3, "user_id": "u-b", "ts": 5},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = session_ids(ds, gap_s=1800).to_pandas().set_index("event_id")
    assert out.loc[1, "session_id"] == 1
    assert out.loc[2, "session_id"] == 2
    assert out.loc[3, "session_id"] == 1


def test_audio_features_zero_sample_clip(ray_session):
    """A validly-encoded 0-sample clip must yield a zero feature vector,
    not kill the task with an uncaught ValueError — ADVICE r2."""
    from schisma_ray.sources.av_codec import encode_audio
    from schisma_ray.stages.multimodal import AudioFeatures

    blob = encode_audio(np.zeros((0, 1), np.int16), 16000)
    batch = pa.table({"audio_id": pa.array([1], pa.int64()),
                      "bytes": pa.array([blob], pa.binary())})
    out = AudioFeatures(id_col="audio_id")(batch)
    feats = out["features"].to_pylist()[0]
    assert feats is not None
    assert all(f == 0.0 for f in feats)


def test_psi_novel_category_counts():
    """Categories observed but absent from the profile must contribute
    drift mass (p_ref floored at eps) — ADVICE r2 (stats.py)."""
    from schisma_ray.stages.stats import psi_drift

    profile = {"png": 0.5, "jpeg": 0.5}
    baseline = psi_drift({"png": 50, "jpeg": 50}, profile)
    novel = psi_drift({"png": 50, "jpeg": 25, "webp": 25}, profile)
    assert baseline["statistic"] == pytest.approx(0.0, abs=1e-9)
    # the webp mass alone contributes ~0.25*ln(0.25/1e-6) ≈ 3.1
    assert novel["statistic"] > 1.0
    assert novel["shifted"]


def test_write_partitioned_replacement_keeps_old_on_failure(ray_session, tmp_path):
    """Replacement renames the old output aside before swapping — at no
    point is out_dir absent, and the old data survives until the new one
    is in place — ADVICE r2 (writer.py)."""
    from schisma_ray.sources.writer import read_partitioned, write_partitioned

    out = tmp_path / "out"
    ds1 = rd.from_arrow(pa.table({"k": ["a", "b"], "v": [1, 2]}))
    write_partitioned(ds1, out, partition_cols=["k"])
    ds2 = rd.from_arrow(pa.table({"k": ["a", "c"], "v": [10, 30]}))
    write_partitioned(ds2, out, partition_cols=["k"])
    got = read_partitioned(out).to_pandas().sort_values("v")
    assert got["v"].tolist() == [10, 30]
    assert not (tmp_path / "out.replaced").exists()
    assert not (tmp_path / "out.inprogress").exists()


def test_zip_with_index_empty_keeps_schema(ray_session):
    """Empty input must still carry the index column — ADVICE r2 (rank.py)."""
    from schisma_ray.stages.rank import zip_with_index

    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())})).filter(
        lambda r: False
    )
    out = zip_with_index(empty, index_col="rank")
    schema = out.schema()
    assert "rank" in schema.names
    assert out.count() == 0
    # projecting the index column must not fail
    assert out.select_columns(["rank"]).count() == 0


def test_asof_segmented_key_boundary_and_ties(ray_session, exchange_width):
    """Segmented as-of (one scan per bucket): a right row must not leak
    across a key boundary, and an equal-timestamp right row matches."""
    from schisma_ray.stages.asof import asof_join_latest

    left = rd.from_arrow(pa.table({
        "user_id": pa.array([1, 2, 2], pa.int64()),
        "ts": pa.array([50_000_000, 10_000_000, 40_000_000], pa.int64()),
        "event_id": pa.array([100, 200, 201], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "user_id": pa.array([1, 2], pa.int64()),
        "ts": pa.array([50_000_000, 30_000_000], pa.int64()),
    }))
    exchange_width(4)
    out = (
        asof_join_latest(left, right, key="user_id")
        .to_pandas()
        .set_index("row_id")
    )
    # tie: right ts == left ts counts (at-or-before)
    assert out.loc[100, "asof_epoch_s"] == 50
    # key 2's first event precedes its only right row -> no match; and
    # key 1's right row must not leak into key 2's segment
    assert pd.isna(out.loc[200, "asof_epoch_s"])
    assert out.loc[201, "asof_epoch_s"] == 30


def test_asof_no_per_key_groupby():
    """The as-of source must group by hash bucket (the shared
    ``bucket_apply`` exchange), not by raw key."""
    import inspect

    from schisma_ray.stages import asof

    src = inspect.getsource(asof)
    assert "bucket_apply(" in src
    assert 'groupby("k")' not in src


def test_cross_corpus_duplicates_strategies_parity(ray_session, monkeypatch):
    """Broadcast fold vs bucketed semi-join on the keyed exchange (fold
    limit 0): same duplicate set; no Python-set fold anywhere."""
    import inspect

    from schisma_ray.stages import _bucket
    from schisma_ray.stages import dedup as dd

    src = inspect.getsource(dd.cross_corpus_duplicates)
    assert "set(" not in src and "to_pylist" not in src

    base = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array([f"document body {i}" for i in range(20)], pa.string()),
    }))
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(100, 110), pa.int64()),
        # 5 exact dups of base docs 0..4, 5 fresh docs
        "text": pa.array(
            [f"document body {i}" for i in range(5)]
            + [f"fresh content {i}" for i in range(5)], pa.string()),
    })).repartition(3)
    b = dd.cross_corpus_duplicates(new, base).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    s = dd.cross_corpus_duplicates(new, base).to_pandas()
    assert sorted(b["doc_id"]) == sorted(s["doc_id"]) == list(range(100, 105))
    assert sorted(b["fingerprint"]) == sorted(s["fingerprint"])


def test_prepare_corpus_join_dedup_parity(ray_session, monkeypatch):
    """prepare_corpus(dedup='exact') produces byte-identical chunks with
    the survivor ids broadcast (default) and semi-joined on the keyed
    exchange (fold limit 0)."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus
    from schisma_ray.stages import _bucket

    rows = []
    for i in range(30):
        rows.append({
            "doc_id": i,
            "text": f"some reasonably long english document body {i % 10} "
                    "with enough words to pass the quality threshold easily",
            "lang": "en",
            "source": f"src{i % 3}",
        })
    docs = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    kw = dict(langs=("en",), min_quality=0.0, cap_per_source=0,
              chunk_size=40, chunk_stride=30)
    b = prepare_corpus(docs, dedup="exact", **kw).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    j = prepare_corpus(docs, dedup="exact", **kw).to_pandas()
    key = ["doc_id", "chunk_idx"]
    b = b.sort_values(key).reset_index(drop=True)
    j = j.sort_values(key).reset_index(drop=True)
    assert len(b) > 0
    assert b[["doc_id", "chunk_idx", "chunk_text"]].equals(
        j[["doc_id", "chunk_idx", "chunk_text"]]
    )


def test_prepare_corpus_c4_and_gopher_stages(ray_session):
    """prepare_corpus with the C4 and Gopher knobs == the manual
    composition (c4_clean -> base pipeline with an explicit gopher
    pre-filter)."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus

    good_body = " ".join(
        f"the quick brown word{j} and that piece of text with have be to"
        for j in range(8)
    )
    rows = []
    for i in range(12):
        if i % 4 == 0:
            # fails C4: no terminal punctuation on any line
            text = "\n".join(f"line {j} of doc {i} without punct" for j in range(6))
        elif i % 4 == 1:
            # passes C4 (6 good lines) but fails Gopher (few words kept? no:
            # ensure enough words) -- make it fail gopher via NO stopwords
            text = "\n".join(
                " ".join(f"zz{i}_{j}_{k}" for k in range(10)) + "."
                for j in range(6)
            )
        else:
            text = "\n".join(
                (good_body.split(" ", 1)[0] + f" {i} {j} " + good_body) + "."
                for j in range(6)
            )
        rows.append({"doc_id": i, "text": text, "lang": "en",
                     "source": f"s{i % 2}"})
    docs = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    out = prepare_corpus(
        docs, langs=("en",), min_quality=0.0, chunk_size=80,
        chunk_stride=60, c4_min_lines=5, gopher=True,
    ).to_pandas()
    kept_ids = set(out["doc_id"])
    # i%4==0 dropped by C4, i%4==1 dropped by gopher stopword rule
    assert kept_ids == {i for i in range(12) if i % 4 >= 2}


def test_line_ops_tolerate_null_text(ray_session, exchange_width):
    """A null text row must vanish cleanly (not corrupt offsets of the
    docs after it in the batch, not crash c4_clean)."""
    from schisma_ray.stages.lines import c4_clean, duplicated_lines, line_dedup

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha\nbeta", None, "gamma\nalpha"], pa.string()),
    })
    exchange_width(2)
    out = line_dedup(rd.from_arrow(t)).to_pandas()
    got = {int(r.doc_id): r.text for r in out.itertuples()}
    assert got == {1: "alpha\nbeta", 3: "gamma"}
    dup = duplicated_lines(rd.from_arrow(t)).to_pandas()
    assert dict(zip(dup["line"], dup["n"])) == {"alpha": 2}
    c4 = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["one fine line.\n" * 6, None], pa.string()),
    })
    outc = c4_clean(rd.from_arrow(c4)).to_pandas()
    assert sorted(outc["doc_id"]) == [1]


def test_concat_chunks_exotic_whitespace(ray_session, exchange_width):
    """\\x0b and \\xa0 are NOT separators under the RE2 tokenizer; the
    slicer must agree with the counter (one token 'a\\x0bb', not two)."""
    from schisma_ray.stages.corpus import concat_chunks

    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a\x0bb c", "d\xa0e f"], pa.string()),
    })
    exchange_width(2)
    out = (concat_chunks(rd.from_arrow(t), chunk_tokens=3).to_pandas()
           .sort_values("chunk_id"))
    texts = list(out["text"])
    assert texts == ["a\x0bb c <|eos|>", "d\xa0e f <|eos|>"]
    assert list(out["n_tokens"]) == [3, 3]


def test_lm_score_requires_sentinel(ray_session):
    from schisma_ray.stages.text import lm_score, train_char_bigram_lm

    model = train_char_bigram_lm(["ab"])
    broken = model.filter(
        pa.compute.not_equal(model["bigram"], "")
    )
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["ab"])})
    with pytest.raises(ValueError, match="sentinel"):
        lm_score(rd.from_arrow(t), broken)


def test_convert_round_trip(ray_session, tmp_path):
    """parquet -> jsonl -> csv -> parquet preserves the documents table
    row-for-row (the convert CLI's write_table/read_table dispatch)."""
    from schisma_ray.sources.reader import read_table
    from schisma_ray.sources.writer import write_table

    src = "/root/testdata/sf0.001/documents.parquet"
    base = read_table(src).to_pandas().sort_values("doc_id").reset_index(drop=True)

    j = tmp_path / "docs.jsonl"
    write_table(read_table(src), str(j))
    back_j = read_table(j).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert back_j[base.columns.tolist()].equals(base)

    c = tmp_path / "docs.csv"
    write_table(read_table(j), str(c))
    back_c = read_table(c).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert back_c[base.columns.tolist()].equals(base)

    p = tmp_path / "docs_out"
    write_table(read_table(c), str(p), fmt="parquet")
    back_p = read_table(p).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert back_p[base.columns.tolist()].equals(base)


def test_lm_score_large_string_and_mixed_routing(ray_session):
    """large_string offsets (int64) must parse correctly, and a single
    non-ascii doc routes only ITSELF through the fallback — ascii docs
    in the same batch stay on the buffer path with identical sums."""
    from schisma_ray.stages.text import lm_score, train_char_bigram_lm

    model = train_char_bigram_lm(["hello world"])
    lut = dict(zip(model["bigram"].to_pylist(), model["lp_e6"].to_pylist()))
    floor = lut.pop("")

    def brute(s):
        pairs = [s[i:i + 2] for i in range(len(s) - 1)]
        return (sum(lut.get(p, floor) for p in pairs), len(pairs))

    docs = ["hello", "world hi", "héllo mixed", "plain text"]
    # large_string column
    t_large = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(docs, pa.large_string()),
    })
    out = lm_score(rd.from_arrow(t_large), model).to_pandas()
    got = {int(r.doc_id): (int(r.lp_e6), int(r.n_bigrams))
           for r in out.itertuples()}
    assert got == {i: brute(d) for i, d in enumerate(docs)}
    # regular string column, same mixed batch
    t_small = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(docs, pa.string()),
    })
    out2 = lm_score(rd.from_arrow(t_small), model).to_pandas()
    got2 = {int(r.doc_id): (int(r.lp_e6), int(r.n_bigrams))
            for r in out2.itertuples()}
    assert got2 == got


def test_line_dedup_empty_lines_participate(ray_session, exchange_width):
    """Empty lines are real lines (SQL string_split keeps them): the
    corpus-first empty line survives, later ones drop."""
    from schisma_ray.stages.lines import line_dedup

    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a\n\nb", "c\n\nd"], pa.string()),
    })
    exchange_width(2)
    out = line_dedup(rd.from_arrow(t)).to_pandas()
    got = {int(r.doc_id): (r.text, int(r.n_kept), int(r.n_total))
           for r in out.itertuples()}
    assert got == {1: ("a\n\nb", 3, 3), 2: ("c\nd", 2, 3)}


def test_checks_accept_dictionary_columns(ray_session):
    """Parquet readers may preserve dictionary encoding; value checks
    must decode rather than raise."""
    import pyarrow as pa

    from schisma_ray.stages.table_schema import (
        in_set,
        not_empty,
        range_check,
        regex_match,
    )

    d = pa.array(["png", "bmp", "", "png"]).dictionary_encode()
    assert in_set(("png", "jpeg")).fn(d).tolist() == [False, True, True, False]
    assert not_empty().fn(d).tolist() == [False, False, True, False]
    assert regex_match("^p").fn(d).tolist() == [False, True, True, False]
    n = pa.array([1, 200, 3]).dictionary_encode()
    assert range_check(lo=0, hi=100).fn(n).tolist() == [False, True, False]
