"""The fold-or-exchange switch and the schema of empty results.

``_bucket.fold_or_apply`` materializes its input once and, by the row
count in the block metadata, runs its function once on the driver or
per bucket on the keyed exchange. Both sides give the same rows, every
pair producer returns a Dataset with its declared columns on both sides
(no pairs included), and the exchange side never re-reads its input.
"""

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from schisma_ray.stages import _bucket, dedup


@pytest.fixture(params=["driver", "exchange"])
def side(request, monkeypatch):
    """Run a test on each side of the size switches."""
    if request.param == "exchange":
        monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
        monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    return request.param


# ----------------------------------------------------------- the switch
def test_fold_or_apply_sides_agree(ray_session, monkeypatch):
    """The same function and combine on both sides: one driver call, or
    per bucket plus a per-key fold of what several buckets emit."""
    t = pa.table({"g": pa.array([i % 7 for i in range(60)], pa.int64()),
                  "k": pa.array([i % 5 for i in range(60)], pa.int64()),
                  "v": pa.array(range(60), pa.int64())})
    ds = rd.from_arrow(t).repartition(3)

    def per_key_max(t: pa.Table) -> pa.Table:
        return t.group_by("k", use_threads=False).aggregate([("v", "max")])

    def run():
        out = _bucket.fold_or_apply(
            ds, "g", per_key_max, schema={"k": "k", "v_max": "v"},
            combine=(["k"], {"v_max": ("v_max", "max")}))
        return out.to_pandas().sort_values("k").values.tolist()

    driver = run()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_BYTES", 0)
    by_bytes = run()
    monkeypatch.undo()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    assert run() == by_bytes == driver == [[k, 55 + k] for k in range(5)]


def _counted(ds, path: Path):
    """``ds`` behind a map that appends one line to ``path`` per call."""

    def count(t: pa.Table) -> pa.Table:
        with open(path, "a") as f:
            f.write("x\n")
        return t

    return ds.map_batches(count, batch_format="pyarrow", batch_size=None)


def _calls(path: Path) -> int:
    return len(path.read_text().splitlines()) if path.exists() else 0


def test_overflow_reads_minhash_input_once(ray_session, monkeypatch, tmp_path):
    """Past the limit the banded rows run per bucket from the blocks
    materialized for the count: the corpus is read once for banding and
    once for the payload fetch of the verification, never re-banded."""
    texts = [f"quick brown fox jumps over the lazy dog {i} " * 4 for i in range(12)]
    texts += [t + "x" for t in texts[:3]]
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3).materialize()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    calls = tmp_path / "calls"
    out = dedup.minhash_dedup_pairs(_counted(corpus, calls), "text", "doc_id",
                                    threshold=0.8).to_pandas()
    assert sorted(zip(out["a"], out["b"])) == [(i, i + 12) for i in range(3)]
    assert _calls(calls) == 2 * corpus.num_blocks()


def test_overflow_reads_hamming_input_once(ray_session, monkeypatch, tmp_path):
    values = [0, 1, 3, 1 << 40, -1, -2, 12345, 1 << 20]
    sigs = rd.from_arrow(pa.table({
        "id": pa.array(range(len(values)), pa.int64()),
        "sig": pa.array(values, pa.int64()),
    })).repartition(4).materialize()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    calls = tmp_path / "calls"
    out = dedup.hamming_near_dup_pairs(_counted(sigs, calls), sig_col="sig",
                                       id_col="id").to_pandas()
    want = [(i, j, dedup._hamming64(values[i], values[j]))
            for i in range(len(values)) for j in range(i + 1, len(values))]
    assert sorted(zip(out["a"], out["b"], out["hamming"])) == [
        w for w in want if w[2] <= 3]
    assert _calls(calls) == sigs.num_blocks()


def test_verify_switch_counts_distinct_pairs(ray_session, monkeypatch):
    """Three identical docs collide in all 16 MinHash bands: 48 candidate
    rows, 3 distinct pairs. The verification limit applies to the 3."""
    texts = ["the same sentence about rivers and hills"] * 3
    texts += ["an unrelated line on cooking pasta slowly"]
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(4), pa.int64()),
                                 "text": pa.array(texts, pa.string())}))
    assert dedup.minhash_candidate_pairs(ds, "text", "doc_id").count() == 48
    bucketed = []
    verify = dedup._verify_pairs_bucketed

    def spy(*args, **kwargs):
        bucketed.append(1)
        return verify(*args, **kwargs)

    monkeypatch.setattr(dedup, "_verify_pairs_bucketed", spy)
    want = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
    for limit, used in ((3, []), (2, [1])):
        bucketed.clear()
        monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", limit)
        out = dedup.minhash_dedup_pairs(ds, "text", "doc_id").to_pandas()
        assert sorted(zip(out["a"], out["b"], out["jaccard"])) == want
        assert bucketed == used


# ------------------------------------- empty pair results, both sides
def _docs():
    texts = ["alpha beta gamma delta epsilon zeta eta theta",
             "mountain weather forecast models predict rain today",
             "a completely unrelated sentence about cooking pasta"]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "name": pa.array(["anna", "bartholomew", "cx"], pa.string()),
        "seg": pa.array(["A", "B", "C"], pa.string()),
        "cents": pa.array([1, 2, 3], pa.int64()),
        "sig": pa.array([0, -1, 0x0F0F0F0F0F0F0F0F], pa.int64()),
        "embedding": pa.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                              pa.list_(pa.float64())),
    }))


def _producers():
    from schisma_ray.stages import similarity

    cents = np.eye(3)
    return {
        "minhash_candidate_pairs": (
            lambda ds: dedup.minhash_candidate_pairs(ds, "text", "doc_id"),
            ["a", "b"]),
        "minhash_dedup_pairs": (
            lambda ds: dedup.minhash_dedup_pairs(ds, "text", "doc_id"),
            ["a", "b", "jaccard"]),
        "ngram_jaccard_pairs": (
            lambda ds: dedup.ngram_jaccard_pairs(ds, "text", "doc_id",
                                                 num_buckets=4),
            ["a", "b", "jaccard"]),
        "simhash_dup_pairs": (
            lambda ds: dedup.simhash_dup_pairs(ds, "text", "doc_id",
                                               max_hamming=0),
            ["a", "b", "hamming"]),
        "hamming_near_dup_pairs": (
            lambda ds: dedup.hamming_near_dup_pairs(ds, sig_col="sig",
                                                    id_col="doc_id"),
            ["a", "b", "hamming"]),
        "cross_corpus_near_duplicates": (
            lambda ds: dedup.cross_corpus_near_duplicates(
                ds.filter(lambda r: r["doc_id"] == 0),
                ds.filter(lambda r: r["doc_id"] > 0)),
            ["new_id", "base_id", "jaccard"]),
        "edit_distance_pairs": (
            lambda ds: dedup.edit_distance_pairs(ds, "name", "doc_id"),
            ["a", "b", "dist"]),
        "record_linkage_scores": (
            lambda ds: dedup.record_linkage_scores(
                ds, id_col="doc_id", name_col="name", exact_cols=["seg"],
                value_col="cents", value_tol=1),
            ["a", "b", "name_dist", "n_exact_agree", "value_close", "score"]),
        "cosine_near_dup_pairs": (
            lambda ds: similarity.cosine_near_dup_pairs(ds, id_col="doc_id"),
            ["a", "b", "sim"]),
        "semdedup_pairs": (
            lambda ds: similarity.semdedup_pairs(ds, cents, id_col="doc_id"),
            ["a", "b", "sim"]),
    }


@pytest.mark.parametrize("name", sorted(_producers()))
def test_pair_producer_declares_columns_without_pairs(ray_session, side, name):
    produce, columns = _producers()[name]
    out = produce(_docs())
    assert isinstance(out, rd.Dataset)
    assert out.count() == 0
    assert out.schema().names == columns


# ----------------------------------------------- typed empty fold results
def test_duplicate_keys_of_empty_string_keys_feed_is_in(ray_session):
    from schisma_ray.stages.uniqueness import duplicate_keys

    empty = rd.from_arrow(pa.table({"image_id": pa.array([], pa.string())}))
    dup = duplicate_keys(empty, "image_id")
    assert dup.num_rows == 0 and dup.schema.field("image_id").type == pa.string()
    ids = pa.array(["a", "b"], pa.string())
    keys = dup["image_id"].combine_chunks()
    assert pc.is_in(ids, value_set=keys).to_pylist() == [False, False]
