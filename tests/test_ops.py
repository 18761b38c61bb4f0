"""Tests for the training-data operators (dedup, similarity, text)."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs(ray_session):
    import ray.data as rd

    texts = [
        "the quick brown fox jumps over the lazy dog tonight",
        "the quick brown fox jumps over the lazy dog today",  # near-dup of 0
        "completely different content about database engines and queries",
        "the quick brown fox jumps over the lazy dog tonight",  # exact dup of 0
        "short text",
        "another unrelated document discussing music and art history",
    ]
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    )


def test_exact_dedup(docs):
    from schisma_ray.stages.dedup import exact_dedup_keep_first

    kept = sorted(exact_dedup_keep_first(docs, "text", "doc_id").to_pandas()["doc_id"])
    assert kept == [0, 1, 2, 4, 5]  # doc 3 deduped into doc 0


def test_fingerprints(docs):
    import hashlib

    from schisma_ray.stages.dedup import content_fingerprint

    df = content_fingerprint(docs, "text", "doc_id").to_pandas().set_index("doc_id")
    assert df.loc[0, "fingerprint"] == df.loc[3, "fingerprint"]
    assert df.loc[0, "fingerprint"] == hashlib.md5(
        b"the quick brown fox jumps over the lazy dog tonight"
    ).hexdigest()


def test_minhash_dedup(docs):
    from schisma_ray.stages.dedup import minhash_dedup_pairs

    pairs = minhash_dedup_pairs(docs, "text", "doc_id", threshold=0.5).to_pandas()
    got = {(a, b) for a, b in zip(pairs["a"], pairs["b"])}
    assert (0, 3) in got  # exact dup -> jaccard 1.0
    assert (0, 1) in got and (1, 3) in got  # near dups
    assert all(a < b for a, b in got)
    for a, b in got:
        assert {a, b} <= {0, 1, 3}


def test_simhash_dedup(docs):
    from schisma_ray.stages.dedup import simhash_dup_pairs

    pairs = simhash_dup_pairs(docs, "text", "doc_id", max_hamming=3).to_pandas()
    got = {(a, b) for a, b in zip(pairs["a"], pairs["b"])}
    assert (0, 3) in got  # identical -> hamming 0
    hamming = dict(zip(zip(pairs["a"], pairs["b"]),
                       pairs["hamming"]))
    assert hamming[(0, 3)] == 0


@pytest.fixture(scope="module")
def vectors(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    base = rng.standard_normal((40, 16))
    base[7] = base[3] + rng.standard_normal(16) * 0.01  # near-dup pair (3, 7)
    return rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(40), pa.int64()),
                "embedding": pa.array(
                    [row.astype(np.float32).tolist() for row in base],
                    pa.list_(pa.float32()),
                ),
            }
        )
    )


def test_knn_brute_force(vectors):
    from schisma_ray.stages.similarity import knn_brute_force

    tbl = vectors.take_all()
    q = np.array(tbl[3]["embedding"], dtype=np.float64)[None, :]
    out = knn_brute_force(vectors, q, [3], k=3).to_pandas()
    assert len(out) == 3
    top = out.sort_values("sim", ascending=False)["neighbor_id"].tolist()
    assert top[0] == 3 and top[1] == 7  # itself, then the seeded near-dup


def test_ann_lsh_recall(vectors):
    from schisma_ray.stages.similarity import ann_lsh, knn_brute_force

    tbl = vectors.take_all()
    q = np.stack([np.array(tbl[i]["embedding"], dtype=np.float64) for i in (3, 11)])
    exact = knn_brute_force(vectors, q, [3, 11], k=5).to_pandas()
    approx = ann_lsh(vectors, q, [3, 11], k=5, n_bits=4).to_pandas()
    # the probed buckets must contain the query itself and, for q3, the near-dup
    a3 = set(approx[approx.query_id == 3]["neighbor_id"])
    assert 3 in a3 and 7 in a3
    # approximate results are a subset of the corpus with reasonable overlap
    e3 = set(exact[exact.query_id == 3]["neighbor_id"])
    assert len(a3 & e3) >= 2


def test_embedding_near_dups(vectors):
    from schisma_ray.stages.similarity import cosine_near_dup_pairs

    pairs = cosine_near_dup_pairs(vectors, threshold=0.99).to_pandas()
    got = {(a, b) for a, b in zip(pairs["a"], pairs["b"])}
    assert (3, 7) in got


def test_text_metrics_and_quality(docs):
    from schisma_ray.stages.text import quality_score, text_metrics

    m = text_metrics(docs).to_pandas().set_index("doc_id")
    assert m.loc[4, "n_words"] == 2
    assert m.loc[4, "n_chars"] == len("short text")
    q = quality_score(docs).to_pandas()
    assert ((q["score"] >= 0) & (q["score"] <= 1)).all()


def test_lang_id(ray_session):
    import ray.data as rd

    from schisma_ray.stages.text import lang_id

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "the cat and the dog sat in a corner of the room",
                        "der Hund und die Katze sind nicht zu Hause mit der Familie",
                        "这是一个中文句子的例子 用于测试语言识别",
                    ]
                ),
            }
        )
    )
    out = lang_id(ds).to_pandas().set_index("doc_id")
    assert out.loc[1, "lang_pred"] == "en"
    assert out.loc[2, "lang_pred"] == "de"
    assert out.loc[3, "lang_pred"] == "zh"


def test_kernel_batch_parity(ray_session):
    """The batch validator agrees with the row kernel on a table whose
    rows are fed to both (null cell = absent key, per the documented
    mapping)."""
    import ray.data as rd

    from schisma_ray.schema import BigInt, Number, String
    from schisma_ray.stages import ColumnSpec, TableSchema, range_check
    from schisma_ray.stages.validate import TableValidator

    tbl = pa.table(
        {
            "id": pa.array(["r0", "r1", "r2", "r3"]),
            "num": pa.array([1.5, None, 2.5, -1.0], pa.float64()),
            "name": pa.array(["a", "b", None, "d"]),
            "cnt": pa.array([1, 2, 3, None], pa.int64()),
        }
    )
    ts = TableSchema(
        {
            "id": String,
            "num": ColumnSpec(Number, checks=[range_check(0, None)]),
            "name": String,
            "cnt": BigInt,
        },
        id_column="id",
    )
    batch_vio = TableValidator(ts)(tbl)
    got = {
        (r["row_ref"], r["path"], r["code"])
        for r in batch_vio.to_pylist()
    }
    # row kernel over the same rows (nulls dropped = absent keys)
    from schisma_ray.schema import schema as mk

    node = mk({"id": String, "num": Number, "name": String, "cnt": BigInt})
    expected = set()
    for row in tbl.to_pylist():
        rid = row["id"]
        doc = {k: v for k, v in row.items() if v is not None}
        for err in node.validate(doc):
            expected.add((rid, str(err.where), err.code))
    # engine adds the vectorized range 'invalid' on top of kernel parity
    expected.add(("r3", "num", "invalid"))
    assert got == expected


def test_connected_components_and_survivors(docs):
    import pyarrow as pa
    import ray.data as rd

    from schisma_ray.stages._fold import fold_table
    from schisma_ray.stages.components import (
        components_distributed,
        components_from_pairs,
        near_dedup_survivors,
    )

    pairs = pa.table({"a": pa.array([0, 1, 4], pa.int64()),
                      "b": pa.array([1, 3, 5], pa.int64())})
    comp = components_from_pairs(pairs)
    m = dict(zip(comp["node"].to_pylist(), comp["component"].to_pylist()))
    assert m == {0: 0, 1: 0, 3: 0, 4: 4, 5: 4}
    # propagation path must agree with union-find
    comp2 = fold_table(components_distributed(pairs))
    m2 = dict(zip(comp2["node"].to_pylist(), comp2["component"].to_pylist()))
    assert m2 == m
    survivors = sorted(
        near_dedup_survivors(docs, rd.from_arrow(pairs), "doc_id")
        .to_pandas()["doc_id"]
    )
    assert survivors == [0, 2, 4]  # 1,3 fold into 0; 5 folds into 4


def test_minhash_end_to_end_dedup(docs):
    from schisma_ray.stages.components import near_dedup_survivors
    from schisma_ray.stages.dedup import minhash_dedup_pairs

    pairs = minhash_dedup_pairs(docs, "text", "doc_id", threshold=0.5)
    survivors = sorted(
        near_dedup_survivors(docs, pairs, "doc_id").to_pandas()["doc_id"]
    )
    # docs 0,1,3 are one near-dup cluster -> keeper 0
    assert 0 in survivors and 1 not in survivors and 3 not in survivors
    assert {2, 4, 5} <= set(survivors)


def test_ann_ivf_recall(vectors):
    import numpy as np

    from schisma_ray.stages.similarity import ann_ivf, knn_brute_force

    tbl = vectors.take_all()
    q = np.stack([np.array(tbl[i]["embedding"], dtype=np.float64) for i in (3, 11)])
    exact = knn_brute_force(vectors, q, [3, 11], k=5).to_pandas()
    approx = ann_ivf(vectors, q, [3, 11], k=5, n_centroids=4, n_probe=2).to_pandas()
    a3 = set(approx[approx.query_id == 3]["neighbor_id"])
    e3 = set(exact[exact.query_id == 3]["neighbor_id"])
    assert 3 in a3  # self always found (its cell is probed)
    assert len(a3 & e3) >= 3  # decent recall with 2/4 cells probed


def test_batch_validator_conf_flags(ray_session):
    import pyarrow as pa

    from schisma_ray.schema import Number, String
    from schisma_ray.stages import TableSchema
    from schisma_ray.stages.validate import TableValidator

    tbl = pa.table(
        {
            "id": pa.array(["a", "b"]),
            "num": pa.array([1.5, None], pa.float64()),
            "extra": pa.array([1, 2], pa.int64()),
        }
    )
    ts = TableSchema({"id": String, "num": Number}, id_column="id")
    default = TableValidator(ts)(tbl)
    assert {(r["path"], r["code"]) for r in default.to_pylist()} == {
        ("extra", "unexpected key"),
        ("num", "missing key"),
    }
    relaxed = TableValidator(
        ts, conf={"ignoreUnexpected": True, "ignoreRequired": True}
    )(tbl)
    assert relaxed.num_rows == 0


def test_ann_ivf_distributed_training_recall(vectors):
    """train='distributed' (full-corpus spherical k-means, no driver
    sample) must deliver comparable recall and be deterministic across
    repartitioning (sorted folds)."""
    import numpy as np

    from schisma_ray.stages.similarity import ann_ivf, knn_brute_force

    tbl = vectors.take_all()
    q = np.stack([np.array(tbl[i]["embedding"], dtype=np.float64)
                  for i in (3, 11)])
    exact = knn_brute_force(vectors, q, [3, 11], k=5).to_pandas()
    approx = ann_ivf(vectors, q, [3, 11], k=5, n_centroids=4, n_probe=2,
                     train="distributed").to_pandas()
    for qid in (3, 11):
        a = set(approx[approx.query_id == qid]["neighbor_id"])
        e = set(exact[exact.query_id == qid]["neighbor_id"])
        assert qid in a  # self always found
        assert len(a & e) >= 3
    # parallelism-invariant: same result from a different block layout
    again = ann_ivf(vectors.repartition(7), q, [3, 11], k=5, n_centroids=4,
                    n_probe=2, train="distributed").to_pandas()
    key = ["query_id", "neighbor_id"]
    assert sorted(map(tuple, approx[key].values.tolist())) == \
           sorted(map(tuple, again[key].values.tolist()))


def test_ivf_train_distributed_centroids_normalized(vectors):
    import numpy as np

    from schisma_ray.stages.similarity import ivf_train_distributed

    c = ivf_train_distributed(vectors, n_centroids=4, iters=3)
    assert c.shape == (4, 16)
    assert np.allclose(np.linalg.norm(c, axis=1), 1.0)
