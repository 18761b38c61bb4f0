"""The pair chain past the driver limit: pairs -> components ->
survivors with NO driver pa.Table hop for pair rows anywhere.

The proof is structural: every driver fold a pair producer or
``near_dedup_survivors`` may take goes through ``_bucket.fold_small``.
With the fold limits forced to 0, a spy on it asserts that it never
hands back a row, and the chain still produces the results of the
default (driver-fold) path.
"""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from schisma_ray.stages import _bucket, components, dedup


def _docs():
    texts = [f"quick brown fox jumps over the lazy dog {i} " * 5 for i in range(24)]
    # 5 near-dup partners (one appended token -> jaccard ~0.95)
    texts += [t + "x" for t in texts[:5]]
    ids = list(range(len(texts)))
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )


@pytest.fixture
def no_pair_folds(monkeypatch):
    fold_small = _bucket.fold_small

    def spy(ds, limit=None, max_bytes=None):
        mat, rows = fold_small(ds, limit, max_bytes)
        assert rows is None or rows.num_rows == 0, "pair rows folded on the driver"
        return mat, rows

    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    monkeypatch.setattr(components, "_UNION_FIND_PAIRS", 0)
    for module in (_bucket, dedup, components):
        monkeypatch.setattr(module, "fold_small", spy)


def _pairs_key(t):
    return sorted(zip(t["a"], t["b"]))


def test_minhash_pairs_dataset_parity(ray_session, no_pair_folds):
    ds = _docs()
    got = dedup.minhash_dedup_pairs(ds, "text", "doc_id", threshold=0.8)
    assert hasattr(got, "map_batches")  # a Dataset, not a table
    got_tbl = got.to_pandas()
    # the driver path is parity-tested elsewhere; pin the expected pairs
    assert _pairs_key(got_tbl) == [(i, i + 24) for i in range(5)]
    assert all(j >= 0.8 for j in got_tbl["jaccard"])


def test_simhash_pairs_dataset_parity(ray_session, no_pair_folds, monkeypatch):
    ds = _docs()
    got = dedup.simhash_dup_pairs(ds, "text", "doc_id", max_hamming=3)
    assert hasattr(got, "map_batches")
    got_tbl = got.to_pandas()
    # planted near-dups must be found...
    planted = set((i, i + 24) for i in range(5))
    assert planted <= set(_pairs_key(got_tbl))
    # ...and the pair set must match the driver-fold path exactly
    monkeypatch.undo()  # restore the limits and fold_small for the reference
    drv = dedup.simhash_dup_pairs(ds, "text", "doc_id", max_hamming=3).to_pandas()
    assert _pairs_key(drv) == _pairs_key(got_tbl)


def test_full_chain_pairs_to_survivors_no_driver_hop(ray_session, no_pair_folds):
    """pairs (Dataset) -> components_distributed -> survivors, anti-joined
    on the keyed exchange: every stage a Dataset; pair rows and
    non-keeper ids provably never folded."""
    from schisma_ray.stages.components import near_dedup_survivors

    ds = _docs()
    pairs_ds = dedup.minhash_dedup_pairs(ds, "text", "doc_id", threshold=0.8)
    survivors = near_dedup_survivors(ds, pairs_ds, "doc_id")
    got = sorted(survivors.to_pandas()["doc_id"].tolist())
    # dups 24..28 collapse onto keepers 0..4 -> all originals survive
    assert got == list(range(24))


def test_chain_broadcast_strategy_with_dataset_pairs(ray_session, monkeypatch):
    """Distributed components whose non-keeper ids fold: the anti-join
    broadcasts them, with no exchange, and agrees with the union-find."""
    from schisma_ray.stages.components import near_dedup_survivors

    ds = _docs()
    pairs_ds = dedup.minhash_dedup_pairs(ds, "text", "doc_id", threshold=0.8)
    union_find = near_dedup_survivors(ds, pairs_ds, "doc_id")
    monkeypatch.setattr(components, "_UNION_FIND_PAIRS", 0)
    exchanges = []
    cogroup = _bucket.bucket_cogroup

    def spy(*args, **kwargs):
        exchanges.append(args[4].__name__)
        return cogroup(*args, **kwargs)

    monkeypatch.setattr(_bucket, "bucket_cogroup", spy)
    survivors = near_dedup_survivors(ds, pairs_ds, "doc_id")
    assert sorted(survivors.to_pandas()["doc_id"].tolist()) == list(range(24))
    assert sorted(union_find.to_pandas()["doc_id"].tolist()) == list(range(24))
    assert "anti_join" not in exchanges


def test_dataset_path_matches_table_path(ray_session, monkeypatch):
    """Value parity between the per-bucket side of both switches and the
    (oracled) driver-fold side, including jaccard metrics."""
    ds = _docs()
    tbl = dedup.minhash_dedup_pairs(ds, "text", "doc_id", threshold=0.8).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    ds_out = dedup.minhash_dedup_pairs(ds, "text", "doc_id",
                                       threshold=0.8).to_pandas()
    key = lambda t: sorted(zip(t["a"], t["b"], t["jaccard"]))
    assert len(tbl) and key(tbl) == key(ds_out)


def test_cosine_pairs_dataset_parity(ray_session, monkeypatch):
    from schisma_ray.stages.similarity import cosine_near_dup_pairs

    rng = np.random.default_rng(11)
    base = rng.normal(size=(30, 16)).astype(np.float32)
    base[20] = base[0] + 0.001  # planted near-dup
    tbl = pa.table(
        {
            "vec_id": pa.array(range(30), pa.int64()),
            "embedding": pa.array([v.tolist() for v in base],
                                  pa.list_(pa.float32())),
        }
    )
    ds = rd.from_arrow(tbl)
    drv = cosine_near_dup_pairs(ds, threshold=0.99).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    dist = cosine_near_dup_pairs(ds, threshold=0.99).to_pandas()
    key = lambda t: sorted(zip(t["a"], t["b"]))
    assert key(drv) == key(dist) == [(0, 20)]


def test_empty_corpus_dataset_chain(ray_session, no_pair_folds):
    empty = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )
    out = dedup.minhash_dedup_pairs(empty, "text", "doc_id", threshold=0.8)
    assert out.count() == 0
    assert out.schema().names == ["a", "b", "jaccard"]
