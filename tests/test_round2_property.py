"""Property tests for round-2 pure kernels (no Ray in the loop) plus
randomized Ray-operator equivalences on a few seeds.

* simhash64_batch == scalar simhash64 for arbitrary unicode text lists
* MinHasher.signatures_batch == per-doc signature() (chunking included)
* key_bucket stays in range and is deterministic
* approx_quantiles tracks exact quantiles within one bin width
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from schisma_ray.stages._bucket import key_bucket
from schisma_ray.stages.components import _union_find
from schisma_ray.stages.dedup import MinHasher, simhash64, simhash64_batch

texts_strategy = st.lists(
    st.one_of(
        st.none(),
        st.text(max_size=80),
        st.text(alphabet=" abcdef", max_size=200),  # whitespace-heavy
    ),
    min_size=0,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(texts_strategy)
def test_simhash_batch_matches_scalar(texts):
    got = simhash64_batch(texts)
    exp = np.asarray([simhash64(t or "") for t in texts], dtype=np.int64)
    assert np.array_equal(got, np.asarray(exp, dtype=np.int64))


@settings(max_examples=30, deadline=None)
@given(texts_strategy)
def test_minhash_batch_matches_scalar(texts):
    m = MinHasher("text", "doc_id", num_perm=16)
    m._CHUNK_TOKENS = 7  # force many tiny chunks through the reduceat path
    got = m.signatures_batch(texts)
    exp = np.stack([m.signature(t or "") for t in texts]) if texts else got
    assert np.array_equal(got, exp)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=50),
       st.sampled_from([2, 16, 64, 100]))
def test_key_bucket_range_and_determinism(nodes, num_buckets):
    arr = pa.array(np.asarray(nodes, dtype=np.int64))
    b1 = key_bucket(arr, num_buckets).to_numpy()
    b2 = key_bucket(arr, num_buckets).to_numpy()
    assert np.array_equal(b1, b2)
    assert b1.min() >= 0 and b1.max() < num_buckets


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=0, max_size=80))
def test_union_find_label_is_component_min(edges):
    labels = _union_find([(a, b) for a, b in edges])
    # every label must be reachable and be <= its node; applying the
    # labeling twice is a fixpoint (path compression complete)
    for node, lbl in labels.items():
        assert lbl <= node
        assert labels.get(lbl, lbl) == lbl


def test_approx_quantiles_within_bin_width(ray_session):
    import ray.data as rd

    from schisma_ray.stages.rank import approx_quantiles, exact_quantiles

    rng = np.random.default_rng(5)
    vals = rng.exponential(scale=100.0, size=20_000)
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.float64())})).repartition(8)
    qs = [0.1, 0.5, 0.9, 0.99]
    approx = approx_quantiles(ds, "x", qs, bins=2048).to_pydict()["value"]
    exact = exact_quantiles(ds, "x", qs).to_pydict()["value"]
    bin_w = (vals.max() - vals.min()) / 2048
    for a, e in zip(approx, exact):
        assert abs(a - e) <= bin_w + 1e-9, (a, e, bin_w)


def test_approx_quantiles_constant_column(ray_session):
    import ray.data as rd

    from schisma_ray.stages.rank import approx_quantiles

    ds = rd.from_arrow(pa.table({"x": pa.array([7.0] * 100, pa.float64())}))
    out = approx_quantiles(ds, "x", [0.0, 0.5, 1.0]).to_pydict()
    assert out["value"] == [7.0, 7.0, 7.0]


def test_rolling_hash_brute_force():
    from schisma_ray.stages.dedup import rolling_hashes

    B = 1000003
    data = b"hello rolling world"
    k = 5
    exp = []
    for i in range(len(data) - k + 1):
        v = 0
        for j in range(k):
            v = (v + data[i + j] * pow(B, j, 2**64)) % 2**64
        exp.append((v * pow(B, k - 1, 2**64)) % 2**64)
    assert rolling_hashes(data, k).tolist() == exp


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=120), st.integers(2, 10))
def test_rolling_hash_position_independent(data, k):
    from schisma_ray.stages.dedup import rolling_hashes

    h = rolling_hashes(data, k)
    assert len(h) == max(0, len(data) - k + 1)
    shifted = rolling_hashes(b"ZZ" + data, k)
    if len(h):
        assert set(h.tolist()) <= set(shifted.tolist())


def test_winnow_overlap_pairs(ray_session):
    import ray.data as rd

    from schisma_ray.stages.dedup import winnow_overlap_pairs

    base = "the quick brown fox jumps over the lazy dog near the riverbank today"
    texts = [f"doc {i} unrelated filler content with words {i*7} {i*13}" for i in range(10)]
    texts += [f"prefix {i} " + base + f" suffix {i}" for i in range(3)]  # ids 10,11,12
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                                 "text": pa.array(texts, pa.string())}))
    pairs = winnow_overlap_pairs(ds, "text", "doc_id", k=8, window=4, min_shared=3)
    by_shared = sorted(
        zip(pairs["shared"].to_pylist(), pairs["a"].to_pylist(), pairs["b"].to_pylist()),
        reverse=True,
    )
    got = set(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()))
    assert {(10, 11), (10, 12), (11, 12)} <= got
    # the docs sharing the long planted paragraph dominate the overlap
    # ranking (filler docs share only their common template substring)
    top3 = {(a, b) for _, a, b in by_shared[:3]}
    assert top3 == {(10, 11), (10, 12), (11, 12)}


def test_grouped_vector_mean(ray_session):
    import ray.data as rd

    from schisma_ray.stages.topk import grouped_vector_mean

    rng = np.random.default_rng(9)
    n, dim = 300, 8
    labels = rng.integers(0, 3, n)
    mat = rng.standard_normal((n, dim))
    ds = rd.from_arrow(
        pa.table({"label": pa.array(labels, pa.int32()),
                  "embedding": pa.array(mat.tolist(), pa.list_(pa.float64()))})
    ).repartition(5)
    out = grouped_vector_mean(ds, "label", "embedding").to_pandas()
    for lbl in range(3):
        exp = np.round(mat[labels == lbl].mean(axis=0), 6)
        got = out[out["label"] == lbl].sort_values("dim")["mean_v"].to_numpy()
        assert np.allclose(got, exp, atol=1e-6), lbl
