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


# ------------------------------------------- one eager keyed fold, both sides
def _events() -> rd.Dataset:
    day = 86_400_000_000
    ts = [d * day + h * 3_600_000_000 for d in range(5) for h in range(d + 2)]
    n = len(ts)
    texts = ["the cat sat on the mat with the dog", "le chat est sur le tapis",
             "der Hund ist auf der Matte", None]
    return rd.from_arrow(pa.table({
        "ts": pa.array(ts, pa.int64()),
        "g": pa.array([["a", "b", None][i % 3] for i in range(n)], pa.string()),
        "x": pa.array([i % 4 for i in range(n)], pa.int64()),
        "y": pa.array([None if i % 5 == 0 else i for i in range(n)], pa.int64()),
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([texts[i % 4] for i in range(n)], pa.string()),
        "lang": pa.array([["en", "fr", "de", None][i % 4] for i in range(n)],
                         pa.string()),
    })).repartition(3)


def _keyed_folds():
    from schisma_ray.stages import stats, text

    return {
        "ewma_anomalies": lambda ds: stats.ewma_anomalies(ds, "ts"),
        "grouped_moments": lambda ds: stats.grouped_moments(ds, "g", "x", "y"),
        "lang_confusion": lambda ds: text.lang_confusion(ds),
    }


@pytest.mark.parametrize("name", sorted(_keyed_folds()))
def test_keyed_fold_sides_agree(ray_session, monkeypatch, name):
    """Past ``_DRIVER_FOLD_ROWS`` a keyed fold sums its partials on the
    keyed exchange (a spy on ``bucket_apply`` shows it ran) and returns
    the rows the driver fold returns."""
    run = _keyed_folds()[name]
    applied = []
    apply = _bucket.bucket_apply

    def spy(*args, **kwargs):
        applied.append(args[2].__name__)
        return apply(*args, **kwargs)

    monkeypatch.setattr(_bucket, "bucket_apply", spy)
    driver = run(_events())
    assert not applied
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    exchange = run(_events())
    assert applied
    assert driver.num_rows
    assert exchange.schema == driver.schema
    assert sorted(map(repr, exchange.to_pylist())) == sorted(
        map(repr, driver.to_pylist()))


def test_duplicate_keys_collects_only_duplicated_keys(ray_session, monkeypatch):
    """Past ``_DRIVER_FOLD_ROWS`` each bucket of the exchange keeps only
    its keys counted more than once: a spy on what ``_bucket._concat``
    brings to the driver sees the one duplicated key of 2,001, not a row
    per distinct key."""
    from schisma_ray.stages.uniqueness import duplicate_keys

    keys = pa.array([*range(2_000), 7], pa.int64())
    ds = rd.from_arrow(pa.table({"k": keys})).repartition(4)
    collected = []
    concat = _bucket._concat

    def spy(mat):
        out = concat(mat)
        collected.append(out.num_rows)
        return out

    monkeypatch.setattr(_bucket, "_concat", spy)
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    dup = duplicate_keys(ds, "k")
    assert dup.to_pylist() == [{"k": 7, "partial": 2}]
    assert collected == [1]


def test_fold_combine_of_filtered_out_input_runs_its_plan_once(
        ray_session, tmp_path):
    """A projection that drops every row leaves no partial block with
    columns; the empty result is not typed by running the plan again."""
    t = pa.table({"k": pa.array([1, 2, 2], pa.int32()),
                  "v": pa.array([1, 2, 3], pa.int64())})
    calls = tmp_path / "calls"

    def drop(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["k"], 100))

    ds = _counted(rd.from_arrow(t), calls).map_batches(
        drop, batch_format="pyarrow", zero_copy_batch=True)
    out = _bucket.fold_combine(ds, "k", {"n": ("v", "count_all")})
    assert out.num_rows == 0 and out.column_names == ["k", "n"]
    assert _calls(calls) == 1


# ----------------------------------------------- typed empty fold results
def test_duplicate_keys_of_empty_string_keys_feed_is_in(ray_session):
    from schisma_ray.stages.uniqueness import duplicate_keys

    empty = rd.from_arrow(pa.table({"image_id": pa.array([], pa.string())}))
    dup = duplicate_keys(empty, "image_id")
    assert dup.num_rows == 0 and dup.schema.field("image_id").type == pa.string()
    ids = pa.array(["a", "b"], pa.string())
    keys = dup["image_id"].combine_chunks()
    assert pc.is_in(ids, value_set=keys).to_pylist() == [False, False]


# -------------------------------------- one semi/anti-join, both sides
#: probe keys: a duplicated key, and blocks that are empty or all null
_PROBE_BLOCKS = ([0, 1, 2, 3], [], [None, None], [4, 5, 5, 6])


def _key(kind: str, values) -> pa.Array:
    if kind == "int":
        return pa.array(values, pa.int64())
    return pa.array([None if v is None else f"k{v}" for v in values], pa.string())


def _probe(kind: str, make) -> rd.Dataset:
    """One block per entry of ``_PROBE_BLOCKS``, each ``make(keys)``."""
    return rd.from_arrow([make(_key(kind, vals)) for vals in _PROBE_BLOCKS])


def _docs_of(ids: pa.Array) -> pa.Table:
    texts = [f"shared document text number {i % 3} about rivers and hills"
             for i in range(len(ids))]
    return pa.table({"doc_id": ids, "text": pa.array(texts, pa.string()),
                     "lang": pa.array(["en"] * len(ids), pa.string()),
                     "source": pa.array(["s"] * len(ids), pa.string())})


def _membership_callers():
    """caller name -> run(kind, empty_keys) giving a Dataset."""
    from schisma_ray.pipelines.corpus_pipeline import prepare_corpus
    from schisma_ray.stages.components import near_dedup_survivors
    from schisma_ray.stages.referential import referential_violations
    from schisma_ray.stages.uniqueness import uniqueness_violations

    def referential(kind, empty):
        # differently named key columns; the reference side holds a null
        ref = pa.table({"c_custkey": _key(kind, [] if empty else [0, 2, 5, None])})
        return referential_violations(
            _probe(kind, lambda k: pa.table({"o_custkey": k})), "o_custkey",
            rd.from_arrow(ref))

    def uniqueness(kind, empty):
        def rows(k):
            k = pc.unique(k) if empty else k  # no key side: no duplicates
            return pa.table({"row": pc.cast(k, pa.string()), "key": k})

        return uniqueness_violations(_probe(kind, rows), "key", id_column="row")

    def cross_corpus(kind, empty):
        def new(k):  # a null id comes with a null text: no fingerprint
            t = _docs_of(k)
            return t.set_column(1, "text", pc.if_else(
                pc.is_valid(k), t["text"], pa.scalar(None, pa.string())))

        texts = [] if empty else [_docs_of(_key(kind, [0, 1]))["text"][1].as_py(),
                                  None]
        base = pa.table({"doc_id": _key(kind, range(len(texts))),
                         "text": pa.array(texts, pa.string())})
        return dedup.cross_corpus_duplicates(_probe(kind, new), rd.from_arrow(base))

    def near_dedup(kind, empty):
        pairs = pa.table({"a": _key(kind, [] if empty else [1, 4]),
                          "b": _key(kind, [] if empty else [2, 6])})
        return near_dedup_survivors(
            _probe(kind, lambda k: pa.table({"doc_id": k})), rd.from_arrow(pairs),
            "doc_id")

    def prepare(kind, empty):
        # no key side: every document filtered out, so no survivor ids
        return prepare_corpus(_probe(kind, _docs_of),
                              langs=("fr",) if empty else ("en",),
                              min_quality=0.0, chunk_size=40, chunk_stride=30,
                              dedup="exact")

    return {"referential_violations": referential,
            "uniqueness_violations": uniqueness,
            "cross_corpus_duplicates": cross_corpus,
            "near_dedup_survivors": near_dedup,
            "prepare_corpus": prepare}


def _rows_and_columns(ds):
    import ray

    # materialized first: ``to_arrow_refs`` of a lazy Dataset runs its plan twice
    blocks = [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_columns]
    names = [b.schema.names for b in blocks]
    assert all(n == names[0] for n in names)
    rows = sorted(repr(sorted(r.items())) for b in blocks for r in b.to_pylist())
    return rows, names[:1]


@pytest.mark.parametrize("empty", [False, True], ids=["keys", "no_keys"])
@pytest.mark.parametrize("kind", ["int", "str"])
@pytest.mark.parametrize("caller", sorted(_membership_callers()))
def test_membership_sides_agree(ray_session, monkeypatch, caller, kind, empty):
    """Every membership check gives the same rows and columns on both
    sides of the key-side switch: folded and broadcast by default, on
    the keyed exchange with ``_DRIVER_FOLD_ROWS`` patched to 0 (a spy on
    ``bucket_cogroup`` shows the exchange ran whenever there are keys;
    an empty key side always folds)."""
    run = _membership_callers()[caller]
    exchanges = []
    cogroup = _bucket.bucket_cogroup

    def spy(*args, **kwargs):
        exchanges.append(args[4].__name__)
        return cogroup(*args, **kwargs)

    monkeypatch.setattr(_bucket, "bucket_cogroup", spy)
    driver = _rows_and_columns(run(kind, empty))
    assert not [e for e in exchanges if e.endswith("_join")]
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    exchange = _rows_and_columns(run(kind, empty))
    assert exchange == driver
    assert driver[0] or empty
    assert bool([e for e in exchanges if e.endswith("_join")]) == (not empty)


@pytest.mark.parametrize("anti", [False, True], ids=["semi", "anti"])
def test_semi_join_null_and_type_rules(ray_session, side, anti):
    """A null key never matches, whether in the probe or the key side,
    and int64 keys meet an int32 probe column of another name (a
    negative key hashes apart across widths unless routed as int64)."""
    probe = rd.from_arrow([
        pa.table({"k": pa.array([-1, 2, None], pa.int32()),
                  "v": pa.array(["a", "b", "c"])}),
        pa.table({"k": pa.array([], pa.int32()), "v": pa.array([], pa.string())}),
        pa.table({"k": pa.array([3, -5], pa.int32()), "v": pa.array(["d", "e"])}),
    ])
    keys = rd.from_arrow(pa.table({"key": pa.array([-1, 3, None, 7], pa.int64())}))
    rows, columns = _rows_and_columns(_bucket.semi_join(probe, "k", keys, anti=anti))
    want = ([("b", 2), ("c", None), ("e", -5)] if anti else [("a", -1), ("d", 3)])
    assert rows == sorted(repr(sorted({"k": k, "v": v}.items())) for v, k in want)
    assert columns == [["k", "v"]]
