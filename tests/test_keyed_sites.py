"""Keyed-aggregation sites whose results depend on more than the exchange:
the packed argmin of ``dedup_lang_shift``, the capped populations of
``event_type_lift`` and the payload packing of ``record_linkage_scores``."""

from itertools import combinations

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


def _half_up(n, d):
    return (2_000_000 * n + d) // (2 * d) if d else 0


def test_dedup_lang_shift_picks_the_numeric_min_of_negative_ids(ray_session):
    from schisma_ray.stages.dedup import dedup_lang_shift

    # "a": ids -5 (en) and -3 (fr) -> survivor -5; as zero-padded
    # decimal strings "-3" sorts below "-5" and credited fr
    docs = pd.DataFrame({
        "doc_id": [-5, -3, 2, -20, 7, -1, 0],
        "text": ["a", "a", "b", "b", "c", "d", "d"],
        "lang": ["en", "fr", "fr", "de", "en", "fr", "de"],
    })
    out = dedup_lang_shift(rd.from_pandas(docs).repartition(3)).to_pandas()
    survivors = docs.loc[docs.groupby("text")["doc_id"].idxmin()]
    before = docs["lang"].value_counts()
    after = survivors["lang"].value_counts()
    got = out.set_index("lang")
    assert sorted(got.index) == sorted(before.index)
    for lang in got.index:
        assert got.loc[lang, "n_before"] == before.get(lang, 0)
        assert got.loc[lang, "n_after"] == after.get(lang, 0), lang
        assert got.loc[lang, "share_after_e6"] == _half_up(
            after.get(lang, 0), len(survivors))


def test_dedup_lang_shift_rejects_non_integer_ids(ray_session):
    from schisma_ray.stages.dedup import dedup_lang_shift

    docs = pd.DataFrame({"doc_id": ["x1", "x2"], "text": ["a", "a"],
                         "lang": ["en", "fr"]})
    with pytest.raises(TypeError, match="integer ids"):
        dedup_lang_shift(rd.from_pandas(docs))


def test_event_type_lift_counts_one_population_when_capped(ray_session):
    from schisma_ray.stages.window import event_type_lift

    events = pd.DataFrame({
        "user_id": [1, 1, 1, 2, 2, 3, 4, 4, 5, 5, 5, 5, 6, 6],
        "event_type": ["a", "b", "c", "a", "b", "a", "b", "c",
                       "a", "b", "c", "d", "a", "c"],
    })
    out = event_type_lift(rd.from_pandas(events).repartition(3),
                          max_types_per_key=2).to_pandas()

    # the uncapped keys alone: users with at most 2 distinct types
    types = events.drop_duplicates().groupby("user_id")["event_type"]
    kept = {u: sorted(ts) for u, ts in types if len(set(ts)) <= 2}
    n_keys = len(kept)
    n_of = pd.Series([t for ts in kept.values() for t in ts]).value_counts()
    pairs = pd.Series([p for ts in kept.values()
                       for p in combinations(ts, 2)]).value_counts()
    want = sorted(
        (a, b, n_ab, n_of[a], n_of[b],
         _half_up(n_ab, n_of[a]), _half_up(n_ab, n_of[b]),
         (2_000_000 * n_ab * n_keys + n_of[a] * n_of[b])
         // (2 * n_of[a] * n_of[b]))
        for (a, b), n_ab in pairs.items())
    cols = ["type_a", "type_b", "n_ab", "n_a", "n_b", "conf_a_to_b_e6",
            "conf_b_to_a_e6", "lift_e6"]
    got = sorted(tuple(r) for r in out[cols].itertuples(index=False))
    assert got == want


def _customers(names, cities):
    return rd.from_pandas(pd.DataFrame({
        "id": list(range(len(names))), "name": names, "city": cities,
        "bal": [100] * len(names)}))


def test_record_linkage_rejects_more_than_nine_exact_cols():
    from schisma_ray.stages.dedup import record_linkage_scores

    with pytest.raises(ValueError, match="at most 9"):
        record_linkage_scores(None, id_col="id", name_col="name",
                              exact_cols=[f"c{i}" for i in range(10)],
                              value_col="bal", value_tol=1)


def test_record_linkage_rejects_a_field_holding_the_separator(ray_session):
    from schisma_ray.stages.dedup import record_linkage_scores

    ds = _customers(["bob", "bob", "ann"], ["oslo", "os\x1flo", "rome"])
    # raised in the workers' pack, so Ray delivers it wrapped
    with pytest.raises(Exception, match="holds the payload separator"):
        record_linkage_scores(ds, id_col="id", name_col="name",
                              exact_cols=["city"], value_col="bal",
                              value_tol=1)
    # the same rows without the separator score normally
    ok = record_linkage_scores(
        _customers(["bob", "bob", "ann"], ["oslo", "oslo", "rome"]),
        id_col="id", name_col="name", exact_cols=["city"], value_col="bal",
        value_tol=1)
    ok = ok.to_pandas()
    assert len(ok) == 1 and ok["n_exact_agree"].tolist() == [1]


def test_grouped_count_topk_keeps_a_null_group_over_blocks(ray_session):
    from schisma_ray.stages.topk import grouped_count_topk

    df = pd.DataFrame({
        "g": ["a", None, "b", None, "a", "b", None, "a", "a"],
        "u": ["x", "y", "x", "z", "y", "x", "y", "x", "z"],
    })
    out = grouped_count_topk(rd.from_pandas(df).repartition(3), "g", "u", k=2)
    want = (df.groupby(["g", "u"], dropna=False).size().rename("n")
            .reset_index().sort_values(["n", "u"], ascending=[False, True])
            .groupby("g", dropna=False).head(2))
    rows = lambda d: sorted(  # noqa: E731
        ((None if pd.isna(g) else g, u, int(n))
         for g, u, n in d[["g", "u", "n"]].itertuples(index=False)), key=repr)
    assert rows(out.to_pandas()) == rows(want)
