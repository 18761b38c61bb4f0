"""corpus_audit release gate: check structure, gating semantics,
brute-force metric parity on a tiny hand-built corpus."""

import hashlib

import numpy as np
import pyarrow as pa
import ray.data as rd

DOCS = [
    (1, "the cat sat on the mat today fine", "en"),
    (2, "the cat sat on the mat today fine", "en"),   # exact dup of 1
    (3, "a dog ran in the park yesterday", "en"),
    (4, "der hund lief im park gestern", "de"),
    (5, "der hund lief im wald gestern", "de"),
    (6, "one two", "en"),                             # < 3 words
    (7, None, "en"),                                  # null text
    (8, "the cat sat on the mat today fine", "de"),   # cross-lang dup
]


def _docs(rep=3):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in DOCS], pa.int64()),
        "text": pa.array([d[1] for d in DOCS], pa.string()),
        "lang": pa.array([d[2] for d in DOCS], pa.string()),
    })).repartition(rep)


def _half_up(num, den):
    return (2 * num + den) // (2 * den)


def _audit(**kw):
    from schisma_ray.pipelines.audit import corpus_audit

    defaults = dict(max_split_diff_e6=None, max_mixture_shift_e6=None,
                    max_dup_rate_e6=None, max_template_share_e6=None,
                    max_leak_keys=None)
    defaults.update(kw)
    return corpus_audit(_docs(), **defaults)


def test_audit_structure_and_info_default(ray_session):
    v = _audit()
    names = [c["check"] for c in v["checks"]]
    assert names == ["split_balance", "dedup_mixture_shift",
                     "exact_dup_rate", "vocab_stats", "template_share",
                     "split_leakage"]
    # every threshold unset -> every gateable check is INFO -> PASS
    assert all(c["status"] == "INFO" for c in v["checks"])
    assert v["verdict"] == "PASS"


def test_audit_dup_rate_bruteforce(ray_session):
    v = _audit()
    dup = next(c for c in v["checks"] if c["check"] == "exact_dup_rate")
    # non-null-text docs: 7; distinct (text, lang) survivors under
    # keep-first per (text) within each lang stratum -> dedup_lang_shift
    # dedups per text key globally: texts {mat-sentence x3, dog, hund
    # park, hund wald, one two} -> 5 distinct
    assert dup["n_docs"] == 7
    assert dup["n_distinct"] == 5
    assert dup["dup_rate_e6"] == _half_up(1_000_000 * 2, 7)


def test_audit_gate_fails_when_threshold_tight(ray_session):
    v = _audit(max_dup_rate_e6=1)          # dup rate ~285714 >> 1
    dup = next(c for c in v["checks"] if c["check"] == "exact_dup_rate")
    assert dup["status"] == "FAIL"
    assert v["verdict"] == "FAIL"
    v2 = _audit(max_dup_rate_e6=999_999)   # loose gate -> PASS
    dup2 = next(c for c in v2["checks"] if c["check"] == "exact_dup_rate")
    assert dup2["status"] == "PASS"
    assert v2["verdict"] == "PASS"


def test_audit_template_share_counts_zero_novelty_docs(ray_session):
    v = _audit(max_template_share_e6=999_999)
    t = next(c for c in v["checks"] if c["check"] == "template_share")
    # docs 1, 2, 8 share every 3-gram (identical text); docs 3-5 have
    # overlapping but partially novel grams; doc 6 has no 3-grams and
    # emits no novelty row, so 6 docs carry grams.
    assert t["n_docs_with_grams"] == 6
    assert t["template_share_e6"] == _half_up(1_000_000 * 3, 6)
    assert t["status"] == "PASS"


def test_audit_leakage_counts_cross_split_fingerprints(ray_session):
    v = _audit(max_leak_keys=0)
    lk = next(c for c in v["checks"] if c["check"] == "split_leakage")
    # brute force: md5(doc_id) % 10 < 8 -> train; a fingerprint leaks
    # iff its doc set spans both sides
    split = {d[0]: int(hashlib.md5(str(d[0]).encode())
                       .hexdigest()[:8], 16) % 10 < 8
             for d in DOCS if d[1] is not None}
    sides = {}
    for did, text, _ in DOCS:
        if text is None:
            continue
        sides.setdefault(text, set()).add(split[did])
    want = sum(1 for s in sides.values() if s == {True, False})
    assert lk["leaking_fingerprints"] == want
    assert lk["status"] == ("FAIL" if want > 0 else "PASS")
    assert v["verdict"] == ("FAIL" if want > 0 else "PASS")


def test_audit_vocab_langs_match_input(ray_session):
    v = _audit()
    vs = next(c for c in v["checks"] if c["check"] == "vocab_stats")
    assert set(vs["languages"]) == {"en", "de"}
    en = vs["languages"]["en"]
    assert en["n_tokens"] > 0 and 0 < en["ttr_e6"] <= 1_000_000


def test_audit_zero_split_threshold_is_kept(ray_session):
    """A requested threshold of 0 gates on ANY split skew; it must not
    fall back to the 2% default (``0 or 20_000``)."""
    from schisma_ray.pipelines.audit import corpus_audit

    n = 2000
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(1, n + 1), pa.int64()),
        "text": pa.array([f"doc number {i}" for i in range(n)], pa.string()),
        "lang": pa.array(["en", "de"] * (n // 2), pa.string()),
    }))
    split = next(c for c in corpus_audit(ds, max_split_diff_e6=0)["checks"]
                 if c["check"] == "split_balance")
    # both strata deviate from the global share, by less than 2%
    assert 0 < split["worst_diff_e6"] <= 20_000
    assert split["threshold_e6"] == 0
    assert split["flagged_strata"] == 2
    assert split["status"] == "FAIL"
