"""Pre-release corpus audit: one call, one machine-readable verdict.

Composes the audit operators the battery already proves correct
(split fairness, dedup mixture shift, vocabulary health, novelty,
exact-dup rate, cross-split leakage) over a documents table and folds
them into a single ``{checks: [...], verdict: PASS|FAIL}`` dict — the
releasing-a-training-corpus equivalent of a CI gate. Every check is a
bounded-output operator (|strata|-, |langs|- or count-sized), so the
audit itself never materializes the corpus.

Thresholds are integers in e6 units; ``None`` demotes a check to
INFO (metric reported, never failing). This mirrors the reference's
report-then-gate split (validate -> conform -> verdict) at corpus
scale rather than row scale.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa
import pyarrow.compute as pc


def _status(flagged: bool, gated: bool) -> str:
    if not gated:
        return "INFO"
    return "FAIL" if flagged else "PASS"


def corpus_audit(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    lang_col: str = "lang",
    max_split_diff_e6: int | None = 20_000,
    max_mixture_shift_e6: int | None = 20_000,
    max_dup_rate_e6: int | None = None,
    max_template_share_e6: int | None = None,
    max_leak_keys: int | None = None,
) -> dict[str, Any]:
    """Run the release-gate audit battery over a documents Dataset.

    Returns ``{"checks": [per-check dicts], "verdict": "PASS"|"FAIL"}``.
    A check FAILs only when its threshold is set (not None) and
    violated; unset thresholds report INFO metrics. The input Dataset
    must carry ``id_col``, ``text_col`` and ``lang_col``.
    """
    from ..stages.corpus import split_balance, split_leakage
    from ..stages.dedup import dedup_lang_shift
    from ..stages.text import doc_novelty, vocab_stats
    from ..stages._digest import md5_hex

    checks: list[dict[str, Any]] = []

    # 1. split fairness (per-stratum md5 train share vs global)
    sb = split_balance(
        ds, group_col=lang_col, id_col=id_col,
        threshold_e6=20_000 if max_split_diff_e6 is None else max_split_diff_e6,
    )
    worst = int(pc.max(sb["diff_e6"]).as_py() or 0) if sb.num_rows else 0
    n_flagged = int(pc.sum(pc.cast(sb["flagged"], pa.int64())).as_py() or 0)
    checks.append({
        "check": "split_balance",
        "status": _status(n_flagged > 0, max_split_diff_e6 is not None),
        "worst_diff_e6": worst,
        "flagged_strata": n_flagged,
        "threshold_e6": max_split_diff_e6,
    })

    # 2. dedup mixture shift (+ exact-dup rate from the same table)
    shift = dedup_lang_shift(ds, key=text_col, id_col=id_col,
                             group_col=lang_col)
    if shift.num_rows:
        worst_shift = int(pc.max(pc.abs(shift["shift_e6"])).as_py() or 0)
        n_before = sum(shift["n_before"].to_pylist())
        n_after = sum(shift["n_after"].to_pylist())
    else:
        worst_shift, n_before, n_after = 0, 0, 0
    dup_rate_e6 = (
        (2_000_000 * (n_before - n_after) + n_before) // (2 * n_before)
        if n_before else 0
    )
    checks.append({
        "check": "dedup_mixture_shift",
        "status": _status(worst_shift > (max_mixture_shift_e6 or 0),
                          max_mixture_shift_e6 is not None),
        "worst_shift_e6": worst_shift,
        "threshold_e6": max_mixture_shift_e6,
    })
    checks.append({
        "check": "exact_dup_rate",
        "status": _status(dup_rate_e6 > (max_dup_rate_e6 or 0),
                          max_dup_rate_e6 is not None),
        "dup_rate_e6": int(dup_rate_e6),
        "n_docs": int(n_before),
        "n_distinct": int(n_after),
        "threshold_e6": max_dup_rate_e6,
    })

    # 3. vocabulary health (INFO metrics per language)
    vs = vocab_stats(ds, col=text_col, lang_col=lang_col)
    vs_tbl = vs.to_pandas() if hasattr(vs, "to_pandas") else vs
    langs = {
        str(r[lang_col]): {"ttr_e6": int(r["ttr_e6"]),
                           "hapax_e6": int(r["hapax_e6"]),
                           "n_tokens": int(r["n_tokens"])}
        for r in vs_tbl.to_dict("records")
    }
    checks.append({
        "check": "vocab_stats",
        "status": "INFO",
        "languages": langs,
    })

    # 4. template share: docs whose every 3-gram exists elsewhere
    nov = doc_novelty(ds, col=text_col, id_col=id_col)

    def _counts(t: pa.Table) -> pa.Table:
        zero = pc.sum(
            pc.cast(pc.equal(t["n_novel"], 0), pa.int64())
        ).as_py() or 0
        return pa.table({
            "n_docs": pa.array([t.num_rows], pa.int64()),
            "n_template": pa.array([int(zero)], pa.int64()),
        })

    from ..stages._fold import fold_table

    folded = fold_table(
        nov.map_batches(_counts, batch_format="pyarrow",
                        zero_copy_batch=True)
    )
    nd = sum(folded["n_docs"].to_pylist()) if folded is not None else 0
    nt = sum(folded["n_template"].to_pylist()) if folded is not None else 0
    tmpl_e6 = (2_000_000 * nt + nd) // (2 * nd) if nd else 0
    checks.append({
        "check": "template_share",
        "status": _status(tmpl_e6 > (max_template_share_e6 or 0),
                          max_template_share_e6 is not None),
        "template_share_e6": int(tmpl_e6),
        "n_docs_with_grams": int(nd),
        "threshold_e6": max_template_share_e6,
    })

    # 5. exact cross-split leakage: one fingerprint on both split sides
    def fp(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        return pa.table({
            id_col: t[id_col],
            "fp": pa.array(md5_hex(t[text_col].combine_chunks()),
                           pa.string()),
        })

    leaks = split_leakage(
        ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True),
        key_col="fp", id_col=id_col,
    )
    n_leaks = leaks.count()
    checks.append({
        "check": "split_leakage",
        "status": _status(n_leaks > (max_leak_keys or 0),
                          max_leak_keys is not None),
        "leaking_fingerprints": int(n_leaks),
        "threshold": max_leak_keys,
    })

    verdict = "FAIL" if any(c["status"] == "FAIL" for c in checks) else "PASS"
    return {"checks": checks, "verdict": verdict}
