"""Production corpus-preparation pipeline (the CLI `prepare` surface).

Same seven-stage shape as the oracled ``corpus_prepare`` catalog query,
minus its test fixtures (no synthetic PII injection, benchmark set is a
caller-supplied table instead of a doc_id residue class):

    [optional] decontaminate vs a benchmark table (grams broadcast)
    -> PII email redaction (RE2, in place)
    -> language allow-list + quality threshold
    -> exact dedup keep-first (survivor ids semi-joined)
    -> per-source cap (md5 order)
    -> fixed-size context-window chunking

One streaming DAG; the only driver folds are the two deliberately
small sides (benchmark n-grams, survivor ids).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages._bucket import semi_join
from ..stages._fold import fold_column

EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"


def _prep_refs(bench, ngram, text_col, classifier_model,
               min_entropy_e6, max_entropy_e6):
    """``ray.put`` the small broadcast sides the row-local prep stage
    needs (benchmark n-grams, classifier model, log2 table)."""
    import ray

    from ..stages.corpus import _word_ngrams

    bench_ref = None
    if bench is not None:
        grams: set = set()
        for b in bench.select_columns([text_col]).iter_batches(
            batch_format="pyarrow"
        ):
            for text in b[text_col].to_pylist():
                if text:
                    grams |= _word_ngrams(text, ngram)
        bench_ref = ray.put(frozenset(grams))
    clf_ref = None
    if classifier_model is not None:
        clf_ref = ray.put((
            classifier_model["word"].combine_chunks(),
            classifier_model["weight_e6"].to_numpy(
                zero_copy_only=False
            ).astype(np.int64),
        ))
    ent_ref = None
    if min_entropy_e6 > 0 or max_entropy_e6 > 0:
        from ..stages.text import build_log2_table

        ent_ref = ray.put(
            np.concatenate(
                ([0],
                 build_log2_table()["l_e12"].to_numpy(zero_copy_only=False))
            ).astype(np.int64)
        )
    return bench_ref, clf_ref, ent_ref


def _make_prep(bench_ref, clf_ref, ent_ref, *, ngram, lang_set, min_quality,
               hygiene, gopher, min_entropy_e6, max_entropy_e6,
               min_classifier_e6, id_col, text_col, lang_col, source_col):
    """Build the ROW-LOCAL prep batch fn (decontaminate -> redact ->
    lang/quality/hygiene/gopher/entropy/classifier filters). Row-local
    means a document's output depends only on the document itself plus
    the broadcast refs — the property ``prepare_resumable`` relies on
    to re-run it per partition with identical results."""
    import pyarrow.compute as pc
    import ray

    from ..stages.corpus import _word_ngrams
    from ..stages.text import quality_score_values

    def prep(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], t.schema.field(id_col).type),
                source_col: pa.array([], pa.string()),
                text_col: pa.array([], pa.string()),
            }
        )
        if t.num_rows == 0:
            return empty
        if bench_ref is not None:
            bg = ray.get(bench_ref)
            # explicit bool type: pa.array([]) from an empty list is
            # null-typed and Table.filter rejects it
            keep = pa.array(
                [not (_word_ngrams(x or "", ngram) & bg)
                 for x in t[text_col].to_pylist()],
                pa.bool_(),
            )
            t = t.filter(keep)
        if t.num_rows == 0:
            return empty
        text = pc.replace_substring_regex(
            t[text_col].combine_chunks(), EMAIL_PATTERN, "[EMAIL]"
        )
        score = quality_score_values(text)
        keep = pc.and_(
            pc.fill_null(
                pc.is_in(t[lang_col].combine_chunks(),
                         value_set=pa.array(sorted(lang_set))),
                False,
            ),
            pa.array(score >= min_quality),
        )
        if hygiene:
            keep = pc.and_(
                keep,
                pc.and_(
                    pc.equal(pc.count_substring(text, "�"), 0),
                    pc.equal(
                        pc.count_substring_regex(
                            text, r"[\x00-\x08\x0B\x0C\x0E-\x1F]"
                        ),
                        0,
                    ),
                ),
            )
        if gopher:
            from ..stages.text import (
                GOPHER_MAX_MEAN_LEN_E6,
                GOPHER_MAX_WORDS,
                GOPHER_MIN_DISTINCT_STOP,
                GOPHER_MIN_MEAN_LEN_E6,
                GOPHER_MIN_WORDS,
                gopher_stats_values,
            )

            words, mean_e6, n_stop = gopher_stats_values(text)
            g_ok = (
                (words >= GOPHER_MIN_WORDS) & (words <= GOPHER_MAX_WORDS)
                & (mean_e6 >= GOPHER_MIN_MEAN_LEN_E6)
                & (mean_e6 <= GOPHER_MAX_MEAN_LEN_E6)
                & (n_stop >= GOPHER_MIN_DISTINCT_STOP)
            )
            keep = pc.and_(keep, pa.array(g_ok))
        out = pa.table(
            {id_col: t[id_col], source_col: t[source_col], text_col: text}
        ).filter(keep)
        if ent_ref is not None and out.num_rows:
            from ..stages.text import char_entropy_values

            # entropy runs AFTER the cheap filters, on survivors only:
            # an over-long doc the lang/quality rules already rejected
            # must not crash the log2-table bound (and rejected rows
            # shouldn't pay the decode)
            _, ent = char_entropy_values(out[text_col], ray.get(ent_ref))
            e_ok = np.ones(len(ent), dtype=bool)
            if min_entropy_e6 > 0:
                e_ok &= ent >= min_entropy_e6
            if max_entropy_e6 > 0:
                e_ok &= ent <= max_entropy_e6
            out = out.filter(pa.array(e_ok))
        if clf_ref is not None and out.num_rows:
            from ..stages.text import classifier_score_values

            vocab, weights = ray.get(clf_ref)
            # the kernel requires null-free text (a null survives the
            # quality filter at min_quality <= 0.3); null scores 0
            clf_score, _ = classifier_score_values(
                pc.fill_null(out[text_col].combine_chunks(), ""),
                vocab, weights,
            )
            out = out.filter(pa.array(clf_score >= min_classifier_e6))
        return out

    return prep


def prepare_corpus(
    docs,
    *,
    bench=None,
    ngram: int = 4,
    langs: tuple = ("en",),
    min_quality: float = 0.5,
    cap_per_source: int = 0,
    chunk_size: int = 512,
    chunk_stride: int = 384,
    id_col: str = "doc_id",
    text_col: str = "text",
    lang_col: str = "lang",
    source_col: str = "source",
    dedup: str = "exact",
    c4_min_lines: int = 0,
    gopher: bool = False,
    line_dedup: bool = False,
    hygiene: bool = False,
    min_entropy_e6: int = 0,
    max_entropy_e6: int = 0,
    minhash_threshold: float = 0.8,
    exact_substr_k: int = 0,
    classifier_model=None,
    min_classifier_e6: int = 0,
):
    """documents Dataset -> (id, chunk_idx, chunk_text) Dataset.

    ``c4_min_lines > 0`` prepends the C4 page-cleaning stage (line
    rules + page rules; documents rewritten to their surviving lines,
    pages below the line floor dropped). ``gopher=True`` adds the
    Gopher word-statistics filter (paper-default bounds) after PII
    redaction. Both are zero-shuffle per-batch stages.

    ``line_dedup=True`` prepends CCNet-style corpus-wide line dedup
    (before C4): every line keeps only its globally-first occurrence
    and documents are rebuilt from their surviving lines (documents
    left with no lines drop out). Single-line corpora with no repeated
    lines pass through unchanged. ``min_entropy_e6``/``max_entropy_e6``
    (0 = off) band-filter on per-document character entropy (e6-integer
    bits via the frozen log2 artifact) after the quality threshold —
    the compression-style gibberish/boilerplate screen.
    ``hygiene=True`` drops documents carrying U+FFFD replacement
    characters or disallowed C0 control characters (the
    decode-corruption screen; evaluated on the redacted text alongside
    the lang/quality predicates, zero shuffle).
    ``exact_substr_k > 0`` adds ExactSubstr span removal (Lee et al.
    2021) on the filtered survivors before dedup: duplicated token runs
    >= k words are dropped from every document (docs left empty drop
    out); removing shared boilerplate first makes more near-identical
    texts exactly identical for the dedup pass.

    ``classifier_model`` (a (word, weight_e6) table from
    ``train_word_classifier``) adds the fastText/DCLM/FineWeb-style
    model-based quality filter: each doc's integer word-weight sum over
    the redacted text must reach ``min_classifier_e6`` (docs with no
    vocabulary hits score 0). The model broadcasts once via
    ``ray.put``; scoring is the shared ``classifier_score_values``
    kernel — vectorized, zero shuffle, applied with the other row-local
    predicates BEFORE dedup.

    ``dedup`` picks the dedup pass; either way the corpus is
    semi-joined against the survivor ids (``_bucket.semi_join``), which
    broadcasts them when they fold on the driver and meets the corpus
    per hash bucket when they do not:

    * ``exact`` (default) — keep-first exact dedup: the minimum id per
      distinct text survives.
    * ``minhash`` — FUZZY dedup replaces the exact pass: MinHash+LSH
      near-dup pairs at ``minhash_threshold`` Jaccard over the prepped
      (redacted, filtered) text, connected components, and the min-id
      survivor per component (exact duplicates are Jaccard 1, so this
      subsumes exact dedup for non-empty texts).
    """
    import pyarrow.compute as pc

    from ..stages.corpus import cap_per_key, chunk_text
    from ..stages.dedup import exact_dedup_keep_first

    lang_set = set(langs)

    if line_dedup:
        from ..stages.lines import line_dedup as _line_dedup

        docs = _line_dedup(
            docs, text_col=text_col, id_col=id_col,
            carry_cols=(lang_col, source_col),
        )

    if c4_min_lines > 0:
        from ..stages.lines import c4_clean

        docs = c4_clean(
            docs, text_col=text_col, id_col=id_col,
            min_lines=c4_min_lines, carry_cols=(lang_col, source_col),
        )

    bench_ref, clf_ref, ent_ref = _prep_refs(
        bench, ngram, text_col, classifier_model,
        min_entropy_e6, max_entropy_e6,
    )
    prep = _make_prep(
        bench_ref, clf_ref, ent_ref,
        ngram=ngram, lang_set=lang_set, min_quality=min_quality,
        hygiene=hygiene, gopher=gopher,
        min_entropy_e6=min_entropy_e6, max_entropy_e6=max_entropy_e6,
        min_classifier_e6=min_classifier_e6,
        id_col=id_col, text_col=text_col, lang_col=lang_col,
        source_col=source_col,
    )
    prepped = docs.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    if exact_substr_k > 0:
        # ExactSubstr span removal (Lee et al. 2021) on the filtered,
        # redacted survivors, BEFORE dedup (removing shared boilerplate
        # makes more near-identical texts exactly identical). emit_all
        # passes span-free docs through unchanged; docs left with no
        # tokens drop out.
        from ..stages.dedup import exact_substr_clean

        # the stage consumes its input twice (gram branch + text
        # branch of the doc-hash union); materialize the narrow
        # (id, source, text) survivors once so the whole upstream
        # filter chain does not re-execute per branch
        prepped = prepped.materialize()
        cleaned = exact_substr_clean(
            prepped, text_col, id_col, k=exact_substr_k,
            emit_all=True, carry_cols=(source_col,),
        )

        def rename(t: pa.Table) -> pa.Table:
            keep = pc.invert(pc.equal(
                pc.fill_null(t["clean_text"], ""), ""))
            t = t.filter(keep)
            return pa.table({
                id_col: t[id_col],
                source_col: t[source_col],
                text_col: t["clean_text"],
            })

        prepped = cleaned.map_batches(
            rename, batch_format="pyarrow", zero_copy_batch=True
        )

    def finish(survivors):
        if cap_per_source > 0:
            survivors = cap_per_key(
                survivors, key_col=source_col, id_col=id_col,
                n=cap_per_source, carry_cols=(text_col,),
            )
        return chunk_text(
            survivors, size=chunk_size, stride=chunk_stride,
            col=text_col, id_col=id_col,
        )

    if dedup == "minhash":
        from ..stages.components import near_dedup_survivors
        from ..stages.dedup import minhash_dedup_pairs

        pairs = minhash_dedup_pairs(
            prepped, col=text_col, id_col=id_col,
            threshold=minhash_threshold,
        )
        kept = near_dedup_survivors(prepped, pairs, id_col)
    elif dedup == "exact":
        kept = exact_dedup_keep_first(prepped, key=text_col, id_col=id_col)
    else:
        raise ValueError(f"unknown dedup {dedup!r}")
    return finish(semi_join(prepped, id_col, kept))


def prepare_resumable(
    docs_dir,
    out_dir,
    *,
    files_per_partition: int = 4,
    max_partitions: int | None = None,
    bench=None,
    ngram: int = 4,
    langs: tuple = ("en",),
    min_quality: float = 0.5,
    cap_per_source: int = 0,
    chunk_size: int = 512,
    chunk_stride: int = 384,
    c4_min_lines: int = 0,
    gopher: bool = False,
    hygiene: bool = False,
    min_entropy_e6: int = 0,
    max_entropy_e6: int = 0,
    classifier_model=None,
    min_classifier_e6: int = 0,
    id_col: str = "doc_id",
    text_col: str = "text",
    lang_col: str = "lang",
    source_col: str = "source",
) -> list[dict]:
    """Resumable ``prepare_corpus`` over a fragmented corpus directory —
    the text flagship's crash-resume path (VERDICT r4 missing #3),
    plan/apply shaped so GLOBAL semantics survive per-partition commits:

    * **plan** (once, atomic): the corpus-wide decisions collapse to an
      id set — run the row-local prep over the FULL corpus, exact-dedup
      keep-first, then the per-source cap; write the survivor ids to
      ``{out}/_plan/survivor_ids.parquet`` (tmp + rename) with a plan
      record binding the input file list AND the parameter hash. A
      crashed plan leaves no ``plan.json`` and recomputes from scratch;
      a plan whose inputs/params no longer match raises (the checkpoint-
      mismatch contract) instead of silently pairing stale decisions
      with new inputs.
    * **apply** (per input partition, committed): re-run the row-local
      prep on just that partition's files (row-local => bit-identical
      to the plan pass), keep survivor-id members, chunk, write
      ``{out}/{partition_id}/`` via the ``.inprogress`` rename
      protocol, commit a lineage record with doc/chunk counts.

    Supported knobs are exactly the prepare features whose global state
    is id-shaped: decontamination, redaction, lang/quality/hygiene/
    gopher/entropy/classifier filters, C4 page cleaning (row-local),
    broadcast exact dedup and the per-source cap. The corpus-REWRITE
    modes (line_dedup, exact_substr_k, minhash) change document text
    based on global state and need their artifacts materialized, not
    replayed — run those through the one-shot ``prepare_corpus``.

    Returns this invocation's commit records (already-committed
    partitions are skipped). ``max_partitions`` lets tests simulate a
    crash mid-apply."""
    import hashlib
    import json
    import os
    import shutil
    import time

    from pathlib import Path

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from .. import __version__
    from ..stages.corpus import cap_per_key, chunk_text
    from ..stages.dedup import exact_dedup_keep_first
    from ..state.checkpoint import (
        SCHEMA_VERSION,
        _commit_path,
        committed_partitions,
        partition_id,
        partition_inputs,
    )

    out_dir = Path(out_dir)
    (out_dir / "_commits").mkdir(parents=True, exist_ok=True)
    parts = partition_inputs(docs_dir, files_per_partition, subdir="")
    if not parts:
        raise ValueError(f"no parquet fragments under {docs_dir}")
    all_files = [f for grp in parts for f in grp]

    params = {
        "ngram": ngram, "langs": sorted(langs), "min_quality": min_quality,
        "cap_per_source": cap_per_source, "chunk_size": chunk_size,
        "chunk_stride": chunk_stride, "c4_min_lines": c4_min_lines,
        "gopher": gopher, "hygiene": hygiene,
        "min_entropy_e6": min_entropy_e6, "max_entropy_e6": max_entropy_e6,
        "min_classifier_e6": min_classifier_e6,
        "has_bench": bench is not None,
        "has_classifier": classifier_model is not None,
        "files_per_partition": files_per_partition,
    }
    params_hash = hashlib.blake2b(
        (json.dumps(params, sort_keys=True) + "\n".join(all_files)).encode(),
        digest_size=8,
    ).hexdigest()

    lang_set = set(langs)
    bench_ref, clf_ref, ent_ref = _prep_refs(
        bench, ngram, text_col, classifier_model,
        min_entropy_e6, max_entropy_e6,
    )
    prep = _make_prep(
        bench_ref, clf_ref, ent_ref,
        ngram=ngram, lang_set=lang_set, min_quality=min_quality,
        hygiene=hygiene, gopher=gopher,
        min_entropy_e6=min_entropy_e6, max_entropy_e6=max_entropy_e6,
        min_classifier_e6=min_classifier_e6,
        id_col=id_col, text_col=text_col, lang_col=lang_col,
        source_col=source_col,
    )

    def row_local(ds):
        if c4_min_lines > 0:
            from ..stages.lines import c4_clean

            ds = c4_clean(
                ds, text_col=text_col, id_col=id_col,
                min_lines=c4_min_lines, carry_cols=(lang_col, source_col),
            )
        return ds.map_batches(prep, batch_format="pyarrow",
                              zero_copy_batch=True)

    # ---------------------------------------------------------- plan
    plan_dir = out_dir / "_plan"
    plan_rec_path = plan_dir / "plan.json"
    ids_path = plan_dir / "survivor_ids.parquet"
    if plan_rec_path.exists():
        rec = json.loads(plan_rec_path.read_text())
        if rec.get("params_hash") != params_hash:
            raise RuntimeError(
                f"plan mismatch: committed plan {rec.get('params_hash')} "
                f"does not match current inputs/params ({params_hash}); "
                "the corpus or knobs changed — use a fresh out_dir"
            )
    else:
        t0 = time.monotonic()
        prepped = row_local(rd.read_parquet(all_files))
        kept = exact_dedup_keep_first(prepped, key=text_col, id_col=id_col)
        if cap_per_source > 0:
            kept_ids = fold_column(kept, id_col)
            kref = ray.put(kept_ids)

            def kfilter(t: pa.Table) -> pa.Table:
                return t.filter(pc.is_in(
                    t[id_col].combine_chunks(), value_set=ray.get(kref)))

            survivors = prepped.map_batches(
                kfilter, batch_format="pyarrow", zero_copy_batch=True)
            capped = cap_per_key(
                survivors, key_col=source_col, id_col=id_col,
                n=cap_per_source)
            final_ids = fold_column(capped, id_col)
        else:
            final_ids = fold_column(kept, id_col)
        plan_dir.mkdir(parents=True, exist_ok=True)
        tmp = ids_path.with_suffix(".tmp")
        pq.write_table(pa.table({id_col: final_ids}), tmp)
        os.rename(tmp, ids_path)
        rec = {
            "params_hash": params_hash,
            "params": params,
            "inputs": all_files,
            "n_survivors": len(final_ids),
            "schema_version": SCHEMA_VERSION,
            "engine_version": __version__,
            "duration_s": round(time.monotonic() - t0, 3),
        }
        rtmp = plan_rec_path.with_suffix(".tmp")
        rtmp.write_text(json.dumps(rec, indent=1))
        os.rename(rtmp, plan_rec_path)

    ids_ref = ray.put(
        pq.read_table(ids_path)[id_col].combine_chunks())

    def id_filter(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(
            t[id_col].combine_chunks(), value_set=ray.get(ids_ref)))

    # --------------------------------------------------------- apply
    done = committed_partitions(out_dir)
    records: list[dict] = []
    ran = 0
    for idx, inputs in enumerate(parts):
        pid = partition_id(idx, inputs)
        if pid in done:
            continue
        stale = [d for d in done if d.startswith(f"part-{idx:05d}-")]
        if stale:
            raise RuntimeError(
                f"checkpoint mismatch at partition {idx}: committed "
                f"{stale[0]} does not match current inputs — the input "
                "assignment changed; use a fresh out_dir"
            )
        if max_partitions is not None and ran >= max_partitions:
            break
        t0 = time.monotonic()
        ds = rd.read_parquet(inputs)
        input_rows = ds.count()
        survivors = row_local(ds).map_batches(
            id_filter, batch_format="pyarrow", zero_copy_batch=True)
        chunks = chunk_text(
            survivors, size=chunk_size, stride=chunk_stride,
            col=text_col, id_col=id_col)
        part_dir = out_dir / pid
        tmp_dir = out_dir / f"{pid}.inprogress"
        for leftover in (tmp_dir, part_dir):
            if leftover.exists():
                shutil.rmtree(leftover)
        tmp_dir.mkdir()  # an all-filtered partition still commits (empty)
        chunks.write_parquet(str(tmp_dir))
        import pyarrow.dataset as pads

        files = sorted(str(p) for p in tmp_dir.glob("*.parquet"))
        if files:
            written = pads.dataset(files, format="parquet")
            n_chunks = written.count_rows()
            n_docs = len(pc.unique(
                written.to_table(columns=[id_col])[id_col].combine_chunks()))
        else:
            n_chunks = n_docs = 0
        record = {
            "partition_id": pid,
            "inputs": inputs,
            "schema_version": SCHEMA_VERSION,
            "engine_version": __version__,
            "input_rows": input_rows,
            "row_count": n_chunks,
            "n_docs": n_docs,
            "duration_s": round(time.monotonic() - t0, 3),
        }
        os.rename(tmp_dir, part_dir)
        ctmp = _commit_path(out_dir, pid).with_suffix(".tmp")
        ctmp.write_text(json.dumps(record, indent=1))
        os.rename(ctmp, _commit_path(out_dir, pid))
        records.append(record)
        ran += 1
    return records
