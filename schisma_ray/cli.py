"""Command-line entry points (the only place besides bench/tests that
owns a Ray session).

    python -m schisma_ray.cli validate  --table DIR --out DIR [--resumable]
    python -m schisma_ray.cli conform   --table DIR --out DIR
    python -m schisma_ray.cli generate  --rows N [--px LO,HI]
    python -m schisma_ray.cli report    --out DIR        (checkpoint summary)
    python -m schisma_ray.cli infer     --table PATH     (schema literal from data)
    python -m schisma_ray.cli prepare   --docs P --out D (corpus prep -> chunk parquet)
    python -m schisma_ray.cli convert   --src P --out P [--fmt parquet|jsonl|csv]
    python -m schisma_ray.cli curate    --table DIR --out P (image curation -> survivor ids)
    python -m schisma_ray.cli profile   --table PATH        (per-column profile JSON)
    python -m schisma_ray.cli run       --query NAME --sf DIR (any catalog query)
    python -m schisma_ray.cli diff      --old P --new P --key K (version diff)
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> bool:
    """Start Ray unless the caller already runs a session; True when this
    call started it (and so ``main`` stops it)."""
    import os

    import ray

    started = not ray.is_initialized()
    if started:
        # local mode in the sandbox; under `ray job submit` the job
        # runner sets RAY_ADDRESS to the cluster and the CLI joins it
        # (num_cpus is a local-mode knob only)
        address = os.environ.get("RAY_ADDRESS", "local")
        kwargs = dict(
            address=address,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        if address == "local":
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="schisma_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate")
    v.add_argument("--table", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--resumable", action="store_true")
    v.add_argument("--files-per-partition", type=int, default=4)
    v.add_argument("--stats-out", default=None,
                   help="write ds.stats() — per-stage wall/cpu/rows of "
                        "the executed plan — to this file after the run "
                        "(non-resumable path only; resumable runs are "
                        "per-partition datasets)")

    c = sub.add_parser("conform")
    c.add_argument("--table", required=True)
    c.add_argument("--out", required=True)

    g = sub.add_parser("generate")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--px", default="8,33")

    i = sub.add_parser("infer")
    i.add_argument("--table", required=True)

    cv = sub.add_parser("convert")
    cv.add_argument("--src", required=True)
    cv.add_argument("--out", required=True)
    cv.add_argument("--fmt", default=None, choices=["parquet", "jsonl", "csv"],
                    help="output format (default: inferred from --out suffix, else parquet)")

    cu = sub.add_parser("curate")
    cu.add_argument("--table", required=True,
                    help="image table dir (the generate output layout)")
    cu.add_argument("--out", required=True,
                    help="survivor image_id parquet")
    cu.add_argument("--max-hamming", type=int, default=3)

    p = sub.add_parser("prepare")
    p.add_argument("--docs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bench", default=None,
                   help="held-out benchmark table for decontamination")
    p.add_argument("--langs", default="en")
    p.add_argument("--min-quality", type=float, default=0.5)
    p.add_argument("--cap-per-source", type=int, default=0)
    p.add_argument("--chunk-size", type=int, default=512)
    p.add_argument("--chunk-stride", type=int, default=384)
    p.add_argument("--dedup", default="exact",
                   choices=["exact", "minhash"],
                   help="exact keep-first dedup (min id per distinct "
                        "text), or MinHash+LSH FUZZY dedup (near-dup "
                        "components, min-id survivor); survivor ids "
                        "broadcast when they fit the driver fold, else "
                        "semi-join the corpus per hash bucket")
    p.add_argument("--c4-min-lines", type=int, default=0,
                   help="> 0 prepends C4 page cleaning with this "
                        "surviving-line floor")
    p.add_argument("--gopher", action="store_true",
                   help="add the Gopher word-statistics filter "
                        "(paper-default bounds)")
    p.add_argument("--line-dedup", action="store_true",
                   help="prepend CCNet-style corpus-wide line dedup "
                        "(keep each line's globally-first occurrence)")
    p.add_argument("--shards", type=int, default=0,
                   help="> 1 writes hive-partitioned output (shard = "
                        "md5-derived hash of doc_id modulo N, the "
                        "engine's md5_u32 convention) so a failed run "
                        "can re-target single shards and readers prune "
                        "by path — never one giant flat directory")
    p.add_argument("--exact-substr-k", type=int, default=0,
                   help="> 0 adds ExactSubstr span removal (duplicated "
                        "token runs >= k words dropped from every doc) "
                        "before dedup")
    p.add_argument("--hygiene", action="store_true",
                   help="drop docs carrying U+FFFD replacement chars "
                        "or disallowed C0 control chars (decode-"
                        "corruption screen)")
    p.add_argument("--classifier-model", default=None,
                   help="(word, weight_e6) parquet from "
                        "train_word_classifier: adds the model-based "
                        "quality filter (fastText/DCLM slot)")
    p.add_argument("--min-classifier-e6", type=int, default=0,
                   help="minimum integer classifier score (with "
                        "--classifier-model)")
    p.add_argument("--min-entropy-e6", type=int, default=0,
                   help="> 0 drops docs below this character-entropy "
                        "floor (e6-integer bits)")
    p.add_argument("--max-entropy-e6", type=int, default=0,
                   help="> 0 drops docs above this character-entropy "
                        "ceiling (e6-integer bits)")
    p.add_argument("--resumable", action="store_true",
                   help="plan/apply checkpointed run: --docs must be a "
                        "directory of parquet fragments; survivor ids "
                        "commit once under {out}/_plan, then each input "
                        "partition commits independently and a re-run "
                        "skips committed partitions (exact-dedup "
                        "feature set; incompatible with --dedup "
                        "minhash, --line-dedup, --exact-substr-k, "
                        "--shards)")
    p.add_argument("--files-per-partition", type=int, default=4,
                   help="input fragments per resumable partition")

    df = sub.add_parser("diff")
    df.add_argument("--old", required=True, help="previous table version")
    df.add_argument("--new", required=True, help="current table version")
    df.add_argument("--key", required=True, help="unique key column")
    df.add_argument("--columns", default=None,
                    help="comma list of compared columns (default: all "
                         "shared non-key columns)")
    df.add_argument("--out", default=None,
                    help="write (key, change) parquet; default prints "
                         "the change summary only")

    rn = sub.add_parser("run")
    rn.add_argument("--query", default=None,
                    help="catalog query name (see --list)")
    rn.add_argument("--sf", default="/root/testdata/sf0.001",
                    help="input table directory")
    rn.add_argument("--out", default=None,
                    help="write the result as parquet here instead of "
                         "printing sample rows")
    rn.add_argument("--limit", type=int, default=10,
                    help="rows to print when no --out is given")
    rn.add_argument("--list", action="store_true",
                    help="print available query names and exit")

    pr = sub.add_parser("profile")
    pr.add_argument("--table", required=True,
                    help="parquet/csv/jsonl path or glob")
    pr.add_argument("--columns", default=None,
                    help="comma list (default: every column; numeric "
                         "stats run on the numeric subset)")
    pr.add_argument("--cooccurrence", action="store_true",
                    help="add the pairwise null-co-occurrence matrix "
                         "(columns^2 driver memory — keep the column "
                         "list small)")

    pl = sub.add_parser("plan")
    pl.add_argument("--left", required=True,
                    help="left table (parquet/csv/jsonl path or glob)")
    pl.add_argument("--right", required=True)
    pl.add_argument("--left-key", required=True)
    pl.add_argument("--right-key", default=None,
                    help="defaults to --left-key")
    pl.add_argument("--target-rows-per-partition", type=int,
                    default=2_000_000,
                    help="desired joined rows per output partition")
    pl.add_argument("--salt-threshold", type=int, default=8,
                    help="recommend salting when the hot key exceeds "
                         "this multiple of the per-partition target")

    au = sub.add_parser("audit")
    au.add_argument("--docs", required=True,
                    help="documents table (parquet/csv/jsonl path or glob)")
    au.add_argument("--id-col", default="doc_id")
    au.add_argument("--text-col", default="text")
    au.add_argument("--lang-col", default="lang")
    au.add_argument("--max-split-diff-e6", type=int, default=20_000,
                    help="split-fairness gate: max per-stratum deviation "
                         "from the global md5 train share (-1 = INFO only)")
    au.add_argument("--max-mixture-shift-e6", type=int, default=20_000,
                    help="dedup mixture gate: max per-language share "
                         "shift after exact dedup (-1 = INFO only)")
    au.add_argument("--max-dup-rate-e6", type=int, default=-1,
                    help="exact-dup-rate gate (-1 = INFO only)")
    au.add_argument("--max-template-share-e6", type=int, default=-1,
                    help="zero-novelty doc-share gate (-1 = INFO only)")
    au.add_argument("--max-leak-keys", type=int, default=-1,
                    help="cross-split exact-leak gate: max fingerprints "
                         "on both split sides (-1 = INFO only)")
    au.add_argument("--out", default=None,
                    help="write the verdict JSON here (default: stdout)")

    r = sub.add_parser("report")
    r.add_argument("--out", required=True)
    r.add_argument("--max-violation-rate", type=float, default=None,
                   help="per-partition PASS/FAIL: violations/row_count threshold")
    r.add_argument("--compare-to", default=None,
                   help="previous run's out dir: run-over-run regression "
                        "gate — partitions are matched by content-addressed "
                        "partition_id; any whose violation total INCREASED "
                        "(or that vanished) fails the report")

    args = ap.parse_args(argv)

    if args.cmd == "run" and args.list:
        from schisma_ray.pipelines.catalog import ORACLES, QUERIES

        for name in QUERIES:
            print(f"{name}\t{'oracle' if name in ORACLES else 'rows-only'}")
        return 0

    if args.cmd == "report":
        from schisma_ray.state import load_records

        prev = {}
        if args.compare_to:
            from pathlib import Path as _Path

            if not (_Path(args.compare_to) / "_commits").is_dir():
                # a mistyped previous-run dir must NOT silently pass
                # the regression gate as "everything is NEW"
                print(f"error: --compare-to has no _commits dir: "
                      f"{args.compare_to}", file=sys.stderr)
                return 2
            prev = {p["partition_id"]: p
                    for p in load_records(args.compare_to)}
        failed = regressions = 0
        seen = set()
        for rec in load_records(args.out):
            rec = dict(rec)
            if args.max_violation_rate is not None:
                n_vio = sum(rec.get("violation_counts", {}).values())
                denom = max(1, rec.get("input_rows", 0)) or 1
                rec["verdict"] = (
                    "PASS" if n_vio / denom <= args.max_violation_rate else "FAIL"
                )
                failed += rec["verdict"] == "FAIL"
            if args.compare_to:
                seen.add(rec.get("partition_id"))
                p = prev.get(rec.get("partition_id"))
                if p is None:
                    rec["trend"] = "NEW"
                else:
                    cur = sum(rec.get("violation_counts", {}).values())
                    was = sum(p.get("violation_counts", {}).values())
                    rec["violations_prev"] = was
                    rec["trend"] = ("REGRESSED" if cur > was
                                    else "IMPROVED" if cur < was else "STABLE")
                    regressions += rec["trend"] == "REGRESSED"
            print(json.dumps(rec))
        if args.compare_to:
            # a partition present last run but absent now is lost coverage
            for pid in sorted(set(prev) - seen):
                print(json.dumps({"partition_id": pid, "trend": "MISSING"}))
                regressions += 1
        return 1 if (failed or regressions) else 0

    started = _init_ray(args.num_cpus)
    try:
        if args.cmd == "generate":
            from schisma_ray.sources import image_table

            lo, hi = (int(x) for x in args.px.split(","))
            out = image_table.generate(args.rows, seed=args.seed, px=(lo, hi))
            print(out)
        elif args.cmd == "validate":
            if args.resumable:
                from schisma_ray.pipelines.validate_pipeline import FusedValidator
                from schisma_ray.state import run_resumable

                def pipe(ds):
                    return ds.map_batches(
                        FusedValidator(),
                        batch_format="pyarrow",
                        zero_copy_batch=True,
                    )

                recs = run_resumable(
                    args.table, args.out, pipe,
                    files_per_partition=args.files_per_partition,
                )
                print(json.dumps({"partitions_run": len(recs)}))
            else:
                from schisma_ray.pipelines import validate_images

                ds = validate_images(args.table)
                ds.write_parquet(args.out)
                if args.stats_out:
                    from pathlib import Path as _Path

                    _Path(args.stats_out).write_text(ds.stats())
        elif args.cmd == "conform":
            from schisma_ray.pipelines import conform_images

            conform_images(args.table).write_parquet(args.out)
        elif args.cmd == "prepare":
            from schisma_ray.pipelines.corpus_pipeline import prepare_corpus
            from schisma_ray.sources.reader import read_table

            if args.min_classifier_e6 and not args.classifier_model:
                # a threshold without a model would silently not filter
                print("error: --min-classifier-e6 requires "
                      "--classifier-model", file=sys.stderr)
                return 2
            clf_model = None
            if args.classifier_model:
                import pyarrow.parquet as pq

                clf_model = pq.read_table(args.classifier_model)

            if args.resumable:
                from schisma_ray.pipelines.corpus_pipeline import (
                    prepare_resumable,
                )

                incompatible = []
                if args.dedup != "exact":
                    incompatible.append(f"--dedup {args.dedup}")
                if args.line_dedup:
                    incompatible.append("--line-dedup")
                if args.exact_substr_k:
                    incompatible.append("--exact-substr-k")
                if args.shards > 1:
                    incompatible.append("--shards")
                if incompatible:
                    print("error: --resumable does not support "
                          + ", ".join(incompatible)
                          + " (corpus-rewrite/shuffle-attach modes need "
                          "the one-shot prepare)", file=sys.stderr)
                    return 2
                recs = prepare_resumable(
                    args.docs, args.out,
                    files_per_partition=args.files_per_partition,
                    bench=read_table(args.bench) if args.bench else None,
                    langs=tuple(args.langs.split(",")),
                    min_quality=args.min_quality,
                    cap_per_source=args.cap_per_source,
                    chunk_size=args.chunk_size,
                    chunk_stride=args.chunk_stride,
                    c4_min_lines=args.c4_min_lines,
                    gopher=args.gopher,
                    hygiene=args.hygiene,
                    min_entropy_e6=args.min_entropy_e6,
                    max_entropy_e6=args.max_entropy_e6,
                    classifier_model=clf_model,
                    min_classifier_e6=args.min_classifier_e6,
                )
                print(json.dumps({"partitions_run": len(recs)}))
                return 0

            out = prepare_corpus(
                read_table(args.docs),
                bench=read_table(args.bench) if args.bench else None,
                langs=tuple(args.langs.split(",")),
                min_quality=args.min_quality,
                cap_per_source=args.cap_per_source,
                chunk_size=args.chunk_size,
                chunk_stride=args.chunk_stride,
                dedup=args.dedup,
                c4_min_lines=args.c4_min_lines,
                gopher=args.gopher,
                line_dedup=args.line_dedup,
                hygiene=args.hygiene,
                min_entropy_e6=args.min_entropy_e6,
                max_entropy_e6=args.max_entropy_e6,
                exact_substr_k=args.exact_substr_k,
                classifier_model=clf_model,
                min_classifier_e6=args.min_classifier_e6,
            )
            if args.shards > 1:
                import pyarrow as pa

                from schisma_ray.sources.writer import write_partitioned
                from schisma_ray.stages._digest import md5_u32

                nshards = args.shards

                def add_shard(t: pa.Table) -> pa.Table:
                    # full-range md5_u32 % N (NOT the rate-sampling
                    # %10000 bucket, which would alias shards above
                    # 10000 and break re-target-by-formula)
                    shard = md5_u32(t["doc_id"].to_pylist()) % nshards
                    return t.append_column(
                        "shard", pa.array(shard.astype("int64"))
                    )

                write_partitioned(
                    out.map_batches(add_shard, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    args.out, partition_cols=["shard"],
                )
            else:
                out.write_parquet(args.out)
            import pyarrow.dataset as pads

            try:
                n = pads.dataset(args.out).count_rows()
            except FileNotFoundError:
                # an all-filtered corpus writes no files at all
                n = 0
            print(json.dumps({"chunks_written": n, "out": args.out}))
        elif args.cmd == "curate":
            from schisma_ray.pipelines.curation import curate_images

            out = curate_images(args.table, max_hamming=args.max_hamming)
            out.write_parquet(args.out)
            import pyarrow.dataset as pads

            try:
                n = pads.dataset(args.out).count_rows()
            except FileNotFoundError:
                # an all-quarantined table writes no files at all
                n = 0
            print(json.dumps({"survivors": n, "out": args.out}))
        elif args.cmd == "convert":
            from schisma_ray.sources.reader import read_table
            from schisma_ray.sources.writer import write_table

            write_table(read_table(args.src), args.out, fmt=args.fmt)
            print(json.dumps({"out": args.out}))
        elif args.cmd == "diff":
            from schisma_ray.sources.reader import read_table
            from schisma_ray.stages._bucket import bucket_combine
            from schisma_ray.stages.diff import table_diff

            ds_old = read_table(args.old)
            ds_new = read_table(args.new)
            shared = [c for c in ds_old.schema().names
                      if c in set(ds_new.schema().names)]
            if args.columns:
                cols = [c.strip() for c in args.columns.split(",")]
                bad = [c for c in cols if not c or c not in shared]
                if bad:
                    print(f"error: columns not shared by both tables: "
                          f"{', '.join(repr(c) for c in bad)} (shared: "
                          f"{', '.join(shared)})", file=sys.stderr)
                    return 2
            else:
                cols = [c for c in shared if c != args.key]
            if not cols:
                print("error: no shared non-key columns to compare",
                      file=sys.stderr)
                return 2
            # one materialized pass: the tally always comes from THIS
            # run's Dataset (a reused --out dir may hold other runs'
            # files), and a later write doesn't re-execute the diff
            diff = table_diff(ds_old, ds_new, args.key, cols).materialize()
            tally = {"added": 0, "removed": 0, "changed": 0}
            counts = bucket_combine(diff, "change",
                                    {"n": ("change", "count_all")})
            for row in counts.take_all():
                tally[row["change"]] = int(row["n"])
            if args.out:
                diff.write_parquet(args.out)
            print(json.dumps({**tally, "columns": cols,
                              **({"out": args.out} if args.out else {})}))
        elif args.cmd == "run":
            import pandas as pd
            import pyarrow as pa

            from schisma_ray.pipelines.catalog import QUERIES

            if not args.query:
                print("error: --query or --list required", file=sys.stderr)
                return 2
            if args.query not in QUERIES:
                print(f"error: unknown query {args.query!r} "
                      f"(use run --list)", file=sys.stderr)
                return 2
            from pathlib import Path as _Path

            if not _Path(args.sf).is_dir():
                print(f"error: --sf dir not found: {args.sf}",
                      file=sys.stderr)
                return 2
            result = QUERIES[args.query](args.sf)
            if args.out:
                if hasattr(result, "write_parquet"):  # ray Dataset
                    result.write_parquet(args.out)
                else:
                    import pyarrow.parquet as pq

                    tbl = (pa.Table.from_pandas(result)
                           if isinstance(result, pd.DataFrame) else result)
                    pq.write_table(tbl, args.out)
                import pyarrow.dataset as pads

                try:
                    n = pads.dataset(args.out).count_rows()
                except FileNotFoundError:
                    n = 0  # empty Dataset writes nothing
                print(json.dumps({"query": args.query, "rows": n,
                                  "out": args.out}))
            else:
                if hasattr(result, "write_parquet"):
                    df = result.limit(args.limit).to_pandas()
                elif isinstance(result, pa.Table):
                    df = result.slice(0, args.limit).to_pandas()
                else:
                    df = result.head(args.limit)
                for rec in df.to_dict("records"):
                    print(json.dumps(rec, default=str))
        elif args.cmd == "plan":
            from schisma_ray.sources.reader import read_table
            from schisma_ray.stages.profile import join_cardinality

            card = join_cardinality(
                read_table(args.left), read_table(args.right),
                left_key=args.left_key,
                right_key=args.right_key or args.left_key,
            ).to_pylist()[0]
            tgt = max(1, args.target_rows_per_partition)
            hot_share = (card["max_key_rows"] / card["est_rows"]
                         if card["est_rows"] else 0.0)
            salt = card["max_key_rows"] > args.salt_threshold * tgt
            card["recommendation"] = {
                "salt_hot_keys": bool(salt),
                "hot_key_share": round(hot_share, 6),
                "note": ("hot key alone exceeds "
                         f"{args.salt_threshold}x a partition target; "
                         "salt it before the join" if salt else
                         "hash partitioning is sufficient"),
            }
            print(json.dumps(card, indent=2, sort_keys=True))
        elif args.cmd == "audit":
            from schisma_ray.pipelines.audit import corpus_audit
            from schisma_ray.sources.reader import read_table

            def _gate(v: int) -> int | None:
                return None if v is None or v < 0 else v

            verdict = corpus_audit(
                read_table(args.docs),
                id_col=args.id_col,
                text_col=args.text_col,
                lang_col=args.lang_col,
                max_split_diff_e6=_gate(args.max_split_diff_e6),
                max_mixture_shift_e6=_gate(args.max_mixture_shift_e6),
                max_dup_rate_e6=_gate(args.max_dup_rate_e6),
                max_template_share_e6=_gate(args.max_template_share_e6),
                max_leak_keys=_gate(args.max_leak_keys),
            )
            payload = json.dumps(verdict, indent=2, sort_keys=True)
            if args.out:
                from pathlib import Path as _Path

                _Path(args.out).write_text(payload)
            print(payload)
            return 0 if verdict["verdict"] == "PASS" else 1

        elif args.cmd == "profile":
            import pyarrow as pa
            from ray.data.aggregate import Count, Max, Mean, Min, Std

            from schisma_ray.sources.reader import read_table
            from schisma_ray.stages.profile import null_cooccurrence
            from schisma_ray.stages.stats import HLL, NullCount

            ds = read_table(args.table)
            schema = ds.schema()
            type_of = dict(zip(schema.names, schema.types))
            cols = ([c.strip() for c in args.columns.split(",")]
                    if args.columns else list(schema.names))
            unknown = [c for c in cols if c not in type_of]
            if unknown:
                print(f"error: columns not in table: "
                      f"{', '.join(unknown)} (have: "
                      f"{', '.join(schema.names)})", file=sys.stderr)
                return 2
            # ONE aggregation pass over everything: null counts + HLL
            # distinct for every column, min/max/mean for numerics, Std
            # for floats only (hash-magnitude int64 overflows Ray's Std)
            aggs = [Count(alias_name="__rows__")]
            for c in cols:
                aggs.append(NullCount(c, alias_name=f"nulls:{c}"))
                aggs.append(HLL(c, alias_name=f"distinct:{c}"))
                if (pa.types.is_integer(type_of[c])
                        or pa.types.is_floating(type_of[c])):
                    aggs += [Min(c, alias_name=f"min:{c}"),
                             Max(c, alias_name=f"max:{c}"),
                             Mean(c, alias_name=f"mean:{c}")]
                if pa.types.is_floating(type_of[c]):
                    aggs.append(Std(c, alias_name=f"std:{c}"))
            row = ds.aggregate(*aggs)
            n_rows = row["__rows__"]
            for c in cols:
                rec = {"column": c, "type": str(type_of[c]),
                       "n_rows": n_rows, "n_nulls": row[f"nulls:{c}"],
                       "null_rate": round(
                           row[f"nulls:{c}"] / max(n_rows, 1), 6),
                       "distinct_hll": row[f"distinct:{c}"]}
                for k in ("min", "max", "mean", "std"):
                    if f"{k}:{c}" in row:
                        rec[k] = row[f"{k}:{c}"]
                print(json.dumps(rec, default=str))
            if args.cooccurrence:
                for r in null_cooccurrence(ds, cols).to_pylist():
                    print(json.dumps({"pair": True, **r}))
        elif args.cmd == "infer":
            from schisma_ray.schema.infer import infer_schema_literal, literal_repr
            from schisma_ray.sources.reader import read_table

            lit = infer_schema_literal(read_table(args.table))
            print(json.dumps({k: literal_repr(v) for k, v in lit.items()}))
    finally:
        if started:
            import ray

            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
