"""Per-layer measurements for the traced run.

Each layer is timed alone through its public function, inside a span
named after it. Ray-free layers run in this process on tables read with
pyarrow; the rest run in the benchmark's Ray session. The composition
figure is measured: the full ``validate_images`` pass minus the sum of
its branches, each run alone. Two same-window references close the
suite: a raw process pool running ``FusedValidator`` with no Ray (the
ceiling of this box), and the validate pass in a one-CPU Ray session.

Every traced run measures every layer, whatever its workload, so each
traced run reports the same metric set.
"""

from __future__ import annotations

import gc
import inspect
import multiprocessing as mp
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

import inputs
from workloads import (FILES_PER_PARTITION, RESUME_DELETE, Inputs, collect,
                       fused_validate_pipe, reference_profile)

#: Ray Data plans whose per-operator stats are reported
PLANS = ("validate", "conform", "sessions", "windows", "props")
OP_FIELDS = (("wall_s", "s"), ("cpu_s", "s"), ("udf_s", "s"),
             ("rows_out", "count"), ("bytes_out", "bytes"))
#: props documents fed to the Ray-free row kernel
KERNEL_DOCS = 20_000

PER_LAYER = [
    ("reader.full_rows_per_s", "rows/s"),
    ("reader.light_rows_per_s", "rows/s"),
    ("reader.scans_per_validate", "count"),
    ("table_schema.rows_per_s", "rows/s"),
    ("table_schema.violations", "count"),
    ("decoder.validate_rows_per_s", "rows/s"),
    ("decoder.conform_rows_per_s", "rows/s"),
    ("conform.rows_per_s", "rows/s"),
    ("row_kernel.validate_docs_per_s", "docs/s"),
    ("row_kernel.conform_docs_per_s", "docs/s"),
    ("uniqueness.alone_s", "s"),
    ("uniqueness.dup_keys", "count"),
    ("referential.alone_s", "s"),
    ("referential.orphans", "count"),
    ("validate_pipeline.full_s", "s"),
    ("validate_pipeline.schema_alone_s", "s"),
    ("validate_pipeline.fused_alone_s", "s"),
    ("validate_pipeline.sum_of_parts_s", "s"),
    ("validate_pipeline.composition_s", "s"),
    ("stats.numeric_s", "s"),
    ("stats.drift_s", "s"),
    ("stats.hll_s", "s"),
    ("window.sessions_alone_s", "s"),
    ("window.tumbling_alone_s", "s"),
    ("bucket.skew_max_over_median", "ratio"),
    ("shuffle.bytes", "bytes"),
    ("checkpoint.partitions", "count"),
    ("checkpoint.partition_s_median", "s"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.resume_partitions_run", "count"),
    ("ceiling.raw_process_rows_per_s", "rows/s"),
    ("ceiling.ray_ncpu_rows_per_s", "rows/s"),
    ("ceiling.ray_1cpu_rows_per_s", "rows/s"),
    ("trace.step_s", "s"),
    ("trace.spans", "count"),
] + [(f"op.{p}.{f}", u) for p in PLANS for f, u in OP_FIELDS]


def plan_operators(ds) -> list[dict]:
    """Per-operator figures of an executed Dataset, from Ray's
    structured stats summary (parents first)."""
    out = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for o in summary.operators_stats:
            out.append({
                "operator": o.operator_name,
                "wall_s": (o.wall_time or {}).get("sum", 0.0),
                "cpu_s": (o.cpu_time or {}).get("sum", 0.0),
                "udf_s": (o.udf_time or {}).get("sum", 0.0),
                "rows_out": (o.output_num_rows or {}).get("sum", 0),
                "bytes_out": (o.output_size_bytes or {}).get("sum", 0),
            })

    walk(ds._get_stats_summary())
    return out


def _executed_datasets() -> dict:
    """Every Dataset execution of this Ray session, with its operator
    names, from Ray Data's stats actor."""
    import ray
    from ray.data._internal.stats import _get_or_create_stats_actor

    return ray.get(_get_or_create_stats_actor().get_datasets.remote())


def _timed(tr, name, fn):
    with tr.span(name):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0


def _count_rows(ds) -> int:
    return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow",
                                                   batch_size=None))


def _validate_shard(path: str) -> int:
    """Raw-process ceiling worker: one shard through FusedValidator."""
    from schisma_ray.pipelines.validate_pipeline import FusedValidator

    return FusedValidator()(pq.read_table(path)).num_rows


def raw_process_rows_per_s(files: list[str], n_rows: int, procs: int) -> float:
    from multiprocessing import resource_tracker

    pool = mp.get_context("spawn").Pool(procs)
    try:
        pool.map(_validate_shard, files)  # start workers, warm imports and page cache
        t0 = time.perf_counter()
        pool.map(_validate_shard, files)
        return n_rows / (time.perf_counter() - t0)
    finally:
        pool.terminate()
        pool.join()
        # release the pool's semaphores, then end the resource tracker
        # process the pool started, instead of leaving it to interpreter exit
        del pool
        gc.collect()
        resource_tracker._resource_tracker._stop()


def measure(inp: Inputs, tr, ncpu: int, restart_ray) -> tuple[dict, dict]:
    """Run every layer once; returns (metrics, per-plan operator lists).
    ``restart_ray(num_cpus)`` replaces the Ray session; it is called once,
    last, for the one-CPU reference."""
    import ray.data as rd

    from schisma_ray.pipelines import catalog, conform_images, validate_images
    from schisma_ray.pipelines.validate_pipeline import (LIGHT_COLUMNS,
                                                         image_table_schema,
                                                         read_images)
    from schisma_ray.schema import Number
    from schisma_ray.stages._bucket import key_bucket
    from schisma_ray.stages.conform import TableConformer
    from schisma_ray.stages.decoder import DecodeConformer, DecodeValidator
    from schisma_ray.stages.referential import referential_violations
    from schisma_ray.stages.stats import (HLL, ValueCounts, categorical_drift,
                                          numeric_stats)
    from schisma_ray.stages.uniqueness import uniqueness_violations
    from schisma_ray.stages.validate import (JsonColumnConformer,
                                             JsonColumnValidator, TableValidator)
    from schisma_ray.stages.window import session_agg
    from schisma_ray.state import checkpoint

    d, n, m = inp.images, inp.n_images, {}
    files = sorted(str(p) for p in (d / "images").glob("*.parquet"))

    # sources.reader: full rows (bytes included) and the light columns
    _, s = _timed(tr, "reader.full", lambda: _count_rows(read_images(d)))
    m["reader.full_rows_per_s"] = n / s
    _, s = _timed(tr, "reader.light", lambda: _count_rows(read_images(d, LIGHT_COLUMNS)))
    m["reader.light_rows_per_s"] = n / s

    # Ray-free kernels, one process
    table = pq.read_table(d / "images")
    vio, s = _timed(tr, "table_schema", lambda: TableValidator(image_table_schema())(table))
    m["table_schema.rows_per_s"], m["table_schema.violations"] = n / s, vio.num_rows
    shard = pq.read_table(files[0])
    _, s = _timed(tr, "decoder.validate", lambda: DecodeValidator()(shard))
    m["decoder.validate_rows_per_s"] = shard.num_rows / s
    _, s = _timed(tr, "decoder.conform", lambda: DecodeConformer()(shard))
    m["decoder.conform_rows_per_s"] = shard.num_rows / s
    _, s = _timed(tr, "conform", lambda: TableConformer(image_table_schema())(table))
    m["conform.rows_per_s"] = n / s
    docs = pq.read_table(inp.events / "events.parquet",
                         columns=["event_id", "props"]).slice(0, KERNEL_DOCS)
    props_schema = {"k": {"$type": Number, "$validate": catalog._props_k_range}}
    _, s = _timed(tr, "row_kernel.validate",
                  lambda: JsonColumnValidator(props_schema, "props", "event_id")(docs))
    m["row_kernel.validate_docs_per_s"] = docs.num_rows / s
    _, s = _timed(tr, "row_kernel.conform",
                  lambda: JsonColumnConformer({"k": Number, "m": Number},
                                              "props", "event_id")(docs))
    m["row_kernel.conform_docs_per_s"] = docs.num_rows / s

    # validate_images: each branch alone, then the full pass. One untimed
    # pass first, so the branches are timed warm whatever ran before them
    # (the events round runs no validation; the images round does)
    with tr.span("validate_pipeline.warm"):
        collect(validate_images(d, fused=True))
    _, m["validate_pipeline.schema_alone_s"] = _timed(
        tr, "validate_pipeline.schema_alone",
        lambda: collect(validate_images(d, decode=False, uniqueness=False,
                                        referential=False)))
    _, m["validate_pipeline.fused_alone_s"] = _timed(
        tr, "validate_pipeline.fused_alone",
        lambda: collect(validate_images(d, fused=True, uniqueness=False,
                                        referential=False)))
    _, m["uniqueness.alone_s"] = _timed(
        tr, "uniqueness.alone",
        lambda: collect(uniqueness_violations(read_images(d, ["image_id", "phash"]),
                                              "phash", id_column="image_id")))
    # duplicate_keys folds one row per distinct key in the calling process and
    # switches to a Ray groupby above 2M of them: this is the fold's size
    m["uniqueness.dup_keys"] = pc.count_distinct(table["phash"]).as_py()
    orphans, m["referential.alone_s"] = _timed(
        tr, "referential.alone",
        lambda: collect(referential_violations(
            read_images(d, ["image_id"]), "image_id",
            rd.read_parquet(str(d / "reference_ids.parquet")), strategy="broadcast")))
    m["referential.orphans"] = orphans.num_rows
    before = set(_executed_datasets())
    full_ds = None

    def full():
        nonlocal full_ds
        full_ds = validate_images(d, fused=True)  # folds the uniqueness keys eagerly
        return collect(full_ds)

    _, m["validate_pipeline.full_s"] = _timed(tr, "validate_pipeline.full", full)
    executed = {k: v for k, v in _executed_datasets().items() if k not in before}
    # every read the pass executed, including the ones run while the plan
    # is built (the uniqueness fold), which the plan's own stats omit
    m["reader.scans_per_validate"] = sum(
        op.startswith("ReadParquet") for v in executed.values() for op in v["operators"])
    parts = (m["validate_pipeline.fused_alone_s"] + m["uniqueness.alone_s"]
             + m["referential.alone_s"])
    m["validate_pipeline.sum_of_parts_s"] = parts
    m["validate_pipeline.composition_s"] = m["validate_pipeline.full_s"] - parts
    m["ceiling.ray_ncpu_rows_per_s"] = n / m["validate_pipeline.full_s"]
    ops = {"validate": plan_operators(full_ds)}

    # stages.stats: each profile aggregation alone
    _, m["stats.numeric_s"] = _timed(
        tr, "stats.numeric",
        lambda: numeric_stats(read_images(d, ["w", "h", "phash"]), ["w", "h", "phash"],
                              distinct=False, std_columns=["w", "h"]))
    _, m["stats.drift_s"] = _timed(
        tr, "stats.drift",
        lambda: categorical_drift(
            read_images(d, ["fmt"]).aggregate(ValueCounts("fmt", alias_name="vc"))["vc"],
            reference_profile(d)))
    _, m["stats.hll_s"] = _timed(
        tr, "stats.hll",
        lambda: read_images(d, ["image_id", "phash"]).aggregate(
            HLL("image_id", alias_name="a"), HLL("phash", alias_name="b")))

    # conform write plan
    conform_out = inp.work / "layer_conform"
    shutil.rmtree(conform_out, ignore_errors=True)
    cds = conform_images(d)
    _timed(tr, "conform.write", lambda: cds.write_parquet(str(conform_out)))
    ops["conform"] = plan_operators(cds._write_ds)

    # stages.window / stages._bucket on the events
    e = str(inp.events)
    for name, query, key in (("sessions", catalog.q_event_sessions, "sessions_alone_s"),
                             ("windows", catalog.q_events_windowed, "tumbling_alone_s"),
                             ("props", catalog.q_validate_event_props, None)):
        ds = query(e)
        _, s = _timed(tr, f"window.{name}" if key else "row_kernel.ray", lambda: collect(ds))
        if key:
            m[f"window.{key}"] = s
        ops[name] = plan_operators(ds)
    users = pq.read_table(inp.events / "events.parquet", columns=["user_id"])["user_id"]
    buckets = inspect.signature(session_agg).parameters["num_buckets"].default
    sizes = np.bincount(key_bucket(users.combine_chunks(), buckets).to_numpy(),
                        minlength=buckets)
    m["bucket.skew_max_over_median"] = float(sizes.max() / np.median(sizes))
    # bytes leaving the map side into the exchange: every non-read operator
    # of the two shuffle plans
    m["shuffle.bytes"] = sum(o["bytes_out"] for p in ("sessions", "windows")
                             for o in ops[p] if not o["operator"].startswith("Read"))

    # state.checkpoint: a resumable run, then a resume of the deleted commits
    ckpt = inp.work / "layer_ckpt"
    shutil.rmtree(ckpt, ignore_errors=True)
    recs, _ = _timed(tr, "checkpoint.run", lambda: checkpoint.run_resumable(
        d, ckpt, fused_validate_pipe, files_per_partition=FILES_PER_PARTITION))
    m["checkpoint.partitions"] = len(recs)
    m["checkpoint.partition_s_median"] = statistics.median(r["duration_s"] for r in recs)
    m["checkpoint.bytes_written"] = sum(f.stat().st_size for f in ckpt.rglob("*")
                                        if f.is_file())
    for r in recs[-RESUME_DELETE:]:
        (ckpt / "_commits" / f"{r['partition_id']}.json").unlink()
    again, _ = _timed(tr, "checkpoint.resume", lambda: checkpoint.run_resumable(
        d, ckpt, fused_validate_pipe, files_per_partition=FILES_PER_PARTITION))
    m["checkpoint.resume_partitions_run"] = len(again)

    for p in PLANS:
        for f, _ in OP_FIELDS:
            m[f"op.{p}.{f}"] = sum(o[f] for o in ops[p])

    # same-window references: raw processes, then a one-CPU Ray session
    m["ceiling.raw_process_rows_per_s"], _ = _timed(
        tr, "ceiling.raw_process", lambda: raw_process_rows_per_s(files, n, ncpu))
    restart_ray(1)
    with tr.span("ceiling.ray_1cpu"):
        warm = inputs.image_table(Path(os.environ["SCHISMA_RAY_CACHE"]), 0, n=1000)
        collect(validate_images(warm, fused=True))
        _, s = _timed(tr, "ceiling.ray_1cpu.validate",
                      lambda: collect(validate_images(d, fused=True)))
    m["ceiling.ray_1cpu_rows_per_s"] = n / s
    return m, ops
