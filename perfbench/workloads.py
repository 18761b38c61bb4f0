"""The two workloads, each a fixed chain of three timed steps.

Every step calls public functions of ``schisma_ray`` and is checked by
``checks.py`` outside its timed region. A step's end-to-end figure is
its input rows divided by the median of its timed runs.

=============  ==========  ======================  =========================
workload       step 1      step 2                  step 3
=============  ==========  ======================  =========================
images         validate    profile (stats, HLL)    conform, checkpoint, resume
events_keyed   sessions    windows                 props (row kernel)
=============  ==========  ======================  =========================
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pyarrow as pa
import pyarrow.parquet as pq

import checks

#: resumable layout: 4 shards -> 2 partitions of 2 files; the resume
#: step deletes the last partition's commit record and runs again
FILES_PER_PARTITION = 2
RESUME_DELETE = 1


@dataclass
class Inputs:
    images: Path
    n_images: int
    events: Path
    n_events: int
    work: Path  # step outputs (conform table, checkpoint directory)


@dataclass
class Op:
    name: str
    rows: int
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    prepare: Callable[[], None] | None = None
    #: timed runs per round; a run makes at least two rounds, so each
    #: step's timed runs are spread over the run instead of bunched
    runs: int = 2
    #: one untimed run first: only steps measured to be slower on their
    #: first run after another step (validate, sessions) need it
    warm: bool = False


def collect(ds) -> pa.Table:
    """Consume a Dataset to the end, into one table in this process."""
    return pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default",
    )


def reference_profile(table_dir: Path) -> dict[str, float]:
    t = pq.read_table(table_dir / "reference_profile.parquet")
    return {b: f for c, b, f in zip(t["column"].to_pylist(), t["bucket"].to_pylist(),
                                    t["freq"].to_pylist()) if c == "fmt"}


def images(inp: Inputs) -> list[Op]:
    from schisma_ray.pipelines import conform_images, validate_images
    from schisma_ray.pipelines.validate_pipeline import read_images
    from schisma_ray.stages.stats import (HLL, ValueCounts, categorical_drift,
                                          numeric_stats)
    from schisma_ray.state import checkpoint

    d = inp.images
    conform_out = inp.work / "conform"
    ckpt_out = inp.work / "resumable"
    parts = checkpoint.partition_inputs(d, FILES_PER_PARTITION)
    deleted = [checkpoint.partition_id(i, files)
               for i, files in enumerate(parts)][-RESUME_DELETE:]

    def validate():
        return collect(validate_images(d, fused=True))

    def profile():
        stats = numeric_stats(read_images(d, ["w", "h", "phash"]), ["w", "h", "phash"],
                              distinct=False, std_columns=["w", "h"])
        counts = read_images(d, ["fmt"]).aggregate(ValueCounts("fmt", alias_name="vc"))["vc"]
        row = read_images(d, ["image_id", "phash"]).aggregate(
            HLL("image_id", alias_name="image_id"), HLL("phash", alias_name="phash"))
        return (stats, categorical_drift(counts, reference_profile(d)),
                {"image_id": row["image_id"], "phash": row["phash"]})

    def check_profile(out):
        stats, drift, hll = out
        return checks.profile(d, stats, drift) + checks.distinct(d, hll)

    def clear_outputs():
        shutil.rmtree(conform_out, ignore_errors=True)
        shutil.rmtree(ckpt_out, ignore_errors=True)

    def write_chain():
        """conform + write, a resumable validation, then a resume after
        the last partitions' commit records are deleted."""
        conform_images(d).write_parquet(str(conform_out))
        first = checkpoint.run_resumable(d, ckpt_out, fused_validate_pipe,
                                         files_per_partition=FILES_PER_PARTITION)
        kept = checks.partition_files(ckpt_out, exclude=deleted)
        for pid in deleted:
            (ckpt_out / "_commits" / f"{pid}.json").unlink()
        again = checkpoint.run_resumable(d, ckpt_out, fused_validate_pipe,
                                         files_per_partition=FILES_PER_PARTITION)
        return first, kept, again

    def check_chain(out):
        first, kept, again = out
        errs = checks.conform(d, conform_out) + checks.resumable(d, ckpt_out)
        if len(first) != len(parts):
            errs.append(f"checkpoint: {len(first)} partitions run, expected {len(parts)}")
        ran = sorted(r["partition_id"] for r in again)
        if ran != sorted(deleted):
            errs.append(f"resume ran {ran}, expected exactly {deleted}")
        if checks.partition_files(ckpt_out, exclude=deleted) != kept:
            errs.append("resume rewrote a committed partition")
        return errs

    return [
        Op("validate", inp.n_images, validate,
           lambda out: checks.violations(d, out, inp.n_images), runs=1, warm=True),
        Op("profile", inp.n_images, profile, check_profile),
        Op("write_chain", inp.n_images, write_chain, check_chain,
           prepare=clear_outputs, runs=1),
    ]


def fused_validate_pipe(ds):
    """The per-partition pipeline of ``cli validate --resumable``."""
    from schisma_ray.pipelines.validate_pipeline import FusedValidator

    return ds.map_batches(FusedValidator(), batch_format="pyarrow", zero_copy_batch=True)


def events_keyed(inp: Inputs) -> list[Op]:
    from schisma_ray.pipelines import catalog

    e = inp.events

    def step(query):
        return lambda: collect(query(str(e)))

    return [
        Op("sessions", inp.n_events, step(catalog.q_event_sessions),
           lambda out: checks.sessions(e, out), runs=3, warm=True),
        Op("windows", inp.n_events, step(catalog.q_events_windowed),
           lambda out: checks.windows(e, out), runs=1),
        Op("props", inp.n_events, step(catalog.q_validate_event_props),
           lambda out: checks.props(e, out), runs=1),
    ]


WORKLOADS = {
    "images": images,
    "events_keyed": events_keyed,
}
