"""schisma-ray benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any working directory: every path is resolved from this file.
Inputs are generated once per seed into ``.bench_cache/`` at the
repository root, before any timing starts. With ``--trace 0`` the run
times whole rounds of the workload's three steps for ``--seconds``
seconds and prints the end-to-end metrics; with ``--trace 1`` it records
spans, runs every layer alone (``layers.py``), writes one JSON report
to ``.bench_cache/traces/`` and prints the per-layer metrics. The last
line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"
#: step outputs of this run, deleted when it ends
WORK = CACHE / "work" / str(os.getpid())
#: Ray puts Unix sockets under its temp dir, as
#: ``<temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store``,
#: and a socket path must fit in 107 bytes
MAX_SOCKET_PATH = 107
#: Ray's object store is one file in /dev/shm of this size; it must stay
#: under the process's file-size limit (RLIMIT_FSIZE), or the raylet is
#: killed by SIGXFSZ while creating it and ray.init times out
OBJECT_STORE_BYTES = 512 << 20
SETUPS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("step1_rows_per_s", "rows/s"),
    ("step2_rows_per_s", "rows/s"),
    ("step3_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
]
#: the per-step names the figures are reported under in the README
STEP_NAMES = {
    "images": ("validate_rows_per_s", "profile_rows_per_s", "write_chain_rows_per_s"),
    "events_keyed": ("sessions_events_per_s", "windows_events_per_s",
                     "props_docs_per_s"),
}

T_START = time.monotonic()


def log(msg: str) -> None:
    print(f"[{time.monotonic() - T_START:7.2f}s] {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------ processes

def _children() -> dict[int, list[int]]:
    """ppid -> live (non-zombie) child pids, from /proc."""
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if state != "Z":
            kids.setdefault(int(ppid), []).append(int(entry))
    return kids


def descendants() -> list[int]:
    kids, out, stack = _children(), [], [os.getpid()]
    while stack:
        for c in kids.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def _rss_anon_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler(threading.Thread):
    """Peak of the summed private (anonymous) resident memory of this
    process and every process it started, sampled every 0.2 s. Shared
    object-store pages are left out: they would count once per mapping."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kb = 0
        self._stop_evt = threading.Event()

    def run(self):
        while not self._stop_evt.is_set():
            total = sum(_rss_anon_kb(p) for p in [os.getpid(), *descendants()])
            self.peak_kb = max(self.peak_kb, total)
            self._stop_evt.wait(0.2)

    def stop(self) -> float:
        self._stop_evt.set()
        self.join()
        return self.peak_kb / 1024.0


def _collect_zombies() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def kill_tree() -> None:
    """SIGKILL every process this run started, until none is left."""
    for _ in range(50):
        if not (left := descendants()):
            break
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
    _collect_zombies()


def reap(timeout_s: float = 15.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    deadline = time.monotonic() + timeout_s
    while (left := descendants()) and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in left:
        try:
            name = open(f"/proc/{pid}/cmdline").read().replace("\0", " ")[:160]
        except OSError:
            name = "?"
        log(f"killing leftover process {pid}: {name}")
    kill_tree()


def on_sigterm(*_):
    """Kill every process this run started, then exit with 143. Raising
    SystemExit instead can surface inside a blocking Ray call, after which
    ``ray.shutdown`` leaves Ray's agent processes running (orphaned, out
    of reach of ``reap``) and the interpreter exits with 1."""
    log("terminated by SIGTERM")
    kill_tree()
    shutil.rmtree(WORK, ignore_errors=True)
    os._exit(143)


def cpu_jiffies() -> list[int]:
    """The machine-wide ``cpu`` line of /proc/stat: user, nice, system,
    idle, iowait, irq, softirq, steal."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the CPU time the hypervisor gave to other guests while
    this machine's CPUs had work (steal over busy plus steal): on a shared
    host, the part of the run-to-run spread that comes from outside."""
    d = [b - a for a, b in zip(before, after)]
    busy = sum(d) - d[3] - d[4]
    return d[7] / busy if busy else 0.0


# ------------------------------------------------------------------ ray

def _warm_worker() -> int:
    import schisma_ray.pipelines.validate_pipeline  # noqa: F401

    time.sleep(0.2)  # hold the worker so the next task starts another
    return os.getpid()


def object_store_bytes() -> int:
    """``OBJECT_STORE_BYTES``, or half the file-size limit if that is lower."""
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    if limit == resource.RLIM_INFINITY:
        return OBJECT_STORE_BYTES
    return min(OBJECT_STORE_BYTES, limit // 2)


def ray_temp_dir() -> Path | None:
    """Ray's temp dir inside the checkout: ``.bench_cache/ray``, or
    ``.bench_cache`` itself in a checkout whose path is too long for the
    first; None (Ray's default) if neither leaves room for the sockets."""
    with open("/proc/sys/kernel/pid_max") as f:
        pid_digits = len(str(int(f.read()) - 1))
    suffix = (len("/session_2026-01-01_00-00-00_000000_") + pid_digits
              + len("/sockets/plasma_store"))
    for d in (CACHE / "ray", CACHE):
        if len(str(d)) + suffix <= MAX_SOCKET_PATH:
            return d
    return None


def ray_start(num_cpus: int) -> float:
    """Start a local Ray session and warm one worker per CPU; returns
    the set-up time."""
    import ray

    t0 = time.perf_counter()
    kwargs = dict(address="local", num_cpus=num_cpus, include_dashboard=False,
                  logging_level="ERROR", log_to_driver=False,
                  object_store_memory=object_store_bytes())
    if tmp := ray_temp_dir():
        tmp.mkdir(parents=True, exist_ok=True)
        kwargs["_temp_dir"] = str(tmp)
    ray.init(**kwargs)
    # ray.init installs a SIGTERM handler that exits with code 1; put back
    # the one that stops every process and reports the signal
    signal.signal(signal.SIGTERM, on_sigterm)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    warm = ray.remote(_warm_worker)
    ray.get([warm.remote() for _ in range(2 * num_cpus)])
    return time.perf_counter() - t0


def ray_stop() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


# --------------------------------------------------------------- rounds

class Rounds:
    """Runs whole rounds of a workload's steps. A round runs each step
    ``op.runs`` times in a row, after one untimed run for a step with
    ``op.warm`` (so its timed runs follow a run of the same step: worker
    pools started, input in the page cache). Every run is checked; a run
    that raises or fails its check counts as failed and is not timed."""

    def __init__(self, ops, tracer):
        self.ops, self.tr = ops, tracer
        self.times: list[list[float]] = [[] for _ in ops]
        self.attempted = self.failed = 0
        self.correct = True

    def _run(self, op, timed: bool) -> float | None:
        self.attempted += 1
        try:
            if op.prepare:
                op.prepare()
            with self.tr.span(op.name if timed else f"{op.name}.warm"):
                t0 = time.perf_counter()
                out = op.run()
                dt = time.perf_counter() - t0
            with self.tr.span(f"check.{op.name}"):
                errs = op.check(out)
            log(f"{op.name}{'' if timed else ' (warm)'}: {dt:.3f} s, checked in "
                f"{time.perf_counter() - t0 - dt:.3f} s")
        except Exception:  # a failed step is counted, the run goes on
            log(f"step {op.name} raised:\n{traceback.format_exc()}")
            self.failed += 1
            return None
        if errs:
            log(f"step {op.name} output is wrong: {errs}")
            self.failed += 1
            self.correct = False
            return None
        return dt

    def round(self) -> float:
        t_round = time.perf_counter()
        for i, op in enumerate(self.ops):
            if op.warm:
                self._run(op, timed=False)
            for _ in range(op.runs):
                if (dt := self._run(op, timed=True)) is not None:
                    self.times[i].append(dt)
        return time.perf_counter() - t_round

    def rows_per_s(self, i: int) -> float:
        ts = self.times[i]
        return self.ops[i].rows / statistics.median(ts) if ts else 0.0


# ----------------------------------------------------------------- main

def make_inputs(workload: str, seed: int, work: Path, everything: bool):
    import inputs
    from workloads import Inputs

    data = CACHE / "inputs"
    images = events = None
    if everything or workload == "images":
        images = inputs.image_table(data, seed)
    if everything or workload == "events_keyed":
        events = inputs.events_table(data, seed)
    work.mkdir(parents=True, exist_ok=True)
    return Inputs(images, inputs.N_IMAGES, events, inputs.N_EVENTS, work)


def run_untraced(args, ncpu: int, work: Path) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    setups, inp = [], None
    for i in range(SETUPS):
        setups.append(ray_start(ncpu))
        if inp is None:  # generation is cached per seed and not timed
            inp = make_inputs(args.workload, args.seed, work, everything=False)
        if i < SETUPS - 1:
            ray_stop()
    log(f"set-up times {setups}")
    rounds = Rounds(WORKLOADS[args.workload](inp), Tracer(enabled=False))
    sampler = RssSampler()
    sampler.start()
    t0, cpu0 = time.perf_counter(), cpu_jiffies()
    try:
        while True:
            log(f"round {rounds.round():.3f} s")
            if time.perf_counter() - t0 >= args.seconds:
                break
    finally:
        peak_mb = sampler.stop()
    log(f"CPU steal during the rounds: {steal_share(cpu0, cpu_jiffies()):.1%} "
        "of busy CPU time")
    values = {
        "setup_s": statistics.median(setups),
        **{f"step{i + 1}_rows_per_s": rounds.rows_per_s(i) for i in range(3)},
        "peak_rss_mb": peak_mb,
    }
    for i, name in enumerate(STEP_NAMES[args.workload]):
        log(f"{name} = {values[f'step{i + 1}_rows_per_s']:.1f} rows/s "
            f"(step{i + 1}_rows_per_s, median of {len(rounds.times[i])} timed runs)")
    return {"correct": rounds.correct, "attempted": rounds.attempted,
            "failed": rounds.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END}}


def run_traced(args, ncpu: int, work: Path) -> dict:
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    tr = Tracer(enabled=True)
    with tr.span("setup"):
        ray_start(ncpu)
    inp = make_inputs(args.workload, args.seed, work, everything=True)
    traced = Rounds(WORKLOADS[args.workload](inp), tr)
    with tr.span(f"round.{args.workload}"):
        traced.round()

    def restart(num_cpus):
        with tr.span("setup.restart"):
            ray_stop()
            ray_start(num_cpus)

    with tr.span("layers"):
        metrics, ops_by_plan = layers.measure(inp, tr, ncpu, restart)
    # compare with the untraced run's steps for the tracing overhead
    metrics["trace.step_s"] = sum(statistics.median(t) for t in traced.times if t)
    metrics["trace.spans"] = len(tr.spans)
    report = {
        "workload": args.workload, "seed": args.seed, "num_cpus": ncpu,
        "run_id": tr.run_id, "rows": {"images": inp.n_images, "events": inp.n_events},
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in layers.PER_LAYER},
        "operators": ops_by_plan, "spans": tr.report(),
    }
    out = CACHE / "traces" / f"{args.workload}-s{args.seed}-{tr.run_id}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    for plan, ops_list in ops_by_plan.items():
        for o in ops_list:
            log(f"  {plan}: {o['operator']}  wall {o['wall_s']:.3f} s  cpu "
                f"{o['cpu_s']:.3f} s  udf {o['udf_s']:.3f} s  rows {o['rows_out']}  "
                f"bytes {o['bytes_out']}")
    for k, u in layers.PER_LAYER:
        log(f"{k} = {metrics[k]} {u}")
    for i, name in enumerate(STEP_NAMES[args.workload]):
        log(f"traced {name} = {traced.rows_per_s(i):.1f} rows/s (step{i + 1}_rows_per_s)")
    log(f"trace written to {out}")
    return {"correct": traced.correct, "attempted": traced.attempted,
            "failed": traced.failed,
            "metrics": report["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(STEP_NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "schisma_ray" / "__init__.py").is_file():
        log(f"no schisma_ray package in {ROOT}: run the benchmark from a "
            "checkout of the repository")
        return 2
    os.environ["SCHISMA_RAY_CACHE"] = str(CACHE / "inputs")
    # numpy inside Ray workers must not start one thread per core each
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    # the same Ray behaviour whatever the caller's environment: no usage
    # reporting, and no memory monitor killing workers because of other
    # tenants' memory use
    os.environ.update(RAY_USAGE_STATS_ENABLED="0", RAY_memory_monitor_refresh_ms="0")
    # Ray workers import schisma_ray (and nothing else of the benchmark)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(ROOT))
    # a SIGTERM (a timeout, say) still stops every process this run started
    signal.signal(signal.SIGTERM, on_sigterm)
    ncpu = len(os.sched_getaffinity(0))
    try:
        result = (run_traced if args.trace else run_untraced)(args, ncpu, WORK)
    finally:
        ray_stop()
        log("ray stopped")
        reap()
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
