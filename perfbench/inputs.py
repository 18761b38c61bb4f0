"""Seeded benchmark inputs, generated once per seed into the cache.

* The image table comes from ``schisma_ray.sources.image_table.generate``
  (its cache root is ``$SCHISMA_RAY_CACHE``, which ``run.py`` points at
  the benchmark's own cache directory).
* The events table is made here: ``N_EVENTS`` rows whose ``user_id`` is
  Zipf-skewed over ``N_USERS`` users, five event types over 30 days,
  integer-cent values, and a ``props`` JSON column with planted defects.
  The generator keeps its own record of every planted defect and writes
  the violation rows the row kernel must report as
  ``expected_props.parquet``.

Generation holds an exclusive lock on the cache directory, because
``image_table.generate`` writes through one fixed temporary name and
two concurrent callers would delete each other's files.
"""

from __future__ import annotations

import fcntl
import os
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: image rows: four 5,000-row shards of 8-33 px images (sf0.02)
N_IMAGES = 20_000
N_EVENTS = 100_000
EVENTS_PER_FILE = 12_500
N_USERS = 20_000
ZIPF_S = 1.1
DAYS = 30
T0_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
EVENT_TYPE_P = [0.30, 0.05, 0.10, 0.05, 0.50]
#: planted props defects, as shares of all events
P_OUT_OF_RANGE = 0.02
P_MISSING_K = 0.01
P_EXTRA_KEY = 0.01

#: the columns ``catalog.q_validate_event_props`` returns
PROPS_COLUMNS = ["row_ref", "path", "code", "message"]


@contextmanager
def cache_lock(cache: Path):
    cache.mkdir(parents=True, exist_ok=True)
    with open(cache / ".lock", "w") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(f, fcntl.LOCK_UN)


def image_table(cache: Path, seed: int, n: int = N_IMAGES) -> Path:
    from schisma_ray.sources import image_table as it

    with cache_lock(cache):
        return it.generate(n, seed=seed)


def events_table(cache: Path, seed: int) -> Path:
    """Directory holding ``events.parquet`` (a directory of
    ``EVENTS_PER_FILE``-row fragments) and ``expected_props.parquet``."""
    out = cache / f"events_n{N_EVENTS}_f{EVENTS_PER_FILE}_u{N_USERS}_s{seed}"
    with cache_lock(cache):
        if (out / "_SUCCESS").exists():
            return out
        tmp = out.with_name(out.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        events, expected = _make_events(seed)
        # a directory of fragments, read in parallel like the image shards
        (tmp / "events.parquet").mkdir()
        for i in range(0, N_EVENTS, EVENTS_PER_FILE):
            pq.write_table(events.slice(i, EVENTS_PER_FILE),
                           tmp / "events.parquet" / f"part-{i // EVENTS_PER_FILE:05d}.parquet")
        pq.write_table(expected, tmp / "expected_props.parquet")
        (tmp / "_SUCCESS").touch()
        shutil.rmtree(out, ignore_errors=True)
        os.rename(tmp, out)
    return out


def _make_events(seed: int) -> tuple[pa.Table, pa.Table]:
    rng = np.random.default_rng([seed, 2024])
    n = N_EVENTS
    p_user = np.arange(1, N_USERS + 1, dtype=np.float64) ** -ZIPF_S
    # the hottest users get scattered ids, not 0, 1, 2...
    user_ids = rng.permutation(N_USERS).astype(np.int64)
    user = user_ids[rng.choice(N_USERS, size=n, p=p_user / p_user.sum())]
    ts = T0_US + rng.integers(0, DAYS * 86_400 * 1_000_000, size=n)
    etype = np.asarray(EVENT_TYPES)[rng.choice(5, size=n, p=EVENT_TYPE_P)]
    value = rng.integers(0, 100_000, size=n) / 100.0
    event_id = rng.permutation(n).astype(np.int64) + 1
    k = rng.integers(0, 51, size=n)
    defect = rng.choice(
        4, size=n,
        p=[1 - P_OUT_OF_RANGE - P_MISSING_K - P_EXTRA_KEY,
           P_OUT_OF_RANGE, P_MISSING_K, P_EXTRA_KEY],
    )
    bad_k = np.where(rng.random(n) < 0.5, -1 - k, 51 + k)
    extra = rng.integers(0, 10, size=n)

    props, refs, paths, codes, msgs = [], [], [], [], []
    for eid, d, kk, bk, x in zip(event_id.tolist(), defect.tolist(), k.tolist(),
                                 bad_k.tolist(), extra.tolist()):
        if d == 0:
            props.append(f'{{"k": {kk}}}')
            continue
        refs.append(str(eid))
        if d == 1:
            props.append(f'{{"k": {bk}}}')
            paths.append("props.k"), codes.append("invalid")
            msgs.append(f"expected 0..50, got {bk}")
        elif d == 2:
            props.append("{}")
            paths.append("props.k"), codes.append("missing key"), msgs.append(None)
        else:
            props.append(f'{{"k": {kk}, "extra": {x}}}')
            paths.append("props.extra"), codes.append("unexpected key")
            msgs.append(None)
    events = pa.table(
        {
            "event_id": pa.array(event_id, pa.int64()),
            "user_id": pa.array(user, pa.int64()),
            "event_type": pa.array(etype, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(value, pa.float64()),
            "props": pa.array(props, pa.string()),
        }
    )
    expected = pa.table(
        dict(zip(PROPS_COLUMNS,
                 [pa.array(c, pa.string()) for c in (refs, paths, codes, msgs)]))
    )
    return events, expected
