"""Seeded NESTED-STRUCT event fixture for native struct-column
validation (SURVEY.md §1.4 maps nested objects to ``pa.struct``; the
base testdata has only flat columns + JSON strings, so this companion
table makes the vectorized struct descent falsifiable).

``meta: struct<k: int64, device: string, version: int64,
geo: struct<lat: double, lon: double>>`` derived deterministically from
the events table, with planted defects:

* ``event_id % 89 == 0`` — ``meta.k`` null (missing required field),
* ``event_id % 53 == 0`` — ``meta.device`` = 'unknown_os' (in_set),
* ``event_id % 97 == 0`` — ``meta.version`` = -1 (range),
* ``event_id % 71 == 0`` — ``meta.geo.lat`` = 123.5 (nested range).

Pure function of the base table; atomically cached so Ray and DuckDB
read the identical file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from .image_table import cached

_DEVICES = ("ios", "android", "web")


def struct_events(sf_dir: str) -> Path:
    base_path = Path(sf_dir) / "events.parquet"
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        base = pq.read_table(base_path, columns=["event_id", "props"])
        eids = base["event_id"].to_pylist()
        props = base["props"].to_pylist()
        metas = []
        for eid, pr in zip(eids, props):
            k = None if eid % 89 == 0 else json.loads(pr or "{}").get("k")
            device = "unknown_os" if eid % 53 == 0 else _DEVICES[eid % 3]
            version = -1 if eid % 97 == 0 else 1 + (eid % 9)
            lat = 123.5 if eid % 71 == 0 else float((eid % 180) - 90) / 2.0
            lon = float((eid % 360) - 180) / 2.0
            metas.append(
                {"k": k, "device": device, "version": version,
                 "geo": {"lat": lat, "lon": lon}}
            )
        meta_type = pa.struct(
            [
                ("k", pa.int64()),
                ("device", pa.string()),
                ("version", pa.int64()),
                ("geo", pa.struct([("lat", pa.float64()), ("lon", pa.float64())])),
            ]
        )
        tbl = pa.table(
            {
                "event_id": base["event_id"],
                "meta": pa.array(metas, meta_type),
            }
        )
        pq.write_table(tbl, tmp)

    return cached(f"struct_events_{tag}/struct_events.parquet", build)


def map_events(sf_dir: str) -> Path:
    """Seeded MAP-column fixture (``attrs: map<string, int64>``) — the
    table-level analogue of schisma's regex keys (``$/.../`` members,
    src/schisma.mjs:58-68): keys must match ``^k[0-9]+$`` and values
    must be in [0, 100]. Planted defects:

    * ``event_id % 61 == 0`` — a 'BAD KEY!' entry (unexpected key),
    * ``event_id % 67 == 0`` — k9 = 999 (value range).
    """
    base_path = Path(sf_dir) / "events.parquet"
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        base = pq.read_table(base_path, columns=["event_id"])
        eids = base["event_id"].to_pylist()
        attrs = []
        for eid in eids:
            entries = [(f"k{i}", (eid * 7 + i) % 100) for i in range(1 + eid % 3)]
            if eid % 61 == 0:
                entries.append(("BAD KEY!", 1))
            if eid % 67 == 0:
                entries.append(("k9", 999))
            attrs.append(entries)
        tbl = pa.table(
            {
                "event_id": base["event_id"],
                "attrs": pa.array(attrs, pa.map_(pa.string(), pa.int64())),
            }
        )
        pq.write_table(tbl, tmp)

    return cached(f"map_events_{tag}/map_events.parquet", build)
