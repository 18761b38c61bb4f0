"""Independent brightness bookkeeping for the image table.

The seeded-expectation pattern of ``expected_violations.parquet``
(image_table.py) extended to pixel statistics: for every row of the
generated image table, recompute the payload from first principles
(``rows_for`` — the same pure function of (seed, index, px) the
generator used), decode it, and record the exact integer per-channel
stats the distributed ``BrightnessStats`` stage must produce. Truncated
payloads don't decode and are absent, exactly as the stage drops them.

This checks the DISTRIBUTED PLUMBING (row routing, skip behavior,
integer arithmetic, schema) — the codec itself is pinned separately by
property tests (PSNR >= 40, golden round-trips). Cached atomically,
keyed by the generator cache tag so a codec or generator change
invalidates it together with the images.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import codec
from .image_table import cached, rows_for, rows_for_sf


def brightness_expected(sf_dir: str, *, seed: int = 42,
                        px: tuple[int, int] = (8, 33)) -> Path:
    """Generate (or reuse) the expected brightness table; returns path."""
    n = rows_for_sf(sf_dir)
    suffix = "" if px == (8, 33) else f"_px{px[0]}-{px[1]}"

    def build(tmp: Path) -> None:
        ids, npx, sums = [], [], []
        chunk = 2000
        for start in range(0, n, chunk):
            t = rows_for(np.arange(start, min(start + chunk, n)), seed, px)
            for rid, blob in zip(t["image_id"].to_pylist(),
                                 t["bytes"].to_pylist()):
                try:
                    pixels, _ = codec.decode(blob)
                except (codec.CodecError, TypeError):
                    continue
                ids.append(rid)
                npx.append(pixels.shape[0] * pixels.shape[1])
                sums.append(pixels.astype(np.int64).sum(axis=(0, 1)))

        s = (np.stack(sums) if sums else np.empty((0, 3), np.int64))
        nn = np.asarray(npx, np.int64)
        safe = np.where(nn > 0, nn, 1)
        cols = {"image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(nn, pa.int64())}
        for c, name in enumerate(("r", "g", "b")):
            cols[f"sum_{name}"] = pa.array(s[:, c], pa.int64())
            cols[f"mean_{name}_e6"] = pa.array(
                s[:, c] * 1_000_000 // safe, pa.int64())
        pq.write_table(pa.table(cols), tmp)

    return cached(f"brightness_v3_n{n}_s{seed}{suffix}/brightness_expected.parquet", build)
