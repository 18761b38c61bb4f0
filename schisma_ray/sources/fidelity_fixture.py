"""Paired-table fidelity fixture: the north-rule per-row invariant.

BASELINE.json's input hint pins the per-row conform invariant as
"decoded-pixel allclose (PSNR >= 40 dB for lossy) + caption equality".
This fixture materializes a falsifiable PAIRS table from the generated
image table — (image_id, bytes_a, bytes_b, caption_a, caption_b) — where
the b-side is a lossy re-encode of the a-side (passes the bar by codec
design), except planted rows:

- ``i % 11 == 0``: strong seeded pixel noise before re-encode (PSNR
  far below 40 dB -> pixel-fidelity FAIL)
- ``i % 13 == 0`` (not noise-planted): mutated caption (caption FAIL)

Alongside it, ``expected.parquet`` records the generator's independent
bookkeeping per pair: exact integer SSE between the two decoded pixel
arrays, the sample count (w*h*channels), and caption equality — the
seeded-expectation pattern of brightness_fixture.py. The distributed
``pair_fidelity`` stage must reproduce these integers row-for-row; the
PSNR >= 40 dB verdict is pure integer arithmetic on both sides
(10^4 * sse <= 255^2 * n_samples  <=>  MSE <= 255^2/10^4  <=>
PSNR >= 40 dB), so parity never passes through floats.

Only rows whose ORIGINAL payload decodes participate (the undecodable
plants of the base table have no pixels to compare — the stage drops
them the same way). Cached atomically, keyed by the generator tag.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import codec
from .image_table import cached, rows_for, rows_for_sf

NOISE_EVERY = 11
CAPTION_EVERY = 13
_NOISE_SEED = 77


def fidelity_pairs(sf_dir: str, *, seed: int = 42,
                   px: tuple[int, int] = (8, 33)) -> Path:
    """Generate (or reuse) the pairs table; returns its parquet path."""
    return _generate(sf_dir, seed, px) / "pairs.parquet"


def fidelity_expected(sf_dir: str, *, seed: int = 42,
                      px: tuple[int, int] = (8, 33)) -> Path:
    """The independent bookkeeping table for the same pairs."""
    return _generate(sf_dir, seed, px) / "expected.parquet"


def _generate(sf_dir: str, seed: int, px: tuple[int, int]) -> Path:
    n = rows_for_sf(sf_dir)
    suffix = "" if px == (8, 33) else f"_px{px[0]}-{px[1]}"

    def build(tmp: Path) -> None:
        tmp.mkdir()
        ids, blobs_a, blobs_b, caps_a, caps_b = [], [], [], [], []
        sses, samples, cap_eq = [], [], []
        chunk = 2000
        for start in range(0, n, chunk):
            idx = np.arange(start, min(start + chunk, n))
            t = rows_for(idx, seed, px)
            for i, rid, blob, cap in zip(
                idx.tolist(),
                t["image_id"].to_pylist(),
                t["bytes"].to_pylist(),
                t["caption"].to_pylist(),
            ):
                try:
                    pixels, _ = codec.decode(blob)
                except (codec.CodecError, TypeError):
                    continue  # no pixels to compare; the stage drops these too
                if i % NOISE_EVERY == 0:
                    rng = np.random.default_rng([_NOISE_SEED, i])
                    noise = rng.integers(-60, 61, pixels.shape, np.int64)
                    mutated = np.clip(pixels.astype(np.int64) + noise,
                                      0, 255).astype(np.uint8)
                    blob_b = codec.encode(mutated, "png")  # lossless carrier
                else:
                    blob_b = codec.encode(pixels, "jpeg")  # >=40 dB by design
                cap_b = (cap + " [alt]") if (cap is not None
                                             and i % NOISE_EVERY != 0
                                             and i % CAPTION_EVERY == 0) else cap

                dec_b, _ = codec.decode(blob_b)
                diff = pixels.astype(np.int64) - dec_b.astype(np.int64)
                ids.append(rid)
                blobs_a.append(blob)
                blobs_b.append(blob_b)
                caps_a.append(cap)
                caps_b.append(cap_b)
                sses.append(int((diff * diff).sum()))
                samples.append(int(diff.size))
                cap_eq.append(bool(cap == cap_b))  # None == None -> equal

        pq.write_table(
            pa.table({
                "image_id": pa.array(ids, pa.string()),
                "bytes_a": pa.array(blobs_a, pa.binary()),
                "bytes_b": pa.array(blobs_b, pa.binary()),
                "caption_a": pa.array(caps_a, pa.string()),
                "caption_b": pa.array(caps_b, pa.string()),
            }),
            tmp / "pairs.parquet",
        )
        pq.write_table(
            pa.table({
                "image_id": pa.array(ids, pa.string()),
                "sse": pa.array(sses, pa.int64()),
                "n_samples": pa.array(samples, pa.int64()),
                "caption_equal": pa.array(cap_eq, pa.bool_()),
            }),
            tmp / "expected.parquet",
        )

    return cached(f"fidelity_v1_n{n}_s{seed}{suffix}", build)
