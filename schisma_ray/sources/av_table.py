"""Deterministic synthetic audio and video tables (the AV analogues of
image_table.py): cached parquet keyed by (n, seed), seeded defects with
independently-computed expected violations so decode checks are oracled.

Audio schema: (audio_id string, bytes binary, sample_rate int32,
n_samples int32). Defects: i % 11 == 3 -> stored sample_rate label lies
(44100 vs actual 8000); i % 13 == 5 -> truncated payload (suppresses the
label expectation: an undecodable row yields exactly one bytes row).

Video schema: (video_id string, bytes binary, fps int32, n_frames int32,
w int32, h int32, fmt string) — all metadata truthful (frame explosion
is oracled directly from n_frames).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..schema.result import VIOLATION_SCHEMA
from . import av_codec
from .image_table import CACHE_ROOT


def rows_for_sf(sf_dir: str, per_unit: int) -> int:
    name = Path(sf_dir).name
    try:
        sf = float(name.replace("sf", ""))
    except ValueError:
        sf = 0.001
    return max(24, int(round(sf * per_unit)))


def generate_audio(n: int, seed: int = 42) -> Path:
    out = CACHE_ROOT / f"audio_v1_n{n}_s{seed}"
    if (out / "_SUCCESS").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)

    ids, blobs, srs, nss = [], [], [], []
    refs, paths, exps, recs = [], [], [], []
    for i in range(n):
        sr = 8000
        dur = 0.1 + (i % 7) * 0.05
        s = av_codec.synth_audio(seed * 1_000_003 + i, sample_rate=sr,
                                 duration_s=dur)
        data = av_codec.encode_audio(s, sr)
        stored_sr = sr
        truncated = i % 13 == 5
        if truncated:
            data = data[:10]
        elif i % 11 == 3:
            stored_sr = 44100
        ids.append(f"aud-{i:06d}")
        blobs.append(data)
        srs.append(stored_sr)
        nss.append(len(s))
        if truncated:
            refs.append(ids[-1]); paths.append("bytes")
            exps.append("decodable audio"); recs.append("undecodable")
        elif i % 11 == 3:
            refs.append(ids[-1]); paths.append("sample_rate")
            exps.append(str(sr)); recs.append(str(stored_sr))
    pq.write_table(
        pa.table(
            {
                "audio_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
                "sample_rate": pa.array(srs, pa.int32()),
                "n_samples": pa.array(nss, pa.int32()),
            }
        ),
        tmp / "audio.parquet",
    )
    m = len(refs)
    pq.write_table(
        pa.Table.from_arrays(
            [
                pa.array(refs, pa.string()),
                pa.array(paths, pa.string()),
                pa.array(["invalid"] * m, pa.string()),
                pa.array(exps, pa.string()),
                pa.array(recs, pa.string()),
                pa.array([None] * m, pa.string()),
                pa.array(["decode"] * m, pa.string()),
            ],
            schema=VIOLATION_SCHEMA,
        ),
        tmp / "expected_violations.parquet",
    )
    (tmp / "_SUCCESS").touch()
    if out.exists():
        shutil.rmtree(out)
    os.rename(tmp, out)
    return out


def generate_video(n: int, seed: int = 42) -> Path:
    out = CACHE_ROOT / f"video_v1_n{n}_s{seed}"
    if (out / "_SUCCESS").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)

    ids, blobs, fpss, nfs, ws, hs, fmts = [], [], [], [], [], [], []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        w = int(rng.integers(8, 17))
        h = int(rng.integers(8, 17))
        n_frames = int(rng.integers(4, 13))
        fmt = ["png", "jpeg", "webp"][i % 3]
        frames = [
            rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            for _ in range(n_frames)
        ]
        ids.append(f"vid-{i:06d}")
        blobs.append(av_codec.encode_video(frames, fps=10, fmt=fmt))
        fpss.append(10)
        nfs.append(n_frames)
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
    pq.write_table(
        pa.table(
            {
                "video_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
                "fps": pa.array(fpss, pa.int32()),
                "n_frames": pa.array(nfs, pa.int32()),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
                "fmt": pa.array(fmts, pa.string()),
            }
        ),
        tmp / "video.parquet",
    )
    (tmp / "_SUCCESS").touch()
    if out.exists():
        shutil.rmtree(out)
    os.rename(tmp, out)
    return out


def generate_scene_video(n: int, seed: int = 42) -> Path:
    """Scene-structured videos with PLANTED cuts: each video holds 1-4
    scenes; frames within a scene are one base frame plus small ±4
    jitter (and lossy-codec noise, both bounded far below any scene
    change), scene boundaries are fresh random bases (~85-level mean
    difference). ``expected_cuts.parquet`` records every planted
    scene-start frame index (> 0) — the independently-computed truth
    the scene-cut detector is oracled against."""
    out = CACHE_ROOT / f"scenevid_v1_n{n}_s{seed}"
    if (out / "_SUCCESS").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)

    ids, blobs, nfs = [], [], []
    cut_ids, cut_idx = [], []
    for i in range(n):
        rng = np.random.default_rng([seed, 7, i])
        w = int(rng.integers(8, 17))
        h = int(rng.integers(8, 17))
        fmt = ["png", "jpeg", "webp"][i % 3]
        n_scenes = int(rng.integers(1, 5))
        frames: list[np.ndarray] = []
        vid = f"svid-{i:06d}"
        for s in range(n_scenes):
            if s > 0:
                cut_ids.append(vid)
                cut_idx.append(len(frames))
            base = rng.integers(0, 256, (h, w, 3), dtype=np.int16)
            for _ in range(int(rng.integers(2, 5))):
                jitter = rng.integers(-4, 5, (h, w, 3), dtype=np.int16)
                frames.append(
                    np.clip(base + jitter, 0, 255).astype(np.uint8)
                )
        ids.append(vid)
        blobs.append(av_codec.encode_video(frames, fps=10, fmt=fmt))
        nfs.append(len(frames))
    pq.write_table(
        pa.table({
            "video_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "n_frames": pa.array(nfs, pa.int32()),
        }),
        tmp / "scene_video.parquet",
    )
    pq.write_table(
        pa.table({
            "video_id": pa.array(cut_ids, pa.string()),
            "frame_idx": pa.array(cut_idx, pa.int64()),
        }),
        tmp / "expected_cuts.parquet",
    )
    (tmp / "_SUCCESS").touch()
    if out.exists():
        shutil.rmtree(out)
    os.rename(tmp, out)
    return out


def generate_silence_audio(n: int, seed: int = 42,
                           window: int = 160) -> Path:
    """Tone clips with PLANTED window-aligned silent gaps: each clip is
    the standard synth tone mix with 0-3 non-adjacent runs of whole
    windows zeroed out (the codec is lossless zlib-over-int16, so
    silence decodes to exact zeros). Tone windows keep max|x| in the
    thousands; the detector threshold (300) sits an order of magnitude
    below tone and infinitely above true zero. ``expected_silence
    .parquet`` records every planted run as (audio_id, win_start,
    win_end) — end exclusive, in window units."""
    out = CACHE_ROOT / f"silaudio_v1_n{n}_s{seed}_w{window}"
    if (out / "_SUCCESS").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)

    ids, blobs = [], []
    run_ids, run_s, run_e = [], [], []
    for i in range(n):
        rng = np.random.default_rng([seed, 11, i])
        sig = av_codec.synth_audio(int(rng.integers(0, 2**31)),
                                   duration_s=0.8)[:, 0].copy()
        n_wins = len(sig) // window
        aid = f"sil-{i:06d}"
        n_runs = int(rng.integers(0, 4))
        used: set[int] = set()
        runs = []
        for _ in range(n_runs):
            length = int(rng.integers(1, 4))
            start = int(rng.integers(0, max(n_wins - length, 1)))
            span = set(range(start - 1, start + length + 1))
            if span & used:  # non-adjacent: merged runs would blur truth
                continue
            used |= span
            runs.append((start, start + length))
            sig[start * window:(start + length) * window] = 0
        for a, b in sorted(runs):
            run_ids.append(aid)
            run_s.append(a)
            run_e.append(b)
        ids.append(aid)
        blobs.append(av_codec.encode_audio(sig.astype(np.int16), 8000))
    pq.write_table(
        pa.table({
            "audio_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
        }),
        tmp / "silence_audio.parquet",
    )
    pq.write_table(
        pa.table({
            "audio_id": pa.array(run_ids, pa.string()),
            "win_start": pa.array(run_s, pa.int64()),
            "win_end": pa.array(run_e, pa.int64()),
        }),
        tmp / "expected_silence.parquet",
    )
    (tmp / "_SUCCESS").touch()
    if out.exists():
        shutil.rmtree(out)
    os.rename(tmp, out)
    return out
