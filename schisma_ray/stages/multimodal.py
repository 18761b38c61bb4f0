"""Multimodal batch stages: decode -> transform -> re-encode / features.

Image/audio/video payloads are opaque ``binary`` columns with typed
metadata (the input_hint shape). These stages implement the standard
multimodal pipeline verbs as ``map_batches`` callables. Each class
stores its configuration in ``__init__`` and decodes in ``__call__``;
an instance runs as a task fused into the read:

* ``ImageResize`` — decode, box-filter resample to a target size,
  re-encode (same format). Metadata (w/h/phash) updated in place.
* ``ImageFeatures`` — decode and emit a small dense feature vector
  (channel means/stds, luma histogram, phash bits) as ``list<float>`` —
  the shape an embedding model stage would produce, with the same
  callable signature (swap ``features_of`` for a model forward pass).
* ``frame_sample`` — treat a binary payload as a frame container and
  emit every k-th frame as its own row (flat_map-style row explosion);
  here frames are the rows themselves (one image per row), so the
  operator demonstrates deterministic row sampling by key hash.

The decode step uses the deterministic stand-in codec
(sources/codec.py); with PIL present the same classes work unchanged.
Undecodable rows pass through with null outputs (validation owns
reporting them).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources import codec


def _resize_box(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Deterministic box-filter resample (area average).

    One ``np.add.reduceat`` per axis; a window whose boundary pair
    collapses (upsampling) degenerates to the single source row/col at
    its start — the same ``[y0, max(y1, y0+1))`` window the scalar
    definition uses, since ``reduceat`` returns ``a[idx[i]]`` when
    ``idx[i+1] <= idx[i]``. Row-mean-then-column-mean in float32 can
    round ±1 level differently from a single 2D mean at exact .5
    boundaries (~2% of random shapes), so thumbnails/phashes are not
    byte-stable across this implementation change — no oracle or
    stored artifact depends on exact resized pixels.
    """
    h, w, _c = pixels.shape
    ys = (np.arange(out_h + 1) * h / out_h).astype(np.int64)
    xs = (np.arange(out_w + 1) * w / out_w).astype(np.int64)
    fp = pixels.astype(np.float32)
    sums = np.add.reduceat(fp, ys[:-1], axis=0)
    sums /= np.maximum(ys[1:] - ys[:-1], 1)[:, None, None]
    sums = np.add.reduceat(sums, xs[:-1], axis=1)
    sums /= np.maximum(xs[1:] - xs[:-1], 1)[None, :, None]
    return sums.round().astype(np.uint8)


class ImageResize:
    """Resize every decodable image to (target_w, target_h)."""

    def __init__(self, target_w: int = 32, target_h: int = 32):
        self.tw = target_w
        self.th = target_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        out_blobs, ws, hs, phs = [], [], [], []
        for blob in blobs:
            try:
                pixels, fmt = codec.decode(blob)
            except (codec.CodecError, TypeError):
                out_blobs.append(None)
                ws.append(None)
                hs.append(None)
                phs.append(None)
                continue
            small = _resize_box(pixels, self.tw, self.th)
            out_blobs.append(codec.encode(small, fmt))
            ws.append(self.tw)
            hs.append(self.th)
            phs.append(codec.phash64(small))
        out = batch
        for name, vals, t in (
            ("bytes", out_blobs, pa.binary()),
            ("w", ws, batch.schema.field("w").type if "w" in batch.schema.names else pa.int32()),
            ("h", hs, batch.schema.field("h").type if "h" in batch.schema.names else pa.int32()),
            ("phash", phs, pa.int64()),
        ):
            if name in out.schema.names:
                out = out.set_column(out.schema.get_field_index(name), name,
                                     pa.array(vals, t))
            else:
                out = out.append_column(name, pa.array(vals, t))
        return out


def features_of(pixels: np.ndarray, hist_bins: int = 8) -> np.ndarray:
    """Deterministic dense features: per-channel mean/std + luma histogram."""
    fp = pixels.astype(np.float32)
    means = fp.mean(axis=(0, 1)) / 255.0
    stds = fp.std(axis=(0, 1)) / 255.0
    luma = fp.mean(axis=2).ravel()
    hist, _ = np.histogram(luma, bins=hist_bins, range=(0, 255))
    hist = hist.astype(np.float32) / max(1, luma.size)
    return np.concatenate([means, stds, hist]).astype(np.float32)


class ImageFeatures:
    """Decode -> feature vector (list<float>) per row.

    The callable signature matches a model-inference stage: state (here
    the histogram config; in production the model) is built in
    ``__init__``, batches stream through ``__call__``.
    """

    def __init__(self, hist_bins: int = 8, id_col: str = "image_id"):
        self.hist_bins = hist_bins
        self.id_col = id_col
        self.dim = 3 + 3 + hist_bins

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for blob in batch["bytes"].to_pylist():
            try:
                pixels, _ = codec.decode(blob)
            except (codec.CodecError, TypeError):
                feats.append(None)
                continue
            feats.append(features_of(pixels, self.hist_bins).tolist())
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "features": pa.array(feats, pa.list_(pa.float32())),
            }
        )


class BrightnessStats:
    """Decode -> EXACT integer per-channel brightness stats per
    row: pixel count plus int64 channel sums and e6 floor means. All
    integers, so the distributed plumbing (routing, skips, aggregation)
    is oracle-checkable bit-for-bit against the generator's independent
    bookkeeping (sources/brightness_fixture.py) — the decode itself is
    pinned by the codec property tests. Undecodable rows are dropped
    (they already carry a ``bytes`` decode violation)."""

    def __init__(self, id_col: str = "image_id"):
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, npx, sums = [], [], []
        for rid, blob in zip(batch[self.id_col].to_pylist(),
                             batch["bytes"].to_pylist()):
            try:
                pixels, _ = codec.decode(blob)
            except (codec.CodecError, TypeError):
                continue
            ids.append(rid)
            npx.append(pixels.shape[0] * pixels.shape[1])
            sums.append(pixels.astype(np.int64).sum(axis=(0, 1)))
        s = (np.stack(sums) if sums else np.empty((0, 3), np.int64))
        n = np.asarray(npx, np.int64)
        safe = np.where(n > 0, n, 1)
        cols = {self.id_col: pa.array(ids, pa.string()),
                "n_px": pa.array(n, pa.int64())}
        for c, name in enumerate(("r", "g", "b")):
            cols[f"sum_{name}"] = pa.array(s[:, c], pa.int64())
            cols[f"mean_{name}_e6"] = pa.array(
                s[:, c] * 1_000_000 // safe, pa.int64())
        return pa.table(cols)


class PairFidelity:
    """Decode BOTH payloads of an (a, b) image pair and emit the
    north-rule per-row conform invariant — decoded-pixel fidelity
    (PSNR >= ``min_psnr_db``, lossy re-encodes allowed) plus caption
    equality — as exact integers: SSE between the two pixel arrays,
    the sample count, and the boolean verdicts. The PSNR bar is
    evaluated WITHOUT floats:

        PSNR >= D dB  <=>  MSE <= 255^2 / 10^(D/10)
                      <=>  10^(D/10) * sse <= 255^2 * n_samples

    with ``10^(D/10)`` frozen as an integer for the default D=40
    (10^4), so the verdict is oracle-checkable bit-for-bit. Pairs where
    either side fails to decode, or shapes differ, FAIL pixel fidelity
    with sse = -1 (no finite PSNR exists). Null captions compare like
    SQL ``IS NOT DISTINCT FROM`` (None == None passes)."""

    def __init__(self, id_col: str = "image_id", a_col: str = "bytes_a",
                 b_col: str = "bytes_b", cap_a: str = "caption_a",
                 cap_b: str = "caption_b", min_psnr_db: int = 40):
        if min_psnr_db % 10 != 0:
            raise ValueError("min_psnr_db must be a multiple of 10 so the "
                             "verdict stays integer-exact")
        self.id_col = id_col
        self.a_col, self.b_col = a_col, b_col
        self.cap_a, self.cap_b = cap_a, cap_b
        self.ratio = 10 ** (min_psnr_db // 10)  # 10^(D/10), exact int

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, sses, ns, p_ok, c_ok = [], [], [], [], []
        for rid, a, b, ca, cb in zip(
            batch[self.id_col].to_pylist(),
            batch[self.a_col].to_pylist(),
            batch[self.b_col].to_pylist(),
            batch[self.cap_a].to_pylist(),
            batch[self.cap_b].to_pylist(),
        ):
            try:
                pa_px, _ = codec.decode(a)
                pb_px, _ = codec.decode(b)
            except (codec.CodecError, TypeError):
                ids.append(rid)
                sses.append(-1)
                ns.append(0)
                p_ok.append(False)
                c_ok.append(ca == cb)
                continue
            if pa_px.shape != pb_px.shape:
                ids.append(rid)
                sses.append(-1)
                ns.append(0)
                p_ok.append(False)
                c_ok.append(ca == cb)
                continue
            diff = pa_px.astype(np.int64) - pb_px.astype(np.int64)
            sse = int((diff * diff).sum())
            n = int(diff.size)
            ids.append(rid)
            sses.append(sse)
            ns.append(n)
            p_ok.append(self.ratio * sse <= 65025 * n)
            c_ok.append(ca == cb)
        psnr_ok = np.asarray(p_ok, bool) if p_ok else np.zeros(0, bool)
        cap_ok = np.asarray(c_ok, bool) if c_ok else np.zeros(0, bool)
        return pa.table({
            self.id_col: pa.array(ids, pa.string()),
            "sse": pa.array(sses, pa.int64()),
            "n_samples": pa.array(ns, pa.int64()),
            "psnr_ok": pa.array(psnr_ok),
            "caption_ok": pa.array(cap_ok),
            "ok": pa.array(psnr_ok & cap_ok),
        })


class AudioFeatures:
    """Decode audio bytes -> dense feature vector per row (duration,
    RMS, zero-crossing rate, FFT band energies). Same callable
    signature as a real embedding/ASR front-end: state in ``__init__``,
    batches through ``__call__``; undecodable rows -> null.
    """

    def __init__(self, n_bands: int = 8, id_col: str = "audio_id"):
        self.n_bands = n_bands
        self.id_col = id_col
        self.dim = 3 + n_bands

    def features_of(self, samples: "np.ndarray", sr: int) -> "np.ndarray":
        mono = samples.astype(np.float32).mean(axis=1) / 32768.0
        n = len(mono)
        if n == 0:
            # a zero-sample clip is validly encoded; rfft([]) raises
            return np.zeros(self.dim, np.float32)
        duration = n / max(1, sr)
        rms = float(np.sqrt(np.mean(mono**2))) if n else 0.0
        zcr = float(np.mean(np.abs(np.diff(np.signbit(mono))))) if n > 1 else 0.0
        spec = np.abs(np.fft.rfft(mono)) ** 2
        bands = np.array_split(spec, self.n_bands)
        total = max(1e-12, spec.sum())
        energy = np.array([b.sum() / total for b in bands], dtype=np.float32)
        return np.concatenate(
            [np.array([duration, rms, zcr], np.float32), energy]
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources import av_codec

        feats = []
        for blob in batch["bytes"].to_pylist():
            try:
                samples, sr = av_codec.decode_audio(blob)
            except (av_codec.AVCodecError, TypeError):
                feats.append(None)
                continue
            feats.append(self.features_of(samples, sr).tolist())
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "features": pa.array(feats, pa.list_(pa.float32())),
            }
        )


class AudioDecodeValidator:
    """Audio analogue of DecodeValidator — stored sample_rate /
    n_samples metadata checked against the decoded truth; undecodable
    payloads -> one ``bytes`` violation (schisma's ``invalid`` code)."""

    def __init__(self, id_col: str = "audio_id"):
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..schema.result import violation_table
        from ..sources import av_codec

        ids = batch[self.id_col].to_pylist()
        srs = batch["sample_rate"].to_pylist() if "sample_rate" in batch.column_names else [None] * len(ids)
        ns = batch["n_samples"].to_pylist() if "n_samples" in batch.column_names else [None] * len(ids)
        refs, paths, exps, recs = [], [], [], []
        for i, blob in enumerate(batch["bytes"].to_pylist()):
            try:
                samples, sr = av_codec.decode_audio(blob)
            except (av_codec.AVCodecError, TypeError):
                refs.append(ids[i])
                paths.append("bytes")
                exps.append("decodable audio")
                recs.append("undecodable")
                continue
            if srs[i] is not None and srs[i] != sr:
                refs.append(ids[i]); paths.append("sample_rate")
                exps.append(str(sr)); recs.append(str(srs[i]))
            if ns[i] is not None and ns[i] != len(samples):
                refs.append(ids[i]); paths.append("n_samples")
                exps.append(str(len(samples))); recs.append(str(ns[i]))
        return violation_table([str(r) for r in refs], paths, "invalid",
                               expected=exps, received=recs, check="decode")


class VideoFrameSampler:
    """True frame explosion — decode every k-th frame of a video
    container into its own row (video_id, frame_idx, w, h, fmt, bytes).
    Length-prefixed frames mean skipped frames are seeks, not decodes;
    re-encoding keeps pixel payloads out of long-lived batch memory."""

    def __init__(self, every_k: int = 5, id_col: str = "video_id"):
        self.every_k = every_k
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources import av_codec

        vids, idxs, ws, hs, fmts, blobs = [], [], [], [], [], []
        for vid, blob in zip(batch[self.id_col].to_pylist(),
                             batch["bytes"].to_pylist()):
            try:
                for fi, pixels, fmt in av_codec.iter_video_frames(
                    blob, every_k=self.every_k
                ):
                    vids.append(vid)
                    idxs.append(fi)
                    hs.append(pixels.shape[0])
                    ws.append(pixels.shape[1])
                    fmts.append(fmt)
                    blobs.append(codec.encode(pixels, fmt))
            except (av_codec.AVCodecError, codec.CodecError, TypeError):
                continue  # undecodable container: validation owns reporting
        return pa.table(
            {
                self.id_col: pa.array(vids),
                "frame_idx": pa.array(idxs, pa.int32()),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
                "fmt": pa.array(fmts, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
            }
        )


def frame_sample(ds, every_k: int = 10, key_col: str = "image_id"):
    """Deterministic 1-in-k row sampling by key hash (the frame-sampling
    access pattern for video containers: same key -> same decision on
    any cluster size).

    Decision = int(md5(key)[:8], 16) % k == 0 — md5 so the selection is
    reproducible by ANY engine (DuckDB oracle included), not just this
    process's pandas hash seed. Per-key md5 is ~1 us, noise next to the
    decode work such sampling gates."""
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].combine_chunks().to_pylist()
        mask = pa.array(
            [
                k is not None
                and int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16) % every_k == 0
                for k in keys
            ]
        )
        return batch.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


DEFAULT_AR_BUCKETS = ((16, 32), (16, 24), (24, 24), (24, 16), (32, 16))


def aspect_bucket_assign(ds, *, w_col: str = "w", h_col: str = "h",
                         id_col: str = "image_id",
                         buckets: tuple = DEFAULT_AR_BUCKETS):
    """SDXL-style aspect-ratio bucketing for multimodal training
    batches: each image is assigned to the bucket whose aspect ratio is
    closest to its own, so a training batch never mixes shapes.

    The distance is integer-exact fixed-point: ``ar_e6 = floor(w * 1e6
    / h + 0.5)`` for both image and bucket, argmin over
    ``|ar_e6 - bucket_e6|`` with ties to the lower bucket index — so a
    SQL oracle reproduces the assignment without float-repr drift.
    Rows with null/non-positive dimensions are dropped (they belong to
    the validation stream, not the batching plan). Row-local: one
    vectorized map_batches, zero shuffle.
    """
    b_e6 = np.array(
        [int(np.floor(bw * 1_000_000.0 / bh + 0.5)) for bw, bh in buckets],
        np.int64,
    )
    b_w = np.array([b[0] for b in buckets], np.int64)
    b_h = np.array([b[1] for b in buckets], np.int64)

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w = batch[w_col].combine_chunks()
        h = batch[h_col].combine_chunks()
        valid = pc.and_(
            pc.and_(pc.is_valid(w), pc.is_valid(h)),
            pc.and_(pc.greater(pc.fill_null(w, 0), 0),
                    pc.greater(pc.fill_null(h, 0), 0)),
        )
        t = batch.filter(valid)
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "ar_e6": pa.array([], pa.int64()),
                             "bucket_w": pa.array([], pa.int64()),
                             "bucket_h": pa.array([], pa.int64())})
        wv = t[w_col].to_numpy(zero_copy_only=False).astype(np.float64)
        hv = t[h_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ar = np.floor(wv * 1_000_000.0 / hv + 0.5).astype(np.int64)
        # (n, k) distances; argmin takes the FIRST (lowest index) min
        dist = np.abs(ar[:, None] - b_e6[None, :])
        idx = np.argmin(dist, axis=1)
        return pa.table(
            {
                id_col: t[id_col],
                "ar_e6": pa.array(ar, pa.int64()),
                "bucket_w": pa.array(b_w[idx], pa.int64()),
                "bucket_h": pa.array(b_h[idx], pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


class SceneCutDetector:
    """Detect scene boundaries by mean absolute pixel difference
    between adjacent frames — a cut is a frame whose exact-integer
    e6-scaled mean |Δ| versus its predecessor exceeds ``threshold_e6``
    (half-up integer divide, no floats anywhere). Intra-scene jitter
    and lossy-codec noise sit an order of magnitude below any real
    scene change, so the threshold separates cleanly. Undecodable
    videos emit nothing.

    Decode is state-free but CPU-heavy; batches of videos stream
    through ``__call__``; emits (video_id, frame_idx, diff_e6) per
    detected cut."""

    def __init__(self, threshold_e6: int = 20_000_000,
                 id_col: str = "video_id"):
        self.th = threshold_e6
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources import av_codec

        ids_out, idx_out, diff_out = [], [], []
        ids = batch[self.id_col].to_pylist()
        for vid, blob in zip(ids, batch["bytes"].to_pylist()):
            if blob is None:
                continue
            try:
                frames = list(av_codec.iter_video_frames(blob))
            except (av_codec.AVCodecError, codec.CodecError):
                continue
            for (i0, px0, _), (i1, px1, _) in zip(frames, frames[1:]):
                if px0.shape != px1.shape:
                    continue
                sad = int(np.abs(px0.astype(np.int64)
                                 - px1.astype(np.int64)).sum())
                npx = px0.size
                diff_e6 = (2 * sad * 1_000_000 + npx) // (2 * npx)
                if diff_e6 > self.th:
                    ids_out.append(vid)
                    idx_out.append(i1)
                    diff_out.append(diff_e6)
        return pa.table({
            self.id_col: pa.array(ids_out, pa.string()),
            "frame_idx": pa.array(idx_out, pa.int64()),
            "diff_e6": pa.array(diff_out, pa.int64()),
        })


def tile_grid(ds, *, tile: int = 64, w_col: str = "w", h_col: str = "h",
              id_col: str = "image_id", full_only: bool = False):
    """Explode every image into its ViT-patch / crop-grid plan: one row
    per ``tile x tile`` cell with the cell's grid coordinates, pixel
    origin and (edge-clipped) extent. ``full_only=True`` keeps only
    complete tiles (the patch-embedding shape, where partial edges are
    discarded); the default clips edge tiles (the crop shape).

    Decode-free: the plan is pure metadata arithmetic on (w, h), so it
    runs BEFORE bytes ever move — at 10^12 images the planner's output
    feeds the decode stage with exact work items instead of
    decoding first and tiling after. Fully vectorized explode
    (np.repeat + offset-subtracted arange, the list-explode idiom used
    across this repo); zero shuffle. Rows with null / non-positive
    dimensions are dropped — they belong to the validation stream."""

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w = batch[w_col].combine_chunks()
        h = batch[h_col].combine_chunks()
        valid = pc.and_(
            pc.and_(pc.is_valid(w), pc.is_valid(h)),
            pc.and_(pc.greater(pc.fill_null(w, 0), 0),
                    pc.greater(pc.fill_null(h, 0), 0)),
        )
        t = batch.filter(valid)
        empty = {
            id_col: pa.array([], batch[id_col].type),
            "tile_x": pa.array([], pa.int64()),
            "tile_y": pa.array([], pa.int64()),
            "x0": pa.array([], pa.int64()),
            "y0": pa.array([], pa.int64()),
            "tw": pa.array([], pa.int64()),
            "th": pa.array([], pa.int64()),
        }
        if t.num_rows == 0:
            return pa.table(empty)
        wv = t[w_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = t[h_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if full_only:
            nx, ny = wv // tile, hv // tile
        else:
            nx, ny = -(-wv // tile), -(-hv // tile)
        counts = nx * ny
        total = int(counts.sum())
        if total == 0:
            return pa.table(empty)
        parent = np.repeat(np.arange(len(wv), dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        t_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        nx_p = nx[parent]
        tx = t_idx % nx_p
        ty = t_idx // nx_p
        x0, y0 = tx * tile, ty * tile
        tw = np.minimum(tile, wv[parent] - x0)
        th = np.minimum(tile, hv[parent] - y0)
        return pa.table(
            {
                id_col: t[id_col].take(pa.array(parent)),
                "tile_x": pa.array(tx, pa.int64()),
                "tile_y": pa.array(ty, pa.int64()),
                "x0": pa.array(x0, pa.int64()),
                "y0": pa.array(y0, pa.int64()),
                "tw": pa.array(tw, pa.int64()),
                "th": pa.array(th, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def aspect_bucket_waste(ds, *, w_col: str = "w", h_col: str = "h",
                        id_col: str = "image_id",
                        buckets: tuple = DEFAULT_AR_BUCKETS):
    """Per-bucket letterbox-padding audit for the aspect-ratio batching
    plan: each image is assigned to its nearest-AR bucket (identical
    integer argmin as ``aspect_bucket_assign``), scaled to FIT inside
    the bucket (integer floor on the non-binding side — width-bound
    when ``w * bh >= h * bw``), and the padded pixels it would waste
    are ``bw * bh - sw * sh``. Output: one row per bucket with the
    image count and total/max waste — the "how much batch compute burns
    on padding" report that decides whether the bucket set needs more
    shapes.

    Combiner-first: ``bucket_combine`` collapses each batch to at most
    ``len(buckets)`` rows before the (tiny) exchange."""
    from ._bucket import bucket_combine

    b_e6 = np.array(
        [int(np.floor(bw * 1_000_000.0 / bh + 0.5)) for bw, bh in buckets],
        np.int64,
    )
    b_w = np.array([b[0] for b in buckets], np.int64)
    b_h = np.array([b[1] for b in buckets], np.int64)

    def waste(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w = batch[w_col].combine_chunks()
        h = batch[h_col].combine_chunks()
        valid = pc.and_(
            pc.and_(pc.is_valid(w), pc.is_valid(h)),
            pc.and_(pc.greater(pc.fill_null(w, 0), 0),
                    pc.greater(pc.fill_null(h, 0), 0)),
        )
        t = batch.filter(valid)
        wv = t[w_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = t[h_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ar = np.floor(
            wv.astype(np.float64) * 1_000_000.0 / hv + 0.5
        ).astype(np.int64)
        idx = np.argmin(np.abs(ar[:, None] - b_e6[None, :]), axis=1)
        bw, bh = b_w[idx], b_h[idx]
        width_bound = wv * bh >= hv * bw
        sw = np.where(width_bound, bw, (wv * bh) // hv)
        sh = np.where(width_bound, (hv * bw) // wv, bh)
        return pa.table({
            "bucket_w": pa.array(bw, pa.int64()),
            "bucket_h": pa.array(bh, pa.int64()),
            "waste": pa.array(bw * bh - sw * sh, pa.int64()),
        })

    return bucket_combine(
        ds.map_batches(waste, batch_format="pyarrow", zero_copy_batch=True),
        ["bucket_w", "bucket_h"],
        {"n_images": ("waste", "count"), "total_waste_px": ("waste", "sum"),
         "max_waste_px": ("waste", "max")})


def scene_cuts(ds, *, threshold_e6: int = 20_000_000,
               id_col: str = "video_id"):
    return ds.map_batches(
        SceneCutDetector(threshold_e6, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


class SilenceRunDetector:
    """Detect runs of silent fixed-size windows in an audio
    payload — per window, silent iff max |sample| (across channels)
    is below ``threshold``; consecutive silent windows merge to
    (audio_id, win_start, win_end), end exclusive. Pure integer
    compares on the decoded int16 buffer (one reshape + max per clip);
    only full windows are scored. Undecodable clips emit nothing."""

    def __init__(self, window: int = 160, threshold: int = 300,
                 id_col: str = "audio_id"):
        self.window = window
        self.threshold = threshold
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources import av_codec

        ids_out, s_out, e_out = [], [], []
        for aid, blob in zip(batch[self.id_col].to_pylist(),
                             batch["bytes"].to_pylist()):
            if blob is None:
                continue
            try:
                samples, _sr = av_codec.decode_audio(blob)
            except av_codec.AVCodecError:
                continue
            flat = np.abs(samples.astype(np.int32)).max(axis=1)
            n_wins = len(flat) // self.window
            if n_wins == 0:
                continue
            wmax = flat[:n_wins * self.window].reshape(
                n_wins, self.window).max(axis=1)
            silent = np.flatnonzero(wmax < self.threshold)
            if not len(silent):
                continue
            from ..stages._math import merge_constant_windows

            starts, ends = merge_constant_windows(silent, 1)
            ids_out.extend([aid] * len(starts))
            s_out.extend(starts.tolist())
            e_out.extend(ends.tolist())
        return pa.table({
            self.id_col: pa.array(ids_out, pa.string()),
            "win_start": pa.array(s_out, pa.int64()),
            "win_end": pa.array(e_out, pa.int64()),
        })


def silence_runs(ds, *, window: int = 160, threshold: int = 300,
                 id_col: str = "audio_id"):
    return ds.map_batches(
        SilenceRunDetector(window, threshold, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def res_tier_assign(ds, *, breaks: tuple = (32, 128, 384, 768),
                    names: tuple = ("reject", "thumb", "small", "medium",
                                    "large"),
                    w_col: str = "w", h_col: str = "h",
                    id_col: str = "image_id"):
    """Resolution-tier assignment by min(w, h) — the curation gate that
    routes images to training buckets (and rejects sub-minimum ones):
    tier i covers min_side in [breaks[i-1], breaks[i]), the last tier is
    open-ended, tier 0 (below the first break) is the reject band.

    Decode-free metadata arithmetic (column-pruned read, vectorized
    searchsorted, zero shuffle); rows with null/non-positive dims are
    dropped (they belong to the schema validators, not the tiering)."""
    import pyarrow.compute as pc

    assert len(names) == len(breaks) + 1
    bks = np.asarray(breaks, np.int64)
    tier_names = np.asarray(names, object)

    def fn(t: pa.Table) -> pa.Table:
        w = pc.cast(t[w_col], pa.int64())
        h = pc.cast(t[h_col], pa.int64())
        keep = pc.and_(
            pc.and_(pc.is_valid(w), pc.is_valid(h)),
            pc.and_(pc.greater(w, 0), pc.greater(h, 0)),
        )
        t2 = t.filter(keep)
        wv = pc.cast(t2[w_col], pa.int64()).to_numpy(zero_copy_only=False)
        hv = pc.cast(t2[h_col], pa.int64()).to_numpy(zero_copy_only=False)
        ms = np.minimum(wv, hv)
        tier = np.searchsorted(bks, ms, side="right").astype(np.int64)
        return pa.table({
            id_col: t2[id_col],
            "min_side": pa.array(ms, pa.int64()),
            "tier": pa.array(tier, pa.int64()),
            "tier_name": pa.array(tier_names[tier], pa.string()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def tier_fmt_residuals(ds, *, breaks: tuple = (32, 128, 384, 768),
                       fmt_col: str = "fmt", w_col: str = "w",
                       h_col: str = "h") -> pa.Table:
    """Per-resolution-tier format-drift report: for every (tier, fmt)
    cell, the observed count, the count expected under independence
    (tier_total x fmt_total / grand_total) and the standardized
    residual (obs - exp)/sqrt(exp) as e6 ints — "does this tier's
    format mix diverge from the corpus?", the drilled-down complement
    of the corpus-level chi-square drift checks.

    ONE combiner pass (per-batch (tier, fmt) counts at
    tiers x formats cardinality), a bounded fold, per-cell float math
    over exact integer totals — the grouped_corr parity recipe, so the
    SQL oracle is bit-identical. Rows with null/non-positive dims or a
    null fmt are dropped."""
    import math

    import pyarrow.compute as pc

    from ._fold import fold_table

    bks = np.asarray(breaks, np.int64)

    def partial(t: pa.Table) -> pa.Table:
        w = pc.cast(t[w_col], pa.int64())
        h = pc.cast(t[h_col], pa.int64())
        keep = pc.and_(
            pc.and_(pc.is_valid(w), pc.is_valid(h)),
            pc.and_(
                pc.and_(pc.greater(w, 0), pc.greater(h, 0)),
                pc.is_valid(t[fmt_col]),
            ),
        )
        t2 = t.filter(keep)
        wv = pc.cast(t2[w_col], pa.int64()).to_numpy(zero_copy_only=False)
        hv = pc.cast(t2[h_col], pa.int64()).to_numpy(zero_copy_only=False)
        tier = np.searchsorted(bks, np.minimum(wv, hv),
                               side="right").astype(np.int64)
        agg = (
            pa.table({"tier": pa.array(tier, pa.int64()),
                      fmt_col: t2[fmt_col]})
            .group_by(["tier", fmt_col]).aggregate([([], "count_all")])
        )
        return agg.rename_columns(["tier", fmt_col, "n"])

    folded = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    schema = pa.schema([
        ("tier", pa.int64()), (fmt_col, pa.string()),
        ("n", pa.int64()), ("expected_e6", pa.int64()),
        ("resid_e6", pa.int64()),
    ])
    if folded is None:
        return schema.empty_table()
    cells = (
        folded.group_by(["tier", fmt_col]).aggregate([("n", "sum")])
        .rename_columns(["tier", fmt_col, "n"])
    )
    tiers = cells["tier"].to_pylist()
    fmts = cells[fmt_col].to_pylist()
    ns = cells["n"].to_pylist()
    tier_tot: dict = {}
    fmt_tot: dict = {}
    for t_, f_, n_ in zip(tiers, fmts, ns):
        tier_tot[t_] = tier_tot.get(t_, 0) + n_
        fmt_tot[f_] = fmt_tot.get(f_, 0) + n_
    grand = sum(ns)
    exp_e6, resid_e6 = [], []
    for t_, f_, n_ in zip(tiers, fmts, ns):
        # exact integer product, ONE double divide -> same bits as SQL
        exp = float(tier_tot[t_] * fmt_tot[f_]) / float(grand)
        exp_e6.append(int(math.floor(exp * 1e6 + 0.5)))
        resid = (float(n_) - exp) / math.sqrt(exp)
        resid_e6.append(int(math.floor(resid * 1e6 + 0.5)))
    return pa.table({
        "tier": pa.array(tiers, pa.int64()),
        fmt_col: cells[fmt_col].combine_chunks(),
        "n": pa.array(ns, pa.int64()),
        "expected_e6": pa.array(exp_e6, pa.int64()),
        "resid_e6": pa.array(resid_e6, pa.int64()),
    })
