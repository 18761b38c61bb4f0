"""Decoder stage: validation/conform of image bytes.

The reference's ``$unmarshal`` + ``$validate`` pair (src/schisma.mjs:
138-172, test/class.mjs:31-62) is how one validates "a value that must
be constructed before checking"; for the image table that construction
is *decoding*, so it runs as a ``map_batches`` callable instance that
Ray fuses into the read task:

    ds.map_batches(DecodeValidator(), batch_format="pyarrow",
                   zero_copy_batch=True)

* ``DecodeValidator`` — decodes ``bytes`` and checks the stored
  ``w``/``h``/``fmt`` against the decoded truth; emits ``invalid`` rows
  (the reference's ``$validate`` failure code) with check='decode'.
* ``DecodeConformer`` — repairs metadata from the decoded truth (the
  conform direction: coerce the value to satisfy the invariant), and
  replaces undecodable payloads with a deterministic placeholder.

Both constructors only store flags, so an instance costs nothing to
ship with each task. A batch is the read block; the image bytes never
leave the read task and decoded pixels never leave the stage.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pyarrow as pa

from ..sources import codec
from ..sources.image_table import VIOLATION_SCHEMA

_PLACEHOLDER_FMT = "png"


@contextmanager
def _codec_backend(name: str | None):
    """Run the body on codec backend ``name`` (None: the current one) and
    restore the previous backend afterwards. The stages apply their
    ``backend`` per call because the call, not the constructor, runs in
    the worker process."""
    if name is None:
        yield
        return
    prev = codec.set_backend(name)
    try:
        yield
    finally:
        codec.set_backend(prev)


def _placeholder() -> tuple[bytes, int, int, int]:
    px = np.zeros((8, 8, 3), dtype=np.uint8)
    return codec.encode(px, _PLACEHOLDER_FMT), 8, 8, codec.phash64(px)


class DecodeValidator:
    """Decode + invariant checks -> violations table."""

    def __init__(self, full_decode: bool = True, report_missing_bytes: bool = True,
                 backend: str | None = None):
        # full_decode=False uses header sniffing only (no decompression):
        # the cheap path for when only dims/format labels are audited.
        # report_missing_bytes=False when a fused schema stage already
        # owns the bytes null check (avoids duplicate rows).
        # backend selects the codec implementation ("builtin"/"pil") for
        # the calls of this instance only
        self.backend = backend
        self.full_decode = full_decode
        self.report_missing_bytes = report_missing_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        with _codec_backend(self.backend):
            return self._validate(batch)

    def _validate(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        refs, paths, codes, exps, recs, checks = [], [], [], [], [], []

        def add(i, path, expected, received, code="invalid", check="decode"):
            refs.append(ids[i])
            paths.append(path)
            codes.append(code)
            exps.append(expected)
            recs.append(received)
            checks.append(check)

        for i, blob in enumerate(blobs):
            if blob is None:
                # this stage owns the bytes column (the schema stage runs
                # on a bytes-free projection), so the required-null check
                # lands here
                if self.report_missing_bytes:
                    add(i, "bytes", None, None, code="missing key", check="schema")
                continue
            if self.full_decode:
                try:
                    pixels, actual_fmt = codec.decode(blob)
                    ah, aw = pixels.shape[0], pixels.shape[1]
                except codec.CodecError:
                    add(i, "bytes", "decodable image", "undecodable")
                    continue
            else:
                dims = codec.sniff_dims(blob)
                actual_fmt = codec.sniff_format(blob)
                if dims is None or actual_fmt is None:
                    add(i, "bytes", "decodable image", "undecodable")
                    continue
                aw, ah = dims
            if ws[i] is not None and ws[i] != aw:
                add(i, "w", str(aw), str(ws[i]))
            if hs[i] is not None and hs[i] != ah:
                add(i, "h", str(ah), str(hs[i]))
            if fmts[i] is not None and fmts[i] != actual_fmt:
                add(i, "fmt", actual_fmt, fmts[i])
        n = len(refs)
        return pa.Table.from_arrays(
            [
                pa.array(refs, pa.string()),
                pa.array(paths, pa.string()),
                pa.array(codes, pa.string()),
                pa.array(exps, pa.string()),
                pa.array(recs, pa.string()),
                pa.array([None] * n, pa.string()),
                pa.array(checks, pa.string()),
            ],
            schema=VIOLATION_SCHEMA,
        )


class DecodeConformer:
    """Repair w/h/fmt/phash from the decoded truth.

    Undecodable payloads become a deterministic placeholder image (the
    conform-with-default path, C4). Pixels of decodable rows are never
    re-encoded — label repairs are metadata-only, so decoded-pixel
    fidelity is exact (PSNR = inf).
    """

    def __init__(self, fix_phash: bool = False, backend: str | None = None):
        self.backend = backend
        self.fix_phash = fix_phash

    def __call__(self, batch: pa.Table) -> pa.Table:
        with _codec_backend(self.backend):
            return self._conform(batch)

    def _conform(self, batch: pa.Table) -> pa.Table:
        # encoded per call: the placeholder takes this call's backend
        placeholder = _placeholder()
        blobs = batch["bytes"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        phashes = batch["phash"].to_pylist()
        for i, blob in enumerate(blobs):
            if blob is None:
                blob, aw, ah, ph = placeholder
                blobs[i], ws[i], hs[i] = blob, aw, ah
                fmts[i], phashes[i] = _PLACEHOLDER_FMT, ph
                continue
            try:
                pixels, actual_fmt = codec.decode(blob)
            except codec.CodecError:
                blob, aw, ah, ph = placeholder
                blobs[i], ws[i], hs[i] = blob, aw, ah
                fmts[i], phashes[i] = _PLACEHOLDER_FMT, ph
                continue
            ws[i] = pixels.shape[1]
            hs[i] = pixels.shape[0]
            fmts[i] = actual_fmt
            if self.fix_phash:
                phashes[i] = codec.phash64(pixels)
        out = batch
        for name, vals, t in (
            ("bytes", blobs, pa.binary()),
            ("w", ws, batch.schema.field("w").type),
            ("h", hs, batch.schema.field("h").type),
            ("fmt", fmts, pa.string()),
            ("phash", phashes, pa.int64()),
        ):
            idx = out.schema.get_field_index(name)
            out = out.set_column(idx, name, pa.array(vals, t))
        return out
