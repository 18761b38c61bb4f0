"""Deterministic image codec for the image+caption table.

Real image libraries (PIL/libjpeg/libwebp) are NOT available in this
environment, so the engine ships a clearly-marked deterministic stand-in
codec: a container format with a per-format magic header, explicit
dimensions, and a zlib-compressed pixel payload. ``jpeg``/``webp`` are
*lossy* via bit-depth quantization (chosen so PSNR stays >= 40 dB, the
conform-fidelity bar from BASELINE.md), ``png`` is lossless.

The Ray-side plumbing (schemas, batch sizes, actor signatures, output
layout) is identical to what a real codec would need: the public
``encode``/``decode`` functions dispatch on a backend
selected with ``set_backend("builtin" | "pil")``. The ``pil`` backend
implements the same contract over Pillow (real PNG/JPEG/WEBP); it is
selectable whenever ``HAVE_PIL`` is true and is covered by a contract
test that injects a PIL stand-in — so the gate is exercised even in
containers without Pillow, and rots loudly instead of silently.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

try:  # pragma: no cover - not present in this container
    import PIL.Image  # noqa: F401

    HAVE_PIL = True
except ImportError:
    HAVE_PIL = False

#: active implementation: "builtin" (deterministic stand-in) or "pil"
_BACKEND = "builtin"


def set_backend(name: str) -> str:
    """Select the codec implementation; returns the previous backend.

    ``pil`` requires an importable ``PIL.Image`` (raises ImportError
    otherwise). All decode/conform stages call only the public
    ``encode``/``decode`` functions, so flipping the backend
    swaps the codec under every pipeline with no other change.
    """
    global _BACKEND
    if name == "pil":
        import PIL.Image  # noqa: F401 — loud failure when Pillow absent
    elif name != "builtin":
        raise ValueError(f"unknown codec backend {name!r}")
    prev, _BACKEND = _BACKEND, name
    return prev


def get_backend() -> str:
    return _BACKEND


class CodecError(ValueError):
    """Raised for undecodable / truncated / unknown-format payloads."""


_MAGICS = {
    "png": b"\x89FPN",   # fake-png: lossless, zlib over raw pixels
    "jpeg": b"\xff\xd8FJ",  # fake-jpeg: 8x8 block DCT, coarse quantizer
    "webp": b"RIFF",        # fake-webp: 8x8 block DCT, fine quantizer
}
_FMT_BY_MAGIC = {v: k for k, v in _MAGICS.items()}
#: DCT-coefficient quantization step per lossy format. q=6 -> ~43 dB,
#: q=3 -> ~49 dB on random content (both above the 40 dB conform bar).
_QUANT = {"jpeg": 6.0, "webp": 3.0}

FORMATS = tuple(_MAGICS)
_HEADER = struct.Struct("<4sHHB")  # magic, w, h, channels

#: orthonormal 8x8 DCT-II basis (real JPEG-family transform): decode
#: performs genuine arithmetic per pixel (two 8x8 matmuls per block),
#: making the stand-in compute-bound like libjpeg, not memcpy-bound.
_K = np.arange(8)
_DCT = np.sqrt(2.0 / 8.0) * np.cos((2 * _K[None, :] + 1) * _K[:, None] * np.pi / 16.0)
_DCT[0, :] = np.sqrt(1.0 / 8.0)
_IDCT = _DCT.T.copy()


def _to_blocks(plane: np.ndarray) -> tuple[np.ndarray, int, int]:
    h, w = plane.shape
    ph, pw = (-h) % 8, (-w) % 8
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    hb, wb = plane.shape[0] // 8, plane.shape[1] // 8
    blocks = plane.reshape(hb, 8, wb, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    return blocks, hb, wb


def _from_blocks(blocks: np.ndarray, hb: int, wb: int, h: int, w: int) -> np.ndarray:
    plane = blocks.reshape(hb, wb, 8, 8).transpose(0, 2, 1, 3).reshape(hb * 8, wb * 8)
    return plane[:h, :w]


def encode(pixels: np.ndarray, fmt: str) -> bytes:
    """Encode an (h, w, 3) uint8 array into the given format."""
    if _BACKEND == "pil":
        return _pil_encode(pixels, fmt)
    return _builtin_encode(pixels, fmt)


def decode(data: bytes) -> tuple[np.ndarray, str]:
    """Decode to ((h, w, c) uint8, format). Raises CodecError."""
    if _BACKEND == "pil":
        return _pil_decode(data)
    return _builtin_decode(data)


# ------------------------------------------------------------ pil backend
_PIL_FMT = {"png": "PNG", "jpeg": "JPEG", "webp": "WEBP"}


def _pil_encode(pixels: np.ndarray, fmt: str) -> bytes:
    import io

    import PIL.Image

    if fmt not in _PIL_FMT:
        raise CodecError(f"unknown format {fmt!r}")
    if pixels.dtype != np.uint8 or pixels.ndim != 3:
        raise CodecError("pixels must be (h, w, c) uint8")
    buf = io.BytesIO()
    img = PIL.Image.fromarray(pixels)
    kwargs = {"quality": 95} if fmt in ("jpeg", "webp") else {}
    img.save(buf, format=_PIL_FMT[fmt], **kwargs)
    return buf.getvalue()


def _pil_decode(data: bytes) -> tuple[np.ndarray, str]:
    import io

    import PIL.Image

    if data is None or len(data) == 0:
        raise CodecError("empty payload")
    try:
        img = PIL.Image.open(io.BytesIO(bytes(data)))
        fmt = (img.format or "").lower()
        out = np.asarray(img.convert("RGB"))
    except CodecError:
        raise
    except Exception as e:  # Pillow raises assorted types on corruption
        raise CodecError(f"undecodable payload: {e}") from None
    if fmt not in _PIL_FMT:
        raise CodecError(f"unsupported format {fmt!r}")
    return out, fmt


# -------------------------------------------------------- builtin backend
def _builtin_encode(pixels: np.ndarray, fmt: str) -> bytes:
    if fmt not in _MAGICS:
        raise CodecError(f"unknown format {fmt!r}")
    if pixels.dtype != np.uint8 or pixels.ndim != 3:
        raise CodecError("pixels must be (h, w, c) uint8")
    h, w, c = pixels.shape
    if fmt == "png":
        payload = zlib.compress(pixels.tobytes(), level=1)
    else:
        q = _QUANT[fmt]
        coeffs = []
        for ch in range(c):
            blocks, hb, wb = _to_blocks(pixels[:, :, ch].astype(np.float32) - 128.0)
            dct = _DCT @ blocks @ _DCT.T
            coeffs.append(np.round(dct / q).astype(np.int16))
        payload = zlib.compress(np.concatenate(coeffs).tobytes(), level=1)
    return _HEADER.pack(_MAGICS[fmt], w, h, c) + payload


def _builtin_decode(data: bytes) -> tuple[np.ndarray, str]:
    if data is None or len(data) < _HEADER.size:
        raise CodecError("truncated header")
    magic, w, h, c = _HEADER.unpack_from(bytes(data))
    fmt = _FMT_BY_MAGIC.get(magic)
    if fmt is None:
        raise CodecError(f"bad magic {magic!r}")
    try:
        raw = zlib.decompress(bytes(data)[_HEADER.size:])
    except zlib.error as e:
        raise CodecError(f"corrupt payload: {e}") from None
    if fmt == "png":
        if len(raw) != w * h * c:
            raise CodecError("payload size mismatch")
        return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, c), fmt
    hb, wb = (h + 7) // 8, (w + 7) // 8
    n_blocks = hb * wb
    expected = n_blocks * 64 * 2 * c
    if len(raw) != expected:
        raise CodecError("payload size mismatch")
    q = _QUANT[fmt]
    all_coeffs = np.frombuffer(raw, dtype=np.int16).reshape(c, n_blocks, 8, 8)
    out = np.empty((h, w, c), dtype=np.uint8)
    for ch in range(c):
        dct = all_coeffs[ch].astype(np.float32) * q
        blocks = _IDCT @ dct @ _IDCT.T
        plane = _from_blocks(blocks, hb, wb, h, w) + 128.0
        out[:, :, ch] = np.clip(np.round(plane), 0, 255).astype(np.uint8)
    return out, fmt


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    if a.shape != b.shape:
        return 0.0
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def phash64(pixels: np.ndarray) -> int:
    """Deterministic 64-bit perceptual-ish hash of decoded pixels.

    Average-hash style: downsample the luma plane to 8x8 by block means,
    threshold at the mean -> 64 bits -> signed int64. Quantization-stable
    for the lossy formats above, so re-encoding preserves the hash.
    """
    luma = pixels.astype(np.float32).mean(axis=2)
    h, w = luma.shape
    # block-mean resample to 8x8 (pad to a multiple of 8 by edge-repeat)
    ph = (-h) % 8
    pw = (-w) % 8
    if ph or pw:
        luma = np.pad(luma, ((0, ph), (0, pw)), mode="edge")
    bh, bw = luma.shape[0] // 8, luma.shape[1] // 8
    small = luma.reshape(8, bh, 8, bw).mean(axis=(1, 3))
    bits = (small > small.mean()).flatten()
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value - (1 << 64) if value >= (1 << 63) else value
