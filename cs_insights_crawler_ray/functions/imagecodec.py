"""Deterministic image codec — the sandbox stand-in for PIL/libjpeg.

The container ships no image libraries, so per the build contract the
*decode* is a clearly-marked deterministic fake while all Ray-side
plumbing (binary columns, batch sizing, actor signatures, PSNR gate,
phash) is real and tested.

Format (FIMG v1), little-endian:

    magic  b"FIMG"        4 bytes
    fmt    uint8          0=png (lossless) 1=jpeg 2=webp (lossy)
    w      uint16
    h      uint16
    body   zlib(raw | quantized raw)   HxWx3 uint8, C-order

Lossy formats quantize each channel to steps of ``_QSTEP`` before
compression — a real, measurable quality loss, so the decode-verify
stage's PSNR >= 40 dB gate (BASELINE.json input_hint) is exercised by
genuine arithmetic: qstep=4 yields ~47 dB, a corrupted payload fails.

The reference's analogous integrity check is the md5
local-vs-remote compare with hard failure
(reference ``dblpclient.py:437-451``).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"FIMG"
FMT_CODES = {"png": 0, "jpeg": 1, "webp": 2}
FMT_NAMES = {v: k for k, v in FMT_CODES.items()}
LOSSY = {"jpeg", "webp"}
_QSTEP = 4  # lossy quantization step -> PSNR ~= 47 dB (> 40 dB gate)


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    """Encode an HxWx3 uint8 array. Deterministic (zlib level fixed)."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("pixels must be HxWx3 uint8")
    h, w = pixels.shape[:2]
    body = pixels
    if fmt in LOSSY:
        body = (pixels // _QSTEP) * _QSTEP + _QSTEP // 2
    payload = zlib.compress(body.tobytes(), level=6)
    return MAGIC + struct.pack("<BHH", FMT_CODES[fmt], w, h) + payload


def decode_image(data: bytes) -> tuple[np.ndarray, str]:
    """Decode FIMG bytes -> (HxWx3 uint8 pixels, fmt name).

    Raises ValueError on a corrupt header/payload — surfaced as a
    poison-row ``ok=False`` in the decode-verify stage, never as a
    task failure (HTTP/decode errors are data, not exceptions).
    """
    if len(data) < 9 or data[:4] != MAGIC:
        raise ValueError("bad magic")
    fmt_code, w, h = struct.unpack("<BHH", data[4:9])
    if fmt_code not in FMT_NAMES:
        raise ValueError("bad fmt")
    if w == 0 or h == 0:
        # a zero-dimension "image" is corrupt data, not a valid decode:
        # downstream feature/embed kernels divide by h/w, and letting
        # it through turned a poison row into a task-killing
        # ZeroDivisionError in the fused wave task
        raise ValueError("zero image dimension")
    try:
        raw = zlib.decompress(data[9:])
    except zlib.error as e:
        # zlib.error is NOT a ValueError — without this wrap a
        # well-headered blob with a corrupt body would escape the
        # decode stage's poison-row handler and kill the task
        raise ValueError(f"corrupt zlib body: {e}") from e
    if len(raw) != w * h * 3:
        raise ValueError("bad payload length")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3), FMT_NAMES[fmt_code]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images.

    Integer SSE (int16 diff, int64 accumulate) instead of float64
    image copies: float64 blew the per-image memory traffic up ~8x and
    made the decode stage bandwidth-bound at high core counts
    (measured). Bit-identical result: the only float op is the final
    log of an exactly-computed integer SSE."""
    if a.shape != b.shape:
        return 0.0
    d = a.astype(np.int16) - b.astype(np.int16)
    # int64, as documented: np.dot over int32 wraps silently past
    # ~2^31 (reachable from ~33k pixels of large diffs), and a wrapped
    # small-positive SSE would let a CORRUPT image pass the >=40 dB gate
    d = d.reshape(-1).astype(np.int64)
    sse = int(np.dot(d, d))
    if sse == 0:
        return float("inf")
    mse = sse / d.size
    return float(10.0 * np.log10(255.0**2 / mse))


def gray_pool_u8(pixels: np.ndarray, size: int) -> np.ndarray:
    """uint8 HxWx3 (H, W >= size) -> (size, size) C-contiguous float32
    grey mean pool over the nearest-multiple crop: each cell is the
    mean of its block's R, G and B values.

    The block sums are exact int32 sums, read once off the uint8 array
    (row blocks first, then column blocks), divided in float32.  This
    equals ``mean(axis=(1, 3, 4), dtype=float32)`` over the
    ``(size, bh, size, bw, 3)`` view bit for bit while every block sum
    stays below 2**24, where float32 adds integers exactly: blocks of
    bh * bw <= 21,931 pixels (255 * 3 * 21,931 < 2**24), i.e. images of
    up to 1,191 px a side at size 8 and 9,535 px at size 64.  The
    crawl's images are at most 320 px a side."""
    h, w = pixels.shape[:2]
    bh, bw = h // size, w // size
    rows = pixels[: size * bh].reshape(size, bh, w * 3).sum(axis=1, dtype=np.int32)
    sums = rows[:, : size * bw * 3].reshape(size, size, bw * 3).sum(axis=2)
    return sums.astype(np.float32) / np.float32(bh * bw * 3)


def bits_to_int64(bits: np.ndarray) -> int:
    """64 booleans, most significant first -> signed int64 (two's
    complement), the Arrow ``int64`` form of a 64-bit hash."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big", signed=True)


def phash64(pixels: np.ndarray) -> int:
    """64-bit perceptual hash (average-hash on an 8x8 mean-pooled
    grayscale), signed int64 for the Arrow column (input_hint:
    ``phash:int64``).

    Deterministic, pure numpy; near-identical images (e.g. lossy
    re-encodes) map to small Hamming distances — the basis for the
    near-dup operator (SURVEY.md §2.7 D5).  Pools directly on the
    uint8 array (single read of the image) — a full-res float32
    grayscale copy made this bandwidth-bound at high core counts.
    """
    h, w = pixels.shape[:2]
    if h < 8 or w < 8:  # degenerate tiny image: pad by repetition
        pixels = np.tile(pixels, (8, 8, 1))[: 8 * max(1, h), : 8 * max(1, w)]
    g = gray_pool_u8(pixels, 8)
    return bits_to_int64(g > g.mean())


def hamming64(a: int, b: int) -> int:
    return int(bin((a ^ b) & ((1 << 64) - 1)).count("1"))
