"""Image feature extraction — the multimodal stage of the payload
pipeline (build contract: "decode / feature-extract / resize /
frame-sample as actor-pool map_batches stages").

All pure numpy, deterministic, library-free (no PIL/torch in the
sandbox): mean-pool resize pyramid, spectral (FFT-magnitude) hash —
the public DCT-pHash construction with FFT standing in for DCT — and
per-channel gradient-energy stats.  It costs about 0.5-1 ms per
192-320 px image on one core of a shared Xeon VM.
"""

from __future__ import annotations

import numpy as np

from .imagecodec import bits_to_int64, gray_pool_u8

PYRAMID = (64, 32, 16)


def resize_pool(gray: np.ndarray, size: int) -> np.ndarray:
    """Mean-pool resize to (size, size) (nearest-multiple crop)."""
    h, w = gray.shape
    if h < size or w < size:
        gray = np.tile(gray, (size // h + 1, size // w + 1))
        h, w = gray.shape
    th, tw = (h // size) * size, (w // size) * size
    return gray[:th, :tw].reshape(size, th // size, size, tw // size).mean(axis=(1, 3))


def spectral_hash(gray: np.ndarray, size: int = 32) -> int:
    """FFT-magnitude perceptual hash (pHash family): resize ->
    2D transform -> low-frequency 8x8 block -> median threshold ->
    64-bit signature."""
    g = resize_pool(gray.astype(np.float64), size)
    spec = np.abs(np.fft.fft2(g))[:8, :8]
    med = np.median(spec[1:, 1:])  # skip DC
    return bits_to_int64(spec > med)


def extract_features(pixels: np.ndarray) -> dict:
    """Deterministic feature vector for one decoded image.

    The grayscale is pooled straight off the uint8 array to 64x64
    (one read of the image); every feature derives from that pooled
    plane — full-res float32 copies made this stage memory-bandwidth
    bound at high core counts (measured)."""
    gray = resize_pool_u8(pixels, PYRAMID[0])
    feats: dict = {}
    for s in PYRAMID:
        feats[f"phash_{s}"] = spectral_hash(gray, s)
    gx = np.abs(np.diff(gray, axis=1)).mean()
    gy = np.abs(np.diff(gray, axis=0)).mean()
    feats["grad_energy"] = float(np.round(np.hypot(gx, gy), 4))
    feats["luma_mean"] = float(np.round(gray.mean(), 4))
    feats["luma_std"] = float(np.round(gray.std(), 4))
    return feats


def resize_pool_u8(pixels: np.ndarray, size: int) -> np.ndarray:
    """uint8 HxWx3 -> (size, size) float32 pooled grayscale in one
    pass (tile-pad degenerate small images); see ``gray_pool_u8``."""
    h, w = pixels.shape[:2]
    if h < size or w < size:
        pixels = np.tile(pixels, (size // h + 1, size // w + 1, 1))
    return gray_pool_u8(pixels, size)


FEATURE_COLUMNS = [
    ("phash_64", "int64"),
    ("phash_32", "int64"),
    ("phash_16", "int64"),
    ("grad_energy", "float64"),
    ("luma_mean", "float64"),
    ("luma_std", "float64"),
]
