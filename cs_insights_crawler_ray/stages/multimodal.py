"""Multimodal payload stages — audio / video plumbing.

Per the build contract: image/audio/video are opaque ``binary``
columns with typed metadata; decode / feature-extract / resize /
frame-sample run as batch stages.  The container ships no
audio/video libraries, so the CODECS are stubbed two ways:

- real libraries absent -> the library-backed path raises
  ``NotImplementedError`` with the documented production recipe;
- a deterministic FAKE codec (header + zlib PCM / frame-planes, same
  family as functions/imagecodec.py) keeps the Ray-side plumbing —
  schemas, batch sizing, per-process decoder cache, output layout —
  real and tested.

Schemas:
  audio: (clip_id string, bytes binary, sample_rate int32,
          n_samples int64, channels int32)
  video: (video_id string, bytes binary, w int32, h int32,
          n_frames int32, fps float32)
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

AUDIO_MAGIC, VIDEO_MAGIC = b"FAUD", b"FVID"


# ---------------------------------------------------------------------------
# deterministic fake codecs
# ---------------------------------------------------------------------------
def encode_audio(samples: np.ndarray, sample_rate: int) -> bytes:
    """mono/stereo int16 PCM, shape (n, channels)."""
    if samples.dtype != np.int16 or samples.ndim != 2:
        raise ValueError("samples must be (n, channels) int16")
    n, ch = samples.shape
    return AUDIO_MAGIC + struct.pack("<IIH", sample_rate, n, ch) + zlib.compress(
        samples.tobytes(), 6
    )


def decode_audio(data: bytes) -> tuple[np.ndarray, int]:
    if len(data) < 14 or data[:4] != AUDIO_MAGIC:
        raise ValueError("bad audio magic")
    rate, n, ch = struct.unpack("<IIH", data[4:14])
    try:
        raw = zlib.decompress(data[14:])
    except zlib.error as e:  # zlib.error is not a ValueError — the
        raise ValueError(f"corrupt audio body: {e}") from e  # poison-row
        # handlers catch ValueError only (same contract as decode_image)
    return np.frombuffer(raw, np.int16).reshape(n, ch), rate


def encode_video(frames: np.ndarray, fps: float) -> bytes:
    """(n_frames, h, w, 3) uint8."""
    if frames.dtype != np.uint8 or frames.ndim != 4:
        raise ValueError("frames must be (n, h, w, 3) uint8")
    n, h, w, _ = frames.shape
    return VIDEO_MAGIC + struct.pack("<HHHf", n, w, h, fps) + zlib.compress(
        frames.tobytes(), 6
    )


def decode_video(data: bytes) -> tuple[np.ndarray, float]:
    if len(data) < 14 or data[:4] != VIDEO_MAGIC:
        raise ValueError("bad video magic")
    n, w, h, fps = struct.unpack("<HHHf", data[4:14])
    try:
        raw = zlib.decompress(data[14:])
    except zlib.error as e:
        raise ValueError(f"corrupt video body: {e}") from e
    return np.frombuffer(raw, np.uint8).reshape(n, h, w, 3), fps


def decode_audio_with_library(data: bytes):  # pragma: no cover - stub
    """Production path: libsndfile/ffmpeg per-process handle in a
    map_batches task cache, small batch_size (bytes dominate)."""
    raise NotImplementedError("no audio codec libraries in this environment")


# ---------------------------------------------------------------------------
# batch stages (real Ray plumbing)
# ---------------------------------------------------------------------------
def audio_features_stage(batch: pa.Table) -> pa.Table:
    """Decode + feature-extract per clip: RMS energy, zero-crossing
    rate, spectral centroid (rfft) — the audio analog of the image
    feature stage. Vectorized numpy per clip; poison rows -> ok=False."""
    ids, rms, zcr, cent, oks = [], [], [], [], []
    for cid, blob in zip(batch["clip_id"].to_pylist(), batch["bytes"].to_pylist()):
        ids.append(cid)
        try:
            s, rate = decode_audio(blob)
        except ValueError:
            rms.append(0.0); zcr.append(0.0); cent.append(0.0); oks.append(False)
            continue
        x = s[:, 0].astype(np.float32) / 32768.0
        rms.append(float(np.round(np.sqrt(np.mean(x * x)), 6)))
        zcr.append(float(np.round(np.mean(np.abs(np.diff(np.signbit(x)))), 6)))
        spec = np.abs(np.fft.rfft(x[: min(len(x), 1 << 14)]))
        freqs = np.fft.rfftfreq(min(len(x), 1 << 14), 1.0 / rate)
        cent.append(
            float(np.round((freqs * spec).sum() / max(spec.sum(), 1e-9), 3))
        )
        oks.append(True)
    return pa.table(
        {
            "clip_id": pa.array(ids, pa.string()),
            "rms": pa.array(rms, pa.float64()),
            "zcr": pa.array(zcr, pa.float64()),
            "spectral_centroid": pa.array(cent, pa.float64()),
            "ok": pa.array(oks, pa.bool_()),
        }
    )


def video_frame_sample_stage(batch: pa.Table, every_n: int = 5) -> pa.Table:
    """Frame-sample + per-frame phash: one output row per SAMPLED
    frame (flat_map shape), carrying (video_id, frame_idx, phash).
    The contract's frame-sample stage with the fake codec."""
    from ..functions.imagecodec import phash64

    vids, idxs, hashes = [], [], []
    for vid, blob in zip(batch["video_id"].to_pylist(), batch["bytes"].to_pylist()):
        try:
            frames, _fps = decode_video(blob)
        except ValueError:
            continue
        for i in range(0, frames.shape[0], every_n):
            vids.append(vid)
            idxs.append(i)
            hashes.append(phash64(frames[i]))
    return pa.table(
        {
            "video_id": pa.array(vids, pa.string()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "phash": pa.array(hashes, pa.int64()),
        }
    )
