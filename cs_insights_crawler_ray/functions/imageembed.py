"""Stub vision-embedding model — the "model inference" stage of the
payload pipeline.

A tiny 3-layer convnet with FIXED seeded weights, implemented as
im2col + matmul in pure numpy.  It is the clearly-marked deterministic
stand-in for a real vision encoder (the container ships no torch/PIL;
build contract: stub the model, keep the Ray-side plumbing real): the
load-once-per-worker pattern and the output contract (unit-norm
float32 embedding usable by the ANN / near-dup operators) match what
a real model would need.  It costs about 1-2 ms per 192-320 px image
on one core of a shared Xeon VM, most of it the conv stack.

Weights are Glorot-ish draws from PCG64(seed).  Inference is
bit-deterministic across processes only for a given BLAS kernel and
BLAS thread count: the three conv products (``patches @ k.T``) and the
final norm run through numpy's BLAS, and an OpenBLAS built with
DYNAMIC_ARCH picks its sgemm kernel from the CPU and splits the work by
its thread count.  Measured on the benchmark's toy multimodal crawl
(numpy 1.26's bundled OpenBLAS 0.3.23, Xeon SapphireRapids): the
features digest takes six distinct values across the Prescott,
Core2, Nehalem, Haswell (= Zen), SkylakeX and native Cooperlake
kernels on one thread, and differs again on two threads for both
Prescott and the native kernel.  perfbench/expected.json records the
Prescott kernel's values on one BLAS thread
(OPENBLAS_CORETYPE=Prescott OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

import numpy as np

EMBED_DIM = 64
_CHANNELS = (3, 24, 48, EMBED_DIM)
_STRIDE = 2
_MIN_SIDE = 15  # smallest input whose three stride-2 3x3 conv outputs
# all stay non-empty (15 -> 7 -> 3 -> 1); smaller inputs edge-pad up
_MAX_SIDE = 96  # inputs are mean-pool resized so the longer side is
# <= this before the conv stack: the full-res im2col was memory-
# bandwidth-bound (scaling flattened beyond ~8 cores, measured); the
# resized stack is arithmetic-dense and scales with cores.


class TinyConvEmbedder:
    """Load-once-per-worker model object (the analog of loading model
    weights in an actor's __init__)."""

    def __init__(self, seed: int = 2024):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.kernels = []
        for cin, cout in zip(_CHANNELS[:-1], _CHANNELS[1:]):
            scale = np.sqrt(2.0 / (cin * 9))
            self.kernels.append(
                (rng.standard_normal((cout, cin * 9)) * scale).astype(np.float32)
            )

    @staticmethod
    def _im2col(x: np.ndarray, stride: int) -> tuple[np.ndarray, int, int]:
        """(H, W, C) -> (out_h*out_w, C*9) patches of 3x3 windows."""
        h, w, c = x.shape
        oh, ow = (h - 3) // stride + 1, (w - 3) // stride + 1
        s0, s1, s2 = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(oh, ow, 3, 3, c),
            strides=(s0 * stride, s1 * stride, s0, s1, s2),
            writeable=False,
        )
        return windows.reshape(oh * ow, 9 * c), oh, ow

    def embed(self, pixels: np.ndarray) -> np.ndarray:
        """HxWx3 uint8 -> (EMBED_DIM,) unit-norm float32."""
        f = max(1, -(-max(pixels.shape[:2]) // _MAX_SIDE))
        if f > 1:  # antialias resize: f x f mean pooling
            h, w = (pixels.shape[0] // f) * f, (pixels.shape[1] // f) * f
            # clamp so pooling never outputs a ZERO dimension (a
            # 20x200 image pools to 0x66 at f=3)
            h, w = max(h, f), max(w, f)
            ph, pw = max(0, h - pixels.shape[0]), max(0, w - pixels.shape[1])
            if ph or pw:
                pixels = np.pad(pixels, ((0, ph), (0, pw), (0, 0)), mode="edge")
            # f*f in-order slice adds: the same float32 additions, in the
            # same (row, column) order, as numpy's f x f mean over the
            # interleaved image, so the bits match; that mean runs a
            # 3-wide inner loop and is ~10x slower.  Channel-planar so
            # each add's inner loop runs along a row.
            xp = (pixels[:h, :w].transpose(2, 0, 1).astype(np.float32) / 255.0).reshape(
                3, h // f, f, w // f, f
            )
            x = xp[:, :, 0, :, 0].copy()
            for j in range(f):
                for k in range(f):
                    if j or k:
                        x += xp[:, :, j, :, k]
            x /= np.float32(f * f)
            x = x.transpose(1, 2, 0)
        else:
            x = pixels.astype(np.float32) / 255.0
        if min(x.shape[:2]) < _MIN_SIDE:
            # deterministic edge-pad AFTER the pooling resize (the
            # resize divides by f, so a pre-pad could be squashed back
            # below 15 for skinny images like 20x200): three stride-2
            # 3x3 layers need a side >= 15 to keep every output
            # non-empty — below that the stack either raised from
            # as_strided (side <= 2) or silently emitted an all-NaN
            # "embedding", poisoning downstream cosine math
            ph = max(0, _MIN_SIDE - x.shape[0])
            pw = max(0, _MIN_SIDE - x.shape[1])
            x = np.pad(x, ((0, ph), (0, pw), (0, 0)), mode="edge")
        for k in self.kernels:
            patches, oh, ow = self._im2col(np.ascontiguousarray(x), _STRIDE)
            # patches are laid out (3,3,C) -> kernel expects (C*9); use
            # a consistent flat order on both sides (it's fixed random
            # weights — only consistency matters, not layout)
            y = patches @ k.T
            np.maximum(y, 0.0, out=y)  # ReLU
            x = y.reshape(oh, ow, k.shape[0])
        v = x.mean(axis=(0, 1))  # global average pool
        n = float(np.linalg.norm(v))
        return (v / n if n > 1e-12 else v).astype(np.float32)


_MODEL: dict[int, TinyConvEmbedder] = {}


def get_model(seed: int = 2024) -> TinyConvEmbedder:
    """Per-process model cache (load once per worker)."""
    m = _MODEL.get(seed)
    if m is None:
        m = _MODEL.setdefault(seed, TinyConvEmbedder(seed))
    return m
