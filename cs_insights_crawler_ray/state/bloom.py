"""Counting Bloom filter over 20-byte URL digests.

Approximate-membership sketch for the URL-seen set's sketch mode
(BASELINE.json north_rule; ``state/seen.py`` ``SketchSet``).  The
reference's "seen" mechanism is file-granular disk caching (reference
``dblpclient.py:340-350,442-443``); at 10^10-URL scale a seen set
that accepts a false-positive rate can be a compact in-memory sketch,
sharded across actors.

Counting (uint8 cells, saturating) rather than bit-per-cell so
deletions are possible (``remove``).  The crawl never deletes — resume
replays delta snapshots, it rolls nothing back — so this is for
windowed membership such as a recrawl policy; the counters cost 8x
the memory of a bit array.
Guarantees: NO false negatives; false-positive rate ~ (1-e^{-kn/m})^k.
k hash functions are derived from disjoint slices of the SHA-1 digest
itself (the digest is already uniform), so adds are pure numpy — no
per-item Python hashing.
"""

from __future__ import annotations

import numpy as np


# distinct odd 64-bit diffusion constants, one per hash slice
# (fibonacci-hash family: golden ratio and friends)
_SLICE_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)


class CountingBloom:
    def __init__(self, capacity: int, fp_rate: float = 1e-3):
        # m = -n ln p / (ln 2)^2 ; k = m/n ln 2
        n = max(64, capacity)
        m = int(-n * np.log(fp_rate) / (np.log(2) ** 2))
        self.k = max(1, int(round(m / n * np.log(2))))
        self.k = min(self.k, 4)  # 4 x uint32 slices fit a 20-byte digest
        self.m = np.uint64(max(1024, m))
        self.cells = np.zeros(int(self.m), dtype=np.uint8)
        self.n_added = 0

    def _indices(self, digests: np.ndarray) -> np.ndarray:
        """(N,20) uint8 digest matrix -> (k,N) cell indices."""
        d = digests.reshape(-1, 20)
        # big-endian u4 view == (b0<<24 | b1<<16 | b2<<8 | b3): one copy
        # + one widening astype instead of a 4-way shift/or chain over
        # a (N,k,4) uint64 tensor (2.7s -> 0.3s on 2.5M rows, measured)
        vals = (
            np.ascontiguousarray(d[:, : self.k * 4])
            .view(">u4")
            .astype(np.uint64)
        )
        # widen each slice to 40 bits with one more digest byte: 32-bit
        # slice values cap reachable indices at ~2^32, so a filter sized
        # m > 2^32 (scalable-bloom growth past ~3e8 capacity at the
        # 10^10-URL design point) would silently never touch its upper
        # cells — allocated memory wasted, realized FP rate above the
        # configured one.  Slice i owns digest bytes [4i..4i+3] + byte
        # 16+i — fully DISJOINT across slices (an earlier additive
        # "tail" over bytes 18-19 collided with slices 2/3's widen
        # byte, correlating the k hash functions); the per-slice odd
        # multiply diffuses the 40 bits over 2^64 before the modulo so
        # any m up to ~10^12 cells is fully reachable.
        vals = (vals << np.uint64(8)) | d[:, 16 : 16 + self.k].astype(np.uint64)
        with np.errstate(over="ignore"):
            vals = vals * _SLICE_MIX[: self.k][None, :]
        return (vals % self.m).T

    def contains(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized membership: (N,20) uint8 -> (N,) bool (maybe-present)."""
        idx = self._indices(digests)
        return (self.cells[idx] > 0).all(axis=0)

    def add(self, digests: np.ndarray) -> None:
        idx = self._indices(digests)
        for row in idx:  # k rows (<=4), each a vectorized saturating add
            # uint8 wraps 255->0 inside np.add.at (and duplicate indices
            # within one batch can carry a cell past 255 in a single
            # call), so a post-hoc np.minimum cannot enforce saturation
            # — a wrapped cell would be a bloom false NEGATIVE.  Do the
            # arithmetic wide instead: unique indices + per-index
            # counts, add in int64, clamp, write back.
            uniq, cnt = np.unique(row, return_counts=True)
            new = self.cells[uniq].astype(np.int64) + cnt
            self.cells[uniq] = np.minimum(new, 255).astype(np.uint8)
        self.n_added += digests.shape[0]

    def remove(self, digests: np.ndarray) -> None:
        """Best-effort delete (counting cells). Saturated cells (255)
        are never decremented to preserve the no-false-negative
        guarantee for other members."""
        idx = self._indices(digests)
        for row in idx:
            # same wide-arithmetic pattern as add(): a pre-read snapshot
            # + subtract.at would let DUPLICATE indices in one batch
            # decrement past the guard and wrap uint8 0 -> 255,
            # permanently saturating a phantom cell
            uniq, cnt = np.unique(row, return_counts=True)
            cur = self.cells[uniq].astype(np.int64)
            dec = (cur > 0) & (cur < 255)
            new = np.where(dec, np.maximum(cur - cnt, 0), cur)
            self.cells[uniq] = new.astype(np.uint8)
        self.n_added -= digests.shape[0]
