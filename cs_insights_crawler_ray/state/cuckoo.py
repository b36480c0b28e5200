"""Cuckoo filter over 20-byte URL digests.

Second membership sketch required by the north_rule ("sharded
counting-bloom + cuckoo-filter URL-seen set").  Compared to the bloom
it supports clean deletes and ~same space at low FP rates.  The seen
set's sketch mode (``state/seen.py`` ``SketchSet``) holds both and
confirms bloom positives against the cuckoo.

Standard design (Fan et al., CoNLL'14, public): buckets of 4
fingerprint slots, partial-key cuckoo hashing with
``i2 = i1 XOR hash(fingerprint)``.  16-bit fingerprints taken from
the SHA-1 digest (uniform already).  Fingerprint 0 is remapped to 1 so
0 can mean "empty slot".
"""

from __future__ import annotations

import numpy as np

_SLOTS = 4
_MAX_KICKS = 200


class CuckooFilter:
    def __init__(self, capacity: int, seed: int = 0x5EED):
        n_buckets = 1
        while n_buckets * _SLOTS < int(capacity / 0.84) + _SLOTS:
            n_buckets <<= 1  # power of two so i2 = i1 ^ h(fp) stays in range
        self.n_buckets = n_buckets
        self.mask = np.uint64(n_buckets - 1)
        self.table = np.zeros((n_buckets, _SLOTS), dtype=np.uint16)
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.n_added = 0

    # -- hashing ------------------------------------------------------
    @staticmethod
    def _fp(d: np.ndarray) -> np.ndarray:
        fp = (d[:, 0].astype(np.uint16) << np.uint16(8)) | d[:, 1].astype(np.uint16)
        fp[fp == 0] = 1
        return fp

    def _i1(self, d: np.ndarray) -> np.ndarray:
        v = (
            (d[:, 4].astype(np.uint64) << np.uint64(24))
            | (d[:, 5].astype(np.uint64) << np.uint64(16))
            | (d[:, 6].astype(np.uint64) << np.uint64(8))
            | d[:, 7].astype(np.uint64)
        )
        return v & self.mask

    def _alt(self, i: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # MurmurHash-style fingerprint mix (public-domain constant)
        h = fp.astype(np.uint64) * np.uint64(0xC6A4A7935BD1E995)
        return (i ^ (h & np.uint64(0xFFFFFFFFFFFFFFFF))) & self.mask

    # -- ops ----------------------------------------------------------
    def contains(self, digests: np.ndarray) -> np.ndarray:
        d = digests.reshape(-1, 20)
        fp, i1 = self._fp(d), self._i1(d)
        i2 = self._alt(i1, fp)
        in1 = (self.table[i1.astype(np.int64)] == fp[:, None]).any(axis=1)
        in2 = (self.table[i2.astype(np.int64)] == fp[:, None]).any(axis=1)
        return in1 | in2

    def add(self, digests: np.ndarray) -> np.ndarray:
        """Bulk insert; returns the INDICES (into the input) that
        failed (both candidate buckets full after MAX_KICKS) so the
        caller can re-route them — a dropped fingerprint would turn a
        seen digest into a false "new", the error direction the seen
        contract forbids.  Vectorized two-round placement: items are
        grouped by target bucket (i1 first, then the alternate), each
        bucket's items ranked, and ranks below the bucket's free-slot
        count written in one scatter.  Only items still homeless after
        both rounds (rare below ~84%% load) fall back to the per-item
        kick loop.  The former per-item path cost ~50µs/insert in
        numpy-scalar overhead — ~2s per 35k-row wave inside a seen
        shard, the links-barrier bottleneck (measured)."""
        d = digests.reshape(-1, 20)
        fps, i1s = self._fp(d), self._i1(d)
        i2s = self._alt(i1s, fps)
        pending = np.arange(fps.shape[0])
        for buckets in (i1s, i2s):
            if pending.size == 0:
                break
            pending = self._bulk_place(fps, buckets, pending)
        failed = [
            j for j in pending  # rare: both candidate buckets full
            if not self._insert_one(np.uint16(fps[j]), np.uint64(i1s[j]))
        ]
        self.n_added += d.shape[0] - len(failed)
        return np.asarray(failed, dtype=np.int64)

    def _bulk_place(self, fps: np.ndarray, buckets: np.ndarray,
                    pending: np.ndarray) -> np.ndarray:
        """Place as many pending items as fit in their target buckets
        (one vectorized pass); returns the indices still unplaced."""
        b = buckets[pending].astype(np.int64)
        order = np.argsort(b, kind="stable")
        bs = b[order]
        rows = self.table[bs]                       # (n, _SLOTS)
        free = (rows == 0).sum(axis=1)
        first = np.r_[True, bs[1:] != bs[:-1]]
        grp_start = np.flatnonzero(first)
        grp_len = np.diff(np.r_[grp_start, bs.shape[0]])
        rank = np.arange(bs.shape[0]) - np.repeat(grp_start, grp_len)
        place = rank < free
        if place.any():
            # the (rank+1)-th empty slot of each placed item's bucket:
            # stable argsort puts zero slots first, in slot order
            zero_first = np.argsort(rows != 0, axis=1, kind="stable")
            slot = zero_first[np.arange(bs.shape[0]), rank.clip(0, _SLOTS - 1)]
            sel = order[place]
            self.table[b[order[place]], slot[place]] = fps[pending[sel]]
        return pending[order[~place]]

    def _insert_one(self, fp: np.uint16, i1: np.uint64) -> bool:
        i2 = self._alt(np.array([i1]), np.array([fp]))[0]
        for i in (int(i1), int(i2)):
            slot = np.nonzero(self.table[i] == 0)[0]
            if slot.size:
                self.table[i, slot[0]] = fp
                return True
        i = int(i1) if self.rng.integers(0, 2) else int(i2)
        for _ in range(_MAX_KICKS):
            s = int(self.rng.integers(0, _SLOTS))
            fp, self.table[i, s] = self.table[i, s], fp
            i = int(self._alt(np.array([np.uint64(i)]), np.array([fp]))[0])
            slot = np.nonzero(self.table[i] == 0)[0]
            if slot.size:
                self.table[i, slot[0]] = fp
                return True
        return False

    def remove(self, digests: np.ndarray) -> int:
        d = digests.reshape(-1, 20)
        fps, i1s = self._fp(d), self._i1(d)
        i2s = self._alt(i1s, fps)
        removed = 0
        for fp, i1, i2 in zip(fps, i1s, i2s):
            for i in (int(i1), int(i2)):
                slot = np.nonzero(self.table[i] == fp)[0]
                if slot.size:
                    self.table[i, slot[0]] = 0
                    removed += 1
                    break
        self.n_added -= removed
        return removed
