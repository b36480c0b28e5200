"""Sharded URL-seen set — exact sorted digest runs, or bloom + cuckoo
sketches, held in long-lived Ray actors.

The reference's seen/idempotence mechanism is a disk cache of
downloaded files checked by md5 (reference ``dblpclient.py:340-350,
442-443``); it works because the crawl is sequential and the universe
is a few hundred files.  At 10^10 URLs the seen set is the central
shared mutable state — the one place the Dataset API genuinely cannot
express the semantics (a concurrent membership test-and-set), so it
drops to raw Ray actors per the build contract.

Sharding: ``host_hash % n_shards``.  This co-locates each host's URLs
in one shard (same key the politeness layer partitions by), bounds any
single actor's memory, and lets the shards run each wave's link
barrier in parallel without a global lock.

Membership modes — each shard holds exactly ONE membership structure,
chosen at construction, and every test-and-set, lookup and restore
runs through it:

- exact (``exact=True``, the default and the crawl's mode):
  ``SortedDigestSet``, sorted runs of 20-byte digests.  Answers are
  exact, which byte-identical parity with the sequential oracle needs
  (BASELINE.json north_star).  No sketch screens it: the runs answer
  a whole batch faster than a bloom screen in front of them did (one
  process, min of 3: 16 vs 28 ms for three 9k-digest waves, 2.4 vs
  3.9 s for ten 200k-digest waves).
- sketch (``exact=False``): ``SketchSet``, a scalable counting-bloom
  chain plus a chained cuckoo filter (the north_rule's two sketches).
  Both hold every added digest and use independent hash families, so
  "seen" requires BOTH to say maybe and the FP rates multiply.  There
  are no false negatives; the residual FP rate is accepted (URLs
  wrongly considered seen are skipped — safe, just lossy).
  ``capacity``/``fp_rate`` size these sketches only.

Determinism under parallelism: the fused fetch tasks return their
link rows split by shard, as the seed chunk tasks do the seed list,
and each shard's ``process_wave`` takes all of a wave's slices in one
call — the only way rows enter the set.  It sorts them by discovery
key and hands every row to one test-and-set, which reports only a
digest's first occurrence as new, so within a wave the lowest
discovery key per URL wins whatever the task order and retries;
across waves the wave barrier orders adds.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import ray

from .bloom import CountingBloom
from .cuckoo import CuckooFilter

FRONTIER_SCHEMA = pa.schema(
    [
        ("url_canon", pa.string()),
        ("url_sha1", pa.binary(20)),
        ("host_hash", pa.uint64()),
        ("depth", pa.int32()),
        ("disc_wave", pa.int32()),
        ("disc_parent", pa.int64()),
        ("disc_link", pa.int32()),
    ]
)


def _digest_keys(rows: np.ndarray):
    """(N,20) uint8 -> three packed big-endian key arrays (u8,u8,u4)
    that together encode all 20 bytes; their lexicographic order equals
    memcmp row order."""
    d = np.ascontiguousarray(rows).reshape(-1, 20)
    k1 = np.ascontiguousarray(d[:, :8]).view(">u8").ravel().astype(np.uint64)
    k2 = np.ascontiguousarray(d[:, 8:16]).view(">u8").ravel().astype(np.uint64)
    k3 = np.ascontiguousarray(d[:, 16:20]).view(">u4").ravel().astype(np.uint32)
    return k1, k2, k3


class SortedDigestSet:
    """Exact membership over 20-byte digests as SORTED packed key
    arrays — 20 bytes/row contiguous (a Python ``set`` of bytes keys
    costs ~4-5x that in object headers at 10^6+ rows) with fully
    vectorized ``contains`` via searchsorted, no per-row Python.

    LSM layout (the same pattern as ``state/frontier.py``): an ordered
    list of sorted runs; adds append a run (check_and_add's new rows
    arrive already sorted and unique), runs merge into one when the
    list exceeds ``max_runs``.  Membership: per run, locate the
    k1-equal range with two searchsorteds and confirm k2/k3 — SHA-1
    top-8-byte collisions are ~n^2/2^64, so the range is almost always
    a single row; wider ranges fall to a tiny Python loop."""

    __slots__ = ("runs", "max_runs", "n")

    def __init__(self, max_runs: int = 8):
        self.runs: list[tuple] = []  # [(k1,k2,k3) sorted asc], oldest first
        self.max_runs = max_runs
        self.n = 0

    def __len__(self) -> int:
        return self.n

    exact_size = property(__len__)

    def add_rows(self, rows: np.ndarray, assume_sorted: bool = False) -> None:
        """Append (N,20) rows DISJOINT from the current contents
        (check_and_add guarantees it: new = sorted-unique minus seen;
        restore replays deltas, which are disjoint by construction).
        Pass assume_sorted=True when rows are already in memcmp order
        (check_and_add's new rows are); otherwise the keys are sorted
        here."""
        if rows.shape[0] == 0:
            return
        k1, k2, k3 = _digest_keys(rows)
        if not assume_sorted:
            order = np.lexsort((k3, k2, k1))
            k1, k2, k3 = k1[order], k2[order], k3[order]
        self.runs.append((k1, k2, k3))
        self.n += rows.shape[0]
        while len(self.runs) > self.max_runs:
            self._merge_smallest_two()

    def _merge_smallest_two(self) -> None:
        """Tiered merge (LSM): combine the two SMALLEST runs, so merge
        sizes grow geometrically and total merge work stays
        O(n log n) over the whole crawl — a full-set compaction every
        max_runs adds would re-sort the entire authority at the wave
        barrier (quadratic over a long run, and a barrier spike a
        wave-width fetch can't hide once shards hold 10^8 digests)."""
        a, b = sorted(range(len(self.runs)), key=lambda i: self.runs[i][0].shape[0])[:2]
        ra, rb = self.runs[a], self.runs[b]
        k1 = np.concatenate([ra[0], rb[0]])
        k2 = np.concatenate([ra[1], rb[1]])
        k3 = np.concatenate([ra[2], rb[2]])
        order = np.lexsort((k3, k2, k1))
        merged = (k1[order], k2[order], k3[order])
        self.runs = [
            r for i, r in enumerate(self.runs) if i not in (a, b)
        ] + [merged]

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        q1, q2, q3 = _digest_keys(rows)
        out = np.zeros(q1.shape[0], dtype=bool)
        for r1, r2, r3 in self.runs:
            pending = ~out
            if not pending.any():
                break
            p1, p2, p3 = q1[pending], q2[pending], q3[pending]
            lo = np.searchsorted(r1, p1, "left")
            hi = np.searchsorted(r1, p1, "right")
            hit = np.zeros(p1.shape[0], dtype=bool)
            one = hi - lo == 1
            if one.any():
                at = lo[one]
                hit[one] = (r2[at] == p2[one]) & (r3[at] == p3[one])
            for i in np.nonzero(hi - lo > 1)[0]:  # ~never: u64 collision
                seg = slice(lo[i], hi[i])
                hit[i] = bool(
                    ((r2[seg] == p2[i]) & (r3[seg] == p3[i])).any()
                )
            idx = np.nonzero(pending)[0]
            out[idx[hit]] = True
        return out


class SketchSet:
    """Pure-sketch membership (``exact=False``): a scalable counting-bloom
    chain and a chained cuckoo filter, both holding every added digest.
    "Seen" requires BOTH to say maybe (independent hash families, so
    the FP rates multiply); neither has false negatives."""

    exact_size = -1  # sketches keep no exact member count

    def __init__(self, shard_id: int, capacity: int, fp_rate: float):
        self.shard_id = shard_id
        self.capacity = capacity
        self.fp_rate = fp_rate
        # scalable-bloom (Almeida et al., public construction): when
        # the active filter reaches its design capacity, chain a new
        # one with doubled capacity. A saturated fixed bloom answers
        # "maybe" for everything, which forced every lookup through
        # the confirmation path (158s/wave observed at 2 shards).
        self.blooms = [CountingBloom(capacity, fp_rate)]
        # the cuckoo chains the same way: a table driven past its
        # design load (~0.84) degrades into the per-item kick loop —
        # 200 numpy-scalar kicks per overflow item, measured as a
        # 37-CPU-minute stall when 2.5M digests hit a 1M-capacity
        # filter. Adds go to the newest filter; membership checks all.
        self.cuckoos = [CuckooFilter(capacity, seed=0x5EED ^ shard_id)]

    def __len__(self) -> int:
        return sum(c.n_added for c in self.cuckoos)

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Bloom screen; only its positives are confirmed against the
        cuckoo chain."""
        maybe = self._bloom_contains(rows)
        idx = np.nonzero(maybe)[0]
        if idx.size:
            maybe[idx] = self._cuckoo_contains(rows[idx])
        return maybe

    def add_rows(self, rows: np.ndarray, assume_sorted: bool = False) -> None:
        """Sketch adds are order-free; ``assume_sorted`` is ignored."""
        self._bloom_add(rows)
        self._cuckoo_add(rows)

    @property
    def bloom(self) -> CountingBloom:  # newest filter (adds go here)
        return self.blooms[-1]

    @property
    def cuckoo(self) -> CuckooFilter:  # newest filter (adds go here)
        return self.cuckoos[-1]

    def cuckoo_capacity(self) -> int:
        return self.capacity * (2 ** (len(self.cuckoos) - 1))

    def _grow_cuckoo(self) -> None:
        self.cuckoos.append(
            CuckooFilter(
                self.cuckoo_capacity() * 2,
                seed=0x5EED ^ self.shard_id ^ len(self.cuckoos),
            )
        )

    def _cuckoo_add(self, new: np.ndarray) -> None:
        """Chained add: grow BEFORE the active filter would exceed its
        design capacity (0.84 table load), keeping every bulk insert on
        the vectorized two-round path.  Oversized batches split so no
        single filter is driven past design load.  Kick-loop failures
        (possible even below design load) are re-routed into a freshly
        chained filter rather than dropped: a dropped fingerprint would
        make a SEEN digest test "new" in pure-sketch mode — the error
        direction the module contract forbids."""
        start = 0
        while start < new.shape[0]:
            room = self.cuckoo_capacity() - self.cuckoo.n_added
            if room <= 0:
                self._grow_cuckoo()
                continue
            chunk = new[start : start + room]
            failed = self.cuckoo.add(chunk)
            while failed.size:
                self._grow_cuckoo()
                chunk = chunk[failed]
                failed = self.cuckoo.add(chunk)
            start += room

    def _cuckoo_contains(self, d: np.ndarray) -> np.ndarray:
        maybe = self.cuckoos[0].contains(d)
        for c in self.cuckoos[1:]:
            maybe |= c.contains(d)
        return maybe

    def _bloom_contains(self, d: np.ndarray) -> np.ndarray:
        maybe = self.blooms[0].contains(d)
        for b in self.blooms[1:]:
            maybe |= b.contains(d)
        return maybe

    def _bloom_add(self, new: np.ndarray) -> None:
        """Chained add, split like _cuckoo_add: an oversized batch (the
        bulk restore concatenates EVERY delta snapshot) must not drive
        one bloom past design capacity — 10x load puts the FP rate near
        1 and every post-resume lookup falls through to the cuckoo
        confirmation (the measured 158s/wave pathology this file
        documents)."""
        start = 0
        while start < new.shape[0]:
            room = self.bloom_capacity() - self.bloom.n_added
            if room <= 0:
                self.blooms.append(
                    CountingBloom(self.bloom_capacity() * 2, self.fp_rate)
                )
                continue
            self.bloom.add(new[start : start + room])
            start += room

    def bloom_capacity(self) -> int:
        return self.capacity * (2 ** (len(self.blooms) - 1))


def _unique_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(d, axis=0, return_index=True)`` for (N,20) uint8
    rows via a 3-key lexsort on packed big-endian words — identical
    output (memcmp row order, first-occurrence indices; lexsort is
    stable) at ~3x the speed of the void-dtype path on 2.5M rows."""
    d = np.ascontiguousarray(d)
    if d.shape[0] == 0:
        return d, np.zeros(0, dtype=np.intp)
    k1, k2, k3 = _digest_keys(d)
    order = np.lexsort((k3, k2, k1))
    s1, s2, s3 = k1[order], k2[order], k3[order]
    first = np.r_[
        True, (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1]) | (s3[1:] != s3[:-1])
    ]
    first_idx = order[first]
    return d[first_idx], first_idx


def digests_from_sha1_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """(N,) fixed_size_binary(20) arrow column -> (N, 20) uint8 view,
    zero-copy from the arrow buffer (replaces a per-row
    ``np.frombuffer`` Python loop — 80 ms per 60k rows, measured)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError("url_sha1 column must be non-null")
    raw = np.frombuffer(col.buffers()[1], dtype=np.uint8)
    return raw[col.offset * 20 : (col.offset + len(col)) * 20].reshape(-1, 20)


class _SeenShardImpl:
    """Plain-Python core (unit-testable without Ray)."""

    def __init__(self, shard_id: int, capacity: int = 1 << 20,
                 fp_rate: float = 1e-3, exact: bool = True):
        self.shard_id = shard_id
        self.capacity = capacity
        self.fp_rate = fp_rate
        self.exact = exact
        self._reset()

    def _reset(self) -> None:
        """Empty membership and counters (construction and restore)."""
        self.members: SortedDigestSet | SketchSet = (
            SortedDigestSet()
            if self.exact
            else SketchSet(self.shard_id, self.capacity, self.fp_rate)
        )
        self.n_checked = 0
        self.n_new = 0
        self._pending_deltas: list = []  # new digests since last snapshot

    def process_wave(self, *tables: pa.Table) -> tuple[pa.Table, tuple[int, int, dict]]:
        """Link barrier: this shard's slices of one wave's links (one
        per fused fetch task) or of the seed list (one per seed chunk)
        -> (the NEW frontier rows in the canonical schema, (their
        count, the count of distinct digests checked, phase timings)).

        The rows are sorted by discovery key and all passed to
        ``check_and_add``, whose mask keeps only the first occurrence
        of each unseen digest: the lowest discovery key per URL, minus
        the URLs of earlier waves.  The answer is independent of the
        slices' order and of a slice given twice; every call is one
        deterministic pass, and nothing is buffered between calls.
        Fewer new rows than distinct digests means some URL was
        already seen, which the seed round reports as an error."""
        # timing keys: fold_tail = concat, merge = discovery-key sort,
        # seen = test-and-set + filter (the crawl's links_* phases)
        t0 = time.perf_counter()
        t = pa.concat_tables(tables)
        if t.num_rows == 0:
            return FRONTIER_SCHEMA.empty_table(), (
                0, 0, {"fold_tail": round(time.perf_counter() - t0, 3)}
            )
        t1 = time.perf_counter()
        t = t.take(np.lexsort([
            t[c].to_numpy() for c in ("disc_link", "disc_parent", "disc_wave")
        ]))
        t2 = time.perf_counter()
        checked = self.n_checked
        mask = self.check_and_add(digests_from_sha1_column(t["url_sha1"]))
        out = t.filter(pa.array(mask))
        t3 = time.perf_counter()
        return out, (out.num_rows, self.n_checked - checked, {
            "fold_tail": round(t1 - t0, 3),
            "merge": round(t2 - t1, 3),
            "seen": round(t3 - t2, 3),
        })

    def check_and_add(self, digests: np.ndarray) -> np.ndarray:
        """(N,20) uint8 -> (N,) bool, True = previously UNSEEN (and now
        marked seen).

        Duplicate-safe within a batch: if the same digest appears k
        times, only its FIRST occurrence (lowest index) is reported
        new — membership is evaluated against pre-batch state, so
        without the unique() pass every copy would read "new".  The
        ``checked`` counter counts the distinct digests of each call."""
        d = np.ascontiguousarray(digests).reshape(-1, 20)
        uniq, first_idx = _unique_rows(d)
        self.n_checked += uniq.shape[0]
        new_uniq = ~self.members.contains_rows(uniq)
        new = uniq[new_uniq]
        if new.shape[0]:
            self.members.add_rows(new, assume_sorted=True)
            self._pending_deltas.append(new)
        new_mask = np.zeros(d.shape[0], dtype=bool)
        new_mask[first_idx[new_uniq]] = True
        self.n_new += int(new_mask.sum())
        return new_mask

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "checked": self.n_checked,
            "new": self.n_new,
            "exact_size": self.members.exact_size,
        }

    # -- wave-barrier snapshots (checkpoint/resume) -------------------
    def snapshot(self, path: str) -> str:
        """Atomic DELTA snapshot (tmp + rename): writes only the
        digests added since the previous snapshot plus the counters —
        an append-only log.  Called at the wave barrier together with
        the frontier offset commit so seen-membership and frontier
        position can never diverge.

        A full-state snapshot every wave is O(seen) writes per wave —
        6 MB/shard/wave at just 10^5 URLs, measured, and unworkable at
        10^10; the delta log is O(new-this-wave), and resume replays
        the log once to rebuild the membership structure.
        """
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        deltas = (
            np.concatenate(self._pending_deltas)
            if self._pending_deltas
            else np.zeros((0, 20), dtype=np.uint8)
        )
        state = {
            "shard_id": self.shard_id,
            "capacity": self.capacity,
            "fp_rate": self.fp_rate,
            "deltas": deltas,
            "n_checked": self.n_checked,
            "n_new": self.n_new,
        }
        tmp = p.with_suffix(".tmp")
        with open(tmp, "wb") as f:
            pickle.dump(state, f, protocol=4)
            # power-loss durability, same rationale as commit_manifest:
            # the manifest referencing this snapshot must never outlive
            # the snapshot's data blocks
            f.flush()
            os.fsync(f.fileno())
        tmp.rename(p)
        self._pending_deltas = []
        return str(p)

    def restore(self, paths: list[str]) -> None:
        """Rebuild full state by replaying this shard's ordered delta
        snapshots up to the resume wave.

        Resets first: with an empty ``paths`` (mismatched checkpoint
        dir, or restore on an already-populated shard) a shard that
        kept its stale digests would make a resumed crawl skip URLs the
        committed state never crawled."""
        states = []
        for path in paths:
            with open(path, "rb") as f:
                states.append(pickle.load(f))
        if states:
            self.shard_id = states[0]["shard_id"]
            self.capacity = states[0]["capacity"]
            self.fp_rate = states[0]["fp_rate"]
        self._reset()
        if states:
            self.n_checked = states[-1]["n_checked"]
            self.n_new = states[-1]["n_new"]
            # bulk-add ONCE: per-file adds re-sorted the whole exact
            # set every max_runs files (O(chain^2) work)
            self.members.add_rows(
                np.concatenate(
                    [np.asarray(st["deltas"], dtype=np.uint8).reshape(-1, 20)
                     for st in states]
                )
            )


# num_cpus=0: shard actors do brief vectorized work at wave barriers
# and sit idle during fetch; a default 1-CPU reservation per shard
# silently removed n_shards task slots from every wave (measured as a
# ~25% fetch-slot loss at 8 shards on 32 CPUs).
SeenShard = ray.remote(num_cpus=0)(_SeenShardImpl)


class ShardedSeenSet:
    """The driver's handles to the shard actors.  Rows reach a shard
    only as ``process_wave`` arguments, split by
    ``pipelines.crawl._split_frontier``; the driver also snapshots,
    restores and reads the stats of every shard, and no task holds a
    shard handle."""

    def __init__(self, n_shards: int = 8, capacity_per_shard: int = 1 << 20,
                 fp_rate: float = 1e-3, exact: bool = True):
        self.n_shards = n_shards
        self.shards = [
            SeenShard.remote(i, capacity_per_shard, fp_rate, exact)
            for i in range(n_shards)
        ]

    def snapshot(self, directory: str, wave: int) -> list[str]:
        paths = [
            f"{directory}/seen_shard{m:04d}_wave{wave:06d}.pkl" for m in range(self.n_shards)
        ]
        return ray.get(
            [a.snapshot.remote(p) for a, p in zip(self.shards, paths)]
        )

    def restore_from_dir(self, directory: str, upto_wave: int) -> None:
        """Resume path: replay each shard's delta-snapshot log for all
        committed waves <= upto_wave (files from a killed later wave
        are ignored — they were never referenced by a manifest)."""
        refs = []
        for m, a in enumerate(self.shards):
            # numeric replay order (lexicographic %06d names invert
            # past wave 999999 — same fix as checkpoint.latest_manifest)
            files = [
                str(p)
                for p in sorted(
                    Path(directory).glob(f"seen_shard{m:04d}_wave*.pkl"),
                    key=lambda p: int(p.stem.rsplit("wave", 1)[1]),
                )
                if int(p.stem.rsplit("wave", 1)[1]) <= upto_wave
            ]
            refs.append(a.restore.remote(files))
        ray.get(refs)

    def restore(self, paths: list[str]) -> None:
        ray.get([a.restore.remote(p) for a, p in zip(self.shards, paths)])

    def stats(self) -> list[dict]:
        return ray.get([a.stats.remote() for a in self.shards])

    def shutdown(self) -> None:
        for a in self.shards:
            ray.kill(a)
        self.shards = []
