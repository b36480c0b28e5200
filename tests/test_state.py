from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cs_insights_crawler_ray.state.bloom import CountingBloom
from cs_insights_crawler_ray.state.cuckoo import CuckooFilter
from cs_insights_crawler_ray.state.seen import ShardedSeenSet, SortedDigestSet, _SeenShardImpl


def _digests(n, salt=b""):
    return np.frombuffer(
        b"".join(hashlib.sha1(salt + i.to_bytes(8, "big")).digest() for i in range(n)),
        dtype=np.uint8,
    ).reshape(n, 20)


def test_bloom_no_false_negatives_and_low_fp():
    b = CountingBloom(capacity=5000, fp_rate=1e-3)
    members = _digests(5000, b"m")
    others = _digests(5000, b"o")
    b.add(members)
    assert b.contains(members).all()                      # no false negatives
    assert others.shape[0] > 0
    assert b.contains(others).mean() < 0.01               # fp well under 1%


def test_bloom_saturation_no_wraparound():
    # ADVICE r01: uint8 cells must saturate at 255, not wrap 255->0 —
    # a wrapped cell is a bloom false negative.  Drive one digest's
    # cells past 255 via repeated adds AND via duplicate indices
    # within a single batch; membership must survive both.
    b = CountingBloom(capacity=64)
    d = _digests(1, b"x")
    for _ in range(300):          # across calls
        b.add(d)
    assert b.contains(d).all()
    big = np.repeat(d, 300, axis=0)  # dupes inside ONE scatter-add call
    b2 = CountingBloom(capacity=64)
    b2.add(big)
    b2.add(big)
    assert b2.contains(d).all()
    idx = b2._indices(d)
    assert (b2.cells[idx] == 255).all()  # saturated, not wrapped


def test_bloom_remove_and_snapshot():
    b = CountingBloom(capacity=1000)
    d = _digests(100)
    b.add(d)
    b.remove(d[:50])
    assert b.contains(d[50:]).all()


def test_cuckoo_membership_delete_snapshot():
    c = CuckooFilter(capacity=5000)
    members = _digests(4000, b"m")
    others = _digests(4000, b"x")
    assert c.add(members).size == 0
    assert c.contains(members).all()
    assert c.contains(others).mean() < 0.01
    c.remove(members[:100])
    assert not c.contains(members[:100]).any() or c.contains(members[:100]).mean() < 0.05


def test_seen_shard_exactness(tmp_path):
    s = _SeenShardImpl(0, capacity=1000)
    d = _digests(500)
    first = s.check_and_add(d)
    assert first.all()
    again = s.check_and_add(d)
    assert not again.any()                                 # exact: no FN, no FP
    p = s.snapshot(str(tmp_path / "s.pkl"))
    s2 = _SeenShardImpl(0, capacity=10)
    s2.restore([p])
    assert not s2.check_and_add(d).any()
    assert s2.check_and_add(_digests(10, b"new")).all()


def test_checked_counts_distinct_digests_per_call():
    """``checked`` counts each call's distinct digests.  The link
    barrier hands ``check_and_add`` every link row of a wave, repeats
    included, so the count must equal what a deduped batch would have
    added; ``new`` counts first occurrences only."""
    import pyarrow as pa

    from cs_insights_crawler_ray.state.seen import FRONTIER_SCHEMA

    d = _digests(40)
    batch = np.vstack([d, d[::2], d[:5]])
    batch = batch[np.random.default_rng(1).permutation(batch.shape[0])]
    s = _SeenShardImpl(0, capacity=1024)
    assert int(s.check_and_add(batch).sum()) == 40
    assert (s.stats()["checked"], s.stats()["new"]) == (40, 40)
    s.check_and_add(np.vstack([d[:10], d[:10], _digests(5, b"x")]))
    assert (s.stats()["checked"], s.stats()["new"]) == (55, 45)

    # the same through process_wave: one slice given twice
    n = 30
    rows = pa.table({
        "url_canon": [f"u{i % 20}" for i in range(n)],
        "url_sha1": pa.array([bytes(r) for r in _digests(20, b"w")[np.arange(n) % 20]],
                             pa.binary(20)),
        "host_hash": pa.array([7] * n, pa.uint64()),
        "depth": pa.array([1] * n, pa.int32()),
        "disc_wave": pa.array([3] * n, pa.int32()),
        "disc_parent": pa.array(np.arange(n) // 4, pa.int64()),
        "disc_link": pa.array(np.arange(n) % 4, pa.int32()),
    }, schema=FRONTIER_SCHEMA)
    w = _SeenShardImpl(0, capacity=1024)
    out, (n_new, n_checked, _) = w.process_wave(rows, rows)
    assert n_new == out.num_rows == n_checked == 20
    assert out["disc_parent"].to_pylist() == (np.arange(20) // 4).tolist()
    assert (w.stats()["checked"], w.stats()["new"]) == (20, 20)


def test_exact_shard_is_runs_only_and_matches_set_oracle(tmp_path, monkeypatch):
    """An exact shard holds sorted digest runs only: constructing a
    bloom or cuckoo anywhere in its life (init, six waves, delta
    snapshots, restore) fails the test.  Its new-masks must equal a
    Python-set oracle's across waves with in-batch duplicates,
    cross-wave repeats and NUL-tailed digests, and across a
    snapshot -> restore between waves 3 and 4."""
    def no_sketch(*_a, **_k):
        raise AssertionError("exact shard allocated a sketch")

    monkeypatch.setattr(CountingBloom, "__init__", no_sketch)
    monkeypatch.setattr(CuckooFilter, "__init__", no_sketch)

    rng = np.random.default_rng(5)
    s = _SeenShardImpl(0, capacity=64)
    oracle: set[bytes] = set()
    snaps = []
    for wave in range(6):
        fresh = _digests(300, b"w%d" % wave).copy()
        fresh[::7, 16:] = 0                       # NUL tails
        old = _digests(300, b"w%d" % max(wave - 1, 0))[::5]  # cross-wave
        batch = np.vstack([fresh, fresh[::4], old])           # in-batch dups
        batch = batch[rng.permutation(batch.shape[0])]
        want = np.zeros(batch.shape[0], dtype=bool)
        for i, row in enumerate(batch):
            if row.tobytes() not in oracle:
                oracle.add(row.tobytes())
                want[i] = True
        assert np.array_equal(s.check_and_add(batch), want), wave
        assert np.array_equal(s.members.contains_rows(batch), np.ones(len(batch), bool))
        snaps.append(s.snapshot(str(tmp_path / f"w{wave}.pkl")))
        if wave == 2:
            s = _SeenShardImpl(0, capacity=64)
            s.restore(snaps)
        st = s.stats()
        assert st["exact_size"] == len(oracle) == st["new"]
    assert isinstance(s.members, SortedDigestSet)


def test_sharded_seen_set_routing():
    """Rows reach the shards only as ``_split_frontier`` slices through
    ``process_wave``: every shard gets some, each row lands in the
    shard its host hash names, and a second call finds nothing new."""
    import ray

    from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig, seed_urls
    from cs_insights_crawler_ray.pipelines.crawl import _seed_rows, _split_frontier

    store = ContentStoreConfig(seed=3, n_hosts=64)
    rows = _seed_rows(store, seed_urls(store, 1000), 0)
    sset = ShardedSeenSet(n_shards=4, capacity_per_shard=4096)
    try:
        def barrier():
            return ray.get([
                shard.process_wave.remote(part)
                for shard, part in zip(sset.shards, _split_frontier(rows, 4))
            ])

        first = barrier()
        for s, (out, (n_new, n_checked, _)) in enumerate(first):
            assert 0 < n_new == n_checked == out.num_rows      # all shards used
            assert (out["host_hash"].to_numpy() % 4 == s).all()
        assert sum(out.num_rows for out, _ in first) == rows.num_rows
        for out, (n_new, n_checked, _) in barrier():
            assert out.num_rows == n_new == 0 < n_checked
        stats = sset.stats()
        assert sum(x["new"] for x in stats) == rows.num_rows
        assert sum(x["checked"] for x in stats) == 2 * rows.num_rows
    finally:
        sset.shutdown()


def test_unique_rows_matches_np_unique():
    from cs_insights_crawler_ray.state.seen import _unique_rows

    rng = np.random.default_rng(3)
    d = rng.integers(0, 256, size=(20_000, 20), dtype=np.uint8)
    d = np.vstack([d, d[::3], d[:7]])          # duplicates
    d[::11, 19] = 0                            # NUL tails
    d[::13, 0] = 255                           # high leading bytes
    u1, i1 = np.unique(d, axis=0, return_index=True)
    u2, i2 = _unique_rows(d)
    assert np.array_equal(u1, u2)
    assert np.array_equal(i1, i2)
    u0, i0 = _unique_rows(d[:0])
    assert u0.shape == (0, 20) and i0.shape == (0,)


def test_seen_shard_overflow_chains_cuckoo():
    """Driving a sketch-mode shard past its design capacity must chain a
    new cuckoo filter (vectorized path), not fall into the per-item kick
    loop — a 2.4x-capacity bulk insert stalled 37 CPU-minutes before the
    fix."""
    import time

    cap = 1 << 12
    sh = _SeenShardImpl(0, capacity=cap, exact=False)
    d = _digests(int(cap * 2.5), b"overflow")
    t0 = time.perf_counter()
    mask = sh.check_and_add(d)
    assert mask.all()
    # generous wall bound (shared-VM noise): the pre-fix kick loop took
    # MINUTES at this overflow ratio; the chained path takes <1s idle
    assert time.perf_counter() - t0 < 30.0
    assert len(sh.members.cuckoos) >= 2
    assert sum(c.n_added for c in sh.members.cuckoos) == d.shape[0]
    # no false negatives after overflow: nothing is "new" on re-check, even
    # digests whose trailing bytes are NUL (a bytes-key truncation trap)
    d2 = d.copy()
    assert not sh.check_and_add(d2).any()
    nul = _digests(64, b"nul").copy()
    nul[:, 18:] = 0
    assert sh.check_and_add(nul).all()
    assert not sh.check_and_add(nul).any()


def test_sorted_digest_set_matches_python_set():
    """SortedDigestSet vs a Python set oracle: multi-run adds, unsorted
    restore-style adds, forced k1 (top-8-byte) collisions, NUL tails."""
    from cs_insights_crawler_ray.state.seen import SortedDigestSet, _unique_rows

    rng = np.random.default_rng(11)
    s = SortedDigestSet(max_runs=3)  # force compactions
    oracle = set()
    for step in range(9):
        d = rng.integers(0, 256, size=(500, 20), dtype=np.uint8)
        d[::17, :8] = 7           # many shared k1 prefixes (collision path)
        d[::13, 16:] = 0          # NUL tails
        uniq, _ = _unique_rows(d)
        fresh = np.array(
            [r for r in uniq if r.tobytes() not in oracle], dtype=np.uint8
        ).reshape(-1, 20)
        if step % 2:
            s.add_rows(fresh, assume_sorted=True)   # check_and_add path
        else:
            perm = rng.permutation(fresh.shape[0])  # restore path
            s.add_rows(fresh[perm])
        oracle.update(r.tobytes() for r in fresh)
        assert len(s) == len(oracle)
        probe = np.vstack(
            [d, rng.integers(0, 256, size=(300, 20), dtype=np.uint8)]
        )
        got = s.contains_rows(probe)
        want = np.array([r.tobytes() in oracle for r in probe])
        assert np.array_equal(got, want)


def test_pure_sketch_mode_uses_cuckoo_confirmation(tmp_path):
    """exact=False: membership = bloom AND cuckoo (independent hash
    families multiply the FP rates).  No false negatives on added
    digests, FP rate on strangers strictly at or below the bloom's own
    (and in expectation ~fp_bloom*fp_cuckoo), and both sketches survive
    a snapshot/restore round trip."""
    s = _SeenShardImpl(0, capacity=8192, exact=False)
    members = _digests(4000, b"m")
    strangers = _digests(20000, b"x")
    assert s.check_and_add(members).all()
    assert not s.check_and_add(members).any()   # no FN: both sketches hold all
    assert s.members.contains_rows(members).all()

    bloom_fp = s.members._bloom_contains(strangers)
    joint_fp = s.members.contains_rows(strangers)
    assert (joint_fp & ~bloom_fp).sum() == 0    # cuckoo only ever REMOVES FPs
    assert joint_fp.sum() <= bloom_fp.sum()
    # independence: with fp_rate=1e-3 each, joint FPs should be ~0 here
    assert joint_fp.mean() < 1e-3

    p = s.snapshot(str(tmp_path / "sk.pkl"))
    s2 = _SeenShardImpl(0, capacity=16, exact=False)
    s2.restore([p])
    assert s2.members.contains_rows(members).all()
    assert not s2.check_and_add(members).any()


def test_bloom_chain_splits_bulk_restore_add(tmp_path):
    """A bulk restore concatenates EVERY delta snapshot and adds once:
    the bloom chain must split the batch across chained filters (like
    the cuckoo chain) instead of driving one bloom to ~10x design load
    (FP rate -> 1, every lookup falls through to the cuckoo)."""
    cap = 1 << 10
    s = _SeenShardImpl(0, capacity=cap, exact=False).members
    d = _digests(5 * cap, b"bulk")
    s._bloom_add(d)
    # no bloom holds more than its own design capacity
    for i, b in enumerate(s.blooms):
        assert b.n_added <= cap * (2 ** i), (i, b.n_added)
    assert len(s.blooms) >= 3
    assert s._bloom_contains(d).all()          # membership intact
    strangers = _digests(4000, b"s")
    assert s._bloom_contains(strangers).mean() < 0.02


def test_cuckoo_chain_no_false_negatives_under_overflow():
    """Kick-loop failures must re-route into a chained filter, never
    drop: in pure-sketch mode a dropped fingerprint makes a SEEN digest
    test "new" (the forbidden error direction).  Driving a tiny shard
    20x past design load must leave every added digest visible to the
    cuckoo chain."""
    s = _SeenShardImpl(0, capacity=256, exact=False)
    d = _digests(5000, b"ov")
    assert s.check_and_add(d).all()
    assert s.members._cuckoo_contains(d).all()  # zero drops anywhere
    assert not s.check_and_add(d).any()         # bloom AND cuckoo agree
    assert sum(c.n_added for c in s.members.cuckoos) == 5000


def test_bloom_remove_duplicate_indices_no_wrap():
    """A remove batch with DUPLICATE cell indices must not decrement a
    count-1 cell twice (0 -> 255 wrap would permanently saturate a
    phantom cell: stale positives forever, unremovable)."""
    b = CountingBloom(capacity=64)
    d = _digests(1, b"dup")
    b.add(d)  # each of the k cells holds exactly 1
    b.remove(np.repeat(d, 2, axis=0))  # same digest twice in ONE call
    idx = b._indices(d)
    assert (b.cells[idx] == 0).all()  # floored at 0, not wrapped to 255


def test_bloom_indices_reach_above_32_bits():
    """_indices folds >32 bits of digest per slice: a filter sized
    m > 2^32 must be able to address its upper cells (at the 10^10-URL
    design point scaled shards exceed 2^32 cells)."""
    b = CountingBloom(capacity=64)
    b.m = np.uint64(1 << 36)  # don't allocate: only _indices math here
    rng = np.random.default_rng(7)
    d = rng.integers(0, 256, size=(4096, 20), dtype=np.uint8)
    idx = b._indices(d)
    assert int(idx.max()) > (1 << 32)


def test_shard_restore_empty_paths_resets_state():
    """restore([]) must reset a populated shard to EMPTY, not silently
    keep its stale digests (a resumed crawl would skip URLs the
    committed state never crawled)."""
    from cs_insights_crawler_ray.state.seen import _SeenShardImpl

    s = _SeenShardImpl(shard_id=0, capacity=1024)
    d = _digests(50)
    s.check_and_add(d)
    assert int(s.members.contains_rows(d).sum()) == 50
    s.restore([])
    assert int(s.members.contains_rows(d).sum()) == 0
    assert s.n_checked == 0 and s.n_new == 0
