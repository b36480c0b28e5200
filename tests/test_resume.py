"""Checkpoint/resume: a run killed after wave k resumes with zero
re-fetches and produces byte-identical final outputs
(BASELINE.json north_rule "killed job resumes ... with no re-fetch")."""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import replace
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig
from cs_insights_crawler_ray.functions.urls import host_hash64
from cs_insights_crawler_ray.pipelines.crawl import (
    CrawlConfig,
    _read_admitted_keys,
    _read_part,
    _replay_part,
    read_crawl_log,
    run_crawl,
)
from cs_insights_crawler_ray.sources.checkpoint import latest_manifest
from cs_insights_crawler_ray.state.seen import FRONTIER_SCHEMA

CFG = CrawlConfig(
    store=ContentStoreConfig(seed=11, n_hosts=12, pages_per_host=400),
    n_seeds=16,
    host_budget=3,
    wave_size=24,
    n_waves=4,
    max_depth=6,
    n_shards=2,
    fetch_batch=16,
)


def _payload_df(out: str) -> pd.DataFrame:
    df = pq.read_table(f"{out}/payload").to_pandas()
    if "wave" in df.columns:
        df = df.drop(columns=["wave"])
    return df.sort_values("image_id").reset_index(drop=True)


def test_kill_and_resume_identical(tmp_path):
    full_dir, resumed_dir = str(tmp_path / "full"), str(tmp_path / "resumed")

    # uninterrupted reference run
    full_metrics = run_crawl(CFG, full_dir)

    # "killed" run: only 2 of 4 waves, then a partial (uncommitted)
    # wave-2 payload left behind to simulate death mid-wave
    part1 = run_crawl(replace(CFG, n_waves=2), resumed_dir)
    junk = Path(resumed_dir) / "payload" / "wave=000002"
    junk.mkdir(parents=True)
    (junk / "garbage.parquet").write_bytes(b"not parquet")

    m = latest_manifest(f"{resumed_dir}/checkpoints")
    assert m is not None and m.wave == 1

    # resume: must skip waves 0-1 (no re-fetch), redo wave 2 cleanly
    part2 = run_crawl(CFG, resumed_dir, resume=True)

    # no re-fetch: the two phases together fetched exactly the full count
    fetched_split = part1["cumulative"]["fetched"] + (
        part2["cumulative"]["fetched"] - part1["cumulative"]["fetched"]
    )
    assert part2["cumulative"]["fetched"] == full_metrics["cumulative"]["fetched"]
    assert fetched_split == full_metrics["cumulative"]["fetched"]
    # the resumed phase only ran waves 2..3
    assert sorted(part2["by_wave"].keys()) == [2, 3]

    # byte-identical crawl order
    log_full = read_crawl_log(full_dir)
    log_res = read_crawl_log(resumed_dir)
    pd.testing.assert_frame_equal(log_full, log_res)

    # identical payload (the garbage partial was replaced wholesale)
    pd.testing.assert_frame_equal(_payload_df(full_dir), _payload_df(resumed_dir))


def test_resume_noop_when_complete(tmp_path):
    out = str(tmp_path / "done")
    full = run_crawl(CFG, out)
    before = read_crawl_log(out)
    again = run_crawl(CFG, out, resume=True)
    assert again["by_wave"] == {}          # nothing left to do
    pd.testing.assert_frame_equal(before, read_crawl_log(out))
    # the early return must still restore the seen set: stats reflect
    # the committed run, not an empty fresh actor set
    assert sum(s["new"] for s in again["seen_stats"]) == sum(
        s["new"] for s in full["seen_stats"]
    ) > 0


def test_delta_backlog_chain_resume(tmp_path):
    """Delta backlog checkpoints: only every Kth wave writes the
    O(frontier) rest files; the others persist admitted keys + new rows,
    and resume replays the chain from the latest full snapshot."""
    from dataclasses import replace

    cfg = replace(CFG, n_waves=5, backlog_full_every=2)
    full_dir, resumed_dir = str(tmp_path / "full"), str(tmp_path / "resumed")
    full_metrics = run_crawl(cfg, full_dir)

    # cadence: wave 0 full, 1 delta, 2 full, 3 delta, 4 full
    from cs_insights_crawler_ray.sources.checkpoint import load_manifest

    for w, want_full in [(0, True), (1, False), (2, True), (3, False), (4, True)]:
        m = load_manifest(f"{full_dir}/checkpoints", w)
        assert m is not None and m.backlog_full == want_full, (w, m and m.backlog_full)
        rest = list(Path(m.backlog_path).glob("part*_rest.parquet"))
        assert bool(rest) == want_full, (w, rest)
        assert (Path(m.backlog_path) / "admitted.parquet").exists()

    # kill after wave 3 (a DELTA wave) -> resume must replay base=2 + chain=[3]
    run_crawl(replace(cfg, n_waves=4), resumed_dir)
    m = latest_manifest(f"{resumed_dir}/checkpoints")
    assert m is not None and m.wave == 3 and not m.backlog_full
    part2 = run_crawl(cfg, resumed_dir, resume=True)
    assert sorted(part2["by_wave"].keys()) == [4]
    assert part2["cumulative"] == full_metrics["cumulative"]
    pd.testing.assert_frame_equal(read_crawl_log(full_dir), read_crawl_log(resumed_dir))
    pd.testing.assert_frame_equal(_payload_df(full_dir), _payload_df(resumed_dir))


class _Boom(RuntimeError):
    pass


class _KillingWritePart:
    """Wraps the crawl's _write_part remote fn: raises at SUBMISSION
    time for paths matching the target (wave, kind) — so no write task
    for the killed wave is ever in flight when the 'crash' happens."""

    def __init__(self, orig, wave: int, kind: str):
        self._orig = orig
        self._needle = f"wave={wave:06d}"
        self._kind = kind  # 'rest' or 'new'

    def remote(self, tbl, path):
        if self._needle in path and f"_{self._kind}.parquet" in path:
            raise _Boom(path)
        return self._orig.remote(tbl, path)


import pytest


@pytest.mark.parametrize("kill_wave", [2, 3])  # full wave / delta wave
@pytest.mark.parametrize(
    "kill_point", ["rest_write", "new_write", "snapshot", "commit"]
)
def test_replay_chain_survives_intra_wave_kill(
    tmp_path, monkeypatch, kill_point, kill_wave
):
    """VERDICT r03 #10: crash the run at every persistence seam BETWEEN
    the wave's admitted.parquet write and its manifest commit — on both
    a FULL-backlog wave and a DELTA wave (backlog_full_every=2, so the
    replay chain crosses the snapshot boundary) — then resume.  The
    resumed run must redo exactly the killed wave onward (no re-fetch
    of committed waves) and end byte-identical to an uninterrupted run,
    whatever partial wave-K files the crash left behind."""
    import time

    from cs_insights_crawler_ray.pipelines import crawl as crawl_mod
    from cs_insights_crawler_ray.sources import checkpoint as ckpt_mod
    from cs_insights_crawler_ray.state.seen import ShardedSeenSet as SeenCls

    cfg = replace(
        CFG,
        store=ContentStoreConfig(seed=13, n_hosts=8, pages_per_host=150),
        n_seeds=12,
        wave_size=16,
        n_waves=5,
        backlog_full_every=2,
    )
    if kill_point == "rest_write" and kill_wave % 2 == 1:
        pytest.skip("delta waves write no rest files")

    full_dir, killed_dir = str(tmp_path / "full"), str(tmp_path / "killed")
    full_metrics = run_crawl(cfg, full_dir)

    # ---- killed run: raise at the chosen seam of kill_wave ----------
    if kill_point in ("rest_write", "new_write"):
        kind = "rest" if kill_point == "rest_write" else "new"
        monkeypatch.setattr(
            crawl_mod,
            "_write_part",
            _KillingWritePart(crawl_mod._write_part, kill_wave, kind),
        )
    elif kill_point == "snapshot":
        orig_snap = SeenCls.snapshot

        def killing_snapshot(self, root, wave):
            if wave == kill_wave:
                raise _Boom(f"snapshot wave {wave}")
            return orig_snap(self, root, wave)

        monkeypatch.setattr(SeenCls, "snapshot", killing_snapshot)
    else:  # commit: everything on disk, manifest never written
        orig_commit = ckpt_mod.commit_manifest

        def killing_commit(root, m):
            if m.wave == kill_wave:
                raise _Boom(f"commit wave {m.wave}")
            return orig_commit(root, m)

        monkeypatch.setattr(crawl_mod, "commit_manifest", killing_commit)

    with pytest.raises(_Boom):
        run_crawl(cfg, killed_dir)
    monkeypatch.undo()
    time.sleep(1.0)  # let any read-only stragglers of the dead run drain

    m = latest_manifest(f"{killed_dir}/checkpoints")
    assert m is not None and m.wave == kill_wave - 1

    # ---- resume: redo kill_wave..4, byte-identical everywhere -------
    part2 = run_crawl(cfg, killed_dir, resume=True)
    assert sorted(part2["by_wave"].keys()) == list(range(kill_wave, cfg.n_waves))
    assert part2["cumulative"] == full_metrics["cumulative"]
    pd.testing.assert_frame_equal(
        read_crawl_log(full_dir), read_crawl_log(killed_dir)
    )
    pd.testing.assert_frame_equal(_payload_df(full_dir), _payload_df(killed_dir))


def test_resume_rejects_different_shard_count(tmp_path):
    """The backlog part files and seen delta logs are keyed by
    host_hash % n_shards at write time; resuming with a different
    count would silently read a subset of them and split hosts across
    partitions.  Must raise, not corrupt."""
    from dataclasses import replace

    import pytest

    cfg = replace(CFG, n_shards=3, n_waves=2)
    out = str(tmp_path / "c")
    run_crawl(cfg, out)
    bad = replace(cfg, n_shards=2, n_waves=4)
    with pytest.raises(ValueError, match="n_shards"):
        run_crawl(bad, out, resume=True)
    # the original count resumes fine
    m = run_crawl(replace(cfg, n_waves=4), out, resume=True)
    assert m["by_wave"]


def test_fresh_run_clears_stale_out_dir(tmp_path):
    """A fresh (resume=False) run into a previously-used out_dir must
    not leave the old run's later manifests/snapshots/backlog behind:
    a longer run A followed by a shorter fresh run B used to let a
    subsequent resume pick up A's wave-3 manifest and replay a silent
    MIX of the two runs' state."""
    out = str(tmp_path / "reused")
    run_crawl(CFG, out)  # run A: 4 waves
    cfg_b = replace(
        CFG,
        store=ContentStoreConfig(seed=23, n_hosts=12, pages_per_host=400),
        n_waves=2,
    )
    mb = run_crawl(cfg_b, out)  # fresh run B over the same dir
    m = latest_manifest(f"{out}/checkpoints")
    assert m.wave == 1, f"stale manifest survived: wave {m.wave}"

    # a resume now completes run B (a no-op at n_waves=2) with B's
    # cumulative state, not a mix with run A's
    mr = run_crawl(cfg_b, out, resume=True)
    assert mr["by_wave"] == {}
    assert mr["cumulative"] == mb["cumulative"]
    waves = sorted(p.name for p in (Path(out) / "crawl_log").iterdir())
    assert waves == ["wave=000000", "wave=000001"]


def test_seen_shard_death_at_link_barrier_aborts_then_resumes(
    tmp_path, monkeypatch
):
    """A seen shard actor dies once wave 2's fetch has returned its
    link slices, so wave 2's link barrier meets a dead shard that held
    a slice of the seen state.  The run must abort before committing
    wave 2, and a resume with a fresh seen set must rebuild membership
    from the delta logs and end byte-identical to an uninterrupted
    run."""
    import threading
    import time

    import ray

    from cs_insights_crawler_ray.pipelines import crawl as crawl_mod
    from cs_insights_crawler_ray.state.seen import ShardedSeenSet

    full_dir, killed_dir = str(tmp_path / "full"), str(tmp_path / "killed")
    full = run_crawl(CFG, full_dir)

    seen = ShardedSeenSet(CFG.n_shards, CFG.seen_capacity)
    victim = seen.shards[1]
    orig_clear = crawl_mod.clear_partition

    def killing_clear(path):
        # the crawl-log partition is cleared after the fetch barrier,
        # before the payload write and the link barrier
        if path.endswith("crawl_log/wave=000002"):
            ray.kill(victim, no_restart=True)
            with pytest.raises(ray.exceptions.RayActorError):
                for _ in range(100):  # wait until the death is visible
                    ray.get(victim.stats.remote(), timeout=30)
                    time.sleep(0.1)
        return orig_clear(path)

    monkeypatch.setattr(crawl_mod, "clear_partition", killing_clear)
    before = set(threading.enumerate())
    try:
        with pytest.raises(ray.exceptions.RayActorError):
            run_crawl(CFG, killed_dir, seen=seen)
    finally:
        monkeypatch.undo()
        seen.shutdown()
    # nothing the aborted run started is still writing: no live
    # non-daemon thread, and the payload tree does not change after
    # the raise
    assert not [
        t for t in set(threading.enumerate()) - before
        if not t.daemon and t.is_alive()
    ]

    def payload_tree():
        return sorted(
            (str(f.relative_to(killed_dir)), f.stat().st_size, f.stat().st_mtime_ns)
            for f in Path(killed_dir, "payload").rglob("*")
        )

    tree = payload_tree()
    time.sleep(2)
    assert payload_tree() == tree

    m = latest_manifest(f"{killed_dir}/checkpoints")
    assert m is not None and m.wave == 1

    fresh = ShardedSeenSet(CFG.n_shards, CFG.seen_capacity)
    try:
        part2 = run_crawl(CFG, killed_dir, resume=True, seen=fresh)
    finally:
        fresh.shutdown()
    assert sorted(part2["by_wave"].keys()) == [2, 3]
    assert part2["cumulative"] == full["cumulative"]
    pd.testing.assert_frame_equal(read_crawl_log(full_dir), read_crawl_log(killed_dir))
    pd.testing.assert_frame_equal(_payload_df(full_dir), _payload_df(killed_dir))
    assert [(s["exact_size"], s["new"]) for s in part2["seen_stats"]] == [
        (s["exact_size"], s["new"]) for s in full["seen_stats"]
    ]


# the frontier row format before url_hex and host were dropped
_NINE_COLUMN_SCHEMA = pa.schema([
    ("url_canon", pa.string()),
    ("url_hex", pa.string()),
    ("url_sha1", pa.binary(20)),
    ("host", pa.string()),
    ("host_hash", pa.uint64()),
    ("depth", pa.int32()),
    ("disc_wave", pa.int32()),
    ("disc_parent", pa.int64()),
    ("disc_link", pa.int32()),
])


def _nine_column_rows(wave: int, n: int) -> pa.Table:
    urls = [f"https://h{i % 3:04d}.test/p/{wave * 100 + i}" for i in range(n)]
    sha = [hashlib.sha1(u.encode()).digest() for u in urls]
    hosts = [u.split("/")[2] for u in urls]
    return pa.table({
        "url_canon": urls,
        "url_hex": [d.hex() for d in sha],
        "url_sha1": pa.array(sha, pa.binary(20)),
        "host": hosts,
        "host_hash": pa.array([host_hash64(h) for h in hosts], pa.uint64()),
        "depth": pa.array([wave + 1] * n, pa.int32()),
        "disc_wave": pa.array([wave] * n, pa.int32()),
        "disc_parent": pa.array([10 * wave + i // 2 for i in range(n)], pa.int64()),
        "disc_link": pa.array([i % 2 for i in range(n)], pa.int32()),
    }, schema=_NINE_COLUMN_SCHEMA)


def test_resume_reads_nine_column_backlog(tmp_path):
    """A backlog written in the older 9-column row format (with
    url_hex and host) still resumes: the full snapshot's rest + new
    halves and a later delta wave's new rows read back as the
    7-column FRONTIER_SCHEMA with the same rows."""
    full, delta = tmp_path / "wave=000001", tmp_path / "wave=000002"
    full.mkdir()
    delta.mkdir()
    rest, new, later = _nine_column_rows(0, 6), _nine_column_rows(1, 4), _nine_column_rows(2, 3)
    pq.write_table(rest, full / "part0000_rest.parquet")
    pq.write_table(new, full / "part0000_new.parquet")
    pq.write_table(later, delta / "part0000_new.parquet")
    admitted = pa.table({"disc_wave": pa.array([0, 1], pa.int32()),
                         "disc_parent": pa.array([1, 10], pa.int64()),
                         "disc_link": pa.array([1, 0], pa.int32())})
    pq.write_table(admitted, delta / "admitted.parquet")

    def current(t: pa.Table) -> list:
        return t.drop_columns(["url_hex", "host"]).to_pylist()

    base_ref = _read_part.remote(
        [str(full / "part0000_rest.parquet"), str(full / "part0000_new.parquet")]
    )
    base = ray.get(base_ref)
    assert base.schema == FRONTIER_SCHEMA
    assert base.to_pylist() == current(rest) + current(new)

    steps = [(_read_admitted_keys.remote(str(delta / "admitted.parquet")),
              str(delta / "part0000_new.parquet"))]
    part = ray.get(_replay_part.remote(base_ref, steps))
    assert part.schema == FRONTIER_SCHEMA
    gone = {(0, 1, 1), (1, 10, 0)}
    kept = [r for r in base.to_pylist()
            if (r["disc_wave"], r["disc_parent"], r["disc_link"]) not in gone]
    assert len(kept) == 8
    assert part.to_pylist() == kept + current(later)
