"""Fault-path behavior: 404s through the full crawl (quarantine +
parity), and fetch-task retry idempotency of the mailbox protocol."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig
from cs_insights_crawler_ray.pipelines.crawl import (
    CrawlConfig,
    _FusedWaveTask,
    read_crawl_log,
    run_crawl,
)
from cs_insights_crawler_ray.pipelines.oracle_sim import simulate
from cs_insights_crawler_ray.state.seen import ShardedSeenSet


def test_dead_links_parity_and_quarantine(tmp_path):
    """With 25% dead links, 404s flow through fetch as data, payload
    excludes them, and the crawl stays byte-identical to the oracle."""
    cfg = CrawlConfig(
        store=ContentStoreConfig(
            seed=21, n_hosts=10, pages_per_host=200, dead_link_rate=0.25
        ),
        n_seeds=16,
        host_budget=3,
        wave_size=24,
        n_waves=4,
        n_shards=2,
    )
    out = str(tmp_path)
    metrics = run_crawl(cfg, out)
    log = read_crawl_log(out)
    sim = simulate(cfg)
    eng = list(zip(log["fetch_seq"], log["url_canon"], log["depth"], log["status"]))
    assert eng == sim.crawl_log
    n_404 = int((log["status"] == "404").sum())
    assert n_404 > 0, "dead links must actually produce 404 fetches"
    assert metrics["cumulative"]["quarantined"] == n_404
    assert (
        metrics["cumulative"]["payload_rows"]
        == metrics["cumulative"]["fetched"] - n_404
    )


def _fail_payload_write(monkeypatch, crawl_mod):
    real_write = crawl_mod.write_payload
    calls = {"n": 0}

    def flaky_write(ds, root, partition):
        calls["n"] += 1
        if calls["n"] == 2:  # fail the SECOND wave's payload write
            raise OSError("simulated sink outage")
        return real_write(ds, root, partition)

    monkeypatch.setattr(crawl_mod, "write_payload", flaky_write)
    return RuntimeError, "payload write failed"


def _fail_seen_snapshot(monkeypatch, crawl_mod):
    # run_crawl owns its seen set here, so patch the class
    real_snapshot = ShardedSeenSet.snapshot

    def flaky_snapshot(self, directory, wave):
        if wave == 1:
            raise OSError("simulated snapshot outage")
        return real_snapshot(self, directory, wave)

    monkeypatch.setattr(ShardedSeenSet, "snapshot", flaky_snapshot)
    return OSError, "simulated snapshot outage"


@pytest.mark.parametrize(
    "inject", [_fail_payload_write, _fail_seen_snapshot],
    ids=["payload_write", "seen_snapshot"],
)
def test_payload_write_failure_aborts_before_commit(tmp_path, monkeypatch, inject):
    """ADVICE r01: a failure inside wave 1 — its payload write or its
    seen snapshot — must ABORT the wave before its manifest commits (a
    swallowed failure + committed manifest is permanent silent data
    loss under zero-refetch resume), must leave no thread of the
    aborted run alive, and a rerun after the failure must complete and
    stay byte-identical to the sequential oracle."""
    import threading
    import time
    from pathlib import Path

    from cs_insights_crawler_ray.pipelines import crawl as crawl_mod

    cfg = CrawlConfig(
        store=ContentStoreConfig(seed=5, n_hosts=8, pages_per_host=100),
        n_seeds=12, host_budget=3, wave_size=16, n_waves=3, n_shards=2,
    )
    out = str(tmp_path)
    real_prepare = crawl_mod._prepare_admission

    def slow_prepare(*args, **kwargs):
        # an admission still running when the wave raises must not
        # outlive run_crawl
        time.sleep(0.5)
        return real_prepare(*args, **kwargs)

    monkeypatch.setattr(crawl_mod, "_prepare_admission", slow_prepare)
    err, match = inject(monkeypatch, crawl_mod)
    before = set(threading.enumerate())
    with pytest.raises(err, match=match):
        run_crawl(cfg, out)
    assert not [
        t for t in set(threading.enumerate()) - before
        if not t.daemon and t.is_alive()
    ]
    # only wave 0 committed — the failed wave must NOT have a manifest
    manifests = sorted(Path(out, "checkpoints").glob("manifest_wave*.json"))
    assert len(manifests) == 1

    # resume with every patch undone: completes, and the full crawl log
    # is byte-identical to the oracle
    monkeypatch.undo()
    metrics = run_crawl(cfg, out, resume=True)
    assert len(metrics["by_wave"]) >= 2
    log = read_crawl_log(out)
    sim = simulate(cfg)
    eng = list(zip(log["fetch_seq"], log["url_canon"], log["depth"], log["status"]))
    assert eng == sim.crawl_log


def test_mailbox_retry_idempotent():
    """A retried fetch task re-sends identical link slices; the shard's
    process_wave (dk-sorted dedupe) must yield the same frontier as a
    single send."""
    cfg = ContentStoreConfig(seed=33, n_hosts=6, pages_per_host=100)
    seen = ShardedSeenSet(n_shards=2, capacity_per_shard=4096)
    seen2 = ShardedSeenSet(n_shards=2, capacity_per_shard=4096)
    try:
        batch = pa.table(
            {
                "url_canon": [cfg.url(i % 6, i) for i in range(8)],
                "url_sha1": [bytes([i] * 20) for i in range(8)],
                "fetch_seq": pa.array(range(8), pa.int64()),
                "depth": pa.array([0] * 8, pa.int32()),
            }
        )
        task1 = _FusedWaveTask(cfg, False, seen.shards, 2, 0, 8)
        task1(batch)
        task1(batch)  # simulated Ray retry of the same input batch
        task2 = _FusedWaveTask(cfg, False, seen2.shards, 2, 0, 8)
        task2(batch)

        import ray

        f_retry = [ray.get(s.process_wave.remote()) for s in seen.shards]
        f_once = [ray.get(s.process_wave.remote()) for s in seen2.shards]
        for a, b in zip(f_retry, f_once):
            assert a.equals(b), "retry changed the frontier output"
    finally:
        seen.shutdown()
        seen2.shutdown()


def _oracle_match(cfg, out, metrics) -> None:
    import pyarrow.parquet as pq
    from pathlib import Path

    sim = simulate(cfg)
    log = read_crawl_log(out)
    eng = list(zip(log["fetch_seq"], log["url_canon"], log["depth"], log["status"]))
    assert eng == sim.crawl_log
    ids = [
        i for f in sorted(Path(out, "payload").glob("wave=*/*.parquet"))
        for i in pq.read_table(f, columns=["image_id"])["image_id"].to_pylist()
    ]
    assert sorted(ids) == sorted(sim.payload)
    assert sum(s["exact_size"] for s in metrics["seen_stats"]) == len(sim.seen)


FETCH_CFG = CrawlConfig(
    store=ContentStoreConfig(seed=9, n_hosts=8, pages_per_host=100),
    n_seeds=12, host_budget=3, wave_size=16, n_waves=3, n_shards=2,
    fetch_batch=4,  # several fused tasks per wave
)


def test_fused_task_error_aborts_before_commit(tmp_path, monkeypatch):
    """An application error in one fused fetch task of wave 1 is not
    retried: it reaches the fetch barrier and aborts the wave before
    its manifest commits, leaves no thread alive, and a resume is
    byte-identical to the sequential oracle."""
    import threading
    from pathlib import Path

    from cs_insights_crawler_ray.pipelines import crawl as crawl_mod

    marker = str(tmp_path / "raised")

    # defined here, with no reference to this module's globals, so that
    # cloudpickle ships it to the workers by value
    class RaiseOnce(crawl_mod._FusedWaveTask):
        def __call__(self, batch):
            import os

            if self.wave == 1:
                try:  # only the first wave-1 bundle creates the marker
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    raise ValueError("simulated fetch-task failure")
            return super().__call__(batch)

    monkeypatch.setattr(crawl_mod, "_FusedWaveTask", RaiseOnce)
    out = str(tmp_path / "out")
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="simulated fetch-task failure"):
        run_crawl(FETCH_CFG, out)
    assert Path(marker).exists()
    assert not [
        t for t in set(threading.enumerate()) - before
        if not t.daemon and t.is_alive()
    ]
    manifests = sorted(Path(out, "checkpoints").glob("manifest_wave*.json"))
    assert [m.name for m in manifests] == ["manifest_wave000000.json"]

    monkeypatch.undo()
    metrics = run_crawl(FETCH_CFG, out, resume=True)
    assert sorted(metrics["by_wave"]) == [1, 2]
    _oracle_match(FETCH_CFG, out, metrics)


def test_fused_task_worker_death_is_retried(tmp_path, monkeypatch):
    """A fused task whose worker dies after its link slices were sent
    and acknowledged is retried; the retry re-sends identical slices,
    and the crawl still matches the oracle (log, payload, seen set)."""
    from pathlib import Path

    from cs_insights_crawler_ray.pipelines import crawl as crawl_mod

    marker = str(tmp_path / "exited")

    class ExitOnce(crawl_mod._FusedWaveTask):
        def __call__(self, batch):
            import os

            t = super().__call__(batch)  # link slices sent and acked
            if self.wave == 1:
                try:  # only the first wave-1 attempt creates the marker
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return t

    monkeypatch.setattr(crawl_mod, "_FusedWaveTask", ExitOnce)
    out = str(tmp_path / "out")
    metrics = run_crawl(FETCH_CFG, out)
    assert Path(marker).exists(), "the injected worker exit never ran"
    assert sorted(metrics["by_wave"]) == [0, 1, 2]
    _oracle_match(FETCH_CFG, out, metrics)
