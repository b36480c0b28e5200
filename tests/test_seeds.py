"""The seed round: chunk tasks split the seed list by partition, then
each seen shard's ``process_wave`` dedupes its slices and marks them
seen — the same barrier every wave's links pass."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig, seed_urls
from cs_insights_crawler_ray.pipelines import crawl
from cs_insights_crawler_ray.pipelines.crawl import (
    CrawlConfig,
    _seed_rows,
    _split_frontier,
    read_crawl_log,
    run_crawl,
)
from cs_insights_crawler_ray.pipelines.oracle_sim import simulate
from cs_insights_crawler_ray.state.seen import (
    ShardedSeenSet,
    _SeenShardImpl,
    _unique_rows,
    digests_from_sha1_column,
)

# 40 seeds over 8 hosts of 12 pages: 32 distinct URLs, 3 of them
# robots-blocked (hosts 0 and 4 disallow pages = host index mod 3)
STORE = ContentStoreConfig(seed=11, n_hosts=8, pages_per_host=12, robots_path_mod=3)
CFG = CrawlConfig(
    store=STORE, n_seeds=40, host_budget=2, wave_size=12, n_waves=3,
    max_depth=4, n_shards=2, fetch_batch=4,
)
CHUNK = 5


def _dedupe_first_seed(t: pa.Table) -> pa.Table:
    """Reference dedupe of a whole seed table at once: keep the first
    occurrence (lowest disc_link) of each URL."""
    t = t.take(np.argsort(t["disc_link"].to_numpy(), kind="stable"))
    _, first = _unique_rows(digests_from_sha1_column(t["url_sha1"]))
    return t.take(np.sort(first))


@pytest.mark.parametrize("n_parts", [1, 2, 3])
def test_chunked_seed_slices_match_driver_dedupe(n_parts):
    """Chunked seed slices through ``process_wave`` give each partition
    exactly the rows (and the seen membership) of the reference dedupe
    over the whole list followed by a test-and-set; an overlap with a
    pre-populated shard shows as fewer new rows than distinct digests
    checked."""
    seeds = seed_urls(STORE, CFG.n_seeds)
    assert len(set(seeds)) < len(seeds) > 2 * CHUNK
    assert _seed_rows(STORE, seeds, 0).num_rows < len(seeds)  # robots
    chunks = [
        _split_frontier(_seed_rows(STORE, seeds[i : i + CHUNK], i), n_parts)
        for i in range(0, len(seeds), CHUNK)
    ]
    want = _split_frontier(_dedupe_first_seed(_seed_rows(STORE, seeds, 0)), n_parts)
    for p in range(n_parts):
        ref = _SeenShardImpl(p, capacity=1024)
        assert ref.check_and_add(digests_from_sha1_column(want[p]["url_sha1"])).all()
        shard = _SeenShardImpl(p, capacity=1024)
        out, (n_new, n_checked, _) = shard.process_wave(*[c[p] for c in chunks])
        assert out.equals(want[p])
        assert n_new == n_checked == out.num_rows
        assert shard.stats() == ref.stats()

        again = _SeenShardImpl(p, capacity=1024)
        again.check_and_add(digests_from_sha1_column(want[p]["url_sha1"][:1]))
        _, (n_new, n_checked, _) = again.process_wave(*[c[p] for c in chunks])
        assert n_new == n_checked - 1


def _crawl(cfg: CrawlConfig, out: Path):
    seen = ShardedSeenSet(cfg.n_shards, cfg.seen_capacity)
    try:
        res = run_crawl(cfg, str(out), seen=seen)
        exact = sum(s["exact_size"] for s in seen.stats())
    finally:
        seen.shutdown()
    log = read_crawl_log(str(out))
    payload = pq.read_table(str(out / "payload")).to_pandas()
    payload = payload.drop(columns=["wave"], errors="ignore")
    payload = payload.sort_values("image_id").reset_index(drop=True)
    order = list(zip(log["fetch_seq"], log["url_canon"], log["depth"], log["status"]))
    return dict(cumulative=res["cumulative"], order=order, payload=payload, seen=exact)


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_multi_chunk_seed_round_matches_oracle(n_shards, tmp_path, monkeypatch):
    """A seed list split over several chunk tasks crawls exactly like
    the one-chunk list and the sequential oracle, for any shard count
    (one shard means one return per chunk task)."""
    cfg = replace(CFG, n_shards=n_shards)
    one = _crawl(cfg, tmp_path / "one")
    monkeypatch.setattr(crawl, "_SEED_CHUNK", CHUNK)
    many = _crawl(cfg, tmp_path / "many")
    sim = simulate(cfg)
    assert many["order"] == one["order"] == sim.crawl_log
    assert many["payload"].equals(one["payload"])
    assert set(many["payload"]["image_id"]) == set(sim.payload)
    assert many["seen"] == one["seen"] == len(sim.seen)
    assert many["cumulative"] == one["cumulative"]


@pytest.mark.parametrize("chunk", [CHUNK, crawl._SEED_CHUNK])
def test_seed_overlap_with_populated_seen_set_raises(chunk, tmp_path, monkeypatch):
    """A seen set reused from an earlier crawl already holds the seeds:
    the seed round raises one plain ValueError on the driver before any
    wave runs."""
    monkeypatch.setattr(crawl, "_SEED_CHUNK", chunk)
    seen = ShardedSeenSet(CFG.n_shards, CFG.seen_capacity)
    try:
        run_crawl(CFG, str(tmp_path / "first"), seen=seen)
        with pytest.raises(ValueError, match="overlaps a pre-populated seen set") as e:
            run_crawl(CFG, str(tmp_path / "second"), seen=seen)
    finally:
        seen.shutdown()
    assert type(e.value) is ValueError  # not a task error wrapping one
    assert not (tmp_path / "second" / "crawl_log").exists()


@pytest.mark.parametrize("store,n_seeds", [
    (STORE, 0),
    (ContentStoreConfig(seed=11, n_hosts=8, pages_per_host=12,
                        robots_host_mod=1, robots_path_mod=1), CFG.n_seeds),
], ids=["no_seeds", "all_blocked"])
def test_degenerate_seed_lists_fetch_nothing(store, n_seeds, tmp_path):
    cfg = replace(CFG, store=store, n_seeds=n_seeds)
    assert _seed_rows(store, seed_urls(store, n_seeds), 0).num_rows == 0
    res = run_crawl(cfg, str(tmp_path))
    assert res["cumulative"]["fetched"] == 0
    assert simulate(cfg).crawl_log == []
