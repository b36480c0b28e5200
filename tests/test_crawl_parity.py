"""Byte-identical parity: the parallel Ray crawl vs the sequential
reference-semantics oracle under the same seed list + politeness
budget (BASELINE.json north_star)."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest
from pathlib import Path

from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig
from cs_insights_crawler_ray.functions.imagecodec import decode_image, psnr
from cs_insights_crawler_ray.fixtures.content_store import page_pixels
from cs_insights_crawler_ray.pipelines.crawl import CrawlConfig, read_crawl_log, run_crawl
from cs_insights_crawler_ray.pipelines.oracle_sim import simulate
from cs_insights_crawler_ray.state.seen import ShardedSeenSet


CFG = CrawlConfig(
    store=ContentStoreConfig(seed=7, n_hosts=16, pages_per_host=500),
    n_seeds=24,
    host_budget=3,
    wave_size=32,
    n_waves=4,
    max_depth=6,
    n_shards=2,
    fetch_batch=16,
)


@pytest.fixture(scope="module")
def engine_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crawl"))
    seen = ShardedSeenSet(CFG.n_shards, CFG.seen_capacity)
    try:
        metrics = run_crawl(CFG, out, seen=seen)
        log = read_crawl_log(out)
        payload = pq.read_table(str(Path(out) / "payload")).to_pandas()
        if "wave" in payload.columns:
            payload = payload.drop(columns=["wave"])
        oracle = simulate(CFG)
        # seen-membership parity must be checked while actors live
        digests = np.stack(
            [np.frombuffer(s, np.uint8) for s in sorted(oracle.seen)]
        )
        import hashlib
        from cs_insights_crawler_ray.functions.urls import host_hash64
        # membership check shard-routing needs host hashes; route by a
        # synthetic uniform hash — contains() only uses it for routing,
        # so we must use the REAL host hash: recover from the log/backlog
        # instead: check via per-shard union of exact sets.
        stats = seen.stats()
        engine_seen_total = sum(s["exact_size"] for s in stats)
        yield dict(metrics=metrics, log=log, payload=payload, oracle=oracle,
                   engine_seen_total=engine_seen_total, seen=seen, out=out)
    finally:
        seen.shutdown()


def test_crawl_order_byte_identical(engine_run):
    log = engine_run["log"]
    oracle = engine_run["oracle"]
    engine_order = list(zip(log["fetch_seq"], log["url_canon"], log["depth"], log["status"]))
    oracle_order = [(s, u, d, st) for (s, u, d, st) in oracle.crawl_log]
    assert len(engine_order) == len(oracle_order)
    for e, o in zip(engine_order, oracle_order):
        assert e == o, f"engine {e} != oracle {o}"


def test_seen_membership_parity(engine_run):
    oracle = engine_run["oracle"]
    assert engine_run["engine_seen_total"] == len(oracle.seen)


def test_payload_parity(engine_run):
    payload = engine_run["payload"]
    oracle = engine_run["oracle"]
    assert set(payload["image_id"]) == set(oracle.payload.keys())
    odf = payload.set_index("image_id")
    for iid, row in oracle.payload.items():
        erow = odf.loc[iid]
        assert erow["caption"] == row["caption"]          # exact caption equality
        assert int(erow["phash"]) == row["phash"]
        assert (int(erow["w"]), int(erow["h"]), erow["fmt"]) == (row["w"], row["h"], row["fmt"])


def test_payload_pixels_psnr_gate(engine_run):
    """Decoded-pixel invariant: engine payload bytes decode to pixels
    that match the ground truth (exact for png, PSNR>=40dB lossy)."""
    payload = engine_run["payload"].head(20)
    log = engine_run["log"]
    url_of = {r for r in zip(log["url_canon"],)}
    import hashlib
    canon_by_hex = {
        hashlib.sha1(u.encode()).hexdigest(): u for u in log["url_canon"]
    }
    for _, row in payload.iterrows():
        pixels, fmt = decode_image(row["bytes"])
        truth = page_pixels(CFG.store, canon_by_hex[row["image_id"]])
        if fmt == "png":
            assert np.array_equal(pixels, truth)
        else:
            assert psnr(pixels, truth) >= 40.0


def test_wave_metrics_parity(engine_run):
    em = engine_run["metrics"]["by_wave"]
    om = engine_run["oracle"].by_wave
    assert set(em.keys()) == set(om.keys())
    for w in em:
        for k in ("admitted", "payload_rows", "new_urls", "backlog"):
            assert em[w][k] == om[w][k], f"wave {w} metric {k}: {em[w][k]} != {om[w][k]}"


def test_crawl_to_exhaustion_reaches_closure(tmp_path, monkeypatch):
    """On a tiny universe, crawling until the frontier empties must
    fetch exactly the robots-allowed reachable set (BFS closure of the
    link graph from the seeds) — no page missed, none fetched twice —
    and stop after one admission that finds the frontier drained."""
    from collections import deque

    from cs_insights_crawler_ray.fixtures.content_store import (
        fetch_page, robots_allowed, seed_urls)
    from cs_insights_crawler_ray.functions.urls import canonicalize_url, host_of
    from cs_insights_crawler_ray.pipelines import crawl as crawl_mod
    from cs_insights_crawler_ray.sources.checkpoint import latest_manifest

    cfg = CrawlConfig(
        store=ContentStoreConfig(seed=77, n_hosts=4, pages_per_host=25),
        n_seeds=6,
        host_budget=4,
        wave_size=40,
        n_waves=50,          # far more than needed; loop exits on empty frontier
        max_depth=50,
        n_shards=2,
    )
    out = str(tmp_path)
    real_prepare = crawl_mod._prepare_admission
    calls = {"n": 0}

    def counting_prepare(*args, **kwargs):
        calls["n"] += 1
        return real_prepare(*args, **kwargs)

    monkeypatch.setattr(crawl_mod, "_prepare_admission", counting_prepare)
    by_wave = run_crawl(cfg, out)["by_wave"]
    # the frontier drained before n_waves, found by exactly one extra
    # admission gather after the last fetched wave
    assert len(by_wave) < cfg.n_waves
    assert calls["n"] == len(by_wave) + 1
    assert latest_manifest(f"{out}/checkpoints").wave == max(by_wave)
    log = read_crawl_log(out)

    # independent BFS closure over the pure-function web
    store, pmf = cfg.store, cfg.store.host_pmf()
    seen, order = set(), []
    q = deque()
    for u in seed_urls(store, cfg.n_seeds):
        c = canonicalize_url(u)
        h = host_of(c)
        if robots_allowed(store, h, c.split(h, 1)[1]) and c not in seen:
            seen.add(c); q.append(c)
    while q:
        u = q.popleft()
        order.append(u)
        page = fetch_page(store, u, pmf)
        if page["status"] != "200":
            continue
        for raw in page["links"]:
            c = canonicalize_url(raw)
            h = host_of(c)
            if not robots_allowed(store, h, c.split(h, 1)[1]):
                continue
            if c not in seen:
                seen.add(c); q.append(c)

    fetched = list(log["url_canon"])
    assert len(fetched) == len(set(fetched)), "a page was fetched twice"
    assert set(fetched) == set(order), (
        f"closure mismatch: engine {len(set(fetched))} vs BFS {len(set(order))}"
    )


def test_parity_under_candidate_truncation(tmp_path):
    """Byte-identical ordering when per-partition candidates far
    exceed wave_size (hosts x budget >> wave_size) over many waves —
    the regime where round 3's head(wave_size) pre-prune compacted
    new links' per-host ranks (this exact config diverged from the
    oracle then; the incremental frontier's head is a true per-host
    prefix, so no joint-rank correction is needed)."""
    cfg = CrawlConfig(
        store=ContentStoreConfig(
            seed=5605, n_hosts=11, pages_per_host=116, zipf_a=1.25,
            dead_link_rate=0.01, links_min=0, links_max=3,
        ),
        n_seeds=20,
        host_budget=2,
        wave_size=6,
        n_waves=18,
        max_depth=7,
        n_shards=2,
    )
    out = str(tmp_path)
    run_crawl(cfg, out)
    log = read_crawl_log(out)
    sim = simulate(cfg)
    eng = list(zip(log["fetch_seq"], log["url_canon"], log["depth"], log["status"]))
    assert eng == sim.crawl_log


def test_parity_torture_authority_truncation_resume(tmp_path):
    """Every adversarial regime at once: authority tie-break ON,
    recency wave-age score term ON (so resume must anchor candidate
    ages at manifest.wave+1, not 0), per-partition candidates far
    exceeding wave_size (13 hosts x budget 2 >> wave_size 5 — the
    regime of round 3's latent rank-compaction bug), dead links, delta
    backlog checkpoints crossing two compaction boundaries
    (backlog_full_every=3 over 16 waves), and a kill+resume from a
    DELTA wave between compactions.  Both the uninterrupted and the
    resumed run must stay byte-identical to the sequential oracle."""
    from dataclasses import replace

    from cs_insights_crawler_ray.functions.urls import canonicalize_url

    store = ContentStoreConfig(
        seed=9091, n_hosts=13, pages_per_host=90, zipf_a=1.3,
        dead_link_rate=0.05, links_min=0, links_max=4,
    )
    # deterministic authority over a broad URL slice; small value range
    # so equal-authority fallbacks to discovery key are exercised too
    auth = {
        canonicalize_url(store.url(h, p)): ((h * 37 + p) * 2654435761) % 7
        for h in range(store.n_hosts)
        for p in range(40)
    }
    cfg = CrawlConfig(
        store=store, n_seeds=18, host_budget=2, wave_size=5,
        n_waves=16, max_depth=9, n_shards=3, backlog_full_every=3,
        authority=auth, recency_weight=0.75,
    )
    full_dir, res_dir = str(tmp_path / "full"), str(tmp_path / "res")
    run_crawl(cfg, full_dir)
    run_crawl(replace(cfg, n_waves=8), res_dir)   # killed after wave 7
    run_crawl(cfg, res_dir, resume=True)
    sim = simulate(cfg)
    for out in (full_dir, res_dir):
        log = read_crawl_log(out)
        eng = list(zip(log["fetch_seq"], log["url_canon"], log["depth"], log["status"]))
        assert eng == sim.crawl_log, f"{out} diverged from oracle"
    # each signal is ISOLATEDLY live in this config, not a no-op:
    # dropping either one alone must change the order (so neither can
    # silently regress to inert while the other keeps the diff alive)
    no_auth = simulate(replace(cfg, authority=None))
    no_rec = simulate(replace(cfg, recency_weight=0.0))
    urls = [u for _, u, _, _ in sim.crawl_log]
    assert urls != [u for _, u, _, _ in no_auth.crawl_log]
    assert urls != [u for _, u, _, _ in no_rec.crawl_log]


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_parity_across_universes(seed, tmp_path):
    """Byte-identical ordering must hold for arbitrary content-store
    seeds and odd config shapes, not just the fixture above."""
    cfg = CrawlConfig(
        store=ContentStoreConfig(
            seed=seed,
            n_hosts=5 + seed % 13,
            pages_per_host=120 + seed % 77,
            zipf_a=1.1 + (seed % 3) * 0.4,
            dead_link_rate=0.1 if seed % 2 else 0.0,
        ),
        n_seeds=8 + seed % 9,
        host_budget=2 + seed % 3,
        wave_size=15 + seed % 10,
        n_waves=3,
        max_depth=4 + seed % 3,
        n_shards=1 + seed % 3,
    )
    out = str(tmp_path)
    run_crawl(cfg, out)
    log = read_crawl_log(out)
    sim = simulate(cfg)
    eng = list(zip(log["fetch_seq"], log["url_canon"], log["depth"], log["status"]))
    assert eng == sim.crawl_log, f"seed {seed}: order diverged"


def test_admission_threshold_refinement_matches_fetchall():
    """_gather_admission_keys' large-scale path (prefix sample ->
    threshold T -> per-partition keys<=T) must yield the SAME global
    top-wave_size admitted set as pulling every partition's keys: 60
    randomized trials over skewed partition sizes, duplicate scores,
    authority ties, and shallow partitions."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from cs_insights_crawler_ray.pipelines import crawl

    rng = np.random.default_rng(123)
    for trial in range(60):
        n_parts = int(rng.integers(2, 9))
        ws = int(rng.integers(1, 40))
        tabs = []
        for p in range(n_parts):
            n = int(rng.integers(0, 60))
            df = pd.DataFrame(
                {
                    "score": rng.integers(0, 4, n).astype(np.float64)
                    + 0.001 * rng.integers(0, 3, n),
                    "auth_neg": -rng.integers(0, 3, n).astype(np.int64),
                    "disc_wave": rng.integers(0, 3, n).astype(np.int32),
                    "disc_parent": rng.permutation(
                        np.arange(n, dtype=np.int64) + 1000 * p
                    ),
                    "disc_link": rng.integers(0, 5, n).astype(np.int32),
                }
            ).sort_values(crawl.KEY_COLS, kind="mergesort")
            tabs.append(pa.Table.from_pandas(df, preserve_index=False))
        refs = [ray.put(t) for t in tabs]

        def _top(tables):
            f = pa.concat_tables(tables).to_pandas()
            return (
                f.sort_values(crawl.KEY_COLS, kind="mergesort")
                .head(ws)
                .reset_index(drop=True)
            )

        want = _top(tabs)
        got = _top(crawl._gather_admission_keys(refs, ws, admit_limit=0))
        pd.testing.assert_frame_equal(got, want), trial


def test_crawl_parity_with_forced_threshold_admission(tmp_path, monkeypatch):
    """End-to-end: crawl order stays byte-identical to the sequential
    oracle when EVERY wave's admission runs the threshold-refinement
    path (ADMIT_FETCHALL_LIMIT forced to 0)."""
    from cs_insights_crawler_ray.pipelines import crawl

    monkeypatch.setattr(crawl, "ADMIT_FETCHALL_LIMIT", 0)
    out = str(tmp_path / "c")
    m = run_crawl(CFG, out)
    assert m["cumulative"]["fetched"] > 0
    log = read_crawl_log(out)
    sim = simulate(CFG)
    eng = list(map(tuple, log.itertuples(index=False)))
    assert eng == sim.crawl_log, "refinement path diverged from oracle"


def test_host_rollup_matches_serial_recompute(engine_run):
    """q98's distributed per-host rollup over the engine's own log
    equals a serial pandas recompute over the SIMULATOR's log (the
    two logs are byte-identical per test_crawl_order_byte_identical,
    so this gates the aggregation itself)."""
    import pandas as pd

    from cs_insights_crawler_ray.pipelines.crawl_queries import host_rollup

    got = host_rollup(f"{engine_run['out']}/crawl_log")
    sim = pd.DataFrame(
        engine_run["oracle"].crawl_log,
        columns=["fetch_seq", "url_canon", "depth", "status"],
    )
    sim["host"] = sim["url_canon"].str.split("/", n=3).str[2]
    want = (
        sim.assign(is404=(sim["status"] == "404").astype("int64"))
        .groupby("host", as_index=False)
        .agg(
            n_fetched=("url_canon", "size"),
            n_404=("is404", "sum"),
            max_depth=("depth", "max"),
            first_seq=("fetch_seq", "min"),
        )
        .sort_values("host")
        .reset_index(drop=True)
        .astype({"n_fetched": "int64", "n_404": "int64",
                 "max_depth": "int64", "first_seq": "int64"})
    )
    pd.testing.assert_frame_equal(got, want)
