"""Politeness invariants under hot-host skew (north_rule: "hot-host
skew handled explicitly")."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig
from cs_insights_crawler_ray.pipelines.crawl import CrawlConfig, read_crawl_log, run_crawl
from cs_insights_crawler_ray.state.politeness import partition_candidates


def _frontier_df(n_hosts, rows_per_host, seed=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    seq = 0
    for h in range(n_hosts):
        # host 0 is extremely hot (zipf head)
        n = rows_per_host * (50 if h == 0 else 1)
        for i in range(n):
            rows.append(
                dict(
                    host_hash=np.uint64(h * 2654435761 % (1 << 63)),
                    depth=int(rng.integers(0, 4)),
                    disc_wave=0,
                    disc_parent=seq,
                    disc_link=i,
                )
            )
            seq += 1
    df = pd.DataFrame(rows)
    df["host_hash"] = df["host_hash"].astype("uint64")
    return df


def test_partition_admission_budget_invariant():
    """``partition_candidates`` with a wave wide enough for every row
    keeps exactly min(rows, B) rows of each host: the hot host is
    capped at B despite having 50x the rows."""
    df = _frontier_df(6, 4)
    B = 5
    out = partition_candidates(df, B, wave_size=len(df))
    per_host = out.groupby("host_hash").size()
    want = df.groupby("host_hash").size().clip(upper=B)
    pd.testing.assert_series_equal(per_host.sort_index(), want.sort_index())
    hot = df.groupby("host_hash").size().idxmax()
    assert per_host[hot] == B


def test_crawl_respects_budget_per_wave(tmp_path):
    """End-to-end: no wave's crawl log contains more than host_budget
    fetches of any single host."""
    cfg = CrawlConfig(
        store=ContentStoreConfig(seed=5, n_hosts=6, pages_per_host=400, zipf_a=2.0),
        n_seeds=24,
        host_budget=2,
        wave_size=10,
        n_waves=3,
        n_shards=2,
    )
    out = str(tmp_path)
    run_crawl(cfg, out)
    # aggregate-only consumer: the DISTRIBUTED log Dataset (VERDICT
    # r04 #6) — per-(wave, host) counts fold from per-block partials,
    # the raw log never lands on the driver
    import json
    from pathlib import Path

    from cs_insights_crawler_ray.pipelines.crawl import crawl_log_ds

    manifests = sorted(Path(out, "checkpoints").glob("manifest_wave*.json"))
    bounds = np.array(
        [json.loads(mp.read_text())["next_fetch_seq"] for mp in manifests],
        dtype=np.int64,
    )

    def part(b):
        host = b["url_canon"].str.extract(r"https://([^/]+)/")[0]
        wave = np.searchsorted(bounds, b["fetch_seq"].to_numpy(), side="right")
        g = (
            pd.DataFrame({"wave": wave, "host": host})
            .groupby(["wave", "host"], as_index=False)
            .size()
        )
        return g

    parts = (
        crawl_log_ds(out, columns=["url_canon", "fetch_seq"])
        .map_batches(part, batch_format="pandas")
        .to_pandas()  # BOUNDED: waves × hosts × blocks partial rows
    )
    per = parts.groupby(["wave", "host"])["size"].sum()
    assert len(per) > 0 and per.max() <= cfg.host_budget


def test_salted_aggregate_matches_plain():
    """Salted two-phase aggregation == plain groupby on a zipf-skewed
    key (90% of rows share one key)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from cs_insights_crawler_ray.functions.skew import salted_aggregate

    rng = np.random.Generator(np.random.PCG64(9))
    n = 20000
    keys = np.where(rng.random(n) < 0.9, 0, rng.integers(1, 50, n))
    vals = rng.random(n) * 10
    ds = rd.from_pandas(pd.DataFrame({"k": keys, "v": vals}))

    got = (
        salted_aggregate(ds, "k", "v", n_salts=8)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        ds.groupby("k")
        .aggregate(Sum("v", alias_name="sum_value"), Count(alias_name="n"))
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    assert (got["n"].to_numpy() == want["n"].to_numpy()).all()
    assert np.allclose(got["sum_value"], want["sum_value"].round(6), atol=1e-5)
    assert got[got["k"] == 0]["n"].iloc[0] > 15000   # the hot key really is hot


def test_authority_guided_order_matches_simulator(ray_session, tmp_path):
    """Authority-guided admission: the parallel engine stays
    byte-identical to the sequential simulator when both receive the
    same url->authority map, and the map actually changes the order
    (it is a tie-break between score and discovery key, so politeness
    budgets are untouched)."""
    import pandas as pd

    from cs_insights_crawler_ray.fixtures.content_store import (
        ContentStoreConfig, seed_urls)
    from cs_insights_crawler_ray.pipelines import oracle_sim
    from cs_insights_crawler_ray.pipelines.crawl import (
        CrawlConfig, read_crawl_log, run_crawl)

    store = ContentStoreConfig(seed=7, n_hosts=12, pages_per_host=32)
    base = dict(store=store, n_seeds=16, wave_size=24, n_waves=3, n_shards=2)

    # promote every page of two arbitrary hosts
    auth = {
        u: 1_000_000
        for u in seed_urls(store, 64)
        if "//h0005." in u or "//h0002." in u
    }
    assert auth, "fixture must yield promotable seed URLs"

    cfg_auth = CrawlConfig(authority=auth, **base)
    out_auth = tmp_path / "auth"
    run_crawl(cfg_auth, str(out_auth))
    got = read_crawl_log(str(out_auth))
    got_tuples = [
        (int(a), b, int(c), d)
        for a, b, c, d in zip(
            got["fetch_seq"], got["url_canon"], got["depth"], got["status"]
        )
    ]
    exp = oracle_sim.simulate(cfg_auth)
    assert got_tuples == exp.crawl_log

    # and the signal is not a no-op: order differs from authority-off
    cfg_plain = CrawlConfig(**base)
    exp_plain = oracle_sim.simulate(cfg_plain)
    assert [u for _, u, _, _ in exp.crawl_log] != [
        u for _, u, _, _ in exp_plain.crawl_log
    ]


def test_recency_guided_order_matches_simulator(ray_session, tmp_path):
    """Deterministic recency (north-star score triplet: depth +
    host-budget rank + recency, the third term restated as WAVE AGE so
    it is a pure function of the data): the parallel engine stays
    byte-identical to the sequential simulator with the same
    recency_weight, the signal actually changes the order vs the
    recency-free engine, and per-host budget eligibility (politeness)
    stays recency-blind by construction."""
    from cs_insights_crawler_ray.fixtures.content_store import (
        ContentStoreConfig,
    )
    from cs_insights_crawler_ray.pipelines import oracle_sim

    store = ContentStoreConfig(seed=7, n_hosts=12, pages_per_host=32)
    base = dict(store=store, n_seeds=16, wave_size=24, n_waves=3, n_shards=2)

    # freshness-first: one wave of age costs one depth level, so
    # backlogged seeds interleave with newly-discovered deeper links
    cfg_rec = CrawlConfig(recency_weight=1.0, **base)
    out_rec = tmp_path / "rec"
    run_crawl(cfg_rec, str(out_rec))
    got = read_crawl_log(str(out_rec))
    got_tuples = [
        (int(a), b, int(c), d)
        for a, b, c, d in zip(
            got["fetch_seq"], got["url_canon"], got["depth"], got["status"]
        )
    ]
    exp = oracle_sim.simulate(cfg_rec)
    assert got_tuples == exp.crawl_log

    # the signal is not a no-op: order differs from recency-off
    exp_plain = oracle_sim.simulate(CrawlConfig(**base))
    assert [u for _, u, _, _ in exp.crawl_log] != [
        u for _, u, _, _ in exp_plain.crawl_log
    ]

    # oldest-first variant also holds engine<->oracle parity
    cfg_old = CrawlConfig(recency_weight=-0.25, **base)
    out_old = tmp_path / "old"
    run_crawl(cfg_old, str(out_old))
    got_old = read_crawl_log(str(out_old))
    exp_old = oracle_sim.simulate(cfg_old)
    assert [
        (int(a), b, int(c), d)
        for a, b, c, d in zip(
            got_old["fetch_seq"], got_old["url_canon"],
            got_old["depth"], got_old["status"]
        )
    ] == exp_old.crawl_log
