"""Pins the URL-row kernel (``stages.links.url_rows``) and the fused
wave task's link rows built from it to a scalar reference, one link at
a time, built from the public per-URL functions.  Ray-free: the fused
task is called in-process on hand-built fetched rows (status, depth,
fetch_seq and ``links`` list column), with the fetch itself stubbed
out so any status can carry links."""

from __future__ import annotations

import hashlib
from urllib.parse import urlsplit

import pyarrow as pa

from cs_insights_crawler_ray.fixtures.content_store import (
    ContentStoreConfig,
    robots_allowed,
)
from cs_insights_crawler_ray.functions.urls import canonicalize_url, host_hash64
from cs_insights_crawler_ray.pipelines.crawl import _FusedWaveTask, _seed_rows
from cs_insights_crawler_ray.stages import fetch
from cs_insights_crawler_ray.state.seen import FRONTIER_SCHEMA

CFG = ContentStoreConfig(seed=3, n_hosts=16, pages_per_host=100)
WAVE = 5


def _url_row(u: str) -> dict | None:
    """The frontier columns of one raw URL, or None when robots
    disallows it."""
    c = canonicalize_url(u)
    s = urlsplit(c)
    if not robots_allowed(CFG, s.netloc, s.path + (f"?{s.query}" if s.query else "")):
        return None
    return {
        "url_canon": c,
        "url_sha1": hashlib.sha1(c.encode("utf-8")).digest(),
        "host_hash": host_hash64(s.netloc),
    }


def _reference(pages: list, statuses: list, depths: list, max_depth: int) -> list:
    out = []
    for i, (links, status, depth) in enumerate(zip(pages, statuses, depths)):
        if status != "200" or depth + 1 > max_depth:
            continue
        for pos, u in enumerate(links or []):
            row = _url_row(u)
            if row is not None:
                out.append(
                    row | {"depth": depth + 1, "disc_wave": WAVE,
                           "disc_parent": 100 + i, "disc_link": pos}
                )
    return out


def _check(monkeypatch, pages: list, statuses: list | None = None,
           depths: list | None = None, max_depth: int = 8, chunks: int = 1) -> None:
    """The fused task's link slices, concatenated, equal the scalar
    reference row for row (one shard: in parent and link order; three
    shards: the same rows, split by host hash)."""
    n = len(pages)
    statuses = statuses or ["200"] * n
    depths = depths or [0] * n
    bounds = [n * i // chunks for i in range(chunks + 1)]
    batch = pa.table({
        "url_canon": pa.array([f"https://h0001.test/p/{i}" for i in range(n)], pa.string()),
        "fetch_seq": pa.array(range(100, 100 + n), pa.int64()),
        "depth": pa.array(depths, pa.int32()),
        "status": pa.array(statuses, pa.string()),
        "links": pa.chunked_array(
            [pa.array(pages[a:b], pa.list_(pa.string())) for a, b in zip(bounds, bounds[1:])],
            pa.list_(pa.string()),
        ),
        "image_id": pa.array(range(n), pa.int64()),
        "ok": pa.array([True] * n, pa.bool_()),
    })
    monkeypatch.setattr(fetch, "fetch_decode_task", lambda b, cfg, extract=False: b)
    ref = _reference(pages, statuses, depths, max_depth)
    one = _FusedWaveTask(CFG, False, ["image_id", "ok"], 1, WAVE, max_depth)(batch)
    assert one[2].schema == FRONTIER_SCHEMA
    assert one[2].to_pylist() == ref
    three = _FusedWaveTask(CFG, False, ["image_id", "ok"], 3, WAVE, max_depth)(batch)
    assert len(three) == 5
    split = [r for t in three[2:] for r in t.to_pylist()]
    for s, t in enumerate(three[2:]):
        assert all(r["host_hash"] % 3 == s for r in t.to_pylist())
    key = lambda r: (r["disc_parent"], r["disc_link"])  # noqa: E731
    assert sorted(split, key=key) == ref


FAST = [CFG.url(h, p) for h, p in [(0, 1), (0, 8), (1, 3), (4, 12), (4, 13), (15, 99)]]
BLOCKED = [CFG.url(h, p) for h, p in [(0, 0), (0, 7), (4, 11), (8, 1)]]
SLOW = [
    "HTTP://H0004.TEST/p/5",          # uppercase scheme and host
    "http://h0001.test:80/p/2",       # default ports
    "https://h0002.test:443/p/9",
    "https://h0003.test:8443/p/9",    # a port that stays
    "https://h0000.test/a/../p/./15",  # dot segments
    "https://h0005.test/%7Euser/p",   # escaped unreserved char
    "https://h0006.test/a%20b c",     # escaped and raw space
    "https://h0007.test/p/1?k=v&x=1",  # a query
    "https://h0008.test/p/2#frag",    # a fragment
    "https://user:pw@h0009.test/p/3",  # userinfo
    "  https://h0010.test/p/4 \t",    # surrounding whitespace
    "https://h0011.test",             # empty path
    "https://h0012.test/café/漢",  # non-ASCII path
    "https://h0004.test/p/4.html",    # a dot in the last segment
]


def test_fast_path_links_match_reference(monkeypatch):
    _check(monkeypatch, [FAST, FAST[:2], [FAST[3]]])


def test_non_canonical_links_match_reference(monkeypatch):
    _check(monkeypatch, [SLOW[:5], SLOW[5:], FAST + SLOW])


def test_robots_blocked_links_are_dropped(monkeypatch):
    # h0000 and h0008 (index % 4 == 0) disallow pages whose number is
    # index % 7 (mod 7); so does the slow-path spelling of h0004/p/4
    pages = [BLOCKED, [FAST[0], BLOCKED[1], FAST[1]], ["HTTP://H0004.TEST/p/4"]]
    _check(monkeypatch, pages)
    assert [len(_reference([p], ["200"], [0], 8)) for p in pages] == [0, 2, 0]


def test_not_found_rows_and_nulls_give_empty_lists(monkeypatch):
    # a 404 parent's links are dropped even when it carries some; a
    # null list counts as an empty one
    _check(
        monkeypatch,
        [FAST[:3], FAST[3:], None, SLOW[:2], [], FAST],
        statuses=["200", "404", "200", "200", "200", "404"],
        chunks=2,
    )


def test_batch_with_zero_links(monkeypatch):
    _check(monkeypatch, [[], [], None])
    _check(monkeypatch, [])


def test_depth_overrun_is_dropped(monkeypatch):
    # links of a parent at max_depth would sit at max_depth + 1
    _check(monkeypatch, [FAST, FAST, SLOW], depths=[2, 3, 1], max_depth=3)
    _check(monkeypatch, [FAST, FAST], depths=[3, 3], max_depth=3)


def test_repeated_link_keeps_every_position(monkeypatch):
    # the fused task keeps a page's repeats, each with its own
    # position; the seen shard's test-and-set keeps the first
    page = [FAST[1], FAST[2], FAST[1], "HTTPS://H0000.test:443/p/8", FAST[1]]
    _check(monkeypatch, [page, page])


def test_seed_path_uses_the_same_kernel():
    urls = FAST + BLOCKED + SLOW
    for start in (0, 12_500):  # a later seed chunk's first index
        got = _seed_rows(CFG, urls, start)
        assert got.schema == FRONTIER_SCHEMA
        assert got.to_pylist() == [
            row | {"depth": 0, "disc_wave": -1, "disc_parent": -1, "disc_link": start + i}
            for i, row in enumerate(map(_url_row, urls)) if row is not None
        ]
