"""Pins the fused fetch task's link kernel (``stages.fetch.prepare_links``)
to a scalar reference, one link at a time, built from the public
per-URL functions.  Ray-free: the kernel is fed hand-built ``links``
list columns."""

from __future__ import annotations

import hashlib
from urllib.parse import urlsplit

import pyarrow as pa

from cs_insights_crawler_ray.fixtures.content_store import (
    ContentStoreConfig,
    robots_allowed,
)
from cs_insights_crawler_ray.functions.urls import (
    canonicalize_batch,
    canonicalize_url,
    host_hash64,
)
from cs_insights_crawler_ray.stages.fetch import prepare_links

CFG = ContentStoreConfig(seed=3, n_hosts=16, pages_per_host=100)
LINK_COLS = {
    "link_canon": pa.string(),
    "link_hex": pa.string(),
    "link_sha1": pa.binary(),
    "link_host": pa.string(),
    "link_host_hash": pa.uint64(),
    "link_allowed": pa.bool_(),
}


def _reference(pages: list) -> dict:
    out = {name: [] for name in LINK_COLS}
    for links in pages:
        row = {name: [] for name in LINK_COLS}
        for u in links or []:
            c = canonicalize_url(u)
            s = urlsplit(c)
            sha = hashlib.sha1(c.encode("utf-8")).digest()
            row["link_canon"].append(c)
            row["link_hex"].append(sha.hex())
            row["link_sha1"].append(sha)
            row["link_host"].append(s.netloc)
            row["link_host_hash"].append(host_hash64(s.netloc))
            row["link_allowed"].append(
                robots_allowed(CFG, s.netloc, s.path + (f"?{s.query}" if s.query else ""))
            )
        for name in LINK_COLS:
            out[name].append(row[name])
    return out


def _check(pages: list, chunks: int = 1) -> None:
    bounds = [len(pages) * i // chunks for i in range(chunks + 1)]
    links = pa.chunked_array(
        [pa.array(pages[a:b], pa.list_(pa.string())) for a, b in zip(bounds, bounds[1:])],
        pa.list_(pa.string()),
    )
    got = prepare_links(links, CFG)
    ref = _reference(pages)
    assert list(got) == list(LINK_COLS)
    for name, typ in LINK_COLS.items():
        assert got[name].type == pa.list_(typ), name
        assert got[name].to_pylist() == ref[name], name


FAST = [CFG.url(h, p) for h, p in [(0, 0), (0, 7), (1, 3), (4, 11), (4, 12), (15, 99)]]
SLOW = [
    "HTTP://H0004.TEST/p/4",          # uppercase scheme and host
    "http://h0001.test:80/p/2",       # default ports
    "https://h0002.test:443/p/9",
    "https://h0003.test:8443/p/9",    # a port that stays
    "https://h0000.test/a/../p/./14",  # dot segments
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


def test_fast_path_links_match_reference():
    _check([FAST, FAST[:2], [FAST[3]]])


def test_non_canonical_links_match_reference():
    _check([SLOW[:5], SLOW[5:], FAST + SLOW])


def test_not_found_rows_and_nulls_give_empty_lists():
    # a 404 row carries [] links; a null list is treated the same
    _check([FAST[:3], [], None, SLOW[:2], []], chunks=2)


def test_batch_with_zero_links():
    _check([[], [], None])
    _check([])


def test_seed_path_uses_the_same_kernel():
    urls = FAST + SLOW
    out = canonicalize_batch(pa.table({"url": urls}))
    ref = _reference([urls])
    assert out["url_canon"].to_pylist() == ref["link_canon"][0]
    assert out["url_hex"].to_pylist() == ref["link_hex"][0]
    assert out["url_sha1"].to_pylist() == ref["link_sha1"][0]
    assert out["host"].to_pylist() == ref["link_host"][0]
    assert out["host_hash"].to_pylist() == ref["link_host_hash"][0]
