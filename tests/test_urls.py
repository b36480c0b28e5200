from __future__ import annotations

from urllib.parse import urlsplit

import pyarrow as pa
from hypothesis import given, settings, strategies as st

from cs_insights_crawler_ray.fixtures.content_store import (
    ContentStoreConfig,
    robots_allowed,
)
from cs_insights_crawler_ray.functions.urls import (
    canonical_parts,
    canonicalize_url,
    host_hash64,
    url_sha1,
)
from cs_insights_crawler_ray.stages.links import url_rows


def test_canonicalize_basics():
    assert canonicalize_url("HTTPS://Example.COM:443/a/../b/./c") == "https://example.com/b/c"
    assert canonicalize_url("http://h.test:80/") == "http://h.test/"
    assert canonicalize_url("http://h.test") == "http://h.test/"
    assert canonicalize_url("http://h.test/p#frag") == "http://h.test/p"
    assert canonicalize_url("http://h.test/%7Euser") == "http://h.test/~user"
    assert canonicalize_url("http://h.test/a b") == "http://h.test/a%20b"
    assert canonicalize_url("http://h.test/p?q=1&r=2") == "http://h.test/p?q=1&r=2"


URLS = st.builds(
    lambda scheme, h, port, segs, q: (
        f"{scheme}://{h}.test{port}/" + "/".join(segs) + (f"?k={q}" if q else "")
    ),
    st.sampled_from(["http", "https", "HTTP", "Https"]),
    st.from_regex(r"[a-zA-Z][a-zA-Z0-9-]{0,10}", fullmatch=True),
    st.sampled_from(["", ":80", ":443", ":8080"]),
    st.lists(
        st.sampled_from(["a", "B", "b%20c", ".", "..", "~x", "%7Ey", "p/q", "", "x.y"]),
        max_size=6,
    ),
    st.integers(0, 99),
)


@settings(max_examples=200, deadline=None)
@given(URLS)
def test_canonicalize_idempotent(url):
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once


@settings(max_examples=300, deadline=None)
@given(st.one_of(URLS, URLS.map(canonicalize_url)))
def test_fast_path_declines_or_is_canonical(url):
    """The fast path either declines or accepts a URL that
    canonicalize_url returns unchanged, with urlsplit's host and path."""
    parts = canonical_parts(pa.array([url])).to_pylist()[0]
    if parts is not None:
        assert canonicalize_url(url) == url
        s = urlsplit(url)
        assert parts == {"host": s.netloc, "path": s.path} and not s.query


def test_fast_path_accepts_fixture_urls():
    urls = ["https://h0001.test/p/5", "HTTPS://h0001.test/p/5",
            "https://h0001.test:443/p/5", "https://h0001.test/p/5?q=1",
            "https://h0001.test", " https://h.test/", "https://h.test/p\n"]
    assert canonical_parts(pa.array(urls)).to_pylist() == (
        [{"host": "h0001.test", "path": "/p/5"}] + [None] * 6
    )


def test_hashes_stable():
    c = canonicalize_url("https://h0001.test/p/5")
    assert len(url_sha1(c)) == 20
    assert url_sha1(c) == url_sha1(c)
    assert 0 <= host_hash64("h0001.test") < 2**64


def test_url_rows_columns():
    t, idx = url_rows(pa.array(["HTTP://H0.test:80/a/../b", "https://h1.test/p/1"]),
                      ContentStoreConfig())
    assert t.column_names == ["url_canon", "url_sha1", "host_hash"]
    assert t["url_canon"].to_pylist() == ["http://h0.test/b", "https://h1.test/p/1"]
    assert t.schema.field("url_sha1").type == pa.binary(20)
    assert t.schema.field("host_hash").type == pa.uint64()
    assert idx.tolist() == [0, 1]


# fixture-shaped URLs, some of them robots-blocked (h0000, h0004, ...
# disallow pages p with p % 7 == host index % 7), in canonical and
# non-canonical spellings
FIXTURE_URLS = st.builds(
    lambda scheme, h, port, p: f"{scheme}://h{h:04d}.test{port}/p/{p}",
    st.sampled_from(["https", "HTTPS"]),
    st.integers(0, 12),
    st.sampled_from(["", "", ":443"]),
    st.integers(0, 20),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(URLS, FIXTURE_URLS), max_size=12))
def test_url_rows_match_per_url_functions(urls):
    """The URL-row kernel behind both the seed list and the fused
    task's links equals the per-URL functions: the robots-allowed
    URLs, in input order, with their canonical form, SHA-1 and host
    hash."""
    store = ContentStoreConfig()
    want = []
    for i, u in enumerate(urls):
        c = canonicalize_url(u)
        s = urlsplit(c)
        if robots_allowed(store, s.netloc, s.path + (f"?{s.query}" if s.query else "")):
            want.append((i, c, url_sha1(c), host_hash64(s.netloc)))
    t, idx = url_rows(pa.array(urls, pa.string()), store)
    got = list(zip(idx.tolist(), *(t[c].to_pylist() for c in t.column_names)))
    assert got == want


def test_resolve_link_relative_forms():
    from cs_insights_crawler_ray.functions.urls import resolve_link

    base = "https://h0001.test/a/b/page"
    assert resolve_link(base, "https://other.test/x") == "https://other.test/x"
    assert resolve_link(base, "//cdn.test/img") == "https://cdn.test/img"
    assert resolve_link(base, "/p/9") == "https://h0001.test/p/9"
    assert resolve_link(base, "sib") == "https://h0001.test/a/b/sib"
    assert resolve_link(base, "../up") == "https://h0001.test/a/up"
    assert resolve_link(base, "x#frag") == "https://h0001.test/a/b/x"
