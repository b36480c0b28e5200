"""URL canonicalization + hashing kernels.

The reference joins URLs with ``urllib.parse.urljoin`` and caches
downloads keyed by URL (reference ``s2client.py:132,150,161``,
``dblpclient.py:340-350``); it never canonicalizes because it is fully
sequential and fetches a fixed listing.  The crawl engine's seen-set
and politeness layers need a canonical form + stable hashes
(BASELINE.json north_rule: "RFC 3986 normalize + SHA-1 host/path
hash").

All kernels here are pure and deterministic.  ``url_columns`` is the
one-pass batch kernel behind both ``canonicalize_batch`` (seeds) and
the fused fetch task's link prep (stages/fetch.py).
"""

from __future__ import annotations

import hashlib
from urllib.parse import urlsplit, urlunsplit, unquote, quote

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_DEFAULT_PORTS = {"http": ":80", "https": ":443"}

# RFC 3986 §2.3 unreserved characters that must not stay percent-encoded.
_SAFE = "-._~"


def canonicalize_url(url: str) -> str:
    """RFC 3986 normalization of one URL.

    - lowercase scheme and host
    - drop default ports (:80 http, :443 https)
    - remove dot-segments in the path
    - decode percent-encoded unreserved chars, re-encode the rest
      uppercase
    - drop fragment; keep query
    - empty path -> "/"

    Idempotent: ``canonicalize_url(canonicalize_url(u)) == canonicalize_url(u)``
    (property-tested in tests/test_urls.py).
    """
    parts = urlsplit(url.strip())
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    if scheme in _DEFAULT_PORTS and netloc.endswith(_DEFAULT_PORTS[scheme]):
        netloc = netloc[: -len(_DEFAULT_PORTS[scheme])]
    path = _remove_dot_segments(parts.path) or "/"
    path = quote(unquote(path), safe="/" + _SAFE)
    query = quote(unquote(parts.query), safe="=&" + _SAFE) if parts.query else ""
    return urlunsplit((scheme, netloc, path, query, ""))


# A URL this RE2 pattern (Arrow compute syntax: ``$`` is the end of the
# text) matches is already canonical: lowercase http(s) scheme and host,
# no port, userinfo, query or fragment, and a path of unreserved
# characters only (no dot segment, no escape, no space).
# canonicalize_url returns such a URL unchanged (property-tested).
_CANONICAL = r"^https?://(?P<host>[a-z0-9.-]+)(?P<path>/[A-Za-z0-9_~/-]*)$"


def canonical_parts(urls: pa.Array) -> pa.StructArray:
    """Per URL, a (host, path) struct when the URL is already
    canonical, or null when it needs ``canonicalize_url``: one
    vectorized regex pass instead of a Python call per URL."""
    return pc.extract_regex(urls, _CANONICAL)


def _remove_dot_segments(path: str) -> str:
    out: list[str] = []
    for seg in path.split("/"):
        if seg == "..":
            if out and out[-1] != "":
                out.pop()
        elif seg != ".":
            out.append(seg)
    cleaned = "/".join(out)
    if path.startswith("/") and not cleaned.startswith("/"):
        cleaned = "/" + cleaned
    return cleaned


def url_sha1(canon: str) -> bytes:
    """20-byte SHA-1 of the canonical URL — the dedup key."""
    return hashlib.sha1(canon.encode("utf-8")).digest()


def host_of(canon: str) -> str:
    return urlsplit(canon).netloc


def path_query_of(canon: str) -> str:
    """Path(+query) of a canonical URL — the robots-check input.
    The previous idiom ``canon.split(host, 1)[1]`` raised
    ValueError('empty separator') on a hostless canonical (a
    schemeless user seed) and mis-split whenever the host string also
    occurred earlier in the URL."""
    s = urlsplit(canon)
    return s.path + (f"?{s.query}" if s.query else "")


def host_hash64(host: str) -> int:
    """uint64 from the first 8 bytes of SHA-1(host) — the politeness /
    seen-shard partition key (stable across processes, unlike
    ``hash()``)."""
    return int.from_bytes(hashlib.sha1(host.encode("utf-8")).digest()[:8], "big")


def resolve_link(base: str, href: str) -> str:
    """C7 (reference ``s2client.py:132,150,161``: urljoin for release/
    dataset URLs): resolve a possibly-relative href against its page
    URL and canonicalize.  Handles absolute URLs, protocol-relative
    (//host/p), root-relative (/p), and relative (p, ../p) forms."""
    from urllib.parse import urljoin

    return canonicalize_url(urljoin(base, href))


def url_columns(urls: pa.Array):
    """One pass over a string array of raw URLs -> (canonical URLs and
    their hosts as string arrays, the path(+query) robots input of each
    as a list, the concatenated 20-byte SHA-1 digests of the canonical
    URLs, uint64 ``host_hash64`` per URL).

    URLs that ``canonical_parts`` accepts are kept as they are; any
    other goes through ``canonicalize_url``, ``host_of`` and
    ``path_query_of``.  The host hash is computed once per distinct
    host.  Strings leave Arrow through ``to_numpy``, which costs about
    a twentieth of ``to_pylist``."""
    parts = canonical_parts(urls)
    canon = urls.to_numpy(zero_copy_only=False)
    hosts = parts.field("host").to_numpy(zero_copy_only=False)
    paths = parts.field("path").to_numpy(zero_copy_only=False)
    slow = np.flatnonzero(~parts.is_valid().to_numpy(zero_copy_only=False))
    for i in slow:
        c = canonicalize_url(canon[i])
        canon[i], hosts[i], paths[i] = c, host_of(c), path_query_of(c)
    if len(slow):
        urls = pa.array(canon, pa.string())
    hosts = pa.array(hosts, pa.string())
    enc = hosts.dictionary_encode()
    hh = np.array(
        [host_hash64(h) for h in enc.dictionary.to_pylist()], np.uint64
    )[enc.indices.to_numpy(zero_copy_only=False)]
    sha1 = hashlib.sha1
    digests = b"".join([sha1(c.encode("utf-8")).digest() for c in canon.tolist()])
    return urls, hosts, paths.tolist(), digests, hh


_HEX = np.frombuffer(b"0123456789abcdef", np.uint8)


def digest_arrays(digests: bytes) -> tuple[pa.Array, pa.Array]:
    """Concatenated 20-byte digests -> (binary array of the digests,
    string array of their lowercase hex) without a per-digest Python
    call: the hex is one nibble lookup over the whole buffer."""
    n = len(digests) // 20
    raw = np.frombuffer(digests, np.uint8)
    hexed = np.empty(2 * raw.size, np.uint8)
    hexed[0::2] = _HEX[raw >> 4]
    hexed[1::2] = _HEX[raw & 15]
    step = np.arange(n + 1, dtype=np.int32)
    sha = pa.BinaryArray.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(step * 20), pa.py_buffer(digests)]
    )
    hexes = pa.StringArray.from_buffers(
        n, pa.py_buffer(step * 40), pa.py_buffer(hexed)
    )
    return sha, hexes


def canonicalize_batch(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Stateless batch kernel: add url_canon, url_sha1, host,
    host_hash columns (``url_columns`` over the URL column)."""
    canon, hosts, _, digests, hh = url_columns(batch[url_col].combine_chunks())
    sha, _ = digest_arrays(digests)
    return (
        batch.append_column("url_canon", canon)
        .append_column("url_sha1", sha.cast(pa.binary(20)))
        .append_column("host", hosts)
        .append_column("host_hash", pa.array(hh, pa.uint64()))
    )
