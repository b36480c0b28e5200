"""Deterministic synthetic web — a *pure function* url -> page.

There is no network in the sandbox (and none is needed): every page —
its image pixels, caption, format, out-links, robots rules — is a
deterministic function of ``(url, ContentStoreConfig.seed)``.  This is
the property that makes a 10^10-URL frontier feasible: fetch actors
regenerate content locally from the URL hash instead of reading a
stored table, so the "web" costs zero storage and zero shuffle while
preserving every scheduler semantic (link graph, hot hosts, robots,
dedup collisions).

The reference's serial downloader (reference ``s2client.py:146-157``,
``dblpclient.py:411-451``) is replaced by this resolver inside the
fetch actor pool; all ordering/politeness/seen semantics are exercised
identically.

Host popularity is zipf-distributed so link targets concentrate on a
few hot hosts — this is what the salted-repartition / per-host budget
machinery is measured against (BASELINE.json north_rule: "hot-host
skew").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..functions.imagecodec import encode_image

_WORDS = (
    "ablation arrow batch bloom caption cluster corpus crawl cuckoo dataset "
    "decode depth engine fetch filter frontier graph hash host image index "
    "ingest join lance lineage manifest metric node object parquet partition "
    "phash pixel politeness queue ray robots scale schema seed shard shuffle "
    "sink skew snapshot stream table token vector wave worker zipf"
).split()


@dataclass(frozen=True)
class ContentStoreConfig:
    seed: int = 42
    n_hosts: int = 64
    pages_per_host: int = 100_000
    zipf_a: float = 1.3          # host popularity skew for link targets
    links_min: int = 4
    links_max: int = 10
    img_min: int = 24            # pixels per side
    img_max: int = 56
    robots_host_mod: int = 4     # 1 in N hosts has robots rules
    robots_path_mod: int = 7     # which paths those hosts disallow
    dead_link_rate: float = 0.0  # fraction of out-links pointing past
    # pages_per_host -> deterministic 404s (exercises the quarantine
    # path end-to-end; 0 keeps legacy fixtures byte-identical)

    def host(self, i: int) -> str:
        return f"h{i:04d}.test"

    def url(self, host_i: int, page: int) -> str:
        return f"https://{self.host(host_i)}/p/{page}"

    def host_pmf(self) -> np.ndarray:
        w = 1.0 / np.arange(1, self.n_hosts + 1, dtype=np.float64) ** self.zipf_a
        return w / w.sum()


def _rng_for(url_canon: str, seed: int, salt: bytes) -> np.random.Generator:
    h = hashlib.sha1(salt + url_canon.encode("utf-8") + seed.to_bytes(8, "big")).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(h[:8], "big")))


def robots_allowed(cfg: ContentStoreConfig, host: str, path: str) -> bool:
    """Deterministic robots.txt policy.

    Hosts whose index is divisible by ``robots_host_mod`` publish a
    rule that disallows pages whose number satisfies
    ``page % robots_path_mod == host_index % robots_path_mod``.
    Pure function of the store config, so no rules cache is needed.
    """
    try:
        host_i = int(host.split(".")[0][1:])
        page = int(path.rsplit("/", 1)[-1])
    except (ValueError, IndexError):
        return True
    if host_i % cfg.robots_host_mod != 0:
        return True
    return page % cfg.robots_path_mod != host_i % cfg.robots_path_mod


def page_pixels(cfg: ContentStoreConfig, url_canon: str) -> np.ndarray:
    """Ground-truth decoded pixels for a URL (regenerable anywhere —
    this is what the decode-verify PSNR gate compares against).

    Natural-image-like structure: an 8x-upsampled random base —
    photographs are low-frequency-dominated, so the encoded payload
    compresses like a real image instead of like white noise
    (white-noise payloads made the bench I/O-bound: ~300 KiB/img at
    320px vs a few KiB with this generator)."""
    rng = _rng_for(url_canon, cfg.seed, b"img")
    w = int(rng.integers(cfg.img_min, cfg.img_max + 1))
    h = int(rng.integers(cfg.img_min, cfg.img_max + 1))
    base = rng.integers(0, 256, size=((h + 7) // 8, (w + 7) // 8, 3), dtype=np.uint8)
    return np.repeat(np.repeat(base, 8, axis=0), 8, axis=1)[:h, :w].copy()


def page_meta(cfg: ContentStoreConfig, url_canon: str) -> tuple[str, str]:
    """(fmt, caption) for a URL."""
    rng = _rng_for(url_canon, cfg.seed, b"meta")
    fmt = ("png", "jpeg", "webp")[int(rng.integers(0, 3))]
    n_words = int(rng.integers(5, 13))
    caption = " ".join(_WORDS[i] for i in rng.integers(0, len(_WORDS), size=n_words))
    return fmt, caption


def page_links(cfg: ContentStoreConfig, url_canon: str, pmf: np.ndarray | None = None) -> list[str]:
    """Outgoing links of a page — zipf host targets, uniform pages;
    a ``dead_link_rate`` fraction target pages past ``pages_per_host``
    (deterministic 404s)."""
    rng = _rng_for(url_canon, cfg.seed, b"link")
    k = int(rng.integers(cfg.links_min, cfg.links_max + 1))
    if pmf is None:
        pmf = cfg.host_pmf()
    hosts = rng.choice(cfg.n_hosts, size=k, p=pmf)
    pages = rng.integers(0, cfg.pages_per_host, size=k)
    if cfg.dead_link_rate > 0:
        dead = rng.random(k) < cfg.dead_link_rate
        pages = np.where(dead, pages + cfg.pages_per_host, pages)
    return [cfg.url(int(hi), int(p)) for hi, p in zip(hosts, pages)]


def fetch_page(cfg: ContentStoreConfig, url_canon: str, pmf: np.ndarray | None = None) -> dict:
    """The full synthetic GET: encoded image bytes + caption + links.

    Returns ``status='404'`` for out-of-universe URLs (non .test hosts
    or page >= pages_per_host) so error handling is data, not
    exceptions.
    """
    try:
        hostpart, pagepart = url_canon.split("//", 1)[1].split("/p/")
        host_i = int(hostpart.split(".")[0][1:])
        page = int(pagepart)
        ok = 0 <= host_i < cfg.n_hosts and 0 <= page < cfg.pages_per_host
    except (ValueError, IndexError):
        ok = False
    if not ok:
        return {"status": "404", "bytes": b"", "fmt": "", "caption": "", "links": []}
    pixels = page_pixels(cfg, url_canon)
    fmt, caption = page_meta(cfg, url_canon)
    return {
        "status": "200",
        "bytes": encode_image(pixels, fmt),
        "fmt": fmt,
        "caption": caption,
        "links": page_links(cfg, url_canon, pmf),
    }


def seed_urls(cfg: ContentStoreConfig, n_seeds: int) -> list[str]:
    """The fixed seed list (deterministic; analog of the reference's
    release file listing, ``s2client.py:146-157``): one page from each
    of the first ``n_seeds`` hosts round-robin."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed ^ 0x5EED))
    pages = rng.integers(0, cfg.pages_per_host, size=n_seeds)
    return [cfg.url(i % cfg.n_hosts, int(p)) for i, p in enumerate(pages)]
