"""Fetch stage — the parallel-task replacement for the reference's serial
``download_in_chunks`` loop (reference ``s2client.py:25-47,146-157``:
one in-flight request, listing order).

``fetch_task`` resolves a batch of URLs against the deterministic
synthetic web; its per-process state (the zipf pmf — the analog of an
HTTP session + API key header, reference ``s2client.py:79``) is built
once per worker process.  HTTP-level failures are DATA (a status
column), never exceptions — the reference instead dies on the first
failed GET (SURVEY.md §4 "Retries: none").

The crawl's wave loop calls ``fetch_decode_link_task`` from its fused
per-bundle task (pipelines/crawl.py ``_fused_wave``).  Politeness note:
the per-host request budget is enforced *upstream* by wave admission
(state/politeness.py); by the time a batch reaches these tasks every
row is already admitted, so they can run flat out.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..fixtures.content_store import ContentStoreConfig, fetch_page, robots_allowed
from ..functions.urls import digest_arrays, url_columns


_FETCH_COLS = (
    ("status", pa.string()),
    ("bytes", pa.binary()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("links", pa.list_(pa.string())),
)
_PMF: dict[ContentStoreConfig, np.ndarray] = {}


def fetch_task(batch: pa.Table, cfg: ContentStoreConfig) -> pa.Table:
    """Stateless-TASK entry point: append the fetched page columns to
    a batch of ``url_canon`` rows.  The per-process state is the zipf
    pmf, cached per worker process.  Preferred over an actor pool here:
    that state is trivially reconstructible, tasks reuse the warm
    worker pool across waves (an actor pool was re-created on every
    wave execution — measured ~1-2s startup per stage per wave), and
    tasks hold no standing CPU reservation."""
    pmf = _PMF.get(cfg)
    if pmf is None:
        pmf = _PMF.setdefault(cfg, cfg.host_pmf())
    pages = [fetch_page(cfg, u, pmf) for u in batch["url_canon"].to_pylist()]
    for name, typ in _FETCH_COLS:
        batch = batch.append_column(name, pa.array([p[name] for p in pages], typ))
    return batch


def fetch_decode_task(batch: pa.Table, cfg: ContentStoreConfig, extract: bool = False) -> pa.Table:
    """Fused fetch + decode-verify(+features/embedding) task — one pass
    over the admitted rows producing BOTH the payload columns and the
    link-discovery columns, from which the fused wave task takes the
    payload rows, the crawl-log columns and the out-links; fusing the
    two per-row stages halves the task rounds per wave (the second
    256-task decode wave was ~20% of wave wall at 32 CPUs, measured).
    """
    from .decode import decode_verify_task

    fetched = fetch_task(batch, cfg)
    decoded = decode_verify_task(fetched, cfg, extract)
    # decoded carries payload cols aligned row-for-row with `fetched`;
    # combine: payload cols + the frontier/link cols needed downstream
    keep = [c for c in fetched.column_names if c not in decoded.column_names]
    out = decoded
    for c in keep:
        out = out.append_column(c, fetched[c])
    return out


def fetch_decode_link_task(
    batch: pa.Table, cfg: ContentStoreConfig, extract: bool = False
) -> pa.Table:
    """Fully-fused per-row wave stage: fetch + decode-verify
    (+features/embedding) + per-link canonicalize/hash/robots.

    All Python-level per-row work of a wave lives in this ONE call, so
    the wave's fused tasks keep every core on it for the whole fetch
    phase; the downstream link branch is then a vectorized explode
    (link prep as a separate pass left cores idle behind the fetch
    barrier — 6-10s/wave at 32 CPUs, measured).  Out-links are emitted
    as aligned list columns: link_canon / link_hex / link_sha1 /
    link_host / link_host_hash / link_allowed (robots verdict).
    """
    out = fetch_decode_task(batch, cfg, extract)
    for name, col in prepare_links(out["links"], cfg).items():
        out = out.append_column(name, col)
    return out


def prepare_links(links: pa.ChunkedArray, cfg: ContentStoreConfig) -> dict:
    """The six link list columns of a ``links`` list<string> column,
    in one pass per link (``functions.urls.url_columns``): each column
    is one flat array wrapped with the ``links`` column's offsets, and
    ``link_hex`` is derived from the concatenated SHA-1 digests.  A
    null list yields an empty one."""
    links = links.combine_chunks()
    lens = pc.fill_null(pc.list_value_length(links), 0).to_numpy()
    offsets = pa.array(np.concatenate([[0], np.cumsum(lens)]), pa.int32())
    canon, hosts, paths, digests, hh = url_columns(pc.list_flatten(links))
    sha, hexes = digest_arrays(digests)
    host_list = hosts.to_numpy(zero_copy_only=False).tolist()
    allowed = [robots_allowed(cfg, h, p) for h, p in zip(host_list, paths)]
    cols = {
        "link_canon": canon,
        "link_hex": hexes,
        "link_sha1": sha,
        "link_host": hosts,
        "link_host_hash": pa.array(hh, pa.uint64()),
        "link_allowed": pa.array(allowed, pa.bool_()),
    }
    return {k: pa.ListArray.from_arrays(offsets, v) for k, v in cols.items()}
