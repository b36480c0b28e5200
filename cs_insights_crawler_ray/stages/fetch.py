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
per-bundle task (pipelines/crawl.py ``_fused_wave``), which gives the
flat link rows it returns their depth and discovery key.  Politeness note:
the per-host request budget is enforced *upstream* by wave admission
(state/politeness.py); by the time a batch reaches these tasks every
row is already admitted, so they can run flat out.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..fixtures.content_store import ContentStoreConfig, fetch_page
from .links import link_rows


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
    urls = batch["url_canon"].to_numpy(zero_copy_only=False)
    pages = [fetch_page(cfg, u, pmf) for u in urls]
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


def fetch_decode_link_task(batch: pa.Table, cfg: ContentStoreConfig, extract: bool = False):
    """Fully-fused per-row wave stage: fetch + decode-verify
    (+features/embedding) + per-link canonicalize/hash/robots.

    All Python-level per-row work of a wave lives in this ONE call, so
    the wave's fused tasks keep every core on it for the whole fetch
    phase (link prep as a separate pass left cores idle behind the
    fetch barrier — 6-10s/wave at 32 CPUs, measured).  Returns the
    fetched rows followed by ``stages.links.link_rows`` of their
    ``links`` column: the robots-allowed out-links as flat URL rows,
    each one's parent row index and its position in that row's list.
    """
    out = fetch_decode_task(batch, cfg, extract)
    return (out, *link_rows(out["links"], cfg))
