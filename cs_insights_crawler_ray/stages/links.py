"""Link discovery: the one URL-row kernel behind both the seed list and
the fused fetch task's out-links.

``url_rows`` turns a flat array of raw URLs into the robots-allowed
URLs' ``url_canon``, ``url_sha1`` and ``host_hash`` columns;
``link_rows`` runs it over a page's ``links`` list column and reports
each kept link's parent row and position in its list.  Each caller
then attaches its own depth and discovery key with ``frontier_rows``,
giving the 7-column ``FRONTIER_SCHEMA`` row: the seeds key
``(-1, -1, seed index)`` at depth 0 (pipelines/crawl.py
``_seed_rows``), the fused wave task ``(wave, parent fetch_seq, link
position)`` at the parent's depth + 1 (``_FusedWaveTask``).  Robots
is a pure function of the store config, so no rules cache exists.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..fixtures.content_store import ContentStoreConfig, robots_allowed
from ..functions.urls import url_columns
from ..state.seen import FRONTIER_SCHEMA

_KEY_FIELDS = list(FRONTIER_SCHEMA)[3:]  # depth + discovery key


def url_rows(urls: pa.Array, store: ContentStoreConfig) -> tuple[pa.Table, np.ndarray]:
    """A string array of raw URLs -> (the robots-allowed URLs'
    ``url_canon``, ``url_sha1`` and ``host_hash`` columns, their
    indices into ``urls``), in one pass per URL
    (``functions.urls.url_columns``).  ``url_sha1`` is a
    fixed_size_binary(20) array over the digest buffer itself."""
    canon, hosts, paths, digests, hh = url_columns(urls)
    allowed = [robots_allowed(store, h, p) for h, p in zip(hosts, paths)]
    sha = pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(20), len(allowed), [None, pa.py_buffer(digests)]
    )
    rows = pa.table(
        {"url_canon": canon, "url_sha1": sha, "host_hash": pa.array(hh, pa.uint64())}
    )
    idx = np.flatnonzero(np.array(allowed, bool))
    return rows.take(idx), idx


def link_rows(links: pa.ChunkedArray, store: ContentStoreConfig):
    """A ``links`` list<string> column -> (``url_rows`` of all its
    links in row order, each kept link's row index, its position in
    that row's list).  A null list counts as an empty one."""
    links = links.combine_chunks()
    lens = pc.fill_null(pc.list_value_length(links), 0).to_numpy()
    rows, idx = url_rows(pc.list_flatten(links), store)
    parent = np.repeat(np.arange(lens.size), lens)[idx]
    position = idx - (np.cumsum(lens) - lens)[parent]
    return rows, parent, position


def frontier_rows(rows: pa.Table, depth, disc_wave, disc_parent, disc_link) -> pa.Table:
    """``url_rows`` output + a depth and discovery key per row (arrays,
    or scalars shared by every row) -> ``FRONTIER_SCHEMA`` rows."""
    n = rows.num_rows
    key = [
        pa.array(np.broadcast_to(v, n), f.type)
        for v, f in zip((depth, disc_wave, disc_parent, disc_link), _KEY_FIELDS)
    ]
    return pa.Table.from_arrays(rows.columns + key, schema=FRONTIER_SCHEMA)
