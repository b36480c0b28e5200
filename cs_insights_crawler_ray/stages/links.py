"""Link discovery: the vectorized explode of the fused fetch task's
prepared link columns into frontier rows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.seen import FRONTIER_SCHEMA


def explode_prepared(batch: pa.Table, wave: int, max_depth: int) -> pa.Table:
    """Vectorized explode of the fused stage's prepared link columns
    (stages/fetch.py fetch_decode_link_task) straight into canonical
    frontier rows: list_flatten + np.repeat — no per-link Python.

    Discovery key carried per row: (disc_wave=wave, disc_parent =
    parent fetch_seq, disc_link = position in the page's link list).
    Robots-blocked links and depth overruns are dropped here.
    """
    import pyarrow.compute as pc

    t = batch.filter(pc.equal(batch["status"], pa.scalar("200")))
    if t.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table()
    lens = pc.list_value_length(t["link_canon"]).to_numpy(zero_copy_only=False)
    total = int(lens.sum())
    if total == 0:
        return FRONTIER_SCHEMA.empty_table()
    parent = np.repeat(t["fetch_seq"].to_numpy(zero_copy_only=False), lens)
    depth = np.repeat(t["depth"].to_numpy(zero_copy_only=False) + 1, lens).astype(np.int32)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    link_idx = (np.arange(total) - np.repeat(starts, lens)).astype(np.int32)
    allowed = pc.list_flatten(t["link_allowed"]).to_numpy(zero_copy_only=False)
    keep = pa.array(allowed & (depth <= max_depth))
    out = pa.table(
        {
            "url_canon": pc.list_flatten(t["link_canon"]),
            "url_hex": pc.list_flatten(t["link_hex"]),
            "url_sha1": pc.list_flatten(t["link_sha1"]).cast(pa.binary(20)),
            "host": pc.list_flatten(t["link_host"]),
            "host_hash": pc.list_flatten(t["link_host_hash"]).cast(pa.uint64()),
            "depth": pa.array(depth, pa.int32()),
            "disc_wave": pa.array(np.full(total, wave, dtype=np.int32), pa.int32()),
            "disc_parent": pa.array(parent, pa.int64()),
            "disc_link": pa.array(link_idx, pa.int32()),
        }
    )
    return out.filter(keep)
