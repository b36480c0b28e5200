"""Sinks: payload table writer (Lance when available, parquet
otherwise), jsonl/csv exports.

The payload sink is the analog of the reference's release export
(``s2processor.py:209-257``: gzip JSONL + flattened CSV) with the
north_rule's Lance target.  ``pylance`` is not installed in this
sandbox, so the writer is abstracted: one call site, two backends,
identical directory layout — one directory per wave/partition so a
resumed run skips finished partitions (never one giant file).

``write_payload`` takes the wave's payload as a list of Arrow block
refs (the crawl's fetched blocks, projected) rather than a Dataset:
the parquet backend writes them with one plain task per block, so a
wave's payload costs no Dataset execution and no read-back to count
its rows.
"""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

HAVE_LANCE = importlib.util.find_spec("lance") is not None

# input_hint schema for the payload table
PAYLOAD_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


@ray.remote
def _write_part(tbl: pa.Table, path: str, keep_empty: bool = True) -> int:
    """Write one table to one parquet file (a retried task rewrites the
    same path); ``keep_empty=False`` writes no file for zero rows."""
    if tbl.num_rows or keep_empty:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        pq.write_table(tbl, path)
    return tbl.num_rows


def write_payload(blocks: list, root: str, partition: str) -> int:
    """Write one payload partition (e.g. ``wave=000003``) under root
    from a list of Arrow table refs; returns the rows written, once
    they are durable.

    Parquet backend: one writer task per block, file
    ``{root}/{partition}/part-{block index:05d}.parquet`` (a zero-row
    block writes no file, so a zero-row wave leaves no partition dir);
    the count is the sum the tasks return.  The Lance backend commits
    a versioned fragment set and counts the committed manifest.  Both
    are idempotent at partition granularity:
    a re-run REPLACES the partition wholesale (any half-written files
    from a killed run are cleared first; the manifest referencing the
    partition is only committed after the write, so a committed wave
    is never re-run).
    """
    out = f"{root}/{partition}"
    clear_partition(out)
    if HAVE_LANCE:
        # Ray's DISTRIBUTED Lance writer (each task writes fragments,
        # one commit) — no driver materialization.  mode='create' on a
        # just-cleared partition dir keeps the replace-partition
        # idempotence contract identical to the parquet branch.
        # Call shape held by tests/test_sinks.py::test_lance_branch_contract
        # (pylance itself is absent in this sandbox).
        rd.from_arrow_refs(blocks).write_lance(out, mode="create")
        return committed_lance_rows(out)
    return sum(
        ray.get(
            [
                _write_part.remote(b, f"{out}/part-{i:05d}.parquet", False)
                for i, b in enumerate(blocks)
            ]
        )
    )


def committed_lance_rows(path: str) -> int:
    """Rows in one Lance payload partition per its COMMITTED manifest —
    a dead-then-retried write task leaves orphaned uuid-named fragment
    files under data/ that no committed version references, so counting
    files would inflate the wave's payload_rows past its admitted
    count.  An all-quarantined wave writes no fragments, so the sink
    never commits a version: that is zero rows, not a failed write."""
    import lance

    try:
        return lance.dataset(path).count_rows()
    except (FileNotFoundError, ValueError):
        return 0


def read_payload(root: str) -> rd.Dataset:
    if HAVE_LANCE:
        # each wave/partition is its own Lance dataset (write_payload's
        # replace-partition unit); the whole payload is their union.
        # A bare root with no partition subdirs is read as one dataset.
        # A partition dir with no committed version is SKIPPED, not an
        # error: a zero-row wave writes no fragments (the sink never
        # commits), and a kill between fragment write and commit leaves
        # the same shape — in both cases the committed manifest says
        # the wave holds no readable payload, and resume rewrites it.
        parts = [p for p in list_partitions(root) if "=" in p]
        if not parts:
            return rd.read_lance(root)
        import lance

        readers = []
        for p in parts:
            path = f"{root}/{p}"
            try:
                lance.dataset(path)
            except (FileNotFoundError, ValueError):
                # not a committed lance dataset.  If the partition
                # holds top-level parquet part files it was written by
                # the parquet backend (e.g. a crawl started before
                # pylance was installed) — read it as parquet rather
                # than silently dropping committed payload.  Otherwise
                # it is a genuinely uncommitted lance partition (zero-
                # row wave, or a kill between fragment write and
                # commit): skip it, resume rewrites it.
                if next(Path(path).glob("*.parquet"), None) is not None:
                    # partitioning=None: don't hive-infer a 'wave'
                    # column from the path — it would poison the union
                    # schema against the lance-read partitions
                    readers.append(rd.read_parquet(path, partitioning=None))
                continue
            readers.append(rd.read_lance(path))
        if not readers:
            return rd.from_arrow(PAYLOAD_SCHEMA.empty_table())
        out = readers[0]
        for r in readers[1:]:
            out = out.union(r)
        return out
    return rd.read_parquet(root)


def write_jsonl(ds: rd.Dataset, path: str) -> None:
    """JSONL export (reference to_jsonl, s2processor.py:209-229)."""
    ds.write_json(path)


def write_csv_flat(ds: rd.Dataset, path: str) -> None:
    """CSV export with nested structs flattened to dotted columns
    (reference to_csv uses pd.json_normalize, s2processor.py:231-257;
    pyarrow Table.flatten() gives the same dotted naming)."""
    ds.map_batches(lambda t: t.flatten(), batch_format="pyarrow").write_csv(path)


def clear_partition(path: str) -> None:
    """Idempotent-partition-write helper: remove a (possibly
    half-written) partition directory before rewriting it."""
    p = Path(path)
    if p.exists():
        shutil.rmtree(p)


def list_partitions(root: str) -> list[str]:
    p = Path(root)
    if not p.exists():
        return []
    return sorted(d.name for d in p.iterdir() if d.is_dir())
