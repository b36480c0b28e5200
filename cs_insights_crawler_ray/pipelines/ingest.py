"""The reference's production ingest pipeline (``cli main`` trace,
SURVEY.md §3.1) re-expressed Ray-Data-first.

Reference flow (``process.py:156-185`` + ``s2processor.py``):
fetch release files -> pass 1 papers (externalids promotion + union
source filter + corpusid set) -> pass 2 metadata (corpusid semi-join)
-> sort + full-outer merge (papers win) -> authors semi-join on the
exploded author list -> rename url->s2url -> jsonl + csv export.

Every reference quirk is preserved deliberately (SURVEY.md §7.5 #6):

- union (OR) semantics of the source filters (s2processor.py:143)
- papers' fields win on merge collision (s2processor.py:115-117)
- ``authorId`` (papers) vs ``authorid`` (authors table) asymmetry
  (s2processor.py:89,93)
- ``url`` renamed ``s2url`` only on the authors table
  (s2processor.py:196)
- glob-order nondeterminism is FIXED here: files read in sorted order.

Execution shape (reworked per VERDICT r01 #2): one task per release
file (the reference's unit of work, s2client.py:153) -> VECTORIZED
batch transforms (no row-level .map/.filter) -> ADAPTIVE semi-joins
and merges: key sets / metadata tables under the broadcast limits ship
once via ray.put (zero shuffles), larger ones switch to the
partitioned-shuffle forms, so no driver dict ever scales with the
corpus.  The general both-sides-large collision merge is
q07_outer_merge (pipelines/relational.py); the metadata merge here
exploits that pass-2 semi-join restricts metadata to papers'
corpusids, so the "full outer" degenerates to papers + extra fields
(s2processor.py:108-118).
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.broadcast import bget

S2_SOURCES = ["ACL", "DBLP", "ArXiv", "PubMed", "PubMedCentral"]

# Broadcast-vs-shuffle thresholds (VERDICT r01 #2): key sets are int
# ids (cheap), metadata rows carry payload text (expensive), so the
# row limit for broadcasting whole metadata tables is much lower.
# Mirrors relational.BROADCAST_KEY_LIMIT / dedup.BROADCAST_PAIR_LIMIT.
BROADCAST_KEY_LIMIT = 2_000_000
BROADCAST_META_ROW_LIMIT = 200_000

# shuffle fan-out for the partitioned merge path (sized ~cores at
# cluster scale; each map_groups call sees one whole partition)
_N_MERGE_PARTS = 32


def _read_jsonl_gz(files: list[str], with_seq: bool = False) -> rd.Dataset:
    """Release-file reader, Arrow-native (VERDICT r02 #5): one task per
    file (the reference's unit of work, s2processor.py:57-68), each
    running ``pyarrow.json.read_json`` over a gzip CompressedInputStream
    — the C++ NDJSON parser with nested-struct inference, an order of
    magnitude over per-line ``json.loads``.  Arrow parses the stream in
    ``block_size`` chunks (bounded memory; one 50 GB release file no
    longer materializes as a single Python list).  A file whose rows
    Arrow cannot unify (dynamic-schema drift — the reference's ``.get``
    world, s2processor.py:144-150) falls back to the per-line Python
    parser as a pandas object-column block; downstream stages consume
    pandas batches either way, so the two block kinds are equivalent.

    ``with_seq``: emit a ``_seq`` int64 column — (file index << 40) +
    row offset, the row's position in deterministic file order.  Rows
    that later ride a hash shuffle lose their arrival order, so any
    last-writer-wins semantics downstream must key on ``_seq``, never
    on post-exchange row order (CLAUDE.md: ordering is data)."""

    def parse(batch: pa.Table):
        import pyarrow.json as paj

        opts = paj.ReadOptions(use_threads=False, block_size=8 << 20)
        idxs = batch["idx"].to_pylist()
        offs = [0] * len(idxs)

        def stamp(n: int, k: int):
            s = np.arange(n, dtype=np.int64) + (
                (int(idxs[k]) << 40) + offs[k]
            )
            offs[k] += n
            return s

        for k, path in enumerate(batch["path"].to_pylist()):
            try:
                with pa.OSFile(path, "rb") as raw, pa.CompressedInputStream(
                    raw, "gzip"
                ) as f:
                    t = paj.read_json(f, read_options=opts)
                if with_seq:
                    t = t.append_column(
                        "_seq", pa.array(stamp(t.num_rows, k), pa.int64())
                    )
                yield t
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                with gzip.open(path, "rt") as f:
                    rows = [json.loads(line) for line in f]
                if rows:
                    df = pd.DataFrame.from_records(rows)
                    if with_seq:
                        df["_seq"] = stamp(len(df), k)
                    yield df

    paths = sorted(files)
    return rd.from_items(
        [{"path": p, "idx": i} for i, p in enumerate(paths)],
        override_num_blocks=max(1, len(paths)),
    ).map_batches(parse, batch_format="pyarrow")


def promote_externalids_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Vectorized F6 over a pandas batch (object columns carry the
    nested dicts).  Dropping the key on a dict row == nulling the
    column cell on a tabular row."""
    if "openaccessinfo" not in b.columns:
        return b
    oa = b["openaccessinfo"]
    # isinstance guard: the per-line fallback parser (from_records on
    # ragged rows) fills missing cells with float NaN, which is truthy
    # and has no .get — a bare `v and v.get(...)` crashes on exactly
    # the dynamic-schema files the fallback exists for
    mask = oa.map(lambda v: isinstance(v, dict) and bool(v.get("externalids")))
    if not mask.any():
        return b
    b = b.copy()
    promoted = oa.map(
        lambda v: v.get("externalids") if isinstance(v, dict) else None
    )
    if "externalids" in b.columns:
        b["externalids"] = b["externalids"].where(~mask, promoted)
    else:
        b["externalids"] = promoted.where(mask, None)
    b.loc[mask, "openaccessinfo"] = None
    return b


def source_filter(doc: dict, filters: tuple[str, ...]) -> bool:
    """F5 (s2processor.py:135-150): UNION semantics — keep the paper
    if ANY selected source id is present (missing/None guards as in
    the reference)."""
    if not filters:
        return True
    ext = doc.get("externalids")
    if not isinstance(ext, dict):
        return False
    return any(ext.get(f) is not None for f in filters)


def source_filter_batch(filters: tuple[str, ...]):
    """Vectorized F5: one boolean mask per batch."""

    def f(b: pd.DataFrame) -> pd.DataFrame:
        if not filters:
            return b
        if "externalids" not in b.columns:
            return b.iloc[0:0]
        keep = b["externalids"].map(
            # isinstance: NaN cells from the fallback parser (see
            # promote_externalids_batch) must filter out, not crash
            lambda e: isinstance(e, dict)
            and any(e.get(x) is not None for x in filters)
        )
        return b[keep]

    return f


def _listify_object_cells(b: pd.DataFrame) -> pd.DataFrame:
    """Arrow->pandas turns list columns (papers.authors) into numpy
    object-array cells, which pyarrow cannot convert BACK ('Unsupported
    numpy type 17') when a downstream stage needs Arrow blocks — round
    them to plain Python lists once, before any Arrow-format stage."""
    b = b.copy()
    for c in b.columns:
        if b[c].dtype == object:
            b[c] = b[c].map(lambda v: v.tolist() if isinstance(v, np.ndarray) else v)
    return b


def _meta_fields(meta: rd.Dataset) -> list[str]:
    cols = meta.schema().names
    return [c for c in cols if c not in ("corpusid", "_seq")]


def _merge_meta_broadcast(papers: rd.Dataset, meta: rd.Dataset) -> rd.Dataset:
    """Papers-win merge with the metadata table broadcast once
    (bounded by BROADCAST_META_ROW_LIMIT).  Papers' existing fields
    win wholesale (the reference's {**extra, **doc}); in the reference
    data papers/metadata fields are disjoint except the join key."""
    fields = _meta_fields(meta)
    # vectorized LUT build (ADVICE r02: iterrows() was a per-row driver
    # loop over up to BROADCAST_META_ROW_LIMIT rows).  Last-wins on
    # duplicate corpusids keys on the _seq column (file-order row
    # stamp) when present: the meta Dataset may have ridden a semi-
    # JOIN exchange on the no-broadcast-keys path, after which batch
    # arrival order is interleaving, not data — sorting by _seq makes
    # "last" mean last-in-file-order, the reference's
    # d[corpusid].update() semantics (s2processor.py:114-118)
    frames = list(meta.iter_batches(batch_format="pandas"))
    mt = (
        pd.concat(frames, ignore_index=True)
        if frames
        else pd.DataFrame(columns=["corpusid"] + fields)
    )
    if "_seq" in mt.columns:
        mt = mt.sort_values("_seq", kind="mergesort")
    # broadcast the deduped meta FRAME, not a per-row dict: the probe
    # below is a vectorized pandas left-merge per batch — the previous
    # corpusid.map(dict.get) + per-field .map paid rows x (1+n_fields)
    # Python closure calls on the UNBOUNDED fact side
    ref = ray.put(
        mt.drop_duplicates("corpusid", keep="last")[["corpusid"] + fields]
        .reset_index(drop=True)
    )

    def merge_bc(b: pd.DataFrame) -> pd.DataFrame:
        m = bget(ref)
        new_fields = [f for f in fields if f not in b.columns]
        if not new_fields:  # papers' field wins (s2processor.py:115-117)
            return b
        merged = b[["corpusid"]].merge(
            m[["corpusid"] + new_fields], on="corpusid", how="left"
        )
        b = b.copy()
        for f in new_fields:
            col = merged[f]
            # None, not pandas NaN, for missing meta (field-identical
            # to the shuffle path — direct path-vs-path test holds)
            b[f] = col.astype(object).where(col.notna(), None).to_numpy()
        return b

    return papers.map_batches(merge_bc, batch_format="pandas")


def _merge_meta_shuffle(papers: rd.Dataset, meta: rd.Dataset) -> rd.Dataset:
    """Papers-win merge as ONE keyed shuffle: both sides are
    hash-partitioned by corpusid into _N_MERGE_PARTS coarse groups and
    each partition does a vectorized pandas left-merge (per-group
    map_groups over millions of corpusids would pay per-group UDF
    overhead; the coarse partition runs the UDF ~_N_MERGE_PARTS
    times).  Nested object columns ride the shuffle as pandas blocks."""
    fields = _meta_fields(meta)

    def add_part(b: pd.DataFrame, side: str) -> pd.DataFrame:
        # listify BEFORE the shuffle: Ray's sort-exchange rejects
        # object columns whose cells are numpy arrays
        from .relational import _add_key_part

        b = _add_key_part(_listify_object_cells(b), "corpusid", _N_MERGE_PARTS)
        # ONE hash-partition kernel (relational's, with the avalanche
        # xor-shift + errstate guard) — a local near-copy had already
        # silently dropped the finalization step
        b["_side"] = side
        return b

    p_tagged = papers.map_batches(lambda b: add_part(b, "p"), batch_format="pandas")
    m_tagged = meta.map_batches(lambda b: add_part(b, "m"), batch_format="pandas")

    # papers-win: only fields papers' ORIGINAL schema lacks merge in
    # (must be computed from the pre-union schemas — after alignment
    # both sides carry every column)
    papers_cols = set(papers.schema().names)
    new_fields = [f for f in fields if f not in papers_cols]

    def merge_part(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g["_side"] == "p"].drop(
            # null placeholders + the meta-side row stamp
            columns=["_part", "_side", "_seq"] + new_fields,
            errors="ignore",
        )
        if not new_fields:
            return p
        # last-wins on duplicate metadata corpusids (ADVICE r02: a left
        # merge would emit one row per duplicate, diverging from the
        # broadcast path's dict semantics and the reference's
        # d[corpusid].update() last-writer-wins, s2processor.py:114-118).
        # "last" = largest _seq (file-order row stamp): rows arrive here
        # out of a hash exchange whose order is task interleaving, so
        # positional keep="last" alone would be run-dependent.
        m = g[g["_side"] == "m"]
        if "_seq" in m.columns:
            m = m.sort_values("_seq", kind="mergesort")
        m = m.drop_duplicates("corpusid", keep="last")
        res = p.merge(m[["corpusid"] + new_fields], on="corpusid", how="left")
        # missing meta = None, matching the broadcast path's dict.get
        # (pandas' left merge fills float NaN, which is truthy and
        # serializes differently)
        for f in new_fields:
            col = res[f]
            res[f] = col.astype(object).where(col.notna(), None)
        return res

    # union requires aligned schemas: give each side the other's
    # missing columns as nulls
    def align(cols):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            for c in cols:
                if c not in b.columns:
                    b[c] = None
            return b[sorted(b.columns)]

        return f

    p_cols = set(papers.schema().names) | {"_part", "_side"}
    m_cols = set(meta.schema().names) | {"_part", "_side"}
    all_cols = p_cols | m_cols
    unioned = p_tagged.map_batches(align(all_cols), batch_format="pandas").union(
        m_tagged.map_batches(align(all_cols), batch_format="pandas")
    )
    return unioned.groupby("_part").map_groups(merge_part, batch_format="pandas")


def ingest_release(
    cache_dir: str,
    out_dir: str | None = None,
    s2_filters: tuple[str, ...] = ("DBLP",),
    use_tables: tuple[str, ...] = ("papers", "abstracts", "authors"),
) -> dict[str, rd.Dataset]:
    """Run the full release pipeline; returns the final Datasets
    (and writes jsonl+csv exports when out_dir is given)."""
    cache = Path(cache_dir)

    # ---- pass 1: papers — promotion, union filter (vectorized) ------
    paper_files = [str(p) for p in sorted(cache.glob("papers*.jsonl.gz"))]
    papers = (
        _read_jsonl_gz(paper_files)
        .map_batches(promote_externalids_batch, batch_format="pandas")
        .map_batches(source_filter_batch(s2_filters), batch_format="pandas")
        .materialize()
    )
    n_papers = papers.count()

    # the filtered corpusid set is bounded by the papers table — the
    # reference holds it as a driver set (s2processor.py:55-68); we
    # broadcast it while it fits, hash-semi-join beyond the limit
    broadcast_keys = n_papers <= BROADCAST_KEY_LIMIT
    if broadcast_keys:
        corpusids = set(papers.select_columns(["corpusid"]).to_pandas()["corpusid"])
        cid_ref = ray.put(corpusids)

    out: dict[str, rd.Dataset] = {}
    merged = papers

    # ---- pass 2: metadata tables — semi-join + papers-win merge ----
    for table in use_tables:
        if table in ("papers", "authors"):
            continue
        files = [str(p) for p in sorted(cache.glob(f"{table}*.jsonl.gz"))]
        if not files:
            continue
        meta = _read_jsonl_gz(files, with_seq=True)
        if broadcast_keys:
            meta = meta.map_batches(
                lambda b: b[b["corpusid"].isin(bget(cid_ref))],
                batch_format="pandas",
            )
        else:
            keys = papers.select_columns(["corpusid"])
            from .relational import JOIN_ARGS, _NPART

            meta = meta.join(
                keys, join_type="left_semi", num_partitions=_NPART,
                on=("corpusid",), **JOIN_ARGS,
            )
        meta = meta.materialize()
        # J3 (s2processor.py:108-118): the semi-join restricted
        # metadata to papers' corpusids, so the reference's "full
        # outer" merge degenerates to papers + extra fields.  Adaptive:
        # broadcast the (bounded) meta table when it fits, else one
        # keyed shuffle.  The general collision form is q07.
        if meta.count() <= BROADCAST_META_ROW_LIMIT:
            merged = _merge_meta_broadcast(merged, meta)
        else:
            merged = _merge_meta_shuffle(merged, meta)

    out["papers"] = merged.map_batches(_listify_object_cells, batch_format="pandas")

    # ---- authors: exploded-list semi-join + rename ------------------
    if "authors" in use_tables:
        author_files = [str(p) for p in sorted(cache.glob("authors*.jsonl.gz"))]

        def explode_ids(b: pd.DataFrame) -> pd.DataFrame:
            # `lst` may arrive as a numpy array (Arrow list column ->
            # pandas), where truthiness is ambiguous — test length
            ids = [
                a["authorId"]
                for lst in b["authors"]
                # list/ndarray only: None and float-NaN cells (the
                # fallback parser's missing-column fill) have no len()
                for a in (lst if isinstance(lst, (list, np.ndarray)) else [])
                if isinstance(a, dict) and a.get("authorId") is not None
            ]
            return pd.DataFrame({"authorId": pd.Series(sorted(set(ids)), dtype="object")})

        id_rows = papers.select_columns(["authors"]).map_batches(
            explode_ids, batch_format="pandas"
        ).materialize()
        # distinct ids are bounded by the papers table; broadcast while
        # small, hash-semi-join beyond the limit
        if id_rows.count() <= BROADCAST_KEY_LIMIT:
            paper_author_ids = set(id_rows.to_pandas()["authorId"])
            aid_ref = ray.put(paper_author_ids)
            authors = _read_jsonl_gz(author_files).map_batches(
                # NOTE lowercase 'authorid' here vs camelCase in papers —
                # the reference's asymmetry, preserved (s2processor.py:93)
                lambda b: b[b["authorid"].isin(bget(aid_ref))],
                batch_format="pandas",
            )
        else:
            from ray.data.aggregate import Count as _Count

            from .relational import JOIN_ARGS, _NPART

            distinct_ids = (
                id_rows.groupby("authorId")
                .aggregate(_Count(alias_name="_n"))
                .map_batches(lambda b: b[["authorId"]], batch_format="pandas")
            )
            authors = _read_jsonl_gz(author_files).join(
                distinct_ids, join_type="left_semi", num_partitions=_NPART,
                on=("authorid",), right_on=("authorId",), **JOIN_ARGS,
            )
        authors = authors.map_batches(_rename_url_s2url_batch, batch_format="pandas")
        out["authors"] = authors

    # ---- sinks ------------------------------------------------------
    if out_dir is not None:
        from ..sources.sinks import clear_partition

        for name, ds in out.items():
            # materialize once: each output is a lazy pipeline, and the
            # two sinks (plus the caller's own consumption of the
            # returned Dataset) would otherwise re-run the whole
            # read+parse+join lineage per sink
            ds = ds.materialize()
            out[name] = ds
            jp, cp = f"{out_dir}/{name}_jsonl", f"{out_dir}/{name}_csv"
            clear_partition(jp), clear_partition(cp)
            ds.write_json(jp)
            # csv needs flat columns; nested cols are json-encoded
            ds.map_batches(_flatten_for_csv, batch_format="pyarrow").write_csv(cp)
    return out


def _rename_url_s2url_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Vectorized F8: a column-level rename (url -> s2url)."""
    if "url" in b.columns:
        b = b.rename(columns={"url": "s2url"})
    return b


def _flatten_for_csv(t: pa.Table) -> pa.Table:
    """S13 (s2processor.py:231-257): flatten nested structs to dotted
    columns; lists are json-encoded (pd.json_normalize analog)."""
    t = t.flatten()
    cols = {}
    for name in t.column_names:
        col = t[name]
        if pa.types.is_list(col.type) or pa.types.is_struct(col.type):
            cols[name] = pa.array(
                [json.dumps(v) for v in col.to_pylist()], pa.string()
            )
        else:
            cols[name] = col
    return pa.table(cols)
