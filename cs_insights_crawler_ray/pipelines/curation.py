"""q105 — the composed end-to-end curation pipeline: every green
operator family chained into ONE corpus-curation run, the product the
individual entries exist for (reference analog: the reference's
``process.main`` end-to-end trace — ``/root/reference/csinsights/
process.py:156-185`` chains client → filter → merge → export the
same way, serially).

Stage chain (each stage's semantics are the already-oracled entry's,
so the composition has exactly one new degree of freedom — the
wiring):

  documents
    → quality gates       (q96's g1/g2/g3: lang, length band,
                           distinct-token diversity)
    → exact dedup         (q96 gate 4 / q10: min doc_id per md5(text)
                           among gate survivors)
    → near-dup drop       (q38 groups at trigram-jaccard ≥ 0.7: keep
                           representatives + singletons, q70's rule)
    → decontaminate       (q61: drop eval docs (doc_id % CUR_EVAL_MOD == 0) and
                           any train doc sharing ≥ CUR_DECON_MIN
                           distinct trigrams with the eval set)
    → token-budget select (q60: stopword-ppm quality rank, running
                           token sum cut at total_survivor_tokens //
                           CUR_BUDGET_FRAC)
    → shard export        (q51: Fibonacci-hash shards, hive-
                           partitioned parquet, counters derived from
                           the WRITTEN files)

Returned table: (shard, n_docs, sum_tokens) — computed by reading the
export back, so the driver's value-hash transitively checks the whole
chain INCLUDING the write → read round trip.

Scale shape (the point of the composition — no stage boundary forces
a hidden materialization):
  * gates + scoring run in ONE stateless pass; only (md5, doc_id,
    quality, n_tokens) for gate-SURVIVORS enter the shared crc32(h)
    32-way exchange where the exact-dedup winner is partition-local
    (q96's shape) — text never shuffles.
  * the near-dup group table and the contamination flag set are
    bounded by dup/contamination density, not corpus size: both ride
    the adaptive broadcast-below-limit / hash-join-above-limit switch
    (q70's shape; the join path is force-tested).
  * budget selection materializes only the (doc_id, quality,
    n_tokens) survivor triples — 3 ints/row — and cuts via q60's
    block-offset prefix sums (n_blocks ints to the driver).
  * the export semi-joins selected ids back against the documents
    table (the q05 pattern) and writes one directory per shard —
    replace-partition resumable, never one giant file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.broadcast import bget
from ..functions.text import _LANG_PROFILES, _WORD_RE as _QRE, stopword_hits
from ..sources.sinks import clear_partition
from .dedup import (
    _SHINGLE_N,
    _SPLIT_BROADCAST_LIMIT,
    _join_nparts,
    _sorted_lookup,
    q38_dup_groups,
    q61_decontaminate,
)
from .mlprep import _crc_part32, _key_hash32, _pack_block_sum, _select_block
from .relational import JOIN_ARGS
from .textops import (
    FUNNEL_DIV_PPM,
    FUNNEL_LEN_HI,
    FUNNEL_LEN_LO,
    _ascii_tokens,
    _flat_distinct_counts,
)

CUR_NEAR_T = 0.7       # q38/q70's trigram-jaccard group threshold
CUR_DECON_MIN = 3      # drop train docs sharing >= this many eval grams
CUR_BUDGET_FRAC = 4    # keep the top-quality quarter of survivor tokens
CUR_SHARDS = 8         # export fan-out
CUR_EVAL_MOD = 97      # eval docs are doc_id % CUR_EVAL_MOD == 0


def _gate_and_score(b: pd.DataFrame) -> pd.DataFrame:
    """Gates g1–g3 (q96's rules) + the q60 quality/token scores in one
    vectorized pass; emits ONLY gate survivors — non-survivors never
    enter the dedup exchange."""
    import hashlib

    b = b.reset_index(drop=True)
    g1 = (b["lang"] == "en").to_numpy()
    nc = b["n_chars"].to_numpy(np.int64)
    g2 = g1 & (nc >= FUNNEL_LEN_LO) & (nc <= FUNNEL_LEN_HI)
    toks = _ascii_tokens(b["text"])
    nt = toks.str.len().to_numpy(dtype=np.int64)
    ndist = _flat_distinct_counts(toks, len(b))
    ppm = ndist * 1_000_000 // np.maximum(nt, 1)
    g3 = g2 & (nt > 0) & (ppm >= FUNNEL_DIV_PPM)
    s = b[g3]
    if not len(s):
        return pd.DataFrame(
            {
                "h": pd.Series([], dtype=str),
                "doc_id": pd.Series([], dtype=np.int64),
                "quality": pd.Series([], dtype=np.int64),
                "n_tokens": pd.Series([], dtype=np.int64),
                "_part": pd.Series([], dtype=np.int32),
            }
        )
    words = s["text"].str.lower().str.findall(_QRE)
    n_words = words.str.len().clip(lower=1).to_numpy()
    hits = stopword_hits(words, _LANG_PROFILES["en"])
    out = pd.DataFrame(
        {
            "h": [hashlib.md5(t.encode("utf-8")).hexdigest() for t in s["text"]],
            "doc_id": s["doc_id"].to_numpy(np.int64),
            "quality": (hits * 1_000_000) // n_words,
            # nt already counts the identical \S+ runs (token_counts
            # is str.count of the same ASCII pattern) — no second
            # regex pass over the survivor text (r05 review)
            "n_tokens": nt[g3.nonzero()[0]],
        }
    )
    out["_part"] = _crc_part32(out["h"])
    return out


def _exact_winners(g: pd.DataFrame) -> pd.DataFrame:
    """Partition-local exact-dedup decision: min doc_id per content
    hash (same h always lands in the same crc32 partition)."""
    w = g.sort_values(["h", "doc_id"], kind="mergesort").drop_duplicates("h")
    return w[["doc_id", "quality", "n_tokens"]]


def _dropset_tables(sf_dir: str) -> tuple[rd.Dataset, rd.Dataset]:
    """(near-dup non-representatives, contamination-flagged docs) as
    single-column doc_id Datasets."""
    groups = q38_dup_groups(sf_dir, CUR_NEAR_T)
    near_drop = groups.map_batches(
        lambda b: b.loc[b["doc_id"] != b["group_id"], ["doc_id"]],
        batch_format="pandas",
    )
    flagged = q61_decontaminate(sf_dir, CUR_EVAL_MOD).map_batches(
        lambda b: b.loc[b["n_shared"] >= CUR_DECON_MIN, ["doc_id"]],
        batch_format="pandas",
    )
    return near_drop, flagged


def _anti_filter(
    ds: rd.Dataset, drop: rd.Dataset, broadcast_limit: int
) -> rd.Dataset:
    """ds minus drop (by doc_id): broadcast-sorted-array membership
    below the limit, left-outer hash join above it (q70's adaptive
    switch)."""
    drop = drop.materialize()
    if drop.count() <= broadcast_limit:
        ids = np.sort(
            drop.to_pandas()["doc_id"].to_numpy(np.int64)
            if drop.count()
            else np.zeros(0, np.int64)
        )
        ref = ray.put(ids)

        def keep(b: pd.DataFrame) -> pd.DataFrame:
            d = b["doc_id"].to_numpy(np.int64)
            arr = bget(ref)
            _, hit = _sorted_lookup(arr, arr, d)
            return b[~hit]

        return ds.map_batches(keep, batch_format="pandas")

    marked = drop.map_batches(
        lambda b: b.assign(_dropmark=np.int64(1)), batch_format="pandas"
    )
    joined = ds.join(
        marked, join_type="left_outer", num_partitions=_join_nparts(),
        on=("doc_id",), **JOIN_ARGS,
    )

    def survivors(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = t["_dropmark"].combine_chunks()
        return t.filter(pc.is_null(m)).drop_columns(["_dropmark"])

    return joined.map_batches(survivors, batch_format="pyarrow")


def _export_config(sf_dir: str) -> dict:
    """The determinism fingerprint of a q105 export: same config ⇒
    byte-identical output, so a matching committed manifest makes a
    re-run skippable (the resumable-output contract).  It holds every
    constant the export's bytes depend on, so changing one invalidates
    old exports without a manual version bump."""
    return {
        "sf_dir": str(sf_dir),
        "near_t": CUR_NEAR_T,
        "decon_min": CUR_DECON_MIN,
        "budget_frac": CUR_BUDGET_FRAC,
        "shards": CUR_SHARDS,
        "eval_mod": CUR_EVAL_MOD,
        "funnel_len": [FUNNEL_LEN_LO, FUNNEL_LEN_HI],
        "funnel_div_ppm": FUNNEL_DIV_PPM,
        "shingle_n": _SHINGLE_N,
        "stoplist": sorted(_LANG_PROFILES["en"]),
        "version": 1,
    }


def _counters_from(out_root: str) -> pa.Table:
    """(shard, n_docs, sum_tokens) derived by READING the export —
    shared by the fresh run and the resume path, so both return the
    write → read round-trip-checked numbers."""
    back = rd.read_parquet(out_root, columns=["shard", "doc_id", "n_tokens"])

    def counters(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("shard", as_index=False).agg(
            n_docs=("doc_id", "size"), sum_tokens=("n_tokens", "sum")
        )
        g["shard"] = g["shard"].astype("int64")
        return g

    parts = back.map_batches(counters, batch_format="pandas").to_pandas()
    out = (
        parts.groupby("shard", as_index=False)[["n_docs", "sum_tokens"]]
        .sum()
        .sort_values("shard")
    )
    return pa.table(
        {
            "shard": pa.array(out["shard"].to_numpy(np.int64), pa.int64()),
            "n_docs": pa.array(out["n_docs"].to_numpy(np.int64), pa.int64()),
            "sum_tokens": pa.array(
                out["sum_tokens"].to_numpy(np.int64), pa.int64()
            ),
        }
    )


def q105_curation_pipeline(
    sf_dir: str,
    out_root: str | None = None,
    broadcast_limit: int = _SPLIT_BROADCAST_LIMIT,
    resume: bool = False,
) -> pa.Table:
    out_root = out_root or f"/tmp/ciq_curation_{Path(sf_dir).name}"
    manifest = Path(out_root) / "_manifest.json"
    if resume and manifest.exists():
        try:
            m = json.loads(manifest.read_text())
        except Exception:
            m = None
        if m and m.get("config") == _export_config(sf_dir):
            # a committed export of the identical deterministic config:
            # zero recompute, counters re-derived from the shards (a
            # corrupted shard file fails loudly here) and checked
            # against the committed totals: a deleted shard=K directory
            # reads back fine, just short
            got = _counters_from(out_root)
            totals = (sum(got["n_docs"].to_pylist()), sum(got["sum_tokens"].to_pylist()))
            if totals == (m.get("n_docs"), m.get("sum_tokens")):
                return got
        # config drift, unreadable manifest or missing shards: rebuild
    clear_partition(out_root)

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars"],
    )
    # gates → exact dedup: one pass + the shared crc32(h) exchange
    kept = (
        docs.map_batches(_gate_and_score, batch_format="pandas")
        .groupby("_part")
        .map_groups(_exact_winners, batch_format="pandas")
    )
    # near-dup drop + decontamination (+ eval-holdout exclusion); each
    # drop set materializes inside its _anti_filter, one after the other
    near_drop, flagged = _dropset_tables(sf_dir)
    kept = _anti_filter(kept, near_drop, broadcast_limit)
    kept = _anti_filter(kept, flagged, broadcast_limit)
    kept = kept.map_batches(
        lambda b: b[b["doc_id"].to_numpy(np.int64) % CUR_EVAL_MOD != 0],
        batch_format="pandas",
    )

    # token-budget selection: q60's block-offset prefix-sum cut over
    # the 3-int survivor triples
    scored = kept.materialize()
    total = int(scored.sum("n_tokens") or 0)
    budget = total // CUR_BUDGET_FRAC
    s = scored.sort(["quality", "doc_id"], descending=[True, False])
    refs = s.to_arrow_refs()
    sums = ray.get([_pack_block_sum.remote(r) for r in refs])
    offs = np.concatenate(([0], np.cumsum(sums)[:-1])) if sums else []
    sel = rd.from_arrow_refs(
        [_select_block.remote(r, int(o), budget) for r, o in zip(refs, offs)]
    ).materialize()

    # export: semi-join selected ids back to text, shard by Fibonacci
    # hash, write hive-partitioned parquet (q51's shape)
    n_sel = sel.count()
    if n_sel == 0:
        # nothing survived the budget cut (tiny / all-filtered corpus):
        # the export writes no files, so the read-back would raise on a
        # missing directory — return the 0-row counters table the
        # oracle's empty GROUP BY also produces (r05 review)
        e = pa.array([], pa.int64())
        return pa.table({"shard": e, "n_docs": e, "sum_tokens": e})
    text_ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    if n_sel <= broadcast_limit:
        sp = sel.to_pandas()
        order = np.argsort(sp["doc_id"].to_numpy(np.int64), kind="stable")
        sref = ray.put(
            (
                sp["doc_id"].to_numpy(np.int64)[order],
                sp["n_tokens"].to_numpy(np.int64)[order],
            )
        )

        def attach(b: pd.DataFrame) -> pd.DataFrame:
            ids, ntk = bget(sref)
            d = b["doc_id"].to_numpy(np.int64)
            n, hit = _sorted_lookup(ids, ntk, d)
            out = b[hit].copy()
            out["n_tokens"] = n[hit]
            return out

        export = text_ds.map_batches(attach, batch_format="pandas")
    else:
        export = text_ds.join(
            sel.select_columns(["doc_id", "n_tokens"]),
            join_type="inner", num_partitions=_join_nparts(),
            on=("doc_id",), **JOIN_ARGS,
        )

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["shard"] = _key_hash32(b["doc_id"]) % np.int64(CUR_SHARDS)
        return b

    export.map_batches(tag, batch_format="pandas").write_parquet(
        out_root, partition_cols=["shard"]
    )

    # counters from the WRITTEN files: the oracle transitively checks
    # the full chain + the write → read round trip
    result = _counters_from(out_root)
    # commit the manifest LAST (atomic tmp+rename): its presence means
    # "every shard above is complete for this config" — a kill at any
    # earlier point leaves no manifest and resume rebuilds from scratch
    # (shard writes themselves are replace-partition idempotent)
    tmp = manifest.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(
        json.dumps(
            {
                "config": _export_config(sf_dir),
                "n_docs": int(sum(result["n_docs"].to_pylist())),
                "sum_tokens": int(sum(result["sum_tokens"].to_pylist())),
            }
        )
    )
    os.replace(tmp, manifest)
    return result
