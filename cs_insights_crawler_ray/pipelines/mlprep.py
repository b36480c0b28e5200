"""Training-data preparation operators: exact grouped quantiles,
TF-IDF term ranking, deterministic stratified sampling.

Three more of the operations a 100 TB corpus pipeline needs beyond
the reference's surface (the reference computes nothing statistical —
its closest analog is the debug-log timing arithmetic in
``s2client.py:128-141``).  All three are fully SQL-oracled: every
ranking/selection decision is made in integer space (or on doubles
computed by the identical IEEE operation on both sides), so the
driver's value-hash compare is exact, never tolerance-based.

Scale shapes:

- quantiles: per-block value-count partials -> coarse keyed sum (the
  ``_grouped_sum_parts`` trick) -> per-stratum quantile pick over the
  VALUE HISTOGRAM.  Work after the first pass is O(distinct values),
  not O(rows) — the standard exact-quantile shape for discrete/binned
  columns (for unbounded continuous columns you'd bin first or accept
  a mergeable sketch).
- tf-idf: document-frequency partials aggregate once (vocabulary
  scale), the idf table broadcasts (``ray.put`` once, ``bget`` per
  process), and the per-doc tf + top-k runs inside one ``map_batches``
  pass with NO doc-side shuffle (a doc's tokens never leave its row).
- stratified sample: per-stratum counts (one tiny aggregate) broadcast
  into a stateless keep-predicate ``h(doc_id) mod n_s < target`` — no
  reservoir state, no driver pass, identical row set on ANY cluster
  shape/ordering.  The hash is the vectorized Fibonacci multiplicative
  kernel (``_key_hash32``), which DuckDB replays EXACTLY with HUGEINT
  arithmetic — so the production kernel and the SQL oracle are the
  same function (no md5-per-row anchor needed).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import zlib
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.broadcast import bget

_WORD_RE = re.compile(r"[0-9a-z_]+")

# exact quantile fractions as integer rationals: rank arithmetic stays
# in integer space (float ceil(q*N) flips when q*N lands just above an
# integer — e.g. ceil(0.07*100) == 8 — and the driver hash would flake)
QUANTILES: tuple[tuple[str, int, int], ...] = (
    ("p50", 1, 2),
    ("p90", 9, 10),
    ("p99", 99, 100),
)


def q48_grouped_quantiles(sf_dir: str) -> rd.Dataset:
    """Exact per-source quantiles of documents.n_chars ->
    (source, p50, p90, p99).

    PERCENTILE_DISC semantics: the value at 1-indexed rank
    ``ceil(num*N/den)`` of the sorted column — mirrored in the oracle
    with the same integer rank formula ``(num*N - 1) // den + 1``."""

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )

    def hist_part(b: pd.DataFrame) -> pd.DataFrame:
        # per-block histogram partial; only (source, value, count)
        # rows cross the coarse stratum-keyed shuffle
        g = b.groupby(["source", "n_chars"], as_index=False).size()
        g = g.rename(columns={"size": "cnt"})
        # _part is internal-only (a shuffle key, never replayed by the
        # oracle) — crc32 like q49/q55/q58, not per-row Python md5
        g["_part"] = np.array(
            [zlib.crc32(s.encode()) & 7 for s in g["source"]], dtype=np.int32
        )
        return g

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        out = {"source": [], **{name: [] for name, _, _ in QUANTILES}}
        for src, grp in g.groupby("source"):
            grp = grp.groupby("n_chars", as_index=False)["cnt"].sum().sort_values(
                "n_chars"
            )
            vals = grp["n_chars"].to_numpy()
            cum = grp["cnt"].to_numpy().cumsum()
            n = int(cum[-1])
            out["source"].append(src)
            for name, num, den in QUANTILES:
                rank = (num * n - 1) // den + 1  # ceil(num*n/den), ints only
                out[name].append(int(vals[np.searchsorted(cum, rank)]))
        return pd.DataFrame(out)

    return (
        ds.map_batches(hist_part, batch_format="pandas")
        .groupby("_part")
        .map_groups(pick, batch_format="pandas")
    )


# idf tables beyond this row count should hash-join instead of
# broadcast (same adaptive pattern as relational.BROADCAST_KEY_LIMIT);
# vocabulary grows ~log(corpus), so broadcast is the 100 TB default
BROADCAST_VOCAB_LIMIT = 2_000_000


def q49_tfidf_top_terms(sf_dir: str, top: int = 3) -> rd.Dataset:
    """Per-document top-``top`` terms by tf-idf ->
    (doc_id, term, tf, df).

    idf = ln(N/df) on float64; score = tf * idf.  Both sides compute
    the identical double (same division, same libm log, same multiply)
    and the OUTPUT columns are integers/strings only, so float
    determinism affects ranking alone — and mathematically-tied scores
    fall through to the integer tie-break (tf desc, term asc)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tokens(b: pd.DataFrame) -> pd.Series:
        return b["text"].str.lower().str.findall(_WORD_RE)

    # ---- pass 1: document frequency (one aggregate at vocab scale)
    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        terms = tokens(b).map(set)
        flat: list[str] = []
        for s in terms:
            flat.extend(s)
        g = pd.Series(flat, dtype="object").value_counts()
        return pd.DataFrame({"term": g.index.astype(str), "df_part": g.to_numpy()})

    # string-keyed coarse grouped sum — shared _term_grouped_sum
    # (relational._grouped_sum_parts hashes int keys; terms partition
    # by crc32 — same shape: only pre-combined (term, df_part)
    # partials cross the 32-way exchange)
    df_rows = (
        _term_grouped_sum(
            docs.map_batches(df_partial, batch_format="pandas"), "df_part"
        )
        .to_pandas()  # bounded: vocabulary rows
        .rename(columns={"df_part": "df"})
    )
    if len(df_rows) > BROADCAST_VOCAB_LIMIT:  # pragma: no cover - scale guard
        raise NotImplementedError(
            "vocabulary exceeds broadcast limit; hash-join the idf table "
            "(relational.q05's left_semi shape) instead of broadcasting"
        )
    n_docs = docs.count()
    idf = {t: math.log(n_docs / int(d)) for t, d in zip(df_rows["term"], df_rows["df"])}
    df_map = dict(zip(df_rows["term"], df_rows["df"].astype(int)))
    lut_ref = ray.put((idf, df_map))

    # ---- pass 2: per-doc tf + top-k, zero doc-side shuffle
    def topk(b: pd.DataFrame) -> pd.DataFrame:
        idf_l, df_l = bget(lut_ref)
        toks = tokens(b)
        doc_ids = np.repeat(
            b["doc_id"].to_numpy().astype(np.int64), toks.str.len().to_numpy()
        )
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks]) if len(
            toks
        ) else np.array([], dtype=object)
        tf = (
            pd.DataFrame({"doc_id": doc_ids, "term": flat})
            .groupby(["doc_id", "term"], as_index=False)
            .size()
            .rename(columns={"size": "tf"})
        )
        tf["score"] = tf["tf"].to_numpy() * tf["term"].map(idf_l).to_numpy()
        tf = tf.sort_values(
            ["doc_id", "score", "tf", "term"],
            ascending=[True, False, False, True],
        )
        out = tf.groupby("doc_id", as_index=False).head(top)
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"].astype("int64"),
                "term": out["term"].astype(str),
                "tf": out["tf"].astype("int64"),
                "df": out["term"].map(df_l).astype("int64"),
            }
        )

    return docs.map_batches(topk, batch_format="pandas")


def q51_shard_export(
    sf_dir: str, n_shards: int = 16, out_root: str | None = None
) -> pa.Table:
    """Deterministic hash-shard export: write documents into
    ``n_shards`` hive-partitioned parquet directories
    (``shard=N/``) and return per-shard counters
    (shard, n_docs, sum_chars) computed from the WRITTEN files.

    The training-data export shape: shard assignment is a pure
    function of the key (``fib_hash32(doc_id) mod n_shards`` — no driver
    state, any cluster shape produces the same layout), output is one
    directory per shard (a failed export re-runs by replacing
    partitions, never one giant file), and the returned counters are
    derived by reading the export back — so the SQL oracle (which
    recomputes shard assignment from the source table) transitively
    value-checks the write -> read round trip, row for row."""
    from ..sources.sinks import clear_partition

    out_root = out_root or f"/tmp/ciq_shards_{Path(sf_dir).name}"
    clear_partition(out_root)
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["shard"] = _key_hash32(b["doc_id"]) % np.int64(n_shards)
        return b

    docs.map_batches(tag, batch_format="pandas").write_parquet(
        out_root, partition_cols=["shard"]
    )
    back = rd.read_parquet(out_root)

    def counters(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("shard", as_index=False).agg(
            n_docs=("doc_id", "size"), sum_chars=("n_chars", "sum")
        )
        g["shard"] = g["shard"].astype("int64")
        return g

    partial = back.map_batches(counters, batch_format="pandas").to_pandas()
    out = partial.groupby("shard", as_index=False)[["n_docs", "sum_chars"]].sum()
    return pa.table(
        {
            "shard": pa.array(out["shard"].astype("int64"), pa.int64()),
            "n_docs": pa.array(out["n_docs"].astype("int64"), pa.int64()),
            "sum_chars": pa.array(out["sum_chars"].astype("int64"), pa.int64()),
        }
    )


_FIB = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio (Knuth)


def _key_hash32(keys: pd.Series | np.ndarray) -> np.ndarray:
    """Fibonacci (Knuth multiplicative) hash of an int64 key column:
    high 32 bits of ``key * 2^64/phi mod 2^64`` — ONE vectorized numpy
    multiply+shift per block.  Replaces the per-row ``hashlib.md5``
    loop that sat in the q50/q51/q55 keep-predicates (r03 hot-path
    finding: every corpus row paid a Python md5 call; this kernel is
    ~3 orders of magnitude faster per row, pytest-microbenched).

    DuckDB replays it EXACTLY with HUGEINT arithmetic, so the driver's
    value-hash compare gates this very kernel::

        CAST(((CAST(k AS HUGEINT) * 11400714819323198485)
              % 18446744073709551616) // 4294967296 AS BIGINT)
    """
    k = np.asarray(keys, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        return ((k * _FIB) >> np.uint64(32)).astype(np.int64)


def _source_counts(docs: rd.Dataset) -> dict[str, int]:
    """Per-source row counts: per-block partials, driver-side final sum
    (bounded: n_blocks × n_strata rows) — the one coordination step the
    sampling family (q50/q55) shares."""

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("source", as_index=False).size()
        return g.rename(columns={"size": "n_part"})

    return (
        docs.map_batches(count_partial, batch_format="pandas")
        .to_pandas()
        .groupby("source")["n_part"]
        .sum()
        .to_dict()
    )


def q50_stratified_sample(sf_dir: str, target: int = 8) -> rd.Dataset:
    """Deterministic stratified subsample: ~``target`` docs per source
    stratum -> (doc_id, source).

    keep iff  fib_hash32(doc_id) mod n_s < min(n_s, target)  — an exact,
    stateless, order-independent predicate (expected kept count =
    target for a uniform hash; EXACT row set fixed by the data alone).
    The per-stratum counts are the only coordination: one tiny
    aggregate, broadcast once."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    cref = ray.put(_source_counts(docs))

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        cmap = bget(cref)
        h = _key_hash32(b["doc_id"])
        ns = b["source"].map(cmap).to_numpy().astype(np.int64)
        mask = (h % ns) < np.minimum(ns, target)
        out = b.loc[mask, ["doc_id", "source"]]
        return pd.DataFrame(
            {"doc_id": out["doc_id"].astype("int64"), "source": out["source"].astype(str)}
        )

    return docs.map_batches(keep, batch_format="pandas")


# ---------------------------------------------------------------------------
# Weighted data mixing with exact integer quotas — the "source mix"
# step of a training-data pipeline (sub-linear source balancing a la
# multilingual sampling): per-source weight w_s = floor(sqrt(n_s) *
# 1000) (sub-linear, integer so both sides agree bit-exactly), quotas
# by LARGEST-REMAINDER allocation of MIX_TOTAL docs (all-integer:
# floor = T*w // Σw, remainders ranked by (T*w mod Σw) desc, source
# asc), then a deterministic per-source selection of the quota-many
# smallest (fib_hash32(doc_id), doc_id) rows.
#
# Scale shape: one tiny per-source count aggregate -> driver computes
# quotas over |sources| ints -> broadcast -> grouped top-quota with a
# per-BLOCK local prune (a global top-q row is a top-q row of its
# block, the q34/politeness safe-prune argument) so only ~quota rows
# per (block, source) cross the one coarse shuffle.
# ---------------------------------------------------------------------------
MIX_TOTAL = 120
MIX_W_SCALE = 1000


def mix_quotas(counts: dict[str, int], total: int = MIX_TOTAL) -> dict[str, int]:
    """Largest-remainder quotas from per-source counts (pure ints)."""
    srcs = sorted(counts)
    # the IDENTICAL IEEE double ops as the oracle's
    # floor(sqrt(CAST(n AS DOUBLE) * 1000000)) — exact isqrt is the
    # "better" sqrt but a DIFFERENT operation: near 2^52-scale
    # products (n ≈ 4.5e9 rows) correctly-rounded double sqrt can
    # round up across an integer while isqrt floors, so quotas would
    # diverge from the SQL side exactly at the 100 TB row counts this
    # module targets (module doctrine: same op on both sides)
    w = {
        s: int(math.floor(math.sqrt(float(counts[s]) * float(MIX_W_SCALE * MIX_W_SCALE))))
        for s in srcs
    }
    tw = sum(w.values())
    fl = {s: (total * w[s]) // tw for s in srcs}
    rem = {s: (total * w[s]) % tw for s in srcs}
    extra = total - sum(fl.values())
    for s in sorted(srcs, key=lambda s: (-rem[s], s))[:extra]:
        fl[s] += 1
    for s in srcs:
        if fl[s] > counts[s]:
            raise ValueError(
                f"q55_weighted_mix: quota {fl[s]} exceeds stratum size "
                f"{counts[s]} for source {s!r} — lower MIX_TOTAL"
            )
    return fl


def q55_weighted_mix(sf_dir: str, total: int = MIX_TOTAL) -> rd.Dataset:
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    qref = ray.put(mix_quotas(_source_counts(docs), total))

    def local_prune(b: pd.DataFrame) -> pd.DataFrame:
        quotas = bget(qref)
        d = pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "source": b["source"].astype(str),
                "hk": _key_hash32(b["doc_id"]),
            }
        ).sort_values(["source", "hk", "doc_id"], kind="mergesort")
        q = d["source"].map(quotas).to_numpy()
        keep = d.groupby("source", sort=False).cumcount().to_numpy() < q
        return d.loc[keep]

    def final_pick(g: pd.DataFrame) -> pd.DataFrame:
        quotas = bget(qref)
        d = g.sort_values(["source", "hk", "doc_id"], kind="mergesort")
        q = d["source"].map(quotas).to_numpy()
        keep = d.groupby("source", sort=False).cumcount().to_numpy() < q
        return d.loc[keep, ["doc_id", "source"]]

    def add_part(b: pd.DataFrame) -> pd.DataFrame:
        h = np.array(
            [zlib.crc32(s.encode()) for s in b["source"]], dtype=np.uint64
        )
        b = b.copy()
        b["_part"] = (h % np.uint64(8)).astype(np.int32)
        return b

    return (
        docs.map_batches(local_prune, batch_format="pandas")
        .map_batches(add_part, batch_format="pandas")
        .groupby("_part")
        .map_groups(final_pick, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# q57 — GPT-style sequence packing: concatenate documents in a
# deterministic global order and split the token stream into
# fixed-size context windows (the standard "pack then chunk" layout
# LLM training data takes before sharding; the reference has no
# analog — its output is one JSON blob per paper, s2processor.py).
#
# Semantics: docs ordered by doc_id asc; start(doc) = exclusive
# prefix sum of whitespace-token counts (the q13 kernel, so the SQL
# oracle reuses q13's exact regexp expression); a doc occupies
# context windows [start // ctx, (start + max(n,1) - 1) // ctx]
# (empty docs pin to the window at their start offset).  All
# arithmetic is int64 — the driver hash compare is exact.
#
# Scale shape: token counting is one vectorized map_batches pass; the
# global order is one sort on doc_id; the prefix sum is block-offset
# (the q08/_rank_sorted mechanism, same as the crawl's fetch_seq):
# per-block token SUMS — n_blocks ints, not rows — come to the
# driver, their cumsum ships back as one offset per block, and each
# block finishes independently.  No full materialization, no second
# shuffle; at 100 TB the driver holds one int per block.
# ---------------------------------------------------------------------------
PACK_CTX = 512


_PACK_SCHEMA = pa.schema(
    [(c, pa.int64()) for c in (
        "doc_id", "n_tokens", "first_chunk", "last_chunk",
        "n_chunks", "chunk_offset")]
)


@ray.remote
def _pack_block_sum(t: pa.Table) -> int:
    import pyarrow.compute as pc

    if t.num_rows == 0:  # sort can emit schema-less empty blocks
        return 0
    return int(pc.sum(t["n_tokens"]).as_py() or 0)


@ray.remote
def _pack_block(t: pa.Table, offset: int, ctx: int) -> pa.Table:
    if t.num_rows == 0:
        return _PACK_SCHEMA.empty_table()
    n = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
    start = offset + np.concatenate(([0], np.cumsum(n)[:-1]))
    last = (start + np.maximum(n, 1) - 1) // ctx
    first = start // ctx
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(n),
            "first_chunk": pa.array(first),
            "last_chunk": pa.array(last),
            "n_chunks": pa.array(last - first + 1),
            "chunk_offset": pa.array(start % ctx),
        }
    )


def q57_sequence_pack(sf_dir: str, ctx: int = PACK_CTX) -> rd.Dataset:
    from ..functions import text as T

    def count_tokens(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_tokens": T.token_counts(b["text"]),
            }
        )

    s = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(count_tokens, batch_format="pandas")
        .sort("doc_id")
    )
    refs = s.to_arrow_refs()
    sums = ray.get([_pack_block_sum.remote(r) for r in refs])
    offs = np.concatenate(([0], np.cumsum(sums)[:-1])) if sums else []
    return rd.from_arrow_refs(
        [_pack_block.remote(r, int(o), ctx) for r, o in zip(refs, offs)]
    )


# ---------------------------------------------------------------------------
# q58 — corpus heavy hitters via a mergeable Misra-Gries sketch +
# exact rescan.  The output is EXACT (term, count) for every term
# occurring in more than N/HH_K of the token stream — the sketch only
# bounds the CANDIDATE set, so the driver's value-hash compare against
# plain SQL GROUP BY/HAVING is legitimate.
#
# Guarantee chain: per block, subtracting the (k+1)-th largest count
# (k = HH_K - 1) from every term is the Misra-Gries offset — the
# subtraction is ≤ n_b/HH_K per term (because (k+1)·c_{k+1} ≤ n_b) and
# leaves ≤ k positive residuals.  Residuals SUM across blocks (the
# mergeable-summaries property, Agarwal et al. 2012), so total error
# ≤ N/HH_K and every true heavy hitter (count > N/HH_K) survives with
# a positive merged residual.  Pass 2 re-counts ONLY the surviving
# candidates exactly and applies the threshold on true counts.
#
# Scale shape: raw tokens never shuffle — pass 1 emits ≤ k rows per
# block into the q49-style crc32-partitioned string grouped-sum;
# candidates (bounded by the residual>0 set, ≤ vocab ∩ near-heavy)
# broadcast once via ray.put; pass 2 is another per-block count of
# candidate tokens only + the same coarse grouped sum.  The only
# driver materializations are the candidate list and the ≤ |cands|
# final rows.
# ---------------------------------------------------------------------------
HH_K = 200  # heavy hitter = count * HH_K > total tokens


def _crc_part32(terms) -> np.ndarray:
    """crc32(term) & 31 partition ids — the ONE string-key coarse
    partitioner behind _term_grouped_sum and q92's fused exchange
    (a term's rows must co-locate for both; per-term sums and
    per-partition top-V prunes are partition-count-invariant).
    32-way, matching the repo's other coarse exchanges: the old 8-way
    fan-out left a 32-CPU node ¾ idle through the final groupby —
    8→32 halved the q76 vocab exchange on an 8.8M-distinct-bigram
    probe (15.8 s → 8.3 s; 64-way overshot to 27.6 s)."""
    return np.array(
        [zlib.crc32(t.encode()) & 31 for t in terms], dtype=np.int32
    )


def _term_grouped_sum(parts: rd.Dataset, col: str) -> rd.Dataset:
    """String-keyed coarse grouped sum (the q49 df pattern): partials
    pre-combined per block, crc32(term) & 31 partitions, vectorized
    final groupby per partition."""

    def part(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("term", as_index=False)[col].sum()
        g["_part"] = _crc_part32(g["term"])
        return g

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("term", as_index=False)[col].sum()

    return (
        parts.map_batches(part, batch_format="pandas")
        .groupby("_part")
        .map_groups(final, batch_format="pandas")
    )


def q58_heavy_hitters(sf_dir: str, hh_k: int = HH_K) -> pa.Table:
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def mg_block(b: pd.DataFrame) -> pd.DataFrame:
        c = (
            b["text"].str.lower().str.findall(_WORD_RE).explode().dropna()
            .value_counts()
        )
        n_b = int(c.sum())
        if len(c) >= hh_k:  # MG offset: drop the k+1-th largest count
            c = c - int(c.iloc[hh_k - 1])
            c = c[c > 0]
        out = pd.DataFrame({"term": c.index.astype(str), "resid": c.to_numpy()})
        # one bookkeeping row per block carries the exact token count
        # (term "" cannot collide: _WORD_RE never matches empty)
        return pd.concat(
            [out, pd.DataFrame({"term": [""], "resid": [n_b]})],
            ignore_index=True,
        )

    merged_ds = _term_grouped_sum(
        docs.map_batches(mg_block, batch_format="pandas"), "resid"
    ).materialize()

    # Final MG re-trim, DISTRIBUTED (Agarwal et al. 2012: merging MG
    # summaries by plain sum then trimming back to k counters is again
    # a valid MG summary with error <= N/k, so every true heavy hitter
    # still survives).  Without it the merged positive-residual set is
    # O(n_blocks x k) terms in the disjoint-vocabulary worst case —
    # too many to land on the driver at 100 TB.  The k-th largest
    # residual comes from per-block top-k partials (the q09 shape);
    # candidates = terms strictly above it (<= k-1 of them).
    def topk_part(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["term"] != ""].nlargest(hh_k, "resid")

    top = (
        merged_ds.map_batches(topk_part, batch_format="pandas")
        .to_pandas()  # bounded: n_blocks x k rows
        .nlargest(hh_k, "resid")
    )
    trim = int(top["resid"].iloc[-1]) if len(top) >= hh_k else 0

    def cand_part(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[(b["term"] != "") & (b["resid"] > trim)]
        tot = pd.DataFrame(
            {"term": [""], "resid": [b.loc[b["term"] == "", "resid"].sum()]}
        )
        return pd.concat([keep[["term", "resid"]], tot], ignore_index=True)

    summary = merged_ds.map_batches(cand_part, batch_format="pandas").to_pandas()
    total = int(summary.loc[summary["term"] == "", "resid"].sum())
    cands = set(summary.loc[summary["term"] != "", "term"])  # <= hh_k - 1
    cref = ray.put(cands)

    def exact_block(b: pd.DataFrame) -> pd.DataFrame:
        cs = bget(cref)
        t = b["text"].str.lower().str.findall(_WORD_RE).explode().dropna()
        c = t[t.isin(cs)].value_counts()
        return pd.DataFrame({"term": c.index.astype(str), "n_occ": c.to_numpy()})

    exact = _term_grouped_sum(
        docs.map_batches(exact_block, batch_format="pandas"), "n_occ"
    ).to_pandas()  # bounded: |cands| rows
    hh = exact[exact["n_occ"] * hh_k > total].sort_values("term")
    return pa.table(
        {
            "term": pa.array(hh["term"], pa.string()),
            "n_occ": pa.array(hh["n_occ"].to_numpy(), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# q60 — token-budget corpus selection: rank every document by an
# integer quality key and keep the best prefix whose cumulative token
# count fits a global budget (the FineWeb/DCLM-style "curate the top
# slice of the crawl under a training-token budget" operation).
#
# quality = (english-stopword hits * 10^6) // n_words — all-int64 so
# the global order (quality desc, doc_id asc) and the budget cutoff
# are exactly reproducible in SQL.  budget = total_tokens // 4
# (scale-free).  Selection = rows whose INCLUSIVE running token sum
# in rank order fits the budget (prefix semantics, not knapsack).
#
# Scale shape: one vectorized scoring pass (payload text never leaves
# it), one sort on two int columns, then the q57 block-offset prefix
# sum — per-block token sums to the driver, block offsets back, each
# block truncates itself independently.
# ---------------------------------------------------------------------------
_SEL_SCHEMA = pa.schema(
    [(c, pa.int64()) for c in ("doc_id", "quality", "n_tokens")]
)


@ray.remote
def _select_block(t: pa.Table, offset: int, budget: int) -> pa.Table:
    if t.num_rows == 0:
        return _SEL_SCHEMA.empty_table()
    n = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
    cum = offset + np.cumsum(n)  # inclusive
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "quality": t["quality"],
            "n_tokens": pa.array(n),
        }
    ).filter(pa.array(cum <= budget))


def q60_token_budget_select(sf_dir: str, budget_frac: int = 4) -> rd.Dataset:
    from ..functions import text as T
    from ..functions.text import _LANG_PROFILES, _WORD_RE as _QRE

    def score(b: pd.DataFrame) -> pd.DataFrame:
        words = b["text"].str.lower().str.findall(_QRE)
        n_words = words.str.len().clip(lower=1).to_numpy()
        hits = T.stopword_hits(words, _LANG_PROFILES["en"])
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "quality": (hits * 1_000_000) // n_words,
                # the ASCII-pinned kernel, NOT str.count(r"\S+"): the
                # oracle's regexp_extract_all runs RE2 where \s is
                # [\t\n\f\r ] — Python's Unicode \S would miscount
                # documents containing \x0b or U+00A0 (ADVICE r02)
                "n_tokens": T.token_counts(b["text"]).to_numpy(),
            }
        )

    scored = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(score, batch_format="pandas")
        .materialize()
    )
    total = int(scored.sum("n_tokens"))
    budget = total // budget_frac
    s = scored.sort(["quality", "doc_id"], descending=[True, False])
    refs = s.to_arrow_refs()
    sums = ray.get([_pack_block_sum.remote(r) for r in refs])
    offs = np.concatenate(([0], np.cumsum(sums)[:-1])) if sums else []
    return rd.from_arrow_refs(
        [_select_block.remote(r, int(o), budget) for r, o in zip(refs, offs)]
    )


# ---------------------------------------------------------------------------
# q65 — inverted-index build: (term -> sorted posting list of doc_ids)
# written as bucket-partitioned parquet (the retrieval-side artifact a
# training corpus ships with), counters derived from the WRITTEN
# files so the SQL oracle transitively value-checks the build ->
# write -> read round trip (the q51 pattern).
#
# Scale shape: per-block distinct (term, doc_id) pairs pre-combine
# into per-block posting fragments; the only shuffle is the
# crc32(term)-bucket groupby (a term's fragments co-locate in ONE
# bucket, so list concatenation + sort is bucket-local and the output
# is one directory per bucket — replace-partition resumable).  The
# driver sees only the per-term counter rows.
# ---------------------------------------------------------------------------
IDX_BUCKETS = 8


def q65_inverted_index(sf_dir: str, out_root: str | None = None) -> rd.Dataset:
    from ..sources.sinks import clear_partition

    out_root = out_root or f"/tmp/ciq_invidx_{Path(sf_dir).name}"
    clear_partition(out_root)
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fragments(b: pd.DataFrame) -> pd.DataFrame:
        # distinct (doc, term) pairs, numpy-deduped: crc32 runs once
        # per UNIQUE term of the batch, not once per pair (the r03
        # verdict's per-term-Python-loop finding)
        tok_lists = b["text"].str.lower().str.findall(_WORD_RE)
        dids = np.repeat(
            b["doc_id"].to_numpy().astype(np.int64),
            tok_lists.str.len().to_numpy(),
        )
        flat = np.asarray(
            list(itertools.chain.from_iterable(tok_lists)), dtype=object
        )
        if len(flat) == 0:
            return pd.DataFrame(
                {
                    "term": pd.Series([], dtype="object"),
                    "doc_id": np.zeros(0, np.int64),
                    "bucket": np.zeros(0, np.int64),
                }
            )
        uniq, inv = np.unique(flat, return_inverse=True)
        order = np.lexsort((inv, dids))
        di, ti = dids[order], inv[order]
        keep = np.ones(len(di), bool)
        keep[1:] = (di[1:] != di[:-1]) | (ti[1:] != ti[:-1])
        di, ti = di[keep], ti[keep]
        ubuck = np.fromiter(
            (zlib.crc32(t.encode()) % IDX_BUCKETS for t in uniq),
            dtype=np.int64,
            count=len(uniq),
        )
        return pd.DataFrame(
            {"term": uniq[ti], "doc_id": di, "bucket": ubuck[ti]}
        )

    def build_postings(g: pd.DataFrame) -> pa.Table:
        # one sort per bucket + numpy run-boundary slicing; postings
        # are an Arrow list<int64> column (the comma-string encode /
        # per-element int() parse round trip is gone — r03 verdict #4)
        if len(g) == 0:  # Ray delivers one empty batch for empty inputs
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "postings": pa.array([], pa.list_(pa.int64())),
                }
            )
        d = g.sort_values(["term", "doc_id"], kind="mergesort")
        terms = d["term"].to_numpy()
        ids = d["doc_id"].to_numpy().astype(np.int64)
        change = np.ones(len(d), bool)
        change[1:] = terms[1:] != terms[:-1]
        starts = np.flatnonzero(change)
        offsets = np.append(starts, len(d)).astype(np.int32)
        return pa.table(
            {
                "term": pa.array(terms[starts], pa.string()),
                "bucket": pa.array(
                    np.full(len(starts), int(g["bucket"].iloc[0]), np.int64)
                ),
                "df": pa.array((offsets[1:] - offsets[:-1]).astype(np.int64)),
                "postings": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), pa.array(ids, pa.int64())
                ),
            }
        )

    (
        docs.map_batches(fragments, batch_format="pandas")
        .groupby("bucket")
        .map_groups(build_postings, batch_format="pandas")
        .write_parquet(out_root, partition_cols=["bucket"])
    )

    # counters FROM THE WRITTEN INDEX: df + posting-list checksum per
    # term (sum of doc_ids detects any dropped/duplicated posting).
    # A zero-row corpus writes no files at all (Ray skips empty
    # blocks), so the read-back would raise FileNotFoundError — the
    # empty index IS the correct answer there.
    if not any(Path(out_root).glob("**/*.parquet")):
        return rd.from_arrow(
            pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "sum_doc_ids": pa.array([], pa.int64()),
                }
            )
        )
    back = rd.read_parquet(out_root)

    def counters(t: pa.Table) -> pa.Table:
        col = t["postings"].combine_chunks()
        values = col.values.to_numpy(zero_copy_only=False)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        # df >= 1 for every written term, so offsets strictly increase
        # and reduceat segments are never empty
        sums = (
            np.add.reduceat(values, offs[:-1])
            if len(values)
            else np.zeros(0, np.int64)
        )
        return pa.table(
            {
                "term": t["term"].cast(pa.string()),
                "df": t["df"].cast(pa.int64()),
                "sum_doc_ids": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    return back.map_batches(counters, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# q84 — deterministic global training-shuffle order: every document
# gets a pseudorandom but REPRODUCIBLE position (rank of the Fibonacci
# hash of its id, ties by id).  This is the "shuffle the corpus before
# epoch packing" step done as data, not as ray.data.random_shuffle —
# the same corpus yields the same order on any cluster shape, so a
# resumed/re-run job trains on the identical stream.
#
# Scale shape: one vectorized hash pass, ONE range-partitioned sort
# (the unavoidable all-to-all — Ray's sort samples boundaries, so no
# skew: the hash output is uniform by construction), then block-offset
# rank assignment (n_blocks ints to the driver, q08/fetch_seq
# mechanism).  The hash kernel is `_key_hash32`, which the SQL oracle
# replays exactly in HUGEINT.
# ---------------------------------------------------------------------------
def q84_shuffle_order(sf_dir: str) -> rd.Dataset:
    def hk(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "hk": _key_hash32(b["doc_id"])}
        )

    from ..functions.ranking import rank_sorted

    s = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .map_batches(hk, batch_format="pandas")
        .sort(["hk", "doc_id"])
    )
    return rank_sorted(s, {"doc_id": pa.int64()}, "shuffle_rank")


# ---------------------------------------------------------------------------
# q104 — per-source document cap (the RefinedWeb/C4 "per-domain cap"
# anti-spam rule): every source keeps at most CAP documents, chosen by
# deterministic hash rank (fib_hash32(doc_id), ties by doc_id) so the
# kept set is a pure function of the data — no clock, no task order.
# Distinct from q50 (per-stratum ~target subsample via a stateless
# predicate: approximate size) and q55 (global quota allocation):
# this is the hard per-group ceiling, exact rank semantics.
#
# Scale shape: ONE source-hash exchange (a source's rows co-locate,
# so the rank cut is partition-local and vectorized); rows carry only
# (doc_id, source, hash) through the shuffle — text never moves.
# Skew note: a single viral source bounds its partition at that
# source's row count; the rank cut is a sort within the partition,
# and the output is capped at CAP rows per source by construction.
# ---------------------------------------------------------------------------
DOMAIN_CAP = 20


def q104_source_cap(sf_dir: str, cap: int = DOMAIN_CAP) -> rd.Dataset:
    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )

    def key(b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)
        out = pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "source": b["source"].to_numpy(),
                "hk": _key_hash32(b["doc_id"]),
            }
        )
        out["_part"] = _crc_part32(out["source"])
        return out

    def cut(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "hk", "doc_id"], kind="mergesort")
        rank = g.groupby("source", sort=False).cumcount().to_numpy()
        kept = g[rank < cap]
        return pd.DataFrame(
            {
                "doc_id": kept["doc_id"].to_numpy(np.int64),
                "source": kept["source"].to_numpy(),
                "keep_rank": (rank[rank < cap] + 1).astype(np.int64),
            }
        )

    return (
        docs.map_batches(key, batch_format="pandas")
        .groupby("_part")
        .map_groups(cut, batch_format="pandas")
    )
