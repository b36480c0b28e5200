"""Deduplication operators — exact, MinHash-LSH, SimHash, n-gram
Jaccard, embedding-cosine near-dup.

All follow the shuffle-frugal shape from the build contract:
vectorized per-batch sketching inside ``map_batches`` (signatures,
band rows), then a ``groupby`` whose shuffle moves only (key, id)
sketch rows — never document payloads.  Exact verification joins
payloads back for candidate pairs only (a set that is orders of
magnitude smaller than the corpus).

Reference analog: the corpus-level exact dedup is the md5-keyed
download cache + defaultdict key-merge (reference
``dblpclient.py:442-443``, ``s2processor.py:114-118``); everything
else is new surface required by the training-data contract.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.broadcast import bget

# MinHash parameters (public construction: universal hashing
# h_i(x) = (a_i x + b_i) mod p over 32-bit shingle hashes).
# p = 2^31-1 keeps a*x within uint64 (a < 2^31, x < 2^32 -> < 2^63),
# so the whole signature computation stays in vectorized uint64.
_P = (1 << 31) - 1
_K = 128          # signature length
_BAND_R = 4       # rows per band
_N_BANDS = _K // _BAND_R
_SHINGLE_N = 3    # word shingles
_MIX_B = np.uint64(0x9E3779B97F4A7C15)  # polynomial mixing base


def _fold32(g: np.ndarray) -> np.ndarray:
    """64-bit mixed gram hash -> uniform 32-bit value (keeps the
    x < 2^32 invariant the signature arithmetic relies on)."""
    return (g ^ (g >> np.uint64(32))) & np.uint64(0xFFFFFFFF)


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def _rolled(th: np.ndarray, n: int) -> np.ndarray:
    """Rolling polynomial over every full n-window of a uint64
    token-hash array (len(th) >= n): entry j mixes tokens j..j+n-1."""
    with np.errstate(over="ignore"):
        g = th[: len(th) - (n - 1)].copy()
        for k in range(1, n):
            g = g * _MIX_B + th[k : len(th) - (n - 1) + k]
    return g


def _short_gram(th: np.ndarray, fold) -> np.ndarray:
    """Shorter-than-n docs hash their whole token stream as ONE gram
    (mirroring the joined-string gram of the naive form); empty docs
    get the single sentinel gram 0."""
    if len(th) == 0:
        return np.zeros(1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        acc = np.uint64(0)
        for h in th:
            acc = acc * _MIX_B + h
    return fold(np.array([acc], dtype=np.uint64))


def _grams_from_token_hashes(th: np.ndarray, n: int = _SHINGLE_N) -> np.ndarray:
    """uint64 token-hash array -> uint64 shingle-hash array (<2^32).

    The shingle hash is a rolling polynomial over the n token hashes
    (g = ((h0*B + h1)*B + h2) mod 2^64, folded to 32 bits) instead of
    crc32 of the joined string: distinctness is the same (tokens are
    whitespace-free, so the tuple<->string map is injective) and the
    computation vectorizes — hashing per-gram STRINGS was the single
    most expensive stage in the round-1 bench (VERDICT r01 #4)."""
    if len(th) < n:
        return _short_gram(th, _fold32)
    return _fold32(_rolled(th, n))


def _shingle_hashes(text: str, n: int = _SHINGLE_N) -> np.ndarray:
    toks = text.split()
    th = np.fromiter(
        (zlib.crc32(t.encode("utf-8")) for t in toks), dtype=np.uint64, count=len(toks)
    )
    return _grams_from_token_hashes(th, n)


def _hash_tokens_crc32(uniq: np.ndarray) -> np.ndarray:
    return np.fromiter(
        (zlib.crc32(u.encode("utf-8")) for u in uniq),
        dtype=np.uint64, count=len(uniq),
    )


def _hash_tokens_crc_adler64(uniq: np.ndarray) -> np.ndarray:
    return np.fromiter(
        (
            zlib.crc32(b) | (zlib.adler32(b) << 32)
            for b in (u.encode("utf-8") for u in uniq)
        ),
        dtype=np.uint64, count=len(uniq),
    )


def _batch_grams_core(
    texts: list[str], n: int, token_hash_fn, fold
) -> tuple[np.ndarray, np.ndarray]:
    """ONE vectorized batch-shingling kernel parameterized by the
    token hash and the final fold (the 32- and 64-bit variants below
    were three drifting near-copies of this body): flat uint64
    gram-hash array + per-doc gram counts (every doc >= 1 gram).

    Token hashing touches Python only for the UNIQUE tokens of the
    batch (hashed pd.factorize, not a string-sorting np.unique, plus
    one checksum per unique token); the rolling polynomial runs once
    over the flat token-hash array and is sliced per doc
    (boundary-crossing windows discarded), so the hot path is numpy
    end to end."""
    tok_lists = [t.split() for t in texts]
    flat_tokens: list[str] = list(itertools.chain.from_iterable(tok_lists))
    if flat_tokens:
        inv, uniq = pd.factorize(np.asarray(flat_tokens, dtype=object))
        th_flat = token_hash_fn(uniq)[inv]
    else:
        th_flat = np.zeros(0, dtype=np.uint64)

    g_flat = (
        fold(_rolled(th_flat, n))
        if len(th_flat) >= n
        else np.zeros(0, dtype=np.uint64)
    )

    per_doc: list[np.ndarray] = []
    off = 0
    for toks in tok_lists:
        m = len(toks)
        if m >= n:
            per_doc.append(g_flat[off : off + m - (n - 1)])
        else:  # rare path: short/empty docs
            per_doc.append(_short_gram(th_flat[off : off + m], fold))
        off += m
    counts = np.fromiter((len(g) for g in per_doc), dtype=np.int64, count=len(per_doc))
    return np.concatenate(per_doc) if per_doc else np.zeros(0, dtype=np.uint64), counts


def _batch_gram_hashes(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """32-bit batch shingling (crc32 tokens, folded grams — the
    MinHash signature arithmetic relies on grams < 2^32)."""
    return _batch_grams_core(texts, _SHINGLE_N, _hash_tokens_crc32, _fold32)



def _round6_half_up(x: float) -> float:
    """Half-away-from-zero rounding to 6 decimals for NON-NEGATIVE x,
    mirrored exactly by the SQL oracle's floor(x*1e6 + 0.5)/1e6:
    jaccard is an exact small-integer ratio, so ties like 101/128 =
    0.7890625 are real — Python's banker's round() and DuckDB's
    half-away round() disagree on them (same flake class as the
    float-sum order issue fixed in relational.py)."""
    import math

    return math.floor(x * 1e6 + 0.5) / 1e6

def ngram_jaccard(a: str, b: str, n: int = _SHINGLE_N) -> float:
    sa = set(_shingle_hashes(a, n).tolist())
    sb = set(_shingle_hashes(b, n).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


_LO32 = np.uint64(0xFFFFFFFF)


def _gram_table(ids, texts) -> tuple:
    """Shingle each doc ONCE into a probe table (for _table_jaccards,
    _df_partials, _prefix_postings): (sorted ids, per-doc distinct-gram
    sizes, per-doc starts, keys).  keys is one sorted uint64 array of
    ``doc_idx << 32 | gram`` over each doc's DISTINCT grams — doc_idx
    is the dense index into the sorted ids (not the doc_id, which may
    exceed 32 bits), and every gram fits the low half because _fold32
    keeps grams < 2^32.  ids must be distinct."""
    ids = np.asarray(ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    grams, counts = _batch_gram_hashes([texts[i] for i in order])
    doc = np.repeat(np.arange(len(ids), dtype=np.uint64), counts)
    keys = np.unique((doc << np.uint64(32)) | grams)
    sizes = np.bincount((keys >> np.uint64(32)).astype(np.int64), minlength=len(ids))
    starts = np.zeros(len(ids), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return ids[order], sizes, starts, keys


def _table_jaccards(table: tuple, a, b) -> np.ndarray:
    """Rounded trigram jaccard of every pair (a[i], b[i]) against a
    _gram_table, in one numpy pass: expand the smaller side's grams,
    probe them under the other side's doc index with one searchsorted
    over the sorted keys, count hits per pair with bincount.  The final
    floor(x*1e6 + 0.5)/1e6 is _round6_half_up's IEEE arithmetic, so
    the result is bit-identical to ngram_jaccard + _round6_half_up
    (pytest-held)."""
    ids, sizes, starts, keys = table
    ia = np.searchsorted(ids, np.asarray(a, dtype=np.int64))
    ib = np.searchsorted(ids, np.asarray(b, dtype=np.int64))
    a_small = sizes[ia] <= sizes[ib]
    small = np.where(a_small, ia, ib)
    other = np.where(a_small, ib, ia).astype(np.uint64) << np.uint64(32)
    ns = sizes[small]
    pair = np.repeat(np.arange(len(ia)), ns)
    pos = np.arange(len(pair)) + np.repeat(starts[small] - (np.cumsum(ns) - ns), ns)
    probe = other[pair] | (keys[pos] & _LO32)
    _, hit = _sorted_lookup(keys, keys, probe)
    inter = np.bincount(pair[hit], minlength=len(ia))
    union = sizes[ia] + sizes[ib] - inter
    return np.floor(inter / np.maximum(1, union) * 1e6 + 0.5) / 1e6


def _pair_jaccards(a_ids, b_ids, text_of: dict) -> np.ndarray:
    """_table_jaccards over a table of just the batch's docs (the join
    path, where each batch carries its own texts)."""
    uniq = list(dict.fromkeys(list(a_ids) + list(b_ids)))
    return _table_jaccards(_gram_table(uniq, [text_of[i] for i in uniq]), a_ids, b_ids)


class MinHashStage:
    """MinHash band sketcher. Deliberately usable as a STATELESS task
    fn (an instance is cheap: the (a_i, b_i) permutation constants are
    128 uint64 draws from a fixed seed) — running it as tasks instead
    of an actor pool keeps CPU slots free for the downstream join
    aggregators on small sessions.  Per batch everything is numpy:
    unique-token crc32 + rolling-polynomial shingles
    (_batch_gram_hashes), then the (total_grams x K) universal-hash
    matrix reduced per doc with np.minimum.reduceat, K-chunked to
    bound the temporary at total_grams x 32 x 8B."""

    def __init__(self, seed: int = 1729):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.a = rng.integers(1, _P, size=_K, dtype=np.uint64)
        self.b = rng.integers(0, _P, size=_K, dtype=np.uint64)

    def signature(self, text: str) -> np.ndarray:
        x = _shingle_hashes(text)
        # (n,1)*(K,) + (K,) mod p — all within uint64 by construction
        vals = (x[:, None] * self.a + self.b) % np.uint64(_P)
        return np.min(vals, axis=0)

    def signatures(self, texts: list[str]) -> np.ndarray:
        """(n_docs, K) uint64 signature matrix, batch-vectorized."""
        grams, counts = _batch_gram_hashes(texts)
        if len(counts) == 0:
            return np.zeros((0, _K), dtype=np.uint64)
        starts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        sig = np.empty((len(counts), _K), dtype=np.uint64)
        chunk = 32
        p = np.uint64(_P)
        for k0 in range(0, _K, chunk):
            vals = (grams[:, None] * self.a[k0 : k0 + chunk] + self.b[k0 : k0 + chunk]) % p
            sig[:, k0 : k0 + chunk] = np.minimum.reduceat(vals, starts, axis=0)
        return sig

    def band_hashes(self, sig: np.ndarray) -> np.ndarray:
        """(n_docs, K) signatures -> (n_docs, N_BANDS) int64 bucket
        keys (polynomial mix of the band's rows; any injective-ish mix
        gives the same bucketing behavior as hashing the raw bytes)."""
        bands = sig.reshape(-1, _N_BANDS, _BAND_R)
        bh = np.zeros(bands.shape[:2], dtype=np.uint64)
        with np.errstate(over="ignore"):
            for r in range(_BAND_R):
                bh = bh * _MIX_B + bands[:, :, r]
        return bh.astype(np.int64)  # C cast: same bits, groupby-friendly

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        texts = b["text"].tolist()
        sig = self.signatures(texts)
        bh = self.band_hashes(sig) if len(texts) else np.zeros((0, _N_BANDS), np.int64)
        n = len(texts)
        return pd.DataFrame(
            {
                "doc_id": np.repeat(b["doc_id"].to_numpy().astype(np.int64), _N_BANDS),
                "band_id": np.tile(np.arange(_N_BANDS, dtype=np.int32), n),
                "band_hash": bh.reshape(-1),
            }
        )


def _typed_pairs(ds: rd.Dataset, cols: tuple) -> pa.Table:
    """Near-dup pair sets are tiny relative to the corpus (that is the
    point of dedup) — materialize with an explicit schema so an empty
    result still has one. Float col only for the 3rd name if present."""
    schema = pa.schema(
        [(c, pa.float64() if c in ("jaccard", "cos") else pa.int64()) for c in cols]
    )
    dfs = ds.to_pandas()
    if dfs.empty:
        return schema.empty_table()
    return pa.Table.from_pandas(dfs[list(cols)], schema=schema, preserve_index=False)


_STAGE_CACHE: dict[int, MinHashStage] = {}


def _minhash_bands(b: pd.DataFrame, seed: int = 1729) -> pd.DataFrame:
    """Stateless-task wrapper around MinHashStage with a per-process
    constant cache (tasks reuse worker processes, so the constants are
    built once per worker in practice)."""
    stage = _STAGE_CACHE.get(seed)  # NOT setdefault(seed, MinHashStage(..)):
    if stage is None:  # setdefault builds its default EAGERLY — a fresh
        # Generator + 256 hash constants per batch, all discarded
        stage = _STAGE_CACHE.setdefault(seed, MinHashStage(seed))
    return stage(b)


# Buckets larger than this emit STAR pairs (min-id x each member)
# instead of all O(k^2) combinations: a degenerate bucket of 10k
# near-identical docs would otherwise produce 50M candidate pairs.
# Star pairs preserve cluster CONNECTIVITY (what connected_components
# needs to form dup groups) at O(k); only pairwise similarity scores
# between non-representative members are lost — and those pairs are
# recovered transitively through the group.
_STAR_BUCKET_SIZE = 256

# coarse shuffle fan-out for bucket co-location: rows are
# hash-partitioned by bucket key into this many groups so map_groups
# runs the UDF ~_N_BUCKET_PARTS times per stage instead of once per
# bucket (millions at sf0.1 — per-group pandas construction dominated
# the round-1 q17 wall time more than the Python sketching did).
# At cluster scale this is sized ~ total cores.
_N_BUCKET_PARTS = 32


def _add_part(b: pd.DataFrame, key_cols: list[str]) -> pd.DataFrame:
    h = np.zeros(len(b), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in key_cols:
            h = h * _MIX_B + b[c].to_numpy().astype(np.uint64)
        h *= _MIX_B  # final avalanche-ish mix before the modulus
        h ^= h >> np.uint64(33)
    return b.assign(part=(h % np.uint64(_N_BUCKET_PARTS)).astype(np.int32))


_PAIR_SLAB = 1024  # a pair chunk holds at most _PAIR_SLAB**2 pairs


def _bucket_pairs(keys: np.ndarray, star: int | None = None, widest: int | None = None):
    """Every in-bucket row pair of a partition SORTED by ``keys`` (1-D,
    or 2-D with one column per key part), in one numpy pass with no
    call per bucket (Xiao et al. WWW'08's run enumeration).  The one
    pair-emission kernel of every bucket self-join in this module.

    Each bucket is a run of rows; a row pairs with the c = run_end -
    row - 1 later rows of its run, so repeat(rows, c) and an offset
    within each repeat enumerate every in-bucket pair once, as (i, j)
    row-index arrays with i < j.  Rows go in chunks of at most
    _PAIR_SLAB**2 pairs, or one row, so the index temporaries stay
    O(cap + m) even for a degenerate bucket of width m.

    Runs wider than ``widest`` emit nothing; runs wider than ``star``
    emit STAR pairs, the run's first row with each other row
    (_STAR_BUCKET_SIZE says why).  Callers mask each chunk."""
    n = len(keys)
    if n == 0:
        return
    change = keys[1:] != keys[:-1]
    if change.ndim > 1:
        change = change.any(axis=1)
    head = np.flatnonzero(np.concatenate([[True], change]))
    width = np.diff(np.append(head, n))
    c = np.repeat(head + width, width) - np.arange(n) - 1
    if widest is not None:
        c[np.repeat(width > widest, width)] = 0
    if star is not None:
        wide = width > star
        c[np.repeat(wide, width)] = 0
        c[head[wide]] = width[wide] - 1
    ends = np.cumsum(c)
    lo = 0
    while lo < n:
        base = ends[lo] - c[lo]
        hi = int(np.searchsorted(ends, base + _PAIR_SLAB * _PAIR_SLAB, side="right"))
        hi = max(lo + 1, hi)
        k = c[lo:hi]
        ii = np.repeat(np.arange(lo, hi, dtype=np.int64), k)
        first = np.repeat(ends[lo:hi] - k - base, k)  # row's first slot in the chunk
        yield ii, ii + 1 + np.arange(len(ii)) - first
        lo = hi


def _pairs_from_partition(g: pd.DataFrame) -> pd.DataFrame:
    """MinHash band buckets -> (a < b, need = 1) rows; a doc repeated
    in one bucket counts once, buckets wider than _STAR_BUCKET_SIZE
    emit star pairs.  One shared band is enough: every pair's need is
    1."""
    cols = ["band_id", "band_hash", "doc_id"]
    g = g.drop_duplicates(cols).sort_values(cols, kind="mergesort")
    ids = g["doc_id"].to_numpy(np.int64)
    out_a, out_b = [ids[:0]], [ids[:0]]
    for ii, jj in _bucket_pairs(g[cols[:2]].to_numpy(), star=_STAR_BUCKET_SIZE):
        out_a.append(ids[ii])
        out_b.append(ids[jj])
    a = np.concatenate(out_a)
    return pd.DataFrame({"a": a, "b": np.concatenate(out_b), "need": np.ones_like(a)})


def _distinct_pairs(pairs: rd.Dataset) -> rd.Dataset:
    """Distinct (a, b) via a hash aggregate (vectorized, pre-combined
    per block) — NOT per-group map_groups — keeping a pair only when
    its row count reaches its `need`: Count and Max run in the one
    aggregate."""
    from ray.data.aggregate import Count, Max

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["_n"], t["_need"])).select(["a", "b"])

    return (
        pairs.groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"), Max("need", alias_name="_need"))
        .map_batches(keep, batch_format="pyarrow")
    )


def _counted_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
    """Driver-side form of _distinct_pairs: the sorted distinct (a, b)
    of a raw candidate frame, keeping a pair only when its row count
    reaches its `need`."""
    g = pdf.groupby(["a", "b"], sort=True)["need"].agg(["size", "max"])
    return g.index[g["size"].to_numpy() >= g["max"].to_numpy()].to_frame(index=False)


def minhash_lsh_candidates(docs: rd.Dataset) -> rd.Dataset:
    """documents(doc_id, text) -> RAW candidate rows (a < b, need = 1):
    a pair matching in k bands appears k times.

    Shuffle key: hash(band_id, band_hash) % N_PARTS for bucket
    co-location (each map_groups call sees a whole partition and
    detects buckets vectorized).  Only sketch rows and id pairs cross
    the exchange.  The distinct is verify_pairs_adaptive's: the
    broadcast path dedupes on the driver for free, and only the join
    path pays the (a, b) hash aggregate, whose fixed actor-startup
    cost (~1.3s at sf0.1) is the larger term when the pair set is
    tiny."""
    bands = docs.map_batches(_minhash_bands, batch_format="pandas")
    return (
        bands.map_batches(lambda b: _add_part(b, ["band_id", "band_hash"]), batch_format="pandas")
        .groupby("part")
        .map_groups(_pairs_from_partition, batch_format="pandas")
    )


# above this many RAW candidate rows (before the distinct and the
# prefix filter's count: the rows the broadcast path pulls to and holds
# on the driver), fetch texts via hash joins; below it, broadcast the
# candidate texts (two hash joins cost ~4-8s of aggregator-actor
# startup — wasteful when the candidate set is tiny)
BROADCAST_PAIR_LIMIT = 200_000


def q17_minhash_dedup(sf_dir: str, threshold: float = 0.7) -> rd.Dataset:
    """MinHash-LSH near-dup pairs over documents, exact-verified with
    n-gram Jaccard >= threshold.

    Text fetch for verification is adaptive: small candidate sets
    broadcast the candidate texts (one filtered pass over docs, zero
    shuffles); large sets use two hash joins so payloads only ever
    move for candidates (the 100 TB path)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return verify_pairs_adaptive(docs, minhash_lsh_candidates(docs), threshold)


@ray.remote
def _verify_chunk(table: tuple, a, b, threshold: float) -> pd.DataFrame:
    jac = _table_jaccards(table, a, b)
    keep = jac >= threshold
    return pd.DataFrame({"a": a[keep], "b": b[keep], "jaccard": jac[keep]})


def verify_pairs_adaptive(
    docs: rd.Dataset, cand: rd.Dataset, threshold: float
) -> rd.Dataset | pa.Table:
    """Exact n-gram-Jaccard verification of a candidate pair Dataset
    against documents(doc_id, text), keeping pairs with jaccard >=
    threshold.  Shared by the MinHash-LSH (q17) and prefix-filter (q68)
    candidate generators.

    cand holds raw rows (a, b, need), one per bucket a pair met in: a
    pair enters verify only when its row count reaches its need (the
    ℓ-prefix filter's count, see _prefix_pairs_from_partition; MinHash
    rows need 1).  BROADCAST_PAIR_LIMIT compares the RAW row count,
    before that count.

    Adaptive: small candidate sets count on the driver, collect the
    candidate texts (one filtered pass over docs, zero shuffles),
    shingle each candidate doc ONCE into a broadcast _gram_table and
    score pair chunks in plain _verify_chunk tasks; large sets count in
    the (a, b) hash aggregate (_distinct_pairs) and pay two hash joins
    so payloads only ever move for candidates (the 100 TB path), each
    joined batch building its own table (_pair_jaccards).  Both run the
    one _table_jaccards kernel."""
    from .relational import JOIN_ARGS

    schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())])
    cand = cand.materialize()
    n_pairs = cand.count()

    if n_pairs == 0:
        return schema.empty_table()

    if n_pairs <= BROADCAST_PAIR_LIMIT:
        # pull the (bounded) row set with a single Arrow->pandas
        # conversion — row-dict iteration (take_all) measured ~800x
        # slower per row at sf0.1
        pdf = _counted_pairs(cand.to_pandas()).reset_index(drop=True).astype("int64")
        if pdf.empty:  # every raw row fell short of its need
            return schema.empty_table()
        ids_arr = np.unique(
            np.concatenate([pdf["a"].to_numpy(), pdf["b"].to_numpy()])
        )
        id_ref = ray.put(ids_arr)
        texts = {}
        for bt in docs.map_batches(
            lambda t: t.filter(
                # vectorized membership vs the sorted candidate-id
                # array (a Python `in set` loop here cost ~0.3s/pass
                # at sf0.1)
                pa.array(np.isin(t["doc_id"].to_numpy(), bget(id_ref)))
            ),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pandas"):
            texts.update(zip(bt["doc_id"], bt["text"]))
        table_ref = ray.put(_gram_table(list(texts), list(texts.values())))

        # the candidate set is bounded (<= BROADCAST_PAIR_LIMIT), so
        # verify in plain Ray tasks over chunks — a Dataset's fixed
        # per-stage cost (~0.3s) dwarfs this work at small pair counts
        n_chunks = max(1, min(32, len(pdf) // 2048 + 1))
        bounds = (np.arange(n_chunks + 1, dtype=np.int64) * len(pdf)) // n_chunks
        a, b = pdf["a"].to_numpy(), pdf["b"].to_numpy()
        # at most two chunks in flight per cluster CPU: a deeper queue
        # runs no sooner, and its backlog makes the raylet start worker
        # processes, one or two per call, that no chunk ever uses
        window = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
        refs = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if len(refs) >= window:
                ray.wait(refs, num_returns=len(refs) - window + 1)
            refs.append(_verify_chunk.remote(table_ref, a[lo:hi], b[lo:hi], threshold))
        out = pd.concat(ray.get(refs), ignore_index=True)
        if out.empty:
            return schema.empty_table()
        return pa.Table.from_pandas(out, schema=schema, preserve_index=False)

    cand = _distinct_pairs(cand)
    ta = docs.map_batches(
        lambda t: t.rename_columns(["a", "text_a"]), batch_format="pyarrow"
    )
    tb = docs.map_batches(
        lambda t: t.rename_columns(["b", "text_b"]), batch_format="pyarrow"
    )
    # cluster-sized partitions: this branch only runs ABOVE the
    # broadcast pair limit (the scale path), where a hardcoded
    # num_partitions=2 would serialize the join on two aggregators
    # exactly when the data is largest (connected_components sizes
    # its joins the same way)
    npart = _join_nparts()
    joined = cand.join(
        ta, join_type="inner", num_partitions=npart, on=("a",), **JOIN_ARGS
    ).join(tb, join_type="inner", num_partitions=npart, on=("b",), **JOIN_ARGS)

    def verify(bt: pd.DataFrame) -> pd.DataFrame:
        text_of = dict(zip(bt["a"], bt["text_a"]))
        text_of.update(zip(bt["b"], bt["text_b"]))
        jac = _pair_jaccards(bt["a"].tolist(), bt["b"].tolist(), text_of)
        out = pd.DataFrame({"a": bt["a"], "b": bt["b"], "jaccard": jac})
        return out[out["jaccard"] >= threshold]

    out = joined.map_batches(verify, batch_format="pandas")
    return _typed_pairs(out, ("a", "b", "jaccard"))


# ---------------------------------------------------------------------------
# Exact n-gram-Jaccard similarity join (prefix filtering)
# ---------------------------------------------------------------------------
# How many of the most document-frequent grams to broadcast for the
# rare-grams-first prefix ordering.  Selectivity only — the join is
# exact under ANY common total order (see q68 docstring); raising this
# shrinks collision buckets when the corpus has very common shingles.
_DF_TOP_K = 4096


def _join_nparts() -> int:
    """Hash-join fan-out sized to the cluster — a hardcoded
    num_partitions=2 serializes the join on two aggregators exactly
    when the data is largest (the q17 round-4 lesson); shared by every
    join in this module so the sizing is tuned in ONE place."""
    return max(2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2))


def _sorted_lookup(
    keys: np.ndarray, vals: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership lookup against a SORTED key array: returns
    (vals-at-match, hit mask); values where ~hit are undefined.  The
    clamp-then-compare idiom lived in two subtly-different copies
    (prefix postings + the q69 broadcast assign)."""
    if keys.size == 0:
        return np.zeros(len(x), dtype=vals.dtype), np.zeros(len(x), dtype=bool)
    idx = np.minimum(np.searchsorted(keys, x), keys.size - 1)
    return vals[idx], keys[idx] == x


def _df_partials(b: pd.DataFrame) -> pd.DataFrame:
    """Per-block partial document frequencies of the hashed grams:
    each doc contributes its DISTINCT grams once (the _gram_table
    keys), then one np.unique over the block counts them.  Combiner
    for the vocab grouped-sum."""
    keys = _gram_table(np.arange(len(b)), b["text"].tolist())[3]
    u, n = np.unique(keys & _LO32, return_counts=True)
    return pd.DataFrame({"gram": u.astype(np.int64), "n": n.astype(np.int64)})


def _gram_df_topk(docs: rd.Dataset, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """~top_k most document-frequent grams and their DFs, as two
    aligned arrays sorted by GRAM (searchsorted lookup form).

    ZERO-SHUFFLE: each block emits only its 2*top_k locally most
    frequent grams (_df_partials truncated under the (n desc, gram)
    order); the driver sums the surviving partials and keeps the
    global top_k.  Truncation can under-count a gram split across
    many blocks, so the heavy set is APPROXIMATE — which is all the
    prefix order needs: any common total order is correct (q68), DF
    ordering only shrinks collision buckets, and a gram popular
    enough to matter is in nearly every block's local top.  A
    vocab-keyed grouped sum here cost 5-9s of aggregate fan-out at
    sf0.01 for a selectivity hint; the driver pull is bounded at
    n_blocks * 2*top_k counter rows (q58's accounting).

    The pass shingles only a deterministic 1-in-4 document sample
    (_key_hash32(doc_id) % 4 == 0): a gram heavy enough to matter is
    heavy in any fixed quarter of the corpus, and the full-corpus DF
    pass was a second complete shingling of the input purely for this
    hint.  The SAMPLE is keyed (not block-positional), but the
    per-block 2*top_k truncation is NOT — different block layouts can
    admit a different boundary-rank gram, so the heavy set itself is
    approximate AND layout-dependent; q68's output is unaffected
    (any order is correct) and nothing may consume this table as
    deterministic state."""
    if top_k <= 0:  # ordering disabled: hash order only
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)

    from .mlprep import _key_hash32

    _EMPTY = pd.DataFrame(
        {"gram": pd.Series([], dtype="int64"), "n": pd.Series([], dtype="int64")}
    )

    def partial_topk(b: pd.DataFrame) -> pd.DataFrame:
        keep = (_key_hash32(b["doc_id"]) % np.int64(4)) == 0
        if not keep.any():
            return _EMPTY
        d = _df_partials(b[keep])
        if len(d) > 2 * top_k:
            # partial selection, not a full vocab sort — the hint pass
            # only needs the block's largest counts, ties arbitrary
            # (the truncation is approximate either way, see above)
            d = d.nlargest(2 * top_k, "n")
        return d

    parts = docs.map_batches(partial_topk, batch_format="pandas").to_pandas()
    if parts.empty:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    top = parts.groupby("gram", as_index=False)["n"].sum().rename(columns={"n": "df"})
    top = top.sort_values(["df", "gram"], ascending=[False, True]).head(top_k)
    g = top["gram"].to_numpy(dtype=np.int64).astype(np.uint64)
    d = top["df"].to_numpy(dtype=np.int64)
    order = np.argsort(g)
    return g[order], d[order]


# ℓ of the ℓ-prefix filter (Wang, Li and Feng, "Can we beat the prefix
# filtering?", SIGMOD'12): each doc indexes ℓ - 1 grams beyond the
# classic prefix, and a candidate pair must share min(ℓ, its overlap
# lower bound) of them.  On the 5,000-doc sf0.1 corpus at t = 0.7,
# ℓ = 2 sends 1,338 pairs to verify instead of 62,446 (ℓ = 1); ℓ = 3
# is no faster end to end.
_PREFIX_ELL = 2


def _prefix_postings(
    b: pd.DataFrame,
    threshold: float,
    heavy_grams: np.ndarray,
    heavy_df: np.ndarray,
    ell: int,
) -> pd.DataFrame:
    """(doc_id, text) batch -> prefix postings (gram, doc_id, size, pos).

    Per doc with |G| distinct grams, emits the |G| - floor(t*|G|) + ell
    first grams (at most |G|) under the global order (DF-ascending for
    broadcast heavy grams, gram-hash ascending otherwise).  floor (not
    the exact ceil) keeps the prefix a token longer under float t —
    over-emission is safe, a short prefix is not.  One lexsort of the
    batch's _gram_table keys by (doc, DF, gram) ranks every doc's grams
    at once; a gram's rank is its offset from its doc's start, emitted
    as pos for the positional filter."""
    _, sizes, starts, keys = _gram_table(np.arange(len(b)), b["text"].tolist())
    doc = (keys >> np.uint64(32)).astype(np.int64)
    g = keys & _LO32
    dfc, hit = _sorted_lookup(heavy_grams, heavy_df, g)
    order = np.lexsort((g, np.where(hit, dfc, 0), doc))
    rank = np.arange(len(order)) - starts[doc[order]]
    p = np.minimum(sizes, sizes - (threshold * sizes).astype(np.int64) + ell)
    kept = rank < p[doc[order]]
    sel = order[kept]
    return pd.DataFrame(
        {
            "gram": g[sel].astype(np.int64),
            "doc_id": b["doc_id"].to_numpy(np.int64)[doc[sel]],
            "size": sizes[doc[sel]].astype(np.int64),
            "pos": rank[kept],
        }
    )


def _prefix_pairs_from_partition(g: pd.DataFrame, t_num: int, ell: int) -> pd.DataFrame:
    """Candidate rows (a, b, need) of a co-located posting partition:
    one per prefix gram a pair shares (_bucket_pairs over the (gram,
    doc_id) sort), pruned by PPJoin's positional filter (Xiao et al.
    WWW'08).  No star cap — q68's contract is the EXACT pair set, and
    DF-ascending ordering keeps buckets small (a bucket only forms on a
    gram inside both docs' rare-end prefixes).

    ℓ-prefix guarantee (ℓ = ell): a pair with overlap alpha shares its
    first min(ℓ, alpha) common grams inside both (|G| - alpha + ℓ)-
    prefixes, so across all partitions a true pair has at least `need`
    rows, need = min(ℓ, ceil(t' * max(|x|, |y|))) with t' = (t_num -
    1) / 1e6: jaccard >= t' implies alpha >= t' * max(|x|, |y|).
    verify_pairs_adaptive keeps only pairs whose row count reaches it.

    Positional filter: at a pair's k-th shared gram, of ranks pos_x and
    pos_y, the overlap is at most (k - 1) + min(|x| - pos_x, |y| -
    pos_y), and jaccard >= t needs overlap >= t/(1+t) * (|x| + |y|).
    For k <= ℓ that is at most ub = min(|x| - pos_x, |y| - pos_y) +
    ℓ - 1, so each of a true pair's first `need` shared grams keeps
    its row; a later one may be pruned, which the count absorbs.
    Compared in integer millionths with one count of slack (t_num - 1),
    which covers verify's round6 half-up keep rule.  At ℓ = 1, ub <=
    min(|x|, |y|), so the test also enforces the length filter
    min(|x|,|y|) >= t*max(|x|,|y|), to which it reduces at pos 0."""
    g = g.sort_values(["gram", "doc_id"], kind="mergesort")
    ids = g["doc_id"].to_numpy(np.int64)
    size = g["size"].to_numpy(np.int64)
    rest = size - g["pos"].to_numpy(np.int64)
    slack = t_num - 1
    out_a, out_b, out_n = [ids[:0]], [ids[:0]], [ids[:0]]
    for ii, jj in _bucket_pairs(g["gram"].to_numpy()):
        ub = np.minimum(rest[ii], rest[jj]) + (ell - 1)
        keep = ub * (1_000_000 + slack) >= slack * (size[ii] + size[jj])
        ii, jj = ii[keep], jj[keep]
        out_a.append(ids[ii])
        out_b.append(ids[jj])
        # ceil(t' * max(|x|, |y|)) in integers, clipped to [1, ell]
        lo = -((-slack * np.maximum(size[ii], size[jj])) // 1_000_000)
        out_n.append(np.clip(lo, 1, ell))
    return pd.DataFrame(
        {"a": np.concatenate(out_a), "b": np.concatenate(out_b), "need": np.concatenate(out_n)}
    )


def prefix_filter_candidates(
    docs: rd.Dataset, threshold: float, df_top_k: int = _DF_TOP_K
) -> rd.Dataset:
    """documents(doc_id, text) -> EXACT raw candidate rows (a < b,
    need): counted by verify_pairs_adaptive, a superset of every pair
    with n-gram jaccard >= threshold, with no randomness (ℓ-prefix
    guarantee, see q68)."""
    heavy_ref = ray.put(_gram_df_topk(docs, df_top_k))
    t_num = int(round(threshold * 1e6))

    def postings(b: pd.DataFrame) -> pd.DataFrame:
        hg, hdf = bget(heavy_ref)
        return _prefix_postings(b, threshold, hg, hdf, _PREFIX_ELL)

    return (
        docs.map_batches(postings, batch_format="pandas")
        .map_batches(lambda b: _add_part(b, ["gram"]), batch_format="pandas")
        .groupby("part")
        .map_groups(
            lambda g: _prefix_pairs_from_partition(g, t_num, _PREFIX_ELL),
            batch_format="pandas",
        )
    )


def q68_ngram_jaccard_join(sf_dir: str, threshold: float = 0.7) -> rd.Dataset:
    """Exact n-gram-Jaccard similarity self-join over documents via
    prefix filtering (the PPJoin family: Chaudhuri et al. ICDE'06,
    Xiao et al. WWW'08) — the deterministic counterpart to q17's
    MinHash-LSH: same output spec (all pairs with word-trigram jaccard
    >= threshold), but EVERY qualifying pair is found by construction,
    no banding probability.

    ℓ-prefix guarantee (Wang, Li and Feng, SIGMOD'12): under any total
    order common to all docs, two gram sets with jaccard >= t share at
    least min(ℓ, overlap) grams within their (|G| - ceil(t|G|) + ℓ)-
    prefixes, so indexing only those prefix grams and verifying only
    the pairs that share enough of them (the count filter in
    verify_pairs_adaptive) loses nothing.  ℓ = 1 is the classic prefix
    filter; ℓ = _PREFIX_ELL prunes ~98% of its pairs before verify.
    Ordering is DF-ascending via a broadcast top-k heavy-gram table
    (rare grams first -> tiny collision buckets); ordering affects
    selectivity only, never correctness.

    Scale shape: one zero-shuffle DF pass (truncated per-block
    partials, bounded driver merge, O(k) broadcast), one postings
    map_batches (each doc emits ~(1-t)|G|+ℓ grams with their ranks),
    one coarse 32-way bucket shuffle whose partitions each emit all
    their in-bucket pairs in one numpy pass, pruned by PPJoin's
    positional filter, then the shared adaptive broadcast/join verify,
    which counts each pair's rows first.  Partitioning assumption:
    collision-bucket width stays << corpus because common grams sit at
    the order's tail — corpora whose rare-gram tail is still
    ultra-dense need a larger _DF_TOP_K.  Reference analog: extends the reference's exact
    key-level merge-dedup (``data/s2processor.py:114-118``) from exact
    keys to near-duplicate text."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return verify_pairs_adaptive(
        docs, prefix_filter_candidates(docs, threshold), threshold
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------
def simhash64(text: str) -> int:
    """Charikar simhash over word features (crc32-hashed, unweighted)."""
    toks = text.split()
    if not toks:
        return 0
    hs = np.fromiter((zlib.crc32(t.encode()) for t in toks), dtype=np.uint64, count=len(toks))
    # widen to 64 bits by mixing (golden-ratio multiply)
    with np.errstate(over="ignore"):
        hs = hs * np.uint64(0x9E3779B97F4A7C15)
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    val = int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))
    return val - (1 << 64) if val >= 1 << 63 else val


# 16-bit popcount lookup (64 KiB, built once per process): four table
# gathers per uint64 — the vectorized path for bucket-local hamming
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Element-wise popcount of a uint64 array, fully vectorized."""
    x = x.astype(np.uint64, copy=False)
    m = np.uint64(0xFFFF)
    return (
        _POP16[(x & m).astype(np.int64)].astype(np.int64)
        + _POP16[((x >> np.uint64(16)) & m).astype(np.int64)]
        + _POP16[((x >> np.uint64(32)) & m).astype(np.int64)]
        + _POP16[((x >> np.uint64(48)) & m).astype(np.int64)]
    )


def simhash64_batch(texts: list[str]) -> np.ndarray:
    """Batch-vectorized simhash64 (bit-identical to the scalar form;
    tests/test_dedup assert it, q22p guards the scalar itself): crc32
    only touches the batch's UNIQUE tokens, the per-bit +/-1 votes are
    summed per doc with one np.add.reduceat over the flat token-hash
    array."""
    tok_lists = [t.split() for t in texts]
    counts = np.fromiter((len(t) for t in tok_lists), np.int64, count=len(tok_lists))
    flat = list(itertools.chain.from_iterable(tok_lists))
    out = np.zeros(len(texts), dtype=np.int64)
    if not flat:
        return out
    uniq, inv = np.unique(np.asarray(flat, dtype=object), return_inverse=True)
    uh = np.fromiter(
        (zlib.crc32(u.encode()) for u in uniq), dtype=np.uint64, count=len(uniq)
    )
    with np.errstate(over="ignore"):
        th = (uh * np.uint64(0x9E3779B97F4A7C15))[inv]
    ar = np.arange(64, dtype=np.uint64)
    contrib = (((th[:, None] >> ar) & np.uint64(1)).astype(np.int32) * 2 - 1)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # reduceat quirks: an empty segment (start == next start) returns
    # the single element at start, and a TRAILING empty doc's start
    # equals len (out of range).  Pad one all-zero vote row so index
    # len is valid — it only ever contributes 0 to an add — and
    # overwrite empty docs with simhash 0 below.
    contrib = np.vstack([contrib, np.zeros((1, 64), dtype=np.int32)])
    sums = np.add.reduceat(contrib, starts, axis=0)
    vals = ((sums > 0).astype(np.uint64) << ar).sum(axis=1, dtype=np.uint64)
    out = vals.astype(np.int64)  # C cast, wraps like the scalar path
    out[counts == 0] = 0
    return out


def q22_simhash(sf_dir: str) -> rd.Dataset:
    """Per-document 64-bit simhash.  Driver oracle: pure-Python-int
    re-derivation written to parquet (oracle_artifacts 'naive_simhash')
    read by the SQL side — full per-row value cross-check (q22p keeps
    the in-pipeline agreement gate, test_dedup the batch-vs-scalar)."""
    from .oracle_artifacts import ensure

    ensure("naive_simhash", sf_dir)

    def f(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "simhash": simhash64_batch(b["text"].tolist())}
        )

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]).map_batches(
        f, batch_format="pandas"
    )


def _hamming_pairs_from_partition(
    g: pd.DataFrame, max_hamming: int, star_cap: int | None, id_dtype: str
) -> pd.DataFrame:
    """Band buckets of (doc_id, _h) rows -> (a < b, hamming) pairs
    within max_hamming; a repeated (doc_id, _h) row counts once."""
    cols = ["band_id", "band_hash", "doc_id", "_h"]
    g = g.drop_duplicates(cols).sort_values(cols, kind="mergesort")
    ids = g["doc_id"].to_numpy()
    hs = g["_h"].to_numpy(np.int64).astype(np.uint64)
    out_a, out_b, out_d = [ids[:0]], [ids[:0]], [np.zeros(0, np.int64)]
    for ii, jj in _bucket_pairs(g[cols[:2]].to_numpy(), star=star_cap):
        d = _popcount64(hs[ii] ^ hs[jj])
        keep = (d <= max_hamming) & (ids[ii] != ids[jj])
        out_a.append(ids[ii[keep]])
        out_b.append(ids[jj[keep]])
        out_d.append(d[keep])
    return pd.DataFrame(
        {
            "a": pd.Series(np.concatenate(out_a), dtype=id_dtype),
            "b": pd.Series(np.concatenate(out_b), dtype=id_dtype),
            "hamming": pd.Series(np.concatenate(out_d), dtype="int64"),
        }
    )


def hamming_near_dup_pairs(
    ds: rd.Dataset,
    id_col: str,
    hash_col: str,
    max_hamming: int = 3,
    id_dtype: str = "int64",
    star_cap: int | None = _STAR_BUCKET_SIZE,
) -> rd.Dataset:
    """Generic 64-bit-hash hamming near-dup by banding: 4 x 16-bit
    bands (a pair within hamming <= 3 of 64 bits must agree exactly on
    >= 1 band — pigeonhole; wider radii trade recall), bucket
    co-location by hash(band) % N_PARTS, exact hamming verification
    inside the bucket, distinct via hash aggregate.  Works over any
    precomputed int64 hash column (simhash over text, phash over the
    crawled image payload) and any orderable id dtype.

    Bucket-local verification is numpy end to end (VERDICT r02 #3: the
    previous per-pair Python loop with bin().count('1') would run
    ~1.25B iterations on one 50k-image degenerate bucket): XOR over
    the _bucket_pairs chunks + 16-bit-table popcount.  Buckets larger
    than ``star_cap`` emit STAR pairs (min-id x member, hamming-
    filtered) instead of all O(k^2) combinations — same cap and
    rationale as the MinHash path (_STAR_BUCKET_SIZE): connectivity
    for dup-group formation is preserved at O(k); pass ``star_cap=None`` for the
    exact all-pairs listing (what the q32 brute-force oracle checks —
    at crawl-payload scale phash buckets are duplicate clusters, so
    the star's hamming filter loses only members far from the
    representative but near each other, a documented recall trade)."""

    def explode_bands(b: pd.DataFrame) -> pd.DataFrame:
        sh = b[hash_col].to_numpy().astype(np.int64)
        rows = []
        for band in range(4):
            frag = (sh.astype(np.uint64) >> np.uint64(16 * band)) & np.uint64(0xFFFF)
            rows.append(
                pd.DataFrame(
                    {
                        "doc_id": b[id_col].astype(id_dtype),
                        "_h": sh,
                        "band_id": np.int32(band),
                        "band_hash": frag.astype(np.int64),
                    }
                )
            )
        return pd.concat(rows, ignore_index=True)

    from ray.data.aggregate import Min

    return (
        ds.map_batches(explode_bands, batch_format="pandas")
        .map_batches(lambda b: _add_part(b, ["band_id", "band_hash"]), batch_format="pandas")
        .groupby("part")
        .map_groups(
            lambda g: _hamming_pairs_from_partition(g, max_hamming, star_cap, id_dtype),
            batch_format="pandas",
        )
        # distinct (a, b) via hash aggregate — hamming is identical
        # across the bands a pair collides in, so Min just keeps it
        .groupby(["a", "b"])
        .aggregate(Min("hamming", alias_name="hamming"))
    )


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup (LSH-bucketed)
# ---------------------------------------------------------------------------
def q23_embedding_near_dup(sf_dir: str, threshold: float = 0.95, bits: int = 12) -> rd.Dataset:
    """Vector near-dup: random-hyperplane bucket signature as the
    groupby key, exact cosine inside each bucket. Pairs straddling a
    bucket boundary are missed by design (scale/recall trade
    documented); the brute oracle in tests measures recall."""
    import pyarrow.parquet as pq

    dim = len(
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding"]).slice(0, 1)[
            "embedding"
        ][0]
    )
    rng = np.random.Generator(np.random.PCG64(11))
    planes = rng.standard_normal((bits, dim))

    def sketch(b: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vecs /= np.clip(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12, None)
        sig = ((vecs @ planes.T) > 0).astype(np.uint64)
        bucket = (sig << np.arange(bits, dtype=np.uint64)).sum(axis=1).astype(np.int64)
        return pd.DataFrame(
            {"vec_id": b["vec_id"].astype("int64"), "bucket": bucket, "vec": list(vecs)}
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame(
                {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64"),
                 "cos": pd.Series([], dtype="float64")}
            )
        ids = g["vec_id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        mat = np.stack(g["vec"].to_numpy())[order]
        cos = mat @ mat.T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = cos[ii, jj] >= threshold
        return pd.DataFrame(
            {
                "a": ids[ii[keep]],
                "b": ids[jj[keep]],
                "cos": np.round(cos[ii[keep], jj[keep]], 6),
            }
        )

    out = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .map_batches(sketch, batch_format="pandas", batch_size=4096)
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
    )
    return _typed_pairs(out, ("a", "b", "cos"))


def q23_embedding_neardup_recall(
    sf_dir: str, threshold: float = 0.45, bits: int = 12
) -> pa.Table:
    """q23's driver entry: hyperplane-bucketed near-dup pairs (the
    scale path) cross-checked against the EXACT all-pairs kernel,
    reduced to (n_exact, n_lsh, n_hit) counters (VERDICT r02 #1).

    The bucketed pairs are written to parquet ('q23_lsh'); the oracle
    SQL recomputes the exact pair set independently (the q23b
    list_cosine_similarity form) and joins the parquet, so n_exact is
    a numpy-vs-SQL value check and n_hit audits the LSH candidate set
    end to end.  Threshold 0.45 matches the q23b anchor (the driver
    embeddings are random; 0.95 matches nothing); recall at this low
    threshold is poor BY DESIGN (bucketing targets near-identical
    vectors) — the counter records it rather than hiding it."""
    from .oracle_artifacts import write_atomic

    lsh = q23_embedding_near_dup(sf_dir, threshold=threshold, bits=bits)
    write_atomic(lsh.select(["a", "b"]), "q23_lsh", sf_dir)
    exact = q23b_embedding_neardup_exact(sf_dir, threshold)
    eset = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    lset = set(zip(lsh["a"].to_pylist(), lsh["b"].to_pylist()))
    return pa.table(
        {
            "n_exact": pa.array([len(eset)], pa.int64()),
            "n_lsh": pa.array([len(lset)], pa.int64()),
            "n_hit": pa.array([len(eset & lset)], pa.int64()),
        }
    )


def q23b_embedding_neardup_exact(sf_dir: str, threshold: float = 0.45) -> pa.Table:
    """EXACT all-pairs embedding-cosine near-dup (SQL-oracled anchor
    for the vector near-dup family): per batch, one float64 matmul of
    the batch's rows against the broadcast unit-normalized matrix,
    keeping (a < b, cos >= threshold).

    Scale note: this is O(n^2) in the table — the hyperplane-bucketed
    q23 is the 100 TB path; this kernel is the correctness anchor (the
    same broadcast-matrix batch-matmul shape as q15 ANN) and the
    recall reference.  Threshold 0.45 because the driver embeddings
    are random (max pair cosine ~0.5): 0.95 matches nothing."""
    from .cluster import stack_embeddings_arrow

    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids_all = tbl["vec_id"].to_numpy()
    mat = stack_embeddings_arrow(tbl["embedding"])
    mat /= np.clip(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12, None)
    ref = ray.put((ids_all, mat))

    def f(b: pd.DataFrame) -> pd.DataFrame:
        g_ids, g_mat = bget(ref)
        vecs = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vecs /= np.clip(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12, None)
        vid = b["vec_id"].to_numpy()
        cos = vecs @ g_mat.T  # (batch, n)
        ii, jj = np.nonzero((cos >= threshold) & (vid[:, None] < g_ids[None, :]))
        kept = cos[ii, jj]
        return pd.DataFrame(
            {
                "a": vid[ii].astype(np.int64),
                "b": g_ids[jj].astype(np.int64),
                # half-away-from-zero like DuckDB's round() — np.round
                # is banker's (half-to-even), which flips the value
                # hash on an exact x.xxxxx5 boundary (the _round6_half_up
                # flake class); kept values are >= threshold > 0
                "cos": np.floor(kept * 1e6 + 0.5) / 1e6,
            }
        )

    out = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(f, batch_format="pandas", batch_size=2048)
    return _typed_pairs(out, ("a", "b", "cos"))


# ---------------------------------------------------------------------------
# Connected components over near-dup pairs -> dup GROUPS
# ---------------------------------------------------------------------------
# below this many (symmetric) edges, connected components runs as one
# vectorized driver pass — dup edge sets are bounded by construction
# (star caps, band verification); above it, the distributed loop runs
CC_DRIVER_EDGE_LIMIT = 2_000_000


def _cc_driver(node: np.ndarray, peer: np.ndarray, max_iters: int) -> pa.Table:
    """Vectorized driver-side min-label propagation with pointer
    jumping: same fixpoint (min reachable id), same max_iters guard as
    the distributed loop.  Compressed indices are assigned in node-id
    order (np.unique sorts), so the min compressed index IS the min
    node id."""
    nodes, inv = np.unique(np.concatenate([node, peer]), return_inverse=True)
    ia, ib = inv[: len(node)], inv[len(node):]
    lab = np.arange(len(nodes), dtype=np.int64)
    for _ in range(max_iters):
        new = lab.copy()
        np.minimum.at(new, ia, lab[ib])
        np.minimum.at(new, ib, lab[ia])
        new = np.minimum(new, new[new])  # pointer jumping: halve chains
        if np.array_equal(new, lab):
            break
        lab = new
    else:
        raise RuntimeError(
            f"connected_components: no fixpoint after {max_iters} rounds "
            "(graph diameter exceeds max_iters) — refusing to return "
            "partially-propagated groups"
        )
    return pa.table(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "group_id": pa.array(nodes[lab], pa.int64()),
        }
    )


def connected_components(pairs: rd.Dataset | pa.Table, max_iters: int = 50) -> rd.Dataset:
    """(a, b) edge list -> (doc_id, group_id) with group_id = the min
    doc id reachable through the near-dup graph — the canonical
    representative each duplicate collapses to.

    Fully distributed min-label propagation (VERDICT r01 #2: the
    previous version pulled edges AND labels to the driver every
    iteration): labels stay a Dataset end to end; each round resolves
    peer labels with one hash join edges(peer) ⋈ labels(node), unions
    the self-labels, and takes groupby(node).min.  Convergence is an
    O(1) driver check on an aggregate: labels are non-increasing under
    min-propagation, so sum(label) is a fixpoint witness — equal sums
    between rounds means no label moved (no label-table join needed).
    Rounds = graph diameter (near-dup clusters are shallow: star-capped
    buckets have diameter 2, chains are rare); raises if max_iters is
    hit without a fixpoint rather than silently returning wrong groups.
    Shuffle traffic per round: (node, label) int pairs only — never
    document payloads.
    """
    from ray.data.aggregate import Min

    from .relational import JOIN_ARGS

    _empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "group_id": pa.array([], pa.int64())}
    )
    if isinstance(pairs, pa.Table):
        if pairs.num_rows == 0:
            return rd.from_arrow(_empty)
        ds = rd.from_arrow(pairs.select(["a", "b"]))
    else:
        ds = pairs.map_batches(
            lambda t: t.select(["a", "b"]), batch_format="pyarrow"
        )

    def _sym(t: pa.Table) -> pa.Table:
        a, b = t["a"].cast(pa.int64()), t["b"].cast(pa.int64())
        return pa.concat_tables(
            [pa.table({"node": a, "peer": b}), pa.table({"node": b, "peer": a})]
        )

    edges = ds.map_batches(_sym, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(_empty)

    # ADAPTIVE (the q05/q07/q17 pattern): near-dup edge lists are tiny
    # relative to the corpus — below the limit, pull the int pairs and
    # run vectorized min-propagation with pointer jumping on the
    # driver (each distributed round pays ~1-2s of join-aggregator
    # startup; the driver form converges the same fixpoint in
    # microseconds of numpy).  The distributed loop below is the
    # 100 TB path, forced + oracle-checked in tests.
    if n_edges <= CC_DRIVER_EDGE_LIMIT:
        df = edges.to_pandas()
        return rd.from_arrow(
            _cc_driver(
                df["node"].to_numpy().astype(np.int64),
                df["peer"].to_numpy().astype(np.int64),
                max_iters,
            )
        )

    npart = _join_nparts()
    # every endpoint starts labeled with itself (distinct via aggregate)
    labels = (
        edges.groupby("node").aggregate(Min("node", alias_name="label")).materialize()
    )
    prev_sum = labels.sum("label")

    for _ in range(max_iters):
        cand = edges.join(
            labels, join_type="inner", num_partitions=npart,
            on=("peer",), right_on=("node",),
            left_suffix="_e", right_suffix="_l", **JOIN_ARGS,
        )
        cand = cand.map_batches(
            lambda t: pa.table({"node": t["node"], "label": t["label"]}),
            batch_format="pyarrow",
        )
        labels = (
            cand.union(labels)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"connected_components: no fixpoint after {max_iters} rounds "
            "(graph diameter exceeds max_iters) — refusing to return "
            "partially-propagated groups"
        )

    return labels.map_batches(
        lambda t: pa.table({"doc_id": t["node"], "group_id": t["label"]}),
        batch_format="pyarrow",
    )


def q38_dup_groups(sf_dir: str, threshold: float = 0.7) -> rd.Dataset:
    """End-to-end dedup: EXACT prefix-filter candidates -> exact
    verification -> connected components -> (doc_id, group_id)
    canonical-dup assignment.  SQL-oracled (WITH RECURSIVE min-label
    propagation in __ray_entry__); component semantics additionally
    tested against hand-built graphs in tests/test_dedup.py.

    Candidates come from the q68 prefix filter, not MinHash-LSH: the
    group chain inherits exactness (an LSH miss — ~2e-4/pair — merges
    or splits whole groups downstream, and connected components
    amplify it), and the size probe (BASELINE.md, "Dedup-family size
    probe" table) measured the exact generator 2.2x FASTER at 200k
    docs (one shingling pass vs 256 signature permutations per doc).  q17
    remains the sketch path for corpora whose prefix buckets
    degenerate."""
    verified = q68_ngram_jaccard_join(sf_dir, threshold)
    return connected_components(verified)


# group tables below this row count broadcast (one filtered corpus
# pass, zero shuffles); above it, the full corpus pays one left-outer
# hash join keyed by doc_id — dup-group membership at 100 TB can be a
# double-digit fraction of the corpus, which no driver should hold
_SPLIT_BROADCAST_LIMIT = 2_000_000


def q69_leakage_safe_split(sf_dir: str, threshold: float = 0.7) -> rd.Dataset:
    """Leakage-safe train/val/test assignment: each document's split
    is decided by the Fibonacci hash of its near-dup GROUP
    representative (q38's connected-components label; documents in no
    group represent themselves), so near-duplicates can never straddle
    train and test — the contamination guard LLM corpora randomize at
    the GROUP level, not the document level (a doc-level hash split
    leaks ~2x the dup rate across the boundary).  h(rep) % 10:
    0-7 train, 8 val, 9 test.

    Scale shape: the group table (bounded by dup density) broadcasts
    when small, else one left-outer hash join keyed by doc_id — the
    corpus itself never moves otherwise; the split tag is a stateless
    vectorized keep-free pass (q50's _key_hash32 kernel, which the SQL
    oracle replays exactly in HUGEINT).  Reference analog: the
    reference has no split logic at all (its dedup is the md5 cache,
    ``dblpclient.py:442-443``); this is new training-data surface."""
    from .mlprep import _key_hash32
    from .relational import JOIN_ARGS

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    groups = q38_dup_groups(sf_dir, threshold).materialize()

    def tag(rep: np.ndarray) -> np.ndarray:
        code = _key_hash32(rep) % np.int64(10)
        return np.select(
            [code <= 7, code == 8], ["train", "val"], default="test"
        )

    if groups.count() <= _SPLIT_BROADCAST_LIMIT:
        gp = groups.to_pandas().sort_values("doc_id")
        ref = ray.put(
            (
                gp["doc_id"].to_numpy(dtype=np.int64),
                gp["group_id"].to_numpy(dtype=np.int64),
            )
        )

        def assign(b: pd.DataFrame) -> pd.DataFrame:
            ids, gids = bget(ref)
            d = b["doc_id"].to_numpy(dtype=np.int64)
            g, hit = _sorted_lookup(ids, gids, d)
            rep = np.where(hit, g, d)
            return pd.DataFrame({"doc_id": d, "rep": rep, "split": tag(rep)})

        return docs.map_batches(assign, batch_format="pandas")

    npart = _join_nparts()
    joined = docs.join(
        groups, join_type="left_outer", num_partitions=npart,
        on=("doc_id",), **JOIN_ARGS,
    )

    def assign_joined(t: pa.Table) -> pa.Table:
        # Arrow batch: unmatched group_id stays a NULL int64 — a
        # pandas batch would lift the column to float64 and corrupt
        # 2^53+ representatives
        d = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        g = t["group_id"].combine_chunks()
        valid = pc.is_valid(g).to_numpy(zero_copy_only=False)
        rep = np.where(valid, g.fill_null(0).to_numpy(zero_copy_only=False), d)
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "rep": pa.array(rep, pa.int64()),
                "split": pa.array(tag(rep)),
            }
        )

    return joined.map_batches(assign_joined, batch_format="pyarrow")


def q70_dedup_corpus(sf_dir: str, threshold: float = 0.7) -> rd.Dataset:
    """The near-deduplicated corpus — the canonical endpoint of the
    dedup chain: keep ONE representative per dup group (the group's
    min doc_id, q38's label) plus every singleton, each row carrying
    its group size.  (doc_id, n_members); sum(n_members) == corpus.

    Scale shape mirrors q69: the (bounded-by-dup-density) group table
    either broadcasts as three sorted arrays (dropped ids, rep ids,
    sizes) for a stateless one-pass filter, or — above the broadcast
    limit — the corpus pays one left-outer hash join against the
    group table and one against the per-rep size table, both keyed by
    doc_id; payload columns never move (callers semi-join the surviving
    ids against the full table, the q05 pattern).  Reference analog:
    the reference's whole-corpus md5-keyed drop
    (``data/s2processor.py:114-118``) extended to near-duplicates."""
    from .relational import JOIN_ARGS

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    groups = q38_dup_groups(sf_dir, threshold).materialize()

    if groups.count() <= _SPLIT_BROADCAST_LIMIT:
        gp = groups.to_pandas()
        dropped = np.sort(
            gp.loc[gp["doc_id"] != gp["group_id"], "doc_id"].to_numpy(np.int64)
        )
        sz = gp.groupby("group_id").size()
        rep_ids = sz.index.to_numpy(np.int64)
        order = np.argsort(rep_ids)
        ref = ray.put((dropped, rep_ids[order], sz.to_numpy(np.int64)[order]))

        def keep_one(b: pd.DataFrame) -> pd.DataFrame:
            drop_ids, reps, counts = bget(ref)
            d = b["doc_id"].to_numpy(dtype=np.int64)
            _, is_dropped = _sorted_lookup(drop_ids, drop_ids, d)
            d = d[~is_dropped]
            n, hit = _sorted_lookup(reps, counts, d)
            return pd.DataFrame(
                {"doc_id": d, "n_members": np.where(hit, n, 1).astype(np.int64)}
            )

        return docs.map_batches(keep_one, batch_format="pandas")

    from ray.data.aggregate import Count

    npart = _join_nparts()
    sizes = (
        groups.groupby("group_id")
        .aggregate(Count(alias_name="n_members"))
        .map_batches(
            lambda t: t.rename_columns(["doc_id", "n_members"]),
            batch_format="pyarrow",
        )
    )
    joined = docs.join(
        groups, join_type="left_outer", num_partitions=npart,
        on=("doc_id",), **JOIN_ARGS,
    )

    def survivors(t: pa.Table) -> pa.Table:
        g = t["group_id"].combine_chunks()
        keep = pc.or_kleene(
            pc.is_null(g), pc.equal(g, t["doc_id"].combine_chunks())
        )
        return t.filter(keep.fill_null(True)).select(["doc_id"])

    kept = joined.map_batches(survivors, batch_format="pyarrow").join(
        sizes, join_type="left_outer", num_partitions=npart,
        on=("doc_id",), **JOIN_ARGS,
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_members"].combine_chunks().fill_null(1)
        return pa.table(
            {"doc_id": t["doc_id"], "n_members": n.cast(pa.int64())}
        )

    return kept.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# q61 — benchmark decontamination: flag every training document that
# shares at least one word trigram with the evaluation set (the
# GPT-3/Pile-style "remove eval overlap from training data" pass; the
# reference deduplicates only by md5 cache hit, dblpclient.py:442-443
# — contamination is invisible to it).
#
# Eval set = doc_id % 97 == 0 (benchmarks are small by construction —
# that smallness IS the operator's scale premise).  Grams follow the
# house trigram convention (_JACCARD_CTE / _shingle_hashes): distinct
# word trigrams over \S+ tokens; docs shorter than 3 tokens
# contribute the whole text as one gram.
#
# Scale shape: the eval gram-set broadcasts ONCE (ray.put, bget per
# process) and the training side is a single vectorized map_batches
# pass — no shuffle anywhere; a 100 TB corpus streams against a
# benchmark set that is MBs.  The DEFAULT kernel is the 64-bit hashed
# shingle path (_batch_gram_hashes64 + sorted-array membership) — the
# r03 verdict's ask: the per-doc Python set construction was the only
# implementation.  64 bits (not the MinHash path's folded 32) because
# gram-hash equality stands in for string equality here: at corpus
# scale the 32-bit birthday bound would flag clean documents.  The
# string-gram form survives as q61_decontaminate_exact — the zero-
# collision anchor the SQL oracle replays verbatim and the parity
# pytest compares against (same anchor/production split as q17).
# ---------------------------------------------------------------------------
def _gram_set(text: str) -> set:
    ts = text.split()
    if len(ts) >= 3:
        return {" ".join(ts[i : i + 3]) for i in range(len(ts) - 2)}
    return {" ".join(ts)}


def _batch_gram_hashes64(
    texts: list[str], n: int = _SHINGLE_N
) -> tuple[np.ndarray, np.ndarray]:
    """64-bit batch shingling (q61): token hash = crc32 low half |
    adler32 high half (two zlib checksums per UNIQUE token), rolling
    polynomial left unfolded — same core kernel as _batch_gram_hashes."""
    return _batch_grams_core(texts, n, _hash_tokens_crc_adler64, _identity)


def q61_decontaminate(sf_dir: str, eval_mod: int = 97) -> rd.Dataset:
    """Production path: 64-bit hashed shingles, vectorized membership
    (sorted eval array + searchsorted), distinct-(doc, gram) dedupe in
    numpy.  Row-identical to q61_decontaminate_exact absent 64-bit
    collisions (pytest-gated at sf0.01)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    eval_texts = (
        docs.map_batches(
            lambda b: b[b["doc_id"] % eval_mod == 0][["text"]],
            batch_format="pandas",
        ).take_all()  # bounded: the benchmark set is small by definition
    )
    eg_flat, _ = _batch_gram_hashes64([r["text"] for r in eval_texts])
    gref = ray.put(np.unique(eg_flat) if len(eg_flat) else np.zeros(0, np.uint64))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        eg = bget(gref)  # sorted uint64 array
        empty = pd.DataFrame(
            {
                "doc_id": np.zeros(0, np.int64),
                "n_shared": np.zeros(0, np.int64),
            }
        )
        train = b[b["doc_id"] % eval_mod != 0]
        if len(eg) == 0 or len(train) == 0:
            return empty
        grams, counts = _batch_gram_hashes64(train["text"].tolist())
        doc_idx = np.repeat(np.arange(len(counts)), counts)
        pos = np.searchsorted(eg, grams)
        hit = (pos < len(eg)) & (eg[np.minimum(pos, len(eg) - 1)] == grams)
        if not hit.any():
            return empty
        di, gr = doc_idx[hit], grams[hit]
        # n_shared counts DISTINCT shared grams: dedupe (doc, gram)
        order = np.lexsort((gr, di))
        di, gr = di[order], gr[order]
        keep = np.ones(len(di), bool)
        keep[1:] = (di[1:] != di[:-1]) | (gr[1:] != gr[:-1])
        di = di[keep]
        uidx, n_shared = np.unique(di, return_counts=True)
        return pd.DataFrame(
            {
                "doc_id": train["doc_id"].to_numpy().astype(np.int64)[uidx],
                "n_shared": n_shared.astype(np.int64),
            }
        )

    # stays a Dataset: a heavily contaminated corpus can flag O(rows),
    # so the result must stream, not land on the driver
    return docs.map_batches(flag, batch_format="pandas")


def q61_decontaminate_exact(sf_dir: str, eval_mod: int = 97) -> rd.Dataset:
    """String-gram anchor (zero collision caveat — the form the SQL
    oracle replays verbatim and the parity pytest holds the hashed
    production path to)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    eval_texts = (
        docs.map_batches(
            lambda b: b[b["doc_id"] % eval_mod == 0][["text"]],
            batch_format="pandas",
        ).take_all()
    )
    eval_grams = (
        set().union(*(_gram_set(r["text"]) for r in eval_texts))
        if eval_texts
        else set()
    )
    gref = ray.put(eval_grams)

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        eg = bget(gref)
        train = b[b["doc_id"] % eval_mod != 0]
        n_shared = [len(_gram_set(t) & eg) for t in train["text"]]
        out = pd.DataFrame(
            {
                "doc_id": train["doc_id"].astype("int64").to_numpy(),
                "n_shared": np.asarray(n_shared, dtype=np.int64),
            }
        )
        return out[out["n_shared"] > 0]

    return docs.map_batches(flag, batch_format="pandas")


# ---------------------------------------------------------------------------
# q64 — exact duplicate-span detection (the windowed form of Lee et
# al. 2022 "Deduplicating Training Data Makes Language Models Better"
# §3 ExactSubstr): two documents are span-duplicates if they share at
# least one exact W-token window; output (a, b, n_shared) with the
# count of distinct shared windows per pair.
#
# Boilerplate prune: windows appearing in more than MAX_DF documents
# are dropped on BOTH sides (SQL HAVING mirror) — standard practice
# (ubiquitous spans are not duplication evidence) AND the guard that
# kills the k²-pairs blowup a viral span would cause (the same
# degenerate-bucket class the MinHash star cap handles).
#
# Scale shape: per-doc distinct window strings emit as (g, doc_id)
# rows, co-located by crc32(g) coarse partition (every row of a gram
# lands in ONE partition, so the DF prune is exact per partition);
# every partition's pairs come from one _bucket_pairs pass over its
# (g, doc_id) sort; per-pair counts pack into one int64 key and
# cross a second coarse grouped-sum.  Window STRINGS keep the SQL
# oracle exact; at 100 TB you'd switch to the rolling 64-bit window
# hashes (_batch_gram_hashes with n=W) — same trade as q61, with this
# form as the correctness anchor.
# ---------------------------------------------------------------------------
SPAN_W = 8
SPAN_MAX_DF = 20


def _span_pairs_from_partition(part: pd.DataFrame, max_df: int) -> pd.DataFrame:
    """(g, doc_id) window rows -> packed (a << 32 | b) pair keys with
    their count of shared windows in this partition.  Windows in more
    than max_df docs emit nothing (the DF prune is exact: a window's
    rows are whole in one partition)."""
    s = part.sort_values(["g", "doc_id"], kind="mergesort")
    d = s["doc_id"].to_numpy(np.int64)
    if len(d) and int(d.max()) >= 1 << 31:
        raise ValueError("q64: doc_id exceeds the 31-bit pair-pack range")
    keys = [d[:0]]
    for i, j in _bucket_pairs(s["g"].to_numpy(), widest=max_df):
        keys.append((d[i] << np.int64(32)) | d[j])
    c = pd.Series(np.concatenate(keys)).value_counts()
    return pd.DataFrame({"k": c.index.to_numpy(np.int64), "n": c.to_numpy(np.int64)})


def q64_dup_spans(
    sf_dir: str, w: int = SPAN_W, max_df: int = SPAN_MAX_DF
) -> rd.Dataset:
    from .relational import _grouped_sum_parts

    def windows(b: pd.DataFrame) -> pd.DataFrame:
        gs: list[str] = []
        ids: list[int] = []
        for did, text in zip(b["doc_id"].astype("int64"), b["text"]):
            ts = text.split()
            if len(ts) < w:
                continue
            uniq = {" ".join(ts[i : i + w]) for i in range(len(ts) - w + 1)}
            gs.extend(uniq)
            ids.extend([did] * len(uniq))
        out = pd.DataFrame({"g": pd.Series(gs, dtype="object"), "doc_id": ids})
        out["_part"] = np.array(
            [zlib.crc32(g.encode()) & 31 for g in out["g"]], dtype=np.int32
        ) if len(out) else np.array([], dtype=np.int32)
        return out

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pair_parts = (
        docs.map_batches(windows, batch_format="pandas")
        .groupby("_part")
        .map_groups(lambda p: _span_pairs_from_partition(p, max_df), batch_format="pandas")
    )
    summed = _grouped_sum_parts(pair_parts, "k", {"n": "n"})
    return summed.map_batches(
        lambda b: pd.DataFrame(
            {
                "a": (b["k"].to_numpy(np.int64) >> np.int64(32)),
                "b": b["k"].to_numpy(np.int64) & np.int64(0xFFFFFFFF),
                "n_shared": b["n"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )
