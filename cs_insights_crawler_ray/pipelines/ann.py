"""Similarity search over the ``embeddings`` table.

Two paths per the build contract:

- ``q15_ann_brute``: exact cosine top-k — per batch, one numpy
  float64 matmul against a broadcast query matrix (``ray.put`` once,
  fetched in each actor's ``__init__``), then a per-batch partial
  top-k; partials merge in a final small stage. Streams: no stage
  ever holds more than (batch × queries) scores.
- ``q16_lsh_ann``: the scale path — random-hyperplane (SimHash) LSH
  buckets; only vectors sharing a bucket with a query are scored.
  Recall < 1 by design; the brute result is its oracle in tests.

DuckDB oracle for the brute path uses list_cosine_similarity; only
(qid, vec_id) pairs are compared (cosine floats differ in the last
ulp between numpy and DuckDB).
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.broadcast import bget
from .cluster import stack_embeddings_arrow

N_QUERIES = 3  # queries = embeddings with vec_id < N_QUERIES (deterministic)
TOP_K = 10


def _load_queries(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    tbl = tbl.filter(pc.less(tbl["vec_id"], pa.scalar(N_QUERIES)))
    ids = tbl["vec_id"].to_numpy()
    mat = stack_embeddings_arrow(tbl["embedding"])
    # clip like every scorer: an all-zero query row must not become
    # NaN (NaN cosines poison the heap-merge tuple comparisons)
    mat /= np.clip(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12, None)
    return ids, mat


class _BruteScorer:
    """Batch scorer; run as TASKS with the query matrix broadcast via
    bget (fetched once per worker process) — no pool reservation."""

    def __init__(self, qref, qids):
        self.qref = qref
        self.qids = qids

    @property
    def q(self):
        return bget(self.qref)  # (Q, D) float64, rows unit-norm

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vecs /= np.clip(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12, None)
        cos = vecs @ self.q.T  # (N, Q)
        out = []
        vid = b["vec_id"].to_numpy()
        for qi, qid in enumerate(self.qids):
            col = cos[:, qi]
            keep = vid != qid
            idx = np.nonzero(keep)[0]
            if idx.size == 0:
                continue
            k = min(TOP_K, idx.size)
            # partial top-k within the batch — merged downstream.
            # lexsort, not argpartition: exact-tie candidates at the
            # k boundary (duplicate vectors) must keep the SMALLEST
            # vec_id, the driver merge's tie-break — otherwise Ray's
            # block split decides which tied row survives the partial
            top = idx[np.lexsort((vid[idx], -col[idx]))[:k]]
            out.append(
                pd.DataFrame({"qid": qid, "vec_id": vid[top], "cos": col[top]})
            )
        return (
            pd.concat(out, ignore_index=True)
            if out
            else pd.DataFrame({"qid": pd.Series([], dtype="int64"),
                               "vec_id": pd.Series([], dtype="int64"),
                               "cos": pd.Series([], dtype="float64")})
        )


def q15_ann_brute(sf_dir: str) -> pa.Table:
    qids, qmat = _load_queries(sf_dir)
    qref = ray.put(qmat)
    partials = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .map_batches(
            _BruteScorer(qref, qids),
            batch_format="pandas",
            batch_size=4096,
        )
    )
    return _merge_topk(partials, qids, with_cos=False)


def _merge_topk(partials: rd.Dataset, qids, with_cos: bool) -> pa.Table:
    """Final exact top-k merge per query — ONE copy of the
    tie-break-sensitive heap logic for q15/q16/q41 (review r04: three
    drifting near-copies).  The partial set is tiny (n_blocks x K per
    query) so a driver-side heap is correct; (cos, -vec_id) tuples
    break ties toward the smaller vec_id, matching the partials'
    lexsort.  cos (when emitted) rounds half-away like DuckDB."""
    best: dict[int, list] = {int(q): [] for q in qids}
    for batch in partials.iter_batches(batch_size=None, batch_format="pandas"):
        for qid, vec_id, cos in zip(batch["qid"], batch["vec_id"], batch["cos"]):
            heapq.heappush(best[int(qid)], (float(cos), -int(vec_id)))
            if len(best[int(qid)]) > TOP_K:
                heapq.heappop(best[int(qid)])
    rows = []
    for qid, heap in best.items():
        for cos, nvid in sorted(heap, reverse=True):
            r = {"qid": qid, "vec_id": -nvid}
            if with_cos:
                r["cos"] = math.copysign(
                    math.floor(abs(cos) * 1e6 + 0.5) / 1e6, cos
                )
            rows.append(r)
    return pa.Table.from_pylist(rows, schema=_topk_schema(with_cos))


def _topk_schema(with_cos: bool) -> pa.Schema:
    fields = [("qid", pa.int64()), ("vec_id", pa.int64())]
    if with_cos:
        fields.append(("cos", pa.float64()))
    return pa.schema(fields)


class _LSHScorer:
    """SimHash-bucketed ANN: score only vectors whose hyperplane
    signature matches a query's in >= (bits - slack) positions.
    Run as TASKS; broadcast state resolved lazily per process."""

    def __init__(self, qref, qids, planes_ref, slack=2):
        self.qref, self.planes_ref = qref, planes_ref
        self.qids = qids
        self.slack = slack

    @property
    def q(self):
        return bget(self.qref)

    @property
    def planes(self):
        return bget(self.planes_ref)

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        q, planes = self.q, self.planes
        vecs = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vecs /= np.clip(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12, None)
        sig = (vecs @ planes.T) > 0  # (N, bits)
        qsig = (q @ planes.T) > 0    # (Q, bits) — ONCE per batch, not
        # re-derived per query via an uncached property
        vid = b["vec_id"].to_numpy()
        out = []
        for qi, qid in enumerate(self.qids):
            agree = (sig == qsig[qi]).sum(axis=1)
            cand = np.nonzero((agree >= sig.shape[1] - self.slack) & (vid != qid))[0]
            if cand.size == 0:
                continue
            cos = vecs[cand] @ q[qi]
            k = min(TOP_K, cand.size)
            # tie-deterministic partial (see _BruteScorer); emit the
            # already-computed cos values instead of a second matmul
            rel = np.lexsort((vid[cand], -cos))[:k]
            out.append(pd.DataFrame({"qid": qid, "vec_id": vid[cand[rel]],
                                     "cos": cos[rel]}))
        return (
            pd.concat(out, ignore_index=True)
            if out
            else pd.DataFrame({"qid": pd.Series([], dtype="int64"),
                               "vec_id": pd.Series([], dtype="int64"),
                               "cos": pd.Series([], dtype="float64")})
        )


class _IVFScorer:
    """IVF-flat scorer: each vector is assigned to its nearest
    centroid (argmax cosine) inside the batch; only vectors whose cell
    is among a query's nprobe probed cells are scored.  Run as TASKS;
    centroid matrix + probe sets broadcast once per worker."""

    def __init__(self, qref, qids, cent_ref, probes_ref):
        self.qref, self.cent_ref, self.probes_ref = qref, cent_ref, probes_ref
        self.qids = qids

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        q = bget(self.qref)
        cents = bget(self.cent_ref)          # (C, D) unit rows
        probes = bget(self.probes_ref)       # (Q, nprobe) centroid ids
        vecs = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vecs /= np.clip(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12, None)
        assign = np.argmax(vecs @ cents.T, axis=1)  # (N,)
        vid = b["vec_id"].to_numpy()
        out = []
        for qi, qid in enumerate(self.qids):
            cand = np.nonzero(np.isin(assign, probes[qi]) & (vid != qid))[0]
            if cand.size == 0:
                continue
            cos = vecs[cand] @ q[qi]
            k = min(TOP_K, cand.size)
            # tie-deterministic partial (see _BruteScorer); reuse cos
            rel = np.lexsort((vid[cand], -cos))[:k]
            out.append(pd.DataFrame({"qid": qid, "vec_id": vid[cand[rel]],
                                     "cos": cos[rel]}))
        return (
            pd.concat(out, ignore_index=True)
            if out
            else pd.DataFrame({"qid": pd.Series([], dtype="int64"),
                               "vec_id": pd.Series([], dtype="int64"),
                               "cos": pd.Series([], dtype="float64")})
        )


def q41_ivf_ann(sf_dir: str, n_centroids: int = 64, nprobe: int = 8) -> pa.Table:
    """IVF-flat ANN — the coarse-quantizer scale path beside q16's
    hyperplane LSH: deterministic centroids (evenly-spaced vec_ids;
    production would k-means a sample, same plumbing), per-batch
    assignment + probed-cell scoring, partial top-k merged on the
    driver.  Recall vs the q15 brute oracle is pytest-held
    (rows-only for the driver: recall < 1 by design)."""
    import pyarrow.parquet as pq

    ids_all = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])[
        "vec_id"
    ].to_numpy()
    n = len(ids_all)
    if n == 0:
        # no vectors, no queries: the empty top-k table (the
        # _ivf_knn_centroids guard — stacking an empty read raises)
        return _topk_schema(with_cos=True).empty_table()
    qids, qmat = _load_queries(sf_dir)
    c = max(1, min(n_centroids, n // 4))
    cent_ids = np.sort(ids_all)[:: max(1, n // c)][:c]
    cent_tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", cent_ids.tolist())],
    )
    cents = stack_embeddings_arrow(cent_tbl["embedding"])
    cents /= np.clip(np.linalg.norm(cents, axis=1, keepdims=True), 1e-12, None)
    # probe sets: each query's nprobe nearest centroids
    qc = qmat @ cents.T  # (Q, C)
    np_eff = min(nprobe, cents.shape[0])
    probes = np.argpartition(-qc, np_eff - 1, axis=1)[:, :np_eff]

    qref = ray.put(qmat)
    cref = ray.put(cents)
    pref = ray.put(probes)
    partials = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .map_batches(
            _IVFScorer(qref, qids, cref, pref),
            batch_format="pandas",
            batch_size=4096,
        )
    )
    return _merge_topk(partials, qids, with_cos=True)


def _ann_recall_counter(sf_dir: str, ann_table: pa.Table, kind: str) -> pa.Table:
    """Driver-checkable recall counters for an approximate ANN result
    (VERDICT r02 next-round #1): write the candidate (qid, vec_id)
    rows to a deterministic parquet, compute the BRUTE top-k
    in-pipeline (the q15 kernel, itself SQL-oracle-green), and return
    per-query (n_cand, n_hit).  The oracle SQL recomputes brute
    INDEPENDENTLY via list_cosine_similarity and joins the parquet —
    so the counters are a genuine numpy-vs-SQL cross-check of both the
    approximate candidate set and its recall accounting."""
    from .oracle_artifacts import write_atomic

    write_atomic(ann_table.select(["qid", "vec_id"]), kind, sf_dir)
    brute = q15_ann_brute(sf_dir)
    bset = set(zip(brute["qid"].to_pylist(), brute["vec_id"].to_pylist()))
    a_q = ann_table["qid"].to_pylist()
    a_v = ann_table["vec_id"].to_pylist()
    qids = sorted({q for q, _ in bset} | set(a_q))
    n_cand = {q: 0 for q in qids}
    n_hit = {q: 0 for q in qids}
    for q, v in zip(a_q, a_v):
        n_cand[q] += 1
        if (q, v) in bset:
            n_hit[q] += 1
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "n_cand": pa.array([n_cand[q] for q in qids], pa.int64()),
            "n_hit": pa.array([n_hit[q] for q in qids], pa.int64()),
        }
    )


def q16_lsh_recall(sf_dir: str, bits: int = 16, slack: int = 4) -> pa.Table:
    """q16's driver entry: hyperplane-LSH ANN -> recall counters vs
    brute (see _ann_recall_counter)."""
    return _ann_recall_counter(sf_dir, q16_lsh_ann(sf_dir, bits, slack), "q16_lsh")


def q41_ivf_recall(sf_dir: str, n_centroids: int = 64, nprobe: int = 8) -> pa.Table:
    """q41's driver entry: IVF-flat ANN -> recall counters vs brute."""
    return _ann_recall_counter(
        sf_dir, q41_ivf_ann(sf_dir, n_centroids, nprobe), "q41_ivf"
    )


def q16_lsh_ann(sf_dir: str, bits: int = 16, slack: int = 4) -> pa.Table:
    qids, qmat = _load_queries(sf_dir)
    rng = np.random.Generator(np.random.PCG64(7))
    planes = rng.standard_normal((bits, qmat.shape[1]))
    qref, pref = ray.put(qmat), ray.put(planes)
    partials = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .map_batches(
            _LSHScorer(qref, qids, pref, slack),
            batch_format="pandas",
            batch_size=4096,
        )
    )
    return _merge_topk(partials, qids, with_cos=True)


# ---------------------------------------------------------------------------
# q66 — Product-Quantization ANN (Jégou et al. 2011): the memory-scale
# path of the similarity-search family.  Vectors compress to PQ_M
# uint8 codes (one k-means codebook per subspace), queries scan codes
# with an ADC distance table — at 100 TB the code table is 8 bytes/
# vector instead of 256, and the scan never touches raw embeddings.
#
# Determinism contract (house invariant): everything is int64
# fixed-point — vectors and queries quantize with the k-means
# quantizer (round-half-even ``rint`` == Python ``round``), per-
# subspace assignment is integer argmin (ties to the lowest centroid),
# codebook updates use the q46 floor-division rounding, and ADC
# distances are exact int64 sums (subspace squared distance < 2^45,
# m=8 sum < 2^48) — so the distributed fit+encode+scan is
# bit-identical to the sequential pure-Python-int re-derivation
# (``oracle_artifacts._build_pq``) the driver's SQL reads.
#
# Scale shape: codebooks train with the q46/q56 plain-task pattern
# (per-block (m, k, dsub+1) int64 partials folded on the driver);
# encode+scan is one task per block emitting a partial top-k — only
# n_blocks × Q × K candidate rows ever reach the driver.
# ---------------------------------------------------------------------------
PQ_M, PQ_K, PQ_ITERS = 8, 16, 6


@ray.remote
def _pq_quant_block(t) -> tuple:
    from .cluster import _stack_embeddings, quantize_embeddings

    df = t.to_pandas()
    if len(df) == 0:
        return np.zeros(0, np.int64), np.zeros((0, 0), np.int64)
    return (
        df["vec_id"].to_numpy(np.int64),
        quantize_embeddings(_stack_embeddings(df["embedding"])),
    )


@ray.remote
def _pq_block_minK(blk, k: int) -> tuple:
    ids, q = blk
    if len(ids) == 0:
        return ids, q
    order = np.argsort(ids)[:k]
    return ids[order], q[order]


def _pq_assign(q: np.ndarray, books: np.ndarray, m: int) -> np.ndarray:
    """(n, d) int64 -> (n, m) codes; integer argmin per subspace,
    ties to the lowest centroid index."""
    from .cluster import assign_clusters

    dsub = q.shape[1] // m
    return np.stack(
        [
            assign_clusters(q[:, s * dsub : (s + 1) * dsub], books[s])
            for s in range(m)
        ],
        axis=1,
    )


@ray.remote
def _pq_partial(blk, books: np.ndarray, m: int, k: int) -> np.ndarray:
    ids, q = blk
    dsub = books.shape[2]
    out = np.zeros((m, k, dsub + 1), np.int64)
    if len(ids) == 0:
        return out
    codes = _pq_assign(q, books, m)
    for s in range(m):
        sub = q[:, s * dsub : (s + 1) * dsub]
        np.add.at(out[s, :, 0], codes[:, s], 1)
        np.add.at(out[s, :, 1:], codes[:, s], sub)
    return out


@ray.remote
def _pq_scan_block(blk, books: np.ndarray, qids: np.ndarray,
                   qmat: np.ndarray, m: int, top_k: int) -> pd.DataFrame:
    """ADC scan: per query an (m, k) int64 distance table against the
    codebooks, then dist[vec] = sum_s table[s, code[s, vec]]; partial
    top-k by (dist asc, vec_id asc)."""
    ids, q = blk
    if len(ids) == 0:
        return pd.DataFrame({"qid": [], "vec_id": [], "dist": []}).astype(
            {"qid": "int64", "vec_id": "int64", "dist": "int64"}
        )
    codes = _pq_assign(q, books, m)
    dsub = books.shape[2]
    rows = {"qid": [], "vec_id": [], "dist": []}
    for qi, qv in zip(qids, qmat):
        diff = qv.reshape(m, 1, dsub) - books  # (m, k, dsub) int64
        table = np.einsum("mkd,mkd->mk", diff, diff)  # exact int64
        dist = table[np.arange(m)[None, :], codes].sum(axis=1)
        order = np.lexsort((ids, dist))[:top_k]
        rows["qid"].extend([int(qi)] * len(order))
        rows["vec_id"].extend(ids[order].tolist())
        rows["dist"].extend(dist[order].tolist())
    return pd.DataFrame(rows).astype(
        {"qid": "int64", "vec_id": "int64", "dist": "int64"}
    )


# (sf_dir, m, k, iters) -> (books, quantized block refs): q66 scans the
# same quantized blocks the fit consumed — without this it re-read and
# re-quantized the whole embeddings table right after pq_fit did
# (review r04; same pattern as cluster._FIT_CACHE)
_PQ_FIT_CACHE: dict[tuple, tuple] = {}


def pq_fit(sf_dir: str, m: int = PQ_M, k: int = PQ_K,
           iters: int = PQ_ITERS) -> np.ndarray:
    """(m, k, d/m) int64 codebooks via per-subspace Lloyd's."""
    return _pq_fit_blocks(sf_dir, m, k, iters)[0]


def _pq_fit_blocks(sf_dir: str, m: int = PQ_M, k: int = PQ_K,
                   iters: int = PQ_ITERS):
    key = (sf_dir, m, k, iters)
    if key in _PQ_FIT_CACHE:
        return _PQ_FIT_CACHE[key]
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()
    blks = [_pq_quant_block.remote(r) for r in ds.to_arrow_refs()]
    # deterministic init: the k smallest vec_ids' subvectors
    mins = ray.get([_pq_block_minK.remote(b, k) for b in blks])
    if not any(q.size for _, q in mins):  # empty table: reach the loud
        # guard below, not an opaque np.concatenate-on-nothing error
        raise ValueError(f"PQ needs >= k={k} rows; embeddings table has 0")
    ids = np.concatenate([i for i, _ in mins])
    qs = np.concatenate([q for _, q in mins if q.size], axis=0)
    order = np.argsort(ids)[:k]
    seed = qs[order]
    if seed.shape[0] < k:
        # fail loudly: the Lloyd partials are shaped (m, k, dsub+1), so
        # a short seed would crash later with a mask shape mismatch
        raise ValueError(
            f"PQ needs >= k={k} rows; embeddings table has {seed.shape[0]}"
        )
    d = seed.shape[1]
    dsub = d // m
    books = np.stack(
        [seed[:, s * dsub : (s + 1) * dsub].copy() for s in range(m)]
    )  # (m, k, dsub)
    for _ in range(iters):
        bref = ray.put(books)
        pending = [_pq_partial.remote(b, bref, m, k) for b in blks]
        agg = np.zeros((m, k, dsub + 1), np.int64)
        while pending:
            done, pending = ray.wait(pending, num_returns=1)
            agg += ray.get(done[0])
        counts, sums = agg[:, :, 0], agg[:, :, 1:]
        new_books = books.copy()
        nz = counts > 0
        new_books[nz] = np.floor_divide(
            sums[nz] + (counts[nz] // 2)[:, None], counts[nz][:, None]
        )
        if np.array_equal(new_books, books):
            break
        books = new_books
    _PQ_FIT_CACHE[key] = (books, blks)
    return books, blks


def q66_pq_ann(sf_dir: str, top_k: int = TOP_K) -> pa.Table:
    from .cluster import quantize_embeddings

    books, blks = _pq_fit_blocks(sf_dir)
    # queries quantize UN-normalized like the stored vectors: read raw
    import pyarrow.compute as pc
    import pyarrow.parquet as pq_

    tbl = pq_.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    tbl = tbl.filter(pc.less(tbl["vec_id"], pa.scalar(N_QUERIES)))
    raw_ids = tbl["vec_id"].to_numpy()
    raw = stack_embeddings_arrow(tbl["embedding"])
    qq = quantize_embeddings(raw)
    bref, qref = ray.put(books), ray.put(qq)
    parts = ray.get(
        [_pq_scan_block.remote(b, bref, raw_ids, qref, PQ_M, top_k) for b in blks]
    )
    allp = pd.concat(parts, ignore_index=True)
    rows = []
    for qi in sorted(set(raw_ids.tolist())):
        g = allp[allp["qid"] == qi].sort_values(["dist", "vec_id"]).head(top_k)
        for rank, (_, r) in enumerate(g.iterrows()):
            rows.append(
                {"qid": int(qi), "rank": rank, "vec_id": int(r["vec_id"])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("qid", pa.int64()), ("rank", pa.int64()), ("vec_id", pa.int64())]
        ),
    )


# ---------------------------------------------------------------------------
# q94 — exact kNN-graph self-join: for EVERY vector, its top-k most
# similar neighbors (the graph SemDeDup / graph-based ANN indexes /
# label-propagation pipelines consume).  Similarity is the exact int64
# dot product over trunc-quantized coordinates (q77's fixed-point
# convention — |coord| <= ~1e6, d=64 => |dot| <= ~6.4e13 << 2^63), so
# ranks are deterministic and the SQL oracle replays them bit-exactly;
# ties break (dot DESC, neighbor_id ASC).  The normalized-cosine
# kernel is q15/q23b; this op's value is the GRAPH shape: top-k per
# row over the whole table, not per a fixed query set.
#
# Scale shape: NOTHING n-sized is ever broadcast or driver-held.
# Blocks quantize into plasma once; one task per (query-block,
# db-block) pair emits a <= rows(q)×(k+1) partial; one merge task per
# query block folds its B partials into exact per-row top-k.  Memory
# per task = two blocks; compute is the O(n²) an EXACT kNN graph
# costs by definition — the approximate 100 TB paths are IVF cells
# (q41) / PQ-ADC (q66) / hyperplane buckets (q23), which bound each
# row's candidate set; this operator is their exact-recall anchor.
# ---------------------------------------------------------------------------
KNN_K = 5


@ray.remote
def _knn_quant_block(t) -> tuple:
    """One block -> (vec_ids, trunc-quantized int64 coords), rows
    sorted by vec_id ASCENDING — the in-block order the pair task's
    tie-break relies on.  Arrow-native stack (stack_embeddings_arrow)
    — no pandas round trip, no per-vector Python loop (r04 review)."""
    from .cluster import VEC_FIXED_SCALE

    if t.num_rows == 0:
        return np.zeros(0, np.int64), np.zeros((0, 0), np.int64)
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids)
    q = np.trunc(
        stack_embeddings_arrow(t["embedding"]) * VEC_FIXED_SCALE
    ).astype(np.int64)
    return ids[order], q[order]


_KNN_EMPTY = pa.schema(
    [
        ("vec_id", pa.int64()),
        ("neighbor_id", pa.int64()),
        ("dot_q", pa.int64()),
    ]
)


def _knn_pair_kernel(qblk, dblk, k: int) -> pa.Table:
    """Partial top-k of one query block against one db block: one
    exact int64 matmul, then per query row the best k+1 entries by
    (dot DESC, neighbor ASC) with self-pairs dropped (+1 because self
    can occupy a slot).  Emits <= rows(qblk) × (k+1) rows.  Plain
    function so q94b's map_groups can call it in-task (a nested
    .remote + blocking get inside a map_groups task can starve small
    CPU sessions); q94 wraps it as the task `_knn_pair_partial`."""
    qids, qm = qblk
    dids, dm = dblk
    if not len(qids) or not len(dids):
        return _KNN_EMPTY.empty_table()
    dot = qm @ dm.T  # (nq, nd) int64, exact
    nq, nd = dot.shape
    take = min(k + 1, nd)
    # top-(k+1) per row WITHOUT a full-row sort (r04 review: argsort
    # was the O(nd log nd) term on the O(n²) hot path).  argpartition
    # alone breaks boundary ties arbitrarily, so: partition for the
    # row's (k+1)-th-largest VALUE, take every entry >= it (ties
    # included), then rank just those by the exact key (dot DESC,
    # in-block col ASC => neighbor-id ASC since dids ascend).
    part = np.argpartition(-dot, take - 1, axis=1)[:, :take]
    thr = dot[np.arange(nq)[:, None], part].min(axis=1)
    rows, cols = np.nonzero(dot >= thr[:, None])
    dv = dot[rows, cols]
    order = np.lexsort((cols, -dv, rows))
    rows, cols = rows[order], cols[order]
    first = np.r_[True, rows[1:] != rows[:-1]] if len(rows) else np.zeros(0, bool)
    starts = np.flatnonzero(first)
    lens = np.diff(np.r_[starts, len(rows)])
    rank = np.arange(len(rows), dtype=np.int64) - np.repeat(starts, lens)
    cut = rank < take
    rows, cols = rows[cut], cols[cut]
    keep = qids[rows] != dids[cols]
    rows, cols = rows[keep], cols[keep]
    return pa.table(
        {
            "vec_id": pa.array(qids[rows], pa.int64()),
            "neighbor_id": pa.array(dids[cols], pa.int64()),
            "dot_q": pa.array(dot[rows, cols], pa.int64()),
        }
    )


_knn_pair_partial = ray.remote(_knn_pair_kernel)


@ray.remote
def _knn_merge(parts: list, k: int) -> pa.Table:
    """Exact top-k per query row across that block's B partials (each
    <= rows × (k+1) small-int rows); global tie-break (dot DESC,
    neighbor ASC) via one lexsort + run-boundary rank."""
    t = pa.concat_tables(ray.get(parts))
    v = t["vec_id"].to_numpy()
    nb = t["neighbor_id"].to_numpy()
    d = t["dot_q"].to_numpy()
    order = np.lexsort((nb, -d, v))
    v, nb, d = v[order], nb[order], d[order]
    first = np.r_[True, v[1:] != v[:-1]] if len(v) else np.zeros(0, bool)
    starts = np.flatnonzero(first)
    lens = np.diff(np.r_[starts, len(v)])
    rank = np.arange(len(v), dtype=np.int64) - np.repeat(starts, lens)
    keep = rank < k
    return pa.table(
        {
            "vec_id": pa.array(v[keep], pa.int64()),
            "rank": pa.array(rank[keep] + 1, pa.int64()),
            "neighbor_id": pa.array(nb[keep], pa.int64()),
            "dot_q": pa.array(d[keep], pa.int64()),
        }
    )


def q94_knn_graph(sf_dir: str, k: int = KNN_K) -> rd.Dataset:
    """Exact kNN graph over the embeddings table (module comment above
    for the shape).  Returns a streaming Dataset of
    (vec_id, rank, neighbor_id, dot_q) — n×k rows, never driver-held."""
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()
    blks = [_knn_quant_block.remote(r) for r in ds.to_arrow_refs()]
    merged = [
        _knn_merge.remote([_knn_pair_partial.remote(qb, db, k) for db in blks], k)
        for qb in blks
    ]
    return rd.from_arrow_refs(merged)


# ---------------------------------------------------------------------------
# q94b — IVF-bucketed kNN graph: the APPROXIMATE scale tier of q94.
# Same contract (top-k neighbors per vector by exact int64 quantized
# dot, ties (dot DESC, neighbor ASC)) but each vector's candidate set
# is bounded to the vectors assigned to its nprobe nearest IVF cells
# (q41's coarse quantizer applied to the SELF-JOIN shape), so pair
# work drops from O(n²) to Σ_cell |Q_cell|·|D_cell| ≈ n²·nprobe/C.
#
# Determinism: centroids are the q41 convention (evenly-spaced sorted
# vec_ids — production would k-means a sample, same plumbing),
# assignment = argmax int64 centroid dot (ties → lowest centroid
# index via stable argsort), so the candidate set — and therefore the
# whole output — is a pure function of the table.
#
# Scale shape: ONE cell-keyed exchange (db rows once, query rows
# replicated nprobe× — the IVF cost model); per-cell partial top-k
# tasks; one coarse fib-hash(vec_id) exchange merges each vector's
# nprobe partials.  Nothing n-sized is broadcast or driver-held.
# Hot-cell skew degenerates toward |cell|² pair work — the production
# mitigations are more centroids / residual-split of oversized cells,
# the same knobs as any IVF index; the recall counter (below) is the
# honesty gate.
# ---------------------------------------------------------------------------
IVF_KNN_CENTROIDS = 64
IVF_KNN_NPROBE = 8


def _ivf_knn_centroids(sf_dir: str, n_centroids: int) -> np.ndarray:
    """(C, d) trunc-quantized int64 centroid matrix, deterministic."""
    import pyarrow.parquet as pq

    from .cluster import VEC_FIXED_SCALE

    ids_all = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
    )["vec_id"].to_numpy()
    n = len(ids_all)
    if n == 0:
        # no vectors, no cells: the filtered centroid read would be
        # empty and stack_embeddings_arrow raises on it (d cannot be
        # read off an empty list column, so the result is (0, 0))
        return np.zeros((0, 0), np.int64)
    c = max(1, min(n_centroids, n // 4))
    cent_ids = np.sort(ids_all)[:: max(1, n // c)][:c]
    cent_tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", cent_ids.tolist())],
    )
    order = np.argsort(cent_tbl["vec_id"].to_numpy(), kind="stable")
    x = stack_embeddings_arrow(cent_tbl["embedding"])[order]
    return np.trunc(x * VEC_FIXED_SCALE).astype(np.int64)


def q94b_ivf_knn_graph(
    sf_dir: str,
    k: int = KNN_K,
    n_centroids: int = IVF_KNN_CENTROIDS,
    nprobe: int = IVF_KNN_NPROBE,
) -> rd.Dataset:
    from .cluster import VEC_FIXED_SCALE
    from .mlprep import _key_hash32

    centsq = _ivf_knn_centroids(sf_dir, n_centroids)
    nprobe = min(nprobe, centsq.shape[0])
    cref = ray.put(centsq)

    def route(b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)
        if not len(b):
            # empty pandas batch (block splitting past row count on
            # tiny tables) — np.stack would raise (r05 review; same
            # guard family as q77/pca/_knn_quant_block)
            return pd.DataFrame(
                {
                    "cell": pd.Series(dtype=np.int64),
                    "vec_id": pd.Series(dtype=np.int64),
                    "is_q": pd.Series(dtype=np.int64),
                    "embedding": pd.Series(dtype=object),
                }
            )
        cents = bget(cref)
        x = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        qm = np.trunc(x * VEC_FIXED_SCALE).astype(np.int64)
        dots = qm @ cents.T  # (n, C) exact int64
        # stable argsort of -dots → ties pick the LOWEST centroid idx
        probe = np.argsort(-dots, axis=1, kind="stable")[:, :nprobe]
        n = len(b)
        vid = b["vec_id"].to_numpy(np.int64)
        # db row: assigned (nearest) cell once; query rows: all probes
        cells = np.concatenate([probe[:, 0], probe.ravel()])
        vids = np.concatenate([vid, np.repeat(vid, nprobe)])
        isq = np.concatenate(
            [np.zeros(n, np.int64), np.ones(n * nprobe, np.int64)]
        )
        reps = np.concatenate(
            [np.arange(n), np.repeat(np.arange(n), nprobe)]
        )
        return pd.DataFrame(
            {
                "cell": cells.astype(np.int64),
                "vec_id": vids,
                "is_q": isq,
                "embedding": b["embedding"].to_numpy()[reps],
            }
        )

    def cell_topk(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["is_q"] == 1]
        db = g[g["is_q"] == 0]
        empty = pd.DataFrame(
            {
                "vec_id": pd.Series([], dtype=np.int64),
                "neighbor_id": pd.Series([], dtype=np.int64),
                "dot_q": pd.Series([], dtype=np.int64),
            }
        )
        if not len(qs) or not len(db):
            return empty
        qids = qs["vec_id"].to_numpy(np.int64)
        dids = db["vec_id"].to_numpy(np.int64)
        dorder = np.argsort(dids, kind="stable")  # pair tie-break needs
        dids = dids[dorder]                        # ascending db ids
        qm = np.trunc(
            np.stack(qs["embedding"].to_numpy()).astype(np.float64)
            * VEC_FIXED_SCALE
        ).astype(np.int64)
        dm = np.trunc(
            np.stack(db["embedding"].to_numpy()).astype(np.float64)
            * VEC_FIXED_SCALE
        ).astype(np.int64)[dorder]
        t = _knn_pair_kernel((qids, qm), (dids, dm), k)
        return t.to_pandas() if t.num_rows else empty

    def merge_grp(g: pd.DataFrame) -> pd.DataFrame:
        v = g["vec_id"].to_numpy(np.int64)
        nb = g["neighbor_id"].to_numpy(np.int64)
        d = g["dot_q"].to_numpy(np.int64)
        order = np.lexsort((nb, -d, v))
        v, nb, d = v[order], nb[order], d[order]
        # a (vec, neighbor) pair reaches every SHARED probe cell —
        # drop the duplicates before ranking
        uniq = np.r_[True, (v[1:] != v[:-1]) | (nb[1:] != nb[:-1])] if len(
            v
        ) else np.zeros(0, bool)
        v, nb, d = v[uniq], nb[uniq], d[uniq]
        first = np.r_[True, v[1:] != v[:-1]] if len(v) else np.zeros(0, bool)
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, len(v)])
        rank = np.arange(len(v), dtype=np.int64) - np.repeat(starts, lens)
        keep = rank < k
        return pd.DataFrame(
            {
                "vec_id": v[keep],
                "rank": rank[keep] + 1,
                "neighbor_id": nb[keep],
                "dot_q": d[keep],
            }
        )

    parts = (
        rd.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(route, batch_format="pandas")
        .groupby("cell")
        .map_groups(cell_topk, batch_format="pandas")
    )
    withpart = parts.map_batches(
        lambda b: b.assign(
            _part=(_key_hash32(b["vec_id"]) & np.int64(31)).astype(np.int64)
        ),
        batch_format="pandas",
    )
    return (
        withpart.groupby("_part")
        .map_groups(merge_grp, batch_format="pandas")
        .map_batches(
            lambda b: b[["vec_id", "rank", "neighbor_id", "dot_q"]],
            batch_format="pandas",
        )
    )


def q94b_ivf_knn_recall(sf_dir: str) -> pa.Table:
    """Driver entry: per-vector (n_cand, n_hit) of the IVF graph vs
    the EXACT q94 graph (the q16/q41 recall-counter pattern).  The
    candidate pairs land in a deterministic parquet the SQL oracle
    joins against its own independent exact-graph recomputation."""
    from .oracle_artifacts import write_atomic

    ivf_df = q94b_ivf_knn_graph(sf_dir).to_pandas()  # n×k small-int rows
    ivf = pa.table(
        {
            "vec_id": pa.array(ivf_df["vec_id"].to_numpy(np.int64)),
            "neighbor_id": pa.array(
                ivf_df["neighbor_id"].to_numpy(np.int64)
            ),
        }
    )
    write_atomic(ivf, "q94b_ivf", sf_dir)
    exact = q94_knn_graph(sf_dir).to_pandas()
    eset = set(zip(exact["vec_id"], exact["neighbor_id"]))
    a_v = ivf["vec_id"].to_pylist()
    a_n = ivf["neighbor_id"].to_pylist()
    vids = sorted({v for v, _ in eset} | set(a_v))
    n_cand = {v: 0 for v in vids}
    n_hit = {v: 0 for v in vids}
    for v, nb in zip(a_v, a_n):
        n_cand[v] += 1
        if (v, nb) in eset:
            n_hit[v] += 1
    return pa.table(
        {
            "vec_id": pa.array(vids, pa.int64()),
            "n_cand": pa.array([n_cand[v] for v in vids], pa.int64()),
            "n_hit": pa.array([n_hit[v] for v in vids], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# q103 — contrastive training-pair generation: for every vector an
# (anchor, positive, negative) triplet — positive = its top-1
# neighbor, negative = a deterministic hash-picked far row (the
# standard "random negative" of contrastive / embedding-training data
# prep, made reproducible: Fibonacci hash of the anchor id mod n,
# stepped past anchor/positive collisions — at most 2 steps by
# pigeonhole).  Assumes contiguous 0..n-1 vec_ids (the table's key
# layout; q51/q84 share the assumption).
#
# graph="exact" (default, the driver-oracled form) composes the q94
# exact kNN graph; graph="ivf" composes q94b's IVF tier — the 100 TB
# path, where the exact O(blocks²) anchor is unaffordable and the
# recall counter (q94b's driver entry) quantifies the positives'
# fidelity instead.
#
# Scale shape: the chosen graph's blocked machinery does all the
# work; the triplet pass is one stateless vectorized map over n rows.
# ---------------------------------------------------------------------------
def q103_contrastive_triplets(sf_dir: str, graph: str = "exact") -> rd.Dataset:
    from .mlprep import _key_hash32

    n = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id"]
    ).count()

    def triplet(b: pd.DataFrame) -> pd.DataFrame:
        a = b["vec_id"].to_numpy(np.int64)
        p = b["neighbor_id"].to_numpy(np.int64)
        h = _key_hash32(a) % np.int64(n)
        h = np.where((h == a) | (h == p), (h + 1) % n, h)
        h = np.where((h == a) | (h == p), (h + 1) % n, h)
        return pd.DataFrame(
            {"anchor_id": a, "pos_id": p, "neg_id": h.astype(np.int64)}
        )

    if graph == "ivf":
        g = q94b_ivf_knn_graph(sf_dir, k=1)
    elif graph == "exact":
        g = q94_knn_graph(sf_dir, k=1)
    else:
        raise ValueError(f"q103: unknown graph tier {graph!r}")
    return g.map_batches(triplet, batch_format="pandas")
