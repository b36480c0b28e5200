"""Property tests for the training-data-prep operators (q46-q50).

The value-level oracle compare runs in test_relational.py (the
parametrized driver-gate mimic picks q46-q50 up automatically from
oracle_sql()); these tests pin the determinism/semantics properties
that make those compares exact.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from cs_insights_crawler_ray.pipelines import mlprep
from cs_insights_crawler_ray.pipelines.cluster import (
    KM_SCALE,
    assign_clusters,
    kmeans_fit,
    q47_semantic_dedup,
    quantize_embeddings,
)

SF_DIR = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")


def test_kmeans_partial_sums_are_order_independent():
    """The int64 fixed-point contract: folding per-batch partials in
    any split/order yields identical centroid updates."""
    rng = np.random.Generator(np.random.PCG64(3))
    mat = rng.standard_normal((97, 8))
    q = quantize_embeddings(mat)
    cents = q[:4].copy()
    a = assign_clusters(q, cents)

    def update(order: np.ndarray, splits: int) -> np.ndarray:
        sums = np.zeros((4, 8), dtype=np.int64)
        counts = np.zeros(4, dtype=np.int64)
        for chunk in np.array_split(order, splits):
            qa, aa = q[chunk], a[chunk]
            for ci in np.unique(aa):
                sums[ci] += qa[aa == ci].sum(axis=0)
                counts[ci] += int((aa == ci).sum())
        nz = counts > 0
        out = cents.copy()
        out[nz] = np.floor_divide(
            sums[nz] + (counts[nz] // 2)[:, None], counts[nz][:, None]
        )
        return out

    base = update(np.arange(97), 1)
    for seed, splits in [(1, 7), (2, 13), (3, 97)]:
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(97)
        assert np.array_equal(update(perm, splits), base)


def test_assign_ties_go_to_lowest_cluster():
    q = np.zeros((3, 2), dtype=np.int64)
    cents = np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.int64)  # all dist 1
    assert assign_clusters(q, cents).tolist() == [0, 0, 0]


def test_kmeans_fit_matches_sequential_oracle(ray_session):
    """Distributed blocked fit == sequential pure-Python fit, element
    for element (the strongest block-order-invariance check: the
    oracle is a completely different execution order)."""
    from cs_insights_crawler_ray.pipelines.oracle_artifacts import ensure

    import pyarrow.parquet as pq

    cents = kmeans_fit(SF_DIR)
    path = ensure("kmeans_seq", SF_DIR)
    labels_seq = pq.read_table(path).to_pandas().sort_values("vec_id")
    tbl = pq.read_table(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).to_pandas().sort_values("vec_id")
    q = quantize_embeddings(np.stack([np.asarray(v, np.float64) for v in tbl["embedding"]]))
    assert assign_clusters(q, cents).tolist() == labels_seq["cluster"].tolist()


def test_semantic_dedup_points_at_lower_id(ray_session):
    df = q47_semantic_dedup(SF_DIR).to_pandas()
    if len(df):
        assert (df["dup_of"] < df["vec_id"]).all()
        assert (df["cos"] >= 0.45 - 1e-9).all()
    # deterministic across runs
    df2 = q47_semantic_dedup(SF_DIR).to_pandas()
    pd.testing.assert_frame_equal(
        df.sort_values("vec_id").reset_index(drop=True),
        df2.sort_values("vec_id").reset_index(drop=True),
    )


def test_quantile_rank_formula_is_float_safe():
    """(num*n - 1) // den + 1 == exact ceil(num*n/den) for every n —
    float ceil is the bug class avoided: ceil(0.07*100) == 8 because
    0.07*100 == 7.000000000000001 in binary."""
    import math

    assert math.ceil(0.07 * 100) == 8  # the failure class the ints avoid
    assert (7 * 100 - 1) // 100 + 1 == 7
    for n in range(1, 2001):
        for num, den in ((1, 2), (9, 10), (99, 100), (7, 100)):
            assert (num * n - 1) // den + 1 == -((-num * n) // den)


def test_tfidf_output_shape(ray_session):
    df = mlprep.q49_tfidf_top_terms(SF_DIR).to_pandas()
    n_docs = len(pd.read_parquet(f"{SF_DIR}/documents.parquet"))
    assert (df.groupby("doc_id").size() <= 3).all()
    assert (df["tf"] >= 1).all()
    assert df["df"].between(1, n_docs).all()


def test_shard_export_layout_and_idempotence(ray_session, tmp_path):
    out_root = str(tmp_path / "shards")
    t1 = mlprep.q51_shard_export(SF_DIR, out_root=out_root).to_pandas()
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    # every row landed in exactly one shard; totals add up
    assert t1["n_docs"].sum() == len(docs)
    assert t1["sum_chars"].sum() == docs["n_chars"].sum()
    shard_dirs = sorted(p.name for p in Path(out_root).iterdir() if p.is_dir())
    assert all(d.startswith("shard=") for d in shard_dirs)
    assert len(shard_dirs) == len(t1)
    # replace-partition semantics: a re-run (simulating a failed
    # export retried) produces the identical counters and layout
    t2 = mlprep.q51_shard_export(SF_DIR, out_root=out_root).to_pandas()
    pd.testing.assert_frame_equal(
        t1.sort_values("shard").reset_index(drop=True),
        t2.sort_values("shard").reset_index(drop=True),
    )


def test_stratified_sample_is_deterministic_subset(ray_session):
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    s1 = mlprep.q50_stratified_sample(SF_DIR).to_pandas()
    s2 = mlprep.q50_stratified_sample(SF_DIR).to_pandas()
    key = lambda d: sorted(map(tuple, d[["doc_id", "source"]].to_numpy()))
    assert key(s1) == key(s2)
    assert set(s1["doc_id"]) <= set(docs["doc_id"])
    per = s1.groupby("source").size()
    n_per = docs.groupby("source").size()
    assert (per <= n_per.loc[per.index]).all()
    assert len(s1) > 0


def test_mix_quotas_largest_remainder():
    from cs_insights_crawler_ray.pipelines.mlprep import mix_quotas

    counts = {"a": 100, "b": 400, "c": 2500}
    q = mix_quotas(counts, total=100)
    assert sum(q.values()) == 100
    # sub-linear: sqrt weights 10:20:50 -> 12.5/25/62.5, largest
    # remainder gives the odd doc to the tied-remainder winner by name
    assert q == {"a": 13, "b": 25, "c": 62}
    # quota can never exceed the stratum
    import pytest as _pytest

    with _pytest.raises(ValueError):
        mix_quotas({"tiny": 1, "big": 100}, total=100)  # tiny quota 9 > 1


def test_q55_exact_total_and_determinism(ray_session):
    from cs_insights_crawler_ray.pipelines import mlprep

    sf = "/root/testdata/sf0.001"
    a = mlprep.q55_weighted_mix(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = mlprep.q55_weighted_mix(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(a) == mlprep.MIX_TOTAL
    assert a.equals(b)  # identical row set on re-execution


def test_sequence_pack_matches_serial(ray_session):
    """q57 vs a one-liner pandas recompute: same prefix sums, same
    window assignment, regardless of Ray block structure."""
    got = (
        mlprep.q57_sequence_pack(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet").sort_values("doc_id")
    n = docs["text"].str.count(r"\S+").astype("int64").to_numpy()
    start = np.concatenate(([0], np.cumsum(n)[:-1]))
    first = start // 512
    last = (start + np.maximum(n, 1) - 1) // 512
    assert (got["n_tokens"].to_numpy() == n).all()
    assert (got["first_chunk"].to_numpy() == first).all()
    assert (got["last_chunk"].to_numpy() == last).all()
    assert (got["n_chunks"].to_numpy() == last - first + 1).all()
    assert (got["chunk_offset"].to_numpy() == start % 512).all()
    # windows tile the stream: doc at a window boundary starts at 0
    boundary = got[got["chunk_offset"] == 0]
    assert len(boundary) >= 1  # doc 0 at minimum


def test_sequence_pack_empty_doc_is_pinned(ray_session, tmp_path):
    """An empty document occupies exactly the window at its start
    offset (n_chunks == 1) and consumes no tokens."""
    pd.DataFrame(
        {"doc_id": [0, 1, 2], "text": ["a b c", "", "d " * 600]}
    ).to_parquet(tmp_path / "documents.parquet")
    got = (
        mlprep.q57_sequence_pack(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.loc[1, "n_tokens"] == 0
    assert got.loc[1, "n_chunks"] == 1
    assert got.loc[1, "first_chunk"] == got.loc[1, "last_chunk"] == 0
    # the 600-token doc spans two 512-windows from offset 3
    assert got.loc[2, "chunk_offset"] == 3
    assert got.loc[2, "n_chunks"] == 2


def test_heavy_hitters_exact_vs_serial(ray_session):
    """q58's sketch-then-rescan output equals a plain serial count."""
    got = mlprep.q58_heavy_hitters(SF_DIR).to_pandas()
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    toks = docs["text"].str.lower().str.findall(r"[0-9a-z_]+").explode().dropna()
    counts = toks.value_counts()
    n = len(toks)
    exp = counts[counts * mlprep.HH_K > n].sort_index()
    assert list(got["term"]) == list(exp.index)
    assert list(got["n_occ"]) == list(exp.to_numpy())


def test_heavy_hitters_small_k_still_exact(ray_session, tmp_path):
    """With hh_k tiny enough that per-block MG trimming actually fires
    (vocab >> k), the candidate superset still contains every true
    heavy hitter — output stays exact."""
    rng = np.random.default_rng(11)
    # 3000 docs: heavy terms hh0/hh1 plus a long unique-word tail that
    # forces the per-block trim (vocab per block >> hh_k=5)
    texts = [
        f"hh0 hh0 hh1 tail{i} tail{i+1} tail{i+2} tail{rng.integers(1e6)}"
        for i in range(3000)
    ]
    pd.DataFrame({"doc_id": range(3000), "text": texts}).to_parquet(
        tmp_path / "documents.parquet"
    )
    got = mlprep.q58_heavy_hitters(str(tmp_path), hh_k=5).to_pandas()
    toks = pd.Series(texts).str.lower().str.findall(r"[0-9a-z_]+").explode()
    counts = toks.value_counts()
    exp = counts[counts * 5 > len(toks)].sort_index()
    assert list(got["term"]) == list(exp.index)
    assert list(got["n_occ"]) == list(exp.to_numpy())


def test_token_budget_select_matches_serial(ray_session):
    """q60 vs a serial pandas recompute of the rank order, prefix sum,
    and budget cut."""
    got = (
        mlprep.q60_token_budget_select(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    from cs_insights_crawler_ray.functions.text import _LANG_PROFILES, _WORD_RE

    stop = _LANG_PROFILES["en"]
    words = docs["text"].str.lower().str.findall(_WORD_RE)
    quality = (
        words.map(lambda ws: sum(w in stop for w in ws)).to_numpy() * 1_000_000
    ) // words.str.len().clip(lower=1).to_numpy()
    n_tokens = docs["text"].str.count(r"\S+").astype("int64").to_numpy()
    d = pd.DataFrame(
        {"doc_id": docs["doc_id"].astype("int64"), "quality": quality,
         "n_tokens": n_tokens}
    ).sort_values(["quality", "doc_id"], ascending=[False, True])
    budget = int(n_tokens.sum()) // 4
    exp = d[d["n_tokens"].cumsum() <= budget].sort_values("doc_id")
    assert list(got["doc_id"]) == list(exp["doc_id"])
    assert list(got["quality"]) == list(exp["quality"])
    assert int(got["n_tokens"].sum()) <= budget


def test_stopword_hits_matches_per_row_loop():
    """The explode/isin/bincount stopword kernel gives the per-row
    loop's exact counts, including rows with zero words, on a
    non-range index."""
    from cs_insights_crawler_ray.functions.text import (
        _LANG_PROFILES,
        _WORD_RE,
        stopword_hits,
    )

    stop = _LANG_PROFILES["en"]
    texts = pd.Series(
        ["The cat and THE dog", "", "!! ??", "of to a in is", "xyz", "the the"],
        index=[50, 3, 9, 1, 0, 7],
    )
    words = texts.str.lower().str.findall(_WORD_RE)
    want = [sum(w in stop for w in ws) for ws in words]
    got = stopword_hits(words, stop)
    assert got.dtype == np.int64 and got.tolist() == want == [3, 0, 0, 5, 0, 2]
    assert stopword_hits(words.iloc[:0], stop).tolist() == []
    assert stopword_hits(words.iloc[1:3], stop).tolist() == [0, 0]


def test_inverted_index_roundtrip(ray_session, tmp_path):
    """q65: the written posting lists are complete, sorted, bucketed
    by crc32(term), and the counters derive from the files."""
    import zlib

    import pyarrow.parquet as pq

    out_root = str(tmp_path / "idx")
    got = (
        mlprep.q65_inverted_index(SF_DIR, out_root=out_root)
        .to_pandas()
        .set_index("term")
        .sort_index()
    )
    docs = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    terms = docs["text"].str.lower().str.findall(r"[0-9a-z_]+").map(set)
    exp: dict[str, set] = {}
    for did, ts in zip(docs["doc_id"], terms):
        for t in ts:
            exp.setdefault(t, set()).add(int(did))
    assert set(got.index) == set(exp)
    for t, ids in exp.items():
        assert got.loc[t, "df"] == len(ids)
        assert got.loc[t, "sum_doc_ids"] == sum(ids)
    # file layout: postings are a parquet list<int64> column, sorted,
    # bucket = crc32(term) % 8
    idx_t = pq.read_table(out_root)
    assert idx_t.schema.field("postings").type == __import__("pyarrow").list_(
        __import__("pyarrow").int64()
    )
    idx = idx_t.to_pandas()
    for _, r in idx.iterrows():
        ids = [int(x) for x in r["postings"]]
        assert ids == sorted(ids)
        assert int(r["bucket"]) == zlib.crc32(r["term"].encode()) % 8


def test_key_hash32_scalar_reference_and_vectorized_rate():
    """The sampling-family keep-predicate hash must match the scalar
    definition bit-for-bit AND run at numpy rates (the r03 finding:
    a per-row Python hashlib call in this spot made the hash the
    stage bottleneck — 1M rows took seconds; the vectorized kernel is
    milliseconds, so a 1s bound holds 200x of VM noise)."""
    import time

    keys = np.arange(1_000_000, dtype=np.int64) * 7919 + 3
    h = mlprep._key_hash32(keys)  # warm draw: numpy first-call cost is 10-50x
    for i in (0, 1, 97, 12345, 999_999):
        k = int(keys[i])
        assert int(h[i]) == ((k * 0x9E3779B97F4A7C15) % 2**64) >> 32
    assert h.dtype == np.int64 and (h >= 0).all() and (h < 2**32).all()
    # a per-row-Python kernel takes >5s for 1M keys even on a loaded VM;
    # best-of-3 warm draws separates "vectorized" from "Python loop"
    # without flaking when another Ray session owns the cores
    dt = min(
        (lambda t0: (mlprep._key_hash32(keys), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(3)
    )
    assert dt < 1.0, f"keep-predicate hash not vectorized: {dt:.3f}s for 1M keys"


def test_inverted_index_empty_input(ray_session, tmp_path):
    """q65 on a zero-row documents table: the map_groups kernel gets
    one empty batch from Ray and must return the empty index (schema
    intact) instead of raising on g["bucket"].iloc[0] (review r04)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    sf = tmp_path / "sf_empty"
    sf.mkdir()
    pq.write_table(
        pa.table(
            {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
        ),
        sf / "documents.parquet",
    )
    got = mlprep.q65_inverted_index(str(sf), out_root=str(tmp_path / "idx"))
    assert got.count() == 0


def test_q77_dim_stats_matches_naive(ray_session, tmp_path):
    """q77: the distributed per-dimension fixed-point fold equals a
    single-process numpy re-derivation, negatives included; trunc (not
    round) so there are no half-tie cases between engines."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cs_insights_crawler_ray.pipelines.cluster import (
        VEC_FIXED_SCALE, q77_dim_stats)

    rng = np.random.default_rng(7)
    x = (rng.standard_normal((257, 5)) * 0.5).astype(np.float32)
    x[0, 0] = -0.9999995  # trunc toward zero on a negative
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(x)), pa.int64()),
            "embedding": pa.array(list(x), pa.list_(pa.float32())),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    got = q77_dim_stats(str(tmp_path)).to_pandas().set_index("dim").sort_index()
    q = np.trunc(x.astype(np.float64) * VEC_FIXED_SCALE).astype(np.int64)
    assert list(got.index) == list(range(1, 6))
    assert (got["n"] == len(x)).all()
    assert np.array_equal(got["sum_q"].to_numpy(), q.sum(axis=0))
    assert np.array_equal(got["sumsq_q"].to_numpy(), (q * q).sum(axis=0))


def test_q84_shuffle_order_is_hash_rank(ray_session, tmp_path):
    """The assigned order is EXACTLY the rank of (_key_hash32(id), id)
    — a permutation, reproducible across runs, independent of input
    row order."""
    import numpy as np
    import pandas as pd

    from cs_insights_crawler_ray.pipelines import mlprep as M

    ids = np.array([3, 1, 4, 1_000_000_007, 59, 26, 535, 0], dtype=np.int64)
    pd.DataFrame({"doc_id": ids, "text": ["x"] * len(ids)}).to_parquet(
        tmp_path / "documents.parquet"
    )
    got = (
        M.q84_shuffle_order(str(tmp_path))
        .to_pandas()
        .sort_values("shuffle_rank")
        .reset_index(drop=True)
    )
    assert sorted(got["shuffle_rank"]) == list(range(1, len(ids) + 1))
    hk = M._key_hash32(ids)
    order = ids[np.lexsort((ids, hk))]
    assert list(got["doc_id"]) == list(order)
    again = (
        M.q84_shuffle_order(str(tmp_path))
        .to_pandas()
        .sort_values("shuffle_rank")
        .reset_index(drop=True)
    )
    assert (again["doc_id"] == got["doc_id"]).all()


def test_q88_centroid_outliers_hand_case(ray_session, tmp_path):
    """label 0: ten vectors at [1,0] + one at [12,0] -> centroid x =
    trunc(22e6/11) = 2e6; dists = ten 1e12 + one 1e14; P90 rank
    (9*11-1)//10+1 = 10 -> threshold 1e12 -> only the far vector
    flags.  label 1: two identical vectors -> zero dists, none flag."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cs_insights_crawler_ray.pipelines import cluster as C

    embs = [[1.0, 0.0]] * 10 + [[12.0, 0.0]] + [[-3.0, 5.0]] * 2
    labels = [0] * 11 + [1] * 2
    tbl = pa.table(
        {
            "vec_id": pa.array(range(13), pa.int64()),
            "embedding": pa.array(
                [np.array(e, np.float32) for e in embs],
                pa.list_(pa.float32()),
            ),
            "label": pa.array(labels, pa.int32()),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    out = (
        C.q88_centroid_outliers(str(tmp_path))
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    assert out.loc[0, "dist_q"] == 10**12 and out.loc[0, "is_outlier"] == 0
    assert out.loc[10, "dist_q"] == 10**14 and out.loc[10, "is_outlier"] == 1
    assert out.loc[11, "dist_q"] == 0 and out.loc[11, "is_outlier"] == 0
    assert int(out["is_outlier"].sum()) == 1


def test_q90_nearest_centroid_hand_case(ray_session, tmp_path):
    """q90: label 0 centroid (0,0), label 1 (10,0), label 2 (5,10) —
    the label-2 vector [5,0] is EQUIDISTANT from centroids 0 and 1
    (2.5e13 each) and farther from its own (1e14): the tie must pick
    the smallest label on both sides (argmin first-occurrence over
    ascending labels == ORDER BY d2, label)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cs_insights_crawler_ray.pipelines import cluster as C

    embs = [[0.0, 1.0], [0.0, -1.0], [10.0, 1.0], [10.0, -1.0],
            [5.0, 0.0], [5.0, 20.0]]
    labels = [0, 0, 1, 1, 2, 2]
    tbl = pa.table(
        {
            "vec_id": pa.array(range(6), pa.int64()),
            "embedding": pa.array(
                [np.array(e, np.float32) for e in embs],
                pa.list_(pa.float32()),
            ),
            "label": pa.array(labels, pa.int32()),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    out = C.q90_nearest_centroid(str(tmp_path)).to_pandas()
    got = {
        (int(r.true_label), int(r.pred_label)): int(r.n_vectors)
        for r in out.itertuples()
    }
    assert got == {(0, 0): 2, (1, 1): 2, (2, 0): 1, (2, 2): 1}


def test_q101_pca_matches_eigh_direction(ray_session, tmp_path):
    """q101: on a corpus with a planted dominant direction the integer
    power-iteration component aligns with numpy's top eigenvector
    (|cos| > 0.99), and the distributed run is bit-identical to the
    independent serial re-derivation."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cs_insights_crawler_ray.pipelines.cluster import (
        VEC_FIXED_SCALE, q101_pca_power)
    from cs_insights_crawler_ray.pipelines.oracle_artifacts import (
        artifact_path, ensure)

    rng = np.random.Generator(np.random.PCG64(11))
    d, n = 16, 400
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    x = (
        rng.standard_normal((n, 1)) * 3.0 * direction[None, :]
        + rng.standard_normal((n, d)) * 0.3
    ).astype(np.float32)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in x], pa.list_(pa.float32())
                ),
                "label": pa.array([0] * n, pa.int32()),
            }
        ),
        tmp_path / "embeddings.parquet",
    )
    got = q101_pca_power(str(tmp_path)).to_pandas()
    v = got["comp_ppm"].to_numpy(np.float64)
    v /= np.linalg.norm(v)
    # ground truth from float linear algebra
    q = np.trunc(x.astype(np.float64) * VEC_FIXED_SCALE)
    qc = q - q.mean(axis=0)
    evals, evecs = np.linalg.eigh(qc.T @ qc)
    top = evecs[:, -1]
    assert abs(float(v @ top)) > 0.99
    # bit-identity vs the independent serial derivation
    import os

    # RESTORE the prior value, never pop: test_relational sets
    # GRAFT_ORACLE_SF once at module import for its whole oracle
    # sweep — popping it here made that sweep's q101 oracle silently
    # fall back to the sf0.01 artifact against an sf0.001 engine run
    # (observed: suite-only mismatch, standalone green)
    prior = os.environ.get("GRAFT_ORACLE_SF")
    os.environ["GRAFT_ORACLE_SF"] = Path(str(tmp_path)).name
    try:
        ensure("pca_seq", str(tmp_path))
        seq = pq.read_table(
            artifact_path("pca_seq", Path(str(tmp_path)).name)
        ).to_pandas()
    finally:
        if prior is None:
            os.environ.pop("GRAFT_ORACLE_SF", None)
        else:
            os.environ["GRAFT_ORACLE_SF"] = prior
    assert got["comp_ppm"].tolist() == seq["comp_ppm"].tolist()


def test_source_cap_rank_semantics(ray_session, tmp_path):
    """q104: at most cap docs per source, chosen by (fib_hash, doc_id)
    rank — verified against a serial recompute; a source under the cap
    keeps everything."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cs_insights_crawler_ray.pipelines.mlprep import (
        _key_hash32, q104_source_cap)

    n = 55
    docs = pd.DataFrame(
        {
            "doc_id": range(n),
            "text": ["x"] * n,
            "source": ["big"] * 50 + ["small"] * 5,  # small < cap
        }
    )
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   tmp_path / "documents.parquet")
    got = (
        q104_source_cap(str(tmp_path), cap=8)
        .to_pandas()
        .sort_values(["source", "keep_rank"])
        .reset_index(drop=True)
    )
    assert got.groupby("source").size().to_dict() == {"big": 8, "small": 5}
    # serial recompute of the kept set for 'big'
    import numpy as np

    ids = np.arange(50, dtype=np.int64)
    hk = _key_hash32(pd.Series(ids))
    order = np.lexsort((ids, hk))
    want_big = set(ids[order][:8].tolist())
    assert set(got[got["source"] == "big"]["doc_id"]) == want_big
    # ranks are 1..k dense per source
    assert got[got["source"] == "small"]["keep_rank"].tolist() == list(range(1, 6))
