"""Dedup + ANN operators against brute-force oracles on constructed
fixtures containing REAL near-duplicates (the driver testdata has
none, by construction of its random generators)."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from cs_insights_crawler_ray.pipelines import ann, dedup

WORDS = "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima mike november oscar papa quebec romeo sierra tango".split()


@pytest.fixture(scope="module")
def neardup_dir(tmp_path_factory):
    """documents.parquet with planted near-dup clusters; embeddings
    with planted near-identical vectors."""
    d = tmp_path_factory.mktemp("neardup")
    rng = np.random.Generator(np.random.PCG64(123))
    docs, doc_id = [], 0
    originals = []
    for i in range(30):
        text = " ".join(rng.choice(WORDS, size=40))
        originals.append(text)
        docs.append({"doc_id": doc_id, "text": text}); doc_id += 1
    # near-dups: perturb 2 tokens of the first 10 originals
    for i in range(10):
        toks = originals[i].split()
        toks[5], toks[20] = "zulu", "yankee"
        docs.append({"doc_id": doc_id, "text": " ".join(toks)}); doc_id += 1
    # one exact dup
    docs.append({"doc_id": doc_id, "text": originals[0]}); doc_id += 1
    pq.write_table(pa.Table.from_pylist(docs), d / "documents.parquet")

    base = rng.standard_normal((40, 32))
    vecs = [base[i] for i in range(40)]
    for i in range(8):  # planted near-identical vectors
        vecs.append(base[i] + rng.standard_normal(32) * 0.01)
    emb = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
            "label": pa.array([0] * len(vecs), pa.int32()),
        }
    )
    pq.write_table(emb, d / "embeddings.parquet")
    return str(d)


def _true_jaccard_pairs(path, threshold):
    t = pq.read_table(f"{path}/documents.parquet").to_pylist()
    out = set()
    for a, b in itertools.combinations(t, 2):
        if dedup.ngram_jaccard(a["text"], b["text"]) >= threshold:
            out.add((min(a["doc_id"], b["doc_id"]), max(a["doc_id"], b["doc_id"])))
    return out


def test_minhash_lsh_finds_neardups(neardup_dir):
    got = dedup.q17_minhash_dedup(neardup_dir, threshold=0.7).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))
    truth = _true_jaccard_pairs(neardup_dir, 0.7)
    assert truth, "fixture must contain true near-dups"
    # exact verification step guarantees NO false positives
    assert got_pairs <= truth
    # LSH with 32 bands of r=4 at jaccard>=0.7: detection prob
    # 1-(1-0.7^4)^32 ~ 0.9998 per pair -> expect full recall here
    assert got_pairs == truth


def test_prefix_jaccard_join_exact(neardup_dir):
    """q68 finds EXACTLY the true pair set — no LSH recall caveat:
    prefix filtering guarantees a candidate superset by construction."""
    got = dedup.q68_ngram_jaccard_join(neardup_dir, threshold=0.7)
    gp = got.to_pandas()
    truth = _true_jaccard_pairs(neardup_dir, 0.7)
    assert truth, "fixture must contain true near-dups"
    assert set(zip(gp["a"], gp["b"])) == truth
    # verified jaccards match the scalar kernel bit-identically
    texts = {
        r["doc_id"]: r["text"]
        for r in pq.read_table(f"{neardup_dir}/documents.parquet").to_pylist()
    }
    for a, b, j in zip(gp["a"], gp["b"], gp["jaccard"]):
        assert j == dedup._round6_half_up(dedup.ngram_jaccard(texts[a], texts[b]))


def test_prefix_candidates_superset_under_skew(tmp_path):
    """Adversarial corpus for the prefix filter: a super-common token
    run shared by every doc (heavy grams must sort to the order's
    tail), short (<3-token) docs, duplicate empty docs, and exact
    dups.  Candidates must be a superset of the true pairs and the
    verified join must equal brute force — also with the heavy-gram
    broadcast DISABLED (hash order), since ordering is selectivity
    only."""
    rng = np.random.Generator(np.random.PCG64(7))
    common = " ".join(["the quick brown fox jumps"] * 4)
    docs = []
    for i in range(20):
        tail = " ".join(rng.choice(WORDS, size=12))
        docs.append({"doc_id": i, "text": common + " " + tail})
    docs.append({"doc_id": 20, "text": docs[0]["text"]})      # exact dup
    docs.append({"doc_id": 21, "text": "alpha bravo"})         # short
    docs.append({"doc_id": 22, "text": "alpha bravo"})         # short dup
    docs.append({"doc_id": 23, "text": ""})                    # empty
    docs.append({"doc_id": 24, "text": ""})                    # empty dup
    d = tmp_path / "skew"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(docs), d / "documents.parquet")

    truth = _true_jaccard_pairs(str(d), 0.7)
    assert (21, 22) in truth and (23, 24) in truth and (0, 20) in truth

    ds = rd.read_parquet(f"{d}/documents.parquet", columns=["doc_id", "text"])
    for top_k in (4096, 0):  # DF ordering on / off
        cand = dedup.prefix_filter_candidates(ds, 0.7, df_top_k=top_k).to_pandas()
        counted = dedup._counted_pairs(cand)
        assert truth <= set(zip(counted["a"], counted["b"]))

    got = dedup.q68_ngram_jaccard_join(str(d), threshold=0.7)
    assert set(zip(got.to_pandas()["a"], got.to_pandas()["b"])) == truth


def test_prefix_pair_slab_blocking_exact():
    """A bucket wider than one emission chunk (_PAIR_SLAB**2 pairs) must
    emit the identical (a, b, need) rows the whole-bucket triu form
    would (pure kernel, no Ray), for ℓ = 1, 2, 3.  Every posting is at
    pos 0, where the positional bound is min(|x|, |y|) + ℓ - 1."""
    rng = np.random.default_rng(0)
    m = int(dedup._PAIR_SLAB * 2.5)
    g = pd.DataFrame(
        {
            "gram": np.concatenate([np.zeros(m, np.int64), np.ones(40, np.int64)]),
            "doc_id": np.concatenate(
                [rng.permutation(m).astype(np.int64),
                 np.arange(500, 540, dtype=np.int64)]
            ),
            "size": rng.integers(50, 200, m + 40).astype(np.int64),
            "pos": np.zeros(m + 40, np.int64),
        }
    )
    t_num = 700_000
    slack = t_num - 1
    for ell in (1, 2, 3):
        got = dedup._prefix_pairs_from_partition(g, t_num, ell)
        got = Counter(zip(got["a"], got["b"], got["need"]))
        want = Counter()
        for gram in (0, 1):
            b = g[g["gram"] == gram]
            ids = b["doc_id"].to_numpy()
            szs = b["size"].to_numpy()
            ii, jj = np.triu_indices(len(ids), k=1)
            lo, hi = np.minimum(szs[ii], szs[jj]), np.maximum(szs[ii], szs[jj])
            keep = (lo + ell - 1) * (1_000_000 + slack) >= slack * (lo + hi)
            need = np.clip(-(-slack * hi[keep] // 1_000_000), 1, ell)
            want.update(
                zip(np.minimum(ids[ii], ids[jj])[keep], np.maximum(ids[ii], ids[jj])[keep], need)
            )
        assert got == want and len(want) > 0


def test_leakage_safe_split_group_consistent(neardup_dir):
    """q69: every member of a near-dup group gets the SAME split (the
    operator's whole point — no train/test straddling), singletons
    represent themselves, and every document is assigned exactly
    once.  The forced join path must agree with the broadcast path
    byte for byte (including 2^53+ doc_id safety via the Arrow
    branch)."""
    import pandas as pd

    got = dedup.q69_leakage_safe_split(neardup_dir, threshold=0.7).to_pandas()
    n_docs = len(pq.read_table(f"{neardup_dir}/documents.parquet"))
    assert len(got) == n_docs and got["doc_id"].is_unique
    assert set(got["split"].unique()) <= {"train", "val", "test"}

    groups = dedup.q38_dup_groups(neardup_dir, threshold=0.7).to_pandas()
    assert len(groups) > 0, "fixture must contain dup groups"
    merged = got.merge(groups, on="doc_id", how="left")
    grouped = merged.dropna(subset=["group_id"])
    # group members share rep AND split
    per_group = grouped.groupby("group_id").agg(
        n_reps=("rep", "nunique"), n_splits=("split", "nunique")
    )
    assert (per_group["n_reps"] == 1).all()
    assert (per_group["n_splits"] == 1).all()
    # and the rep is the group label itself
    assert (grouped["rep"] == grouped["group_id"]).all()
    # singletons represent themselves
    single = merged[merged["group_id"].isna()]
    assert (single["rep"] == single["doc_id"]).all()

    # forced join path == broadcast path
    import cs_insights_crawler_ray.pipelines.dedup as dd

    old = dd._SPLIT_BROADCAST_LIMIT
    dd._SPLIT_BROADCAST_LIMIT = 0
    try:
        forced = dd.q69_leakage_safe_split(neardup_dir, threshold=0.7).to_pandas()
    finally:
        dd._SPLIT_BROADCAST_LIMIT = old
    a = got.sort_values("doc_id").reset_index(drop=True)
    b = forced.sort_values("doc_id").reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b)


def test_dedup_corpus_keeps_one_per_group(neardup_dir):
    """q70: exactly the group representatives + singletons survive,
    n_members partitions the corpus (sums to n_docs), and the forced
    join path equals the broadcast path."""
    import pandas as pd

    got = dedup.q70_dedup_corpus(neardup_dir, threshold=0.7).to_pandas()
    n_docs = len(pq.read_table(f"{neardup_dir}/documents.parquet"))
    assert int(got["n_members"].sum()) == n_docs
    assert got["doc_id"].is_unique

    groups = dedup.q38_dup_groups(neardup_dir, threshold=0.7).to_pandas()
    reps = set(groups["group_id"])
    non_reps = set(groups.loc[groups["doc_id"] != groups["group_id"], "doc_id"])
    kept = set(got["doc_id"])
    assert reps <= kept and not (non_reps & kept)
    sz = groups.groupby("group_id").size()
    for rep, n in sz.items():
        assert int(got.loc[got["doc_id"] == rep, "n_members"].iloc[0]) == n

    import cs_insights_crawler_ray.pipelines.dedup as dd

    old = dd._SPLIT_BROADCAST_LIMIT
    dd._SPLIT_BROADCAST_LIMIT = 0
    try:
        forced = dd.q70_dedup_corpus(neardup_dir, threshold=0.7).to_pandas()
    finally:
        dd._SPLIT_BROADCAST_LIMIT = old
    a = got.sort_values("doc_id").reset_index(drop=True)
    b = forced.sort_values("doc_id").reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b)


def test_embedding_neardup_vs_bruteforce(neardup_dir):
    t = pq.read_table(f"{neardup_dir}/embeddings.parquet")
    m = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    cos = m @ m.T
    ii, jj = np.triu_indices(len(m), k=1)
    truth = {
        (int(a), int(b))
        for a, b, c in zip(ii, jj, cos[ii, jj])
        if c >= 0.95
    }
    assert len(truth) >= 6
    got = dedup.q23_embedding_near_dup(neardup_dir, threshold=0.95).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))
    assert got_pairs <= truth          # in-bucket exact cos -> no false positives
    assert len(got_pairs) >= len(truth) * 0.7   # LSH recall bound (12-bit, planted pairs near-identical)


def test_ann_brute_matches_numpy(neardup_dir):
    got = ann.q15_ann_brute(neardup_dir).to_pandas()
    t = pq.read_table(f"{neardup_dir}/embeddings.parquet")
    m = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    for qid in range(ann.N_QUERIES):
        cos = m @ m[qid]
        cand = [(c, i) for i, c in enumerate(cos) if i != qid]
        top = sorted(cand, key=lambda x: (-x[0], x[1]))[: ann.TOP_K]
        want = {i for _, i in top}
        have = set(got[got["qid"] == qid]["vec_id"])
        assert have == want, f"qid {qid}"


def test_knn_graph_matches_serial(neardup_dir):
    """q94: the blocked distributed kNN graph equals a serial numpy
    re-derivation of the spec (trunc-quantized int64 dots, ties
    (dot DESC, neighbor ASC)) row for row."""
    got = (
        ann.q94_knn_graph(neardup_dir, k=4)
        .to_pandas()
        .sort_values(["vec_id", "rank"])
        .reset_index(drop=True)
    )
    t = pq.read_table(f"{neardup_dir}/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    m = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
    q = np.trunc(m * 1_000_000).astype(np.int64)
    dot = q @ q.T
    rows = []
    for i in range(len(ids)):
        cand = sorted(
            (-int(dot[i, j]), int(ids[j])) for j in range(len(ids)) if ids[j] != ids[i]
        )
        for r, (nd, nb) in enumerate(cand[:4], 1):
            rows.append((int(ids[i]), r, nb, -nd))
    want = pd.DataFrame(rows, columns=["vec_id", "rank", "neighbor_id", "dot_q"])
    pd.testing.assert_frame_equal(got, want)


def test_knn_blocked_pair_merge_tie_break(ray_session):
    """The pair/merge task pair across UNEVEN multiple blocks equals
    the single-block run, and an exact-duplicate (tied-dot) neighbor
    resolves to the SMALLER id even when the tie straddles blocks."""
    import ray as _ray

    from cs_insights_crawler_ray.pipelines.ann import (
        _knn_merge, _knn_pair_partial)

    rng = np.random.Generator(np.random.PCG64(7))
    q = rng.integers(-1000, 1000, size=(9, 8)).astype(np.int64)
    q[6] = q[2]  # exact duplicate: dots vs anything tie between 2 and 6
    ids = np.arange(9, dtype=np.int64)
    k = 3

    def run(splits):
        blks = [
            (ids[a:b], q[a:b]) for a, b in zip([0] + splits, splits + [9])
        ]
        merged = _ray.get(
            [
                _knn_merge.remote(
                    [_knn_pair_partial.remote(qb, db, k) for db in blks], k
                )
                for qb in blks
            ]
        )
        return (
            pa.concat_tables(merged)
            .to_pandas()
            .sort_values(["vec_id", "rank"])
            .reset_index(drop=True)
        )

    single = run([])
    blocked = run([2, 3, 7])  # uneven blocks; the dup pair straddles
    pd.testing.assert_frame_equal(blocked, single)
    # every row whose top neighbor ties between 2 and 6 must pick 2
    dup_rows = single[(single["neighbor_id"].isin([2, 6]))]
    for vid, grp in dup_rows.groupby("vec_id"):
        if vid in (2, 6):
            continue
        both = grp[grp["neighbor_id"].isin([2, 6])]
        if len(both) == 2:
            r2 = both[both["neighbor_id"] == 2]["rank"].iloc[0]
            r6 = both[both["neighbor_id"] == 6]["rank"].iloc[0]
            assert r2 < r6


def test_ivf_ann_recall(neardup_dir):
    brute = ann.q15_ann_brute(neardup_dir).to_pandas()
    ivf = ann.q41_ivf_ann(neardup_dir, n_centroids=12, nprobe=6).to_pandas()
    recall = len(
        set(zip(ivf["qid"], ivf["vec_id"])) & set(zip(brute["qid"], brute["vec_id"]))
    ) / len(brute)
    assert recall >= 0.5, recall


def test_lsh_ann_recall(neardup_dir):
    brute = ann.q15_ann_brute(neardup_dir).to_pandas()
    lsh = ann.q16_lsh_ann(neardup_dir, bits=16, slack=8).to_pandas()
    recall = len(
        set(zip(lsh["qid"], lsh["vec_id"])) & set(zip(brute["qid"], brute["vec_id"]))
    ) / len(brute)
    assert recall >= 0.5, recall


def test_simhash_batch_matches_scalar():
    rng = np.random.Generator(np.random.PCG64(9))
    texts = [
        " ".join(rng.choice(WORDS, size=int(k))) for k in rng.integers(0, 60, 150)
    ] + ["", "one", "", "two words", ""]
    batch = dedup.simhash64_batch(texts)
    for i, t in enumerate(texts):
        assert batch[i] == dedup.simhash64(t), (i, t)


def test_connected_components_groups():
    import pyarrow as pa

    from cs_insights_crawler_ray.pipelines.dedup import connected_components

    # two chains + a singleton edge: {1-2-3-4}, {10-11}, {20-21}
    pairs = pa.table(
        {"a": pa.array([1, 2, 3, 10, 20], pa.int64()),
         "b": pa.array([2, 3, 4, 11, 21], pa.int64())}
    )
    got = connected_components(pairs).to_pandas()
    groups = dict(zip(got["doc_id"], got["group_id"]))
    assert groups == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20}


def test_connected_components_distributed_path_matches_driver(monkeypatch):
    """Force the distributed label-propagation loop (the 100 TB path)
    and require identical groups to the driver fast path."""
    import pyarrow as pa

    from cs_insights_crawler_ray.pipelines import dedup

    rng = np.random.Generator(np.random.PCG64(8))
    # random forest-ish graph: chains, stars, singleton pairs
    a = rng.integers(0, 400, size=300).astype(np.int64)
    b = (a + rng.integers(1, 5, size=300)).astype(np.int64)
    pairs = pa.table({"a": pa.array(a), "b": pa.array(b)})
    fast = dedup.connected_components(pairs).to_pandas()
    monkeypatch.setattr(dedup, "CC_DRIVER_EDGE_LIMIT", 0)
    dist = dedup.connected_components(pairs).to_pandas()
    f = fast.sort_values("doc_id").reset_index(drop=True)
    d = dist.sort_values("doc_id").reset_index(drop=True)
    assert f["doc_id"].tolist() == d["doc_id"].tolist()
    assert f["group_id"].tolist() == d["group_id"].tolist()


def test_star_bucket_cap_preserves_connectivity():
    import pandas as pd

    from cs_insights_crawler_ray.pipelines import dedup

    big = pd.DataFrame(
        {"doc_id": list(range(1000)), "band_id": 0, "band_hash": 42}
    )
    pairs = dedup._pairs_from_partition(big)
    assert len(pairs) == 999                      # star, not 499500 combos
    got = dedup.connected_components(
        __import__("pyarrow").Table.from_pandas(pairs)
    ).to_pandas()
    assert (got["group_id"] == 0).all()           # one component, min id 0


def test_popcount64_matches_bin():
    rng = np.random.Generator(np.random.PCG64(4))
    xs = rng.integers(0, 1 << 63, size=500, dtype=np.uint64)
    xs[0] = 0; xs[1] = np.uint64((1 << 64) - 1)
    got = dedup._popcount64(xs)
    want = [bin(int(x)).count("1") for x in xs]
    assert got.tolist() == want


def test_hamming_star_cap_big_bucket_fast():
    """VERDICT r02 #3: a 10k-row identical-phash bucket must complete
    in seconds (star pairs), not emit ~50M combinations."""
    import time

    n = 10_000
    ds = rd.from_arrow(
        pa.table(
            {
                "img": pa.array([f"i{k:06d}" for k in range(n)], pa.string()),
                "ph": pa.array([12345] * n, pa.int64()),
            }
        )
    )
    t0 = time.perf_counter()
    pairs = dedup.hamming_near_dup_pairs(
        ds, "img", "ph", max_hamming=3, id_dtype="object"
    ).to_pandas()
    assert time.perf_counter() - t0 < 60
    # star: min-id x each other member, deduped across the 4 bands
    assert len(pairs) == n - 1
    assert (pairs["a"] == "i000000").all()
    assert (pairs["hamming"] == 0).all()


def test_hamming_vectorized_matches_naive_all_pairs():
    """star_cap=None = exact all-pairs listing; cross-check the numpy
    XOR+popcount kernel against a scalar recompute."""
    rng = np.random.Generator(np.random.PCG64(21))
    base = int(rng.integers(0, 1 << 62))
    hashes = [base]
    for _ in range(39):
        h = base
        for b in rng.choice(64, size=int(rng.integers(0, 6)), replace=False):
            h ^= 1 << int(b)
        hashes.append(h)
    sh = [h - (1 << 64) if h >= 1 << 63 else h for h in hashes]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(sh)), pa.int64()),
                  "phash": pa.array(sh, pa.int64())})
    )
    got = dedup.hamming_near_dup_pairs(ds, "doc_id", "phash", max_hamming=3,
                                       star_cap=None).to_pandas()
    got_set = {(a, b, d) for a, b, d in zip(got["a"], got["b"], got["hamming"])}
    want = set()
    banded = [(h >> (16 * k)) & 0xFFFF for h in hashes for k in range(4)]
    for i, j in itertools.combinations(range(len(hashes)), 2):
        d = bin(hashes[i] ^ hashes[j]).count("1")
        share = any(
            ((hashes[i] >> (16 * k)) & 0xFFFF) == ((hashes[j] >> (16 * k)) & 0xFFFF)
            for k in range(4)
        )
        if d <= 3 and share:
            want.add((i, j, d))
    assert got_set == want and want  # fixture must produce pairs


# Bucket rows (key, doc_id, hash) per case, and the pair cap per chunk
# (_PAIR_SLAB; None keeps the module's).  A hash of (1 << r) - 1 sets
# the r low bits, so two such hashes differ in |r1 - r2| bits.
_PIN_CASES = {
    "empty": ([], None),
    "singletons": ([(0, 1, 0), (1, 2, 0), (4, 3, 0)], None),
    "wider_than_chunk": (
        [(5, d, (1 << (d % 5)) - 1) for d in range(40)] + [(6, 1, 0), (6, 2, 0)], 3
    ),
    "star_256": ([(3, d, (1 << (d % 5)) - 1) for d in range(256)], None),
    "star_257": ([(3, d, (1 << (d % 5)) - 1) for d in range(257)], None),
    "dup_doc_id": ([(0, 7, 0), (0, 7, 0), (0, 7, 1), (0, 3, 0), (0, 9, 2)], None),
    "two_bands": ([(0, 1, 0), (0, 2, 0), (1, 1, 0), (1, 2, 0), (1, 3, 15)], None),
    "hamming_k_and_k_plus_1": ([(0, 1, 0), (0, 2, 7), (0, 3, 15), (0, 4, -1)], None),
    "df_20_and_21": ([(0, d, 0) for d in range(20)] + [(1, d, 0) for d in range(21)], None),
}
_PIN_CALLERS = ["q17", "prefix", "hamming_star", "hamming_exact_str_ids", "q64"]
_PIN_T_NUM, _PIN_MAX_HAMMING, _PIN_MAX_DF = 700_000, 3, 20
_PIN_ELLS = (1, 2, 3)  # the prefix caller runs once per ℓ


def _pin_size(d):
    return 8 + d % 13


def _pin_pos(d):
    return d % 3


def _pin_reference(caller, rows):
    """Scalar per-bucket all-pairs reference for each caller's rule."""
    buckets: dict[int, list] = {}
    for key, d, h in rows:
        buckets.setdefault(key, []).append((d, h))
    out = Counter()
    for members in buckets.values():
        if caller == "q17":
            ids = sorted({d for d, _ in members})
            if len(ids) > dedup._STAR_BUCKET_SIZE:
                out.update((ids[0], x) for x in ids[1:])
            else:
                out.update(itertools.combinations(ids, 2))
        elif caller == "prefix":
            slack = _PIN_T_NUM - 1
            for (a, _), (b, _) in itertools.combinations(sorted(members), 2):
                rest = min(_pin_size(a) - _pin_pos(a), _pin_size(b) - _pin_pos(b))
                hi = max(_pin_size(a), _pin_size(b))
                for ell in _PIN_ELLS:
                    ub = rest + ell - 1
                    if ub * (1_000_000 + slack) >= slack * (_pin_size(a) + _pin_size(b)):
                        need = min(ell, max(1, -(-slack * hi // 1_000_000)))
                        out[(ell, a, b, need)] += 1
        elif caller == "q64":
            ids = sorted(d for d, _ in members)
            if len(ids) <= _PIN_MAX_DF:
                out.update(itertools.combinations(ids, 2))
        else:
            m = sorted(set(members))
            if caller == "hamming_star" and len(m) > dedup._STAR_BUCKET_SIZE:
                combos = [(m[0], x) for x in m[1:]]
            else:
                combos = itertools.combinations(m, 2)
            for (a, ha), (b, hb) in combos:
                dist = bin((ha ^ hb) & ((1 << 64) - 1)).count("1")
                if dist <= _PIN_MAX_HAMMING and a != b:
                    out[(a, b, dist)] += 1
    if caller == "hamming_exact_str_ids":
        return Counter({(f"d{a:04d}", f"d{b:04d}", h): n for (a, b, h), n in out.items()})
    return out


def _pin_kernel(caller, rows):
    """Run the caller's partition kernel on the case rows (no Ray)."""
    key = np.array([r[0] for r in rows], np.int64)
    doc = np.array([r[1] for r in rows], np.int64)
    h = np.array([r[2] for r in rows], np.int64)
    if caller == "q17":
        got = dedup._pairs_from_partition(
            pd.DataFrame({"doc_id": doc, "band_id": (key % 4).astype(np.int32),
                          "band_hash": key // 4})
        )
        return Counter(zip(got["a"], got["b"]))
    if caller == "prefix":
        out = Counter()
        for ell in _PIN_ELLS:
            got = dedup._prefix_pairs_from_partition(
                pd.DataFrame({"gram": key, "doc_id": doc, "size": _pin_size(doc),
                              "pos": _pin_pos(doc)}),
                _PIN_T_NUM,
                ell,
            )
            out.update((ell, a, b, n) for a, b, n in zip(got["a"], got["b"], got["need"]))
        return out
    if caller == "q64":
        got = dedup._span_pairs_from_partition(
            pd.DataFrame({"g": pd.Series([f"w{k}" for k in key], dtype="object"),
                          "doc_id": doc}),
            _PIN_MAX_DF,
        )
        return Counter(
            {(k >> 32, k & 0xFFFFFFFF): n for k, n in zip(got["k"], got["n"])}
        )
    str_ids = caller == "hamming_exact_str_ids"
    ids = pd.Series([f"d{d:04d}" for d in doc], dtype="object") if str_ids else doc
    got = dedup._hamming_pairs_from_partition(
        pd.DataFrame({"doc_id": ids, "_h": h, "band_id": (key % 4).astype(np.int32),
                      "band_hash": key // 4}),
        _PIN_MAX_HAMMING,
        None if str_ids else dedup._STAR_BUCKET_SIZE,
        "object" if str_ids else "int64",
    )
    return Counter(zip(got["a"], got["b"], got["hamming"]))


@pytest.mark.parametrize("caller", _PIN_CALLERS)
@pytest.mark.parametrize("case", list(_PIN_CASES))
def test_bucket_pair_kernels_match_scalar_reference(caller, case, monkeypatch):
    """Every bucket self-join's partition kernel (q17 bands, the q68
    prefix filter, the q32/q63 hamming path with and without the star
    cap, q64 spans) emits exactly the pair multiset a per-bucket
    itertools.combinations loop does, on boundary buckets."""
    rows, slab = _PIN_CASES[case]
    if slab is not None:
        monkeypatch.setattr(dedup, "_PAIR_SLAB", slab)
    assert _pin_kernel(caller, rows) == _pin_reference(caller, rows)


def test_pair_jaccards_bit_identical_to_scalar():
    rng = np.random.Generator(np.random.PCG64(31))
    texts = {i: " ".join(rng.choice(WORDS, size=int(k)))
             for i, k in enumerate(list(rng.integers(0, 50, 30)) + [0, 1, 2])}
    ids = list(texts)
    a_ids = [ids[int(i)] for i in rng.integers(0, len(ids), 80)]
    b_ids = [ids[int(i)] for i in rng.integers(0, len(ids), 80)]
    got = dedup._pair_jaccards(a_ids, b_ids, texts)
    want = [dedup._round6_half_up(dedup.ngram_jaccard(texts[x], texts[y]))
            for x, y in zip(a_ids, b_ids)]
    assert got.tolist() == want


def test_decontaminate_matches_serial(ray_session):
    """q61 vs a serial set-arithmetic recompute of eval-gram overlap."""
    import os
    import pandas as pd

    from cs_insights_crawler_ray.pipelines.dedup import (
        _gram_set, q61_decontaminate)

    sf = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")
    got = q61_decontaminate(sf).to_pandas()
    docs = pd.read_parquet(f"{sf}/documents.parquet")
    eg = set().union(
        *(_gram_set(t) for t in docs.loc[docs["doc_id"] % 97 == 0, "text"])
    )
    train = docs[docs["doc_id"] % 97 != 0]
    exp = {
        int(r.doc_id): len(_gram_set(r.text) & eg)
        for r in train.itertuples()
        if len(_gram_set(r.text) & eg) > 0
    }
    assert dict(zip(got["doc_id"], got["n_shared"])) == exp
    # eval docs themselves are never flagged
    assert not set(got["doc_id"]) & set(
        docs.loc[docs["doc_id"] % 97 == 0, "doc_id"]
    )


def test_payload_dup_groups_consistent_with_pairs(ray_session):
    """q63 groups exactly cover the q32 pair list: every paired image
    appears, both ends of a pair share a group, and the representative
    is the lexicographically smallest member."""
    import os

    from cs_insights_crawler_ray.pipelines.crawl_queries import (
        q32_payload_neardup, q63_payload_dup_groups)

    sf = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")
    pairs = q32_payload_neardup(sf)
    groups = q63_payload_dup_groups(sf)
    paired = set(pairs["a"]) | set(pairs["b"])
    assert set(groups["image_id"]) == paired
    rep = dict(zip(groups["image_id"], groups["group_rep"]))
    for a, b in zip(pairs["a"], pairs["b"]):
        assert rep[a] == rep[b]
    for g, members in groups.groupby("group_rep")["image_id"]:
        assert g == min(members)


def test_dup_spans_matches_serial_and_prunes(ray_session, tmp_path):
    """q64: serial set-arithmetic parity on a hand-built corpus, and
    the MAX_DF boilerplate prune actually drops a viral span."""
    import pandas as pd

    from cs_insights_crawler_ray.pipelines.dedup import q64_dup_spans

    span = "one two three four five six seven eight"
    boiler = "b1 b2 b3 b4 b5 b6 b7 b8"
    docs = [
        f"{span} tail0",          # 0 and 1 share the 8-token span
        f"head1 {span}",
        "nothing in common here at all with anything else",
    ] + [f"{boiler} unique{i}" for i in range(30)]  # viral span, df=30
    pd.DataFrame({"doc_id": range(len(docs)), "text": docs}).to_parquet(
        tmp_path / "documents.parquet"
    )
    got = (
        q64_dup_spans(str(tmp_path))
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    # only the (0, 1) pair survives: the boilerplate span has df=30 > 20
    assert list(zip(got["a"], got["b"])) == [(0, 1)]
    assert int(got.loc[0, "n_shared"]) == 1
    # without the prune the viral span would emit 30*29/2 = 435 pairs
    got_hi = q64_dup_spans(str(tmp_path), max_df=64).to_pandas()
    assert len(got_hi) == 1 + 435


def test_pq_ann_matches_serial_and_recalls(ray_session):
    """q66: the distributed PQ fit+encode+ADC scan is bit-identical to
    the sequential pure-Python-int re-derivation, and PQ recalls a
    reasonable fraction of the brute top-k (sanity, not exactness —
    PQ is lossy by design)."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from cs_insights_crawler_ray.pipelines.ann import q66_pq_ann
    from cs_insights_crawler_ray.pipelines.oracle_artifacts import ensure

    sf = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")
    got = q66_pq_ann(sf).to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
    exp = (
        pq.read_table(ensure("pq_seq", sf))
        .to_pandas()
        .sort_values(["qid", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)
    # self-match: every query's rank-0 neighbor is itself
    r0 = got[got["rank"] == 0]
    assert (r0["qid"].to_numpy() == r0["vec_id"].to_numpy()).all()
    # recall vs exact L2 (PQ's own metric; q15's cosine normalizes and
    # is a different ordering on these unnormalized fixtures): lossy,
    # but not garbage
    import numpy as np

    emb = pd.read_parquet(f"{sf}/embeddings.parquet").sort_values("vec_id")
    mat = np.stack([np.asarray(v, np.float64) for v in emb["embedding"]])
    ids = emb["vec_id"].to_numpy()
    exact = set()
    for qi in sorted(got["qid"].unique()):
        qv = mat[ids == qi][0]
        d = ((mat - qv) ** 2).sum(axis=1)
        order = np.lexsort((ids, d))[:10]
        exact |= {(int(qi), int(v)) for v in ids[order]}
    hits = len(set(zip(got["qid"], got["vec_id"])) & exact)
    assert hits >= len(exact) * 0.3, f"PQ recall too low: {hits}/{len(exact)}"


def test_q61_hashed_default_matches_string_anchor(ray_session):
    """The production decontamination kernel (64-bit hashed shingles,
    vectorized membership) must flag the identical (doc_id, n_shared)
    row set as the string-gram anchor — the anchor/production split
    the r03 verdict asked for (the string form is what the SQL oracle
    replays; 64 bits keep the collision false-positive probability
    negligible where the MinHash path's folded 32 would not)."""
    import os

    sf = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")
    a = (
        dedup.q61_decontaminate(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        dedup.q61_decontaminate_exact(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(a) > 0, "fixture produced no contaminated docs"
    pd.testing.assert_frame_equal(a, b)


def test_batch_gram_hashes64_short_and_empty_docs():
    texts = ["", "one", "one two", "a b c d e", "a b c"]
    grams, counts = dedup._batch_gram_hashes64(texts)
    assert counts.tolist() == [1, 1, 1, 3, 1]
    # empty doc -> sentinel 0; short docs hash their whole stream
    assert grams[0] == 0
    # the 3-token doc's single trigram equals the 5-token doc's first
    s5 = grams[3:6]
    assert grams[6] == s5[0]
    # distinct trigrams hash distinctly (here)
    assert len(np.unique(s5)) == 3


def test_contrastive_triplets_rules(neardup_dir):
    """q103: positive = the exact top-1 neighbor; negative never
    equals anchor or positive; collision stepping is deterministic."""
    got = ann.q103_contrastive_triplets(neardup_dir).to_pandas()
    knn = ann.q94_knn_graph(neardup_dir, k=1).to_pandas()
    top1 = dict(zip(knn["vec_id"], knn["neighbor_id"]))
    n = len(got)
    assert set(got["anchor_id"]) == set(top1)
    for a, p, g in zip(got["anchor_id"], got["pos_id"], got["neg_id"]):
        assert p == top1[a]
        assert g != a and g != p
        assert 0 <= g < n


def test_ivf_knn_graph_exact_dots_and_ranks(neardup_dir):
    """q94b: every emitted (vec, neighbor, dot) carries the EXACT
    quantized dot; per-vector ranks are contiguous from 1; no
    duplicate pairs survive the multi-cell merge."""
    got = ann.q94b_ivf_knn_graph(neardup_dir, k=4).to_pandas()
    t = pq.read_table(f"{neardup_dir}/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    m = np.stack(
        [np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()]
    )
    q = np.trunc(m * 1_000_000).astype(np.int64)
    dot = q @ q.T
    pos = {int(i): k for k, i in enumerate(ids)}
    assert not got.duplicated(["vec_id", "neighbor_id"]).any()
    for v, r, nb, dq in zip(
        got["vec_id"], got["rank"], got["neighbor_id"], got["dot_q"]
    ):
        assert dq == dot[pos[v], pos[nb]]
        assert v != nb
    ranks = got.sort_values(["vec_id", "rank"]).groupby("vec_id")["rank"]
    for _, rs in ranks:
        assert rs.tolist() == list(range(1, len(rs) + 1))


def test_ivf_knn_graph_recall_on_planted_clusters(neardup_dir):
    """With 12 cells and nprobe=8 (2/3 of cells probed) on the planted
    near-identical fixture, the IVF tier must recover well over half
    of the exact graph; the counter arithmetic must be consistent."""
    rc = ann.q94b_ivf_knn_recall(neardup_dir).to_pandas()
    assert (rc["n_hit"] <= rc["n_cand"]).all()
    exact = ann.q94_knn_graph(neardup_dir).to_pandas()
    recall = rc["n_hit"].sum() / len(exact)
    assert recall >= 0.5, recall


def test_contrastive_triplets_ivf_tier(neardup_dir):
    """q103 composes either graph: the IVF form obeys the same rules
    with positives from the IVF top-1; unknown tiers raise."""
    got = ann.q103_contrastive_triplets(neardup_dir, graph="ivf").to_pandas()
    knn = ann.q94b_ivf_knn_graph(neardup_dir, k=1).to_pandas()
    top1 = dict(zip(knn["vec_id"], knn["neighbor_id"]))
    n = pq.read_table(
        f"{neardup_dir}/embeddings.parquet", columns=["vec_id"]
    ).num_rows
    assert set(got["anchor_id"]) == set(top1)
    for a, p, g in zip(got["anchor_id"], got["pos_id"], got["neg_id"]):
        assert p == top1[a]
        assert g != a and g != p
        assert 0 <= g < n
    with pytest.raises(ValueError):
        ann.q103_contrastive_triplets(neardup_dir, graph="bogus")


def test_ivf_knn_graph_block_layout_invariant(ray_session, tmp_path):
    """q94b's output is a pure function of the TABLE, not the block
    layout: cell routing is per-row, a cell's rows co-locate through
    the exchange whatever blocks they started in, and the merge dedups
    across shared probe cells — so a 1-row-group file and a 7-row-
    group file must produce identical graphs (and a rerun must too)."""
    rng = np.random.Generator(np.random.PCG64(99))
    n, d = 120, 16
    vecs = rng.standard_normal((n, d)).astype(np.float32) * 0.4
    vecs[17] = vecs[3]  # exact duplicate -> cross-cell tie material
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
            ),
        }
    )
    outs = []
    for name, rgs in (("one", n), ("many", 17)):
        p = tmp_path / name
        p.mkdir()
        pq.write_table(tbl, p / "embeddings.parquet", row_group_size=rgs)
        outs.append(
            ann.q94b_ivf_knn_graph(str(p), k=4)
            .to_pandas()
            .sort_values(["vec_id", "rank"])
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    rerun = (
        ann.q94b_ivf_knn_graph(str(tmp_path / "many"), k=4)
        .to_pandas()
        .sort_values(["vec_id", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(outs[1], rerun)


def test_ivf_knn_graph_empty_table(ray_session, tmp_path):
    """q94b over a 0-row embeddings.parquet: no centroids and an empty
    graph, instead of stack_embeddings_arrow raising on the empty
    centroid read."""
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
            }
        ),
        tmp_path / "embeddings.parquet",
    )
    assert ann._ivf_knn_centroids(str(tmp_path), ann.IVF_KNN_CENTROIDS).shape[0] == 0
    assert ann.q94b_ivf_knn_graph(str(tmp_path), k=4).count() == 0


def test_ivf_ann_empty_table(ray_session, tmp_path):
    """q41 over a 0-row embeddings.parquet returns the empty top-k
    table instead of raising on the empty query/centroid reads."""
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
            }
        ),
        tmp_path / "embeddings.parquet",
    )
    got = ann.q41_ivf_ann(str(tmp_path))
    assert got.num_rows == 0
    assert got.schema.names == ["qid", "vec_id", "cos"]


def test_table_jaccards_bit_identical_on_edge_docs():
    """_table_jaccards vs the scalar ngram_jaccard + _round6_half_up on
    the shingling edge cases: empty texts (sentinel gram 0), 1- and
    2-token docs (one short gram), repeated grams, a doc paired with
    itself, both orders of every pair, and doc_ids above 2**32 (the
    table packs the dense doc index, never the doc_id)."""
    big = 1 << 40
    texts = {
        big + 0: "",
        big + 1: "   ",
        big + 2: "alpha",
        big + 3: "alpha bravo",
        big + 4: "bravo alpha",
        big + 5: "alpha bravo charlie",
        big + 6: "alpha bravo charlie alpha bravo charlie alpha bravo charlie",
        big + 7: "alpha alpha alpha alpha alpha",
        7: "alpha bravo charlie delta",
        3: "alpha bravo charlie delta echo",
        (1 << 62) + 9: "echo delta charlie bravo alpha",
    }
    ids = list(texts)
    a, b = map(list, zip(*itertools.product(ids, ids)))
    table = dedup._gram_table(ids, [texts[i] for i in ids])
    got = dedup._table_jaccards(table, a, b)
    want = [
        dedup._round6_half_up(dedup.ngram_jaccard(texts[x], texts[y]))
        for x, y in zip(a, b)
    ]
    assert got.tolist() == want
    assert all(j == 1.0 for x, y, j in zip(a, b, got) if x == y)
    # the table is order-free: any input order gives the same bits
    rev = dedup._gram_table(ids[::-1], [texts[i] for i in ids[::-1]])
    assert dedup._table_jaccards(rev, b, a).tolist() == want
    assert dedup._table_jaccards(table, [], []).size == 0


def _sorted_pairs(t: pa.Table) -> pd.DataFrame:
    return t.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)


def test_q68_join_path_matches_broadcast(neardup_dir, monkeypatch, tmp_path):
    """The hash-join verify path (above BROADCAST_PAIR_LIMIT) returns
    exactly the broadcast path's pairs and jaccard bits, and verifies
    exactly as many pairs: both keep a pair only when its prefix rows
    reach its need, which drops most of the distinct raw pairs."""
    real_chunk, real_pairs = dedup._verify_chunk, dedup._pair_jaccards
    verified = []

    class Counting:  # the broadcast path submits its chunks from here
        @staticmethod
        def remote(table, a, b, threshold):
            verified.append(len(a))
            return real_chunk.remote(table, a, b, threshold)

    log = tmp_path / "join_pairs.txt"

    def counting(a_ids, b_ids, text_of):  # runs in the join path's tasks
        with open(log, "a") as f:
            f.write(f"{len(a_ids)}\n")
        return real_pairs(a_ids, b_ids, text_of)

    monkeypatch.setattr(dedup, "_verify_chunk", Counting)
    monkeypatch.setattr(dedup, "_pair_jaccards", counting)
    broadcast = _sorted_pairs(dedup.q68_ngram_jaccard_join(neardup_dir, 0.7))
    assert not log.exists()
    monkeypatch.setattr(dedup, "BROADCAST_PAIR_LIMIT", 0)
    joined = _sorted_pairs(dedup.q68_ngram_jaccard_join(neardup_dir, 0.7))
    assert len(broadcast) > 0
    pd.testing.assert_frame_equal(joined, broadcast)
    n_joined = sum(int(n) for n in log.read_text().split())
    assert sum(verified) == n_joined
    docs = rd.read_parquet(f"{neardup_dir}/documents.parquet", columns=["doc_id", "text"])
    raw = dedup.prefix_filter_candidates(docs, 0.7).to_pandas()
    assert len(broadcast) <= n_joined < len(raw.drop_duplicates(["a", "b"]))


def test_q17_join_path_matches_broadcast(neardup_dir, monkeypatch):
    """MinHash rows need 1: the hash-join verify path's Count + Max
    filter keeps every distinct pair, as the broadcast path does."""
    broadcast = _sorted_pairs(dedup.q17_minhash_dedup(neardup_dir, 0.7))
    monkeypatch.setattr(dedup, "BROADCAST_PAIR_LIMIT", 0)
    joined = _sorted_pairs(dedup.q17_minhash_dedup(neardup_dir, 0.7))
    assert len(broadcast) > 0
    pd.testing.assert_frame_equal(joined, broadcast)


def test_verify_skips_corpus_when_no_pair_meets_its_need(monkeypatch):
    """Raw rows that all fall short of their need leave nothing to
    verify: the broadcast path returns the typed empty (a, b, jaccard)
    table before it reads a doc or submits a _verify_chunk task."""
    docs = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(4), "text": ["alpha bravo"] * 4}))
    # (0, 1) has one row of need 2, (2, 3) two rows of need 3
    cand = rd.from_pandas(
        pd.DataFrame({"a": [0, 2, 2], "b": [1, 3, 3], "need": [2, 3, 3]}).astype("int64")
    )

    def fail(*_):
        raise AssertionError("verify work on an empty pair set")

    class NoSubmit:
        remote = staticmethod(fail)

    monkeypatch.setattr(dedup, "_verify_chunk", NoSubmit)
    monkeypatch.setattr(dedup, "_gram_table", fail)
    got = dedup.verify_pairs_adaptive(docs, cand, 0.7)
    assert got.num_rows == 0
    assert got.schema == pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
    )


def test_broadcast_verify_shingles_each_candidate_once(ray_session, monkeypatch):
    """The broadcast verify path shingles each candidate doc exactly
    once per call (one _gram_table in the calling process), however
    many chunk tasks score the pairs; the tasks receive only the table."""
    rng = np.random.Generator(np.random.PCG64(11))
    base = [" ".join(rng.choice(WORDS, size=30)) for _ in range(60)]
    texts = base + [t.replace(t.split()[4], "zulu", 1) for t in base]
    # jaccard exactly 7/10 == the threshold: kept
    texts += [" ".join(WORDS[:12]), " ".join(WORDS[:9])]
    docs = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    ii, jj = np.triu_indices(len(texts), k=1)
    # every pair twice: raw candidates may repeat
    cand = rd.from_pandas(
        pd.DataFrame({"a": np.tile(ii, 2), "b": np.tile(jj, 2), "need": 1}).astype("int64")
    )
    assert len(ii) // 2048 + 1 > 1  # several chunk tasks
    calls = []
    real = dedup._batch_gram_hashes

    def counting(batch):
        calls.append(len(batch))
        return real(batch)

    monkeypatch.setattr(dedup, "_batch_gram_hashes", counting)
    got = dedup.verify_pairs_adaptive(docs, cand, 0.7).to_pandas()
    assert calls == [len(texts)]
    want = {
        (i, j)
        for i, j in zip(ii.tolist(), jj.tolist())
        if dedup._round6_half_up(dedup.ngram_jaccard(texts[i], texts[j])) >= 0.7
    }
    assert (len(texts) - 2, len(texts) - 1) in want
    assert set(zip(got["a"], got["b"])) == want


def test_broadcast_verify_keeps_chunks_in_flight_within_cluster_cpus(ray_session, monkeypatch):
    """The broadcast verify path never has more than two chunk tasks
    in flight per cluster CPU: a deeper queue makes the raylet start
    worker processes that no chunk uses."""
    import ray

    rng = np.random.Generator(np.random.PCG64(5))
    texts = [" ".join(rng.choice(WORDS, size=12)) for _ in range(240)]
    docs = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    ii, jj = np.triu_indices(len(texts), k=1)
    cand = rd.from_pandas(pd.DataFrame({"a": ii, "b": jj, "need": 1}).astype("int64"))
    cpus = int(ray.cluster_resources()["CPU"])
    assert len(ii) // 2048 + 1 > 2 * cpus  # more chunks than the window
    submitted, in_flight = [], []
    real = dedup._verify_chunk

    class Counting:
        @staticmethod
        def remote(*args):
            _, busy = ray.wait(submitted, num_returns=len(submitted), timeout=0) if submitted else ([], [])
            in_flight.append(len(busy))
            submitted.append(real.remote(*args))
            return submitted[-1]

    monkeypatch.setattr(dedup, "_verify_chunk", Counting)
    got = dedup.verify_pairs_adaptive(docs, cand, 0.7)
    assert len(submitted) == len(ii) // 2048 + 1
    assert max(in_flight) < 2 * cpus
    want = sum(
        dedup._round6_half_up(dedup.ngram_jaccard(texts[i], texts[j])) >= 0.7
        for i, j in zip(ii.tolist(), jj.tolist())
    )
    assert got.num_rows == want


def test_prefix_postings_and_df_match_per_doc_reference():
    """The batch-vectorized _prefix_postings and _df_partials equal a
    per-doc scalar reference row for row: each doc's distinct grams
    ordered by (heavy-gram DF, gram), its first |G| - floor(t|G|) + ℓ
    (at most |G|) kept with their ranks, for ℓ = 1, 2, 3; with and
    without the heavy-gram table."""
    rng = np.random.Generator(np.random.PCG64(3))
    texts = [" ".join(rng.choice(WORDS[:6], size=int(k))) for k in rng.integers(3, 40, 40)]
    texts += ["", "alpha", "alpha bravo", "alpha bravo charlie alpha bravo charlie"]
    b = pd.DataFrame({"doc_id": np.arange(len(texts)) * 7 + (1 << 40), "text": texts})
    gsets = [sorted(set(dedup._shingle_hashes(t).tolist())) for t in texts]
    df = dedup._df_partials(b)
    want_df = pd.Series([g for s in gsets for g in s]).value_counts()
    assert dict(zip(df["gram"], df["n"])) == want_df.to_dict()
    top = df.sort_values(["n", "gram"], ascending=[False, True]).head(5)
    order = np.argsort(top["gram"].to_numpy())
    heavy = (top["gram"].to_numpy().astype(np.uint64)[order], top["n"].to_numpy()[order])
    empty = (np.zeros(0, np.uint64), np.zeros(0, np.int64))
    for hg, hdf in (heavy, empty):
        df_of = dict(zip(hg.tolist(), hdf.tolist()))
        for t, ell in itertools.product((0.5, 0.7, 0.9), (1, 2, 3)):
            want = []
            for did, gs in zip(b["doc_id"], gsets):
                p = min(len(gs), len(gs) - int(t * len(gs)) + ell)
                pref = sorted(gs, key=lambda g: (df_of.get(g, 0), g))[:p]
                want += [(g, did, len(gs), r) for r, g in enumerate(pref)]
            got = dedup._prefix_postings(b, t, hg, hdf, ell)
            assert list(got.itertuples(index=False, name=None)) == want


def test_prefix_positional_filter_boundaries():
    """_prefix_postings + _prefix_pairs_from_partition (no Ray) against
    brute-force round6 jaccard and a per-gram scalar reference of the
    ℓ-prefix and its positional filter, for ℓ = 1, 2, 3, on boundary
    cases.  Docs are runs of a token universe, so gram k is the trigram
    starting at token k, and the heavy-gram table ranks gram k at DF
    k + 1: prefixes and positions are known by construction.  Every
    true pair must survive the count (row count >= need)."""
    from fractions import Fraction

    def run(s, e):  # the doc whose grams are k in [s, e)
        return " ".join(f"u{k}" for k in range(s, e + 2))

    def counted(rows):
        c = dedup._counted_pairs(rows)
        return set(zip(c["a"], c["b"]))

    universe = [dedup._shingle_hashes(run(k, k + 1))[0] for k in range(500)]
    hg = np.array(universe, dtype=np.uint64)
    order = np.argsort(hg)
    hg, hdf = hg[order], (np.arange(500, dtype=np.int64) + 1)[order]
    texts = {
        10: run(0, 10), 11: run(0, 10),  # identical: later shared grams fail
        20: run(100, 110), 21: run(103, 110),  # 7 of 10, shared at x's last prefix slot
        30: run(200, 217), 31: run(203, 220),  # equal sizes, 14 of 20
        40: run(300, 310), 41: run(301, 311),  # equal sizes, 9 of 11
        50: run(400, 410), 51: run(403, 413),  # equal sizes, 7 of 13: not a pair
        60: "alpha", 61: "alpha", 62: "bravo",  # one-token docs
        63: "alpha bravo", 64: "alpha bravo",  # two-token docs: one short gram
        70: "", 71: "",  # empty docs
    }
    b = pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})
    df_of = dict(zip(hg.tolist(), hdf.tolist()))
    for t, ell in itertools.product((0.5, 0.7, 0.9), (1, 2, 3)):
        t_num = int(round(t * 1e6))
        post = dedup._prefix_postings(b, t, hg, hdf, ell).sample(frac=1, random_state=1)
        got = dedup._prefix_pairs_from_partition(post, t_num, ell)
        cand = sorted(zip(got["a"], got["b"], got["need"]))
        rank, size = {}, {}
        for did, text in texts.items():
            gs = sorted(set(dedup._shingle_hashes(text).tolist()), key=lambda g: (df_of.get(g, 0), g))
            p = min(len(gs), len(gs) - int(t * len(gs)) + ell)
            rank[did], size[did] = {g: r for r, g in enumerate(gs[:p])}, len(gs)
        # one row per shared prefix gram whose overlap bound can still
        # reach t' = (t_num - 1) / 1e6: ub + ℓ - 1 >= t' / (1 + t') *
        # (|x| + |y|); need = min(ℓ, ceil(t' * max(|x|, |y|))), >= 1
        slack = Fraction(t_num - 1, 10**6)
        want, truth = [], set()
        for x, y in itertools.combinations(sorted(texts), 2):
            need = min(ell, max(1, math.ceil(slack * max(size[x], size[y]))))
            for g in rank[x].keys() & rank[y].keys():
                ub = min(size[x] - rank[x][g], size[y] - rank[y][g]) + ell - 1
                if ub >= slack / (1 + slack) * (size[x] + size[y]):
                    want.append((x, y, need))
            if dedup._round6_half_up(dedup.ngram_jaccard(texts[x], texts[y])) >= t:
                truth.add((x, y))
        assert cand == sorted(want)
        kept = counted(got)
        assert truth <= kept
        if t == 0.7:
            assert truth == {
                (10, 11), (20, 21), (30, 31), (40, 41), (60, 61), (63, 64), (70, 71)
            }
            # shared grams 0..ℓ of 10/11 pass, later ones fail; of
            # 30/31's shared grams 203.., the first ℓ pass
            pairs = [(x, y) for x, y, _ in cand]
            assert pairs.count((10, 11)) == ell + 1 and pairs.count((30, 31)) == ell
            # 50/51 share prefix gram 403 and pass the length filter
            # (equal sizes), but its bound 7 + ℓ - 1 < 0.7/1.7 * 20
            # until ℓ = 3, and its one row never meets need = 3
            assert universe[403] in rank[50].keys() & rank[51].keys()
            assert size[50] == size[51] and (50, 51) not in kept
            assert ((50, 51) in pairs) == (ell == 3)
            # one-gram docs share one gram: need is 1, not ℓ
            assert {(60, 61, 1), (63, 64, 1), (70, 71, 1)} <= set(cand)
    # only the one-millionth slack keeps this pair: y is x's tail, so
    # the bound at their first shared gram is |y| = 140,002, short of
    # 0.7 * |x| = 140,002.1, yet round6(|y| / |x|) = 0.7
    x = " ".join(f"v{k}" for k in range(200_010))
    y = " ".join(f"v{k}" for k in range(60_004, 200_010))
    gx, gy = (set(dedup._shingle_hashes(s).tolist()) for s in (x, y))
    assert (len(gx), len(gy)) == (200_003, 140_002) and gy <= gx
    assert dedup._round6_half_up(dedup.ngram_jaccard(x, y)) == 0.7
    b = pd.DataFrame({"doc_id": [1, 2], "text": [x, y]})
    empty = (np.zeros(0, np.uint64), np.zeros(0, np.int64))
    for ell in (1, 2, 3):
        post = dedup._prefix_postings(b, 0.7, *empty, ell)
        assert (1, 2) in counted(dedup._prefix_pairs_from_partition(post, 700_000, ell))
