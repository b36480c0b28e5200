"""Property tests (hypothesis) for the round-3 operator kernels'
math — the pure functions behind q56/q57/q58 and the authority
tie-break, exercised on adversarial random inputs without a Ray
session (SURVEY.md §5 test-strategy parity: the reference's only
property surface is URL canonicalization; ours covers the
distributed-kernel contracts)."""

from __future__ import annotations

import numpy as np
import pandas as pd
from hypothesis import example, given, settings, strategies as st


# --------------------------------------------------------------- q58
@settings(max_examples=60, deadline=None)
@given(
    tokens=st.lists(st.integers(0, 9), min_size=0, max_size=400),
    n_blocks=st.integers(1, 6),
    k=st.integers(2, 8),
)
def test_misra_gries_block_trim_preserves_heavy_hitters(tokens, n_blocks, k):
    """The per-block MG offset (subtract the k-th largest count, keep
    positives) merged by plain summation never loses a true heavy
    hitter (count * k > N): the mergeable-summaries guarantee the q58
    rescan relies on."""
    s = pd.Series([f"t{t}" for t in tokens], dtype="object")
    bounds = sorted(
        {0, len(s), *np.random.RandomState(k).randint(0, max(1, len(s)), n_blocks - 1)}
    )
    residual: dict[str, int] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        c = s.iloc[lo:hi].value_counts()
        if len(c) >= k:
            c = c - int(c.iloc[k - 1])
            c = c[c > 0]
        for t, v in c.items():
            residual[t] = residual.get(t, 0) + int(v)
    total = len(s)
    true_counts = s.value_counts()
    heavy = set(true_counts[true_counts * k > total].index)
    survivors = {t for t, v in residual.items() if v > 0}
    assert heavy <= survivors
    # and the per-term subtraction never exceeded N/k overall
    for t in heavy:
        assert residual[t] >= int(true_counts[t]) - total // k - 1


# --------------------------------------------------------------- q57
@settings(max_examples=60, deadline=None)
@given(
    n_tokens=st.lists(st.integers(0, 1500), min_size=1, max_size=120),
    ctx=st.integers(2, 700),
)
def test_sequence_pack_window_arithmetic(n_tokens, ctx):
    """Window assignment invariants of the q57 kernel math: windows
    are contiguous across docs, span counts match ceil arithmetic,
    empty docs pin to one window."""
    n = np.asarray(n_tokens, dtype=np.int64)
    start = np.concatenate(([0], np.cumsum(n)[:-1]))
    first = start // ctx
    last = (start + np.maximum(n, 1) - 1) // ctx
    n_chunks = last - first + 1
    assert (n_chunks >= 1).all()
    assert (first <= last).all()
    # doc i+1 starts exactly where doc i ends (token-stream contiguity)
    assert ((start[:-1] + n[:-1]) == start[1:]).all()
    # span matches ceil arithmetic for non-empty docs
    nz = n > 0
    off = start[nz] % ctx
    assert (n_chunks[nz] == (off + n[nz] + ctx - 1) // ctx).all()
    assert (n_chunks[n == 0] == 1).all()


# --------------------------------------------------------------- q56
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 10_000),
    order=st.randoms(use_true_random=False),
)
def test_pagerank_inflow_is_block_order_independent(n, seed, order):
    """Folding per-edge int64 contributions in ANY partition/order
    yields identical inflow — the invariant that makes the distributed
    PageRank bit-identical to the serial loop."""
    rng = np.random.RandomState(seed)
    m = rng.randint(1, 120)
    src = rng.randint(0, n, m)
    dst = rng.randint(0, n, m)
    outdeg = rng.randint(1, 6, m)
    ranks = rng.randint(0, 10**12, n).astype(np.int64)
    c = ranks[src] // outdeg

    def fold(perm):
        out = np.zeros(n, np.int64)
        np.add.at(out, dst[perm], c[perm])
        return out

    idx = np.arange(m)
    perm = idx.copy()
    order.shuffle(perm)
    assert np.array_equal(fold(idx), fold(perm))


# -------------------------------------------------- authority tie-break
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 10_000),
    budget=st.integers(1, 5),
    wave=st.integers(1, 30),
)
def test_authority_zero_is_order_identity(n, seed, budget, wave):
    """partition_candidates with auth=None and with an all-zero / empty
    authority map produce identical row order — the bit-identical
    default-path guarantee of the authority feature."""
    from cs_insights_crawler_ray.state.politeness import partition_candidates

    rng = np.random.RandomState(seed)
    df = pd.DataFrame(
        {
            "url_canon": [f"https://h{rng.randint(4)}.test/p/{i}" for i in range(n)],
            "host_hash": rng.randint(0, 4, n).astype(np.uint64),
            "depth": rng.randint(0, 5, n),
            "disc_wave": rng.randint(0, 3, n),
            "disc_parent": rng.randint(-1, 50, n).astype(np.int64),
            "disc_link": rng.randint(0, 20, n),
        }
    )
    base = partition_candidates(df.copy(), budget, wave, None)
    zero = partition_candidates(df.copy(), budget, wave, {})
    pd.testing.assert_frame_equal(
        base.reset_index(drop=True), zero.reset_index(drop=True)
    )


# ------------------------------------------------- fingerprint64 batch
@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd", "Zs", "Po", "Lo")
            ),
            max_size=120,
        ),
        min_size=1,
        max_size=25,
    )
)
def test_fingerprint64_batch_matches_pure_python(docs):
    """The batch-vectorized fingerprint (unique-token FNV by byte
    position, sliding-window polynomial, masked reduceat mins) is
    bit-identical to the pure-Python-int re-derivation on arbitrary
    unicode, including empty/whitespace-only/short docs."""
    from cs_insights_crawler_ray.functions.text import fingerprint64
    from cs_insights_crawler_ray.pipelines.textops import _naive_fingerprint64

    got = fingerprint64(pd.Series(docs)).to_numpy()
    want = np.array([_naive_fingerprint64(d) for d in docs], dtype=np.int64)
    assert (got == want).all()


# ----------------------------------------------- slab-blocked hamming
@settings(max_examples=40, deadline=None)
@given(
    hashes=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=60),
    max_h=st.integers(0, 8),
    slab=st.integers(1, 7),
)
def test_slab_blocked_allpairs_equals_brute(hashes, max_h, slab):
    """The chunked exact all-pairs expansion of one hamming bucket
    emits exactly the brute-force pair set regardless of the chunk cap
    (_PAIR_SLAB**2 pairs; the path q32 takes with star_cap=None)."""
    from cs_insights_crawler_ray.pipelines import dedup as D

    hs = np.array(hashes, dtype=np.int64).astype(np.uint64)
    # brute reference
    want = set()
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            d = bin(int(hs[i] ^ hs[j])).count("1")
            if d <= max_h:
                want.add((i, j, d))
    g = pd.DataFrame({"doc_id": np.arange(len(hs), dtype=np.int64),
                      "_h": np.array(hashes, dtype=np.int64),
                      "band_id": 0, "band_hash": 0})
    old = D._PAIR_SLAB
    D._PAIR_SLAB = slab
    try:
        out = D._hamming_pairs_from_partition(g, max_h, None, "int64")
    finally:
        D._PAIR_SLAB = old
    assert set(zip(out["a"], out["b"], out["hamming"])) == want


# ------------------------------------------------- bloom add/remove
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 40),
    dup=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_bloom_add_remove_never_wraps(n, dup, seed):
    """Balanced add-then-remove with arbitrary in-batch duplication
    never loses membership of never-removed digests (the counting
    contract: each element removed at most as many times as added —
    over-removal legitimately steals shared cell counts in ANY
    counting bloom) and never wraps a cell 0 -> 255."""
    from cs_insights_crawler_ray.state.bloom import CountingBloom

    rng = np.random.default_rng(seed)
    d = rng.integers(0, 256, size=(n, 20), dtype=np.uint8)
    keep = rng.integers(0, 256, size=(8, 20), dtype=np.uint8)
    b = CountingBloom(capacity=64)
    b.add(keep)
    b.add(np.repeat(d, dup, axis=0))
    b.remove(np.repeat(d, dup, axis=0))  # exact multiset removed
    assert b.contains(keep).all()
    # no cell wrapped high: every live count is bounded by total adds
    assert int(b.cells.max()) <= 8 + n * dup


# --------------------------------------------------------------- q68
@settings(max_examples=50, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.integers(0, 6), min_size=0, max_size=30),
        min_size=2,
        max_size=22,
    ),
    t=st.floats(0.3, 0.95),
    heavy_k=st.integers(0, 12),
    dups=st.lists(st.integers(0, 21), max_size=4),
)
# |G| = 1 (empty, one-token, two-token and one-trigram docs), 2 and 3,
# each duplicated, plus near pairs of sizes 2/3 and 3/3
@example(
    docs=[[], [], [0], [0], [0, 1], [0, 1], [0, 1, 2], [0, 1, 2], [0, 1, 2, 3],
          [0, 1, 2, 3], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5]],
    t=0.5, heavy_k=0, dups=[],
)
@example(
    docs=[[], [0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]],
    t=0.7, heavy_k=3, dups=[0, 1, 2, 3, 4, 5],
)
def test_prefix_filter_candidate_guarantee(docs, t, heavy_k, dups):
    """The ℓ-prefix theorem as implemented (q68 kernels, no Ray): for
    ANY corpus, threshold, heavy-gram ordering table and ℓ in 1..3,
    every pair whose round6 n-gram jaccard >= t must survive the COUNT
    of the rows produced by _prefix_postings +
    _prefix_pairs_from_partition (row count >= the pair's need).
    Probes the floor-prefix / (t_num-1)-length-filter slack against
    float thresholds, tiny vocab (dense collisions), short, empty and
    duplicated docs (whose overlap is below ℓ), and arbitrary (even
    adversarial) DF orderings — ordering must never affect the
    superset property, only selectivity."""
    import itertools

    from cs_insights_crawler_ray.pipelines import dedup

    texts = [" ".join(f"w{x}" for x in d) for d in docs]
    texts += [texts[i % len(texts)] for i in dups]
    b = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
    )
    grams, _ = dedup._batch_gram_hashes(texts)
    uniq = np.unique(grams)
    hg = uniq[: min(heavy_k, uniq.size)].astype(np.uint64)
    hdf = (np.arange(hg.size, dtype=np.int64) % 3) * 7 + 1  # ties + skew
    t_num = int(round(t * 1e6))
    truth = {
        (i, j)
        for (i, ta), (j, tb) in itertools.combinations(enumerate(texts), 2)
        if dedup._round6_half_up(dedup.ngram_jaccard(ta, tb)) >= t
    }
    for ell in (1, 2, 3):
        post = dedup._prefix_postings(b, t, hg, hdf, ell)
        rows = dedup._prefix_pairs_from_partition(post, t_num, ell)
        assert ((rows["need"] >= 1) & (rows["need"] <= ell)).all()
        assert (rows["a"] < rows["b"]).all()
        counted = dedup._counted_pairs(rows)
        cand = set(zip(counted["a"], counted["b"]))
        missing = truth - cand
        assert not missing, (ell, [(texts[i], texts[j]) for i, j in missing])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                codec="utf-8", exclude_characters=["'", "\\"]
            ),
            max_size=24,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_ascii_tokens_matches_duckdb_regexp(texts):
    """textops._ascii_tokens == DuckDB regexp_extract_all(text,'\\S+')
    on arbitrary unicode (incl. NBSP / \\v / CJK) — the r04 review's
    divergence class, property-pinned."""
    import duckdb
    import pandas as pd

    from cs_insights_crawler_ray.pipelines.textops import _ascii_tokens

    ours = _ascii_tokens(pd.Series(texts, dtype=object)).tolist()
    duck = [
        r[0] or []
        for r in duckdb.sql(
            "SELECT regexp_extract_all(s, '\\S+') FROM (SELECT unnest(?) AS s)",
            params=[texts],
        ).fetchall()
    ]
    assert ours == duck
