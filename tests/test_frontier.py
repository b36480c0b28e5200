"""Property tests for the incremental partition frontier
(state/frontier.py): candidates, pending set, and counts must match a
naive full-table recompute after any interleaving of admissions, new
links, refills and compactions."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from cs_insights_crawler_ray.state.frontier import (
    advance,
    compact,
    init_state,
    merge_new,
    pending_rest,
    pending_total,
)
from cs_insights_crawler_ray.state.politeness import (
    DISCOVERY_KEY,
    partition_candidates,
)
from cs_insights_crawler_ray.state.seen import FRONTIER_SCHEMA


def _rows(rng, n, wave, hosts, parent_base=0):
    if n == 0:
        return FRONTIER_SCHEMA.empty_table()
    hh = rng.choice(hosts, size=n)
    df = pd.DataFrame(
        {
            "url_canon": [f"u{wave}_{i}" for i in range(n)],
            "url_sha1": [
                (wave + 1).to_bytes(4, "big") + i.to_bytes(16, "big")
                for i in range(n)
            ],
            "host_hash": hh.astype(np.uint64),
            "depth": rng.integers(0, 6, size=n).astype(np.int32),
            "disc_wave": np.full(n, wave, np.int32),
            "disc_parent": (parent_base + rng.permutation(n)).astype(np.int64),
            "disc_link": rng.integers(0, 100, size=n).astype(np.int32),
        }
    )
    return pa.Table.from_pandas(df, preserve_index=False).cast(FRONTIER_SCHEMA)


def _sorted_df(t: pa.Table) -> pd.DataFrame:
    return (
        t.to_pandas()
        .sort_values(["host_hash"] + DISCOVERY_KEY, kind="mergesort")
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("seed,budget,wave_size,n_hosts", [
    (1, 3, 10, 5),
    (2, 1, 4, 3),
    (3, 4, 50, 2),     # deep per-host queues, heavy refill
    (4, 2, 6, 12),     # wide, truncation at wave_size
])
def test_incremental_matches_naive(seed, budget, wave_size, n_hosts):
    rng = np.random.default_rng(seed)
    hosts = np.arange(1, n_hosts + 1, dtype=np.uint64) * np.uint64(2654435761)
    seedt = _rows(rng, 40, -1, hosts)
    # dedupe dk collisions (dk must be unique in a real frontier)
    sdf = seedt.to_pandas().drop_duplicates(DISCOVERY_KEY)
    seedt = pa.Table.from_pandas(sdf, preserve_index=False).cast(FRONTIER_SCHEMA)

    state, base = init_state(seedt, budget, run_id=-1)
    runs = {-1: base}
    naive = seedt.to_pandas()  # full pending set, the oracle

    cand = partition_candidates(state["head"].to_pandas(), budget, 10**9, None)
    for wave in range(8):
        # oracle candidates over the FULL pending set
        want = partition_candidates(naive, budget, wave_size, None)
        got = partition_candidates(
            state["head"].to_pandas(), budget, wave_size, None
        )
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True)
        )
        assert pending_total(state) == len(naive)

        # admit a random subset of the candidates (global cut analog)
        n_admit = int(rng.integers(0, len(want) + 1))
        admitted = want.sample(n=n_admit, random_state=int(rng.integers(1 << 30)))
        naive = naive.merge(
            admitted[DISCOVERY_KEY].assign(_a=1), on=DISCOVERY_KEY, how="left"
        )
        naive = naive[naive["_a"].isna()].drop(columns=["_a"])

        run_ids = sorted(runs)
        state = advance(
            state, admitted[DISCOVERY_KEY], run_ids, lambda r: runs[r], budget
        )

        if wave % 3 == 2:  # periodic compaction, as the engine does
            state, newbase = compact(state, sorted(runs), lambda r: runs[r], 2 * wave)
            runs = {2 * wave: newbase}
            pd.testing.assert_frame_equal(
                _sorted_df(newbase),
                naive.sort_values(["host_hash"] + DISCOVERY_KEY, kind="mergesort")
                .reset_index(drop=True),
            )

        new = _rows(rng, int(rng.integers(0, 30)), wave, hosts,
                    parent_base=1000 * (wave + 1))
        ndf = new.to_pandas().drop_duplicates(DISCOVERY_KEY)
        new = pa.Table.from_pandas(ndf, preserve_index=False).cast(FRONTIER_SCHEMA)
        state, run_t, cand = merge_new(state, new, 2 * wave + 1, budget,
                                       wave_size, None)
        if run_t is not None:
            runs[2 * wave + 1] = run_t
        naive = pd.concat([naive, new.to_pandas()], ignore_index=True)

        # the returned candidates must equal the naive recompute too
        want2 = partition_candidates(naive, budget, wave_size, None)
        pd.testing.assert_frame_equal(
            cand.reset_index(drop=True), want2.reset_index(drop=True)
        )
        # and the materialized pending set must be exactly the naive set
        rest = pending_rest(state, sorted(runs), lambda r: runs[r])
        pd.testing.assert_frame_equal(
            _sorted_df(rest),
            naive.sort_values(["host_hash"] + DISCOVERY_KEY, kind="mergesort")
            .reset_index(drop=True),
        )


def test_drain_to_empty():
    rng = np.random.default_rng(7)
    hosts = np.arange(1, 4, dtype=np.uint64)
    t = _rows(rng, 12, -1, hosts)
    sdf = t.to_pandas().drop_duplicates(DISCOVERY_KEY)
    t = pa.Table.from_pandas(sdf, preserve_index=False).cast(FRONTIER_SCHEMA)
    state, base = init_state(t, 2, run_id=-1)
    runs = {-1: base}
    pending = len(sdf)
    wave = 0
    while pending > 0:
        cand = partition_candidates(state["head"].to_pandas(), 2, 100, None)
        assert len(cand) > 0
        state = advance(state, cand[DISCOVERY_KEY], sorted(runs),
                        lambda r: runs[r], 2)
        pending -= len(cand)
        state, run_t, cand2 = merge_new(
            state, FRONTIER_SCHEMA.empty_table(), wave, 2, 100, None
        )
        assert run_t is None
        wave += 1
    assert pending_total(state) == 0
    assert state["head"].num_rows == 0
    assert pending_rest(state, sorted(runs), lambda r: runs[r]).num_rows == 0


def test_candidates_with_authority_match_naive():
    """The auth tie-break must flow through merge_new's candidate
    compute identically to a full-table recompute."""
    rng = np.random.default_rng(21)
    hosts = np.arange(1, 7, dtype=np.uint64) * np.uint64(97)
    t = _rows(rng, 60, -1, hosts)
    sdf = t.to_pandas().drop_duplicates(DISCOVERY_KEY)
    t = pa.Table.from_pandas(sdf, preserve_index=False).cast(FRONTIER_SCHEMA)
    auth = {u: int(rng.integers(0, 4)) for u in sdf["url_canon"][::2]}
    budget, wave_size = 3, 9
    state, base = init_state(t, budget, run_id=-1)
    runs = {-1: base}
    naive = t.to_pandas()
    for wave in range(4):
        want = partition_candidates(naive, budget, wave_size, auth)
        adm = want.head(4)
        naive = naive.merge(
            adm[DISCOVERY_KEY].assign(_a=1), on=DISCOVERY_KEY, how="left"
        )
        naive = naive[naive["_a"].isna()].drop(columns=["_a"])
        state = advance(state, adm[DISCOVERY_KEY], sorted(runs),
                        lambda r: runs[r], budget)
        new = _rows(rng, 15, wave, hosts, parent_base=500 * (wave + 1))
        ndf = new.to_pandas().drop_duplicates(DISCOVERY_KEY)
        new = pa.Table.from_pandas(ndf, preserve_index=False).cast(FRONTIER_SCHEMA)
        state, run_t, cand = merge_new(
            state, new, 2 * wave + 1, budget, wave_size, auth
        )
        if run_t is not None:
            runs[2 * wave + 1] = run_t
        naive = pd.concat([naive, new.to_pandas()], ignore_index=True)
        want2 = partition_candidates(naive, budget, wave_size, auth)
        pd.testing.assert_frame_equal(
            cand.reset_index(drop=True), want2.reset_index(drop=True)
        )
