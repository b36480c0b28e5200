"""Politeness admission — per-host token buckets expressed as
deterministic per-wave budgets.

The reference achieves perfect politeness by being fully sequential
(exactly one in-flight request, ``s2client.py:153-156``).  The
parallel restatement: each host's token bucket refills ``host_budget``
tokens per wave; admission takes each host's ``host_budget``
longest-waiting pending URLs (by discovery key), scores them, and the
global wave takes the best ``wave_size`` overall.  Because budgets are
data-derived (not clock-derived) the admitted set is a pure function
of the frontier — the property both the oracle simulator and the
parallel engine compute identically.

Score: ``depth + 0.001 * min(host_rank, 999) [+ recency_weight *
(wave - disc_wave)]`` — BFS order with in-host crowding pushed back,
so hot hosts cannot monopolize a wave even below their budget
(SURVEY.md §2.6 O4).  The north-star sketch's "recency" term is
clock-derived and would break determinism; the opt-in deterministic
restatement is WAVE AGE (`wave - disc_wave` — both data columns):
positive ``recency_weight`` is freshness-first (recently-discovered
links outrank stale backlog at equal depth), negative is
oldest-first.  Off (0.0) keeps the score bit-identical to the
two-term form.  Like authority, recency only reorders the inter-host
wave ranking; per-host BUDGET eligibility stays discovery-order, so
politeness is recency-blind.

Implementation shape: admission is ``partition_candidates`` over each
incremental frontier partition's HEAD (state/frontier.py — hosts never
straddle partitions, so the per-host rank/budget/score pass is
partition-local and shuffle-free).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

DISCOVERY_KEY = ["disc_wave", "disc_parent", "disc_link"]
HOST_RANK_CAP = 999


def score_of(depth: np.ndarray, host_rank: np.ndarray) -> np.ndarray:
    return depth.astype(np.float64) + 0.001 * np.minimum(host_rank, HOST_RANK_CAP)


def _auth_neg(df: pd.DataFrame, auth: dict | None) -> np.ndarray:
    if auth:
        # .map(dict) would promote through float64 on any miss (NaN),
        # silently corrupting authorities above 2^53; the .get lambda
        # keeps Python ints end-to-end (exact int64, CLAUDE.md rule)
        # and the frame here is a bounded per-partition head, not the
        # corpus, so the per-row lookup is off the hot path.
        get = auth.get
        return -(
            df["url_canon"].map(lambda u: get(u, 0)).to_numpy(np.int64)
        )
    return np.zeros(len(df), np.int64)


def _budget_scored(
    part: pd.DataFrame, host_budget: int, auth: dict | None,
    cand_wave: int | None = None, recency_weight: float = 0.0,
) -> pd.DataFrame:
    """Per-host discovery-order rank + budget cut + score over a FULL
    partition slice.  ``recency_weight`` (with ``cand_wave``, the wave
    these candidates are admitted in) adds the deterministic wave-age
    term — see the module docstring; the budget cut itself is always
    discovery-order."""
    g = part.sort_values(["host_hash"] + DISCOVERY_KEY, kind="mergesort")
    grp = g.groupby("host_hash", sort=False)
    rank = grp.cumcount().to_numpy()
    keep = rank < host_budget
    g = g[keep].copy()
    score = score_of(g["depth"].to_numpy(), rank[keep])
    if recency_weight:
        if cand_wave is None:
            raise ValueError("recency_weight requires cand_wave")
        age = (cand_wave - g["disc_wave"].to_numpy()).astype(np.float64)
        # same association as the sequential oracle:
        # (depth + 0.001*rank) + w*age, elementwise IEEE float64
        score = score + recency_weight * age
    g["score"] = score
    g["auth_neg"] = _auth_neg(g, auth)
    return g


def partition_candidates(
    part: pd.DataFrame, host_budget: int, wave_size: int,
    auth: dict | None = None,
    cand_wave: int | None = None,
    recency_weight: float = 0.0,
) -> pd.DataFrame:
    """Admission candidates of one complete host-hash partition (every
    row of every host in the partition is present — the frontier is
    partitioned by ``host_hash % n_parts`` so this holds by
    construction): per-host discovery-order rank, budget cut, score,
    then the partition-local best ``wave_size`` rows.  The global wave
    admits the best ``wave_size`` across partitions, so rows outside a
    partition's local top-``wave_size`` can never be admitted.

    ``auth`` (optional): url_canon -> int64 authority (e.g. the
    fixed-point PageRank of pipelines/graph.py).  Authority is a
    TIE-BREAK between score and discovery key — stored negated
    (``auth_neg``) so one ascending mergesort ranks higher-authority
    URLs first.  Per-host BUDGET eligibility stays discovery-order
    (age), so politeness is authority-blind; only the inter-host wave
    ranking changes.  With no auth every row gets 0 and the order is
    bit-identical to the authority-free engine (parity-tested).

    ``recency_weight``/``cand_wave``: the opt-in deterministic
    wave-age score term (module docstring); 0.0 skips the term and is
    bit-identical to the recency-free engine (parity-tested)."""
    g = _budget_scored(part, host_budget, auth, cand_wave, recency_weight)
    return g.sort_values(
        ["score", "auth_neg"] + DISCOVERY_KEY, kind="mergesort"
    ).head(wave_size)

