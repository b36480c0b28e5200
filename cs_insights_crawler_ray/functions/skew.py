"""Salted aggregation — explicit hot-key skew handling
(SURVEY.md §7.4 "hot-host skew: salted repartition"; north_rule
"salted repartition to break hot-host skew").

A plain ``groupby(key)`` sends every row of a hot key to ONE reducer;
with zipf-distributed keys (link targets, event user_ids) that reducer
becomes the straggler.  ``salted_aggregate`` splits each key into
``n_salts`` sub-keys for the first exchange (phase 1 reducers each see
~1/n_salts of the hot key) and merges the per-salt partials in a
second, tiny exchange.  Works for any algebraic aggregate (sum, count,
min, max — anything with an associative merge).

Where the crawl engine needs this: per-host LINK counts / metrics over
the discovered-link stream (the frontier's politeness admission does
NOT need it — frontier partitions are keyed by host hash, so a host's
rows never leave their partition, see state/politeness.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd
from ray.data.aggregate import Count, Sum


def salted_aggregate(
    ds: rd.Dataset,
    key: str,
    value: str,
    n_salts: int = 16,
) -> rd.Dataset:
    """sum(value) + count(*) grouped by key, computed as
    (key, salt)-partials then merged — two shuffles, neither of which
    ever routes a hot key's full row set to one reducer.

    salt = row-position hash % n_salts (uniform).  Deterministic
    output for real: the value is scaled to FIXED-POINT int64 (9
    decimals) before any Sum, so every partial and the final merge is
    order-insensitive INTEGER addition — float partial sums were
    block-arrival-order-dependent in the last ulp, the exact
    round()-boundary flake CLAUDE.md documents for money aggregates
    (rounding happens in integer space, once, on an exact value)."""
    SCALE = 1_000_000_000
    # int64 capacity is ~9.2e18: with 9-decimal scaling a per-key SUM
    # past |Σv| ≈ 9.2e9 would wrap SILENTLY inside the integer Sum, so
    # per-value magnitude is guarded loudly here (values ≤ MAX_ABS keep
    # any realistic hot-key sum far from the ceiling; callers with
    # larger measures should pre-scale or lower the decimal precision)
    MAX_ABS = 1_000_000.0  # per-value bound: 1e6 * 1e9 = 1e15 per row

    def add_salt(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__salt"] = (np.arange(len(b)) % n_salts).astype(np.int64)
        v = b[value].to_numpy(np.float64)
        if len(v) and float(np.abs(v).max()) > MAX_ABS:
            raise ValueError(
                f"salted_aggregate: |{value}| exceeds {MAX_ABS:g} — the "
                "9-decimal int64 fixed point would overflow silently; "
                "pre-scale the measure or lower the precision"
            )
        b[value] = np.round(v * SCALE).astype(np.int64)
        return b

    partial = (
        ds.map_batches(add_salt, batch_format="pandas")
        .groupby([key, "__salt"])
        .aggregate(
            Sum(value, alias_name="__psum"),
            Count(alias_name="__pcnt"),
        )
    )
    final = (
        partial.groupby(key)
        .aggregate(
            Sum("__psum", alias_name="sum_value"),
            Sum("__pcnt", alias_name="n"),
        )
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        # unscale the exact integer sum — the only float op, applied
        # once to an order-independent value
        b["sum_value"] = b["sum_value"].astype("int64") / SCALE
        b["n"] = b["n"].astype("int64")
        return b

    return final.map_batches(finish, batch_format="pandas")
