"""The reference's relational core, re-expressed Ray-Data-first.

Each function implements one operator family from SURVEY.md §2 over the
driver's deterministic testdata tables and has a DuckDB oracle in
``__ray_entry__.oracle_sql``.  Reference semantics cited per function.

Scale notes apply throughout:
- every read prunes columns (``read_parquet(columns=[...])``);
- filters/projections are vectorized pyarrow kernels inside
  ``map_batches(batch_format="pyarrow")`` — no Python row loops;
- small sides are broadcast (``ray.put`` once, read per task), large
  sides use Ray's hash ``Dataset.join``;
- aggregates go through ``groupby().aggregate()`` whose hash shuffle
  pre-combines per block, so only partials cross the exchange.

Float columns that result from re-associated arithmetic (sums/means)
are rounded to a fixed number of decimals in BOTH the Ray pipeline and
the oracle SQL so value-hash comparison is insensitive to addition
order.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..functions.broadcast import bget

# Join fan-in for hash joins at test scale; at cluster scale this is
# sized ~ (cluster cores * 2) so each partition fits a worker heap.
_NPART = 8

# Hash-join aggregator actors are mostly-idle reducers; give them
# fractional CPUs so a pool of them can never starve the task
# scheduler (full-CPU aggregators deadlock a small session: the
# aggregators hold every slot while a downstream sort waits for its
# boundary-sampling tasks — observed live, tests/conftest num_cpus=4).
JOIN_ARGS = {"aggregator_ray_remote_args": {"num_cpus": 0.25}}


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


# Coarse shuffle fan-out for high-cardinality grouped sums (sized
# ~cluster cores at scale; each map_groups call sees one partition)
_N_AGG_PARTS = 32


def _grouped_sum_parts(
    ds: rd.Dataset, key: str, sums: dict[str, str], n_parts: int = _N_AGG_PARTS
) -> rd.Dataset:
    """Keyed multi-column Sum for HIGH-CARDINALITY keys: per-block
    pandas pre-combine -> hash-partition the partials into n_parts
    coarse groups -> vectorized within-partition groupby.sum.

    Ray's ``groupby(key).aggregate(Sum(...))`` pays per-GROUP overhead
    (9.7s for the 147k-group lineitem rollup at sf0.1, measured);
    this form is one n_parts-group sort shuffle + two vectorized
    pandas groupbys (~2s same input).  Only pre-combined partials
    cross the exchange.  Use the plain aggregate for low-cardinality
    keys (q01's 6 groups) where it is already optimal."""

    def local(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(key, as_index=False).agg(
            **{o: (i, "sum") for o, i in sums.items()}
        )
        h = g[key].to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            h = h * np.uint64(0x9E3779B97F4A7C15)
        g["_part"] = (h % np.uint64(n_parts)).astype(np.int32)
        return g

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(key, as_index=False)[list(sums)].sum()

    return (
        ds.map_batches(local, batch_format="pandas")
        .groupby("_part")
        .map_groups(final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Fixed-point money/measure arithmetic.  The driver's numeric columns
# are exact k-decimal values, so summing them as scaled int64 makes
# every aggregate ORDER-INDEPENDENT: a float64 sum's last-ulp jitter
# depends on Ray's nondeterministic block order, and round(., 2) flips
# a cent when the true value sits near a .005 boundary (observed once
# in ~40 dress rehearsals on q45 — the whole flake class dies here).
# The SQL oracles mirror the same integer ops, so both sides are
# bit-exact, not merely close.
# ---------------------------------------------------------------------------
def _dim_lookup(names, keys, what: str):
    """Positional dimension-array lookup with LOUD broken-FK handling:
    numpy fancy indexing silently WRAPS negative keys to the array's
    tail (a corrupt key of -1 returns the last nation/supplier — the
    exact mis-attribution the sentinel guards exist to refuse), and
    raises bare IndexError out of range; in-range holes are None
    sentinels."""
    import numpy as _np

    keys = _np.asarray(keys)
    if keys.size and int(keys.min()) < 0:
        raise KeyError(f"{what}: negative key (broken FK)")
    try:
        vals = names[keys]
    except IndexError:
        raise KeyError(f"{what}: key out of range (broken FK)") from None
    if any(v is None for v in vals):
        raise KeyError(f"{what}: hole in dimension (broken FK)")
    return vals


def _fixed(col, scale: int):
    """Exact k-decimal float column -> scaled int64."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(float(scale)))), pa.int64())


def _div_round_half_up(col, denom: int):
    """Integer round-half-away of col/denom for NON-NEGATIVE ints:
    (2a + b) // (2b) — no float ties to break."""
    return pc.divide(
        pc.add(pc.multiply(col, pa.scalar(2, pa.int64())), pa.scalar(denom, pa.int64())),
        pa.scalar(2 * denom, pa.int64()),
    )


def _unscale(col, scale: int):
    """Scaled int64 -> float at its exact decimal value."""
    return pc.divide(col.cast(pa.float64()), pa.scalar(float(scale)))


# ---------------------------------------------------------------------------
# A1/A2/O1 — grouped aggregate (TPC-H Q1 shape)
# Reference analog: the defaultdict corpusid merge + set-distinct
# (s2processor.py:55,114-118) generalized to a keyed aggregate.
# ---------------------------------------------------------------------------
def q01_pricing_summary(sf_dir: str) -> rd.Dataset:
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(t: pa.Table) -> pa.Table:
        qty_c = _fixed(t["l_quantity"], 100)
        ext_c = _fixed(t["l_extendedprice"], 100)
        disc_c = _fixed(t["l_discount"], 100)
        # disc price in 1e-4 units: cents * (100 - disc_cents)
        dp4 = pc.multiply(ext_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty_c": qty_c,
                "ext_c": ext_c,
                "dp4": dp4,
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        n = t["count_order"].cast(pa.int64()).combine_chunks()
        sq = t["sum_qty_c"].combine_chunks()
        # avg in 1e-4 units = qty_cents*100/n, integer half-away
        avg4 = pc.divide(
            pc.add(pc.multiply(sq, pa.scalar(200, pa.int64())), n),
            pc.multiply(n, pa.scalar(2, pa.int64())),
        )
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": _unscale(sq, 100),
                "sum_base_price": _unscale(t["sum_ext_c"].combine_chunks(), 100),
                "sum_disc_price": _unscale(
                    _div_round_half_up(t["sum_dp4"].combine_chunks(), 100), 100
                ),
                "avg_qty": _unscale(avg4, 10000),
                "count_order": t["count_order"],
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_c", alias_name="sum_qty_c"),
            Sum("ext_c", alias_name="sum_ext_c"),
            Sum("dp4", alias_name="sum_dp4"),
            Count(alias_name="count_order"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# F1 — timestamp filter (reference dblpclient.py:104-123: keep elements
# with @mdate strictly after from_timestamp).
# ---------------------------------------------------------------------------
def q02_timestamp_filter(sf_dir: str) -> rd.Dataset:
    cutoff = pa.scalar(np.datetime64("2024-01-20T00:00:00", "us"))
    return _read(sf_dir, "events").map_batches(
        lambda t: t.filter(pc.greater(t["ts"], cutoff)), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# F2 — access filter with default-CLOSED (reference dblpclient.py:126-145:
# el.get("ee", {"@type": CLOSED}).get("@type") in access_types).
# coalesce(col, 'closed') IN allowed — vectorized.
# ---------------------------------------------------------------------------
def q03_access_filter(sf_dir: str) -> rd.Dataset:
    allowed = pa.array(["O", "F"], pa.string())

    def f(t: pa.Table) -> pa.Table:
        status = pc.coalesce(t["o_orderstatus"], pa.scalar("closed"))
        return t.filter(pc.is_in(status, value_set=allowed))

    return _read(sf_dir, "orders").map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# F5/D1 — union (OR) source filter (reference s2processor.py:135-150:
# any(externalids[f] is not None for f in selected)).
# ---------------------------------------------------------------------------
def q04_source_filter_union(sf_dir: str) -> rd.Dataset:
    def f(t: pa.Table) -> pa.Table:
        mask = pc.or_(
            pc.equal(t["lang"], pa.scalar("en")),
            pc.is_in(t["source"], value_set=pa.array(["src1", "src2", "src3"])),
        )
        return t.filter(mask)

    return _read(sf_dir, "documents").map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# J1 — semi-join via hash join (reference s2processor.py:55-68,173-174:
# corpusid membership built from papers pass, applied to metadata pass).
# Both sides large -> Ray hash join (left_semi), shuffle key l_orderkey.
# ---------------------------------------------------------------------------
def q05_semi_join(sf_dir: str) -> rd.Dataset:
    keys = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], pa.scalar(400000.0))).select(
            ["o_orderkey"]
        ),
        batch_format="pyarrow",
    ).materialize()
    li = _read(sf_dir, "lineitem")
    n_keys = keys.count()
    if n_keys > BROADCAST_KEY_LIMIT:
        if n_keys <= BLOOM_JOIN_LIMIT:
            # bloom tier: prune the fact side BEFORE the exchange,
            # then the exact semi-join decides (false positives die
            # there) — only ~selectivity + 0.8% of rows shuffle
            li = _bloom_semi_filter(li, keys, "l_orderkey", "o_orderkey", n_keys)
        return li.join(
            keys, join_type="left_semi", num_partitions=_NPART,
            on=("l_orderkey",), right_on=("o_orderkey",), **JOIN_ARGS,
        )
    # the filtered key set is small -> broadcast semi-filter (zero
    # shuffles); the hash left_semi above is the 100 TB form (forced
    # and oracle-checked in tests via BROADCAST_KEY_LIMIT=0)
    key_arr = pa.array(np.sort(keys.to_pandas()["o_orderkey"].to_numpy()), pa.int64())
    ref = ray.put(key_arr)
    return li.map_batches(
        lambda t: t.filter(pc.is_in(t["l_orderkey"], value_set=bget(ref))),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Bloom semi-join prefilter (the classic distributed bloom join):
# between the exact-broadcast regime (key set ships verbatim) and the
# plain hash-join regime (every fact row shuffles) there is a wide
# band where a 10-bit/key bloom of the key set still broadcasts
# cheaply (32M keys = 40 MB vs 256 MB of raw int64) and drops most
# non-matching fact rows BEFORE the join's all-to-all exchange —
# correctness is unaffected because the exact hash semi-join still
# runs on the survivors; the bloom only prunes shuffle volume.
# Build is distributed: per-block bitmask partials OR-fold on the
# driver streaming (one mask resident, not n_blocks).
# ---------------------------------------------------------------------------
BLOOM_JOIN_LIMIT = 32_000_000
_BLOOM_BITS_PER_KEY = 10
_BLOOM_K = 4


def _bloom_probes(vals: np.ndarray, m: int):
    """k double-hashed probe indices per value (uint64 wrap ok)."""
    from ..state.hll import splitmix64

    v = vals.astype(np.uint64)
    h1 = splitmix64(v)
    h2 = splitmix64(v ^ np.uint64(0xA076_1D64_78BD_642F)) | np.uint64(1)
    with np.errstate(over="ignore"):
        return [
            ((h1 + np.uint64(i) * h2) % np.uint64(m)).astype(np.int64)
            for i in range(_BLOOM_K)
        ]


def _bloom_partial(vals: np.ndarray, m: int) -> np.ndarray:
    mask = np.zeros((m + 7) // 8, np.uint8)
    for idx in _bloom_probes(vals, m):
        np.bitwise_or.at(mask, idx >> 3, np.uint8(1) << (idx & 7).astype(np.uint8))
    return mask


def _bloom_contains(mask: np.ndarray, m: int, vals: np.ndarray) -> np.ndarray:
    ok = np.ones(len(vals), bool)
    for idx in _bloom_probes(vals, m):
        ok &= (mask[idx >> 3] & (np.uint8(1) << (idx & 7).astype(np.uint8))) != 0
    return ok


def _bloom_build(keys_ds: rd.Dataset, col: str, n_keys: int) -> tuple[np.ndarray, int]:
    m = max(1024, n_keys * _BLOOM_BITS_PER_KEY)

    def partial(t: pa.Table) -> pa.Table:
        mask = _bloom_partial(t[col].to_numpy(zero_copy_only=False), m)
        return pa.table({"mask": pa.array([mask.tobytes()], pa.binary())})

    agg = np.zeros((m + 7) // 8, np.uint8)
    for b in keys_ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for mb in b["mask"]:
            agg |= np.frombuffer(mb.as_py(), np.uint8)
    return agg, m


def _bloom_semi_filter(
    fact: rd.Dataset, keys_ds: rd.Dataset, fact_col: str, key_col: str, n_keys: int
) -> rd.Dataset:
    """Fact rows surviving the broadcast bloom of the key set (may
    contain ~0.8% false positives at 10 bits/key — callers MUST still
    run the exact join on the survivors)."""
    mask, m = _bloom_build(keys_ds, key_col, n_keys)
    mref = ray.put(mask)

    def keep(t: pa.Table) -> pa.Table:
        ok = _bloom_contains(
            bget(mref), m, t[fact_col].to_numpy(zero_copy_only=False)
        )
        return t.filter(pa.array(ok))

    return fact.map_batches(keep, batch_format="pyarrow")


# Above this many distinct keys, broadcast side-tables become hash
# joins: 2M int64 keys ~= 16-32 MB on the driver / object store (safe
# to ship once per node); beyond that a driver-built lookup is the
# scale anti-pattern VERDICT r01 #3 flagged (the key set grows
# linearly with sf).  Mirrors dedup.BROADCAST_PAIR_LIMIT.
BROADCAST_KEY_LIMIT = 2_000_000


def _distinct_keys(ds: rd.Dataset, col: str) -> rd.Dataset:
    """Distributed distinct of one key column: per-batch local dedupe
    (only distinct values cross the shuffle) + hash aggregate."""
    return (
        ds.map_batches(
            lambda t: t.select([col]).group_by([col]).aggregate([]),
            batch_format="pyarrow",
        )
        .groupby(col)
        .aggregate(Count(alias_name="_n"))
        .map_batches(lambda t: t.select([col]), batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# J2 — semi-join against a DISTINCT key set built from another table
# (reference s2processor.py:79-94: authors kept if their id appears in
# any paper's exploded author list). ADAPTIVE: key sets bounded by
# BROADCAST_KEY_LIMIT are broadcast (ray.put once, vectorized isin per
# batch — no shuffle); larger sets use a hash left_semi join.
# ---------------------------------------------------------------------------
def q06_exploded_semi_join(sf_dir: str) -> rd.Dataset:
    keys = _distinct_keys(_read(sf_dir, "orders", ["o_custkey"]), "o_custkey").materialize()
    cust = _read(sf_dir, "customer")

    if keys.count() > BROADCAST_KEY_LIMIT:
        return cust.join(
            keys, join_type="left_semi", num_partitions=_NPART,
            on=("c_custkey",), right_on=("o_custkey",), **JOIN_ARGS,
        )

    key_arr = pa.array(
        np.sort(keys.to_pandas()["o_custkey"].to_numpy()), pa.int64()
    )
    ref = ray.put(key_arr)

    def semi_filter(t: pa.Table) -> pa.Table:
        # broadcast key set: fetched once per worker process (bget),
        # no actor-pool CPU reservation
        return t.filter(pc.is_in(t["c_custkey"], value_set=bget(ref)))

    return cust.map_batches(semi_filter, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# J3 — full-outer merge with left-side ("papers") priority on column
# collision (reference s2processor.py:108-118: dict.update over
# (metadata, papers) so papers' fields win; rows from either side
# survive). Shuffle key: the join id.
# ---------------------------------------------------------------------------
def q07_outer_merge(sf_dir: str) -> rd.Dataset:
    left = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderstatus"]).map_batches(
        lambda t: t.filter(pc.not_equal(pc.bit_wise_and(t["o_orderkey"], pa.scalar(3)), pa.scalar(0)))
        .rename_columns(["o_orderkey", "val", "o_orderstatus"]),
        batch_format="pyarrow",
    ).materialize()
    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "qty_c": _fixed(t["l_quantity"], 100),
                "ext_c": _fixed(t["l_extendedprice"], 100),
            }
        )

    right = _grouped_sum_parts(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity", "l_extendedprice"]).map_batches(
            cents, batch_format="pyarrow"
        ),
        "l_orderkey",
        {"qty_c": "qty_c", "ext_c": "ext_c"},  # int64 sums: order-exact
    ).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "sum_qty": _unscale(t["qty_c"], 100),
                "val": _unscale(t["ext_c"], 100),
            }
        ),
        batch_format="pyarrow",
    )

    if left.count() > BROADCAST_KEY_LIMIT:
        # both-sides-large form: hash full_outer (the 100 TB path)
        joined = left.join(
            right, join_type="full_outer", num_partitions=_NPART,
            on=("o_orderkey",), right_on=("l_orderkey",),
            left_suffix="_l", right_suffix="_r", **JOIN_ARGS,
        )

        def coalesce_cols(t: pa.Table) -> pa.Table:
            # rows may come from either side; left ("papers") value wins
            # on the collision column, mirroring dict.update order in
            # the ref.  Ray's full_outer join already coalesces the key
            # pair into the left key's name.
            orderkey = t["o_orderkey"]
            val = pc.coalesce(t["val_l"], t["val_r"])
            return pa.table(
                {
                    "orderkey": orderkey,
                    "val": val,
                    "o_orderstatus": t["o_orderstatus"],
                    "sum_qty": t["sum_qty"],
                }
            )

        return joined.map_batches(coalesce_cols, batch_format="pyarrow")

    # ADAPTIVE broadcast outer-merge (left is dimension-bounded; the
    # hash join's ~4s aggregator startup dominated this query at test
    # scale): broadcast the left rows, stream the aggregated right
    # through a lookup that applies left-wins coalescing, then append
    # the left-only rows (left keys minus the right's key column —
    # both bounded) as one extra block.
    lpdf = left.to_pandas().sort_values("o_orderkey")
    lref = ray.put(
        (
            lpdf["o_orderkey"].to_numpy(np.int64),
            lpdf["val"].to_numpy(np.float64),
            lpdf["o_orderstatus"].to_numpy(dtype=object),
        )
    )
    right = right.materialize()

    def merge_right(t: pa.Table) -> pa.Table:
        # sorted-keys + searchsorted lookup (the q21 broadcast shape —
        # review r04: the previous per-row dict .get loop cost seconds
        # per task at the 2M-key broadcast ceiling)
        lk, lv, ls = bget(lref)
        keys = t["l_orderkey"].to_numpy(zero_copy_only=False)
        if lk.size:
            idx = np.clip(np.searchsorted(lk, keys), 0, lk.size - 1)
            hit = lk[idx] == keys
            val_l = pa.array(lv[idx], pa.float64(), mask=~hit)
            stat = pa.array(np.where(hit, ls[idx], None), pa.string())
        else:
            val_l = pa.nulls(len(keys), pa.float64())
            stat = pa.nulls(len(keys), pa.string())
        return pa.table(
            {
                "orderkey": t["l_orderkey"],
                "val": pc.coalesce(val_l, t["val"]),  # left wins
                "o_orderstatus": stat,
                "sum_qty": t["sum_qty"],
            }
        )

    merged = right.map_batches(merge_right, batch_format="pyarrow")
    # left-only rows WITHOUT collecting the fact-side key column: each
    # block emits only its keys that hit the (bounded) broadcast left
    # key set — the right was key-grouped above, so every key appears
    # in exactly one block and the driver pull is <= |left| rows total
    # (the old form pulled ALL distinct right keys to the driver:
    # O(distinct orderkeys), unbounded at scale).
    lkeys_ref = ray.put(pa.array(lpdf["o_orderkey"].to_numpy(np.int64), pa.int64()))

    def matched_keys(t: pa.Table) -> pa.Table:
        hit = pc.is_in(t["l_orderkey"], value_set=bget(lkeys_ref))
        return pa.table({"o_orderkey": t["l_orderkey"].filter(hit)})

    hit_keys = (
        right.map_batches(matched_keys, batch_format="pyarrow")
        .to_pandas()["o_orderkey"]
    )
    left_only = lpdf[~lpdf["o_orderkey"].isin(hit_keys)]
    extra = pa.table(
        {
            "orderkey": pa.array(left_only["o_orderkey"], pa.int64()),
            "val": pa.array(left_only["val"], pa.float64()),
            "o_orderstatus": pa.array(left_only["o_orderstatus"], pa.string()),
            "sum_qty": pa.array([None] * len(left_only), pa.float64()),
        }
    )
    return merged.union(rd.from_arrow(extra))


# ---------------------------------------------------------------------------
# O2/O4 — global top-k (reference: release sort desc + first,
# s2client.py:159-173, dblpclient.py:397). sort is a range-partition
# shuffle; limit(k) prunes early.
# ---------------------------------------------------------------------------
def q09_topk(sf_dir: str) -> "pa.Table":
    """Global top-k as per-block partial top-k + a tiny driver merge
    (the q15 ANN shape) instead of a full range-partition sort that
    orders ALL rows to keep 10: only n_blocks x k rows ever leave the
    workers.  Ties break deterministically by (price desc, orderkey
    asc) on both the partial and final selections."""
    k = 10

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        idx = _pc.sort_indices(
            t, sort_keys=[("o_totalprice", "descending"), ("o_orderkey", "ascending")]
        )[:k]
        return t.take(idx)

    parts = (
        _read(sf_dir, "orders")
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    out = parts.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort"
    ).head(k)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


# ---------------------------------------------------------------------------
# D2/D3 — exact dedup by content hash (reference: md5-keyed download
# cache dblpclient.py:442-443; defaultdict key-merge s2processor.py:114).
# Hash inside map_batches (vectorized pass), then a groupby over the
# hash — only (hash, min_id, count) partials cross the shuffle.
# ---------------------------------------------------------------------------
def q10_dedup_exact(sf_dir: str) -> rd.Dataset:
    def add_hash(t: pa.Table) -> pa.Table:
        h = pa.array(
            [hashlib.md5(s.encode("utf-8")).hexdigest() for s in t["text"].to_pylist()],
            pa.string(),
        )
        return pa.table({"h": h, "doc_id": t["doc_id"]})

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(add_hash, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_dupes"))
    )


# ---------------------------------------------------------------------------
# D4 — denylist anti-filter (reference IGNORE_DBLP_KEYS, types.py:91):
# broadcast denylist, vectorized NOT IN.
# ---------------------------------------------------------------------------
DENYLIST = ["src0", "src13", "src7"]


def q11_anti_join_denylist(sf_dir: str) -> rd.Dataset:
    deny = pa.array(DENYLIST)
    return _read(sf_dir, "documents").map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(t["source"], value_set=deny))),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Windowed aggregate (new surface; SURVEY.md §2.9 — the reference has no
# streaming, so windows are expressed as keyed tumbling buckets:
# groupby (key, floor(ts/width))). The bucket column is computed
# vectorized; the groupby pre-combines per block before the shuffle.
# ---------------------------------------------------------------------------
def q12_window_agg(sf_dir: str) -> rd.Dataset:
    def bucket(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.timestamp("us")).cast(pa.int64())  # epoch microseconds
        # numpy floor division — the oracle's floor(epoch/3600) FLOORS
        # while pc.divide truncates toward zero (diverges pre-1970)
        hour = pa.array(
            np.floor_divide(
                us.to_numpy(zero_copy_only=False), 3_600_000_000
            ),
            pa.int64(),
        )
        return pa.table(
            {"user_id": t["user_id"], "hour_bucket": hour, "v_m": _fixed(t["value"], 1000)}
        )

    return (
        _read(sf_dir, "events", ["ts", "user_id", "value"])
        .map_batches(bucket, batch_format="pyarrow")
        .groupby(["user_id", "hour_bucket"])
        .aggregate(Count(alias_name="n_events"), Sum("v_m", alias_name="v_m"))
        .map_batches(
            lambda t: pa.table(
                {
                    "user_id": t["user_id"],
                    "hour_bucket": t["hour_bucket"],
                    "n_events": t["n_events"],
                    "sum_value": _unscale(t["v_m"], 1000),
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# Multi-join rollup (J3 generalized): fact ⋈ dimension hash join +
# broadcast tiny dimension, then keyed aggregate. The shape of the
# reference's papers ⟗ metadata ⟗ authors chain (s2processor.py:96-118)
# over star-schema tables.
# ---------------------------------------------------------------------------
def q21_revenue_by_nation(sf_dir: str) -> rd.Dataset:
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    nation = {
        r["n_nationkey"]: r["n_name"]
        for r in _read(sf_dir, "nation").take_all()  # 25 rows — broadcast
    }
    # None sentinel for nationkey holes (review r04: `.get(i, "")`
    # silently aggregated revenue under n_name='' on BOTH paths)
    names = np.array(
        [nation.get(i) for i in range(max(nation) + 1)], dtype=object
    )

    cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).materialize()
    if cust_ds.count() <= BROADCAST_KEY_LIMIT:
        # ADAPTIVE broadcast path (VERDICT r01 #9): the customer
        # dimension is two int columns — ship (sorted keys, nationkey)
        # once and resolve orders' custkey with a vectorized
        # searchsorted instead of paying the hash-shuffle join's
        # ~3-4s aggregator startup per query.  customer is an FK
        # target of orders, so every custkey resolves.
        cpdf = cust_ds.to_pandas().sort_values("c_custkey")
        ckeys = cpdf["c_custkey"].to_numpy()
        cnat = cpdf["c_nationkey"].to_numpy()
        ref = ray.put((ckeys, cnat, names))

        def add_nation_bc(t: pa.Table) -> pa.Table:
            keys, nat, nm = bget(ref)
            ok = t["o_custkey"].to_numpy(zero_copy_only=False)
            idx = np.clip(np.searchsorted(keys, ok), 0, len(keys) - 1)
            # FK guard (ADVICE r02): a custkey absent from customer
            # must fail loudly, not silently pick a neighboring
            # customer's nation
            if not np.array_equal(keys[idx], ok):
                raise KeyError(
                    "q21: o_custkey not found in customer dimension "
                    "(broken FK) — refusing to mis-attribute revenue"
                )
            nk = nat[idx]
            nmv = _dim_lookup(nm, nk, "q21: c_nationkey not found in nation")
            return pa.table(
                {
                    "tp_c": _fixed(t["o_totalprice"], 100),
                    "n_name": pa.array(nmv, pa.string()),
                }
            )

        joined = orders.map_batches(add_nation_bc, batch_format="pyarrow")
    else:
        cust_joined = orders.join(
            cust_ds, join_type="inner", num_partitions=_NPART,
            on=("o_custkey",), right_on=("c_custkey",), **JOIN_ARGS,
        )
        ref = ray.put(names)

        def add_nation(t: pa.Table) -> pa.Table:
            # broadcast dimension lookup, per-process cached — no pool.
            # NOTE the custkey FK asymmetry across the adaptive switch:
            # this inner join silently DROPS orders whose custkey is
            # missing from customer, while the broadcast path raises;
            # nationkey holes raise loudly on both paths (sentinel).
            nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
            nmv = _dim_lookup(bget(ref), nk, "q21: c_nationkey not found in nation")
            return pa.table(
                {
                    "tp_c": _fixed(t["o_totalprice"], 100),
                    "n_name": pa.array(nmv, pa.string()),
                }
            )

        joined = cust_joined.map_batches(add_nation, batch_format="pyarrow")

    return (
        joined.groupby("n_name")
        .aggregate(Sum("tp_c", alias_name="tp_c"), Count(alias_name="n_orders"))
        .map_batches(
            lambda t: pa.table(
                {
                    "n_name": t["n_name"],
                    "revenue": _unscale(t["tp_c"], 100),
                    "n_orders": t["n_orders"],
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# O1 — deterministic global ordering with missing-keys-first + rank
# (reference s2processor.py:103-106: sorted(key=("corpusid" in x,
# x.get("corpusid"))) — rows lacking the key sort first). The rank
# column is assigned by block-offset prefix sums over the sorted
# dataset (same mechanism as the crawl's fetch_seq), so the ordering
# is *data*, verifiable by an order-insensitive hash.
# ---------------------------------------------------------------------------
def q08_sort_rank(sf_dir: str) -> rd.Dataset:
    import ray.data as _rd

    cust = _read(sf_dir, "customer", ["c_custkey"])
    # per-customer totals are bounded by the customer dimension, but
    # that dimension grows linearly with sf (VERDICT r01 #3) ->
    # ADAPTIVE: broadcast the totals below BROADCAST_KEY_LIMIT (saves
    # ~4s of join-aggregator startup, measured), hash left_outer join
    # above it.
    agg = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(
            lambda t: pa.table(
                {"o_custkey": t["o_custkey"], "tp_c": _fixed(t["o_totalprice"], 100)}
            ),
            batch_format="pyarrow",
        )
        .groupby("o_custkey")
        .aggregate(Sum("tp_c", alias_name="tp_c"))
        .map_batches(
            lambda t: pa.table(
                {"o_custkey": t["o_custkey"], "total": _unscale(t["tp_c"], 100)}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    if agg.count() > BROADCAST_KEY_LIMIT:
        keyed = cust.join(
            agg, join_type="left_outer", num_partitions=_NPART,
            on=("c_custkey",), right_on=("o_custkey",), **JOIN_ARGS,
        )

        def sort_keys_joined(t: pa.Table) -> pa.Table:
            total = t["total"].combine_chunks()
            has = pc.is_valid(total).cast(pa.int32())
            filled = pc.coalesce(total, pa.scalar(-1.0))
            return pa.table(
                {"c_custkey": t["c_custkey"], "total": total,
                 "has_total": has, "total_filled": filled}
            )

        s = keyed.map_batches(sort_keys_joined, batch_format="pyarrow").sort(
            ["has_total", "total_filled", "c_custkey"]
        )
        return _rank_sorted(s)

    pdf = agg.to_pandas().sort_values("o_custkey")
    # sorted-keys + searchsorted (the q07/q21/q43 pattern), not a dict:
    # a per-row .get loop over to_pylist cost seconds per task near the
    # 2M-key broadcast ceiling
    ref = ray.put(
        (pdf["o_custkey"].to_numpy(np.int64), pdf["total"].to_numpy(np.float64))
    )

    def sort_keys(t: pa.Table) -> pa.Table:
        keys, vals = bget(ref)
        ck = t["c_custkey"].to_numpy(zero_copy_only=False)
        if len(keys):
            idx = np.clip(np.searchsorted(keys, ck), 0, len(keys) - 1)
            totals = np.where(keys[idx] == ck, vals[idx], np.nan)
        else:
            totals = np.full(len(ck), np.nan)
        total = pa.array(totals, pa.float64(), from_pandas=True)  # NaN -> null
        has = pc.is_valid(total).cast(pa.int32())
        filled = pc.coalesce(total, pa.scalar(-1.0))
        return (
            t.append_column("total", total)
            .append_column("has_total", has)
            .append_column("total_filled", filled)
        )

    s = cust.map_batches(sort_keys, batch_format="pyarrow").sort(
        ["has_total", "total_filled", "c_custkey"]
    )
    return _rank_sorted(s)


def _rank_sorted(s: rd.Dataset) -> rd.Dataset:
    # block-offset rank assignment (sorted block order == global
    # order) — shared mechanism in functions/ranking.py
    from ..functions.ranking import rank_sorted

    return rank_sorted(
        s, {"c_custkey": pa.int64(), "total": pa.float64()}, "rnk"
    )


# ---------------------------------------------------------------------------
# F8/F9 — projection + rename (reference s2processor.py:188-196:
# author["s2url"] = author.pop("url")).
# ---------------------------------------------------------------------------
def q24_projection_rename(sf_dir: str) -> rd.Dataset:
    return (
        _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
        .map_batches(
            lambda t: pa.table(
                {
                    "id": t["c_custkey"],
                    "name": t["c_name"],
                    "balance": pc.round(t["c_acctbal"], ndigits=2),
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# A1 — exact distinct (reference set()-collection, s2processor.py:55).
# ---------------------------------------------------------------------------
def q25_distinct(sf_dir: str) -> "pa.Table":
    vals = _read(sf_dir, "customer", ["c_mktsegment"]).unique("c_mktsegment")
    return pa.table({"c_mktsegment": pa.array(sorted(vals), pa.string())})


# ---------------------------------------------------------------------------
# A3 — multi-aggregate stats per key (reference counters/metrics
# surface, s2client.py:127-142).
# ---------------------------------------------------------------------------
def q26_agg_stats(sf_dir: str) -> rd.Dataset:
    # min/max are order-independent already; avg goes through the
    # exact scaled-int sum + integer half-away rounding at 1e-6
    return (
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(
            lambda t: pa.table(
                {
                    "event_type": t["event_type"],
                    "value": t["value"],
                    "v_c": _fixed(t["value"], 100),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Min("value", alias_name="min_value"),
            Max("value", alias_name="max_value"),
            Sum("v_c", alias_name="v_c"),
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "event_type": t["event_type"],
                    "n": t["n"],
                    "min_value": pc.round(t["min_value"], ndigits=6),
                    "max_value": pc.round(t["max_value"], ndigits=6),
                    # avg in 1e-6 units = v_cents*10000/n, half-away
                    "avg_value": _unscale(
                        pc.divide(
                            pc.add(
                                pc.multiply(t["v_c"].combine_chunks(), pa.scalar(20000, pa.int64())),
                                t["n"].cast(pa.int64()).combine_chunks(),
                            ),
                            pc.multiply(t["n"].cast(pa.int64()).combine_chunks(), pa.scalar(2, pa.int64())),
                        ),
                        1_000_000,
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# C1/C2 — string scalar functions (reference split/partition/
# endswith family, SURVEY.md §2.8) as vectorized Arrow kernels.
# ---------------------------------------------------------------------------
def q27_string_funcs(sf_dir: str) -> rd.Dataset:
    def f(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "src_upper": pc.utf8_upper(t["source"]),
                "src_num": pc.utf8_replace_slice(t["source"], 0, 3, ""),  # strip "src"
                "is_src1x": pc.starts_with(t["source"], "src1"),
                "n_chars": pc.utf8_length(t["text"]).cast(pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "source", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Sessionization — keyed gap-based windows over the event log
# (streaming-shaped op per the build contract; ordering assumption:
# per-user event-time sort inside the group, ties on equal ts are
# gap-0 so session counts are tie-order-invariant).
# ---------------------------------------------------------------------------
SESSION_GAP_SEC = 1800


def _add_key_part(b, key: str, n_parts: int = _N_AGG_PARTS):
    """Coarse co-location column: all rows of a key land in one of
    n_parts groups, so keyed per-group logic runs as ~n_parts
    vectorized partition UDFs instead of one UDF per key (the
    per-group map_groups overhead measured in round 1)."""
    h = b[key].to_numpy().astype(np.uint64)
    with np.errstate(over="ignore"):
        h = h * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(33)
    return b.assign(_part=(h % np.uint64(n_parts)).astype(np.int32))


def q28_sessionize(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    def per_part(g: "pd.DataFrame") -> "pd.DataFrame":
        # vectorized over the whole partition: sort by (user, ts),
        # gaps via diff with user-boundary masking — exact microsecond
        # compare (matches the SQL oracle's epoch_us arithmetic;
        # float/floor truncation would disagree near the threshold)
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        gaps_us = np.diff(ts).astype("timedelta64[us]").astype(np.int64)
        same_user = uid[1:] == uid[:-1]
        new_session = np.concatenate(
            [[True], (~same_user) | (gaps_us > SESSION_GAP_SEC * 1_000_000)]
        )
        out = pd.DataFrame({"user_id": uid, "_new": new_session.astype(np.int64)})
        agg = out.groupby("user_id", as_index=False).agg(
            n_sessions=("_new", "sum"), n_events=("_new", "size")
        )
        return agg.astype({"n_sessions": "int64", "n_events": "int64"})

    return (
        _read(sf_dir, "events", ["user_id", "ts"])
        .map_batches(lambda b: _add_key_part(b, "user_id"), batch_format="pandas")
        .groupby("_part")
        .map_groups(per_part, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# As-of lookup — for each event, the most recent prior 'signup' of the
# same user (merge_asof semantics inside keyed groups; SURVEY.md §2
# custom-operator guidance (a): composition of groupby + sorted
# per-group pandas). Partitioning assumption: one user's events fit a
# group.
# ---------------------------------------------------------------------------
def q29_asof_last_signup(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    def per_part(g: "pd.DataFrame") -> "pd.DataFrame":
        # vectorized over the whole partition: sort by (user, ts,
        # signup-first, event_id) — signups sort BEFORE other events
        # within an equal ts because the oracle's semantics are
        # s.ts <= e.ts (a tied event must see the tied signup), then
        # groupby(user).ffill of the masked signup timestamps ==
        # "most recent prior signup" (datetime cummax would propagate
        # NaT, not carry the max — pandas wart).
        is_not_signup = (g["event_type"] != "signup").astype("int8")
        g = g.assign(_ns=is_not_signup).sort_values(
            ["user_id", "ts", "_ns", "event_id"], kind="mergesort"
        )
        masked = g["ts"].where(g["event_type"] == "signup")
        last = masked.groupby(g["user_id"], sort=False).ffill()
        return pd.DataFrame({"event_id": g["event_id"], "last_signup": last})

    return (
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
        .map_batches(lambda b: _add_key_part(b, "user_id"), batch_format="pandas")
        .groupby("_part")
        .map_groups(per_part, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Hopping (sliding) window — each event belongs to exactly two 1-hour
# windows that start on 30-minute hops (streaming-shaped surface
# beside q12's tumbling windows; SURVEY.md §2.9): explode each row to
# its windows inside map_batches, then one keyed aggregate.
# ---------------------------------------------------------------------------
HOP_SEC, WINDOW_SEC = 1800, 3600


def q42_hopping_window(sf_dir: str) -> rd.Dataset:
    def explode(t: pa.Table) -> pa.Table:
        # numpy floor division, NOT pc.divide (truncates toward zero;
        # the DuckDB oracle's // floors — diverges pre-1970, see q78)
        ts_us = (
            t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        s1_np = np.floor_divide(
            np.floor_divide(ts_us, 1_000_000), HOP_SEC
        ) * HOP_SEC
        s1 = pa.array(s1_np, pa.int64())
        s0 = pa.array(s1_np - HOP_SEC, pa.int64())
        v_m = _fixed(t["value"], 1000)
        return pa.concat_tables(
            [
                pa.table({"window_start": s0, "v_m": v_m}),
                pa.table({"window_start": s1, "v_m": v_m}),
            ]
        )

    return (
        _read(sf_dir, "events", ["ts", "value"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("window_start")
        .aggregate(Count(alias_name="n_events"), Sum("v_m", alias_name="v_m"))
        .map_batches(
            lambda t: pa.table(
                {
                    "window_start": t["window_start"],
                    "n_events": t["n_events"],
                    "sum_value": _unscale(t["v_m"], 1000),
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# Multi-hop dimension rollup: orders -> customer -> nation -> region
# (the q21 star-join shape extended one hop; the whole dimension chain
# composes into one custkey -> region-name lookup broadcast once).
# ---------------------------------------------------------------------------
def q43_revenue_by_region(sf_dir: str) -> rd.Dataset:
    nation = {
        r["n_nationkey"]: r["n_regionkey"] for r in _read(sf_dir, "nation").take_all()
    }
    region = {
        r["r_regionkey"]: r["r_name"] for r in _read(sf_dir, "region").take_all()
    }
    cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).materialize()
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    if cust_ds.count() <= BROADCAST_KEY_LIMIT:
        cpdf = cust_ds.to_pandas().sort_values("c_custkey")
        ckeys = cpdf["c_custkey"].to_numpy()
        rnames = np.array(
            [region[nation[nk]] for nk in cpdf["c_nationkey"]], dtype=object
        )
        ref = ray.put((ckeys, rnames))

        def add_region(t: pa.Table) -> pa.Table:
            keys, rn = bget(ref)
            ok = t["o_custkey"].to_numpy(zero_copy_only=False)
            idx = np.clip(np.searchsorted(keys, ok), 0, len(keys) - 1)
            if not np.array_equal(keys[idx], ok):  # FK guard (ADVICE r02)
                raise KeyError(
                    "q43: o_custkey not found in customer dimension "
                    "(broken FK) — refusing to mis-attribute revenue"
                )
            return pa.table(
                {
                    "tp_c": _fixed(t["o_totalprice"], 100),
                    "r_name": pa.array(rn[idx], pa.string()),
                }
            )

        tagged = orders.map_batches(add_region, batch_format="pyarrow")
    else:
        joined = orders.join(
            cust_ds, join_type="inner", num_partitions=_NPART,
            on=("o_custkey",), right_on=("c_custkey",), **JOIN_ARGS,
        )
        # dense object array + _dim_lookup (vectorized take with loud
        # negative/hole guards) — the dict form paid a Python lookup
        # per fact row and wrapped nothing, but shared none of the
        # broken-FK guarantees of the q21/q45 path
        names = np.full(max(nation) + 1, None, dtype=object)
        for nk, rk in nation.items():
            names[nk] = region[rk]
        ref = ray.put(names)

        def add_region_j(t: pa.Table) -> pa.Table:
            nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
            rn = _dim_lookup(bget(ref), nk, "q43: c_nationkey not found in nation")
            return pa.table(
                {
                    "tp_c": _fixed(t["o_totalprice"], 100),
                    "r_name": pa.array(rn, pa.string()),
                }
            )

        tagged = joined.map_batches(add_region_j, batch_format="pyarrow")

    return (
        tagged.groupby("r_name")
        .aggregate(Sum("tp_c", alias_name="tp_c"), Count(alias_name="n_orders"))
        .map_batches(
            lambda t: pa.table(
                {
                    "r_name": t["r_name"],
                    "revenue": _unscale(t["tp_c"], 100),
                    "n_orders": t["n_orders"],
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# Fact ⋈ mid-size dimension hash join kept AS a join deliberately
# (part is broadcastable at test scale, but q44 is the suite's
# canonical Dataset.join exercise now that q07/q21 adapt to broadcast
# below the key limit): lineitem ⋈ part, rolled up by p_type.
# ---------------------------------------------------------------------------
def q44_parts_rollup(sf_dir: str) -> rd.Dataset:
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]).map_batches(
        lambda t: pa.table(
            {
                "l_partkey": t["l_partkey"],
                "qty_c": _fixed(t["l_quantity"], 100),
                "ext_c": _fixed(t["l_extendedprice"], 100),
            }
        ),
        batch_format="pyarrow",
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    joined = li.join(
        part, join_type="inner", num_partitions=_NPART,
        on=("l_partkey",), right_on=("p_partkey",), **JOIN_ARGS,
    )
    return (
        joined.groupby("p_type")
        .aggregate(
            Sum("qty_c", alias_name="qty_c"),
            Sum("ext_c", alias_name="ext_c"),
            Count(alias_name="n_items"),
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "p_type": t["p_type"],
                    "sum_qty": _unscale(t["qty_c"], 100),
                    "revenue": _unscale(t["ext_c"], 100),
                    "n_items": t["n_items"],
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# Tiny-dimension broadcast rollup: lineitem tagged with its supplier
# name via a 10-row broadcast map — the smallest-side extreme of the
# dimension-join spectrum (q44 = hash join, q21/q43 = adaptive,
# q45 = always-broadcast).
# ---------------------------------------------------------------------------
def q45_supplier_volume(sf_dir: str) -> rd.Dataset:
    supp = {
        r["s_suppkey"]: r["s_name"] for r in _read(sf_dir, "supplier").take_all()
    }
    # None sentinel so a suppkey hole fails loudly instead of
    # aggregating revenue under s_name='' (review r04)
    names = np.array(
        [supp.get(i) for i in range(max(supp) + 1)], dtype=object
    )
    ref = ray.put(names)

    def tag(t: pa.Table) -> pa.Table:
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        # revenue in 1e-4 units: ext_cents * (100 - disc_cents)
        rev4 = pc.multiply(
            _fixed(t["l_extendedprice"], 100),
            pc.subtract(pa.scalar(100, pa.int64()), _fixed(t["l_discount"], 100)),
        )
        nmv = _dim_lookup(bget(ref), sk, "q45: l_suppkey not found in supplier")
        return pa.table({"s_name": pa.array(nmv, pa.string()), "rev4": rev4})

    return (
        _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])
        .map_batches(tag, batch_format="pyarrow")
        .groupby("s_name")
        .aggregate(Sum("rev4", alias_name="rev4"), Count(alias_name="n_items"))
        .map_batches(
            lambda t: pa.table(
                {
                    "s_name": t["s_name"],
                    "revenue": _unscale(
                        _div_round_half_up(t["rev4"].combine_chunks(), 100), 100
                    ),
                    "n_items": t["n_items"],
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# Set op: union (reference D1 union surface generalized to row union).
# ---------------------------------------------------------------------------
def q33_union(sf_dir: str) -> rd.Dataset:
    def bucketize(mask_fn, label):
        def f(t: pa.Table) -> pa.Table:
            kept = t.filter(mask_fn(t))
            return kept.append_column(
                "bucket", pa.array([label] * kept.num_rows, pa.string())
            )

        return f

    orders = lambda: _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])  # noqa: E731
    hi = orders().map_batches(
        bucketize(lambda t: pc.greater(t["o_totalprice"], pa.scalar(450000.0)), "high"),
        batch_format="pyarrow",
    )
    lo = orders().map_batches(
        bucketize(lambda t: pc.less(t["o_totalprice"], pa.scalar(2000.0)), "low"),
        batch_format="pyarrow",
    )
    return hi.union(lo)


# ---------------------------------------------------------------------------
# Grouped top-k (windowed rank per key): top-3 orders per customer.
# groupby(key).map_groups with a vectorized head — the keyed analog of
# the reference's per-release nth-newest pick (O2/O3) at table scale.
# ---------------------------------------------------------------------------
def q34_grouped_topk(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    def topk_part(g: "pd.DataFrame") -> "pd.DataFrame":
        # vectorized per-key top-3 over the whole partition: one sort,
        # groupby.head, groupby.cumcount — no per-key UDF
        g = g.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True], kind="mergesort",
        )
        out = g.groupby("o_custkey", sort=False).head(3).copy()
        out["rnk"] = out.groupby("o_custkey", sort=False).cumcount() + 1
        return out[["o_custkey", "o_orderkey", "o_totalprice", "rnk"]]

    # per-block local prune first: only each block's per-key top-3
    # survive to the shuffle (a safe prune: a global top-3 row is a
    # top-3 row of its block)
    def local_prune(b: "pd.DataFrame") -> "pd.DataFrame":
        b = b.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True], kind="mergesort",
        )
        return b.groupby("o_custkey", sort=False).head(3)

    return (
        _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
        .map_batches(local_prune, batch_format="pandas")
        .map_batches(lambda b: _add_key_part(b, "o_custkey"), batch_format="pandas")
        .groupby("_part")
        .map_groups(topk_part, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Exact distinct-count per key (A1 at aggregation granularity).
# Two-phase: per-batch (key, value) dedupe partials -> groupby count —
# only distinct pairs cross the shuffle.
# ---------------------------------------------------------------------------
def q35_count_distinct(sf_dir: str) -> pa.Table:
    import pandas as pd

    # exact distinct count, coarse-partitioned: block-local dedupe ->
    # 32-way hash partition on (flag, partkey) (a pair lands in exactly
    # one partition, so per-partition dedupe is global dedupe) ->
    # per-partition per-flag counts -> 3-group Sum.  The previous
    # groupby(flag, partkey).aggregate(Count) paid Ray's per-GROUP
    # overhead on ~20k distinct pairs (8.9 s at sf0.01 measured; the
    # same trap _grouped_sum_parts exists for) — this form is one
    # 32-group exchange of pre-deduped pairs (~0.9 s).
    def local_pairs(b: "pd.DataFrame") -> "pd.DataFrame":
        d = b.drop_duplicates(["l_returnflag", "l_partkey"])[
            ["l_returnflag", "l_partkey"]
        ]
        h = d["l_partkey"].to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            h = h * np.uint64(0x9E3779B97F4A7C15)
            # value-based flag hash: crc32 per UNIQUE flag, scattered
            # by inverse (review r04: the previous join-then-frombuffer
            # encoded assumed every flag is exactly one ASCII byte and
            # crashed with an opaque broadcast error otherwise; this is
            # a pure function of the value, so partition assignment
            # stays globally consistent across blocks)
            flags = d["l_returnflag"].to_numpy(dtype=object)
            uniq, inv = np.unique(flags, return_inverse=True)
            fh = np.fromiter(
                (zlib.crc32(str(u).encode("utf-8")) for u in uniq),
                dtype=np.uint64, count=len(uniq),
            )
            h ^= fh[inv] * np.uint64(0xBF58476D1CE4E5B9)
        d = d.copy()
        d["_part"] = (h % np.uint64(32)).astype(np.int32)
        return d

    def part_counts(g: "pd.DataFrame") -> "pd.DataFrame":
        d = g.drop_duplicates(["l_returnflag", "l_partkey"])
        c = d.groupby("l_returnflag", as_index=False).size()
        return c.rename(columns={"size": "n_part"})

    partials = (
        _read(sf_dir, "lineitem", ["l_returnflag", "l_partkey"])
        .map_batches(local_pairs, batch_format="pandas")
        .groupby("_part")
        .map_groups(part_counts, batch_format="pandas")
        .to_pandas()  # bounded: 32 partitions × n_flags rows
    )
    out = (
        partials.groupby("l_returnflag", as_index=False)["n_part"]
        .sum()
        .rename(columns={"n_part": "n_parts"})
    )
    return pa.table(
        {
            "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
            "n_parts": pa.array(out["n_parts"].astype("int64"), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Range (interval) join — for each 'signup' event, aggregate the same
# user's strictly-later events inside (signup_ts, signup_ts + 7 days)
# (a funnel/attribution window).  SURVEY.md §2 custom-operator
# guidance (a): Ray Data has no non-equi join, so this composes
# co-partitioning by the equality key with a vectorized banded search
# inside each partition.  Reference analog: the release-window
# month-skip pick (metadata.py:36-49) is a serial range predicate
# over one list; this is the same predicate as a distributed
# two-sided operator.
#
# Scale shape: one pruned read; each batch emits its event rows plus
# its signup rows re-tagged as anchors, then ONE coarse hash shuffle
# on the user key co-locates both sides (pre-projected int64 columns
# only — payloads never move).  Within a partition the match is one
# lexsort + two np.searchsorted calls on a composite (user-rank,
# timestamp) key plus prefix-sum differences: no row-pair
# materialization, so a hot user with k anchors and m events costs
# O((k+m) log(k+m)), not O(k*m).
# Partitioning assumption (documented per §2 guidance): one hash
# partition's distinct-user count * the dataset's time span in µs
# must fit in int64 — the guard raises with the fix (raise n_parts)
# instead of overflowing silently.
# ---------------------------------------------------------------------------
RANGE_JOIN_WINDOW_US = 7 * 86_400 * 1_000_000


def q52_range_join(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    def both_sides(t: pa.Table) -> pa.Table:
        ev = pa.table(
            {
                "user": t["user_id"],
                "ts_us": t["ts"].cast(pa.int64()),
                "v_c": _fixed(t["value"], 1000),
                "anchor_id": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
            }
        )
        s = t.filter(pc.equal(t["event_type"], pa.scalar("signup")))
        an = pa.table(
            {
                "user": s["user_id"],
                "ts_us": s["ts"].cast(pa.int64()),
                "v_c": pa.array(np.zeros(s.num_rows, dtype=np.int64)),
                "anchor_id": s["event_id"],
            }
        )
        return pa.concat_tables([ev, an])

    def per_part(g: "pd.DataFrame") -> "pd.DataFrame":
        od = g[g["anchor_id"] >= 0]
        if od.empty:
            return pd.DataFrame(
                {"event_id": pd.Series([], dtype="int64"),
                 "n_follow": pd.Series([], dtype="int64"),
                 "sv_c": pd.Series([], dtype="int64")}
            )
        ev = g[g["anchor_id"] < 0]
        eu = ev["user"].to_numpy()
        ets = ev["ts_us"].to_numpy()
        ev_order = np.lexsort((ets, eu))
        eu, ets = eu[ev_order], ets[ev_order]
        evc = ev["v_c"].to_numpy()[ev_order]

        ou = od["user"].to_numpy()
        ots = od["ts_us"].to_numpy()
        users = np.unique(np.concatenate([eu, ou]))
        t_lo = int(min(ets.min() if len(ets) else ots.min(), ots.min()))
        t_hi = int(max(ets.max() if len(ets) else ots.max(),
                       ots.max() + RANGE_JOIN_WINDOW_US))
        span = t_hi - t_lo + 2
        if len(users) * span >= 2**62:  # composite-key overflow guard
            raise ValueError(
                "q52_range_join: partition too wide for the composite "
                f"(users={len(users)}, span_us={span}) — raise the "
                "_add_key_part n_parts so fewer users share a partition"
            )
        # composite (user-rank, ts) preserves lexicographic order as a
        # single monotonic int64 per partition
        comp_ev = np.searchsorted(users, eu) * span + (ets - t_lo)
        rank_o = np.searchsorted(users, ou) * span
        # strictly-after anchor: side='right' at the anchor timestamp
        lo = np.searchsorted(comp_ev, rank_o + (ots - t_lo), side="right")
        hi = np.searchsorted(comp_ev, rank_o + (ots + RANGE_JOIN_WINDOW_US - t_lo))
        csum = np.concatenate([[0], np.cumsum(evc)])
        return pd.DataFrame(
            {
                "event_id": od["anchor_id"].to_numpy(),
                "n_follow": (hi - lo).astype(np.int64),
                "sv_c": (csum[hi] - csum[lo]).astype(np.int64),
            }
        )

    return (
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
        .map_batches(both_sides, batch_format="pyarrow")
        .map_batches(lambda b: _add_key_part(b, "user"), batch_format="pandas")
        .groupby("_part")
        .map_groups(per_part, batch_format="pandas")
        .map_batches(
            lambda t: pa.table(
                {
                    "event_id": t["event_id"],
                    "n_follow": t["n_follow"],
                    "sum_value": _unscale(t["sv_c"], 1000),
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# Rolling (trailing) window aggregate — per user, per day: that day's
# event count/value plus the trailing-7-day rolling sums.  §2.9
# windowing family beside tumbling (q12), hopping (q42), session
# (q28), as-of (q29).  Two-level: block-local (user, day) pre-combine
# (only daily partials cross the shuffle), then the same composite
# searchsorted + prefix-sum pattern as q52 inside each coarse
# partition — the window never materializes row pairs.
# ---------------------------------------------------------------------------
ROLL_WINDOW_DAYS = 7
_DAY_US = 86_400 * 1_000_000


def q53_rolling_window(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    def local(b: "pd.DataFrame") -> "pd.DataFrame":
        day = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // _DAY_US
        v_c = np.rint(b["value"].to_numpy() * 1000).astype(np.int64)
        d = pd.DataFrame({"user_id": b["user_id"], "day": day, "v_c": v_c})
        g = d.groupby(["user_id", "day"], as_index=False).agg(
            n=("v_c", "size"), v_c=("v_c", "sum")
        )
        return _add_key_part(g, "user_id")

    def per_part(g: "pd.DataFrame") -> "pd.DataFrame":
        # merge block partials, then trailing window over sorted days
        g = g.groupby(["user_id", "day"], as_index=False).agg(
            n=("n", "sum"), v_c=("v_c", "sum")
        ).sort_values(["user_id", "day"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        day = g["day"].to_numpy()
        users = np.unique(uid)
        d0 = int(day.min())
        big = int(day.max()) - d0 + 2
        rank = np.searchsorted(users, uid)
        off = day - d0
        comp = rank * big + off
        # window start clipped to the user's block start: day-6 may
        # precede the partition's min day
        lo = np.searchsorted(comp, rank * big + np.maximum(off - (ROLL_WINDOW_DAYS - 1), 0))
        hi = np.arange(1, len(g) + 1)
        cn = np.concatenate([[0], np.cumsum(g["n"].to_numpy())])
        cv = np.concatenate([[0], np.cumsum(g["v_c"].to_numpy())])
        return pd.DataFrame(
            {
                "user_id": uid,
                "day": day,
                "n_events": g["n"].to_numpy().astype(np.int64),
                "v_c": g["v_c"].to_numpy(),
                "roll_n_events": (cn[hi] - cn[lo]).astype(np.int64),
                "roll_v_c": (cv[hi] - cv[lo]).astype(np.int64),
            }
        )

    return (
        _read(sf_dir, "events", ["user_id", "ts", "value"])
        .map_batches(local, batch_format="pandas")
        .groupby("_part")
        .map_groups(per_part, batch_format="pandas")
        .map_batches(
            lambda t: pa.table(
                {
                    "user_id": t["user_id"],
                    "day": t["day"],
                    "n_events": t["n_events"],
                    "sum_value": _unscale(t["v_c"], 1000),
                    "roll_n_events": t["roll_n_events"],
                    "roll_sum_value": _unscale(t["roll_v_c"], 1000),
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# Approximate distinct-count per key via HyperLogLog (A4 sketch
# family beside bloom/cuckoo/MinHash/SimHash; q35 is the exact
# counterpart).  Scale shape: each block contributes one fixed-size
# 4 KiB register array per key — cardinality never crosses the
# shuffle, and the elementwise-max merge is associative/commutative
# so Ray's block order cannot change a single register.  The oracle
# is a sequential pure-Python-int re-derivation (state/hll.py
# registers_seq via oracle_artifacts 'hll_seq'); estimates AND
# register md5s must both hash-match, so the check is bit-exact.
# ---------------------------------------------------------------------------
def q54_hll_distinct(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    from ..state import hll

    def local(b: "pd.DataFrame") -> "pd.DataFrame":
        rows = []
        for flag, g in b.groupby("l_returnflag"):  # <=3 flags per batch
            rows.append(
                {
                    "l_returnflag": flag,
                    "reg": hll.registers(g["l_partkey"].to_numpy()).tobytes(),
                }
            )
        return pd.DataFrame(rows)

    def final(g: "pd.DataFrame") -> "pd.DataFrame":
        regs = np.stack([np.frombuffer(r, np.uint8) for r in g["reg"]])
        reg = regs.max(axis=0)
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "approx_n_parts": np.array([hll.estimate(reg)], np.int64),
                "registers_md5": [hashlib.md5(reg.tobytes()).hexdigest()],
            }
        )

    return (
        _read(sf_dir, "lineitem", ["l_returnflag", "l_partkey"])
        .map_batches(local, batch_format="pandas")
        .groupby("l_returnflag")
        .map_groups(final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# q97 — KMV (bottom-k minimum values) distinct-count sketch: per event
# type, the k smallest DISTINCT 64-bit hashes of user_id estimate
# distinct users as (k−1)·2^64 / h_(k) (Bar-Yossef et al.; the classic
# mergeable alternative to q54's HLL).  Unlike HLL the sketch is a
# SET of hashes, so the whole pipeline is order-independent,
# deterministic, and SQL-replayable bit-exactly: the hash is the
# Fibonacci multiply `user_id · 2^64/φ mod 2^64` (q50/q84's kernel,
# full-width here), the estimate exact integer division in Python
# big ints / HUGEINT.  Under k distinct values the sketch IS the set
# and the answer is exact (n_sketch < k ⇒ est = n_sketch).
#
# Scale shape: per-block bottom-k per type is a SAFE prune (the
# global bottom-k of a union is contained in the union of block
# bottom-ks); partials are n_blocks × types × k small ints folded on
# the driver — raw user ids never shuffle, no groupby anywhere.  If
# the merged distinct set still holds < k hashes, every block kept
# ALL its hashes (each had < k), so the merged set is the true
# distinct set and the exact branch is sound.
# ---------------------------------------------------------------------------
KMV_K = 64


def q97_kmv_distinct(sf_dir: str) -> "pa.Table":
    import pandas as pd

    from .mlprep import _FIB

    def local(b: "pd.DataFrame") -> "pd.DataFrame":
        k = b["user_id"].to_numpy(np.int64).astype(np.uint64)
        with np.errstate(over="ignore"):
            hv = k * _FIB  # full-width mod-2^64 Fibonacci hash
        rows = []
        for et, g in pd.DataFrame(
            {"event_type": b["event_type"].to_numpy(), "hv": hv}
        ).groupby("event_type", sort=False):
            u = np.unique(g["hv"].to_numpy())[:KMV_K]  # sorted distinct
            rows.append(pd.DataFrame({"event_type": et, "hv": u}))
        if not rows:  # empty block: typed empty frame, not a concat crash
            return pd.DataFrame(
                {"event_type": pd.Series([], dtype=object),
                 "hv": pd.Series([], dtype=np.uint64)}
            )
        return pd.concat(rows, ignore_index=True)

    parts = (
        _read(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(local, batch_format="pandas")
        .to_pandas()  # BOUNDED: n_blocks × types × k rows of one uint64
    )
    out_rows = []
    for et, g in parts.groupby("event_type"):
        u = np.unique(g["hv"].to_numpy())[:KMV_K]
        n_sk = len(u)
        if n_sk < KMV_K:
            est = n_sk  # sketch == true distinct set
        else:
            # h_(k) ~ k/n · 2^64 ⇒ est ~ n; a pathological hash floor
            # would overflow pa.int64 LOUDLY below (DuckDB's CAST
            # errors identically on its side)
            est = (KMV_K - 1) * (1 << 64) // int(u[-1])
        out_rows.append((str(et), int(n_sk), int(est)))
    out_rows.sort()
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in out_rows], pa.string()),
            "n_sketch": pa.array([r[1] for r in out_rows], pa.int64()),
            "est_distinct": pa.array([r[2] for r in out_rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# q99 — ROLLUP aggregate (warehouse subtotal/grand-total shape, SQL's
# GROUP BY ROLLUP): the q01 keyed aggregate extended with the
# (flag, NULL) subtotal rows and the (NULL, NULL) grand total, NULL
# markers exactly as DuckDB emits them.  All-integer sums (CLAUDE.md
# fixed-point rule), so deriving coarser levels by re-summing finer
# ones is exact.
#
# Scale shape: only the FINEST level ever sees data — per-block
# (flag, status) partials bounded at blocks × |flag×status| (a
# low-cardinality rollup key by definition); the subtotal and grand
# rows re-sum the finest level's <= |groups| rows on the driver.
# Zero extra passes, zero shuffles.
# ---------------------------------------------------------------------------
def q99_rollup_aggregate(sf_dir: str) -> "pa.Table":
    import pandas as pd

    def part(t: pa.Table) -> "pd.DataFrame":
        qty_c = _fixed(t["l_quantity"], 100).to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame(
                {
                    "l_returnflag": t["l_returnflag"].to_numpy(
                        zero_copy_only=False
                    ),
                    "l_linestatus": t["l_linestatus"].to_numpy(
                        zero_copy_only=False
                    ),
                    "sum_qty_c": qty_c,
                    "n_rows": np.ones(len(qty_c), np.int64),
                }
            )
            .groupby(
                ["l_returnflag", "l_linestatus"], sort=False,
                as_index=False, dropna=False,
            )
            .sum()
        )
        return g

    parts = (
        _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])
        .map_batches(part, batch_format="pyarrow")
        .to_pandas()  # BOUNDED: blocks × |flag×status| partial rows
    )
    cols = ["sum_qty_c", "n_rows"]
    # dropna=False everywhere: a NULL key is a REAL group to DuckDB's
    # ROLLUP (pandas' default silently drops the row from every level
    # including the grand total — r04 review)
    fine = parts.groupby(
        ["l_returnflag", "l_linestatus"], as_index=False, dropna=False
    )[cols].sum()
    sub = fine.groupby("l_returnflag", as_index=False, dropna=False)[cols].sum()
    sub["l_linestatus"] = None
    grand = pd.DataFrame(
        {
            "l_returnflag": [None],
            "l_linestatus": [None],
            "sum_qty_c": [fine["sum_qty_c"].sum()],
            "n_rows": [fine["n_rows"].sum()],
        }
    )
    out = pd.concat([fine, sub, grand], ignore_index=True)
    return pa.table(
        {
            "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(out["l_linestatus"], pa.string()),
            "sum_qty_c": pa.array(out["sum_qty_c"].to_numpy(np.int64), pa.int64()),
            "n_rows": pa.array(out["n_rows"].to_numpy(np.int64), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# q100 — table integrity checksum: an ORDER-INDEPENDENT content
# fingerprint per key bucket (the replication / migration / resume
# verification primitive — "did every row survive the copy" without
# moving the rows).  Row hash = Fibonacci multiply of a wrapped int64
# row encoding (orderkey, linenumber, quantity-cents); bucket
# checksum = Σ mod 2^64.  Every step is mod-2^64 wraparound on BOTH
# sides (numpy uint64 / HUGEINT % m), so the compare is bit-exact and
# any single changed/dropped/duplicated row flips its bucket.
#
# Scale shape: one stateless pass, per-block (bucket, n, sum) partials
# — 3 ints per bucket per block — driver-folded; nothing row-sized
# leaves the workers and addition commutes, so block order is free.
# ---------------------------------------------------------------------------
CHECKSUM_BUCKETS = 8


def q100_table_checksum(sf_dir: str) -> "pa.Table":
    import pandas as pd

    from .mlprep import _FIB

    def part(t: pa.Table) -> "pd.DataFrame":
        ok_i = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln_i = t["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        qc_i = _fixed(t["l_quantity"], 100).to_numpy(zero_copy_only=False)
        # the engine's uint64 cast wraps negatives mod 2^64, but the
        # SQL oracle's HUGEINT % m keeps the dividend's SIGN — any
        # negative key/quantity would silently diverge, so refuse
        # loudly instead (r04 ADVICE; TPC-H fixtures are non-negative)
        for name, arr in (
            ("l_orderkey", ok_i),
            ("l_linenumber", ln_i),
            ("l_quantity", qc_i),
        ):
            if len(arr) and int(arr.min()) < 0:
                raise ValueError(
                    f"q100 checksum requires non-negative {name}: uint64 "
                    "wrap diverges from the SQL oracle's signed % 2^64"
                )
        ok = ok_i.astype(np.uint64)
        ln = ln_i.astype(np.uint64)
        qc = qc_i.astype(np.uint64)
        with np.errstate(over="ignore"):
            enc = ok * np.uint64(1_000_003) + ln * np.uint64(7_919) + qc
            h = enc * _FIB
        bucket = (ok % np.uint64(CHECKSUM_BUCKETS)).astype(np.int64)
        g = pd.DataFrame({"bucket": bucket, "h": h, "one": np.ones(len(h), np.int64)})
        agg = g.groupby("bucket", as_index=False).agg(
            n_rows=("one", "sum"),
            # pandas uint64 sum wraps mod 2^64 like numpy — exactly
            # the modular sum the SQL mirrors with % m
            checksum_u=("h", "sum"),
        )
        return agg

    parts = (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
        .map_batches(part, batch_format="pyarrow")
        .to_pandas()  # BOUNDED: blocks × CHECKSUM_BUCKETS rows
    )
    parts["checksum_u"] = parts["checksum_u"].astype(np.uint64)
    agg = parts.groupby("bucket", as_index=False).agg(
        n_rows=("n_rows", "sum"), checksum_u=("checksum_u", "sum")
    )
    cs = agg["checksum_u"].astype(np.uint64).to_numpy()
    signed = cs.astype(np.int64)  # two's-complement view == SQL's v-2^64 fold
    return pa.table(
        {
            "bucket": pa.array(agg["bucket"].to_numpy(np.int64), pa.int64()),
            "n_rows": pa.array(agg["n_rows"].to_numpy(np.int64), pa.int64()),
            "checksum": pa.array(signed, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# q75 — sequence-pattern (CEP / funnel) detection over the event log:
# for every 'click', does a 'purchase' by the SAME user follow
# STRICTLY later within the horizon?  The MATCH_RECOGNIZE /
# funnel-analysis shape beside q28's gap sessions (SURVEY.md §2.9
# custom-operator guidance (a): groupby co-location + vectorized
# per-partition scan).  Conversion is defined by EXISTENCE (any later
# purchase within T), so the answer is independent of tie order among
# equal-ts purchases; the engine still fixes a deterministic sort.
#
# Scale shape: the stream is pre-filtered to the two event types
# inside the read pass (Arrow is_in — at 100 TB the funnel types are
# a small fraction of the log), then ONE hash exchange on user_id's
# coarse partition; per-partition work is a sort + masked bfill, no
# Python row loops.  Reference analog: the reference has no event
# semantics at all — this extends the windowed family the build
# contract asks for.
# ---------------------------------------------------------------------------
FUNNEL_START, FUNNEL_CONVERT = "click", "purchase"
FUNNEL_WITHIN_SEC = 3600


def q75_funnel_conversion(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    types = pa.array([FUNNEL_START, FUNNEL_CONVERT])

    def prefilter(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["event_type"], value_set=types))

    def per_part(g: "pd.DataFrame") -> "pd.DataFrame":
        # purchases sort BEFORE tied clicks (_bo=0) so an equal-ts
        # purchase is NOT picked up by the bfill — the oracle's
        # EXISTS is strict (b.ts > a.ts)
        is_b = g["event_type"] == FUNNEL_CONVERT
        g = g.assign(_bo=(~is_b).astype("int8")).sort_values(
            ["user_id", "ts", "_bo"], kind="mergesort"
        )
        is_b = (g["event_type"] == FUNNEL_CONVERT).to_numpy()
        # next purchase ts at-or-after each row, per user (q29's
        # masked-fill mechanism, reversed)
        nxt = (
            g["ts"].where(is_b).groupby(g["user_id"], sort=False).bfill()
        )
        is_a = (g["event_type"] == FUNNEL_START).to_numpy()
        ok = nxt.notna().to_numpy() & is_a
        conv = np.zeros(len(g), dtype=np.int64)
        if ok.any():
            # exact microsecond compare (float division near the
            # horizon boundary would flip rows; see q28)
            delta_us = (
                (nxt.to_numpy()[ok] - g["ts"].to_numpy()[ok])
                .astype("timedelta64[us]")
                .astype(np.int64)
            )
            hit = delta_us <= FUNNEL_WITHIN_SEC * 1_000_000
            conv[np.flatnonzero(ok)[hit]] = 1
        out = pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(),
                "_a": is_a.astype(np.int64),
                "_c": conv,
            }
        )
        agg = (
            out[out["_a"] == 1]
            .groupby("user_id", as_index=False)
            .agg(n_starts=("_a", "sum"), n_converted=("_c", "sum"))
        )
        return agg.astype({"n_starts": "int64", "n_converted": "int64"})

    return (
        _read(sf_dir, "events", ["user_id", "ts", "event_type"])
        .map_batches(prefilter, batch_format="pyarrow")
        .map_batches(lambda b: _add_key_part(b, "user_id"), batch_format="pandas")
        .groupby("_part")
        .map_groups(per_part, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# q78 — hopping-window COUNT(DISTINCT user_id): the q42 window
# explode composed with the q35 coarse-partition exact-distinct.
# Each event lands in exactly two 1-hour windows on 30-minute hops;
# a (window, user) pair is deduped per block, hash-partitioned so the
# pair lives in exactly ONE partition (per-partition dedupe is global
# dedupe), counted per window per partition, then summed across the
# 32 bounded partials.  The shuffle carries pre-deduped pairs, never
# events; nothing unbounded reaches the driver.
# ---------------------------------------------------------------------------
def q78_window_distinct_users(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    def explode_pairs(t: pa.Table) -> pa.Table:
        # numpy floor division, NOT pc.divide: Arrow integer divide
        # truncates toward zero, but the oracle's DuckDB `//` FLOORS —
        # a pre-1970 timestamp would land in a different window
        # (review finding; post-1970 data never exposes it)
        ts_us = (
            t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        es_np = np.floor_divide(ts_us, 1_000_000)
        s1_np = np.floor_divide(es_np, HOP_SEC) * HOP_SEC
        s1 = pa.array(s1_np, pa.int64())
        s0 = pa.array(s1_np - HOP_SEC, pa.int64())
        u = t["user_id"]
        both = pa.concat_tables(
            [
                pa.table({"window_start": s0, "user_id": u}),
                pa.table({"window_start": s1, "user_id": u}),
            ]
        )
        ded = both.group_by(["window_start", "user_id"]).aggregate([])
        ws = ded["window_start"].to_numpy()
        uid = ded["user_id"].to_numpy()
        with np.errstate(over="ignore"):
            h = (
                ws.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ) ^ (uid.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9))
        part = pa.array((h % np.uint64(_N_AGG_PARTS)).astype(np.int32))
        return ded.append_column("_part", part)

    def part_counts(g: "pd.DataFrame") -> "pd.DataFrame":
        d = g.drop_duplicates(["window_start", "user_id"])
        c = d.groupby("window_start", as_index=False).size()
        return c.rename(columns={"size": "n_users"})

    partials = (
        _read(sf_dir, "events", ["ts", "user_id"])
        .map_batches(explode_pairs, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(part_counts, batch_format="pandas")
        .to_pandas()  # BOUNDED: n_windows × 32 partial rows — a second
        # Ray sort-groupby cost more in shuffle barriers than the whole
        # per-pair compute (13.6 s of Sort wall for 0.5 s of tasks,
        # measured at sf0.1); each (window, user) pair was counted
        # exactly once, so the per-window sum is the exact distinct count
    )
    out = (
        partials.groupby("window_start", as_index=False)["n_users"]
        .sum()
        .astype({"window_start": np.int64, "n_users": np.int64})
    )
    return rd.from_arrow(
        pa.table(
            {
                "window_start": pa.array(out["window_start"], pa.int64()),
                "n_users": pa.array(out["n_users"], pa.int64()),
            }
        )
    )


# ---------------------------------------------------------------------------
# q81 — quantile winsorization of the event value stream (the
# outlier-clipping feature-preprocessing stage: clamp each value into
# its event-type's exact [P05, P95]).  Bounds use q48's
# PERCENTILE_DISC integer-rank machinery over FIXED-POINT cents
# (rank = (num·n − 1)//den + 1, histogram partials, per-type
# cumulative pick), so both sides choose identical bound values;
# clipping then happens in integer space.
#
# Scale shape: per-block (type, value_c, count) histogram partials are
# the only thing that shuffles (value cardinality, never events); the
# per-type bound table (n_types rows) broadcasts once; the clip pass
# is stateless and shuffle-free.
# ---------------------------------------------------------------------------
WINSOR_LO = (5, 100)   # P05 as an integer rational
WINSOR_HI = (95, 100)  # P95


def _disc_quantiles(
    kv: rd.Dataset, fracs: tuple[tuple[int, int], ...]
) -> "pd.DataFrame":
    """Exact per-key PERCENTILE_DISC over a (k: str, vc: int64)
    Dataset: per-block (k, vc, cnt) histogram partials -> 8-way
    crc32(k) exchange -> per-key cumulative pick at q48's integer rank
    ``(num·n − 1)//den + 1``.  Only value-cardinality rows shuffle
    (never the input rows); the returned frame is bounded at n_keys
    rows with one ``q{i}`` column per requested fraction.  Shared by
    q81 (winsorize bounds) and q82 (median / MAD)."""
    import pandas as pd

    def hist_part(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(["k", "vc"], as_index=False).size()
        g = g.rename(columns={"size": "cnt"})
        g["_part"] = np.array(
            [zlib.crc32(s.encode()) & 7 for s in g["k"]], dtype=np.int32
        )
        return g

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        out: dict = {"k": [], **{f"q{i}": [] for i in range(len(fracs))}}
        for k, grp in g.groupby("k"):
            grp = grp.groupby("vc", as_index=False)["cnt"].sum().sort_values("vc")
            vals = grp["vc"].to_numpy()
            cum = grp["cnt"].to_numpy().cumsum()
            n = int(cum[-1])
            out["k"].append(k)
            for i, (num, den) in enumerate(fracs):
                rank = (num * n - 1) // den + 1
                out[f"q{i}"].append(int(vals[np.searchsorted(cum, rank)]))
        return pd.DataFrame(out)

    return (
        kv.map_batches(hist_part, batch_format="pandas")
        .groupby("_part")
        .map_groups(pick, batch_format="pandas")
        .to_pandas()  # bounded: n_keys rows
    )


def _events_kv(t: pa.Table) -> "pd.DataFrame":
    import pandas as pd

    return pd.DataFrame(
        {
            "k": t["event_type"].to_pandas(),
            "vc": _fixed(t["value"], 100).to_pandas(),
        }
    )


def _per_key_lookup(d: dict, keys: np.ndarray) -> np.ndarray:
    """Broadcast-dict value lookup via unique+inverse (q35's pattern) —
    one Python dict probe per DISTINCT key, not per row."""
    uniq, inv = np.unique(keys, return_inverse=True)
    return np.array([d[u] for u in uniq], dtype=np.int64)[inv]


def q81_winsorize_values(sf_dir: str) -> rd.Dataset:
    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    bounds = _disc_quantiles(
        ev.map_batches(_events_kv, batch_format="pyarrow"),
        (WINSOR_LO, WINSOR_HI),
    )
    lo = dict(zip(bounds["k"], bounds["q0"].astype(np.int64)))
    hi = dict(zip(bounds["k"], bounds["q1"].astype(np.int64)))
    ref = ray.put((lo, hi))

    def clip(t: pa.Table) -> pa.Table:
        lo_d, hi_d = bget(ref)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        vc = _fixed(t["value"], 100).to_numpy(zero_copy_only=False)
        # a missing type is impossible — bounds came from the same table
        lo_a = _per_key_lookup(lo_d, et)
        hi_a = _per_key_lookup(hi_d, et)
        w = np.minimum(np.maximum(vc, lo_a), hi_a)
        return pa.table(
            {
                "event_id": t["event_id"],
                "value_w": _unscale(pa.array(w), 100),
                "clipped": pa.array((w != vc).astype(np.int64)),
            }
        )

    return ev.map_batches(clip, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# q82 — robust outlier flags via median / MAD (the Hampel / robust
# z-score gate a feature pipeline uses where mean/std would be dragged
# by the very outliers it hunts).  Per event_type: med = exact P50 of
# the fixed-point cents, MAD = exact P50 of |vc − med|; a row is an
# outlier when |vc − med| > MAD_K·MAD — every comparison in int64, so
# both engines flag the identical row set (including the MAD == 0
# degenerate type, where any nonzero deviation flags).
#
# Scale shape: two histogram-quantile passes (value-cardinality
# shuffles only — `_disc_quantiles`) + one stateless flag pass; the
# med/MAD tables (n_types rows each) broadcast once.  Exact MAD needs
# the second pass by definition (deviations depend on the median).
# ---------------------------------------------------------------------------
MAD_K = 3


def q82_mad_outliers(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    med_df = _disc_quantiles(
        ev.map_batches(_events_kv, batch_format="pyarrow"), ((1, 2),)
    )
    med = dict(zip(med_df["k"], med_df["q0"].astype(np.int64)))
    mref = ray.put(med)

    def dev_kv(t: pa.Table) -> pd.DataFrame:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        vc = _fixed(t["value"], 100).to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {"k": et, "vc": np.abs(vc - _per_key_lookup(bget(mref), et))}
        )

    mad_df = _disc_quantiles(
        ev.map_batches(dev_kv, batch_format="pyarrow"), ((1, 2),)
    )
    mad = dict(zip(mad_df["k"], mad_df["q0"].astype(np.int64)))
    ref = ray.put((med, mad))

    def flag(t: pa.Table) -> pa.Table:
        med_d, mad_d = bget(ref)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        vc = _fixed(t["value"], 100).to_numpy(zero_copy_only=False)
        dev = np.abs(vc - _per_key_lookup(med_d, et))
        thr = MAD_K * _per_key_lookup(mad_d, et)
        return pa.table(
            {
                "event_id": t["event_id"],
                "abs_dev_c": pa.array(dev),
                "is_outlier": pa.array((dev > thr).astype(np.int64)),
            }
        )

    return ev.map_batches(flag, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# q83 — keep-latest compaction: one surviving row per (user_id,
# event_type), the one with the greatest (ts, event_id) — the
# "newest snapshot per key" upsert/compaction a recrawled corpus needs
# (keep the latest fetch of each URL, the latest profile per user).
#
# Scale shape: the classic combiner-then-groupby.  A per-block
# sort + drop_duplicates(keep="last") reduces each block to ≤ one row
# per key BEFORE the exchange, so only per-block winners shuffle
# (distinct keys per block, never input rows); the 32-way
# key-hash-partitioned final pick repeats the same reduction.  Ties on
# ts break by event_id — ordering is data, never task arrival.
# ---------------------------------------------------------------------------
def q83_keep_latest(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    def _reduce(b: pd.DataFrame) -> pd.DataFrame:
        # all-integer lexsort: factorize the type strings to codes
        # (grouping only needs within-call consistency, never an
        # order), then find each (user, type) run's LAST row under
        # (ts, event_id) — pandas sort_values over the object column
        # was the probe's superlinear term (2.0→15.6 s for 4× rows)
        u = b["user_id"].to_numpy(np.int64)
        tc = pd.factorize(b["event_type"], sort=False)[0]
        order = np.lexsort(
            (b["event_id"].to_numpy(np.int64),
             b["ts_us"].to_numpy(np.int64), tc, u)
        )
        u_s, t_s = u[order], tc[order]
        last = np.ones(len(order), dtype=bool)
        last[:-1] = (u_s[1:] != u_s[:-1]) | (t_s[1:] != t_s[:-1])
        return b.iloc[order[last]]

    def part_max(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(ts_us=b["ts"].astype("datetime64[us]").astype(np.int64))
        keep = _reduce(b)[["user_id", "event_type", "ts_us", "event_id", "value"]]
        # composite partition key: crc32 per DISTINCT type (few types),
        # folded with the int key — both columns co-locate
        uniq, inv = np.unique(keep["event_type"].to_numpy(), return_inverse=True)
        tc = np.array([zlib.crc32(u.encode()) for u in uniq], dtype=np.int64)[inv]
        return keep.assign(
            _part=((keep["user_id"].to_numpy(np.int64) * 31 + tc) & 31).astype(
                np.int32
            )
        )

    def final_pick(g: pd.DataFrame) -> pd.DataFrame:
        return _reduce(g).drop(columns=["_part"])

    return (
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
        .map_batches(part_max, batch_format="pandas")
        .groupby("_part")
        .map_groups(final_pick, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# q86 — weekly retention cohorts: the (cohort_week, week_offset) →
# active-user matrix every growth/engagement dashboard computes, and a
# classic two-level-aggregate shape.  A user's cohort is their FIRST
# active week; every (user, week) activity pair contributes one count
# at offset = week − cohort.
#
# Scale shape: per-block (user, week) pair dedupe bounds the exchange,
# ONE user-hash shuffle co-locates each user's full week set (min is a
# per-partition operation — no global pass), and only the tiny
# (cohort, offset, count) partials cross the final keyed sum
# (bounded at n_weeks² × 32 rows).
# ---------------------------------------------------------------------------
WEEK_SEC = 604_800


def _user_part32(uid: np.ndarray) -> np.ndarray:
    """Fibonacci-hash 32-way partition id for int64 user keys — the
    ONE partitioner behind q86/q87/q91 (each one's correctness premise
    is that a user's whole stream lands in a single partition)."""
    u = np.asarray(uid, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (u * np.uint64(11400714819323198485)) >> np.uint64(32)
    return (h & np.uint64(31)).astype(np.int32)


def q86_retention_cohorts(sf_dir: str) -> rd.Dataset:
    import pandas as pd

    def pairs(t: pa.Table) -> "pd.DataFrame":
        ts_us = (
            t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        wk = np.floor_divide(np.floor_divide(ts_us, 1_000_000), WEEK_SEC)
        df = pd.DataFrame(
            {"user_id": t["user_id"].to_numpy(zero_copy_only=False), "wk": wk}
        ).drop_duplicates()
        df["_part"] = _user_part32(df["user_id"].to_numpy(np.int64))
        return df

    def per_part(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.drop_duplicates(["user_id", "wk"])  # cross-block dups
        cw = g.groupby("user_id")["wk"].transform("min")
        out = pd.DataFrame(
            {"cohort_week": cw, "week_offset": g["wk"].to_numpy() - cw}
        )
        c = out.groupby(["cohort_week", "week_offset"], as_index=False).size()
        return c.rename(columns={"size": "n_users"})

    partials = (
        _read(sf_dir, "events", ["user_id", "ts"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(per_part, batch_format="pandas")
        .to_pandas()  # BOUNDED: n_weeks² × 32 partial rows (q78's
        # driver-fold: a second Ray sort-groupby costs more in shuffle
        # barriers than the whole per-pair compute)
    )
    out = (
        partials.groupby(["cohort_week", "week_offset"], as_index=False)[
            "n_users"
        ].sum()
    )
    return rd.from_arrow(
        pa.table(
            {
                "cohort_week": pa.array(
                    out["cohort_week"].to_numpy(np.int64), pa.int64()
                ),
                "week_offset": pa.array(
                    out["week_offset"].to_numpy(np.int64), pa.int64()
                ),
                "n_users": pa.array(
                    out["n_users"].to_numpy(np.int64), pa.int64()
                ),
            }
        )
    )


# ---------------------------------------------------------------------------
# q87 — inter-arrival gap quantiles per event type: exact P50/P90 of
# the time between a user's consecutive events, attributed to the
# LATER event's type (the "how regularly does this action recur"
# activity-cadence report; the streaming-sessions sibling of q28).
#
# Scale shape: ONE user-hash shuffle co-locates each user's stream
# (the gap is a per-user sequential construct), a vectorized
# sort+diff emits (type, gap) value pairs, and the exact quantiles run
# through the shared `_disc_quantiles` histogram machinery — value-
# cardinality rows shuffle, never events.  Gaps are measured in WHOLE
# SECONDS (difference of floored epoch seconds) precisely to bound
# that cardinality: µs gaps are near-continuous (histogram ≈ row
# count), second gaps concentrate on the observed-distinct set.
# ---------------------------------------------------------------------------
GAP_QS = ((1, 2), (9, 10))  # P50, P90 as integer rationals


def q87_gap_quantiles(sf_dir: str) -> "pa.Table":
    import pandas as pd

    def part(t: pa.Table) -> "pd.DataFrame":
        ts_us = (
            t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {
                "user_id": uid,
                "event_id": t["event_id"].to_numpy(zero_copy_only=False),
                "event_type": t["event_type"].to_pandas(),
                # floored epoch seconds — ordering still breaks ties
                # within a second by event_id on BOTH sides, and the
                # value cardinality stays bounded (see docstring)
                "ts_s": np.floor_divide(ts_us, 1_000_000),
                "_part": _user_part32(uid),
            }
        )

    def gaps(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["user_id", "ts_s", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        same = u[1:] == u[:-1]
        gap = np.diff(g["ts_s"].to_numpy())[same]
        return pd.DataFrame(
            {"k": g["event_type"].to_numpy()[1:][same], "vc": gap}
        )

    kv = (
        _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
        .map_batches(part, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(gaps, batch_format="pandas")
    )
    q = _disc_quantiles(kv, GAP_QS)  # bounded: n_event_types rows
    return pa.table(
        {
            "event_type": pa.array(q["k"].astype(str), pa.string()),
            "p50_gap_s": pa.array(q["q0"].to_numpy(np.int64), pa.int64()),
            "p90_gap_s": pa.array(q["q1"].to_numpy(np.int64), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# q91 — behavioral trigram mining: the top-k most common 3-event
# sequences across users (the "what do users actually do in order"
# sequence-pattern report; the aggregate sibling of q75's targeted
# funnel — q75 answers "did A→B happen per user", q91 answers "which
# A→B→C dominate the corpus").  A trigram is three CONSECUTIVE events
# of one user under (ts, event_id) order; ties within a timestamp
# break by event_id on both sides.
#
# Scale shape: ONE user-hash shuffle co-locates each user's stream
# (consecutiveness is a per-user sequential construct, exactly q87's
# partitioning), a vectorized sort + shifted-equality mask emits
# per-partition (t1,t2,t3) counts, and only those partials reach the
# driver fold — bounded at n_parts × |event_type|³ rows by pigeonhole
# (event taxonomies are tens of types; for an unbounded-vocab variant
# the q76/q80 crc32-partitioned grouped-sum + per-partition top-k
# path applies unchanged, since a triple lives in ONE partition after
# the exchange).  Final order (n DESC, t1, t2, t3) with LIMIT k is
# fully tie-broken, so the cut is deterministic.
# ---------------------------------------------------------------------------
TRIGRAM_TOPK = 20


def q91_behavior_trigrams(sf_dir: str) -> "pa.Table":
    import pandas as pd

    def part(t: pa.Table) -> "pd.DataFrame":
        ts_us = (
            t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {
                "user_id": uid,
                "event_id": t["event_id"].to_numpy(zero_copy_only=False),
                "event_type": t["event_type"].to_pandas(),
                "ts_us": ts_us,
                "_part": _user_part32(uid),
            }
        )

    _EMPTY = {
        "t1": pd.Series([], dtype=object),
        "t2": pd.Series([], dtype=object),
        "t3": pd.Series([], dtype=object),
        "n": pd.Series([], dtype=np.int64),
    }

    def tri(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        if len(u) < 3:
            return pd.DataFrame(_EMPTY)
        et = g["event_type"].to_numpy()
        same = (u[2:] == u[1:-1]) & (u[1:-1] == u[:-2])
        c = (
            pd.DataFrame(
                {"t1": et[:-2][same], "t2": et[1:-1][same], "t3": et[2:][same]}
            )
            .groupby(["t1", "t2", "t3"], sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return c if len(c) else pd.DataFrame(_EMPTY)

    partials = (
        _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
        .map_batches(part, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(tri, batch_format="pandas")
        .to_pandas()  # BOUNDED: n_parts × |types|³ partial rows
    )
    out = (
        partials.groupby(["t1", "t2", "t3"], as_index=False)["n"]
        .sum()
        .sort_values(
            ["n", "t1", "t2", "t3"], ascending=[False, True, True, True]
        )
        .head(TRIGRAM_TOPK)
    )
    return pa.table(
        {
            "t1": pa.array(out["t1"].astype(str), pa.string()),
            "t2": pa.array(out["t2"].astype(str), pa.string()),
            "t3": pa.array(out["t3"].astype(str), pa.string()),
            "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# q93 — cross-source syndication audit: per source, how many of its
# documents' exact contents also appear under a DIFFERENT source (the
# boilerplate/syndicated-content curation signal — a source whose rows
# mostly duplicate other feeds adds no information to a training mix).
# Content identity is md5(text) — the identical operation DuckDB's
# md5() computes (q10's convention), so a collision would merge the
# same groups on both sides.  Same-source duplicates do NOT count.
#
# Scale shape: per-block distinct (h, source, count) partials into the
# shared crc32(h) 32-way exchange — a hash's rows co-locate, so the
# "≥2 distinct sources" decision and both per-source sums are
# partition-local; only (source, n_docs, n_syndicated) partials reach
# the driver fold (bounded at n_parts × sources).  Text never
# shuffles, and nothing driver-side scales with the corpus.
# ---------------------------------------------------------------------------
def q93_cross_source_dups(sf_dir: str) -> "pa.Table":
    import pandas as pd

    from .mlprep import _crc_part32

    def pairs(b: "pd.DataFrame") -> "pd.DataFrame":
        h = [
            hashlib.md5(s.encode("utf-8")).hexdigest() for s in b["text"]
        ]
        g = (
            pd.DataFrame({"h": h, "source": b["source"].to_numpy()})
            .groupby(["h", "source"], sort=False, as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        g["cnt"] = g["cnt"].astype(np.int64)
        g["_part"] = _crc_part32(g["h"])
        return g

    def fold(g: "pd.DataFrame") -> "pd.DataFrame":
        st = g.groupby(["h", "source"], as_index=False)["cnt"].sum()
        shared = st.groupby("h")["source"].transform("nunique") >= 2
        tot = st.groupby("source", as_index=False)["cnt"].sum().rename(
            columns={"cnt": "n_docs"}
        )
        syn = (
            st[shared]
            .groupby("source", as_index=False)["cnt"]
            .sum()
            .rename(columns={"cnt": "n_syndicated"})
        )
        m = tot.merge(syn, on="source", how="left")
        m["n_syndicated"] = (
            m["n_syndicated"].fillna(0).astype(np.int64)
        )
        return m

    parts = (
        _read(sf_dir, "documents", ["text", "source"])
        .map_batches(pairs, batch_format="pandas")
        .groupby("_part")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()  # BOUNDED: n_parts × sources partial rows
    )
    out = parts.groupby("source", as_index=False)[
        ["n_docs", "n_syndicated"]
    ].sum()
    nd = out["n_docs"].to_numpy(np.int64)
    ns = out["n_syndicated"].to_numpy(np.int64)
    return pa.table(
        {
            "source": pa.array(out["source"].astype(str), pa.string()),
            "n_docs": pa.array(nd, pa.int64()),
            "n_syndicated": pa.array(ns, pa.int64()),
            "syndication_ppm": pa.array(
                ns * 1_000_000 // nd, pa.int64()
            ),
        }
    )
