"""The crawl engine: URL frontier + fetch scheduler as a Ray Data
wave loop (BASELINE.json north_rule).

Replaces the reference's sequential client loop (serial fetch in
listing order, ``s2client.py:146-157``) with a deterministic parallel
restatement:

- **Ordering is data, not interleaving** (SURVEY.md §7.5 #1): every
  frontier row carries a total discovery key
  ``(disc_wave, disc_parent, disc_link)`` — wave discovered, parent's
  global fetch_seq, position in the parent page's link list.  Fetch
  order within a wave is the sort by ``(score, -authority, discovery
  key)`` (authority optional, 0 when off — CrawlConfig.authority;
  score optionally adds the deterministic wave-age recency term —
  CrawlConfig.recency_weight, state/politeness.py docstring);
  global ``fetch_seq`` is assigned per wave by the driver over the
  politeness-bounded candidate keys (only admitted-set keys — never
  frontier rows — reach the driver).
- **Politeness** = per-host token buckets refilled per wave
  (state/politeness.py) enforced before fetch.
- **Seen set** = sharded actors keyed by ``host_hash % shards``, each
  holding exact sorted digest runs (bloom + cuckoo in the optional
  sketch mode; state/seen.py).
- **Payload** lands in the Lance-abstracted sink partitioned by wave
  (sources/sinks.py), schema per input_hint.
- **Resume** = wave-granular manifests committed atomically AFTER the
  wave's payload/backlog/snapshots are on disk (sources/checkpoint.py);
  a killed run restarts from the last committed wave with zero
  re-fetches (tests/test_resume.py asserts this).

**One partitioning key, zero steady-state shuffles, zero steady-state
frontier scans**: the frontier lives as ``n_shards`` INCREMENTAL
partition structures keyed by ``host_hash % n_shards`` (the SAME key
that routes link slices to the seen shards) — LSM-style head + sorted
runs + cursors, see ``state/frontier.py``.  Every per-wave frontier
operation is partition-local AND frontier-size-free:

    wave start   admission candidates (per-host budget prefix of each
                 partition's HEAD, scored) were already computed by
                 the previous wave's merge tasks; the driver sorts
                 candidate KEYS only and broadcasts dk->fetch_seq
    admitted     per-partition seq-attach tasks split the admitted rows
                 into slices; one FUSED task per bundle of slices:
                 fetch + decode-verify(+features) + link
                 canonicalize/robots, link slices mailed to seen shards
    during fetch ADVANCE each partition: drop admitted rows from the
                 head, refill by run-cursor advance — O(head +
                 refilled).  Full-snapshot waves also COMPACT (merge
                 unconsumed run suffixes into one base run = the rest
                 parquet), the only O(frontier) step, amortized over
                 backlog_full_every waves
    links        per-shard process_wave (pre-folded mailbox merge +
                 seen test-and-set) -> new frontier partition tables
    merge        MERGE new rows into the structure (append as a run /
                 top up heads) + next wave's candidates, same round —
                 O(head + new)

Hosts never straddle partitions, so per-host politeness ranking needs
no cross-partition exchange; the old combiner → ``groupby`` →
``map_groups`` admission (a full hash shuffle of the backlog every
wave, ~1.4 s/wave fixed at sf0.1) is gone, and so is round 3's
per-wave rest-of-frontier scan (53 s/wave of barrier wait at a 20M-row
frontier — BASELINE.md, "Frontier-size scaling" table).  Heads are
O(hosts x budget) per partition (the politeness floor); runs are plain
object-store Arrow tables fetched only when a refill or compaction
draws from them: at 10^10-URL scale ``n_shards`` scales with the
cluster, partitions hold frontier rows only (no payloads), and the
object store spills cold runs.  The wave loop runs no Dataset
execution: once the admitted slices are object refs, the fused round
is plain tasks over them (the idiom of cluster.py, ann.py, graph.py
and curation.py), each returning the crawl-log columns and the payload
rows; the payload refs go straight to ``sinks.write_payload``.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..fixtures.content_store import ContentStoreConfig, robots_allowed, seed_urls
from ..functions.urls import canonicalize_batch, path_query_of
from ..sources.checkpoint import WaveManifest, commit_manifest, latest_manifest
from ..sources.sinks import _write_part, clear_partition, write_payload
from ..stages.fetch import fetch_decode_link_task
from ..stages.links import explode_prepared
from ..state import frontier
from ..state.politeness import DISCOVERY_KEY, partition_candidates
from ..state.seen import FRONTIER_SCHEMA, ShardedSeenSet, digests_from_sha1_column

# ONE source of truth for the frontier column list: a hand-maintained
# copy here silently desynchronized from schema edits in state/seen.py
FRONTIER_COLS = list(FRONTIER_SCHEMA.names)

CAND_SCHEMA = FRONTIER_SCHEMA.append(pa.field("score", pa.float64())).append(
    pa.field("auth_neg", pa.int64())
)
# authority (negated int64, 0 when the signal is off) tie-breaks
# between score and discovery key — see politeness.partition_candidates
KEY_COLS = ["score", "auth_neg"] + DISCOVERY_KEY


@dataclass
class CrawlConfig:
    store: ContentStoreConfig = field(default_factory=ContentStoreConfig)
    n_seeds: int = 64
    host_budget: int = 4          # politeness: fetches per host per wave
    wave_size: int = 128          # global fetches per wave
    n_waves: int = 5
    max_depth: int = 8
    n_shards: int = 4             # seen-set actors == frontier partitions
    fetch_batch: int = 64    # min rows per fused fetch task (slices bundled)
    seen_capacity: int = 1 << 18
    extract_features: bool = False  # multimodal feature stage (imagefeat)
    # optional url_canon -> int64 authority (e.g. pipelines/graph.py
    # PageRank): tie-breaks wave ranking between score and discovery
    # key; politeness budgets stay authority-blind.  None/empty keeps
    # crawl order bit-identical to the authority-free engine.
    authority: dict | None = None
    # opt-in deterministic "recency" score term (north-star sketch's
    # third term, restated as data): score += recency_weight *
    # (wave - disc_wave).  Positive = freshness-first (new discoveries
    # outrank stale backlog at equal depth), negative = oldest-first.
    # Politeness budgets stay recency-blind; 0.0 keeps crawl order
    # bit-identical to the recency-free engine (parity-tested).
    recency_weight: float = 0.0
    # full rest-of-frontier snapshot every K waves; other waves
    # checkpoint only O(wave_size) admitted keys + O(new) link rows
    # (an O(frontier) parquet rewrite per wave is ~1 TB/wave at
    # 10^10 URLs — measured 2.3-4.2 s/wave at just 2M frontier rows)
    backlog_full_every: int = 8


def _frontier_table(batch: pa.Table) -> pa.Table:
    """Project + order columns to the canonical frontier schema (so
    union of differently-produced blocks has one schema). url_hex is
    only (re)computed when absent — it's a Python-level loop."""
    if "url_hex" not in batch.column_names:
        hexes = pa.array([b.hex() for b in batch["url_sha1"].to_pylist()], pa.string())
        batch = batch.append_column("url_hex", hexes)
    return pa.table(
        {
            "url_canon": batch["url_canon"].cast(pa.string()),
            "url_hex": batch["url_hex"],
            "url_sha1": batch["url_sha1"].cast(pa.binary(20)),
            "host": batch["host"].cast(pa.string()),
            "host_hash": batch["host_hash"].cast(pa.uint64()),
            "depth": batch["depth"].cast(pa.int32()),
            "disc_wave": batch["disc_wave"].cast(pa.int32()),
            "disc_parent": batch["disc_parent"].cast(pa.int64()),
            "disc_link": batch["disc_link"].cast(pa.int32()),
        }
    )


def _split_frontier(t: pa.Table, n_parts: int) -> list[pa.Table]:
    """Split a canonical frontier table into host-hash partitions."""
    sid = (t["host_hash"].to_numpy(zero_copy_only=False) % np.uint64(n_parts)).astype(
        np.int64
    )
    return [t.filter(pa.array(sid == p)) for p in range(n_parts)]


def _cand_table(df: pd.DataFrame) -> pa.Table:
    """Candidate frame (frontier cols + score + auth_neg) -> canonical
    arrow."""
    if len(df) == 0:
        return CAND_SCHEMA.empty_table()
    t = _frontier_table(pa.Table.from_pandas(df[FRONTIER_COLS], preserve_index=False))
    return t.append_column(
        "score", pa.array(df["score"].to_numpy(np.float64), pa.float64())
    ).append_column(
        "auth_neg", pa.array(df["auth_neg"].to_numpy(np.int64), pa.int64())
    )


def _get_auth(auth_ref) -> dict | None:
    """Resolve the broadcast authority dict (list-wrapped ObjectRef so
    Ray does not auto-deref; bget caches the deserialized dict per
    worker process)."""
    if not auth_ref:
        return None
    from ..functions.broadcast import bget

    return bget(auth_ref[0])


# ---- incremental frontier tasks (state/frontier.py) ----------------
# Each host-hash partition is an LSM-style structure: a per-host
# budget-prefix HEAD (the politeness working set), immutable sorted
# RUNS (seed/compacted base + one per wave), and per-run cursors.
# Per-wave work is O(head + new + refilled) — the per-wave O(frontier)
# rest scan of the previous design is gone (it cost 53 s/wave of
# barrier wait at a 20M-row frontier, residue ratio 67x per decade).
# Run refs are passed wrapped as (run_id, [ref]) so Ray does not
# auto-materialize them; tasks fetch only the runs a refill touches.


def _run_getter(runs: list):
    lut = {rid: wrapped[0] for rid, wrapped in runs}
    return lambda rid: ray.get(lut[rid])


@ray.remote(num_returns=4)
def _init_frontier(table: pa.Table, host_budget: int, wave_size: int,
                   auth_ref=None, cand_wave: int = 0,
                   recency_weight: float = 0.0):
    """Seed/resume partition table -> (state, base run, candidates,
    key frame).  The only O(partition) sort; every later wave is
    incremental.  ``cand_wave`` is the wave these candidates are
    admitted in (start_wave — 0 fresh, manifest.wave+1 on resume), the
    age anchor for the optional recency term."""
    state, base = frontier.init_state(table, host_budget, run_id=-1)
    cand = _cand_table(
        partition_candidates(
            state["head"].to_pandas(), host_budget, wave_size,
            _get_auth(auth_ref), cand_wave, recency_weight,
        )
    )
    return state, base, cand, cand.select(KEY_COLS)


@ray.remote
def _advance_frontier(state: dict, seq_map: pd.DataFrame, runs: list,
                      host_budget: int) -> dict:
    """Remove this wave's admitted rows from the head and refill from
    the runs (cursor advance).  Launched at fetch start — O(head +
    refilled), so it hides behind any fetch."""
    return frontier.advance(
        state, seq_map, [rid for rid, _ in runs], _run_getter(runs),
        host_budget,
    )


@ray.remote(num_returns=2)
def _compact_frontier(state: dict, runs: list, run_id: int):
    """Full-snapshot waves: merge every unconsumed run suffix + head
    into ONE base run (this wave's partNNNN_rest.parquet payload,
    written by a downstream ``_write_part`` task) and reset cursors.
    O(frontier/n_parts), amortized over ``backlog_full_every`` waves
    and launched during the fetch."""
    state, rest = frontier.compact(
        state, [rid for rid, _ in runs], _run_getter(runs), run_id
    )
    return state, rest


@ray.remote(num_returns=5)
def _merge_frontier(state: dict, new: pa.Table, run_id: int,
                    host_budget: int, wave_size: int, auth_ref=None,
                    cand_wave: int | None = None,
                    recency_weight: float = 0.0):
    """Links barrier: append the wave's new rows as a run (or top up
    heads directly — see frontier.merge_new) and emit the next wave's
    admission candidates (for wave ``cand_wave`` = current wave + 1 —
    the recency term's age anchor).  Returns (state, sorted run,
    candidates, key frame, total pending)."""
    state, run_t, cand_df = frontier.merge_new(
        state, new, run_id, host_budget, wave_size, _get_auth(auth_ref),
        cand_wave, recency_weight,
    )
    cand = _cand_table(cand_df)
    if run_t is None:
        run_t = FRONTIER_SCHEMA.empty_table()
    return (
        state, run_t, cand, cand.select(KEY_COLS),
        frontier.pending_total(state),
    )


def _slice_bounds(n_rows: int, n_slices: int) -> np.ndarray:
    """Row bounds of ``n_slices`` near-equal consecutive slices."""
    return (np.arange(n_slices + 1, dtype=np.int64) * n_rows) // n_slices


@ray.remote
def _admit_slices(cand: pa.Table, seq_map: pd.DataFrame, n_slices: int):
    """Merge one partition's candidates with the admitted seq map
    (inner: keeps only this wave's admitted rows; passed as the ref
    Ray auto-derefs from plasma, shipped once per partition task) and
    split into ``n_slices`` near-equal arrow tables (``_slice_bounds``,
    so the driver knows each slice's row count without waiting)."""
    df = cand.to_pandas().merge(seq_map, on=DISCOVERY_KEY, how="inner")
    df = df.drop(columns=["score", "auth_neg"])
    bounds = _slice_bounds(len(df), n_slices)
    out = [
        pa.Table.from_pandas(
            df.iloc[bounds[i] : bounds[i + 1]], preserve_index=False
        )
        for i in range(n_slices)
    ]
    return tuple(out) if n_slices > 1 else out[0]


# fetch-all bound for admission keys: when n_parts x wave_size exceeds
# this, the driver switches from "pull every partition's candidate keys
# and sort" to the two-phase threshold refinement below, which bounds
# driver rows at O(wave_size) regardless of partition count (2,048
# partitions x 1M-URL waves would otherwise pull ~2e9 key rows).  The
# check is static (no probe round on the small path).
ADMIT_FETCHALL_LIMIT = 2_000_000

@ray.remote
def _key_head(keys: pa.Table, p: int):
    """First p rows of one partition's (pre-sorted) candidate keys +
    its total count — the sample round of the threshold refinement."""
    return keys.slice(0, min(p, keys.num_rows)), keys.num_rows


def _sorted_prefix_le(keys: pa.Table, bound: tuple) -> int:
    """Length of the prefix of a KEY_COLS-lexicographically-sorted key
    table whose keys are <= bound: per-column binary searches over the
    running tie range (O(cols x log n), no row materialization)."""
    lo, hi = 0, keys.num_rows
    n_le = 0
    for col, b in zip(KEY_COLS, bound):
        a = keys[col].to_numpy(zero_copy_only=False)
        left = lo + int(np.searchsorted(a[lo:hi], b, "left"))
        right = lo + int(np.searchsorted(a[lo:hi], b, "right"))
        n_le += left - lo       # strictly smaller at this column
        lo, hi = left, right    # equal-so-far rows continue
        if lo >= hi:
            break
    return n_le + (hi - lo)     # rows equal on every column


@ray.remote
def _keys_le(keys: pa.Table, bound: tuple) -> pa.Table:
    return keys.slice(0, _sorted_prefix_le(keys, bound))


def _gather_admission_keys(key_refs, wave_size: int,
                           admit_limit: int) -> list[pa.Table]:
    """Per-partition candidate key tables for the driver's global
    wave ranking.  Small scale (n_parts x wave_size <= admit_limit):
    pull them all — the tested default.  Large scale: exact
    distributed top-k by threshold refinement.  Each partition's keys
    arrive SORTED ascending by KEY_COLS (politeness.partition_candidates
    emits them that way), so (1) a prefix sample of p = ceil(ws/n_parts)
    rows per partition yields a bound T = the ws-th smallest sampled
    key, which provably >= the true ws-th smallest (the sample holds
    each partition's SMALLEST keys, so >= ws real keys are <= T); (2)
    every partition's keys <= T are a prefix found by binary search.
    The union of those prefixes contains the exact top-ws set; the
    driver sorts only that union — O(ws) rows in the balanced case —
    and the admitted set is bit-identical to the fetch-all path
    (asserted by tests on both forced paths)."""
    n_parts = len(key_refs)
    if n_parts * wave_size <= admit_limit:
        return ray.get(key_refs)
    p = max(1, -(-wave_size // n_parts))
    heads = ray.get([_key_head.remote(r, p) for r in key_refs])
    counts = np.array([c for _, c in heads], dtype=np.int64)
    total = int(counts.sum())
    if total <= wave_size:  # everything pending is admitted
        return ray.get(key_refs)
    if sum(min(p, int(c)) for c in counts) < wave_size:
        # some partitions are shallow: the full per-partition counts
        # are already in hand, so solve the minimal p with
        # sum(min(p, c)) >= wave_size in closed form (binary search
        # over ints, driver-only) and re-fetch the heads exactly ONCE
        # instead of a blocking task round per p*=4 doubling.  total >
        # wave_size (checked above) guarantees a solution exists.
        lo, hi = p + 1, int(counts.max())
        while lo < hi:
            mid = (lo + hi) // 2
            if int(np.minimum(counts, mid).sum()) >= wave_size:
                hi = mid
            else:
                lo = mid + 1
        p = lo
        heads = ray.get([_key_head.remote(r, p) for r in key_refs])
    sample = pa.concat_tables([h for h, _ in heads]).to_pandas()
    sample = sample.sort_values(KEY_COLS, kind="mergesort")
    row = sample.iloc[wave_size - 1]
    bound = tuple(row[c] for c in KEY_COLS)
    return ray.get([_keys_le.remote(r, bound) for r in key_refs])


def _prepare_admission(key_refs, cand_refs, next_seq: int, wave_size: int,
                       n_blocks: int, admit_limit: int | None = None):
    """Key sort + seq map + admitted-slice tasks for one wave.
    Driver-side cost is the sort of the gathered candidate keys —
    min(n_parts x wave_size, ~O(wave_size)) rows, see
    _gather_admission_keys; the candidate payload rows never touch the
    driver — each partition's seq-attach + slice split runs in one
    task sized from the key sort's per-partition admitted counts (so
    slices stay ~wave/n_blocks rows even under partition skew; a
    single-block seed wave fetched near-serially otherwise: 41s vs 6s
    for the same width, measured).  Called on the driver at the top of
    every wave.  Returns ``(slices, seq_map, seq_ref, n_admitted)``,
    ``slices`` being (table ref, row count) pairs in partition order,
    or None when no candidates remain (crawl exhausted)."""
    if admit_limit is None:
        admit_limit = ADMIT_FETCHALL_LIMIT  # read at call time: tests
        # monkeypatch the module constant to force the refinement path
    key_tables = _gather_admission_keys(key_refs, wave_size, admit_limit)
    keys = pa.concat_tables(key_tables).to_pandas()
    part_of = np.repeat(
        np.arange(len(key_tables)), [t.num_rows for t in key_tables]
    )
    keys["_part"] = part_of
    keys = keys.sort_values(KEY_COLS, kind="mergesort").head(wave_size)
    n_admitted = len(keys)
    if n_admitted == 0:
        return None
    seq_map = keys[DISCOVERY_KEY].copy()
    seq_map["fetch_seq"] = np.arange(
        next_seq, next_seq + n_admitted, dtype=np.int64
    )
    seq_ref = ray.put(seq_map)
    counts = np.bincount(
        keys["_part"].to_numpy(), minlength=len(key_tables)
    )
    target = max(1, -(-n_admitted // n_blocks))  # ceil: rows per slice
    slices = []
    for p, c in enumerate(counts):
        if c == 0:
            continue
        k = int(-(-int(c) // target))
        r = _admit_slices.options(num_returns=k).remote(cand_refs[p], seq_ref, k)
        slices.extend(zip(r if k > 1 else [r], np.diff(_slice_bounds(int(c), k))))
    return slices, seq_map, seq_ref, n_admitted


def _bundles(slices: list, min_rows: int) -> list[list]:
    """Consecutive slice refs grouped into bundles of at least
    ``min_rows`` rows (the last bundle takes the remainder)."""
    out, cur, n = [], [], 0
    for ref, rows in slices:
        cur.append(ref)
        n += int(rows)
        if n >= min_rows:
            out.append(cur)
            cur, n = [], 0
    if cur:
        out.append(cur)
    return out


@ray.remote
def _read_part(paths: list) -> pa.Table:
    """Resume: rebuild one frontier partition from its checkpoint
    files (rest + new halves; either may be absent/empty)."""
    tabs = [pq.read_table(p) for p in paths if Path(p).exists()]
    tabs = [_frontier_table(t) for t in tabs if t.num_rows]
    if not tabs:
        return FRONTIER_SCHEMA.empty_table()
    return pa.concat_tables(tabs)


@ray.remote
def _read_admitted_keys(path: str) -> pa.Table:
    """One read per delta wave: the admitted key table is GLOBAL (not
    per-partition), so the driver reads it once into the object store
    and every _replay_part shares the ref — previously each of the
    n_parts replay tasks re-read and re-parsed the same parquet
    (n_parts x chain_length redundant reads on resume)."""
    return pq.read_table(path, columns=list(DISCOVERY_KEY))


@ray.remote
def _replay_part(base: pa.Table, steps: list) -> pa.Table:
    """Resume across delta waves: starting from the latest full
    snapshot's partition, apply each subsequent wave's (admitted keys
    anti-join, new rows union) in order — the frontier analog of the
    seen set's delta-log replay.  ``steps`` holds (ObjectRef to the
    shared admitted-key table, per-partition new-rows path) pairs."""
    part = base
    for adm_ref, new_path in steps:
        if part.num_rows:
            adm = ray.get(adm_ref).to_pandas()  # zero-copy shared read
            df = part.to_pandas().merge(
                adm[DISCOVERY_KEY].assign(_adm=1), on=DISCOVERY_KEY, how="left"
            )
            df = df[df["_adm"].isna()].drop(columns=["_adm"])
            part = (
                _frontier_table(pa.Table.from_pandas(df, preserve_index=False))
                if len(df)
                else FRONTIER_SCHEMA.empty_table()
            )
        if Path(new_path).exists():
            nt = pq.read_table(new_path)
            if nt.num_rows:
                part = pa.concat_tables([part, _frontier_table(nt)])
    return part


class _FusedWaveTask:
    """The whole per-row wave as ONE callable: fetch + decode-
    verify(+features/embedding) + link canonicalize/robots + routing
    of exploded link slices to the seen-shard mailboxes.  The driver
    builds one per wave and ``_fused_wave`` runs it over each bundle
    of admitted slices.

    The shard sends are acknowledged (ray.get) before the call
    returns, so the fetch barrier doubles as the links barrier — at
    barrier time every link slice is buffered in its shard.  Retried
    tasks re-send identical slices; process_wave's dk-sorted
    drop_duplicates makes that idempotent.  Link list columns are
    dropped from the returned table (only payload/log columns are
    kept)."""

    def __init__(self, store, extract, shard_handles, n_shards, wave, max_depth):
        self.store = store
        self.extract = extract
        self.shards = shard_handles
        self.n_shards = n_shards
        self.wave = wave
        self.max_depth = max_depth

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = fetch_decode_link_task(batch, self.store, self.extract)
        links = explode_prepared(t, self.wave, self.max_depth)
        if links.num_rows:
            sid = (
                links["host_hash"].to_numpy(zero_copy_only=False)
                % np.uint64(self.n_shards)
            ).astype(np.int64)
            acks = []
            for s in range(self.n_shards):
                mask = sid == s
                if mask.any():
                    acks.append(
                        self.shards[s].buffer_links.remote(links.filter(pa.array(mask)))
                    )
            ray.get(acks)
        drop = [c for c in t.column_names if c.startswith("link")]
        return t.drop_columns(drop)


LOG_COLS = ["fetch_seq", "url_canon", "depth", "status"]


@ray.remote(
    num_returns=2,
    name="_FusedWaveTask",
    max_retries=-1,
    retry_exceptions=[ray.exceptions.RaySystemError],
)
def _fused_wave(fused: _FusedWaveTask, payload_cols: list, *slices: pa.Table):
    """One bundle of admitted slices through ``fused`` -> (crawl-log
    columns, payload rows); the payload keeps only decoded-ok rows,
    without the ok flag.  Retries match Ray Data's map tasks: a dead
    worker or a system error is retried without limit
    (``max_retries=-1``, ``retry_exceptions=[RaySystemError]``), an
    application error is not — it reaches the driver's fetch barrier
    and aborts the wave before its manifest commits."""
    t = fused(pa.concat_tables(slices))
    payload = t.select(payload_cols).filter(t["ok"]).drop_columns(["ok"])
    return t.select(LOG_COLS), payload


def _seed_table(seeds: list, disc_link_start: int) -> pa.Table:
    n = len(seeds)
    return pa.table(
        {
            "url": pa.array(seeds, pa.string()),
            "disc_wave": pa.array([-1] * n, pa.int32()),
            "disc_parent": pa.array([-1] * n, pa.int64()),
            "disc_link": pa.array(
                np.arange(disc_link_start, disc_link_start + n, dtype=np.int32),
                pa.int32(),
            ),
            "depth": pa.array([0] * n, pa.int32()),
        }
    )


def _prepare_seed_table(store: ContentStoreConfig, t: pa.Table) -> pa.Table:
    """Canonicalize the seed rows and drop the ones robots disallow."""
    t = canonicalize_batch(t)
    hosts, canon = t["host"].to_pylist(), t["url_canon"].to_pylist()
    allowed = [robots_allowed(store, h, path_query_of(c)) for h, c in zip(hosts, canon)]
    return _frontier_table(t.filter(pa.array(allowed, pa.bool_())))


def _dedupe_first_seed(t: pa.Table) -> pa.Table:
    """Keep the first occurrence (lowest disc_link) of each URL."""
    df = t.to_pandas().sort_values("disc_link", kind="mergesort")
    df = df.drop_duplicates(subset=["url_hex"], keep="first")
    return pa.Table.from_pandas(df, preserve_index=False).cast(FRONTIER_SCHEMA)


@ray.remote
def _seed_chunk_parts(store: ContentStoreConfig, seeds: list,
                      disc_link_start: int, n_parts: int) -> list:
    """One seed chunk -> canonicalize + robots + partition split (the
    per-URL Python work runs in parallel tasks, not on the driver)."""
    t = _prepare_seed_table(store, _seed_table(seeds, disc_link_start))
    return _split_frontier(t, n_parts)


@ray.remote
def _seed_part_finalize(shard, *chunks: pa.Table) -> pa.Table:
    """Concat one partition's chunk slices, dedupe (first seed index
    wins — URLs never straddle partitions, so per-partition dedupe is
    global dedupe), mark seen in the co-located shard actor."""
    t = pa.concat_tables([c for c in chunks if c.num_rows])
    if t.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table()
    t = _dedupe_first_seed(t)
    mask = ray.get(shard.check_and_add.remote(digests_from_sha1_column(t["url_sha1"])))
    if not mask.all():
        # a real exception, not an assert: under python -O a silent
        # pass would leave seen-marked seeds in the frontier and wave 0
        # would re-fetch URLs the seen set says are already crawled
        raise ValueError(
            "seed list overlaps a pre-populated seen set; pass a fresh "
            "ShardedSeenSet (or resume=True against its checkpoint)"
        )
    return t


# 12.5k: a bench-width seed list (98k) fans out 8 ways instead of 2
# (2.2 s -> ~1 s of wave-0 admission); chunk count never changes the
# output (per-partition finalize dedupes globally by seed index)
_SEED_CHUNK = 12_500


def build_seed_parts(cfg: CrawlConfig, seen: ShardedSeenSet) -> list:
    """Seed list -> per-partition canonical frontier tables (object
    refs), robots-filtered, deduped (first seed-index wins), marked
    seen. disc key = (-1, -1, seed_idx) — the analog of the reference's
    listing order (s2client.py:153).

    Small seed lists are prepared on the driver; beyond _SEED_CHUNK the
    canonicalize/robots/split work fans out in chunk tasks (the per-URL
    Python cost is ~15µs — serial driver prep of a 10^7-seed list would
    be minutes) and each partition finalizes in its own task against
    its co-located seen shard."""
    n_parts = seen.n_shards
    seeds = seed_urls(cfg.store, cfg.n_seeds)
    if len(seeds) <= _SEED_CHUNK:
        t = _prepare_seed_table(cfg.store, _seed_table(seeds, 0))
        t = _dedupe_first_seed(t)
        if t.num_rows:
            mask = seen.check_and_add(
                digests_from_sha1_column(t["url_sha1"]),
                t["host_hash"].to_numpy(zero_copy_only=False),
            )
            if not mask.all():
                raise ValueError(
                    "seed list overlaps a pre-populated seen set; pass a "
                    "fresh ShardedSeenSet (or resume=True against its "
                    "checkpoint)"
                )
        return [ray.put(p) for p in _split_frontier(t, n_parts)]
    chunk_refs = [
        _seed_chunk_parts.options(num_returns=n_parts).remote(
            cfg.store, seeds[i : i + _SEED_CHUNK], i, n_parts
        )
        for i in range(0, len(seeds), _SEED_CHUNK)
    ]
    return [
        _seed_part_finalize.remote(
            seen.shards[p], *[chunk[p] for chunk in chunk_refs]
        )
        for p in range(n_parts)
    ]


def build_seed_frontier(cfg: CrawlConfig, seen: ShardedSeenSet) -> pa.Table:
    """Single-table convenience wrapper over ``build_seed_parts``."""
    return pa.concat_tables(ray.get(build_seed_parts(cfg, seen)))


def run_crawl(
    cfg: CrawlConfig,
    out_dir: str,
    resume: bool = False,
    seen: ShardedSeenSet | None = None,
) -> dict:
    """Run (or resume) the crawl; returns the final cumulative metrics.

    Output layout under out_dir:
      payload/wave=NNNNNN/   Lance/parquet payload partitions
      crawl_log/wave=NNNNNN/ (fetch_seq, url_canon, depth, status);
                             wave is the hive partition key (dropped
                             by read_crawl_log)
      backlog/wave=NNNNNN/   frontier checkpoint AFTER the wave:
                             admitted.parquet (keys) + partNNNN_new
                             every wave; partNNNN_rest full snapshots
                             every backlog_full_every waves
      checkpoints/           seen-shard snapshots + manifests
    """
    out = Path(out_dir)
    ckpt = out / "checkpoints"
    own_seen = seen is None
    if seen is None:
        seen = ShardedSeenSet(cfg.n_shards, cfg.seen_capacity)
    n_parts = seen.n_shards  # frontier partitions == seen shards (one key)
    try:
        start_wave = 0
        next_seq = 0
        cumulative = {"fetched": 0, "payload_rows": 0, "quarantined": 0, "new_urls": 0}
        if not resume:
            # a FRESH run must not leave a previous run's state behind:
            # it only overwrites waves it reaches, so a shorter/different
            # run B over run A's out_dir would leave A's later manifests
            # + seen deltas + backlog files in place, and a subsequent
            # resume would replay a silent MIX of the two runs' state
            for sub in ("checkpoints", "backlog", "crawl_log", "payload"):
                shutil.rmtree(out / sub, ignore_errors=True)
        manifest = latest_manifest(str(ckpt)) if resume else None
        if manifest is not None:
            # the backlog part files and seen delta logs are keyed by
            # host_hash % n_shards AT WRITE TIME: resuming with a
            # different count would silently read a subset of them and
            # split hosts across partitions (politeness + dedup break)
            written = manifest.n_shards or len(manifest.seen_snapshots)
            if written != n_parts:
                raise ValueError(
                    f"resume with n_shards={n_parts} but the checkpoint "
                    f"at {ckpt} was written with n_shards={written}; "
                    "re-sharding a checkpoint is not supported — resume "
                    "with the original shard count"
                )
        last_full_wave = -1
        if manifest is not None and manifest.wave + 1 >= cfg.n_waves:
            # resume of an already-complete run: nothing to fetch —
            # don't launch frontier replay / candidate tasks whose
            # results the (empty) wave loop would never consume.  The
            # seen set IS still restored: callers who pass their own
            # seen rely on post-resume membership/stats, and the stats
            # in the return value must reflect the committed state.
            seen.restore_from_dir(str(ckpt), manifest.wave)
            return {
                "cumulative": dict(manifest.cumulative),
                "by_wave": {},
                "next_fetch_seq": manifest.next_fetch_seq,
                "seen_stats": seen.stats(),
            }
        if manifest is not None:
            # delta-log replay of every committed wave's snapshot
            seen.restore_from_dir(str(ckpt), manifest.wave)
            # frontier: walk back to the latest FULL backlog snapshot,
            # then replay each delta wave's (admitted, new) pair
            from ..sources.checkpoint import load_manifest

            chain = []
            base_m = manifest
            while not base_m.backlog_full:
                chain.append(base_m)
                prev = load_manifest(str(ckpt), base_m.wave - 1)
                if prev is None:
                    raise RuntimeError(
                        f"no full backlog snapshot at or before wave {manifest.wave}"
                    )
                base_m = prev
            chain.reverse()  # waves base+1 .. manifest.wave ascending
            adm_refs = [
                _read_admitted_keys.remote(f"{m.backlog_path}/admitted.parquet")
                for m in chain
            ]
            parts = []
            for p in range(n_parts):
                base_ref = _read_part.remote(
                    [
                        f"{base_m.backlog_path}/part{p:04d}_rest.parquet",
                        f"{base_m.backlog_path}/part{p:04d}_new.parquet",
                    ]
                )
                steps = [
                    (
                        adm_ref,
                        f"{m.backlog_path}/part{p:04d}_new.parquet",
                    )
                    for m, adm_ref in zip(chain, adm_refs)
                ]
                parts.append(
                    _replay_part.remote(base_ref, steps) if steps else base_ref
                )
            last_full_wave = base_m.wave
            start_wave = manifest.wave + 1
            next_seq = manifest.next_fetch_seq
            cumulative = dict(manifest.cumulative)
        else:
            parts = build_seed_parts(cfg, seen)
        B = cfg.host_budget
        auth_ref = [ray.put(cfg.authority)] if cfg.authority else None
        init_rets = [
            _init_frontier.remote(
                parts[p], B, cfg.wave_size, auth_ref, start_wave,
                cfg.recency_weight,
            )
            for p in range(n_parts)
        ]
        states = [r[0] for r in init_rets]
        # per-partition run lists: (run_id, [table_ref]) wrapped so Ray
        # never auto-materializes a run a task doesn't touch
        runs = [[(-1, [r[1]])] for r in init_rets]
        cand_refs = [r[2] for r in init_rets]
        key_refs = [r[3] for r in init_rets]
        n_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
        metrics_by_wave = {}

        for wave in range(start_wave, cfg.n_waves):
            phase_t: dict[str, float] = {}
            _t0 = time.perf_counter()

            def _mark(name: str) -> None:
                nonlocal _t0
                now = time.perf_counter()
                phase_t[name] = round(now - _t0, 3)
                _t0 = now

            # ---- admission: the per-partition candidate prune already
            # ran (previous wave's merge tasks / the seed round); the
            # driver sorts candidate KEYS only — min(n_parts x
            # wave_size, ~O(wave_size)) rows via the adaptive threshold
            # refinement (_gather_admission_keys) — and ships back a
            # broadcast dk->fetch_seq map.  It runs after the previous
            # wave's manifest commit, so an admission failure aborts
            # with that wave committed and resume redoes only this
            # one; None means the frontier is drained.
            adm = _prepare_admission(
                key_refs, cand_refs, next_seq, cfg.wave_size, n_blocks
            )
            if adm is None:
                _mark("admission")
                break
            slices, seq_map, seq_ref, n_admitted = adm
            next_seq += n_admitted
            _mark("admission")

            # ---- overlapped with fetch: advance the incremental
            # frontier (drop admitted rows from each partition's head,
            # refill by cursor advance — O(head + refilled), never
            # O(frontier)).  On full-snapshot waves the compaction task
            # additionally merges every unconsumed run suffix into one
            # base run and writes it as this wave's rest parquet —
            # the only O(frontier) work left, amortized over
            # ``backlog_full_every`` waves.  Delta waves persist only
            # the admitted keys (+ the new rows after the links
            # barrier); resume replays the chain from the latest full
            # snapshot.
            backlog_path = str(out / "backlog" / f"wave={wave:06d}")
            clear_partition(backlog_path)
            Path(backlog_path).mkdir(parents=True, exist_ok=True)
            pq.write_table(
                pa.Table.from_pandas(seq_map, preserve_index=False),
                f"{backlog_path}/admitted.parquet",
            )
            write_full = (
                last_full_wave < 0
                or wave - last_full_wave >= cfg.backlog_full_every
            )
            states = [
                _advance_frontier.remote(states[p], seq_ref, runs[p], B)
                for p in range(n_parts)
            ]
            rest_writes = []
            if write_full:
                comp = [
                    _compact_frontier.remote(states[p], runs[p], 2 * wave)
                    for p in range(n_parts)
                ]
                states = [c[0] for c in comp]
                runs = [[(2 * wave, [c[1]])] for c in comp]
                rest_writes = [
                    _write_part.remote(
                        comp[p][1], f"{backlog_path}/part{p:04d}_rest.parquet"
                    )
                    for p in range(n_parts)
                ]

            # ---- fetch + decode-verify(+features), FUSED: one plain
            # task per bundle of consecutive admitted slices of at
            # least fetch_batch rows (politeness already enforced).
            # One pass per row produces the payload, the log columns
            # and the link-discovery columns; tasks reuse the warm
            # worker pool and hold no standing CPU reservation.  Link
            # routing happens INSIDE the task (actor-mailbox pattern):
            # each task explodes its page links, partitions them by
            # seen-shard, and ships the slices to the shard actors with
            # an acknowledged call — so by the time the fetch barrier
            # (the ray.get of the log columns) completes, every link
            # slice is buffered and the links phase is one cross-chunk
            # merge per shard.
            shard_handles = seen.shards
            fused = _FusedWaveTask(
                cfg.store, cfg.extract_features, shard_handles,
                seen.n_shards, wave, cfg.max_depth,
            )
            payload_cols = [
                "image_id", "bytes", "w", "h", "fmt", "caption", "phash", "ok",
            ]
            if cfg.extract_features:
                from ..functions.imagefeat import FEATURE_COLUMNS

                payload_cols += [name for name, _ in FEATURE_COLUMNS] + ["embedding"]
            rounds = [
                _fused_wave.remote(fused, payload_cols, *bundle)
                for bundle in _bundles(slices, cfg.fetch_batch)
            ]
            logs = ray.get([r[0] for r in rounds])
            _mark("fetch")

            # ---- crawl-order log (the headline determinism artifact).
            # The admitted set is politeness-bounded, so a single
            # driver-side parquet write of 4 narrow columns is cheap.
            log_path = str(out / "crawl_log" / f"wave={wave:06d}")
            clear_partition(log_path)
            Path(log_path).mkdir(parents=True, exist_ok=True)
            pq.write_table(pa.concat_tables(logs), f"{log_path}/log.parquet")
            _mark("log")

            # ---- payload -> Lance-style sink, blocking: the write is
            # durable before the link barrier, so no write outlives an
            # aborted wave.  A failure must abort BEFORE the manifest
            # commits: a silently-failed payload write + committed
            # manifest = permanent data loss (resume never re-fetches
            # committed waves).
            payload_path = f"{out}/payload/wave={wave:06d}"
            try:
                payload_rows = write_payload(
                    [r[1] for r in rounds], str(out / "payload"), f"wave={wave:06d}"
                )
            except Exception as e:
                raise RuntimeError(
                    f"payload write failed for wave {wave}; aborting before "
                    "manifest commit so resume re-runs this wave"
                ) from e
            _mark("payload_join")

            # ---- link barrier: one deterministic process_wave() per
            # shard (cross-chunk merge of the pre-folded mailbox, seen
            # test-and-set).  The bulk of the dedup work already ran
            # inside buffer_links folds DURING the fetch.  Counts come
            # from an actor-local info call — shipping each frontier
            # table through a counting task cost ~5 MB/shard of object
            # transfer per wave (measured as most of the links wall).
            frontier_refs = [s.process_wave.remote() for s in shard_handles]
            infos = ray.get([s.last_process_info.remote() for s in shard_handles])
            n_new = sum(i[0] for i in infos)
            for key in ("fold_tail", "merge", "seen"):
                phase_t[f"links_{key}"] = round(
                    max(i[1].get(key, 0.0) for i in infos), 3
                )
            _mark("links")

            # ---- merge the new links into the incremental frontier
            # and emit next-wave candidates in the same task round —
            # O(head + new) per partition, frontier-size-free.
            mg = [
                _merge_frontier.remote(
                    states[p], frontier_refs[p], 2 * wave + 1, B,
                    cfg.wave_size, auth_ref, wave + 1,
                    cfg.recency_weight,
                )
                for p in range(n_parts)
            ]
            states = [m[0] for m in mg]
            cand_refs = [m[2] for m in mg]
            key_refs = [m[3] for m in mg]
            total_refs = [m[4] for m in mg]
            for p in range(n_parts):
                if infos[p][0] > 0:
                    runs[p] = runs[p] + [(2 * wave + 1, [mg[p][1]])]
            new_writes = [
                _write_part.remote(
                    mg[p][1], f"{backlog_path}/part{p:04d}_new.parquet"
                )
                for p in range(n_parts)
            ]
            _mark("merge_launch")

            # ---- wave barrier: checkpoint commit.  Delta waves wait
            # only on the O(new) parquet writes + O(delta) seen
            # snapshots; full-snapshot waves additionally join the
            # compaction write launched at fetch start.  The backlog
            # count is actor-free bookkeeping inside the merge tasks.
            ray.get(rest_writes + new_writes)
            if write_full:
                last_full_wave = wave
            snaps = seen.snapshot(str(ckpt), wave)
            n_backlog = int(sum(ray.get(total_refs)))
            _mark("checkpoint")
            wave_metrics = {
                "phase_sec": phase_t,
                "admitted": int(n_admitted),
                "payload_rows": int(payload_rows),
                "quarantined": int(n_admitted - payload_rows),
                "new_urls": int(n_new),
                "backlog": n_backlog,
            }
            metrics_by_wave[wave] = wave_metrics
            cumulative = {
                "fetched": cumulative["fetched"] + wave_metrics["admitted"],
                "payload_rows": cumulative["payload_rows"] + wave_metrics["payload_rows"],
                "quarantined": cumulative["quarantined"] + wave_metrics["quarantined"],
                "new_urls": cumulative["new_urls"] + wave_metrics["new_urls"],
            }
            commit_manifest(
                str(ckpt),
                WaveManifest(
                    wave=wave,
                    next_fetch_seq=next_seq,
                    backlog_path=backlog_path,
                    seen_snapshots=snaps,
                    payload_path=payload_path,
                    crawl_log_path=log_path,
                    metrics=wave_metrics,
                    cumulative=cumulative,
                    backlog_full=write_full,
                    n_shards=n_parts,
                ),
            )
        return {
            "cumulative": cumulative,
            "by_wave": metrics_by_wave,
            "next_fetch_seq": next_seq,
            "seen_stats": seen.stats(),
        }
    finally:
        if own_seen:
            seen.shutdown()


def read_crawl_log(out_dir: str) -> pd.DataFrame:
    """Full crawl order, sorted by fetch_seq — the parity artifact.
    This DELIBERATELY materializes (q30/q67's contract is returning
    the whole ordered log for value-hashing); consumers that only
    need aggregates must use :func:`crawl_log_ds` instead (VERDICT
    r04 finding #1)."""
    root = Path(out_dir) / "crawl_log"
    ds = rd.read_parquet(str(root))  # recurses into wave=* partitions
    df = ds.to_pandas()
    if "wave" in df.columns:  # hive partition column, if inferred
        df = df.drop(columns=["wave"])
    return df.sort_values("fetch_seq").reset_index(drop=True)


def crawl_log_ds(out_dir: str, columns: list[str] | None = None) -> rd.Dataset:
    """Streaming Dataset over the crawl-log parquet — the aggregate-
    consumer variant of :func:`read_crawl_log`: nothing lands on the
    driver; callers aggregate via map_batches / groupby.  The hive
    ``wave`` partition column is dropped so the schema equals
    read_crawl_log's columns.  Not fetch_seq-ordered (order is data —
    sort explicitly if the consumer needs it)."""
    root = Path(out_dir) / "crawl_log"
    ds = rd.read_parquet(str(root), columns=columns)
    names = ds.schema().names
    if "wave" in names:
        ds = ds.drop_columns(["wave"])
    return ds
