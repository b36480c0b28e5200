"""The four workloads: inputs made from a seed, one measured operation
each, and the output check and per-layer numbers of that operation.

Why each workload exists (BENCHMARK.json carries the one-line form):

* crawl-multimodal -- the historic bench headline's shape: features on,
  192-320 px images, 512 zipf hosts, 4-10 links per page.  Nearly all
  of its wall time is the fused fetch task's image kernels.
* crawl-links -- features off, 8-16 px images, 8-24 links per page, 2%
  dead links, robots on, 1,024 hosts at a host budget of 1 so that
  politeness binds, and a full backlog compaction in wave 2.  Its work
  is link prep, seen-shard mailboxes, frontier merge and compaction,
  and checkpoints; the image kernels do almost nothing.
* crawl-resume -- crawl-links' config resumed from a committed 2-wave
  prefix (written in set-up by the code under test): the only workload
  that reads checkpoints (seen delta replay, frontier chain replay).
* curate -- q105_curation_pipeline over the testdata documents table
  at sf0.1, committed in data/: the Ray Data groupby / join / sort
  path and the text and dedup kernels.

The program receives only the inputs: a ContentStoreConfig made from
the seed (through CrawlConfig), or the documents parquet file.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from checks import (
    feature_sample_mismatches,
    observe_crawl,
    oracle_crawl,
    oracle_q105,
    value_hash,
)
from tracing import Tracer, replay_rows, spans_matching

N_SHARDS = 2
RESUME_PREFIX_WAVES = 2
# the testdata corpus at sf0.1 (5,000 documents), committed as is
DOCS_FILE = Path(__file__).resolve().parent / "data" / "documents.parquet"
TOY_DOCS = 300


@dataclass
class Rep:
    """One measured operation."""

    setup_s: float
    wall_s: float
    items: int
    sink_rows: int
    rss_mb: float
    observed: dict
    traced: bool = False
    layers: dict = field(default_factory=dict)
    error: str | None = None


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ---------------------------------------------------------------- crawl


def multimodal_config(seed: int, toy: bool = False):
    from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig
    from cs_insights_crawler_ray.pipelines.crawl import CrawlConfig

    ws = 16 if toy else 128
    return CrawlConfig(
        store=ContentStoreConfig(
            seed=seed, n_hosts=512, pages_per_host=100_000, img_min=192, img_max=320
        ),
        n_seeds=2 * ws,
        host_budget=8,
        wave_size=ws,
        n_waves=2,
        max_depth=10,
        n_shards=N_SHARDS,
        fetch_batch=64,
        seen_capacity=1 << 16,
        extract_features=True,
    )


def links_config(seed: int, toy: bool = False):
    from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig
    from cs_insights_crawler_ray.pipelines.crawl import CrawlConfig

    hosts = 128 if toy else 1024
    return CrawlConfig(
        store=ContentStoreConfig(
            seed=seed,
            n_hosts=hosts,
            pages_per_host=100_000,
            img_min=8,
            img_max=16,
            links_min=8,
            links_max=24,
            dead_link_rate=0.02,
        ),
        n_seeds=hosts,
        host_budget=1,
        wave_size=hosts,
        n_waves=3,
        max_depth=10,
        n_shards=N_SHARDS,
        fetch_batch=256,
        seen_capacity=1 << 17,
        extract_features=False,
        # wave 0 and wave 2 write full backlog snapshots: wave 2
        # compacts the runs of waves 0 and 1
        backlog_full_every=2,
    )


def crawl_layers(res: dict, wall: float, cfg, spans: dict, tracer: Tracer,
                 out_dir: Path, seen_stats: list[dict], num_cpus: int,
                 seen_rss_mb: float) -> dict:
    """Per-layer numbers of one traced crawl (or resume)."""
    waves = list(res["by_wave"].values())
    phases = [w["phase_sec"] for w in waves]

    def phase(key: str) -> float:
        return float(sum(p.get(key, 0.0) for p in phases))

    wave_s = [sum(v for k, v in p.items() if not k.startswith("links_")) for p in phases]
    admitted = sum(w["admitted"] for w in waves)
    fused = spans_matching(spans, "_FusedWaveTask")
    fetch_s = phase("fetch")
    checked = sum(s["checked"] for s in seen_stats)
    out = {
        "crawl.fetch_s": fetch_s,
        "crawl.admission_s": phase("admission"),
        "crawl.log_s": phase("log"),
        "crawl.links_s": phase("links"),
        "crawl.payload_join_s": phase("payload_join"),
        "crawl.checkpoint_s": phase("checkpoint"),
        "crawl.prebuild_join_s": phase("adm_prebuild_join"),
        "crawl.pre_loop_s": wall - sum(wave_s),
        "crawl.wave_s.p50": median(wave_s),
        "crawl.wave_s.max": max(wave_s, default=0.0),
        "crawl.waves": len(waves),
        "crawl.admitted": admitted,
        "crawl.admit_fill": admitted / max(len(waves) * cfg.wave_size, 1),
        "crawl.quarantine_ratio": sum(w["quarantined"] for w in waves) / max(admitted, 1),
        "crawl.new_urls": sum(w["new_urls"] for w in waves),
        "crawl.backlog": waves[-1]["backlog"] if waves else 0,
        "stages.fused.tasks": len(fused),
        "stages.fused.task_s.p50": median(fused),
        "stages.fused.task_s.max": max(fused, default=0.0),
        "stages.fused.busy_s": sum(fused),
        "stages.fused.util": sum(fused) / (fetch_s * num_cpus) if fetch_s else 0.0,
        "state.seen.buffer_links.calls": len(spans_matching(spans, "SeenShardImpl.buffer_links")),
        "state.seen.buffer_links.busy_s": sum(spans_matching(spans, "SeenShardImpl.buffer_links")),
        "state.seen.process_wave.busy_s": sum(spans_matching(spans, "SeenShardImpl.process_wave")),
        "state.seen.fold_tail_s": phase("links_fold_tail"),
        "state.seen.merge_s": phase("links_merge"),
        "state.seen.test_s": phase("links_seen"),
        "state.seen.checked": checked,
        "state.seen.new_ratio": sum(s["new"] for s in seen_stats) / max(checked, 1),
        "state.seen.snapshot_s": tracer.total("state.seen.snapshot"),
        "state.seen.snapshot_bytes": _dir_bytes(out_dir / "checkpoints"),
        "state.seen.restore_s": tracer.total("state.seen.restore"),
        "state.seen.actor_rss_mb": seen_rss_mb,
        "state.frontier.advance.busy_s": sum(spans_matching(spans, "_advance_frontier")),
        "state.frontier.merge.busy_s": sum(spans_matching(spans, "_merge_frontier")),
        "state.frontier.compact.busy_s": sum(spans_matching(spans, "_compact_frontier")),
        "state.frontier.replay.busy_s": sum(spans_matching(spans, "_replay_part")),
        "state.frontier.backlog_bytes": _dir_bytes(out_dir / "backlog"),
        "sources.sinks.write_payload_s": tracer.total("sources.sinks.write_payload"),
        "sources.sinks.payload_bytes": _dir_bytes(out_dir / "payload"),
        "sources.checkpoint.commit_s": tracer.total("sources.checkpoint.commit"),
        "sources.checkpoint.latest_manifest_s": tracer.total("sources.checkpoint.latest_manifest"),
    }
    return out


class CrawlWorkload:
    """crawl-multimodal and crawl-links: one fresh run_crawl per rep."""

    seeded = True
    # the first crawls of a session are slower: after one warm-up the
    # first measured rep still ran up to 25% slower than the later ones
    warmup_reps = 2

    def __init__(self, name: str, seed: int, toy: bool, work: Path, num_cpus: int):
        self.name = name
        self.work = work
        self.num_cpus = num_cpus
        make = multimodal_config if name == "crawl-multimodal" else links_config
        self.cfg = make(seed, toy)
        self.seen = None
        self.last_out: Path | None = None

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        from cs_insights_crawler_ray.state.seen import ShardedSeenSet

        self.seen = ShardedSeenSet(self.cfg.n_shards, self.cfg.seen_capacity)
        self.seen.stats()  # actors up

    def rep_setup(self, i: int) -> Path:
        out = self.work / f"rep{i}"
        shutil.rmtree(out, ignore_errors=True)
        # reset the reused seen-shard actors: restore from an empty log
        self.seen.restore([[] for _ in range(self.seen.n_shards)])
        return out

    # -- the measured operation -----------------------------------------
    def op(self, out: Path) -> dict:
        from cs_insights_crawler_ray.pipelines.crawl import run_crawl

        return run_crawl(self.cfg, str(out), seen=self.seen)

    def counts(self, res: dict) -> tuple[int, int]:
        return res["cumulative"]["fetched"], res["cumulative"]["payload_rows"]

    def observe(self, res: dict, out: Path) -> dict:
        obs = observe_crawl(out, res["seen_stats"], self.cfg.extract_features)
        self.last_out = out
        return obs

    # -- checks -----------------------------------------------------------
    def expected(self) -> dict:
        return oracle_crawl(self.cfg)

    def extra_mismatches(self) -> list[str]:
        if not self.cfg.extract_features or self.last_out is None:
            return []
        return feature_sample_mismatches(self.cfg, self.last_out)

    # -- trace ----------------------------------------------------------
    def install(self, tracer: Tracer) -> None:
        tracer.install_crawl()

    def layers(self, res, wall, spans, tracer, out, seen_rss_mb) -> dict:
        return crawl_layers(res, wall, self.cfg, spans, tracer, out,
                            res["seen_stats"], self.num_cpus, seen_rss_mb)

    def replay(self, out: Path) -> dict:
        log = pq.read_table(sorted((out / "crawl_log").glob("wave=*/*.parquet"))[-1])
        n = 48 if self.cfg.extract_features else 256
        urls = log.sort_by("fetch_seq")["url_canon"].to_pylist()[:n]
        return replay_rows(self.cfg.store, urls, self.cfg.extract_features)

    def shutdown(self) -> None:
        if self.seen is not None:
            self.seen.shutdown()
            self.seen = None


class ResumeWorkload(CrawlWorkload):
    """crawl-resume: each rep resumes crawl-links' config from a pristine
    copy of a committed prefix of RESUME_PREFIX_WAVES waves."""

    def __init__(self, name, seed, toy, work, num_cpus):
        super().__init__(name, seed, toy, work, num_cpus)
        self.run_dir = work / "resume"
        self.pristine = work / "prefix"

    def setup(self) -> None:
        from cs_insights_crawler_ray.pipelines.crawl import run_crawl

        super().setup()
        # the committed prefix, written by the code under test; the
        # manifests hold absolute paths, so every rep resumes at the
        # same path from a copy of it
        prefix = replace(self.cfg, n_waves=RESUME_PREFIX_WAVES)
        run_crawl(prefix, str(self.run_dir), seen=self.seen)
        shutil.copytree(self.run_dir, self.pristine)

    def rep_setup(self, i: int) -> Path:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        shutil.copytree(self.pristine, self.run_dir)
        return self.run_dir

    def op(self, out: Path) -> dict:
        from cs_insights_crawler_ray.pipelines.crawl import run_crawl

        return run_crawl(self.cfg, str(out), resume=True, seen=self.seen)

    def counts(self, res: dict) -> tuple[int, int]:
        waves = res["by_wave"].values()
        return sum(w["admitted"] for w in waves), sum(w["payload_rows"] for w in waves)

    def observe(self, res: dict, out: Path) -> dict:
        obs = super().observe(res, out)
        obs["resumed_waves"] = sorted(res["by_wave"])
        obs["resumed_fetched"] = self.counts(res)[0]
        return obs

    def expected(self) -> dict:
        return oracle_crawl(self.cfg, resume_from=RESUME_PREFIX_WAVES)


# -------------------------------------------------------------- curate


def curate_documents(toy: bool) -> pa.Table:
    """The curate input: the committed documents table (all of it, or
    its first TOY_DOCS rows at toy size)."""
    docs = pq.read_table(DOCS_FILE)
    return docs.slice(0, TOY_DOCS) if toy else docs


class CurateWorkload:
    """curate: one q105_curation_pipeline over the committed corpus per
    rep.  The corpus is fixed, so the seed does not apply."""

    seeded = False
    warmup_reps = 0  # setup() warms up at toy size

    def __init__(self, name, seed, toy, work, num_cpus):
        self.name = name
        self.toy = toy
        self.work = work
        self.docs = work / "docs"
        self.n_docs = 0

    def setup(self) -> None:
        from cs_insights_crawler_ray.pipelines.curation import q105_curation_pipeline

        docs = curate_documents(self.toy)
        self.n_docs = docs.num_rows
        warm = self.work / "warm"
        for d, table in ((self.docs, docs), (warm, docs.slice(0, TOY_DOCS))):
            d.mkdir(parents=True)
            pq.write_table(table, d / "documents.parquet")
        # the untimed warm-up (worker processes, imports, operators) on
        # the first TOY_DOCS rows: a full-size one would add a rep's
        # 13 s to set-up, and after this one the first rep is already
        # within a few percent of the later ones
        q105_curation_pipeline(str(warm), out_root=str(warm / "out"))

    def rep_setup(self, i: int) -> Path:
        out = self.work / f"rep{i}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def op(self, out: Path):
        from cs_insights_crawler_ray.pipelines.curation import q105_curation_pipeline

        return q105_curation_pipeline(str(self.docs), out_root=str(out))

    def counts(self, res) -> tuple[int, int]:
        return self.n_docs, int(sum(res["n_docs"].to_pylist()))

    def observe(self, res, out: Path) -> dict:
        return {"rows": res.num_rows, "value_hash": value_hash(res)}

    def expected(self) -> dict:
        return oracle_q105(self.docs)

    def extra_mismatches(self) -> list[str]:
        return []

    def install(self, tracer: Tracer) -> None:
        tracer.install_curation()

    def layers(self, res, wall, spans, tracer, out, seen_rss_mb) -> dict:
        ops = [op for m in tracer.materialized for op in m["ops"]]
        shuffle = ("groupby", "sort", "join", "repartition", "aggregate", "shuffle")
        return {
            "curation.materialize.calls": tracer.count("curation.materialize"),
            "curation.materialize_s": tracer.total("curation.materialize"),
            "curation.ops.task_s": sum(op["task_s"] for op in ops),
            "curation.ops.task_s.max": max((op["task_s_max"] for op in ops), default=0.0),
            "curation.shuffle_s": sum(
                op["total_s"] for op in ops if any(s in op["name"].lower() for s in shuffle)
            ),
        }

    def replay(self, out: Path) -> dict:
        return {}

    def shutdown(self) -> None:
        pass


WORKLOADS = {
    "crawl-multimodal": CrawlWorkload,
    "crawl-links": CrawlWorkload,
    "crawl-resume": ResumeWorkload,
    "curate": CurateWorkload,
}


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def measure_rep(wl, i: int, tracer: Tracer | None) -> tuple[Rep, object, Path]:
    """Run one rep: per-rep set-up, then the timed operation, traced
    when a tracer is given."""
    from proc import session_peak_rss_mb

    t0 = time.perf_counter()
    out = wl.rep_setup(i)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        wl.install(tracer)
    try:
        t0 = time.perf_counter()
        res = wl.op(out)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    items, sink = wl.counts(res)
    rss = session_peak_rss_mb()
    return Rep(setup_s, wall, items, sink, rss, {}, tracer is not None), res, out

