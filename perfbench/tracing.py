"""The traced run's instruments, all outside the program's code:

* in-process wrappers around public calls (spans kept in memory);
* ``ray.timeline()`` task spans, grouped by task name into layers;
* per-operator stats of every ``Dataset.materialize`` (curation);
* a single-process replay of fetched rows through the program's stage
  tasks and the public per-row kernels they call.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict

import pyarrow as pa

REPLAY_ROUNDS = 5


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []
        self.materialized: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self.spans.append((name, t0, time.perf_counter()))
            if after is not None:
                after(out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def install_crawl(self) -> None:
        # crawl.py binds these helpers by name, so they are wrapped in
        # the crawl module's namespace
        from cs_insights_crawler_ray.pipelines import crawl
        from cs_insights_crawler_ray.state.seen import ShardedSeenSet

        self._wrap(crawl, "write_payload", "sources.sinks.write_payload")
        self._wrap(crawl, "commit_manifest", "sources.checkpoint.commit")
        self._wrap(crawl, "latest_manifest", "sources.checkpoint.latest_manifest")
        self._wrap(ShardedSeenSet, "snapshot", "state.seen.snapshot")
        self._wrap(ShardedSeenSet, "restore_from_dir", "state.seen.restore")

    def install_curation(self) -> None:
        import ray.data

        seen_ops: set = set()

        def keep_stats(mds) -> None:
            # a summary lists its own last operators; the upstream ones
            # (groupby, sort, ...) sit in its parents, which earlier
            # materializes may already have reported
            ops, todo = [], [mds._get_stats_summary()]
            while todo:
                summary = todo.pop()
                todo.extend(summary.parents)
                for op in summary.operators_stats:
                    key = (summary.dataset_uuid, op.operator_name, op.earliest_start_time)
                    if key in seen_ops:
                        continue
                    seen_ops.add(key)
                    ops.append(
                        {
                            "name": op.operator_name,
                            "total_s": op.time_total_s,
                            "task_s": (op.wall_time or {}).get("sum", 0.0),
                            "task_s_max": (op.wall_time or {}).get("max", 0.0),
                        }
                    )
            self.materialized.append({"ops": ops})

        self._wrap(ray.data.Dataset, "materialize", "curation.materialize", keep_stats)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def total(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1 in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n, _, _ in self.spans if n == name)


def task_spans(events: list[dict], t0_epoch: float, t1_epoch: float) -> dict[str, list[float]]:
    """Durations (s) of the Ray task and actor-method spans among
    ``ray.timeline()`` events that started in [t0_epoch, t1_epoch],
    keyed by task name."""
    spans: dict[str, list[float]] = defaultdict(list)
    for e in events:
        cat = str(e.get("cat", ""))
        if e.get("ph") != "X" or not cat.startswith("task::"):
            continue
        if t0_epoch <= e["ts"] / 1e6 <= t1_epoch:
            spans[cat[len("task::"):]].append(e["dur"] / 1e6)
    return dict(spans)


def spans_matching(spans: dict[str, list[float]], needle: str) -> list[float]:
    return [d for name, ds in spans.items() if needle in name for d in ds]


def _per_row_ms(fn, items, n_rows: int) -> float:
    t0 = time.perf_counter()
    for it in items:
        fn(it)
    return (time.perf_counter() - t0) * 1e3 / max(n_rows, 1)


def _call_ms(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1e3


def replay_rows(store, urls: list[str], extract: bool) -> dict[str, float]:
    """Per-row cost (ms) of the program's own stage tasks and of each
    public kernel where those tasks call it, replayed in this process
    over ``urls``.  Link prep is the fused task's time beyond
    fetch_decode_task on the same batch."""
    from cs_insights_crawler_ray.fixtures.content_store import fetch_page, page_pixels
    from cs_insights_crawler_ray.functions.imagecodec import (
        LOSSY,
        decode_image,
        phash64,
        psnr,
    )
    from cs_insights_crawler_ray.functions.imageembed import get_model
    from cs_insights_crawler_ray.functions.imagefeat import extract_features
    from cs_insights_crawler_ray.stages.decode import decode_verify_task
    from cs_insights_crawler_ray.stages.fetch import (
        fetch_decode_link_task,
        fetch_decode_task,
        fetch_task,
    )

    n = len(urls)
    batch = pa.table(
        {
            "url_canon": pa.array(urls, pa.string()),
            "url_sha1": pa.array(
                [hashlib.sha1(u.encode()).digest() for u in urls], pa.binary()
            ),
        }
    )
    fetch_decode_link_task(batch.slice(0, 2), store, extract)  # load caches
    # link prep is a small difference of two timings that vary by
    # about 10% from call to call: take medians of interleaved rounds
    rounds: list[tuple[float, float]] = []
    for _ in range(REPLAY_ROUNDS):
        rounds.append((
            _call_ms(fetch_decode_link_task, batch, store, extract),
            _call_ms(fetch_decode_task, batch, store, extract),
        ))
    fused = statistics.median(f for f, _ in rounds)
    fetch_decode = statistics.median(d for _, d in rounds)
    fetched = fetch_task(batch, store)
    out = {
        "stages.fused_ms_per_row": fused / n,
        "stages.decode_verify_ms_per_row": _call_ms(decode_verify_task, fetched, store, extract) / n,
        "functions.link_prep_ms": (fused - fetch_decode) / n,
    }

    pmf = store.host_pmf()
    out["fixtures.fetch_page_ms"] = _per_row_ms(lambda u: fetch_page(store, u, pmf), urls, n)
    out["fixtures.page_pixels_ms"] = _per_row_ms(lambda u: page_pixels(store, u), urls, n)

    def decode(blob: bytes):
        try:
            return decode_image(blob)
        except ValueError:  # a poison row: the task decodes nothing more
            return None

    rows = zip(urls, fetched["status"].to_pylist(), fetched["bytes"].to_pylist())
    ok = [(u, blob) for u, st, blob in rows if st == "200"]
    out["functions.decode_ms"] = _per_row_ms(lambda r: decode(r[1]), ok, n)
    decoded = [(u, d) for u, d in ((u, decode(blob)) for u, blob in ok) if d is not None]
    pixels = [px for _, (px, _) in decoded]
    # the PSNR kernel verifies lossy rows; lossless ones are compared
    # for equality
    lossy = [(px, page_pixels(store, u)) for u, (px, fmt) in decoded if fmt in LOSSY]
    out["functions.verify_ms"] = _per_row_ms(lambda r: psnr(*r), lossy, n)
    out["functions.phash_ms"] = _per_row_ms(phash64, pixels, n)
    if extract:
        model = get_model()
        out["functions.features_ms"] = _per_row_ms(extract_features, pixels, n)
        out["functions.embed_ms"] = _per_row_ms(model.embed, pixels, n)
    else:  # the crawl does not run these kernels
        out["functions.features_ms"] = 0.0
        out["functions.embed_ms"] = 0.0
    out["functions.links_per_row"] = sum(len(x or []) for x in fetched["links"].to_pylist()) / n
    out["stages.engine_ms_per_row"] = (
        out["stages.fused_ms_per_row"]
        - out["fixtures.fetch_page_ms"]
        - out["fixtures.page_pixels_ms"]
    )
    return out
