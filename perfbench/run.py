"""Crawl benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload crawl-links --seed 7 --seconds 12 --trace 0

Run from the root of a checkout of the repository.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is an
``info`` object (num_cpus, Ray version, source revision, per-rep walls,
check results).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.

Within a run: one Ray session with num_cpus = the CPUs this process may
use, an untimed warm-up, then reps of the workload's operation until
the next rep would end past ``--seconds``.  Every rep's output is
checked against the oracle: for the default seed (and for curate, whose
input is fixed) against the values in expected.json (re-derive them with
``--derive-expected``), for any other seed by running the oracle after
the measured window.

``--size toy`` runs tiny inputs for the self-check; ``--expect FILE``
replaces expected.json, which shows that a wrong expectation fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42          # ContentStoreConfig's default seed
HARD_LIMIT_S = 170.0       # the whole process, including teardown
OP_TIMEOUT_S = 60.0        # set-up, one measured operation, or the checks
OBJECT_STORE_BYTES = 384 * 1024 * 1024
CRAWL_FAMILIES = ("crawl.", "stages.", "functions.", "fixtures.", "state.", "sources.")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:.0f} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["crawl-multimodal", "crawl-links", "crawl-resume", "curate"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "toy"], default="full")
    p.add_argument("--expect", type=Path, default=HERE / "expected.json")
    p.add_argument("--derive-expected", action="store_true",
                   help="recompute expected.json for the default seed from the oracles")
    args = p.parse_args(argv)
    if not args.derive_expected and args.workload is None:
        p.error("--workload is required")
    return args


def source_revision() -> str:
    """git HEAD when run inside a clone, else a digest of the package
    sources (a benchmark checkout is not a git repository)."""
    import hashlib
    import subprocess

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for f in sorted((ROOT / "cs_insights_crawler_ray").rglob("*.py")):
        h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:12]


def nproc() -> int:
    """What ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    import subprocess

    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def start_ray(num_cpus: int, temp_dir: Path):
    import logging

    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=str(temp_dir),
        logging_level="ERROR",
        log_to_driver=False,
        # steadier timings on a shared box: workers at this process's
        # priority (Ray's default is nice 15), and idle workers kept
        # so that no worker process starts inside a timed rep
        _system_config={
            "worker_niceness": 0,
            "num_workers_soft_limit": 8,
            "idle_worker_killing_time_threshold_ms": 3_600_000,
        },
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return ray


def stop_ray(temp_dir: Path) -> None:
    import ray

    from proc import descendants, wait_gone

    pids = descendants()
    ray.shutdown()
    left = wait_gone(pids)
    if left:
        print(f"perfbench: processes still alive after teardown: {left}", file=sys.stderr)
    shutil.rmtree(temp_dir, ignore_errors=True)


def start_watchdog() -> None:
    """Last resort if a teardown itself hangs: kill the session and
    exit without a result."""
    from proc import descendants

    def fire():
        print(f"perfbench: hard limit of {HARD_LIMIT_S:.0f} s reached", file=sys.stderr)
        for pid in descendants():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        os._exit(3)

    t = threading.Timer(HARD_LIMIT_S, fire)
    t.daemon = True
    t.start()


def load_expected(path: Path, workload: str, size: str) -> dict:
    return json.loads(path.read_text())["workloads"][workload][size]


def per_layer_values(wl, traced: list, untraced: list, replay: dict, names: list[str]) -> dict:
    from workloads import median

    keys = set().union(*(r.layers for r in traced))
    values = {k: median([r.layers[k] for r in traced]) for k in keys}
    values.update(replay)
    walls_t = median([r.wall_s for r in traced])
    walls_u = median([r.wall_s for r in untraced])
    values["trace.overhead"] = walls_t / walls_u - 1.0 if walls_u else 0.0
    own = ("curation.",) if wl.name == "curate" else CRAWL_FAMILIES
    missing = [n for n in names if n.startswith(own) and n not in values]
    if missing:
        raise KeyError(f"{wl.name} produced no value for {missing}")
    # layers the workload does not run did no work
    return {n: float(values.get(n, 0.0)) for n in names}


def _failed_rep(e: Exception) -> "Rep":
    from workloads import Rep

    return Rep(0.0, 0.0, 0, 0, 0.0, {}, error=f"{type(e).__name__}: {e}")


def run(args, spec: dict) -> tuple[dict, dict]:
    """Returns (result, info).  An exception or timeout in set-up, in a
    rep or in its checks is a failed rep, never a missing result."""
    import tempfile

    from proc import ray_workers, vmhwm_mb
    from tracing import Tracer, task_spans
    from workloads import WORKLOADS, Rep, measure_rep, median

    num_cpus = nproc()
    work = ROOT / ".pbw" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # a fresh directory: Ray's unix socket paths below it may not
    # exceed 107 bytes, which a directory in the checkout can
    temp_dir = Path(tempfile.mkdtemp(prefix="pbr-"))
    info: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "num_cpus": num_cpus, "revision": source_revision()}
    reps: list[Rep] = []
    traced_meta = []  # (rep, result, out_dir, start, end, seen-actor MB, tracer)
    wl = None
    session_setup_s = 0.0
    replay = {}
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        t0 = time.perf_counter()
        ray = start_ray(num_cpus, temp_dir)
        # a SIGTERM unwinds through the teardown below (Ray's handler
        # would leave the session's processes behind)
        signal.signal(signal.SIGTERM, _on_term)
        info["ray"] = ray.__version__
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            wl = WORKLOADS[args.workload](args.workload, args.seed, args.size == "toy", work, num_cpus)
            wl.setup()
            # untimed warm-up reps (worker processes, imports, caches),
            # each followed like every rep by reading its output
            for i in range(-wl.warmup_reps, 0):
                _, res, out = measure_rep(wl, i, None)
                wl.observe(res, out)
        except Exception as e:  # noqa: BLE001 - a failed set-up is data
            reps.append(_failed_rep(e))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        session_setup_s = time.perf_counter() - t0

        # ---- the measured window; a trace run alternates untraced and
        # traced reps so that trace.overhead compares like with like
        window0 = time.perf_counter()
        for i in itertools.count():
            if reps and reps[-1].error is not None:
                break
            tracer = Tracer() if args.trace and i % 2 == 1 else None
            e0 = time.time()
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                rep, res, out = measure_rep(wl, i, tracer)
                signal.setitimer(signal.ITIMER_REAL, 0)
                seen_rss = sum(vmhwm_mb(p) for p in ray_workers("ray::_SeenShardImpl"))
                rep.observed = wl.observe(res, out)
            except Exception as e:  # noqa: BLE001 - a failed rep is data
                reps.append(_failed_rep(e))
                break
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            reps.append(rep)
            if tracer is not None:
                traced_meta.append((rep, res, out, e0, time.time(), seen_rss, tracer))
            elapsed = time.perf_counter() - window0
            if args.trace and i < 1:
                continue
            if elapsed + rep.setup_s + rep.wall_s > args.seconds:
                break
            if time.perf_counter() - t0 > HARD_LIMIT_S / 2:
                break

        # ---- checks, outside the timed region and outside setup_s;
        # then the per-layer numbers of the traced reps
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            _check_reps(args, wl, reps, info)
            if traced_meta:
                # task events reach the GCS about once a second
                time.sleep(max(0.0, traced_meta[-1][4] + 1.5 - time.time()))
                events = ray.timeline()
                for rep, res, out, e0, e1, seen_rss, tracer in traced_meta:
                    spans = task_spans(events, e0, e1)
                    rep.layers = wl.layers(res, rep.wall_s, spans, tracer, out, seen_rss)
                replay = wl.replay(traced_meta[-1][2])
                _write_spans([m[-1] for m in traced_meta], args)
        except Exception as e:  # noqa: BLE001 - what could not be checked failed
            for rep in reps:
                rep.error = rep.error or f"checks: {type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if wl is not None:
            try:
                wl.shutdown()
            except Exception as e:  # noqa: BLE001 - teardown goes on
                print(f"perfbench: workload shutdown: {e}", file=sys.stderr)
        stop_ray(temp_dir)
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in reps if r.error is None]
    info["reps"] = [
        {"wall_s": r.wall_s, "setup_s": r.setup_s, "items": r.items, "traced": r.traced,
         "observed": r.observed, "error": r.error}
        for r in reps
    ]
    untraced = [r for r in good if not r.traced]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = [r for r in good if r.traced]
        values = (
            per_layer_values(wl, traced, untraced, replay, names)
            if traced and untraced
            else {n: 0.0 for n in names}
        )
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": session_setup_s + median([r.setup_s for r in good]),
            "items_per_s": median([r.items / r.wall_s for r in untraced]),
            "sink_rows_per_s": median([r.sink_rows / r.wall_s for r in untraced]),
            "wall_s": median([r.wall_s for r in untraced]),
            "peak_rss_mb": median([r.rss_mb for r in untraced]),
        }
    result = {
        "correct": bool(reps) and len(good) == len(reps),
        "attempted": max(len(reps), 1),
        "failed": len(reps) - len(good) if reps else 1,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    return result, info


def _check_reps(args, wl, reps: list, info: dict) -> None:
    """Compare every measured rep's output with the expected values."""
    from checks import compare

    if not any(r.error is None for r in reps):
        return
    if args.seed == DEFAULT_SEED or not wl.seeded:
        expected = load_expected(args.expect, args.workload, args.size)
    else:
        expected = wl.expected()
    sample = wl.extra_mismatches()
    info["feature_sample"] = sample
    for rep in reps:
        bad = compare(rep.observed, expected) + sample
        if rep.error is None and bad:
            rep.error = "output check: " + "; ".join(bad)


def _write_spans(tracers: list, args) -> None:
    """The traced run's in-process spans, written once at the end."""
    out = ROOT / ".pbw" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(
        [{"spans": t.spans, "materialized": t.materialized} for t in tracers], indent=0
    ))


def derive_expected(path: Path) -> None:
    """Expected outputs for the default seed, from the oracles alone
    (no Ray): the crawl digests from oracle_sim.simulate, the feature
    digest from a single-process kernel replay of the oracle's payload
    rows, and q105's value hash from its DuckDB oracle_sql."""
    import tempfile

    import pyarrow.parquet as pq

    from checks import derive_features_digest, oracle_crawl, oracle_q105
    from workloads import RESUME_PREFIX_WAVES, curate_documents, links_config, multimodal_config

    out: dict = {
        "seed": DEFAULT_SEED,
        "derived_by": "python3 perfbench/run.py --derive-expected",
        "workloads": {},
    }
    for size in ("full", "toy"):
        toy = size == "toy"
        mm = multimodal_config(DEFAULT_SEED, toy)
        exp = oracle_crawl(mm)
        exp["features_digest"] = derive_features_digest(mm)
        out["workloads"].setdefault("crawl-multimodal", {})[size] = exp
        links = links_config(DEFAULT_SEED, toy)
        out["workloads"].setdefault("crawl-links", {})[size] = oracle_crawl(links)
        out["workloads"].setdefault("crawl-resume", {})[size] = oracle_crawl(
            links, resume_from=RESUME_PREFIX_WAVES
        )
        with tempfile.TemporaryDirectory(dir=ROOT / ".pbw") as d:
            pq.write_table(curate_documents(toy), Path(d) / "documents.parquet")
            out["workloads"].setdefault("curate", {})[size] = oracle_q105(Path(d))
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT))
    try:
        import cs_insights_crawler_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the program is missing from {ROOT}: {e}", file=sys.stderr)
        return 2
    if args.derive_expected:
        (ROOT / ".pbw").mkdir(exist_ok=True)
        derive_expected(args.expect)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start_watchdog()
    # keep stdout for the two result lines: library output goes to stderr
    sys.stdout.flush()
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        result, info = run(args, spec)
    finally:
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
