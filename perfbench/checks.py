"""Output checks: digests of what a run wrote, and the same digests
derived from the independent oracles (``pipelines.oracle_sim`` for the
crawl, the DuckDB ``oracle_sql`` entry for q105).

A check compares a dict of observed values with a dict of expected
values; every expected key is checked, so an expectation with a wrong
value makes the run fail.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LOG_COLS = ["fetch_seq", "url_canon", "depth", "status"]
PAYLOAD_CORE = ["image_id", "w", "h", "fmt", "caption", "phash"]


def _sha1_lines(lines) -> str:
    h = hashlib.sha1()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def log_digest(rows) -> str:
    """rows: (fetch_seq, url_canon, depth, status) in fetch order."""
    return _sha1_lines(f"{s}\t{u}\t{d}\t{st}" for s, u, d, st in rows)


def payload_digest(rows) -> str:
    """rows: PAYLOAD_CORE tuples sorted by image_id."""
    return _sha1_lines("\t".join(str(v) for v in r) for r in rows)


def _read_waves(out_dir: Path, sub: str, columns: list[str]) -> pa.Table | None:
    files = sorted((out_dir / sub).glob("wave=*/*.parquet"))
    tabs = [pq.read_table(f, columns=columns) for f in files]
    tabs = [t for t in tabs if t.num_rows]
    return pa.concat_tables(tabs) if tabs else None


def feature_columns() -> list[str]:
    from cs_insights_crawler_ray.functions.imagefeat import FEATURE_COLUMNS

    return [name for name, _ in FEATURE_COLUMNS]


def features_digest(payload: pa.Table) -> str:
    """Digest of the feature and embedding columns, rows by image_id."""
    payload = payload.sort_by("image_id")
    h = hashlib.sha1()
    h.update("\n".join(payload["image_id"].to_pylist()).encode())
    for name in feature_columns():
        h.update(np.asarray(payload[name].to_numpy()).tobytes())
    emb = payload["embedding"].combine_chunks()
    h.update(np.asarray(emb.flatten().to_numpy(), np.float32).tobytes())
    return h.hexdigest()


def observe_crawl(out_dir: Path, seen_stats: list[dict], extract: bool) -> dict:
    """Digests of a finished crawl's log, payload sink and seen set."""
    obs: dict = {"seen": int(sum(s["exact_size"] for s in seen_stats))}
    log = _read_waves(out_dir, "crawl_log", LOG_COLS)
    if log is None:
        obs.update(log_rows=0, log_digest=log_digest([]))
    else:
        log = log.sort_by("fetch_seq")
        obs["log_rows"] = log.num_rows
        obs["log_digest"] = log_digest(zip(*(log[c].to_pylist() for c in LOG_COLS)))
    cols = PAYLOAD_CORE + (feature_columns() + ["embedding"] if extract else [])
    pay = _read_waves(out_dir, "payload", cols)
    if pay is None:
        obs.update(payload_rows=0, payload_digest=payload_digest([]))
        return obs
    pay = pay.sort_by("image_id")
    obs["payload_rows"] = pay.num_rows
    obs["payload_digest"] = payload_digest(
        zip(*(pay[c].to_pylist() for c in PAYLOAD_CORE))
    )
    if extract:
        obs["features_digest"] = features_digest(pay)
    return obs


def oracle_crawl(cfg, resume_from: int | None = None) -> dict:
    """The same digests from the sequential simulator.  With
    ``resume_from`` = K, also the counts a resume from a committed
    K-wave prefix must produce."""
    from cs_insights_crawler_ray.pipelines.oracle_sim import simulate

    res = simulate(cfg)
    payload = [
        tuple(res.payload[k][c] for c in PAYLOAD_CORE) for k in sorted(res.payload)
    ]
    exp = {
        "seen": len(res.seen),
        "log_rows": len(res.crawl_log),
        "log_digest": log_digest(sorted(res.crawl_log)),
        "payload_rows": len(payload),
        "payload_digest": payload_digest(payload),
    }
    if resume_from is not None:
        waves = sorted(w for w in res.by_wave if w >= resume_from)
        exp["resumed_waves"] = waves
        exp["resumed_fetched"] = sum(res.by_wave[w]["admitted"] for w in waves)
    return exp


def kernel_features(store, url_of: dict[str, str], ids: list[str]) -> pa.Table:
    """image_id plus feature and embedding columns, typed as the payload
    sink types them, computed in this process through the public
    kernels from each row's page."""
    from cs_insights_crawler_ray.fixtures.content_store import fetch_page
    from cs_insights_crawler_ray.functions.imagecodec import decode_image
    from cs_insights_crawler_ray.functions.imageembed import get_model
    from cs_insights_crawler_ray.functions.imagefeat import FEATURE_COLUMNS, extract_features

    model = get_model()
    cols: dict[str, list] = {name: [] for name, _ in FEATURE_COLUMNS}
    embs = []
    for image_id in ids:
        pixels, _ = decode_image(fetch_page(store, url_of[image_id])["bytes"])
        feats = extract_features(pixels)
        for name, _ in FEATURE_COLUMNS:
            cols[name].append(feats[name])
        embs.append(model.embed(pixels).tolist())
    table = {"image_id": pa.array(ids, pa.string())}
    for name, typ in FEATURE_COLUMNS:
        table[name] = pa.array(cols[name], pa.int64() if typ == "int64" else pa.float64())
    table["embedding"] = pa.array(embs, pa.list_(pa.float32()))
    return pa.table(table)


def derive_features_digest(cfg) -> str:
    """features_digest of the oracle's payload rows recomputed through
    the kernels: the recorded value for the default seed, since the
    feature columns have no oracle of their own."""
    from cs_insights_crawler_ray.functions.urls import url_sha1
    from cs_insights_crawler_ray.pipelines.oracle_sim import simulate

    res = simulate(cfg)
    url_of = {url_sha1(u).hex(): u for _, u, _, _ in res.crawl_log}
    return features_digest(kernel_features(cfg.store, url_of, sorted(res.payload)))


def feature_sample_mismatches(cfg, out_dir: Path, k: int = 8) -> list[str]:
    """Compare ``k`` payload rows' features and embeddings, as the
    distributed run wrote them, with the kernels' values (any seed)."""
    from cs_insights_crawler_ray.functions.urls import url_sha1

    log = _read_waves(out_dir, "crawl_log", ["url_canon"])
    pay = _read_waves(out_dir, "payload", ["image_id"] + feature_columns() + ["embedding"])
    if log is None or pay is None:
        return ["feature sample: no payload rows"]
    url_of = {url_sha1(u).hex(): u for u in log["url_canon"].to_pylist()}
    pay = pay.sort_by("image_id").slice(0, k)
    want = kernel_features(cfg.store, url_of, pay["image_id"].to_pylist())
    if features_digest(pay) != features_digest(want):
        return [f"feature sample: the first {k} payload rows differ from the kernels"]
    return []


def value_hash(table: pa.Table) -> str:
    """Order-insensitive value hash of an all-integer result table."""
    df = table.to_pandas()
    df = df[sorted(df.columns)].astype("int64")
    rows = sorted(map(str, df.itertuples(index=False, name=None)))
    return hashlib.md5("\n".join(rows).encode()).hexdigest()


def oracle_q105(docs_dir: Path) -> dict:
    """q105's DuckDB oracle over the generated documents table."""
    import duckdb

    import __ray_entry__ as entry

    # oracle_sql() resolves artifact globs for other entries, which
    # builds their artifacts under /tmp; q105's SQL uses none of them
    entry._crawl_payload_glob = lambda: "unused"
    entry._artifact_glob = lambda kind: "unused"
    sql = entry.oracle_sql()["q105_curation_pipeline"]
    con = duckdb.connect()
    try:
        con.sql(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{docs_dir / 'documents.parquet'}')"
        )
        result = con.sql(sql).arrow()
    finally:
        con.close()
    return {"rows": result.num_rows, "value_hash": value_hash(result)}


def compare(observed: dict, expected: dict) -> list[str]:
    return [
        f"{k}: expected {expected[k]!r}, got {observed.get(k)!r}"
        for k in sorted(expected)
        if observed.get(k) != expected[k]
    ]
