"""q105 composed curation pipeline: broadcast vs forced-join path
identity, export layout, and internal consistency invariants."""

from __future__ import annotations

import glob

import pyarrow.parquet as papq

from cs_insights_crawler_ray.pipelines.curation import (
    CUR_BUDGET_FRAC,
    CUR_SHARDS,
    q105_curation_pipeline,
)

SF = "/root/testdata/sf0.001"


def test_q105_broadcast_and_join_paths_identical(ray_session, tmp_path):
    a = q105_curation_pipeline(SF, out_root=str(tmp_path / "a"))
    # broadcast_limit=0 forces the hash-join anti-filter AND the
    # join-form export semi-join
    b = q105_curation_pipeline(
        SF, out_root=str(tmp_path / "b"), broadcast_limit=0
    )
    assert a.to_pydict() == b.to_pydict()


def test_q105_export_layout_and_counters(ray_session, tmp_path):
    out = str(tmp_path / "x")
    t = q105_curation_pipeline(SF, out_root=out)
    d = t.to_pydict()
    # counters must equal a direct read of the written shards
    files = glob.glob(f"{out}/shard=*/**/*.parquet", recursive=True)
    assert files, "export wrote no shard files"
    got = {}
    for f in files:
        shard = int(f.split("shard=")[1].split("/")[0])
        tb = papq.read_table(f, columns=["doc_id", "n_tokens"])
        n, s = got.get(shard, (0, 0))
        got[shard] = (
            n + tb.num_rows,
            s + sum(tb["n_tokens"].to_pylist()),
        )
    for shard, nd, st in zip(d["shard"], d["n_docs"], d["sum_tokens"]):
        assert got[shard] == (nd, st)
    assert set(d["shard"]) <= set(range(CUR_SHARDS))
    # the budget cut is real: exported tokens fit the quarter budget
    import duckdb

    total = duckdb.sql(
        "SELECT sum(len(regexp_extract_all(text, '\\S+')))"
        f" FROM read_parquet('{SF}/documents.parquet')"
    ).fetchone()[0]
    assert sum(d["sum_tokens"]) <= int(total) // CUR_BUDGET_FRAC


def test_q105_survivors_pass_every_gate(ray_session, tmp_path):
    """Every exported doc must individually satisfy gates + dedup +
    decontamination — re-derive the predicates with DuckDB on the
    export."""
    import duckdb

    out = str(tmp_path / "y")
    q105_curation_pipeline(SF, out_root=out)
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW exp AS SELECT * FROM read_parquet('{out}/shard=*/*.parquet')"
    )
    con.sql(
        f"CREATE VIEW docs AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    bad = con.sql(
        """
        SELECT count(*) FROM exp e JOIN docs d USING (doc_id)
        WHERE NOT (d.lang = 'en' AND d.n_chars BETWEEN 120 AND 450)
           OR e.doc_id % 97 = 0
        """
    ).fetchone()[0]
    assert bad == 0


def test_q105_empty_survivor_set_returns_zero_rows(ray_session, tmp_path):
    """A corpus where no doc passes the language gate must yield the
    0-row counters table, not crash on the missing export dir."""
    import pandas as pd

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["ein kurzer text"] * 3,
            "lang": ["de"] * 3,
            "source": ["s"] * 3,
            "n_chars": [200] * 3,
        }
    )
    df.to_parquet(tmp_path / "documents.parquet")
    t = q105_curation_pipeline(
        str(tmp_path), out_root=str(tmp_path / "out")
    )
    assert t.num_rows == 0
    assert t.column_names == ["shard", "n_docs", "sum_tokens"]


def test_q105_resume_skips_recompute(ray_session, tmp_path):
    """A committed manifest of the identical config makes resume=True
    return the same counters WITHOUT touching the shard files; a
    config change (different sf_dir) rebuilds."""
    import glob
    import os

    out = str(tmp_path / "r")
    a = q105_curation_pipeline(SF, out_root=out)
    files = sorted(glob.glob(f"{out}/shard=*/**/*.parquet", recursive=True))
    mtimes = {f: os.path.getmtime(f) for f in files}
    b = q105_curation_pipeline(SF, out_root=out, resume=True)
    assert a.to_pydict() == b.to_pydict()
    assert {f: os.path.getmtime(f) for f in files} == mtimes  # untouched
    # config drift: same out_root, different input dir -> full rebuild
    import shutil

    alt = tmp_path / "alt_sf"
    alt.mkdir()
    shutil.copy(f"{SF}/documents.parquet", alt / "documents.parquet")
    c = q105_curation_pipeline(str(alt), out_root=out, resume=True)
    assert c.to_pydict() == a.to_pydict()  # same data, rebuilt
    files2 = sorted(glob.glob(f"{out}/shard=*/**/*.parquet", recursive=True))
    assert any(
        f not in mtimes or os.path.getmtime(f) != mtimes[f] for f in files2
    )
    # resume=False always rebuilds even with a valid manifest
    d = q105_curation_pipeline(str(alt), out_root=out)
    assert d.to_pydict() == a.to_pydict()


def test_q105_resume_rebuilds_after_a_shard_is_deleted(ray_session, tmp_path):
    """A deleted shard=K directory reads back as a shorter export, not
    an error: resume must compare the recomputed totals with the
    manifest's and rebuild, never return partial counters."""
    import os
    import shutil

    out = str(tmp_path / "r")
    a = q105_curation_pipeline(SF, out_root=out)
    shard_dirs = sorted(glob.glob(f"{out}/shard=*"))
    assert len(shard_dirs) > 1
    shutil.rmtree(shard_dirs[0])
    b = q105_curation_pipeline(SF, out_root=out, resume=True)
    assert b.to_pydict() == a.to_pydict()
    assert os.path.isdir(shard_dirs[0])  # rebuilt


def test_q105_export_config_covers_funnel_and_shingle_constants(monkeypatch):
    """Changing a gate or shingle constant changes the export
    fingerprint, so resume rebuilds instead of serving old counters."""
    from cs_insights_crawler_ray.pipelines import curation

    base = curation._export_config("sf")
    for name in ("FUNNEL_LEN_LO", "FUNNEL_LEN_HI", "FUNNEL_DIV_PPM", "_SHINGLE_N", "CUR_EVAL_MOD"):
        with monkeypatch.context() as mp:
            mp.setattr(curation, name, getattr(curation, name) + 1)
            assert curation._export_config("sf") != base, name
    assert curation._export_config("sf") == base
