#!/usr/bin/env python
"""Driver dress rehearsal: run every queries() entry at sf0.01 and
compare against oracle_sql() the way the driver does (row count +
schema + order-insensitive value hash). Run from the repo root."""
import hashlib
import os
import sys
import time
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import duckdb, numpy as np, pandas as pd
import ray
ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as em

SF = "/root/testdata/sf0.01"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()
con = duckdb.connect()
for t in TABLES:
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")

def to_pdf(res):
    return res.to_pandas() if hasattr(res, "to_pandas") else res

def value_hash(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if col.dtype == object:
            # per-VALUE bytes check (first-row-only missed a column
            # whose first value is null but later rows hold bytes)
            df[c] = col.map(lambda v: v.hex() if isinstance(v, bytes) else v)
        elif np.issubdtype(col.dtype, np.floating):
            # + 0.0 normalizes -0.0: str() renders '-0.0' != '0.0'
            # though they compare equal at the chosen 6-decimal
            # tolerance (a last-ulp negative would flake a MISMATCH)
            df[c] = col.round(6) + 0.0
    rows = sorted(map(str, df.itertuples(index=False, name=None)))
    return hashlib.md5("\n".join(rows).encode()).hexdigest()

d = to_pdf(em.entry())
print(f"entry(): {len(d)} rows OK")
qs, sqls = em.queries(), em.oracle_sql()
only = sys.argv[1:]  # optional substring filters: run matching entries only
fails = []
for name in sorted(qs):
    if only and not any(o in name for o in only):
        continue
    t0 = time.perf_counter()
    try:
        rdf = to_pdf(qs[name](SF))
        dt = time.perf_counter() - t0
        if name in sqls:
            odf = con.sql(sqls[name]).df()
            ok = (len(rdf) == len(odf)
                  and sorted(rdf.columns) == sorted(odf.columns)
                  and value_hash(rdf) == value_hash(odf))
            status = "MATCH" if ok else "MISMATCH"
            if not ok: fails.append(name)
        else:
            status = f"rows-only ({len(rdf)} rows)"
        print(f"{name:28s} {dt:6.1f}s  {status}")
    except Exception as e:
        fails.append(name)
        print(f"{name:28s} FAIL: {type(e).__name__}: {str(e)[:80]}")
print("FAILURES:", fails or "none")
ray.shutdown()
sys.exit(1 if fails else 0)
