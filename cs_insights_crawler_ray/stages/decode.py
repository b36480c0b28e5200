"""Decode-verify stage — stateless ``map_batches`` producing payload
rows in the input_hint schema.

Verify-on-ingest is the analog of the reference's md5
local-vs-remote hard check (``dblpclient.py:437-451``), upgraded per
BASELINE.json: decode the image, compare against the ground-truth
pixels regenerated from the URL (pure function of the seed), and gate
lossless formats on exact equality / lossy formats on PSNR >= 40 dB.
Failures are poison rows (``ok=False``), filtered to a quarantine
count, never exceptions.

Batch sizing: rows carry encoded image bytes, so the caller passes a
small ``batch_size`` (payload bytes dominate block size — SURVEY.md
§7.5 "wide binary rows").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..fixtures.content_store import ContentStoreConfig, page_pixels
from ..functions.imagecodec import LOSSY, decode_image, phash64, psnr
from ..functions.imagefeat import FEATURE_COLUMNS, extract_features
from ..functions.imageembed import EMBED_DIM, get_model

PSNR_GATE_DB = 40.0


class DecodeVerifyStage:
    def __init__(self, cfg: ContentStoreConfig, extract: bool = False):
        self.cfg = cfg
        self.extract = extract

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, shas, blobs, statuses = (
            batch[c].to_numpy(zero_copy_only=False)
            for c in ("url_canon", "url_sha1", "bytes", "status")
        )
        ids, ws, hs, fmts, phashes, oks = [], [], [], [], [], []
        feats: dict[str, list] = {name: [] for name, _ in FEATURE_COLUMNS} if self.extract else {}
        embeds: list = []
        model = get_model() if self.extract else None  # load-once-per-process
        for u, sha, blob, st in zip(urls, shas, blobs, statuses):
            ids.append(sha.hex())
            pixels = None
            if st == "200":
                try:
                    pixels, fmt = decode_image(blob)
                except ValueError:
                    pixels = None
            if pixels is None:
                ws.append(0); hs.append(0); fmts.append(""); phashes.append(0); oks.append(False)
                if self.extract:
                    for name, _ in FEATURE_COLUMNS:
                        feats[name].append(0)
                    embeds.append([0.0] * EMBED_DIM)
                continue
            truth = page_pixels(self.cfg, u)
            if fmt in LOSSY:
                ok = psnr(pixels, truth) >= PSNR_GATE_DB
            else:
                ok = pixels.shape == truth.shape and bool(np.array_equal(pixels, truth))
            h, w = pixels.shape[:2]
            ws.append(w); hs.append(h); fmts.append(fmt)
            phashes.append(phash64(pixels)); oks.append(ok)
            if self.extract:
                f = extract_features(pixels)
                for name, _ in FEATURE_COLUMNS:
                    feats[name].append(f[name])
                embeds.append(model.embed(pixels).tolist())
        cols = {
            "image_id": pa.array(ids, pa.string()),
            "bytes": batch["bytes"],
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": batch["caption"],
            "phash": pa.array(phashes, pa.int64()),
            "ok": pa.array(oks, pa.bool_()),
        }
        if self.extract:
            for name, typ in FEATURE_COLUMNS:
                cols[name] = pa.array(
                    feats[name], pa.int64() if typ == "int64" else pa.float64()
                )
            cols["embedding"] = pa.array(embeds, pa.list_(pa.float32()))
        return pa.table(cols)


_DECODE_CACHE: dict[tuple, DecodeVerifyStage] = {}


def decode_verify_task(
    batch: pa.Table, cfg: ContentStoreConfig, extract: bool = False
) -> pa.Table:
    """Stateless-TASK wrapper with per-process cache (see
    stages/fetch.py rationale)."""
    key = (cfg, extract)
    stage = _DECODE_CACHE.get(key)
    if stage is None:
        stage = _DECODE_CACHE.setdefault(key, DecodeVerifyStage(cfg, extract))
    return stage(batch)
