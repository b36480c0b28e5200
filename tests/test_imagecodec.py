from __future__ import annotations

import numpy as np
import pytest

from cs_insights_crawler_ray.functions.imagecodec import (
    decode_image,
    encode_image,
    hamming64,
    phash64,
    psnr,
)


def _img(seed=0, h=40, w=48):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_png_roundtrip_lossless():
    img = _img(1)
    pix, fmt = decode_image(encode_image(img, "png"))
    assert fmt == "png"
    assert np.array_equal(pix, img)
    assert psnr(pix, img) == float("inf")


@pytest.mark.parametrize("fmt", ["jpeg", "webp"])
def test_lossy_psnr_above_gate(fmt):
    img = _img(2)
    pix, got = decode_image(encode_image(img, fmt))
    assert got == fmt
    assert pix.shape == img.shape
    assert 40.0 <= psnr(pix, img) < float("inf")


def test_corrupt_payload_raises():
    data = bytearray(encode_image(_img(3), "png"))
    with pytest.raises(ValueError):
        decode_image(bytes(data[:5]))
    data[0] = 0
    with pytest.raises(ValueError):
        decode_image(bytes(data))


def test_phash_near_dup_property():
    img = _img(4, 64, 64)
    lossy, _ = decode_image(encode_image(img, "jpeg"))
    other = _img(5, 64, 64)
    h0, h1, h2 = phash64(img), phash64(lossy), phash64(other)
    assert hamming64(h0, h1) <= 4          # re-encode = near dup
    assert hamming64(h0, h2) > 10          # unrelated image = far
    assert -(2**63) <= h0 < 2**63          # fits Arrow int64


def test_corrupt_zlib_body_raises_valueerror():
    """A well-headered blob with a bit-flipped zlib body must raise
    ValueError (zlib.error is NOT one) so the decode stage's
    poison-row handler catches it instead of the task dying."""
    data = bytearray(encode_image(_img(5), "png"))
    data[20] ^= 0xFF  # corrupt inside the compressed body
    with pytest.raises(ValueError):
        decode_image(bytes(data))


def test_psnr_no_int32_overflow_on_large_images():
    """SSE must accumulate in int64: a 257x257 max-diff pair has
    SSE ~ 1.3e10 > 2^31 — an int32 wrap yielded a bogus huge PSNR
    that let corrupt images pass the 40 dB verify gate."""
    import numpy as np

    from cs_insights_crawler_ray.functions.imagecodec import psnr

    a = np.zeros((257, 257, 3), np.uint8)
    b = np.full((257, 257, 3), 255, np.uint8)
    assert psnr(a, b) < 1.0  # exact: 10*log10(255^2/255^2) == 0


def test_zero_dimension_blob_is_corrupt():
    """A crafted blob with w=0/h=0 and a matching empty body must be
    rejected as corrupt (it previously decoded to a (0,0,3) array and
    ZeroDivisionError-crashed the feature kernels in the fused task)."""
    import struct
    import zlib

    from cs_insights_crawler_ray.functions.imagecodec import MAGIC

    blob = MAGIC + struct.pack("<BHH", 0, 0, 0) + zlib.compress(b"")
    with pytest.raises(ValueError):
        decode_image(blob)


def test_embedder_tiny_images_finite_unit_norm():
    """Decodable tiny images (1x1 .. 14x14) must produce finite
    unit-norm embeddings via deterministic edge-padding — the conv
    stack previously raised or emitted all-NaN vectors below 15px."""
    import numpy as np

    from cs_insights_crawler_ray.functions.imageembed import get_model

    m = get_model()
    for side in (1, 2, 7, 14, 15, 16):
        px = np.full((side, side, 3), 128, np.uint8)
        v = m.embed(px)
        assert np.isfinite(v).all(), side
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-5, side


def test_embedder_skinny_and_large_rectangles():
    """The MIN_SIDE pad must apply AFTER the max-side pooling resize:
    a 20x200 image pools to 6x66 at f=3 (or 0xN pre-clamp) — pre-pad
    ordering left the original failure modes reachable for any image
    with long side > 96 and small short side."""
    import numpy as np

    from cs_insights_crawler_ray.functions.imageembed import get_model

    m = get_model()
    for h, w in [(20, 200), (200, 20), (32, 320), (16, 120), (1, 500), (500, 1)]:
        px = (np.arange(h * w * 3) % 251).astype(np.uint8).reshape(h, w, 3)
        v = m.embed(px)
        assert np.isfinite(v).all(), (h, w)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-4, (h, w)


# ---- bit-identity of the image reductions ------------------------------
# The formulas below are the original numpy-reduce forms of the three
# full-resolution reductions, frozen here as the reference: the kernels
# were rewritten for speed and must return the same bits.


def _ref_gray_pool(pixels, size):
    h, w = pixels.shape[:2]
    th, tw = (h // size) * size, (w // size) * size
    return (
        pixels[:th, :tw]
        .reshape(size, th // size, size, tw // size, 3)
        .mean(axis=(1, 3, 4), dtype=np.float32)
    )


def _ref_bits(bits):
    val = 0
    for b in bits[:64]:
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= 1 << 63 else val


def _ref_spectral_hash(gray, size):
    from cs_insights_crawler_ray.functions.imagefeat import resize_pool

    spec = np.abs(np.fft.fft2(resize_pool(gray.astype(np.float64), size)))[:8, :8]
    return _ref_bits((spec > np.median(spec[1:, 1:])).flatten())


def _ref_phash64(pixels):
    h, w = pixels.shape[:2]
    if h < 8 or w < 8:
        pixels = np.tile(pixels, (8, 8, 1))[: 8 * max(1, h), : 8 * max(1, w)]
    g = _ref_gray_pool(pixels, 8)
    return _ref_bits((g > g.mean()).flatten())


def _ref_resize_pool_u8(pixels, size):
    h, w = pixels.shape[:2]
    if h < size or w < size:
        pixels = np.tile(pixels, (size // h + 1, size // w + 1, 1))
    return _ref_gray_pool(pixels, size)


def _ref_embed(model, pixels):
    from cs_insights_crawler_ray.functions.imageembed import _MAX_SIDE, _MIN_SIDE, _STRIDE

    x = pixels.astype(np.float32) / 255.0
    f = max(1, int(np.ceil(max(x.shape[:2]) / _MAX_SIDE)))
    if f > 1:
        h, w = (x.shape[0] // f) * f, (x.shape[1] // f) * f
        h, w = max(h, f), max(w, f)
        x = np.pad(
            x,
            ((0, max(0, h - x.shape[0])), (0, max(0, w - x.shape[1])), (0, 0)),
            mode="edge",
        )[:h, :w]
        x = x.reshape(h // f, f, w // f, f, 3).mean(axis=(1, 3))
    if min(x.shape[:2]) < _MIN_SIDE:
        ph = max(0, _MIN_SIDE - x.shape[0])
        pw = max(0, _MIN_SIDE - x.shape[1])
        x = np.pad(x, ((0, ph), (0, pw), (0, 0)), mode="edge")
    for k in model.kernels:
        patches, oh, ow = model._im2col(np.ascontiguousarray(x), _STRIDE)
        y = patches @ k.T
        np.maximum(y, 0.0, out=y)
        x = y.reshape(oh, ow, k.shape[0])
    v = x.mean(axis=(0, 1))
    n = float(np.linalg.norm(v))
    return (v / n if n > 1e-12 else v).astype(np.float32)


_EDGE_SHAPES = [
    (1, 1), (1, 500), (500, 1), (2, 200), (20, 200), (7, 7), (15, 15),
    (96, 96), (97, 97), (320, 320), (1000, 900),
]


def _random_shapes(n=200, max_side=400, seed=7):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [tuple(int(v) for v in rng.integers(1, max_side + 1, size=2)) for _ in range(n)]


@pytest.mark.parametrize("shapes", [_EDGE_SHAPES, _random_shapes()], ids=["edges", "random200"])
def test_image_reductions_bit_identical_to_reference(shapes):
    from cs_insights_crawler_ray.functions.imageembed import get_model
    from cs_insights_crawler_ray.functions.imagefeat import resize_pool_u8, spectral_hash

    m = get_model()
    for i, (h, w) in enumerate(shapes):
        px = _img(1000 + i, h, w)
        assert phash64(px) == _ref_phash64(px), (h, w)
        gray = resize_pool_u8(px, 64)
        ref = _ref_resize_pool_u8(px, 64)
        assert gray.dtype == ref.dtype and gray.flags.c_contiguous, (h, w)
        assert np.array_equal(gray.view(np.uint32), ref.view(np.uint32)), (h, w)
        for s in (64, 32, 16):
            assert spectral_hash(gray, s) == _ref_spectral_hash(gray, s), (h, w, s)
        got, want = m.embed(px), _ref_embed(m, px)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (h, w)


def test_gray_pool_bit_identical_at_domain_edge():
    """gray_pool_u8's stated domain edge: 1,191 px at size 8 puts
    148 x 148 pixels of up to 255 in a block, a sum just below 2**24."""
    from cs_insights_crawler_ray.functions.imagecodec import gray_pool_u8

    rng = np.random.Generator(np.random.PCG64(3))
    for px in (
        np.full((1191, 1191, 3), 255, np.uint8),
        rng.integers(200, 256, size=(1191, 1191, 3), dtype=np.uint8),
    ):
        got, want = gray_pool_u8(px, 8), _ref_gray_pool(px, 8)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert phash64(px) == _ref_phash64(px)


def test_embedding_identical_alone_and_in_block():
    """An embedding is a pure function of its image: the same bits
    whether the image is embedded alone or as one row of a 256-row
    decode_verify_task block."""
    import pyarrow as pa

    from cs_insights_crawler_ray.fixtures.content_store import ContentStoreConfig, seed_urls
    from cs_insights_crawler_ray.functions.imageembed import get_model
    from cs_insights_crawler_ray.functions.urls import url_sha1
    from cs_insights_crawler_ray.stages.decode import decode_verify_task
    from cs_insights_crawler_ray.stages.fetch import fetch_task

    store = ContentStoreConfig(seed=11, n_hosts=32, img_min=8, img_max=200)
    urls = seed_urls(store, 256)
    assert len(urls) == 256
    batch = pa.table({
        "url_canon": pa.array(urls, pa.string()),
        "url_sha1": pa.array([url_sha1(u) for u in urls], pa.binary()),
    })
    fetched = fetch_task(batch, store)
    block = decode_verify_task(fetched, store, extract=True)
    m = get_model()
    embs = block["embedding"].to_pylist()
    n = 0
    for blob, st, emb in zip(fetched["bytes"].to_pylist(), fetched["status"].to_pylist(), embs):
        if st != "200":
            continue
        pixels, _ = decode_image(blob)
        alone = m.embed(pixels)
        assert np.array_equal(np.asarray(emb, np.float32).view(np.uint32), alone.view(np.uint32))
        n += 1
    assert n >= 200


# Run in a child process so that OpenBLAS reads OPENBLAS_CORETYPE and
# OPENBLAS_NUM_THREADS at load time.  argv: repo root, perfbench dir,
# the core to pin.  Prints one JSON line: the core numpy's OpenBLAS
# reports (None when its BLAS is not an OpenBLAS), its thread count, and
# the digest, which is computed only under the pinned core on one thread.
_PINNED_DIGEST_CHILD = """
import ctypes, json, sys
sys.path[:0] = sys.argv[1:3]
from numpy.core import _multiarray_umath
lib = ctypes.CDLL(_multiarray_umath.__file__)
core = threads = None
for suffix in ("64_", ""):
    get_core = getattr(lib, "openblas_get_corename" + suffix, None)
    if get_core is not None:
        get_core.restype = ctypes.c_char_p
        core = get_core().decode()
        threads = getattr(lib, "openblas_get_num_threads" + suffix)()
        break
digest = None
if core == sys.argv[3] and threads == 1:
    import checks, workloads
    digest = checks.derive_features_digest(workloads.multimodal_config(42, toy=True))
print(json.dumps({"core": core, "threads": threads, "digest": digest}))
"""


def test_toy_features_digest_matches_benchmark_record():
    """The feature and embedding bits of the benchmark's toy multimodal
    crawl, recomputed through the kernels without Ray, equal the digest
    recorded in perfbench/expected.json: kernel drift fails here before
    it fails the benchmark's output check.

    The embedding's conv products and norm run through numpy's BLAS,
    whose float32 bits depend on the sgemm kernel the library picks for
    the CPU and on how many threads split the work.  The record holds
    the values of OpenBLAS's Prescott kernel on one BLAS thread (the
    benchmark's Ray workers each run one BLAS thread), so the replay
    runs in a child process with OPENBLAS_CORETYPE=Prescott and
    OPENBLAS_NUM_THREADS=1, which confirms both before it hashes.  The
    test skips where numpy's BLAS is not an OpenBLAS that runs the
    Prescott kernel when asked (another BLAS, or an OpenBLAS built
    without DYNAMIC_ARCH or for another CPU family)."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    bench = root / "perfbench"
    want = json.loads((bench / "expected.json").read_text())
    want = want["workloads"]["crawl-multimodal"]["toy"]["features_digest"]
    core = "Prescott"
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _PINNED_DIGEST_CHILD, str(root), str(bench), core],
        env=env, cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    if got["core"] is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS (no openblas_get_corename symbol)")
    if got["core"] != core:
        pytest.skip(
            f"numpy's OpenBLAS does not honour OPENBLAS_CORETYPE={core} "
            f"(reports core {got['core']})"
        )
    assert got["threads"] == 1, f"OPENBLAS_NUM_THREADS=1 gave {got['threads']} BLAS threads"
    assert got["digest"] == want, (
        f"features digest under OpenBLAS core {got['core']} on 1 thread is "
        f"{got['digest']}, expected.json records {want}"
    )
