"""Text-analysis kernels for the training-data pipeline surface.

Language-ID (n-gram heuristic), quality scoring, token counting, and
rolling-hash document fingerprinting — all pure, deterministic, and
vectorized over pandas/numpy batches (the string kernels need pandas
str methods; the stage passes ``batch_format="pandas"``).

These are new surfaces relative to the reference (SURVEY.md §2 "beyond
the reference") but reuse its per-record transform shape
(FilterFunction, reference ``types.py:71``).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

# ASCII classes pinned EXPLICITLY (ADVICE r02): the SQL oracles run
# DuckDB/RE2 where \w = [0-9A-Za-z_] and \s = [\t\n\f\r ], while
# Python's re defaults to Unicode (\w matches é/汉, \s matches \x0b
# and U+00A0).  The kernels must tokenize identically on NON-ASCII
# text too, so the classes are spelled out rather than relying on a
# documents-are-ASCII invariant.
_WORD_RE = re.compile(r"[0-9A-Za-z_]+")
_ASCII_SPACE = "\t\n\f\r "  # RE2's \s

# Tiny per-language stopword profiles for the n-gram/stopword
# heuristic language ID — public-knowledge word lists.
_LANG_PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to a in is it you that was for on are with".split()),
    "de": frozenset("der die und in den von zu das mit sich des auf ist nicht".split()),
    "fr": frozenset("le de la et les des en un une du est que pour dans".split()),
    "es": frozenset("de la que el en y a los del se las un por con".split()),
    "zh": frozenset(),  # handled by the CJK codepoint-ratio rule below
}


def token_counts(texts: pd.Series) -> pd.Series:
    """Whitespace token count = number of ``\\S+`` runs (matches SQL
    ``array_length(regexp_extract_all(text, '\\S+'))``).

    Edge cases aligned explicitly with the oracle (ADVICE r01): empty
    and whitespace-only text count 0 on both sides, and tabs/newlines
    are token separators on both sides (DuckDB ``trim()`` only strips
    spaces, so the previous trim+split formulation diverged on
    tab/newline-padded documents)."""
    return texts.str.count(rf"[^{_ASCII_SPACE}]+").astype("int64")


def bpe_ish_token_counts(texts: pd.Series) -> pd.Series:
    """Sub-word-ish token count: words + digits + punctuation runs via
    a GPT-2-style pre-tokenizer regex (public pattern family), ASCII
    classes pinned like _WORD_RE.  Not SQL-expressible — the driver
    oracle is an independent hand-rolled character scanner
    (pipelines/oracle_artifacts._naive_bpeish_count)."""
    pat = re.compile(rf"[0-9A-Za-z_]+|[^0-9A-Za-z_{_ASCII_SPACE}]+")
    return texts.map(lambda s: len(pat.findall(s))).astype("int64")


def _floor6(s) -> pd.Series:
    """Truncate to 6 decimals via floor(x*1e6)/1e6 — unlike round(),
    identical between numpy (banker's) and DuckDB (half-away) because
    there is no tie to break; both sides run the same IEEE double ops.
    (A ratio like 1/128 = 0.0078125 rounds differently under the two
    conventions — floor sidesteps the whole class.)"""
    return pd.Series(np.floor(np.asarray(s, dtype=np.float64) * 1e6) / 1e6)


def stopword_hits(words: pd.Series, stop: frozenset) -> np.ndarray:
    """Per-row count of words in ``stop`` over a Series of word lists:
    one positional explode, one hashed isin, one bincount — no per-row
    Python loop.  A row with no words counts 0 (its explode NaN never
    matches)."""
    flat = words.reset_index(drop=True).explode()
    hit = flat.isin(stop).to_numpy()
    return np.bincount(
        flat.index.to_numpy(np.int64)[hit], minlength=len(words)
    ).astype(np.int64)


def quality_scores(texts: pd.Series) -> pd.DataFrame:
    """Heuristic doc-quality features: length, punctuation ratio,
    stopword(en) ratio, mean word length.  Ratios are floor-truncated
    to 6 decimals (see _floor6) so the q14 SQL oracle hash-matches."""
    n_chars = texts.str.len().astype("int64")
    words = texts.str.lower().str.findall(_WORD_RE)
    n_words = words.str.len().clip(lower=1)
    stop_ratio = stopword_hits(words, _LANG_PROFILES["en"]) / n_words
    punct = texts.str.count(rf"[^0-9A-Za-z_{_ASCII_SPACE}]").astype("int64")
    mean_wlen = words.map(lambda ws: float(np.mean([len(w) for w in ws])) if ws else 0.0)
    return pd.DataFrame(
        {
            "n_chars": n_chars,
            "punct_ratio": _floor6((punct / n_chars.clip(lower=1)).to_numpy()),
            "stop_ratio_en": _floor6(stop_ratio.to_numpy()),
            "mean_word_len": _floor6(mean_wlen.to_numpy()),
        }
    )


def lang_id(texts: pd.Series) -> pd.Series:
    """Heuristic language ID: CJK codepoint ratio → zh, else the
    stopword profile with the highest hit ratio, ties broken by fixed
    profile order (deterministic)."""

    def _one(s: str) -> str:
        if not s:
            return "und"
        cjk = sum(1 for ch in s if "一" <= ch <= "鿿")
        if cjk / max(1, len(s)) > 0.05:
            return "zh"
        words = [w.lower() for w in _WORD_RE.findall(s)]
        if not words:
            return "und"
        best, best_hits = "und", 0
        for lang in ("en", "de", "fr", "es"):
            hits = sum(w in _LANG_PROFILES[lang] for w in words)
            if hits > best_hits:
                best, best_hits = lang, hits
        return best

    return texts.map(_one)


def fingerprint64(texts: pd.Series, window: int = 8) -> pd.Series:
    """Rolling polynomial hash fingerprint (Karp-Rabin family): the
    min of 64-bit window hashes over the token stream — a winnowing-
    style document fingerprint, stable under local edits outside the
    minimizing window.

    Batch-vectorized (bit-identical to the per-doc form — q20p's
    pure-Python-int parity gate and the 'naive_fingerprint' oracle
    artifact both assert it): FNV-1a only touches the batch's UNIQUE
    tokens (byte-position loop, ~max-token-length vectorized steps),
    window hashes come from one sliding_window_view multiply over the
    flat token-hash stream, and per-doc minima are masked reduceat
    segments — the previous per-window Python loop was the q20 stage
    bottleneck."""
    import itertools

    B = np.uint64(1099511628211)  # FNV prime as the base
    tok_lists = [t.split() for t in texts]
    counts = np.fromiter((len(t) for t in tok_lists), np.int64, count=len(tok_lists))
    out = np.zeros(len(texts), dtype=np.uint64)
    flat = list(itertools.chain.from_iterable(tok_lists))
    if flat:
        uniq, inv = np.unique(np.asarray(flat, dtype=object), return_inverse=True)
        th = _fnv1a64_batch(uniq)[inv]  # flat per-token hashes
        with np.errstate(over="ignore"):
            starts = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            long = counts > window
            if long.any():
                # window hash over the whole flat stream, then invalidate
                # (set to uint64 max) windows that cross a doc boundary or
                # belong to a short doc, so masked reduceat mins per doc
                powers = np.power(B, np.arange(window, dtype=np.uint64))[::-1]
                sw = np.lib.stride_tricks.sliding_window_view(th, window)
                vals = (sw * powers).sum(axis=1, dtype=np.uint64)
                valid = np.zeros(len(vals), dtype=bool)
                for s, c in zip(starts[long], counts[long]):
                    valid[s : s + c - window + 1] = True
                vals = np.where(valid, vals, np.uint64(0xFFFFFFFFFFFFFFFF))
                seg = np.minimum(starts[long], len(vals) - 1)
                out[long] = np.minimum.reduceat(vals, seg)
            # short docs (1 <= n_tokens <= window): full-doc polynomial
            # fold, grouped by length so each group is one dense matmul
            for L in np.unique(counts[(counts > 0) & ~long]):
                docs = np.flatnonzero(counts == L)
                idx = starts[docs][:, None] + np.arange(L)[None, :]
                pw = np.power(B, np.arange(L, dtype=np.uint64))[::-1]
                out[docs] = (th[idx] * pw).sum(axis=1, dtype=np.uint64)
    return pd.Series(out.astype(np.int64), index=texts.index)


def winnow_select(
    texts: pd.Series, k: int = 4, w: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Winnowing fingerprint selection (Schleimer, Wilkerson, Aiken,
    SIGMOD'03 — the MOSS local fingerprinting scheme): over each
    document's stream of ``k``-token rolling-polynomial gram hashes,
    every window of ``w`` consecutive gram hashes selects its minimum
    (rightmost occurrence on ties); the document's fingerprint set is
    the DISTINCT selected hash values.  Guarantee: any shared token
    run of length >= k + w - 1 yields a shared fingerprint.

    Returns flat ``(row_index, fingerprint_int64)`` pairs, distinct
    per row.  Edge semantics (mirrored by textops._naive_winnow):
    0 tokens -> no fingerprints; 1 <= tokens < k -> the whole-doc
    polynomial fold is the lone fingerprint; 1 <= n_grams <= w ->
    one truncated window over all grams.

    Batch-vectorized like fingerprint64: FNV-1a over UNIQUE tokens,
    gram hashes from one sliding_window_view over the flat token-hash
    stream, window argmins from one sliding_window_view over the flat
    gram stream (reversed-column argmin = rightmost min); only the
    rare short-gram docs take a per-doc fallback."""
    import itertools

    B = np.uint64(1099511628211)
    tok_lists = [t.split() for t in texts]
    counts = np.fromiter(
        (len(t) for t in tok_lists), np.int64, count=len(tok_lists)
    )
    rows_out: list[np.ndarray] = []
    fps_out: list[np.ndarray] = []
    flat = list(itertools.chain.from_iterable(tok_lists))
    if not flat:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    uniq, inv = np.unique(np.asarray(flat, dtype=object), return_inverse=True)
    th = _fnv1a64_batch(uniq)[inv]
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    with np.errstate(over="ignore"):
        # tiny docs (1 <= tokens < k): whole-doc fold, grouped by length
        tiny = (counts > 0) & (counts < k)
        for L in np.unique(counts[tiny]):
            docs = np.flatnonzero(counts == L)
            idx = starts[docs][:, None] + np.arange(L)[None, :]
            pw = np.power(B, np.arange(L, dtype=np.uint64))[::-1]
            rows_out.append(docs)
            fps_out.append((th[idx] * pw).sum(axis=1, dtype=np.uint64))
        if counts.max() >= k:
            pk = np.power(B, np.arange(k, dtype=np.uint64))[::-1]
            G = (np.lib.stride_tricks.sliding_window_view(th, k) * pk).sum(
                axis=1, dtype=np.uint64
            )  # flat gram stream; doc d's grams at starts[d]..+ng[d]
            ng = np.maximum(counts - k + 1, 0)
            # short-gram docs (1 <= ng <= w): one truncated window
            shortg = (ng >= 1) & (ng <= w) & (counts >= k)
            for d in np.flatnonzero(shortg):
                seg = G[starts[d] : starts[d] + ng[d]]
                pos = len(seg) - 1 - int(np.argmin(seg[::-1]))
                rows_out.append(np.array([d], np.int64))
                fps_out.append(seg[pos : pos + 1])
            longg = np.flatnonzero(ng > w)
            if longg.size and len(G) >= w:
                sww = np.lib.stride_tricks.sliding_window_view(G, w)
                # rightmost min: argmin over reversed columns
                sel_off = w - 1 - np.argmin(sww[:, ::-1], axis=1).astype(
                    np.int64
                )
                qpos = np.concatenate(
                    [
                        np.arange(starts[d], starts[d] + ng[d] - w + 1)
                        for d in longg
                    ]
                )
                qdoc = np.repeat(longg, (ng[longg] - w + 1))
                spos = qpos + sel_off[qpos]
                vals = G[spos]
                order = np.lexsort((vals, qdoc))
                sd, sv = qdoc[order], vals[order]
                keep = np.ones(len(sd), bool)
                keep[1:] = (sd[1:] != sd[:-1]) | (sv[1:] != sv[:-1])
                rows_out.append(sd[keep])
                fps_out.append(sv[keep])
    if not rows_out:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    rows = np.concatenate(rows_out).astype(np.int64)
    fps = np.concatenate(fps_out).astype(np.uint64).view(np.int64)
    return rows, fps


def _fnv1a64_batch(tokens: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a 64 over an object array of strings: one
    byte-concat + offsets, then one vectorized step per byte POSITION
    (max token length iterations, each over all still-live tokens)."""
    enc = [t.encode("utf-8") for t in tokens]
    lens = np.fromiter((len(b) for b in enc), np.int64, count=len(enc))
    if len(enc) == 0:
        return np.zeros(0, dtype=np.uint64)
    buf = np.frombuffer(b"".join(enc), dtype=np.uint8)
    offs = np.zeros(len(enc), dtype=np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    h = np.full(len(enc), np.uint64(14695981039346656037))
    prime = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for j in range(int(lens.max()) if len(lens) else 0):
            live = lens > j
            h[live] = (h[live] ^ buf[offs[live] + j].astype(np.uint64)) * prime
    return h

