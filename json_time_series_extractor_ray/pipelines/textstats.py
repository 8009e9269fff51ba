"""Text-analysis operators over the ``documents`` table.

Large-scale training-data plumbing: token counting, quality scoring,
language ID, and document fingerprinting — each a vectorized
``map_batches`` stage over zero-copy Arrow batches (no per-row Python in
the counting hot paths; per-doc work only where it is inherently
per-document and O(doc length)).

Every SQL-expressible operator registers a DuckDB oracle with identical
column names; ``lang_id`` is heuristic (rows-only check).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._util import round_half_away, segment_sum
from .registry import register

#: Fixed stopword list for quality scoring (kept tiny and mirrored
#: verbatim in the SQL oracle).
STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "on")

_WS = r"\s+"


def _read_documents(sf_dir: str, columns):
    import ray

    # Column pruning at the read: only the columns the operator touches
    # leave storage.
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=list(columns))


def _words_and_offsets(text_col):
    """Split a string column on whitespace -> (flat word array, offsets).

    Trim is the canonical RE2 ASCII trim (``_util.regex_trim``) so every
    word-splitting kernel agrees with the oracles' regexp_replace form on
    hostile whitespace (Unicode spaces, edge tabs/newlines)."""
    from ._util import regex_trim

    trimmed = regex_trim(text_col)
    words = pc.split_pattern_regex(trimmed, _WS)
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    return words.values, words.offsets.to_numpy(zero_copy_only=False), trimmed


#: BPE-ish pre-tokenization pattern (GPT-2-style split classes, simplified
#: to a subset both Python ``re`` and DuckDB's RE2 agree on): letter runs,
#: digit runs, and single non-alnum non-space marks.
BPE_SPLIT = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]"


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_chars, n_words, n_tokens_bpe, avg_word_len) — all Arrow
    kernels (``count_substring_regex`` for the BPE-ish token count)."""
    text = batch.column("text")
    _, offsets, trimmed = _words_and_offsets(text)
    n_words = np.diff(offsets).astype(np.int64)
    squeezed = pc.replace_substring_regex(trimmed, _WS, "")
    word_chars = pc.utf8_length(squeezed).to_numpy(zero_copy_only=False).astype(np.float64)
    n_bpe = pc.count_substring_regex(text, BPE_SPLIT).cast(pa.int64())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.utf8_length(text).cast(pa.int64()),
            "n_words": pa.array(n_words),
            "n_tokens_bpe": n_bpe,
            "avg_word_len": pa.array(round_half_away(word_chars / n_words, 6)),
        }
    )


def quality_batch(batch: pa.Table) -> pa.Table:
    """Quality-scoring stage.

    Signals: length saturation, stopword ratio, unique-word ratio.
    ``score = 0.4*min(n_words/50, 1) + 0.3*(1 - stop_ratio) + 0.3*uniq_ratio``.
    Stopword counts are a flat ``is_in`` + segmented sum (``np.add.reduceat``);
    unique counts are a vectorized drop-duplicates over (doc_idx, word).
    """
    import pandas as pd

    text = batch.column("text")
    flat_words, offsets, _ = _words_and_offsets(text)
    n_words = np.diff(offsets).astype(np.int64)
    n_docs = len(n_words)

    is_stop = pc.is_in(flat_words, value_set=pa.array(STOPWORDS)).to_numpy(
        zero_copy_only=False
    ).astype(np.float64)
    stop_counts = segment_sum(is_stop, offsets)

    doc_idx = np.repeat(np.arange(n_docs), n_words)
    uniq = (
        pd.DataFrame({"d": doc_idx, "w": flat_words.to_numpy(zero_copy_only=False)})
        .drop_duplicates()
        .groupby("d")
        .size()
        .reindex(range(n_docs), fill_value=0)
        .to_numpy()
        .astype(np.float64)
    )

    nw = n_words.astype(np.float64)
    stop_ratio = np.divide(stop_counts, nw, out=np.zeros(n_docs), where=nw > 0)
    uniq_ratio = np.divide(uniq, nw, out=np.zeros(n_docs), where=nw > 0)
    score = 0.4 * np.minimum(nw / 50.0, 1.0) + 0.3 * (1.0 - stop_ratio) + 0.3 * uniq_ratio
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_words": pa.array(n_words),
            "stop_ratio": pa.array(round_half_away(stop_ratio, 6)),
            "uniq_ratio": pa.array(round_half_away(uniq_ratio, 6)),
            "quality": pa.array(round_half_away(score, 6)),
        }
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Deterministic document fingerprint: md5 of whitespace-normalized text
    (hashlib C loop per doc) — the exact-dedup / lineage key."""
    from ._util import regex_trim

    norm = pc.replace_substring_regex(regex_trim(batch.column("text")), _WS, " ")
    fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm.to_pylist()]
    return pa.table(
        {"doc_id": batch.column("doc_id"), "fingerprint": pa.array(fps, pa.string())}
    )


# Per-language marker words for the n-gram/marker language-ID heuristic.
_LANG_MARKERS = {
    "en": ("the", "and", "of", "is", "a"),
    "es": ("el", "la", "de", "que", "y"),
    "de": ("der", "die", "und", "das", "ist"),
    "fr": ("le", "la", "et", "les", "des"),
    "zh": (),  # no latin markers -> fallback score 0
}
_LANG_ORDER = ("de", "en", "es", "fr", "zh")


class LangIdStage:
    """Heuristic language ID: per-language marker-word hit rate, ties broken
    by fixed language order.  Marker tables built once per actor."""

    def __init__(self):
        self.tables = {
            lang: pa.array(markers) if markers else None
            for lang, markers in _LANG_MARKERS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat_words, offsets, _ = _words_and_offsets(batch.column("text"))
        n_docs = len(offsets) - 1
        n_words = np.maximum(np.diff(offsets).astype(np.float64), 1.0)
        scores = np.zeros((len(_LANG_ORDER), n_docs))
        for li, lang in enumerate(_LANG_ORDER):
            table = self.tables[lang]
            if table is None:
                continue
            hits = pc.is_in(flat_words, value_set=table).to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            scores[li] = segment_sum(hits, offsets) / n_words
        best = np.argmax(scores, axis=0)  # argmax takes first on ties
        preds = [_LANG_ORDER[i] for i in best]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "pred_lang": pa.array(preds, pa.string())}
        )


# ---------------------------------------------------------------------------
# Driver-visible queries + oracles
# ---------------------------------------------------------------------------

def _q_token_stats(sf_dir: str):
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        token_stats_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_quality(sf_dir: str):
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_fingerprint(sf_dir: str):
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_lang_id(sf_dir: str):
    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        LangIdStage(), batch_format="pyarrow", zero_copy_batch=True
    )


_STOP_SQL = ", ".join(f"'{w}'" for w in STOPWORDS)

register(
    "doc_token_stats",
    _q_token_stats,
    f"""
    SELECT doc_id,
           length(text) AS n_chars,
           len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}')) AS n_words,
           len(regexp_extract_all(text, '{BPE_SPLIT}')) AS n_tokens_bpe,
           round(
             CAST(length(regexp_replace(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}', '', 'g')) AS DOUBLE)
             / len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}')), 6) AS avg_word_len
    FROM documents
    """,
)

register(
    "doc_quality",
    _q_quality,
    f"""
    WITH w AS (
        SELECT doc_id, regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}') AS words
        FROM documents
    )
    SELECT doc_id,
           len(words) AS n_words,
           round(CAST(len(list_filter(words, x -> x IN ({_STOP_SQL}))) AS DOUBLE)
                 / len(words), 6) AS stop_ratio,
           round(CAST(len(list_distinct(words)) AS DOUBLE) / len(words), 6)
               AS uniq_ratio,
           round(0.4 * least(CAST(len(words) AS DOUBLE) / 50.0, 1.0)
                 + 0.3 * (1.0 - CAST(len(list_filter(words, x -> x IN ({_STOP_SQL})))
                                     AS DOUBLE) / len(words))
                 + 0.3 * CAST(len(list_distinct(words)) AS DOUBLE) / len(words), 6)
               AS quality
    FROM w
    """,
)

register(
    "doc_fingerprint",
    _q_fingerprint,
    f"""
    SELECT doc_id, md5(regexp_replace(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}', ' ', 'g')) AS fingerprint
    FROM documents
    """,
)

def _lang_id_sql() -> str:
    """The marker-hit-rate heuristic is plain relational algebra: split on
    the same RE2 ``\\s+``, score = hits / max(n_words, 1), argmax with
    first-wins ties in ``_LANG_ORDER``."""
    score_cols = []
    for lang in _LANG_ORDER:
        markers = _LANG_MARKERS[lang]
        if not markers:
            score_cols.append(f"0.0 AS s_{lang}")
            continue
        inlist = ", ".join(f"'{m}'" for m in markers)
        score_cols.append(
            f"count(*) FILTER (WHERE word IN ({inlist})) "
            f"/ CAST(greatest(count(*), 1) AS DOUBLE) AS s_{lang}"
        )
    langs = list(_LANG_ORDER)
    cases = []
    for i, lang in enumerate(langs[:-1]):
        conds = " AND ".join(
            f"s_{lang} >= s_{other}" for other in langs[i + 1:]
        )
        cases.append(f"WHEN {conds} THEN '{lang}'")
    case_sql = " ".join(cases)
    return f"""
    WITH w AS (
        SELECT doc_id,
               unnest(string_split_regex(
                   regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+'
               )) AS word
        FROM documents
    ),
    sc AS (
        SELECT doc_id, {', '.join(score_cols)}
        FROM w GROUP BY doc_id
    )
    SELECT doc_id,
           CASE {case_sql} ELSE '{langs[-1]}' END AS pred_lang
    FROM sc
    """


register("doc_lang_id", _q_lang_id, _lang_id_sql())


def _q_events_type_stats(sf_dir: str):
    """Native Ray Data ``groupby().aggregate(...)`` (no map_groups): the
    built-in distributed aggregates over the raw events table."""
    import ray
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    from ._util import round_half_away, segment_sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    agg = ds.groupby("event_type").aggregate(
        Count(), Sum("value"), Min("value"), Max("value"), Mean("value")
    )

    def _rename(batch: pa.Table) -> pa.Table:
        # mean from the ROUNDED sum: midpoint-stable across engines (see
        # timeseries.rollup_tier_for_compare).
        sum_r = round_half_away(
            batch.column("sum(value)").to_numpy(zero_copy_only=False), 6
        )
        n = batch.column("count()").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n": batch.column("count()").cast(pa.int64()),
                "value_sum": pa.array(sum_r),
                "value_min": batch.column("min(value)"),
                "value_max": batch.column("max(value)"),
                "value_mean": pa.array(round_half_away(sum_r / n, 6)),
            }
        )

    return agg.map_batches(_rename, batch_format="pyarrow", zero_copy_batch=True)


register(
    "events_type_stats",
    _q_events_type_stats,
    """
    SELECT event_type,
           count(*) AS n,
           round(sum(value), 6) AS value_sum,
           min(value) AS value_min,
           max(value) AS value_max,
           round(round(sum(value), 6) / count(*), 6) AS value_mean
    FROM events
    GROUP BY event_type
    """,
)


def rolling_fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Rabin-Karp polynomial rolling hash of normalized text (64-bit hex):
    h = sum(b_i * B^(n-1-i)) mod (2^61-1), B=257 — the incremental-update
    form used for windowed fingerprinting; whole-doc value here."""
    M = (1 << 61) - 1
    B = 257
    from ._util import regex_trim

    norm = pc.replace_substring_regex(regex_trim(batch.column("text")), _WS, " ")
    fps = []
    for s in norm.to_pylist():
        h = 0
        for byte in s.encode("utf-8"):
            h = (h * B + byte) % M
        fps.append(f"{h:016x}")
    return pa.table(
        {"doc_id": batch.column("doc_id"), "rolling_fp": pa.array(fps, pa.string())}
    )


register(
    "doc_rolling_fingerprint",  # rows-only: no SQL-side 61-bit modular hash
    lambda sf: _read_documents(sf, ["doc_id", "text"]).map_batches(
        rolling_fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True
    ),
)


# ---------------------------------------------------------------------------
# Corpus-wide top-k n-grams (the canonical pre-aggregate-before-shuffle op)
# ---------------------------------------------------------------------------

def ngram_counts_batch(batch: pa.Table, n: int = 3) -> pa.Table:
    """One document block -> per-batch partial n-gram counts.

    Vectorized: one Arrow whitespace split for the whole block, numpy
    within-document masking, one pandas factorize+bincount for the local
    count — so the shuffle after this combiner moves (ngram, count)
    partials, never word streams.
    """
    import pandas as pd

    flat_words, offsets, _ = _words_and_offsets(batch.column("text"))
    words = flat_words.to_numpy(zero_copy_only=False)
    if len(words) == 0:
        return pa.table(
            {"ngram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
    # Candidate n-gram start positions: those whose whole window stays
    # inside one document (offsets mark document boundaries in flat_words).
    doc_id_per_word = np.repeat(
        np.arange(len(offsets) - 1), np.diff(offsets)
    )
    valid = np.flatnonzero(
        (np.arange(len(words)) + n <= len(words))
        & (doc_id_per_word == doc_id_per_word[
            np.minimum(np.arange(len(words)) + n - 1, len(words) - 1)])
    )
    if len(valid) == 0:
        return pa.table(
            {"ngram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
    grams = words[valid].astype(object)
    for i in range(1, n):
        grams = grams + " "
        grams = grams + words[valid + i].astype(object)
    codes, uniques = pd.factorize(pd.Series(grams))
    counts = np.bincount(codes).astype(np.int64)
    return pa.table(
        {"ngram": pa.array(uniques, pa.string()), "n": pa.array(counts, pa.int64())}
    )


TOP_NGRAM_SHARDS = 64


def top_ngrams(docs_ds, *, n: int = 3, k: int = 100,
               shards: int = TOP_NGRAM_SHARDS):
    """Global top-``k`` ``n``-grams by count (ties broken by n-gram text).

    Shape: per-batch combiner (above) -> ONE gram-sharded groupby where
    each shard task sums its grams exactly (all rows of a gram land in
    one shard) and keeps only its LOCAL top-``k`` -> global sort + limit
    over the shards x k candidate rows.  Exact: any global top-k gram is
    by definition in its own shard's top-k.  (The earlier
    ``groupby(ngram).sum`` native aggregate degraded ~4x at sf0.1 over
    hundreds of thousands of tiny groups — the novelty lesson.)
    """
    import functools

    import pandas as pd

    from ._util import hash_shards

    def _add_shard(batch: pa.Table) -> pa.Table:
        grams = batch.column("ngram").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "shard", pa.array(hash_shards(grams, shards)))

    def _shard_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("ngram", sort=False)["n"].sum().reset_index()
        g["n"] = g["n"].astype(np.int64)
        g = g.sort_values(["n", "ngram"], ascending=[False, True],
                          kind="mergesort").head(k)
        return g[["ngram", "n"]]

    partials = docs_ds.map_batches(
        functools.partial(ngram_counts_batch, n=n),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(_add_shard, batch_format="pyarrow", zero_copy_batch=True)

    return (
        partials.groupby("shard")
        .map_groups(_shard_topk, batch_format="pandas")
        .sort(["n", "ngram"], descending=[True, False])
        .limit(k)
    )


register(
    "doc_top_trigrams",
    lambda sf: top_ngrams(_read_documents(sf, ["doc_id", "text"]), n=3, k=100),
    r"""
    WITH w AS (
        SELECT string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'
               ) AS ws
        FROM documents
    ),
    t AS (
        SELECT ws[g] || ' ' || ws[g + 1] || ' ' || ws[g + 2] AS ngram
        FROM w, LATERAL (
            SELECT unnest(generate_series(1, greatest(len(ws) - 2, 0))) AS g
        )
    )
    SELECT ngram, count(*) AS n
    FROM t GROUP BY ngram
    ORDER BY n DESC, ngram LIMIT 100
    """,
)


# ---------------------------------------------------------------------------
# PII / URL scrubbing (vectorized text transform)
# ---------------------------------------------------------------------------

#: RE2-compatible patterns, shared verbatim with the DuckDB oracle.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
URL_RE = r"https?://[^\s]+"


def scrub_batch(batch: pa.Table) -> pa.Table:
    """Replace emails/URLs with placeholder tokens (training-data hygiene);
    two Arrow RE2 kernels, no Python per row."""
    text = batch.column("text")
    text = pc.replace_substring_regex(text, EMAIL_RE, "<EMAIL>")
    text = pc.replace_substring_regex(text, URL_RE, "<URL>")
    return pa.table({"doc_id": batch.column("doc_id"), "scrubbed": text})


register(
    "doc_scrub_pii",
    lambda sf: _read_documents(sf, ["doc_id", "text"]).map_batches(
        scrub_batch, batch_format="pyarrow", zero_copy_batch=True
    ),
    f"""
    SELECT doc_id,
           regexp_replace(
               regexp_replace(text, '{EMAIL_RE}', '<EMAIL>', 'g'),
               '{URL_RE}', '<URL>', 'g'
           ) AS scrubbed
    FROM documents
    """,
)


# ---------------------------------------------------------------------------
# Common-token ratio (corpus-vocabulary broadcast scoring)
# ---------------------------------------------------------------------------

def common_token_ratio(docs_ds_fn, *, k: int = 100):
    """Per-document share of whitespace tokens that belong to the
    corpus-wide top-``k`` vocabulary — a cheap fluency/quality signal
    (documents full of rare tokens score low).

    The canonical broadcast-small-side shape: phase 1 computes the top-k
    vocabulary with the ``top_ngrams`` combiner->groupby->limit pipeline
    (k rows), phase 2 re-scans the corpus with that tiny vocabulary held
    in the task closure — two streaming scans, no join shuffle.
    ``docs_ds_fn`` is a zero-arg callable producing the documents Dataset
    (consumed once per phase).
    """
    import pandas as pd

    top = top_ngrams(docs_ds_fn(), n=1, k=k).to_pandas()
    vocab = set(top["ngram"])

    def _ratio(batch: pa.Table) -> pa.Table:
        flat_words, offsets, _ = _words_and_offsets(batch.column("text"))
        words = pd.Series(flat_words.to_numpy(zero_copy_only=False))
        in_top = words.isin(vocab).to_numpy()
        n_words = np.diff(offsets).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(n_words)), n_words)
        n_top = np.bincount(
            doc_idx, weights=in_top, minlength=len(n_words)
        ).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_words": pa.array(n_words, pa.int64()),
            "n_top": pa.array(n_top, pa.int64()),
            "common_ratio": pa.array(
                round_half_away(n_top / np.maximum(n_words, 1), 6),
                pa.float64()),
        })

    return docs_ds_fn().map_batches(
        _ratio, batch_format="pyarrow", zero_copy_batch=True
    )


register(
    "doc_common_token_ratio",
    lambda sf: common_token_ratio(
        lambda: _read_documents(sf, ["doc_id", "text"]), k=100
    ),
    r"""
    WITH w AS (
        SELECT doc_id,
               unnest(string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'
               )) AS word
        FROM documents
    ),
    top AS (
        SELECT word FROM w GROUP BY word
        ORDER BY count(*) DESC, word LIMIT 100
    ),
    per AS (
        SELECT doc_id, count(*) AS n_words,
               CAST(sum(CASE WHEN word IN (SELECT word FROM top)
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_top
        FROM w GROUP BY doc_id
    )
    SELECT doc_id, n_words, n_top,
           round(n_top / n_words, 6) AS common_ratio
    FROM per
    """,
)


# ---------------------------------------------------------------------------
# Repetition ratios (Gopher-style within-document duplication signals)
# ---------------------------------------------------------------------------

def repetition_stats_batch(batch: pa.Table) -> pa.Table:
    """Within-document repetition signals (the Gopher data-quality family):
    ``distinct_ratio`` (unique words / words), ``top_word_frac`` (share of
    the single most frequent word), ``dup_2gram_frac`` (share of 2-gram
    occurrences that repeat an earlier 2-gram in the same doc).

    One Arrow split + two pandas ``groupby(size)`` calls per block — no
    per-row Python; purely local, so the stage is an embarrassingly
    parallel ``map_batches`` with no shuffle at any scale.
    """
    import pandas as pd

    from .decontam import _doc_grams

    flat_words, offsets, _ = _words_and_offsets(batch.column("text"))
    words = flat_words.to_numpy(zero_copy_only=False)
    n_docs = len(offsets) - 1
    doc_idx = np.repeat(np.arange(n_docs), np.diff(offsets))
    n_words = np.diff(offsets).astype(np.int64)

    wc = (pd.DataFrame({"d": doc_idx, "w": words})
          .groupby(["d", "w"], sort=False).size())
    per_doc = wc.groupby(level="d")
    n_distinct = np.zeros(n_docs, dtype=np.int64)
    top_c = np.zeros(n_docs, dtype=np.int64)
    n_distinct[per_doc.size().index] = per_doc.size().to_numpy()
    top_c[per_doc.max().index] = per_doc.max().to_numpy()

    grams, gdoc, _ = _doc_grams(batch, 2)
    n2 = np.bincount(gdoc, minlength=n_docs).astype(np.int64)
    d2 = np.zeros(n_docs, dtype=np.int64)
    if len(grams):
        gc = (pd.DataFrame({"d": gdoc, "g": grams})
              .groupby(["d", "g"], sort=False).size().groupby(level="d").size())
        d2[gc.index] = gc.to_numpy()

    safe_w = np.maximum(n_words, 1)
    dup2 = np.where(n2 > 0, 1.0 - d2 / np.maximum(n2, 1), 0.0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_words": pa.array(n_words, pa.int64()),
        "n_distinct": pa.array(n_distinct, pa.int64()),
        "distinct_ratio": pa.array(
            round_half_away(n_distinct / safe_w, 6), pa.float64()),
        "top_word_frac": pa.array(
            round_half_away(top_c / safe_w, 6), pa.float64()),
        "dup_2gram_frac": pa.array(round_half_away(dup2, 6), pa.float64()),
    })


register(
    "doc_repetition_stats",
    lambda sf: _read_documents(sf, ["doc_id", "text"]).map_batches(
        repetition_stats_batch, batch_format="pyarrow", zero_copy_batch=True
    ),
    r"""
    WITH w AS (
        SELECT doc_id,
               unnest(string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'
               )) AS word
        FROM documents
    ),
    per_word AS (
        SELECT doc_id, word, count(*) AS c FROM w GROUP BY doc_id, word
    ),
    per AS (
        SELECT doc_id,
               CAST(sum(c) AS BIGINT) AS n_words,
               CAST(count(*) AS BIGINT) AS n_distinct,
               max(c) AS top_c
        FROM per_word GROUP BY doc_id
    ),
    ws AS (
        SELECT doc_id,
               string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'
               ) AS ws
        FROM documents
    ),
    g AS (
        SELECT doc_id,
               unnest(list_transform(
                   range(len(ws) - 1),
                   i -> array_to_string(ws[i+1:i+2], ' ')
               )) AS gram
        FROM ws
    ),
    g2 AS (
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n2,
               CAST(count(DISTINCT gram) AS BIGINT) AS d2
        FROM g GROUP BY doc_id
    )
    SELECT per.doc_id, n_words, n_distinct,
           round(n_distinct / n_words, 6) AS distinct_ratio,
           round(top_c / n_words, 6) AS top_word_frac,
           round(CASE WHEN COALESCE(n2, 0) = 0 THEN 0
                      ELSE 1 - d2 / n2 END, 6) AS dup_2gram_frac
    FROM per LEFT JOIN g2 USING (doc_id)
    """,
)


# ---------------------------------------------------------------------------
# TF-IDF keyword extraction (broadcast document frequencies)
# ---------------------------------------------------------------------------

def tfidf_keywords(docs_ds_fn, *, k: int = 3, max_vocab: int = 50_000_000):
    """Top-``k`` TF-IDF keywords per document (``tf * ln(N/df)``, ties by
    word), the classic keyword-extraction / relevance-feature operator.

    Scale shape: document frequencies are a per-batch DISTINCT-(doc,word)
    combiner -> one ``groupby(word)`` over bounded partials -> a
    vocabulary-sized (word, df) table collected under ``max_vocab`` and
    broadcast into a second streaming scan that scores and prunes to k
    rows per doc locally — two scans, no per-doc shuffle.  At 100 TB with
    an unbounded vocabulary the df side becomes an aggregate-join
    (groupby word + hash-partitioned join) instead of a broadcast; the
    guard makes that switch explicit rather than silent.
    """
    import pandas as pd

    def _df_partial(batch: pa.Table) -> pa.Table:
        flat_words, offsets, _ = _words_and_offsets(batch.column("text"))
        words = flat_words.to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(
            np.arange(len(offsets) - 1), np.diff(offsets))
        uniq = (pd.DataFrame({"d": doc_idx, "w": words})
                .drop_duplicates())
        vc = uniq.groupby("w", sort=False).size()
        return pa.table({
            "word": pa.array(vc.index.to_numpy(), pa.string()),
            "df": pa.array(vc.to_numpy().astype(np.int64), pa.int64()),
        })

    ds = docs_ds_fn()
    n_docs = ds.count()
    df_tbl = (
        docs_ds_fn().map_batches(
            _df_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word").sum("df")
    )
    try:
        rows = df_tbl.take_all(limit=max_vocab)
    except ValueError as exc:
        raise RuntimeError(
            f"vocabulary exceeds max_vocab={max_vocab}; switch the df side "
            "from broadcast to an aggregate-join for this corpus."
        ) from exc
    df_map = {r["word"]: r["sum(df)"] for r in rows}

    def _score(batch: pa.Table) -> pa.Table:
        flat_words, offsets, _ = _words_and_offsets(batch.column("text"))
        words = flat_words.to_numpy(zero_copy_only=False)
        n_in = len(offsets) - 1
        doc_idx = np.repeat(np.arange(n_in), np.diff(offsets))
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        tf = (pd.DataFrame({"d": doc_idx, "w": words})
              .groupby(["d", "w"], sort=False).size().reset_index(name="tf"))
        dfs = tf["w"].map(df_map).to_numpy(dtype=np.float64)
        score = round_half_away(
            tf["tf"].to_numpy() * np.log(n_docs / dfs), 6)
        tf["tfidf"] = score
        top = (tf.sort_values(["d", "tfidf", "w"],
                              ascending=[True, False, True], kind="stable")
               .groupby("d", sort=False).head(k))
        return pa.table({
            "doc_id": pa.array(doc_ids[top["d"].to_numpy()], pa.int64()),
            "word": pa.array(top["w"].to_numpy(), pa.string()),
            "tf": pa.array(top["tf"].to_numpy().astype(np.int64), pa.int64()),
            "tfidf": pa.array(top["tfidf"].to_numpy(), pa.float64()),
        })

    return docs_ds_fn().map_batches(
        _score, batch_format="pyarrow", zero_copy_batch=True
    )


register(
    "doc_tfidf_keywords",
    lambda sf: tfidf_keywords(
        lambda: _read_documents(sf, ["doc_id", "text"]), k=3
    ),
    r"""
    WITH w AS (
        SELECT doc_id,
               unnest(string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'
               )) AS word
        FROM documents
    ),
    tf AS (
        SELECT doc_id, word, CAST(count(*) AS BIGINT) AS tf
        FROM w GROUP BY doc_id, word
    ),
    df AS (
        SELECT word, count(DISTINCT doc_id) AS df FROM w GROUP BY word
    ),
    n AS (SELECT count(*) AS n FROM documents)
    SELECT doc_id, word, tf,
           round(tf * ln(n.n / df.df), 6) AS tfidf
    FROM tf
    JOIN df USING (word)
    CROSS JOIN n
    QUALIFY row_number() OVER (
        PARTITION BY doc_id ORDER BY tfidf DESC, word
    ) <= 3
    """,
)


# ---------------------------------------------------------------------------
# Inverted index (token -> postings)
# ---------------------------------------------------------------------------

def inverted_index(docs_ds, *, sample_k: int = 10, shards: int = 64):
    """Search-index build: per token, the document frequency and the
    first ``sample_k`` doc_ids (ascending) as a postings sample.

    Scale shape: each block emits its DISTINCT ``(word, doc_id)`` pairs
    (documents are rows, so per-block distinct IS globally distinct) —
    the one shuffle moves exactly the index's own content, nothing more.
    Groups are keyed by a ``hash(word) % shards`` column rather than raw
    words so Ray sees ``shards`` healthy groups instead of
    vocabulary-many tiny ones; each shard builds its postings with two
    vectorized pandas groupbys.
    """
    import pandas as pd

    def _pairs(batch: pa.Table) -> pa.Table:
        flat_words, offsets, _ = _words_and_offsets(batch.column("text"))
        words = flat_words.to_numpy(zero_copy_only=False)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        doc_per_word = np.repeat(doc_ids, np.diff(offsets))
        uniq = (pd.DataFrame({"word": words, "doc_id": doc_per_word})
                .drop_duplicates())
        wshard = pd.util.hash_array(
            uniq["word"].to_numpy(dtype=object)) % shards
        return pa.table({
            "word": pa.array(uniq["word"].to_numpy(), pa.string()),
            "doc_id": pa.array(
                uniq["doc_id"].to_numpy().astype(np.int64), pa.int64()),
            "wshard": pa.array(wshard.astype(np.int64), pa.int64()),
        })

    def _build(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["word", "doc_id"], kind="stable")
        g = df.groupby("word", sort=False)
        postings = (df.groupby("word", sort=False).head(sample_k)
                    .groupby("word", sort=False)["doc_id"]
                    .agg(lambda s: ",".join(map(str, s))))
        out = pd.DataFrame({
            "word": postings.index,
            "df": g.size().reindex(postings.index).astype(np.int64),
            "postings": postings.to_numpy(),
        })
        return out.reset_index(drop=True)

    return (
        docs_ds.map_batches(_pairs, batch_format="pyarrow",
                            zero_copy_batch=True)
        .groupby("wshard")
        .map_groups(_build, batch_format="pandas")
    )


register(
    "doc_inverted_index",
    lambda sf: inverted_index(_read_documents(sf, ["doc_id", "text"])),
    r"""
    WITH w AS (
        SELECT DISTINCT doc_id,
               unnest(string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'
               )) AS word
        FROM documents
    )
    SELECT word, CAST(count(*) AS BIGINT) AS df,
           array_to_string(list_sort(list(doc_id))[1:10], ',') AS postings
    FROM w GROUP BY word
    """,
)


# ---------------------------------------------------------------------------
# Character entropy (gibberish / binary-noise detection)
# ---------------------------------------------------------------------------

def char_entropy_batch(batch: pa.Table) -> pa.Table:
    """Per-document Shannon entropy of the byte distribution (bits/char)
    — near-zero flags repeated-character junk, ~4+ flags ASCII text,
    higher flags random/binary noise.

    Fully vectorized: one ``bincount`` over ``doc_idx * 256 + byte``
    lanes for the whole block — no per-document Python.  Byte entropy
    equals character entropy for ASCII corpora (the synthetic tables);
    the oracle mirrors the character definition.
    """
    text = batch.column("text")
    arr = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
    # StringArray exposes no .offsets accessor — read the raw buffers,
    # honoring the array's slice offset (int32 offsets for string,
    # int64 for large_string).
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lens = np.diff(offs)
    n_docs = len(lens)
    doc_idx = np.repeat(np.arange(n_docs), lens)
    codes = doc_idx * 256 + data[offs[0]:offs[-1]].astype(np.int64)
    counts = np.bincount(codes, minlength=n_docs * 256).reshape(n_docs, 256)
    n = np.maximum(lens.astype(np.float64), 1.0)
    p = counts / n[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.sum(np.where(counts > 0, p * np.log2(p), 0.0), axis=1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_chars": pa.array(lens.astype(np.int64), pa.int64()),
        "char_entropy": pa.array(round_half_away(ent, 6), pa.float64()),
    })


register(
    "doc_char_entropy",
    lambda sf: _read_documents(sf, ["doc_id", "text"]).map_batches(
        char_entropy_batch, batch_format="pyarrow", zero_copy_batch=True
    ),
    r"""
    WITH c AS (
        SELECT doc_id, unnest(string_split(text, '')) AS ch FROM documents
    ),
    cnt AS (
        SELECT doc_id, ch, CAST(count(*) AS DOUBLE) AS c
        FROM c GROUP BY doc_id, ch
    ),
    tot AS (SELECT doc_id, sum(c) AS n FROM cnt GROUP BY doc_id),
    e AS (
        SELECT cnt.doc_id,
               CAST(min(n) AS BIGINT) AS n_chars,
               round(-sum((c / n) * log2(c / n)), 6) + 0.0 AS char_entropy
        FROM cnt JOIN tot USING (doc_id) GROUP BY cnt.doc_id
    )
    SELECT d.doc_id,
           COALESCE(e.n_chars, 0) AS n_chars,
           COALESCE(e.char_entropy, 0.0) AS char_entropy
    FROM documents d LEFT JOIN e USING (doc_id)
    """,
)


# ---------------------------------------------------------------------------
# Corpus unigram LM scoring (CCNet-style quality signal)
# ---------------------------------------------------------------------------

def unigram_logprob(docs_ds_fn, *, max_vocab: int = 50_000_000):
    """Per-document mean unigram log-likelihood under the corpus's own
    unigram LM: ``mean over tokens of ln(count(w) / total_tokens)`` — the
    CCNet / fastText-era quality filter (docs far below the corpus mode
    are boilerplate or noise, far above are keyword stuffing).

    Scale shape (the ``tfidf_keywords`` contract): pass 1 reduces the
    stream to a vocabulary-sized ``(word, count)`` table via a per-batch
    ``value_counts`` combiner and one ``groupby(word)``; the table is
    collected under ``max_vocab`` and broadcast into a second streaming
    scan that scores each doc locally — two scans, no per-doc shuffle.
    Past the guard, the score side becomes an aggregate-join on word.

    Float parity: per-(doc, word) contributions ``tf * ln(p)`` are summed
    per doc, the sum rounded to 6 dp, then divided by the token count and
    re-rounded — the identical expression tree as the oracle, following
    the repo's round-before-derive rule.
    """
    import pandas as pd

    def _count_partial(batch: pa.Table) -> pa.Table:
        flat_words, _, _ = _words_and_offsets(batch.column("text"))
        vc = flat_words.value_counts()
        return pa.table({
            "word": vc.field("values"),
            "cnt": vc.field("counts").cast(pa.int64()),
        })

    cnt_tbl = (
        docs_ds_fn().map_batches(
            _count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word").sum("cnt")
    )
    try:
        rows = cnt_tbl.take_all(limit=max_vocab)
    except ValueError as exc:
        raise RuntimeError(
            f"vocabulary exceeds max_vocab={max_vocab}; switch the scoring "
            "side from broadcast to an aggregate-join for this corpus."
        ) from exc
    cnt_map = {r["word"]: r["sum(cnt)"] for r in rows}
    total = float(sum(cnt_map.values()))

    def _score(batch: pa.Table) -> pa.Table:
        flat_words, offsets, _ = _words_and_offsets(batch.column("text"))
        words = flat_words.to_numpy(zero_copy_only=False)
        n_in = len(offsets) - 1
        doc_idx = np.repeat(np.arange(n_in), np.diff(offsets))
        tf = (pd.DataFrame({"d": doc_idx, "w": words})
              .groupby(["d", "w"], sort=False).size().reset_index(name="tf"))
        cnts = tf["w"].map(cnt_map).to_numpy(dtype=np.float64)
        contrib = tf["tf"].to_numpy() * np.log(cnts / total)
        per = pd.DataFrame({"d": tf["d"], "c": contrib, "tf": tf["tf"]})
        g = per.groupby("d", sort=True).agg(s=("c", "sum"),
                                            n=("tf", "sum"))
        # Docs can be absent from g only if the batch had zero rows.
        s = round_half_away(g["s"].to_numpy(), 6)
        n = g["n"].to_numpy().astype(np.int64)
        doc_ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False)[g.index.to_numpy()]
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_tok": pa.array(n, pa.int64()),
            "logprob_mean": pa.array(
                round_half_away(s / n, 6), pa.float64()),
        })

    return docs_ds_fn().map_batches(
        _score, batch_format="pyarrow", zero_copy_batch=True
    )


register(
    "doc_unigram_logprob",
    lambda sf: unigram_logprob(
        lambda: _read_documents(sf, ["doc_id", "text"])
    ),
    r"""
    WITH w AS (
        SELECT doc_id,
               unnest(string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'
               )) AS word
        FROM documents
    ),
    cnt AS (
        SELECT word, CAST(count(*) AS DOUBLE) AS c FROM w GROUP BY word
    ),
    tot AS (SELECT sum(c) AS t FROM cnt),
    tf AS (
        SELECT doc_id, word, count(*) AS tf FROM w GROUP BY doc_id, word
    ),
    per AS (
        SELECT doc_id,
               CAST(sum(tf) AS BIGINT) AS n_tok,
               round(sum(tf * ln(c / t)), 6) AS s
        FROM tf JOIN cnt USING (word) CROSS JOIN tot
        GROUP BY doc_id
    )
    SELECT doc_id, n_tok, round(s / n_tok, 6) AS logprob_mean FROM per
    """,
)


# ---------------------------------------------------------------------------
# Vocabulary coverage / OOV rate at a frequency cutoff
# ---------------------------------------------------------------------------

def vocab_coverage(docs_ds, *, min_freq: int = 10):
    """Corpus-level vocabulary coverage at a frequency cutoff: how much
    of the token stream a ``count >= min_freq`` vocabulary explains —
    the go/no-go statistic for choosing a tokenizer vocab or an OOV
    policy before a training run.

    Shape: the word-frequency relation (per-block combiner -> ONE
    ``groupby(word).sum``) is reduced a second time to per-block partial
    (vocab_size, covered, total) triples and one constant-key groupby —
    no driver-side vocabulary, no broadcast: the cutoff is applied where
    the frequency rows already live, so a 100 TB corpus's vocabulary
    never has to fit anywhere.
    """
    import functools

    partials = docs_ds.map_batches(
        functools.partial(ngram_counts_batch, n=1),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    totals = partials.groupby("ngram").sum("n")

    def _partial_cov(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        in_vocab = n >= min_freq
        return pa.table({
            "k": pa.array([0], pa.int64()),
            "vocab_size": pa.array([int(in_vocab.sum())], pa.int64()),
            "covered_words": pa.array([int(n[in_vocab].sum())], pa.int64()),
            "total_words": pa.array([int(n.sum())], pa.int64()),
        })

    def _final(df):
        import pandas as pd

        vocab = int(df["vocab_size"].sum())
        covered = int(df["covered_words"].sum())
        total = int(df["total_words"].sum())
        return pd.DataFrame({
            "vocab_size": pd.Series([vocab], dtype="int64"),
            "covered_words": pd.Series([covered], dtype="int64"),
            "oov_words": pd.Series([total - covered], dtype="int64"),
            "total_words": pd.Series([total], dtype="int64"),
            "coverage": round_half_away(
                np.array([covered / total]) if total else np.array([0.0]),
                6),
        })

    return totals.map_batches(
        _partial_cov, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("k").map_groups(_final, batch_format="pandas")


register(
    "corpus_vocab_coverage",
    lambda sf: vocab_coverage(_read_documents(sf, ["doc_id", "text"]),
                              min_freq=10),
    r"""
    WITH w AS (
        SELECT unnest(string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+'
               )) AS word
        FROM documents
    ),
    f AS (SELECT word, count(*) AS n FROM w GROUP BY word)
    SELECT CAST(count(*) FILTER (n >= 10) AS BIGINT) AS vocab_size,
           CAST(COALESCE(sum(n) FILTER (n >= 10), 0) AS BIGINT)
               AS covered_words,
           CAST(COALESCE(sum(n) FILTER (n < 10), 0) AS BIGINT)
               AS oov_words,
           CAST(sum(n) AS BIGINT) AS total_words,
           round(COALESCE(sum(n) FILTER (n >= 10), 0) / sum(n), 6)
               AS coverage
    FROM f
    """,
)


# ---------------------------------------------------------------------------
# Per-language tokenizer fertility (tokens-per-word, mixture planning)
# ---------------------------------------------------------------------------

def lang_token_fertility(docs_ds):
    """Per-language tokenizer fertility: BPE-ish tokens per whitespace
    word, aggregated corpus-wide — the statistic that sizes a
    multilingual data mixture (a language with 3x fertility costs 3x the
    tokens per word of text).

    Per-block combiner reduces each block to <= |langs| partial rows
    (integer word/token sums — exact), ONE tiny groupby sums them, and
    the ratio is a single rounded division per language.
    """
    import pandas as pd

    def _partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        _, offsets, _ = _words_and_offsets(text)
        n_words = np.diff(offsets).astype(np.int64)
        n_bpe = pc.count_substring_regex(text, BPE_SPLIT) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({
            "lang": batch.column("lang").to_pandas(),
            "w": n_words,
            "t": n_bpe,
        }).groupby("lang", sort=False).sum().reset_index()
        return pa.table({
            "lang": pa.array(g["lang"].astype(str), pa.string()),
            "w": pa.array(g["w"].to_numpy(np.int64), pa.int64()),
            "t": pa.array(g["t"].to_numpy(np.int64), pa.int64()),
        })

    totals = docs_ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("lang").sum(["w", "t"])

    def _shape(batch: pa.Table) -> pa.Table:
        w = batch.column("sum(w)").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        t = batch.column("sum(t)").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "lang": batch.column("lang"),
            "n_words": pa.array(w, pa.int64()),
            "n_tokens_bpe": pa.array(t, pa.int64()),
            "fertility": pa.array(
                round_half_away(t / np.maximum(w, 1), 6), pa.float64()),
        })

    return totals.map_batches(_shape, batch_format="pyarrow",
                              zero_copy_batch=True)


register(
    "lang_token_fertility",
    lambda sf: lang_token_fertility(
        _read_documents(sf, ["lang", "text"])),
    f"""
    SELECT lang,
           CAST(sum(len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}')))
               AS BIGINT) AS n_words,
           CAST(sum(len(regexp_extract_all(text, '{BPE_SPLIT}')))
               AS BIGINT) AS n_tokens_bpe,
           round(sum(len(regexp_extract_all(text, '{BPE_SPLIT}')))
                 / sum(len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}'))), 6)
               AS fertility
    FROM documents GROUP BY lang
    """,
)


# ---------------------------------------------------------------------------
# Per-source corpus report (the "data card" aggregate)
# ---------------------------------------------------------------------------

def source_report(docs_ds):
    """Per ``source``: document count, mean length in chars and words —
    the per-provenance summary every training-data card starts with.

    Scale shape: the classic combiner aggregate — each block collapses to
    one partial row per source (|sources| is small by definition), one
    tiny groupby merges, means derive from merged (sum, count).  Word
    counts reuse the ``token_stats_batch`` splitting rule so the numbers
    agree with the per-doc stats query.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        _, offsets, _ = _words_and_offsets(batch.column("text"))
        df = pd.DataFrame({
            "source": batch.column("source").to_pandas(),
            "chars": pc.utf8_length(batch.column("text")).to_numpy(
                zero_copy_only=False).astype(np.int64),
            "words": np.diff(offsets).astype(np.int64),
        })
        g = df.groupby("source", sort=False).agg(
            n_docs=("chars", "size"), s_chars=("chars", "sum"),
            s_words=("words", "sum"),
        ).reset_index()
        for c in ("n_docs", "s_chars", "s_words"):
            g[c] = g[c].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    merged = (
        docs_ds.map_batches(_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
        .groupby("source")
        .sum(["n_docs", "s_chars", "s_words"])
    )

    def _finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n_docs)").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        sc = batch.column("sum(s_chars)").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        sw = batch.column("sum(s_words)").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "source": batch.column("source"),
            "n_docs": pa.array(n, pa.int64()),
            "total_chars": pa.array(sc, pa.int64()),
            "total_words": pa.array(sw, pa.int64()),
            "mean_chars": pa.array(
                round_half_away(sc.astype(np.float64) / n, 6), pa.float64()),
            "mean_words": pa.array(
                round_half_away(sw.astype(np.float64) / n, 6), pa.float64()),
        })

    return merged.map_batches(_finish, batch_format="pyarrow",
                              zero_copy_batch=True)


register(
    "doc_source_report",
    lambda sf: source_report(_read_documents(sf, ["text", "source"])),
    f"""
    SELECT source,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(length(text)) AS BIGINT) AS total_chars,
           CAST(sum(len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}')))
                AS BIGINT) AS total_words,
           round(CAST(sum(length(text)) AS DOUBLE) / count(*), 6)
               AS mean_chars,
           round(CAST(sum(len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}')))
                      AS DOUBLE) / count(*), 6) AS mean_words
    FROM documents
    GROUP BY source
    """,
)


# ---------------------------------------------------------------------------
# Per-language length/word-count correlation (corpus health metric)
# ---------------------------------------------------------------------------

def lang_len_corr(docs_ds):
    """Pearson correlation of ``n_chars`` vs whitespace word count per
    language — the data-card "does length track tokens" check.

    Scale shape: the per-block combiner reduces every block to one
    moment-sums row per language (n, Σx, Σy, Σxy, Σx², Σy² — all
    mergeable), so the only exchange is a ~|langs|-row native groupby;
    the correlation closes from the merged sums
    (r = (nΣxy − ΣxΣy) / sqrt((nΣx² − (Σx)²)(nΣy² − (Σy)²)), identical
    to SQL's sample ``corr`` — the n−1 factors cancel), rounded to 6.
    """
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        _, offsets, _ = _words_and_offsets(batch.column("text"))
        y = np.diff(offsets).astype(np.float64)
        x = batch.column("n_chars").to_numpy(
            zero_copy_only=False).astype(np.float64)
        g = pd.DataFrame({
            "lang": batch.column("lang").to_pandas(),
            "n": 1.0, "sx": x, "sy": y, "sxy": x * y,
            "sxx": x * x, "syy": y * y,
        }).groupby("lang", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = docs_ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("lang").aggregate(
        Sum("n"), Sum("sx"), Sum("sy"), Sum("sxy"), Sum("sxx"), Sum("syy")
    )

    def _shape(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").to_numpy(zero_copy_only=False)
        sx = batch.column("sum(sx)").to_numpy(zero_copy_only=False)
        sy = batch.column("sum(sy)").to_numpy(zero_copy_only=False)
        sxy = batch.column("sum(sxy)").to_numpy(zero_copy_only=False)
        sxx = batch.column("sum(sxx)").to_numpy(zero_copy_only=False)
        syy = batch.column("sum(syy)").to_numpy(zero_copy_only=False)
        num = n * sxy - sx * sy
        den = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        r = np.divide(num, den, out=np.full_like(num, np.nan),
                      where=den > 0)
        return pa.table({
            "lang": batch.column("lang"),
            "n_docs": pa.array(n.astype(np.int64), pa.int64()),
            "corr_len_words": pa.array(round_half_away(r, 6), pa.float64()),
        })

    return agg.map_batches(_shape, batch_format="pyarrow",
                           zero_copy_batch=True)


def _q_lang_len_corr(sf_dir: str):
    return lang_len_corr(_read_documents(sf_dir,
                                         ["lang", "text", "n_chars"]))


register(
    "doc_lang_len_corr",
    _q_lang_len_corr,
    f"""
    WITH w AS (
        SELECT lang, n_chars,
               len(regexp_split_to_array(
                   regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}'))
                   AS n_words
        FROM documents
    )
    SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
           round(corr(n_chars, n_words), 6) AS corr_len_words
    FROM w GROUP BY lang
    """,
)


# ---------------------------------------------------------------------------
# Corpus word-length histogram
# ---------------------------------------------------------------------------

def word_len_hist(docs_ds):
    """Histogram of whitespace-word lengths across the whole corpus.

    Scale shape: each block bincounts its own flat word-length array
    (one Arrow split + utf8_length, no Python per word), so the exchange
    carries at most |distinct lengths| rows per block into a tiny native
    ``groupby(word_len).sum``."""
    def _partial(batch: pa.Table) -> pa.Table:
        flat, _, _ = _words_and_offsets(batch.column("text"))
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        counts = np.bincount(lens)
        wl = np.flatnonzero(counts)
        return pa.table({
            "word_len": pa.array(wl.astype(np.int64), pa.int64()),
            "n_words": pa.array(counts[wl].astype(np.int64), pa.int64()),
        })

    agg = docs_ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("word_len").sum("n_words")

    def _shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "word_len": batch.column("word_len"),
            "n_words": batch.column("sum(n_words)").cast(pa.int64()),
        })

    return agg.map_batches(_shape, batch_format="pyarrow",
                           zero_copy_batch=True)


def _q_word_len_hist(sf_dir: str):
    return word_len_hist(_read_documents(sf_dir, ["text"]))


register(
    "doc_word_len_hist",
    _q_word_len_hist,
    f"""
    SELECT len(w) AS word_len, CAST(count(*) AS BIGINT) AS n_words
    FROM (
        SELECT unnest(regexp_split_to_array(
            regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '{_WS}')) AS w
        FROM documents
    )
    GROUP BY len(w)
    """,
)


# ---------------------------------------------------------------------------
# Bigram LM log-prob — the aggregate-join scale shape (no vocab broadcast)
# ---------------------------------------------------------------------------

_BG_SEP = "\x1f"


def bigram_logprob(docs_ds_fn, *, num_shards: int = 64):
    """Per-doc corpus-bigram-LM log-probability:
    ``sum over consecutive word pairs of ln(c(w1,w2) / cprefix(w1))``
    where counts come from the WHOLE corpus and
    ``cprefix(w1) = sum_w2 c(w1,w2)`` (exact MLE, no smoothing — every
    doc's bigrams exist in the corpus by construction).

    This is the aggregate-join shape the unigram scorer's guard points
    at: the bigram vocabulary is corpus-sized, so nothing is broadcast.
    ONE corpus scan tokenizes into materialized bigram-TF partials;
    one groupby over them builds the corpus bigram-count table (prefix
    counts derive from IT, never a second corpus scan); prefix counts
    join onto bigram counts at VOCAB scale; then the single
    corpus-scale shuffle join attaches (c12, c1) to the TF stream and
    a doc-shard merge finishes the per-doc sum (the repo's
    high-cardinality-aggregate rule: hash-shard + pandas merge, not a
    native per-doc groupby).  Docs with <2 words emit nothing, as in
    the oracle.  Contribution sums are round-6 AFTER the exact total
    (reassociation-noise rule).
    """
    import pandas as pd

    from ._util import hash_shards, round_half_away
    from .joins import shuffle_join

    def _bigram_tf(batch: pa.Table) -> pa.Table:
        flat, offsets, _ = _words_and_offsets(batch.column("text"))
        words = flat.to_numpy(zero_copy_only=False)
        n_words = np.diff(offsets)
        doc_idx = np.repeat(np.arange(len(n_words)), n_words)
        same_doc = doc_idx[:-1] == doc_idx[1:]
        w1 = words[:-1][same_doc]
        w2 = words[1:][same_doc]
        d = batch.column("doc_id").to_numpy(
            zero_copy_only=False)[doc_idx[:-1][same_doc]]
        g = pd.DataFrame({"doc_id": d, "w1": w1, "w2": w2}) \
            .groupby(["doc_id", "w1", "w2"], sort=False) \
            .size().reset_index(name="tf")
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(np.int64), pa.int64()),
            "key": pa.array((g["w1"] + _BG_SEP + g["w2"]).to_numpy(),
                            pa.string()),
            "tf": pa.array(g["tf"].to_numpy(np.int64), pa.int64()),
        })

    tf_schema = pa.schema([("doc_id", pa.int64()), ("key", pa.string()),
                           ("tf", pa.int64())])
    # ONE corpus scan+tokenize: the TF partials feed BOTH the corpus
    # count groupby and the j1 shuffle join, and Ray re-executes lazy
    # upstreams per consumer — materialize so tokenization runs once
    # (r2 verdict: the lazy version scanned+tokenized the corpus ~3x).
    tf_ds = docs_ds_fn().map_batches(_bigram_tf, batch_format="pyarrow",
                                     zero_copy_batch=True).materialize()

    # Corpus (c12, c1) count table in ONE w1-sharded groupby over the TF
    # partials: all bigrams sharing a w1 land in the same shard task, so
    # both the bigram count AND its prefix count compute locally there —
    # no bigram-key groupby (high-cardinality groupby rule) and no
    # vocab-level join.  Prefix counts still derive from the TF partials,
    # never a second corpus scan.
    def _tag_w1shard(batch: pa.Table) -> pa.Table:
        keys = batch.column("key")
        w1 = pc.list_element(pc.split_pattern(keys, _BG_SEP), 0)
        return pa.table({
            "key": keys,
            "tf": batch.column("tf"),
            "cshard": pa.array(
                hash_shards(w1.to_pandas().astype(str), num_shards),
                pa.int32()),
        })

    def _count_shard(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("key", sort=False)["tf"].sum() \
            .astype(np.float64).reset_index(name="c12")
        w1 = g["key"].str.split(_BG_SEP, n=1).str[0]
        # integer-valued float64 sums are exact (< 2^53): c1 matches the
        # oracle's sum over DOUBLE counts regardless of add order
        g["c1"] = g.groupby(w1)["c12"].transform("sum")
        return g[["key", "c12", "c1"]]

    counts = (
        tf_ds.map_batches(_tag_w1shard, batch_format="pyarrow",
                          zero_copy_batch=True)
        .groupby("cshard").map_groups(_count_shard, batch_format="pandas")
    )
    counts_schema = pa.schema([("key", pa.string()), ("c12", pa.float64()),
                               ("c1", pa.float64())])
    # the single corpus-scale shuffle join: (c12, c1) meet the TF stream
    j2 = shuffle_join(tf_ds, counts, on="key", left_schema=tf_schema,
                      right_schema=counts_schema, num_shards=num_shards)

    def _contrib(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        c12v = batch.column("c12").to_numpy(zero_copy_only=False)
        c1v = batch.column("c1").to_numpy(zero_copy_only=False)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        g = pd.DataFrame({
            "doc_id": d,
            "s": tf * np.log(c12v / c1v),
            "n": tf,
        }).groupby("doc_id", sort=False).sum().reset_index()
        g["shard"] = hash_shards(g["doc_id"].to_numpy(np.int64), num_shards)
        return pa.Table.from_pandas(g, preserve_index=False)

    def _doc_merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False).agg(
            s=("s", "sum"), n=("n", "sum")).reset_index()
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype(np.int64),
            "n_bigrams": g["n"].astype(np.int64),
            "logprob": round_half_away(g["s"].to_numpy(), 6),
        })

    return (
        j2.map_batches(_contrib, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("shard").map_groups(_doc_merge, batch_format="pandas")
    )


register(
    "doc_bigram_logprob",
    lambda sf: bigram_logprob(
        lambda: _read_documents(sf, ["doc_id", "text"])
    ),
    r"""
    WITH arr AS (
        SELECT doc_id,
               string_split_regex(
                   regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+') AS ws
        FROM documents
    ),
    pos AS (
        SELECT doc_id, unnest(ws) AS w,
               unnest(generate_series(1, len(ws))) AS p
        FROM arr
    ),
    bg AS (
        SELECT doc_id, w AS w1,
               lead(w) OVER (PARTITION BY doc_id ORDER BY p) AS w2
        FROM pos
    ),
    bg2 AS (SELECT * FROM bg WHERE w2 IS NOT NULL),
    c12 AS (SELECT w1, w2, CAST(count(*) AS DOUBLE) AS c
            FROM bg2 GROUP BY 1, 2),
    c1 AS (SELECT w1, sum(c) AS t FROM c12 GROUP BY 1),
    tf AS (SELECT doc_id, w1, w2, count(*) AS tf FROM bg2 GROUP BY 1, 2, 3)
    SELECT tf.doc_id,
           CAST(sum(tf.tf) AS BIGINT) AS n_bigrams,
           round(sum(tf.tf * ln(c12.c / c1.t)), 6) AS logprob
    FROM tf
    JOIN c12 USING (w1, w2)
    JOIN c1 USING (w1)
    GROUP BY tf.doc_id
    """,
)


# ---------------------------------------------------------------------------
# BM25 top-k retrieval over the corpus for a fixed query set
# ---------------------------------------------------------------------------

#: (query_id -> terms).  Fixed, deterministic query set over the corpus
#: vocabulary; every term is a plain whitespace token so the engine and
#: the SQL oracle tokenize identically.
BM25_QUERIES: dict = {
    0: ("hash", "join", "order"),
    1: ("stream", "window", "merge"),
    2: ("customer", "table", "scan"),
    3: ("fast", "query", "filter"),
}
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOP_K = 10


def bm25_topk(docs_ds, *, queries: dict = BM25_QUERIES, k1: float = BM25_K1,
              b: float = BM25_B, top_k: int = BM25_TOP_K):
    """Okapi BM25 retrieval: for each query in ``queries``, the ``top_k``
    documents by ``sum_t idf(t) * tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl))``
    with ``idf(t) = ln((N - df + 0.5)/(df + 0.5) + 1)`` (the
    Lucene-style non-negative idf).

    Two passes over the corpus, both streaming:

    * pass 1 collapses each block to ONE tiny stats row group —
      (n_docs, sum_len) plus a df partial per query term (terms are a
      fixed handful, so the collected partials are blocks x (T+1) rows,
      never corpus-scale) — and the driver folds them into N, avgdl and
      the idf table, which ride into pass 2 as closure scalars;
    * pass 2 scores each block fully vectorized (one ``pc.equal`` +
      ``np.add.reduceat`` per term — no per-document Python), keeps
      each block's top-k per query, and a per-query merge (|queries|
      groups) finishes — no global sort.

    Ranking sorts by the ROUND-6 score (desc, doc_id asc) in both
    engines, so boundary membership cannot diverge on float noise.
    """
    terms = sorted({t for ts in queries.values() for t in ts})

    def _stats_partial(batch: pa.Table) -> pa.Table:
        flat, offsets, _ = _words_and_offsets(batch.column("text"))
        n_words = np.diff(offsets).astype(np.int64)
        n_docs = len(n_words)
        keys = ["__stats__"] + terms
        a = [n_docs]
        for t in terms:
            hit = pc.equal(flat, t).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            per_doc = segment_sum(hit, offsets)
            a.append(int((per_doc > 0).sum()))
        return pa.table({
            "key": pa.array(keys, pa.string()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array([int(n_words.sum())] + [0] * len(terms),
                          pa.int64()),
        })

    stats = docs_ds.select_columns(["text"]).map_batches(
        _stats_partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    n_total = sum(r["a"] for r in stats if r["key"] == "__stats__")
    sum_len = sum(r["b"] for r in stats if r["key"] == "__stats__")
    df = {t: 0 for t in terms}
    for r in stats:
        if r["key"] != "__stats__":
            df[r["key"]] += r["a"]
    avgdl = sum_len / n_total if n_total else 1.0
    idf = {t: float(np.log((n_total - df[t] + 0.5) / (df[t] + 0.5) + 1.0))
           for t in terms}

    def _score(batch: pa.Table) -> pa.Table:
        import pandas as pd

        flat, offsets, _ = _words_and_offsets(batch.column("text"))
        n_words = np.diff(offsets).astype(np.int64)
        n_docs = len(n_words)
        dl = n_words.astype(np.float64)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        tf = {}
        for t in terms:
            hit = pc.equal(flat, t).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            tf[t] = segment_sum(hit, offsets)
        ids = batch.column("doc_id").to_pandas()
        parts = []
        for qid, qterms in queries.items():
            score = np.zeros(n_docs)
            for t in qterms:
                score += idf[t] * tf[t] * (k1 + 1.0) / (tf[t] + norm)
            keep = score > 0
            d = pd.DataFrame({
                "query_id": np.full(int(keep.sum()), qid, np.int64),
                "doc_id": ids[keep].to_numpy(),
                "score": round_half_away(score[keep], 6),
            }).sort_values(["score", "doc_id"],
                           ascending=[False, True]).head(top_k)
            parts.append(d)
        out = pd.concat(parts) if parts else pd.DataFrame(
            {"query_id": [], "doc_id": [], "score": []})
        return pa.Table.from_pandas(out, preserve_index=False)

    def _merge(df_: "pd.DataFrame") -> "pd.DataFrame":
        df_ = df_.sort_values(["score", "doc_id"],
                              ascending=[False, True]).head(top_k)
        return df_[["query_id", "doc_id", "score"]].reset_index(drop=True)

    return (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(_score, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("query_id").map_groups(_merge, batch_format="pandas")
    )


def _bm25_sql() -> str:
    values = ", ".join(
        f"({qid}, '{t}')" for qid, ts in sorted(BM25_QUERIES.items())
        for t in ts)
    return f"""
    WITH q(query_id, w) AS (VALUES {values}),
    tok AS (
        SELECT doc_id,
               unnest(regexp_split_to_array(
                   regexp_replace(text, '^\\s+|\\s+$', '', 'g'),
                   '{_WS}')) AS w
        FROM documents
    ),
    dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY 1),
    stats AS (
        SELECT count(*) AS n, sum(dl) / count(*) AS avgdl FROM dl
    ),
    tf AS (
        SELECT t.doc_id, t.w, count(*) AS tf
        FROM tok t WHERE t.w IN (SELECT w FROM q) GROUP BY 1, 2
    ),
    df AS (SELECT w, count(*) AS df FROM tf GROUP BY 1),
    sc AS (
        SELECT q.query_id, tf.doc_id,
               round(sum(
                   ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                   * tf.tf * ({BM25_K1} + 1.0)
                   / (tf.tf + {BM25_K1}
                      * (1.0 - {BM25_B} + {BM25_B} * dl.dl / s.avgdl))
               ), 6) AS score
        FROM tf
        JOIN q ON q.w = tf.w
        JOIN df ON df.w = tf.w
        JOIN dl ON dl.doc_id = tf.doc_id
        CROSS JOIN stats s
        GROUP BY 1, 2
    )
    SELECT query_id, doc_id, score FROM sc
    QUALIFY row_number() OVER (
        PARTITION BY query_id ORDER BY score DESC, doc_id) <= {BM25_TOP_K}
    """


register(
    "doc_bm25_topk",
    lambda sf: bm25_topk(_read_documents(sf, ["doc_id", "text"])),
    _bm25_sql(),
)
