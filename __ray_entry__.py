"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship tokenized pipeline (events -> mandated corpus
table -> detokenize -> extract -> rollup ladder) on sf0.001.  ``queries()``
exposes each implemented operator as a callable over an ``sf_dir``;
``oracle_sql()`` holds the DuckDB-equivalent SQL for every
SQL-expressible one (same column names both sides — the driver hashes
values after sorting columns by name).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from json_time_series_extractor_ray.pipelines._events_sql import (
    EVENTS_SAMPLES_SQL as _EVENTS_SAMPLES_SQL,
    rollup_linear_sql as _rollup_linear_sql,
    rollup_locf_sql as _rollup_locf_sql,
    rollup_tier_sql as _rollup_tier_sql,
)
from json_time_series_extractor_ray.pipelines.timeseries import (
    events_corpus_dataset,
    extract_and_rollup,
    extract_pipeline,
    gapfill_tier_for_compare,
    gorilla_roundtrip_stats,
    rollup_tier_for_compare,
    samples_for_compare,
)

SF0001 = "/root/testdata/sf0.001"


_WINDOW_NS = {"1m": 60_000_000_000, "1h": 3_600_000_000_000, "1d": 86_400_000_000_000}


def _events_samples(sf_dir: str):
    corpus = events_corpus_dataset(sf_dir)
    samples = extract_pipeline(corpus)
    return samples_for_compare(samples, with_ordinal=True)


def _events_samples_actors(sf_dir: str):
    """Same extraction as events_extract_samples but through a stateful
    ACTOR POOL (`map_batches(Cls, concurrency=(1, 2))` — compiled plan
    built once per actor in __init__), pinned against the identical
    oracle: the task-based and actor-based paths must agree exactly."""
    corpus = events_corpus_dataset(sf_dir)
    samples = extract_pipeline(corpus, concurrency=(1, 2))
    return samples_for_compare(samples, with_ordinal=True)


def _events_rollup(sf_dir: str, tier: str):
    corpus = events_corpus_dataset(sf_dir)
    rollups = extract_and_rollup(corpus, tiers=("1m", "1h", "1d"))
    return rollup_tier_for_compare(rollups, tier)


def _events_rollup_1w(sf_dir: str):
    """Calendar-ALIGNED tier: Monday-aligned (ISO) weeks via the ladder's
    window-offset support (epoch day 0 is a Thursday, so week boundaries
    are NOT epoch multiples of 7 days) — the oracle floors with the same
    shifted expression, equal to DuckDB ``date_trunc('week', ...)``."""
    corpus = events_corpus_dataset(sf_dir)
    rollups = extract_and_rollup(corpus, tiers=("1m", "1w"))
    return rollup_tier_for_compare(rollups, "1w")


def _events_rollup_salted(sf_dir: str):
    """Hot-key shape through the driver gate: the events corpus holds a few
    series with many samples each, and its 1m rollup runs through the one
    unsalted ladder path (the per-block combiner bounds a hot key to one
    row per (block, window) before the shuffle).  It must hash-match the
    SAME oracle as the plain 1m rollup.  The name is kept from the removed
    two-phase salting option it used to exercise."""
    from json_time_series_extractor_ray.pipelines.timeseries import (
        extract_pipeline as _ep,
    )
    from json_time_series_extractor_ray.stages.rollup import rollup_ladder

    corpus = events_corpus_dataset(sf_dir)
    rollups = rollup_ladder(_ep(corpus), tiers=("1m",))
    return rollup_tier_for_compare(rollups, "1m")


def _events_rollup_incremental(sf_dir: str, tier: str):
    """Incremental continuous-aggregate maintenance through the driver
    gate: the corpus is split by doc parity, each half rolled up
    independently, and the two ladders merged with ``merge_tier_rollups``
    (union of 1m partial-shaped rows -> per-series re-cascade).  The
    result must hash-match the SAME oracle as the one-shot batch rollup —
    merging yesterday's tiers with today's increment is exact."""
    import pyarrow as pa

    from json_time_series_extractor_ray.stages.rollup import (
        merge_tier_rollups,
    )

    def _half(parity: int):
        corpus = events_corpus_dataset(sf_dir)

        def _f(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            # doc_id is 'evt-%010d' (14 chars): parity of the last digit,
            # fully in Arrow kernels (round 1 ran pandas .str per row).
            last = pc.utf8_slice_codeunits(
                batch.column("doc_id"), start=13, stop=14
            )
            digits = "02468" if parity == 0 else "13579"
            return batch.filter(
                pc.is_in(last, value_set=pa.array(list(digits)))
            )

        return corpus.map_batches(_f, batch_format="pyarrow",
                                  zero_copy_batch=True)

    ladders = [
        extract_and_rollup(_half(p), tiers=("1m", "1h", "1d"))
        for p in (0, 1)
    ]
    return rollup_tier_for_compare(merge_tier_rollups(ladders), tier)


def _events_rollup_locf(sf_dir: str):
    corpus = events_corpus_dataset(sf_dir)
    rollups = extract_and_rollup(corpus, tiers=("1m",), gap_fill="locf")
    return gapfill_tier_for_compare(rollups, "1m")


def _events_rollup_recent(sf_dir: str):
    """Predicate pushdown at the read (prune-at-the-read rule): only events
    from Jan 15 on leave storage — row-group pruning + row filtering in
    the parquet scan — then the normal 1m rollup."""
    import datetime as _dt

    import pyarrow.dataset as pads

    cutoff = _dt.datetime(2024, 1, 15)
    corpus = events_corpus_dataset(
        sf_dir, filter=pads.field("ts") >= cutoff
    )
    rollups = extract_and_rollup(corpus, tiers=("1m",))
    return rollup_tier_for_compare(rollups, "1m")


def _events_rollup_linear(sf_dir: str):
    """Linear-interpolated gap fill, exactly value-hashed: interpolation
    runs over the 6-decimal-ROUNDED window means (``gap_fill_round=6``)
    so both engines interpolate bit-identical doubles with the same IEEE
    expression — the raw-mean variant stays available via
    ``gap_fill_round=None`` but cannot be hash-compared across engines
    (summation-order ULP noise)."""
    corpus = events_corpus_dataset(sf_dir)
    rollups = extract_and_rollup(corpus, tiers=("1m",), gap_fill="linear",
                                 gap_fill_round=6)
    return gapfill_tier_for_compare(rollups, "1m")


def _events_gorilla(sf_dir: str):
    """Per-series Gorilla compression report, fully oracle-gated: the
    SQL-exact columns (point count, 16 B/point raw size) plus two pinned
    engine facts — ``roundtrip_ok`` (bit-exact decode of every chunk) and
    ``ratio_floor_ok`` (compression ratio >= 0.9 for every non-empty
    series; the near-random ``value`` series sits at ~0.95, the delta-
    friendly ``user``/``props/k`` series at ~1.45).  The raw compressed
    bytes stay engine-side (exercised by the three readback queries and
    pytest); this report keeps the driver's gate meaningful without a
    binary column it cannot hash."""
    import pyarrow as _pa

    corpus = events_corpus_dataset(sf_dir)
    stats = gorilla_roundtrip_stats(extract_pipeline(corpus))

    def _report(batch: _pa.Table) -> _pa.Table:
        n = batch.column("n_points").to_pylist()
        ratio = batch.column("ratio").to_pylist()
        ok = [bool(c == 0 or r >= 0.9) for c, r in zip(n, ratio)]
        return _pa.table({
            "series_key": batch.column("series_key"),
            "n_points": batch.column("n_points"),
            "raw_bytes": batch.column("raw_bytes"),
            "roundtrip_ok": batch.column("roundtrip_ok"),
            "ratio_floor_ok": _pa.array(ok, _pa.bool_()),
        })

    return stats.map_batches(_report, batch_format="pyarrow",
                             zero_copy_batch=True)


def _events_gorilla_counts(sf_dir: str):
    """SQL-expressible projection of the Gorilla chunk stats: per-series
    point/byte counts plus the decode-verification flag (the oracle pins
    ``roundtrip_ok = true`` for every series — a bit-exactness check the
    compressed-bytes columns can't express in SQL)."""
    import pyarrow as _pa

    stats = _events_gorilla(sf_dir)

    def _project(batch: _pa.Table) -> _pa.Table:
        return batch.select(
            ["series_key", "n_points", "raw_bytes", "roundtrip_ok"]
        )

    return stats.map_batches(_project, batch_format="pyarrow",
                             zero_copy_batch=True)


def _events_gorilla_readback(sf_dir: str, bucket_ns: int | None = None):
    """Full compressed-storage cycle, oracle-checked: extract -> Gorilla
    chunk files on disk -> chunk SOURCE decodes them back to samples.  The
    codec is bit-exact, so the read-back must hash-match the plain numeric
    samples relation.  ``bucket_ns`` exercises the bucketed chunking
    mode (one chunk per series x time bucket, cut inside each shard task;
    a hot series gets many chunk rows, its task still holds the whole
    shard) against the SAME oracle."""
    from json_time_series_extractor_ray.pipelines._util import scratch_dir
    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )
    from json_time_series_extractor_ray.state.gorilla import (
        compress_series_dataset,
    )

    corpus = events_corpus_dataset(sf_dir)
    chunks = compress_series_dataset(extract_pipeline(corpus),
                                     bucket_ns=bucket_ns)
    tag = "" if bucket_ns is None else "_bkt"
    out = scratch_dir(f"gorilla_rb{tag}_{sf_dir}")
    chunks.write_parquet(out)
    return read_gorilla_chunks(out)


def _events_gorilla_compacted(sf_dir: str):
    """Chunk-compaction maintenance cycle, oracle-checked end-to-end:
    extract -> DAILY-bucketed Gorilla chunks on disk (many small chunks)
    -> ``compact_chunks`` merges each series back to few large chunks ->
    chunk SOURCE decodes them.  Compaction is bit-exact, so the read-back
    must hash-match the SAME plain numeric-samples oracle as the
    uncompacted cycle."""
    from json_time_series_extractor_ray.pipelines._util import scratch_dir
    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )
    from json_time_series_extractor_ray.state.gorilla import (
        compact_chunks,
        compress_series_dataset,
    )

    corpus = events_corpus_dataset(sf_dir)
    chunks = compress_series_dataset(
        extract_pipeline(corpus), bucket_ns=86_400_000_000_000
    )
    out = scratch_dir(f"gorilla_compact_{sf_dir}")
    compact_chunks(chunks).write_parquet(out)
    return read_gorilla_chunks(out)


def _events_filtered(sf_dir: str):
    """Include/exclude pointer filters through the whole tokenized path:
    include MQTT-style ``/props/+`` and literal ``/value``, exclude
    ``/props/k`` -> only the ``value`` series survives."""
    corpus = events_corpus_dataset(sf_dir)
    samples = extract_pipeline(
        corpus,
        dict(
            recursive=True,
            include=["/props/+", "/value"],
            exclude=["/props/k"],
        ),
    )
    return samples_for_compare(samples)


def _events_wildcards(sf_dir: str):
    """Pattern wildcards through the tokenized path (reference F4,
    ``JsonTimeSeriesExtractorTests.cs:381-423``): ``?`` matches one
    character, ``*`` any run — include ``/val?e`` and ``/u*r`` keeps only
    the ``value`` and ``user`` series."""
    corpus = events_corpus_dataset(sf_dir)
    samples = extract_pipeline(
        corpus,
        dict(recursive=True, include=["/val?e", "/u*r"],
             allow_wildcard_expressions=True),
    )
    return samples_for_compare(samples)


def _events_proppath(sf_dir: str):
    """``{$prop-path}`` template placeholder through the tokenized path
    (reference K4, ``JsonTimeSeriesExtractorTests.cs:151-211``): the
    parent path of each sample property — empty for root-level ``/value``,
    ``props`` for ``/props/k``."""
    corpus = events_corpus_dataset(sf_dir)
    samples = extract_pipeline(
        corpus,
        dict(recursive=True, template="{type}|{$prop-path}|{$prop-local}",
             include=["/value", "/props/k"]),
    )
    return samples_for_compare(samples)


def _events_unresolved_skip(sf_dir: str):
    """Unresolved-template skip through the tokenized path (reference K6,
    ``JsonTimeSeriesExtractorTests.cs:691-705``): only even ``event_id``
    payloads carry the ``site`` property, so with
    ``allow_unresolved_template_replacements=False`` the odd half of the
    corpus emits no samples at all."""
    import functools

    import ray

    from json_time_series_extractor_ray.corpus import events_to_corpus_sparse

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    corpus = ds.map_batches(
        functools.partial(events_to_corpus_sparse),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    samples = extract_pipeline(
        corpus,
        dict(recursive=True, template="{site}/{$prop-local}",
             allow_unresolved_template_replacements=False,
             include=["/value", "/props/k"]),
    )
    return samples_for_compare(samples)


def _events_startat(sf_dir: str):
    """``start_at=/props`` re-roots extraction (reference S2): the document
    becomes ``{"k": ...}``, ``/time`` no longer resolves, so the injected
    deterministic fallback (0) applies with source=CURRENT_TIME."""
    corpus = events_corpus_dataset(sf_dir)
    samples = extract_pipeline(corpus, dict(recursive=True, start_at="/props"))
    return samples_for_compare(samples)


def _events_fallback_col(sf_dir: str):
    """Per-row deterministic fallback timestamp (reference T3 through the
    whole tokenized path): payloads carry no /time, so every sample's ts
    comes from the corpus ``ingest_ts`` sidecar column
    (source=CURRENT_TIME, deterministically injected)."""
    import functools

    import ray

    from json_time_series_extractor_ray.corpus import events_to_corpus_nots

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    corpus = ds.map_batches(
        functools.partial(events_to_corpus_nots),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    samples = extract_pipeline(
        corpus, dict(recursive=True), fallback_ts_column="ingest_ts"
    )
    return samples_for_compare(samples)


def _events_nested_corpus(sf_dir: str, tokenizer: str = "utf8"):
    import functools

    import ray

    from json_time_series_extractor_ray.corpus import events_to_nested_corpus

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    fn = functools.partial(events_to_nested_corpus, tokenizer=tokenizer)
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _events_nested(sf_dir: str):
    """Array traversal + nested timestamps (reference M4/M5 +
    AllowNestedTimestamps): each reading carries its own /time."""
    samples = extract_pipeline(
        _events_nested_corpus(sf_dir),
        dict(recursive=True, allow_nested_timestamps=True),
    )
    return samples_for_compare(samples)


def _events_nested_noidx(sf_dir: str):
    """Same payloads with IncludeArrayIndexesInSampleKeys=false -> both
    readings share the key ``data/v`` (reference K2 suppression)."""
    samples = extract_pipeline(
        _events_nested_corpus(sf_dir),
        dict(
            recursive=True,
            allow_nested_timestamps=True,
            include_array_indexes_in_sample_keys=False,
        ),
    )
    return samples_for_compare(samples)


def _events_custom_tsparser(sf_dir: str):
    """User-supplied ``timestamp_parser`` through the tokenized Ray path
    (reference T2, ``JsonTimeSeriesExtractorTests.cs:743-776``): payload
    timestamps are unix SECONDS, which the default numeric rule would
    read as unix milliseconds — only the hook yields the intended
    instants, and the oracle pins them to the second-floored event ts."""
    import functools

    import ray

    from json_time_series_extractor_ray.corpus import events_to_corpus_unixsec
    from json_time_series_extractor_ray.extractor import ExtractorOptions
    from json_time_series_extractor_ray.functions.userhooks import (
        unix_seconds_parser,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    corpus = ds.map_batches(
        functools.partial(events_to_corpus_unixsec),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    samples = extract_pipeline(
        corpus,
        ExtractorOptions(recursive=True,
                         timestamp_parser=unix_seconds_parser),
    )
    return samples_for_compare(samples)


def _events_template_hook(sf_dir: str):
    """User-supplied ``get_template_replacement`` through the tokenized
    Ray path (reference ``JsonTimeSeriesExtractorTests.cs:109-150``):
    the sparse corpus carries ``site`` only on even event ids; the hook
    substitutes ``s-default`` for the odd half instead of skipping or
    leaving the literal placeholder."""
    import functools

    import ray

    from json_time_series_extractor_ray.corpus import events_to_corpus_sparse
    from json_time_series_extractor_ray.extractor import ExtractorOptions
    from json_time_series_extractor_ray.functions.userhooks import (
        site_default_replacement,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    corpus = ds.map_batches(
        functools.partial(events_to_corpus_sparse),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    opts = ExtractorOptions.from_dict(dict(
        recursive=True,
        template="{site}/{$prop-local}",
        include=["/value", "/props/k"],
    )).copy(get_template_replacement=site_default_replacement)
    samples = extract_pipeline(corpus, opts)
    return samples_for_compare(samples)


def _events_templated(sf_dir: str):
    """Custom key template ``{type}/{$prop-local}`` (document-property
    placeholder + local property name, reference K3/K5 semantics)."""
    corpus = events_corpus_dataset(sf_dir)
    samples = extract_pipeline(
        corpus,
        dict(recursive=True, template="{type}/{$prop-local}",
             include=["/value", "/props/k"]),
    )
    return samples_for_compare(samples)


def entry() -> Any:
    """Flagship pipeline on sf0.001: events -> tokenized corpus -> extract
    -> full raw->1m->1h->1d rollup ladder.  Returns the rollup Dataset."""
    corpus = events_corpus_dataset(SF0001)
    return extract_and_rollup(corpus, tiers=("1m", "1h", "1d"))


def queries() -> dict[str, Callable[[str], Any]]:
    q: dict[str, Callable[[str], Any]] = {
        # -- tokenized time-series pipeline (SURVEY.md §2.1-2.5, §2.6 ladder)
        "events_extract_samples": _events_samples,
        "events_extract_samples_actors": _events_samples_actors,
        "events_rollup_1m": lambda sf: _events_rollup(sf, "1m"),
        "events_rollup_1h": lambda sf: _events_rollup(sf, "1h"),
        "events_rollup_1d": lambda sf: _events_rollup(sf, "1d"),
        "events_rollup_1w": _events_rollup_1w,
        "events_rollup_1m_salted": _events_rollup_salted,
        "events_rollup_1m_incremental":
            lambda sf: _events_rollup_incremental(sf, "1m"),
        "events_rollup_1h_incremental":
            lambda sf: _events_rollup_incremental(sf, "1h"),
        "events_rollup_1m_locf": _events_rollup_locf,
        "events_rollup_1m_linear": _events_rollup_linear,
        "events_rollup_1m_recent": _events_rollup_recent,
        "events_gorilla_chunks": _events_gorilla,
        "events_gorilla_chunk_counts": _events_gorilla_counts,
        "events_gorilla_readback": _events_gorilla_readback,
        # compaction maintenance cycle vs the same readback oracle
        "events_gorilla_compacted_readback": _events_gorilla_compacted,
        # bucketed chunking (one chunk per series x day) vs same oracle
        "events_gorilla_readback_bucketed":
            lambda sf: _events_gorilla_readback(
                sf, bucket_ns=86_400_000_000_000
            ),
        "events_extract_filtered": _events_filtered,
        "events_extract_templated": _events_templated,
        "events_extract_custom_tsparser": _events_custom_tsparser,
        "events_extract_template_hook": _events_template_hook,
        "events_extract_wildcards": _events_wildcards,
        "events_extract_proppath": _events_proppath,
        "events_extract_unresolved_skip": _events_unresolved_skip,
        "events_extract_startat": _events_startat,
        "events_extract_fallback_col": _events_fallback_col,
        "events_extract_nested": _events_nested,
        "events_extract_nested_noidx": _events_nested_noidx,
    }
    from json_time_series_extractor_ray.pipelines import registry

    q.update(registry.extra_queries())
    return q


def oracle_sql() -> dict[str, str]:
    o = {
        "events_extract_samples": f"SELECT * FROM ({_EVENTS_SAMPLES_SQL})",
        "events_extract_samples_actors":
            f"SELECT * FROM ({_EVENTS_SAMPLES_SQL})",
        "events_rollup_1m": _rollup_tier_sql(_WINDOW_NS["1m"]),
        "events_rollup_1h": _rollup_tier_sql(_WINDOW_NS["1h"]),
        "events_rollup_1d": _rollup_tier_sql(_WINDOW_NS["1d"]),
        # Monday-aligned weeks: offset 4 days (epoch day 0 is a Thursday)
        "events_rollup_1w": _rollup_tier_sql(
            604_800_000_000_000, offset_ns=345_600_000_000_000
        ),
        "events_rollup_1m_salted": _rollup_tier_sql(_WINDOW_NS["1m"]),
        "events_rollup_1m_incremental": _rollup_tier_sql(_WINDOW_NS["1m"]),
        "events_rollup_1h_incremental": _rollup_tier_sql(_WINDOW_NS["1h"]),
        "events_rollup_1m_locf": _rollup_locf_sql(_WINDOW_NS["1m"]),
        "events_rollup_1m_linear": _rollup_linear_sql(_WINDOW_NS["1m"]),
        # Gorilla chunk stats, SQL-expressible slice: per-series numeric
        # point count (+ 16 bytes/point raw size); roundtrip_ok pins the
        # engine-side bit-exact decode check to true for every series.
        "events_gorilla_chunk_counts": f"""
            SELECT series_key,
                   count(value_num) AS n_points,
                   16 * count(value_num) AS raw_bytes,
                   true AS roundtrip_ok
            FROM ({_EVENTS_SAMPLES_SQL})
            GROUP BY series_key
        """,
        # Compression report: the same SQL-exact slice plus the pinned
        # per-series ratio floor (>= 0.9 for every non-empty series).
        "events_gorilla_chunks": f"""
            SELECT series_key,
                   count(value_num) AS n_points,
                   16 * count(value_num) AS raw_bytes,
                   true AS roundtrip_ok,
                   true AS ratio_floor_ok
            FROM ({_EVENTS_SAMPLES_SQL})
            GROUP BY series_key
        """,
        "events_rollup_1m_recent": _rollup_tier_sql(
            _WINDOW_NS["1m"], where="ts >= TIMESTAMP '2024-01-15'"
        ),
        # Gorilla codec is bit-exact: chunk files read back == the plain
        # numeric-samples relation (series_key, ts_ns, value_num)
        "events_gorilla_readback": f"""
            SELECT series_key, ts_ns, value_num
            FROM ({_EVENTS_SAMPLES_SQL})
            WHERE value_num IS NOT NULL
        """,
        "events_gorilla_readback_bucketed": f"""
            SELECT series_key, ts_ns, value_num
            FROM ({_EVENTS_SAMPLES_SQL})
            WHERE value_num IS NOT NULL
        """,
        "events_gorilla_compacted_readback": f"""
            SELECT series_key, ts_ns, value_num
            FROM ({_EVENTS_SAMPLES_SQL})
            WHERE value_num IS NOT NULL
        """,
        # include /props/+ and /value, exclude /props/k -> only 'value' left
        "events_extract_filtered": """
            SELECT 'value' AS series_key, epoch_ns(ts) AS ts_ns,
                   value AS value_num, CAST(NULL AS VARCHAR) AS value_str,
                   printf('evt-%010d', event_id) AS doc_id
            FROM events
        """,
        # template {type}/{$prop-local} over /value and /props/k
        "events_extract_templated": """
            SELECT event_type || '/value' AS series_key, epoch_ns(ts) AS ts_ns,
                   value AS value_num, CAST(NULL AS VARCHAR) AS value_str,
                   printf('evt-%010d', event_id) AS doc_id
            FROM events
            UNION ALL
            SELECT event_type || '/k', epoch_ns(ts),
                   CAST(json_extract(props, '$.k') AS DOUBLE), NULL,
                   printf('evt-%010d', event_id)
            FROM events
        """,
        # custom timestamp_parser: unix-SECONDS payloads -> second-floored ts
        "events_extract_custom_tsparser": """
            SELECT 'type' AS series_key,
                   epoch_ns(ts) // 1000000000 * 1000000000 AS ts_ns,
                   CAST(NULL AS DOUBLE) AS value_num,
                   event_type AS value_str,
                   printf('evtu-%010d', event_id) AS doc_id
            FROM events
            UNION ALL
            SELECT 'user', epoch_ns(ts) // 1000000000 * 1000000000,
                   CAST(user_id AS DOUBLE), NULL,
                   printf('evtu-%010d', event_id)
            FROM events
            UNION ALL
            SELECT 'value', epoch_ns(ts) // 1000000000 * 1000000000,
                   value, NULL, printf('evtu-%010d', event_id)
            FROM events
            UNION ALL
            SELECT 'props/k', epoch_ns(ts) // 1000000000 * 1000000000,
                   CAST(json_extract(props, '$.k') AS DOUBLE), NULL,
                   printf('evtu-%010d', event_id)
            FROM events
        """,
        # get_template_replacement: '{site}' resolves from the document on
        # even event ids, from the hook ('s-default') on odd ones
        "events_extract_template_hook": """
            SELECT CASE WHEN event_id % 2 = 0
                        THEN 's' || CAST(user_id % 4 AS VARCHAR)
                        ELSE 's-default' END || '/value' AS series_key,
                   epoch_ns(ts) AS ts_ns, value AS value_num,
                   CAST(NULL AS VARCHAR) AS value_str,
                   printf('evts-%010d', event_id) AS doc_id
            FROM events
            UNION ALL
            SELECT CASE WHEN event_id % 2 = 0
                        THEN 's' || CAST(user_id % 4 AS VARCHAR)
                        ELSE 's-default' END || '/k',
                   epoch_ns(ts),
                   CAST(json_extract(props, '$.k') AS DOUBLE), NULL,
                   printf('evts-%010d', event_id)
            FROM events
        """,
        # pattern wildcards: /val?e -> value, /u*r -> user
        "events_extract_wildcards": """
            SELECT 'value' AS series_key, epoch_ns(ts) AS ts_ns,
                   value AS value_num, CAST(NULL AS VARCHAR) AS value_str,
                   printf('evt-%010d', event_id) AS doc_id
            FROM events
            UNION ALL
            SELECT 'user', epoch_ns(ts), CAST(user_id AS DOUBLE), NULL,
                   printf('evt-%010d', event_id)
            FROM events
        """,
        # template {type}|{$prop-path}|{$prop-local}: parent path is empty
        # for root-level /value, 'props' for /props/k
        "events_extract_proppath": """
            SELECT event_type || '||value' AS series_key,
                   epoch_ns(ts) AS ts_ns,
                   value AS value_num, CAST(NULL AS VARCHAR) AS value_str,
                   printf('evt-%010d', event_id) AS doc_id
            FROM events
            UNION ALL
            SELECT event_type || '|props|k', epoch_ns(ts),
                   CAST(json_extract(props, '$.k') AS DOUBLE), NULL,
                   printf('evt-%010d', event_id)
            FROM events
        """,
        # {site} resolves only for even event_id payloads; odd docs skip
        # every sample (allow_unresolved_template_replacements=False)
        "events_extract_unresolved_skip": """
            SELECT 's' || CAST(user_id % 4 AS VARCHAR) || '/value'
                       AS series_key,
                   epoch_ns(ts) AS ts_ns,
                   value AS value_num, CAST(NULL AS VARCHAR) AS value_str,
                   printf('evts-%010d', event_id) AS doc_id
            FROM events WHERE event_id % 2 = 0
            UNION ALL
            SELECT 's' || CAST(user_id % 4 AS VARCHAR) || '/k',
                   epoch_ns(ts),
                   CAST(json_extract(props, '$.k') AS DOUBLE), NULL,
                   printf('evts-%010d', event_id)
            FROM events WHERE event_id % 2 = 0
        """,
        # start_at=/props: re-rooted doc {"k":...}; /time unresolvable ->
        # deterministic fallback ts 0 (CURRENT_TIME source)
        "events_extract_startat": """
            SELECT 'k' AS series_key, 0 AS ts_ns,
                   CAST(json_extract(props, '$.k') AS DOUBLE) AS value_num,
                   CAST(NULL AS VARCHAR) AS value_str,
                   printf('evt-%010d', event_id) AS doc_id
            FROM events
        """,
        # no /time in payload -> per-row fallback ts from ingest_ts sidecar
        "events_extract_fallback_col": """
            SELECT 'type' AS series_key, epoch_ns(ts) AS ts_ns,
                   CAST(NULL AS DOUBLE) AS value_num, event_type AS value_str,
                   printf('evtf-%010d', event_id) AS doc_id
            FROM events
            UNION ALL
            SELECT 'user', epoch_ns(ts), CAST(user_id AS DOUBLE), NULL,
                   printf('evtf-%010d', event_id)
            FROM events
            UNION ALL
            SELECT 'value', epoch_ns(ts), value, NULL,
                   printf('evtf-%010d', event_id)
            FROM events
            UNION ALL
            SELECT 'props/k', epoch_ns(ts),
                   CAST(json_extract(props, '$.k') AS DOUBLE), NULL,
                   printf('evtf-%010d', event_id)
            FROM events
        """,
        # nested readings: type at doc ts; each data[i].v at its own nested ts
        "events_extract_nested": """
            SELECT 'type' AS series_key, epoch_ns(ts) AS ts_ns,
                   CAST(NULL AS DOUBLE) AS value_num, event_type AS value_str,
                   printf('evtn-%010d', event_id) AS doc_id
            FROM events
            UNION ALL
            SELECT 'data/0/v', epoch_ns(ts + INTERVAL 1 SECOND), value, NULL,
                   printf('evtn-%010d', event_id)
            FROM events
            UNION ALL
            SELECT 'data/1/v', epoch_ns(ts + INTERVAL 2 SECOND), value * 2, NULL,
                   printf('evtn-%010d', event_id)
            FROM events
        """,
        # same with array-index suppression: both readings keyed data/v
        "events_extract_nested_noidx": """
            SELECT 'type' AS series_key, epoch_ns(ts) AS ts_ns,
                   CAST(NULL AS DOUBLE) AS value_num, event_type AS value_str,
                   printf('evtn-%010d', event_id) AS doc_id
            FROM events
            UNION ALL
            SELECT 'data/v', epoch_ns(ts + INTERVAL 1 SECOND), value, NULL,
                   printf('evtn-%010d', event_id)
            FROM events
            UNION ALL
            SELECT 'data/v', epoch_ns(ts + INTERVAL 2 SECOND), value * 2, NULL,
                   printf('evtn-%010d', event_id)
            FROM events
        """,
    }
    from json_time_series_extractor_ray.pipelines import registry

    o.update(registry.extra_oracle_sql())
    return o
