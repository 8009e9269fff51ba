"""End-to-end time-series pipelines over the mandated tokenized corpus.

The flagship flow (BASELINE.json ``north_star``)::

    read_parquet(corpus)                       # (doc_id, tokens, n_tok, source)
      -> map_batches(ExtractSamplesStage, ...) # detokenize -> parse -> samples
      -> map_batches(PartialRollupStage)       # per-block combiner
      -> shard_apply(cascade_series_group)     # ONE shuffle, by shard; one
                                               # Arrow kernel per shard: tier
                                               # cascade (+ segmented gap-fill)
      -> write_parquet(tier dirs)

The resumable job (``job.run_job``) shuffles samples by shard instead and
commits each shard's rollups and Gorilla chunks in its group task
(``state/checkpoint.run_sharded_rollup``).

Everything here is lazy-Dataset-in / lazy-Dataset-out; sessions are owned by
the caller.  The ``events``-derived variants exist so the whole tokenized
path (tokenize -> detokenize -> extract -> rollup) is checkable against an
ANSI-SQL oracle over the original driver table (``__ray_entry__.oracle_sql``).
"""

from __future__ import annotations

import functools

import pyarrow as pa

from ..corpus import events_to_corpus
from ..extractor import ExtractorOptions
from ..stages.extract import extract_dataset
from ..stages.rollup import TIER_ORDER, rollup_ladder
from ._util import read_parquet_file

#: Options for the events-derived payloads
#: ``{"time": iso, "type": str, "user": int, "value": float, "props": {...}}``:
#: recursive traversal, default ``/time`` timestamp property, default
#: ``{$prop}`` template -> series keys ``type``, ``user``, ``value``,
#: ``props/<k>``.
EVENTS_OPTIONS = dict(recursive=True)


def events_corpus_dataset(sf_dir: str, tokenizer: str = "utf8", *, filter=None):
    """Driver ``events`` table -> mandated tokenized corpus Dataset.

    ``filter`` is a pyarrow dataset expression pushed into the parquet
    scan (row-group pruning + row filtering at the read — rows outside
    the predicate never leave storage).  The read drops the file's pandas
    metadata (``_util.read_parquet_file``)."""
    ds = read_parquet_file(f"{sf_dir}/events.parquet", filter=filter)
    fn = functools.partial(events_to_corpus, tokenizer=tokenizer)
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def extract_pipeline(
    corpus_ds,
    options: dict | ExtractorOptions | None = None,
    *,
    tokenizer: str = "utf8",
    concurrency=None,
    batch_size: int = 2048,
    **stage_kwargs,
):
    """Corpus Dataset -> samples Dataset (SAMPLE_SCHEMA)."""
    opts = options if options is not None else dict(EVENTS_OPTIONS)
    stage_kwargs.setdefault("fallback_now_ns", 0)
    return extract_dataset(
        corpus_ds,
        opts,
        tokenizer=tokenizer,
        concurrency=concurrency,
        batch_size=batch_size,
        **stage_kwargs,
    )


def extract_and_rollup(
    corpus_ds,
    options: dict | ExtractorOptions | None = None,
    *,
    tiers=TIER_ORDER,
    gap_fill: str | None = None,
    gap_fill_round: int | None = None,
    tokenizer: str = "utf8",
    concurrency=None,
    batch_size: int = 2048,
    **stage_kwargs,
):
    """Corpus Dataset -> tiered rollup Dataset (one shuffle total)."""
    samples = extract_pipeline(
        corpus_ds,
        options,
        tokenizer=tokenizer,
        concurrency=concurrency,
        batch_size=batch_size,
        **stage_kwargs,
    )
    return rollup_ladder(samples, tiers=tiers, gap_fill=gap_fill,
                         gap_fill_round=gap_fill_round)


def samples_for_compare(samples_ds, *, with_ordinal: bool = False):
    """Project samples to the oracle-comparable shape.

    ``ts`` becomes ``ts_ns`` (int64 epoch nanoseconds) so the comparison is
    resolution-exact regardless of how the driver hashes timestamp columns.
    """

    def _project(batch: pa.Table) -> pa.Table:
        cols = {
            "series_key": batch.column("series_key"),
            "ts_ns": batch.column("ts").cast(pa.int64()),
            "value_num": batch.column("value_num"),
            "value_str": batch.column("value_str"),
            "doc_id": batch.column("doc_id"),
        }
        if with_ordinal:
            cols["ordinal"] = batch.column("sample_ordinal").cast(pa.int32())
        return pa.table(cols)

    return samples_ds.map_batches(_project, batch_format="pyarrow", zero_copy_batch=True)


def rollup_tier_for_compare(rollup_ds, tier: str, *, round_digits: int = 6):
    """Select one tier and project to the oracle-comparable shape.

    Float ``sum``/``mean`` are rounded to ``round_digits`` decimals on BOTH
    sides of the comparison: the engine sums in deterministic
    ``(ts, doc_id, ordinal)`` order while a SQL engine sums in arbitrary
    order, so the trailing bits of an unrounded double sum are not
    comparable across engines.  The rounding mirrors DuckDB's
    ``round``-as-``std::round(x*1e6)/1e6`` double arithmetic bit-for-bit
    (``pc.round`` computes a different — sometimes 1-ULP-off — result).
    ``min``/``max``/``last``/``count`` are exact.
    """
    import pyarrow.compute as pc

    from ._util import round_half_away

    def _round_col(col):
        return pa.array(
            round_half_away(col.to_numpy(zero_copy_only=False), round_digits)
        )

    def _project(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("tier"), tier)
        t = batch.filter(mask)
        # mean is recomputed from the ROUNDED sum: decimal-valued inputs
        # create exact 6-digit midpoints (sum/2^k counts) where the two
        # engines' summation-order ULP noise would round opposite ways;
        # rounding the sum first gives both engines an identical dividend.
        sum_r = round_half_away(
            t.column("sum").to_numpy(zero_copy_only=False), round_digits
        )
        count = t.column("count").to_numpy(zero_copy_only=False)
        mean_r = round_half_away(sum_r / count, round_digits)
        return pa.table(
            {
                "series_key": t.column("series_key"),
                "window_ns": t.column("window_start").cast(pa.int64()),
                "min": t.column("min"),
                "max": t.column("max"),
                "mean": pa.array(mean_r),
                "sum": pa.array(sum_r),
                "count": t.column("count"),
                "last": t.column("last"),
                "last_ts_ns": t.column("last_ts").cast(pa.int64()),
            }
        )

    return rollup_ds.map_batches(_project, batch_format="pyarrow", zero_copy_batch=True)


def gapfill_tier_for_compare(rollup_ds, tier: str, *, round_digits: int = 6):
    """Oracle-comparable projection of a gap-filled tier (adds ``fill``)."""
    import pyarrow.compute as pc

    from ._util import round_half_away

    def _round_col(col):
        return pa.array(
            round_half_away(col.to_numpy(zero_copy_only=False), round_digits)
        )

    def _project(batch: pa.Table) -> pa.Table:
        import numpy as np

        t = batch.filter(pc.equal(batch.column("tier"), tier))
        # Observed windows: mean from the ROUNDED sum (midpoint-stable, see
        # rollup_tier_for_compare).  Filled windows (count==0): mean is the
        # carried value — an exact input double, safe to round directly.
        sum_r = round_half_away(
            t.column("sum").to_numpy(zero_copy_only=False), round_digits
        )
        count = t.column("count").to_numpy(zero_copy_only=False)
        carried = round_half_away(
            t.column("mean").to_numpy(zero_copy_only=False), round_digits
        )
        mean_r = np.where(
            count > 0,
            round_half_away(sum_r / np.where(count > 0, count, 1), round_digits),
            carried,
        )
        return pa.table(
            {
                "series_key": t.column("series_key"),
                "window_ns": t.column("window_start").cast(pa.int64()),
                "fill": t.column("fill"),
                "min": t.column("min"),
                "max": t.column("max"),
                "mean": pa.array(mean_r),
                "sum": pa.array(sum_r),
                "count": t.column("count"),
                "last": t.column("last"),
                "last_ts_ns": t.column("last_ts").cast(pa.int64()),
            }
        )

    return rollup_ds.map_batches(_project, batch_format="pyarrow", zero_copy_batch=True)


def gorilla_roundtrip_stats(samples_ds):
    """Per-series Gorilla chunk stats with a decode-verification flag —
    the compression sink exercised end-to-end (rows-only driver check)."""
    import numpy as np
    import pandas as pd

    from ..state.gorilla import compress_chunk, decompress_chunk

    def _stats(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "doc_id", "sample_ordinal"], kind="stable")
        num = df[df["value_kind"] == 1]
        ts = num["ts"].astype("int64").to_numpy()
        vals = num["value_num"].to_numpy(dtype=np.float64)
        chunk = compress_chunk(ts, vals)
        ts2, vals2 = decompress_chunk(chunk)
        ok = bool(
            np.array_equal(ts, ts2)
            and np.array_equal(vals.view(np.uint64), vals2.view(np.uint64))
        )
        raw = 16 * len(ts)
        return pd.DataFrame(
            {
                "series_key": [df["series_key"].iloc[0]],
                "n_points": np.int64(len(ts)),
                "raw_bytes": np.int64(raw),
                "chunk_bytes": np.int64(len(chunk)),
                "ratio": round(raw / len(chunk), 3) if len(chunk) else 0.0,
                "roundtrip_ok": ok,
            }
        )

    return samples_ds.groupby("series_key").map_groups(_stats, batch_format="pandas")


def write_tiers(rollup_ds, out_dir: str):
    """Write the rollup Dataset as hive-partitioned Parquet, one directory
    per retention tier (``tier=1m/…``), in a single pass — the pipeline
    executes once and the writer fans rows out by partition value.
    ``state/checkpoint.py`` layers shard-level resume on top."""
    rollup_ds.write_parquet(out_dir, partition_cols=["tier"])
    return out_dir
