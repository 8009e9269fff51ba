"""Gorilla chunk source: read per-series compressed chunk files back into
a samples Dataset.

The reference library has no writer at all (its CLI prints to stdout,
``samples/JsonTimeSeriesExtractor.Cli/Program.cs:37-39``); the chunk sink
and this matching source are engine-side design (SURVEY.md §2.1 S3,
north_star "Gorilla ... per-partition columnar chunks").  Chunk rows are
the ``compress_series_dataset`` output schema ``(series_key, n_points,
t_min, t_max, raw_bytes, chunk: binary)`` written as Parquet; decoding is
bit-exact (delta-of-delta timestamps + XOR float64), so a read-back
yields exactly the numeric samples that were compressed.

Scale shape: chunk files are read with normal Parquet block parallelism
(``t_min``/``t_max`` columns support predicate pushdown for time-range
reads before any chunk is decoded); decode is a stateless per-batch
``map_batches`` — one chunk row expands to ``n_points`` sample rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.gorilla import decompress_chunks


def decode_chunk_batch(batch: pa.Table) -> pa.Table:
    """Chunk rows -> (series_key, ts_ns, value_num) sample rows, every chunk
    of the batch decoded in one call.  A corrupt chunk raises
    ``ValueError``."""
    keys = batch.column("series_key").to_numpy(zero_copy_only=False)
    ts, vals, counts = decompress_chunks(batch.column("chunk").to_pylist())
    return pa.table(
        {
            "series_key": pa.array(np.repeat(keys, counts), pa.string()),
            "ts_ns": pa.array(ts, pa.int64()),
            "value_num": pa.array(vals, pa.float64()),
        }
    )


def read_gorilla_chunks(path: str, *, min_ts_ns: int | None = None,
                        max_ts_ns: int | None = None):
    """Read a chunk directory as a samples Dataset.

    ``min_ts_ns``/``max_ts_ns`` prune whole chunks at the Parquet scan via
    the ``t_min``/``t_max`` metadata columns — a time-range read never
    decodes (or even fetches) chunks entirely outside the range.
    """
    import pyarrow.dataset as pads

    from .parquet import read_parquet

    flt = None
    if min_ts_ns is not None:
        flt = pads.field("t_max") >= min_ts_ns
    if max_ts_ns is not None:
        f2 = pads.field("t_min") <= max_ts_ns
        flt = f2 if flt is None else (flt & f2)
    ds = read_parquet(path, filter=flt)
    return ds.map_batches(
        decode_chunk_batch, batch_format="pyarrow", zero_copy_batch=True
    )
