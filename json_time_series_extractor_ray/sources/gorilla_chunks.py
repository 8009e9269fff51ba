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

Scale shape: the read is direct, with no Ray Data plan
(``sources/parquet.read_decoded``).  The calling process reads the
footers and keeps only the row groups whose ``t_min``/``t_max``
statistics can overlap the time range, and cuts them into a bounded
number of groups (``plan_row_groups``); one Ray task per group reads
them, drops the chunks outside the range and decodes the rest in one
``decode_chunk_batch`` call (one chunk row expands to ``n_points``
sample rows).  The read runs when called and its samples
stay in the object store while the Dataset lives: read a large store by
range.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.gorilla import decompress_chunks

#: the columns ``decode_chunk_batch`` reads, and the range filter's
_COLUMNS = ["series_key", "chunk", "t_min", "t_max"]

_EMPTY = pa.schema([("series_key", pa.string()), ("ts_ns", pa.int64()),
                    ("value_num", pa.float64())]).empty_table()


def decode_chunk_batch(batch: pa.Table) -> pa.Table:
    """Chunk rows -> (series_key, ts_ns, value_num) sample rows, every chunk
    of the batch decoded in one call.  A corrupt chunk raises
    ``ValueError``."""
    if batch.num_rows == 0:
        return _EMPTY
    ts, vals, counts = decompress_chunks(batch.column("chunk").to_pylist())
    rows = np.repeat(np.arange(batch.num_rows), counts)
    return pa.table(
        {
            "series_key": batch.column("series_key").take(rows),
            "ts_ns": pa.array(ts, pa.int64()),
            "value_num": pa.array(vals, pa.float64()),
        }
    )


def read_gorilla_chunks(path: str, *, min_ts_ns: int | None = None,
                        max_ts_ns: int | None = None):
    """Read a chunk directory as a materialized samples Dataset.

    ``min_ts_ns``/``max_ts_ns`` keep the chunks whose ``[t_min, t_max]``
    overlaps the range: a row group whose statistics rule that out is
    never fetched, and a file left with none starts no task.  Runs when
    called (module docstring); a corrupt chunk raises ``ValueError`` here.
    """
    from .parquet import read_decoded

    return read_decoded(path, decode_chunk_batch, columns=_COLUMNS,
                        bounds=("t_min", "t_max"), lo=min_ts_ns,
                        hi=max_ts_ns)
