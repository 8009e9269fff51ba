"""Token chunk source: read compressed token-sequence chunk files back
into the mandated corpus schema ``(doc_id, tokens: list<int32>, n_tok,
source)``.

Mirror of ``sources/gorilla_chunks.py`` for the tokens axis: chunk files
written by ``state.tokenstore.compress_corpus_dataset`` are Parquet with
``min_doc_id``/``max_doc_id`` columns.  The read is the same direct read
as the Gorilla store's (``sources/parquet.read_decoded``): the calling
process keeps only the row groups whose doc-range statistics can overlap
the range, and one Ray task per group of them (``plan_row_groups``)
fetches and decodes them — one chunk row expands to ``n_docs`` corpus
rows.  The codec is exactly lossless, so readback preserves per-row
token-array equality (the north-rule invariant) bit-for-bit, enforced by
each chunk's blake2b checksum.  The read runs when called and holds its
corpus rows in the object store while the Dataset lives.
"""

from __future__ import annotations

import pyarrow as pa

from ..state.tokenstore import decode_token_chunk

#: the columns ``decode_chunk_batch`` reads, the range filter's among them
_COLUMNS = ["payload", "checksum", "min_doc_id", "max_doc_id", "doc_ids",
            "n_tok", "sources"]

_EMPTY = pa.table({
    "doc_id": pa.array([], pa.string()),
    "tokens": pa.array([], pa.list_(pa.int32())),
    "n_tok": pa.array([], pa.int32()),
    "source": pa.array([], pa.string()),
})


def decode_chunk_batch(batch: pa.Table) -> pa.Table:
    """Chunk rows -> corpus rows (checksum-verified)."""
    parts = [
        decode_token_chunk({
            "payload": batch.column("payload")[i].as_py(),
            "checksum": batch.column("checksum")[i].as_py(),
            "min_doc_id": batch.column("min_doc_id")[i].as_py(),
            "max_doc_id": batch.column("max_doc_id")[i].as_py(),
            "doc_ids": batch.column("doc_ids")[i].as_py(),
            "n_tok": batch.column("n_tok")[i].as_py(),
            "sources": batch.column("sources")[i].as_py(),
        })
        for i in range(batch.num_rows)
    ]
    return pa.concat_tables(parts) if parts else _EMPTY


def read_token_chunks(path: str, *, min_doc_id: str | None = None,
                      max_doc_id: str | None = None):
    """Read a token-chunk directory as a materialized corpus Dataset.

    ``min_doc_id``/``max_doc_id`` keep the chunks whose doc range overlaps
    the range: a row group whose statistics rule that out is never
    fetched, and a file left with none starts no task.
    """
    from .parquet import read_decoded

    return read_decoded(path, decode_chunk_batch, columns=_COLUMNS,
                        bounds=("min_doc_id", "max_doc_id"),
                        lo=min_doc_id, hi=max_doc_id)
