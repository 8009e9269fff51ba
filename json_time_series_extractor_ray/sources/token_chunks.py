"""Token chunk source: read compressed token-sequence chunk files back
into the mandated corpus schema ``(doc_id, tokens: list<int32>, n_tok,
source)``.

Mirror of ``sources/gorilla_chunks.py`` for the tokens axis: chunk files
written by ``state.tokenstore.compress_corpus_dataset`` are Parquet with
``min_doc_id``/``max_doc_id`` columns, so a doc-range read prunes whole
chunks at the scan (predicate pushdown) before any payload bytes are
fetched or decoded.  Decode is a stateless per-batch ``map_batches`` —
one chunk row expands to ``n_docs`` corpus rows; the codec is exactly
lossless, so readback preserves per-row token-array equality (the
north-rule invariant) bit-for-bit, enforced by each chunk's blake2b
checksum.
"""

from __future__ import annotations

import pyarrow as pa

from ..state.tokenstore import decode_token_chunk

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
    """Read a token-chunk directory as a corpus Dataset.

    ``min_doc_id``/``max_doc_id`` prune whole chunks at the Parquet scan
    via the chunk-range metadata columns — a range read never decodes (or
    fetches) chunks entirely outside the range.
    """
    import pyarrow.dataset as pads

    from .parquet import read_parquet

    flt = None
    if min_doc_id is not None:
        flt = pads.field("max_doc_id") >= min_doc_id
    if max_doc_id is not None:
        f2 = pads.field("min_doc_id") <= max_doc_id
        flt = f2 if flt is None else (flt & f2)
    ds = read_parquet(path, filter=flt)
    return ds.map_batches(
        decode_chunk_batch, batch_format="pyarrow", zero_copy_batch=True
    )
