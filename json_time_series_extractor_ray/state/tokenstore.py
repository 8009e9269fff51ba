"""Compressed columnar chunk store for the mandated token sequences.

The north-rule input is a Parquet table of pre-tokenized training
sequences ``(doc_id, tokens: list<int32>, n_tok, source)`` with per-row
token-array equality as the engine invariant.  This module is the token
analogue of the Gorilla value store (``state/gorilla.py``): many documents
are packed into one self-describing chunk whose token stream is
zigzag-varint encoded (LEB128), giving 1 byte per token for the common
small ids (the UTF-8 tokenizer's whole vocab, and the low end of a BPE
vocab) instead of 4, while staying exactly lossless for any int32.

Scale shape: encoding is a stateless ``map_batches`` (one chunk row out
per input batch — no shuffle, no coordination); chunk rows carry
``min_doc_id``/``max_doc_id`` so a doc-range read prunes whole row
groups by their footer statistics before any payload is fetched (the
same direct read as ``sources/gorilla_chunks.py``); each chunk embeds a blake2b checksum the
reader verifies, so a corrupted partition fails loudly instead of
yielding wrong token arrays.

Both codec directions are vectorized numpy over the flat token buffer —
no per-token (or per-document) Python in either direction.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

_MAGIC = b"TSTC1\x00"


def varint_encode(values: np.ndarray, *, zigzag: bool = True) -> bytes:
    """LEB128 encode an int32/int64 array, fully vectorized.

    ``zigzag=True`` maps signed values to unsigned first (any int32 is
    lossless); ``zigzag=False`` encodes the raw non-negative values —
    one byte per token for ids < 128, which is the whole ASCII range of
    the UTF-8 tokenizer (zigzag would double them to 2 bytes).  The
    chunk writer picks the mode per chunk and records it in the header.

    Per-value byte counts are computed from magnitude thresholds, bytes
    are scattered into one preallocated buffer in <= 10 vector passes
    (one per possible byte position) — no Python loop over values.
    """
    v = np.asarray(values, dtype=np.int64)
    if zigzag:
        u = ((v << 1) ^ (v >> 63)).astype(np.uint64)  # zigzag
    else:
        if len(v) and v.min() < 0:
            raise ValueError("zigzag=False requires non-negative values")
        u = v.astype(np.uint64)
    nb = np.ones(len(u), dtype=np.int64)
    for j in range(1, 10):
        nb += (u >= (np.uint64(1) << np.uint64(7 * j))).astype(np.int64)
    starts = np.zeros(len(u) + 1, dtype=np.int64)
    np.cumsum(nb, out=starts[1:])
    out = np.zeros(starts[-1], dtype=np.uint8)
    for j in range(10):
        mask = nb > j
        if not mask.any():
            break
        byte = (u[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (nb[mask] - 1 > j).astype(np.uint8) << 7
        out[starts[:-1][mask] + j] = byte.astype(np.uint8) | cont
    return out.tobytes()


def varint_decode(data: bytes, *, zigzag: bool = True) -> np.ndarray:
    """Inverse of :func:`varint_encode`; returns int64 values."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if len(buf) == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.flatnonzero((buf & 0x80) == 0)
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    acc = np.zeros(len(ends), dtype=np.uint64)
    for j in range(int(lengths.max())):
        mask = lengths > j
        part = (buf[starts[mask] + j] & 0x7F).astype(np.uint64)
        acc[mask] |= part << np.uint64(7 * j)
    if not zigzag:
        return acc.astype(np.int64)
    # un-zigzag
    return ((acc >> np.uint64(1)).astype(np.int64)) ^ -(
        (acc & np.uint64(1)).astype(np.int64)
    )


def encode_token_chunk(doc_ids, tokens_list_array, sources) -> dict:
    """Pack one batch of corpus rows into a single chunk row (plain dict
    of Arrow-ready values).  ``tokens_list_array`` is the batch's Arrow
    ``list<int32>`` column — its flat values buffer is encoded in one
    vectorized pass; per-doc boundaries ride along as an ``n_tok`` list."""
    if isinstance(tokens_list_array, pa.ChunkedArray):
        tokens_list_array = tokens_list_array.combine_chunks()
    flat = tokens_list_array.values.to_numpy(zero_copy_only=False)
    offsets = tokens_list_array.offsets.to_numpy(zero_copy_only=False)
    n_tok = np.diff(offsets).astype(np.int32)
    # mode byte: 0 = unsigned LEB128 (all ids >= 0, 1 byte per ASCII
    # token), 1 = zigzag (any int32)
    unsigned = len(flat) == 0 or flat.min() >= 0
    payload = (_MAGIC + bytes([0 if unsigned else 1])
               + varint_encode(flat, zigzag=not unsigned))
    ids = list(doc_ids)
    return {
        "n_docs": np.int32(len(ids)),
        "min_doc_id": min(ids) if ids else "",
        "max_doc_id": max(ids) if ids else "",
        "n_tokens": np.int64(len(flat)),
        "raw_bytes": np.int64(flat.nbytes if flat.dtype == np.int32
                              else len(flat) * 4),
        "enc_bytes": np.int64(len(payload)),
        "checksum": hashlib.blake2b(payload, digest_size=16).hexdigest(),
        "doc_ids": ids,
        "n_tok": n_tok,
        "sources": list(sources),
        "payload": payload,
    }


def decode_token_chunk(row: dict) -> pa.Table:
    """One chunk row -> the original corpus rows, bit-for-bit.

    Verifies the embedded checksum (raises ``ValueError`` on mismatch) and
    rebuilds the ``tokens`` list column from the flat decoded buffer with
    the stored per-doc offsets — a zero-copy ``ListArray.from_arrays``."""
    payload = row["payload"]
    want = row["checksum"]
    got = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if got != want:
        raise ValueError(
            f"token chunk checksum mismatch ({row['min_doc_id']}.."
            f"{row['max_doc_id']}): stored {want}, computed {got}"
        )
    if not payload.startswith(_MAGIC):
        raise ValueError("not a token chunk payload (bad magic)")
    mode = payload[len(_MAGIC)]
    flat = varint_decode(payload[len(_MAGIC) + 1:],
                         zigzag=mode == 1).astype(np.int32)
    n_tok = np.asarray(row["n_tok"], dtype=np.int32)
    offsets = np.zeros(len(n_tok) + 1, dtype=np.int32)
    np.cumsum(n_tok, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                      pa.array(flat, pa.int32()))
    return pa.table({
        "doc_id": pa.array(list(row["doc_ids"]), pa.string()),
        "tokens": tokens,
        "n_tok": pa.array(n_tok, pa.int32()),
        "source": pa.array(list(row["sources"]), pa.string()),
    })


def compress_corpus_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` body: one corpus batch -> one chunk row, none for
    a batch with no rows."""
    row = encode_token_chunk(
        batch.column("doc_id").to_pylist(),
        batch.column("tokens"),
        batch.column("source").to_pylist(),
    )
    out = pa.table({
        "n_docs": pa.array([row["n_docs"]], pa.int32()),
        "min_doc_id": pa.array([row["min_doc_id"]], pa.string()),
        "max_doc_id": pa.array([row["max_doc_id"]], pa.string()),
        "n_tokens": pa.array([row["n_tokens"]], pa.int64()),
        "raw_bytes": pa.array([row["raw_bytes"]], pa.int64()),
        "enc_bytes": pa.array([row["enc_bytes"]], pa.int64()),
        "checksum": pa.array([row["checksum"]], pa.string()),
        "doc_ids": pa.array([row["doc_ids"]], pa.list_(pa.string())),
        "n_tok": pa.array([row["n_tok"]], pa.list_(pa.int32())),
        "sources": pa.array([row["sources"]], pa.list_(pa.string())),
        "payload": pa.array([row["payload"]], pa.binary()),
    })
    return out if batch.num_rows else out.slice(0, 0)


def compress_corpus_dataset(corpus_ds):
    """Corpus Dataset -> chunk-row Dataset (stateless, shuffle-free)."""
    return corpus_ds.map_batches(
        compress_corpus_batch, batch_format="pyarrow", zero_copy_batch=True
    )
