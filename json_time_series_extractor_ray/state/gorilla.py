"""Gorilla time-series compression: delta-of-delta timestamps + XOR floats.

Public algorithm from Facebook's Gorilla paper (Pelkonen et al., VLDB
2015, "Gorilla: A Fast, Scalable, In-Memory Time Series Database").
From-scratch implementation — the reference library has no compression at
all (SURVEY.md §2.6); this is the engine's chunk format for the retention
ladder (BASELINE.json north_star).

Layout per chunk (one series, one time range):

* header: first timestamp (int64 ns), first value (float64), count
* timestamps: delta-of-delta, variable-width buckets as in the paper §4.1.1
  ('0' | '10'+7b | '110'+9b | '1110'+12b | '1111'+32b; deltas in SECONDS in
  the paper — here in raw ns, with the 32-bit bucket widened to 64 bits
  when needed via an escape: '1111' + 64b)
* values: XOR with previous; '0' identical, '10' reuse previous
  leading/meaningful-bit window, '11' + 5b leading + 6b length + bits
  (paper §4.1.2)

The codec works on whole arrays.  The encoder computes deltas,
delta-of-deltas, zigzag codes, bucket widths, XORs and their leading and
trailing zero counts in wrapping int64/uint64 numpy arithmetic, so every
int64 timestamp sequence round-trips.  Its only sequential state, which
value window is in use, is one plain-int loop over the nonzero XORs.  One
bit packer then writes every field: prefix-summed bit offsets, each field
OR-ed into a big-endian uint64 word, spilling into the next word when it
crosses a boundary.  The decoder walks each section once with plain ints
to find code boundaries (a timestamp code's length follows from its 5-bit
prefix, a value code's from its 13-bit prefix and the current window),
reads every payload in one vectorized gather, and rebuilds timestamps with
a double cumsum and values with an XOR accumulate.  ``compress_chunks`` and
``decompress_chunks`` do this for many chunks in one call, so numpy's fixed
per-call cost is paid once per batch.  A truncated, padded or otherwise
corrupt chunk raises ``ValueError("gorilla: ...")``.
"""

from __future__ import annotations

import functools
import struct

import numpy as np
import pyarrow as pa

from .checkpoint import ShardSamples, lex_ranks, shard_apply

_U64 = np.uint64
#: first timestamp, first value's IEEE bits, point count
_HEADER = struct.Struct("<qQq")

# Delta-of-delta codes by bucket: '0' for dod == 0, then zigzag(dod) below
# 2^7, 2^9, 2^12 and 2^32, then the 64-bit escape that extends the paper's
# 32-bit bucket for ns-resolution deltas.
_DOD_LIMITS = np.array([1, 1 << 7, 1 << 9, 1 << 12, 1 << 32], _U64)
_DOD_PREFIX = np.array([0, 0b10, 0b110, 0b1110, 0b11110, 0b11111], _U64)
_DOD_PREFIX_BITS = np.array([1, 2, 3, 4, 5, 5], np.int64)
_DOD_BITS = np.array([0, 7, 9, 12, 32, 64], np.int64)
#: bucket of a timestamp code by its first 5 bits
_DOD_BUCKET_OF = np.array([0] * 16 + [1] * 8 + [2] * 4 + [3] * 2 + [4, 5])
#: a timestamp code's length in bits by its first 5 bits
_DOD_CODE_BITS = (_DOD_PREFIX_BITS + _DOD_BITS)[_DOD_BUCKET_OF].tolist()


def _bit_length(x: np.ndarray) -> np.ndarray:
    """uint64 -> int64 bit lengths (0 for 0).  Each 32-bit half converts
    to float64 exactly, so frexp's exponent is exact."""
    _, hi = np.frexp((x >> _U64(32)).astype(np.float64))
    _, lo = np.frexp((x & _U64(0xFFFFFFFF)).astype(np.float64))
    return np.where(hi > 0, hi.astype(np.int64) + 32, lo.astype(np.int64))


def _open_windows(lead: list, trail: list, fresh: list) -> list:
    """Indices of the nonzero XORs that open a value window ('11'); the
    others reuse the open one ('10').  A chunk's first nonzero XOR is
    ``fresh`` and always opens one."""
    opened = []
    wl = wt = 0
    for i, (ld, tr, f) in enumerate(zip(lead, trail, fresh)):
        if f or ld < wl or tr < wt:
            opened.append(i)
            wl, wt = ld, tr
    return opened


def _pack(fields: np.ndarray, widths: np.ndarray, per_chunk: np.ndarray):
    """Bit-pack ``fields`` (uint64, each below 2^width, width <= 64)
    MSB-first, ``per_chunk[k]`` fields to chunk k, every chunk starting on a
    64-bit word.  -> (buffer, each chunk's byte offset, each chunk's byte
    length)."""
    end = np.cumsum(widths)
    chunk_end = np.concatenate(([0], end))[np.cumsum(per_chunk)]
    chunk_bits = np.diff(chunk_end, prepend=0)
    padded = (chunk_bits + 63) & ~63
    base = np.cumsum(padded) - padded
    off = end - widths + np.repeat(base - (chunk_end - chunk_bits), per_chunk)
    n_words = int(padded.sum()) >> 6
    # one spare word: a zero-width field may sit at the very end
    words = np.zeros(n_words + 1, _U64)
    if len(fields):
        w = off >> 6
        reach = (off & 63) + widths  # field end, in bits from its word start
        fits = reach <= 64
        part = np.where(fits, fields << ((64 - reach) & 63).astype(_U64),
                        fields >> ((reach - 64) & 63).astype(_U64))
        starts = np.flatnonzero(np.diff(w, prepend=-1))
        words[w[starts]] = np.bitwise_or.reduceat(part, starts)
        spill = np.flatnonzero(~fits)
        words[w[spill] + 1] |= (
            fields[spill] << (128 - reach[spill]).astype(_U64))
    return (words[:n_words].astype(">u8").tobytes(), base >> 3,
            (chunk_bits + 7) >> 3)


def compress_chunks(ts_ns, values, counts) -> list:
    """Encode many chunks in one call.

    ``ts_ns`` (int64, sorted per chunk) and ``values`` (float64) hold the
    chunks' points back to back; ``counts[k]`` is chunk k's point count.
    Returns one chunk per count, each equal to ``compress_chunk`` of its
    slice.
    """
    ts = np.ascontiguousarray(ts_ns, dtype=np.int64)
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U64)
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if len(ts) != len(bits) or (counts < 0).any() or counts.sum() != len(ts):
        raise ValueError("gorilla: counts must split ts_ns and values")
    n_codes = np.maximum(counts - 1, 0)
    has = counts > 0
    first = (np.cumsum(counts) - counts)[has]
    first_ts = np.zeros(len(counts), np.int64)
    first_bits = np.zeros(len(counts), _U64)
    first_ts[has] = ts[first]
    first_bits[has] = bits[first]
    is_code = np.ones(len(ts), bool)  # every point but a chunk's first
    is_code[first] = False

    # --- timestamps: wrapping delta-of-delta, zigzag, bucket ---
    delta = np.zeros(len(ts), np.int64)
    delta[1:] = ts[1:] - ts[:-1]
    delta[first] = 0
    dod = delta.copy()
    dod[1:] -= delta[:-1]
    dod = dod[is_code]
    zig = ((dod << 1) ^ (dod >> 63)).view(_U64)
    bucket = np.searchsorted(_DOD_LIMITS, zig, side="right")

    # --- values: XOR, leading (capped at 31) and trailing zeros ---
    xor = np.zeros(len(bits), _U64)
    xor[1:] = bits[1:] ^ bits[:-1]
    xor = xor[is_code]
    nz = np.flatnonzero(xor)
    xn = xor[nz]
    lead = np.minimum(64 - _bit_length(xn), 31)
    trail = _bit_length(xn & (~xn + _U64(1))) - 1
    chunk_of = np.repeat(np.arange(len(counts)), n_codes)[nz]
    fresh = np.ones(len(nz), bool)
    fresh[1:] = chunk_of[1:] != chunk_of[:-1]
    is_new = np.zeros(len(nz), bool)
    is_new[_open_windows(lead.tolist(), trail.tolist(), fresh.tolist())] = True
    win = np.maximum.accumulate(np.where(is_new, np.arange(len(nz)), 0))
    w_len = 64 - lead[win] - trail[win]

    # stream order per chunk: its timestamp codes, then its value codes,
    # each code a (head, payload) field pair
    n_all = int(n_codes.sum())
    fields = np.zeros((2 * n_all, 2), _U64)
    widths = np.zeros((2 * n_all, 2), np.int64)
    ts_slot = np.arange(n_all) + np.repeat(np.cumsum(n_codes) - n_codes,
                                           n_codes)
    fields[ts_slot, 0] = _DOD_PREFIX[bucket]
    widths[ts_slot, 0] = _DOD_PREFIX_BITS[bucket]
    fields[ts_slot, 1] = zig
    widths[ts_slot, 1] = _DOD_BITS[bucket]
    val_slot = ts_slot + np.repeat(n_codes, n_codes)
    widths[val_slot, 0] = 1  # '0': identical value
    nz_slot = val_slot[nz]
    fields[nz_slot, 0] = np.where(
        is_new,
        (0b11 << 11) | (lead << 6) | (w_len - 1),
        0b10).astype(_U64)
    widths[nz_slot, 0] = np.where(is_new, 13, 2)
    fields[nz_slot, 1] = xn >> trail[win].astype(_U64)
    widths[nz_slot, 1] = w_len
    body, start, size = _pack(fields.ravel(), widths.ravel(), 4 * n_codes)

    return [_HEADER.pack(t, b, n) + body[s:s + z] for t, b, n, s, z in zip(
        first_ts.tolist(), first_bits.tolist(), counts.tolist(),
        start.tolist(), size.tolist())]


def compress_chunk(ts_ns: np.ndarray, values: np.ndarray) -> bytes:
    """(n,) int64 timestamps (sorted) + (n,) float64 values -> chunk bytes."""
    ts_ns = np.asarray(ts_ns, dtype=np.int64).reshape(-1)
    return compress_chunks(ts_ns, values, [len(ts_ns)])[0]


def _walk(win, p: int, m: int, ts_starts: list, val_starts: list) -> int:
    """Append the start bit of each of one chunk's ``m`` timestamp codes,
    then of its ``m`` value codes, walking from bit ``p`` of the 32-bit
    windows ``win`` (``win[i]`` = bytes i..i+3); return the bit after the
    last code.  Runs of '0' codes are taken up to 25 at a time."""
    code_bits = _DOD_CODE_BITS
    i = 0
    while i < m:
        v = (win[p >> 3] >> (7 - (p & 7))) & 0x1FFFFFF
        if v >> 24:
            ts_starts.append(p)
            p += code_bits[v >> 20]
            i += 1
        else:
            k = 25 - v.bit_length()
            if k > m - i:
                k = m - i
            ts_starts.extend(range(p, p + k))
            p += k
            i += k
    i = width = 0
    while i < m:
        v = (win[p >> 3] >> (7 - (p & 7))) & 0x1FFFFFF
        if not v >> 24:
            k = 25 - v.bit_length()
            if k > m - i:
                k = m - i
            val_starts.extend(range(p, p + k))
            p += k
            i += k
            continue
        val_starts.append(p)
        if v >> 23 == 0b11:
            width = ((v >> 12) & 63) + 1
            p += 13 + width
        else:
            p += 2 + width
        i += 1
    return p


def _read_bits(words: np.ndarray, pos: np.ndarray, width) -> np.ndarray:
    """The ``width``-bit (0..64) big-endian fields at bit offsets ``pos``
    of the uint64 word array ``words``."""
    w = pos >> 6
    o = (pos & 63).astype(_U64)
    window = (words[w] << o) | ((words[w + 1] >> _U64(1)) >> (_U64(63) - o))
    width = np.asarray(width, np.int64)
    return np.where(width > 0,
                    window >> ((64 - width) & 63).astype(_U64), _U64(0))


def decompress_chunks(chunks):
    """Decode many chunks in one call -> (ts_ns int64, values float64,
    counts int64): the chunks' points back to back, ``counts[k]`` of them
    from chunk k.  Raises ``ValueError`` on a truncated or corrupt chunk.
    """
    n_chunks = len(chunks)
    counts = np.zeros(n_chunks, np.int64)
    first_ts = np.zeros(n_chunks, np.int64)
    first_bits = np.zeros(n_chunks, _U64)
    parts, spans = [], []
    offset = 0
    for k, data in enumerate(chunks):
        if len(data) < _HEADER.size:
            raise ValueError(
                f"gorilla: {len(data)}-byte chunk is shorter than its header")
        t0, b0, n = _HEADER.unpack_from(data)
        size = len(data) - _HEADER.size
        if n < 0 or 2 * max(n - 1, 0) > 8 * size:
            raise ValueError(
                f"gorilla: {n} points cannot fit in a {size}-byte body")
        counts[k], first_ts[k], first_bits[k] = n, t0, b0
        # 16 zero bytes after each body keep the walk's reads and the
        # word gather inside the buffer
        parts += (memoryview(data)[_HEADER.size:], bytes(16))
        spans.append((offset, size))
        offset += size + 16
    buf = b"".join(parts)
    buf += bytes(-len(buf) & 7)  # whole words
    a = np.frombuffer(buf, np.uint8).astype(np.uint32)
    win = memoryview(((a[:-3] << 24) | (a[1:-2] << 16) | (a[2:-1] << 8)
                      | a[3:]).tobytes()).cast("I")
    ts_starts, val_starts = [], []
    for (start, size), n in zip(spans, counts.tolist()):
        try:
            end = _walk(win, 8 * start, max(n - 1, 0), ts_starts, val_starts)
        except IndexError:
            end = 8 * len(buf)
        if (end - 8 * start + 7) >> 3 != size:
            raise ValueError(
                f"gorilla: codes end at body byte "
                f"{(end - 8 * start + 7) >> 3}, body has {size}")

    words = np.frombuffer(buf, ">u8").astype(_U64)
    # --- timestamps ---
    ts_pos = np.array(ts_starts, np.int64)
    bucket = _DOD_BUCKET_OF[_read_bits(words, ts_pos, 5)]
    zig = _read_bits(words, ts_pos + _DOD_PREFIX_BITS[bucket],
                     _DOD_BITS[bucket])
    dod = (zig >> _U64(1)).view(np.int64) ^ -(zig & _U64(1)).view(np.int64)
    # --- values ---
    val_pos = np.array(val_starts, np.int64)
    head = _read_bits(words, val_pos, 13).view(np.int64)
    nonzero = head >= 0b1 << 12
    is_new = head >= 0b11 << 11
    n_codes = np.maximum(counts - 1, 0)
    opener = np.maximum.accumulate(
        np.where(is_new, np.arange(len(head)), -1))
    chunk_start = np.repeat(np.cumsum(n_codes) - n_codes, n_codes)
    if (nonzero & (opener < chunk_start)).any():
        raise ValueError("gorilla: value code reuses a window never opened")
    lead = (head >> 6) & 31
    width = (head & 63) + 1
    if (is_new & (lead + width > 64)).any():
        raise ValueError("gorilla: value window wider than 64 bits")
    opener = np.maximum(opener, 0)
    lead, width = lead[opener], np.where(nonzero, width[opener], 0)
    payload = _read_bits(words, val_pos + np.where(is_new, 13, 2), width)
    xor = payload << np.where(nonzero, 64 - lead - width, 0).astype(_U64)

    # --- per-chunk prefix sums over the points back to back ---
    has = counts > 0
    first = (np.cumsum(counts) - counts)[has]
    runs = counts[has]
    is_code = np.ones(int(counts.sum()), bool)
    is_code[first] = False
    delta = np.zeros(len(is_code), np.int64)
    delta[is_code] = dod
    delta = np.cumsum(delta)
    delta -= np.repeat(delta[first], runs)
    delta[first] = first_ts[has]
    ts = np.cumsum(delta)
    ts -= np.repeat(ts[first] - first_ts[has], runs)
    bits = np.zeros(len(is_code), _U64)
    bits[is_code] = xor
    bits[first] = first_bits[has]
    bits = np.bitwise_xor.accumulate(bits)
    bits ^= np.repeat(bits[first] ^ first_bits[has], runs)
    return ts, bits.view(np.float64), counts


def decompress_chunk(data: bytes):
    """chunk bytes -> (ts_ns int64 array, values float64 array)."""
    ts, vals, _ = decompress_chunks([data])
    return ts, vals


class GorillaChunkWriter:
    """Samples -> one chunk row per series, or per series x
    ``ts // bucket_ns`` bucket when ``bucket_ns`` is given.

    The rows are rank-coded and sorted once (``ShardSamples``: one integer
    ``lexsort`` by ``(series_key, ts, doc_id, sample_ordinal)``, a null
    ``doc_id`` after every string), cut into series (or series x bucket)
    segments, and every segment's numeric samples are encoded in one
    ``compress_chunks`` call, emitting ``(series_key, n_points, t_min,
    t_max, raw_bytes, chunk)`` rows for the chunk sink.  A series (or
    bucket) with no numeric sample keeps a 0-point row.  Takes a shard's
    Arrow table and returns one.  The job (``chunks``, sharing its shard's
    sort) and ``compress_series_dataset`` call it on a whole shard.
    """

    def __init__(self, bucket_ns: int | None = None):
        self.bucket_ns = bucket_ns

    def __call__(self, samples: pa.Table) -> pa.Table:
        return self.chunks(ShardSamples(samples))

    def chunks(self, samples: ShardSamples) -> pa.Table:
        order = samples.order(nulls_first=False)
        series, ts = samples.series[order], samples.ts[order]
        cut = series[1:] != series[:-1]
        if self.bucket_ns is not None:
            cut |= np.diff(ts // self.bucket_ns) != 0
        # [:len(order)]: 0 rows make no segment
        starts = np.flatnonzero(np.r_[True, cut])[:len(order)]
        numeric = samples.numeric[order]
        counts = np.add.reduceat(numeric.astype(np.int64), starts)
        points = order[numeric]
        return _chunk_rows(samples.keys.take(series[starts]),
                           samples.ts[points], samples.values[points], counts)


def _chunk_rows(keys, ts, vals, counts) -> pa.Table:
    """Chunk rows ``(series_key, n_points, t_min, t_max, raw_bytes,
    chunk)``: one per ``counts`` slice of the points, all encoded in one
    call."""
    first = np.cumsum(counts) - counts
    has = counts > 0
    t_min = np.zeros(len(counts), np.int64)
    t_max = np.zeros(len(counts), np.int64)
    t_min[has] = ts[first[has]]
    t_max[has] = ts[first[has] + counts[has] - 1]
    return pa.table(
        {
            "series_key": pa.array(keys, pa.string()),
            "n_points": counts,
            "t_min": t_min,
            "t_max": t_max,
            "raw_bytes": 16 * counts,
            "chunk": pa.array(compress_chunks(ts, vals, counts), pa.binary()),
        }
    )


def compress_series_dataset(samples_ds, *, bucket_ns: int | None = None):
    """Samples Dataset -> Gorilla chunk rows (one shard-keyed shuffle,
    ``state/checkpoint.shard_apply``; one ``GorillaChunkWriter`` call per
    shard).

    Default: one chunk per series.  ``bucket_ns``: one chunk per series x
    ``ts // bucket_ns`` bucket, cut by the writer inside the shard, so no
    chunk row holds more than one bucket of a hot series.  A task still
    holds its whole shard: ``num_shards``, not ``bucket_ns``, bounds task
    memory (the job's trade-off too).  Chunk rows are self-contained, so
    readers need no change: a time-range read prunes per-chunk
    ``t_min``/``t_max`` exactly as before, just at finer granularity.
    """
    return shard_apply(samples_ds, GorillaChunkWriter(bucket_ns).__call__)


def compact_chunks(chunks_ds, *, target_points: int = 1_000_000):
    """LSM-style chunk compaction: merge each series' many small chunks
    into few large ones (bit-exact decode -> concat -> re-encode),
    re-splitting at ``target_points`` so no output chunk is unbounded.

    The retention ladder writes one chunk per (series, time bucket) per
    run; after many incremental runs a series accumulates hundreds of
    small chunks and read-side pruning/decoding overhead grows.  This is
    the maintenance pass that restores big-chunk economics.

    Scale shape: the input is CHUNK rows (one per series x bucket —
    orders of magnitude smaller than samples), shuffled ONCE by shard
    (``state/checkpoint.shard_apply``); each shard task decodes all chunks
    of all its series in one ``decompress_chunks`` call, cuts each
    series' points into ``target_points`` slices and re-encodes every
    slice in one ``compress_chunks`` call.
    Assumes per-series chunk time ranges do not overlap (the writer's
    bucket invariant); chunks are concatenated in ``(series_key, t_min,
    t_max)`` order (one integer ``lexsort`` over ``lex_ranks`` of the
    keys), so sample order — and therefore the re-encoded stream — is
    deterministic.  A task holds one shard's points: for a shard whose
    TOTAL history exceeds one task's memory, compact per coarse epoch
    (filter on ``t_min`` ranges).
    """
    return shard_apply(chunks_ds, functools.partial(
        compact_table, target_points=target_points))


def compact_table(t: pa.Table, target_points: int) -> pa.Table:
    """``compact_chunks`` of one shard's chunk rows."""
    series, keys = lex_ranks(t.column("series_key"))
    order = np.lexsort((t.column("t_max").to_numpy(),
                        t.column("t_min").to_numpy(), series))
    series = series[order]
    ts, vals, counts = decompress_chunks(
        t.column("chunk").take(order).to_pylist())
    starts = np.flatnonzero(np.r_[True, series[1:] != series[:-1]])
    total = np.add.reduceat(counts, starts)
    # a series with no points keeps one 0-point row (the writer's own
    # behavior for string-only series), so compaction never makes a
    # series vanish from the store
    pieces = np.maximum(-(-total // target_points), 1)
    first = np.cumsum(pieces) - pieces
    k = np.arange(int(pieces.sum())) - np.repeat(first, pieces)
    sizes = np.minimum(np.repeat(total, pieces) - k * target_points,
                       target_points)
    return _chunk_rows(keys.take(np.repeat(series[starts], pieces)),
                       ts, vals, sizes)
