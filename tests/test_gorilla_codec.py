"""Gorilla chunk codec (state/gorilla.py): the array-at-a-time encoder
and decoder against the scalar per-point codec they replaced, golden
bytes that pin the chunk format, int64-wrapping timestamps, rejection of
truncated or corrupt chunks, and many-chunk calls against per-chunk ones.
"""

import hashlib
import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from json_time_series_extractor_ray.sources.gorilla_chunks import (
    decode_chunk_batch,
)
from json_time_series_extractor_ray.state.gorilla import (
    GorillaChunkWriter,
    compact_chunks,
    compress_chunk,
    compress_chunks,
    decompress_chunk,
    decompress_chunks,
)

# ---------------------------------------------------------------------------
# Oracle: the scalar per-point codec, kept verbatim as the reference the
# array codec must match byte for byte (outside int64-overflowing
# delta-of-deltas, which it silently corrupts).
# ---------------------------------------------------------------------------


class _BitWriter:
    def __init__(self):
        self.bytes = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int):
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.bytes.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def finish(self) -> bytes:
        if self.nbits:
            self.bytes.append((self.acc << (8 - self.nbits)) & 0xFF)
            self.acc = 0
            self.nbits = 0
        return bytes(self.bytes)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # bit position

    def read(self, bits: int) -> int:
        # One slice + int.from_bytes per call instead of a per-bit loop.
        pos = self.pos
        end = pos + bits
        chunk = int.from_bytes(self.data[pos >> 3 : (end + 7) >> 3], "big")
        self.pos = end
        return (chunk >> ((((end + 7) >> 3) << 3) - end)) & ((1 << bits) - 1)


# Delta-of-delta buckets: (prefix, prefix_bits, value_bits).  The final
# 64-bit escape extends the paper's 32-bit bucket for ns-resolution deltas.
_DOD_BUCKETS = (
    (0b10, 2, 7),
    (0b110, 3, 9),
    (0b1110, 4, 12),
    (0b11110, 5, 32),
    (0b11111, 5, 64),
)


def _zigzag(v: int) -> int:
    return (v << 1) ^ (v >> 63) if v < 0 else (v << 1)


def _unzigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def oracle_compress_chunk(ts_ns: np.ndarray, values: np.ndarray) -> bytes:
    """(n,) int64 timestamps (sorted) + (n,) float64 values -> chunk bytes."""
    ts_ns = np.asarray(ts_ns, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    n = len(ts_ns)
    header = struct.pack("<qdq", int(ts_ns[0]) if n else 0,
                         float(values[0]) if n else 0.0, n)
    if n <= 1:
        return header

    w = _BitWriter()
    # --- timestamps ---
    prev_delta = 0
    prev_ts = int(ts_ns[0])
    for i in range(1, n):
        t = int(ts_ns[i])
        delta = t - prev_ts
        dod = delta - prev_delta
        if dod == 0:
            w.write(0, 1)
        else:
            z = _zigzag(dod)
            for prefix, pbits, vbits in _DOD_BUCKETS:
                if z < (1 << vbits):
                    w.write(prefix, pbits)
                    w.write(z, vbits)
                    break
        prev_delta = delta
        prev_ts = t
    # --- values ---
    bits = values.view(np.uint64)
    prev = int(bits[0])
    prev_lead, prev_len = 65, 0  # invalid -> first XOR always writes window
    for i in range(1, n):
        cur = int(bits[i])
        x = prev ^ cur
        if x == 0:
            w.write(0, 1)
        else:
            lead = min(31, 64 - x.bit_length())
            trail = (x & -x).bit_length() - 1
            prev_trail = 64 - prev_lead - prev_len
            if prev_lead <= 64 and lead >= prev_lead and trail >= prev_trail:
                w.write(0b10, 2)
                w.write(x >> prev_trail, prev_len)
            else:
                meaningful = 64 - lead - trail
                w.write(0b11, 2)
                w.write(lead, 5)
                w.write(meaningful - 1, 6)  # 1..64 stored as 0..63
                w.write(x >> trail, meaningful)
                prev_lead, prev_len = lead, meaningful
        prev = cur
    return header + w.finish()


def oracle_decompress_chunk(data: bytes):
    """chunk bytes -> (ts_ns int64 array, values float64 array)."""
    first_ts, first_val, n = struct.unpack_from("<qdq", data, 0)
    ts = np.empty(n, dtype=np.int64)
    vals = np.empty(n, dtype=np.float64)
    if n == 0:
        return ts, vals
    ts[0] = first_ts
    vals[0] = first_val
    if n == 1:
        return ts, vals

    r = _BitReader(data[24:])
    # --- timestamps ---
    prev_delta = 0
    prev_ts = first_ts
    for i in range(1, n):
        if r.read(1) == 0:
            dod = 0
        else:
            if r.read(1) == 0:
                vbits = 7
            elif r.read(1) == 0:
                vbits = 9
            elif r.read(1) == 0:
                vbits = 12
            elif r.read(1) == 0:
                vbits = 32
            else:
                vbits = 64
            dod = _unzigzag(r.read(vbits))
        prev_delta += dod
        prev_ts += prev_delta
        ts[i] = prev_ts
    # --- values ---
    prev = int(np.float64(first_val).view(np.uint64))
    lead, length = 0, 0
    for i in range(1, n):
        if r.read(1) == 0:
            pass  # identical
        elif r.read(1) == 0:
            x = r.read(length) << (64 - lead - length)
            prev ^= x
        else:
            lead = r.read(5)
            length = r.read(6) + 1
            x = r.read(length) << (64 - lead - length)
            prev ^= x
        vals[i] = np.uint64(prev).view(np.float64)
    return ts, vals


def _bits_to_float(u: int) -> float:
    return np.array([u], np.uint64).view(np.float64)[0]


def _assert_same_points(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(np.asarray(got[1]).view(np.uint64),
                                  np.asarray(want[1]).view(np.uint64))


# ---------------------------------------------------------------------------
# Golden bytes: made by the scalar encoder for a crafted series.  Its
# delta-of-deltas hit '0' and all five buckets (10/5/-3 -> 7 bits,
# 200 -> 9, 2000 -> 12, 10^6 and -1002205 -> 32, +-10^12 -> the 64-bit
# escape); its values hit '0', '10' and '11', a NaN payload, a signalling
# NaN, +-0 and +-inf.
# ---------------------------------------------------------------------------

GOLDEN_DELTAS = [10, 10, 15, 215, 2215, 1_002_215, 10**12 + 1_002_215,
                 10**12 + 1_002_212, 1_002_212, 1_002_212, 7, 7, 7, 7, 7]
GOLDEN_TS = np.cumsum([1_700_000_000_000_000_000] + GOLDEN_DELTAS) \
    .astype(np.int64)
GOLDEN_VALUES = np.array(
    [1.0, 1.0, 1.5, 1.0, 1.5, _bits_to_float(0x7FF8000000000123),
     _bits_to_float(0xFFF0000000000001), 0.0, -0.0, np.inf, -np.inf, -0.0,
     123456.789, 123456.789, 1e-300, 2.0])
GOLDEN_HEX = {
    "main": (
        "00002a36fe9c9717000000000000f03f10000000000000008a215b21df41e001"
        "e8480f800000e8d4a51000417e000003a352943ffef000f4adc83601b70fd000"
        "000000000048f07d001000000000024707fffe000000000000340000000000000"
        "005ffe000000000000140000000000000004ffe0000000000001607f12064fdf3"
        "b64a415b4a135d46859090695b87f0be3cd640"),
    0: "000000000000000000000000000000000000000000000000",
    1: "00002a36fe9c9717230100000000f87f0100000000000000",
    2: ("00002a36fe9c9717230100000000f87f02000000000000008a60fa002000000000"
        "0488"),
}


def _golden_inputs(name):
    if name == "main":
        return GOLDEN_TS, GOLDEN_VALUES
    return GOLDEN_TS[:name], GOLDEN_VALUES[5:5 + name]


@pytest.mark.parametrize("name", ["main", 0, 1, 2])
def test_golden_bytes(name):
    ts, vals = _golden_inputs(name)
    chunk = bytes.fromhex(GOLDEN_HEX[name])
    assert compress_chunk(ts, vals) == chunk
    _assert_same_points(decompress_chunk(chunk), (ts, vals))


# ---------------------------------------------------------------------------
# Property: byte equality with the oracle
# ---------------------------------------------------------------------------

_float_bits = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 2**64 - 1).map(_bits_to_float),  # any NaN payload
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 20.25]),
)
_delta = st.one_of(
    st.integers(0, 2**12),
    st.integers(-2**40, 2**40),
    st.integers(-2**62, 2**62),
    st.sampled_from([1, 1_000, 15 * 10**9]),
)


def _dods_fit_int64(ts) -> bool:
    """The oracle writes nothing for a delta-of-delta outside int64."""
    prev_delta = 0
    for a, b in zip(ts, ts[1:]):
        dod = (b - a) - prev_delta
        if not -2**63 <= dod < 2**63:
            return False
        prev_delta = b - a
    return True


@st.composite
def _series(draw, max_points=80):
    n = draw(st.integers(0, max_points))
    ts = [draw(st.integers(-2**62, 2**62))]
    for d in draw(st.lists(_delta, min_size=n, max_size=n))[1:]:
        ts.append(ts[-1] + d)
    ts = ts[:n]
    assume(all(-2**63 <= t < 2**63 for t in ts) and _dods_fit_int64(ts))
    pool = draw(st.lists(_float_bits, min_size=1, max_size=3))
    vals = draw(st.lists(st.one_of(st.sampled_from(pool), _float_bits),
                         min_size=n, max_size=n))
    return np.array(ts, np.int64), np.array(vals, np.float64)


@settings(max_examples=300, deadline=None)
@given(_series())
def test_matches_scalar_oracle(series):
    ts, vals = series
    chunk = oracle_compress_chunk(ts, vals)
    assert compress_chunk(ts, vals) == chunk
    _assert_same_points(decompress_chunk(chunk), oracle_decompress_chunk(chunk))
    _assert_same_points(decompress_chunk(chunk), (ts, vals))


@settings(max_examples=60, deadline=None)
@given(st.lists(_series(max_points=30), max_size=6))
def test_compress_chunks_equals_per_series_calls(many):
    ts = np.concatenate([t for t, _ in many] + [np.zeros(0, np.int64)])
    vals = np.concatenate([v for _, v in many] + [np.zeros(0)])
    counts = [len(t) for t, _ in many]
    chunks = compress_chunks(ts, vals, counts)
    assert chunks == [compress_chunk(t, v) for t, v in many]
    got_ts, got_vals, got_counts = decompress_chunks(chunks)
    assert got_counts.tolist() == counts
    _assert_same_points((got_ts, got_vals), (ts, vals))


# ---------------------------------------------------------------------------
# Timestamps whose delta-of-delta leaves int64
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ts", [
    [-2**63, 2**63 - 1],
    [-2**63, 0, 2**63 - 1],
    [-2**63 + 1, 2**63 - 1],  # pandas' Timestamp min/max
    [2**63 - 1, -2**63, 2**63 - 1, -2**63],
])
def test_int64_overflowing_timestamps_round_trip(ts):
    ts = np.array(ts, np.int64)
    vals = np.arange(len(ts), dtype=np.float64)
    _assert_same_points(decompress_chunk(compress_chunk(ts, vals)),
                        (ts, vals))


# ---------------------------------------------------------------------------
# Truncated and corrupt chunks
# ---------------------------------------------------------------------------

def _noisy_chunk(n=1000, seed=1):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(1, 10**9, n)).astype(np.int64)
    return compress_chunk(ts, rng.standard_normal(n))


def _with_count(chunk, n):
    return chunk[:16] + struct.pack("<q", n) + chunk[24:]


def test_truncated_or_padded_chunk_raises():
    chunk = _noisy_chunk()
    bad = [chunk[:cut] for cut in (0, 10, 23, 24, 25, len(chunk) // 3,
                                   len(chunk) // 2, len(chunk) - 3,
                                   len(chunk) - 1)]
    bad += [chunk + bytes(10), chunk + b"\x01", chunk + b"\xff" * 7]
    for blob in bad:
        with pytest.raises(ValueError, match="^gorilla: "):
            decompress_chunk(blob)


def test_corrupt_header_count_raises():
    chunk = _noisy_chunk()
    for n in (-1, -2**63, 0, 1, 2, 999, 1001, 2000, 2**40, 2**63 - 1):
        with pytest.raises(ValueError, match="^gorilla: "):
            decompress_chunk(_with_count(chunk, n))


def test_header_only_chunk_with_points_raises():
    with pytest.raises(ValueError, match="^gorilla: "):
        decompress_chunk(_with_count(bytes.fromhex(GOLDEN_HEX[1]), 2))


def test_decode_chunk_batch_propagates_corruption():
    good = _noisy_chunk(50)
    batch = pa.table({"series_key": ["a", "b"],
                      "chunk": pa.array([good, good[:-2]], pa.binary())})
    with pytest.raises(ValueError, match="^gorilla: "):
        decode_chunk_batch(batch)


# ---------------------------------------------------------------------------
# Batch paths equal per-chunk paths
# ---------------------------------------------------------------------------

def _samples(key, n, seed, kind=1):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "series_key": key,
        "ts": pd.to_datetime(
            1_700_000_000 * 10**9 + np.cumsum(rng.integers(0, 10**10, n)),
            unit="ns"),
        "value_num": np.round(rng.normal(20, 3, n), 1),
        "value_kind": kind,
        "doc_id": [f"d{i:05d}" for i in range(n)],
        "sample_ordinal": np.zeros(n, np.int32),
    })


def _chunk_frame(samples: pd.DataFrame) -> pd.DataFrame:
    """``GorillaChunkWriter`` over a sample frame, as a frame."""
    return GorillaChunkWriter()(pa.Table.from_pandas(
        samples, preserve_index=False)).to_pandas()


def test_decode_chunk_batch_equals_per_chunk_decode():
    frames = [_samples("zero", 0, 1), _samples("one", 1, 2),
              _samples("two", 2, 3), _samples("big", 10_000, 4),
              _samples("strings", 5, 5, kind=2)]
    rows = pd.concat([_chunk_frame(f) for f in frames
                      if len(f)] + [_chunk_frame(frames[1])],
                     ignore_index=True)
    rows.loc[len(rows)] = ["zero", 0, 0, 0, 0, compress_chunk([], [])]
    assert sorted(rows["n_points"]) == [0, 0, 1, 1, 2, 10_000]
    batch = pa.Table.from_pandas(rows[["series_key", "chunk"]],
                                 preserve_index=False)
    got = decode_chunk_batch(batch)
    keys, ts, vals = [], [], []
    for key, blob in zip(rows["series_key"], rows["chunk"]):
        t, v = decompress_chunk(blob)
        keys += [key] * len(t)
        ts.append(t)
        vals.append(v)
    assert got.column("series_key").to_pylist() == keys
    _assert_same_points(
        (got.column("ts_ns").to_numpy(), got.column("value_num").to_numpy()),
        (np.concatenate(ts), np.concatenate(vals)))
    assert decode_chunk_batch(batch.slice(0, 0)).num_rows == 0


def test_chunk_writer_many_series_equals_one_per_call():
    frames = [_samples(k, n, s) for k, n, s in
              (("b", 300, 1), ("a", 1, 2), ("c", 2, 3))]
    frames.append(_samples("s", 4, 4, kind=2))
    mixed = pd.concat(frames, ignore_index=True).sample(frac=1,
                                                        random_state=0)
    got = _chunk_frame(mixed)
    want = pd.concat([_chunk_frame(f) for f in frames]) \
        .sort_values("series_key", ignore_index=True)
    pd.testing.assert_frame_equal(got, want)


# sha256 over the compacted rows (key, n_points, t_min, t_max, chunk) as
# compact_chunks wrote them with the scalar codec
COMPACTED_SHA256 = (
    "3f666713710631005366a892b67ecf50d89a09ca1b57b416fd4761b8a9c82b30")


def _compaction_fixture():
    rng = np.random.default_rng(21)
    rows = []
    for key, sizes in (("a", (120, 7, 300, 1, 250, 200, 122)),
                       ("b", (100, 50, 100)), ("c", (0,))):
        t = 1_700_000_000 * 10**9
        for n in sizes:
            ts = t + np.cumsum(rng.choice([10**9, 10**9, 2 * 10**9, 7], n))
            vals = np.where(rng.random(n) < 0.3, 21.5,
                            np.round(rng.normal(20, 2, n), 2))
            rows.append((key, n, int(ts[0]) if n else 0,
                         int(ts[-1]) if n else 0, 16 * n,
                         oracle_compress_chunk(ts, vals)))
            t = int(ts[-1]) if n else t
    return pd.DataFrame(rows, columns=["series_key", "n_points", "t_min",
                                       "t_max", "raw_bytes", "chunk"])


def test_compact_chunks_bytes_match_scalar_encoder(ray_session):
    import ray

    out = compact_chunks(ray.data.from_pandas(_compaction_fixture()),
                         target_points=300).to_pandas() \
        .sort_values(["series_key", "t_min"], ignore_index=True)
    assert out["n_points"].tolist() == [300, 300, 300, 100, 250, 0]
    h = hashlib.sha256()
    for row in out.itertuples():
        h.update(f"{row.series_key}/{row.n_points}/{row.t_min}/"
                 f"{row.t_max}/".encode() + row.chunk)
    assert h.hexdigest() == COMPACTED_SHA256
