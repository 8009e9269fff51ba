"""Pure-Python/numpy FLAC codec (spec subset, RFC 9639 / flac format).

A REAL lossless compressed-audio codec for the engine's audio stages —
no audio libraries exist in this container, and FLAC's integer-only
pipeline (fixed/LPC linear prediction + Rice-coded residuals) needs
none.  The encoder emits spec-compliant streams: ``fLaC`` magic +
STREAMINFO (with the verification MD5 of the unencoded samples),
single-frame encoding (block size = total samples, <= 65535), FIXED
subframes order 0-4 chosen per channel by residual cost, one Rice
partition per subframe (partition order 0), frame-header CRC-8 and
whole-frame CRC-16.  The decoder additionally handles CONSTANT,
VERBATIM and LPC subframes, wasted bits, Rice escape partitions,
multiple frames, and verifies both CRCs plus the STREAMINFO MD5 — so
any stream a spec-conforming encoder produces within the supported
feature set (16-bit) decodes bit-exactly.

Round-trip exactness (decode(encode(x)) == x, sample for sample) is the
testable contract lossless compression gives us in a container without
a reference decoder; the bitstream layout itself follows the published
spec clause by clause.

Stereo streams additionally use the spec's decorrelation assignments:
the encoder evaluates left/side, right/side and mid/side against
independent coding and picks the cheapest (the difference channel
carries its extra bit of range), and the decoder reconstructs all
three.  Out of scope (documented): sample sizes other than 16 bits and
seektables — the remaining perceptual codecs (MP3, H.264) stay
explicit ``NotImplementedError`` stubs in ``pipelines/multimodal.py``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

FLAC_MAGIC = b"fLaC"

# ---------------------------------------------------------------------------
# CRCs (FLAC frame integrity): CRC-8 poly 0x07, CRC-16 poly 0x8005
# ---------------------------------------------------------------------------


def _make_crc8_table():
    table = np.zeros(256, np.uint8)
    for i in range(256):
        c = i
        for _ in range(8):
            c = ((c << 1) ^ 0x07 if c & 0x80 else c << 1) & 0xFF
        table[i] = c
    return table


def _make_crc16_table():
    table = np.zeros(256, np.uint16)
    for i in range(256):
        c = i << 8
        for _ in range(8):
            c = ((c << 1) ^ 0x8005 if c & 0x8000 else c << 1) & 0xFFFF
        table[i] = c
    return table


_CRC8 = _make_crc8_table()
_CRC16 = _make_crc16_table()


def crc8(data: bytes) -> int:
    c = 0
    for b in data:
        c = int(_CRC8[c ^ b])
    return c


def crc16(data: bytes) -> int:
    c = 0
    for b in data:
        c = int(_CRC16[((c >> 8) ^ b) & 0xFF]) ^ ((c << 8) & 0xFFFF)
    return c


# ---------------------------------------------------------------------------
# Bit IO
# ---------------------------------------------------------------------------


class _BitWriter:
    """MSB-first bit accumulator over a growing bit array (numpy uint8
    of 0/1 values, packed once at the end — keeps the vectorized Rice
    writer a pure array operation)."""

    def __init__(self):
        self.chunks: list[np.ndarray] = []
        self.n_bits = 0

    def write_uint(self, value: int, bits: int) -> None:
        if bits == 0:
            return
        arr = np.zeros(bits, np.uint8)
        for j in range(bits):
            arr[j] = (value >> (bits - 1 - j)) & 1
        self.chunks.append(arr)
        self.n_bits += bits

    def write_bits_array(self, arr: np.ndarray) -> None:
        self.chunks.append(arr.astype(np.uint8))
        self.n_bits += len(arr)

    def to_bytes(self) -> bytes:
        bits = (np.concatenate(self.chunks) if self.chunks
                else np.zeros(0, np.uint8))
        pad = (-len(bits)) % 8
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, np.uint8)])
        return np.packbits(bits).tobytes()


class _BitReader:
    """MSB-first reader over an unpacked bit array with a cursor."""

    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, np.uint8))
        self.pos = 0

    def read_uint(self, n: int) -> int:
        if self.pos + n > len(self.bits):
            raise ValueError("flac: truncated bitstream")
        v = 0
        for b in self.bits[self.pos:self.pos + n]:
            v = (v << 1) | int(b)
        self.pos += n
        return v

    def read_unary(self) -> int:
        # q zero bits terminated by a one bit; scan in growing windows
        # (an argmax over the whole remaining buffer would make a run
        # of unary reads quadratic in stream size)
        start = self.pos
        window = 64
        while start < len(self.bits):
            chunk = self.bits[start:start + window]
            nz = np.flatnonzero(chunk)
            if len(nz):
                one = start + int(nz[0])
                q = one - self.pos
                self.pos = one + 1
                return q
            start += window
            window *= 2
        raise ValueError("flac: unterminated unary code")

    def align_byte(self) -> None:
        self.pos = (self.pos + 7) // 8 * 8


# ---------------------------------------------------------------------------
# Rice residual coding (vectorized encode, sequential decode)
# ---------------------------------------------------------------------------


def _rice_bits(res: np.ndarray, k: int) -> int:
    u = (res.astype(np.int64) << 1) ^ (res.astype(np.int64) >> 63)
    return int(np.sum((u >> k) + 1 + k))


def _best_rice_k(res: np.ndarray) -> int:
    best_k, best = 0, None
    for k in range(15):
        n = _rice_bits(res, k)
        if best is None or n < best:
            best, best_k = n, k
    return best_k


def _rice_encode_bits(res: np.ndarray, k: int) -> np.ndarray:
    """Residuals -> 0/1 bit array: zigzag, q zeros + '1', then k LSBs
    MSB-first — fully vectorized (no per-sample Python)."""
    u = ((res.astype(np.int64) << 1) ^ (res.astype(np.int64) >> 63)) \
        .astype(np.uint64)
    q = (u >> np.uint64(k)).astype(np.int64)
    lens = q + 1 + k
    total = int(lens.sum())
    bits = np.zeros(total, np.uint8)
    starts = np.cumsum(lens) - lens
    bits[starts + q] = 1  # unary terminators
    for j in range(k):  # k-bit remainder, MSB first
        bits[starts + q + 1 + j] = (
            (u >> np.uint64(k - 1 - j)) & np.uint64(1)).astype(np.uint8)
    return bits


def _rice_decode(reader: _BitReader, n: int, k: int) -> np.ndarray:
    """Decode ``n`` Rice(k) values: ONE flatnonzero finds every 1-bit
    ahead of the cursor, a bisect walk separates unary terminators from
    remainder bits (plain-int loop), and the k-bit remainders gather
    vectorized afterwards — no per-sample numpy dispatch."""
    import bisect

    bits = reader.bits
    base = reader.pos
    ones = np.flatnonzero(bits[base:]).tolist()
    qs = np.empty(n, np.int64)
    rem_starts = np.empty(n, np.int64)
    cursor = 0  # relative to base
    idx = 0
    try:
        for i in range(n):
            idx = bisect.bisect_left(ones, cursor, idx)
            term = ones[idx]
            qs[i] = term - cursor
            rem_starts[i] = term + 1
            cursor = term + 1 + k
    except IndexError:
        raise ValueError("flac: unterminated unary code")
    if base + cursor > len(bits):
        raise ValueError("flac: truncated bitstream")
    reader.pos = base + cursor
    u = qs.astype(np.uint64) << np.uint64(k)
    if k:
        gather = base + rem_starts
        for j in range(k):
            u |= (bits[gather + j].astype(np.uint64)
                  << np.uint64(k - 1 - j))
    return ((u >> np.uint64(1)).astype(np.int64)
            ^ -(u & np.uint64(1)).astype(np.int64))


# ---------------------------------------------------------------------------
# Fixed predictors (orders 0-4, the standard difference cascade)
# ---------------------------------------------------------------------------


def _fixed_residual(x: np.ndarray, order: int) -> np.ndarray:
    r = x.astype(np.int64)
    for _ in range(order):
        r = np.diff(r)
    return r


def _restore_cascade(res: np.ndarray, warmup: np.ndarray) -> np.ndarray:
    """Inverse of the order-``len(warmup)`` difference cascade."""
    order = len(warmup)
    x = np.empty(order + len(res), np.int64)
    x[:order] = warmup
    cur = res.astype(np.int64)
    # rebuild by integrating `order` times, seeding each level with the
    # warmup's own difference cascade
    seeds = [warmup.astype(np.int64)]
    for o in range(1, order):
        seeds.append(np.diff(seeds[-1]))
    for o in range(order, 0, -1):
        seed = seeds[o - 1][-1]
        cur = np.concatenate([[seed], cur]).cumsum()[1:]
    x[order:] = cur
    return x


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def _utf8_coded_number(value: int) -> bytes:
    """FLAC's UTF-8-style frame/sample number coding."""
    if value < 0x80:
        return bytes([value])
    out = []
    # an n-byte coding carries (7 - n) + 6*(n - 1) payload bits
    n_bytes = 2
    while value >= 1 << ((7 - n_bytes) + 6 * (n_bytes - 1)) and n_bytes < 7:
        n_bytes += 1
    # leading byte: n_bytes ones, a zero, then the top payload bits
    payload_bits = 6 * (n_bytes - 1)
    lead = (0xFF << (8 - n_bytes)) & 0xFF
    lead |= (value >> payload_bits) & ((1 << (7 - n_bytes)) - 1)
    out.append(lead)
    for i in range(n_bytes - 1):
        shift = 6 * (n_bytes - 2 - i)
        out.append(0x80 | ((value >> shift) & 0x3F))
    return bytes(out)


def _subframe_cost(x: np.ndarray, sample_bits: int) -> tuple:
    """(total_bits, order, rice_k) of the cheapest FIXED subframe."""
    n = len(x)
    best = None
    for order in range(0, min(5, n)):
        res = _fixed_residual(x, order)
        if len(res) == 0:
            k, bits = 0, order * sample_bits
        else:
            k = _best_rice_k(res)
            bits = order * sample_bits + _rice_bits(res, k)
        if best is None or bits < best[0]:
            best = (bits, order, k)
    return best


def _write_subframe(body: _BitWriter, x: np.ndarray, order: int, k: int,
                    sample_bits: int) -> None:
    res = _fixed_residual(x, order)
    body.write_uint(0, 1)                 # zero padding bit
    body.write_uint(0b001000 | order, 6)  # FIXED subframe type
    body.write_uint(0, 1)                 # no wasted bits
    for w in range(order):                # warmup samples
        body.write_uint(int(x[w]) & ((1 << sample_bits) - 1), sample_bits)
    body.write_uint(0b00, 2)              # residual method: RICE (4-bit)
    body.write_uint(0, 4)                 # partition order 0
    body.write_uint(k, 4)                 # rice parameter
    if len(res):
        body.write_bits_array(_rice_encode_bits(res, k))


def encode_flac(samples: np.ndarray, sample_rate: int) -> bytes:
    """int16 (n,) or (n, ch) -> FLAC bytes (single frame, FIXED
    subframes).  Stereo input additionally evaluates the left/side,
    right/side and mid/side decorrelation assignments and picks the
    cheapest (the standard FLAC stereo model; the difference channel
    carries one extra bit)."""
    samples = np.asarray(samples, dtype=np.int16)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, ch = samples.shape
    if not 1 <= ch <= 8:
        raise ValueError(f"flac: 1-8 channels supported, got {ch}")
    if n == 0 or n > 65535:
        raise ValueError(
            f"flac: single-frame encoder needs 1..65535 samples, got {n}")
    md5 = hashlib.md5(
        samples.astype("<i2").tobytes()).digest()

    # STREAMINFO: min/max block size, min/max frame size (0 = unknown),
    # rate(20) ch-1(3) bits-1(5) total(36), md5
    si = _BitWriter()
    si.write_uint(n, 16)
    si.write_uint(n, 16)
    si.write_uint(0, 24)
    si.write_uint(0, 24)
    si.write_uint(sample_rate, 20)
    si.write_uint(ch - 1, 3)
    si.write_uint(16 - 1, 5)
    si.write_uint(n, 36)
    streaminfo = si.to_bytes() + md5
    header = FLAC_MAGIC + bytes([0x80]) + struct.pack(">I", len(streaminfo))[1:] \
        + streaminfo

    # channel assignment: independent for mono/multichannel; stereo
    # additionally tries the three decorrelation modes
    chans = [samples[:, c].astype(np.int64) for c in range(ch)]
    assignment = ch - 1
    plans = [(x, 16, _subframe_cost(x, 16)) for x in chans]
    if ch == 2:
        left, right = chans
        side = left - right
        mid = (left + right) >> 1
        candidates = (
            ([(left, 16), (side, 17)], 0b1000),   # left/side
            ([(side, 17), (right, 16)], 0b1001),  # right/side
            ([(mid, 16), (side, 17)], 0b1010),    # mid/side
        )
        best_cost = sum(p[2][0] for p in plans)
        for pair, code in candidates:
            cand = [(x, b, _subframe_cost(x, b)) for x, b in pair]
            cost = sum(c[2][0] for c in cand)
            if cost < best_cost:
                best_cost, plans, assignment = cost, cand, code

    # frame header: sync(14) reserved(1) blocking(1, 0=fixed)
    # bs(4)=0b0111 (16-bit count at end of header) rate(4)=0b0000
    # (from STREAMINFO) channel assignment(4) sample size(3) reserved(1)
    fh = _BitWriter()
    fh.write_uint(0b11111111111110, 14)
    fh.write_uint(0, 1)
    fh.write_uint(0, 1)
    fh.write_uint(0b0111, 4)
    fh.write_uint(0b0000, 4)
    fh.write_uint(assignment, 4)
    fh.write_uint(0b100, 3)    # 16 bits per sample
    fh.write_uint(0, 1)
    hdr = fh.to_bytes() + _utf8_coded_number(0) + struct.pack(">H", n - 1)
    hdr += bytes([crc8(hdr)])

    body = _BitWriter()
    for x, sbits, (_, order, k) in plans:
        _write_subframe(body, x, order, k, sbits)
    frame = hdr + body.to_bytes()
    frame += struct.pack(">H", crc16(frame))
    return header + frame


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

_BLOCK_SIZES = {0b0001: 192, 0b0010: 576, 0b0011: 1152, 0b0100: 2304,
                0b0101: 4608, 0b1000: 256, 0b1001: 512, 0b1010: 1024,
                0b1011: 2048, 0b1100: 4096, 0b1101: 8192, 0b1110: 16384,
                0b1111: 32768}
_SAMPLE_SIZES = {0b001: 8, 0b010: 12, 0b100: 16, 0b101: 20, 0b110: 24,
                 0b111: 32}


def _read_utf8_coded(data: bytes, pos: int) -> tuple[int, int]:
    b0 = data[pos]
    if b0 < 0x80:
        return b0, pos + 1
    n = 0
    while (b0 << n) & 0x80:
        n += 1
    value = b0 & ((1 << (7 - n)) - 1)
    for i in range(1, n):
        value = (value << 6) | (data[pos + i] & 0x3F)
    return value, pos + n


def decode_flac(payload: bytes) -> dict:
    """FLAC bytes -> dict(samples int16 (n, ch), sample_rate,
    n_channels, duration_ms).  Verifies frame CRC-8/16 and the
    STREAMINFO MD5."""
    if payload[:4] != FLAC_MAGIC:
        raise ValueError("not a FLAC payload")
    pos = 4
    streaminfo = None
    while True:
        if pos + 4 > len(payload):
            raise ValueError("flac: truncated metadata")
        last = payload[pos] & 0x80
        btype = payload[pos] & 0x7F
        blen = int.from_bytes(payload[pos + 1:pos + 4], "big")
        body = payload[pos + 4:pos + 4 + blen]
        if len(body) != blen:
            raise ValueError("flac: truncated metadata block")
        if btype == 0:
            streaminfo = body
        pos += 4 + blen
        if last:
            break
    if streaminfo is None or len(streaminfo) != 34:
        raise ValueError("flac: missing STREAMINFO")
    r = _BitReader(streaminfo[:18])
    r.read_uint(16)  # min block
    r.read_uint(16)  # max block
    r.read_uint(24)
    r.read_uint(24)
    sample_rate = r.read_uint(20)
    ch = r.read_uint(3) + 1
    bps = r.read_uint(5) + 1
    total = r.read_uint(36)
    md5_want = streaminfo[18:34]
    if bps != 16:
        raise ValueError(f"flac: only 16-bit streams supported, got {bps}")

    chans = [[] for _ in range(ch)]
    got = 0
    # ONE bit view over the whole payload, shared across frames (frame
    # boundaries are byte-aligned, so the cursor is just pos * 8) — a
    # per-frame unpackbits of the remaining stream would make F-frame
    # decode O(F x bytes)
    br = _BitReader(payload)
    # total == 0 means "unknown" (RFC 9639): decode frames to the end
    while got < total or (total == 0 and pos < len(payload)):
        try:
            pos, n = _decode_frame(payload, pos, ch, chans, br)
        except (struct.error, IndexError):
            # malformed/truncated bytes must fail uniformly (the module
            # contract): a corrupt length can push any raw byte read
            # past the buffer before a CRC gets the chance to object
            raise ValueError("flac: truncated or corrupt frame")
        got += n

    if not got:
        raise ValueError("flac: stream has no audio frames")
    out = np.stack([np.concatenate(c) for c in chans], axis=1)
    if total and out.shape[0] != total:
        raise ValueError("flac: decoded sample count != STREAMINFO total")
    total = out.shape[0]
    out16 = out.astype(np.int16)
    if hashlib.md5(out16.astype("<i2").tobytes()).digest() != md5_want:
        raise ValueError("flac: STREAMINFO MD5 mismatch (corrupt stream)")
    return {
        "samples": out16,
        "sample_rate": sample_rate,
        "n_channels": ch,
        "duration_ms": total * 1000 // sample_rate if sample_rate else 0,
    }


def _decode_frame(payload: bytes, pos: int, ch: int,
                  chans: list, br: _BitReader) -> tuple[int, int]:
    frame_start = pos
    if pos + 5 > len(payload):
        raise ValueError("flac: truncated frame")
    sync = (payload[pos] << 6) | (payload[pos + 1] >> 2)
    if sync != 0b11111111111110:
        raise ValueError("flac: bad frame sync")
    bs_code = payload[pos + 2] >> 4
    sr_code = payload[pos + 2] & 0x0F
    ch_code = payload[pos + 3] >> 4
    ss_code = (payload[pos + 3] >> 1) & 0x07
    if ch_code > 10:
        raise ValueError(f"flac: reserved channel assignment {ch_code}")
    side_idx = None
    if ch_code > 7:  # stereo decorrelation: left/side, right/side, mid/side
        if ch != 2:
            raise ValueError("flac: decorrelated frame in non-stereo stream")
        side_idx = 0 if ch_code == 9 else 1
    elif ch_code + 1 != ch:
        raise ValueError("flac: frame channel count != STREAMINFO")
    if ss_code and _SAMPLE_SIZES.get(ss_code) != 16:
        raise ValueError("flac: only 16-bit frames supported")
    pos += 4
    _, pos = _read_utf8_coded(payload, pos)
    if bs_code == 0b0110:
        n = payload[pos] + 1
        pos += 1
    elif bs_code == 0b0111:
        n = struct.unpack_from(">H", payload, pos)[0] + 1
        pos += 2
    elif bs_code in _BLOCK_SIZES:
        n = _BLOCK_SIZES[bs_code]
    else:
        raise ValueError(f"flac: reserved block size code {bs_code}")
    if sr_code == 0b1100:
        pos += 1
    elif sr_code in (0b1101, 0b1110):
        pos += 2
    if crc8(payload[frame_start:pos]) != payload[pos]:
        raise ValueError("flac: frame header CRC-8 mismatch")
    pos += 1

    br.pos = pos * 8
    subs = []
    for c in range(ch):
        if br.read_uint(1):
            raise ValueError("flac: bad subframe padding bit")
        stype = br.read_uint(6)
        wasted = 0
        if br.read_uint(1):
            wasted = br.read_unary() + 1
        # the difference (side) channel of a decorrelated pair carries
        # one extra bit of range
        eff_bits = 16 + (1 if c == side_idx else 0) - wasted
        if stype == 0:          # CONSTANT
            v = _sign_extend(br.read_uint(eff_bits), eff_bits)
            x = np.full(n, v, np.int64)
        elif stype == 1:        # VERBATIM
            x = np.array([_sign_extend(br.read_uint(eff_bits), eff_bits)
                          for _ in range(n)], np.int64)
        elif 8 <= stype <= 12:  # FIXED order 0-4
            order = stype - 8
            warm = np.array(
                [_sign_extend(br.read_uint(eff_bits), eff_bits)
                 for _ in range(order)], np.int64)
            res = _read_residual(br, n, order)
            x = _restore_cascade(res, warm)
        elif stype >= 32:       # LPC order 1-32
            order = stype - 31
            warm = np.array(
                [_sign_extend(br.read_uint(eff_bits), eff_bits)
                 for _ in range(order)], np.int64)
            prec = br.read_uint(4) + 1
            shift = _sign_extend(br.read_uint(5), 5)
            coefs = np.array(
                [_sign_extend(br.read_uint(prec), prec)
                 for _ in range(order)], np.int64)
            res = _read_residual(br, n, order)
            x = np.empty(n, np.int64)
            x[:order] = warm
            for i in range(order, n):
                pred = int(np.dot(coefs, x[i - 1:i - order - 1:-1])) \
                    >> shift
                x[i] = res[i - order] + pred
        else:
            raise ValueError(f"flac: reserved subframe type {stype}")
        subs.append(x << wasted)
    if side_idx is None:
        for c in range(ch):
            chans[c].append(subs[c])
    elif ch_code == 8:    # left/side: r = l - s
        chans[0].append(subs[0])
        chans[1].append(subs[0] - subs[1])
    elif ch_code == 9:    # right/side: l = r + s
        chans[0].append(subs[1] + subs[0])
        chans[1].append(subs[1])
    else:                 # mid/side (spec reconstruction)
        m2 = (subs[0] << 1) | (subs[1] & 1)
        chans[0].append((m2 + subs[1]) >> 1)
        chans[1].append((m2 - subs[1]) >> 1)
    br.align_byte()
    pos = br.pos // 8
    if crc16(payload[frame_start:pos]) != struct.unpack_from(
            ">H", payload, pos)[0]:
        raise ValueError("flac: frame CRC-16 mismatch")
    pos += 2
    return pos, n


def _read_residual(br: _BitReader, n: int, order: int) -> np.ndarray:
    method = br.read_uint(2)
    if method > 1:
        raise ValueError(f"flac: reserved residual method {method}")
    param_bits = 4 if method == 0 else 5
    escape = (1 << param_bits) - 1
    porder = br.read_uint(4)
    parts = 1 << porder
    out = []
    for p in range(parts):
        cnt = (n >> porder) - (order if p == 0 else 0)
        k = br.read_uint(param_bits)
        if k == escape:
            raw = br.read_uint(5)
            out.append(np.array(
                [_sign_extend(br.read_uint(raw), raw) if raw else 0
                 for _ in range(cnt)], np.int64))
        else:
            out.append(_rice_decode(br, cnt, k))
    return np.concatenate(out) if out else np.zeros(0, np.int64)


def _sign_extend(v: int, bits: int) -> int:
    if bits and v & (1 << (bits - 1)):
        return v - (1 << bits)
    return v
