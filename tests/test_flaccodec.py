"""FLAC codec (functions/flaccodec.py): lossless round-trip exactness,
integrity checks (CRC-8/16 + STREAMINFO MD5), subframe coverage, and
the compressed-audio path through AudioFeatureStage."""

import numpy as np
import pyarrow as pa
import pytest

from json_time_series_extractor_ray.functions.flaccodec import (
    decode_flac,
    encode_flac,
)
from json_time_series_extractor_ray.functions.mediacodecs import (
    sniff_format,
)


def _roundtrip(x, rate=16000):
    d = decode_flac(encode_flac(x, rate))
    want = x[:, None] if x.ndim == 1 else x
    assert np.array_equal(d["samples"], want)
    assert d["sample_rate"] == rate
    assert d["n_channels"] == want.shape[1]
    return d


def test_roundtrip_shapes_and_signals():
    rng = np.random.default_rng(0)
    _roundtrip(rng.integers(-32768, 32768, size=500, dtype=np.int16))
    _roundtrip(rng.integers(-100, 100, size=1000, dtype=np.int16))
    _roundtrip((np.sin(np.arange(2000) * 0.05) * 20000).astype(np.int16))
    _roundtrip(np.zeros(64, np.int16))          # constant-friendly
    _roundtrip(np.full(10, -5, np.int16))
    _roundtrip(np.array([7], np.int16))         # single sample
    _roundtrip(rng.integers(-32768, 32768, size=(300, 2),
                            dtype=np.int16))    # stereo
    # random-walk: the FIXED-predictor sweet spot — must compress
    walk = np.cumsum(rng.integers(-50, 50, size=3000)) \
        .clip(-32768, 32767).astype(np.int16)
    payload = encode_flac(walk, 16000)
    assert len(payload) < walk.nbytes / 1.5
    assert sniff_format(payload) == "flac"


def test_truncation_always_valueerror():
    x = (np.sin(np.arange(800) * 0.1) * 10000).astype(np.int16)
    p = encode_flac(x, 8000)
    for cut in range(4, len(p) - 1):
        with pytest.raises(ValueError):
            decode_flac(p[:cut])


def test_corruption_detected_by_crc_or_md5():
    x = (np.sin(np.arange(800) * 0.1) * 10000).astype(np.int16)
    p = encode_flac(x, 8000)
    for pos in range(42, len(p), 11):
        q = bytearray(p)
        q[pos] ^= 0x40
        with pytest.raises(ValueError):
            decode_flac(bytes(q))


def test_not_flac_rejected():
    with pytest.raises(ValueError, match="not a FLAC"):
        decode_flac(b"RIFF....WAVE" + b"\0" * 40)


def test_audio_stage_flac_matches_wav():
    """Lossless compression: the featurizer must emit bit-identical
    statistics from the FLAC and WAV encodings of the same signal."""
    from json_time_series_extractor_ray.functions.mediacodecs import (
        encode_wav,
    )
    from json_time_series_extractor_ray.pipelines.multimodal import (
        MEDIA_SCHEMA,
        AudioFeatureStage,
    )

    rng = np.random.default_rng(5)
    x = np.cumsum(rng.integers(-200, 200, size=2048)) \
        .clip(-32768, 32767).astype(np.int16)

    def _batch(payload):
        return pa.table({
            "media_id": pa.array(["a"], pa.string()),
            "kind": pa.array(["audio"], pa.string()),
            "payload": pa.array([payload], pa.large_binary()),
            "width": pa.array([0], pa.int32()),
            "height": pa.array([0], pa.int32()),
            "sample_rate": pa.array([0], pa.int32()),
            "duration_ms": pa.array([0], pa.int32()),
        }, schema=MEDIA_SCHEMA)

    stage = AudioFeatureStage()
    wav = stage(_batch(encode_wav(x, 16000))).to_pydict()
    flac = stage(_batch(encode_flac(x, 16000))).to_pydict()
    assert wav == flac
    assert wav["n_frames"][0] == 2048 // 256


def test_stereo_decorrelation_roundtrip_and_wins():
    """Correlated stereo picks a decorrelation assignment (smaller than
    independent coding) and still round-trips bit-exactly; the decoder
    reconstructs all three assignment modes."""
    from json_time_series_extractor_ray.functions import flaccodec as F

    rng = np.random.default_rng(9)
    base = np.cumsum(rng.integers(-80, 80, size=4000)).clip(-30000, 30000)
    st = np.stack([base, base + rng.integers(-3, 4, size=4000)],
                  axis=1).astype(np.int16)
    payload = encode_flac(st, 44100)
    assert np.array_equal(decode_flac(payload)["samples"], st)
    l, r = st[:, 0].astype(np.int64), st[:, 1].astype(np.int64)
    indep = F._subframe_cost(l, 16)[0] + F._subframe_cost(r, 16)[0]
    ms = (F._subframe_cost((l + r) >> 1, 16)[0]
          + F._subframe_cost(l - r, 17)[0])
    assert ms < indep          # decorrelation genuinely cheaper here
    assert len(payload) < st.nbytes / 2

    # extreme side values (full 17-bit range) survive
    ext = np.stack([np.full(100, 32767), np.full(100, -32768)],
                   axis=1).astype(np.int16)
    assert np.array_equal(decode_flac(encode_flac(ext, 8000))["samples"],
                          ext)


def test_utf8_coded_number_roundtrip():
    from json_time_series_extractor_ray.functions.flaccodec import (
        _read_utf8_coded,
        _utf8_coded_number,
    )

    for v in (0, 1, 0x7F, 0x80, 0x7FF, 0x800, 0xFFFF, 0x10000, 0x1FFFFF,
              0x200000, 0x3FFFFFF, 0x4000000, 2 ** 35):
        b = _utf8_coded_number(v)
        got, pos = _read_utf8_coded(b, 0)
        assert got == v and pos == len(b)


def test_mixed_wav_flac_dataset(ray_session):
    """A corpus mixing WAV and FLAC payloads featurizes in one actor
    pool pass; identical signals produce identical rows regardless of
    container."""
    import ray

    from json_time_series_extractor_ray.functions.mediacodecs import (
        encode_wav,
    )
    from json_time_series_extractor_ray.pipelines.multimodal import (
        MEDIA_SCHEMA,
        AudioFeatureStage,
        media_batch_size,
    )

    rng = np.random.default_rng(77)
    sig = np.cumsum(rng.integers(-100, 100, size=1024)) \
        .clip(-32768, 32767).astype(np.int16)
    tbl = pa.table({
        "media_id": pa.array(["wav0", "flac0"], pa.string()),
        "kind": pa.array(["audio"] * 2, pa.string()),
        "payload": pa.array([encode_wav(sig, 16000),
                             encode_flac(sig, 16000)], pa.large_binary()),
        "width": pa.array([0, 0], pa.int32()),
        "height": pa.array([0, 0], pa.int32()),
        "sample_rate": pa.array([0, 0], pa.int32()),
        "duration_ms": pa.array([0, 0], pa.int32()),
    }, schema=MEDIA_SCHEMA)
    out = ray.data.from_arrow(tbl).map_batches(
        AudioFeatureStage,
        batch_size=media_batch_size(4096),
        concurrency=1,
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).to_pandas().set_index("media_id")
    for col in ("n_frames", "rms_mean", "zcr_mean", "peak"):
        assert out.loc["wav0", col] == out.loc["flac0", col]


def test_unknown_total_samples_decodes_to_end():
    """STREAMINFO total_samples == 0 means "unknown" (RFC 9639): frames
    decode to the end of the payload; a stream with no frame is a clean
    ``flac:`` error."""
    x = (np.sin(np.arange(800) * 0.1) * 10000).astype(np.int16)
    p = bytearray(encode_flac(x, 8000))
    # the 36-bit total sits at STREAMINFO bits 108..143, after the 4-byte
    # magic and the 4-byte block header
    p[8 + 13] &= 0xF0
    p[8 + 14:8 + 18] = bytes(4)
    d = decode_flac(bytes(p))
    assert np.array_equal(d["samples"][:, 0], x)
    assert d["duration_ms"] == 100
    with pytest.raises(ValueError, match="^flac: "):
        decode_flac(bytes(p[:42]))  # metadata only
