"""Round-4 structural-oracle entries: exact-verified LSH pairs, the
HLL/CMS guarantee twins, the ANN recall report, and the full-shape Q16
NOT IN variant (round-3 verdict items 4-6)."""

import numpy as np
import pyarrow as pa
import pytest

from json_time_series_extractor_ray.pipelines.dedup import (
    minhash_lsh_verified_pairs,
    shingle_sets,
)

SF = "/root/testdata/sf0.001"

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango"
).split()


def _doc_table(n=60, seed=5):
    rng = np.random.default_rng(seed)
    texts = [" ".join(rng.choice(WORDS, size=40).tolist()) for _ in range(n)]
    texts.append(texts[0])          # 60: exact dup of 0
    w = texts[1].split()
    w[5] = "zulu"
    texts.append(" ".join(w))       # 61: near-dup of 1
    return pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })


class TestVerifiedLshPairs:
    def test_planted_pairs_exact_jaccard(self, ray_session):
        import ray

        t = _doc_table()
        out = minhash_lsh_verified_pairs(
            ray.data.from_arrow(t), tau=0.5).to_pandas()
        pairs = {(a, b): j for a, b, j in
                 out[["doc_a", "doc_b", "jaccard"]].itertuples(index=False)}
        # exact dup: jaccard exactly 1
        assert pairs[(0, 60)] == 1.0
        # near-dup: matches the brute-force shingle-set jaccard
        sets = shingle_sets(t.column("text"), 3)
        true_j = len(sets[1] & sets[61]) / len(sets[1] | sets[61])
        # pipeline emits round-half-away-6 values (repo parity rule)
        assert abs(pairs[(1, 61)] - true_j) < 5e-7
        assert true_j >= 0.5
        # nothing else survives exact verification at tau=0.5
        assert set(pairs) == {(0, 60), (1, 61)}

    def test_tau09_equals_exhaustive_jaccard_on_fixture(self, ray_session):
        """LSH recall at jaccard >= 0.9 is exactly 1.0 on the fixture: the
        verified pairs equal the exhaustive all-pairs relation, values
        included.  ``simhash_recall_report`` takes these pairs as its
        truth set, so a recall loss fails here first."""
        import itertools

        import pyarrow.parquet as pq
        import ray

        from json_time_series_extractor_ray.pipelines._util import (
            round_half_away,
        )

        docs = pq.read_table(f"{SF}/documents.parquet",
                             columns=["doc_id", "text"])
        sets = dict(zip(docs.column("doc_id").to_pylist(),
                        shingle_sets(docs.column("text"), 3)))
        want = {}
        for (a, sa), (b, sb) in itertools.combinations(sorted(sets.items()),
                                                       2):
            inter = len(sa & sb)
            if inter:
                j = float(round_half_away(inter / (len(sa | sb)), 6))
                if j >= 0.9:
                    want[(a, b)] = j
        out = minhash_lsh_verified_pairs(ray.data.from_arrow(docs),
                                         tau=0.9).to_pandas()
        got = {(a, b): j for a, b, j in
               out[["doc_a", "doc_b", "jaccard"]].itertuples(index=False)}
        assert want and got == want

    def test_output_sorted_and_typed(self, ray_session):
        import ray

        out = minhash_lsh_verified_pairs(
            ray.data.from_arrow(_doc_table()), tau=0.5).to_pandas()
        assert list(out.columns) == ["doc_a", "doc_b", "jaccard"]
        key = list(zip(out["doc_a"], out["doc_b"]))
        assert key == sorted(key)


class TestSketchGuaranteeTwins:
    def test_hll_within_3sigma_on_fixture(self, ray_session):
        from json_time_series_extractor_ray.pipelines.sketches import (
            _q_hll_vs_exact)

        t = _q_hll_vs_exact(SF)
        assert t.column("hll_within_3sigma").to_pylist() == [True]
        assert t.column("exact_distinct_users").to_pylist()[0] > 0

    def test_cms_flags_on_fixture(self, ray_session):
        from json_time_series_extractor_ray.pipelines.sketches import (
            _q_cms_vs_exact)

        t = _q_cms_vs_exact(SF)
        assert all(t.column("cms_ge_exact").to_pylist())
        assert all(t.column("cms_within_eps").to_pylist())
        ex = t.column("exact_count").to_pylist()
        assert ex == sorted(ex, reverse=True) and ex[0] > 0


class TestAnnRecallReport:
    def test_all_variants_clear_floors(self, ray_session):
        from json_time_series_extractor_ray.pipelines.similarity import (
            ANN_RECALL_FLOORS, ann_recall_report)

        t = ann_recall_report(SF)
        assert t.column("variant").to_pylist() == [
            v for v, _ in ANN_RECALL_FLOORS]
        assert all(t.column("recall_ok").to_pylist())


class TestQ16FullShape:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        import __ray_entry__ as e

        con = duckdb.connect()
        for tbl in ("lineitem", "part", "supplier"):
            con.execute(
                f"CREATE VIEW {tbl} AS SELECT * FROM '{SF}/{tbl}.parquet'")
        ours = e.queries()["part_supplier_counts_excl"](SF)
        if hasattr(ours, "to_pandas"):
            ours = ours.to_pandas()
        oracle = con.execute(
            e.oracle_sql()["part_supplier_counts_excl"]).fetchdf()
        assert len(ours) == len(oracle) > 0
        assert (ours.reset_index(drop=True)["supplier_cnt"]
                == oracle["supplier_cnt"]).all()
        assert (ours.reset_index(drop=True)["p_brand"]
                == oracle["p_brand"]).all()


class TestPngCodec:
    """PNG decode (round-3 verdict item 2): round-trips, hand-built spec
    vectors (decoder validated independently of the encoder), loud
    rejections, and the driver pipeline's pixel-sum rule."""

    def test_roundtrip_all_filters_and_color_types(self):
        from json_time_series_extractor_ray.functions.mediacodecs import (
            decode_png, encode_png, sniff_format)

        rng = np.random.default_rng(7)
        for shape in [(13, 9), (8, 8, 3), (5, 17, 4), (1, 1, 3), (3, 2, 2)]:
            px = rng.integers(0, 256, size=shape, dtype=np.uint8)
            for f in ("cycle", 0, 1, 2, 3, 4):
                b = encode_png(px, filters=f)
                assert sniff_format(b) == "png"
                out = decode_png(b)
                assert out.shape == px.shape and (out == px).all()

    def test_decoder_against_hand_built_spec_vectors(self):
        """IDAT assembled by hand from RFC 2083 filter math — catches a
        symmetric encoder/decoder bug a round-trip cannot."""
        import struct
        import zlib

        from json_time_series_extractor_ray.functions.mediacodecs import (
            _png_chunk, decode_png)

        # 2x2 RGB: row0 = (10,20,30),(15,25,35)  row1 = (110,120,130) x2
        # row0 filter 1 (Sub):  raw = 10 20 30, then cur-left = 5 5 5
        # row1 filter 2 (Up):   cur-up = 100 100 100, 95 95 95
        scan = (b"\x01" + bytes([10, 20, 30, 5, 5, 5])
                + b"\x02" + bytes([100, 100, 100, 95, 95, 95]))
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        payload = (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
                   + _png_chunk(b"IDAT", zlib.compress(scan))
                   + _png_chunk(b"IEND", b""))
        out = decode_png(payload)
        expect = np.array([[[10, 20, 30], [15, 25, 35]],
                           [[110, 120, 130], [110, 120, 130]]], np.uint8)
        assert (out == expect).all()

        # 1x3 gray, filter 4 (Paeth): first px pred=0 -> raw 50; second
        # left=50,up=0,ul=0 -> p=50, pa=0 -> pred=left -> raw = 7
        # third: left=57 -> raw = 200-57=143
        scan = b"\x04" + bytes([50, 7, 143])
        ihdr = struct.pack(">IIBBBBB", 3, 1, 8, 0, 0, 0, 0)
        payload = (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
                   + _png_chunk(b"IDAT", zlib.compress(scan))
                   + _png_chunk(b"IEND", b""))
        out = decode_png(payload)
        assert (out == np.array([[50, 57, 200]], np.uint8)).all()

        # 1x2 gray, filter 3 (Average): px0 pred floor((0+0)/2)=0 -> 90;
        # px1 pred floor((90+0)/2)=45 -> raw 200 -> (200+45)%256 = 245
        scan = b"\x03" + bytes([90, 200])
        ihdr = struct.pack(">IIBBBBB", 2, 1, 8, 0, 0, 0, 0)
        payload = (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
                   + _png_chunk(b"IDAT", zlib.compress(scan))
                   + _png_chunk(b"IEND", b""))
        assert (decode_png(payload) == np.array([[90, 245]], np.uint8)).all()

    def test_palette_png_decodes_to_rgb(self):
        import struct
        import zlib

        from json_time_series_extractor_ray.functions.mediacodecs import (
            _png_chunk, decode_png)

        plte = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])  # R, G, B entries
        scan = b"\x00" + bytes([2, 0]) + b"\x00" + bytes([1, 1])
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
        payload = (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
                   + _png_chunk(b"PLTE", plte)
                   + _png_chunk(b"IDAT", zlib.compress(scan))
                   + _png_chunk(b"IEND", b""))
        out = decode_png(payload)
        expect = np.array([[[0, 0, 255], [255, 0, 0]],
                           [[0, 255, 0], [0, 255, 0]]], np.uint8)
        assert (out == expect).all()

    def test_loud_rejections(self):
        import struct
        import zlib

        from json_time_series_extractor_ray.functions.mediacodecs import (
            _png_chunk, decode_png, encode_png)

        px = np.zeros((2, 2, 3), np.uint8)
        good = encode_png(px)
        with pytest.raises(ValueError, match="not a PNG"):
            decode_png(b"BM" + good)
        # flip one IDAT byte -> CRC mismatch
        bad = bytearray(good)
        idat_at = good.index(b"IDAT")
        bad[idat_at + 6] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            decode_png(bytes(bad))
        # interlaced header rejected
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 1)
        payload = (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
                   + _png_chunk(b"IDAT", zlib.compress(b"\x00" * 14))
                   + _png_chunk(b"IEND", b""))
        with pytest.raises(ValueError, match="interlaced"):
            decode_png(payload)
        # 16-bit depth rejected
        ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0)
        payload = (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
                   + _png_chunk(b"IDAT", zlib.compress(b"\x00" * 26))
                   + _png_chunk(b"IEND", b""))
        with pytest.raises(ValueError, match="bit depth"):
            decode_png(payload)

    def test_real_decode_routes_png(self):
        from json_time_series_extractor_ray.functions.mediacodecs import (
            encode_png)
        from json_time_series_extractor_ray.pipelines.multimodal import (
            real_decode)

        px = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        d = real_decode(encode_png(px))
        assert (d["width"], d["height"]) == (4, 4)
        assert d["decoded_bytes"] == 48
        assert d["raw_sum"] == int(px.sum())

    def test_resize_real_handles_png(self):
        from json_time_series_extractor_ray.functions.mediacodecs import (
            decode_png, encode_png)
        from json_time_series_extractor_ray.pipelines.multimodal import (
            ResizeStage, resize_nearest)

        rng = np.random.default_rng(3)
        px = rng.integers(0, 256, size=(10, 6, 3), dtype=np.uint8)
        out = ResizeStage(4, 8)._resize_real(encode_png(px))
        assert (decode_png(out) == resize_nearest(px, 4, 8)).all()

    def test_driver_pixel_sum_rule(self, ray_session):
        from json_time_series_extractor_ray.pipelines.multimodal import (
            synthesize_png_table)
        from json_time_series_extractor_ray.functions.mediacodecs import (
            decode_png)

        t = synthesize_png_table([254, 7], [4096, 100])
        for i, (doc_id, n) in enumerate([(254, 4096), (7, 100)]):
            side = int(np.sqrt(n))
            px = decode_png(t.column("payload")[i].as_py())
            assert px.shape == (side, side, 3)
            expect = 3 * side * int(((doc_id + np.arange(side)) % 256).sum())
            assert int(px.sum()) == expect


class TestHll1dVsExact:
    def test_flags_and_exact_counts(self, ray_session):
        from json_time_series_extractor_ray.pipelines.sketches import (
            _q_hll_1d_vs_exact)

        t = _q_hll_1d_vs_exact(SF)
        assert t.num_rows > 0
        assert all(t.column("registers_equal").to_pylist())
        assert all(t.column("hll_within_3sigma").to_pylist())
        days = t.column("day_ns").to_pylist()
        assert days == sorted(days)
        assert min(t.column("exact_distinct").to_pylist()) > 0


class TestQuantileVsExact:
    def test_rank_flags(self, ray_session):
        from json_time_series_extractor_ray.pipelines.sketches import (
            _q_quantile_vs_exact)

        t = _q_quantile_vs_exact(SF)
        assert t.num_rows > 0
        for col in ("p50_rank_ok", "p90_rank_ok", "p99_rank_ok"):
            assert all(t.column(col).to_pylist()), col
        assert min(t.column("n").to_pylist()) > 0
