"""Gap-fill and Gorilla compression unit + pipeline tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from json_time_series_extractor_ray.stages.gapfill import (
    FILL_LINEAR,
    FILL_LOCF,
    gap_fill_series,
)
from json_time_series_extractor_ray.state.gorilla import (
    GorillaChunkWriter,
    compress_chunk,
    decompress_chunk,
)

MIN = 60 * 10**9


def _series(windows, means):
    n = len(windows)
    return pd.DataFrame(
        {
            "window_start": np.array(windows, dtype=np.int64) * MIN,
            "min": np.array(means) - 1.0,
            "max": np.array(means) + 1.0,
            "mean": np.array(means, dtype=np.float64),
            "sum": np.array(means, dtype=np.float64) * 2,
            "count": np.full(n, 2, dtype=np.int64),
            "last": np.array(means, dtype=np.float64),
            "last_ts": np.array(windows, dtype=np.int64) * MIN + 10,
        }
    )


class TestGapFill:
    def test_locf_fills_interior_gaps(self):
        df = _series([0, 1, 4], [10.0, 20.0, 50.0])
        out = gap_fill_series(df, MIN, FILL_LOCF)
        assert list(out["window_start"] // MIN) == [0, 1, 2, 3, 4]
        assert list(out["fill"]) == ["", "", "locf", "locf", ""]
        filled = out[out["fill"] == "locf"]
        assert (filled["last"] == 20.0).all()
        assert (filled["mean"] == 20.0).all()
        assert (filled["min"] == 20.0).all()  # carried value, not observed min
        assert (filled["count"] == 0).all()
        assert (filled["sum"] == 0.0).all()

    def test_linear_interpolates(self):
        df = _series([0, 3], [10.0, 40.0])
        out = gap_fill_series(df, MIN, FILL_LINEAR)
        assert list(out["mean"]) == [10.0, 20.0, 30.0, 40.0]
        assert list(out["fill"]) == ["", "linear", "linear", ""]
        assert list(out["last"]) == [10.0, 20.0, 30.0, 40.0]

    def test_no_extrapolation(self):
        df = _series([5, 6], [1.0, 2.0])
        out = gap_fill_series(df, MIN, FILL_LOCF)
        assert len(out) == 2
        assert (out["fill"] == "").all()

    def test_single_row_passthrough(self):
        df = _series([7], [3.0])
        out = gap_fill_series(df, MIN, FILL_LOCF)
        assert len(out) == 1 and out["fill"].iloc[0] == ""

    def test_bad_method(self):
        with pytest.raises(ValueError):
            gap_fill_series(_series([0, 1], [1, 2]), MIN, "cubic")

    def test_bad_method_refused_without_rows(self):
        """Before any Dataset is touched, and on a shard with no numeric
        sample."""
        from json_time_series_extractor_ray.stages.rollup import (
            merge_tier_rollups,
            rollup_ladder,
            rollup_shard,
        )
        from json_time_series_extractor_ray.state.checkpoint import (
            ShardSamples,
        )

        strings = pa.table({
            "series_key": ["s"], "ts": pa.array([0], pa.timestamp("ns")),
            "value_num": [0.0], "value_kind": pa.array([2], pa.int8()),
            "doc_id": ["d"], "sample_ordinal": pa.array([0], pa.int32()),
        })
        for call in (lambda: rollup_ladder(None, gap_fill="cubic"),
                     lambda: merge_tier_rollups([None], gap_fill="cubic"),
                     lambda: rollup_shard(ShardSamples(strings),
                                          gap_fill="cubic")):
            with pytest.raises(ValueError, match="unknown gap-fill method"):
                call()


class TestGorilla:
    def test_round_trip_regular_series(self):
        ts = np.arange(0, 1000) * 15_000_000_000 + 1_704_067_200 * 10**9
        rng = np.random.default_rng(3)
        vals = np.round(20 + rng.standard_normal(1000), 2)
        chunk = compress_chunk(ts, vals)
        ts2, vals2 = decompress_chunk(chunk)
        np.testing.assert_array_equal(ts, ts2)
        np.testing.assert_array_equal(vals, vals2)

    def test_round_trip_irregular_ns(self):
        rng = np.random.default_rng(11)
        deltas = rng.integers(1, 10**12, size=500)
        ts = np.cumsum(deltas) + 10**18
        vals = rng.standard_normal(500) * 1e6
        chunk = compress_chunk(ts, vals)
        ts2, vals2 = decompress_chunk(chunk)
        np.testing.assert_array_equal(ts, ts2)
        np.testing.assert_array_equal(vals, vals2)

    def test_round_trip_specials(self):
        ts = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
        vals = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5])
        ts2, vals2 = decompress_chunk(compress_chunk(ts, vals))
        np.testing.assert_array_equal(ts, ts2)
        np.testing.assert_array_equal(
            vals.view(np.uint64), vals2.view(np.uint64)
        )  # NaN bit pattern preserved

    def test_compresses_regular_data(self):
        ts = np.arange(0, 10_000) * 10**9
        vals = np.full(10_000, 42.5)
        chunk = compress_chunk(ts, vals)
        raw = 16 * 10_000
        assert len(chunk) < raw / 20  # constant series compresses hugely

    def test_empty_and_single(self):
        for n in (0, 1):
            ts = np.arange(n, dtype=np.int64)
            vals = np.arange(n, dtype=np.float64) + 0.5
            ts2, vals2 = decompress_chunk(compress_chunk(ts, vals))
            np.testing.assert_array_equal(ts, ts2)
            np.testing.assert_array_equal(vals, vals2)

    def test_chunk_writer_group(self):
        df = pd.DataFrame(
            {
                "series_key": ["s"] * 4,
                "ts": pd.to_datetime([10, 30, 20, 40], unit="s", utc=True).tz_localize(None),
                "value_num": [1.0, 3.0, 2.0, 4.0],
                "value_kind": [1, 1, 1, 1],
                "doc_id": ["a", "b", "c", "d"],
                "sample_ordinal": [0, 0, 0, 0],
            }
        )
        out = GorillaChunkWriter()(
            pa.Table.from_pandas(df, preserve_index=False)).to_pandas()
        assert out["n_points"].iloc[0] == 4
        ts, vals = decompress_chunk(out["chunk"].iloc[0])
        assert list(vals) == [1.0, 2.0, 3.0, 4.0]  # sorted by ts before encode


class TestGorillaChunkSource:
    def test_readback_with_time_pruning(self, ray_session, tmp_path):
        """Chunks written per series read back exactly; a min_ts_ns filter
        prunes whole chunks via t_min/t_max before any decode."""
        import ray

        from json_time_series_extractor_ray.sources.gorilla_chunks import (
            read_gorilla_chunks,
        )
        from json_time_series_extractor_ray.state.gorilla import (
            compress_series_dataset,
        )

        sec = 10**9
        rows = []
        for s, t0 in (("early", 0), ("late", 10_000)):
            for i in range(50):
                rows.append((s, (t0 + i) * sec, float(i)))
        t = pa.table(
            {
                "series_key": pa.array([r[0] for r in rows]),
                "ts": pa.array([r[1] for r in rows], pa.int64()).cast(
                    pa.timestamp("ns")
                ),
                "value_num": pa.array([r[2] for r in rows]),
                "value_kind": pa.array([1] * len(rows), pa.int8()),
                "doc_id": pa.array([f"d{i}" for i in range(len(rows))]),
                "sample_ordinal": pa.array([0] * len(rows), pa.int32()),
            }
        )
        out = str(tmp_path / "chunks")
        compress_series_dataset(ray.data.from_arrow(t)).write_parquet(out)

        full = read_gorilla_chunks(out).to_pandas()
        assert len(full) == 100
        assert sorted(full["value_num"]) == sorted([r[2] for r in rows])

        pruned = read_gorilla_chunks(out, min_ts_ns=5_000 * sec).to_pandas()
        assert set(pruned["series_key"]) == {"late"}
        assert len(pruned) == 50
        assert list(np.sort(pruned["ts_ns"])) == [
            (10_000 + i) * sec for i in range(50)
        ]


class TestSaltedRollup:
    def test_hot_key_ladder_matches_oracle(self, ray_session):
        """The hot-key shape salting used to cover: one pathologically hot
        series beside a few cold ones, through the one unsalted path."""
        import pyarrow as pa
        import ray

        from json_time_series_extractor_ray.stages.rollup import (
            rollup_ladder,
            rollup_oracle,
        )

        base = 1_704_067_200 * 10**9
        n = 5000
        # one pathologically hot series + a few cold ones
        keys = ["hot"] * (n - 30) + [f"cold-{i % 3}" for i in range(30)]
        t = pa.table(
            {
                "series_key": pa.array(keys),
                "ts": pa.array(
                    [base + (i % 600) * 10**9 + i for i in range(n)], pa.int64()
                ).cast(pa.timestamp("ns")),
                "value_num": pa.array([float(i % 97) for i in range(n)]),
                "value_kind": pa.array([1] * n, pa.int8()),
                "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
                "sample_ordinal": pa.array([0] * n, pa.int32()),
            }
        )
        cols = ["tier", "series_key", "window_start", "min", "max", "mean",
                "sum", "count", "last", "last_ts"]
        got = (
            rollup_ladder(ray.data.from_arrow(t))
            .to_pandas()[cols]
            .sort_values(cols[:3], ignore_index=True)
        )
        import pandas as pd

        pd.testing.assert_frame_equal(got, rollup_oracle(t)[cols])


class TestBucketedGorillaChunks:
    def test_bucketed_readback_equals_plain(self, ray_session, tmp_path):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray

        from json_time_series_extractor_ray.sources.gorilla_chunks import (
            read_gorilla_chunks,
        )
        from json_time_series_extractor_ray.state.gorilla import (
            compress_series_dataset,
        )

        rng = np.random.default_rng(13)
        n = 5000
        df = pd.DataFrame({
            "series_key": rng.choice(["hot"] * 8 + ["a", "b"], n),
            "ts": pd.to_datetime(rng.integers(0, 10**9, n), unit="ns"),
            "value_num": rng.normal(size=n).round(4),
            "value_kind": 1,
            "doc_id": [f"d{i}" for i in range(n)],
            "sample_ordinal": np.zeros(n, dtype=np.int32),
        })
        ds = ray.data.from_pandas(df).repartition(4)

        plain_dir, bkt_dir = str(tmp_path / "p"), str(tmp_path / "b")
        compress_series_dataset(ds).write_parquet(plain_dir)
        compress_series_dataset(ds, bucket_ns=10**8).write_parquet(bkt_dir)

        n_plain = len(pd.read_parquet(plain_dir))
        n_bkt = len(pd.read_parquet(bkt_dir))
        assert n_plain == 3          # one chunk per series
        assert n_bkt > 3 * 3         # split across time buckets

        key = ["series_key", "ts_ns", "value_num"]
        a = read_gorilla_chunks(plain_dir).to_pandas() \
            .sort_values(key, ignore_index=True)
        b = read_gorilla_chunks(bkt_dir).to_pandas() \
            .sort_values(key, ignore_index=True)
        pd.testing.assert_frame_equal(a, b)

    def test_bucketed_time_prune_still_exact(self, ray_session, tmp_path):
        import numpy as np
        import pandas as pd
        import ray

        from json_time_series_extractor_ray.sources.gorilla_chunks import (
            read_gorilla_chunks,
        )
        from json_time_series_extractor_ray.state.gorilla import (
            compress_series_dataset,
        )

        n = 1000
        df = pd.DataFrame({
            "series_key": "s",
            "ts": pd.to_datetime(np.arange(n) * 10**6, unit="ns"),
            "value_num": np.arange(n, dtype=np.float64),
            "value_kind": 1,
            "doc_id": [f"d{i}" for i in range(n)],
            "sample_ordinal": np.zeros(n, dtype=np.int32),
        })
        out = str(tmp_path / "bkt")
        compress_series_dataset(
            ray.data.from_pandas(df), bucket_ns=10**8
        ).write_parquet(out)
        got = read_gorilla_chunks(
            out, min_ts_ns=2 * 10**8, max_ts_ns=5 * 10**8
        ).to_pandas()
        want = df[(df["ts"].astype("int64") >= 2 * 10**8 - 10**8)
                  & (df["ts"].astype("int64") <= 5 * 10**8 + 10**8)]
        # chunk-granular prune: everything in range survives
        in_range = got[(got["ts_ns"] >= 2 * 10**8)
                       & (got["ts_ns"] <= 5 * 10**8)]
        assert len(in_range) == ((df["ts"].astype("int64") >= 2 * 10**8)
                                 & (df["ts"].astype("int64") <= 5 * 10**8)).sum()
        assert len(got) <= len(want)


class TestChunkCompaction:
    def test_compaction_preserves_samples_and_shrinks_chunk_count(self):
        import pandas as pd

        import ray

        from json_time_series_extractor_ray.sources.gorilla_chunks import (
            decode_chunk_batch,
        )
        from json_time_series_extractor_ray.state.gorilla import (
            compact_chunks,
            compress_series_dataset,
        )

        rng = np.random.default_rng(3)
        n = 5000
        base = 1_700_000_000_000_000_000
        tbl = pa.table({
            "series_key": pa.array(
                ["a"] * (n // 2) + ["b"] * (n // 2), pa.string()),
            "ts": pa.array(
                base + np.arange(n, dtype=np.int64) * 1_000_000_000,
                pa.timestamp("ns")),
            "value_num": pa.array(rng.normal(size=n), pa.float64()),
            "value_kind": pa.array([1] * n, pa.int32()),
            "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "sample_ordinal": pa.array(np.zeros(n, np.int64), pa.int64()),
        })
        # hourly buckets -> many small chunks per series
        chunks = compress_series_dataset(
            ray.data.from_arrow(tbl), bucket_ns=3_600_000_000_000
        ).materialize()
        assert chunks.count() > 2
        compacted = compact_chunks(chunks, target_points=10**6) \
            .materialize()
        assert compacted.count() == 2  # one big chunk per series

        def _decode(ds):
            parts = [decode_chunk_batch(t)
                     for t in ray.get(ds.to_arrow_refs())]
            df = pa.concat_tables([p for p in parts if p.num_rows]) \
                .to_pandas()
            return df.sort_values(
                ["series_key", "ts_ns"], ignore_index=True)

        a = _decode(chunks)
        b = _decode(compacted)
        pd.testing.assert_frame_equal(a, b)

    def test_target_points_splits_output(self):
        import ray

        from json_time_series_extractor_ray.state.gorilla import (
            compact_chunks,
            compress_series_dataset,
        )

        n = 1000
        base = 1_700_000_000_000_000_000
        tbl = pa.table({
            "series_key": pa.array(["s"] * n, pa.string()),
            "ts": pa.array(
                base + np.arange(n, dtype=np.int64) * 1_000_000_000,
                pa.timestamp("ns")),
            "value_num": pa.array(np.arange(n, dtype=np.float64),
                                  pa.float64()),
            "value_kind": pa.array([1] * n, pa.int32()),
            "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "sample_ordinal": pa.array(np.zeros(n, np.int64), pa.int64()),
        })
        chunks = compress_series_dataset(
            ray.data.from_arrow(tbl), bucket_ns=60_000_000_000)
        out = compact_chunks(chunks, target_points=300).materialize()
        df = out.to_pandas().sort_values("t_min", ignore_index=True)
        assert df["n_points"].tolist() == [300, 300, 300, 100]
        # ranges must tile the series without overlap
        assert (df["t_min"].to_numpy()[1:] > df["t_max"].to_numpy()[:-1]).all()
