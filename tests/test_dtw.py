"""DTW distance: DP kernel vs full-matrix brute force, guards, and the
distributed all-pairs pipeline."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from json_time_series_extractor_ray.pipelines.dtw import (
    dtw_distances,
    dtw_pair,
    window_mean_vectors,
)

_D = 86_400_000_000_000


def _dtw_full(a, b):
    n, m = len(a), len(b)
    D = np.full((n + 1, m + 1), np.inf)
    D[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            D[i, j] = abs(a[i - 1] - b[j - 1]) + min(
                D[i - 1, j], D[i, j - 1], D[i - 1, j - 1])
    return D[n, m]


def _samples(ray, df):
    t = pa.table({
        "series_key": pa.array(df["series_key"], pa.string()),
        "ts": pa.array(df["ts_ns"], pa.int64()).cast(pa.timestamp("ns")),
        "value_num": pa.array(df["value_num"], pa.float64()),
    })
    return ray.data.from_arrow(t)


class TestDtwKernel:
    def test_matches_full_matrix(self):
        rng = np.random.default_rng(3)
        for n, m in [(1, 1), (1, 7), (9, 1), (13, 17), (40, 40)]:
            a = rng.normal(0, 1, n)
            b = rng.normal(0, 1, m)
            assert dtw_pair(a, b) == _dtw_full(a, b)

    def test_identity_and_shift(self):
        a = np.sin(np.linspace(0, 6, 50))
        assert dtw_pair(a, a) == 0.0
        # a 3-step time shift: DTW absorbs it, Euclidean cannot
        b = np.roll(a, 3)
        assert dtw_pair(a, b) < 0.5 * np.abs(a - b).sum()


class TestDtwPipeline:
    def test_all_pairs(self, ray_session):
        rng = np.random.default_rng(4)
        n = 2000
        ts = rng.integers(0, 10 * _D, n)
        df = pd.DataFrame({
            "series_key": rng.choice(["a", "b", "c"], n),
            "ts_ns": ts,
            "value_num": rng.normal(5, 1, n).round(3),
        })
        got = dtw_distances(
            _samples(ray_session, df), window_ns=_D
        ).to_pandas().sort_values(["series_a", "series_b"],
                                  ignore_index=True)
        assert list(zip(got["series_a"], got["series_b"])) == [
            ("a", "b"), ("a", "c"), ("b", "c")]
        assert (got["n_a"] == 10).all() and (got["n_b"] == 10).all()
        assert (got["dtw"] >= 0).all()

    def test_guards_fail_loudly(self, ray_session):
        df = pd.DataFrame({
            "series_key": [f"s{i}" for i in range(5) for _ in range(4)],
            "ts_ns": list(np.arange(4) * _D) * 5,
            "value_num": np.linspace(0, 1, 20),
        })
        with pytest.raises(ValueError, match="max_series"):
            dtw_distances(_samples(ray_session, df), window_ns=_D,
                          max_series=3)
        with pytest.raises(ValueError, match="max_windows"):
            dtw_distances(_samples(ray_session, df), window_ns=_D,
                          max_windows=2)

    def test_no_numeric_samples_give_no_pairs(self, ray_session):
        df = pd.DataFrame({"series_key": ["a", "b"], "ts_ns": [0, _D],
                           "value_num": [np.nan, np.nan]})
        means = window_mean_vectors(_samples(ray_session, df), window_ns=_D)
        assert len(means) == 0
        assert list(means.columns) == ["series_key", "window_ns", "y"]
        assert dtw_distances(_samples(ray_session, df),
                             window_ns=_D).count() == 0
