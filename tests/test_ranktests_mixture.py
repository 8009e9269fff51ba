"""Mann-Whitney U, peak detection, and mixture weights — planted-value
unit tests (oracle parity runs through the registered queries)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from json_time_series_extractor_ray.pipelines.mixture import mixture_weights
from json_time_series_extractor_ray.pipelines.ranktests import (
    mannwhitney_weekend,
)
from json_time_series_extractor_ray.pipelines.seriesdiag import detect_peaks

_DAY_NS = 86_400_000_000_000
# 1970-01-03 was a Saturday (weekend), 1970-01-05 a Monday (weekday)
_SAT = pd.Timestamp("1970-01-03")
_MON = pd.Timestamp("1970-01-05")


def _samples(values_weekend, values_weekday):
    rows = ([("s", _SAT, v) for v in values_weekend]
            + [("s", _MON, v) for v in values_weekday])
    df = pd.DataFrame(rows, columns=["series_key", "ts", "value_num"])
    df["ts"] = df["ts"].astype("datetime64[ns]")
    return df


def test_mannwhitney_hand_computed(ray_session):
    import ray

    # weekend {1, 2, 3}, weekday {4, 5}: all weekend ranks below ->
    # R_wk = 1+2+3 = 6, U = 6 - 3*4/2 = 0; mu = 3; var = 3*2/12 * 6 = 3
    ds = ray.data.from_pandas(_samples([1, 2, 3], [4, 5]))
    out = mannwhitney_weekend(ds)
    assert len(out) == 1
    assert out["n_weekend"].iloc[0] == 3
    assert out["n_weekday"].iloc[0] == 2
    assert out["u_stat"].iloc[0] == 0.0
    assert out["z_stat"].iloc[0] == pytest.approx(-3 / np.sqrt(3), abs=1e-6)


def test_mannwhitney_ties_average_ranks(ray_session):
    import ray

    # weekend {2, 2}, weekday {2, 4}: three 2s share avg rank 2,
    # R_wk = 4, U = 4 - 3 = 1; tie term = 3^3-3 = 24, n = 4
    ds = ray.data.from_pandas(_samples([2, 2], [2, 4]))
    out = mannwhitney_weekend(ds)
    assert out["u_stat"].iloc[0] == 1.0
    var = (2 * 2 / 12.0) * ((4 + 1) - 24 / (4 * 3.0))
    assert out["z_stat"].iloc[0] == pytest.approx(
        (1 - 2) / np.sqrt(var), abs=1e-6)


def test_mannwhitney_all_tied_dropped(ray_session):
    import ray

    ds = ray.data.from_pandas(_samples([7, 7], [7, 7]))
    out = mannwhitney_weekend(ds)
    assert len(out) == 0


def test_detect_peaks_planted(ray_session):
    import ray

    n = 7
    means = [1, 5, 2, 2, 9, 3, 4]  # peaks at index 1 (5) and 4 (9)
    df = pd.DataFrame({
        "series_key": ["a"] * n,
        "tier": ["1h"] * n,
        "window_start": pd.to_datetime(
            np.arange(n, dtype=np.int64) * 3_600_000_000_000),
        "sum": np.asarray(means, dtype=np.float64),
        "count": np.ones(n, dtype=np.int64),
    })
    out = detect_peaks(ray.data.from_pandas(df), tier="1h").to_pandas()
    assert sorted(out["mean"]) == [5.0, 9.0]


def test_mixture_weights_planted(ray_session):
    import ray

    docs = pd.DataFrame({"source": ["big"] * 900 + ["small"] * 100})
    out = mixture_weights(ray.data.from_pandas(docs)).to_pandas()
    out = out.set_index("source")
    assert out.loc["big", "n_docs"] == 900
    # alpha=0.7 compresses: small's weight share beats its raw share
    assert out.loc["small", "weight"] > out.loc["small", "raw_share"]
    assert out.loc["small", "boost"] > 1.0 > out.loc["big", "boost"]
    assert out["weight"].sum() == pytest.approx(1.0, abs=1e-5)


def test_ordered_funnel_planted(ray_session):
    import ray

    from json_time_series_extractor_ray.pipelines.windows import (
        ordered_funnel,
    )

    rows = [
        # u1 completes in order
        (1, "view", 10), (1, "click", 20), (1, "purchase", 30),
        # u2 clicks BEFORE viewing: click doesn't qualify
        (2, "click", 5), (2, "view", 10), (2, "purchase", 20),
        # u3 views only
        (3, "view", 1),
        # u4 purchase before click: stops at click
        (4, "view", 1), (4, "purchase", 2), (4, "click", 3),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    df["ts"] = pd.to_datetime(df["ts"], unit="s")
    out = ordered_funnel(ray.data.from_pandas(df))
    assert out["n_view"].iloc[0] == 4
    assert out["n_click"].iloc[0] == 2   # u1 and u4
    assert out["n_purchase"].iloc[0] == 1  # only u1
    assert out["conv_overall"].iloc[0] == 0.25


def test_k_anonymity_planted(ray_session):
    import ray

    from json_time_series_extractor_ray.pipelines.kanon import k_anonymity

    # class A: 10 members (safe at k=5); class B: 2 (unsafe); C: 1 (unsafe)
    df = pd.DataFrame({
        "qi1": ["A"] * 10 + ["B"] * 2 + ["C"],
        "qi2": [1] * 13,
    })
    out = k_anonymity(ray.data.from_pandas(df),
                      qi_cols=("qi1", "qi2"), k=5).to_pandas()
    assert out["n_classes"].iloc[0] == 3
    assert out["n_unsafe_classes"].iloc[0] == 2
    assert out["n_unsafe_rows"].iloc[0] == 3
    assert out["min_class_size"].iloc[0] == 1
    assert out["unsafe_row_share"].iloc[0] == pytest.approx(3 / 13, abs=1e-6)


def test_runs_test_planted(ray_session):
    import ray

    from json_time_series_extractor_ray.pipelines.ranktests import runs_test

    def _mk(key, vals):
        df = pd.DataFrame({
            "series_key": [key] * len(vals),
            "ts": pd.to_datetime(np.arange(len(vals), dtype=np.int64),
                                 unit="s"),
            "doc_id": [f"d{i:04d}" for i in range(len(vals))],
            "sample_ordinal": np.zeros(len(vals), dtype=np.int32),
            "value_num": np.asarray(vals, dtype=np.float64),
        })
        df["ts"] = df["ts"].astype("datetime64[ns]")
        return df

    # perfectly alternating around the median: maximal runs, z >> 0
    alt = _mk("alt", [1, 9] * 20)
    # perfectly sorted: exactly 2 runs, z << 0
    trend = _mk("trend", list(range(40)))
    out = runs_test(ray.data.from_pandas(pd.concat([alt, trend],
                                                   ignore_index=True))) \
        .to_pandas().set_index("series_key")
    assert out.loc["alt", "n_runs"] == 40
    assert out.loc["alt", "z_stat"] > 3
    assert out.loc["trend", "n_runs"] == 2
    assert out.loc["trend", "z_stat"] < -3


def test_kaplan_meier_planted(ray_session):
    import ray

    from json_time_series_extractor_ray.pipelines.windows import (
        kaplan_meier,
    )

    day = 86_400
    rows = []
    # u1: converts after 1 day; u2: after 2 days; u3: never (censored)
    rows += [(1, "view", 0), (1, "purchase", 1 * day)]
    rows += [(2, "view", 0), (2, "purchase", 2 * day)]
    rows += [(3, "view", 0)]
    rows += [(9, "error", 3 * day)]  # horizon marker, not in the funnel
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    df["ts"] = pd.to_datetime(df["ts"], unit="s")
    out = kaplan_meier(ray.data.from_pandas(df))
    # events at day 1 (n=3) and day 2 (n=2): S = 2/3, then 1/3
    assert out["duration_days"].tolist() == [1, 2]
    assert out["n_at_risk"].tolist() == [3, 2]
    assert out["survival"].iloc[0] == pytest.approx(2 / 3, abs=1e-6)
    assert out["survival"].iloc[1] == pytest.approx(1 / 3, abs=1e-6)

def _mw_reference(weekend, weekday):
    """Single-machine textbook Mann-Whitney with average ranks."""
    vals = np.concatenate([weekend, weekday])
    order = np.argsort(vals, kind="stable")
    ranks = np.empty(len(vals), dtype=np.float64)
    sv = vals[order]
    i = 0
    r = 1.0
    while i < len(sv):
        j = i
        while j < len(sv) and sv[j] == sv[i]:
            j += 1
        ranks[order[i:j]] = r + (j - i - 1) / 2.0
        r += j - i
        i = j
    n1 = len(weekend)
    n0 = len(weekday)
    n = n1 + n0
    rw = ranks[:n1].sum()
    u = rw - n1 * (n1 + 1) / 2.0
    _, tie_counts = np.unique(vals, return_counts=True)
    tie = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts))
    var = (n1 * n0 / 12.0) * ((n + 1) - tie / (n * (n - 1.0)))
    z = (u - n1 * n0 / 2.0) / np.sqrt(var)
    return u, z


def test_mannwhitney_distributed_prefix_rank_continuous(ray_session):
    """Planted continuous-valued hot series: every value distinct and
    spread over MANY value-ordered shards, so no task ever holds the
    whole distinct-value table — the distributed fold still matches the
    textbook single-machine rank computation to round-6."""
    import ray

    from json_time_series_extractor_ray.pipelines._util import (
        value_ordered_shards,
    )

    rng = np.random.default_rng(42)
    # spread across many binades: lognormal covers several exponents
    weekend = np.exp(rng.normal(0, 4, size=4000))
    weekday = np.exp(rng.normal(0.5, 4, size=6000))
    n_shards = len(np.unique(value_ordered_shards(
        np.concatenate([weekend, weekday]), 64)))
    assert n_shards > 20  # genuinely distributed, not one slice

    ds = ray.data.from_pandas(_samples(list(weekend), list(weekday)))
    # force the distributed rounds (driver_fold_rows=0), the 100 TB path
    out = mannwhitney_weekend(ds, driver_fold_rows=0)
    u_ref, z_ref = _mw_reference(weekend, weekday)
    assert len(out) == 1
    assert out["n_weekend"].iloc[0] == 4000
    assert out["n_weekday"].iloc[0] == 6000
    assert out["u_stat"].iloc[0] == pytest.approx(u_ref, abs=1e-6)
    assert out["z_stat"].iloc[0] == pytest.approx(z_ref, abs=1e-6)


def test_mannwhitney_shard_count_invariance(ray_session):
    """The result is exactly invariant to the value_shards parameter —
    the fold's offset arithmetic is exact, not approximately so."""
    import ray

    rng = np.random.default_rng(7)
    weekend = np.round(np.exp(rng.normal(0, 3, size=500)), 3)
    weekday = np.round(np.exp(rng.normal(0.2, 3, size=700)), 3)
    df = _samples(list(weekend), list(weekday))
    outs = [
        mannwhitney_weekend(ray.data.from_pandas(df), value_shards=k,
                            driver_fold_rows=0)
        for k in (1, 8, 256)
    ]
    # the adaptive driver fold must agree exactly with every
    # distributed-shard configuration
    outs.append(mannwhitney_weekend(ray.data.from_pandas(df)))
    for other in outs[1:]:
        pd.testing.assert_frame_equal(outs[0], other)


def test_value_ordered_shards_signed_zero(ray_session):
    """-0.0 and +0.0 compare equal in every downstream groupby, so they
    must share a shard (review finding: a split zero tie group corrupts
    the distributed rank sum), and the full pipeline must agree with
    the serial fold on a zero-straddling series."""
    import ray

    from json_time_series_extractor_ray.pipelines._util import (
        value_ordered_shards,
    )

    s = value_ordered_shards(np.array([-0.0, 0.0]), 64)
    assert s[0] == s[1]

    df = _samples([-0.0, 5.0], [0.0, 0.0, 1.0])
    sharded = mannwhitney_weekend(ray.data.from_pandas(df),
                                  driver_fold_rows=0)
    folded = mannwhitney_weekend(ray.data.from_pandas(df))
    pd.testing.assert_frame_equal(sharded, folded)


def test_value_ordered_shards_accepts_pandas_series():
    """A pandas Series (whose ``to_numpy`` takes no ``zero_copy_only``)
    shards exactly like the same values as an ndarray or an Arrow
    array."""
    from json_time_series_extractor_ray.pipelines._util import (
        value_ordered_shards,
    )

    vals = np.array([-3.5, -0.0, 0.0, 1e-300, 2.25, 7e10])
    expected = value_ordered_shards(vals, 64)
    np.testing.assert_array_equal(
        value_ordered_shards(pd.Series(vals), 64), expected)
    np.testing.assert_array_equal(
        value_ordered_shards(pa.chunked_array([vals[:2], vals[2:]]), 64),
        expected)
