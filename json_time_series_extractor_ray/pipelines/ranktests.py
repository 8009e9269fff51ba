"""Mann-Whitney U (Wilcoxon rank-sum): nonparametric weekend-vs-weekday
shift test per series.

Complements ``diffstats.welch_weekend_effect``: Welch's t assumes
near-normal group means; the rank-sum test is distribution-free.  The
statistic needs GLOBAL ranks with average-rank tie handling, computed
here without ranking rows at all: ranks are a function of the per-
distinct-value counts, so the engine aggregates ``(series, value) ->
(weekend count, total count)`` partials inside ``map_batches`` and ONE
``groupby(series)`` hands each series its (merged) distinct-value
table; a sorted cumulative count then yields every tie group's average
rank vectorized.

EXACTNESS: average ranks are half-integers and all counts are ints, so
every term of the rank-sum is an exact binary value and the sum is
order-independent (magnitudes < 2^53) — the Ray sum and the DuckDB
window sum agree bit for bit; z then evaluates one identical IEEE
expression with the standard tie-corrected variance
``(n1*n0/12) * ((n+1) - sum(t^3-t)/(n*(n-1)))``.

Scale shape: the shuffle carries per-BLOCK DISTINCT (series, value)
partials, not rows, and the global rank sum is computed by the same
two-pass DISTRIBUTED prefix-rank as ``relational.customer_spend_gini``:
each (series, value) partial is routed to a VALUE-ORDERED shard
(``_util.value_ordered_shards`` — a pure monotone function of the
value, so tie groups never split and shard ids order like values), one
``groupby(series, vshard)`` task ranks only its slice and emits a
single partial row ``(cnt, snw, sloc, tie)``, and the driver folds the
tiny partial table with cumulative count offsets:
``rank_sum = sum_shards(offset * snw + sloc)``.  Exact because the
local average ranks are half-integers, the offsets are exact ints, and
ranks of tied values are interchangeable.  No task ever holds a whole
series' distinct-value table — a continuous-valued hot series with
billions of distinct values spreads over ``value_shards``-per-binade
slices; ``MAX_SHARD_DISTINCT`` bounds one SLICE at a true task-memory
bound (raise ``value_shards`` to shrink slices further).

Reference anchor: extraction-only reference (SURVEY.md §2); extends the
engine-mandated analytics family (§2.6).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import (
    MAX_DRIVER_FOLD_ROWS,
    round_half_away,
    value_ordered_shards,
    window_means,
)
from .registry import register

_DAY_NS = 86_400_000_000_000

#: One task holds one (series, value-shard) SLICE of the distinct-value
#: table, never a whole series.  20M distinct values x ~40 B/row ≈ 800 MB
#: — a true single-task memory bound; raise ``value_shards`` to shrink
#: slices if a pathological distribution concentrates one binade slice.
MAX_SHARD_DISTINCT = 20_000_000


def mannwhitney_weekend(samples_ds, *, round_digits: int = 6,
                        value_shards: int = 64,
                        driver_fold_rows: int = MAX_DRIVER_FOLD_ROWS):
    """Per series: U and tie-corrected z for weekend vs weekday values,
    via the two-pass distributed prefix-rank (module docstring), with
    the adaptive driver fold for small partial relations."""

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch.column("value_num").is_valid())
        ts = t.column("ts").cast(pa.timestamp("ns")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        dow = ((ts // _DAY_NS) + 4) % 7  # DuckDB dayofweek: 0 = Sunday
        wk = ((dow == 0) | (dow == 6)).astype(np.int64)
        df = pd.DataFrame({
            "series_key": t.column("series_key").to_pandas(),
            "v": t.column("value_num").to_numpy(zero_copy_only=False),
            "nw": wk,
            "tc": np.ones(t.num_rows, dtype=np.int64),
        })
        g = df.groupby(["series_key", "v"], sort=False).agg(
            nw=("nw", "sum"), tc=("tc", "sum")).reset_index()
        # value-ordered shard: pure function of v, so every partial for
        # the same (series, v) — and every member of a tie group —
        # lands in the same (series_key, vshard) task
        g["vshard"] = value_ordered_shards(g["v"].to_numpy(), value_shards)
        return pa.Table.from_pandas(g, preserve_index=False)

    def _shard_rank(df: pd.DataFrame) -> pd.DataFrame:
        # one (series, vshard) slice: merge per-block duplicates, rank
        # locally, emit ONE partial row
        g = df.groupby("v", sort=True).agg(
            nw=("nw", "sum"), tc=("tc", "sum"))
        if len(g) > MAX_SHARD_DISTINCT:
            raise ValueError(
                f"series {df['series_key'].iloc[0]!r} value-shard "
                f"{int(df['vshard'].iloc[0])} holds {len(g)} distinct "
                f"values (> MAX_SHARD_DISTINCT={MAX_SHARD_DISTINCT}); "
                "raise value_shards to split binades finer"
            )
        nw = g["nw"].to_numpy(np.int64)
        tc = g["tc"].to_numpy(np.int64)
        prefix = np.cumsum(tc) - tc  # LOCAL prefix within the slice
        # local average rank of a tie group: prefix + (tc+1)/2 —
        # half-integers, so the weighted sum is EXACT; the global rank
        # adds the lower-shard count offset at fold time
        sloc = float(np.sum(nw * (prefix + (tc + 1) / 2.0)))
        return pd.DataFrame({
            "series_key": df["series_key"].iloc[:1],
            "vshard": pd.Series([int(df["vshard"].iloc[0])],
                                dtype="int64"),
            "cnt": pd.Series([int(tc.sum())], dtype="int64"),
            "snw": pd.Series([int(nw.sum())], dtype="int64"),
            "sloc": pd.Series([sloc], dtype="float64"),
            "tie": pd.Series([int(np.sum(tc ** 3 - tc))], dtype="int64"),
        })

    out = {"series_key": [], "n_weekday": [], "n_weekend": [],
           "u_stat": [], "z_stat": []}

    def _emit(sk, rw: float, n1: int, n: int, tie: int) -> None:
        n0 = n - n1
        if n1 < 1 or n0 < 1:
            return
        u = rw - n1 * (n1 + 1) / 2.0
        var = (n1 * n0 / 12.0) * ((n + 1) - tie / (n * (n - 1.0)))
        if not var > 0:
            return
        z = (u - n1 * n0 / 2.0) / np.sqrt(var)
        out["series_key"].append(sk)
        out["n_weekday"].append(n0)
        out["n_weekend"].append(n1)
        out["u_stat"].append(round_half_away(np.float64(u), round_digits))
        out["z_stat"].append(round_half_away(np.float64(z), round_digits))

    parts_ds = samples_ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    if parts_ds.count() <= driver_fold_rows:
        # adaptive driver fold: the whole distinct-value relation is
        # small — merge per-block duplicates and rank locally, no
        # shuffle at all (identical arithmetic, offset 0)
        pdf = parts_ds.to_pandas()
        merged = pdf.groupby(["series_key", "v"], sort=True).agg(
            nw=("nw", "sum"), tc=("tc", "sum")).reset_index()
        for sk, g in merged.groupby("series_key", sort=True):
            nw = g["nw"].to_numpy(np.int64)
            tc = g["tc"].to_numpy(np.int64)
            prefix = np.cumsum(tc) - tc
            rw = float(np.sum(nw * (prefix + (tc + 1) / 2.0)))
            _emit(sk, rw, int(nw.sum()), int(tc.sum()),
                  int(np.sum(tc ** 3 - tc)))
    else:
        parts = (
            parts_ds.groupby(["series_key", "vshard"]).map_groups(
                _shard_rank, batch_format="pandas")
        ).to_pandas()  # ≤ |series| x (value_shards x binades) rows
        parts = parts.sort_values(["series_key", "vshard"],
                                  ignore_index=True)
        for sk, sub in parts.groupby("series_key", sort=True):
            cnts = sub["cnt"].to_numpy(np.float64)
            offs = np.concatenate(([0.0], np.cumsum(cnts)[:-1]))
            # global rank sum: lower-shard count offset x weekend count
            # in the shard, plus the shard's local half-integer rank
            # sum — every term exact, so bit-identical to the
            # single-task cumsum
            rw = float(np.sum(offs * sub["snw"].to_numpy(np.float64)
                              + sub["sloc"].to_numpy(np.float64)))
            _emit(sk, rw, int(sub["snw"].sum()), int(sub["cnt"].sum()),
                  int(sub["tie"].sum()))
    return pd.DataFrame({
        "series_key": pd.Series(out["series_key"], dtype=object),
        "n_weekday": pd.Series(out["n_weekday"], dtype="int64"),
        "n_weekend": pd.Series(out["n_weekend"], dtype="int64"),
        "u_stat": pd.Series(out["u_stat"], dtype="float64"),
        "z_stat": pd.Series(out["z_stat"], dtype="float64"),
    })


def _q_mannwhitney(sf_dir: str):
    from .diffstats import _numeric_samples

    return mannwhitney_weekend(_numeric_samples(sf_dir))


def _mw_sql() -> str:
    from ._events_sql import EVENTS_NUMERIC_SQL

    return f"""
    WITH m AS (
        SELECT series_key,
               CASE WHEN dayofweek(to_timestamp(ts_ns / 1000000000))
                         IN (0, 6) THEN 1 ELSE 0 END AS wk,
               value_num AS v, CAST(count(*) AS BIGINT) AS n
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY 1, 2, 3
    ),
    c AS (
        SELECT series_key, v,
               sum(CASE WHEN wk = 1 THEN n ELSE 0 END) AS nw,
               sum(n) AS tc
        FROM m GROUP BY 1, 2
    ),
    r AS (
        SELECT series_key, v, nw, tc,
               sum(tc) OVER (PARTITION BY series_key ORDER BY v
                             ROWS UNBOUNDED PRECEDING) - tc AS prefix
        FROM c
    ),
    agg AS (
        SELECT series_key,
               sum(nw * (prefix + (tc + 1) / 2.0)) AS rw,
               sum(nw) AS n1, sum(tc) AS n,
               sum(tc * tc * tc - tc) AS tie
        FROM r GROUP BY 1
    )
    SELECT series_key,
           CAST(n - n1 AS BIGINT) AS n_weekday,
           CAST(n1 AS BIGINT) AS n_weekend,
           round(rw - n1 * (n1 + 1) / 2.0, 6) AS u_stat,
           round((rw - n1 * (n1 + 1) / 2.0 - n1 * (n - n1) / 2.0)
                 / sqrt((n1 * (n - n1) / 12.0)
                        * ((n + 1) - tie / (n * (n - 1.0)))), 6) AS z_stat
    FROM agg
    WHERE n1 >= 1 AND n - n1 >= 1
      AND (n1 * (n - n1) / 12.0)
          * ((n + 1) - tie / (n * (n - 1.0))) > 0
    """


register("events_weekend_mannwhitney", _q_mannwhitney, _mw_sql())


# ---------------------------------------------------------------------------
# Wald-Wolfowitz runs test: is the series' above/below-median sequence
# random, or does it trend/cluster?
# ---------------------------------------------------------------------------

def runs_test(samples_ds):
    """Per series: the number of RUNS of consecutive above/below-median
    values in time order versus the count expected under randomness,

        mu_R = 2*n1*n2/(n1+n2) + 1
        var_R = 2*n1*n2*(2*n1*n2 - n1 - n2)
                / ((n1+n2)^2 * (n1+n2-1))
        z = (R - mu_R) / sqrt(var_R)

    (n1/n2 = counts strictly above/below the series median; exact-median
    ties are EXCLUDED, the standard convention).  Fewer runs than
    expected (z << 0) means trending/clustering; more means
    oscillation.

    Exactness: the median comes from the bit-exact weighted
    ``quantile_cont`` lerp (``psidrift._weighted_quantiles``), runs and
    counts are exact ints ordered by the same total order
    ``(ts, doc_id, ordinal)`` both engines use, and z is one identical
    IEEE expression rounded to 6.

    Scale shape: like the other per-series diagnostics, the one
    ``groupby(series_key)`` task holds a series' rows — the operator is
    ORDER-dependent, so its inherent frontier is the per-series row
    count (bounded by retention); the loud remedy for unbounded series
    is windowed runs over the rollup tiers.
    """
    from .psidrift import _weighted_quantiles

    def _project(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch.column("value_num").is_valid())
        return pa.table({
            "series_key": t.column("series_key"),
            "ts_ns": t.column("ts").cast(pa.timestamp("ns"))
            .cast(pa.int64()),
            "doc_id": t.column("doc_id"),
            "ordinal": t.column("sample_ordinal").cast(pa.int64()),
            "v": t.column("value_num"),
        })

    def _runs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "series_key": pd.Series([], dtype=object),
            "n_above": pd.Series([], dtype="int64"),
            "n_below": pd.Series([], dtype="int64"),
            "n_runs": pd.Series([], dtype="int64"),
            "z_stat": pd.Series([], dtype="float64"),
        })
        df = df.sort_values(["ts_ns", "doc_id", "ordinal"],
                            ignore_index=True)
        v = df["v"].to_numpy(np.float64)
        uv, uc = np.unique(v, return_counts=True)
        med = _weighted_quantiles(uv, uc.astype(np.int64), [0.5])[0]
        sign = np.where(v > med, 1, np.where(v < med, -1, 0))
        sign = sign[sign != 0]
        n1 = int((sign > 0).sum())
        n2 = int((sign < 0).sum())
        if n1 < 1 or n2 < 1:
            return empty
        runs = int(1 + (sign[1:] != sign[:-1]).sum())
        n = n1 + n2
        mu = 2.0 * n1 * n2 / n + 1
        var = (2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)
               / (n * n * (n - 1.0)))
        if not var > 0:
            return empty
        z = (runs - mu) / np.sqrt(var)
        return pd.DataFrame({
            "series_key": df["series_key"].iloc[:1],
            "n_above": pd.Series([n1], dtype="int64"),
            "n_below": pd.Series([n2], dtype="int64"),
            "n_runs": pd.Series([runs], dtype="int64"),
            "z_stat": round_half_away(np.array([z]), 6),
        })

    return (
        samples_ds.map_batches(_project, batch_format="pyarrow",
                               zero_copy_batch=True)
        .groupby("series_key").map_groups(_runs, batch_format="pandas")
    )


def _q_runs(sf_dir: str):
    from .diffstats import _numeric_samples

    return runs_test(_numeric_samples(sf_dir))


def _runs_sql() -> str:
    from ._events_sql import EVENTS_NUMERIC_SQL

    return f"""
    WITH v AS (
        SELECT series_key, ts_ns, doc_id, ordinal, value_num AS x
        FROM ({EVENTS_NUMERIC_SQL})
    ),
    med AS (
        SELECT series_key, quantile_cont(x, 0.5) AS m
        FROM v GROUP BY 1
    ),
    s AS (
        SELECT v.series_key, ts_ns, doc_id, ordinal,
               CASE WHEN x > m THEN 1 ELSE -1 END AS sgn
        FROM v JOIN med USING (series_key)
        WHERE x <> m
    ),
    r AS (
        SELECT series_key, sgn,
               lag(sgn) OVER (PARTITION BY series_key
                              ORDER BY ts_ns, doc_id, ordinal) AS prev
        FROM s
    ),
    agg AS (
        SELECT series_key,
               sum(CASE WHEN sgn = 1 THEN 1 ELSE 0 END) AS n1,
               sum(CASE WHEN sgn = -1 THEN 1 ELSE 0 END) AS n2,
               1 + sum(CASE WHEN prev IS NOT NULL AND sgn <> prev
                            THEN 1 ELSE 0 END) AS runs
        FROM r GROUP BY 1
    )
    SELECT series_key,
           CAST(n1 AS BIGINT) AS n_above,
           CAST(n2 AS BIGINT) AS n_below,
           CAST(runs AS BIGINT) AS n_runs,
           round((runs - (2.0 * n1 * n2 / (n1 + n2) + 1))
                 / sqrt(2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)
                        / ((n1 + n2) * (n1 + n2) * (n1 + n2 - 1.0))), 6)
               AS z_stat
    FROM agg
    WHERE n1 >= 1 AND n2 >= 1
      AND 2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2) > 0
    """


register("events_runs_test", _q_runs, _runs_sql())


def longest_streak(samples_ds):
    """Per series: the longest run of consecutive above-median values in
    time order (the monitoring "how long did it stay hot" number) plus
    the median used.  Same total order, median, and scale shape as
    ``runs_test``; the streak length is an exact int (gaps-and-islands
    in the oracle)."""
    from .psidrift import _weighted_quantiles

    def _project(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch.column("value_num").is_valid())
        return pa.table({
            "series_key": t.column("series_key"),
            "ts_ns": t.column("ts").cast(pa.timestamp("ns"))
            .cast(pa.int64()),
            "doc_id": t.column("doc_id"),
            "ordinal": t.column("sample_ordinal").cast(pa.int64()),
            "v": t.column("value_num"),
        })

    def _streak(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts_ns", "doc_id", "ordinal"],
                            ignore_index=True)
        v = df["v"].to_numpy(np.float64)
        uv, uc = np.unique(v, return_counts=True)
        med = _weighted_quantiles(uv, uc.astype(np.int64), [0.5])[0]
        above = v > med
        best = cur = 0
        for a in above:  # series-length loop, bounded by retention
            cur = cur + 1 if a else 0
            if cur > best:
                best = cur
        return pd.DataFrame({
            "series_key": df["series_key"].iloc[:1],
            "median_v": round_half_away(np.array([med]), 6),
            "longest_streak": pd.Series([best], dtype="int64"),
        })

    return (
        samples_ds.map_batches(_project, batch_format="pyarrow",
                               zero_copy_batch=True)
        .groupby("series_key").map_groups(_streak, batch_format="pandas")
    )


def _q_streak(sf_dir: str):
    from .diffstats import _numeric_samples

    return longest_streak(_numeric_samples(sf_dir))


def _streak_sql() -> str:
    from ._events_sql import EVENTS_NUMERIC_SQL

    return f"""
    WITH v AS (
        SELECT series_key, ts_ns, doc_id, ordinal, value_num AS x
        FROM ({EVENTS_NUMERIC_SQL})
    ),
    med AS (
        SELECT series_key, quantile_cont(x, 0.5) AS m
        FROM v GROUP BY 1
    ),
    s AS (
        SELECT v.series_key,
               CASE WHEN x > m THEN 1 ELSE 0 END AS ab,
               row_number() OVER (PARTITION BY v.series_key
                                  ORDER BY ts_ns, doc_id, ordinal) AS rn,
               m
        FROM v JOIN med USING (series_key)
    ),
    isl AS (
        -- gaps-and-islands: rn minus the running count of 'above' rows
        -- is constant within one above-streak
        SELECT series_key, ab, m,
               rn - sum(ab) OVER (PARTITION BY series_key ORDER BY rn
                                  ROWS UNBOUNDED PRECEDING) AS grp
        FROM s
    ),
    runs AS (
        SELECT series_key, m, count(*) AS len
        FROM isl WHERE ab = 1 GROUP BY series_key, m, grp
    )
    SELECT v.series_key,
           round(any_value(med.m), 6) AS median_v,
           CAST(COALESCE(max(runs.len), 0) AS BIGINT) AS longest_streak
    FROM (SELECT DISTINCT series_key FROM v) v
    JOIN med USING (series_key)
    LEFT JOIN runs USING (series_key)
    GROUP BY v.series_key
    """


register("events_longest_streak", _q_streak, _streak_sql())


# ---------------------------------------------------------------------------
# Exact two-sample Kolmogorov-Smirnov: weekend vs weekday hourly means
# ---------------------------------------------------------------------------

_HOUR_NS = 3_600_000_000_000


def ks_weekend(samples_ds, *, round_digits: int = 6, min_each: int = 5):
    """Per series: the EXACT two-sample KS statistic between the weekend
    and weekday HOURLY window means,
    D = max over v of |F_wk(v) - F_wd(v)| = d_num / (nA * nB) with the
    integer numerator d_num = max |cA(v) * nB - cB(v) * nA| over the
    distinct mean values — distribution-SHAPE sensitivity that
    complements ``events_weekend_mannwhitney`` (location shift) and
    ``events_weekend_welch_t`` (means under normality).

    Scale shape: ``window_means`` collapses raw samples to hourly
    means before its ONE series-sharded exchange; the per-series ECDF
    scan is a vectorized sort + searchsorted over the tier's bounded
    window count (hours, never raw samples).

    Hash parity: rounded hourly mean y; weekend flag is exact integer
    epoch arithmetic ((epoch_day + 4) % 7 in {0, 6}); cA/cB/d_num are
    exact integers on both engines (DuckDB cumulates with RANGE so tied
    means share one ECDF step, matching searchsorted side='right');
    final D divides exact ints in one IEEE op, then rounds."""

    def _fit(series, windows, y, starts):
        dow = ((windows // _DAY_NS) + 4) % 7
        wk = (dow == 0) | (dow == 6)
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            yv = y[lo:hi]
            wv = wk[lo:hi]
            na = int(wv.sum())
            nb = int(len(yv) - na)
            if na < min_each or nb < min_each:
                continue
            vals = np.unique(yv)
            ca = np.searchsorted(np.sort(yv[wv]), vals, side="right")
            cb = np.searchsorted(np.sort(yv[~wv]), vals, side="right")
            d_num = int(np.abs(ca * nb - cb * na).max())
            d = round_half_away(np.array([d_num / (na * nb)]),
                                round_digits)[0]
            rows.append((series[lo], na, nb, d_num, d))
        return rows

    return window_means(samples_ds, window_ns=_HOUR_NS, fit=_fit,
                        round_digits=round_digits, schema=pa.schema([
                            ("series_key", pa.string()),
                            ("n_weekend", pa.int64()),
                            ("n_weekday", pa.int64()),
                            ("d_num", pa.int64()), ("ks_d", pa.float64())]))


def _q_ks_weekend(sf_dir: str):
    from .diffstats import _numeric_samples

    return ks_weekend(_numeric_samples(sf_dir))


def _ks_sql() -> str:
    from ._events_sql import EVENTS_NUMERIC_SQL

    return f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_HOUR_NS} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    f AS (
        SELECT series_key, y,
               CASE WHEN ((window_ns // {_DAY_NS}) + 4) % 7 IN (0, 6)
                    THEN 1 ELSE 0 END AS wk
        FROM m
    ),
    nn AS (
        SELECT series_key,
               CAST(sum(wk) AS BIGINT) AS na,
               CAST(sum(1 - wk) AS BIGINT) AS nb
        FROM f GROUP BY series_key
        HAVING sum(wk) >= 5 AND sum(1 - wk) >= 5
    ),
    c AS (
        SELECT series_key, y,
               CAST(sum(wk) OVER w AS BIGINT) AS ca,
               CAST(sum(1 - wk) OVER w AS BIGINT) AS cb
        FROM f
        WINDOW w AS (PARTITION BY series_key ORDER BY y
                     RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    ),
    d AS (
        SELECT c.series_key, nn.na, nn.nb,
               CAST(max(abs(c.ca * nn.nb - c.cb * nn.na)) AS BIGINT)
                   AS d_num
        FROM c JOIN nn ON nn.series_key = c.series_key
        GROUP BY c.series_key, nn.na, nn.nb
    )
    SELECT series_key, na AS n_weekend, nb AS n_weekday, d_num,
           round(d_num / (na * nb), 6) AS ks_d
    FROM d
    """


register("events_ks_weekend", _q_ks_weekend, _ks_sql())
