"""Windowed second-moment rollups and rollup-ladder diffing.

Every operator here runs on the one shard exchange through the two
``_util`` helpers: ``sharded_aggregate`` (a per-block partial, the
exchange, one reduce per shard) for the operators that keep their own
moments, and ``window_means`` (the canonical rounded window-mean
combiner on ``sharded_aggregate``) for the per-series fits over window
means.  Partials are bounded by window count, never sample count.

``window_stddev``: per-(series, window) n/mean/stddev via per-block
moment partials (n, Σv, Σv²).  Oracle parity uses the repo's
rounded-moments rule: Σv and Σv² are rounded to 6 decimals on both
engines before the variance arithmetic, and the whole expression is the
same IEEE formula, so the result hashes exactly despite cross-engine
summation order.

``diff_rollups``: compare two rollup ladders (two corpus versions, two
pipeline runs) and emit the windows whose exact columns differ — the
verification/CDC complement of ``merge_tier_rollups``-style incremental
maintenance: after an incremental update, diffing against a batch
recompute must return ZERO rows.  Only exact columns (count) are
compared, so the diff itself needs no float tolerance.  Both sides are
projected to (key, window, count) BEFORE the one exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import (
    as_table,
    round_half_away,
    sharded_aggregate,
    window_means,
    window_rows,
    window_sums,
)
from .registry import register


def _schema(*fields) -> pa.Schema:
    """``series_key`` (string) then ``(name, type)`` fields."""
    return pa.schema([("series_key", pa.string()), *fields])


_I, _F = pa.int64(), pa.float64()


def window_stddev(samples_ds, *, window_ns: int, round_digits: int = 6):
    """Per-(series_key, window) n / mean / stddev (sample stddev, n>=2)."""
    moments = _schema(("window_ns", _I), ("n", _I), ("s", _F), ("ss", _F))

    def _partial(batch: pa.Table) -> pa.Table:
        df = window_rows(batch, window_ns)
        df["vv"] = df["v"] * df["v"]
        return as_table(window_sums(df, n=("v", "size"), s=("v", "sum"),
                                    ss=("vv", "sum")), moments)

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        g = window_sums(df, n=("n", "sum"), s=("s", "sum"),
                        ss=("ss", "sum"))
        g = g[g["n"] >= 2]
        n = g["n"].to_numpy().astype(np.float64)
        s6 = round_half_away(g["s"].to_numpy(), round_digits)
        ss6 = round_half_away(g["ss"].to_numpy(), round_digits)
        var = (ss6 - s6 * s6 / n) / (n - 1)
        return {
            "series_key": g["series_key"].to_numpy(),
            "window_ns": g["window_ns"].to_numpy(),
            "n": g["n"].to_numpy(),
            "mean": round_half_away(s6 / n, round_digits),
            "stddev": round_half_away(np.sqrt(np.maximum(var, 0.0)),
                                      round_digits),
        }

    return sharded_aggregate(samples_ds, _partial, _final, _schema(
        ("window_ns", _I), ("n", _I), ("mean", _F), ("stddev", _F)))


def window_trend(samples_ds, *, window_ns: int, round_digits: int = 6):
    """Per-(series, window) least-squares trend slope, exactly hashable.

    x is centered at the window middle and scaled to hours, so every
    moment (Σx, Σx², Σy, Σxy) stays small enough that rounding to 6
    decimals actually normalizes it (a 1e12-magnitude moment's ULP
    exceeds 1e-6 and round-6 would be the identity — the subtle way
    cross-engine moment oracles go wrong).  With identical rounded
    moments, the slope expression is the same IEEE arithmetic on both
    engines.  Same partial-combiner shape as :func:`window_stddev`."""
    moments = _schema(("window_ns", _I), ("n", _I), ("sx", _F),
                      ("sxx", _F), ("sy", _F), ("sxy", _F))

    def _partial(batch: pa.Table) -> pa.Table:
        df = window_rows(batch, window_ns)
        half_h = window_ns / 2e9 / 3600.0
        x = ((df["ts_ns"] - df["window_ns"]) / 1e9 / 3600.0) - half_h
        y = df["v"]
        df = df.assign(x=x, xx=x * x, xy=x * y)
        return as_table(window_sums(
            df, n=("x", "size"), sx=("x", "sum"), sxx=("xx", "sum"),
            sy=("v", "sum"), sxy=("xy", "sum")), moments)

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        g = window_sums(df, n=("n", "sum"), sx=("sx", "sum"),
                        sxx=("sxx", "sum"), sy=("sy", "sum"),
                        sxy=("sxy", "sum"))
        n = g["n"].to_numpy().astype(np.float64)
        sx = round_half_away(g["sx"].to_numpy(), round_digits)
        sxx = round_half_away(g["sxx"].to_numpy(), round_digits)
        sy = round_half_away(g["sy"].to_numpy(), round_digits)
        sxy = round_half_away(g["sxy"].to_numpy(), round_digits)
        denom = n * sxx - sx * sx
        keep = (g["n"].to_numpy() >= 2) & (denom > 0)
        g = g[keep]
        slope = (n * sxy - sx * sy)[keep] / denom[keep]
        return {
            "series_key": g["series_key"].to_numpy(),
            "window_ns": g["window_ns"].to_numpy(),
            "n": g["n"].to_numpy(),
            "slope": round_half_away(slope, round_digits),
        }

    return sharded_aggregate(samples_ds, _partial, _final, _schema(
        ("window_ns", _I), ("n", _I), ("slope", _F)))


def simple_window_rollup(samples_ds, *, window_ns: int, ts_col: str = "ts",
                         round_digits: int = 6):
    """Per-(series, window) n/min/max/sum/mean over bare numeric samples
    (no ``last`` — no doc lineage needed, so it runs on storage-readback
    streams that carry only (series_key, ts, value)).  Same partial-
    combiner shape as :func:`window_stddev`; sum/mean follow the repo's
    rounded-sum oracle rule."""
    moments = _schema(("window_ns", _I), ("n", _I), ("s", _F), ("mn", _F),
                      ("mx", _F))

    def _partial(batch: pa.Table) -> pa.Table:
        df = window_rows(batch, window_ns, ts_col).dropna(subset=["v"])
        return as_table(window_sums(
            df, n=("v", "size"), s=("v", "sum"), mn=("v", "min"),
            mx=("v", "max")), moments)

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        g = window_sums(df, n=("n", "sum"), s=("s", "sum"),
                        mn=("mn", "min"), mx=("mx", "max"))
        n = g["n"].to_numpy().astype(np.float64)
        s6 = round_half_away(g["s"].to_numpy(), round_digits)
        return {
            "series_key": g["series_key"].to_numpy(),
            "window_ns": g["window_ns"].to_numpy(),
            "n": g["n"].to_numpy(),
            "min": g["mn"].to_numpy(),
            "max": g["mx"].to_numpy(),
            "sum": s6,
            "mean": round_half_away(s6 / n, round_digits),
        }

    return sharded_aggregate(samples_ds, _partial, _final, _schema(
        ("window_ns", _I), ("n", _I), ("min", _F), ("max", _F),
        ("sum", _F), ("mean", _F)))


def diff_rollups(a_ds, b_ds, *, count_col: str = "count"):
    """Windows whose exact ``count`` differs between two rollup ladders
    (missing on one side counts as 0).  Output: (series_key, window_ns,
    count_a, count_b)."""
    counts = _schema(("window_ns", _I), ("cnt", _I), ("side", pa.int8()))

    def _side(side: int):
        def _fn(batch: pa.Table) -> pa.Table:
            return batch.append_column("side", pa.array(
                np.full(batch.num_rows, side, np.int8)))
        return _fn

    def _project(batch: pa.Table) -> pa.Table:
        return pa.table([batch.column(c).cast(f.type) for c, f in zip(
            ("series_key", "window_ns", count_col, "side"), counts)],
            schema=counts)

    def _diff(df: pd.DataFrame) -> pd.DataFrame:
        piv = df.pivot_table(
            index=["series_key", "window_ns"], columns="side", values="cnt",
            aggfunc="sum", fill_value=0,
        )
        for side in (0, 1):
            if side not in piv.columns:
                piv[side] = 0
        piv = piv.reset_index()
        out = piv[piv[0] != piv[1]]
        return {
            "series_key": out["series_key"].to_numpy(),
            "window_ns": out["window_ns"].to_numpy(),
            "count_a": out[0].to_numpy(),
            "count_b": out[1].to_numpy(),
        }

    sides = [ds.map_batches(_side(side), batch_format="pyarrow",
                            zero_copy_batch=True)
             for side, ds in enumerate((a_ds, b_ds))]
    return sharded_aggregate(sides[0].union(sides[1]), _project, _diff,
                             _schema(("window_ns", _I), ("count_a", _I),
                                     ("count_b", _I)))


# ---------------------------------------------------------------------------
# Driver queries + oracles
# ---------------------------------------------------------------------------

_H = 3_600_000_000_000


def _numeric_samples(sf_dir: str):
    from .timeseries import events_corpus_dataset, extract_pipeline

    return extract_pipeline(events_corpus_dataset(sf_dir))


def _q_window_stddev(sf_dir: str):
    return window_stddev(_numeric_samples(sf_dir), window_ns=_H)


def _q_rollup_diff(sf_dir: str):
    """Diff the even-doc half-ladder against the full ladder: every window
    containing odd-doc samples must surface with its exact count pair."""
    import pyarrow.compute as pc

    from .timeseries import events_corpus_dataset, extract_pipeline
    from ..stages.rollup import rollup_ladder

    def _half():
        corpus = events_corpus_dataset(sf_dir)

        def _f(batch: pa.Table) -> pa.Table:
            last = pc.utf8_slice_codeunits(batch.column("doc_id"),
                                           start=13, stop=14)
            return batch.filter(
                pc.is_in(last, value_set=pa.array(list("02468")))
            )

        return corpus.map_batches(_f, batch_format="pyarrow",
                                  zero_copy_batch=True)

    def _tier1m(corpus):
        ladder = rollup_ladder(extract_pipeline(corpus), tiers=("1m",))

        def _p(batch: pa.Table) -> pa.Table:
            t = batch.filter(
                pc.equal(batch.column("tier"), pa.scalar("1m"))
            )
            return pa.table({
                "series_key": t.column("series_key"),
                "window_ns": t.column("window_start")
                .cast(pa.timestamp("ns")).cast(pa.int64()),
                "count": t.column("count"),
            })

        return ladder.map_batches(_p, batch_format="pyarrow",
                                  zero_copy_batch=True)

    full = _tier1m(events_corpus_dataset(sf_dir))
    half = _tier1m(_half())
    return diff_rollups(full, half)


from ._events_sql import EVENTS_NUMERIC_SQL, events_samples_sql  # noqa: E402

register(
    "events_window_stddev_1h",
    _q_window_stddev,
    # rounded-moments rule: Σv / Σv² rounded to 6 on both engines, then
    # the identical IEEE variance expression (see window_stddev).
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               CAST(count(*) AS BIGINT) AS n,
               round(sum(value_num), 6) AS s6,
               round(sum(value_num * value_num), 6) AS ss6,
               round(round(sum(value_num), 6) / count(*), 6) AS mean
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    )
    SELECT series_key, window_ns, n, mean,
           round(sqrt(greatest((ss6 - s6 * s6 / n) / (n - 1), 0)), 6)
               AS stddev
    FROM m WHERE n >= 2
    """,
)

_D = 86_400_000_000_000


def _q_window_trend(sf_dir: str):
    return window_trend(_numeric_samples(sf_dir), window_ns=_D)


register(
    "events_daily_trend",
    _q_window_trend,
    # x centered at the day middle in HOURS keeps every rounded moment
    # small enough that round-6 truly normalizes cross-engine summation
    # noise (see window_trend); the slope expression is then identical
    # IEEE arithmetic on identical inputs.
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_D} AS window_ns,
               CAST(count(*) AS BIGINT) AS n,
               round(sum(((ts_ns - (ts_ns - ts_ns % {_D}))
                          / 1000000000.0 / 3600.0) - 12.0), 6) AS sx,
               round(sum((((ts_ns - (ts_ns - ts_ns % {_D}))
                           / 1000000000.0 / 3600.0) - 12.0)
                         * (((ts_ns - (ts_ns - ts_ns % {_D}))
                             / 1000000000.0 / 3600.0) - 12.0)), 6) AS sxx,
               round(sum(value_num), 6) AS sy,
               round(sum((((ts_ns - (ts_ns - ts_ns % {_D}))
                           / 1000000000.0 / 3600.0) - 12.0) * value_num), 6)
                   AS sxy
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    )
    SELECT series_key, window_ns, n,
           round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope
    FROM m WHERE n >= 2 AND n * sxx - sx * sx > 0
    """,
)

def _q_gorilla_rollup_roundtrip(sf_dir: str):
    """Storage-integrity composition: extract -> Gorilla chunk files on
    disk -> chunk SOURCE decodes them back -> 1m rollup of the DECODED
    stream.  The codec is bit-exact, so the readback rollup must
    hash-match the rollup SQL over the raw samples — aggregation on top
    of the storage engine loses nothing."""
    from ..sources.gorilla_chunks import read_gorilla_chunks
    from ..state.gorilla import compress_series_dataset
    from ._util import scratch_dir
    from .timeseries import events_corpus_dataset, extract_pipeline

    chunks = compress_series_dataset(
        extract_pipeline(events_corpus_dataset(sf_dir))
    )
    out = scratch_dir(f"gorilla_rr_{sf_dir}")
    chunks.write_parquet(out)
    samples = read_gorilla_chunks(out)  # (series_key, ts_ns, value_num)
    return simple_window_rollup(samples, window_ns=60_000_000_000,
                                ts_col="ts_ns")


register(
    "events_gorilla_rollup_roundtrip",
    _q_gorilla_rollup_roundtrip,
    f"""
    SELECT series_key,
           ts_ns - ts_ns % 60000000000 AS window_ns,
           CAST(count(*) AS BIGINT) AS n,
           min(value_num) AS min, max(value_num) AS max,
           round(sum(value_num), 6) AS sum,
           round(round(sum(value_num), 6) / count(*), 6) AS mean
    FROM ({EVENTS_NUMERIC_SQL})
    GROUP BY series_key, window_ns
    """,
)

register(
    "events_rollup_1m_diff",
    _q_rollup_diff,
    # full-vs-even-half ladder diff: exactly the windows holding odd-doc
    # numeric samples, with both exact counts.
    f"""
    WITH counts AS (
        SELECT series_key,
               ts_ns - ts_ns % 60000000000 AS window_ns,
               CAST(count(*) AS BIGINT) AS count_a,
               CAST(count(*) FILTER (
                   WHERE CAST(substr(doc_id, 14, 1) AS INTEGER) % 2 = 0
               ) AS BIGINT) AS count_b
        FROM ({events_samples_sql()})
        WHERE value_num IS NOT NULL
        GROUP BY series_key, window_ns
    )
    SELECT series_key, window_ns, count_a, count_b
    FROM counts WHERE count_a <> count_b
    """,
)


# ---------------------------------------------------------------------------
# Holt double exponential smoothing (level + trend) over window means
# ---------------------------------------------------------------------------

HOLT_ALPHA = 0.5   # exact binary fractions: the recursion is then the
HOLT_BETA = 0.25   # SAME IEEE op sequence in numpy and in the SQL CTE


def holt_smooth(samples_ds, *, window_ns: int, alpha: float = HOLT_ALPHA,
                beta: float = HOLT_BETA, round_digits: int = 6):
    """Per-series Holt linear smoothing over window means: level
    ``l_t = a*y_t + (1-a)*(l_{t-1} + b_{t-1})``, trend
    ``b_t = B*(l_t - l_{t-1}) + (1-B)*b_{t-1}`` (init ``l_1 = y_1``,
    ``b_1 = 0``), plus the one-step-ahead forecast ``l_t + b_t`` — the
    classic short-horizon forecaster for dashboard-style series.

    Scale shape: window means come from ``window_means``, whose ONE
    exchange shards by SERIES (not window): the recursion is sequential
    per series, so a shard task must see all of a series' windows in
    order — per-series state is the operator's inherent frontier,
    bounded by retention/window (e.g. one year of 1h windows = 8,760
    rows per series), never by sample count.  The per-series time loop
    is O(windows) Python, amortized over the vectorized window
    aggregation that reduced samples to windows.

    Hash parity: y is the repo's canonical rounded mean
    (``round(round(sum,6)/n,6)``); alpha/beta default to exact binary
    fractions so both engines execute the identical IEEE float64
    sequence — the recursion needs NO intermediate rounding to hash
    exactly (pinned by the oracle at two scales).
    """

    def _smooth(series, windows, y, starts):
        out_l = np.empty(len(y))
        out_b = np.empty(len(y))
        for lo, hi in zip(starts[:-1], starts[1:]):
            l = y[lo]
            b = 0.0
            out_l[lo], out_b[lo] = l, b
            for i in range(lo + 1, hi):
                l_new = alpha * y[i] + (1 - alpha) * (l + b)
                b = beta * (l_new - l) + (1 - beta) * b
                l = l_new
                out_l[i], out_b[i] = l, b
        return {
            "series_key": series,
            "window_ns": windows,
            "y": y,
            "level": round_half_away(out_l, round_digits),
            "trend": round_half_away(out_b, round_digits),
            "forecast_next": round_half_away(out_l + out_b, round_digits),
        }

    return window_means(samples_ds, window_ns=window_ns, fit=_smooth,
                        round_digits=round_digits, schema=_schema(
                            ("window_ns", _I), ("y", _F), ("level", _F),
                            ("trend", _F), ("forecast_next", _F)))


def _q_holt(sf_dir: str):
    return holt_smooth(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_holt_1h",
    _q_holt,
    f"""
    WITH RECURSIVE m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    r AS (
        SELECT *, row_number() OVER (
            PARTITION BY series_key ORDER BY window_ns) AS rn
        FROM m
    ),
    h(series_key, rn, window_ns, y, l, b) AS (
        SELECT series_key, rn, window_ns, y, y, CAST(0.0 AS DOUBLE)
        FROM r WHERE rn = 1
        UNION ALL
        SELECT r.series_key, r.rn, r.window_ns, r.y,
               0.5 * r.y + 0.5 * (h.l + h.b),
               0.25 * ((0.5 * r.y + 0.5 * (h.l + h.b)) - h.l) + 0.75 * h.b
        FROM h JOIN r
          ON r.series_key = h.series_key AND r.rn = h.rn + 1
    )
    SELECT series_key, window_ns, y,
           round(l, 6) AS level,
           round(b, 6) AS trend,
           round(l + b, 6) AS forecast_next
    FROM h
    """,
)


# ---------------------------------------------------------------------------
# Welch's t: weekend vs weekday values per series
# ---------------------------------------------------------------------------

def welch_weekend_effect(samples_ds, *, round_digits: int = 6):
    """Per series: Welch's t-statistic comparing weekend vs weekday
    sample values (unequal-variance two-sample t) plus both group means
    — the seasonality-effect screen that complements the chi-square
    independence cells with an effect-size view.

    Scale shape: the usual rounded-moments discipline — per-block
    (series, is_weekend) partials carry (n, sum, sum-of-squares), one
    series-sharded exchange (``sharded_aggregate``) holds each series'
    TWO moment rows and evaluates the identical IEEE expression both
    engines round the same way.  Day-of-week matches DuckDB
    ``dayofweek`` (0 = Sunday, 6 = Saturday).
    """
    day_ns = 86_400_000_000_000
    moments = _schema(("wk", pa.int8()), ("n", _I), ("s", _F), ("ss", _F))

    def _partial(batch: pa.Table) -> pa.Table:
        df = window_rows(batch, day_ns)
        dow = ((df["ts_ns"] // day_ns) + 4) % 7
        df = df.assign(wk=((dow == 0) | (dow == 6)).astype(np.int8),
                       vv=df["v"] * df["v"])
        return as_table(df.groupby(["series_key", "wk"], sort=False).agg(
            n=("v", "size"), s=("v", "sum"), ss=("vv", "sum")
        ).reset_index(), moments)

    def _welch(df: pd.DataFrame) -> list:
        g = df.groupby(["series_key", "wk"], sort=True).agg(
            n=("n", "sum"), s=("s", "sum"), ss=("ss", "sum")
        ).reset_index()
        wide = g.pivot(index="series_key", columns="wk",
                       values=["n", "s", "ss"])
        out_rows = []
        for key, row in wide.iterrows():
            n0, n1 = row.get(("n", 0), np.nan), row.get(("n", 1), np.nan)
            if not (n0 >= 2 and n1 >= 2):
                continue
            s0 = round_half_away(np.array([row[("s", 0)]]), round_digits)[0]
            s1 = round_half_away(np.array([row[("s", 1)]]), round_digits)[0]
            ss0 = round_half_away(np.array([row[("ss", 0)]]),
                                  round_digits)[0]
            ss1 = round_half_away(np.array([row[("ss", 1)]]),
                                  round_digits)[0]
            m0, m1 = s0 / n0, s1 / n1
            var0 = (ss0 - s0 * s0 / n0) / (n0 - 1)
            var1 = (ss1 - s1 * s1 / n1) / (n1 - 1)
            se2 = var0 / n0 + var1 / n1
            if se2 <= 0:
                continue
            t_stat = (m1 - m0) / np.sqrt(se2)
            out_rows.append((
                key, int(n0), int(n1),
                round_half_away(np.array([m0]), round_digits)[0],
                round_half_away(np.array([m1]), round_digits)[0],
                round_half_away(np.array([t_stat]), round_digits)[0],
            ))
        return out_rows

    return sharded_aggregate(samples_ds, _partial, _welch, _schema(
        ("n_weekday", _I), ("n_weekend", _I), ("mean_weekday", _F),
        ("mean_weekend", _F), ("t_stat", _F)))


def _q_welch(sf_dir: str):
    return welch_weekend_effect(_numeric_samples(sf_dir))


register(
    "events_weekend_welch_t",
    _q_welch,
    f"""
    WITH m AS (
        SELECT series_key,
               CASE WHEN dayofweek(to_timestamp(ts_ns / 1000000000))
                         IN (0, 6) THEN 1 ELSE 0 END AS wk,
               CAST(count(*) AS BIGINT) AS n,
               round(sum(value_num), 6) AS s6,
               round(sum(value_num * value_num), 6) AS ss6
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY 1, 2
    ),
    w AS (
        SELECT a.series_key,
               a.n AS n0, b.n AS n1, a.s6 AS s0, b.s6 AS s1,
               a.ss6 AS ss0, b.ss6 AS ss1
        FROM m a JOIN m b
          ON a.series_key = b.series_key AND a.wk = 0 AND b.wk = 1
        WHERE a.n >= 2 AND b.n >= 2
    )
    SELECT series_key, n0 AS n_weekday, n1 AS n_weekend,
           round(s0 / n0, 6) AS mean_weekday,
           round(s1 / n1, 6) AS mean_weekend,
           round((s1 / n1 - s0 / n0)
                 / sqrt((ss0 - s0 * s0 / n0) / (n0 - 1) / n0
                        + (ss1 - s1 * s1 / n1) / (n1 - 1) / n1), 6)
               AS t_stat
    FROM w
    WHERE (ss0 - s0 * s0 / n0) / (n0 - 1) / n0
          + (ss1 - s1 * s1 / n1) / (n1 - 1) / n1 > 0
    """,
)


# ---------------------------------------------------------------------------
# Kalman local-level filter over window means (state-space smoothing)
# ---------------------------------------------------------------------------

KALMAN_Q = 0.25  # process variance — exact binary fraction: the recursion
KALMAN_R = 1.0   # obs variance      is the SAME IEEE op sequence in both
#                  engines (the Holt trick), so NO intermediate rounding.


def kalman_level(samples_ds, *, window_ns: int, q: float = KALMAN_Q,
                 r: float = KALMAN_R, round_digits: int = 6):
    """Per-series local-level Kalman filter over window means: the
    state-space counterpart of ``holt_smooth`` (level-only model
    ``x_t = x_{t-1} + w``, ``y_t = x_t + v`` with Var(w)=q, Var(v)=r).
    Per step: ``P' = P + q``; gain ``K = P'/(P'+r)``;
    ``x = x + K*(y - x)``; ``P = (1-K)*P'``; init ``x_1 = y_1``,
    ``P_1 = r``.  Unlike a fixed-alpha EWMA, the gain adapts over the
    burn-in (starts at ~0.55, converges to the steady-state Riccati
    value), giving principled early-window smoothing.

    Scale shape: identical to ``holt_smooth`` — ``window_means``' ONE
    series-sharded exchange, O(windows) sequential recursion per series
    inside the shard task (per-series state is the operator's inherent
    frontier, bounded by retention not samples).

    Hash parity: y is the canonical rounded mean; q/r are exact binary
    fractions and — key property of the LOCAL-LEVEL model — P and K
    never depend on the data, only on the step index, so both engines
    walk the identical deterministic gain sequence and the recursion
    hashes exactly with no intermediate rounding (pinned by the oracle's
    recursive CTE carrying (x, P) through the same IEEE expressions).
    """

    def _filter(series, windows, y, starts):
        out_x = np.empty(len(y))
        out_k = np.empty(len(y))
        for lo, hi in zip(starts[:-1], starts[1:]):
            x = y[lo]
            p = r
            out_x[lo], out_k[lo] = x, 0.0
            for i in range(lo + 1, hi):
                p_pred = p + q
                gain = p_pred / (p_pred + r)
                x = x + gain * (y[i] - x)
                p = (1.0 - gain) * p_pred
                out_x[i], out_k[i] = x, gain
        return {
            "series_key": series,
            "window_ns": windows,
            "y": y,
            "level": round_half_away(out_x, round_digits),
            "gain": round_half_away(out_k, round_digits),
        }

    return window_means(samples_ds, window_ns=window_ns, fit=_filter,
                        round_digits=round_digits, schema=_schema(
                            ("window_ns", _I), ("y", _F), ("level", _F),
                            ("gain", _F)))


def _q_kalman(sf_dir: str):
    return kalman_level(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_kalman_1h",
    _q_kalman,
    # recursive CTE carries (x, P): q=0.25 / r=1.0 are exact binary, the
    # gain sequence is data-independent, and every expression mirrors the
    # engine's IEEE op order — so the un-rounded recursion hashes exactly.
    f"""
    WITH RECURSIVE m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    rr AS (
        SELECT *, row_number() OVER (
            PARTITION BY series_key ORDER BY window_ns) AS rn
        FROM m
    ),
    h(series_key, rn, window_ns, y, x, p, k) AS (
        SELECT series_key, rn, window_ns, y, y,
               CAST(1.0 AS DOUBLE), CAST(0.0 AS DOUBLE)
        FROM rr WHERE rn = 1
        UNION ALL
        SELECT rr.series_key, rr.rn, rr.window_ns, rr.y,
               h.x + ((h.p + 0.25) / ((h.p + 0.25) + 1.0))
                     * (rr.y - h.x),
               (1.0 - (h.p + 0.25) / ((h.p + 0.25) + 1.0))
                   * (h.p + 0.25),
               (h.p + 0.25) / ((h.p + 0.25) + 1.0)
        FROM h JOIN rr
          ON rr.series_key = h.series_key AND rr.rn = h.rn + 1
    )
    SELECT series_key, window_ns, y,
           round(x, 6) AS level,
           round(k, 6) AS gain
    FROM h
    """,
)


# ---------------------------------------------------------------------------
# Theil-Sen robust trend per series (median of pairwise slopes)
# ---------------------------------------------------------------------------

THEIL_SEN_MAX_WINDOWS = 4_000


def theil_sen_trend(samples_ds, *, window_ns: int, round_digits: int = 6,
                    max_windows: int = THEIL_SEN_MAX_WINDOWS):
    """Per-series Theil-Sen estimator: the MEDIAN of all pairwise slopes
    over the series' window means, plus the matching median intercept
    (at the series' first window) — the robust alternative to
    ``window_trend``'s least squares (breakdown point 29% vs 0%).

    Scale shape: the hourly-mean rollup is the scale REDUCER — pairwise
    work grows with the square of the WINDOW count (bounded by
    retention/window, e.g. one year of 1h windows = 8,760), never with
    raw sample count.  ``window_means`` feeds ONE series-sharded
    exchange; each shard task vectorizes its pair slopes with numpy
    ``triu_indices``.  A series whose window count exceeds
    ``max_windows`` (default 4,000 -> 8M pairs, ~130 MB of task scratch)
    fails LOUDLY naming the fix (coarser window / shorter retention)
    rather than silently OOMing a worker.

    Hash parity: x is the window's exact hour offset from the series'
    first window (exact float64 integers), y the canonical rounded mean;
    the slope set is then identical IEEE division in both engines, and
    numpy's interpolating median equals DuckDB ``median`` on identical
    inputs.  The intercept derives from the ALREADY-ROUNDED slope so
    both engines subtract identical products.
    """
    hour_ns = 3_600_000_000_000.0

    def _trend(series, w, y_all, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            n = hi - lo
            if n < 2:
                continue
            if n > max_windows:
                raise ValueError(
                    f"series {series[lo]!r} has {n} windows "
                    f"(> max_windows={max_windows}); pairwise Theil-Sen "
                    "no longer applies — use a coarser window_ns or "
                    "shorter retention, or raise the bound knowingly")
            x = (w[lo:hi] - w[lo]) / hour_ns  # exact small integers
            y = y_all[lo:hi]
            i, j = np.triu_indices(n, k=1)
            slopes = (y[j] - y[i]) / (x[j] - x[i])
            slope6 = round_half_away(np.float64(np.median(slopes)),
                                     round_digits)
            icept = np.median(y - slope6 * x)
            rows.append((series[lo], n, slope6, round_half_away(
                np.float64(icept), round_digits)))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_trend,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("theil_sen_slope", _F),
                            ("intercept_at_start", _F)))


def _q_theil_sen(sf_dir: str):
    return theil_sen_trend(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_theil_sen_1h",
    _q_theil_sen,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    x AS (
        SELECT series_key, y,
               (window_ns - min(window_ns) OVER (PARTITION BY series_key))
                   / 3600000000000.0 AS xh
        FROM m
    ),
    sl AS (
        SELECT a.series_key,
               round(median((b.y - a.y) / (b.xh - a.xh)), 6) AS slope,
               CAST(count(DISTINCT a.xh) + 1 AS BIGINT) AS n_windows
        FROM x a JOIN x b
          ON a.series_key = b.series_key AND b.xh > a.xh
        GROUP BY a.series_key
    )
    SELECT x.series_key,
           sl.n_windows AS n_windows,
           sl.slope AS theil_sen_slope,
           round(median(x.y - sl.slope * x.xh), 6) AS intercept_at_start
    FROM x JOIN sl ON x.series_key = sl.series_key
    GROUP BY x.series_key, sl.n_windows, sl.slope
    """,
)


# ---------------------------------------------------------------------------
# MASE: seasonal-naive forecast error per series (Hyndman & Koehler 2006)
# ---------------------------------------------------------------------------

_DAY_NS = 86_400_000_000_000


def mase_seasonal(samples_ds, *, window_ns: int = _H,
                  season_ns: int = _DAY_NS, round_digits: int = 6):
    """Per-series forecastability screen: the MAE of the seasonal-naive
    forecast (``y_t = y(t - season)``) scaled by the MAE of the one-step
    naive forecast (``y_t = y(t - window)``) over hourly window means —
    MASE < 1 means "yesterday's value at this hour" beats "the last
    hour's value", i.e. the series has exploitable daily seasonality.

    Lags are WALL-TIME lags (a window pairs with the window exactly one
    season/step earlier, if present), so gaps drop pairs on both engines
    identically instead of silently mis-aligning ordinal positions.

    Scale shape: ``window_means``' ONE series-sharded exchange;
    per-series matching is two vectorized ``searchsorted`` probes over
    the (bounded) window grid.  Hash parity: canonical round-6 means,
    round-6 summed absolute errors, ratio of the two ROUNDED MAEs.
    """

    def _lag_mae(w: np.ndarray, y: np.ndarray, lag_ns: int):
        """(n_pairs, round-6 summed |err|) for the wall-time lag."""
        target = w - lag_ns
        idx = np.searchsorted(w, target)
        idx_c = np.clip(idx, 0, len(w) - 1)
        ok = w[idx_c] == target
        if not ok.any():
            return 0, 0.0
        d = np.abs(y[ok] - y[idx_c[ok]])
        return int(ok.sum()), float(round_half_away(
            np.float64(d.sum()), round_digits))

    def _mase(series, w_all, y_all, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w, y = w_all[lo:hi], y_all[lo:hi]
            n1, s1 = _lag_mae(w, y, window_ns)
            ns_, ss = _lag_mae(w, y, season_ns)
            if n1 == 0 or ns_ == 0:
                continue
            mae1 = round_half_away(np.float64(s1 / n1), round_digits)
            maes = round_half_away(np.float64(ss / ns_), round_digits)
            if mae1 == 0.0:
                continue
            rows.append((series[lo], n1, ns_, mae1, maes, round_half_away(
                np.float64(maes / mae1), round_digits)))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_mase,
                        round_digits=round_digits, schema=_schema(
                            ("n_naive", _I), ("n_snaive", _I),
                            ("mae_naive", _F), ("mae_snaive", _F),
                            ("mase", _F)))


def _q_mase(sf_dir: str):
    return mase_seasonal(_numeric_samples(sf_dir))


register(
    "events_mase_daily",
    _q_mase,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    lag1 AS (
        SELECT a.series_key,
               CAST(count(*) AS BIGINT) AS n_naive,
               round(round(sum(abs(a.y - b.y)), 6) / count(*), 6)
                   AS mae_naive
        FROM m a JOIN m b
          ON b.series_key = a.series_key
         AND b.window_ns = a.window_ns - {_H}
        GROUP BY a.series_key
    ),
    lags AS (
        SELECT a.series_key,
               CAST(count(*) AS BIGINT) AS n_snaive,
               round(round(sum(abs(a.y - b.y)), 6) / count(*), 6)
                   AS mae_snaive
        FROM m a JOIN m b
          ON b.series_key = a.series_key
         AND b.window_ns = a.window_ns - {_DAY_NS}
        GROUP BY a.series_key
    )
    SELECT lag1.series_key, lag1.n_naive, lags.n_snaive,
           lag1.mae_naive, lags.mae_snaive,
           round(lags.mae_snaive / lag1.mae_naive, 6) AS mase
    FROM lag1 JOIN lags ON lag1.series_key = lags.series_key
    WHERE lag1.mae_naive <> 0
    """,
)


# ---------------------------------------------------------------------------
# Holt-Winters additive (level + trend + seasonality) over window means
# ---------------------------------------------------------------------------

HW_ALPHA = 0.5    # exact binary fractions, same rationale as HOLT_ALPHA:
HW_BETA = 0.25    # the recursion is then the identical IEEE op sequence
HW_GAMMA = 0.25   # in the numpy loop and in the SQL recursive CTE
HW_PERIOD = 24    # 1h windows -> daily seasonality


def holt_winters_smooth(samples_ds, *, window_ns: int,
                        period: int = HW_PERIOD, alpha: float = HW_ALPHA,
                        beta: float = HW_BETA, gamma: float = HW_GAMMA,
                        round_digits: int = 6):
    """Per-series additive Holt-Winters over window means — the seasonal
    extension of ``holt_smooth``:

        l_t = a*(y_t - s_{t-m}) + (1-a)*(l_{t-1} + b_{t-1})
        b_t = B*(l_t - l_{t-1}) + (1-B)*b_{t-1}
        s_t = G*(y_t - l_t) + (1-G)*s_{t-m}

    Zero-seasonal init (l_1 = y_1, b_1 = 0, s_<=0 = 0): deterministic,
    convention-free, and mirrored bit-for-bit by the oracle's recursive
    CTE, which carries the rolling m-slot seasonal state as a LIST
    column (``seasons[2:] || [s_new]``) — the same exact-binary-
    coefficient discipline that lets ``events_holt_1h`` hash with no
    intermediate rounding.

    Scale shape: identical to ``holt_smooth`` — ``window_means``' ONE
    series-sharded exchange, sequential O(windows) recursion per series
    in the shard task, bounded by retention, never by samples.
    ``forecast_next`` is the one-step-ahead ``l_t + b_t + s_{t+1-m}``.
    """

    def _smooth(series, windows, y, starts):
        out_l = np.empty(len(y))
        out_b = np.empty(len(y))
        out_s = np.empty(len(y))
        out_f = np.empty(len(y))
        for lo, hi in zip(starts[:-1], starts[1:]):
            l = y[lo]
            b = 0.0
            seasons = [0.0] * period  # seasons[0] == s_{t-m}
            out_l[lo], out_b[lo], out_s[lo] = l, b, 0.0
            out_f[lo] = l + b + seasons[1 % period]
            for i in range(lo + 1, hi):
                s_old = seasons[0]
                l_new = alpha * (y[i] - s_old) + (1 - alpha) * (l + b)
                b = beta * (l_new - l) + (1 - beta) * b
                s_new = gamma * (y[i] - l_new) + (1 - gamma) * s_old
                l = l_new
                seasons = seasons[1:] + [s_new]
                out_l[i], out_b[i], out_s[i] = l, b, s_new
                out_f[i] = l + b + seasons[0]
        return {
            "series_key": series,
            "window_ns": windows,
            "y": y,
            "level": round_half_away(out_l, round_digits),
            "trend": round_half_away(out_b, round_digits),
            "seasonal": round_half_away(out_s, round_digits),
            "forecast_next": round_half_away(out_f, round_digits),
        }

    return window_means(samples_ds, window_ns=window_ns, fit=_smooth,
                        round_digits=round_digits, schema=_schema(
                            ("window_ns", _I), ("y", _F), ("level", _F),
                            ("trend", _F), ("seasonal", _F),
                            ("forecast_next", _F)))


def _q_holt_winters(sf_dir: str):
    return holt_winters_smooth(_numeric_samples(sf_dir), window_ns=_H)


def _hw_sql() -> str:
    m = HW_PERIOD
    # the l_new expression, inlined everywhere the recursion needs it
    # (deterministic IEEE: recomputation is bit-identical)
    lnew = "(0.5 * (r.y - h.seasons[1]) + 0.5 * (h.l + h.b))"
    snew = f"(0.25 * (r.y - {lnew}) + 0.75 * h.seasons[1])"
    zeros = "[" + ", ".join(["CAST(0.0 AS DOUBLE)"] * m) + "]"
    return f"""
    WITH RECURSIVE m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    r AS (
        SELECT *, row_number() OVER (
            PARTITION BY series_key ORDER BY window_ns) AS rn
        FROM m
    ),
    h(series_key, rn, window_ns, y, l, b, s, seasons) AS (
        SELECT series_key, rn, window_ns, y, y, CAST(0.0 AS DOUBLE),
               CAST(0.0 AS DOUBLE), {zeros}
        FROM r WHERE rn = 1
        UNION ALL
        SELECT r.series_key, r.rn, r.window_ns, r.y,
               {lnew},
               0.25 * ({lnew} - h.l) + 0.75 * h.b,
               {snew},
               h.seasons[2:] || [{snew}]
        FROM h JOIN r
          ON r.series_key = h.series_key AND r.rn = h.rn + 1
    )
    SELECT series_key, window_ns, y,
           round(l, 6) AS level,
           round(b, 6) AS trend,
           round(s, 6) AS seasonal,
           round(l + b + seasons[1], 6) AS forecast_next
    FROM h
    """


register("events_holt_winters_1h", _q_holt_winters, _hw_sql())


# ---------------------------------------------------------------------------
# AR(2) Yule-Walker fit per series
# ---------------------------------------------------------------------------

def ar2_yule_walker(samples_ds, *, window_ns: int, round_digits: int = 6,
                    min_windows: int = 5):
    """Per-series AR(2) coefficients via Yule-Walker over the tier's
    window means: demeaned autocovariances c0/c1/c2, autocorrelations
    r1/r2, then ``phi1 = r1*(1-r2)/(1-r1^2)``,
    ``phi2 = (r2-r1^2)/(1-r1^2)`` — the persistence/oscillation
    decomposition behind the ACF diagnostic (``acf_tier`` reports the
    correlations; this solves the model they imply).

    Scale shape: identical to ``holt_smooth`` — ``window_means``' ONE
    series-sharded exchange, O(windows) vectorized math per series
    (bounded by retention, never sample count).

    Hash parity: the round-before-derive ladder — canonical rounded
    mean y, round-6 series mean mu, round-6 covariance sums, round-6
    r1/r2, THEN the phi expressions on those rounded doubles; the
    ``1 - r1^2 <> 0`` degenerate filter evaluates on identical values
    on both engines.  Series with fewer than ``min_windows`` windows or
    zero variance are dropped (both sides)."""

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            mu = round_half_away(
                round_half_away(w.sum(), round_digits) / n, round_digits)
            d = w - mu
            c0 = round_half_away((d * d).sum(), round_digits)
            if c0 <= 0:
                continue
            c1 = round_half_away((d[:-1] * d[1:]).sum(), round_digits)
            c2 = round_half_away((d[:-2] * d[2:]).sum(), round_digits)
            r1 = round_half_away(np.array([c1 / c0]), round_digits)[0]
            r2 = round_half_away(np.array([c2 / c0]), round_digits)[0]
            denom = 1.0 - r1 * r1
            if denom == 0.0:
                continue
            phi1 = round_half_away(
                np.array([r1 * (1.0 - r2) / denom]), round_digits)[0]
            phi2 = round_half_away(
                np.array([(r2 - r1 * r1) / denom]), round_digits)[0]
            rows.append((series[lo], n, r1, r2, phi1, phi2))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("r1", _F), ("r2", _F),
                            ("phi1", _F), ("phi2", _F)))


def _q_ar2(sf_dir: str):
    return ar2_yule_walker(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_ar2_yule_walker",
    _q_ar2,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    mu AS (
        SELECT series_key, count(*) AS n,
               round(round(sum(y), 6) / count(*), 6) AS mu
        FROM m GROUP BY series_key
        HAVING count(*) >= 5
    ),
    d AS (
        SELECT m.series_key, m.window_ns, m.y - mu.mu AS d,
               lag(m.y - mu.mu, 1) OVER (
                   PARTITION BY m.series_key ORDER BY m.window_ns) AS d1,
               lag(m.y - mu.mu, 2) OVER (
                   PARTITION BY m.series_key ORDER BY m.window_ns) AS d2
        FROM m JOIN mu ON mu.series_key = m.series_key
    ),
    c AS (
        SELECT series_key,
               round(sum(d * d), 6) AS c0,
               round(sum(d * d1), 6) AS c1,
               round(sum(d * d2), 6) AS c2
        FROM d GROUP BY series_key
    ),
    r AS (
        SELECT c.series_key, mu.n,
               round(c1 / c0, 6) AS r1, round(c2 / c0, 6) AS r2
        FROM c JOIN mu ON mu.series_key = c.series_key
        WHERE c0 > 0
    )
    SELECT series_key, CAST(n AS BIGINT) AS n_windows, r1, r2,
           round(r1 * (1.0 - r2) / (1.0 - r1 * r1), 6) AS phi1,
           round((r2 - r1 * r1) / (1.0 - r1 * r1), 6) AS phi2
    FROM r
    WHERE (1.0 - r1 * r1) <> 0.0
    """,
)


# ---------------------------------------------------------------------------
# Partial autocorrelation (Durbin-Levinson, lags 1-3) per series
# ---------------------------------------------------------------------------

def pacf_tier(samples_ds, *, window_ns: int, round_digits: int = 6,
              min_windows: int = 5):
    """Per-series partial autocorrelations at lags 1-3 via the
    Durbin-Levinson recursion on the demeaned window-mean
    autocorrelations — the AR-order diagnostic that complements
    ``acf_tier`` (raw correlations) and ``ar2_yule_walker`` (the lag-2
    solve): pacf2 IS phi2, and pacf3 measures what a third lag adds.

    Scale shape: identical to ``ar2_yule_walker`` — ``window_means``'
    ONE series-sharded exchange, O(windows) math per series.

    Hash parity: round-before-derive at every recursion step — rounded
    r1/r2/r3, rounded pacf2, rounded phi21, THEN pacf3 from those
    rounded doubles; both degenerate denominators filter on identical
    values on the two engines."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            mu = _r6(round_half_away(w.sum(), round_digits) / n)
            d = w - mu
            c0 = round_half_away((d * d).sum(), round_digits)
            if c0 <= 0:
                continue
            r = [_r6(round_half_away((d[:-k] * d[k:]).sum(),
                                     round_digits) / c0)
                 for k in (1, 2, 3)]
            r1, r2, r3 = r
            den2 = 1.0 - r1 * r1
            if den2 == 0.0:
                continue
            pacf2 = _r6((r2 - r1 * r1) / den2)
            phi21 = _r6(r1 * (1.0 - pacf2))
            den3 = 1.0 - phi21 * r1 - pacf2 * r2
            if den3 == 0.0:
                continue
            pacf3 = _r6((r3 - phi21 * r2 - pacf2 * r1) / den3)
            rows.append((series[lo], n, r1, pacf2, pacf3))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("pacf1", _F),
                            ("pacf2", _F), ("pacf3", _F)))


def _q_pacf(sf_dir: str):
    return pacf_tier(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_pacf_1h",
    _q_pacf,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    mu AS (
        SELECT series_key, count(*) AS n,
               round(round(sum(y), 6) / count(*), 6) AS mu
        FROM m GROUP BY series_key
        HAVING count(*) >= 5
    ),
    d AS (
        SELECT m.series_key, m.y - mu.mu AS d,
               lag(m.y - mu.mu, 1) OVER (
                   PARTITION BY m.series_key ORDER BY m.window_ns) AS d1,
               lag(m.y - mu.mu, 2) OVER (
                   PARTITION BY m.series_key ORDER BY m.window_ns) AS d2,
               lag(m.y - mu.mu, 3) OVER (
                   PARTITION BY m.series_key ORDER BY m.window_ns) AS d3
        FROM m JOIN mu ON mu.series_key = m.series_key
    ),
    c AS (
        SELECT series_key,
               round(sum(d * d), 6) AS c0,
               round(sum(d * d1), 6) AS c1,
               round(sum(d * d2), 6) AS c2,
               round(sum(d * d3), 6) AS c3
        FROM d GROUP BY series_key
    ),
    r AS (
        SELECT c.series_key, mu.n,
               round(c1 / c0, 6) AS r1, round(c2 / c0, 6) AS r2,
               round(c3 / c0, 6) AS r3
        FROM c JOIN mu ON mu.series_key = c.series_key
        WHERE c0 > 0
    ),
    p2 AS (
        SELECT series_key, n, r1, r2, r3,
               round((r2 - r1 * r1) / (1.0 - r1 * r1), 6) AS pacf2
        FROM r WHERE (1.0 - r1 * r1) <> 0.0
    ),
    p21 AS (
        SELECT *, round(r1 * (1.0 - pacf2), 6) AS phi21 FROM p2
    )
    SELECT series_key, CAST(n AS BIGINT) AS n_windows, r1 AS pacf1,
           pacf2,
           round((r3 - phi21 * r2 - pacf2 * r1)
                 / (1.0 - phi21 * r1 - pacf2 * r2), 6) AS pacf3
    FROM p21
    WHERE (1.0 - phi21 * r1 - pacf2 * r2) <> 0.0
    """,
)


# ---------------------------------------------------------------------------
# Variance-ratio test statistic per series (random-walk diagnostic)
# ---------------------------------------------------------------------------

def variance_ratio(samples_ds, *, window_ns: int, q: int = 4,
                   round_digits: int = 6, min_windows: int = 8):
    """Per-series variance ratio VR(q) over the tier's window means
    (Lo-MacKinlay shape): population variance of q-step differences over
    q times the variance of 1-step differences.  VR ~= 1 for a random
    walk, < 1 for mean reversion, > 1 for trending/momentum — the
    companion diagnostic to ``ar2_yule_walker`` (which fits the model;
    this scores the martingale null).

    Scale shape: the AR-family shape — ``window_means``' ONE
    series-sharded exchange, O(windows) numpy per series.

    Hash parity: round-before-derive — rounded window mean y, rounded
    diff sums, rounded diff means, rounded centered sums of squares,
    rounded variances, THEN the ratio; the ``var1 > 0`` filter
    evaluates on identical values on both engines."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _pop_var(d: np.ndarray) -> float:
        n = len(d)
        m = _r6(round_half_away(d.sum(), round_digits) / n)
        ss = round_half_away(((d - m) * (d - m)).sum(), round_digits)
        return _r6(ss / n)

    def _vr(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < max(min_windows, q + 1):
                continue
            var1 = _pop_var(w[1:] - w[:-1])
            varq = _pop_var(w[q:] - w[:-q])
            if var1 <= 0:
                continue
            vr = _r6(varq / q / var1)
            rows.append((series[lo], n, var1, varq, vr))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_vr,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("var1", _F), ("varq", _F),
                            ("vr", _F)))


def _q_vr(sf_dir: str):
    return variance_ratio(_numeric_samples(sf_dir), window_ns=_H)


def _vr_diff_sql(k: int, name: str) -> str:
    return f"""
    {name}_d AS (
        SELECT series_key,
               y - lag(y, {k}) OVER (
                   PARTITION BY series_key ORDER BY window_ns) AS d
        FROM m
    ),
    {name}_m AS (
        SELECT series_key, count(d) AS n,
               round(round(sum(d), 6) / count(d), 6) AS dm
        FROM {name}_d WHERE d IS NOT NULL GROUP BY series_key
    ),
    {name}_v AS (
        SELECT a.series_key,
               round(round(sum((a.d - b.dm) * (a.d - b.dm)), 6)
                     / b.n, 6) AS v
        FROM {name}_d a JOIN {name}_m b ON b.series_key = a.series_key
        WHERE a.d IS NOT NULL
        GROUP BY a.series_key, b.n
    )"""


register(
    "events_variance_ratio",
    _q_vr,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    nw AS (
        SELECT series_key, count(*) AS n FROM m GROUP BY series_key
        HAVING count(*) >= 8
    ),
    {_vr_diff_sql(1, "one")},
    {_vr_diff_sql(4, "fourth")}
    SELECT nw.series_key, CAST(nw.n AS BIGINT) AS n_windows,
           one_v.v AS var1, fourth_v.v AS varq,
           round(fourth_v.v / 4 / one_v.v, 6) AS vr
    FROM nw
    JOIN one_v ON one_v.series_key = nw.series_key
    JOIN fourth_v ON fourth_v.series_key = nw.series_key
    WHERE one_v.v > 0
    """,
)


# ---------------------------------------------------------------------------
# Hurst exponent (rescaled-range analysis) per series
# ---------------------------------------------------------------------------

_HURST_SIZES = (8, 16, 32, 64)


def hurst_rs(samples_ds, *, window_ns: int, sizes=_HURST_SIZES,
             round_digits: int = 6):
    """Per-series Hurst exponent via classical R/S analysis over the
    tier's window means: for each block size b, split the mean sequence
    into full consecutive blocks, compute the rescaled range
    R/S = (max cumdev - min cumdev) / population std per block, average
    per size, then fit ``ln(avg R/S) ~ ln(b)`` — the slope is H
    (~0.5 random walk increments, > 0.5 persistent, < 0.5
    anti-persistent).  Complements ``events_variance_ratio`` (one q)
    with the multi-scale exponent.

    Scale shape: the AR-family shape — ``window_means``' ONE
    series-sharded exchange, O(windows x |sizes|) vectorized math per
    series.

    Hash parity: rounded window mean y, rounded block mean, rounded
    deviations (so both engines accumulate IDENTICAL doubles
    left-to-right in the <= 64-element cumulative sum), rounded
    R / S / per-block ratio / per-size average; the ln()-space OLS
    follows the ``zipf_slope`` precedent — raw ln on identical rounded
    inputs, final slope rounded."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            pts = []
            for b in sizes:
                nb = len(w) // b
                if nb == 0:
                    continue
                blocks = w[: nb * b].reshape(nb, b)
                rs_vals = []
                for blk in blocks:
                    m = _r6(round_half_away(blk.sum(), round_digits) / b)
                    d = round_half_away(blk - m, round_digits)
                    z = np.cumsum(d)
                    r_rng = _r6(z.max() - z.min())
                    ss = round_half_away((d * d).sum(), round_digits)
                    s_dev = _r6(np.sqrt(ss / b))
                    if s_dev > 0:
                        rs_vals.append(_r6(r_rng / s_dev))
                if rs_vals:
                    avg = _r6(
                        round_half_away(np.array(rs_vals).sum(),
                                        round_digits) / len(rs_vals))
                    if avg > 0:
                        pts.append((float(b), avg))
            if len(pts) < 3:
                continue
            xb = np.log(np.array([p[0] for p in pts]))
            yb = np.log(np.array([p[1] for p in pts]))
            k = len(pts)
            sx, sy = xb.sum(), yb.sum()
            sxx, sxy = (xb * xb).sum(), (xb * yb).sum()
            denom = k * sxx - sx * sx
            if denom == 0.0:
                continue
            hurst = _r6((k * sxy - sx * sy) / denom)
            rows.append((series[lo], k, hurst))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_sizes", _I), ("hurst", _F)))


def _q_hurst(sf_dir: str):
    return hurst_rs(_numeric_samples(sf_dir), window_ns=_H)


def _hurst_sql(window_ns: int, sizes=_HURST_SIZES) -> str:
    sz = ", ".join(str(b) for b in sizes)
    return f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {window_ns} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    rn AS (
        SELECT series_key, y,
               row_number() OVER (
                   PARTITION BY series_key ORDER BY window_ns) AS rn
        FROM m
    ),
    sizes(b) AS (SELECT unnest([{sz}])),
    blk AS (
        SELECT series_key, b, (rn - 1) // b AS blk_id, rn, y
        FROM rn CROSS JOIN sizes
    ),
    full_ AS (
        SELECT series_key, b, blk_id,
               round(round(sum(y), 6) / b, 6) AS bm
        FROM blk GROUP BY series_key, b, blk_id
        HAVING count(*) = b
    ),
    dev AS (
        SELECT blk.series_key, blk.b, blk.blk_id, blk.rn,
               round(blk.y - full_.bm, 6) AS d
        FROM blk JOIN full_
          ON full_.series_key = blk.series_key
         AND full_.b = blk.b AND full_.blk_id = blk.blk_id
    ),
    z AS (
        SELECT series_key, b, blk_id, d,
               sum(d) OVER (
                   PARTITION BY series_key, b, blk_id ORDER BY rn
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
               ) AS z
        FROM dev
    ),
    rsb AS (
        SELECT series_key, b, blk_id,
               round(max(z) - min(z), 6) AS r_rng,
               round(sqrt(round(sum(d * d), 6) / b), 6) AS s_dev
        FROM z GROUP BY series_key, b, blk_id
    ),
    rsv AS (
        SELECT series_key, b,
               round(round(sum(round(r_rng / s_dev, 6)), 6)
                     / count(*), 6) AS avg_rs
        FROM rsb WHERE s_dev > 0
        GROUP BY series_key, b
    ),
    fit AS (
        SELECT series_key, count(*) AS k,
               sum(ln(b)) AS sx, sum(ln(avg_rs)) AS sy,
               sum(ln(b) * ln(b)) AS sxx,
               sum(ln(b) * ln(avg_rs)) AS sxy
        FROM rsv WHERE avg_rs > 0
        GROUP BY series_key
        HAVING count(*) >= 3
    )
    SELECT series_key, CAST(k AS BIGINT) AS n_sizes,
           round((k * sxy - sx * sy) / (k * sxx - sx * sx), 6) AS hurst
    FROM fit
    WHERE (k * sxx - sx * sx) <> 0.0
    """


register("events_hurst_rs", _q_hurst, _hurst_sql(_H))


# ---------------------------------------------------------------------------
# Ljung-Box portmanteau test (lags 1-3) per series
# ---------------------------------------------------------------------------

def ljung_box_tier(samples_ds, *, window_ns: int, round_digits: int = 6,
                   min_windows: int = 5):
    """Per-series Ljung-Box Q statistic over lags 1-3 of the demeaned
    window means: Q = n(n+2) * sum_k r_k^2 / (n-k).  The portmanteau
    "is there ANY autocorrelation" companion of ``acf_tier`` /
    ``pacf_tier`` — under white noise Q ~ chi2(3), so Q >> 7.81 flags a
    series whose window means are serially dependent.

    Scale shape: identical to ``pacf_tier`` — ``window_means``' ONE
    series-sharded exchange, O(windows) math per series.

    Hash parity: rounded window mean y, rounded mu, rounded c0, rounded
    r1/r2/r3 (same pipeline as PACF), THEN Q from those rounded doubles
    with the identical IEEE expression on both engines; final round."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            mu = _r6(round_half_away(w.sum(), round_digits) / n)
            d = w - mu
            c0 = round_half_away((d * d).sum(), round_digits)
            if c0 <= 0:
                continue
            r = [_r6(round_half_away((d[:-k] * d[k:]).sum(),
                                     round_digits) / c0)
                 for k in (1, 2, 3)]
            q = _r6(float(n) * (n + 2.0)
                    * (r[0] * r[0] / (n - 1.0)
                       + r[1] * r[1] / (n - 2.0)
                       + r[2] * r[2] / (n - 3.0)))
            rows.append((series[lo], n, r[0], r[1], r[2], q))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("r1", _F), ("r2", _F),
                            ("r3", _F), ("q_lb", _F)))


def _q_ljung_box(sf_dir: str):
    return ljung_box_tier(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_ljung_box_1h",
    _q_ljung_box,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    mu AS (
        SELECT series_key, count(*) AS n,
               round(round(sum(y), 6) / count(*), 6) AS mu
        FROM m GROUP BY series_key
        HAVING count(*) >= 5
    ),
    d AS (
        SELECT m.series_key, m.y - mu.mu AS d,
               lag(m.y - mu.mu, 1) OVER (
                   PARTITION BY m.series_key ORDER BY m.window_ns) AS d1,
               lag(m.y - mu.mu, 2) OVER (
                   PARTITION BY m.series_key ORDER BY m.window_ns) AS d2,
               lag(m.y - mu.mu, 3) OVER (
                   PARTITION BY m.series_key ORDER BY m.window_ns) AS d3
        FROM m JOIN mu ON mu.series_key = m.series_key
    ),
    c AS (
        SELECT series_key,
               round(sum(d * d), 6) AS c0,
               round(sum(d * d1), 6) AS c1,
               round(sum(d * d2), 6) AS c2,
               round(sum(d * d3), 6) AS c3
        FROM d GROUP BY series_key
    ),
    r AS (
        SELECT c.series_key, mu.n,
               round(c1 / c0, 6) AS r1, round(c2 / c0, 6) AS r2,
               round(c3 / c0, 6) AS r3
        FROM c JOIN mu ON mu.series_key = c.series_key
        WHERE c0 > 0
    )
    SELECT series_key, CAST(n AS BIGINT) AS n_windows, r1, r2, r3,
           round(CAST(n AS DOUBLE) * (n + 2.0)
                 * (r1 * r1 / (n - 1.0)
                    + r2 * r2 / (n - 2.0)
                    + r3 * r3 / (n - 3.0)), 6) AS q_lb
    FROM r
    """,
)


# ---------------------------------------------------------------------------
# Jarque-Bera normality test per series
# ---------------------------------------------------------------------------

def jarque_bera_tier(samples_ds, *, window_ns: int, round_digits: int = 6,
                     min_windows: int = 5):
    """Per-series Jarque-Bera normality statistic over the window
    means: with central moments m2/m3/m4 of the demeaned means,
    skewness g1 = m3 / (m2 * sqrt(m2)) and excess kurtosis
    g2 = m4 / m2^2 - 3, JB = n/6 * (g1^2 + g2^2/4) ~ chi2(2) under
    normality.  The distribution-shape companion of
    ``events_weekend_welch_t`` (location) and ``events_runs_test``
    (independence).

    Scale shape: ``window_means``' ONE series-sharded exchange,
    O(windows) vectorized moments per series.

    Hash parity: rounded window mean y, rounded mu, rounded moment sums
    (sum d^2, sum d^3, sum d^4), rounded m2/m3/m4, rounded g1/g2, THEN
    JB from those rounded doubles; g1 uses m2*sqrt(m2) (not pow) so
    both engines run the identical IEEE expression."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            mu = _r6(round_half_away(w.sum(), round_digits) / n)
            d = w - mu
            m2 = _r6(round_half_away((d * d).sum(), round_digits) / n)
            if m2 <= 0:
                continue
            m3 = _r6(round_half_away((d * d * d).sum(), round_digits) / n)
            m4 = _r6(round_half_away((d * d * d * d).sum(),
                                     round_digits) / n)
            g1 = _r6(m3 / (m2 * np.sqrt(m2)))
            g2 = _r6(m4 / (m2 * m2) - 3.0)
            jb = _r6(n / 6.0 * (g1 * g1 + g2 * g2 / 4.0))
            rows.append((series[lo], n, g1, g2, jb))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("skew_g1", _F),
                            ("kurt_g2", _F), ("jb", _F)))


def _q_jarque_bera(sf_dir: str):
    return jarque_bera_tier(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_jarque_bera_1h",
    _q_jarque_bera,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    mu AS (
        SELECT series_key, count(*) AS n,
               round(round(sum(y), 6) / count(*), 6) AS mu
        FROM m GROUP BY series_key
        HAVING count(*) >= 5
    ),
    mom AS (
        SELECT m.series_key, mu.n,
               round(round(sum((m.y - mu.mu) * (m.y - mu.mu)), 6)
                     / mu.n, 6) AS m2,
               round(round(sum((m.y - mu.mu) * (m.y - mu.mu)
                               * (m.y - mu.mu)), 6) / mu.n, 6) AS m3,
               round(round(sum((m.y - mu.mu) * (m.y - mu.mu)
                               * (m.y - mu.mu) * (m.y - mu.mu)), 6)
                     / mu.n, 6) AS m4
        FROM m JOIN mu ON mu.series_key = m.series_key
        GROUP BY m.series_key, mu.n
        HAVING round(round(sum((m.y - mu.mu) * (m.y - mu.mu)), 6)
                     / mu.n, 6) > 0
    ),
    gg AS (
        SELECT series_key, n,
               round(m3 / (m2 * sqrt(m2)), 6) AS g1,
               round(m4 / (m2 * m2) - 3.0, 6) AS g2
        FROM mom
    )
    SELECT series_key, CAST(n AS BIGINT) AS n_windows,
           g1 AS skew_g1, g2 AS kurt_g2,
           round(n / 6.0 * (g1 * g1 + g2 * g2 / 4.0), 6) AS jb
    FROM gg
    """,
)


# ---------------------------------------------------------------------------
# Mann-Kendall trend test per series (daily means)
# ---------------------------------------------------------------------------

def mann_kendall_tier(samples_ds, *, window_ns: int, round_digits: int = 6,
                      min_windows: int = 5):
    """Per-series Mann-Kendall monotonic-trend test over the tier's
    window means: S = sum over i<j of sign(y_j - y_i) with the tie-corrected
    variance var(S) = [n(n-1)(2n+5) - sum_t t(t-1)(2t+5)] / 18 and the
    continuity-corrected z = (S -/+ 1) / sqrt(var(S)).  The
    nonparametric companion of ``events_theil_sen_1h`` (which estimates
    the slope MK tests the existence of).

    Scale shape: ``window_means``' ONE series-sharded exchange; the
    O(windows^2) pairwise sign sum runs vectorized on the tier's bounded
    window count per series (the DAILY tier here — ~hundreds of points —
    never raw samples).

    Hash parity: rounded daily mean y; S and the tie counts are exact
    integers on both engines; var(S) divides the exact integer
    numerator by 18.0 in one IEEE op; z from those, final round."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            diff = np.sign(w[None, :] - w[:, None])
            s_stat = int(np.triu(diff, k=1).sum())
            _, tie_counts = np.unique(w, return_counts=True)
            tt = int(sum(t * (t - 1) * (2 * t + 5)
                         for t in tie_counts if t > 1))
            num = n * (n - 1) * (2 * n + 5) - tt
            var_s = num / 18.0
            if var_s <= 0.0:
                continue
            if s_stat > 0:
                z = _r6((s_stat - 1.0) / np.sqrt(var_s))
            elif s_stat < 0:
                z = _r6((s_stat + 1.0) / np.sqrt(var_s))
            else:
                z = 0.0
            rows.append((series[lo], n, s_stat, z))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("s_stat", _I),
                            ("z_mk", _F)))


def _q_mann_kendall(sf_dir: str):
    return mann_kendall_tier(_numeric_samples(sf_dir), window_ns=_D)


register(
    "events_mann_kendall_1d",
    _q_mann_kendall,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_D} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    rn AS (
        SELECT series_key, y,
               row_number() OVER (
                   PARTITION BY series_key ORDER BY window_ns) AS rn
        FROM m
    ),
    nn AS (
        SELECT series_key, CAST(count(*) AS BIGINT) AS n
        FROM m GROUP BY series_key
        HAVING count(*) >= 5
    ),
    s AS (
        SELECT a.series_key,
               CAST(sum(CASE WHEN b.y > a.y THEN 1
                             WHEN b.y < a.y THEN -1
                             ELSE 0 END) AS BIGINT) AS s_stat
        FROM rn a JOIN rn b
          ON b.series_key = a.series_key AND b.rn > a.rn
        GROUP BY a.series_key
    ),
    ties AS (
        SELECT series_key,
               CAST(coalesce(sum(t * (t - 1) * (2 * t + 5)), 0)
                    AS BIGINT) AS tt
        FROM (
            SELECT series_key, CAST(count(*) AS BIGINT) AS t
            FROM m GROUP BY series_key, y
            HAVING count(*) > 1
        ) GROUP BY series_key
    ),
    v AS (
        SELECT nn.series_key, nn.n, s.s_stat,
               (nn.n * (nn.n - 1) * (2 * nn.n + 5)
                - coalesce(ties.tt, 0)) / 18.0 AS var_s
        FROM nn
        JOIN s ON s.series_key = nn.series_key
        LEFT JOIN ties ON ties.series_key = nn.series_key
    )
    SELECT series_key, n AS n_windows, s_stat,
           CASE WHEN s_stat > 0
                    THEN round((s_stat - 1.0) / sqrt(var_s), 6)
                WHEN s_stat < 0
                    THEN round((s_stat + 1.0) / sqrt(var_s), 6)
                ELSE 0.0 END AS z_mk
    FROM v
    WHERE var_s > 0.0
    """,
)


# ---------------------------------------------------------------------------
# Grubbs' max-outlier statistic per series
# ---------------------------------------------------------------------------

def grubbs_tier(samples_ds, *, window_ns: int, round_digits: int = 6,
                min_windows: int = 5):
    """Per-series Grubbs statistic over the window means:
    G = max|y - mean| / population_std, plus the window holding the
    extreme deviation (ties break to the EARLIEST window on the rounded
    deviation, the ``mean_shift_changepoint`` discipline).  The
    single-most-extreme-point companion of ``events_mad_outliers``
    (which flags ALL robust outliers).

    Scale shape: ``window_means``' ONE series-sharded exchange,
    O(windows) vectorized math per series.

    Hash parity: rounded window mean y, rounded mu, rounded per-window
    deviation (so the argmax/tie-break compares identical doubles),
    rounded population std, final rounded ratio."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            mu = _r6(round_half_away(w.sum(), round_digits) / n)
            d = w - mu
            s_dev = _r6(np.sqrt(
                round_half_away((d * d).sum(), round_digits) / n))
            if s_dev <= 0:
                continue
            dev = round_half_away(np.abs(d), round_digits)
            gmax = dev.max()
            at = int(np.argmax(dev == gmax))  # earliest window on ties
            g_stat = _r6(gmax / s_dev)
            rows.append((series[lo], n, int(windows[lo:hi][at]), g_stat))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("window_ns", _I),
                            ("g_stat", _F)))


def _q_grubbs(sf_dir: str):
    return grubbs_tier(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_grubbs_1h",
    _q_grubbs,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    mu AS (
        SELECT series_key, count(*) AS n,
               round(round(sum(y), 6) / count(*), 6) AS mu
        FROM m GROUP BY series_key
        HAVING count(*) >= 5
    ),
    d AS (
        SELECT m.series_key, m.window_ns, mu.n, mu.mu,
               m.y - mu.mu AS d,
               round(abs(m.y - mu.mu), 6) AS dev
        FROM m JOIN mu ON mu.series_key = m.series_key
    ),
    s AS (
        SELECT series_key,
               round(sqrt(round(sum(d * d), 6) / any_value(n)), 6) AS s_dev
        FROM d GROUP BY series_key
    ),
    mx AS (
        SELECT series_key, max(dev) AS gmax FROM d GROUP BY series_key
    ),
    at AS (
        SELECT d.series_key, min(d.window_ns) AS window_ns
        FROM d JOIN mx ON mx.series_key = d.series_key
                      AND d.dev = mx.gmax
        GROUP BY d.series_key
    )
    SELECT d0.series_key, CAST(any_value(d0.n) AS BIGINT) AS n_windows,
           any_value(at.window_ns) AS window_ns,
           round(any_value(mx.gmax) / any_value(s.s_dev), 6) AS g_stat
    FROM d d0
    JOIN s ON s.series_key = d0.series_key AND s.s_dev > 0
    JOIN mx ON mx.series_key = d0.series_key
    JOIN at ON at.series_key = d0.series_key
    GROUP BY d0.series_key
    """,
)


# ---------------------------------------------------------------------------
# Hour-of-day seasonal strength (ANOVA eta-squared) per series
# ---------------------------------------------------------------------------

def seasonal_strength_hod(samples_ds, *, round_digits: int = 6,
                          min_windows: int = 48):
    """Per-series hour-of-day seasonal strength as ANOVA eta-squared
    over the HOURLY window means: group the means by hour-of-day
    (0..23), eta2 = SS_between / SS_total — the share of hourly-mean
    variance explained by the diurnal profile.  The scalar-summary
    companion of ``events_hourly_profile`` (the profile itself) and
    ``events_dominant_period_1h`` (which finds the period eta2 scores).

    Scale shape: ``window_means``' ONE series-sharded exchange,
    O(windows) + O(24) math per series.

    Hash parity: rounded hourly mean y, rounded mu, rounded per-hour
    group means, rounded SS_between / SS_total, final rounded ratio.
    Hour-of-day is exact integer arithmetic on the window epoch."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _fit(series, windows, y, starts):
        hod = (windows % _D) // _H
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            h = hod[lo:hi].astype(np.int64)
            n = len(w)
            if n < min_windows:
                continue
            mu = _r6(round_half_away(w.sum(), round_digits) / n)
            d = w - mu
            sst = round_half_away((d * d).sum(), round_digits)
            if sst <= 0:
                continue
            nh = np.bincount(h, minlength=24)
            sh = round_half_away(np.bincount(h, weights=w, minlength=24),
                                 round_digits)
            mask = nh > 0
            mh = round_half_away(sh[mask] / nh[mask], round_digits)
            ssb = round_half_away(
                (nh[mask] * (mh - mu) * (mh - mu)).sum(), round_digits)
            rows.append((series[lo], n, int(mask.sum()),
                         _r6(ssb / sst)))
        return rows

    return window_means(samples_ds, window_ns=_H, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("n_hours", _I),
                            ("eta2_hod", _F)))


def _q_seasonal_strength(sf_dir: str):
    return seasonal_strength_hod(_numeric_samples(sf_dir))


register(
    "events_seasonal_strength_hod",
    _q_seasonal_strength,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    mu AS (
        SELECT series_key, count(*) AS n,
               round(round(sum(y), 6) / count(*), 6) AS mu
        FROM m GROUP BY series_key
        HAVING count(*) >= 48
    ),
    sst AS (
        SELECT m.series_key,
               round(sum((m.y - mu.mu) * (m.y - mu.mu)), 6) AS sst
        FROM m JOIN mu ON mu.series_key = m.series_key
        GROUP BY m.series_key
    ),
    hh AS (
        SELECT series_key, (window_ns % {_D}) // {_H} AS hod,
               count(*) AS nh, round(sum(y), 6) AS sh
        FROM m GROUP BY series_key, hod
    ),
    mh AS (
        SELECT hh.series_key, hh.nh,
               round(hh.sh / hh.nh, 6) AS mh, mu.mu
        FROM hh JOIN mu ON mu.series_key = hh.series_key
    ),
    ssb AS (
        SELECT series_key, CAST(count(*) AS BIGINT) AS n_hours,
               round(sum(nh * (mh - mu) * (mh - mu)), 6) AS ssb
        FROM mh GROUP BY series_key
    )
    SELECT mu.series_key, CAST(mu.n AS BIGINT) AS n_windows,
           ssb.n_hours,
           round(ssb.ssb / sst.sst, 6) AS eta2_hod
    FROM mu
    JOIN sst ON sst.series_key = mu.series_key AND sst.sst > 0
    JOIN ssb ON ssb.series_key = mu.series_key
    """,
)


# ---------------------------------------------------------------------------
# Kendall tau-b between an aligned series pair (daily means)
# ---------------------------------------------------------------------------

def kendall_tau_pair(samples_ds, *, x_series: str, y_series: str,
                     window_ns: int, round_digits: int = 6,
                     min_windows: int = 5):
    """Kendall tau-b rank correlation between TWO series over their
    aligned window means: cd = sum over window pairs i<j of
    sign(x_j - x_i) * sign(y_j - y_i), with the tie-corrected
    denominator sqrt((n0 - n1)(n0 - n2)) (n0 = n(n-1)/2; n1/n2 the
    tied-pair counts in x / y).  The rank-based companion of
    ``events_leadlag_corr`` (Pearson at lags) and the cross-series twin
    of ``events_mann_kendall_1d`` (tau against TIME is MK's statistic).

    Scale shape: the Engle-Granger pair shape — blocks collapse to
    bounded (series, window) partials and only the TWO requested keys
    survive the combiner, so the single exchange (``window_means`` on
    one constant pair key, so both series meet in one task) moves
    <= 2 x n_windows rows; the O(n_windows^2) sign sum runs vectorized
    on the DAILY tier's bounded window count, never raw samples.

    Hash parity: rounded daily means; cd and the tie counts are exact
    integers on both engines; the denominator is sqrt of an exact
    integer product evaluated in one IEEE op; final round."""

    def _fit(series, windows, m, starts):
        g = pd.DataFrame({"series_key": series, "window_ns": windows,
                          "m": m})
        xf = g[g["series_key"] == x_series][["window_ns", "m"]].rename(
            columns={"m": "x"})
        yf = g[g["series_key"] == y_series][["window_ns", "m"]].rename(
            columns={"m": "y"})
        j = xf.merge(yf, on="window_ns", how="inner").sort_values(
            "window_ns", ignore_index=True)
        n = len(j)
        if n < min_windows:
            return []
        x = j["x"].to_numpy()
        y = j["y"].to_numpy()
        dx = np.sign(x[None, :] - x[:, None])
        dy = np.sign(y[None, :] - y[:, None])
        cd = int(np.triu(dx * dy, k=1).sum())
        n0 = n * (n - 1) // 2
        _, tx = np.unique(x, return_counts=True)
        _, ty = np.unique(y, return_counts=True)
        n1 = int(sum(t * (t - 1) // 2 for t in tx if t > 1))
        n2 = int(sum(t * (t - 1) // 2 for t in ty if t > 1))
        den = (n0 - n1) * (n0 - n2)
        if den <= 0:
            return []
        tau = round_half_away(np.array([cd / np.sqrt(den)]),
                              round_digits)[0]
        return [(x_series, y_series, n, cd, tau)]

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        series=(x_series, y_series),
                        round_digits=round_digits, schema=pa.schema([
                            ("x_series", pa.string()),
                            ("y_series", pa.string()), ("n_windows", _I),
                            ("cd", _I), ("tau_b", _F)]))


def _kendall_sql(x_series: str, y_series: str, window_ns: int,
                 min_windows: int = 5) -> str:
    # Series keys are interpolated into SQL string literals below;
    # escape embedded single quotes so an adversarial key can't break
    # or alter the oracle query.
    x_series = x_series.replace("'", "''")
    y_series = y_series.replace("'", "''")
    return f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {window_ns} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS m
        FROM ({EVENTS_NUMERIC_SQL})
        WHERE series_key IN ('{x_series}', '{y_series}')
        GROUP BY series_key, window_ns
    ),
    j AS (
        SELECT x.window_ns, x.m AS x, y.m AS y
        FROM (SELECT window_ns, m FROM m
              WHERE series_key = '{x_series}') x
        JOIN (SELECT window_ns, m FROM m
              WHERE series_key = '{y_series}') y
          ON y.window_ns = x.window_ns
    ),
    rn AS (
        SELECT x, y, row_number() OVER (ORDER BY window_ns) AS rn FROM j
    ),
    p AS (
        SELECT CAST(sum(
                   (CASE WHEN b.x > a.x THEN 1
                         WHEN b.x < a.x THEN -1 ELSE 0 END)
                 * (CASE WHEN b.y > a.y THEN 1
                         WHEN b.y < a.y THEN -1 ELSE 0 END))
               AS BIGINT) AS cd
        FROM rn a JOIN rn b ON b.rn > a.rn
    ),
    nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM j),
    tx AS (
        SELECT CAST(coalesce(sum(t * (t - 1) // 2), 0) AS BIGINT) AS n1
        FROM (SELECT CAST(count(*) AS BIGINT) AS t
              FROM j GROUP BY x HAVING count(*) > 1)
    ),
    ty AS (
        SELECT CAST(coalesce(sum(t * (t - 1) // 2), 0) AS BIGINT) AS n2
        FROM (SELECT CAST(count(*) AS BIGINT) AS t
              FROM j GROUP BY y HAVING count(*) > 1)
    ),
    f AS (
        SELECT nn.n, p.cd, tx.n1, ty.n2,
               nn.n * (nn.n - 1) // 2 AS n0
        FROM nn, p, tx, ty
        WHERE nn.n >= {min_windows}
    )
    SELECT '{x_series}' AS x_series, '{y_series}' AS y_series,
           n AS n_windows, cd,
           round(cd / sqrt(CAST((n0 - n1) * (n0 - n2) AS DOUBLE)), 6)
               AS tau_b
    FROM f
    WHERE (n0 - n1) * (n0 - n2) > 0
    """


register(
    "events_kendall_tau_pair",
    lambda sf: kendall_tau_pair(_numeric_samples(sf), x_series="value",
                                y_series="props/k", window_ns=_D),
    _kendall_sql("value", "props/k", _D),
)


# ---------------------------------------------------------------------------
# Pettitt rank-based changepoint per series (daily means)
# ---------------------------------------------------------------------------

def pettitt_tier(samples_ds, *, window_ns: int, min_windows: int = 10,
                 round_digits: int = 6):
    """Per-series Pettitt changepoint test over the tier's window
    means: U_k = sum over i<=k, j>k of sign(y_i - y_j), K = max|U_k|
    over the split points k = 1..n-1, reported with the EARLIEST window
    achieving K.  The rank-based (distribution-free) companion of
    ``events_mean_shift_1h`` (the scaled-CUSUM scan on raw means).

    Implementation uses the exact midrank identity
    U_k = sum_{i<=k} (2*rank_i + t_i - 1) - k*(n+1)
    (rank = min rank of the tie group, t = tie-group size), which holds
    under ties and keeps EVERY quantity an exact integer — so the hash
    needs no float discipline beyond the canonical rounded means the
    ranks are computed on.

    Scale shape: ``window_means``' ONE series-sharded exchange,
    O(n log n) rank + O(n) cumsum per series on the DAILY tier's bounded
    window count."""

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            _, inv, counts = np.unique(
                w, return_inverse=True, return_counts=True)
            grp_start = np.r_[0, np.cumsum(counts)[:-1]]
            two_r = 2 * (grp_start[inv] + 1) + counts[inv] - 1
            u = np.cumsum(two_r) \
                - np.arange(1, n + 1, dtype=np.int64) * (n + 1)
            uu = np.abs(u[: n - 1])
            k_stat = int(uu.max())
            at = int(np.argmax(uu == k_stat))  # earliest split on ties
            rows.append((series[lo], n, int(windows[lo:hi][at]), k_stat))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("window_ns", _I),
                            ("k_stat", _I)))


def _q_pettitt(sf_dir: str):
    return pettitt_tier(_numeric_samples(sf_dir), window_ns=_D)


register(
    "events_pettitt_1d",
    _q_pettitt,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_D} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    rk AS (
        SELECT series_key, window_ns,
               CAST(rank() OVER (
                   PARTITION BY series_key ORDER BY y) AS BIGINT) AS rnk,
               CAST(count(*) OVER (
                   PARTITION BY series_key, y) AS BIGINT) AS t,
               CAST(count(*) OVER (
                   PARTITION BY series_key) AS BIGINT) AS n
        FROM m
    ),
    u AS (
        SELECT series_key, window_ns, n,
               sum(2 * rnk + t - 1) OVER (
                   PARTITION BY series_key ORDER BY window_ns
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               - row_number() OVER (
                   PARTITION BY series_key ORDER BY window_ns)
                 * (n + 1) AS u_k,
               row_number() OVER (
                   PARTITION BY series_key ORDER BY window_ns) AS k
        FROM rk
    ),
    valid AS (
        SELECT series_key, window_ns, n, abs(u_k) AS au
        FROM u WHERE k < n AND n >= 10
    ),
    mx AS (
        SELECT series_key, CAST(max(au) AS BIGINT) AS k_stat
        FROM valid GROUP BY series_key
    )
    SELECT v.series_key,
           CAST(any_value(v.n) AS BIGINT) AS n_windows,
           min(v.window_ns) AS window_ns,
           any_value(mx.k_stat) AS k_stat
    FROM valid v JOIN mx ON mx.series_key = v.series_key
                        AND v.au = mx.k_stat
    GROUP BY v.series_key
    """,
)


# ---------------------------------------------------------------------------
# Engle ARCH-LM (1 lag) per series: volatility clustering
# ---------------------------------------------------------------------------

def arch_lm_tier(samples_ds, *, window_ns: int, round_digits: int = 6,
                 min_windows: int = 5):
    """Per-series Engle ARCH-LM test with one lag over the window
    means: square the demeaned means, then LM = n * r1(sq)^2 where
    r1(sq) is the lag-1 autocorrelation of the squared series — under
    no-ARCH LM ~ chi2(1), so a large LM flags volatility clustering
    that ``events_ljung_box_1h`` (autocorrelation of the LEVEL) cannot
    see.

    Scale shape: identical to ``ljung_box_tier`` — ``window_means``' ONE
    series-sharded exchange, O(windows) math per series.

    Hash parity: rounded window mean y, rounded mu, rounded squared
    deviation sq, rounded mu_sq, rounded c0/c1 sums, rounded r1, THEN
    LM from those rounded doubles; final round."""

    def _r6(v: float) -> float:
        return round_half_away(np.array([v]), round_digits)[0]

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            mu = _r6(round_half_away(w.sum(), round_digits) / n)
            sq = round_half_away((w - mu) * (w - mu), round_digits)
            mu2 = _r6(round_half_away(sq.sum(), round_digits) / n)
            d = sq - mu2
            c0 = round_half_away((d * d).sum(), round_digits)
            if c0 <= 0:
                continue
            r1 = _r6(round_half_away((d[:-1] * d[1:]).sum(),
                                     round_digits) / c0)
            lm = _r6(float(n) * r1 * r1)
            rows.append((series[lo], n, r1, lm))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("r1_sq", _F),
                            ("arch_lm", _F)))


def _q_arch_lm(sf_dir: str):
    return arch_lm_tier(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_arch_lm_1h",
    _q_arch_lm,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    mu AS (
        SELECT series_key, count(*) AS n,
               round(round(sum(y), 6) / count(*), 6) AS mu
        FROM m GROUP BY series_key
        HAVING count(*) >= 5
    ),
    sq AS (
        SELECT m.series_key, m.window_ns, mu.n,
               round((m.y - mu.mu) * (m.y - mu.mu), 6) AS sq
        FROM m JOIN mu ON mu.series_key = m.series_key
    ),
    mu2 AS (
        SELECT series_key, any_value(n) AS n,
               round(round(sum(sq), 6) / any_value(n), 6) AS mu2
        FROM sq GROUP BY series_key
    ),
    d AS (
        SELECT sq.series_key, sq.sq - mu2.mu2 AS d,
               lag(sq.sq - mu2.mu2) OVER (
                   PARTITION BY sq.series_key
                   ORDER BY sq.window_ns) AS dp
        FROM sq JOIN mu2 ON mu2.series_key = sq.series_key
    ),
    c AS (
        SELECT series_key,
               round(sum(d * d), 6) AS c0,
               round(sum(d * dp), 6) AS c1
        FROM d GROUP BY series_key
    ),
    r AS (
        SELECT c.series_key, mu2.n, round(c.c1 / c.c0, 6) AS r1
        FROM c JOIN mu2 ON mu2.series_key = c.series_key
        WHERE c.c0 > 0
    )
    SELECT series_key, CAST(n AS BIGINT) AS n_windows, r1 AS r1_sq,
           round(CAST(n AS DOUBLE) * r1 * r1, 6) AS arch_lm
    FROM r
    """,
)


# ---------------------------------------------------------------------------
# Bowley quantile skewness per series
# ---------------------------------------------------------------------------

def bowley_skew_tier(samples_ds, *, window_ns: int, round_digits: int = 6,
                     min_windows: int = 5):
    """Per-series Bowley (quartile) skewness over the window means:
    B = (q3 + q1 - 2*q2) / (q3 - q1) in [-1, 1] — the outlier-robust
    companion of ``events_jarque_bera_1h``'s moment skewness g1 (a
    single extreme window saturates g1 but moves B only through the
    quartiles).

    Scale shape: ``window_means``' ONE series-sharded exchange,
    O(windows log windows) per series.

    Hash parity: quartiles via the shared ``_weighted_quantiles`` lerp
    (bit-equal to DuckDB ``quantile_cont`` — the ``psi_drift`` decile
    discipline), each rounded, THEN B from the rounded quartiles with
    the identical IEEE expression; the q3 > q1 degenerate filter
    compares identical rounded doubles on both engines."""
    from .psidrift import _weighted_quantiles

    def _fit(series, windows, y, starts):
        rows = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            w = y[lo:hi]
            n = len(w)
            if n < min_windows:
                continue
            uv, uc = np.unique(w, return_counts=True)
            q1, q2, q3 = round_half_away(
                _weighted_quantiles(uv, uc, (0.25, 0.5, 0.75)),
                round_digits)
            if not q3 > q1:
                continue
            b = round_half_away(
                np.array([(q3 + q1 - 2.0 * q2) / (q3 - q1)]),
                round_digits)[0]
            rows.append((series[lo], n, q1, q2, q3, b))
        return rows

    return window_means(samples_ds, window_ns=window_ns, fit=_fit,
                        round_digits=round_digits, schema=_schema(
                            ("n_windows", _I), ("q1", _F), ("q2", _F),
                            ("q3", _F), ("bowley_skew", _F)))


def _q_bowley(sf_dir: str):
    return bowley_skew_tier(_numeric_samples(sf_dir), window_ns=_H)


register(
    "events_bowley_skew_1h",
    _q_bowley,
    f"""
    WITH m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_H} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    q AS (
        SELECT series_key, CAST(count(*) AS BIGINT) AS n,
               round(quantile_cont(y, 0.25), 6) AS q1,
               round(quantile_cont(y, 0.5), 6) AS q2,
               round(quantile_cont(y, 0.75), 6) AS q3
        FROM m GROUP BY series_key
        HAVING count(*) >= 5
    )
    SELECT series_key, n AS n_windows, q1, q2, q3,
           round((q3 + q1 - 2.0 * q2) / (q3 - q1), 6) AS bowley_skew
    FROM q
    WHERE q3 > q1
    """,
)
