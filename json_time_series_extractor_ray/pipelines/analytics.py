"""Time-series analytics operators: OHLC candles, z-score anomaly
detection, time-weighted averages, and the histogram, smoothing,
correlation, rank, association and fit operators that follow them.

The reference is a per-document flat-map with no analytics (SURVEY.md
§2.6); these extend the engine's rollup family with the aggregates a
metrics/IoT user reaches for.  Scale shapes:

* **One exchange.**  Every keyed operator runs on
  ``_util.sharded_aggregate``: a per-block partial inside
  ``map_batches``, the one shard exchange (``state/checkpoint.
  shard_apply``) that brings every partial row of one key value into one
  task, and one ``final`` per shard over many keys at once.  No Ray Data
  ``groupby`` runs here.
* **Bounded partials.**  OHLC follows the ladder's combiner contract
  (stages/rollup.py): each block collapses to at most one partial row per
  ``(series_key, window)``, carrying the deterministic open/close pick
  keys ``(ts, doc_id, ordinal)``, so even a hot series is bounded by
  (#blocks x #windows) partial rows, never raw samples.  Histograms,
  profiles, counts and moments collapse the same way.  TWA, EWMA, percent
  rank and inter-arrival gaps need point adjacency or ranks, so their
  raw projected rows cross the exchange: key cardinality must be >= the
  desired parallelism (the ``rate_increase`` contract, downsample.py).
* **Keys.**  Per-series operators shard on ``series_key``; their
  ``final`` sorts the shard by (key, order) and walks its key segments,
  each float sum in the order of the one-series expression.  A composite
  key shards on a column every row of a group shares: ``series_key`` for
  ``(series_key, bin | hour | day)``, ``series_a`` for a series pair.
  Integer keys (a user id, a day number) shard through their string form
  (``add_shard_column``).  Global tables (the PMI scores, the chi-square
  cells, the Spearman pair) gather every partial row into one task
  (``key=None``).
* **Two passes.**  Z-score anomalies and seasonal residuals reduce the
  stream to a small per-series table first (one exchange), then re-scan
  the stream with that table broadcast into every task: zero joins.

Float parity with the DuckDB oracles follows the repo rule (memory +
BASELINE notes): cross-engine summation order differs, so every sum is
rounded to 6 decimals with ``round_half_away`` (bit-matching DuckDB
``ROUND``) BEFORE any derived arithmetic, and both engines then apply the
IDENTICAL IEEE expression tree.  TWA weights are converted ns -> seconds
first so weighted sums stay ~1e7, where a 6-decimal rounding still
dominates ULP reassociation noise (at ns scale, sums ~1e15 would swamp
it).  OHLC needs no rounding at all: every output is an exact pick or an
exact min/max.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.rollup import WINDOW_NS
from ._util import (
    as_table,
    read_parquet_file,
    round_half_away,
    sharded_aggregate,
)

_ORDER = ["ts_ns", "doc_id", "ordinal"]

_I, _F, _S = pa.int64(), pa.float64(), pa.string()


def _schema(*fields) -> pa.Schema:
    """``series_key`` (string) then ``(name, type)`` fields."""
    return pa.schema([("series_key", _S), *fields])


def _numeric(batch: pa.Table) -> pa.Table:
    mask = pc.equal(batch.column("value_kind"), 1)
    t = batch.filter(mask)
    return pa.table({
        "series_key": t.column("series_key"),
        "ts_ns": t.column("ts").cast(pa.int64()),
        "value_num": t.column("value_num"),
        "doc_id": t.column("doc_id"),
        "ordinal": t.column("sample_ordinal").cast(pa.int64()),
    })


def _runs(df: pd.DataFrame, by, order=()):
    """A shard frame sorted by (``by``, ``order``), and the bounds of its
    runs of equal ``by`` values: run ``i`` is rows
    ``bounds[i]:bounds[i + 1]``."""
    df = df.sort_values([*by, *order], kind="stable", ignore_index=True)
    start = np.zeros(len(df), bool)
    start[:1] = True
    for c in by:
        k = df[c].to_numpy()
        start[1:] |= k[1:] != k[:-1]
    return df, np.r_[np.flatnonzero(start), len(df)]


# ---------------------------------------------------------------------------
# OHLC candles
# ---------------------------------------------------------------------------

_OHLC = _schema(("window_ns", _I), ("open", _F), ("high", _F), ("low", _F),
                ("close", _F))
_OHLC_PARTIALS = pa.schema([
    *_OHLC, ("open_ts", _I), ("open_doc", _S), ("open_ord", _I),
    ("close_ts", _I), ("close_doc", _S), ("close_ord", _I)])


def ohlc_partial_batch(batch: pa.Table, window_ns: int) -> pa.Table:
    """One sample block -> per-(series, window) OHLC partials.

    Pure numpy: factorize keys, one lexsort by the deterministic total
    order ``(ts, doc_id, ordinal)`` (SURVEY.md §7.3.3), then segment
    reduceat for high/low and segment-boundary picks for open/close."""
    t = _numeric(batch)
    if t.num_rows == 0:
        return _OHLC_PARTIALS.empty_table()
    ts = t.column("ts_ns").to_numpy()
    v = t.column("value_num").to_numpy(zero_copy_only=False)
    ordinal = t.column("ordinal").to_numpy()
    series = t.column("series_key").to_pandas()
    docs = t.column("doc_id").to_pandas()
    window = ts - (ts % window_ns)

    doc_codes, doc_uniques = pd.factorize(docs, sort=True)
    skey_codes, skey_uniques = pd.factorize(series, sort=True)
    order = np.lexsort((ordinal, doc_codes, ts, window, skey_codes))
    sk, w = skey_codes[order], window[order]
    seg = np.flatnonzero(np.concatenate(
        ([True], (sk[1:] != sk[:-1]) | (w[1:] != w[:-1]))
    ))
    last = np.concatenate((seg[1:] - 1, [len(sk) - 1]))
    vs = v[order]
    return pa.table({
        "series_key": pa.array(skey_uniques[sk[seg]], pa.string()),
        "window_ns": pa.array(w[seg], pa.int64()),
        "open": pa.array(vs[seg], pa.float64()),
        "high": pa.array(np.maximum.reduceat(vs, seg), pa.float64()),
        "low": pa.array(np.minimum.reduceat(vs, seg), pa.float64()),
        "close": pa.array(vs[last], pa.float64()),
        "open_ts": pa.array(ts[order][seg], pa.int64()),
        "open_doc": pa.array(doc_uniques[doc_codes[order][seg]], pa.string()),
        "open_ord": pa.array(ordinal[order][seg], pa.int64()),
        "close_ts": pa.array(ts[order][last], pa.int64()),
        "close_doc": pa.array(doc_uniques[doc_codes[order][last]],
                              pa.string()),
        "close_ord": pa.array(ordinal[order][last], pa.int64()),
    })


def _ohlc_merge(df: pd.DataFrame) -> pd.DataFrame:
    """Merge a shard's partial rows into final per-(series, window)
    candles: open from the partial with the least (open_ts, open_doc,
    open_ord), close from the greatest (close_ts, close_doc, close_ord)."""
    keys = ["series_key", "window_ns"]
    opens = df.sort_values(keys + ["open_ts", "open_doc", "open_ord"],
                           kind="stable").groupby(keys, sort=True).first()
    closes = df.sort_values(keys + ["close_ts", "close_doc", "close_ord"],
                            kind="stable").groupby(keys, sort=True).last()
    hl = df.groupby(keys, sort=True).agg(high=("high", "max"),
                                         low=("low", "min"))
    return hl.assign(open=opens["open"], close=closes["close"]).reset_index()


def ohlc_rollup(samples_ds, *, window_ns: int = WINDOW_NS["1m"]):
    """Per-(series, window) OHLC candles over the numeric sample stream."""
    return sharded_aggregate(
        samples_ds, functools.partial(ohlc_partial_batch, window_ns=window_ns),
        _ohlc_merge, _OHLC)


# ---------------------------------------------------------------------------
# Z-score anomaly flags
# ---------------------------------------------------------------------------

_STATS = _schema(("s", _F), ("ss", _F), ("n", _I))
_STATS_PARTIALS = pa.schema([*_STATS, ("first_ts", _I), ("first_doc", _S),
                             ("first_ord", _I)])


def _stats_partial(batch: pa.Table) -> pa.Table:
    """One block -> per-series (sum, sumsq, count) partials, summed in the
    deterministic ``(ts, doc_id, ordinal)`` order so reruns are
    bit-identical; carries the segment's first-order key for the same
    reason at merge time."""
    t = _numeric(batch)
    if t.num_rows == 0:
        return _STATS_PARTIALS.empty_table()
    ts = t.column("ts_ns").to_numpy()
    v = t.column("value_num").to_numpy(zero_copy_only=False)
    ordinal = t.column("ordinal").to_numpy()
    doc_codes, doc_uniques = pd.factorize(
        t.column("doc_id").to_pandas(), sort=True)
    skey_codes, skey_uniques = pd.factorize(
        t.column("series_key").to_pandas(), sort=True)
    order = np.lexsort((ordinal, doc_codes, ts, skey_codes))
    sk = skey_codes[order]
    seg = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
    vs = v[order]
    counts = np.diff(np.concatenate((seg, [len(sk)])))
    return pa.table({
        "series_key": pa.array(skey_uniques[sk[seg]], pa.string()),
        "s": pa.array(np.add.reduceat(vs, seg), pa.float64()),
        "ss": pa.array(np.add.reduceat(vs * vs, seg), pa.float64()),
        "n": pa.array(counts, pa.int64()),
        "first_ts": pa.array(ts[order][seg], pa.int64()),
        "first_doc": pa.array(doc_uniques[doc_codes[order][seg]],
                              pa.string()),
        "first_ord": pa.array(ordinal[order][seg], pa.int64()),
    })


def series_stats(samples_ds):
    """Per-series ``(sum, sumsq, count)`` as a tiny pandas frame (one row
    per series).  Partials merge in sorted ``(first_ts, first_doc,
    first_ord)`` order so the float sums are deterministic across runs."""

    def _merge(df: pd.DataFrame) -> dict:
        df, bounds = _runs(df, ["series_key"],
                           ["first_ts", "first_doc", "first_ord"])
        s, ss = df["s"].to_numpy(), df["ss"].to_numpy()
        runs = list(zip(bounds[:-1], bounds[1:]))
        return {
            "series_key": df["series_key"].to_numpy()[bounds[:-1]],
            "s": [s[a:b].sum() for a, b in runs],
            "ss": [ss[a:b].sum() for a, b in runs],
            "n": np.add.reduceat(df["n"].to_numpy(), bounds[:-1]),
        }

    # k rows — one per series
    return sharded_aggregate(samples_ds, _stats_partial, _merge,
                             _STATS).to_pandas()


def zscore_anomalies(samples_fn, *, threshold: float = 3.0,
                     round_digits: int = 6):
    """Rows whose value deviates > ``threshold`` standard deviations from
    the series mean.  ``samples_fn`` is a zero-arg callable producing the
    sample Dataset — the stream is consumed twice (stats scan, then flag
    scan), the inherent cost of a two-pass statistic; each pass streams.

    Oracle parity: ``s`` and ``ss`` are rounded to 6 decimals before the
    mean/variance arithmetic, and z uses the identical IEEE expression on
    both engines, so the rounded z (and therefore the > threshold cut)
    match bit-for-bit."""
    stats = series_stats(samples_fn())
    lut = {
        r.series_key: (
            float(round_half_away(r.s, round_digits)),
            float(round_half_away(r.ss, round_digits)),
            int(r.n),
        )
        for r in stats.itertuples()
    }

    def _flag(batch: pa.Table) -> pa.Table:
        t = _numeric(batch)
        keys = t.column("series_key").to_pandas()
        v = t.column("value_num").to_numpy(zero_copy_only=False)
        # one factorize + gather instead of a full-batch scan per series
        # (round-2 review: k series cost k passes over every batch); the
        # per-element expression (v - s/n) / sqrt(var) is unchanged, so
        # z is bit-identical to the scalar loop
        codes, uniques = pd.factorize(keys, sort=False)
        # +1 sentinel slot: factorize maps null keys to code -1, which
        # must read NaN (z stays NaN), not the last real series' stats
        mean_k = np.full(len(uniques) + 1, np.nan)
        std_k = np.full(len(uniques) + 1, np.nan)
        for i, key in enumerate(uniques):
            ent = lut.get(key)
            if ent is None:
                continue
            s, ss, n = ent
            if n < 2:
                continue
            var = (ss - s * s / n) / (n - 1)
            if var <= 0:
                continue
            mean_k[i] = s / n
            std_k[i] = np.sqrt(var)
        with np.errstate(invalid="ignore"):
            z = (v - mean_k[codes]) / std_k[codes]
        z = round_half_away(z, round_digits)
        keep = np.abs(z) > threshold
        t = t.filter(pa.array(keep & ~np.isnan(z)))
        return pa.table({
            "series_key": t.column("series_key"),
            "ts_ns": t.column("ts_ns"),
            "value_num": t.column("value_num"),
            "z": pa.array(z[keep & ~np.isnan(z)], pa.float64()),
        })

    return samples_fn().map_batches(
        _flag, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# Time-weighted average
# ---------------------------------------------------------------------------

def twa_rollup(samples_ds, *, window_ns: int = WINDOW_NS["1d"],
               round_digits: int = 6):
    """Per-(series, window) time-weighted mean: each point weighted by its
    hold time until the next point in the SAME window (LOCF weighting,
    the TimescaleDB ``time_weight('LOCF')`` convention restricted to
    window-interior intervals); windows need >= 2 distinct timestamps.

    Weights are ns -> seconds (one float divide, identical both engines)
    so the weighted sums stay small enough for 6-decimal rounding to
    absorb cross-engine summation-order noise."""

    def _partial(batch: pa.Table) -> pa.Table:
        t = _numeric(batch)
        ts = t.column("ts_ns").to_numpy()
        return t.append_column("window_ns", pa.array(ts - ts % window_ns))

    def _twa(df: pd.DataFrame) -> list:
        # windows are runs after the sort; each window's sum is its own
        # slice, so the summation expression is the one-window one
        df, bounds = _runs(df, ["series_key", "window_ns"], _ORDER)
        keys, w = df["series_key"].to_numpy(), df["window_ns"].to_numpy()
        ts, v = df["ts_ns"].to_numpy(), df["value_num"].to_numpy()
        rows = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            twin, vwin = ts[a:b], v[a:b]
            if len(twin) < 2 or twin[-1] == twin[0]:
                continue
            dt_s = (twin[1:] - twin[:-1]) / 1_000_000_000.0
            num = round_half_away(
                float((vwin[:-1] * dt_s).sum()), round_digits)
            dur = (twin[-1] - twin[0]) / 1_000_000_000.0
            rows.append((keys[a], w[a],
                         round_half_away(num / dur, round_digits)))
        return rows

    return sharded_aggregate(samples_ds, _partial, _twa,
                             _schema(("window_ns", _I), ("twa", _F)))


# ---------------------------------------------------------------------------
# Driver queries + oracles
# ---------------------------------------------------------------------------

def _events_samples(sf_dir: str):
    from .timeseries import events_corpus_dataset, extract_pipeline

    return extract_pipeline(events_corpus_dataset(sf_dir))


def _register_queries() -> None:
    from ._events_sql import EVENTS_NUMERIC_SQL
    from .registry import register

    w1m = WINDOW_NS["1m"]
    register(
        "events_ohlc_1m",
        lambda sf: ohlc_rollup(_events_samples(sf), window_ns=w1m),
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        b AS (
            SELECT series_key, ts_ns, value_num, doc_id, ordinal,
                   ts_ns - (ts_ns % {w1m}) AS window_ns
            FROM num
        ),
        r AS (
            SELECT *,
                   row_number() OVER (
                       PARTITION BY series_key, window_ns
                       ORDER BY ts_ns, doc_id, ordinal
                   ) AS rn_a,
                   row_number() OVER (
                       PARTITION BY series_key, window_ns
                       ORDER BY ts_ns DESC, doc_id DESC, ordinal DESC
                   ) AS rn_d
            FROM b
        )
        SELECT series_key, window_ns,
               max(CASE WHEN rn_a = 1 THEN value_num END) AS open,
               max(value_num) AS high,
               min(value_num) AS low,
               max(CASE WHEN rn_d = 1 THEN value_num END) AS close
        FROM r GROUP BY series_key, window_ns
        """,
    )

    register(
        "events_zscore_anomalies",
        lambda sf: zscore_anomalies(lambda: _events_samples(sf),
                                    threshold=3.0),
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        st AS (
            SELECT series_key,
                   round(sum(value_num), 6) AS s,
                   round(sum(value_num * value_num), 6) AS ss,
                   count(*) AS n
            FROM num GROUP BY series_key
        ),
        z AS (
            SELECT num.series_key, ts_ns, value_num,
                   round((value_num - s / n)
                         / sqrt((ss - s * s / n) / (n - 1)), 6) AS z
            FROM num JOIN st USING (series_key)
            WHERE n >= 2 AND (ss - s * s / n) / (n - 1) > 0
        )
        SELECT series_key, ts_ns, value_num, z FROM z WHERE abs(z) > 3
        """,
    )

    w1d = WINDOW_NS["1d"]
    register(
        "events_twa_1d",
        lambda sf: twa_rollup(_events_samples(sf), window_ns=w1d),
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        b AS (
            SELECT series_key, ts_ns, value_num, doc_id, ordinal,
                   ts_ns - (ts_ns % {w1d}) AS window_ns
            FROM num
        ),
        o AS (
            SELECT *,
                   lead(ts_ns) OVER (
                       PARTITION BY series_key, window_ns
                       ORDER BY ts_ns, doc_id, ordinal
                   ) AS nxt
            FROM b
        ),
        agg AS (
            SELECT series_key, window_ns,
                   round(sum(CASE WHEN nxt IS NOT NULL THEN
                       value_num * ((nxt - ts_ns) / 1000000000.0)
                   END), 6) AS num_,
                   (max(ts_ns) - min(ts_ns)) / 1000000000.0 AS dur,
                   count(*) AS n
            FROM o GROUP BY series_key, window_ns
        )
        SELECT series_key, window_ns, round(num_ / dur, 6) AS twa
        FROM agg WHERE n >= 2 AND dur > 0
        """,
    )


_register_queries()


# ---------------------------------------------------------------------------
# Per-series value histograms (fixed-bin, clamped)
# ---------------------------------------------------------------------------

_HIST_PARTIALS = _schema(("bin", _I), ("n", _I))


def _hist_partial(lo: float, width: float, n_bins: int):
    """Block -> per-(series_key, bin) counts (a numpy clamp + one pandas
    size): at most ``n_series x n_bins`` partial rows per block."""

    def _partial(batch: pa.Table) -> pa.Table:
        t = _numeric(batch)
        v = t.column("value_num").to_numpy(zero_copy_only=False)
        bins = np.clip(np.floor((v - lo) / width), 0, n_bins - 1).astype(
            np.int64)
        return as_table(pd.DataFrame({
            "series_key": t.column("series_key").to_pandas(),
            "bin": bins,
        }).groupby(["series_key", "bin"], sort=False).size().reset_index(
            name="n"), _HIST_PARTIALS)

    return _partial


def _hist_merge(df: pd.DataFrame, lo: float, width: float) -> pd.DataFrame:
    """A shard's histogram partials -> (series_key, bin, bin_lo, n),
    sorted by (series_key, bin)."""
    g = df.groupby(["series_key", "bin"], sort=True)["n"].sum().reset_index()
    g["bin_lo"] = lo + g["bin"].to_numpy(np.float64) * width
    return g


def value_histogram(samples_ds, *, lo: float = 0.0, hi: float = 1000.0,
                    n_bins: int = 25):
    """Fixed-bin value histogram per series: ``bin = clamp(floor((v - lo)
    / width), 0, n_bins - 1)`` (under/overflow clamp into the edge bins),
    emitting only observed ``(series_key, bin)`` cells.

    Scale shape: the per-batch combiner collapses every block to at most
    ``n_series x n_bins`` partial rows, so the one ``series_key``
    exchange moves bounded partials — the distributed-histogram textbook
    shape.
    """
    width = (hi - lo) / n_bins
    return sharded_aggregate(
        samples_ds, _hist_partial(lo, width, n_bins),
        lambda df: _hist_merge(df, lo, width),
        _schema(("bin", _I), ("bin_lo", _F), ("n", _I)))


# ---------------------------------------------------------------------------
# Windowed EWMA smoothing
# ---------------------------------------------------------------------------

def ewma_smooth(samples_ds, *, alpha: float = 0.5, window_k: int = 8):
    """Finite-window exponentially weighted moving average per series:
    ``ewma[i] = sum_{j<K} (1-a)^j v[i-j] / sum_{j<K} (1-a)^j`` over the
    points available (shorter prefix windows renormalize), points ordered
    by ``(ts, doc_id, ordinal)``.

    The finite window keeps the operator SQL-mirrorable (a bounded
    row_number self-join) where the infinite-history EWMA recurrence is
    not.  Per-series order -> the raw numeric rows cross the one
    ``series_key`` exchange (series cardinality must be >= desired
    parallelism); the smoothing itself is one numpy convolution per
    series segment of the shard.
    """
    w = (1.0 - alpha) ** np.arange(window_k)

    def _smooth(df: pd.DataFrame) -> pd.DataFrame:
        df, bounds = _runs(df, ["series_key"], _ORDER)
        v = df["value_num"].to_numpy()
        ewma = np.empty(len(v))
        for a, b in zip(bounds[:-1], bounds[1:]):
            n = b - a
            ewma[a:b] = (np.convolve(v[a:b], w)[:n]
                         / np.convolve(np.ones(n), w)[:n])
        return df.assign(ewma=round_half_away(ewma, 6))

    return sharded_aggregate(samples_ds, _numeric, _smooth, _schema(
        ("ts_ns", _I), ("value_num", _F), ("ewma", _F)))


# ---------------------------------------------------------------------------
# Pairwise series correlation over rollup windows
# ---------------------------------------------------------------------------

_PAIR_MOMENTS = pa.schema([
    ("series_a", _S), ("series_b", _S), ("n", _I),
    *((m, _F) for m in ("sx", "sy", "sxx", "syy", "sxy"))])


def pairwise_window_corr(wide_ds, *, series=None):
    """Pearson correlation between every pair of series over their 1m
    window means (co-occurring windows only) — "do these two metrics move
    together?".

    Scale shape: runs over the already-pivoted window table; each block
    collapses to one ``(pair, n, sx, sy, sxx, syy, sxy)`` partial row per
    pair inside ``map_batches``, one exchange keyed on ``series_a`` merges
    them, and the closed-form corr is computed from the 6-dp-rounded sums
    (the repo's cross-engine float-parity rule; DuckDB's native ``corr()``
    uses different numerics, so the oracle applies the IDENTICAL rounded
    expression instead).  Pair names are ordered lexicographically on
    both sides.
    """
    from .windows import PIVOT_SERIES

    series = tuple(series or PIVOT_SERIES)
    cols = {s: f"{s.replace('/', '_')}_mean" for s in series}
    pairs = [tuple(sorted((a, b)))
             for i, a in enumerate(series) for b in series[i + 1:]]

    def _partial(batch: pa.Table) -> pa.Table:
        data = {s: batch.column(cols[s]).to_numpy(zero_copy_only=False)
                for s in series}
        rows = []
        for a, b in pairs:
            x, y = data[a], data[b]
            ok = ~(np.isnan(x) | np.isnan(y))
            xs, ys = x[ok], y[ok]
            rows.append((a, b, int(ok.sum()), float(xs.sum()),
                         float(ys.sum()), float((xs * xs).sum()),
                         float((ys * ys).sum()), float((xs * ys).sum())))
        return as_table(rows, _PAIR_MOMENTS)

    def _corr(df: pd.DataFrame) -> dict:
        g = df.groupby(["series_a", "series_b"], sort=True).sum() \
            .reset_index()
        n = g["n"].to_numpy(np.float64)
        sx, sy, sxx, syy, sxy = (round_half_away(g[m].to_numpy(), 6)
                                 for m in ("sx", "sy", "sxx", "syy", "sxy"))
        var = (n * sxx - sx * sx) * (n * syy - sy * sy)
        corr = np.where(var > 0,
                        (n * sxy - sx * sy) / np.sqrt(np.maximum(var, 1e-300)),
                        np.nan)
        return {
            "series_a": g["series_a"].to_numpy(),
            "series_b": g["series_b"].to_numpy(),
            "n_windows": g["n"].to_numpy(),
            "corr": round_half_away(corr, 6),
        }

    return sharded_aggregate(wide_ds, _partial, _corr, pa.schema([
        ("series_a", _S), ("series_b", _S), ("n_windows", _I),
        ("corr", _F)]), key="series_a")


def _register_analytics2() -> None:
    from ._events_sql import EVENTS_NUMERIC_SQL, rollup_ctes
    from .registry import register

    register(
        "events_value_histogram",
        lambda sf: value_histogram(_events_samples(sf)),
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        b AS (
            SELECT series_key,
                   CAST(LEAST(GREATEST(
                       floor((value_num - 0.0) / 40.0), 0), 24) AS BIGINT
                   ) AS bin
            FROM num
        )
        SELECT series_key, bin, 0.0 + bin * 40.0 AS bin_lo,
               CAST(count(*) AS BIGINT) AS n
        FROM b GROUP BY series_key, bin
        """,
    )

    register(
        "events_ewma",
        lambda sf: ewma_smooth(_events_samples(sf), alpha=0.5, window_k=8),
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        r AS (
            SELECT series_key, ts_ns, value_num,
                   row_number() OVER (
                       PARTITION BY series_key
                       ORDER BY ts_ns, doc_id, ordinal
                   ) AS rn
            FROM num
        )
        SELECT a.series_key, a.ts_ns, a.value_num,
               round(sum(power(0.5, a.rn - b.rn) * b.value_num)
                     / sum(power(0.5, a.rn - b.rn)), 6) AS ewma
        FROM r a JOIN r b
          ON a.series_key = b.series_key
         AND b.rn BETWEEN a.rn - 7 AND a.rn
        GROUP BY a.series_key, a.ts_ns, a.value_num, a.rn
        """,
    )

    ctes = rollup_ctes().format(window_ns=60_000_000_000)
    register(
        "events_window_corr",
        lambda sf: _q_window_corr(sf),
        f"""
        WITH {ctes},
        m AS (
            SELECT series_key, window_ns,
                   round(round(sum, 6) / count, 6) AS mean
            FROM rollup_
        ),
        p AS (
            SELECT LEAST(a.series_key, b.series_key) AS series_a,
                   GREATEST(a.series_key, b.series_key) AS series_b,
                   CAST(count(*) AS BIGINT) AS n_windows,
                   round(sum(a.mean), 6) AS sx,
                   round(sum(b.mean), 6) AS sy,
                   round(sum(a.mean * a.mean), 6) AS sxx,
                   round(sum(b.mean * b.mean), 6) AS syy,
                   round(sum(a.mean * b.mean), 6) AS sxy
            FROM m a JOIN m b
              ON a.window_ns = b.window_ns
             AND a.series_key < b.series_key
            GROUP BY 1, 2
        )
        SELECT series_a, series_b, n_windows,
               round((n_windows * sxy - sx * sy)
                     / sqrt((n_windows * sxx - sx * sx)
                            * (n_windows * syy - sy * sy)), 6) AS corr
        FROM p
        """,
    )


def _q_window_corr(sf_dir: str):
    from .timeseries import events_corpus_dataset, extract_and_rollup
    from .windows import pivot_tier_means

    corpus = events_corpus_dataset(sf_dir)
    rollups = extract_and_rollup(corpus, tiers=("1m",))
    return pairwise_window_corr(pivot_tier_means(rollups, tier="1m"))


_register_analytics2()


# ---------------------------------------------------------------------------
# Seasonal profile (hour-of-day averages)
# ---------------------------------------------------------------------------

def seasonal_profile(samples_ds, *, period_ns: int = 3_600_000_000_000,
                     cycle: int = 24):
    """Per-series seasonality profile: mean value per hour-of-day (UTC) —
    "what does a typical day look like for this metric?".

    Same combiner contract as the rollup ladder with the window key
    replaced by ``(ts // period) % cycle``: every block collapses to at
    most ``n_series x cycle`` partial (sum, count) rows, and the one
    ``series_key`` exchange merges them.  The mean is computed from the
    6-dp-rounded sum (cross-engine float-parity rule).
    """
    partials = _schema(("hour", _I), ("s", _F), ("n", _I))

    def _partial(batch: pa.Table) -> pa.Table:
        t = _numeric(batch)
        ts = t.column("ts_ns").to_numpy(zero_copy_only=False)
        return as_table(pd.DataFrame({
            "series_key": t.column("series_key").to_pandas(),
            "hour": ((ts // period_ns) % cycle).astype(np.int64),
            "v": t.column("value_num").to_numpy(zero_copy_only=False),
        }).groupby(["series_key", "hour"], sort=False).agg(
            s=("v", "sum"), n=("v", "size")).reset_index(), partials)

    def _mean(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["series_key", "hour"], sort=True).agg(
            s=("s", "sum"), n=("n", "sum")).reset_index()
        s = round_half_away(g["s"].to_numpy(), 6)
        return g.assign(mean=round_half_away(s / g["n"].to_numpy(), 6))

    return sharded_aggregate(samples_ds, _partial, _mean, _schema(
        ("hour", _I), ("n", _I), ("mean", _F)))


def _register_analytics3() -> None:
    from ._events_sql import EVENTS_NUMERIC_SQL
    from .registry import register

    register(
        "events_hourly_profile",
        lambda sf: seasonal_profile(_events_samples(sf)),
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL})
        SELECT series_key,
               CAST((ts_ns // 3600000000000) % 24 AS BIGINT) AS hour,
               CAST(count(*) AS BIGINT) AS n,
               round(round(sum(value_num), 6) / count(*), 6) AS mean
        FROM num GROUP BY series_key, hour
        """,
    )


_register_analytics3()


def seasonal_residuals(samples_fn, *, period_ns: int = 3_600_000_000_000,
                       cycle: int = 24):
    """Detrended samples: each numeric sample minus its series'
    hour-of-cycle profile mean — the seasonality-removal companion of
    ``seasonal_profile`` (what's left after the daily pattern).

    Scale shape: the profile is SMALL by construction (#series x cycle
    rows), so it is collected driver-side once and broadcast by value
    into the flag scan — the ``zscore_anomalies`` two-pass discipline
    (stats pass + streaming map pass), never a shuffle join.
    """
    prof = seasonal_profile(samples_fn(), period_ns=period_ns,
                            cycle=cycle).to_pandas()
    # dense (series -> cycle-length mean vector) map: the per-batch lookup
    # is then one factorize + one fancy-index, no per-row Python
    lut = {}
    for key, g in prof.groupby("series_key", sort=False):
        row = np.full(cycle, np.nan)
        row[g["hour"].to_numpy()] = g["mean"].to_numpy()
        lut[key] = row
    nan_row = np.full(cycle, np.nan)

    def _resid(batch: pa.Table) -> pa.Table:
        t = _numeric(batch)
        ts = t.column("ts_ns").to_numpy(zero_copy_only=False)
        v = t.column("value_num").to_numpy(zero_copy_only=False)
        hour = ((ts // period_ns) % cycle).astype(np.int64)
        keys = t.column("series_key").to_pandas()
        codes, uniques = pd.factorize(keys, sort=False)
        # +1 sentinel row: factorize maps null keys to -1 -> NaN mean
        matrix = np.vstack(
            [lut.get(u, nan_row) for u in uniques] + [nan_row])
        means = matrix[codes, hour]
        return pa.table({
            "series_key": t.column("series_key"),
            "ts_ns": t.column("ts_ns"),
            "value_num": t.column("value_num"),
            "hour": pa.array(hour, pa.int64()),
            "resid": pa.array(round_half_away(v - means, 6), pa.float64()),
        })

    return samples_fn().map_batches(_resid, batch_format="pyarrow",
                                    zero_copy_batch=True)


def _register_analytics3b() -> None:
    from ._events_sql import EVENTS_NUMERIC_SQL
    from .registry import register

    register(
        "events_seasonal_residuals",
        lambda sf: seasonal_residuals(lambda: _events_samples(sf)),
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        prof AS (
            SELECT series_key,
                   CAST((ts_ns // 3600000000000) % 24 AS BIGINT) AS hour,
                   round(round(sum(value_num), 6) / count(*), 6) AS mean
            FROM num GROUP BY 1, 2
        )
        SELECT num.series_key, ts_ns, value_num,
               CAST((ts_ns // 3600000000000) % 24 AS BIGINT) AS hour,
               round(value_num - mean, 6) AS resid
        FROM num
        JOIN prof ON num.series_key = prof.series_key
                 AND (ts_ns // 3600000000000) % 24 = prof.hour
        """,
    )


_register_analytics3b()


# ---------------------------------------------------------------------------
# Autocorrelation (lag-k ACF per series over tier windows)
# ---------------------------------------------------------------------------

def acf_tier(rollup_ds, *, tier: str = "1m", lags=(1, 2, 3)):
    """Per-series lag-k autocorrelation of the tier's (rounded) window
    means, in window order — the seasonality/persistence diagnostic.

    Same wide-op budget as ``cumulative_tier``: the tier is bounded
    (#series x #windows), the one ``series_key`` exchange co-locates each
    mean sequence, and each series' lag sums are one vectorized pass over
    its segment of the shard.  Float parity: Pearson terms are computed
    from 6-dp-rounded sums with the identical expression tree as the
    oracle (round-before-derive); zero-variance sides are filtered on
    BOTH sides.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("tier"), tier))
        s = round_half_away(
            t.column("sum").to_numpy(zero_copy_only=False), 6)
        n = t.column("count").to_numpy(zero_copy_only=False)
        return pa.table({
            "series_key": t.column("series_key"),
            "window_ns": t.column("window_start").cast(pa.int64()),
            "mean": pa.array(round_half_away(s / n, 6), pa.float64()),
        })

    def _acf(df: pd.DataFrame) -> list:
        df, bounds = _runs(df, ["series_key"], ["window_ns"])
        keys, means = df["series_key"].to_numpy(), df["mean"].to_numpy()
        rows = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            m = means[a:b]
            for k in lags:
                if len(m) <= k:
                    continue
                x, y = m[:-k], m[k:]
                n = len(x)
                sx = round_half_away(x.sum(), 6)
                sy = round_half_away(y.sum(), 6)
                sxy = round_half_away((x * y).sum(), 6)
                sxx = round_half_away((x * x).sum(), 6)
                syy = round_half_away((y * y).sum(), 6)
                vx = n * sxx - sx * sx
                vy = n * syy - sy * sy
                if vx <= 0 or vy <= 0:
                    continue
                acf = round_half_away(
                    (n * sxy - sx * sy) / np.sqrt(vx * vy), 6)
                rows.append((keys[a], k, n, acf))
        return rows

    return sharded_aggregate(rollup_ds, _partial, _acf, _schema(
        ("lag", _I), ("n_pairs", _I), ("acf", _F)))


# ---------------------------------------------------------------------------
# Inter-arrival gaps (per-user event cadence)
# ---------------------------------------------------------------------------

def interarrival_stats(events_ds):
    """Per user: count / mean / max of the gaps (seconds) between
    consecutive events in ``(ts, event_id)`` order; single-event users
    have no gaps and are dropped (both sides).  One ``user_id`` exchange;
    each user's diff is one numpy pass over its segment of the shard —
    user cardinality is the parallelism (the ``rate_increase``
    contract)."""

    def _proj(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id"),
            "ts_ns": batch.column("ts").cast(pa.timestamp("ns")).cast(
                pa.int64()),
            "event_id": batch.column("event_id"),
        })

    def _gaps(df: pd.DataFrame) -> list:
        df, bounds = _runs(df, ["user_id"], ["ts_ns", "event_id"])
        users, ts = df["user_id"].to_numpy(), df["ts_ns"].to_numpy()
        rows = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b - a < 2:
                continue
            gaps = np.diff(ts[a:b]) / 1e9
            s = round_half_away(gaps.sum(), 6)
            rows.append((users[a], b - a, len(gaps),
                         round_half_away(s / len(gaps), 6), gaps.max()))
        return rows

    return sharded_aggregate(events_ds, _proj, _gaps, pa.schema([
        ("user_id", _I), ("n_events", _I), ("n_gaps", _I),
        ("mean_gap_s", _F), ("max_gap_s", _F)]), key="user_id")


def _register_analytics4() -> None:
    from ._events_sql import rollup_ctes
    from .registry import register

    def _q_acf(sf_dir: str):
        from .timeseries import events_corpus_dataset, extract_and_rollup

        corpus = events_corpus_dataset(sf_dir)
        return acf_tier(extract_and_rollup(corpus, tiers=("1m",)))

    ctes = rollup_ctes().format(window_ns=60_000_000_000)
    lag_sql = "\n    UNION ALL\n".join(f"""
    SELECT series_key, {k} AS lag, mean AS y,
           lag(mean, {k}) OVER (
               PARTITION BY series_key ORDER BY window_ns) AS x
    FROM m
    """ for k in (1, 2, 3))
    register(
        "events_acf_1m",
        _q_acf,
        f"""
        WITH {ctes},
        m AS (
            SELECT series_key, window_ns,
                   round(round(sum, 6) / count, 6) AS mean
            FROM rollup_
        ),
        l AS ({lag_sql}),
        p AS (SELECT series_key, lag, x, y FROM l WHERE x IS NOT NULL),
        a AS (
            SELECT series_key, lag, count(*) AS n,
                   round(sum(x), 6) AS sx, round(sum(y), 6) AS sy,
                   round(sum(x * y), 6) AS sxy,
                   round(sum(x * x), 6) AS sxx,
                   round(sum(y * y), 6) AS syy
            FROM p GROUP BY series_key, lag
        )
        SELECT series_key, CAST(lag AS BIGINT) AS lag,
               CAST(n AS BIGINT) AS n_pairs,
               round((n * sxy - sx * sy)
                     / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)),
                     6) AS acf
        FROM a
        WHERE (n * sxx - sx * sx) > 0 AND (n * syy - sy * sy) > 0
        """,
    )

    def _q_interarrival(sf_dir: str):
        return interarrival_stats(read_parquet_file(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "ts", "event_id"]))

    register(
        "events_interarrival",
        _q_interarrival,
        """
        WITH o AS (
            SELECT user_id,
                   (epoch_ns(ts) - lag(epoch_ns(ts)) OVER (
                       PARTITION BY user_id ORDER BY epoch_ns(ts), event_id
                   )) / 1e9 AS gap_s
            FROM events
        ),
        a AS (
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(count(gap_s) AS BIGINT) AS n_gaps,
                   round(sum(gap_s), 6) AS s,
                   max(gap_s) AS max_gap_s
            FROM o GROUP BY user_id HAVING count(gap_s) > 0
        )
        SELECT user_id, n_events, n_gaps,
               round(s / n_gaps, 6) AS mean_gap_s, max_gap_s
        FROM a
        """,
    )


_register_analytics4()


# ---------------------------------------------------------------------------
# Per-(series, day) percent rank — row-level window-function coverage
# ---------------------------------------------------------------------------

_PR_DAY_NS = 86_400_000_000_000


def percent_rank_daily(samples_fn, *, day_ns: int = _PR_DAY_NS):
    """Every numeric sample annotated with its percent rank among the
    SAME series' samples of the SAME calendar day — SQL
    ``percent_rank() OVER (PARTITION BY series_key, day ORDER BY
    value_num)``: ``(rank_min - 1) / (n - 1)``, 0 for singleton days,
    ties sharing the min rank.

    The day scoping is the scale contract: a whole-series rank would need
    one series' entire history at once, while (series, day) groups are
    bounded by a day's sample volume — the same co-partition the rollup
    ladder uses.  The one exchange shards on ``series_key`` (every row of
    a (series, day) group shares it); the shard's kernel is one
    vectorized pandas group rank.  Rank ratios are exact small-int
    divisions, round-6 on both engines.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        t = _numeric(batch)
        ts = t.column("ts_ns").to_numpy(zero_copy_only=False)
        return t.append_column("day", pa.array(ts // day_ns, pa.int64()))

    def _rank(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["series_key", "day"], sort=False)["value_num"]
        r = g.rank(method="min").to_numpy()
        n = g.transform("size").to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = np.where(n > 1, (r - 1.0) / (n - 1.0), 0.0)
        return df.assign(pct_rank=round_half_away(pct, 6))

    return sharded_aggregate(samples_fn(), _partial, _rank, _schema(
        ("ts_ns", _I), ("doc_id", _S), ("ordinal", _I), ("value_num", _F),
        ("pct_rank", _F)))


def _q_percent_rank(sf_dir: str):
    return percent_rank_daily(lambda: _events_samples(sf_dir))


def _percent_rank_sql() -> str:
    from ._events_sql import EVENTS_NUMERIC_SQL

    return f"""
    WITH num AS ({EVENTS_NUMERIC_SQL})
    SELECT series_key, ts_ns, doc_id, ordinal, value_num,
           round(percent_rank() OVER (
               PARTITION BY series_key, ts_ns // {_PR_DAY_NS}
               ORDER BY value_num
           ), 6) AS pct_rank
    FROM num
    """


def _register_percent_rank() -> None:
    from .registry import register

    register("events_percent_rank_1d", _q_percent_rank,
             _percent_rank_sql())


_register_percent_rank()


# ---------------------------------------------------------------------------
# Event-type co-occurrence PMI (market-basket association over time windows)
# ---------------------------------------------------------------------------

def type_cooccurrence_pmi(events_ds, *, window_ns: int = 3_600_000_000_000):
    """Pointwise mutual information between event-type pairs that
    co-occur inside the same (user, tumbling window) basket — the
    standard association score `ln(P(a,b) / (P(a)P(b)))` over basket
    incidence, positive when two behaviours cluster together.

    Scale shape: each block collapses to its distinct
    ``(user, window, type)`` triples (the only rows that cross the first
    exchange — the basket relation, bounded by users x windows x |types|,
    never raw events); that exchange shards on ``user_id`` (every triple
    of a basket shares it), makes triples globally distinct and emits
    per-shard pair/single/basket COUNT partials (each shard's output is
    <= |types|^2 + |types| + 1 tiny rows); a one-task gather computes the
    PMI table (<= |types|^2 rows).  The per-basket pair expansion is a
    self-merge bounded by |types| per basket (5 here -> <= 10 pairs).
    PMI is a log of an integer-count ratio evaluated by the identical
    expression on both engines; round-6 absorbs libm ULP differences.
    """
    triples = pa.schema([("user_id", _I), ("w", _I), ("event_type", _S)])
    counts = pa.schema([("a", _S), ("b", _S), ("c", _I)])

    def _triples(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.timestamp("ns")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return as_table(pd.DataFrame({
            "user_id": batch.column("user_id")
            .to_numpy(zero_copy_only=False),
            "w": t - (t % window_ns),
            "event_type": batch.column("event_type").to_pandas(),
        }).drop_duplicates(), triples)

    def _shard_counts(df: pd.DataFrame) -> dict:
        df = df.drop_duplicates(["user_id", "w", "event_type"])
        nb = len(df[["user_id", "w"]].drop_duplicates())
        singles = df.groupby("event_type", sort=False).size().reset_index(
            name="c")
        m = df.merge(df, on=["user_id", "w"])
        m = m[m["event_type_x"] < m["event_type_y"]]
        pairs = m.groupby(["event_type_x", "event_type_y"], sort=False) \
            .size().reset_index(name="c")
        return {
            "a": ([""] + singles["event_type"].tolist()
                  + pairs["event_type_x"].tolist()),
            "b": ([""] + [""] * len(singles)
                  + pairs["event_type_y"].tolist()),
            "c": np.concatenate([
                np.array([nb], np.int64),
                singles["c"].to_numpy(np.int64),
                pairs["c"].to_numpy(np.int64),
            ]),
        }

    def _pmi(df: pd.DataFrame) -> list:
        g = df.groupby(["a", "b"], sort=False)["c"].sum()
        nb = float(g.loc[("", "")])
        singles = {a: float(c) for (a, b), c in g.items()
                   if b == "" and a != ""}
        rows = [(a, b, int(c),
                 np.log(float(c) * nb / (singles[a] * singles[b])))
                for (a, b), c in g.items() if b != ""]
        return [(a, b, c, round_half_away(p, 6))
                for a, b, c, p in sorted(rows)]

    shard_counts = sharded_aggregate(events_ds, _triples, _shard_counts,
                                     counts, key="user_id")
    return sharded_aggregate(
        shard_counts, lambda t: t, _pmi, pa.schema([
            ("type_a", _S), ("type_b", _S), ("n_pair", _I), ("pmi", _F)]),
        key=None)


def _q_type_pmi(sf_dir: str):
    ds = read_parquet_file(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"])
    return type_cooccurrence_pmi(ds)


from .registry import register as _register_pmi  # noqa: E402

_register_pmi(
    "events_type_pmi",
    _q_type_pmi,
    """
    WITH b AS (
        SELECT DISTINCT user_id,
               epoch_ns(ts) - epoch_ns(ts) % 3600000000000 AS w,
               event_type
        FROM events
    ),
    tot AS (SELECT count(*) AS nb
            FROM (SELECT DISTINCT user_id, w FROM b)),
    s AS (SELECT event_type, count(*) AS c FROM b GROUP BY 1),
    p AS (
        SELECT b1.event_type AS type_a, b2.event_type AS type_b,
               count(*) AS n_pair
        FROM b b1
        JOIN b b2 ON b1.user_id = b2.user_id AND b1.w = b2.w
                 AND b1.event_type < b2.event_type
        GROUP BY 1, 2
    )
    SELECT p.type_a, p.type_b, CAST(p.n_pair AS BIGINT) AS n_pair,
           round(ln(CAST(p.n_pair AS DOUBLE) * tot.nb
                    / (sa.c * sb.c)), 6) AS pmi
    FROM p
    CROSS JOIN tot
    JOIN s sa ON sa.event_type = p.type_a
    JOIN s sb ON sb.event_type = p.type_b
    """,
)


# ---------------------------------------------------------------------------
# Deterministic per-group mode (most frequent value, lexicographic ties)
# ---------------------------------------------------------------------------

def group_mode(events_ds, *, key: str = "user_id",
               value: str = "event_type"):
    """Modal ``value`` per ``key`` with a deterministic tie-break
    (highest count wins, lexicographically smallest value on ties —
    SQL's ``mode()`` is tie-nondeterministic, so the oracle pins the
    same rule with ``row_number``).

    Scale shape: per-block (key, value, cnt) partials — bounded by
    keys x |values| per block, never raw rows — merge in one exchange
    keyed on the (integer) ``key``, where the argmax is a sort over each
    key's <= |values| candidate rows.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        return as_table(pd.DataFrame({
            "k": batch.column(key).to_numpy(zero_copy_only=False),
            "v": batch.column(value).to_pandas(),
        }).groupby(["k", "v"], sort=False).size().reset_index(name="cnt"),
            pa.schema([("k", _I), ("v", _S), ("cnt", _I)]))

    def _merge(df: pd.DataFrame) -> dict:
        g = df.groupby(["k", "v"], sort=False)["cnt"].sum().reset_index()
        g = g.sort_values(["k", "cnt", "v"],
                          ascending=[True, False, True])
        top = g.drop_duplicates("k", keep="first")
        return {key: top["k"], "mode_value": top["v"],
                "mode_count": top["cnt"]}

    return sharded_aggregate(events_ds, _partial, _merge, pa.schema([
        (key, _I), ("mode_value", _S), ("mode_count", _I)]), key="k")


def _q_user_mode(sf_dir: str):
    ds = read_parquet_file(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
    return group_mode(ds)


from .registry import register as _register_mode  # noqa: E402

_register_mode(
    "events_user_mode_type",
    _q_user_mode,
    """
    WITH c AS (
        SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS cnt
        FROM events GROUP BY 1, 2
    ),
    r AS (
        SELECT user_id, event_type, cnt,
               row_number() OVER (
                   PARTITION BY user_id
                   ORDER BY cnt DESC, event_type
               ) AS rn
        FROM c
    )
    SELECT user_id, event_type AS mode_value, cnt AS mode_count
    FROM r WHERE rn = 1
    """,
)


# ---------------------------------------------------------------------------
# Chi-square independence: event type x day-of-week
# ---------------------------------------------------------------------------

_DAY_NS_CHI = 86_400_000_000_000


def type_dow_chi2(events_ds):
    """Pearson chi-square contingency cells for (event_type,
    day-of-week): observed count, expected under independence
    ``E = row_total * col_total / N``, and the cell contribution
    ``(O - E)^2 / E`` — the standard seasonality-independence screen
    (is behaviour type independent of weekday?).

    Scale shape: per-block (type, dow) count partials (bounded by
    |types| x 7 per block) and ONE tiny gather task that holds the whole
    contingency matrix — expectations need every row/column total, so
    a single-task finish over dozens of cells is the right plan, not a
    limitation.  Counts are exact int64; both engines evaluate the
    identical rounded expression tree.  Day-of-week matches DuckDB's
    ``dayofweek`` (0 = Sunday): epoch day + 4 mod 7.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("ns")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return as_table(pd.DataFrame({
            "event_type": batch.column("event_type").to_pandas(),
            "dow": ((ts // _DAY_NS_CHI) + 4) % 7,
        }).groupby(["event_type", "dow"], sort=False).size().reset_index(
            name="n"), pa.schema([("event_type", _S), ("dow", _I),
                                  ("n", _I)]))

    def _chi2(df: pd.DataFrame) -> dict:
        g = df.groupby(["event_type", "dow"], sort=True)["n"].sum() \
            .reset_index()
        n_total = float(g["n"].sum())
        row_tot = g.groupby("event_type")["n"].transform("sum") \
            .to_numpy(np.float64)
        col_tot = g.groupby("dow")["n"].transform("sum") \
            .to_numpy(np.float64)
        obs = g["n"].to_numpy(np.float64)
        exp = round_half_away(row_tot * col_tot / n_total, 6)
        contrib = round_half_away((obs - exp) * (obs - exp) / exp, 6)
        return {"event_type": g["event_type"], "dow": g["dow"],
                "observed": g["n"], "expected": exp, "contrib": contrib}

    return sharded_aggregate(events_ds, _partial, _chi2, pa.schema([
        ("event_type", _S), ("dow", _I), ("observed", _I),
        ("expected", _F), ("contrib", _F)]), key=None)


def _q_type_dow_chi2(sf_dir: str):
    ds = read_parquet_file(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return type_dow_chi2(ds)


from .registry import register as _register_chi2  # noqa: E402

_register_chi2(
    "events_type_dow_chi2",
    _q_type_dow_chi2,
    """
    WITH c AS (
        SELECT event_type, CAST(dayofweek(ts) AS BIGINT) AS dow,
               CAST(count(*) AS BIGINT) AS n
        FROM events GROUP BY 1, 2
    ),
    t AS (
        SELECT c.*,
               sum(n) OVER () AS n_total,
               sum(n) OVER (PARTITION BY event_type) AS row_tot,
               sum(n) OVER (PARTITION BY dow) AS col_tot
        FROM c
    )
    SELECT event_type, dow, n AS observed,
           round(CAST(row_tot AS DOUBLE) * col_tot / n_total, 6)
               AS expected,
           round((n - round(CAST(row_tot AS DOUBLE) * col_tot / n_total, 6))
                 * (n - round(CAST(row_tot AS DOUBLE) * col_tot / n_total, 6))
                 / round(CAST(row_tot AS DOUBLE) * col_tot / n_total, 6), 6)
               AS contrib
    FROM t
    """,
)


# ---------------------------------------------------------------------------
# Multi-window SLO burn-rate alerts (hourly spike gated by daily rate)
# ---------------------------------------------------------------------------

_HOUR_NS_SLO = 3_600_000_000_000
_DAY_NS_SLO = 24 * _HOUR_NS_SLO
SLO_FAST_RATE = 0.21   # hourly error-rate alert line (budget 0.2 x 1.05)
SLO_SLOW_RATE = 0.202  # daily gate (budget 0.2 x 1.01)


def slo_burn_alerts(events_ds, *, fast_rate: float = SLO_FAST_RATE,
                    slow_rate: float = SLO_SLOW_RATE):
    """Multi-window burn-rate alerting (the SRE-workbook pattern): an
    hour alerts only when ITS error rate crosses the fast line AND the
    containing day's rate crosses the slow line — the long window
    suppresses one-off blips, the short window catches fast burns
    early.

    Scale shape: per-block (hour, n, err) count partials; the ONE
    exchange is keyed on the (integer) DAY, so a shard task holds whole
    days of <= 24 hourly rows each and evaluates both window conditions
    locally — no second exchange, no join between the two window sizes.
    Rates are round-6 of exact integer counts, so both engines compare
    the identical numbers against the same literal thresholds.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("ns")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        err = pc.equal(batch.column("event_type"), "error") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"hour_ns": ts // _HOUR_NS_SLO * _HOUR_NS_SLO,
                          "err": err}) \
            .groupby("hour_ns", sort=False).agg(
                n=("err", "size"), err=("err", "sum")).reset_index()
        g["day"] = g["hour_ns"] // _DAY_NS_SLO
        return as_table(g, pa.schema([("hour_ns", _I), ("n", _I),
                                      ("err", _I), ("day", _I)]))

    def _alerts(df: pd.DataFrame) -> dict:
        g = df.groupby("hour_ns", sort=True).agg(
            n=("n", "sum"), err=("err", "sum")).reset_index()
        g["day_ns"] = g["hour_ns"] // _DAY_NS_SLO * _DAY_NS_SLO
        d = g.groupby("day_ns")[["n", "err"]].transform("sum")
        rate_1h = round_half_away(
            g["err"].to_numpy(np.float64) / g["n"].to_numpy(np.float64), 6)
        rate_1d = round_half_away(
            d["err"].to_numpy(np.float64) / d["n"].to_numpy(np.float64), 6)
        keep = (rate_1h >= fast_rate) & (rate_1d >= slow_rate)
        return {
            "hour_ns": g["hour_ns"].to_numpy(np.int64)[keep],
            "n": g["n"].to_numpy(np.int64)[keep],
            "err": g["err"].to_numpy(np.int64)[keep],
            "rate_1h": rate_1h[keep],
            "rate_1d": rate_1d[keep],
        }

    return sharded_aggregate(events_ds, _partial, _alerts, pa.schema([
        ("hour_ns", _I), ("n", _I), ("err", _I), ("rate_1h", _F),
        ("rate_1d", _F)]), key="day")


def _q_slo_burn(sf_dir: str):
    ds = read_parquet_file(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return slo_burn_alerts(ds)


from .registry import register as _register_slo  # noqa: E402

_register_slo(
    "events_slo_burn_alerts",
    _q_slo_burn,
    f"""
    WITH h AS (
        SELECT epoch_ns(ts) // {_HOUR_NS_SLO} * {_HOUR_NS_SLO} AS hour_ns,
               CAST(count(*) AS BIGINT) AS n,
               CAST(count(*) FILTER (event_type = 'error') AS BIGINT)
                   AS err
        FROM events GROUP BY 1
    ),
    w AS (
        SELECT h.*,
               hour_ns // {_DAY_NS_SLO} * {_DAY_NS_SLO} AS day_ns,
               sum(n) OVER (PARTITION BY hour_ns // {_DAY_NS_SLO}) AS dn,
               sum(err) OVER (PARTITION BY hour_ns // {_DAY_NS_SLO}) AS derr
        FROM h
    )
    SELECT hour_ns, n, err,
           round(CAST(err AS DOUBLE) / n, 6) AS rate_1h,
           round(CAST(derr AS DOUBLE) / dn, 6) AS rate_1d
    FROM w
    WHERE round(CAST(err AS DOUBLE) / n, 6) >= {SLO_FAST_RATE}
      AND round(CAST(derr AS DOUBLE) / dn, 6) >= {SLO_SLOW_RATE}
    """,
)


# ---------------------------------------------------------------------------
# Schema drift report: per (series, month) value-kind mix + first-seen flags
# ---------------------------------------------------------------------------

def schema_drift_report(samples_ds):
    """Per (series_key, epoch week, value_kind): sample count plus
    ``is_new_kind`` — true in the FIRST week that kind ever appears
    for the series.  The data-quality screen for evolving payloads: a
    field that starts arriving as strings (or nulls) after months of
    numbers shows up as a flagged new-kind row, before it breaks a
    downstream cast.

    Scale shape: per-block (series, week, kind) count partials —
    bounded by series x weeks x kinds per block; the ONE exchange is
    keyed on SERIES so a shard task holds each of its series' whole
    (week x kind) grid and computes first-appearance locally.  Counts
    are exact ints; the kind code matches the sample schema (0 null /
    1 number / 2 string).
    """
    week_ns = 7 * 86_400_000_000_000
    counts = _schema(("week_ns", _I), ("value_kind", _I), ("n", _I))

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("ns")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return as_table(pd.DataFrame({
            "series_key": batch.column("series_key").to_pandas(),
            "week_ns": ts // week_ns * week_ns,
            "value_kind": batch.column("value_kind")
            .to_numpy(zero_copy_only=False).astype(np.int64),
        }).groupby(["series_key", "week_ns", "value_kind"], sort=False)
            .size().reset_index(name="n"), counts)

    def _drift(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["series_key", "week_ns", "value_kind"],
                       sort=True)["n"].sum().reset_index()
        first = g.groupby(["series_key", "value_kind"])["week_ns"] \
            .transform("min")
        return g.assign(is_new_kind=g["week_ns"] == first)

    return sharded_aggregate(samples_ds, _partial, _drift, pa.schema([
        *counts, ("is_new_kind", pa.bool_())]))


def _q_schema_drift(sf_dir: str):
    return schema_drift_report(_events_samples(sf_dir))


from .registry import register as _register_drift  # noqa: E402
from ._events_sql import events_samples_sql as _drift_samples_sql  # noqa: E402

_register_drift(
    "events_schema_drift",
    _q_schema_drift,
    f"""
    WITH s AS ({_drift_samples_sql()}),
    k AS (
        SELECT series_key,
               ts_ns // 604800000000000 * 604800000000000 AS week_ns,
               CAST(CASE WHEN value_num IS NOT NULL THEN 1
                         WHEN value_str IS NOT NULL THEN 2
                         ELSE 0 END AS BIGINT) AS value_kind
        FROM s
    ),
    c AS (
        SELECT series_key, week_ns, value_kind,
               CAST(count(*) AS BIGINT) AS n
        FROM k GROUP BY 1, 2, 3
    )
    SELECT series_key, week_ns, value_kind, n,
           week_ns = min(week_ns) OVER (
               PARTITION BY series_key, value_kind) AS is_new_kind
    FROM c
    """,
)


def _q_user_balance_corr(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation between a user's event count and their
    customer account balance — the cross-TABLE alignment shape (events
    keyed by user_id, customer by c_custkey).

    Scale shape: events collapse to per-user counts via per-block
    ``value_counts`` partials + ONE exchange keyed on the user id; each
    shard task looks its users' balances up in the (small) customer map
    (loud ``MAX_BROADCAST_DIM_ROWS`` via ``relational._dim_map``,
    broadcast with the task) and emits one moment row, and the driver
    folds the per-shard moments.  Moment sums round to 6 on both
    engines, then one identical IEEE expression.
    """
    from .relational import _dim_map

    bal = _dim_map(f"{sf_dir}/customer.parquet", "c_custkey", "c_acctbal",
                   None)
    moments = ("sx", "sy", "sxx", "sxy", "syy")

    def _counts(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column("user_id"))
        return pa.table({
            "user_id": vc.field("values"),
            "cnt": vc.field("counts").cast(pa.int64()),
        })

    def _moments(df: pd.DataFrame) -> dict:
        cnt = df.groupby("user_id", sort=False)["cnt"].sum()
        # users without a customer row (or balance) drop out
        y = cnt.index.map(bal).to_numpy(np.float64)
        ok = ~np.isnan(y)
        x, y = cnt.to_numpy(np.float64)[ok], y[ok]
        return {"n": [len(x)], "sx": [x.sum()], "sy": [y.sum()],
                "sxx": [(x * x).sum()], "sxy": [(x * y).sum()],
                "syy": [(y * y).sum()]}

    m = sharded_aggregate(
        read_parquet_file(f"{sf_dir}/events.parquet", columns=["user_id"]),
        _counts, _moments,
        pa.schema([("n", _I), *((c, _F) for c in moments)]),
        key="user_id").to_pandas().sum()
    n = int(m["n"])
    if n < 2:
        return pd.DataFrame({
            "n_users": pd.Series([n], dtype="int64"),
            "corr": [np.nan],
        })
    sx, sy, sxx, sxy, syy = (round_half_away(np.float64(m[c]), 6)
                             for c in moments)
    denom = (n * sxx - sx * sx) * (n * syy - sy * sy)
    corr = ((n * sxy - sx * sy) / np.sqrt(denom) if denom > 0
            else np.nan)
    return pd.DataFrame({
        "n_users": pd.Series([n], dtype="int64"),
        "corr": [float(round_half_away(np.float64(corr), 6))],
    })


from .registry import register as _register_xcorr  # noqa: E402

_register_xcorr(
    "user_activity_balance_corr",
    _q_user_balance_corr,
    """
    WITH u AS (
        SELECT user_id, CAST(count(*) AS DOUBLE) AS x
        FROM events GROUP BY 1
    ),
    j AS (
        SELECT x, c_acctbal AS y
        FROM u JOIN customer ON user_id = c_custkey
    ),
    m AS (
        SELECT count(*) AS n,
               round(sum(x), 6) AS sx, round(sum(y), 6) AS sy,
               round(sum(x * x), 6) AS sxx,
               round(sum(x * y), 6) AS sxy,
               round(sum(y * y), 6) AS syy
        FROM j
    )
    SELECT CAST(n AS BIGINT) AS n_users,
           CASE WHEN (n * sxx - sx * sx) * (n * syy - sy * sy) > 0
                THEN round((n * sxy - sx * sy)
                           / sqrt((n * sxx - sx * sx)
                                  * (n * syy - sy * sy)), 6)
           END AS corr
    FROM m
    WHERE n >= 2
    """,
)


SPEARMAN_M1 = ("1996-01-01", "1996-02-01")
SPEARMAN_M2 = ("1996-02-01", "1996-03-01")

#: One task ranks one month's part-revenue table (dimension-bounded).
MAX_RANK_ROWS = 50_000_000


def _q_part_rank_stability(sf_dir: str) -> pd.DataFrame:
    """Spearman rank correlation of per-part revenue between two
    adjacent months — "do the same parts sell well month over month".

    Exactness: monthly revenues round to cents (the repo's revenue
    rule) so both engines rank IDENTICAL doubles; average-of-ties ranks
    are half-integers (exact); the final Pearson-on-ranks folds rounded
    moment sums through one identical IEEE expression.

    Scale shape: per-block (part, month) revenue partials -> ONE
    one-task gather that ranks each month and correlates the two; the
    task is dimension-bounded (loud ``MAX_RANK_ROWS`` per month; the
    remedy for a fact-scale key is the distributed prefix-rank of
    ``customer_spend_gini``); only parts present in BOTH months enter
    the correlation.
    """
    import datetime as _dt

    import pyarrow.dataset as pads

    lo = _dt.datetime.fromisoformat(SPEARMAN_M1[0])
    hi = _dt.datetime.fromisoformat(SPEARMAN_M2[1])
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo)
        & (pads.field("l_shipdate") < hi),
    )
    # numpy datetime64 arithmetic: timezone-free (datetime.timestamp()
    # would silently apply the host zone to the naive boundary)
    split_ns = int(np.datetime64(SPEARMAN_M2[0]).astype("datetime64[ns]")
                   .astype(np.int64))

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("l_shipdate").cast(pa.timestamp("ns")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        rev = (batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
               * (1.0 - batch.column("l_discount")
                  .to_numpy(zero_copy_only=False)))
        df = pd.DataFrame({
            "pk": batch.column("l_partkey").to_numpy(zero_copy_only=False),
            "mo": (ts >= split_ns).astype(np.int8),
            "rev": rev,
        })
        return as_table(
            df.groupby(["pk", "mo"], sort=False)["rev"].sum().reset_index(),
            pa.schema([("pk", _I), ("mo", pa.int8()), ("rev", _F)]))

    def _spearman(df: pd.DataFrame) -> dict:
        rows = int(df["mo"].value_counts().max())
        if rows > MAX_RANK_ROWS:
            raise ValueError(
                f"rank task holds {rows} rows (> MAX_RANK_ROWS="
                f"{MAX_RANK_ROWS}); use a distributed prefix-rank (see "
                "customer_spend_gini) for fact-scale keys")
        g = df.groupby(["mo", "pk"], sort=False)["rev"].sum().reset_index()
        # average rank with ties within each month, over the ROUNDED revenue
        g["rank"] = pd.Series(round_half_away(g["rev"].to_numpy(), 2)) \
            .groupby(g["mo"].to_numpy()).rank(method="average").to_numpy()
        wide = g.pivot_table(index="pk", columns="mo", values="rank",
                             aggfunc="first").dropna()
        x = wide[0].to_numpy(np.float64)
        y = wide[1].to_numpy(np.float64)
        n = len(x)
        if n < 2:
            return {"n_parts": [n], "spearman_rho": [np.nan]}
        sx = round_half_away(np.float64(x.sum()), 6)
        sy = round_half_away(np.float64(y.sum()), 6)
        sxx = round_half_away(np.float64((x * x).sum()), 6)
        sxy = round_half_away(np.float64((x * y).sum()), 6)
        syy = round_half_away(np.float64((y * y).sum()), 6)
        denom = (n * sxx - sx * sx) * (n * syy - sy * sy)
        rho = ((n * sxy - sx * sy) / np.sqrt(denom) if denom > 0
               else np.nan)
        return {"n_parts": [n],
                "spearman_rho": [float(round_half_away(np.float64(rho), 6))]}

    return sharded_aggregate(li, _partial, _spearman, pa.schema([
        ("n_parts", _I), ("spearman_rho", _F)]), key=None).to_pandas()


from .registry import register as _register_spearman  # noqa: E402

_register_spearman(
    "parts_rank_stability",
    _q_part_rank_stability,
    f"""
    WITH m AS (
        SELECT l_partkey AS pk,
               CASE WHEN l_shipdate >= TIMESTAMP '{SPEARMAN_M2[0]} 00:00:00'
                    THEN 1 ELSE 0 END AS mo,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS rev
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '{SPEARMAN_M1[0]} 00:00:00'
          AND l_shipdate <  TIMESTAMP '{SPEARMAN_M2[1]} 00:00:00'
        GROUP BY 1, 2
    ),
    r AS (
        SELECT pk, mo,
               (rank() OVER (PARTITION BY mo ORDER BY rev)
                + (count(*) OVER (PARTITION BY mo, rev) - 1) / 2.0)
                   AS rnk
        FROM m
    ),
    j AS (
        SELECT a.rnk AS x, b.rnk AS y
        FROM r a JOIN r b ON a.pk = b.pk AND a.mo = 0 AND b.mo = 1
    ),
    mm AS (
        SELECT count(*) AS n,
               round(sum(x), 6) AS sx, round(sum(y), 6) AS sy,
               round(sum(x * x), 6) AS sxx,
               round(sum(x * y), 6) AS sxy,
               round(sum(y * y), 6) AS syy
        FROM j
    )
    SELECT CAST(n AS BIGINT) AS n_parts,
           CASE WHEN (n * sxx - sx * sx) * (n * syy - sy * sy) > 0
                THEN round((n * sxy - sx * sy)
                           / sqrt((n * sxx - sx * sx)
                                  * (n * syy - sy * sy)), 6)
           END AS spearman_rho
    FROM mm
    WHERE n >= 2
    """,
)


def _q_orders_lognormal(sf_dir: str):
    """Log-normal fit of order totals per priority: MLE mu/sigma of
    ``ln(o_totalprice)`` (the standard heavy-tailed-spend model) with the
    implied median ``exp(mu)``.

    Scale shape: per-block (priority, n, sum, sumsq of ln) moment
    partials -> ONE exchange keyed on the priority; the rounded-moments
    rule makes the sigma expression identical on both engines.
    """
    def _partial(batch: pa.Table) -> pa.Table:
        pr = batch.column("o_orderpriority").to_pandas()
        lx = np.log(batch.column("o_totalprice")
                    .to_numpy(zero_copy_only=False))
        df = pd.DataFrame({"pri": pr, "lx": lx, "lx2": lx * lx})
        return as_table(df.groupby("pri", sort=False).agg(
            n=("lx", "size"), s=("lx", "sum"), ss=("lx2", "sum")
        ).reset_index(), pa.schema([("pri", _S), ("n", _I), ("s", _F),
                                    ("ss", _F)]))

    def _fit(df: pd.DataFrame) -> list:
        rows = []
        for pri, g in df.groupby("pri", sort=False):
            n = int(g["n"].sum())
            if n < 2:
                continue
            s = float(round_half_away(np.float64(g["s"].sum()), 6))
            ss = float(round_half_away(np.float64(g["ss"].sum()), 6))
            mu = float(round_half_away(np.float64(s / n), 6))
            var = (ss - s * s / n) / (n - 1)
            sigma = float(round_half_away(
                np.float64(np.sqrt(max(var, 0.0))), 6))
            rows.append((pri, n, mu, sigma,
                         round_half_away(np.exp(mu), 2)))
        return rows

    ds = read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"])
    return sharded_aggregate(ds, _partial, _fit, pa.schema([
        ("o_orderpriority", _S), ("n_orders", _I), ("mu", _F),
        ("sigma", _F), ("median_price", _F)]), key="pri")


from .registry import register as _register_lognorm  # noqa: E402

_register_lognorm(
    "orders_lognormal_fit",
    _q_orders_lognormal,
    """
    WITH m AS (
        SELECT o_orderpriority,
               CAST(count(*) AS BIGINT) AS n,
               round(sum(ln(o_totalprice)), 6) AS s,
               round(sum(ln(o_totalprice) * ln(o_totalprice)), 6) AS ss
        FROM orders GROUP BY 1
    )
    SELECT o_orderpriority, n AS n_orders,
           round(s / n, 6) AS mu,
           round(sqrt(greatest((ss - s * s / n) / (n - 1), 0)), 6)
               AS sigma,
           round(exp(round(s / n, 6)), 2) AS median_price
    FROM m WHERE n >= 2
    """,
)


def _q_brand_disc_qty_corr(sf_dir: str):
    """Per part brand: Pearson correlation between line-item discount
    and quantity — the "do discounts move volume" screen.  The brand
    arrives via a broadcast part->brand map (never a shuffle); per-block
    (brand, moments) partials fold through ONE exchange keyed on the
    brand; rounded moment sums feed one identical IEEE expression.
    """
    from .enrich import broadcast_join
    from .relational import _dim_map

    brand = _dim_map(f"{sf_dir}/part.parquet", "p_partkey", "p_brand",
                     None)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_discount", "l_quantity"])
    j = broadcast_join(li, brand, key="l_partkey", value_name="brand",
                       value_type=pa.string())
    moments = ("sx", "sy", "sxx", "sxy", "syy")

    def _moments(batch: pa.Table) -> pa.Table:
        x = batch.column("l_discount").to_numpy(zero_copy_only=False)
        y = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "brand": batch.column("brand").to_pandas(),
            "n": np.ones(len(x), dtype=np.int64),
            "sx": x, "sy": y, "sxx": x * x, "sxy": x * y, "syy": y * y,
        })
        return as_table(df.groupby("brand", sort=False).sum().reset_index(),
                        pa.schema([("brand", _S), ("n", _I),
                                   *((m, _F) for m in moments)]))

    def _corr(df: pd.DataFrame) -> list:
        rows = []
        for brand_, g in df.groupby("brand", sort=False):
            n = int(g["n"].sum())
            sx, sy, sxx, sxy, syy = (
                round_half_away(np.float64(g[m].sum()), 6) for m in moments)
            denom = (n * sxx - sx * sx) * (n * syy - sy * sy)
            if not (n >= 2 and denom > 0):
                continue
            corr = (n * sxy - sx * sy) / np.sqrt(denom)
            rows.append((brand_, n, round_half_away(corr, 6)))
        return rows

    return sharded_aggregate(j, _moments, _corr, pa.schema([
        ("brand", _S), ("n_items", _I), ("corr", _F)]), key="brand")


_register_xcorr(
    "brand_discount_quantity_corr",
    _q_brand_disc_qty_corr,
    """
    WITH m AS (
        SELECT p.p_brand AS brand,
               CAST(count(*) AS BIGINT) AS n,
               round(sum(l_discount), 6) AS sx,
               round(sum(l_quantity), 6) AS sy,
               round(sum(l_discount * l_discount), 6) AS sxx,
               round(sum(l_discount * l_quantity), 6) AS sxy,
               round(sum(l_quantity * l_quantity), 6) AS syy
        FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        GROUP BY 1
    )
    SELECT brand, n AS n_items,
           round((n * sxy - sx * sy)
                 / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)), 6)
               AS corr
    FROM m
    WHERE n >= 2 AND (n * sxx - sx * sx) * (n * syy - sy * sy) > 0
    """,
)


# ---------------------------------------------------------------------------
# Histogram quantile (promql-style interpolation over fixed buckets)
# ---------------------------------------------------------------------------

def hist_quantile(samples_ds, *, lo: float = 0.0, hi: float = 1000.0,
                  n_bins: int = 25, ps=(0.5, 0.9, 0.99)):
    """Per-series interpolated quantiles from the FIXED-bucket histogram
    (the ``value_histogram`` scheme) — the promql ``histogram_quantile``
    algorithm: rank = p * total, pick the first bucket whose cumulative
    count reaches the rank, interpolate linearly inside it.  This is the
    monitoring-system quantile (exact given the buckets, approximate for
    the underlying values), vs ``events_value_percentiles`` which is
    exact over raw values.

    Scale shape: rides the histogram combiner — every block collapses to
    <= n_series x n_bins partials, the one ``series_key`` exchange merges
    them, and each series' interpolation runs over its <= n_bins rows of
    the shard.  The raw values never shuffle, which is the whole point at
    100 TB.

    Hash parity: rank/cum/cnt are exact (integers and p * total), the
    single rounded derivation is the final interpolated value with the
    identical expression tree ``round(bin_lo + (rank - cum_before)
    * width / cnt, 6)`` on both engines."""
    width = (hi - lo) / n_bins

    def _interp(df: pd.DataFrame) -> list:
        h, bounds = _runs(_hist_merge(df, lo, width), ["series_key"])
        keys, bin_lo = h["series_key"].to_numpy(), h["bin_lo"].to_numpy()
        counts = h["n"].to_numpy(np.float64)
        rows = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            cnt = counts[a:b]
            cum = np.cumsum(cnt)
            total = cum[-1]
            for p in ps:
                rank = p * total
                i = int(np.searchsorted(cum, rank, side="left"))
                i = min(i, len(cnt) - 1)
                cum_before = cum[i] - cnt[i]
                q = round_half_away(
                    bin_lo[a + i] + (rank - cum_before) * width / cnt[i], 6)
                rows.append((keys[a], p, int(total), q))
        return rows

    return sharded_aggregate(samples_ds, _hist_partial(lo, width, n_bins),
                             _interp, _schema(("p", _F), ("total", _I),
                                              ("q", _F)))


def _register_analytics5() -> None:
    from ._events_sql import EVENTS_NUMERIC_SQL
    from .registry import register

    ps_sql = "SELECT unnest([0.5, 0.9, 0.99]) AS p"
    register(
        "events_hist_quantile",
        lambda sf: hist_quantile(_events_samples(sf)),
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        b AS (
            SELECT series_key,
                   CAST(LEAST(GREATEST(
                       floor((value_num - 0.0) / 40.0), 0), 24) AS BIGINT
                   ) AS bin
            FROM num
        ),
        h AS (
            SELECT series_key, bin, count(*) AS n
            FROM b GROUP BY series_key, bin
        ),
        c AS (
            SELECT series_key, bin, n,
                   sum(n) OVER (
                       PARTITION BY series_key ORDER BY bin) AS cum,
                   sum(n) OVER (PARTITION BY series_key) AS total
            FROM h
        ),
        pick AS (
            SELECT c.series_key, p.p, c.total,
                   min(c.bin) AS bin
            FROM c CROSS JOIN ({ps_sql}) p
            WHERE c.cum >= p.p * c.total
            GROUP BY c.series_key, p.p, c.total
        )
        SELECT pick.series_key, pick.p,
               CAST(pick.total AS BIGINT) AS total,
               round(0.0 + pick.bin * 40.0
                     + (pick.p * pick.total - (c.cum - c.n)) * 40.0 / c.n,
                     6) AS q
        FROM pick JOIN c
          ON c.series_key = pick.series_key AND c.bin = pick.bin
        """,
    )


_register_analytics5()
