"""Downsampling + retention operators: stride, LTTB, counter-rate, hopping
windows, and tier expiry.

The reference has no downsampling at all (it is a per-document flat-map,
SURVEY.md §2.6); these operators complete the "rollup + downsample +
retention" triad mandated by ``BASELINE.json`` (``north_rule``).  All of
them run over the extracted numeric sample stream (SAMPLE_SCHEMA) or the
rollup-ladder output and follow the same scale shape as the ladder
(stages/rollup.py): vectorized per-batch work, at most one
``groupby("series_key")`` shuffle, per-series numpy kernels inside
``map_groups``.

Partitioning assumption (documented per the custom-operator rule): the
per-series operators (stride rank, LTTB, rate) need each series' points
co-located and ordered, so they shuffle on ``series_key`` — series count
must be >= desired parallelism for full speed-up, which holds for
IoT/metrics corpora where series cardinality ~ device x field.  A corpus
of ONE giant series cannot be order-downsampled in parallel without a
range-partitioned variant (window-chunked stride), which `hopping_rollup`
demonstrates: it pre-aggregates per hop bucket inside ``map_batches`` so
the shuffle moves bounded partials, never raw samples.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.rollup import (
    WINDOW_NS,
    PartialRollupStage,
    _merge,
    _partial_rows,
)
from ..state.checkpoint import shard_apply
from ._util import round_half_away

_ORDER = ["ts_ns", "doc_id", "ordinal"]


from .analytics import _numeric as _numeric_samples  # shared projection


def stride_downsample(samples_ds, n: int):
    """Keep every ``n``-th numeric point per series (systematic sampling),
    ordered by ``(ts, doc_id, ordinal)`` — the engine's deterministic total
    order (SURVEY.md §7.3.3).  One shuffle on ``series_key``."""

    def _stride_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_ORDER, kind="stable", ignore_index=True)
        out = df.iloc[::n]
        return out[["series_key", "ts_ns", "value_num"]]

    return (
        samples_ds.map_batches(_numeric_samples, batch_format="pyarrow",
                               zero_copy_batch=True)
        .groupby("series_key")
        .map_groups(_stride_group, batch_format="pandas")
    )


def lttb_series(ts: np.ndarray, values: np.ndarray, k: int):
    """Largest-Triangle-Three-Buckets downsample of one series to ``k``
    points (Steinarsson 2013, public algorithm).  Inputs must be sorted by
    ``ts``.  Returns index array into the inputs; first and last points are
    always kept."""
    n = len(ts)
    if k >= n or k <= 2:
        return np.arange(n) if k >= n else np.array([0, n - 1][: max(k, 1)])
    # Bucket boundaries over the interior points (exclusive of endpoints).
    edges = np.linspace(1, n - 1, k - 1).astype(np.int64)
    out = np.empty(k, dtype=np.int64)
    out[0] = 0
    x = ts.astype(np.float64)
    y = values.astype(np.float64)
    a = 0  # index of the previously selected point
    for i in range(k - 2):
        lo, hi = edges[i], edges[i + 1]
        if hi <= lo:  # int-cast collision made this bucket empty
            out[i + 1] = a
            continue
        nxt_lo, nxt_hi = edges[i + 1], n if i == k - 3 else edges[i + 2]
        if nxt_hi <= nxt_lo:
            nxt_hi = nxt_lo + 1
        # Average of the NEXT bucket is the third triangle vertex.
        avg_x = x[nxt_lo:nxt_hi].mean()
        avg_y = y[nxt_lo:nxt_hi].mean()
        bx = x[lo:hi]
        by = y[lo:hi]
        # Triangle areas vs (a, candidate, next-bucket average), vectorized.
        area = np.abs(
            (x[a] - avg_x) * (by - y[a]) - (x[a] - bx) * (avg_y - y[a])
        )
        a = lo + int(area.argmax())
        out[i + 1] = a
    out[k - 1] = n - 1
    return out


def lttb_downsample(samples_ds, k: int):
    """Per-series LTTB downsample to ``k`` visually-representative points.
    Non-SQL-expressible (iterative bucket selection) — driver check is
    rows-only; exactness is pinned by tests against the serial kernel."""

    def _lttb_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_ORDER, kind="stable", ignore_index=True)
        idx = lttb_series(
            df["ts_ns"].to_numpy(), df["value_num"].to_numpy(), k
        )
        out = df.iloc[idx]
        return out[["series_key", "ts_ns", "value_num"]]

    return (
        samples_ds.map_batches(_numeric_samples, batch_format="pyarrow",
                               zero_copy_batch=True)
        .groupby("series_key")
        .map_groups(_lttb_group, batch_format="pandas")
    )


def lttb_structure_report(samples_ds, k: int):
    """Run the REAL per-series LTTB, then emit its SQL-pinnable
    structural invariants (round-4 verdict item 7): input/output point
    counts, the first/last point identity (LTTB always keeps the
    endpoints of the engine's total order — hash-checking them verifies
    the ordering itself), and two engine-checked booleans the oracle
    pins TRUE — ``buckets_ok`` (the i-th interior selection falls in its
    ``linspace`` rank bucket, or repeats the previous selection on an
    int-cast-empty bucket) and ``monotone_ok`` (selected ranks are
    nondecreasing).  The selected interior POINTS stay engine-side
    (iterative triangle maximization has no SQL twin) and are pinned
    exactly by tests/test_downsample.py against the serial kernel."""

    def _group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_ORDER, kind="stable", ignore_index=True)
        ts = df["ts_ns"].to_numpy()
        vals = df["value_num"].to_numpy()
        idx = lttb_series(ts, vals, k)
        n = len(df)
        buckets_ok = True
        if 2 < k < n:
            edges = np.linspace(1, n - 1, k - 1).astype(np.int64)
            interior = idx[1:-1]
            in_bucket = (edges[:-1] <= interior) & (interior < edges[1:])
            repeats = np.r_[interior[0] == idx[0],
                            interior[1:] == interior[:-1]]
            buckets_ok = bool(np.all(in_bucket | repeats))
        monotone_ok = bool(np.all(np.diff(idx) >= 0))
        return pd.DataFrame({
            "series_key": df["series_key"].iloc[:1],
            "n_input": pd.Series([n], dtype="int64"),
            "k_points": pd.Series([len(idx)], dtype="int64"),
            "first_ts_ns": pd.Series([ts[idx[0]]], dtype="int64"),
            "first_value": pd.Series([vals[idx[0]]], dtype="float64"),
            "last_ts_ns": pd.Series([ts[idx[-1]]], dtype="int64"),
            "last_value": pd.Series([vals[idx[-1]]], dtype="float64"),
            "buckets_ok": pd.Series([buckets_ok], dtype="bool"),
            "monotone_ok": pd.Series([monotone_ok], dtype="bool"),
        })

    return (
        samples_ds.map_batches(_numeric_samples, batch_format="pyarrow",
                               zero_copy_batch=True)
        .groupby("series_key")
        .map_groups(_group, batch_format="pandas")
    )


def rate_increase(samples_ds):
    """Counter-reset-aware per-point increase (PromQL ``increase``
    semantics over adjacent points): ``v[i] - v[i-1]`` when non-negative,
    else ``v[i]`` (the counter restarted from ~0).  The first point of each
    series emits nothing.  Adjacent-difference needs per-series order ->
    one ``series_key`` shuffle; the diff itself is one numpy subtract."""

    def _rate_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_ORDER, kind="stable", ignore_index=True)
        v = df["value_num"].to_numpy()
        if len(v) < 2:
            return pd.DataFrame(
                {"series_key": [], "ts_ns": [], "increase": []}
            ).astype({"series_key": "object", "ts_ns": "int64",
                      "increase": "float64"})
        delta = v[1:] - v[:-1]
        increase = np.where(delta < 0, v[1:], delta)
        return pd.DataFrame(
            {
                "series_key": df["series_key"].to_numpy()[1:],
                "ts_ns": df["ts_ns"].to_numpy()[1:],
                "increase": increase,
            }
        )

    return (
        samples_ds.map_batches(_numeric_samples, batch_format="pyarrow",
                               zero_copy_batch=True)
        .groupby("series_key")
        .map_groups(_rate_group, batch_format="pandas")
    )


def hopping_rollup(samples_ds, *, width_ns: int, hop_ns: int,
                   batch_size: int = 65536, round_digits: int = 6):
    """Hopping (sliding) tumbling-window aggregate: windows of ``width_ns``
    every ``hop_ns`` (width must be a multiple of hop); each point lands in
    ``width/hop`` windows.

    Scale shape: points are FIRST collapsed to per-(series, hop-bucket)
    partials inside ``map_batches`` (the ladder's combiner with
    ``window_ns=hop``), so the expansion to ``k = width/hop`` overlapping
    windows multiplies bounded partials — not raw samples — and happens
    after the one shard-keyed shuffle (``state/checkpoint.shard_apply``),
    where the rank-coded tier merge (``stages/rollup._merge``) folds the
    copies of every series of the shard at once.
    """
    if width_ns % hop_ns:
        raise ValueError("width_ns must be a multiple of hop_ns")
    k = width_ns // hop_ns

    def _expand_shard(t: pa.Table) -> pa.Table:
        rows, keys, _ = _partial_rows(t)
        rep = np.repeat(np.arange(t.num_rows), k)
        rows = {c: v[rep] for c, v in rows.items()}
        # bucket b belongs to every window start s = b - i*hop, i in [0, k):
        # s <= b and b < s + width.
        rows["window_start"] -= np.tile(np.arange(k, dtype=np.int64) * hop_ns,
                                        t.num_rows)
        merged = _merge(rows, hop_ns)
        sums = round_half_away(merged["sum"], round_digits)
        return pa.table({
            "series_key": keys.take(merged["series_key"]),
            "window_ns": merged["window_start"],
            "count": merged["count"],
            "sum": sums,
            "min": merged["min"],
            "max": merged["max"],
            "mean": round_half_away(sums / merged["count"], round_digits),
        })

    partials = samples_ds.map_batches(
        PartialRollupStage(hop_ns),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    return shard_apply(partials, _expand_shard)


# Default retention policy for the ladder tiers, relative to the corpus
# watermark (max observed sample ts): fine tiers age out first.
DEFAULT_TTL_NS = {
    "1m": 2 * WINDOW_NS["1d"],
    "1h": 7 * WINDOW_NS["1d"],
    "1d": 30 * WINDOW_NS["1d"],
}


def expire_rows(rollups: pa.Table, ttl_ns: dict,
                watermark_ns: int | None) -> pa.Table:
    """Rollup rows -> the rows with ``window_start >= watermark -
    ttl[tier]`` (a tier without a TTL keeps every row).  With no
    watermark, or no rows (an empty shard), the rows are returned as they
    are."""
    if watermark_ns is None or not rollups.num_rows:
        return rollups
    cutoffs = {tier: watermark_ns - ttl for tier, ttl in ttl_ns.items()}
    tiers = rollups.column("tier").to_numpy(zero_copy_only=False)
    starts = rollups.column("window_start").cast(pa.int64()).to_numpy()
    cut = np.array([cutoffs.get(t, -(1 << 62)) for t in tiers])
    return rollups.filter(pa.array(starts >= cut))


def retention_expire(rollup_ds, ttl_ns: dict[str, int] | None = None,
                     watermark_ns: int | None = None):
    """Apply per-tier TTLs to rollup-ladder output: keep a window iff
    ``window_start >= watermark - ttl[tier]``.

    The watermark (max ``last_ts`` across the ladder) is computed with a
    tiny ``Dataset.max`` aggregate and broadcast into the filter closure —
    a scalar, never a shuffle.  Expiry itself is an embarrassingly parallel
    ``map_batches`` filter (``expire_rows``, which the job's retention pass
    runs per committed shard with the manifest's watermark).
    """
    ttl_ns = dict(DEFAULT_TTL_NS if ttl_ns is None else ttl_ns)
    if watermark_ns is None:
        # The max() aggregate executes the upstream pipeline; without
        # pinning the ladder output (tiny: #series x windows), the expiry
        # filter below would re-execute extraction + rollup a second time.
        rollup_ds = rollup_ds.materialize()
        wm = rollup_ds.max("last_ts")
        watermark_ns = int(pd.Timestamp(wm).value)
    return rollup_ds.map_batches(
        expire_rows, fn_args=(ttl_ns, watermark_ns), batch_format="pyarrow",
        zero_copy_batch=True)


def ladder_for_compare(rollup_ds, *, round_digits: int = 6):
    """Project full ladder output (all tiers) to the oracle-comparable
    shape — rollup_tier_for_compare's rounding rules with ``tier`` kept."""

    def _project(batch: pa.Table) -> pa.Table:
        sum_r = round_half_away(
            batch.column("sum").to_numpy(zero_copy_only=False), round_digits
        )
        count = batch.column("count").to_numpy(zero_copy_only=False)
        mean_r = round_half_away(sum_r / count, round_digits)
        return pa.table(
            {
                "tier": batch.column("tier"),
                "series_key": batch.column("series_key"),
                "window_ns": batch.column("window_start").cast(pa.int64()),
                "min": batch.column("min"),
                "max": batch.column("max"),
                "mean": pa.array(mean_r),
                "sum": pa.array(sum_r),
                "count": batch.column("count"),
                "last": batch.column("last"),
                "last_ts_ns": batch.column("last_ts").cast(pa.int64()),
            }
        )

    return rollup_ds.map_batches(_project, batch_format="pyarrow",
                                 zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Driver queries (events corpus -> extract -> downsample/rate/retention)
# ---------------------------------------------------------------------------

from .analytics import _events_samples  # shared driver-sample helper


def _q_stride(sf_dir: str):
    return stride_downsample(_events_samples(sf_dir), 3)


def _q_lttb(sf_dir: str):
    return lttb_structure_report(_events_samples(sf_dir), 200)


def _q_rate(sf_dir: str):
    return rate_increase(_events_samples(sf_dir))


def _q_hopping(sf_dir: str):
    return hopping_rollup(
        _events_samples(sf_dir),
        width_ns=5 * WINDOW_NS["1m"],
        hop_ns=WINDOW_NS["1m"],
    )


def _q_retention(sf_dir: str):
    from ..stages.rollup import rollup_ladder

    ladder = rollup_ladder(_events_samples(sf_dir), tiers=("1m", "1h", "1d"))
    return ladder_for_compare(retention_expire(ladder))




# ---------------------------------------------------------------------------
# Min-max decimation (plot-oriented: keep each bucket's extremes)
# ---------------------------------------------------------------------------

def minmax_decimate(samples_ds, *, bucket_ns: int):
    """Per (series, time bucket): the min-value point and the max-value
    point with their REAL timestamps (kind = 'min' / 'max'; a
    single-point bucket emits both kinds for that point) — the
    decimation that preserves envelopes/spikes for plotting where mean
    rollups smooth them away.  Ties on value resolve to the earliest
    ``(ts, doc_id, ordinal)`` in the engine's total order.

    Scale shape (the ``hopping_rollup`` discipline): each block reduces
    to at most one min- and one max-candidate row per (series, bucket)
    BEFORE the exchange, so the one shard shuffle moves bounded
    partials, never raw samples — one giant series costs the same as
    many small ones.
    """
    from ._util import hash_shards

    cols = ["series_key", "bucket_ns", "ts_ns", "value_num",
            "doc_id", "ordinal"]

    def _extreme(df, ascending_value):
        return df.sort_values(
            ["series_key", "bucket_ns", "value_num", "ts_ns", "doc_id",
             "ordinal"],
            ascending=[True, True, ascending_value, True, True, True],
            kind="mergesort",
        ).drop_duplicates(["series_key", "bucket_ns"], keep="first")

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "series_key": batch.column("series_key").to_pandas(),
            "ts_ns": batch.column("ts_ns").to_numpy(zero_copy_only=False),
            "value_num": batch.column("value_num")
            .to_numpy(zero_copy_only=False),
            "doc_id": batch.column("doc_id").to_pandas(),
            "ordinal": batch.column("ordinal")
            .to_numpy(zero_copy_only=False),
        })
        df["bucket_ns"] = df["ts_ns"] // bucket_ns * bucket_ns
        lo = _extreme(df, True).assign(kind="min")
        hi = _extreme(df, False).assign(kind="max")
        out = pd.concat([lo[cols + ["kind"]], hi[cols + ["kind"]]],
                        ignore_index=True)
        out["shard"] = hash_shards(out["series_key"], 64,
                                   mix=out["bucket_ns"])
        return pa.Table.from_pandas(out, preserve_index=False)

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        lo = _extreme(df[df["kind"] == "min"], True)
        hi = _extreme(df[df["kind"] == "max"], False)
        out = pd.concat([lo, hi], ignore_index=True)
        return out[["series_key", "bucket_ns", "kind", "ts_ns",
                    "value_num"]]

    return (
        samples_ds.map_batches(_numeric_samples, batch_format="pyarrow",
                               zero_copy_batch=True)
        .map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard").map_groups(_merge, batch_format="pandas")
    )


def _q_minmax(sf_dir: str):
    return minmax_decimate(_events_samples(sf_dir),
                           bucket_ns=WINDOW_NS["1h"])


def _register_queries() -> None:
    from ._events_sql import EVENTS_NUMERIC_SQL
    from .registry import register

    hop = WINDOW_NS["1m"]

    register(
        "events_stride_downsample",
        _q_stride,
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
        SELECT series_key, ts_ns, value_num FROM r WHERE (rn - 1) % 3 = 0
        """,
    )

    # LTTB's iterative bucket selection is not SQL-expressible, so the
    # driver gate checks the structural report instead: exact counts +
    # endpoint identity + pinned bucket/monotonicity invariants.  The
    # selected interior points are pinned by tests/test_downsample.py.
    register(
        "events_lttb_downsample",
        _q_lttb,
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        o AS (
            SELECT series_key, ts_ns, value_num,
                   row_number() OVER win AS rn,
                   count(*) OVER (PARTITION BY series_key) AS n
            FROM num
            WINDOW win AS (PARTITION BY series_key
                           ORDER BY ts_ns, doc_id, ordinal)
        )
        SELECT series_key,
               CAST(max(n) AS BIGINT) AS n_input,
               CAST(least(max(n), 200) AS BIGINT) AS k_points,
               CAST(arg_min(ts_ns, rn) AS BIGINT) AS first_ts_ns,
               arg_min(value_num, rn) AS first_value,
               CAST(arg_max(ts_ns, rn) AS BIGINT) AS last_ts_ns,
               arg_max(value_num, rn) AS last_value,
               true AS buckets_ok,
               true AS monotone_ok
        FROM o GROUP BY series_key
        """,
    )

    bucket = WINDOW_NS["1h"]
    register(
        "events_minmax_1h",
        _q_minmax,
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        b AS (
            SELECT series_key, ts_ns - ts_ns % {bucket} AS bucket_ns,
                   ts_ns, value_num, doc_id, ordinal
            FROM num
        ),
        lo AS (
            SELECT series_key, bucket_ns, 'min' AS kind, ts_ns, value_num,
                   row_number() OVER (
                       PARTITION BY series_key, bucket_ns
                       ORDER BY value_num, ts_ns, doc_id, ordinal
                   ) AS rn
            FROM b
        ),
        hi AS (
            SELECT series_key, bucket_ns, 'max' AS kind, ts_ns, value_num,
                   row_number() OVER (
                       PARTITION BY series_key, bucket_ns
                       ORDER BY value_num DESC, ts_ns, doc_id, ordinal
                   ) AS rn
            FROM b
        )
        SELECT series_key, bucket_ns, kind, ts_ns, value_num
        FROM lo WHERE rn = 1
        UNION ALL
        SELECT series_key, bucket_ns, kind, ts_ns, value_num
        FROM hi WHERE rn = 1
        """,
    )

    register(
        "events_rate_increase",
        _q_rate,
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        d AS (
            SELECT series_key, ts_ns, value_num,
                   lag(value_num) OVER (
                       PARTITION BY series_key
                       ORDER BY ts_ns, doc_id, ordinal
                   ) AS prev
            FROM num
        )
        SELECT series_key, ts_ns,
               CASE WHEN value_num - prev < 0 THEN value_num
                    ELSE value_num - prev END AS increase
        FROM d WHERE prev IS NOT NULL
        """,
    )

    register(
        "events_hopping_5m_1m",
        _q_hopping,
        f"""
        WITH num AS ({EVENTS_NUMERIC_SQL}),
        off AS (SELECT unnest(generate_series(0, 4)) AS i),
        b AS (
            SELECT series_key,
                   ts_ns - (ts_ns % {hop}) - i * {hop} AS window_ns,
                   value_num
            FROM num CROSS JOIN off
        )
        SELECT series_key, window_ns, count(*) AS count,
               round(sum(value_num), 6) AS sum,
               min(value_num) AS min, max(value_num) AS max,
               round(round(sum(value_num), 6) / count(*), 6) AS mean
        FROM b GROUP BY series_key, window_ns
        """,
    )

    from ._events_sql import rollup_tier_sql

    # Watermark = max numeric-sample ts = max events ts (every event emits
    # numeric samples at its own timestamp).
    wm = "(SELECT max(epoch_ns(ts)) FROM events)"
    tier_selects = []
    for tier in ("1m", "1h", "1d"):
        ttl = DEFAULT_TTL_NS[tier]
        tier_selects.append(
            f"SELECT '{tier}' AS tier, * FROM ({rollup_tier_sql(WINDOW_NS[tier])}) "
            f"WHERE window_ns >= {wm} - {ttl}"
        )
    register(
        "events_retention_expire",
        _q_retention,
        " UNION ALL ".join(tier_selects),
    )


_register_queries()
