"""Population Stability Index (PSI): distribution drift per series.

The standard model-monitoring drift measure: split each series' samples
at its time midpoint, bucket BOTH halves by the FIRST half's decile
edges, and score ``PSI = sum_i (p_i - q_i) * ln(p_i / q_i)`` over the
10 buckets (q = first-half share, p = second-half share, both Laplace-
smoothed ``(count + 0.5) / (total + 5.0)`` so empty buckets stay
finite).  PSI < 0.1 reads as stable, > 0.25 as drifted.

EXACTNESS: decile edges interpolate over per-distinct-value counts with
DuckDB's own lerp ``v_lo*(1-frac) + v_hi*frac`` at position ``q*(n-1)``
— verified bit-identical to ``quantile_cont`` on shared inputs (numpy's
``v_lo + frac*(v_hi-v_lo)`` is one ULP off on some fracs); bucket
membership counts strict ``v > edge`` on those identical doubles.  Shares are exact ratios of half-integers;
the 10-term PSI sum rounds to 6 decimals on both engines (log ULP noise
far inside the window).

Scale shape: pass A is a (series -> min/max ts) combiner whose result
is one row per SERIES (guarded by ``MAX_SERIES``, broadcast into pass
B); pass B aggregates ``(series, value, half)`` counts inside
``map_batches`` and routes each distinct value to a VALUE-ORDERED shard
(``_util.value_ordered_shards``), so NO task ever holds a whole
series' distinct-value table.  The decile edges are found by the
shard-navigation two-round pass: round 1 collects per-(series, shard)
count summaries to the driver (tiny), which locates the shard holding
each decile position; round 2 broadcasts the position requests and
each shard task extracts only its own requested values; the driver
assembles the edges with the exact ``quantile_cont`` lerp and round 3
buckets the partials against the broadcast edges.  The Wasserstein
companion distributes the same way: per-shard interior CDF terms with
driver-computed count offsets, plus driver-side cross-shard boundary
terms.  Per-SLICE size is bounded by ``MAX_SHARD_DISTINCT`` — a true
task-memory bound, tunable via ``value_shards``.

Reference anchor: extraction-only reference (SURVEY.md §2); extends the
engine-mandated analytics/monitoring family (§2.6).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import (
    MAX_DRIVER_FOLD_ROWS,
    round_half_away,
    value_ordered_shards,
)
from .registry import register

N_BUCKETS = 10
_QS = tuple((i + 1) / 10 for i in range(9))

#: Pass A's per-series midpoint table reaches the driver — bound it.
MAX_SERIES = 1_000_000

#: One task holds one (series, value-shard) SLICE of the distinct-value
#: table (see ranktests.MAX_SHARD_DISTINCT for the sizing argument).
MAX_SHARD_DISTINCT = 20_000_000


def _weighted_quantiles(uv: np.ndarray, uc: np.ndarray, qs) -> np.ndarray:
    """quantile_cont over (sorted distinct values, counts) — bit-equal to
    DuckDB's interpolation on the expanded multiset.  DuckDB evaluates
    ``vlo*(1-frac) + vhi*frac`` (numpy's ``vlo + frac*(vhi-vlo)`` differs
    by one ULP on some fracs — verified, so this MUST stay the lerp
    form)."""
    cum = np.cumsum(uc)
    n = int(cum[-1])
    out = np.empty(len(qs))
    for i, q in enumerate(qs):
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        frac = pos - lo
        vlo = uv[np.searchsorted(cum, lo, side="right")]
        vhi = (uv[np.searchsorted(cum, lo + 1, side="right")]
               if lo + 1 <= n - 1 else vlo)
        out[i] = vlo * (1 - frac) + vhi * frac
    return out


def _series_midpoints(samples_ds) -> dict:
    """Pass A: per-series ``(min_ts + max_ts) // 2`` (integer ns)."""

    def _minmax(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch.column("value_num").is_valid())
        df = pd.DataFrame({
            "series_key": t.column("series_key").to_pandas(),
            "ts_ns": t.column("ts").cast(pa.timestamp("ns"))
            .cast(pa.int64()).to_numpy(zero_copy_only=False),
        })
        g = df.groupby("series_key", sort=False)["ts_ns"] \
            .agg(ts_min="min", ts_max="max").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "series_key": df["series_key"].iloc[:1],
            "ts_min": pd.Series([df["ts_min"].min()], dtype="int64"),
            "ts_max": pd.Series([df["ts_max"].max()], dtype="int64"),
        })

    parts = samples_ds.map_batches(_minmax, batch_format="pyarrow",
                                   zero_copy_batch=True).materialize()
    if parts.count() <= MAX_DRIVER_FOLD_ROWS:
        # per-BLOCK series min/max rows fold on the driver — no shuffle
        g = parts.to_pandas().groupby("series_key", sort=False).agg(
            ts_min=("ts_min", "min"), ts_max=("ts_max", "max"))
        if len(g) > MAX_SERIES:
            raise ValueError(
                f"psi_drift saw {len(g)} series (> MAX_SERIES="
                f"{MAX_SERIES}); broadcastable per-series midpoints no "
                "longer fit — shuffle-join the midpoints instead"
            )
        return {k: (int(r.ts_min) + int(r.ts_max)) // 2
                for k, r in g.iterrows()}
    rows = (
        parts.groupby("series_key").map_groups(_merge,
                                               batch_format="pandas")
        .take_all()
    )
    if len(rows) > MAX_SERIES:
        raise ValueError(
            f"psi_drift saw {len(rows)} series (> MAX_SERIES="
            f"{MAX_SERIES}); broadcastable per-series midpoints no "
            "longer fit — shuffle-join the midpoints instead"
        )
    return {r["series_key"]: (int(r["ts_min"]) + int(r["ts_max"])) // 2
            for r in rows}


def _sharded_partials(samples_ds, mids: dict, value_shards: int):
    """``(series_key, v, half, cnt, vshard)`` distinct-value partials
    with value-ordered shard ids, MATERIALIZED once and reused by the
    multi-round passes.  Bounded: O(blocks x per-block distinct) rows —
    the same relation the old single-task design shuffled, never raw
    samples."""

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch.column("value_num").is_valid())
        sk = t.column("series_key").to_pandas()
        ts = t.column("ts").cast(pa.timestamp("ns")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        mid = sk.map(mids).to_numpy(dtype=np.int64)
        df = pd.DataFrame({
            "series_key": sk,
            "v": t.column("value_num").to_numpy(zero_copy_only=False),
            "half": (ts > mid).astype(np.int8),
            "cnt": np.ones(t.num_rows, dtype=np.int64),
        })
        g = df.groupby(["series_key", "v", "half"], sort=False)["cnt"] \
            .sum().reset_index()
        g["vshard"] = value_ordered_shards(g["v"].to_numpy(), value_shards)
        return pa.Table.from_pandas(g, preserve_index=False)

    return samples_ds.map_batches(_partial, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()


def _shard_summaries(parts) -> pd.DataFrame:
    """Round 1: per (series, vshard) first/second-half counts + merged
    value range — ~|series| x |occupied shards| single rows to the
    driver, sorted so cumulative offsets accumulate in value order."""

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["v", "half"], sort=False)["cnt"].sum().reset_index()
        nd = g["v"].nunique()
        if nd > MAX_SHARD_DISTINCT:
            raise ValueError(
                f"series {df['series_key'].iloc[0]!r} value-shard "
                f"{int(df['vshard'].iloc[0])} holds {nd} distinct values "
                f"(> MAX_SHARD_DISTINCT={MAX_SHARD_DISTINCT}); raise "
                "value_shards to split binades finer"
            )
        return pd.DataFrame({
            "series_key": df["series_key"].iloc[:1],
            "vshard": pd.Series([int(df["vshard"].iloc[0])],
                                dtype="int64"),
            "cnt0": pd.Series([int(g.loc[g["half"] == 0, "cnt"].sum())],
                              dtype="int64"),
            "cnt1": pd.Series([int(g.loc[g["half"] == 1, "cnt"].sum())],
                              dtype="int64"),
            "vmin": pd.Series([float(g["v"].min())], dtype="float64"),
            "vmax": pd.Series([float(g["v"].max())], dtype="float64"),
        })

    return (
        parts.groupby(["series_key", "vshard"])
        .map_groups(_sum, batch_format="pandas")
        .to_pandas()
        .sort_values(["series_key", "vshard"], ignore_index=True)
    )


def psi_drift(samples_ds, *, round_digits: int = 6, value_shards: int = 64,
              driver_fold_rows: int = MAX_DRIVER_FOLD_ROWS):
    """Per series: first/second-half sizes and the decile-bucket PSI,
    via the distributed shard-navigation quantile (module docstring),
    with the adaptive driver fold for small partial relations."""
    import ray

    mids = _series_midpoints(samples_ds)
    parts = _sharded_partials(samples_ds, mids, value_shards)

    empty_out = pd.DataFrame({
        "series_key": pd.Series([], dtype=object),
        "n_first": pd.Series([], dtype="int64"),
        "n_second": pd.Series([], dtype="int64"),
        "psi": pd.Series([], dtype="float64"),
    })

    if parts.count() <= driver_fold_rows:
        # adaptive driver fold: identical serial arithmetic, no rounds
        pdf = parts.to_pandas()
        if pdf.empty:
            return empty_out
        g = pdf.groupby(["series_key", "v", "half"], sort=True)["cnt"] \
            .sum().reset_index()
        out = {"series_key": [], "n_first": [], "n_second": [], "psi": []}
        for sk, sub in g.groupby("series_key", sort=True):
            first = sub[sub["half"] == 0]
            second = sub[sub["half"] == 1]
            n0 = int(first["cnt"].sum())
            n1 = int(second["cnt"].sum())
            if n0 < 2 or n1 < 1:
                continue
            edges = _weighted_quantiles(
                first["v"].to_numpy(np.float64),
                first["cnt"].to_numpy(np.int64), _QS)
            counts = np.zeros((2, N_BUCKETS), dtype=np.int64)
            for half, part in ((0, first), (1, second)):
                b = np.searchsorted(edges, part["v"].to_numpy(np.float64),
                                    side="left")
                counts[half] = np.bincount(
                    b, weights=part["cnt"].to_numpy(),
                    minlength=N_BUCKETS)
            q = (counts[0] + 0.5) / (n0 + 5.0)
            p = (counts[1] + 0.5) / (n1 + 5.0)
            psi = float(np.sum((p - q) * np.log(p / q)))
            out["series_key"].append(sk)
            out["n_first"].append(n0)
            out["n_second"].append(n1)
            out["psi"].append(round_half_away(np.float64(psi),
                                              round_digits))
        return pd.DataFrame({
            "series_key": pd.Series(out["series_key"], dtype=object),
            "n_first": pd.Series(out["n_first"], dtype="int64"),
            "n_second": pd.Series(out["n_second"], dtype="int64"),
            "psi": pd.Series(out["psi"], dtype="float64"),
        })

    summ = _shard_summaries(parts)
    if summ.empty:
        return empty_out

    # driver: locate the shard holding each decile position (0-based
    # rank within the FIRST-half multiset, matching _weighted_quantiles)
    requests: dict = {}
    meta: dict = {}
    for series, sub in summ.groupby("series_key", sort=True):
        n0 = int(sub["cnt0"].sum())
        n1 = int(sub["cnt1"].sum())
        if n0 < 2 or n1 < 1:
            continue
        cnt0 = sub["cnt0"].to_numpy(np.int64)
        cum = np.cumsum(cnt0)
        shards = sub["vshard"].to_numpy(np.int64)
        qinfo = []
        for qi, q in enumerate(_QS):
            pos = q * (n0 - 1)
            lo = int(np.floor(pos))
            frac = pos - lo
            wants = [("lo", lo)]
            if lo + 1 <= n0 - 1:
                wants.append(("hi", lo + 1))
            for tag, p in wants:
                sidx = int(np.searchsorted(cum, p, side="right"))
                offset = int(cum[sidx] - cnt0[sidx])
                requests.setdefault(
                    (series, int(shards[sidx])), []
                ).append((qi, tag, p - offset))
            qinfo.append((lo, frac))
        meta[series] = (n0, n1, qinfo)
    if not meta:
        return empty_out
    req_ref = ray.put(requests)

    # round 2: each requested shard extracts only its own positions
    def _extract(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "series_key": pd.Series([], dtype=object),
            "qi": pd.Series([], dtype="int64"),
            "tag": pd.Series([], dtype=object),
            "val": pd.Series([], dtype="float64"),
        })
        key = (df["series_key"].iloc[0], int(df["vshard"].iloc[0]))
        reqs = ray.get(req_ref).get(key)
        if not reqs:
            return empty
        g = df[df["half"] == 0].groupby("v", sort=True)["cnt"].sum()
        uv = g.index.to_numpy(np.float64)
        cum = g.to_numpy(np.int64).cumsum()
        return pd.DataFrame({
            "series_key": pd.Series([key[0]] * len(reqs), dtype=object),
            "qi": pd.Series([r[0] for r in reqs], dtype="int64"),
            "tag": pd.Series([r[1] for r in reqs], dtype=object),
            "val": pd.Series(
                [float(uv[np.searchsorted(cum, r[2], side="right")])
                 for r in reqs],
                dtype="float64"),
        })

    ext = (
        parts.groupby(["series_key", "vshard"])
        .map_groups(_extract, batch_format="pandas")
        .to_pandas()
    )
    edges_by_series = {}
    for series, sub in ext.groupby("series_key"):
        n0, n1, qinfo = meta[series]
        vals = {(int(r.qi), r.tag): float(r.val) for r in sub.itertuples()}
        edges = np.empty(len(_QS))
        for qi, (lo, frac) in enumerate(qinfo):
            vlo = vals[(qi, "lo")]
            vhi = vals.get((qi, "hi"), vlo)
            # DuckDB's quantile_cont lerp form — MUST stay this exact
            # expression (see _weighted_quantiles)
            edges[qi] = vlo * (1 - frac) + vhi * frac
        edges_by_series[series] = edges
    edges_ref = ray.put(edges_by_series)

    # round 3: bucket the partials against the broadcast edges
    def _bucket(df: pd.DataFrame) -> pd.DataFrame:
        edges_map = ray.get(edges_ref)
        out = []
        for series, sub in df.groupby("series_key", sort=False):
            edges = edges_map.get(series)
            if edges is None:
                continue
            # bucket = number of edges strictly below v (SQL: sum v > e)
            b = np.searchsorted(edges, sub["v"].to_numpy(np.float64),
                                side="left")
            t = pd.DataFrame({
                "series_key": sub["series_key"].to_numpy(),
                "half": sub["half"].to_numpy(np.int8),
                "bucket": b.astype(np.int64),
                "cnt": sub["cnt"].to_numpy(np.int64),
            })
            out.append(
                t.groupby(["series_key", "half", "bucket"], sort=False)
                ["cnt"].sum().reset_index())
        if not out:
            return pd.DataFrame({
                "series_key": pd.Series([], dtype=object),
                "half": pd.Series([], dtype="int8"),
                "bucket": pd.Series([], dtype="int64"),
                "cnt": pd.Series([], dtype="int64"),
            })
        return pd.concat(out, ignore_index=True)

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        counts = np.zeros((2, N_BUCKETS), dtype=np.int64)
        np.add.at(counts,
                  (df["half"].to_numpy(np.int64),
                   df["bucket"].to_numpy(np.int64)),
                  df["cnt"].to_numpy(np.int64))
        n0 = int(counts[0].sum())
        n1 = int(counts[1].sum())
        q = (counts[0] + 0.5) / (n0 + 5.0)
        p = (counts[1] + 0.5) / (n1 + 5.0)
        psi = float(np.sum((p - q) * np.log(p / q)))
        return pd.DataFrame({
            "series_key": df["series_key"].iloc[:1],
            "n_first": pd.Series([n0], dtype="int64"),
            "n_second": pd.Series([n1], dtype="int64"),
            "psi": round_half_away(np.array([psi]), round_digits),
        })

    return (
        parts.map_batches(_bucket, batch_format="pandas")
        .groupby("series_key").map_groups(_final, batch_format="pandas")
        .to_pandas()  # one row per series, <= MAX_SERIES (like round 1)
        .reset_index(drop=True)
    )


def _q_psi(sf_dir: str):
    from .diffstats import _numeric_samples

    return psi_drift(_numeric_samples(sf_dir))


def _psi_sql() -> str:
    from ._events_sql import EVENTS_NUMERIC_SQL

    qs_list = "[" + ", ".join(str(q) for q in _QS) + "]"
    bucket_expr = " + ".join(
        f"(CASE WHEN x > ed[{i + 1}] THEN 1 ELSE 0 END)" for i in range(9))
    return f"""
    WITH v AS (
        SELECT series_key, ts_ns, value_num AS x
        FROM ({EVENTS_NUMERIC_SQL})
    ),
    mid AS (
        SELECT series_key, (min(ts_ns) + max(ts_ns)) // 2 AS m
        FROM v GROUP BY 1
    ),
    h AS (
        SELECT v.series_key, x,
               CASE WHEN ts_ns > m THEN 1 ELSE 0 END AS half
        FROM v JOIN mid USING (series_key)
    ),
    e AS (
        SELECT series_key, quantile_cont(x, {qs_list}) AS ed
        FROM h WHERE half = 0 GROUP BY 1
    ),
    sizes AS (
        SELECT series_key,
               CAST(sum(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_first,
               CAST(sum(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_second
        FROM h GROUP BY 1
    ),
    b AS (
        SELECT h.series_key, half, {bucket_expr} AS bucket
        FROM h JOIN e USING (series_key)
    ),
    c AS (
        SELECT series_key, half, bucket, count(*) AS n
        FROM b GROUP BY 1, 2, 3
    ),
    grid AS (
        SELECT s.series_key, hh.half, bb.bucket
        FROM (SELECT DISTINCT series_key FROM c) s
        CROSS JOIN (VALUES (0), (1)) hh(half)
        CROSS JOIN (SELECT unnest(range({N_BUCKETS})) AS bucket) bb
    ),
    full_ AS (
        SELECT g.series_key, g.half, g.bucket, COALESCE(c.n, 0) AS n
        FROM grid g
        LEFT JOIN c ON c.series_key = g.series_key
                   AND c.half = g.half AND c.bucket = g.bucket
    ),
    shares AS (
        SELECT f.series_key, f.bucket,
               max(CASE WHEN f.half = 0
                        THEN (f.n + 0.5) / (s.n_first + 5.0) END) AS q,
               max(CASE WHEN f.half = 1
                        THEN (f.n + 0.5) / (s.n_second + 5.0) END) AS p
        FROM full_ f JOIN sizes s USING (series_key)
        GROUP BY 1, 2
    )
    SELECT sh.series_key, s.n_first, s.n_second,
           round(sum((p - q) * ln(p / q)), 6) AS psi
    FROM shares sh JOIN sizes s ON sh.series_key = s.series_key
    WHERE s.n_first >= 2 AND s.n_second >= 1
    GROUP BY 1, 2, 3
    """


register("events_psi_drift", _q_psi, _psi_sql())


def wasserstein_drift(samples_ds, *, round_digits: int = 6,
                      value_shards: int = 64,
                      driver_fold_rows: int = MAX_DRIVER_FOLD_ROWS):
    """Wasserstein-1 (earth mover's) distance between each series' first
    and second time-half value distributions — PSI's exact companion
    (no buckets, no smoothing):

        W1 = integral |F_a(x) - F_b(x)| dx

    computed EXACTLY over the merged distinct-value support: both CDFs
    are step functions, so the integral is a finite sum of
    ``|F_a - F_b| * (x_{i+1} - x_i)`` terms.  CDF values are exact
    int/int ratios, both engines sum the same terms, and the result
    rounds to 6.

    Scale shape: distributed like ``psi_drift`` — value-ordered shards,
    driver-computed cumulative count OFFSETS broadcast into per-shard
    interior CDF sums, cross-shard boundary terms folded driver-side
    from the round-1 summaries.  The round-6 output absorbs the
    reassociation noise of summing per-shard partials (same tolerance
    the serial version already relied on vs DuckDB's own sum order).
    """
    import ray

    mids = _series_midpoints(samples_ds)
    parts = _sharded_partials(samples_ds, mids, value_shards)

    if parts.count() <= driver_fold_rows:
        # adaptive driver fold: identical serial arithmetic, no rounds
        pdf = parts.to_pandas()
        out = {"series_key": [], "n_first": [], "n_second": [], "w1": []}
        if not pdf.empty:
            g = pdf.groupby(["series_key", "v", "half"], sort=True)["cnt"] \
                .sum().reset_index()
            for sk, sub in g.groupby("series_key", sort=True):
                wide = sub.pivot_table(index="v", columns="half",
                                       values="cnt", aggfunc="sum",
                                       fill_value=0) \
                    .reindex(columns=[0, 1], fill_value=0).sort_index()
                ca = wide[0].to_numpy(np.int64).cumsum()
                cb = wide[1].to_numpy(np.int64).cumsum()
                n0, n1 = int(ca[-1]), int(cb[-1])
                if n0 < 1 or n1 < 1:
                    continue
                x = wide.index.to_numpy(np.float64)
                if len(x) < 2:
                    w1 = 0.0
                else:
                    w1 = float(np.sum(np.abs(ca[:-1] / n0 - cb[:-1] / n1)
                                      * (x[1:] - x[:-1])))
                out["series_key"].append(sk)
                out["n_first"].append(n0)
                out["n_second"].append(n1)
                out["w1"].append(round_half_away(np.float64(w1),
                                                 round_digits))
        return pd.DataFrame({
            "series_key": pd.Series(out["series_key"], dtype=object),
            "n_first": pd.Series(out["n_first"], dtype="int64"),
            "n_second": pd.Series(out["n_second"], dtype="int64"),
            "w1": pd.Series(out["w1"], dtype="float64"),
        })

    summ = _shard_summaries(parts)

    offsets: dict = {}
    boundary: dict = {}
    sizes: dict = {}
    for series, sub in summ.groupby("series_key", sort=True):
        n0 = int(sub["cnt0"].sum())
        n1 = int(sub["cnt1"].sum())
        if n0 < 1 or n1 < 1:
            continue
        sizes[series] = (n0, n1)
        cnt0 = sub["cnt0"].to_numpy(np.int64)
        cnt1 = sub["cnt1"].to_numpy(np.int64)
        ca = np.cumsum(cnt0)
        cb = np.cumsum(cnt1)
        shards = sub["vshard"].to_numpy(np.int64)
        for i in range(len(sub)):
            offsets[(series, int(shards[i]))] = (
                int(ca[i] - cnt0[i]), int(cb[i] - cnt1[i]), n0, n1)
        # cross-shard terms: CDF at the end of shard i is flat until the
        # next shard's first value
        vmin = sub["vmin"].to_numpy(np.float64)
        vmax = sub["vmax"].to_numpy(np.float64)
        bsum = 0.0
        for i in range(len(sub) - 1):
            bsum += abs(ca[i] / n0 - cb[i] / n1) * (vmin[i + 1] - vmax[i])
        boundary[series] = bsum
    if not sizes:
        return pd.DataFrame({
            "series_key": pd.Series([], dtype=object),
            "n_first": pd.Series([], dtype="int64"),
            "n_second": pd.Series([], dtype="int64"),
            "w1": pd.Series([], dtype="float64"),
        })
    off_ref = ray.put(offsets)

    def _interior(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "series_key": pd.Series([], dtype=object),
            "part": pd.Series([], dtype="float64"),
        })
        key = (df["series_key"].iloc[0], int(df["vshard"].iloc[0]))
        got = ray.get(off_ref).get(key)
        if got is None:
            return empty
        oa, ob, n0, n1 = got
        wide = df.groupby(["v", "half"], sort=False)["cnt"].sum() \
            .reset_index() \
            .pivot_table(index="v", columns="half", values="cnt",
                         aggfunc="sum", fill_value=0) \
            .reindex(columns=[0, 1], fill_value=0).sort_index()
        x = wide.index.to_numpy(np.float64)
        if len(x) < 2:
            part = 0.0
        else:
            ca = oa + wide[0].to_numpy(np.int64).cumsum()
            cb = ob + wide[1].to_numpy(np.int64).cumsum()
            part = float(np.sum(np.abs(ca[:-1] / n0 - cb[:-1] / n1)
                                * (x[1:] - x[:-1])))
        return pd.DataFrame({
            "series_key": pd.Series([key[0]], dtype=object),
            "part": pd.Series([part], dtype="float64"),
        })

    ints = (
        parts.groupby(["series_key", "vshard"])
        .map_groups(_interior, batch_format="pandas")
        .to_pandas()
    )
    interior_by_series = ints.groupby("series_key")["part"].sum()
    out = {"series_key": [], "n_first": [], "n_second": [], "w1": []}
    for series in sorted(sizes):
        n0, n1 = sizes[series]
        w1 = boundary[series] + float(interior_by_series.get(series, 0.0))
        out["series_key"].append(series)
        out["n_first"].append(n0)
        out["n_second"].append(n1)
        out["w1"].append(round_half_away(np.float64(w1), round_digits))
    return pd.DataFrame({
        "series_key": pd.Series(out["series_key"], dtype=object),
        "n_first": pd.Series(out["n_first"], dtype="int64"),
        "n_second": pd.Series(out["n_second"], dtype="int64"),
        "w1": pd.Series(out["w1"], dtype="float64"),
    })


def _q_w1(sf_dir: str):
    from .diffstats import _numeric_samples

    return wasserstein_drift(_numeric_samples(sf_dir))


def _w1_sql() -> str:
    from ._events_sql import EVENTS_NUMERIC_SQL

    return f"""
    WITH v AS (
        SELECT series_key, ts_ns, value_num AS x
        FROM ({EVENTS_NUMERIC_SQL})
    ),
    mid AS (
        SELECT series_key, (min(ts_ns) + max(ts_ns)) // 2 AS m
        FROM v GROUP BY 1
    ),
    h AS (
        SELECT v.series_key, x,
               CASE WHEN ts_ns > m THEN 1 ELSE 0 END AS half
        FROM v JOIN mid USING (series_key)
    ),
    c AS (
        SELECT series_key, x,
               sum(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS a,
               sum(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS b
        FROM h GROUP BY 1, 2
    ),
    sizes AS (
        SELECT series_key, CAST(sum(a) AS BIGINT) AS n_first,
               CAST(sum(b) AS BIGINT) AS n_second
        FROM c GROUP BY 1
    ),
    cdf AS (
        SELECT series_key, x,
               sum(a) OVER w AS ca, sum(b) OVER w AS cb,
               lead(x) OVER (PARTITION BY series_key ORDER BY x) AS nx
        FROM c
        WINDOW w AS (PARTITION BY series_key ORDER BY x
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    ),
    terms AS (
        SELECT cdf.series_key,
               abs(ca / CAST(n_first AS DOUBLE)
                   - cb / CAST(n_second AS DOUBLE)) * (nx - x) AS t
        FROM cdf JOIN sizes USING (series_key)
        WHERE nx IS NOT NULL
    )
    SELECT s.series_key, s.n_first, s.n_second,
           round(COALESCE(sum(t.t), 0.0), 6) AS w1
    FROM sizes s LEFT JOIN terms t USING (series_key)
    WHERE s.n_first >= 1 AND s.n_second >= 1
    GROUP BY 1, 2, 3
    """


register("events_wasserstein_drift", _q_w1, _w1_sql())
