"""Dynamic-time-warping distance between series (classic DTW, Sakoe &
Chiba 1978 without band — the similarity measure under time shift that
plain correlation misses).

Scale shape — the window rollup is the scale REDUCER, exactly like
``theil_sen_trend``:

* the expensive pass over raw samples is ``window_means`` (the
  per-block (n, sum) combiner + ONE shard exchange): it reduces the
  corpus to (series, window, mean) rows bounded by series x
  retention/window, never by sample count;
* the reduced means table is collected (bounded, with a LOUD
  ``max_series`` x ``max_windows`` guard naming the fix) and each
  series' ordered vector is broadcast ONCE via ``ray.put``;
* pair DP tasks fan out as a Dataset over the pair list — each task is
  O(n*m) on two small vectors, embarrassingly parallel.  All-pairs is
  quadratic in SERIES COUNT by definition; at corpus scale feed
  candidate pairs from a blocking stage (SAX buckets, LSH) instead of
  ``all_pairs=True`` — the guard makes the quadratic explicit.

Hash parity: window means use the canonical round-6 discipline; the DP
recurrence ``D[i,j] = |ya_i - yb_j| + min(D[i-1,j], D[i,j-1],
D[i-1,j-1])`` is the same expression tree in numpy and in the oracle's
recursive CTE (two carried anti-diagonals), so the accumulated float64
is bit-identical; one final round-6.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import round_half_away, window_means
from .registry import register

DTW_MAX_WINDOWS = 500
DTW_MAX_SERIES = 200

_D = 86_400_000_000_000


def dtw_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Plain O(n*m) DTW with |.| cost; returns the un-rounded corner."""
    n, m = len(a), len(b)
    prev = np.empty(m)
    cur = np.empty(m)
    prev[0] = abs(a[0] - b[0])
    for j in range(1, m):
        prev[j] = abs(a[0] - b[j]) + prev[j - 1]
    for i in range(1, n):
        cur[0] = abs(a[i] - b[0]) + prev[0]
        ai = a[i]
        for j in range(1, m):
            best = prev[j]
            if prev[j - 1] < best:
                best = prev[j - 1]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = abs(ai - b[j]) + best
        prev, cur = cur, prev
    return float(prev[m - 1])


def window_mean_vectors(samples_ds, *, window_ns: int,
                        round_digits: int = 6) -> pd.DataFrame:
    """(series_key, window_ns, y) canonical rounded window means
    (``window_means``), collected and window-ordered."""
    schema = pa.schema([("series_key", pa.string()),
                        ("window_ns", pa.int64()), ("y", pa.float64())])
    means = window_means(
        samples_ds, window_ns=window_ns, round_digits=round_digits,
        fit=lambda series, windows, y, starts: {
            "series_key": series, "window_ns": windows, "y": y},
        schema=schema)
    # Ray's to_pandas drops empty blocks, and with them every column
    return means.to_pandas().reindex(columns=schema.names).sort_values(
        ["series_key", "window_ns"], ignore_index=True)


def dtw_distances(samples_ds, *, window_ns: int,
                  round_digits: int = 6,
                  max_windows: int = DTW_MAX_WINDOWS,
                  max_series: int = DTW_MAX_SERIES):
    """All-pairs DTW over per-series window-mean vectors (see module
    docstring for the blocking-stage alternative at corpus scale)."""
    import ray

    means = window_mean_vectors(samples_ds, window_ns=window_ns,
                                round_digits=round_digits)
    sizes = means.groupby("series_key").size()
    if len(sizes) > max_series:
        raise ValueError(
            f"{len(sizes)} series (> max_series={max_series}); all-pairs "
            "DTW is quadratic in series count — feed candidate pairs "
            "from a blocking stage (SAX buckets, LSH) or raise the bound "
            "knowingly")
    if (sizes > max_windows).any():
        hot = sizes.idxmax()
        raise ValueError(
            f"series {hot!r} has {int(sizes.max())} windows "
            f"(> max_windows={max_windows}); DTW is O(n*m) per pair — "
            "use a coarser window_ns or shorter retention")
    vectors = {k: g["y"].to_numpy() for k, g in
               means.groupby("series_key")}
    keys = sorted(vectors)
    vec_ref = ray.put(vectors)
    pairs = [{"series_a": a, "series_b": b}
             for ai, a in enumerate(keys) for b in keys[ai + 1:]]
    if not pairs:
        return ray.data.from_arrow(pa.table({
            "series_a": pa.array([], pa.string()),
            "series_b": pa.array([], pa.string()),
            "n_a": pa.array([], pa.int64()),
            "n_b": pa.array([], pa.int64()),
            "dtw": pa.array([], pa.float64()),
        }))

    def _dp(batch: pd.DataFrame) -> pd.DataFrame:
        vecs = ray.get(vec_ref)
        out_d = np.empty(len(batch))
        n_a = np.empty(len(batch), np.int64)
        n_b = np.empty(len(batch), np.int64)
        for r, (a, b) in enumerate(zip(batch["series_a"],
                                       batch["series_b"])):
            va, vb = vecs[a], vecs[b]
            n_a[r], n_b[r] = len(va), len(vb)
            out_d[r] = dtw_pair(va, vb)
        return pd.DataFrame({
            "series_a": batch["series_a"].to_numpy(),
            "series_b": batch["series_b"].to_numpy(),
            "n_a": n_a,
            "n_b": n_b,
            "dtw": round_half_away(out_d, round_digits),
        })

    return ray.data.from_items(pairs).map_batches(
        _dp, batch_format="pandas")


def _q_dtw(sf_dir: str):
    from .diffstats import _numeric_samples

    return dtw_distances(_numeric_samples(sf_dir), window_ns=_D)


from ._events_sql import EVENTS_NUMERIC_SQL  # noqa: E402

register(
    "events_dtw_1d",
    _q_dtw,
    # DTW DP as a recursive CTE carrying TWO anti-diagonals per pair
    # (age 0 = frontier diag k, age 1 = diag k-1); each step computes
    # diag k+1 from the three predecessor cells and re-emits the
    # frontier once.  Identical float64 expression tree as dtw_pair.
    f"""
    WITH RECURSIVE m AS (
        SELECT series_key,
               ts_ns - ts_ns % {_D} AS window_ns,
               round(round(sum(value_num), 6) / count(*), 6) AS y
        FROM ({EVENTS_NUMERIC_SQL})
        GROUP BY series_key, window_ns
    ),
    v AS (
        SELECT series_key, y,
               row_number() OVER (
                   PARTITION BY series_key ORDER BY window_ns) - 1 AS idx
        FROM m
    ),
    cells AS (
        SELECT a.series_key AS sa, b.series_key AS sb,
               a.idx AS i, b.idx AS j, abs(a.y - b.y) AS c
        FROM v a JOIN v b ON a.series_key < b.series_key
    ),
    mx AS (
        SELECT sa, sb, max(i + j) AS mk,
               CAST(max(i) + 1 AS BIGINT) AS n_a,
               CAST(max(j) + 1 AS BIGINT) AS n_b
        FROM cells GROUP BY sa, sb
    ),
    d(sa, sb, k, i, val, age) AS (
        SELECT sa, sb, 0, 0, c, 0 FROM cells WHERE i = 0 AND j = 0
        UNION ALL
        (
            WITH prev AS (SELECT * FROM d),
            fr AS (
                SELECT sa, sb, max(k) AS k0 FROM prev
                WHERE age = 0 GROUP BY sa, sb
            )
            SELECT * FROM (
                SELECT c.sa AS sa, c.sb AS sb, c.i + c.j AS k, c.i AS i,
                       c.c + min(p.val) AS val, 0 AS age
                FROM cells c
                JOIN fr ON fr.sa = c.sa AND fr.sb = c.sb
                       AND c.i + c.j = fr.k0 + 1
                JOIN prev p ON p.sa = c.sa AND p.sb = c.sb AND (
                       (p.age = 0 AND p.i = c.i - 1 AND p.k - p.i = c.j)
                    OR (p.age = 0 AND p.i = c.i AND p.k - p.i = c.j - 1)
                    OR (p.age = 1 AND p.i = c.i - 1
                        AND p.k - p.i = c.j - 1))
                GROUP BY c.sa, c.sb, c.i, c.j, c.c
                UNION ALL
                SELECT p.sa, p.sb, p.k, p.i, p.val, 1
                FROM prev p
                JOIN mx ON mx.sa = p.sa AND mx.sb = p.sb
                WHERE p.age = 0 AND p.k < mx.mk
            ) nxt
        )
    )
    SELECT d.sa AS series_a, d.sb AS series_b,
           mx.n_a AS n_a, mx.n_b AS n_b,
           round(d.val, 6) AS dtw
    FROM d JOIN mx ON mx.sa = d.sa AND mx.sb = d.sb
    WHERE d.age = 0 AND d.k = mx.mk
    """,
)
