"""Matrix profile + motif discovery over per-series window means.

The matrix profile (Yeh et al., "Matrix Profile I", ICDM 2016) stores,
for every length-``m`` subsequence of a series, the distance to its
nearest non-trivial neighbor; its minimum locates the series' best
MOTIF (most-repeated shape).  This module computes the NON-NORMALIZED
(plain Euclidean) variant — the AAMP formulation (Akbarinia & Cloez,
2019) — whose distances are exact functions of the canonical round-6
window means, so the result oracles in plain SQL (the z-normalized
variant divides by per-window stds whose cross-engine float noise is
not oracle-stable).

Scale shape (the DTW discipline, ``dtw.py``):

* the raw-sample pass is the shared ``window_means`` combiner (per-block
  (n, sum) partials + ONE shard exchange), reducing the corpus to
  (series, window, mean) rows bounded by series x retention/window;
* per-series profile tasks fan out as a Dataset over the series list,
  each O(n_windows^2 x m) on one small broadcast vector — quadratic in
  WINDOW COUNT by definition, bounded by a LOUD ``max_windows`` guard
  naming the remedy (coarser window, shorter retention, or a STOMP-style
  streaming diagonal pass for long single series);
* the exclusion zone ``|i - j| >= m`` removes trivial self-matches,
  exactly as in the reference formulation.

Hash parity: window means use the canonical round-6 discipline; pair
distances are min-reduced as SQUARED sums (monotone under sqrt), and
``round(sqrt(min d2), 6)`` is emitted — the motif argmin orders by the
ROUNDED distance with an (i, j) lexicographic tie-break so both engines
pick identical pairs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import round_half_away
from .dtw import window_mean_vectors
from .registry import register

MP_WINDOW = 7           # subsequence length (windows of the mean series)
MP_MAX_WINDOWS = 4096   # per-series quadratic guard
MP_MAX_SERIES = 10_000

_D = 86_400_000_000_000


def _series_vectors(samples_ds, *, window_ns: int, max_windows: int,
                    max_series: int) -> dict:
    means = window_mean_vectors(samples_ds, window_ns=window_ns)
    sizes = means.groupby("series_key").size()
    if len(sizes) > max_series:
        raise ValueError(
            f"{len(sizes)} series (> max_series={max_series}); collect "
            "per-series vectors via a sharded groupby instead of one "
            "driver table, or raise the bound knowingly")
    if (sizes > max_windows).any():
        hot = sizes.idxmax()
        raise ValueError(
            f"series {hot!r} has {int(sizes.max())} windows "
            f"(> max_windows={max_windows}); the profile is quadratic in "
            "window count — use a coarser window_ns, shorter retention, "
            "or a STOMP-style diagonal streaming pass for long series")
    return {k: g["y"].to_numpy() for k, g in means.groupby("series_key")}


def _pair_d2(v: np.ndarray, m: int) -> np.ndarray:
    """All-pairs squared distances between length-``m`` subsequences,
    trivial zone (|i-j| < m) masked to +inf.  Vectorized broadcast."""
    w = np.lib.stride_tricks.sliding_window_view(v, m)
    d2 = ((w[:, None, :] - w[None, :, :]) ** 2).sum(-1)
    nw = len(w)
    ij = np.arange(nw)
    d2[np.abs(ij[:, None] - ij[None, :]) < m] = np.inf
    return d2


def matrix_profile(samples_ds, *, window_ns: int = _D, m: int = MP_WINDOW,
                   round_digits: int = 6,
                   max_windows: int = MP_MAX_WINDOWS,
                   max_series: int = MP_MAX_SERIES):
    """Per (series, window start): distance to the nearest non-trivial
    neighboring subsequence — rows (series_key, i, mp)."""
    import ray

    vectors = _series_vectors(samples_ds, window_ns=window_ns,
                              max_windows=max_windows,
                              max_series=max_series)
    vec_ref = ray.put(vectors)
    keys = sorted(vectors)

    def _profile(batch: pd.DataFrame) -> pd.DataFrame:
        vecs = ray.get(vec_ref)
        out_k, out_i, out_mp = [], [], []
        for k in batch["series_key"]:
            v = vecs[k]
            if len(v) < m + 1:
                continue
            d2 = _pair_d2(v, m)
            mp2 = d2.min(axis=1)
            ok = np.isfinite(mp2)  # drop windows with no admissible pair
            idx = np.nonzero(ok)[0]
            out_k.extend([k] * len(idx))
            out_i.append(idx.astype(np.int64))
            out_mp.append(round_half_away(np.sqrt(mp2[ok]), round_digits))
        if not out_i:
            return pd.DataFrame({
                "series_key": np.array([], object),
                "i": np.array([], np.int64),
                "mp": np.array([], np.float64),
            })
        return pd.DataFrame({
            "series_key": np.asarray(out_k, object),
            "i": np.concatenate(out_i),
            "mp": np.concatenate(out_mp),
        })

    return ray.data.from_items(
        [{"series_key": k} for k in keys]
    ).map_batches(_profile, batch_format="pandas")


def top_motifs(samples_ds, *, window_ns: int = _D, m: int = MP_WINDOW,
               round_digits: int = 6,
               max_windows: int = MP_MAX_WINDOWS,
               max_series: int = MP_MAX_SERIES):
    """Per series: the single best motif pair — smallest rounded
    subsequence distance, ties broken by smallest (i, j)."""
    import ray

    vectors = _series_vectors(samples_ds, window_ns=window_ns,
                              max_windows=max_windows,
                              max_series=max_series)
    vec_ref = ray.put(vectors)
    keys = sorted(vectors)

    def _motif(batch: pd.DataFrame) -> pd.DataFrame:
        vecs = ray.get(vec_ref)
        rows = {"series_key": [], "i": [], "j": [], "motif_dist": []}
        for k in batch["series_key"]:
            v = vecs[k]
            if len(v) < m + 1:
                continue
            d2 = _pair_d2(v, m)
            iu = np.triu_indices(len(d2), k=m)  # i < j, |i-j| >= m
            if len(iu[0]) == 0:
                continue
            md = round_half_away(np.sqrt(d2[iu]), round_digits)
            # argmin on the ROUNDED value, (i, j) lexicographic ties —
            # identical pick on both engines
            order = np.lexsort((iu[1], iu[0], md))
            best = order[0]
            rows["series_key"].append(k)
            rows["i"].append(int(iu[0][best]))
            rows["j"].append(int(iu[1][best]))
            rows["motif_dist"].append(float(md[best]))
        return pd.DataFrame({
            "series_key": np.asarray(rows["series_key"], object),
            "i": np.asarray(rows["i"], np.int64),
            "j": np.asarray(rows["j"], np.int64),
            "motif_dist": np.asarray(rows["motif_dist"], np.float64),
        })

    return ray.data.from_items(
        [{"series_key": k} for k in keys]
    ).map_batches(_motif, batch_format="pandas")


def _q_matrix_profile(sf_dir: str):
    from .diffstats import _numeric_samples

    return matrix_profile(_numeric_samples(sf_dir))


def _q_top_motifs(sf_dir: str):
    from .diffstats import _numeric_samples

    return top_motifs(_numeric_samples(sf_dir))


from ._events_sql import EVENTS_NUMERIC_SQL  # noqa: E402

# Shared oracle CTEs: windowed means -> per-diagonal squared diffs ->
# length-m running sums along each diagonal = all admissible pair d2.
_MP_CTES = f"""
    m AS (
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
    diag AS (
        SELECT a.series_key, a.idx AS i, b.idx - a.idx AS d,
               (a.y - b.y) * (a.y - b.y) AS sq
        FROM v a JOIN v b
          ON a.series_key = b.series_key AND b.idx - a.idx >= {MP_WINDOW}
    ),
    wsum AS (
        SELECT series_key, i AS wi, d,
               sum(sq) OVER (
                   PARTITION BY series_key, d ORDER BY i
                   ROWS BETWEEN CURRENT ROW
                        AND {MP_WINDOW - 1} FOLLOWING) AS d2,
               count(*) OVER (
                   PARTITION BY series_key, d ORDER BY i
                   ROWS BETWEEN CURRENT ROW
                        AND {MP_WINDOW - 1} FOLLOWING) AS cnt
        FROM diag
    ),
    pairs AS (
        SELECT series_key, wi, wi + d AS wj, d2
        FROM wsum WHERE cnt = {MP_WINDOW}
    )
"""

register(
    "events_matrix_profile_1d",
    _q_matrix_profile,
    f"""
    WITH {_MP_CTES},
    allp AS (
        SELECT series_key, wi AS i, d2 FROM pairs
        UNION ALL
        SELECT series_key, wj, d2 FROM pairs
    )
    SELECT series_key, CAST(i AS BIGINT) AS i,
           round(sqrt(min(d2)), 6) AS mp
    FROM allp GROUP BY series_key, i
    """,
)

register(
    "events_top_motif_1d",
    _q_top_motifs,
    f"""
    WITH {_MP_CTES},
    ranked AS (
        SELECT series_key, wi, wj, round(sqrt(d2), 6) AS md,
               row_number() OVER (
                   PARTITION BY series_key
                   ORDER BY round(sqrt(d2), 6), wi, wj) AS rn
        FROM pairs
    )
    SELECT series_key, CAST(wi AS BIGINT) AS i, CAST(wj AS BIGINT) AS j,
           md AS motif_dist
    FROM ranked WHERE rn = 1
    """,
)
