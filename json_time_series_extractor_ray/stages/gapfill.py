"""Gap-fill for rollup tiers: LOCF (last-observation-carried-forward) and
linear interpolation.

The reference emits samples only where the payload has data (it is a pure
flat-map, SURVEY.md §2.6); gap-fill is engine-side new design mandated by
the north_star.  Semantics:

* The window grid of one series/tier is every multiple of the tier width
  between the series' first and last observed window (inclusive) — gaps
  are *interior* only; nothing is extrapolated outside the observed range.
* ``locf``: missing windows inherit the previous window's ``last`` value
  (and carry ``fill='locf'``); ``count`` is 0 for filled rows.
* ``linear``: missing windows get ``mean``/``last`` linearly interpolated
  between the neighbouring observed windows' means; min/max equal the
  interpolated value.

Distribution: gap-fill is per-series work over tier rows.  It runs inside
the same ``map_groups`` call as the rollup cascade (each group already holds
whole series: one shard in ``run_sharded_rollup``, one series in
``rollup_ladder``), so it adds NO extra wide operation;
``gap_fill_dataset`` exists to run it standalone over an already-written
tier.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .rollup import WINDOW_NS

FILL_NONE = ""
FILL_LOCF = "locf"
FILL_LINEAR = "linear"


def gap_fill_series(df: pd.DataFrame, window_ns: int, method: str,
                    interp_round_digits: int | None = None) -> pd.DataFrame:
    """Fill interior gaps of ONE series' rows of ONE tier.

    ``df`` columns: window_start (int64 ns), min/max/mean/sum (float64),
    count (int64), last (float64), last_ts (int64 ns).  Returns the same
    columns plus ``fill`` (string: '' observed, else method).

    ``interp_round_digits`` (linear only): interpolate over window means
    recomputed as ``round(round(sum, d) / count, d)`` instead of the raw
    means — the oracle-comparable mode.  Raw double means carry
    summation-order ULP noise that differs across engines; the rounded
    means are bit-identical on both sides, so the interpolation (same
    IEEE expression both sides) is too, making linear gap-fill exactly
    value-hashable where round 1 left it rows-only.
    """
    if method not in (FILL_LOCF, FILL_LINEAR):
        raise ValueError(f"unknown gap-fill method: {method!r}")
    df = df.sort_values("window_start", ignore_index=True)
    if len(df) < 2:
        out = df.copy()
        out["fill"] = FILL_NONE
        return out

    w = df["window_start"].to_numpy(dtype=np.int64)
    grid = np.arange(w[0], w[-1] + window_ns, window_ns, dtype=np.int64)
    observed = np.isin(grid, w)
    n = len(grid)

    # Positions of each grid slot relative to the observed rows.
    idx_prev = np.searchsorted(w, grid, side="right") - 1  # last obs <= slot
    obs = df.reset_index(drop=True)

    out = pd.DataFrame({"window_start": grid})
    fill = np.where(observed, FILL_NONE, method)

    if method == FILL_LOCF:
        src = obs.iloc[idx_prev].reset_index(drop=True)
        out["min"] = src["min"].to_numpy()
        out["max"] = src["max"].to_numpy()
        out["mean"] = src["mean"].to_numpy()
        out["sum"] = np.where(observed, src["sum"].to_numpy(), 0.0)
        out["count"] = np.where(observed, src["count"].to_numpy(), 0).astype(np.int64)
        out["last"] = src["last"].to_numpy()
        out["last_ts"] = src["last_ts"].to_numpy()
        # carry the filled value, not the observed row's min/max aggregates
        carried = src["last"].to_numpy()
        out.loc[~observed, ["min", "max", "mean"]] = np.repeat(
            carried[~observed][:, None], 3, axis=1
        )
    else:  # linear
        idx_next = np.searchsorted(w, grid, side="left")  # first obs >= slot
        prev_w = w[idx_prev]
        next_w = w[np.minimum(idx_next, len(w) - 1)]
        denom = (next_w - prev_w).astype(np.float64)
        frac = np.zeros(n)
        interior = ~observed
        frac[interior] = (grid[interior] - prev_w[interior]) / denom[interior]
        if interp_round_digits is not None:
            from ..pipelines._util import round_half_away

            d = interp_round_digits
            sums_r = round_half_away(obs["sum"].to_numpy(), d)
            means_i = round_half_away(
                sums_r / obs["count"].to_numpy(dtype=np.float64), d
            )
        else:
            means_i = obs["mean"].to_numpy()
        prev_mean = means_i[idx_prev]
        next_mean = means_i[np.minimum(idx_next, len(w) - 1)]
        interp = prev_mean + frac * (next_mean - prev_mean)
        src = obs.iloc[idx_prev].reset_index(drop=True)
        for col in ("min", "max", "mean", "last"):
            vals = src[col].to_numpy().copy()
            vals[interior] = interp[interior]
            out[col] = vals
        out["sum"] = np.where(observed, src["sum"].to_numpy(), 0.0)
        out["count"] = np.where(observed, src["count"].to_numpy(), 0).astype(np.int64)
        out["last_ts"] = src["last_ts"].to_numpy()

    out["fill"] = fill
    return out


def gap_fill_tier_group(df: pd.DataFrame, tier_window_ns: dict | None = None,
                        method: str = FILL_LOCF,
                        interp_round_digits: int | None = None) -> pd.DataFrame:
    """``map_groups`` body: all tier rows of one or many series ->
    gap-filled rows.

    Input is the rollup-ladder output schema (tier, series_key,
    window_start/last_ts as datetime64[ns]).
    """
    tier_window_ns = tier_window_ns or WINDOW_NS
    frames = []
    for (series_key, tier), g in df.groupby(["series_key", "tier"], sort=True):
        work = pd.DataFrame(
            {
                "window_start": g["window_start"].astype("int64"),
                "min": g["min"].to_numpy(),
                "max": g["max"].to_numpy(),
                "mean": g["mean"].to_numpy(),
                "sum": g["sum"].to_numpy(),
                "count": g["count"].to_numpy(),
                "last": g["last"].to_numpy(),
                "last_ts": g["last_ts"].astype("int64"),
            }
        )
        filled = gap_fill_series(work, tier_window_ns[tier], method,
                                 interp_round_digits=interp_round_digits)
        filled.insert(0, "tier", tier)
        filled.insert(1, "series_key", series_key)
        frames.append(filled)
    out = pd.concat(frames, ignore_index=True)
    out["window_start"] = out["window_start"].astype("datetime64[ns]")
    out["last_ts"] = out["last_ts"].astype("datetime64[ns]")
    return out


def gap_fill_dataset(rollup_ds, method: str = FILL_LOCF,
                     interp_round_digits: int | None = None):
    """Standalone gap-fill over a rollup Dataset (one groupby shuffle)."""

    def _fill(df: pd.DataFrame) -> pd.DataFrame:
        return gap_fill_tier_group(df, method=method,
                                   interp_round_digits=interp_round_digits)

    return rollup_ds.groupby("series_key").map_groups(_fill, batch_format="pandas")
