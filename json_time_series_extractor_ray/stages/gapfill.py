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

* Filled rows carry ``last_ts``/``last_doc``/``last_ord`` from the same
  source row as ``last``, so a gap-filled tier keeps the tie-break triple
  that ``merge_tier_rollups`` needs; it merges only ``count > 0`` rows.

Distribution: gap-fill is per-series work over tier rows.  It runs inside
the group body of the rollup cascade (``cascade_series_group``), whose
group is one whole shard of many series (``state/checkpoint.shard_apply``)
on every path — the job, ``rollup_ladder`` and ``merge_tier_rollups`` — so
it adds NO extra wide operation.
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
    count (int64), last (float64), last_ts (int64 ns), optionally more
    (``last_doc``, ``last_ord``).  Returns the same columns plus ``fill``
    (string: '' observed, else method); a filled row takes every column
    not filled below from the last observed row before it.

    ``interp_round_digits`` (linear only): interpolate over window means
    recomputed as ``round(round(sum, d) / count, d)`` instead of the raw
    means — the oracle-comparable mode.  Raw double means carry
    summation-order ULP noise that differs across engines; the rounded
    means are bit-identical on both sides, so the interpolation (same
    IEEE expression both sides) is too, making linear gap-fill exactly
    value-hashable where round 1 left it rows-only.
    """
    df = df.sort_values("window_start", ignore_index=True)
    return pd.DataFrame(_fill_segment(
        {c: df[c].to_numpy() for c in df.columns}, window_ns, method,
        interp_round_digits))


def _fill_segment(cols: dict, window_ns: int, method: str,
                  interp_round_digits: int | None) -> dict:
    """``gap_fill_series`` on numpy columns sorted by ``window_start``."""
    if method not in (FILL_LOCF, FILL_LINEAR):
        raise ValueError(f"unknown gap-fill method: {method!r}")
    w = cols["window_start"]
    if len(w) < 2:
        return dict(cols, fill=np.full(len(w), FILL_NONE))
    grid = np.arange(w[0], w[-1] + window_ns, window_ns, dtype=np.int64)
    observed = np.isin(grid, w)
    interior = ~observed
    idx_prev = np.searchsorted(w, grid, side="right") - 1  # last obs <= slot
    out = {c: v[idx_prev] for c, v in cols.items()}
    out["window_start"] = grid

    if method == FILL_LOCF:
        # carry the last value, not the observed row's min/max aggregates
        filled = out["last"]
    else:  # linear
        idx_next = np.minimum(np.searchsorted(w, grid, side="left"),
                              len(w) - 1)  # first obs >= slot
        prev_w = w[idx_prev]
        denom = (w[idx_next] - prev_w).astype(np.float64)
        frac = np.zeros(len(grid))
        frac[interior] = (grid - prev_w)[interior] / denom[interior]
        if interp_round_digits is not None:
            from ..pipelines._util import round_half_away

            d = interp_round_digits
            sums_r = round_half_away(cols["sum"], d)
            means_i = round_half_away(
                sums_r / cols["count"].astype(np.float64), d)
        else:
            means_i = cols["mean"]
        prev_mean = means_i[idx_prev]
        filled = prev_mean + frac * (means_i[idx_next] - prev_mean)
        out["last"] = np.where(observed, out["last"], filled)
    for col in ("min", "max", "mean"):
        out[col] = np.where(observed, out[col], filled)
    out["sum"] = np.where(observed, out["sum"], 0.0)
    out["count"] = np.where(observed, out["count"], 0).astype(np.int64)
    out["fill"] = np.where(observed, FILL_NONE, method)
    return out


def gap_fill_tier_group(df: pd.DataFrame, tier_window_ns: dict | None = None,
                        method: str = FILL_LOCF,
                        interp_round_digits: int | None = None) -> pd.DataFrame:
    """Group body: all tier rows of one or many series -> gap-filled
    rows, ordered by ``(series_key, tier, window_start)``.

    Input is the rollup-ladder output schema (tier, series_key,
    window_start/last_ts as datetime64[ns]).  One ``gap_fill_series``
    pass per (series, tier) segment, on numpy columns.
    """
    tier_window_ns = tier_window_ns or WINDOW_NS
    df = df.sort_values(["series_key", "tier", "window_start"],
                        kind="stable", ignore_index=True)
    cols = {c: df[c].to_numpy() for c in df.columns}
    for c in ("window_start", "last_ts"):
        cols[c] = cols[c].astype(np.int64)
    keys, tiers = cols["series_key"], cols["tier"]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1])
                                  | (tiers[1:] != tiers[:-1])])
    parts = [
        _fill_segment({c: v[a:b] for c, v in cols.items()},
                      tier_window_ns[tiers[a]], method, interp_round_digits)
        for a, b in zip(starts, np.r_[starts[1:], len(df)])
    ]
    out = pd.DataFrame({c: np.concatenate([p[c] for p in parts])
                        for c in parts[0]})
    out["window_start"] = out["window_start"].astype("datetime64[ns]")
    out["last_ts"] = out["last_ts"].astype("datetime64[ns]")
    return out
