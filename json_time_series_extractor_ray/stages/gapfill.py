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

Distribution: gap-fill is one step of the rank-coded tier cascade
(``stages/rollup._cascade``), run on each tier's merged rows, which come
sorted by ``(series, window)``: ``fill_gaps`` needs no sort and no
per-series loop, one segmented pass fills every series of the tier.  The
cascade runs on whole shards (``state/checkpoint.shard_apply``) on every
path — the job, ``rollup_ladder`` and ``merge_tier_rollups`` — so gap-fill
adds NO extra wide operation, and coarser tiers still merge from the
observed rows only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

FILL_NONE = ""
FILL_LOCF = "locf"
FILL_LINEAR = "linear"


def check_gap_fill(method: str | None) -> None:
    """Reject an unknown gap-fill method (``None`` means no gap-fill)."""
    if method not in (None, FILL_LOCF, FILL_LINEAR):
        raise ValueError(f"unknown gap-fill method: {method!r}")


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
    out, gap = fill_gaps({c: df[c].to_numpy() for c in df.columns},
                         np.zeros(len(df), np.int64), window_ns, method,
                         interp_round_digits)
    return pd.DataFrame(dict(out, fill=np.where(gap, method, FILL_NONE)))


def fill_gaps(cols: dict, series: np.ndarray, window_ns: int, method: str,
              interp_round_digits: int | None = None):
    """Gap-fill the rows of many series in one pass -> ``(rows, gap)``.

    ``cols`` maps column names to numpy arrays sorted by ``(series,
    window_start)`` with one row per window; ``series`` labels each row's
    series.  Each series gets ``(w_last - w_first) // window_ns + 1`` grid
    slots; the observed rows scatter to theirs, a ``maximum.accumulate``
    gives every slot its source row (the last observed row at or before
    it) and, for ``linear``, a reversed ``minimum.accumulate`` the next
    one.  Every column is gathered from the source row, then the filled
    values overwrite the gaps; ``gap`` marks the filled slots.
    """
    check_gap_fill(method)
    w = cols["window_start"]
    n = len(w)
    starts = np.flatnonzero(np.r_[True, series[1:] != series[:-1]])[:n]
    lengths = np.diff(np.r_[starts, n])
    # slot of each observed row: its series' offset plus its window index
    slot = (w - np.repeat(w[starts], lengths)) // window_ns
    size = slot[starts + lengths - 1] + 1
    slot += np.repeat(np.cumsum(size) - size, lengths)
    total = int(size.sum())
    # a series' first slot is observed and row indices grow with the
    # series, so the running max never reaches back into another series
    prev = np.zeros(total, np.int64)
    prev[slot] = np.arange(n)
    prev = np.maximum.accumulate(prev)
    gap = np.ones(total, bool)
    gap[slot] = False
    out = {c: v[prev] for c, v in cols.items()}
    grid = w[prev] + (np.arange(total) - slot[prev]) * window_ns
    out["window_start"] = grid

    prev = prev[gap]
    if method == FILL_LOCF:
        # carry the last value, not the observed row's min/max aggregates
        filled = cols["last"][prev]
    else:  # linear
        nxt = np.full(total, n - 1, np.int64)
        nxt[slot] = np.arange(n)
        nxt = np.minimum.accumulate(nxt[::-1])[::-1][gap]
        prev_w = w[prev]
        frac = (grid[gap] - prev_w) / (w[nxt] - prev_w).astype(np.float64)
        if interp_round_digits is not None:
            from ..pipelines._util import round_half_away

            d = interp_round_digits
            means = round_half_away(round_half_away(cols["sum"], d)
                                    / cols["count"].astype(np.float64), d)
        else:
            means = cols["mean"]
        filled = means[prev] + frac * (means[nxt] - means[prev])
        out["last"][gap] = filled
    for col in ("min", "max", "mean"):
        out[col][gap] = filled
    out["sum"][gap] = 0.0
    out["count"][gap] = 0
    return out, gap
