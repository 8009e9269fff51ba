"""Reference kernels: the pandas implementations of the rollup partial,
the tier merge, gap-fill and the Gorilla chunk writer's sort, kept as the
oracle the rank-coded kernels of ``stages/rollup.py``,
``stages/gapfill.py`` and ``state/gorilla.py`` must equal bit for bit.

The orders they define are the contract:

* partials: rows by ``(series_key, window, ts, doc_id, sample_ordinal)``,
  a null ``doc_id`` before every string (``pd.factorize`` code -1);
* tier merge: rows by ``(series_key, window, last_ts, last_doc,
  last_ord)``, a null ``last_doc`` after every string (``sort_values``
  puts missing values last);
* chunk writer: rows by ``(series_key, ts, doc_id, sample_ordinal)``,
  a null ``doc_id`` after every string;
* gap-fill: one grid per (series, tier), filled segment by segment,
  rows by ``(series_key, tier, window_start)``.

Ties keep their input order everywhere, and float sums run in these
orders.  The one intended difference: a partial whose winning row has a
null ``doc_id`` reports a null ``last_doc`` here too (the original code
gathered the last distinct doc string instead).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from json_time_series_extractor_ray.pipelines._util import round_half_away
from json_time_series_extractor_ray.stages.rollup import (
    PARTIAL_COLUMNS,
    TIER_ORDER,
    WINDOW_NS,
    WINDOW_OFFSET_NS,
)
from json_time_series_extractor_ray.state.gorilla import compress_chunks

MERGE_ORDER = ["series_key", "window_start", "last_ts", "last_doc",
               "last_ord"]


def partial_rollup_batch(batch: pa.Table, window_ns: int = WINDOW_NS["1m"],
                         offset_ns: int = 0) -> pd.DataFrame:
    """One sample block -> per-(series, window) partials (a frame)."""
    t = batch.filter(pc.equal(batch.column("value_kind"), 1))
    if t.num_rows == 0:
        return pd.DataFrame({c: [] for c in PARTIAL_COLUMNS})
    ts = t.column("ts").cast(pa.int64()).to_numpy()
    values = t.column("value_num").to_numpy(zero_copy_only=False)
    ordinal = t.column("sample_ordinal").cast(pa.int64()).to_numpy()
    series = t.column("series_key").to_pandas()
    docs = t.column("doc_id").to_pandas()
    window = ts - ((ts - offset_ns) % window_ns)
    doc_codes, doc_uniques = pd.factorize(docs, sort=True)
    skey_codes, skey_uniques = pd.factorize(series, sort=True)
    win_codes, win_uniques = pd.factorize(window, sort=True)
    order = np.lexsort((ordinal, doc_codes, ts))
    group = (skey_codes[order].astype(np.int64) * len(win_uniques)
             + win_codes[order])
    seg_order = np.argsort(group, kind="stable")
    idx = order[seg_order]
    group = group[seg_order]
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    ends = np.r_[starts[1:], len(group)] - 1
    v = values[idx]
    last_code = doc_codes[idx][ends]
    return pd.DataFrame({
        "series_key": skey_uniques[group[starts] // len(win_uniques)],
        "window_start": np.asarray(win_uniques)[group[starts]
                                                % len(win_uniques)],
        "sum": np.add.reduceat(v, starts),
        "count": (ends - starts + 1).astype(np.int64),
        "min": np.minimum.reduceat(v, starts),
        "max": np.maximum.reduceat(v, starts),
        "last": v[ends],
        "last_ts": ts[idx][ends],
        "last_doc": np.where(
            last_code >= 0,
            np.asarray(doc_uniques, dtype=object)[np.maximum(last_code, 0)]
            if len(doc_uniques) else None,
            None),
        "last_ord": ordinal[idx][ends],
    })


def merge_windows(df: pd.DataFrame, window_ns: int,
                  offset_ns: int = 0) -> pd.DataFrame:
    """Partial rows of any number of series -> one row per
    ``(series_key, window)`` of size ``window_ns``."""
    w = df["window_start"].to_numpy()
    df = df.assign(window_start=w - ((w - offset_ns) % window_ns)).sort_values(
        MERGE_ORDER, kind="stable", ignore_index=True,
    )
    if not len(df):
        return df[PARTIAL_COLUMNS]
    w = df["window_start"].to_numpy()
    series = pd.factorize(df["series_key"])[0]
    starts = np.flatnonzero(
        np.r_[True, (w[1:] != w[:-1]) | (series[1:] != series[:-1])]
    )
    ends = np.r_[starts[1:], len(w)] - 1
    return pd.DataFrame({
        "series_key": df["series_key"].to_numpy()[starts],
        "window_start": w[starts],
        "sum": np.add.reduceat(df["sum"].to_numpy(), starts),
        "count": np.add.reduceat(df["count"].to_numpy(), starts),
        "min": np.minimum.reduceat(df["min"].to_numpy(), starts),
        "max": np.maximum.reduceat(df["max"].to_numpy(), starts),
        "last": df["last"].to_numpy()[ends],
        "last_ts": df["last_ts"].to_numpy()[ends],
        "last_doc": df["last_doc"].to_numpy()[ends],
        "last_ord": df["last_ord"].to_numpy()[ends],
    })


def cascade_series_group(df: pd.DataFrame, tiers=TIER_ORDER) -> pd.DataFrame:
    """The tier cascade over partial rows (no gap-fill)."""
    current = df[PARTIAL_COLUMNS]
    frames = []
    for tier in tiers:
        current = merge_windows(current, WINDOW_NS[tier],
                                WINDOW_OFFSET_NS.get(tier, 0))
        frames.append(current.assign(tier=tier))
    result = pd.concat(frames, ignore_index=True)
    result["mean"] = result["sum"] / result["count"]
    result = result[
        ["tier", "series_key", "window_start", "min", "max", "mean", "sum",
         "count", "last", "last_ts", "last_doc", "last_ord"]
    ].copy()
    result["window_start"] = result["window_start"].astype("datetime64[ns]")
    result["last_ts"] = result["last_ts"].astype("datetime64[ns]")
    return result


def fill_segment(cols: dict, window_ns: int, method: str,
                 interp_round_digits: int | None) -> dict:
    """Gap-fill ONE (series, tier) segment: numpy columns sorted by
    ``window_start`` -> the grid's rows plus ``fill``."""
    w = cols["window_start"]
    if len(w) < 2:
        return dict(cols, fill=np.full(len(w), ""))
    grid = np.arange(w[0], w[-1] + window_ns, window_ns, dtype=np.int64)
    observed = np.isin(grid, w)
    interior = ~observed
    idx_prev = np.searchsorted(w, grid, side="right") - 1  # last obs <= slot
    out = {c: v[idx_prev] for c, v in cols.items()}
    out["window_start"] = grid
    if method == "locf":
        filled = out["last"]
    else:  # linear
        idx_next = np.minimum(np.searchsorted(w, grid, side="left"),
                              len(w) - 1)  # first obs >= slot
        prev_w = w[idx_prev]
        denom = (w[idx_next] - prev_w).astype(np.float64)
        frac = np.zeros(len(grid))
        frac[interior] = (grid - prev_w)[interior] / denom[interior]
        if interp_round_digits is not None:
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
    out["fill"] = np.where(observed, "", method)
    return out


def gap_fill_tier_group(df: pd.DataFrame, method: str,
                        interp_round_digits: int | None = None
                        ) -> pd.DataFrame:
    """Cascade rows of many series and tiers -> gap-filled rows, one
    ``fill_segment`` call per (series, tier), ordered by ``(series_key,
    tier, window_start)``."""
    df = df.sort_values(["series_key", "tier", "window_start"],
                        kind="stable", ignore_index=True)
    cols = {c: df[c].to_numpy() for c in df.columns}
    for c in ("window_start", "last_ts"):
        cols[c] = cols[c].astype(np.int64)
    keys, tiers = cols["series_key"], cols["tier"]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1])
                                  | (tiers[1:] != tiers[:-1])])
    parts = [
        fill_segment({c: v[a:b] for c, v in cols.items()},
                     WINDOW_NS[tiers[a]], method, interp_round_digits)
        for a, b in zip(starts, np.r_[starts[1:], len(df)])
    ]
    out = pd.DataFrame({c: np.concatenate([p[c] for p in parts])
                        for c in parts[0]})
    out["window_start"] = out["window_start"].astype("datetime64[ns]")
    out["last_ts"] = out["last_ts"].astype("datetime64[ns]")
    return out


def chunk_rows(df: pd.DataFrame, bucket_ns: int | None = None) -> pd.DataFrame:
    """Samples -> one chunk row per series (or series x bucket)."""
    df = df.sort_values(["series_key", "ts", "doc_id", "sample_ordinal"],
                        kind="stable")
    keys = df["series_key"].to_numpy()
    ts = df["ts"].astype("int64").to_numpy()
    cut = keys[1:] != keys[:-1]
    if bucket_ns is not None:
        cut |= np.diff(ts // bucket_ns) != 0
    starts = np.flatnonzero(np.r_[True, cut])
    numeric = df["value_kind"].to_numpy() == 1
    counts = np.add.reduceat(numeric.astype(np.int64), starts)
    ts, vals = ts[numeric], df["value_num"].to_numpy(dtype=np.float64)[numeric]
    first = np.cumsum(counts) - counts
    has = counts > 0
    t_min = np.zeros(len(counts), np.int64)
    t_max = np.zeros(len(counts), np.int64)
    t_min[has] = ts[first[has]]
    t_max[has] = ts[first[has] + counts[has] - 1]
    return pd.DataFrame({
        "series_key": keys[starts],
        "n_points": counts,
        "t_min": t_min,
        "t_max": t_max,
        "raw_bytes": 16 * counts,
        "chunk": compress_chunks(ts, vals, counts),
    })
