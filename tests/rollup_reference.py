"""Reference kernels: the pandas implementations of the rollup partial,
the tier merge and the Gorilla chunk writer's sort, kept as the oracle
the rank-coded kernels of ``stages/rollup.py`` and ``state/gorilla.py``
must equal bit for bit.

The orders they define are the contract:

* partials: rows by ``(series_key, window, ts, doc_id, sample_ordinal)``,
  a null ``doc_id`` before every string (``pd.factorize`` code -1);
* tier merge: rows by ``(series_key, window, last_ts, last_doc,
  last_ord)``, a null ``last_doc`` after every string (``sort_values``
  puts missing values last);
* chunk writer: rows by ``(series_key, ts, doc_id, sample_ordinal)``,
  a null ``doc_id`` after every string.

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
