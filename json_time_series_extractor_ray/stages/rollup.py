"""Tumbling-window rollup ladder: samples -> 1m -> 1h -> 1d continuous
aggregates.

The reference has no aggregation at all (it is a per-document flat-map;
SURVEY.md §2.6) — this ladder is the engine's scale mandate
(BASELINE.json ``north_star``).  Design, Ray-Data-first:

1. **Partial aggregation inside ``map_batches``** (``rollup_ladder``'s
   combiner): each sample block collapses to at most one row per
   ``(series_key, 1m-window)`` before the shuffle.  The job path
   (``state/checkpoint.run_sharded_rollup``) ships samples instead — its
   raw tier (Gorilla chunks) needs them — and runs the same kernel once
   per shard.
2. **Exactly one wide op**, keyed by shard: every path groups its rows by
   ``shard = md5(series_key) % P`` through ``state/checkpoint.shard_apply``
   (the job samples, ``rollup_ladder`` and ``merge_tier_rollups``
   partials), so one task call covers a whole shard, never one series.
3. **Vectorized cascade inside ``map_groups``**: ``cascade_series_group``
   merges the partials of every series in its group at once (one sort +
   ``reduceat`` over ``(series_key, window)`` segments per tier) into final
   1m windows, then derives 1h from 1m and 1d from 1h *locally* (sum+count
   carried so ``mean`` is exact — never an average of averages; min of
   mins; max of maxes; ``last`` by maximal ``(last_ts, doc_id, ordinal)``),
   then optionally gap-fills; all three paths share this body.

Determinism: ``last`` needs a total order under Ray's unordered block
execution, so partials carry ``(last_ts, last_doc, last_ord)`` and every
merge sorts on that triple (SURVEY.md §7.3.3); float sums are performed in
that same sorted order so repeated runs are bit-identical, and a segment
sums in the same order whichever other series share its group.

Skew: a group task holds one whole shard, so ``num_shards`` bounds its
memory; a hot series adds one partial row per (block, window) to its
shard in ``rollup_ladder``, and its samples in the job.  There is no
salting stage; the ``events_rollup_1m_salted`` registry query keeps the
hot-key shape pinned to its oracle.

Only numeric samples (``value_kind == 1``) participate, mirroring the
engine's rollup value domain (SURVEY.md §1.3).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.checkpoint import shard_apply

WINDOW_NS = {
    "raw": 1,
    "1m": 60_000_000_000,
    "1h": 3_600_000_000_000,
    "1d": 86_400_000_000_000,
    "1w": 604_800_000_000_000,
}

#: Window ALIGNMENT offsets (ns) for tiers whose boundaries are not epoch
#: multiples.  Weeks are Monday-aligned (ISO): epoch day 0 is a Thursday,
#: so boundaries sit at 4 days + k*7 days (1970-01-05 was a Monday) —
#: matching DuckDB/PostgreSQL ``date_trunc('week', ...)``.  Tiers absent
#: here floor at 0 as before.  A coarser tier's boundaries must still be
#: multiples of every finer tier's width for the cascade to re-bucket
#: exactly (4 days is a whole number of 1m/1h/1d windows).
WINDOW_OFFSET_NS = {
    "1w": 345_600_000_000_000,
}

TIER_ORDER = ("1m", "1h", "1d")

PARTIAL_COLUMNS = [
    "series_key", "window_start", "sum", "count", "min", "max",
    "last", "last_ts", "last_doc", "last_ord",
]


def partial_rollup_batch(batch: pa.Table, window_ns: int = WINDOW_NS["1m"],
                         offset_ns: int = 0) -> pa.Table:
    """Collapse one sample block to per-(series, window) partials.

    Pure numpy kernel: strings are factorized to codes once, rows are
    ordered by the deterministic ``(ts, doc_id, ordinal)`` total order via
    one numeric ``lexsort``, and every aggregate is a ``reduceat`` over
    contiguous group segments — float sums therefore run in that same
    sorted order, keeping repeated runs bit-identical (SURVEY.md §7.3.3).
    """
    import pyarrow.compute as pc

    t = batch.filter(pc.equal(batch.column("value_kind"), 1))
    if t.num_rows == 0:
        return pa.Table.from_pandas(
            pd.DataFrame({c: pd.Series(dtype=t_) for c, t_ in _partial_dtypes().items()}),
            preserve_index=False,
        )
    ts = t.column("ts").cast(pa.int64()).to_numpy()
    values = t.column("value_num").to_numpy(zero_copy_only=False)
    ordinal = t.column("sample_ordinal").cast(pa.int64()).to_numpy()
    series = t.column("series_key").to_pandas()
    docs = t.column("doc_id").to_pandas()
    # numpy % with a positive modulus is non-negative, so the aligned
    # floor holds for timestamps before the offset too
    window = ts - ((ts - offset_ns) % window_ns)

    # Lexicographic doc ranks (sort=True => codes order == string order).
    doc_codes, doc_uniques = pd.factorize(docs, sort=True)
    skey_codes, skey_uniques = pd.factorize(series, sort=True)
    win_codes, win_uniques = pd.factorize(window, sort=True)

    # Deterministic total order, then stable partition into groups: within
    # each (series, window) segment rows stay in (ts, doc, ordinal) order.
    order = np.lexsort((ordinal, doc_codes, ts))
    group = skey_codes[order].astype(np.int64) * len(win_uniques) + win_codes[order]
    seg_order = np.argsort(group, kind="stable")
    idx = order[seg_order]
    group = group[seg_order]

    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    ends = np.r_[starts[1:], len(group)] - 1
    v = values[idx]
    out = pd.DataFrame(
        {
            "series_key": skey_uniques[group[starts] // len(win_uniques)],
            "window_start": np.asarray(win_uniques)[group[starts] % len(win_uniques)],
            "sum": np.add.reduceat(v, starts),
            "count": (ends - starts + 1).astype(np.int64),
            "min": np.minimum.reduceat(v, starts),
            "max": np.maximum.reduceat(v, starts),
            "last": v[ends],
            "last_ts": ts[idx][ends],
            "last_doc": np.asarray(doc_uniques, dtype=object)[doc_codes[idx][ends]],
            "last_ord": ordinal[idx][ends],
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def _partial_dtypes():
    return {
        "series_key": "object", "window_start": "int64", "sum": "float64",
        "count": "int64", "min": "float64", "max": "float64", "last": "float64",
        "last_ts": "int64", "last_doc": "object", "last_ord": "int64",
    }


#: Merge order: (series, window) segments, and inside a segment the 'last'
#: tie-break triple — the order the float sums run in.
_MERGE_ORDER = ["series_key", "window_start", "last_ts", "last_doc", "last_ord"]


def _merge_windows(df: pd.DataFrame, window_ns: int,
                   offset_ns: int = 0) -> pd.DataFrame:
    """Merge partial rows of any number of series into final
    ``(series_key, window)`` rows of size ``window_ns``.

    Input may be partials of a finer tier; re-bucketing is integer floor
    arithmetic on ``window_start``.  Sort order makes both the float sum and
    the 'last' pick deterministic.
    """
    w = df["window_start"].to_numpy()
    df = df.assign(window_start=w - ((w - offset_ns) % window_ns)).sort_values(
        _MERGE_ORDER, kind="stable", ignore_index=True,
    )
    if not len(df):
        return df[PARTIAL_COLUMNS]
    w = df["window_start"].to_numpy()
    series = pd.factorize(df["series_key"])[0]
    # reduceat, NOT pandas agg: pandas' sum/min/max/'last' aggregators
    # skip NaN while the partial kernel's reduceat propagates it, which
    # made merged results depend on block boundaries and could stitch
    # the 'last' tie-break triple from DIFFERENT rows (a NaN 'last' with
    # another row's last_ts/doc) — the mergeability invariant breaks.
    # Taking the whole group-end ROW keeps the triple consistent.
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


def cascade_series_group(df: pd.DataFrame, tiers=TIER_ORDER, *,
                         gap_fill: str | None = None,
                         gap_fill_round: int | None = None) -> pd.DataFrame:
    """Tier cascade (``map_groups`` body) over the 1m partials of one or
    many series, then optional gap-fill (``'locf'|'linear'``, see
    ``stages/gapfill``).

    Emits one frame with a ``tier`` column covering all requested tiers;
    each coarser tier is derived from the previous one (cheap — SURVEY.md
    §7.1.4).  Each series' rows equal those of a call over that series
    alone, bit for bit.
    """
    current = df[PARTIAL_COLUMNS]
    frames = []
    for tier in tiers:
        current = _merge_windows(current, WINDOW_NS[tier],
                                 WINDOW_OFFSET_NS.get(tier, 0))
        frames.append(current.assign(tier=tier))
    result = pd.concat(frames, ignore_index=True)
    result["mean"] = result["sum"] / result["count"]
    # last_doc/last_ord ride along so tier outputs stay MERGEABLE: an
    # incremental update (merge_tier_rollups) needs the full 'last'
    # tie-break triple to pick the same winner a batch recompute would.
    result = result[
        ["tier", "series_key", "window_start", "min", "max", "mean", "sum",
         "count", "last", "last_ts", "last_doc", "last_ord"]
    ].copy()
    result["window_start"] = result["window_start"].astype("datetime64[ns]")
    result["last_ts"] = result["last_ts"].astype("datetime64[ns]")
    if gap_fill is None or not len(result):
        return result
    from .gapfill import gap_fill_tier_group

    return gap_fill_tier_group(result, method=gap_fill,
                               interp_round_digits=gap_fill_round)


class PartialRollupStage:
    """``map_batches`` combiner stage (stateless; callable for clarity)."""

    def __init__(self, window_ns: int = WINDOW_NS["1m"], offset_ns: int = 0):
        self.window_ns = window_ns
        self.offset_ns = offset_ns

    def __call__(self, batch: pa.Table) -> pa.Table:
        return partial_rollup_batch(batch, self.window_ns, self.offset_ns)


def rollup_ladder(samples_ds, tiers=TIER_ORDER, *, batch_size: int = 65536,
                  gap_fill: str | None = None,
                  gap_fill_round: int | None = None):
    """Dataset of SAMPLE_SCHEMA rows -> Dataset of tiered rollup rows.

    One shuffle total: ``shard_apply`` between the partial combiner and
    the cascade, one task call per shard.  ``gap_fill='locf'|'linear'``
    gap-fills in the same group body — no extra wide operation.  The
    resumable job path, ``state/checkpoint.run_sharded_rollup``, shuffles
    samples instead and runs the same partial kernel and body per shard.
    """
    partials = samples_ds.map_batches(
        PartialRollupStage(WINDOW_NS[tiers[0]],
                           WINDOW_OFFSET_NS.get(tiers[0], 0)),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    return shard_apply(partials, lambda df: cascade_series_group(
        df, tiers, gap_fill=gap_fill, gap_fill_round=gap_fill_round))


def merge_tier_rollups(rollup_dss, tiers=TIER_ORDER, *,
                       gap_fill: str | None = None):
    """Incremental continuous-aggregate maintenance: merge ladder outputs
    computed over DISJOINT sample sets into the ladder of their union,
    without touching any sample.  Exact on every order-independent
    aggregate (count/min/max/last via the carried tie-break triple);
    sum/mean differ from a batch recompute only by float reassociation
    (different partial grouping) — identical after the 6-decimal rounding
    every consumer applies.

    Only the finest tier's observed rows (``count > 0``; gap-fill rows are
    not observations) of each input are consumed; they are partial-shaped
    (sum+count carried, full ``(last_ts, last_doc, last_ord)`` tie-break
    triple), so re-running the cascade over their union — and ``gap_fill``
    after it — reproduces what a batch recompute over all samples would
    emit.  This is the nightly-append shape at 100 TB: yesterday's tiers
    merge with today's increment in one shard-keyed shuffle over tiny
    rollup rows — the historical corpus is never re-read.
    """
    import pyarrow.compute as pc

    # the finest tier of THIS ladder, not a hardcoded '1m': a job with
    # tiers=("1h","1d") stores no 1m rows, and filtering on '1m' would
    # silently merge nothing (an empty rollups_updated overwriting the
    # real ladder)
    finest = tiers[0]

    def _to_partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.and_(pc.equal(batch.column("tier"), finest),
                                 pc.greater(batch.column("count"), 0)))
        return pa.table(
            {
                "series_key": t.column("series_key"),
                "window_start": t.column("window_start").cast(pa.int64()),
                "sum": t.column("sum"),
                "count": t.column("count"),
                "min": t.column("min"),
                "max": t.column("max"),
                "last": t.column("last"),
                "last_ts": t.column("last_ts").cast(pa.int64()),
                "last_doc": t.column("last_doc"),
                "last_ord": t.column("last_ord"),
            }
        )

    parts = [
        ds.map_batches(_to_partial, batch_format="pyarrow",
                       zero_copy_batch=True)
        for ds in rollup_dss
    ]
    unioned = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    return shard_apply(unioned, lambda df: cascade_series_group(
        df, tiers, gap_fill=gap_fill))


def rollup_oracle(samples: pa.Table, tiers=TIER_ORDER) -> pd.DataFrame:
    """Single-process oracle: same semantics, no Ray, one block, one
    cascade call.  Used by tests to pin the distributed ladder
    bit-for-bit."""
    out = cascade_series_group(partial_rollup_batch(samples).to_pandas(),
                               tiers)
    if not len(out):
        return pd.DataFrame()
    return out.sort_values(["tier", "series_key", "window_start"],
                           ignore_index=True)
