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
   per shard (``rollup_shard``), in the one sort that also orders its
   chunk rows.
2. **Exactly one wide op**, keyed by shard: every path groups its rows by
   ``shard = md5(series_key) % P`` through ``state/checkpoint.shard_apply``
   (the job samples, ``rollup_ladder`` and ``merge_tier_rollups``
   partials), so one task call covers a whole shard, never one series.
3. **Rank-coded cascade inside each shard task**: a shard's ``series_key``
   and ``last_doc`` strings are mapped once to int64 lexicographic ranks
   (``state/checkpoint.lex_ranks``).  Every tier is then one integer
   ``lexsort`` plus ``reduceat`` over ``(series_key, window)`` segments
   (``_merge``): the partials of every series merge at once into final 1m
   windows, then 1h derives from 1m and 1d from 1h *locally* (sum+count
   carried so ``mean`` is exact — never an average of averages; min of
   mins; max of maxes; ``last`` by maximal ``(last_ts, doc_id, ordinal)``).
   Optional gap-fill is one more step per tier: the merged rows come
   sorted by ``(series, window)``, so one segmented pass fills every
   series (``stages/gapfill.fill_gaps``), and the next tier merges from
   the observed rows, never the filled ones.  Strings are gathered from
   the distinct values once, at the end.  Every path runs this one Arrow
   kernel (``_cascade``): the job's shard (``rollup_shard``), the ladder
   and the tier merge (``cascade_series_group``), ``hopping_rollup`` (its
   ``_merge``) and ``rollup_oracle``.

Determinism: ``last`` needs a total order under Ray's unordered block
execution, so partials carry ``(last_ts, last_doc, last_ord)`` and every
merge sorts on that triple (SURVEY.md §7.3.3); float sums are performed in
that same sorted order so repeated runs are bit-identical, and a segment
sums in the same order whichever other series share its group.  Ranks
sort like the strings they code (UTF-8 byte order is code-point order, so
Python's ``str`` order), so rank-coding moves no row and no sum.  A null
``doc_id`` ranks before every string in the partials and a null
``last_doc`` after every string in the merges.

Skew: a group task holds one whole shard, so ``num_shards`` bounds its
memory; a hot series adds one partial row per (block, window) to its
shard in ``rollup_ladder``, and its samples in the job.  There is no
salting stage; the ``events_rollup_1m_salted`` registry query keeps the
hot-key shape pinned to its oracle.

Only numeric samples (``value_kind == 1``) participate, mirroring the
engine's rollup value domain (SURVEY.md §1.3).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.checkpoint import ShardSamples, lex_ranks, shard_apply
from .gapfill import FILL_NONE, check_gap_fill, fill_gaps

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


def _merge(rows: dict, window_ns: int, offset_ns: int = 0,
           order=None) -> dict:
    """Merge rank-coded partial rows into one row per ``(series_key,
    window)`` of size ``window_ns``.

    ``rows`` maps ``PARTIAL_COLUMNS`` to numpy arrays, ``series_key`` and
    ``last_doc`` holding ``lex_ranks`` (a null ``last_doc`` ranks after
    every string).  One ``lexsort`` over ``(series_key, window, last_ts,
    last_doc, last_ord)`` (or the caller's ``order``, a permutation
    consistent with it) orders the rows; every aggregate is a ``reduceat``
    over the segments, so float sums run in that order, and ``last`` and
    its tie-break triple come from one row, each segment's last.
    """
    w = rows["window_start"]
    # numpy % with a positive modulus is non-negative, so the aligned
    # floor holds for timestamps before the offset too
    w = w - ((w - offset_ns) % window_ns)
    s = rows["series_key"]
    if order is None:
        order = np.lexsort((rows["last_ord"], rows["last_doc"],
                            rows["last_ts"], w, s))
    if not len(order):
        return {c: v[:0] for c, v in rows.items()}
    w, s = w[order], s[order]
    starts = np.flatnonzero(np.r_[True, (w[1:] != w[:-1])
                                  | (s[1:] != s[:-1])])
    last = order[np.r_[starts[1:], len(order)] - 1]
    # reduceat, NOT a NaN-skipping aggregator: a NaN propagates, so a
    # merged value never depends on how rows were cut into partials
    return {
        "series_key": s[starts],
        "window_start": w[starts],
        "sum": np.add.reduceat(rows["sum"][order], starts),
        "count": np.add.reduceat(rows["count"][order], starts),
        "min": np.minimum.reduceat(rows["min"][order], starts),
        "max": np.maximum.reduceat(rows["max"][order], starts),
        "last": rows["last"][last],
        "last_ts": rows["last_ts"][last],
        "last_doc": rows["last_doc"][last],
        "last_ord": rows["last_ord"][last],
    }


def _sample_rows(samples: ShardSamples) -> dict:
    """Every sample as a one-sample partial row (``_merge`` input)."""
    v = samples.values
    return {
        "series_key": samples.series, "window_start": samples.ts, "sum": v,
        "count": np.ones(len(v), np.int64), "min": v, "max": v, "last": v,
        "last_ts": samples.ts, "last_doc": samples.doc,
        "last_ord": samples.ordinal,
    }


def partial_rollup_batch(batch: pa.Table, window_ns: int = WINDOW_NS["1m"],
                         offset_ns: int = 0) -> pa.Table:
    """Collapse one sample block to per-(series, window) partials.

    ``series_key`` and ``doc_id`` are rank-coded once (``lex_ranks``), the
    numeric rows are ordered by ``(series_key, ts, doc_id,
    sample_ordinal)`` with one integer ``lexsort`` (a null ``doc_id``
    before every string), and every aggregate is a ``reduceat`` over the
    ``(series_key, window)`` segments: float sums run in that order, so
    repeated runs are bit-identical (SURVEY.md §7.3.3).  Strings are
    gathered from the distinct values at the end.
    """
    samples = ShardSamples(batch)
    rows = _merge(_sample_rows(samples), window_ns, offset_ns,
                  samples.order(nulls_first=True, numeric=True))
    return pa.table({
        **rows,
        "series_key": samples.keys.take(rows["series_key"]),
        "last_doc": samples.docs.take(rows["last_doc"]),
    })


def _partial_rows(partials):
    """Partial rows (Arrow, or a pandas frame) -> (rank-coded rows,
    series keys, docs)."""
    t = pa.table(partials)
    rows = {c: t.column(c).to_numpy() for c in PARTIAL_COLUMNS}
    rows["series_key"], keys = lex_ranks(t.column("series_key"))
    rows["last_doc"], docs = lex_ranks(t.column("last_doc").cast(pa.string()))
    return rows, keys, docs


def _cascade(rows: dict, keys: pa.Array, docs: pa.Array, tiers,
             order=None, *, gap_fill: str | None = None,
             gap_fill_round: int | None = None) -> pa.Table:
    """Rank-coded partial rows -> every tier's rows in one Arrow table,
    each tier merged from the previous one's observed rows; ``order`` (if
    given) orders the first merge.  With ``gap_fill``, each tier's rows
    are gap-filled (``stages/gapfill.fill_gaps``) in the ``(series,
    window)`` order the merge leaves, and a ``fill`` column is added.
    Strings are gathered once, at the end."""
    check_gap_fill(gap_fill)
    parts, gaps = [], []
    for tier in tiers:
        window_ns = WINDOW_NS[tier]
        rows = _merge(rows, window_ns, WINDOW_OFFSET_NS.get(tier, 0), order)
        order = None
        part = dict(rows, mean=rows["sum"] / rows["count"])
        if gap_fill is not None:
            part, gap = fill_gaps(part, part["series_key"], window_ns,
                                  gap_fill, gap_fill_round)
            gaps.append(gap)
        parts.append(part)
    col = {c: np.concatenate([p[c] for p in parts]) for c in parts[0]}
    ns = pa.timestamp("ns")
    table = pa.table({
        "tier": pa.array(list(tiers), pa.string()).take(np.repeat(
            np.arange(len(parts)), [len(p["count"]) for p in parts])),
        "series_key": keys.take(col["series_key"]),
        "window_start": pa.array(col["window_start"], ns),
        "min": col["min"],
        "max": col["max"],
        "mean": col["mean"],
        "sum": col["sum"],
        "count": col["count"],
        "last": col["last"],
        "last_ts": pa.array(col["last_ts"], ns),
        # last_doc/last_ord ride along so tier outputs stay MERGEABLE: an
        # incremental update (merge_tier_rollups) needs the full 'last'
        # tie-break triple to pick the same winner a batch recompute would
        "last_doc": docs.take(col["last_doc"]),
        "last_ord": col["last_ord"],
    })
    if gap_fill is None:
        return table
    return table.append_column("fill", pa.array(
        [FILL_NONE, gap_fill], pa.string()).take(
            np.concatenate(gaps).view(np.int8)))


def cascade_series_group(partials, tiers=TIER_ORDER, *,
                         gap_fill: str | None = None,
                         gap_fill_round: int | None = None) -> pa.Table:
    """Tier cascade (``shard_apply`` body) over the partials of one or
    many series, then optional gap-fill (``'locf'|'linear'``, see
    ``stages/gapfill``): an Arrow table in (a pandas frame is accepted
    too), an Arrow table out.

    Emits one table with a ``tier`` column covering all requested tiers;
    each coarser tier is derived from the previous one (cheap — SURVEY.md
    §7.1.4) by ``_merge``: per tier one integer ``lexsort`` and
    ``reduceat`` over rank-coded rows, then a segmented gap-fill pass,
    strings gathered once at the end.  Each series' rows equal those of a
    call over that series alone, bit for bit.
    """
    rows, keys, docs = _partial_rows(partials)
    return _cascade(rows, keys, docs, tiers, gap_fill=gap_fill,
                    gap_fill_round=gap_fill_round)


def rollup_shard(samples: ShardSamples, tiers=TIER_ORDER, *,
                 gap_fill: str | None = None) -> pa.Table:
    """The job's shard rollup: samples -> every tier's rows (gap-filled
    with ``gap_fill``) as one Arrow table.  The first tier's merge is the
    partial kernel (``partial_rollup_batch``) run in the shard's one sort;
    a partial of a whole shard is already final."""
    return _cascade(_sample_rows(samples), samples.keys, samples.docs,
                    tiers, samples.order(nulls_first=True, numeric=True),
                    gap_fill=gap_fill)


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
    check_gap_fill(gap_fill)
    partials = samples_ds.map_batches(
        PartialRollupStage(WINDOW_NS[tiers[0]],
                           WINDOW_OFFSET_NS.get(tiers[0], 0)),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    return shard_apply(partials, lambda t: cascade_series_group(
        t, tiers, gap_fill=gap_fill, gap_fill_round=gap_fill_round))


def tier_partials(rollups: pa.Table, tier: str) -> pa.Table:
    """Stored rollup rows -> the partials (``PARTIAL_COLUMNS``, windows and
    ``last_ts`` as int64 ns) of their ``tier`` rows with ``count > 0``:
    gap-fill rows are not observations.  The rows of the finest tier carry
    sum and count and the whole ``last`` tie-break triple, so a cascade
    over them reproduces the tiers of their samples."""
    t = rollups.filter((pc.field("tier") == tier) & (pc.field("count") > 0))
    return pa.table({c: t.column(c).cast(pa.int64())
                     if c in ("window_start", "last_ts") else t.column(c)
                     for c in PARTIAL_COLUMNS})


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
    check_gap_fill(gap_fill)
    # the finest tier of THIS ladder, not a hardcoded '1m': a job with
    # tiers=("1h","1d") stores no 1m rows, and filtering on '1m' would
    # silently merge nothing (an empty rollups_updated overwriting the
    # real ladder)
    parts = [
        ds.map_batches(functools.partial(tier_partials, tier=tiers[0]),
                       batch_format="pyarrow", zero_copy_batch=True)
        for ds in rollup_dss
    ]
    unioned = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    return shard_apply(unioned, lambda t: cascade_series_group(
        t, tiers, gap_fill=gap_fill))


def rollup_oracle(samples: pa.Table, tiers=TIER_ORDER) -> pd.DataFrame:
    """Single-process oracle: same semantics, no Ray, one block, one
    cascade call.  Used by tests to pin the distributed ladder
    bit-for-bit."""
    out = cascade_series_group(partial_rollup_batch(samples), tiers)
    if not out.num_rows:
        return pd.DataFrame()
    return out.to_pandas().sort_values(["tier", "series_key", "window_start"],
                           ignore_index=True)
