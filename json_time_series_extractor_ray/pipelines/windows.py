"""Event-stream window operators: gap-based sessionization + per-group
top-k.

Both are per-key local computations after ONE co-locating groupby — no
global sort anywhere (SURVEY.md §2.6 "global ordering never required").

* ``sessionize``: split each key's event stream at inactivity gaps
  > ``gap_ns`` (classic session windows).  Per-group body is fully
  vectorized (numpy diff + cumsum for session ids).
* ``topk_per_group``: largest-k rows per key with deterministic
  tie-breaks; the per-group sort is local, bounded by the group's rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import round_half_away
from .registry import register

SESSION_GAP_NS = 30 * 60 * 10**9  # 30 min


def sessionize_group(df: pd.DataFrame, gap_ns: int) -> pd.DataFrame:
    """One user's events -> one row per session window."""
    df = df.sort_values(["ts_ns", "event_id"], kind="stable")
    ts = df["ts_ns"].to_numpy()
    new_session = np.ones(len(ts), dtype=np.int64)
    if len(ts) > 1:
        new_session[1:] = (np.diff(ts) > gap_ns).astype(np.int64)
    sid = np.cumsum(new_session)
    g = pd.DataFrame(
        {
            "sid": sid,
            "ts_ns": ts,
            "value": df["value"].to_numpy(),
        }
    ).groupby("sid", sort=True)
    out = g.agg(
        session_start_ns=("ts_ns", "min"),
        session_end_ns=("ts_ns", "max"),
        n_events=("ts_ns", "size"),
        value_sum=("value", "sum"),
    ).reset_index()
    return pd.DataFrame(
        {
            "user_id": df["user_id"].iloc[0],
            "session_id": out["sid"].astype("int64"),
            "session_start_ns": out["session_start_ns"].astype("int64"),
            "session_end_ns": out["session_end_ns"].astype("int64"),
            "n_events": out["n_events"].astype("int64"),
            "value_sum": round_half_away(out["value_sum"].to_numpy(), 6),
        }
    )


def sessionize(events_ds, *, gap_ns: int = SESSION_GAP_NS,
               num_shards: int = 64):
    """Gap-based session windows per user — shard-merge shape: ONE
    ``groupby(hash(user) % num_shards)`` exchange, then a fully
    vectorized multi-user break/cumsum inside each shard task (never one
    Ray group per user, and no per-user Python loop)."""
    from ._util import hash_shards

    def _project(batch: pa.Table) -> pa.Table:
        users = batch.column("user_id")
        return pa.table(
            {
                "user_id": users,
                "event_id": batch.column("event_id"),
                "ts_ns": batch.column("ts").cast(pa.timestamp("ns")).cast(pa.int64()),
                "value": batch.column("value"),
                "ushard": pa.array(
                    hash_shards(users.to_pandas().astype(str), num_shards),
                    pa.int32()),
            }
        )

    def _fn(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts_ns", "event_id"],
                           kind="stable", ignore_index=True)
        u = d["user_id"].to_numpy()
        ts = d["ts_ns"].to_numpy(np.int64)
        if len(d) == 0:
            return pd.DataFrame({
                "user_id": np.array([], np.int64),
                "session_id": np.array([], np.int64),
                "session_start_ns": np.array([], np.int64),
                "session_end_ns": np.array([], np.int64),
                "n_events": np.array([], np.int64),
                "value_sum": np.array([], np.float64),
            })
        newu = np.concatenate(([True], u[1:] != u[:-1]))
        brk = newu | (np.concatenate(([0], np.diff(ts))) > gap_ns)
        g = np.cumsum(brk)
        t = pd.DataFrame({"g": g, "user_id": u, "ts_ns": ts,
                          "value": d["value"].to_numpy()})
        s = t.groupby("g", sort=True).agg(
            user_id=("user_id", "first"),
            session_start_ns=("ts_ns", "min"),
            session_end_ns=("ts_ns", "max"),
            n_events=("ts_ns", "size"),
            value_sum=("value", "sum"),
        ).reset_index(drop=True)
        # per-user session ids restart at 1 in time order (sessions are
        # already time-ordered within each user after the sort)
        sid = s.groupby("user_id", sort=False).cumcount() + 1
        return pd.DataFrame({
            "user_id": s["user_id"].to_numpy(),
            "session_id": sid.to_numpy(np.int64),
            "session_start_ns": s["session_start_ns"].astype("int64"),
            "session_end_ns": s["session_end_ns"].astype("int64"),
            "n_events": s["n_events"].astype("int64"),
            "value_sum": round_half_away(s["value_sum"].to_numpy(), 6),
        })

    projected = events_ds.map_batches(
        _project, batch_format="pyarrow", zero_copy_batch=True
    )
    return projected.groupby("ushard").map_groups(_fn,
                                                  batch_format="pandas")


def topk_per_group(ds, *, key: str, order_by, k: int, columns):
    """Largest-k rows per ``key``; ``order_by`` = [(col, ascending), ...]
    applied in order (deterministic ties via trailing id columns)."""
    cols = [c for c, _ in order_by]
    asc = [a for _, a in order_by]

    def _fn(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(cols, ascending=asc, kind="stable").head(k)[columns]

    return ds.groupby(key).map_groups(_fn, batch_format="pandas")


def _member_shard_project(member: str, ts: str, payload_col: str,
                          order_col: str, num_shards: int):
    """Shared batch fn for the member-sequence operators
    (:func:`transition_counts`, :func:`dwell_times`): null-member/ts rows
    dropped, ts normalized to int64 ns, plus the stable member shard key."""
    import pyarrow.compute as pc

    from ._util import hash_shards

    def _project(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch.column(member)),
                                     pc.is_valid(batch.column(ts))))
        m = batch.column(member).to_numpy(zero_copy_only=False)
        return pa.table({
            "m": batch.column(member),
            "t": batch.column(ts).cast(pa.timestamp("ns")).cast(pa.int64()),
            "s": batch.column(payload_col),
            "o": batch.column(order_col),
            "__shard": pa.array(hash_shards(m, num_shards), pa.int32()),
        })

    return _project


def transition_counts(ds, *, member: str, ts: str, state_col: str,
                      order_col: str, num_shards: int = 64):
    """Per-member consecutive state transitions (prev → next), counted
    corpus-wide — the Markov transition matrix of an event stream.

    Scale shape: ONE hash-shard groupby (``hash(member) % num_shards``),
    never per-member tiny groups; inside each shard task rows sort by
    ``(member, ts, order_col)`` (the deterministic tie-break) and pair
    extraction is one vectorized shift with a member-boundary mask.
    A member's rows all land in one shard by construction, so no pair
    crosses tasks.  Shard-local (prev, next) counts — bounded by
    ``num_shards × states²`` — feed one tiny final groupby.
    """
    _project = _member_shard_project(member, ts, state_col, order_col,
                                     num_shards)

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["m", "t", "o"], kind="stable",
                            ignore_index=True)
        same = df["m"].to_numpy()[1:] == df["m"].to_numpy()[:-1]
        s = df["s"].to_numpy()
        pairs = pd.DataFrame({"prev_state": s[:-1][same],
                              "next_state": s[1:][same]})
        g = pairs.groupby(["prev_state", "next_state"], sort=False) \
            .size().rename("n").reset_index()
        g["n"] = g["n"].astype("int64")
        return g

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "prev_state": [df["prev_state"].iloc[0]],
            "next_state": [df["next_state"].iloc[0]],
            "n": pd.Series([int(df["n"].sum())], dtype="int64"),
        })

    return ds.map_batches(_project, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("__shard").map_groups(_pairs, batch_format="pandas") \
        .groupby(["prev_state", "next_state"]) \
        .map_groups(_sum, batch_format="pandas")


# ---------------------------------------------------------------------------
# Driver queries
# ---------------------------------------------------------------------------

def _q_sessionize(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )
    return sessionize(ds)


def _q_topk(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "event_id", "value"]
    )
    return topk_per_group(
        ds,
        key="event_type",
        order_by=[("value", False), ("event_id", True)],
        k=3,
        columns=["event_type", "event_id", "value"],
    )


register(
    "events_sessionize",
    _q_sessionize,
    f"""
    WITH x AS (
        SELECT user_id, event_id, epoch_ns(ts) AS ts_ns, value,
               CASE WHEN lag(epoch_ns(ts)) OVER w IS NULL
                         OR epoch_ns(ts) - lag(epoch_ns(ts)) OVER w
                            > {SESSION_GAP_NS}
                    THEN 1 ELSE 0 END AS new_s
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ),
    y AS (
        SELECT *, sum(new_s) OVER (
            PARTITION BY user_id ORDER BY ts_ns, event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
        ) AS sid
        FROM x
    )
    -- sid is sum() OVER -> HUGEINT, which pandas fetches as float64 and
    -- the driver value-hash then sees "1.0" vs our "1" (round-1 hash
    -- failure); cast to BIGINT so both sides are int64.
    SELECT user_id, CAST(sid AS BIGINT) AS session_id,
           min(ts_ns) AS session_start_ns,
           max(ts_ns) AS session_end_ns,
           count(*) AS n_events,
           round(sum(value), 6) AS value_sum
    FROM y
    GROUP BY user_id, sid
    """,
)

register(
    "events_topk_by_type",
    _q_topk,
    """
    SELECT event_type, event_id, value
    FROM events
    QUALIFY row_number() OVER (
        PARTITION BY event_type ORDER BY value DESC, event_id
    ) <= 3
    """,
)


# ---------------------------------------------------------------------------
# Pivot (reshape): tier rollups -> one wide row per window
# ---------------------------------------------------------------------------

PIVOT_SERIES = ("value", "user", "props/k")


def pivot_tier_means(rollup_ds, *, tier: str = "1m",
                     series=PIVOT_SERIES, shards: int = 256):
    """Wide reshape of one rollup tier: one row per window, one
    ``<series>_mean`` column per series (the dashboard/export shape).

    Means are the oracle-comparable rounded means (round(round(sum,6)/
    count,6) — see rollup_tier_for_compare).  The pivot itself never
    groups on the raw window key (hundreds of thousands of near-singleton
    Ray groups are pathologically slow): a ``window % shards`` column
    co-locates ~n/shards windows per group and pandas pivots each shard
    vectorized.
    """
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("tier"), tier))
        window = t.column("window_start").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        sum_r = round_half_away(
            t.column("sum").to_numpy(zero_copy_only=False), 6
        )
        count = t.column("count").to_numpy(zero_copy_only=False)
        mean = round_half_away(sum_r / count, 6)
        return pa.table(
            {
                "window_ns": pa.array(window, pa.int64()),
                "series_key": t.column("series_key"),
                "mean": pa.array(mean, pa.float64()),
                "shard": pa.array((window // 60_000_000_000) % shards,
                                  pa.int32()),
            }
        )

    col_names = {s: f"{s.replace('/', '_')}_mean" for s in series}

    def _pivot(df: pd.DataFrame) -> pd.DataFrame:
        wide = df.pivot_table(index="window_ns", columns="series_key",
                              values="mean", aggfunc="first")
        out = pd.DataFrame({"window_ns": wide.index.to_numpy()})
        for s in series:
            out[col_names[s]] = (
                wide[s].to_numpy() if s in wide.columns else np.nan
            )
        return out

    partial = rollup_ds.map_batches(_partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
    return partial.groupby("shard").map_groups(_pivot, batch_format="pandas")


def _q_pivot(sf_dir: str):
    from .timeseries import events_corpus_dataset, extract_and_rollup

    corpus = events_corpus_dataset(sf_dir)
    rollups = extract_and_rollup(corpus, tiers=("1m",))
    return pivot_tier_means(rollups, tier="1m")


def _pivot_sql() -> str:
    from ._events_sql import rollup_ctes

    ctes = rollup_ctes().format(window_ns=60_000_000_000)
    cases = ",\n           ".join(
        f"max(CASE WHEN series_key = '{s}' THEN mean END)"
        f" AS {s.replace('/', '_')}_mean"
        for s in PIVOT_SERIES
    )
    return f"""
    WITH {ctes},
    r AS (
        SELECT series_key, window_ns,
               round(round(sum, 6) / count, 6) AS mean
        FROM rollup_
    )
    SELECT window_ns,
           {cases}
    FROM r GROUP BY window_ns
    """


register("events_pivot_1m_means", _q_pivot, _pivot_sql())


def unpivot_means(wide_ds, *, series=PIVOT_SERIES):
    """Inverse reshape (melt): wide per-window rows back to long
    ``(window_ns, series_key, mean)`` rows.  Stateless ``map_batches`` —
    each block melts independently, no shuffle; NULL cells (window had no
    value for that series) produce no row, mirroring SQL UNPIVOT."""

    col_names = {s: f"{s.replace('/', '_')}_mean" for s in series}

    def _melt(batch: pa.Table) -> pa.Table:
        windows, keys, means = [], [], []
        w = batch.column("window_ns").to_numpy(zero_copy_only=False)
        for s in series:
            col = batch.column(col_names[s]).to_numpy(zero_copy_only=False)
            ok = ~np.isnan(col)
            windows.append(w[ok])
            keys.extend([s] * int(ok.sum()))
            means.append(col[ok])
        return pa.table(
            {
                "window_ns": pa.array(np.concatenate(windows), pa.int64()),
                "series_key": pa.array(keys, pa.string()),
                "mean": pa.array(np.concatenate(means), pa.float64()),
            }
        )

    return wide_ds.map_batches(_melt, batch_format="pyarrow",
                               zero_copy_batch=True)


def _q_unpivot(sf_dir: str):
    """Pivot then melt: the round trip must reproduce the long rollup-mean
    relation exactly."""
    return unpivot_means(_q_pivot(sf_dir))


def _unpivot_sql() -> str:
    from ._events_sql import rollup_ctes

    ctes = rollup_ctes().format(window_ns=60_000_000_000)
    return f"""
    WITH {ctes}
    SELECT window_ns, series_key,
           round(round(sum, 6) / count, 6) AS mean
    FROM rollup_
    WHERE series_key IN ({', '.join(f"'{s}'" for s in PIVOT_SERIES)})
    """


register("events_unpivot_roundtrip", _q_unpivot, _unpivot_sql())


def cumulative_tier(rollup_ds, *, tier: str = "1m"):
    """Running aggregates per series over one tier's windows: cumulative
    event count and cumulative (rounded) sum in window order — the
    monitoring-counter shape.  Same wide-op budget as the ladder: tier
    rows co-locate per series in ONE groupby, the cumsum is a local
    vectorized pass.

    Rounding: the cumsum runs over per-window sums already rounded to 6
    decimals, and both engines add the same rounded doubles in the same
    window order, so the comparison is stable (sums of exact 1e-6
    multiples never land on a rounding midpoint)."""
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("tier"), tier))
        return pa.table(
            {
                "series_key": t.column("series_key"),
                "window_ns": t.column("window_start").cast(pa.int64()),
                "count": t.column("count"),
                "sum_r": pa.array(
                    round_half_away(
                        t.column("sum").to_numpy(zero_copy_only=False), 6
                    ),
                    pa.float64(),
                ),
            }
        )

    def _cum(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("window_ns", ignore_index=True)
        return pd.DataFrame(
            {
                "series_key": df["series_key"],
                "window_ns": df["window_ns"],
                "cum_count": df["count"].cumsum().astype(np.int64),
                "cum_sum": round_half_away(
                    df["sum_r"].to_numpy().cumsum(), 6
                ),
            }
        )

    partial = rollup_ds.map_batches(_partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
    return partial.groupby("series_key").map_groups(_cum,
                                                    batch_format="pandas")


def _q_cumsum(sf_dir: str):
    from .timeseries import events_corpus_dataset, extract_and_rollup

    corpus = events_corpus_dataset(sf_dir)
    return cumulative_tier(extract_and_rollup(corpus, tiers=("1m",)))


def _cumsum_sql() -> str:
    from ._events_sql import rollup_ctes

    ctes = rollup_ctes().format(window_ns=60_000_000_000)
    return f"""
    WITH {ctes},
    r AS (
        SELECT series_key, window_ns, count, round(sum, 6) AS sum_r
        FROM rollup_
    )
    SELECT series_key, window_ns,
           CAST(sum(count) OVER w AS BIGINT) AS cum_count,
           round(sum(sum_r) OVER w, 6) AS cum_sum
    FROM r
    WINDOW w AS (PARTITION BY series_key ORDER BY window_ns
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    """


register("events_cumsum_1m", _q_cumsum, _cumsum_sql())


def moving_average_tier(rollup_ds, *, tier: str = "1m", width: int = 5):
    """Row-based moving average per series: over the last ``width``
    OBSERVED windows (ROWS semantics — gaps don't widen the frame; pair
    with gap-fill first for time-based frames).  Sample-weighted: the
    frame's summed (rounded) sums divided by its summed counts, mirroring
    the ladder's exact-mean rule."""
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("tier"), tier))
        return pa.table(
            {
                "series_key": t.column("series_key"),
                "window_ns": t.column("window_start").cast(pa.int64()),
                "count": t.column("count"),
                "sum_r": pa.array(
                    round_half_away(
                        t.column("sum").to_numpy(zero_copy_only=False), 6
                    ),
                    pa.float64(),
                ),
            }
        )

    def _mavg(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("window_ns", ignore_index=True)
        mov_sum = round_half_away(
            df["sum_r"].rolling(width, min_periods=1).sum().to_numpy(), 6
        )
        mov_count = (
            df["count"].rolling(width, min_periods=1).sum().astype(np.int64)
        )
        return pd.DataFrame(
            {
                "series_key": df["series_key"],
                "window_ns": df["window_ns"],
                "mov_count": mov_count,
                "mov_avg": round_half_away(
                    mov_sum / mov_count.to_numpy(), 6
                ),
            }
        )

    partial = rollup_ds.map_batches(_partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
    return partial.groupby("series_key").map_groups(_mavg,
                                                    batch_format="pandas")


def _q_mavg(sf_dir: str):
    from .timeseries import events_corpus_dataset, extract_and_rollup

    corpus = events_corpus_dataset(sf_dir)
    return moving_average_tier(extract_and_rollup(corpus, tiers=("1m",)))


def _mavg_sql(width: int = 5) -> str:
    from ._events_sql import rollup_ctes

    ctes = rollup_ctes().format(window_ns=60_000_000_000)
    return f"""
    WITH {ctes},
    r AS (
        SELECT series_key, window_ns, count, round(sum, 6) AS sum_r
        FROM rollup_
    )
    SELECT series_key, window_ns,
           CAST(sum(count) OVER w AS BIGINT) AS mov_count,
           round(round(sum(sum_r) OVER w, 6) / sum(count) OVER w, 6)
               AS mov_avg
    FROM r
    WINDOW w AS (PARTITION BY series_key ORDER BY window_ns
                 ROWS BETWEEN {width - 1} PRECEDING AND CURRENT ROW)
    """


register("events_moving_avg_1m", _q_mavg, _mavg_sql())


def _q_transitions(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"],
    )
    return transition_counts(ds, member="user_id", ts="ts",
                             state_col="event_type", order_col="event_id")


register(
    "events_transition_matrix",
    _q_transitions,
    """
    SELECT prev_state, next_state, count(*) AS n
    FROM (
        SELECT event_type AS prev_state,
               LEAD(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
               ) AS next_state
        FROM events
    )
    WHERE next_state IS NOT NULL
    GROUP BY prev_state, next_state
    """,
)


def lag_delta(ds, *, member: str, ts: str, value: str, order_col: str,
              num_shards: int = 64):
    """Row-level LAG difference per member: each row paired with the
    member's previous value in ``(ts, order_col)`` order; first rows (no
    predecessor) are dropped.  The distributed form of
    ``value - LAG(value) OVER (PARTITION BY member ORDER BY ts, order)``.

    Same scale shape as :func:`transition_counts`: ONE hash-shard
    groupby co-locates each member's rows, the in-task pairing is a
    vectorized shift with a member-boundary mask.  Output rows == input
    rows minus one per member — this op is a row-level derivation, so
    the shuffle carries the projected columns once and nothing else.
    The delta is a raw IEEE double subtraction on identical operands, so
    it hashes exactly against the SQL twin with no rounding.
    """
    import pyarrow.compute as pc

    from ._util import hash_shards

    def _project(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch.column(member)),
                                     pc.is_valid(batch.column(ts))))
        m = batch.column(member).to_numpy(zero_copy_only=False)
        return pa.table({
            "m": batch.column(member),
            "t": batch.column(ts).cast(pa.timestamp("ns")).cast(pa.int64()),
            "o": batch.column(order_col),
            "v": batch.column(value),
            "__shard": pa.array(hash_shards(m, num_shards), pa.int32()),
        })

    def _delta(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["m", "t", "o"], kind="stable",
                            ignore_index=True)
        mm = df["m"].to_numpy()
        same = mm[1:] == mm[:-1]
        v = df["v"].to_numpy()
        out = pd.DataFrame({
            "user_id": pd.Series(mm[1:][same], dtype="int64"),
            "event_id": pd.Series(df["o"].to_numpy()[1:][same],
                                  dtype="int64"),
            "ts_ns": pd.Series(df["t"].to_numpy()[1:][same],
                               dtype="int64"),
            "value": v[1:][same],
            "prev_value": v[:-1][same],
        })
        out["delta"] = out["value"] - out["prev_value"]
        return out

    return ds.map_batches(_project, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("__shard").map_groups(_delta, batch_format="pandas")


def _q_value_delta(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return lag_delta(ds, member="user_id", ts="ts", value="value",
                     order_col="event_id")


register(
    "events_value_delta",
    _q_value_delta,
    """
    SELECT user_id, event_id, ts_ns, value, prev_value,
           value - prev_value AS delta
    FROM (
        SELECT user_id, event_id, epoch_ns(ts) AS ts_ns, value,
               LAG(value) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
               ) AS prev_value
        FROM events
    )
    WHERE prev_value IS NOT NULL
    """,
)


def dwell_times(ds, *, member: str, ts: str, state_col: str, order_col: str,
                num_shards: int = 64):
    """Per-state dwell statistics: how long members sit in each state
    before their next event — ``count``, total dwell, and mean dwell per
    state (the duration-weighted companion of :func:`transition_counts`).

    Same scale shape: ONE hash-shard groupby co-locates each member's
    rows; inside the shard task the (state, next-ts) pairing is one
    vectorized shift with a member-boundary mask, and the shard collapses
    to at most |states| partial rows before the tiny final groupby.  A
    member's final event has no successor and contributes no dwell (the
    SQL LEAD semantics, so the oracle is exact).
    """
    _project = _member_shard_project(member, ts, state_col, order_col,
                                     num_shards)

    def _partials(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["m", "t", "o"], kind="stable",
                            ignore_index=True)
        same = df["m"].to_numpy()[1:] == df["m"].to_numpy()[:-1]
        t = df["t"].to_numpy()
        out = pd.DataFrame({
            "state": df["s"].to_numpy()[:-1][same],
            "dwell_ns": t[1:][same] - t[:-1][same],
        })
        g = out.groupby("state", sort=False)["dwell_ns"] \
            .agg(["size", "sum"]).reset_index()
        return pd.DataFrame({
            "state": g["state"],
            "n": g["size"].astype(np.int64),
            "s": g["sum"].astype(np.int64),
        })

    def _finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        s = batch.column("sum(s)").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "state": batch.column("state"),
            "n_dwells": pa.array(n, pa.int64()),
            "total_dwell_ns": pa.array(s, pa.int64()),
            "avg_dwell_ms": pa.array(
                round_half_away(s.astype(np.float64) / n / 1_000_000.0),
                pa.float64()),
        })

    return (
        ds.map_batches(_project, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("__shard").map_groups(_partials, batch_format="pandas")
        .groupby("state").sum(["n", "s"])
        .map_batches(_finish, batch_format="pyarrow", zero_copy_batch=True)
    )


def _q_dwell(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"],
    )
    return dwell_times(ds, member="user_id", ts="ts",
                       state_col="event_type", order_col="event_id")


register(
    "events_dwell_times",
    _q_dwell,
    """
    WITH seq AS (
        SELECT event_type, epoch_ns(ts) AS ts_ns,
               LEAD(epoch_ns(ts)) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
               ) AS nxt
        FROM events
    )
    SELECT event_type AS state,
           CAST(count(*) AS BIGINT) AS n_dwells,
           CAST(sum(nxt - ts_ns) AS BIGINT) AS total_dwell_ns,
           round(CAST(sum(nxt - ts_ns) AS DOUBLE) / count(*) / 1000000.0, 6)
               AS avg_dwell_ms
    FROM seq WHERE nxt IS NOT NULL
    GROUP BY event_type
    """,
)


DAY_NS_RETENTION = 86_400_000_000_000


def retention_cohorts(events_ds, *, member: str = "user_id", ts: str = "ts",
                      day_ns: int = DAY_NS_RETENTION, num_shards: int = 64):
    """Cohort retention triangle: members grouped by their FIRST active
    day (the cohort), counted on each later active day as an offset —
    (cohort_day, day_offset, n_users).  The standard product-analytics
    retention matrix, here over the events stream.

    Scale shape: per-block combiner dedups to DISTINCT (member, day)
    pairs — bounded by members x days, never raw events — then ONE
    member-sharded groupby computes each member's cohort and offsets in
    a vectorized pandas pass and pre-aggregates to (cohort, offset)
    partials (at most days² rows per shard); a tiny native groupby sums
    the partials (cohort x offset cardinality is days², independent of
    member count).
    """
    import pyarrow.compute as pc

    from ._util import hash_shards

    def _pairs(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch.column(member)),
                                     pc.is_valid(batch.column(ts))))
        m = batch.column(member).to_numpy(zero_copy_only=False)
        day = (batch.column(ts).cast(pa.timestamp("ns")).cast(pa.int64())
               .to_numpy(zero_copy_only=False) // day_ns)
        df = pd.DataFrame({"m": m, "day": day}).drop_duplicates()
        return pa.table({
            "m": pa.array(df["m"].to_numpy()),
            "day": pa.array(df["day"].to_numpy(), pa.int64()),
            "shard": pa.array(hash_shards(df["m"].to_numpy(), num_shards)),
        })

    def _cohort_partials(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["m", "day"])
        cohort = df.groupby("m", sort=False)["day"].transform("min")
        out = (
            pd.DataFrame({
                "cohort_day": cohort.to_numpy(),
                "day_offset": df["day"].to_numpy() - cohort.to_numpy(),
            })
            .groupby(["cohort_day", "day_offset"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_day": batch.column("cohort_day").cast(pa.int64()),
            "day_offset": batch.column("day_offset").cast(pa.int64()),
            "n_users": batch.column("sum(n)").cast(pa.int64()),
        })

    return (
        events_ds.map_batches(_pairs, batch_format="pyarrow",
                              zero_copy_batch=True)
        .groupby("shard")
        .map_groups(_cohort_partials, batch_format="pandas")
        .groupby(["cohort_day", "day_offset"])
        .sum("n")
        .map_batches(_finish, batch_format="pyarrow", zero_copy_batch=True)
    )


def _q_retention_cohorts(sf_dir: str):
    import ray

    return retention_cohorts(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]))


register(
    "events_retention_cohorts",
    _q_retention_cohorts,
    f"""
    WITH act AS (
        SELECT DISTINCT user_id,
               epoch_ns(ts) // {DAY_NS_RETENTION} AS day
        FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
    ),
    coh AS (SELECT user_id, min(day) AS cohort_day FROM act GROUP BY 1)
    SELECT CAST(cohort_day AS BIGINT) AS cohort_day,
           CAST(day - cohort_day AS BIGINT) AS day_offset,
           CAST(count(*) AS BIGINT) AS n_users
    FROM act JOIN coh USING (user_id)
    GROUP BY 1, 2
    """,
)


# ---------------------------------------------------------------------------
# Interval-union coverage (gaps-and-islands)
# ---------------------------------------------------------------------------

COVERAGE_DUR_NS = 5 * 60 * 10**9  # each event opens a 5-minute interval


def interval_coverage(events_ds, *, dur_ns: int = COVERAGE_DUR_NS):
    """Per user: the total time covered by the UNION of the half-open
    activity intervals ``[ts, ts + dur_ns)`` opened by their events, and
    the number of disjoint islands that union collapses into — the
    classic gaps-and-islands interval-union measure (total active time
    under an activity-timeout model; sessionize's duration-weighted
    twin).

    Entirely int64 arithmetic — no float-parity surface.  An island
    starts where an event's start exceeds the running max of all earlier
    interval ends; a new interval's end always exceeds a starting gap's
    running max, so one ``np.maximum.accumulate`` pass yields island
    boundaries and per-island ends in O(n log n) per user (the sort).

    Scale shape: projects to two int64 columns at the read, ONE
    ``user_id`` groupby; per-group work is a vectorized numpy pass over
    that user's events (the sessionize partitioning contract — per-user
    history is bounded; a hot user composes with the time-bucketed
    co-partition + 1-row carry of the as-of family if ever needed).
    """

    def _project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "ts_ns": batch.column("ts").cast(pa.timestamp("ns")).cast(
                pa.int64()),
        })

    def _cover(df: pd.DataFrame) -> pd.DataFrame:
        s = np.sort(df["ts_ns"].to_numpy())
        e = s + dur_ns
        cmax = np.maximum.accumulate(e)
        is_start = np.ones(len(s), dtype=bool)
        if len(s) > 1:
            is_start[1:] = s[1:] > cmax[:-1]
        starts = s[is_start]
        last_idx = np.flatnonzero(np.r_[is_start[1:], True])
        ends = cmax[last_idx]
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_events": np.array([len(s)], np.int64),
            "n_islands": np.array([len(starts)], np.int64),
            "covered_ns": np.array([(ends - starts).sum()], np.int64),
        })

    return (
        events_ds.map_batches(_project, batch_format="pyarrow",
                              zero_copy_batch=True)
        .groupby("user_id")
        .map_groups(_cover, batch_format="pandas")
    )


def _q_interval_coverage(sf_dir: str):
    import ray

    return interval_coverage(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]))


register(
    "events_interval_coverage",
    _q_interval_coverage,
    # Ties in s share an identical end (s + const), so the 1-PRECEDING
    # running max and the island count are order-invariant among ties.
    f"""
    WITH e AS (
        SELECT user_id, epoch_ns(ts) AS s,
               epoch_ns(ts) + {COVERAGE_DUR_NS} AS e
        FROM events
    ),
    o AS (
        SELECT user_id, s, e,
               max(e) OVER (
                   PARTITION BY user_id ORDER BY s
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
               ) AS pmax
        FROM e
    ),
    fl AS (
        SELECT user_id, s, e,
               CASE WHEN pmax IS NULL OR s > pmax THEN 1 ELSE 0 END
                   AS is_start
        FROM o
    ),
    isl AS (
        SELECT user_id, s, e,
               sum(is_start) OVER (
                   PARTITION BY user_id ORDER BY s
                   ROWS UNBOUNDED PRECEDING
               ) AS island
        FROM fl
    ),
    agg AS (
        SELECT user_id, island, min(s) AS st, max(e) AS en,
               count(*) AS ne
        FROM isl GROUP BY user_id, island
    )
    SELECT user_id,
           CAST(sum(ne) AS BIGINT) AS n_events,
           CAST(count(*) AS BIGINT) AS n_islands,
           CAST(sum(en - st) AS BIGINT) AS covered_ns
    FROM agg GROUP BY user_id
    """,
)


# ---------------------------------------------------------------------------
# Rolling median (robust smoother) over the 1m tier
# ---------------------------------------------------------------------------

def moving_median_tier(rollup_ds, *, tier: str = "1m", width: int = 9):
    """Row-based rolling MEDIAN of the window means per series — the
    robust (outlier-immune) twin of ``moving_average_tier``, the standard
    despiking filter before trend fitting.

    Parity: both engines take the median over IDENTICAL round-6 window
    means; even-sized warm-up frames interpolate as the mean of the two
    middle values in both (pandas ``rolling().median()`` / DuckDB
    continuous ``median() OVER``), which is identical IEEE arithmetic on
    identical doubles.  Scale shape: tier rows only (never raw samples),
    ONE ``series_key`` groupby, vectorized pandas rolling kernel.
    """
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("tier"), tier))
        sums = round_half_away(
            t.column("sum").to_numpy(zero_copy_only=False), 6)
        counts = t.column("count").to_numpy(zero_copy_only=False)
        return pa.table({
            "series_key": t.column("series_key"),
            "window_ns": t.column("window_start").cast(pa.int64()),
            "m": pa.array(round_half_away(sums / counts, 6), pa.float64()),
        })

    def _mmed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("window_ns", ignore_index=True)
        med = df["m"].rolling(width, min_periods=1).median().to_numpy()
        return pd.DataFrame({
            "series_key": df["series_key"],
            "window_ns": df["window_ns"].astype(np.int64),
            "window_mean": df["m"],
            "mov_median": round_half_away(med, 6),
        })

    partial = rollup_ds.map_batches(_partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
    return partial.groupby("series_key").map_groups(_mmed,
                                                    batch_format="pandas")


def _q_mmed(sf_dir: str):
    from .timeseries import events_corpus_dataset, extract_and_rollup

    corpus = events_corpus_dataset(sf_dir)
    return moving_median_tier(extract_and_rollup(corpus, tiers=("1m",)))


def _mmed_sql(width: int = 9) -> str:
    from ._events_sql import rollup_ctes

    ctes = rollup_ctes().format(window_ns=60_000_000_000)
    return f"""
    WITH {ctes},
    r AS (
        SELECT series_key, window_ns,
               round(round(sum, 6) / count, 6) AS m
        FROM rollup_
    )
    SELECT series_key, window_ns, m AS window_mean,
           round(median(m) OVER w, 6) AS mov_median
    FROM r
    WINDOW w AS (PARTITION BY series_key ORDER BY window_ns
                 ROWS BETWEEN {width - 1} PRECEDING AND CURRENT ROW)
    """


register("events_moving_median_1m", _q_mmed, _mmed_sql())


# ---------------------------------------------------------------------------
# Sequence-pattern mining: top-k event-type trigrams per member stream
# ---------------------------------------------------------------------------

TRIGRAM_TOP_K = 30


def sequence_trigrams(ds, *, member: str, ts: str, state_col: str,
                      order_col: str, num_shards: int = 64,
                      top_k: int = TRIGRAM_TOP_K):
    """Top-k consecutive state TRIGRAMS across all member streams — the
    order-3 sequence-mining extension of :func:`transition_counts`
    (funnel discovery: which 3-step behaviour chains dominate).

    Scale shape: the same ONE hash-shard groupby as the transition
    matrix (a member's rows land in one shard by construction, so no
    trigram crosses tasks); shard-local trigram counts are bounded by
    ``num_shards x states^3`` rows, the final groupby and the top-k sort
    run over that tiny relation only.  Null states are dropped before
    pairing on both engines.
    """
    _project = _member_shard_project(member, ts, state_col, order_col,
                                     num_shards)
    import pyarrow.compute as pc

    def _drop_null_state(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch.column("s")))

    def _tris(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["m", "t", "o"], kind="stable",
                            ignore_index=True)
        m = df["m"].to_numpy()
        s = df["s"].to_numpy()
        if len(m) < 3:
            return pd.DataFrame({
                "t1": pd.Series([], dtype=object),
                "t2": pd.Series([], dtype=object),
                "t3": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            })
        same = (m[2:] == m[1:-1]) & (m[1:-1] == m[:-2])
        tri = pd.DataFrame({"t1": s[:-2][same], "t2": s[1:-1][same],
                            "t3": s[2:][same]})
        g = tri.groupby(["t1", "t2", "t3"], sort=False) \
            .size().rename("n").reset_index()
        g["n"] = g["n"].astype("int64")
        return g

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "t1": [df["t1"].iloc[0]],
            "t2": [df["t2"].iloc[0]],
            "t3": [df["t3"].iloc[0]],
            "n": pd.Series([int(df["n"].sum())], dtype="int64"),
        })

    counts = ds.map_batches(_project, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .map_batches(_drop_null_state, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("__shard").map_groups(_tris, batch_format="pandas") \
        .groupby(["t1", "t2", "t3"]).map_groups(_sum, batch_format="pandas")
    # final relation is at most states^3 rows — the sort is trivial, and
    # the (n desc, lexicographic) tie-break keeps the k boundary stable
    return counts.sort(["n", "t1", "t2", "t3"],
                       descending=[True, False, False, False]).limit(top_k)


def _q_trigrams(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"],
    )
    return sequence_trigrams(ds, member="user_id", ts="ts",
                             state_col="event_type", order_col="event_id")


register(
    "events_type_trigrams",
    _q_trigrams,
    f"""
    WITH e AS (
        SELECT user_id, ts, event_id, event_type
        FROM events
        WHERE user_id IS NOT NULL AND ts IS NOT NULL
          AND event_type IS NOT NULL
    ),
    o AS (
        SELECT event_type AS t1,
               lead(event_type, 1) OVER w AS t2,
               lead(event_type, 2) OVER w AS t3
        FROM e
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    )
    SELECT t1, t2, t3, count(*) AS n
    FROM o WHERE t2 IS NOT NULL AND t3 IS NOT NULL
    GROUP BY 1, 2, 3
    ORDER BY n DESC, t1, t2, t3
    LIMIT {TRIGRAM_TOP_K}
    """,
)


# ---------------------------------------------------------------------------
# DAU / MAU stickiness (exact trailing-window distinct members)
# ---------------------------------------------------------------------------

_DAY = 86_400_000_000_000
MAU_DAYS = 30


#: a distinct (day, user) pair, and a per-day count
_DAY_USER = pa.schema([("day", pa.int64()), ("user_id", pa.int64())])
_DAY_N = pa.schema([("day", pa.int64()), ("n", pa.int64())])


def dau_mau_stickiness(events_ds, *, mau_days: int = MAU_DAYS,
                       round_digits: int = 6) -> pd.DataFrame:
    """Per observed day: exact DAU, exact trailing-``mau_days`` MAU, and
    the stickiness ratio DAU/MAU of the ``user_id``s of events stamped
    ``ts`` — the standard product-engagement screen, computed with EXACT
    distincts (no sketch).

    Scale shape: the corpus first reduces to DISTINCT (day, user) pairs
    (per-block Arrow dedup combiner + one exchange keyed on the user —
    the shuffle is user-day-bounded, never event-bounded) and one
    exchange keyed on the day counts them; the trailing window is a
    bounded x``mau_days`` expansion of those pairs (the hopping-window
    trick), pruned to observed days via a broadcast day set, then
    deduped and counted per day the same way.  The final day-level merge
    is driver-side on a days-count-sized frame.
    """
    import ray

    from ._util import collect, sharded_aggregate
    from .tpch import _sharded_distinct

    def _project(batch: pa.Table) -> pa.Table:
        day = (batch.column("ts").cast(pa.timestamp("ns")).cast(pa.int64())
               .to_numpy(zero_copy_only=False) // _DAY)
        return pa.table({
            "day": pa.array(day, pa.int64()),
            "user_id": batch.column("user_id"),
        })

    def _day_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("day").aggregate([("day", "count")])
        return pa.table({"day": g.column("day"),
                         "n": g.column("day_count").cast(pa.int64())})

    def _per_day(pairs, name: str) -> pd.DataFrame:
        # the distinct pairs counted per day, on one exchange keyed on it
        return collect(sharded_aggregate(
            pairs, _day_partial,
            lambda df: df.groupby("day", sort=False)["n"].sum().reset_index(),
            _DAY_N, key="day")).rename(columns={"n": name})

    ud = _sharded_distinct(
        events_ds.map_batches(_project, batch_format="pyarrow",
                              zero_copy_batch=True),
        _DAY_USER, "user_id")
    dau = _per_day(ud, "dau")

    days = np.sort(dau["day"].to_numpy(np.int64))
    days_ref = ray.put(days)

    def _expand(batch: pa.Table) -> pa.Table:
        obs = ray.get(days_ref)  # sorted observed-day array, broadcast
        day = batch.column("day").to_numpy(zero_copy_only=False)
        mem = batch.column("user_id").to_numpy(zero_copy_only=False)
        tgt = (day[:, None] + np.arange(mau_days)[None, :]).ravel()
        mem_rep = np.repeat(mem, mau_days)
        keep = np.isin(tgt, obs)
        return pa.table({
            "day": pa.array(tgt[keep], pa.int64()),
            "user_id": pa.array(mem_rep[keep]),
        })

    mau = _per_day(_sharded_distinct(
        ud.map_batches(_expand, batch_format="pyarrow",
                       zero_copy_batch=True),
        _DAY_USER, "user_id"), "mau")

    out = dau.merge(mau, on="day", how="inner")
    return pd.DataFrame({
        "day": out["day"].astype("int64"),
        "dau": out["dau"].astype("int64"),
        "mau": out["mau"].astype("int64"),
        "stickiness": round_half_away(
            out["dau"].to_numpy(np.float64)
            / out["mau"].to_numpy(np.float64), round_digits),
    }).sort_values("day", ignore_index=True)


def _q_dau_mau(sf_dir: str) -> pd.DataFrame:
    import ray

    return dau_mau_stickiness(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]))


register(
    "events_dau_stickiness",
    _q_dau_mau,
    f"""
    WITH ud AS (
        SELECT DISTINCT CAST(epoch_ns(ts) // {_DAY} AS BIGINT) AS day,
               user_id
        FROM events
    ),
    days AS (SELECT DISTINCT day FROM ud),
    dau AS (
        SELECT day, CAST(count(*) AS BIGINT) AS dau FROM ud GROUP BY day
    ),
    mau AS (
        SELECT d.day, CAST(count(DISTINCT u.user_id) AS BIGINT) AS mau
        FROM days d JOIN ud u
          ON u.day BETWEEN d.day - {MAU_DAYS - 1} AND d.day
        GROUP BY d.day
    )
    SELECT dau.day, dau.dau, mau.mau,
           round(CAST(dau.dau AS DOUBLE) / mau.mau, 6) AS stickiness
    FROM dau JOIN mau ON dau.day = mau.day
    ORDER BY dau.day
    """,
)


# ---------------------------------------------------------------------------
# Funnel time-to-convert latency (first click -> first subsequent purchase)
# ---------------------------------------------------------------------------

def funnel_latency(events_ds, *, member: str = "user_id", ts: str = "ts",
                   step_a: str = "click", step_b: str = "purchase",
                   num_shards: int = 64) -> pd.DataFrame:
    """How long conversion takes: per user, the gap from the FIRST
    ``step_a`` event to the first ``step_b`` event at-or-after it;
    summarized as exact median and p90 over converting users.

    Scale shape: events project to (member, type flag, ts) and flow
    through ONE member-sharded shuffle; each group task computes its
    users' latencies fully vectorized (two pandas groupby-mins + a
    masked min — no per-user Python loop).  The percentiles are then
    computed DISTRIBUTIVELY over the per-converting-user latency
    Dataset by ``sketches.dataset_quantiles_exact`` (bucket-count
    refinement) — nothing per-user is ever collected to the driver.
    Percentiles interpolate linearly (numpy 'linear' == DuckDB
    ``quantile_cont``); the round-6 seconds output absorbs the two
    engines' sub-ULP formula difference.  Zero converting users yields
    the SQL twin's row: n_users=0 with NULL percentiles.
    """
    import ray  # noqa: F401

    from ._util import hash_shards
    from .sketches import dataset_quantiles_exact

    def _project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        et = batch.column("event_type")
        keep = pc.or_(pc.equal(et, pa.scalar(step_a)),
                      pc.equal(et, pa.scalar(step_b)))
        t = batch.filter(keep)
        mem = t.column(member).to_numpy(zero_copy_only=False)
        return pa.table({
            member: pa.array(mem),
            "is_b": pc.equal(t.column("event_type"), pa.scalar(step_b)),
            "ts_ns": t.column(ts).cast(pa.timestamp("ns")).cast(pa.int64()),
            "shard": pa.array(
                hash_shards(pd.Series(mem).astype(str), num_shards),
                pa.int32()),
        })

    def _latencies(df: pd.DataFrame) -> pd.DataFrame:
        # first step_a per user; then first step_b at-or-after it —
        # all int64 (a float transit would round ns epochs > 2^53)
        t0 = (df.loc[~df["is_b"]].groupby(member, sort=False)["ts_ns"]
              .min().rename("t0"))
        b = df.loc[df["is_b"], [member, "ts_ns"]].merge(
            t0, left_on=member, right_index=True, how="inner")
        b = b[b["ts_ns"] >= b["t0"]]
        g = b.groupby(member, sort=False).agg(
            t1=("ts_ns", "min"), t0=("t0", "first"))
        return pd.DataFrame({
            "lat_ns": (g["t1"] - g["t0"]).to_numpy(np.int64),
        })

    lat_ds = (
        events_ds.map_batches(_project, batch_format="pyarrow",
                              zero_copy_batch=True)
        .groupby("shard").map_groups(_latencies, batch_format="pandas")
    ).materialize()  # one int per CONVERTING USER; scanned ~4x below
    n, pick = dataset_quantiles_exact(lat_ds, "lat_ns", (0.5, 0.9))
    if n == 0:
        return pd.DataFrame({
            "n_users": pd.array([0], dtype="int64"),
            "median_s": [np.nan], "p90_s": [np.nan],
        })
    return pd.DataFrame({
        "n_users": pd.array([n], dtype="int64"),
        "median_s": [round_half_away(np.float64(pick[0.5] / 1e9), 6)],
        "p90_s": [round_half_away(np.float64(pick[0.9] / 1e9), 6)],
    })


def _q_funnel_latency(sf_dir: str) -> pd.DataFrame:
    import ray

    return funnel_latency(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"]))


register(
    "events_funnel_latency",
    _q_funnel_latency,
    """
    WITH c AS (
        SELECT user_id, min(epoch_ns(ts)) AS t0
        FROM events WHERE event_type = 'click' GROUP BY user_id
    ),
    p AS (
        SELECT e.user_id, min(epoch_ns(e.ts)) AS t1
        FROM events e JOIN c ON c.user_id = e.user_id
        WHERE e.event_type = 'purchase' AND epoch_ns(e.ts) >= c.t0
        GROUP BY e.user_id
    ),
    l AS (
        SELECT c.user_id, p.t1 - c.t0 AS lat_ns
        FROM c JOIN p ON p.user_id = c.user_id
    )
    SELECT CAST(count(*) AS BIGINT) AS n_users,
           round(quantile_cont(lat_ns, 0.5) / 1e9, 6) AS median_s,
           round(quantile_cont(lat_ns, 0.9) / 1e9, 6) AS p90_s
    FROM l
    """,
)


def ordered_funnel(events_ds, *, member: str = "user_id", ts: str = "ts",
                   steps=("view", "click", "purchase"),
                   num_shards: int = 64) -> pd.DataFrame:
    """K-step ordered funnel: per user, step i counts only if its FIRST
    qualifying event is at-or-after the user's step-(i-1) time — the
    general form of the two-step ``funnel_latency`` chain.

    Scale shape: events project to (member, step index, ts) and flow
    through ONE member-sharded shuffle; each shard task runs K-1
    vectorized merge+groupby-min passes over ITS users (sequential in K,
    parallel across shards) and emits a single partial count row, so
    the driver folds #shards rows regardless of corpus size.  Counts
    are exact ints; conversion rates divide them (round 6)."""
    import ray  # noqa: F401

    from ._util import hash_shards

    step_ids = {s: i for i, s in enumerate(steps)}
    k = len(steps)

    def _project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array(list(steps)))
        t = batch.filter(keep)
        mem = t.column(member).to_numpy(zero_copy_only=False)
        step = pd.Series(
            t.column("event_type").to_pandas()).map(step_ids)
        return pa.table({
            member: pa.array(mem),
            "step": pa.array(step.to_numpy(np.int8), pa.int8()),
            "ts_ns": t.column(ts).cast(pa.timestamp("ns")).cast(pa.int64()),
            "shard": pa.array(
                hash_shards(pd.Series(mem).astype(str), num_shards),
                pa.int32()),
        })

    def _partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        t_prev = (df.loc[df["step"] == 0].groupby(member, sort=False)
                  ["ts_ns"].min().rename("t_prev"))
        counts = [len(t_prev)]
        for i in range(1, k):
            b = df.loc[df["step"] == i, [member, "ts_ns"]].merge(
                t_prev.reset_index(), on=member, how="inner")
            b = b[b["ts_ns"] >= b["t_prev"]]
            t_prev = (b.groupby(member, sort=False)["ts_ns"].min()
                      .rename("t_prev"))
            counts.append(len(t_prev))
        return pd.DataFrame({f"n{i}": pd.Series([c], dtype="int64")
                             for i, c in enumerate(counts)})

    partials = (
        events_ds.map_batches(_project, batch_format="pyarrow",
                              zero_copy_batch=True)
        .groupby("shard").map_groups(_partial_counts,
                                     batch_format="pandas")
    )
    sums = partials.sum([f"n{i}" for i in range(k)])
    n = [int(sums[f"sum(n{i})"] or 0) for i in range(k)]
    out = {f"n_{s}": pd.Series([n[i]], dtype="int64")
           for i, s in enumerate(steps)}
    for i in range(1, k):
        out[f"conv_{steps[i - 1]}_{steps[i]}"] = [
            round_half_away(np.float64(n[i] / n[i - 1]), 6)
            if n[i - 1] else np.nan]
    out["conv_overall"] = [
        round_half_away(np.float64(n[-1] / n[0]), 6) if n[0] else np.nan]
    return pd.DataFrame(out)


def _q_funnel_3step(sf_dir: str) -> pd.DataFrame:
    import ray

    return ordered_funnel(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"]))


register(
    "events_funnel_3step",
    _q_funnel_3step,
    """
    WITH s0 AS (
        SELECT user_id, min(epoch_ns(ts)) AS t0
        FROM events WHERE event_type = 'view' GROUP BY 1
    ),
    s1 AS (
        SELECT e.user_id, min(epoch_ns(e.ts)) AS t1
        FROM events e JOIN s0 USING (user_id)
        WHERE e.event_type = 'click' AND epoch_ns(e.ts) >= t0
        GROUP BY 1
    ),
    s2 AS (
        SELECT e.user_id, min(epoch_ns(e.ts)) AS t2
        FROM events e JOIN s1 USING (user_id)
        WHERE e.event_type = 'purchase' AND epoch_ns(e.ts) >= t1
        GROUP BY 1
    ),
    c AS (
        SELECT (SELECT count(*) FROM s0) AS c0,
               (SELECT count(*) FROM s1) AS c1,
               (SELECT count(*) FROM s2) AS c2
    )
    SELECT CAST(c0 AS BIGINT) AS n_view,
           CAST(c1 AS BIGINT) AS n_click,
           CAST(c2 AS BIGINT) AS n_purchase,
           round(c1 / CAST(c0 AS DOUBLE), 6) AS conv_view_click,
           round(c2 / CAST(c1 AS DOUBLE), 6) AS conv_click_purchase,
           round(c2 / CAST(c0 AS DOUBLE), 6) AS conv_overall
    FROM c
    """,
)


def kaplan_meier(events_ds, *, member: str = "user_id", ts: str = "ts",
                 step_a: str = "view", step_b: str = "purchase",
                 num_shards: int = 64) -> pd.DataFrame:
    """Kaplan-Meier survival curve for time-to-convert: users enter at
    their FIRST ``step_a``, the event is the first ``step_b`` at-or-
    after it (duration in whole days), and non-converters are CENSORED
    at the corpus horizon (global max event time).  Output: one row per
    distinct event time with the at-risk count, event count, and the
    product-limit survival estimate

        S(t) = prod_{s <= t} (1 - d_s / n_s)

    evaluated as ``exp(cumsum(ln(1 - d/n)))`` on BOTH engines (the SQL
    window form), so the expression trees match; survival rounds to 6.

    Scale shape: ONE member-sharded shuffle computes per-user durations
    vectorized (the ``ordered_funnel`` merge pattern); durations then
    collapse to per-DAY (d, total) counts — the KM table is bounded by
    the horizon in days, never by users — and one tiny task finishes
    the suffix-sum + product-limit pass.
    """
    import pyarrow.compute as pc
    import ray  # noqa: F401

    from ._util import hash_shards

    day_ns = 86_400_000_000_000
    t_max = int(pd.Timestamp(events_ds.max(ts)).value)

    def _project(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        keep = pc.or_(pc.equal(et, pa.scalar(step_a)),
                      pc.equal(et, pa.scalar(step_b)))
        t = batch.filter(keep)
        mem = t.column(member).to_numpy(zero_copy_only=False)
        return pa.table({
            member: pa.array(mem),
            "is_b": pc.equal(t.column("event_type"), pa.scalar(step_b)),
            "ts_ns": t.column(ts).cast(pa.timestamp("ns")).cast(pa.int64()),
            "shard": pa.array(
                hash_shards(pd.Series(mem).astype(str), num_shards),
                pa.int32()),
        })

    def _durations(df: pd.DataFrame) -> pd.DataFrame:
        t0 = (df.loc[~df["is_b"]].groupby(member, sort=False)["ts_ns"]
              .min().rename("t0"))
        b = df.loc[df["is_b"], [member, "ts_ns"]].merge(
            t0.reset_index(), on=member, how="inner")
        b = b[b["ts_ns"] >= b["t0"]]
        tp = b.groupby(member, sort=False)["ts_ns"].min().rename("tp")
        u = t0.reset_index().merge(tp.reset_index(), on=member,
                                   how="left")
        ev = u["tp"].notna().to_numpy()
        end = np.where(ev, u["tp"].to_numpy(np.float64),
                       float(t_max)).astype(np.int64)
        t_days = (end - u["t0"].to_numpy(np.int64)) // day_ns
        g = pd.DataFrame({"t": t_days, "d": ev.astype(np.int64),
                          "tot": np.ones(len(u), dtype=np.int64)})
        return g.groupby("t", sort=False)[["d", "tot"]].sum().reset_index()

    counts = (
        events_ds.map_batches(_project, batch_format="pyarrow",
                              zero_copy_batch=True)
        .groupby("shard").map_groups(_durations, batch_format="pandas")
        .groupby("t").sum(["d", "tot"])
    ).take_all()  # one row per distinct DAY: horizon-bounded, tiny
    tbl = pd.DataFrame(counts).rename(
        columns={"sum(d)": "d", "sum(tot)": "tot"}).sort_values(
        "t", ignore_index=True)
    # suffix sums: n(t) = # users whose duration-or-censor time >= t
    n_at_risk = tbl["tot"].to_numpy(np.int64)[::-1].cumsum()[::-1]
    ev_mask = tbl["d"].to_numpy(np.int64) > 0
    t_ev = tbl["t"].to_numpy(np.int64)[ev_mask]
    d_ev = tbl["d"].to_numpy(np.int64)[ev_mask]
    n_ev = n_at_risk[ev_mask]
    # d == n (everyone remaining converts) drives survival to EXACT 0;
    # ln(0) is guarded on both engines with the same flag+zero-term form
    zero = d_ev == n_ev
    terms = np.where(zero, 0.0, np.log(1.0 - d_ev / n_ev))
    surv = np.where(np.cumsum(zero.astype(np.int64)) > 0, 0.0,
                    np.exp(np.cumsum(terms)))
    # Nelson-Aalen cumulative hazard: running sum of exact d/n ratios
    hazard = np.cumsum(d_ev / n_ev)
    return pd.DataFrame({
        "duration_days": pd.Series(t_ev, dtype="int64"),
        "n_at_risk": pd.Series(n_ev, dtype="int64"),
        "n_events": pd.Series(d_ev, dtype="int64"),
        "survival": round_half_away(surv, 6),
        "cum_hazard": round_half_away(hazard, 6),
    })


def _q_kaplan_meier(sf_dir: str) -> pd.DataFrame:
    import ray

    return kaplan_meier(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"]))


register(
    "events_kaplan_meier",
    _q_kaplan_meier,
    """
    WITH tmax AS (SELECT max(epoch_ns(ts)) AS tm FROM events),
    v AS (
        SELECT user_id, min(epoch_ns(ts)) AS t0
        FROM events WHERE event_type = 'view' GROUP BY 1
    ),
    p AS (
        SELECT e.user_id, min(epoch_ns(e.ts)) AS tp
        FROM events e JOIN v USING (user_id)
        WHERE e.event_type = 'purchase' AND epoch_ns(e.ts) >= v.t0
        GROUP BY 1
    ),
    u AS (
        SELECT v.user_id,
               CASE WHEN p.tp IS NOT NULL
                    THEN (p.tp - v.t0) // 86400000000000
                    ELSE (tmax.tm - v.t0) // 86400000000000
               END AS t,
               (p.tp IS NOT NULL) AS ev
        FROM v LEFT JOIN p USING (user_id), tmax
    ),
    c AS (
        SELECT t, sum(CASE WHEN ev THEN 1 ELSE 0 END) AS d,
               count(*) AS tot
        FROM u GROUP BY 1
    ),
    km AS (
        SELECT t, d,
               sum(tot) OVER (ORDER BY t DESC
                              ROWS UNBOUNDED PRECEDING) AS n_at_risk
        FROM c
    )
    SELECT CAST(t AS BIGINT) AS duration_days,
           CAST(n_at_risk AS BIGINT) AS n_at_risk,
           CAST(d AS BIGINT) AS n_events,
           CASE WHEN sum(CASE WHEN d = n_at_risk THEN 1 ELSE 0 END)
                     OVER w > 0 THEN 0.0
                ELSE round(exp(sum(CASE WHEN d = n_at_risk THEN 0.0
                                        ELSE ln(1 - d / CAST(n_at_risk
                                                             AS DOUBLE))
                                   END) OVER w), 6)
           END AS survival,
           round(sum(d / CAST(n_at_risk AS DOUBLE)) OVER w, 6)
               AS cum_hazard
    FROM km
    WHERE d > 0
    WINDOW w AS (ORDER BY t ROWS UNBOUNDED PRECEDING)
    """,
)


WILSON_Z = 1.96  # 95% interval


def funnel_wilson(events_ds, *, step_a: str = "view",
                  step_b: str = "click") -> pd.DataFrame:
    """One funnel step's conversion rate with its Wilson 95% interval —
    the right CI for proportions (never leaves [0, 1], sane at small n):

        center = (p + z^2/2n) / (1 + z^2/n)
        half   = z * sqrt(p*(1-p)/n + z^2/(4n^2)) / (1 + z^2/n)

    Counts come from the same one-shuffle ``ordered_funnel`` machinery;
    p is an exact int ratio and the interval is one identical IEEE
    expression on both engines, rounded to 6.
    """
    counts = ordered_funnel(events_ds, steps=(step_a, step_b))
    n = int(counts[f"n_{step_a}"].iloc[0])
    x = int(counts[f"n_{step_b}"].iloc[0])
    if n == 0:
        return pd.DataFrame({
            "n_base": pd.array([0], dtype="int64"),
            "n_converted": pd.array([0], dtype="int64"),
            "rate": [np.nan], "wilson_lo": [np.nan], "wilson_hi": [np.nan],
        })
    z = WILSON_Z
    p = x / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4.0 * n * n)) / denom
    return pd.DataFrame({
        "n_base": pd.array([n], dtype="int64"),
        "n_converted": pd.array([x], dtype="int64"),
        "rate": [float(round_half_away(np.float64(p), 6))],
        "wilson_lo": [float(round_half_away(np.float64(center - half), 6))],
        "wilson_hi": [float(round_half_away(np.float64(center + half), 6))],
    })


def _q_funnel_wilson(sf_dir: str) -> pd.DataFrame:
    import ray

    return funnel_wilson(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"]))


register(
    "events_funnel_wilson",
    _q_funnel_wilson,
    f"""
    WITH s0 AS (
        SELECT user_id, min(epoch_ns(ts)) AS t0
        FROM events WHERE event_type = 'view' GROUP BY 1
    ),
    s1 AS (
        SELECT e.user_id
        FROM events e JOIN s0 USING (user_id)
        WHERE e.event_type = 'click' AND epoch_ns(e.ts) >= t0
        GROUP BY 1
    ),
    c AS (
        SELECT (SELECT count(*) FROM s0) AS n,
               (SELECT count(*) FROM s1) AS x
    ),
    w AS (
        SELECT n, x,
               x / CAST(n AS DOUBLE) AS p,
               1 + {WILSON_Z} * {WILSON_Z} / n AS denom
        FROM c WHERE n > 0
    )
    SELECT CAST(n AS BIGINT) AS n_base,
           CAST(x AS BIGINT) AS n_converted,
           round(p, 6) AS rate,
           round((p + {WILSON_Z} * {WILSON_Z} / (2 * n)) / denom
                 - {WILSON_Z} * sqrt(p * (1 - p) / n
                                     + {WILSON_Z} * {WILSON_Z}
                                       / (4.0 * n * n)) / denom, 6)
               AS wilson_lo,
           round((p + {WILSON_Z} * {WILSON_Z} / (2 * n)) / denom
                 + {WILSON_Z} * sqrt(p * (1 - p) / n
                                     + {WILSON_Z} * {WILSON_Z}
                                       / (4.0 * n * n)) / denom, 6)
               AS wilson_hi
    FROM w
    """,
)
