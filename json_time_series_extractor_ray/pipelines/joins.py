"""Generic large-x-large shuffle equi-join, plus two small two-pass
relatives (winsorize, exact windowed distinct) that share its "one
bounded shuffle" discipline.

Ray Data has no native join; the engine's broadcast / semi / as-of /
range joins all assume one side is small or time-ordered.  This module
adds the missing general case: both sides large, co-partitioned by a
deterministic hash of the key into ``num_shards`` groups.  Each side's
rows are tagged with their group (``__shard``), the two tagged sides are
unioned, and ONE exchange on the tag (``state/checkpoint.shard_apply``)
brings every group into one shard task, which runs a vectorized pandas
hash-merge.

Scale shape: shard count is the parallelism knob — each shard task holds
~``(|L| + |R|) / num_shards`` rows, so memory per task is bounded and
tunable independent of total size; a hot KEY concentrates only its own
rows (the output explosion of a many-to-many hot key is inherent to join
semantics, not to this layout).  Carried columns are projected BEFORE
the shuffle, so only the join's output columns ever move.  Shard frames
convert int columns to pandas NULLABLE ints (never float64 transit — an
unmatched row must not round co-resident ints > 2^53), and each shard
task casts its output to the declared schema.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.checkpoint import shard_apply
from ._util import as_table, hash_shards, shard_to_pandas
from .registry import register

DEFAULT_SHARDS = 64


def parquet_schema(path: str, columns: list[str]) -> pa.Schema:
    """Projected Arrow schema of a parquet file from footer metadata
    only — the static-schema feed for ``shuffle_join(left_schema=...)``
    (no read, no Dataset execution)."""
    import pyarrow.parquet as pq

    full = pq.read_schema(path)
    return pa.schema([(c, full.field(c).type) for c in columns])


def join_output_schema(left_schema: pa.Schema, right_schema: pa.Schema, *,
                       on: str, right_on: str | None = None,
                       how: str = "inner") -> pa.Schema:
    """The Arrow schema ``shuffle_join`` emits for these inputs: left
    columns, then the right's non-key columns (semi/anti: left only).
    Lets callers chain joins by passing ``left_schema=`` statically —
    see ``shuffle_join``'s schema note."""
    right_key = right_on or on
    fields = [(n, t) for n, t in zip(left_schema.names, left_schema.types)]
    if how not in ("semi", "anti"):
        fields += [(n, t) for n, t in
                   zip(right_schema.names, right_schema.types)
                   if n != right_key]
    return pa.schema(fields)


def shuffle_join(left_ds, right_ds, *, on, right_on: str | None = None,
                 how: str = "inner", num_shards: int = DEFAULT_SHARDS,
                 left_schema: pa.Schema | None = None,
                 right_schema: pa.Schema | None = None):
    """Equi-join two Datasets on a key column; returns the left columns
    followed by the right's non-key columns (right key is dropped —
    it equals ``on``).  ``how`` is ``inner``, ``left``, ``outer``, ``semi``, or
    ``anti`` — the latter two return left columns only (existence
    filters, SQL ``WHERE [NOT] EXISTS``), shuffling just the right's
    KEY column (its payload never moves).

    Every row is tagged with ``__shard``, the pandas-hash group of its
    key (null keys: the extra group ``num_shards``), and the exchange is
    keyed on that tag, which has at most ``num_shards + 1`` distinct values
    per block.  Runs when called, like ``shard_apply``: the output is a
    materialized ``Dataset`` whose blocks have exactly the declared schema
    (``join_output_schema``); a join with no output rows is one empty
    block of it.

    Schema note: when ``left_schema``/``right_schema`` are omitted they
    come from ``ds.schema()``.  On a materialized input (a previous
    ``shuffle_join`` or ``sharded_aggregate``) that is free, but on a lazy
    one it runs part of the input's plan just to learn its types, and the
    join then runs the plan again.  Callers with a lazy input should pass
    the schemas (parquet reads: ``parquet_schema``; prior joins:
    ``join_output_schema``).
    """
    import ray

    if how not in ("inner", "left", "semi", "anti", "outer"):
        raise ValueError(
            f"how must be 'inner', 'left', 'semi', 'anti' or 'outer', "
            f"got {how!r}")
    right_key = right_on or on
    if left_schema is None:
        left_schema = left_ds.schema()
    if right_schema is None:
        right_schema = right_ds.schema()
    lcols = list(left_schema.names)
    rcols = ([] if how in ("semi", "anti")
             else [c for c in right_schema.names if c != right_key])
    clash = set(lcols) & set(rcols)
    if clash:
        raise ValueError(f"overlapping non-key columns: {sorted(clash)}")
    decl = {
        **{n: t for n, t in zip(left_schema.names, left_schema.types)},
        **{n: t for n, t in zip(right_schema.names, right_schema.types)
           if n != right_key and n in rcols},
    }
    key_type = decl[on]
    all_cols = lcols + rcols  # union is positional: fix one column order
    out_schema = pa.schema([(n, decl[n]) for n in all_cols])

    def _canon_key(key):
        """Dtype-stable view for shard hashing: a nullable-int batch
        decays to float64 in to_pandas() while a null-free batch of the
        SAME column stays int64 — pd.util.hash_array hashes those
        differently, scattering one key value across shards.  Null keys
        never match anyway, so fill them Arrow-side (any consistent
        shard); filling BEFORE to_pandas keeps int64 exact — a pandas
        fillna would still run through float64 and round keys > 2^53."""
        import pyarrow.compute as pc

        if pa.types.is_integer(key_type):
            return pc.fill_null(key, 0).to_pandas().astype(np.int64)
        if pa.types.is_floating(key_type):
            return key.to_pandas().astype(np.float64)
        if pa.types.is_string(key_type) or pa.types.is_large_string(key_type):
            return pc.fill_null(key, "").to_pandas().astype(str)
        return key.to_pandas().astype(str)

    def _tag(side: int):
        def _prep(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if side == 1 and how != "outer":
                # Null right keys never match outside FULL OUTER (which
                # keeps them unmatched) — drop them BEFORE the shuffle
                # (less exchange, no NaN decay in downstream pandas frames).
                batch = batch.filter(pc.is_valid(batch.column(right_key)))
            key = (batch.column(on) if side == 0
                   else batch.column(right_key).cast(key_type))
            shard = hash_shards(_canon_key(key), num_shards)
            if side == 0 or how == "outer":
                # Null LEFT keys must survive left/anti/outer joins (and
                # null RIGHT keys survive outer), but a null inside a
                # shard frame decays its int64 __key to float64 in
                # pandas (corrupting co-resident keys > 2^53): route
                # them to a dedicated null-only shard instead.
                null_mask = pc.is_null(key).to_numpy(zero_copy_only=False)
                shard = np.where(null_mask, num_shards, shard) \
                    .astype(np.int32)
            cols = {"__key": key}
            for name in all_cols:
                mine = (side == 0) == (name in lcols)
                if name == on:
                    continue
                cols[name] = (batch.column(name) if mine
                              else pa.nulls(batch.num_rows, decl[name]))
            cols["__side"] = pa.array(
                np.full(batch.num_rows, side, np.int8), pa.int8()
            )
            cols["__shard"] = pa.array(shard, pa.int32())
            return pa.table(cols)
        return _prep

    tagged = left_ds.map_batches(
        _tag(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(right_ds.map_batches(
        _tag(1), batch_format="pyarrow", zero_copy_batch=True
    ))

    lval = [c for c in lcols if c != on]

    def _join(df: pd.DataFrame) -> pd.DataFrame:
        # a shard task may hold several __shard groups: a key lives in
        # one group, so merging them together equals merging each alone
        left = df[df["__side"] == 0][["__key"] + lval]
        # SQL equi-join semantics: NULL keys never match (pandas merge
        # would happily join NaN to NaN), so drop null keys from the
        # right side always — a null-keyed left row then falls out of an
        # inner join and survives a left join unmatched, as SQL does.
        right = df[df["__side"] == 1][["__key"] + rcols]
        right = right[right["__key"].notna()]
        if how in ("semi", "anti"):
            # Existence filter: a null left key matches nothing, so it
            # falls out of semi and survives anti — SQL [NOT] EXISTS.
            mask = left["__key"].isin(right["__key"].unique())
            return left[mask if how == "semi" else ~mask]
        if how == "inner":
            left = left[left["__key"].notna()]
        if how == "outer":
            # null keys never match (SQL): merge only the non-null keys,
            # pass null-keyed rows through unmatched from BOTH sides
            lnull = left[left["__key"].isna()]
            rnull_rows = df[df["__side"] == 1]
            rnull = rnull_rows[rnull_rows["__key"].isna()][["__key"] + rcols]
            merged = left[left["__key"].notna()].merge(
                right, on="__key", how="outer", sort=False)
            # int columns are nullable (shard_to_pandas), so unmatched
            # rows are <NA> — no float64 repair needed
            return pd.concat([merged, lnull, rnull], ignore_index=True)
        return left.merge(right, on="__key", how=how, sort=False)

    def _join_shard(tbl: pa.Table) -> pa.Table:
        # Integer columns cross into pandas as NULLABLE ints: the tagged
        # union nulls the other side's columns in every row, so a default
        # to_pandas() would upcast EVERY int column to float64 and
        # silently round co-resident values > 2^53 — the same corruption
        # class the __key null-shard routing exists to prevent.
        out = _join(shard_to_pandas(tbl.drop_columns(["shard", "__shard"])))
        return as_table(out.rename(columns={"__key": on}), out_schema)

    joined = shard_apply(tagged, _join_shard, num_shards, key="__shard")
    return joined if joined.num_blocks() else ray.data.from_arrow(
        out_schema.empty_table())


# ---------------------------------------------------------------------------
# Winsorize (percentile clipping) — two-pass: exact per-group percentile
# bounds (small result) broadcast into a stateless clip pass.
# ---------------------------------------------------------------------------

def winsorize(ds_fn, *, key: str, value: str, p_lo: float = 0.05,
              p_hi: float = 0.95):
    """Clip ``value`` to its per-``key`` [p_lo, p_hi] discrete quantiles.

    ``ds_fn`` is a zero-arg callable producing the Dataset (consumed
    twice: bounds scan, clip scan — the inherent cost of a two-pass
    statistic).  Bounds are exact ``quantile_disc``-rule picks (existing
    values, no interpolation — so clipping involves ZERO float
    arithmetic and oracles exactly), one row per key, collected and
    broadcast driver-side.  The clip pass is a stateless vectorized
    ``map_batches`` — no shuffle of the big side.
    """
    from .sketches import group_percentiles

    bounds = group_percentiles(
        ds_fn(), key=key, value=value, pcts=(p_lo, p_hi)
    ).to_pandas()
    lut = {
        r[key]: (r[f"p{int(p_lo * 100)}"], r[f"p{int(p_hi * 100)}"])
        for _, r in bounds.iterrows()
    }

    def _clip(batch: pa.Table) -> pa.Table:
        keys = batch.column(key).to_pandas().to_numpy()
        v = batch.column(value).to_numpy(zero_copy_only=False).copy()
        for k, (lo, hi) in lut.items():
            m = keys == k
            v[m] = np.clip(v[m], lo, hi)
        out = {n: batch.column(n) for n in batch.column_names}
        out[f"{value}_w"] = pa.array(v, pa.float64())
        return pa.table(out)

    return ds_fn().map_batches(_clip, batch_format="pyarrow",
                               zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Exact windowed distinct count — the exact counterpart of the HLL sketch.
# ---------------------------------------------------------------------------

def window_distinct(ds, *, ts: str, member: str, window_ns: int):
    """Exact COUNT(DISTINCT member) per tumbling window.

    Per-block combiner first reduces each block to its local unique
    ``(window, member)`` pairs — the only rows that shuffle — then one
    groupby per window finishes the count.  Window count is small (one
    row per window), so the final groups are few and fat, not the
    tiny-group pathology; at 100 TB the pair stream is bounded by
    ``windows x distinct members``, not by row count.
    """

    def _pairs(batch: pa.Table) -> pa.Table:
        t = batch.column(ts).cast(pa.timestamp("ns")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        w = t - (t % window_ns)
        m = batch.column(member).to_numpy(zero_copy_only=False)
        uniq = np.unique(np.stack([w, m]), axis=1)
        return pa.table({
            "window_ns": pa.array(uniq[0], pa.int64()),
            "member": pa.array(uniq[1], pa.int64()),
        })

    def _count(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "window_ns": [df["window_ns"].iloc[0]],
            "n_distinct": pd.Series([df["member"].nunique()], dtype="int64"),
        })

    pairs = ds.map_batches(_pairs, batch_format="pyarrow",
                           zero_copy_batch=True)
    return pairs.groupby("window_ns").map_groups(_count,
                                                 batch_format="pandas")


# ---------------------------------------------------------------------------
# Driver queries + oracles
# ---------------------------------------------------------------------------

def _q_lineitem_orders(sf_dir: str):
    import ray

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus"],
    )
    return shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey")


register(
    "lineitem_orders_join",
    _q_lineitem_orders,
    """
    SELECT l.l_orderkey, l.l_linenumber, l.l_quantity,
           o.o_custkey, o.o_orderstatus
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    """,
)


def _q_customers_without_orders(sf_dir: str):
    """Anti join with a selective right side (every customer has SOME
    order in this fixture, so the unfiltered anti set would be empty)."""
    import pyarrow.compute as pc
    import ray

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal"],
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderstatus", "o_totalprice"],
    )

    def _selective(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch.column("o_orderstatus"), pa.scalar("P")),
            pc.greater(batch.column("o_totalprice"), pa.scalar(150000.0)),
        )
        return batch.filter(keep).select(["o_custkey"])

    orders = orders.map_batches(_selective, batch_format="pyarrow",
                                zero_copy_batch=True)
    return shuffle_join(cust, orders, on="c_custkey", right_on="o_custkey",
                        how="anti")


register(
    "customers_without_orders",
    _q_customers_without_orders,
    """
    SELECT c_custkey, c_name, c_acctbal
    FROM customer c
    WHERE NOT EXISTS (
        SELECT 1 FROM orders o
        WHERE o.o_custkey = c.c_custkey
          AND o.o_orderstatus = 'P' AND o.o_totalprice > 150000
    )
    """,
)


def _q_winsorize(sf_dir: str):
    import ray

    def _events():
        return ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "event_type", "value"],
        )

    return winsorize(_events, key="event_type", value="value")


register(
    "events_winsorized",
    _q_winsorize,
    # quantile_disc picks existing values; LEAST/GREATEST copies one of
    # them or the original -> zero arithmetic, exact hash both engines.
    """
    WITH b AS (
        SELECT event_type,
               quantile_disc(value, 0.05) AS lo,
               quantile_disc(value, 0.95) AS hi
        FROM events GROUP BY event_type
    )
    SELECT e.event_id, e.event_type, e.value,
           LEAST(GREATEST(e.value, b.lo), b.hi) AS value_w
    FROM events e JOIN b USING (event_type)
    """,
)


def _q_window_distinct(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )
    return window_distinct(ds, ts="ts", member="user_id",
                           window_ns=3_600_000_000_000)


register(
    "events_window_distinct_users",
    _q_window_distinct,
    """
    SELECT epoch_ns(ts) - epoch_ns(ts) % 3600000000000 AS window_ns,
           CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_distinct
    FROM events GROUP BY window_ns
    """,
)


# ---------------------------------------------------------------------------
# Left outer join with a pre-aggregated fact side (zero-fill semantics)
# ---------------------------------------------------------------------------

def _q_customer_order_counts(sf_dir: str):
    """Per-customer count / spend of OPEN ('O') orders, with customers
    that have none kept at zero — the canonical left-outer shape: the
    fact table is pre-aggregated per key FIRST (per-block partial
    combiner -> one native groupby sum, so only ~|customers| tiny rows
    enter the join), then LEFT-joined to the dimension and null-filled.
    The status filter makes the null path real in this fixture (~3% of
    customers have no open order).  At 100 TB the aggregate, not the raw
    fact table, is what moves through the join shuffle.
    """
    import pyarrow.compute as pc
    import ray

    from ._util import round_half_away

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderstatus", "o_totalprice"])

    def _partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.equal(batch.column("o_orderstatus"), pa.scalar("O")))
        g = pd.DataFrame({
            "o_custkey": batch.column("o_custkey")
            .to_numpy(zero_copy_only=False),
            "n": np.ones(batch.num_rows, np.int64),
            "spend": batch.column("o_totalprice")
            .to_numpy(zero_copy_only=False),
        }).groupby("o_custkey", sort=False).agg(
            n=("n", "sum"), spend=("spend", "sum")).reset_index()
        return pa.table({
            "o_custkey": pa.array(g["o_custkey"].to_numpy(np.int64),
                                  pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
            "spend": pa.array(g["spend"].to_numpy(np.float64),
                              pa.float64()),
        })

    agg = orders.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("o_custkey").sum(["n", "spend"])

    def _shape_agg(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch.column("o_custkey"),
            "n_open": batch.column("sum(n)").cast(pa.int64()),
            "open_spend": batch.column("sum(spend)"),
        })

    agg = agg.map_batches(_shape_agg, batch_format="pyarrow",
                          zero_copy_batch=True)
    # agg holds a groupby shuffle: declare its (static) schema so the
    # join plan builds without executing the aggregate first.
    joined = shuffle_join(
        cust, agg, on="c_custkey", right_on="o_custkey", how="left",
        left_schema=parquet_schema(f"{sf_dir}/customer.parquet",
                                   ["c_custkey", "c_mktsegment"]),
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("n_open", pa.int64()),
                                ("open_spend", pa.float64())]))

    def _fill(batch: pa.Table) -> pa.Table:
        # cross-engine sum order differs -> round the FINAL sum on both
        # sides; unmatched customers null-fill to 0 / 0.0
        spend = batch.column("open_spend").to_numpy(zero_copy_only=False)
        spend = np.where(np.isnan(spend), 0.0, round_half_away(spend, 6))
        return pa.table({
            "c_custkey": batch.column("c_custkey"),
            "c_mktsegment": batch.column("c_mktsegment"),
            "n_open": pc.fill_null(batch.column("n_open"), 0),
            "open_spend": pa.array(spend, pa.float64()),
        })

    return joined.map_batches(_fill, batch_format="pyarrow",
                              zero_copy_batch=True)


register(
    "customer_order_counts",
    _q_customer_order_counts,
    """
    WITH a AS (
        SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_open,
               round(sum(o_totalprice), 6) AS open_spend
        FROM orders WHERE o_orderstatus = 'O' GROUP BY o_custkey
    )
    SELECT c.c_custkey, c.c_mktsegment,
           CAST(COALESCE(a.n_open, 0) AS BIGINT) AS n_open,
           COALESCE(a.open_spend, 0) AS open_spend
    FROM customer c LEFT JOIN a ON a.o_custkey = c.c_custkey
    """,
)


def _q_users_customers_outer(sf_dir: str):
    """FULL OUTER join: per-user event counts x high-balance customers.
    Both unmatched directions carry traffic (users whose customer row is
    balance-pruned survive with null acctbal; event-less customers
    survive with null count) — the completion of the join algebra over
    the same one-bounded-shuffle layout.  Unmatched int columns travel
    as true Arrow nulls (nullable Int64 path), never NaN-decayed
    floats."""
    import pyarrow.dataset as pads
    import ray

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                   columns=["user_id"])

    def _counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by("user_id").aggregate([("user_id", "count")])
        return pa.table({
            "user_id": g.column("user_id"),
            "n_events": g.column("user_id_count").cast(pa.int64()),
        })

    per_user = (
        events.map_batches(_counts, batch_format="pyarrow",
                           zero_copy_batch=True)
        .groupby("user_id").sum("n_events")
    )

    def _shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "n_events": batch.column("sum(n_events)").cast(pa.int64()),
        })

    per_user = per_user.map_batches(_shape, batch_format="pyarrow",
                                    zero_copy_batch=True)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal"],
        filter=pads.field("c_acctbal") >= 5000.0,
    )
    left_schema = pa.schema([("user_id", pa.int64()),
                             ("n_events", pa.int64())])
    right_schema = pa.schema([("c_custkey", pa.int64()),
                              ("c_acctbal", pa.float64())])
    return shuffle_join(per_user, cust, on="user_id",
                        right_on="c_custkey", how="outer",
                        left_schema=left_schema,
                        right_schema=right_schema)


register(
    "users_customers_outer",
    _q_users_customers_outer,
    """
    WITH u AS (
        SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
        FROM events GROUP BY user_id
    ),
    c AS (
        SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal >= 5000
    )
    SELECT coalesce(u.user_id, c.c_custkey) AS user_id,
           u.n_events, c.c_acctbal
    FROM u FULL JOIN c ON c.c_custkey = u.user_id
    """,
)
