"""Relational / multi-table operators: grouping sets, funnels, set ops,
table profiling, and multi-join compositions.

The reference library has no relational layer at all (it is a
per-document flat-map, SURVEY.md §2.6); these are the engine-side
operators a warehouse-shaped workload needs around the extraction core.
Every operator keeps the repo's one-shuffle discipline: a vectorized
per-block combiner bounds what moves, then ONE shard exchange
(``_util.sharded_aggregate`` on ``state/checkpoint.shard_apply``) brings
every partial row of one key into one task, which finishes many keys at
once — never a driver-side loop over the big side, and no Ray Data
``groupby``.  A key shards on its natural column, string or integer; a
composite key on its leading column; a global reduce (a top-n, a tercile
or ABC classification, a skyline merge) gathers into one task
(``key=None``).  Joins of two large sides run on the same exchange
(``joins.shuffle_join``).  The test-data reads go through
``_util.read_parquet_file``.

Scale shapes
------------
- ``grouping_sets_stats``: partials only for the FINEST level move (one
  row per block x group); coarser levels are re-aggregated from the
  merged finest table, which is bounded by group cardinality, not row
  count — the classic rollup-from-finest trick, so a 3-level cube costs
  the same shuffle as a single groupby.
- ``funnel_users`` / ``member_set_op``: per-block partial min/max (or
  presence bits) per member — the shuffle carries one row per
  block x member, and the final merge groups are member-sized.
- ``table_profile``: per-block stats partials plus block-DISTINCT value
  strings; shuffle volume is bounded by sum of per-block distincts
  (column cardinality at worst), never raw rows.
- ``revenue_by_nation`` (query): two bounded shuffle joins
  (``joins.shuffle_join``) + one broadcast lookup + a 25-row aggregate —
  the join tree a TPC-H Q5-style pipeline needs, expressed Ray-native.
- ``bloom-prefiltered join`` (query): the small side's keys become a
  fixed-size bloom bitmap broadcast once (``ray.put``); the big side is
  pruned BEFORE its shuffle, so the exchange moves only probable
  matches + a bounded false-positive residue — at 100 TB this is the
  difference between shuffling the corpus and shuffling the matches.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import (
    as_table,
    read_parquet_file,
    round_half_away,
    sharded_aggregate,
    value_ordered_shards,
)
from .registry import register

DAY_NS = 86_400_000_000_000

_I, _F, _S = pa.int64(), pa.float64(), pa.string()


def _schema(**types) -> pa.Schema:
    return pa.schema(list(types.items()))


def _agg(df: pd.DataFrame, keys, schema: pa.Schema, **aggs) -> pa.Table:
    """``df`` grouped by ``keys`` with the named aggregates, as one table
    of ``schema`` (a partial's, so every partial block has one schema)."""
    return as_table(df.groupby(keys, sort=False).agg(**aggs).reset_index(),
                    schema)


# ---------------------------------------------------------------------------
# Grouping sets / rollup-from-finest
# ---------------------------------------------------------------------------

#: grouping-level sentinels (SQL ``GROUPING() = 1``), then the sentinels
#: of a null key and a null timestamp's window
ALL_KEY, ALL_WINDOW, NULL_KEY, NULL_WINDOW = "<all>", -1, "<null>", -2

_GSETS = _schema(key=_S, window_ns=_I, n=_I, vsum=_F)


def grouping_sets_stats(ds, *, key: str, ts: str, value: str,
                        window_ns: int = DAY_NS):
    """count + round-6 value sum at three grouping levels —
    ``(key, window)``, ``(key)``, ``()`` — in ONE pass / ONE shuffle.

    Per-block combiner reduces each block to its local finest-level
    partials; one exchange on ``key`` merges them; the two coarser
    levels are re-aggregated from the merged finest rows (exact for
    counts, round-6-normalized for float sums, the repo-standard sum
    rule).  NULL grouping values get their OWN sentinels (``NULL_KEY`` /
    ``NULL_WINDOW``, distinct from the ``ALL_*`` grouping-level
    sentinels — SQL's ``GROUPING()`` distinction) so null-key rows form
    a real group and the grand total counts every row; all sentinels keep
    the output cleanly typed (driver-hash lesson: nullable BIGINT
    oracles decay to float64).  Null VALUES are skipped by the sums
    (SQL ``sum`` semantics; an all-null group sums to 0.0 here where SQL
    yields NULL — counts are over rows either way).
    """
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        tcol = batch.column(ts).cast(pa.timestamp("ns")).cast(pa.int64())
        ts_null = pc.is_null(tcol).to_numpy(zero_copy_only=False)
        # fill Arrow-side so the int64 ns path never decays to float64
        t = pc.fill_null(tcol, 0).to_numpy(zero_copy_only=False)
        w = t - (t % window_ns)
        w[ts_null] = NULL_WINDOW
        df = pd.DataFrame({
            "key": pc.fill_null(batch.column(key).cast(pa.string()),
                                NULL_KEY).to_pandas().to_numpy(),
            "window_ns": w,
            "v": batch.column(value).to_numpy(zero_copy_only=False),
        })
        return _agg(df, ["key", "window_ns"], _GSETS, n=("v", "size"),
                    vsum=("v", "sum"))

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["key", "window_ns"], sort=False).agg(
            n=("n", "sum"), vsum=("vsum", "sum")).reset_index()

    # bounded by group cardinality, not row count
    finest = sharded_aggregate(ds, _partial, _merge, _GSETS, key="key") \
        .to_pandas().sort_values(["key", "window_ns"], ignore_index=True)

    by_key = finest.groupby("key", sort=False).agg(
        n=("n", "sum"), vsum=("vsum", "sum")).reset_index()
    levels = [
        finest,
        by_key.assign(window_ns=ALL_WINDOW),
        pd.DataFrame({"key": [ALL_KEY], "window_ns": [ALL_WINDOW],
                      "n": [int(finest["n"].sum())],
                      "vsum": [float(finest["vsum"].sum())]}),
    ]
    out = pd.concat(levels, ignore_index=True)
    return pa.table({
        "key": pa.array(out["key"], pa.string()),
        "window_ns": pa.array(out["window_ns"].to_numpy(np.int64), pa.int64()),
        "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
        "value_sum": pa.array(round_half_away(out["vsum"].to_numpy(), 6),
                              pa.float64()),
    })


# ---------------------------------------------------------------------------
# Funnel (step A then step B per member)
# ---------------------------------------------------------------------------

def funnel_conversions(ds, *, member: str, ts: str, step_col: str,
                       step_a: str, step_b: str,
                       window_ns: int | None = None):
    """Members whose FIRST ``step_a`` precedes their LAST ``step_b``
    (optionally within each tumbling window): the two-step conversion
    funnel.  Per-block partials carry one (member[, window]) row with the
    block-local min-A / max-B timestamps (int64 sentinels, not nulls —
    nullable int partials decay to float); one exchange on ``member``
    merges and filters.  Output: member[, window_ns], first_a_ns, last_b_ns.

    Rows with a NULL timestamp or NULL member are dropped Arrow-side
    BEFORE the numpy conversion — SQL min/max ignore null timestamps
    anyway, and one NaN would decay the whole batch's int64 ns values to
    float64, shaving ns precision off co-resident rows (~256 ns at
    epoch-ns magnitudes).
    """
    import pyarrow.compute as pc

    # Sentinels must survive a float64 round-trip exactly (the pandas
    # min/max partials are float once NaN enters): +/-2^62 is exact where
    # int64-max would round up to 2^63 and overflow the cast back.
    I64_MAX = 1 << 62
    I64_MIN = -(1 << 62)
    gkeys = ["member"] + (["window_ns"] if window_ns is not None else [])
    partials = _schema(**dict.fromkeys(gkeys + ["a", "b"], _I))

    def _partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch.column(ts)),
                                     pc.is_valid(batch.column(member))))
        t = batch.column(ts).cast(pa.timestamp("ns")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        m = batch.column(member).to_numpy(zero_copy_only=False)
        step = batch.column(step_col).to_pandas().to_numpy()
        is_a = step == step_a
        is_b = step == step_b
        keep = is_a | is_b
        # Sentinel-filled int64 columns BEFORE the groupby: a NaN-bearing
        # min/max would decay to float64 and shave ns precision off
        # epoch-ns values (~1.7e18 ≫ 2^53).
        df = pd.DataFrame({
            "member": m[keep],
            "ta": np.where(is_a[keep], t[keep], I64_MAX),
            "tb": np.where(is_b[keep], t[keep], I64_MIN),
        })
        if window_ns is not None:
            w = t[keep]
            df["window_ns"] = w - (w % window_ns)
        return _agg(df, gkeys, partials, a=("ta", "min"), b=("tb", "max"))

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(gkeys, sort=False).agg(
            first_a_ns=("a", "min"), last_b_ns=("b", "max")).reset_index()
        a, b = g["first_a_ns"], g["last_b_ns"]
        return g[(a != I64_MAX) & (b != I64_MIN) & (a < b)]

    return sharded_aggregate(ds, _partial, _merge, _schema(
        **dict.fromkeys(gkeys + ["first_a_ns", "last_b_ns"], _I)),
        key="member")


# ---------------------------------------------------------------------------
# Distinct-member set operations (INTERSECT / EXCEPT)
# ---------------------------------------------------------------------------

_SEEN = _schema(member=_I, a=pa.bool_(), b=pa.bool_())


def member_set_op(ds, *, member: str, slice_col: str, pred_a, pred_b,
                  op: str):
    """``DISTINCT member WHERE pred_a(slice_col)  <op>  DISTINCT member
    WHERE pred_b(slice_col)`` with ``op`` in ``intersect`` / ``except``.

    ``pred_a`` / ``pred_b`` take the slice column as a pyarrow ChunkedArray
    and return a boolean mask (pyarrow or numpy).  Per-block combiner
    reduces to one (member, seen_a, seen_b) row per block-distinct member
    — presence bits OR-merge after one exchange on the member, so the
    shuffle carries member cardinality, not rows.

    NULL members are excluded (dropped Arrow-side, before the int64 view
    could decay to float64).  This is a documented divergence from SQL
    set ops, which treat NULLs as equal to each other and may emit one
    NULL member row.
    """
    if op not in ("intersect", "except"):
        raise ValueError(f"op must be 'intersect' or 'except', got {op!r}")
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(member)))
        m = batch.column(member).to_numpy(zero_copy_only=False)
        col = batch.column(slice_col)
        ma = np.asarray(pred_a(col), dtype=bool)
        mb = np.asarray(pred_b(col), dtype=bool)
        keep = ma | mb
        df = pd.DataFrame({"member": m[keep], "a": ma[keep], "b": mb[keep]})
        return _agg(df, "member", _SEEN, a=("a", "max"), b=("b", "max"))

    def _merge(df: pd.DataFrame) -> dict:
        g = df.groupby("member", sort=False)[["a", "b"]].any()
        keep = g["a"] & (g["b"] if op == "intersect" else ~g["b"])
        return {"member": g.index.to_numpy()[keep.to_numpy()]}

    return sharded_aggregate(ds, _partial, _merge, _schema(member=_I),
                             key="member")


# ---------------------------------------------------------------------------
# Table profiling
# ---------------------------------------------------------------------------

def table_profile(ds, columns: list[str]):
    """Per-column data profile: row count, null count, exact distinct
    count, numeric min/max (NaN for non-numeric columns).

    One stream carries two row kinds — per-block stats partials (one row
    per column per block) and block-DISTINCT value strings — through ONE
    exchange on the column name.  Exact distinct via value strings: integer columns keep
    exact int64 reprs (a float round-trip would collide ints > 2^53),
    float columns normalize signed zero (``+ 0.0``) so -0.0/0.0 count as
    ONE value across blocks and emit a single ``'nan'`` entry for genuine
    NaNs — matching DuckDB, which treats NaN = NaN as one distinct value
    that sorts ABOVE every number (so ``max`` is NaN whenever one is
    present, ``min`` stays finite).
    """

    def _partial(batch: pa.Table) -> pa.Table:
        out = {"col": [], "kind": [], "val": [], "n": [], "n_null": [],
               "mn": [], "mx": [], "has_nan": []}
        for name in columns:
            col = batch.column(name)
            n = len(col)
            n_null = col.null_count
            nonnull = col.drop_null() if n_null else col
            has_nan = False
            if pa.types.is_integer(col.type):
                v = nonnull.to_numpy(zero_copy_only=False)
                mn = float(v.min()) if len(v) else np.nan
                mx = float(v.max()) if len(v) else np.nan
                vals = [repr(int(x)) for x in np.unique(v)]
            elif pa.types.is_floating(col.type):
                v = nonnull.to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                nan_mask = np.isnan(v)
                has_nan = bool(nan_mask.any())
                finite = v[~nan_mask] + 0.0  # normalize -0.0 -> 0.0
                mn = float(finite.min()) if len(finite) else np.nan
                mx = float(finite.max()) if len(finite) else np.nan
                vals = [repr(float(x)) for x in np.unique(finite)]
                if has_nan:
                    vals.append("nan")
            else:
                s = nonnull.to_pandas().astype(str)
                mn = mx = np.nan
                vals = s.unique().tolist()
            out["col"].append(name)
            out["kind"].append(0)
            out["val"].append(None)
            out["n"].append(n)
            out["n_null"].append(n_null)
            out["mn"].append(mn)
            out["mx"].append(mx)
            out["has_nan"].append(has_nan)
            for v_ in vals:
                out["col"].append(name)
                out["kind"].append(1)
                out["val"].append(v_)
                out["n"].append(0)
                out["n_null"].append(0)
                out["mn"].append(np.nan)
                out["mx"].append(np.nan)
                out["has_nan"].append(False)
        return pa.table({
            "col": pa.array(out["col"], pa.string()),
            "kind": pa.array(out["kind"], pa.int8()),
            "val": pa.array(out["val"], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "n_null": pa.array(out["n_null"], pa.int64()),
            "mn": pa.array(out["mn"], pa.float64()),
            "mx": pa.array(out["mx"], pa.float64()),
            "has_nan": pa.array(out["has_nan"], pa.bool_()),
        })

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        stats = df[df["kind"] == 0].groupby("col", sort=False).agg(
            n_rows=("n", "sum"), n_null=("n_null", "sum"),
            min_num=("mn", "min"),  # pandas min skips NaN
            max_num=("mx", "max"), has_nan=("has_nan", "any"))
        distinct = df[df["kind"] == 1].groupby("col")["val"].nunique()
        stats["n_distinct"] = distinct.reindex(stats.index, fill_value=0)
        stats.loc[stats["has_nan"], "max_num"] = np.nan
        return stats.reset_index()

    return sharded_aggregate(ds, _partial, _merge, _schema(
        col=_S, n_rows=_I, n_null=_I, n_distinct=_I, min_num=_F,
        max_num=_F), key="col")


# ---------------------------------------------------------------------------
# Driver queries + oracles
# ---------------------------------------------------------------------------

def _q_grouping_sets(sf_dir: str):

    ds = read_parquet_file(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    return grouping_sets_stats(ds, key="event_type", ts="ts", value="value")


register(
    "events_grouping_sets",
    _q_grouping_sets,
    # GROUPING() separates grouping-level NULLs ('<all>'/-1) from genuine
    # data NULLs ('<null>'/-2) — same sentinel scheme as the engine
    f"""
    SELECT CASE WHEN GROUPING(event_type) = 1 THEN '<all>'
                ELSE COALESCE(event_type, '<null>') END AS key,
           CASE WHEN GROUPING(epoch_ns(ts) - epoch_ns(ts) % {DAY_NS}) = 1
                THEN -1
                ELSE COALESCE(epoch_ns(ts) - epoch_ns(ts) % {DAY_NS}, -2)
                END AS window_ns,
           count(*) AS n,
           round(sum(value), 6) AS value_sum
    FROM events
    GROUP BY GROUPING SETS
        ((event_type, epoch_ns(ts) - epoch_ns(ts) % {DAY_NS}),
         (event_type), ())
    """,
)


def _q_funnel(sf_dir: str):

    ds = read_parquet_file(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    out = funnel_conversions(ds, member="user_id", ts="ts",
                             step_col="event_type", step_a="click",
                             step_b="purchase", window_ns=DAY_NS)
    return out.map_batches(
        lambda b: b.rename_columns(
            ["user_id" if c == "member" else c for c in b.column_names]),
        batch_format="pyarrow", zero_copy_batch=True)


register(
    "events_funnel_click_purchase",
    _q_funnel,
    f"""
    WITH s AS (
        SELECT user_id,
               epoch_ns(ts) - epoch_ns(ts) % {DAY_NS} AS window_ns,
               min(CASE WHEN event_type = 'click'
                        THEN epoch_ns(ts) END) AS first_a_ns,
               max(CASE WHEN event_type = 'purchase'
                        THEN epoch_ns(ts) END) AS last_b_ns
        FROM events GROUP BY 1, 2
    )
    SELECT user_id, window_ns, first_a_ns, last_b_ns
    FROM s
    WHERE first_a_ns IS NOT NULL AND last_b_ns IS NOT NULL
      AND first_a_ns < last_b_ns
    """,
)


_JAN96_LO = "1996-01-01"
_JAN96_HI = "1996-02-01"
_JAN00_LO = "2000-01-01"
_JAN00_HI = "2000-02-01"


def _month_preds():
    import pyarrow.compute as pc

    def _pred(lo, hi):
        lo_ts = pa.scalar(np.datetime64(lo, "us"), pa.timestamp("us"))
        hi_ts = pa.scalar(np.datetime64(hi, "us"), pa.timestamp("us"))

        def fn(col):
            c = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
                else col
            # the fixture stores ship dates as date32 — normalize to
            # timestamp before comparing (ADVICE round-1: silent
            # date-vs-timestamp casts are a correctness trap)
            c = c.cast(pa.timestamp("us"))
            m = pc.and_(pc.greater_equal(c, lo_ts), pc.less(c, hi_ts))
            return m.to_numpy(zero_copy_only=False)
        return fn

    return _pred(_JAN96_LO, _JAN96_HI), _pred(_JAN00_LO, _JAN00_HI)


def _q_set_op(op: str):
    def q(sf_dir: str):
    
        ds = read_parquet_file(
            f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_shipdate"]
        )
        pred_a, pred_b = _month_preds()
        out = member_set_op(ds, member="l_partkey", slice_col="l_shipdate",
                            pred_a=pred_a, pred_b=pred_b, op=op)
        return out.map_batches(
            lambda b: b.rename_columns(["l_partkey"]),
            batch_format="pyarrow", zero_copy_batch=True)
    return q


_SETOP_SQL = f"""
    SELECT DISTINCT l_partkey FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{_JAN96_LO}'
      AND l_shipdate <  TIMESTAMP '{_JAN96_HI}'
    {{op}}
    SELECT DISTINCT l_partkey FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{_JAN00_LO}'
      AND l_shipdate <  TIMESTAMP '{_JAN00_HI}'
"""

register("parts_intersect_months", _q_set_op("intersect"),
         _SETOP_SQL.format(op="INTERSECT"))
register("parts_except_months", _q_set_op("except"),
         _SETOP_SQL.format(op="EXCEPT"))


_PROFILE_COLS = ["l_quantity", "l_extendedprice", "l_returnflag",
                 "l_linestatus", "l_suppkey"]


def _q_table_profile(sf_dir: str):

    ds = read_parquet_file(
        f"{sf_dir}/lineitem.parquet", columns=_PROFILE_COLS
    )
    return table_profile(ds, _PROFILE_COLS)


def _profile_branch(col: str, numeric: bool) -> str:
    mn = f"CAST(min({col}) AS DOUBLE)" if numeric else "CAST(NULL AS DOUBLE)"
    mx = f"CAST(max({col}) AS DOUBLE)" if numeric else "CAST(NULL AS DOUBLE)"
    return f"""
    SELECT '{col}' AS col, count(*) AS n_rows,
           count(*) - count({col}) AS n_null,
           CAST(count(DISTINCT {col}) AS BIGINT) AS n_distinct,
           {mn} AS min_num, {mx} AS max_num
    FROM lineitem"""


register(
    "lineitem_profile",
    _q_table_profile,
    " UNION ALL ".join(
        _profile_branch(c, c not in ("l_returnflag", "l_linestatus"))
        for c in _PROFILE_COLS),
)


_REV_PARTIALS = _schema(n_name=_S, n=_I, s=_F)


def _nation_rev_merge(joined_ds):
    """Final (n_name, count, sum(rev)) aggregate in the shard-merge
    shape: a per-block pandas combiner collapses each block to at most
    |nations| partial rows, then one exchange on ``n_name`` merges the
    partials.  Ray's native multi-aggregate groupby sorts every
    post-join block into ~256 partitions — at small scale that barrier
    alone cost 18 s on 80 surviving rows (measured); the combiner moves
    O(blocks x nations) rows instead.  Revenue is round-2 (cents, ~200x
    wider than cross-engine summation-order noise at sf0.1)."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "n_name": batch.column("n_name").to_pandas(),
            "rev": batch.column("rev").to_numpy(zero_copy_only=False),
        })
        return _agg(df, "n_name", _REV_PARTIALS, n=("rev", "size"),
                    s=("rev", "sum"))

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_name", sort=False).agg(
            n_items=("n", "sum"), s=("s", "sum")).reset_index()
        return g.assign(revenue=round_half_away(g["s"].to_numpy(), 2))

    return sharded_aggregate(joined_ds, _partial, _merge, _schema(
        n_name=_S, n_items=_I, revenue=_F), key="n_name")


def _q_revenue_by_nation(sf_dir: str):
    """TPC-H Q5-style join tree: lineitem ⋈ orders (the ONE fact-x-fact
    shuffle) ⋈ customer->nation (guarded broadcast map, round-4: this was
    a second full shuffle and the query grew 6.7x at 10x facts in the
    sf1 soak) ⋈ nation names (25-row broadcast) → 25-row aggregate.
    Revenue is summed raw and rounded to 2 digits — cents precision, and
    a margin ~200x wider than cross-engine summation-order noise at
    sf0.1.  ``_dim_map``'s MAX_BROADCAST_DIM_ROWS guard names the
    shuffle_join fallback if customer ever outgrows a broadcast."""
    import pyarrow.compute as pc

    from .enrich import broadcast_join
    from .joins import parquet_schema, shuffle_join

    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def _rev(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice")
        disc = batch.column("l_discount")
        rev = pc.multiply(price, pc.subtract(pa.scalar(1.0), disc))
        return pa.table({"l_orderkey": batch.column("l_orderkey"),
                         "rev": rev})

    li = li.map_batches(_rev, batch_format="pyarrow", zero_copy_batch=True)
    # Static schemas end-to-end: j1 feeds j2 as a lazy shuffle, so
    # letting shuffle_join call j1.schema() would execute j1 before
    # j2's plan exists (no inter-join pipelining).
    li_schema = pa.schema([
        ("l_orderkey",
         parquet_schema(f"{sf_dir}/lineitem.parquet",
                        ["l_orderkey"]).field("l_orderkey").type),
        ("rev", pa.float64()),
    ])
    orders_schema = parquet_schema(
        f"{sf_dir}/orders.parquet", ["o_orderkey", "o_custkey"])
    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    j1 = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                      left_schema=li_schema, right_schema=orders_schema)
    cust_map = _dim_map(f"{sf_dir}/customer.parquet", "c_custkey",
                        "c_nationkey", None)
    j2 = broadcast_join(j1, cust_map, key="o_custkey",
                        value_name="c_nationkey", value_type=pa.int64())

    import pyarrow.parquet as pq
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    lut = dict(zip(nation.column("n_nationkey").to_pylist(),
                   nation.column("n_name").to_pylist()))
    j3 = broadcast_join(j2, lut, key="c_nationkey", value_name="n_name")

    return _nation_rev_merge(j3)


register(
    "revenue_by_nation",
    _q_revenue_by_nation,
    """
    SELECT n.n_name AS n_name,
           count(*) AS n_items,
           round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
    FROM lineitem l
    JOIN orders o ON l.l_orderkey = o.o_orderkey
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    GROUP BY n.n_name
    """,
)


def _q_bloom_join(sf_dir: str):
    """Bloom-prefiltered join: 'F'-status orders are the selective side;
    their keys become one broadcast bitmap that prunes lineitem BEFORE
    the join shuffle.  FPs pass into the exact join and fall out there,
    so the result is value-identical to the plain join."""

    from .joins import shuffle_join
    from .sketches import bloom_build, bloom_filter_out

    def _orders():
        # project o_orderstatus away right after the filter consumes it —
        # it must not ride through the join exchange just to be dropped
        return read_parquet_file(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderstatus"],
        ).filter(expr="o_orderstatus == 'F'") \
            .select_columns(["o_orderkey", "o_custkey"])

    bloom = bloom_build(_orders(), column="o_orderkey")
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )
    li = bloom_filter_out(li, bloom, column="l_orderkey", keep="member")
    out = shuffle_join(li, _orders(), on="l_orderkey",
                       right_on="o_orderkey")
    return out.map_batches(
        lambda b: b.select(["l_orderkey", "l_linenumber", "l_quantity",
                            "o_custkey"]),
        batch_format="pyarrow", zero_copy_batch=True)


register(
    "lineitem_orders_bloom_join",
    _q_bloom_join,
    """
    SELECT l.l_orderkey, l.l_linenumber, l.l_quantity, o.o_custkey
    FROM lineitem l
    JOIN orders o ON l.l_orderkey = o.o_orderkey
    WHERE o.o_orderstatus = 'F'
    """,
)


# ---------------------------------------------------------------------------
# TPC-H Q1-style pricing summary (single-table combiner aggregate)
# ---------------------------------------------------------------------------

#: Q1 ship-date cutoff — mid-range of the synthetic l_shipdate span so the
#: filter actually prunes rows (mirrored verbatim in the oracle).
Q1_CUTOFF = "2000-01-01"


def pricing_summary(li_ds):
    """TPC-H Q1 over lineitem: per (l_returnflag, l_linestatus), the sums
    and means of quantity / price / discounted price / charged price plus
    the row count, over rows shipped on or before ``Q1_CUTOFF``.

    Scale shape: the classic combiner aggregate — each block reduces to at
    most 6 partial rows (|returnflag| x |linestatus|), ONE exchange on the
    leading key merges them, means derive from the merged (sum, count)
    pairs.  The
    shuffle moves O(blocks x 6) rows regardless of corpus size.  Float
    sums are round-2 (cents; summation-order noise margin ~1e-2 vs values
    ~1e9, same rule as ``revenue_by_nation``); means are round-6 over the
    round-2 sums so both engines derive them from identical inputs.
    """
    cutoff = np.datetime64(Q1_CUTOFF, "ns")
    keys = ["l_returnflag", "l_linestatus"]
    partials = _schema(l_returnflag=_S, l_linestatus=_S, s_qty=_F,
                       s_price=_F, s_disc_price=_F, s_charge=_F, s_disc=_F,
                       n=_I)

    def _partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("ns")).to_numpy(
            zero_copy_only=False)
        keep = ship <= cutoff
        df = pd.DataFrame({
            "l_returnflag": batch.column("l_returnflag").to_pandas()[keep],
            "l_linestatus": batch.column("l_linestatus").to_pandas()[keep],
            "qty": batch.column("l_quantity").to_numpy(
                zero_copy_only=False)[keep],
            "price": batch.column("l_extendedprice").to_numpy(
                zero_copy_only=False)[keep],
            "disc": batch.column("l_discount").to_numpy(
                zero_copy_only=False)[keep],
            "tax": batch.column("l_tax").to_numpy(zero_copy_only=False)[keep],
        })
        df["disc_price"] = df["price"] * (1.0 - df["disc"])
        df["charge"] = df["disc_price"] * (1.0 + df["tax"])
        return _agg(df, keys, partials, s_qty=("qty", "sum"),
                    s_price=("price", "sum"),
                    s_disc_price=("disc_price", "sum"),
                    s_charge=("charge", "sum"), s_disc=("disc", "sum"),
                    n=("qty", "size"))

    def _finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False).sum().reset_index()
        n = g["n"].to_numpy()
        s_qty, s_price, s_disc_price, s_charge = (
            round_half_away(g[c].to_numpy(), 2)
            for c in ("s_qty", "s_price", "s_disc_price", "s_charge"))
        return g.assign(
            sum_qty=s_qty, sum_base_price=s_price,
            sum_disc_price=s_disc_price, sum_charge=s_charge,
            avg_qty=round_half_away(s_qty / n, 6),
            avg_price=round_half_away(s_price / n, 6),
            avg_disc=round_half_away(
                round_half_away(g["s_disc"].to_numpy(), 6) / n, 6),
            count_order=n)

    return sharded_aggregate(li_ds, _partial, _finish, _schema(
        l_returnflag=_S, l_linestatus=_S, sum_qty=_F, sum_base_price=_F,
        sum_disc_price=_F, sum_charge=_F, avg_qty=_F, avg_price=_F,
        avg_disc=_F, count_order=_I), key="l_returnflag")


def _q_pricing_summary(sf_dir: str):

    return pricing_summary(read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
    ))


register(
    "lineitem_pricing_summary",
    _q_pricing_summary,
    f"""
    WITH agg AS (
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 2) AS sum_qty,
               round(sum(l_extendedprice), 2) AS sum_base_price,
               round(sum(l_extendedprice * (1 - l_discount)), 2)
                   AS sum_disc_price,
               round(sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2)
                   AS sum_charge,
               round(sum(l_discount), 6) AS s_disc,
               count(*) AS n
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
        GROUP BY 1, 2
    )
    SELECT l_returnflag, l_linestatus, sum_qty, sum_base_price,
           sum_disc_price, sum_charge,
           round(sum_qty / n, 6) AS avg_qty,
           round(sum_base_price / n, 6) AS avg_price,
           round(s_disc / n, 6) AS avg_disc,
           CAST(n AS BIGINT) AS count_order
    FROM agg
    """,
)


# ---------------------------------------------------------------------------
# Customer lifetime-value summary (single-table combiner aggregate)
# ---------------------------------------------------------------------------

_LTV_PARTIALS = _schema(custkey=_I, n=_I, s=_F, mn=_I, mx=_I)


def customer_ltv(orders_ds):
    """Per customer: order count, total spend, first/last order, tenure —
    the relational "customer card" aggregate.

    Scale shape: per-block combiner collapses to one partial row per
    customer in the block, then ONE exchange on the customer key merges
    the partials inside vectorized pandas tasks (sum/min/max are all
    mergeable) — the repo-standard high-cardinality merge shape (the
    novelty lesson: Ray's native aggregates degrade as key counts grow).  Spend is round-2 (cents, the ``revenue_by_nation``
    rule); dates stay exact int64 ns.
    """
    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "custkey": batch.column("o_custkey").to_numpy(
                zero_copy_only=False),
            "spend": batch.column("o_totalprice").to_numpy(
                zero_copy_only=False),
            "ts": batch.column("o_orderdate").cast(
                pa.timestamp("ns")).cast(pa.int64()).to_numpy(
                zero_copy_only=False),
        })
        return _agg(df, "custkey", _LTV_PARTIALS, n=("spend", "size"),
                    s=("spend", "sum"), mn=("ts", "min"), mx=("ts", "max"))

    def _merge_shard(df: pd.DataFrame) -> dict:
        g = df.groupby("custkey", sort=False).agg(
            n=("n", "sum"), s=("s", "sum"), mn=("mn", "min"),
            mx=("mx", "max"),
        ).reset_index()
        first = g["mn"].to_numpy()
        last = g["mx"].to_numpy()
        return {
            "custkey": g["custkey"],
            "n_orders": g["n"],
            "total_spend": round_half_away(g["s"].to_numpy(), 2),
            "first_order_ns": first,
            "last_order_ns": last,
            "tenure_days": (last - first) // DAY_NS,
        }

    return sharded_aggregate(orders_ds, _partial, _merge_shard, _schema(
        custkey=_I, n_orders=_I, total_spend=_F, first_order_ns=_I,
        last_order_ns=_I, tenure_days=_I), key="custkey")


def _q_customer_ltv(sf_dir: str):

    return customer_ltv(read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderdate"],
    ))


register(
    "customer_ltv",
    _q_customer_ltv,
    """
    SELECT o_custkey AS custkey,
           CAST(count(*) AS BIGINT) AS n_orders,
           round(sum(o_totalprice), 2) AS total_spend,
           CAST(min(epoch_ns(o_orderdate)) AS BIGINT) AS first_order_ns,
           CAST(max(epoch_ns(o_orderdate)) AS BIGINT) AS last_order_ns,
           CAST((max(epoch_ns(o_orderdate)) - min(epoch_ns(o_orderdate)))
                // 86400000000000 AS BIGINT) AS tenure_days
    FROM orders GROUP BY 1
    """,
)


# ---------------------------------------------------------------------------
# Supplier census by region (double broadcast up the dimension tree)
# ---------------------------------------------------------------------------

def supplier_region_stats(supplier_ds, nation_lookup: dict,
                          region_lookup: dict):
    """Per region: supplier count and round-2 mean account balance —
    the dimension-tree rollup (supplier -> nation -> region).

    Scale shape: both dimension tables are tiny by definition (25
    nations, 5 regions), so they broadcast as dicts (``ray.put`` inside
    ``broadcast_join``) and the fact scan stays a single streaming pass;
    the final exchange has |regions| keys.
    """
    from .enrich import broadcast_join

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "r_name": batch.column("r_name").to_pandas(),
            "bal": batch.column("s_acctbal").to_numpy(zero_copy_only=False),
        })
        return _agg(df, "r_name", _schema(r_name=_S, n=_I, s=_F),
                    n=("bal", "size"), s=("bal", "sum"))

    def _finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("r_name", sort=False).sum().reset_index()
        n = g["n"].to_numpy()
        total = round_half_away(g["s"].to_numpy(), 2)
        return g.assign(n_suppliers=n, total_acctbal=total,
                        mean_acctbal=round_half_away(total / n, 6))

    with_nation = broadcast_join(
        supplier_ds, nation_lookup, key="s_nationkey",
        value_name="n_regionkey", value_type=pa.int64())
    with_region = broadcast_join(
        with_nation, region_lookup, key="n_regionkey",
        value_name="r_name", value_type=pa.string())
    return sharded_aggregate(with_region, _partial, _finish, _schema(
        r_name=_S, n_suppliers=_I, total_acctbal=_F, mean_acctbal=_F),
        key="r_name")


def _q_supplier_region(sf_dir: str):
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"])
    nation_lookup = dict(zip(nation.column("n_nationkey").to_pylist(),
                             nation.column("n_regionkey").to_pylist()))
    region_lookup = dict(zip(region.column("r_regionkey").to_pylist(),
                             region.column("r_name").to_pylist()))
    suppliers = read_parquet_file(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"])
    return supplier_region_stats(suppliers, nation_lookup, region_lookup)


register(
    "supplier_region_stats",
    _q_supplier_region,
    """
    SELECT r.r_name,
           CAST(count(*) AS BIGINT) AS n_suppliers,
           round(sum(s.s_acctbal), 2) AS total_acctbal,
           round(round(sum(s.s_acctbal), 2) / count(*), 6) AS mean_acctbal
    FROM supplier s
    JOIN nation n ON s.s_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    GROUP BY r.r_name
    """,
)


# ---------------------------------------------------------------------------
# Shipping-priority top-n (TPC-H Q3 shape)
# ---------------------------------------------------------------------------

_Q3_TOP_N = 10


def shipping_priority(li_ds, orders_ds):
    """Top-``_Q3_TOP_N`` undelivered orders by revenue — the TPC-H Q3 plan
    expressed Ray-native.

    Scale shape: lineitem collapses to one revenue partial per
    ``l_orderkey`` per block BEFORE any exchange, so the one shuffle
    join moves partials + the pre-filtered orders, never raw lineitem
    rows; the joined partials merge in tasks of one exchange on the
    orderkey (the ``customer_ltv`` high-cardinality shape), each shard
    emits only its LOCAL top-n, and the driver sorts the tiny candidate
    set.  Revenue is round-2 at the very end (after the exact global
    per-order sum) and ordering is (rounded revenue desc, orderkey asc)
    on both engines, so the top-n boundary is deterministic
    cross-engine.
    """
    import pyarrow.compute as pc

    from .joins import shuffle_join

    def _rev_partial(batch: pa.Table) -> pa.Table:
        key = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        ).to_numpy(zero_copy_only=False)
        return _agg(pd.DataFrame({"l_orderkey": key, "rev": rev}),
                    "l_orderkey", _schema(l_orderkey=_I, rev_part=_F),
                    rev_part=("rev", "sum"))

    li_parts = li_ds.map_batches(_rev_partial, batch_format="pyarrow",
                                 zero_copy_batch=True)
    j = shuffle_join(li_parts, orders_ds, on="l_orderkey",
                     right_on="o_orderkey")

    def _merge_shard(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(
            ["l_orderkey", "o_orderdate_ns", "o_orderpriority"], sort=False
        )["rev_part"].sum().reset_index()
        g["revenue"] = round_half_away(g["rev_part"].to_numpy(), 2)
        return g.sort_values(["revenue", "l_orderkey"],
                             ascending=[False, True]).head(_Q3_TOP_N)

    cand = sharded_aggregate(j, lambda t: t, _merge_shard, _schema(
        l_orderkey=_I, revenue=_F, o_orderdate_ns=_I, o_orderpriority=_S),
        key="l_orderkey").to_pandas()
    return cand.sort_values(["revenue", "l_orderkey"],
                            ascending=[False, True],
                            ignore_index=True).head(_Q3_TOP_N)


_Q3_SEGMENT = "BUILDING"
_Q3_CUTOFF = "1998-06-15"


def _q_shipping_priority(sf_dir: str):
    """TPC-H Q3 parameters over the fixture: BUILDING-segment customers,
    orders placed before / lineitems shipped after 1998-06-15 (the
    fixture's date midpoint, so both filters bite).  The segment's
    custkey set is a broadcast semi-join (one ``ray.put``, no shuffle);
    both fact scans push their date filter into the parquet read."""
    import datetime as dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from .enrich import broadcast_semi_join

    cutoff = dt.datetime.fromisoformat(_Q3_CUTOFF)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
        filters=[("c_mktsegment", "=", _Q3_SEGMENT)],
    )
    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"],
        filter=pads.field("o_orderdate") < cutoff,
    )
    orders = broadcast_semi_join(
        orders, cust.column("c_custkey").to_pylist(), key="o_custkey")

    def _ord(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "o_orderdate_ns": batch.column("o_orderdate")
                .cast(pa.timestamp("ns")).cast(pa.int64()),
            "o_orderpriority": batch.column("o_orderpriority"),
        })

    orders = orders.map_batches(_ord, batch_format="pyarrow",
                                zero_copy_batch=True)
    # a read filter's column must be read: the read schema is the
    # projected one (read_parquet_file)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=pads.field("l_shipdate") > cutoff,
    )
    return shipping_priority(li, orders)


register(
    "orders_shipping_priority",
    _q_shipping_priority,
    f"""
    SELECT l.l_orderkey AS l_orderkey,
           round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
           epoch_ns(o.o_orderdate) AS o_orderdate_ns,
           o.o_orderpriority AS o_orderpriority
    FROM customer c
    JOIN orders o ON c.c_custkey = o.o_custkey
    JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    WHERE c.c_mktsegment = '{_Q3_SEGMENT}'
      AND o.o_orderdate < TIMESTAMP '{_Q3_CUTOFF}'
      AND l.l_shipdate > TIMESTAMP '{_Q3_CUTOFF}'
    GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
    ORDER BY revenue DESC, l_orderkey
    LIMIT {_Q3_TOP_N}
    """,
)


# ---------------------------------------------------------------------------
# Calendar-month order volumes per nation
# ---------------------------------------------------------------------------

_MONTH_PARTIALS = _schema(nk=_I, month_ns=_I, n=_I, s=_F)


def _month_ns(batch: pa.Table) -> np.ndarray:
    """``o_orderdate`` truncated to its calendar month, as int64 ns."""
    t = batch.column("o_orderdate").cast(pa.timestamp("ns")) \
        .to_numpy(zero_copy_only=False)
    return t.astype("datetime64[M]").astype("datetime64[ns]") \
        .astype(np.int64)


def nation_monthly_orders(orders_ds, nation_lut: dict):
    """Orders per (nation, calendar month): count + round-2 total price.

    Calendar months are NOT fixed-width windows, so the epoch-floor
    rollup machinery doesn't apply: month truncation is a vectorized
    numpy ``datetime64[M]`` cast inside the per-block combiner (exact
    calendar arithmetic, no Python date loop).  The combiner collapses
    each block to one partial row per (nationkey, month); partials merge
    after one exchange on the nation key; the 25-row nation lookup
    broadcasts in the task closure."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "nk": batch.column("o_custkey_nation")
            .to_numpy(zero_copy_only=False),
            "month_ns": _month_ns(batch),
            "price": batch.column("o_totalprice").to_numpy(
                zero_copy_only=False),
        })
        return _agg(df, ["nk", "month_ns"], _MONTH_PARTIALS,
                    n=("price", "size"), s=("price", "sum"))

    def _merge_shard(df: pd.DataFrame) -> dict:
        g = df.groupby(["nk", "month_ns"], sort=False).agg(
            n=("n", "sum"), s=("s", "sum")).reset_index()
        return {
            "n_name": g["nk"].map(nation_lut),
            "month_ns": g["month_ns"],
            "n_orders": g["n"],
            "total_price": round_half_away(g["s"].to_numpy(), 2),
        }

    return sharded_aggregate(orders_ds, _partial, _merge_shard, _schema(
        n_name=_S, month_ns=_I, n_orders=_I, total_price=_F), key="nk")


def _q_nation_monthly_orders(sf_dir: str):
    """customer's nationkey reaches orders through the one bounded
    shuffle join; nation names broadcast as a 25-entry lookup."""
    import pyarrow.parquet as pq

    from .joins import shuffle_join

    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderdate"],
    )
    cust = read_parquet_file(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"],
    )

    def _nk(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch.column("c_custkey"),
            "o_custkey_nation": batch.column("c_nationkey"),
        })

    cust = cust.map_batches(_nk, batch_format="pyarrow",
                            zero_copy_batch=True)
    j = shuffle_join(orders, cust, on="o_custkey", right_on="c_custkey")
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    lut = dict(zip(nation.column("n_nationkey").to_pylist(),
                   nation.column("n_name").to_pylist()))
    return nation_monthly_orders(j, lut)


register(
    "nation_monthly_orders",
    _q_nation_monthly_orders,
    """
    SELECT n.n_name AS n_name,
           epoch_ns(date_trunc('month', o.o_orderdate)) AS month_ns,
           CAST(count(*) AS BIGINT) AS n_orders,
           round(sum(o.o_totalprice), 2) AS total_price
    FROM orders o
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    GROUP BY 1, 2
    """,
)


# ---------------------------------------------------------------------------
# TPC-H Q5: local supplier volume (same-nation customer+supplier)
# ---------------------------------------------------------------------------

Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1997-01-01"


#: Loud guard for dimension broadcasts: above this, the collected map no
#: longer qualifies as a "small side" and the query must fall back to
#: ``shuffle_join`` for that dimension (the pre-optimization Q5 shape —
#: three chained shuffles — still exists in git history and in
#: ``joins.shuffle_join`` itself; the guard names the remedy).
MAX_BROADCAST_DIM_ROWS = 5_000_000


def _dim_map(path: str, key: str, value: str, filt) -> dict:
    """Driver-side key->value map from a row-filtered dimension parquet
    (columns + filter pushed to the scan).  Small-side discipline: the
    map is built ONCE and ``ray.put`` by the broadcast join; a dimension
    that outgrows ``MAX_BROADCAST_DIM_ROWS`` fails loudly instead of
    silently materializing GBs on the driver."""
    import pyarrow.dataset as pads

    t = pads.dataset(path).to_table(columns=[key, value], filter=filt)
    if t.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"dimension {path} has {t.num_rows} rows after pruning "
            f"(> {MAX_BROADCAST_DIM_ROWS}); broadcast-hash join no longer "
            "applies — use joins.shuffle_join for this dimension")
    return dict(zip(t.column(key).to_pylist(), t.column(value).to_pylist()))


def _q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5: revenue from lineitems where the ordering customer and
    the supplying supplier share a nation inside one region, over a
    one-year order window.

    Scale shape — filters travel to the cheapest place first, and ONLY
    the fact-x-fact join shuffles:

    * region/nation predicates prune ``customer`` and ``supplier`` AT THE
      READ; both pruned dimensions collapse to driver-side key->nation
      maps broadcast once (``ray.put``) into every task — the
      broadcast-hash side of a classic star join, with a loud
      ``MAX_BROADCAST_DIM_ROWS`` guard naming the shuffle_join fallback;
    * the ONE shuffle is lineitem ⋈ date-pruned orders (orderkey) — the
      only join where both sides scale with the fact table.  (The
      previous shape ran customer and supplier as two MORE chained
      shuffles; at bench scale each extra sort barrier cost ~8 s of pure
      orchestration against <0.2 s of compute);
    * BEFORE that shuffle, both exchanges shrink semi-join-style
      (round-4 sf1-soak follow-up — Q5 grew 7x at 10x facts because the
      full fact tables were exchanged): lineitem drops rows whose
      supplier is outside the region (exact ``is_in`` against the
      already-broadcast supplier keys, ~1/R of rows survive) and rows
      whose orderkey misses a 2 MiB bloom of the date+region-pruned
      orderkeys (FPs fall out in the exact join); orders drops rows
      whose customer is outside the region.  The shuffle then moves the
      ~date-fraction/R^2 of each side that can contribute;
    * the same-nation constraint is a vectorized post-lookup filter, and
      nation names attach via a 5-row broadcast lookup.
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from .enrich import broadcast_join
    from .joins import parquet_schema, shuffle_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rkey = {r["r_name"]: r["r_regionkey"] for r in region.to_pylist()}[
        Q5_REGION]
    names = {r["n_nationkey"]: r["n_name"] for r in nation.to_pylist()
             if r["n_regionkey"] == rkey}
    nkeys = sorted(names)

    cust_map = _dim_map(f"{sf_dir}/customer.parquet", "c_custkey",
                        "c_nationkey", pads.field("c_nationkey").isin(nkeys))
    supp_map = _dim_map(f"{sf_dir}/supplier.parquet", "s_suppkey",
                        "s_nationkey", pads.field("s_nationkey").isin(nkeys))
    import datetime as _dt
    lo = _dt.datetime.fromisoformat(Q5_DATE_LO)
    hi = _dt.datetime.fromisoformat(Q5_DATE_HI)
    def _orders():
        # the filter's column is read too, and dropped by the join
        return read_parquet_file(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
            filter=(pads.field("o_orderdate") >= lo)
            & (pads.field("o_orderdate") < hi),
        )

    cust_keys = pa.array(sorted(cust_map), pa.int64())

    def _ord_prune(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column("o_custkey"),
                                     value_set=cust_keys))

    orders = _orders().map_batches(_ord_prune, batch_format="pyarrow",
                                   zero_copy_batch=True)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    supp_keys = pa.array(sorted(supp_map), pa.int64())

    def _rev(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch.column("l_suppkey"),
                                      value_set=supp_keys))
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        return pa.table({"l_orderkey": batch.column("l_orderkey"),
                         "l_suppkey": batch.column("l_suppkey"),
                         "rev": rev})

    li = li.map_batches(_rev, batch_format="pyarrow", zero_copy_batch=True)
    # semi-join prune of the big exchange side: 2 MiB bloom of the
    # surviving orderkeys, broadcast once; false positives are dropped
    # by the exact join, so the result is value-identical
    from .sketches import bloom_build, bloom_filter_out

    li = bloom_filter_out(
        li,
        bloom_build(_orders().map_batches(_ord_prune,
                                          batch_format="pyarrow",
                                          zero_copy_batch=True),
                    column="o_orderkey", m_bits=1 << 24),
        column="l_orderkey", m_bits=1 << 24, keep="member")
    lp = f"{sf_dir}/lineitem.parquet"
    li_schema = pa.schema([
        ("l_orderkey", parquet_schema(lp, ["l_orderkey"])
         .field("l_orderkey").type),
        ("l_suppkey", parquet_schema(lp, ["l_suppkey"])
         .field("l_suppkey").type),
        ("rev", pa.float64()),
    ])
    orders_schema = parquet_schema(
        f"{sf_dir}/orders.parquet", ["o_orderkey", "o_custkey"])
    j1 = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                      left_schema=li_schema, right_schema=orders_schema)
    # inner-join semantics via drop_misses: a custkey outside the region
    # (or suppkey outside it) drops the row, exactly like the old joins
    j2 = broadcast_join(j1, cust_map, key="o_custkey",
                        value_name="c_nationkey", value_type=pa.int64())
    j3 = broadcast_join(j2, supp_map, key="l_suppkey",
                        value_name="s_nationkey", value_type=pa.int64())

    def _local(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("c_nationkey"),
                                     batch.column("s_nationkey")))

    j3 = j3.map_batches(_local, batch_format="pyarrow", zero_copy_batch=True)
    j4 = broadcast_join(j3, names, key="s_nationkey", value_name="n_name")
    return _nation_rev_merge(j4)


register(
    "local_supplier_volume",
    _q_local_supplier_volume,
    f"""
    SELECT n.n_name AS n_name,
           count(*) AS n_items,
           round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
    FROM customer c
    JOIN orders o ON c.c_custkey = o.o_custkey
    JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    JOIN supplier s ON l.l_suppkey = s.s_suppkey
    JOIN nation n ON s.s_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    WHERE r.r_name = '{Q5_REGION}'
      AND c.c_nationkey = s.s_nationkey
      AND o.o_orderdate >= DATE '{Q5_DATE_LO}'
      AND o.o_orderdate < DATE '{Q5_DATE_HI}'
    GROUP BY n.n_name
    """,
)


# ---------------------------------------------------------------------------
# Spend inequality: per-nation Gini coefficient over customer spend
# ---------------------------------------------------------------------------

def customer_spend_gini(orders_ds, cust_ds, *, value_shards: int = 64):
    """Per nation: the Gini coefficient of its customers' total order
    spend — the standard inequality index (0 = equal spend, -> 1 = one
    whale), computed with the exact sorted-rank formula
    ``G = 2 * sum(i * x_i) / (n * sum(x)) - (n + 1) / n`` over spends
    sorted ascending (tied spends make the formula order-invariant).

    Scale shape: a per-block (custkey, spend) combiner and one custkey
    shard-merge build the per-customer relation (the ``customer_ltv``
    shape); ONE shuffle join attaches the nation key.  The rank-weighted
    sum is then DISTRIBUTED: rows go to value-ORDERED shards derived
    from the spend's own IEEE bit pattern (no bounds pass — see
    ``_vshard``), exchanged on that integer id; each task ranks only its
    vshards' rows and emits per-(nation, vshard) partials (cnt, sum x,
    sum j*x), and the driver folds the tiny partial table with
    cumulative offsets — ``sum(i*x) = sum_shards(offset*sx + sjx)``,
    exact because ranks of tied values are interchangeable in the
    formula.  No task ever holds a whole nation's customers (the r2
    version did: nation cardinality is fixed, so per-nation tasks grew
    linearly with the customer table).  Spends are round-2 (cents); the rank sum's reassociation
    noise is ~1e-14 relative, absorbed by the round-6 output.
    """
    from .joins import shuffle_join

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "custkey": batch.column("o_custkey").to_numpy(
                zero_copy_only=False),
            "s": batch.column("o_totalprice").to_numpy(
                zero_copy_only=False),
        })
        return _agg(df, "custkey", _schema(custkey=_I, s=_F), s=("s", "sum"))

    def _merge(df: pd.DataFrame) -> dict:
        g = df.groupby("custkey", sort=False)["s"].sum()
        return {"custkey": g.index.to_numpy(),
                "spend": round_half_away(g.to_numpy(), 2)}

    spend = sharded_aggregate(orders_ds, _partial, _merge,
                              _schema(custkey=_I, spend=_F), key="custkey")
    joined = shuffle_join(spend, cust_ds, on="custkey", right_on="c_custkey")

    def _vshard(batch: pa.Table) -> pa.Table:
        # value-ordered shard WITHOUT a bounds pass — shard ids order
        # exactly like spends, so offsets accumulate correctly (see
        # _util.value_ordered_shards for the IEEE sortable-int trick)
        vs = value_ordered_shards(batch.column("spend"), value_shards)
        return batch.append_column("vshard", pa.array(vs, pa.int64()))

    def _rank_partials(df: pd.DataFrame) -> pd.DataFrame:
        # a task may hold several vshards: rank within (nation, vshard)
        keys = ["c_nationkey", "vshard"]
        df = df.sort_values(keys + ["spend"], kind="stable")
        x = df["spend"].to_numpy(np.float64)
        j = df.groupby(keys, sort=False).cumcount().to_numpy(np.float64) \
            + 1.0
        return pd.DataFrame({
            "nationkey": df["c_nationkey"].to_numpy(np.int64),
            "vshard": df["vshard"].to_numpy(np.int64),
            "cnt": np.ones(len(df), np.int64),
            "sx": x,
            "sjx": j * x,
        }).groupby(["nationkey", "vshard"], sort=True).sum().reset_index()

    # ≤ value_shards x |nations| partial rows
    parts = sharded_aggregate(joined, _vshard, _rank_partials, _schema(
        nationkey=_I, vshard=_I, cnt=_I, sx=_F, sjx=_F),
        key="vshard").to_pandas()
    parts = parts.sort_values(["nationkey", "vshard"], ignore_index=True)
    rows = {"nationkey": [], "n_customers": [], "total_spend": [],
            "gini": []}
    for nk, sub in parts.groupby("nationkey", sort=True):
        cnts = sub["cnt"].to_numpy(np.float64)
        sxs = sub["sx"].to_numpy(np.float64)
        sjxs = sub["sjx"].to_numpy(np.float64)
        offs = np.concatenate(([0.0], np.cumsum(cnts)[:-1]))
        six = (offs * sxs + sjxs).sum()
        n = cnts.sum()
        tot = sxs.sum()
        rows["nationkey"].append(int(nk))
        rows["n_customers"].append(int(n))
        rows["total_spend"].append(
            round_half_away(np.float64(tot), 2))
        rows["gini"].append(round_half_away(
            np.float64(2.0 * six / (n * tot) - (n + 1.0) / n), 6))
    return pd.DataFrame({
        "nationkey": np.asarray(rows["nationkey"], np.int64),
        "n_customers": np.asarray(rows["n_customers"], np.int64),
        "total_spend": np.asarray(rows["total_spend"], np.float64),
        "gini": np.asarray(rows["gini"], np.float64),
    })


def _q_spend_gini(sf_dir: str):

    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    cust = read_parquet_file(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    return customer_spend_gini(orders, cust)


register(
    "customer_spend_gini",
    _q_spend_gini,
    """
    WITH spend AS (
        SELECT o_custkey AS custkey, round(sum(o_totalprice), 2) AS s
        FROM orders GROUP BY 1
    ),
    j AS (
        SELECT c.c_nationkey AS nationkey, s
        FROM spend JOIN customer c ON custkey = c.c_custkey
    ),
    r AS (
        SELECT nationkey, s,
               row_number() OVER (
                   PARTITION BY nationkey ORDER BY s
               ) AS i,
               count(*) OVER (PARTITION BY nationkey) AS n
        FROM j
    )
    SELECT nationkey,
           CAST(n AS BIGINT) AS n_customers,
           round(sum(s), 2) AS total_spend,
           round(2 * sum(i * s) / (n * sum(s)) - (n + 1.0) / n, 6) AS gini
    FROM r
    GROUP BY nationkey, n
    """,
)


# ---------------------------------------------------------------------------
# TPC-H Q18: large-volume orders (HAVING-filtered semi join, top-n)
# ---------------------------------------------------------------------------

Q18_QTY_THRESHOLD = 250.0
Q18_TOP_N = 100
Q18_MAX_QUALIFYING = 2_000_000  # broadcast guard (rows)


def _top_n(ds, schema: pa.Schema, n: int, by: str, tie: str):
    """The ``n`` rows of ``ds`` (``schema``'s columns) with the largest
    ``by``, ties by the smallest ``tie``: each block keeps its own top
    ``n``, and one task (``key=None``) picks from those candidates — no
    global sort."""
    order = [(by, "descending"), (tie, "ascending")]

    def _partial(batch: pa.Table) -> pa.Table:
        return batch.select(schema.names).sort_by(order).slice(0, n)

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values([by, tie], ascending=[False, True]).head(n)

    return sharded_aggregate(ds, _partial, _final, schema, key=None)


def large_volume_orders(sf_dir: str):
    """TPC-H Q18: the ``Q18_TOP_N`` orders whose total lineitem quantity
    exceeds ``Q18_QTY_THRESHOLD``, with customer name attached — ordered
    by (o_totalprice desc, o_orderkey asc).

    Scale shape: lineitem collapses to per-block (orderkey, qty)
    partials BEFORE any exchange, one orderkey shard-merge makes the
    sums exact, and the HAVING filter runs inside that merge — so the
    qualifying set (a tail of the order population; ~0.15% of orders at
    this threshold) is what leaves the aggregate.  It is collected
    driver-side under ``Q18_MAX_QUALIFYING`` (loud failure beyond) and
    broadcast into the orders scan as a semi-join filter — lineitem and
    orders never co-shuffle.  Customer names attach through ONE bounded
    shuffle join (customer is large; the qualifying orders are the tiny
    side of that exchange).  The final top-n is a per-block partial
    top-k + single tiny merge (``_top_n``) — no global sort.  Quantity
    sums are integer-valued doubles (exact), o_totalprice is data (no
    arithmetic), so every output column hashes exactly.
    """
    from .joins import join_output_schema, parquet_schema, shuffle_join

    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"])

    def _qty_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "l_orderkey": batch.column("l_orderkey")
            .to_numpy(zero_copy_only=False),
            "q": batch.column("l_quantity").to_numpy(zero_copy_only=False),
        })
        return _agg(df, "l_orderkey", _schema(l_orderkey=_I, q=_F),
                    q=("q", "sum"))

    def _qty_merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", sort=False)["q"].sum().reset_index()
        return g[g["q"] > Q18_QTY_THRESHOLD].rename(columns={"q": "total_qty"})

    qualifying = sharded_aggregate(
        li, _qty_partial, _qty_merge, _schema(l_orderkey=_I, total_qty=_F),
        key="l_orderkey").to_pandas()
    if len(qualifying) > Q18_MAX_QUALIFYING:
        raise ValueError(
            f"Q18 qualifying set {len(qualifying)} rows exceeds the "
            f"broadcast guard {Q18_MAX_QUALIFYING}; raise the quantity "
            "threshold or switch the orders attach to a shuffle join")
    qkeys = np.sort(qualifying["l_orderkey"].to_numpy(np.int64))
    qqty = qualifying.set_index("l_orderkey")["total_qty"] \
        .loc[qkeys].to_numpy(np.float64)

    ord_cols = ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    orders = read_parquet_file(f"{sf_dir}/orders.parquet", columns=ord_cols)

    def _attach_qty(batch: pa.Table) -> pa.Table:
        keys = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(qkeys, keys)
        pos_c = np.minimum(pos, len(qkeys) - 1)
        hit = (len(qkeys) > 0) & (qkeys[pos_c] == keys)
        batch = batch.filter(pa.array(hit))
        if batch.num_rows == 0:
            return batch.append_column(
                "total_qty", pa.array([], pa.float64()))
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "total_qty",
            pa.array(qqty[np.searchsorted(qkeys, k)], pa.float64()))

    qualified = orders.map_batches(_attach_qty, batch_format="pyarrow",
                                   zero_copy_batch=True)
    ord_schema = parquet_schema(f"{sf_dir}/orders.parquet", ord_cols) \
        .append(pa.field("total_qty", pa.float64()))
    cust_schema = parquet_schema(
        f"{sf_dir}/customer.parquet", ["c_custkey", "c_name"])
    cust = read_parquet_file(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    j = shuffle_join(qualified, cust, on="o_custkey", right_on="c_custkey",
                     left_schema=ord_schema, right_schema=cust_schema)
    out = join_output_schema(ord_schema, cust_schema, on="o_custkey",
                             right_on="c_custkey")
    return _top_n(j, pa.schema([out.field(c) for c in (
        "c_name", "o_custkey", "o_orderkey", "o_orderdate", "o_totalprice",
        "total_qty")]), Q18_TOP_N, "o_totalprice", "o_orderkey")


register(
    "large_volume_orders",
    large_volume_orders,
    f"""
    WITH q AS (
        SELECT l_orderkey, sum(l_quantity) AS total_qty
        FROM lineitem GROUP BY 1
        HAVING sum(l_quantity) > {Q18_QTY_THRESHOLD}
    )
    SELECT c.c_name, o.o_custkey, o.o_orderkey, o.o_orderdate,
           o.o_totalprice, q.total_qty
    FROM orders o
    JOIN q ON q.l_orderkey = o.o_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    ORDER BY o.o_totalprice DESC, o.o_orderkey
    LIMIT {Q18_TOP_N}
    """,
)


# ---------------------------------------------------------------------------
# Ratio-to-report: each nation's share of monthly revenue
# ---------------------------------------------------------------------------

def nation_monthly_share(orders_ds):
    """Per (nation, calendar month): order revenue and its share of the
    month's total — the ratio-to-report window class (the one window
    family the engine didn't cover: lag, rank, ntile, cumsum, moving
    aggregates all exist).

    Scale shape: the per-block combiner collapses orders to
    (nationkey, month) partials; the ONE exchange is on the MONTH, so
    each task holds whole months of <= |nations| rows each and computes
    the share locally — no second pass, no broadcast.  Share divides
    the round-2 per-nation sum by the month total formed from those
    same round-2 sums (exact cents additions), so both engines evaluate
    the identical expression tree.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "nk": batch.column("o_custkey_nation")
            .to_numpy(zero_copy_only=False),
            "month_ns": _month_ns(batch),
            "s": batch.column("o_totalprice")
            .to_numpy(zero_copy_only=False),
        })
        return _agg(df, ["nk", "month_ns"],
                    _schema(nk=_I, month_ns=_I, s=_F), s=("s", "sum"))

    def _share(df: pd.DataFrame) -> dict:
        g = df.groupby(["nk", "month_ns"], sort=False)["s"].sum() \
            .reset_index()
        g["revenue"] = round_half_away(g["s"].to_numpy(), 2)
        totals = g.groupby("month_ns")["revenue"].transform("sum")
        return {
            "nationkey": g["nk"],
            "month_ns": g["month_ns"],
            "revenue": g["revenue"],
            "share": round_half_away(
                (g["revenue"] / totals).to_numpy(), 6),
        }

    return sharded_aggregate(orders_ds, _partial, _share, _schema(
        nationkey=_I, month_ns=_I, revenue=_F, share=_F), key="month_ns")


def _q_nation_monthly_share(sf_dir: str):

    from .joins import parquet_schema, shuffle_join

    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderdate"])
    cust = read_parquet_file(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def _nk(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch.column("c_custkey"),
            "o_custkey_nation": batch.column("c_nationkey"),
        })

    cust = cust.map_batches(_nk, batch_format="pyarrow",
                            zero_copy_batch=True)
    cust_schema = pa.schema([
        ("c_custkey", parquet_schema(f"{sf_dir}/customer.parquet",
                                     ["c_custkey"]).field("c_custkey").type),
        ("o_custkey_nation",
         parquet_schema(f"{sf_dir}/customer.parquet",
                        ["c_nationkey"]).field("c_nationkey").type),
    ])
    j = shuffle_join(
        orders, cust, on="o_custkey", right_on="c_custkey",
        left_schema=parquet_schema(
            f"{sf_dir}/orders.parquet",
            ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
        ).remove(0),
        right_schema=cust_schema)
    return nation_monthly_share(j)


register(
    "nation_monthly_share",
    _q_nation_monthly_share,
    """
    WITH m AS (
        SELECT c.c_nationkey AS nationkey,
               epoch_ns(date_trunc('month', o.o_orderdate)) AS month_ns,
               round(sum(o.o_totalprice), 2) AS revenue
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY 1, 2
    )
    SELECT nationkey, month_ns, revenue,
           round(revenue / sum(revenue) OVER (PARTITION BY month_ns), 6)
               AS share
    FROM m
    """,
)


# ---------------------------------------------------------------------------
# TPC-H Q10: returned-item revenue, top customers
# ---------------------------------------------------------------------------

Q10_DATE_LO = "1995-10-01"
Q10_DATE_HI = "1996-01-01"
Q10_TOP_N = 20


def returned_item_revenue(sf_dir: str):
    """TPC-H Q10: the ``Q10_TOP_N`` customers by revenue lost to returned
    lineitems (``l_returnflag = 'R'``) over a one-quarter order window,
    with account balance and nation name attached — ordered by
    (revenue desc, c_custkey asc; the rounded revenue is the sort key in
    BOTH engines so boundary membership can't diverge).

    Scale shape: both selective predicates run AT THE READ (the date
    range prunes orders row-groups, the returnflag equality prunes
    lineitem), and a 2 MiB bloom of the quarter's orderkeys drops the
    ~7/8 of returned lineitems whose order is outside the window BEFORE
    the exchange (round-4 sf1-soak follow-up; FPs fall out in the exact
    join), so the orderkey shuffle join moves only the returned
    lineitems of one quarter's orders; a per-block (custkey, rev)
    combiner + one custkey shard-merge collapse that to one row per
    customer BEFORE the customer-attribute join; nation names attach
    via a 25-row broadcast; the final top-n is a per-block partial
    top-k + single tiny merge (``_top_n``) — no global sort anywhere.
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from .enrich import broadcast_join
    from .joins import parquet_schema, shuffle_join

    import datetime as _dt
    lo = _dt.datetime.fromisoformat(Q10_DATE_LO)
    hi = _dt.datetime.fromisoformat(Q10_DATE_HI)

    def _orders():
        # the filter's column is read too, and dropped by the join
        return read_parquet_file(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
            filter=(pads.field("o_orderdate") >= lo)
            & (pads.field("o_orderdate") < hi),
        )

    orders = _orders()
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"],
        filter=pads.field("l_returnflag") == "R",
    )

    def _rev(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        return pa.table({"l_orderkey": batch.column("l_orderkey"),
                         "rev": rev})

    li = li.map_batches(_rev, batch_format="pyarrow", zero_copy_batch=True)
    from .sketches import bloom_build, bloom_filter_out

    li = bloom_filter_out(
        li, bloom_build(_orders(), column="o_orderkey", m_bits=1 << 24),
        column="l_orderkey", m_bits=1 << 24, keep="member")
    li_schema = pa.schema([
        ("l_orderkey", parquet_schema(f"{sf_dir}/lineitem.parquet",
                                      ["l_orderkey"]).field("l_orderkey")
         .type),
        ("rev", pa.float64()),
    ])
    orders_schema = parquet_schema(
        f"{sf_dir}/orders.parquet", ["o_orderkey", "o_custkey"])
    j1 = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                      left_schema=li_schema, right_schema=orders_schema)

    def _cust_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "custkey": batch.column("o_custkey")
            .to_numpy(zero_copy_only=False),
            "rev": batch.column("rev").to_numpy(zero_copy_only=False),
        })
        return _agg(df, "custkey", _schema(custkey=_I, rev=_F),
                    rev=("rev", "sum"))

    def _cust_merge(df: pd.DataFrame) -> dict:
        g = df.groupby("custkey", sort=False)["rev"].sum()
        return {"c_custkey": g.index.to_numpy(),
                "revenue": round_half_away(g.to_numpy(), 2)}

    per_cust = sharded_aggregate(j1, _cust_partial, _cust_merge, _schema(
        c_custkey=_I, revenue=_F), key="custkey")
    cust_cols = ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]
    cust = read_parquet_file(f"{sf_dir}/customer.parquet", columns=cust_cols)
    cust_schema = parquet_schema(f"{sf_dir}/customer.parquet", cust_cols)
    j2 = shuffle_join(per_cust, cust, on="c_custkey",
                      right_schema=cust_schema)

    import pyarrow.parquet as pq
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    names = dict(zip(nation.column("n_nationkey").to_pylist(),
                     nation.column("n_name").to_pylist()))
    j3 = broadcast_join(j2, names, key="c_nationkey", value_name="n_name")
    return _top_n(j3, _schema(c_custkey=_I, c_name=_S, revenue=_F,
                              c_acctbal=_F, n_name=_S),
                  Q10_TOP_N, "revenue", "c_custkey")


register(
    "returned_item_revenue",
    returned_item_revenue,
    f"""
    WITH r AS (
        SELECT o.o_custkey AS c_custkey,
               round(sum(l.l_extendedprice * (1 - l.l_discount)), 2)
                   AS revenue
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        WHERE l.l_returnflag = 'R'
          AND o.o_orderdate >= DATE '{Q10_DATE_LO}'
          AND o.o_orderdate < DATE '{Q10_DATE_HI}'
        GROUP BY 1
    )
    SELECT r.c_custkey, c.c_name, r.revenue, c.c_acctbal, n.n_name
    FROM r
    JOIN customer c ON c.c_custkey = r.c_custkey
    JOIN nation n ON n.n_nationkey = c.c_nationkey
    ORDER BY r.revenue DESC, r.c_custkey
    LIMIT {Q10_TOP_N}
    """,
)


# ---------------------------------------------------------------------------
# Pareto frontier (2-D skyline): customers maximizing (spend, order count)
# ---------------------------------------------------------------------------

PARETO_MAX_CANDIDATES = 5_000_000


def customer_pareto_frontier(orders_ds):
    """The skyline of customers over (max single-order price, order
    count): keep a customer iff NO other customer is >= on both metrics
    and > on at least one (exact ties on both metrics all stay,
    matching the SQL ``NOT EXISTS`` dominance test row for row).
    Max-price (a data value, no arithmetic) makes every output column
    exact-hashable, and the two metrics are weakly correlated so the
    frontier is a real multi-point trade-off curve.

    Scale shape: per-customer totals come from the usual combiner +
    custkey shard-merge; then the skyline uses its closure property —
    ``skyline(union) = skyline(union of per-part skylines)`` — so each
    block reduces to its LOCAL frontier with a vectorized
    sort + group-prefix-max scan (no Python per row), and one final
    task (``key=None``) merges the survivors.  On correlated metrics
    (spend and order count rise together) local frontiers are tiny; the
    anti-correlated worst case where the skyline IS the population is
    guarded by ``PARETO_MAX_CANDIDATES`` with a loud error.  Both metrics
    are exact (a max of stored values and an integer count), so dominance
    can never flip on float noise.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "custkey": batch.column("o_custkey")
            .to_numpy(zero_copy_only=False),
            "s": batch.column("o_totalprice")
            .to_numpy(zero_copy_only=False),
        })
        return _agg(df, "custkey", _schema(custkey=_I, s=_F, n=_I),
                    s=("s", "max"), n=("s", "size"))

    def _skyline(spend: np.ndarray, n_orders: np.ndarray) -> np.ndarray:
        """Boolean keep-mask: 2-D skyline via sort + strictly-higher-
        spend prefix max (rows of one spend level share that prefix)."""
        if len(spend) == 0:
            return np.zeros(0, bool)
        order = np.lexsort((-n_orders, -spend))
        sp, no = spend[order], n_orders[order]
        # prefix max of n_orders over STRICTLY greater spend levels
        new_level = np.r_[True, sp[1:] != sp[:-1]]
        level_id = np.cumsum(new_level) - 1
        # running max at the END of each level, then shift one level
        level_max = np.maximum.reduceat(no, np.where(new_level)[0])
        prev = np.r_[-np.inf, np.maximum.accumulate(level_max)[:-1]]
        # survive iff better than every strictly-higher-spend point AND
        # tied with this level's best count (same-level points with a
        # lower count are dominated strictly on the count axis)
        keep_sorted = (no > prev[level_id]) & (no == level_max[level_id])
        keep = np.zeros(len(spend), bool)
        keep[order] = keep_sorted
        return keep

    def _merge(df: pd.DataFrame) -> dict:
        g = df.groupby("custkey", sort=False).agg(
            s=("s", "max"), n=("n", "sum")).reset_index()
        max_price = g["s"].to_numpy(np.float64)  # data value: exact
        n_orders = g["n"].to_numpy(np.int64)
        keep = _skyline(max_price, n_orders)
        return {
            "c_custkey": g["custkey"].to_numpy(np.int64)[keep],
            "max_price": max_price[keep],
            "n_orders": n_orders[keep],
        }

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) > PARETO_MAX_CANDIDATES:
            raise ValueError(
                f"{len(df)} local-frontier candidates exceed "
                f"PARETO_MAX_CANDIDATES={PARETO_MAX_CANDIDATES}; the "
                "metrics are anti-correlated enough that the skyline is a "
                "large fraction of the population — this operator's output "
                "contract (small frontier) does not hold for this data")
        keep = _skyline(df["max_price"].to_numpy(),
                        df["n_orders"].to_numpy(np.int64))
        return df[keep].sort_values("c_custkey")

    schema = _schema(c_custkey=_I, max_price=_F, n_orders=_I)
    local = sharded_aggregate(orders_ds, _partial, _merge, schema,
                              key="custkey")
    return sharded_aggregate(local, lambda t: t, _final, schema, key=None)


def _q_pareto(sf_dir: str):

    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    return customer_pareto_frontier(orders)


register(
    "customer_pareto_frontier",
    _q_pareto,
    """
    WITH s AS (
        SELECT o_custkey AS c_custkey,
               max(o_totalprice) AS max_price,
               CAST(count(*) AS BIGINT) AS n_orders
        FROM orders GROUP BY 1
    )
    SELECT c_custkey, max_price, n_orders FROM s a
    WHERE NOT EXISTS (
        SELECT 1 FROM s b
        WHERE b.max_price >= a.max_price AND b.n_orders >= a.n_orders
          AND (b.max_price > a.max_price OR b.n_orders > a.n_orders)
    )
    """,
)


# ---------------------------------------------------------------------------
# TPC-H Q7: volume shipping between two nations, by year
# ---------------------------------------------------------------------------

Q7_NATION_A = "NATION_3"
Q7_NATION_B = "NATION_9"
Q7_DATE_LO = "1996-01-01"
Q7_DATE_HI = "1998-01-01"


def volume_shipping(sf_dir: str):
    """TPC-H Q7: lineitem revenue flowing between two specific nations
    (supplier nation != customer nation, both directions), grouped by
    (supp_nation, cust_nation, ship year) over a two-year ship window.

    Scale shape: the two-nation predicates prune customer AND supplier
    at the read (isin row filter), and the ship-date range prunes
    lineitem the same way; the join tree runs narrowest-first —
    lineitem ⋈ orders (orderkey), ⋈ two-nation customers (custkey),
    ⋈ two-nation suppliers (suppkey) — so out-of-window and
    out-of-nation rows never reach the later exchanges.  The
    cross-pair constraint (supp != cust nation) is a vectorized
    post-join filter, names attach via a 2-row broadcast, and the
    final aggregate is a per-block (pair, year) combiner + one exchange
    on the supplier nation — at most 2 pairs x |years| rows move.
    """
    import datetime as _dt

    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from .joins import join_output_schema, parquet_schema, shuffle_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    names = dict(zip(nation.column("n_nationkey").to_pylist(),
                     nation.column("n_name").to_pylist()))
    nk = {v: k for k, v in names.items()}
    keys = sorted((nk[Q7_NATION_A], nk[Q7_NATION_B]))

    cust = read_parquet_file(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"],
        filter=pads.field("c_nationkey").isin(keys),
    )
    supp = read_parquet_file(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"],
        filter=pads.field("s_nationkey").isin(keys),
    )
    lo = _dt.datetime.fromisoformat(Q7_DATE_LO)
    hi = _dt.datetime.fromisoformat(Q7_DATE_HI)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo)
        & (pads.field("l_shipdate") < hi),
    )
    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])

    def _vol(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        year = batch.column("l_shipdate").cast(pa.timestamp("ns")) \
            .to_numpy(zero_copy_only=False).astype("datetime64[Y]") \
            .astype(np.int64) + 1970
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "l_suppkey": batch.column("l_suppkey"),
            "l_year": pa.array(year, pa.int64()),
            "vol": rev,
        })

    li = li.map_batches(_vol, batch_format="pyarrow", zero_copy_batch=True)
    lp = f"{sf_dir}/lineitem.parquet"
    li_schema = pa.schema([
        ("l_orderkey", parquet_schema(lp, ["l_orderkey"])
         .field("l_orderkey").type),
        ("l_suppkey", parquet_schema(lp, ["l_suppkey"])
         .field("l_suppkey").type),
        ("l_year", pa.int64()),
        ("vol", pa.float64()),
    ])
    orders_schema = parquet_schema(
        f"{sf_dir}/orders.parquet", ["o_orderkey", "o_custkey"])
    cust_schema = parquet_schema(
        f"{sf_dir}/customer.parquet", ["c_custkey", "c_nationkey"])
    supp_schema = parquet_schema(
        f"{sf_dir}/supplier.parquet", ["s_suppkey", "s_nationkey"])

    j1 = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                      left_schema=li_schema, right_schema=orders_schema)
    j1_schema = join_output_schema(li_schema, orders_schema,
                                   on="l_orderkey", right_on="o_orderkey")
    j2 = shuffle_join(j1, cust, on="o_custkey", right_on="c_custkey",
                      left_schema=j1_schema, right_schema=cust_schema)
    j2_schema = join_output_schema(j1_schema, cust_schema,
                                   on="o_custkey", right_on="c_custkey")
    j3 = shuffle_join(j2, supp, on="l_suppkey", right_on="s_suppkey",
                      left_schema=j2_schema, right_schema=supp_schema)

    keys = ["supp_nation", "cust_nation", "l_year"]

    def _cross(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(batch.column("c_nationkey"),
                            batch.column("s_nationkey"))
        t = batch.filter(keep)
        df = pd.DataFrame({
            "supp_nation": t.column("s_nationkey").to_pandas().map(names),
            "cust_nation": t.column("c_nationkey").to_pandas().map(names),
            "l_year": t.column("l_year").to_numpy(zero_copy_only=False),
            "vol": t.column("vol").to_numpy(zero_copy_only=False),
        })
        return _agg(df, keys, _schema(supp_nation=_S, cust_nation=_S,
                                      l_year=_I, vol=_F), vol=("vol", "sum"))

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=True)["vol"].sum().reset_index()
        return g.assign(revenue=round_half_away(g["vol"].to_numpy(), 2))

    return sharded_aggregate(j3, _cross, _merge, _schema(
        supp_nation=_S, cust_nation=_S, l_year=_I, revenue=_F),
        key="supp_nation")


register(
    "volume_shipping",
    volume_shipping,
    f"""
    SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
           CAST(extract(year FROM l.l_shipdate) AS BIGINT) AS l_year,
           round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
    JOIN nation n1 ON n1.n_nationkey = s.s_nationkey
    JOIN nation n2 ON n2.n_nationkey = c.c_nationkey
    WHERE ((n1.n_name = '{Q7_NATION_A}' AND n2.n_name = '{Q7_NATION_B}')
        OR (n1.n_name = '{Q7_NATION_B}' AND n2.n_name = '{Q7_NATION_A}'))
      AND l.l_shipdate >= DATE '{Q7_DATE_LO}'
      AND l.l_shipdate < DATE '{Q7_DATE_HI}'
    GROUP BY 1, 2, 3
    """,
)


# ---------------------------------------------------------------------------
# RFM segmentation (recency / frequency / monetary terciles)
# ---------------------------------------------------------------------------

def _q_customer_rfm(sf_dir: str):
    """Classic RFM: per customer, days since last order (R), order count
    (F), total spend (M); each metric terciled over customers (edges
    from the bit-exact weighted ``quantile_cont`` lerp —
    ``psidrift._weighted_quantiles``), customers labeled with the
    3-digit segment code ``R*100 + F*10 + M`` (bucket 2 = top third),
    and the report counts customers per segment.

    Scale shape: per-block (custkey, last, n, spend) partials -> ONE
    exchange into one task (``key=None``): the tercile edges need every
    customer's metrics in one place (customer-dimension bounded, the
    ranktests guard), so that task merges the partials per customer and
    buckets them vectorized; the output is <= 27 rows.
    """
    from .psidrift import _weighted_quantiles

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("o_orderdate").cast(pa.timestamp("ns")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "ck": batch.column("o_custkey").to_numpy(zero_copy_only=False),
            "d": ts // DAY_NS,
            "p": batch.column("o_totalprice")
            .to_numpy(zero_copy_only=False),
        })
        return _agg(df, "ck", _schema(ck=_I, last_d=_I, n=_I, spend=_F),
                    last_d=("d", "max"), n=("d", "size"), spend=("p", "sum"))

    def _segments(df: pd.DataFrame) -> pd.DataFrame:
        df = df.groupby("ck", sort=False).agg(
            last_d=("last_d", "max"), n=("n", "sum"), spend=("spend", "sum"))
        max_d = int(df["last_d"].max())
        r = (max_d - df["last_d"].to_numpy(np.int64)).astype(np.float64)
        f = df["n"].to_numpy(np.int64).astype(np.float64)
        m = round_half_away(df["spend"].to_numpy(np.float64), 2)
        qs = [1 / 3, 2 / 3]
        seg = np.zeros(len(df), dtype=np.int64)
        for w, metric in ((100, r), (10, f), (1, m)):
            uv, uc = np.unique(metric, return_counts=True)
            edges = _weighted_quantiles(uv, uc.astype(np.int64), qs)
            b = ((metric > edges[0]).astype(np.int64)
                 + (metric > edges[1]).astype(np.int64))
            seg += w * b
        return pd.DataFrame({"segment": seg}).groupby("segment") \
            .size().rename("n_customers").reset_index()

    return sharded_aggregate(
        read_parquet_file(f"{sf_dir}/orders.parquet",
                          columns=["o_custkey", "o_orderdate",
                                   "o_totalprice"]),
        _partial, _segments, _schema(segment=_I, n_customers=_I), key=None)


register(
    "customer_rfm_segments",
    _q_customer_rfm,
    """
    WITH pc AS (
        SELECT o_custkey,
               CAST(max(epoch_ns(o_orderdate) // 86400000000000)
                    AS BIGINT) AS last_d,
               CAST(count(*) AS BIGINT) AS n,
               round(sum(o_totalprice), 2) AS spend
        FROM orders GROUP BY 1
    ),
    mx AS (SELECT max(last_d) AS max_d FROM pc),
    v AS (
        SELECT o_custkey,
               CAST(max_d - last_d AS DOUBLE) AS r,
               CAST(n AS DOUBLE) AS f,
               spend AS m
        FROM pc, mx
    ),
    e AS (
        SELECT quantile_cont(r, [1.0/3, 2.0/3]) AS er,
               quantile_cont(f, [1.0/3, 2.0/3]) AS ef,
               quantile_cont(m, [1.0/3, 2.0/3]) AS em
        FROM v
    ),
    s AS (
        SELECT 100 * ((CASE WHEN r > er[1] THEN 1 ELSE 0 END)
                      + (CASE WHEN r > er[2] THEN 1 ELSE 0 END))
               + 10 * ((CASE WHEN f > ef[1] THEN 1 ELSE 0 END)
                       + (CASE WHEN f > ef[2] THEN 1 ELSE 0 END))
               + ((CASE WHEN m > em[1] THEN 1 ELSE 0 END)
                  + (CASE WHEN m > em[2] THEN 1 ELSE 0 END)) AS segment
        FROM v, e
    )
    SELECT CAST(segment AS BIGINT) AS segment,
           CAST(count(*) AS BIGINT) AS n_customers
    FROM s GROUP BY 1
    """,
)


# ---------------------------------------------------------------------------
# ABC (Pareto) inventory classes over part revenue
# ---------------------------------------------------------------------------

ABC_A, ABC_B = 0.8, 0.95  # cumulative-revenue-share cut points


def _q_parts_abc(sf_dir: str):
    """ABC analysis: rank parts by revenue (desc, partkey tiebreak),
    take the cumulative revenue share, and classify A (first 80% of
    revenue), B (to 95%), C (rest); report per-class part counts and
    revenue.  Revenue rounds to cents BEFORE ranking, and the
    cumulative share divides rounded running sums of exact 1e-2
    multiples, so class boundaries are identical on both engines.

    Scale shape: per-block (part, revenue) partials -> ONE exchange into
    one task (``key=None``): the classification needs the GLOBAL revenue
    ordering, which runs in one part-dimension-bounded task (ranktests
    guard rationale); output is 3 rows.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        # EXACT integer revenue units (1e-4 dollars), the Q9 trick:
        # price has 2dp and discount 2dp, so round(p*100) and
        # round(d*100) recover exact ints and the product is exact —
        # per-part cent rounding of FLOAT sums would flip on the many
        # genuine .xx5 decimal midpoints this product produces.
        price_c = np.rint(batch.column("l_extendedprice")
                          .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        disc_c = np.rint(batch.column("l_discount")
                         .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        df = pd.DataFrame({
            "pk": batch.column("l_partkey").to_numpy(zero_copy_only=False),
            "units": price_c * (100 - disc_c),
        })
        return _agg(df, "pk", _schema(pk=_I, units=_I),
                    units=("units", "sum"))

    def _classify(df: pd.DataFrame) -> dict:
        g = df.groupby("pk", sort=False)["units"].sum()
        units = g.to_numpy(np.int64)
        order = np.lexsort((g.index.to_numpy(np.int64), -units))
        units_o = units[order]
        cum = np.cumsum(units_o)          # exact int64
        total = int(cum[-1])
        share = round_half_away(cum / total, 6)
        cls = np.where(share <= ABC_A, "A",
                       np.where(share <= ABC_B, "B", "C"))
        out = pd.DataFrame({"cls": cls, "units": units_o}).groupby("cls") \
            .agg(n_parts=("units", "size"), units=("units", "sum")) \
            .reset_index()
        return {
            "abc_class": out["cls"],
            "n_parts": out["n_parts"],
            "revenue": ((out["units"].to_numpy(np.int64) + 50) // 100)
            .astype(np.float64) / 100.0,
        }

    return sharded_aggregate(
        read_parquet_file(f"{sf_dir}/lineitem.parquet",
                          columns=["l_partkey", "l_extendedprice",
                                   "l_discount"]),
        _partial, _classify, _schema(abc_class=_S, n_parts=_I, revenue=_F),
        key=None)


register(
    "parts_abc_classes",
    _q_parts_abc,
    f"""
    WITH pr AS (
        SELECT l_partkey AS pk,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                   AS units
        FROM lineitem GROUP BY 1
    ),
    r AS (
        SELECT pk, units,
               sum(units) OVER (ORDER BY units DESC, pk
                                ROWS UNBOUNDED PRECEDING) AS cum,
               sum(units) OVER () AS total
        FROM pr
    ),
    c AS (
        SELECT units,
               CASE WHEN round(cum / CAST(total AS DOUBLE), 6) <= {ABC_A}
                         THEN 'A'
                    WHEN round(cum / CAST(total AS DOUBLE), 6) <= {ABC_B}
                         THEN 'B'
                    ELSE 'C' END AS abc_class
        FROM r
    )
    SELECT abc_class, CAST(count(*) AS BIGINT) AS n_parts,
           CAST((sum(units) + 50) // 100 AS DOUBLE) / 100.0 AS revenue
    FROM c GROUP BY 1
    """,
)
