"""The last five TPC-H shapes (Q2, Q11, Q12, Q20, Q21), adapted to the
fixture's columns — completing all 22 shapes.  The tables lack
``partsupp`` / ``l_shipmode`` / ``l_commitdate`` / ``l_receiptdate``, so
each adapted variant keeps the ORIGINAL query's structure over columns
that exist:

* Q2 (`min_cost_supplier`): the correlated-min subquery ("the supplier
  whose cost equals the per-part minimum") with the supply cost derived
  from observed unit prices (``l_extendedprice / l_quantity``) instead
  of ``ps_supplycost``.
* Q11 (`important_part_values`): two-level aggregate with a
  global-scalar HAVING threshold — per-part value from nation-supplied
  lineitem revenue instead of ``ps_supplycost * ps_availqty``.
* Q12 (`late_shipment_priority`): the CASE-sum priority split with
  lateness as ``l_shipdate > o_orderdate + N days`` (no receipt/commit
  dates) grouped by ``l_returnflag`` (no ``l_shipmode``).
* Q20 (`excess_supply_suppliers`): the nested correlated-aggregate IN
  chain — suppliers who shipped more than half a part's total shipped
  quantity stand in for "availqty > half the year's demand".
* Q21 (`suppliers_kept_waiting`): the EXISTS / NOT-EXISTS self-join on
  the fact table — the sole-late-supplier-in-a-multi-supplier-order
  test, with lateness from shipdate-vs-orderdate.

Scale shapes: every dimension predicate prunes AT THE READ via
loud-guarded broadcast key sets (`tpch._key_set` / `relational
.MAX_BROADCAST_DIM_ROWS`); Q2/Q11/Q20 never shuffle the fact table at
all — per-block combiners reduce to (key, partial) rows and ONE shard
exchange keyed on the part (``_util.sharded_aggregate``) merges them;
Q12/Q21 run ONE fact-x-fact shuffle join (lineitem x orders, both sides
projected to 3 columns) and then combine on the same exchange.  Q21's
per-order logic is vectorized pandas over the many orders of one
exchange task (never one task per order key); Q20 and Q21 finish their
suppliers in one more exchange that gathers into one task
(``key=None``).  No Ray Data ``groupby`` runs, and the test-data reads
go through ``_util.read_parquet_file``.

Float discipline: Q11 sums EXACT integer cents (the Q9 rule —
`product_type_profit`); Q2's unit cost is an IEEE-exact double division
identical on both engines, so the correlated equality compares exact
doubles and only the DISPLAYED cost is rounded (round-6); Q20 sums
integral quantities (exact in double); Q12/Q21 emit pure counts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import (
    as_table,
    collect,
    read_parquet_file,
    round_half_away,
    sharded_aggregate,
)
from .registry import register
from .relational import _F, _I, _S, _agg, _schema

# Q2: parts of one type in the small-size half, suppliers of one region.
Q2_TYPE = "STANDARD"
Q2_SIZE_MAX = 25
Q2_REGION = "ASIA"

# Q11: revenue supplied by one nation's suppliers; global share threshold.
Q11_NATION = "NATION_3"
Q11_FRACTION = 0.001
_PART_CENTS = _schema(pk=_I, c=_I)

# Q12: two-year ship window, one-year lateness bound, urgent/high split.
Q12_LO, Q12_HI = "1997-01-01", "1999-01-01"
Q12_LATE_DAYS = 365
Q12_HIGH = ("1-URGENT", "2-HIGH")

# Q20: token-named parts, two-year window, dominant-share threshold.
Q20_TOKEN = "bolt"
Q20_LO, Q20_HI = "1996-01-01", "1998-01-01"
Q20_SHARE = 0.5
Q20_REGION = "EUROPE"
_PAIR_QTY = _schema(pk=_I, sk=_I, q=_F)

# Q21: finished orders, one-year lateness bound, one region's suppliers.
Q21_LATE_DAYS = 365
Q21_REGION = "EUROPE"


def _region_suppliers(sf_dir: str, region: str) -> dict:
    """Driver-side supplier attribute map for one region:
    ``s_suppkey -> (s_name, s_acctbal, n_name)``.  The supplier and
    nation dimensions are broadcast-small by construction (reference
    scale: |supplier| = 10k x SF); the loud guard fires if that stops
    holding."""
    import pyarrow.parquet as pq

    from .relational import MAX_BROADCAST_DIM_ROWS

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region_t = pq.read_table(f"{sf_dir}/region.parquet")
    rk = dict(zip(region_t.column("r_name").to_pylist(),
                  region_t.column("r_regionkey").to_pylist()))[region]
    nk_name = dict(zip(nation.column("n_nationkey").to_pylist(),
                       nation.column("n_name").to_pylist()))
    region_nations = {
        k for k, r in zip(nation.column("n_nationkey").to_pylist(),
                          nation.column("n_regionkey").to_pylist())
        if r == rk
    }
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"])
    if supp.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"supplier has {supp.num_rows} rows "
            f"(> {MAX_BROADCAST_DIM_ROWS}); broadcast supplier map no "
            "longer applies — use joins.shuffle_join for this dimension")
    return {
        sk: (nm, ab, nk_name[nk])
        for sk, nm, ab, nk in zip(supp.column("s_suppkey").to_pylist(),
                                  supp.column("s_name").to_pylist(),
                                  supp.column("s_acctbal").to_pylist(),
                                  supp.column("s_nationkey").to_pylist())
        if nk in region_nations
    }


# ---------------------------------------------------------------------------
# Q2 (adapted) — minimum-cost supplier per part (correlated min subquery)
# ---------------------------------------------------------------------------


def min_cost_supplier(sf_dir: str):
    """TPC-H Q2 adapted (no ``partsupp``): for each ``Q2_TYPE`` part in
    the small-size half, the ``Q2_REGION`` supplier(s) whose minimum
    observed unit price (``l_extendedprice / l_quantity``) equals the
    part's regional minimum — the correlated-min shape.

    Scale shape: both dimension predicates prune lineitem AT THE READ
    (part keys + region supplier keys as loud-guarded broadcast sets);
    a per-block (part, supplier) min combiner reduces each block to at
    most |offers| rows, ONE exchange keyed on the part merges partial
    mins and resolves the correlated equality inside the shard (every
    offer of a part lands in its shard), and supplier/part attributes
    attach from broadcast maps — the fact table is never shuffled.
    """
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from .relational import MAX_BROADCAST_DIM_ROWS

    smap = _region_suppliers(sf_dir, Q2_REGION)
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"],
        filters=[("p_type", "=", Q2_TYPE), ("p_size", "<=", Q2_SIZE_MAX)])
    if part.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"pruned part dimension has {part.num_rows} rows "
            f"(> {MAX_BROADCAST_DIM_ROWS}); broadcast part map no longer "
            "applies — use joins.shuffle_join for this dimension")
    pname = dict(zip(part.column("p_partkey").to_pylist(),
                     part.column("p_name").to_pylist()))

    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
        filter=(pads.field("l_partkey").isin(sorted(pname))
                & pads.field("l_suppkey").isin(sorted(smap))),
    )

    def _partial(batch: pa.Table) -> pa.Table:
        # IEEE-exact double division — identical on both engines, so
        # min() and the correlated equality below compare exact values.
        df = pd.DataFrame({
            "pk": batch.column("l_partkey").to_numpy(zero_copy_only=False),
            "sk": batch.column("l_suppkey").to_numpy(zero_copy_only=False),
            "cost": batch.column("l_extendedprice")
            .to_numpy(zero_copy_only=False)
            / batch.column("l_quantity").to_numpy(zero_copy_only=False),
        })
        return _agg(df, ["pk", "sk"], _schema(pk=_I, sk=_I, cost=_F),
                    cost=("cost", "min"))

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["pk", "sk"], sort=True)["cost"].min().reset_index()
        g["pmin"] = g.groupby("pk")["cost"].transform("min")
        g = g[g["cost"] == g["pmin"]]
        attrs = g["sk"].map(smap)
        return pd.DataFrame({
            "s_acctbal": attrs.map(lambda t: t[1]).astype(np.float64),
            "s_name": attrs.map(lambda t: t[0]).to_numpy(dtype=object),
            "n_name": attrs.map(lambda t: t[2]).to_numpy(dtype=object),
            "p_partkey": g["pk"].astype("int64"),
            "p_name": g["pk"].map(pname).to_numpy(dtype=object),
            "min_cost": round_half_away(g["cost"].to_numpy(), 6),
        })

    return collect(sharded_aggregate(li, _partial, _final, _schema(
        s_acctbal=_F, s_name=_S, n_name=_S, p_partkey=_I, p_name=_S,
        min_cost=_F), key="pk"))


register(
    "min_cost_supplier",
    min_cost_supplier,
    f"""
    WITH offers AS (
        SELECT l_partkey, l_suppkey,
               min(l_extendedprice / l_quantity) AS cost
        FROM lineitem
        WHERE l_partkey IN (SELECT p_partkey FROM part
                            WHERE p_type = '{Q2_TYPE}'
                              AND p_size <= {Q2_SIZE_MAX})
          AND l_suppkey IN (SELECT s_suppkey
                            FROM supplier s
                            JOIN nation n ON n.n_nationkey = s.s_nationkey
                            JOIN region r ON r.r_regionkey = n.n_regionkey
                            WHERE r.r_name = '{Q2_REGION}')
        GROUP BY l_partkey, l_suppkey
    )
    SELECT s.s_acctbal AS s_acctbal,
           s.s_name AS s_name,
           n.n_name AS n_name,
           CAST(o.l_partkey AS BIGINT) AS p_partkey,
           p.p_name AS p_name,
           round(o.cost, 6) AS min_cost
    FROM offers o
    JOIN supplier s ON s.s_suppkey = o.l_suppkey
    JOIN nation n ON n.n_nationkey = s.s_nationkey
    JOIN part p ON p.p_partkey = o.l_partkey
    WHERE o.cost = (SELECT min(o2.cost) FROM offers o2
                    WHERE o2.l_partkey = o.l_partkey)
    """,
)


# ---------------------------------------------------------------------------
# Q11 (adapted) — important part values (global-scalar HAVING threshold)
# ---------------------------------------------------------------------------


def important_part_values(sf_dir: str):
    """TPC-H Q11 adapted (no ``partsupp``): per-part value = revenue
    supplied by ``Q11_NATION`` suppliers, keeping parts whose value
    exceeds ``Q11_FRACTION`` of the nation's total — the two-level
    aggregate with a global-scalar threshold.

    Scale shape: the nation's supplier keys prune lineitem AT THE READ;
    a per-block (part -> integer-cents sum) combiner plus ONE exchange
    keyed on the part produce the per-part table (<= |part| rows, tiny
    relative to the fact table); that table is materialized ONCE and
    reused for both the global scalar (one task, ``key=None``) and the
    threshold filter, whose few survivors gather into one task — the
    corpus is scanned exactly once (the `doc_bigram_logprob` round-3
    rule).  Integer-cents sums make the
    threshold comparison exact on both engines (the Q9 discipline).
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from .tpch import _global_fold, _key_set

    supp_keys = _key_set(
        f"{sf_dir}/supplier.parquet", "s_suppkey",
        pads.field("s_nationkey").isin(
            sorted(_nation_keys(sf_dir, (Q11_NATION,)))))
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_suppkey"],
        filter=pads.field("l_suppkey").isin(sorted(supp_keys)),
    )

    def _partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("l_extendedprice")
                        .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        df = pd.DataFrame({
            "pk": batch.column("l_partkey").to_numpy(zero_copy_only=False),
            "c": cents,
        })
        return _agg(df, "pk", _PART_CENTS, c=("c", "sum"))

    # <= |part| rows, materialized; reused by the scalar and the filter
    values = sharded_aggregate(
        li, _partial,
        lambda df: df.groupby("pk", sort=False)["c"].sum().reset_index(),
        _PART_CENTS, key="pk")
    total = _global_fold(values, lambda b: pa.table(
        {"c": [pc.sum(b.column("c")).as_py() or 0]}), _schema(c=_I))["c"]
    threshold = Q11_FRACTION * float(total)

    def _keep(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy(zero_copy_only=False)
        keep = c > threshold
        return pa.table({
            "l_partkey": pa.array(
                batch.column("pk").to_numpy(zero_copy_only=False)[keep],
                pa.int64()),
            "value": pa.array(c[keep].astype(np.float64) / 100.0,
                              pa.float64()),
        })

    # each kept part holds over Q11_FRACTION of the total, so at most
    # 1 / Q11_FRACTION parts pass and they gather into one task
    return sharded_aggregate(values, _keep, lambda df: df,
                             _schema(l_partkey=_I, value=_F), key=None)


def _nation_keys(sf_dir: str, names) -> set:
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    want = set(names)
    return {k for k, n in zip(nation.column("n_nationkey").to_pylist(),
                              nation.column("n_name").to_pylist())
            if n in want}


register(
    "important_part_values",
    important_part_values,
    f"""
    WITH v AS (
        SELECT l.l_partkey,
               sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)) AS c
        FROM lineitem l
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
        JOIN nation n ON n.n_nationkey = s.s_nationkey
        WHERE n.n_name = '{Q11_NATION}'
        GROUP BY l.l_partkey
    )
    SELECT CAST(l_partkey AS BIGINT) AS l_partkey,
           CAST(c AS DOUBLE) / 100.0 AS value
    FROM v
    WHERE c > {Q11_FRACTION} * (SELECT sum(c) FROM v)
    """,
)


# ---------------------------------------------------------------------------
# Q12 (adapted) — late-shipment priority split (CASE-sum over a join)
# ---------------------------------------------------------------------------


def late_shipment_priority(sf_dir: str):
    """TPC-H Q12 adapted (no ``l_shipmode`` / receipt dates): per
    ``l_returnflag``, the count of late lineitems
    (``l_shipdate > o_orderdate + Q12_LATE_DAYS``) split into
    urgent/high vs other order priorities, over a two-year ship window.

    Scale shape: the ship window prunes lineitem AT THE READ; ONE
    fact-x-fact shuffle join (both sides projected to <= 3 columns)
    attaches order attributes; a per-block CASE-sum combiner reduces to
    <= 3 rows per block and one exchange keyed on the flag finishes —
    pure integer counts, no float discipline needed.
    """
    import datetime as _dt

    import pyarrow.dataset as pads

    from .joins import parquet_schema, shuffle_join

    lo = _dt.datetime.fromisoformat(Q12_LO)
    hi = _dt.datetime.fromisoformat(Q12_HI)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo)
        & (pads.field("l_shipdate") < hi),
    )
    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    j = shuffle_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=parquet_schema(
            f"{sf_dir}/lineitem.parquet",
            ["l_orderkey", "l_returnflag", "l_shipdate"]),
        right_schema=parquet_schema(
            f"{sf_dir}/orders.parquet",
            ["o_orderkey", "o_orderdate", "o_orderpriority"]),
    )
    late_ns = np.int64(Q12_LATE_DAYS) * 86_400_000_000_000
    counts = _schema(l_returnflag=_S, high_line_count=_I, low_line_count=_I)

    def _sum(df: pd.DataFrame) -> pa.Table:
        return as_table(
            df.groupby("l_returnflag", sort=False).sum().reset_index(),
            counts)

    def _partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("ns")) \
            .to_numpy(zero_copy_only=False).astype("datetime64[ns]") \
            .astype(np.int64)
        od = batch.column("o_orderdate").cast(pa.timestamp("ns")) \
            .to_numpy(zero_copy_only=False).astype("datetime64[ns]") \
            .astype(np.int64)
        late = ship - od > late_ns
        prio = batch.column("o_orderpriority") \
            .to_numpy(zero_copy_only=False)
        high = np.isin(prio, list(Q12_HIGH))
        df = pd.DataFrame({
            "l_returnflag": batch.column("l_returnflag")
            .to_numpy(zero_copy_only=False),
            "high_line_count": (late & high).astype(np.int64),
            "low_line_count": (late & ~high).astype(np.int64),
        })
        return _sum(df)

    return sharded_aggregate(j, _partial, _sum, counts, key="l_returnflag")


register(
    "late_shipment_priority",
    late_shipment_priority,
    f"""
    SELECT l.l_returnflag AS l_returnflag,
           CAST(sum(CASE WHEN o.o_orderpriority IN
                              ('{Q12_HIGH[0]}', '{Q12_HIGH[1]}')
                          AND l.l_shipdate > o.o_orderdate
                              + INTERVAL {Q12_LATE_DAYS} DAY
                         THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
           CAST(sum(CASE WHEN o.o_orderpriority NOT IN
                              ('{Q12_HIGH[0]}', '{Q12_HIGH[1]}')
                          AND l.l_shipdate > o.o_orderdate
                              + INTERVAL {Q12_LATE_DAYS} DAY
                         THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    WHERE l.l_shipdate >= DATE '{Q12_LO}'
      AND l.l_shipdate < DATE '{Q12_HI}'
    GROUP BY l.l_returnflag
    """,
)


# ---------------------------------------------------------------------------
# Q20 (adapted) — dominant-share suppliers (nested correlated aggregate)
# ---------------------------------------------------------------------------


def excess_supply_suppliers(sf_dir: str):
    """TPC-H Q20 adapted (no ``partsupp``): ``Q20_REGION`` suppliers
    who, for at least one ``Q20_TOKEN``-named part, shipped MORE than
    ``Q20_SHARE`` of that part's total quantity in the window — the
    nested correlated-aggregate IN chain.

    Scale shape: part-name and window predicates prune AT THE READ; a
    per-block (part, supplier) quantity combiner + ONE exchange keyed on
    the part computes pair and per-part totals inside the shard (all
    rows of a part co-locate), the dominant-share filter emits supplier
    keys only, and a final tiny distinct in one task (``key=None``)
    resolves cross-shard repeats.
    Quantities are small integral doubles — sums are exact in IEEE
    double, so the strict ``>`` threshold compares exactly.
    """
    import datetime as _dt

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from .tpch import _key_set

    smap = _region_suppliers(sf_dir, Q20_REGION)
    tok_parts = sorted(_key_set(
        f"{sf_dir}/part.parquet", "p_partkey",
        pc.match_substring(pads.field("p_name"), Q20_TOKEN)))
    lo = _dt.datetime.fromisoformat(Q20_LO)
    hi = _dt.datetime.fromisoformat(Q20_HI)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        filter=(pads.field("l_partkey").isin(tok_parts)
                & (pads.field("l_shipdate") >= lo)
                & (pads.field("l_shipdate") < hi)),
    )

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "pk": batch.column("l_partkey").to_numpy(zero_copy_only=False),
            "sk": batch.column("l_suppkey").to_numpy(zero_copy_only=False),
            "q": batch.column("l_quantity").to_numpy(zero_copy_only=False),
        })
        return _agg(df, ["pk", "sk"], _PAIR_QTY, q=("q", "sum"))

    def _dominant(df: pd.DataFrame) -> dict:
        g = df.groupby(["pk", "sk"], sort=False)["q"].sum().reset_index()
        g["tq"] = g.groupby("pk")["q"].transform("sum")
        return {"sk": np.unique(g["sk"][g["q"] > Q20_SHARE * g["tq"]])}

    def _distinct(df: pd.DataFrame) -> dict:
        # the region filter, then the suppliers' names
        sk = np.unique(df["sk"].to_numpy(np.int64))
        sk = sk[np.isin(sk, list(smap))]
        return {"s_suppkey": sk, "s_name": [smap[k][0] for k in sk]}

    dominant = sharded_aggregate(li, _partial, _dominant, _schema(sk=_I),
                                 key="pk")
    return sharded_aggregate(dominant, lambda t: t, _distinct, _schema(
        s_suppkey=_I, s_name=_S), key=None)


register(
    "excess_supply_suppliers",
    excess_supply_suppliers,
    f"""
    SELECT CAST(s.s_suppkey AS BIGINT) AS s_suppkey,
           s.s_name AS s_name
    FROM supplier s
    JOIN nation n ON n.n_nationkey = s.s_nationkey
    JOIN region r ON r.r_regionkey = n.n_regionkey
    WHERE r.r_name = '{Q20_REGION}'
      AND s.s_suppkey IN (
        SELECT pair.l_suppkey
        FROM (SELECT l_partkey, l_suppkey, sum(l_quantity) AS q
              FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM part
                                  WHERE p_name LIKE '%{Q20_TOKEN}%')
                AND l_shipdate >= DATE '{Q20_LO}'
                AND l_shipdate < DATE '{Q20_HI}'
              GROUP BY l_partkey, l_suppkey) pair
        JOIN (SELECT l_partkey, sum(l_quantity) AS tq
              FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM part
                                  WHERE p_name LIKE '%{Q20_TOKEN}%')
                AND l_shipdate >= DATE '{Q20_LO}'
                AND l_shipdate < DATE '{Q20_HI}'
              GROUP BY l_partkey) tot
          ON tot.l_partkey = pair.l_partkey
        WHERE pair.q > {Q20_SHARE} * tot.tq)
    """,
)


# ---------------------------------------------------------------------------
# Q21 (adapted) — suppliers who kept orders waiting (EXISTS / NOT EXISTS)
# ---------------------------------------------------------------------------


def suppliers_kept_waiting(sf_dir: str):
    """TPC-H Q21 adapted (lateness from ``l_shipdate`` vs
    ``o_orderdate``): per ``Q21_REGION`` supplier, the number of late
    lineitems in finished multi-supplier orders where THIS supplier was
    the ONLY late one — the EXISTS / NOT-EXISTS self-join shape.

    Scale shape: orders prune to status 'F' AT THE READ; ONE
    fact-x-fact shuffle join attaches order dates; a per-block
    (order, supplier) combiner carries late-lineitem counts; ONE
    exchange keyed on the order resolves the per-order logic vectorized
    (transform-size / transform-sum — never a Python loop over orders,
    never one task per order key); a final tiny per-supplier merge in
    one task (``key=None``) sums partial waits.  Pure counts — exact.
    """
    import pyarrow.dataset as pads

    from .joins import parquet_schema, shuffle_join

    smap = _region_suppliers(sf_dir, Q21_REGION)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
        filter=pads.field("o_orderstatus") == "F",
    )
    op = f"{sf_dir}/orders.parquet"
    j = shuffle_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=parquet_schema(
            f"{sf_dir}/lineitem.parquet",
            ["l_orderkey", "l_suppkey", "l_shipdate"]),
        right_schema=parquet_schema(op, ["o_orderkey", "o_orderdate"]),
    )
    late_ns = np.int64(Q21_LATE_DAYS) * 86_400_000_000_000

    def _partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("ns")) \
            .to_numpy(zero_copy_only=False).astype("datetime64[ns]") \
            .astype(np.int64)
        od = batch.column("o_orderdate").cast(pa.timestamp("ns")) \
            .to_numpy(zero_copy_only=False).astype("datetime64[ns]") \
            .astype(np.int64)
        df = pd.DataFrame({
            "ok": batch.column("l_orderkey").to_numpy(zero_copy_only=False),
            "sk": batch.column("l_suppkey").to_numpy(zero_copy_only=False),
            "late": (ship - od > late_ns).astype(np.int64),
        })
        return _agg(df, ["ok", "sk"], _schema(ok=_I, sk=_I, late=_I),
                    late=("late", "sum"))

    def _waits(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["ok", "sk"], sort=False)["late"].sum().reset_index()
        n_supp = g.groupby("ok")["sk"].transform("size")
        g["is_late"] = (g["late"] > 0).astype(np.int64)
        n_late_supp = g.groupby("ok")["is_late"].transform("sum")
        qual = (g["late"] > 0) & (n_supp > 1) & (n_late_supp == 1)
        return g[qual].groupby("sk", sort=False)["late"].sum() \
            .reset_index(name="waits")

    def _merge(df: pd.DataFrame) -> dict:
        # the per-supplier sums, then the region filter
        w = df.groupby("sk", sort=True)["waits"].sum()
        w = w[w.index.isin(list(smap))]
        return {"s_name": [smap[k][0] for k in w.index],
                "numwait": w.to_numpy()}

    waits = sharded_aggregate(j, _partial, _waits,
                              _schema(sk=_I, waits=_I), key="ok")
    return sharded_aggregate(waits, lambda t: t, _merge, _schema(
        s_name=_S, numwait=_I), key=None)


register(
    "suppliers_kept_waiting",
    suppliers_kept_waiting,
    f"""
    SELECT s.s_name AS s_name,
           CAST(count(*) AS BIGINT) AS numwait
    FROM lineitem l1
    JOIN orders o ON o.o_orderkey = l1.l_orderkey
    JOIN supplier s ON s.s_suppkey = l1.l_suppkey
    JOIN nation n ON n.n_nationkey = s.s_nationkey
    JOIN region r ON r.r_regionkey = n.n_regionkey
    WHERE r.r_name = '{Q21_REGION}'
      AND o.o_orderstatus = 'F'
      AND l1.l_shipdate > o.o_orderdate + INTERVAL {Q21_LATE_DAYS} DAY
      AND EXISTS (SELECT 1 FROM lineitem l2
                  WHERE l2.l_orderkey = l1.l_orderkey
                    AND l2.l_suppkey <> l1.l_suppkey)
      AND NOT EXISTS (SELECT 1 FROM lineitem l3
                      WHERE l3.l_orderkey = l1.l_orderkey
                        AND l3.l_suppkey <> l1.l_suppkey
                        AND l3.l_shipdate > o.o_orderdate
                            + INTERVAL {Q21_LATE_DAYS} DAY)
      GROUP BY s.s_name
    """,
)
