"""Eight more TPC-H-shaped relational pipelines (Q6, Q13, Q14, Q15, Q17,
and Q4/Q16/Q19 adapted to the fixture's columns — the tables lack
``l_commitdate`` / ``l_shipmode`` / ``l_container`` / ``partsupp``, so
the adapted variants keep each query's SHAPE (correlated-EXISTS semi
join, promo share, disjunctive predicate pushdown, count-distinct
rollup) over the columns that exist), and Q8, Q9 and Q22.

Every aggregate runs on the one shard exchange
(``_util.sharded_aggregate``): a per-block combiner bounds what moves,
and one exchange keyed on the natural column (an integer key such as
``l_orderkey`` or ``o_year``, a string such as ``o_orderpriority``, a
composite key on its leading column) finishes many keys per task — no
Ray Data ``groupby``.  The test-data reads go through
``_util.read_parquet_file``.

Scale shapes, per query:

* Q6 / Q19 / Q14 are pure combiner aggregates: every predicate is
  vectorized per block (Q19's part attributes and Q14's promo flag
  arrive via a broadcast dimension map, never a shuffle), each block
  reduces to ONE partial row, and one task (``key=None``) sums the
  partials — the exchange moves O(blocks) rows at any corpus size.
* Q4's correlated EXISTS (``l_shipdate > o_orderdate + 60 days``)
  rewrites as ``max(l_shipdate) per order > o_orderdate + 60 days``:
  a per-block (orderkey, max) combiner, one exchange keyed on the
  orderkey, then ONE fact-x-fact shuffle join against the date-pruned
  orders — the join's right side is pre-deduped to one row per orderkey
  so no group can explode.
* Q16 attaches the part dims to every lineitem (a broadcast map), keeps
  each block's distinct (brand, type, size, suppkey) rows, and ONE
  exchange keyed on the brand dedups them and counts the suppliers of
  every (brand, type, size) of that brand.  The part dimension is
  driver-built with the same loud ``MAX_BROADCAST_DIM_ROWS`` guard as
  TPC-H Q5 (`relational._dim_map`).

Float discipline: revenue sums round to 2 (cents; the noise margin rule
of ``revenue_by_nation``), derived ratios round to 6 over the already-
rounded sums so both engines divide identical inputs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._util import (
    collect,
    read_parquet_file,
    round_half_away,
    sharded_aggregate,
)
from .registry import register
from .relational import _F, _I, _S, _agg, _schema

Q6_LO, Q6_HI = "1996-01-01", "1997-01-01"
Q6_DISC_LO, Q6_DISC_HI = 0.02, 0.04
Q6_QTY_LT = 24.0

Q14_LO, Q14_HI = "1996-03-01", "1996-04-01"

Q4_LO, Q4_HI = "1996-07-01", "1996-10-01"
Q4_LATE_DAYS = 60

Q16_EXCL_BRAND = "Brand#13"
Q16_EXCL_TYPE = "PROMO"
# Full-shape Q16 variant: NOT LIKE type prefix, size IN list, and the
# NOT IN supplier-exclusion subquery (reference Q16 excludes suppliers
# with complaints in s_comment; the fixture has no s_comment, so the
# stand-in exclusion predicate is s_acctbal < Q16_EXCL_ACCTBAL —
# non-vacuous at every test scale).
Q16_SIZES = (1, 9, 14, 19, 23, 36, 45, 49)
Q16_EXCL_ACCTBAL = 1000.0

# Q19 disjunction: (brand, qty_lo, qty_hi, size_lo, size_hi)
Q19_ARMS = (
    ("Brand#12", 1.0, 11.0, 1, 5),
    ("Brand#23", 10.0, 20.0, 1, 10),
    ("Brand#34", 20.0, 30.0, 1, 15),
)


def _global_fold(ds, partial, schema: pa.Schema) -> pd.Series:
    """The column sums of ``partial``'s rows over every block of ``ds``
    (``schema``'s columns; a block's partial is one row, so the input is
    tiny), summed in one task (``key=None``); 0 for an input with no
    rows."""
    return collect(sharded_aggregate(
        ds, partial, lambda df: {c: [df[c].sum()] for c in df}, schema,
        key=None)).sum()


_REV_N = _schema(rev=_F, n=_I)


# ---------------------------------------------------------------------------
# Q6 — forecast revenue change (filter + global combiner aggregate)
# ---------------------------------------------------------------------------

def forecast_revenue_change(li_ds) -> pd.DataFrame:
    """TPC-H Q6: potential revenue increase from eliminating small
    discounts on low-quantity lineitems shipped in one year."""

    def _partial(batch: pa.Table) -> pa.Table:
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        price = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)
        keep = (disc >= Q6_DISC_LO) & (disc <= Q6_DISC_HI) & (qty < Q6_QTY_LT)
        return pa.table({
            "rev": pa.array([float((price[keep] * disc[keep]).sum())],
                            pa.float64()),
            "n": pa.array([int(keep.sum())], pa.int64()),
        })

    f = _global_fold(li_ds, _partial, _REV_N)
    return pd.DataFrame({
        "revenue": [round_half_away(np.float64(f["rev"]), 2)],
        "n_items": pd.array([int(f["n"])], dtype="int64"),
    })


def _q_forecast_revenue(sf_dir: str) -> pd.DataFrame:
    import datetime as dt

    import pyarrow.dataset as pads

    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=(pads.field("l_shipdate")
                >= dt.datetime.fromisoformat(Q6_LO))
        & (pads.field("l_shipdate") < dt.datetime.fromisoformat(Q6_HI)),
    )
    return forecast_revenue_change(li)


register(
    "forecast_revenue_change",
    _q_forecast_revenue,
    f"""
    SELECT round(sum(l_extendedprice * l_discount), 2) AS revenue,
           CAST(count(*) AS BIGINT) AS n_items
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{Q6_LO} 00:00:00'
      AND l_shipdate <  TIMESTAMP '{Q6_HI} 00:00:00'
      AND l_discount BETWEEN {Q6_DISC_LO} AND {Q6_DISC_HI}
      AND l_quantity < {Q6_QTY_LT}
    """,
)


# ---------------------------------------------------------------------------
# Q14 — promotion revenue share (broadcast dim + combiner aggregate)
# ---------------------------------------------------------------------------

def promo_revenue_effect(li_ds, promo_parts: frozenset) -> pd.DataFrame:
    """TPC-H Q14: share of one month's discounted revenue from promo
    parts.  ``promo_parts`` is broadcast once (``ray.put``); each block
    reduces to one (promo_rev, total_rev) partial."""
    import ray

    promo_ref = ray.put(promo_parts)

    def _partial(batch: pa.Table) -> pa.Table:
        promo = ray.get(promo_ref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        price = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        rev = price * (1.0 - disc)
        is_promo = pd.Series(pk).isin(promo).to_numpy()
        return pa.table({
            "promo_rev": pa.array([float(rev[is_promo].sum())],
                                  pa.float64()),
            "total_rev": pa.array([float(rev.sum())], pa.float64()),
        })

    f = _global_fold(li_ds, _partial,
                     _schema(promo_rev=_F, total_rev=_F))
    promo2 = round_half_away(np.float64(f["promo_rev"]), 2)
    total2 = round_half_away(np.float64(f["total_rev"]), 2)
    return pd.DataFrame({
        "promo_revenue_pct": [round_half_away(100.0 * promo2 / total2, 6)],
        "promo_rev": [promo2],
        "total_rev": [total2],
    })


def _q_promo_revenue(sf_dir: str) -> pd.DataFrame:
    import datetime as dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from .relational import MAX_BROADCAST_DIM_ROWS

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    if part.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"part has {part.num_rows} rows (> {MAX_BROADCAST_DIM_ROWS}); "
            "broadcast promo map no longer applies — shuffle_join the "
            "part dimension instead")
    promo = frozenset(
        part.filter(pc.equal(part.column("p_type"),
                             pa.scalar(Q16_EXCL_TYPE)))
        .column("p_partkey").to_pylist())
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=(pads.field("l_shipdate")
                >= dt.datetime.fromisoformat(Q14_LO))
        & (pads.field("l_shipdate") < dt.datetime.fromisoformat(Q14_HI)),
    )
    return promo_revenue_effect(li, promo)


register(
    "promo_revenue_effect",
    _q_promo_revenue,
    f"""
    WITH agg AS (
        SELECT
            round(sum(CASE WHEN p.p_type = '{Q16_EXCL_TYPE}'
                           THEN l.l_extendedprice * (1 - l.l_discount)
                           ELSE 0 END), 2) AS promo_rev,
            round(sum(l.l_extendedprice * (1 - l.l_discount)), 2)
                AS total_rev
        FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        WHERE l.l_shipdate >= TIMESTAMP '{Q14_LO} 00:00:00'
          AND l.l_shipdate <  TIMESTAMP '{Q14_HI} 00:00:00'
    )
    SELECT round(100.0 * promo_rev / total_rev, 6) AS promo_revenue_pct,
           promo_rev, total_rev
    FROM agg
    """,
)


# ---------------------------------------------------------------------------
# Q4 (adapted) — order priority checking via max-shipdate semi join
# ---------------------------------------------------------------------------

def order_priority_checking(orders_ds, li_maxship_ds) -> pd.DataFrame:
    """Orders per priority, placed in one quarter, where at least one
    lineitem shipped more than ``Q4_LATE_DAYS`` after the order date.

    ``EXISTS(l_shipdate > o_orderdate + D)`` == ``max(l_shipdate) >
    o_orderdate + D``, so the right side arrives pre-reduced to one row
    per orderkey (see :func:`lineitem_max_shipdate`) and the shuffle
    join cannot explode any group; each joined block counts its late
    orders per priority, and one exchange keyed on the priority sums
    them.
    """
    from .joins import shuffle_join

    orders_schema = pa.schema([
        ("o_orderkey", pa.int64()),
        ("o_orderdate", pa.timestamp("us")),  # the fixture's read type
        ("o_orderpriority", pa.string()),
    ])
    joined = shuffle_join(orders_ds, li_maxship_ds,
                          on="o_orderkey", right_on="l_orderkey",
                          left_schema=orders_schema,
                          right_schema=_MAX_SHIP)
    late_ns = np.int64(Q4_LATE_DAYS) * 86_400_000_000_000

    def _late_counts(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").cast(pa.timestamp("ns")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        ms = batch.column("max_ship").cast(pa.timestamp("ns")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        pri = batch.column("o_orderpriority").to_pandas()[ms > od + late_ns]
        g = pri.value_counts().sort_index()
        return pa.table({
            "o_orderpriority": pa.array(g.index, pa.string()),
            "n": pa.array(g.to_numpy(np.int64), pa.int64()),
        })

    def _total(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_orderpriority", sort=False)["n"].sum() \
            .reset_index(name="order_count")

    return collect(sharded_aggregate(
        joined, _late_counts, _total,
        _schema(o_orderpriority=_S, order_count=_I), key="o_orderpriority",
    )).sort_values("o_orderpriority", ignore_index=True)


_MAX_SHIP = _schema(l_orderkey=_I, max_ship=pa.timestamp("ns"))


def lineitem_max_shipdate(li_ds):
    """Per-orderkey max shipdate: per-block Arrow group-max combiner
    (bounds every block to its distinct orderkeys), then one exchange
    keyed on the orderkey takes the max of the partial maxima."""

    def _local(batch: pa.Table) -> pa.Table:
        g = batch.group_by("l_orderkey").aggregate([("l_shipdate", "max")])
        return pa.table({
            "l_orderkey": g.column("l_orderkey"),
            "max_ship": g.column("l_shipdate_max").cast(pa.timestamp("ns")),
        })

    def _max(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("l_orderkey", sort=False)["max_ship"].max() \
            .reset_index()

    return sharded_aggregate(li_ds, _local, _max, _MAX_SHIP,
                             key="l_orderkey")


def _q_order_priority(sf_dir: str) -> pd.DataFrame:
    import datetime as dt

    import pyarrow.dataset as pads

    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(pads.field("o_orderdate")
                >= dt.datetime.fromisoformat(Q4_LO))
        & (pads.field("o_orderdate") < dt.datetime.fromisoformat(Q4_HI)),
    )
    li = read_parquet_file(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_shipdate"])
    return order_priority_checking(orders, lineitem_max_shipdate(li))


register(
    "order_priority_checking",
    _q_order_priority,
    f"""
    SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
    FROM orders o
    WHERE o_orderdate >= TIMESTAMP '{Q4_LO} 00:00:00'
      AND o_orderdate <  TIMESTAMP '{Q4_HI} 00:00:00'
      AND EXISTS (
          SELECT 1 FROM lineitem l
          WHERE l.l_orderkey = o.o_orderkey
            AND l.l_shipdate > o.o_orderdate
                + INTERVAL {Q4_LATE_DAYS} DAY)
    GROUP BY o_orderpriority
    ORDER BY o_orderpriority
    """,
)


# ---------------------------------------------------------------------------
# Q16 (adapted) — supplier counts per (brand, type, size)
# ---------------------------------------------------------------------------

def _sharded_distinct(ds, schema: pa.Schema, key: str):
    """The distinct rows of ``ds`` over ``schema``'s columns: each block
    keeps its own distinct rows (an Arrow group-by), and ONE exchange
    keyed on ``key`` (``sharded_aggregate``) brings every copy of a row
    into one task, which drops the rest — many keys per task, never one
    Ray group per distinct key."""
    cols = schema.names

    def _local(batch: pa.Table) -> pa.Table:
        return batch.select(cols).group_by(cols).aggregate([]).select(cols)

    return sharded_aggregate(ds, _local, lambda df: df.drop_duplicates(),
                             schema, key=key)


_QUADS = _schema(p_brand=_S, p_type=_S, p_size=_I, l_suppkey=_I)


def part_supplier_counts(li_ds, part_dims: dict) -> pd.DataFrame:
    """Distinct suppliers that shipped each (brand, type, size), via
    lineitem as the part-supplier relation: each block attaches the part
    dims (broadcast once) and keeps its distinct (brand, type, size,
    supplier) rows, and one exchange keyed on the brand dedups them and
    counts each (brand, type, size)'s suppliers."""
    import ray

    # split the dims into three column maps ONCE, broadcast one ref
    keys = list(part_dims)
    maps = {
        "p_brand": pd.Series([part_dims[k][0] for k in keys], index=keys),
        "p_type": pd.Series([part_dims[k][1] for k in keys], index=keys),
        "p_size": pd.Series([part_dims[k][2] for k in keys], index=keys,
                            dtype="int64"),
    }
    dims_ref = ray.put(maps)

    def _quads(batch: pa.Table) -> pa.Table:
        dims = ray.get(dims_ref)
        pk = pd.Series(batch.column("l_partkey").to_numpy(
            zero_copy_only=False))
        brand = pk.map(dims["p_brand"])
        keep = brand.notna().to_numpy()
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            "p_brand": pa.array(brand[keep], pa.string()),
            "p_type": pa.array(pk.map(dims["p_type"])[keep], pa.string()),
            "p_size": pa.array(
                pk.map(dims["p_size"])[keep].to_numpy(np.int64), pa.int64()),
            "l_suppkey": pa.array(sk, pa.int64()),
        }).group_by(_QUADS.names).aggregate([]).select(_QUADS.names)

    def _count(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates().groupby(
            ["p_brand", "p_type", "p_size"], sort=False, dropna=False) \
            .size().reset_index(name="supplier_cnt")

    out = collect(sharded_aggregate(li_ds, _quads, _count, _schema(
        p_brand=_S, p_type=_S, p_size=_I, supplier_cnt=_I), key="p_brand"))
    return out.sort_values(
        ["supplier_cnt", "p_brand", "p_type", "p_size"],
        ascending=[False, True, True, True]).reset_index(drop=True)


def _q_part_supplier(sf_dir: str):
    import pyarrow.parquet as pq

    from .relational import MAX_BROADCAST_DIM_ROWS

    part = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"])
    if part.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"part has {part.num_rows} rows (> {MAX_BROADCAST_DIM_ROWS}); "
            "broadcast part dims no longer apply — shuffle_join instead")
    mask = pc.and_(
        pc.not_equal(part.column("p_brand"), pa.scalar(Q16_EXCL_BRAND)),
        pc.not_equal(part.column("p_type"), pa.scalar(Q16_EXCL_TYPE)))
    part = part.filter(mask)
    dims = {
        k: (b, t, int(s)) for k, b, t, s in zip(
            part.column("p_partkey").to_pylist(),
            part.column("p_brand").to_pylist(),
            part.column("p_type").to_pylist(),
            part.column("p_size").to_pylist())
    }
    li = read_parquet_file(f"{sf_dir}/lineitem.parquet",
                           columns=["l_partkey", "l_suppkey"])
    return part_supplier_counts(li, dims)


register(
    "part_supplier_counts",
    _q_part_supplier,
    f"""
    SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
           CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
    FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
    WHERE p.p_brand <> '{Q16_EXCL_BRAND}'
      AND p.p_type <> '{Q16_EXCL_TYPE}'
    GROUP BY p.p_brand, p.p_type, p.p_size
    ORDER BY supplier_cnt DESC, p.p_brand, p.p_type, p.p_size
    """,
)


# ---------------------------------------------------------------------------
# Q16 (full shape) — adds the NOT IN supplier-exclusion subquery, the
# NOT LIKE type prefix, and the size IN list from the original query
# (ref: TPC-H spec Q16; the engine-mandated relational family — no
# reference-repo anchor).
# ---------------------------------------------------------------------------


def _q_part_supplier_excl(sf_dir: str):
    """Q16 with every original predicate shape: ``p_brand <>``,
    ``p_type NOT LIKE 'PREFIX%'``, ``p_size IN (...)`` and
    ``l_suppkey NOT IN (subquery)``.  The exclusion subquery is a
    broadcast anti-set (supplier is a dimension; loud-guarded), applied
    as a vectorized ``is_in``-invert inside ``map_batches`` BEFORE the
    distinct — the NOT IN never shuffles."""
    import pyarrow.parquet as pq

    from .relational import MAX_BROADCAST_DIM_ROWS

    part = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"])
    if part.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"part has {part.num_rows} rows (> {MAX_BROADCAST_DIM_ROWS}); "
            "broadcast part dims no longer apply — shuffle_join instead")
    type_prefix = pd.Series(part.column("p_type").to_pylist())
    mask = pc.and_(
        pc.and_(
            pc.not_equal(part.column("p_brand"),
                         pa.scalar(Q16_EXCL_BRAND)),
            pa.array(~type_prefix.str.startswith(Q16_EXCL_TYPE))),
        pc.is_in(part.column("p_size").cast(pa.int64()),
                 value_set=pa.array(list(Q16_SIZES), pa.int64())))
    part = part.filter(mask)
    dims = {
        k: (b, t, int(s)) for k, b, t, s in zip(
            part.column("p_partkey").to_pylist(),
            part.column("p_brand").to_pylist(),
            part.column("p_type").to_pylist(),
            part.column("p_size").to_pylist())
    }

    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_acctbal"])
    if supp.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"supplier has {supp.num_rows} rows "
            f"(> {MAX_BROADCAST_DIM_ROWS}); broadcast NOT IN set no "
            "longer applies — use an anti shuffle join instead")
    excluded = supp.filter(
        pc.less(supp.column("s_acctbal"), pa.scalar(Q16_EXCL_ACCTBAL)))
    excl_arr = excluded.column("s_suppkey").cast(pa.int64()).combine_chunks()

    def _anti(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.is_in(
            batch.column("l_suppkey").cast(pa.int64()),
            value_set=excl_arr))
        return batch.filter(keep)

    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey"],
    ).map_batches(_anti, batch_format="pyarrow", zero_copy_batch=True)
    return part_supplier_counts(li, dims)


register(
    "part_supplier_counts_excl",
    _q_part_supplier_excl,
    f"""
    SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
           CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
    FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
    WHERE p.p_brand <> '{Q16_EXCL_BRAND}'
      AND p.p_type NOT LIKE '{Q16_EXCL_TYPE}%'
      AND p.p_size IN ({', '.join(str(s) for s in Q16_SIZES)})
      AND l.l_suppkey NOT IN (
          SELECT s_suppkey FROM supplier
          WHERE s_acctbal < {Q16_EXCL_ACCTBAL})
    GROUP BY p.p_brand, p.p_type, p.p_size
    ORDER BY supplier_cnt DESC, p.p_brand, p.p_type, p.p_size
    """,
)


# ---------------------------------------------------------------------------
# Q19 (adapted) — disjunctive brand/quantity/size revenue
# ---------------------------------------------------------------------------

def brand_quantity_revenue(li_ds, part_dims: dict) -> pd.DataFrame:
    """Revenue over a 3-arm disjunction of (brand, quantity range, size
    range) predicates; part attributes broadcast, predicate vectorized,
    one partial row per block."""
    import ray

    keys = list(part_dims)
    maps = {
        "brand": pd.Series([part_dims[k][0] for k in keys], index=keys),
        "size": pd.Series([float(part_dims[k][1]) for k in keys],
                          index=keys),
    }
    dims_ref = ray.put(maps)

    def _partial(batch: pa.Table) -> pa.Table:
        dims = ray.get(dims_ref)
        pk = pd.Series(batch.column("l_partkey").to_numpy(
            zero_copy_only=False))
        brand = pk.map(dims["brand"]).to_numpy()
        size = pk.map(dims["size"]).to_numpy(dtype=float, na_value=np.nan)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        price = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        keep = np.zeros(len(pk), dtype=bool)
        for b, qlo, qhi, slo, shi in Q19_ARMS:
            keep |= ((brand == b) & (qty >= qlo) & (qty <= qhi)
                     & (size >= slo) & (size <= shi))
        rev = price[keep] * (1.0 - disc[keep])
        return pa.table({
            "rev": pa.array([float(rev.sum())], pa.float64()),
            "n": pa.array([int(keep.sum())], pa.int64()),
        })

    f = _global_fold(li_ds, _partial, _REV_N)
    return pd.DataFrame({
        "revenue": [round_half_away(np.float64(f["rev"]), 2)],
        "n_items": pd.array([int(f["n"])], dtype="int64"),
    })


def _q_brand_quantity(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq

    from .relational import MAX_BROADCAST_DIM_ROWS

    brands = {b for b, *_ in Q19_ARMS}
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_size"])
    part = part.filter(pc.is_in(part.column("p_brand"),
                                value_set=pa.array(sorted(brands))))
    if part.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"part has {part.num_rows} rows after brand pruning "
            f"(> {MAX_BROADCAST_DIM_ROWS}); shuffle_join instead")
    dims = {
        k: (b, int(s)) for k, b, s in zip(
            part.column("p_partkey").to_pylist(),
            part.column("p_brand").to_pylist(),
            part.column("p_size").to_pylist())
    }
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"])
    return brand_quantity_revenue(li, dims)


def _q19_arm_sql(arm) -> str:
    b, qlo, qhi, slo, shi = arm
    return (f"(p.p_brand = '{b}' AND l.l_quantity BETWEEN {qlo} AND {qhi}"
            f" AND p.p_size BETWEEN {slo} AND {shi})")


register(
    "brand_quantity_revenue",
    _q_brand_quantity,
    f"""
    SELECT round(coalesce(
               sum(l.l_extendedprice * (1 - l.l_discount)), 0), 2)
               AS revenue,
           CAST(count(*) AS BIGINT) AS n_items
    FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
    WHERE {' OR '.join(_q19_arm_sql(a) for a in Q19_ARMS)}
    """,
)


# ---------------------------------------------------------------------------
# Q13 — customer order-count distribution (LEFT-join histogram)
# ---------------------------------------------------------------------------

def customer_order_distribution(orders_ds, n_customers: int):
    """TPC-H Q13: histogram of per-customer order counts, INCLUDING the
    zero bucket.  Shape: per-block custkey-count combiner -> ONE
    exchange keyed on the custkey, whose tasks count their customers'
    orders and histogram them -> the driver sums the shard histograms
    (at most shards x distinct counts rows); the zero bucket is
    ``n_customers - customers_with_orders`` (two scalars), never an
    anti-join over the fact table."""

    def _partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("o_custkey").aggregate([("o_custkey", "count")])
        return pa.table({
            "o_custkey": g.column("o_custkey"),
            "n": g.column("o_custkey_count").cast(pa.int64()),
        })

    def _hist(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", sort=False)["n"].sum() \
            .value_counts().rename_axis("c_count") \
            .reset_index(name="custdist")

    out = collect(sharded_aggregate(
        orders_ds, _partial, _hist, _schema(c_count=_I, custdist=_I),
        key="o_custkey",
    )).groupby("c_count", as_index=False)["custdist"].sum()
    zero = n_customers - int(out["custdist"].sum())
    if zero < 0:
        # More distinct o_custkey values than customer rows: orders holds
        # custkeys absent from customer, so the scalar zero-bucket
        # derivation (and the nonzero buckets, which count orphans as
        # customers) is invalid for this input.  Run the
        # `referential_integrity` query to locate the orphans, or
        # semi-join orders against customer before this histogram.
        raise ValueError(
            f"customer_order_distribution: {-zero} more distinct "
            f"o_custkey values than customer rows ({n_customers}) — "
            "orders references custkeys absent from customer; see the "
            "referential_integrity query"
        )
    if zero > 0:
        out = pd.concat([out, pd.DataFrame(
            {"c_count": pd.array([0], dtype="int64"),
             "custdist": pd.array([zero], dtype="int64")})],
            ignore_index=True)
    return out.sort_values(["custdist", "c_count"],
                           ascending=[False, False],
                           ignore_index=True)


def _q_order_distribution(sf_dir: str):
    import pyarrow.parquet as pq

    n_customers = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    orders = read_parquet_file(f"{sf_dir}/orders.parquet",
                               columns=["o_custkey"])
    return customer_order_distribution(orders, n_customers)


register(
    "customer_order_distribution",
    _q_order_distribution,
    """
    SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
    FROM (
        SELECT c.c_custkey, CAST(count(o.o_orderkey) AS BIGINT) AS c_count
        FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
        GROUP BY c.c_custkey
    )
    GROUP BY c_count
    ORDER BY custdist DESC, c_count DESC
    """,
)


# ---------------------------------------------------------------------------
# Q15 — top supplier(s) by windowed revenue
# ---------------------------------------------------------------------------

Q15_LO, Q15_HI = "1996-01-01", "1996-04-01"
_SUPP_REV = _schema(l_suppkey=_I, rev=_F)


def top_supplier_revenue(li_ds, supp_names: dict):
    """TPC-H Q15: the supplier(s) achieving the maximum revenue over one
    quarter.  Revenue per supplier is ROUND-2 on both engines BEFORE the
    max comparison so float ties cannot diverge; one exchange keyed on
    the supplier sums each supplier's per-block revenue, and the names
    attach from the driver-side supplier map."""

    def _partial(batch: pa.Table) -> pa.Table:
        rev = (batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)
            * (1.0 - batch.column("l_discount").to_numpy(
                zero_copy_only=False)))
        df = pd.DataFrame({
            "l_suppkey": batch.column("l_suppkey").to_numpy(
                zero_copy_only=False),
            "rev": rev,
        })
        return _agg(df, "l_suppkey", _SUPP_REV, rev=("rev", "sum"))

    merged = collect(sharded_aggregate(
        li_ds, _partial,
        lambda df: df.groupby("l_suppkey", sort=False)["rev"].sum()
        .reset_index(), _SUPP_REV, key="l_suppkey"))
    rev2 = round_half_away(merged["rev"].to_numpy(), 2)
    best = rev2.max()
    keep = merged[rev2 == best]
    out = pd.DataFrame({
        "s_suppkey": keep["l_suppkey"].astype("int64"),
        "s_name": keep["l_suppkey"].map(supp_names),
        "total_revenue": rev2[rev2 == best],
    })
    return out.sort_values("s_suppkey", ignore_index=True)


def _q_top_supplier(sf_dir: str):
    import datetime as dt

    import pyarrow.dataset as pads

    supp_names = _q_top_supplier_names(sf_dir)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=(pads.field("l_shipdate")
                >= dt.datetime.fromisoformat(Q15_LO))
        & (pads.field("l_shipdate") < dt.datetime.fromisoformat(Q15_HI)),
    )
    return top_supplier_revenue(li, supp_names)


def _q_top_supplier_names(sf_dir: str) -> dict:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/supplier.parquet",
                      columns=["s_suppkey", "s_name"])
    return dict(zip(t.column("s_suppkey").to_pylist(),
                    t.column("s_name").to_pylist()))


register(
    "top_supplier_revenue",
    _q_top_supplier,
    f"""
    WITH rev AS (
        SELECT l_suppkey,
               round(sum(l_extendedprice * (1 - l_discount)), 2)
                   AS total_revenue
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '{Q15_LO} 00:00:00'
          AND l_shipdate <  TIMESTAMP '{Q15_HI} 00:00:00'
        GROUP BY l_suppkey
    )
    SELECT s.s_suppkey, s.s_name, r.total_revenue
    FROM rev r JOIN supplier s ON s.s_suppkey = r.l_suppkey
    WHERE r.total_revenue = (SELECT max(total_revenue) FROM rev)
    ORDER BY s.s_suppkey
    """,
)


# ---------------------------------------------------------------------------
# Q17 — small-quantity-order revenue (correlated avg via broadcast)
# ---------------------------------------------------------------------------

Q17_BRAND = "Brand#23"
Q17_FRACTION = 0.2
_PART_QTY = _schema(l_partkey=_I, s=_F, n=_I)


def small_quantity_revenue(li_pass1, li_pass2_fn,
                           brand_parts: frozenset) -> pd.DataFrame:
    """TPC-H Q17: weekly-equivalent revenue lost to small orders —
    lineitems of one brand's parts whose quantity is below
    ``Q17_FRACTION`` x that part's average quantity.

    The correlated scalar subquery becomes: pass 1 computes each
    brand-part's (sum qty, n) via the usual combiner (bounded by the
    brand's part count) and one exchange keyed on the part, the per-part
    threshold broadcasts as a map, pass 2 filters rows against the
    broadcast threshold and folds one (revenue, n) partial per block.  Avg uses the rounded-moments rule
    (round-6 sum / n) so both engines compare against the identical
    threshold."""
    import ray

    def _p1(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        keep = pd.Series(pk).isin(brand_parts).to_numpy()
        df = pd.DataFrame({
            "l_partkey": pk[keep],
            "q": batch.column("l_quantity").to_numpy(
                zero_copy_only=False)[keep],
        })
        return _agg(df, "l_partkey", _PART_QTY, s=("q", "sum"),
                    n=("q", "size"))

    stats = collect(sharded_aggregate(
        li_pass1, _p1,
        lambda df: df.groupby("l_partkey", sort=False)[["s", "n"]].sum()
        .reset_index(), _PART_QTY, key="l_partkey"))
    thr = pd.Series(
        Q17_FRACTION * (round_half_away(stats["s"].to_numpy(), 6)
                        / stats["n"].to_numpy()),
        index=stats["l_partkey"].to_numpy())
    thr_ref = ray.put(thr)

    def _p2(batch: pa.Table) -> pa.Table:
        t = ray.get(thr_ref)
        pk = pd.Series(batch.column("l_partkey").to_numpy(
            zero_copy_only=False))
        lim = pk.map(t).to_numpy(dtype=float, na_value=np.nan)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        keep = qty < lim  # NaN (non-brand part) compares False
        price = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)[keep]
        return pa.table({
            "rev": pa.array([float(price.sum())], pa.float64()),
            "n": pa.array([int(keep.sum())], pa.int64()),
        })

    f = _global_fold(li_pass2_fn(), _p2, _REV_N)
    rev2 = round_half_away(np.float64(f["rev"]), 2)
    return pd.DataFrame({
        "avg_yearly": [round_half_away(np.float64(rev2 / 7.0), 2)],
        "n_items": pd.array([int(f["n"])], dtype="int64"),
    })


def _q_small_quantity(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    brand_parts = frozenset(
        part.filter(pc.equal(part.column("p_brand"),
                             pa.scalar(Q17_BRAND)))
        .column("p_partkey").to_pylist())

    def _li():
        return read_parquet_file(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_quantity", "l_extendedprice"])

    return small_quantity_revenue(_li(), _li, brand_parts)


register(
    "small_quantity_revenue",
    _q_small_quantity,
    f"""
    WITH stats AS (
        SELECT l.l_partkey,
               {Q17_FRACTION} * (round(sum(l.l_quantity), 6) / count(*))
                   AS lim
        FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
        WHERE p.p_brand = '{Q17_BRAND}'
        GROUP BY l.l_partkey
    ),
    hit AS (
        SELECT round(coalesce(sum(l.l_extendedprice), 0), 2) AS rev,
               CAST(count(*) AS BIGINT) AS n_items
        FROM lineitem l JOIN stats s ON s.l_partkey = l.l_partkey
        WHERE l.l_quantity < s.lim
    )
    SELECT round(rev / 7.0, 2) AS avg_yearly, n_items FROM hit
    """,
)


def _key_set(path: str, key: str, filt) -> set:
    """Driver-side key SET from a row-filtered dimension parquet — the
    one-column sibling of ``relational._dim_map``, same loud broadcast
    guard."""
    import pyarrow.dataset as pads

    from .relational import MAX_BROADCAST_DIM_ROWS

    t = pads.dataset(path).to_table(columns=[key], filter=filt)
    if t.num_rows > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"dimension {path} has {t.num_rows} rows after pruning "
            f"(> {MAX_BROADCAST_DIM_ROWS}); broadcast key set no longer "
            "applies — use joins.shuffle_join for this dimension")
    return set(t.column(key).to_pylist())


# ---------------------------------------------------------------------------
# Q8 — national market share (region-market customers, one supplier nation)
# ---------------------------------------------------------------------------

Q8_REGION = "EUROPE"
Q8_NATION = "NATION_9"
Q8_TYPE = "ECONOMY"
Q8_LO, Q8_HI = "1996-01-01", "1998-01-01"


def national_market_share(sf_dir: str):
    """TPC-H Q8: per order year, the share of ``Q8_NATION``-supplied
    revenue within all revenue for ``Q8_TYPE`` parts sold to customers
    in ``Q8_REGION``, over a two-year order window.

    Scale shape (the Q7 discipline): the part-type, order-date and
    customer-region predicates all prune AT THE READ (partkeys arrive
    as a loud-guarded broadcast set, region membership as an ``isin``
    row filter); the join tree runs narrowest-first — type-pruned
    lineitem ⋈ date-pruned orders ⋈ region-pruned customers (semi) ⋈
    supplier — so only in-market, in-window rows reach each exchange.
    The final aggregate is a per-block (year, target/total) combiner +
    one exchange keyed on the year; the share divides the two
    ALREADY-round-2 sums (round-6), so both engines divide identical
    doubles.
    """
    import datetime as _dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray

    from .joins import parquet_schema, shuffle_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nk = dict(zip(nation.column("n_name").to_pylist(),
                  nation.column("n_nationkey").to_pylist()))
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rk = dict(zip(region.column("r_name").to_pylist(),
                  region.column("r_regionkey").to_pylist()))
    market_nations = [
        k for k, r in zip(nation.column("n_nationkey").to_pylist(),
                          nation.column("n_regionkey").to_pylist())
        if r == rk[Q8_REGION]
    ]
    target_key = nk[Q8_NATION]

    type_parts = _key_set(f"{sf_dir}/part.parquet", "p_partkey",
                          pads.field("p_type") == Q8_TYPE)
    lo = _dt.datetime.fromisoformat(Q8_LO)
    hi = _dt.datetime.fromisoformat(Q8_HI)
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
        filter=pads.field("l_partkey").isin(sorted(type_parts)),
    )

    def _vol(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "l_suppkey": batch.column("l_suppkey"),
            "vol": rev,
        })

    li = li.map_batches(_vol, batch_format="pyarrow", zero_copy_batch=True)
    lp = f"{sf_dir}/lineitem.parquet"
    li_schema = pa.schema([
        ("l_orderkey",
         parquet_schema(lp, ["l_orderkey"]).field("l_orderkey").type),
        ("l_suppkey",
         parquet_schema(lp, ["l_suppkey"]).field("l_suppkey").type),
        ("vol", pa.float64()),
    ])
    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi),
    )
    # The type-pruned lineitem side is selective, so its orderkeys make
    # a fixed-size bloom that prunes the orders exchange BEFORE the one
    # shuffle (FPs fall out in the exact join — value-identical, same
    # composition as lineitem_orders_bloom_join).
    from .sketches import bloom_build, bloom_filter_out

    li_keys = read_parquet_file(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"],
        filter=pads.field("l_partkey").isin(sorted(type_parts)),
    )
    orders = bloom_filter_out(orders, bloom_build(li_keys,
                                                  column="l_orderkey"),
                              column="o_orderkey", keep="member")

    def _year(batch: pa.Table) -> pa.Table:
        year = batch.column("o_orderdate").cast(pa.timestamp("ns")) \
            .to_numpy(zero_copy_only=False).astype("datetime64[Y]") \
            .astype(np.int64) + 1970
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "o_custkey": batch.column("o_custkey"),
            "o_year": pa.array(year, pa.int64()),
        })

    orders = orders.map_batches(_year, batch_format="pyarrow",
                                zero_copy_batch=True)
    op = f"{sf_dir}/orders.parquet"
    orders_schema = pa.schema([
        ("o_orderkey",
         parquet_schema(op, ["o_orderkey"]).field("o_orderkey").type),
        ("o_custkey",
         parquet_schema(op, ["o_custkey"]).field("o_custkey").type),
        ("o_year", pa.int64()),
    ])
    # region membership is an existence test over a REGION-PRUNED
    # customer key set (1/5 of custkeys), and supplier is a true
    # dimension — both broadcast (loud _key_set/_dim_map guards), so the
    # whole tree pays exactly ONE shuffle (lineitem ⋈ orders).  Same
    # rewrite that cut Q5 from three chained exchanges.
    from .enrich import broadcast_join
    from .relational import _dim_map

    cust_keys = _key_set(f"{sf_dir}/customer.parquet", "c_custkey",
                         pads.field("c_nationkey").isin(market_nations))
    supp_map = _dim_map(f"{sf_dir}/supplier.parquet", "s_suppkey",
                        "s_nationkey", None)
    s_nk_type = parquet_schema(f"{sf_dir}/supplier.parquet",
                               ["s_nationkey"]).field("s_nationkey").type

    j1 = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                      left_schema=li_schema, right_schema=orders_schema)

    keys_ref = ray.put(pa.array(sorted(cust_keys)))  # one object-store copy

    def _in_market(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column("o_custkey"),
                                     value_set=ray.get(keys_ref)))

    j2 = j1.map_batches(_in_market, batch_format="pyarrow",
                        zero_copy_batch=True)
    j3 = broadcast_join(j2, supp_map, key="l_suppkey",
                        value_name="s_nationkey", value_type=s_nk_type)

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o_year": batch.column("o_year").to_numpy(zero_copy_only=False),
            "vol": batch.column("vol").to_numpy(zero_copy_only=False),
            "tgt": pc.equal(batch.column("s_nationkey"),
                            pa.scalar(target_key))
            .to_numpy(zero_copy_only=False),
        })
        df["tvol"] = np.where(df["tgt"], df["vol"], 0.0)
        return _agg(df, "o_year", _schema(o_year=_I, t=_F, a=_F),
                    t=("tvol", "sum"), a=("vol", "sum"))

    def _share(df: pd.DataFrame) -> dict:
        g = df.groupby("o_year", sort=False)[["t", "a"]].sum()
        t = round_half_away(g["t"].to_numpy(), 2)
        a = round_half_away(g["a"].to_numpy(), 2)
        return {"o_year": g.index, "mkt_share": round_half_away(t / a, 6)}

    return sharded_aggregate(j3, _partial, _share,
                             _schema(o_year=_I, mkt_share=_F), key="o_year")


register(
    "national_market_share",
    national_market_share,
    f"""
    WITH vols AS (
        SELECT CAST(extract(year FROM o.o_orderdate) AS BIGINT) AS o_year,
               l.l_extendedprice * (1 - l.l_discount) AS vol,
               CASE WHEN n2.n_name = '{Q8_NATION}'
                    THEN l.l_extendedprice * (1 - l.l_discount)
                    ELSE 0 END AS tvol
        FROM lineitem l
        JOIN part p ON p.p_partkey = l.l_partkey
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation n1 ON n1.n_nationkey = c.c_nationkey
        JOIN region r ON r.r_regionkey = n1.n_regionkey
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
        JOIN nation n2 ON n2.n_nationkey = s.s_nationkey
        WHERE r.r_name = '{Q8_REGION}'
          AND p.p_type = '{Q8_TYPE}'
          AND o.o_orderdate >= DATE '{Q8_LO}'
          AND o.o_orderdate <  DATE '{Q8_HI}'
    )
    SELECT o_year,
           round(round(sum(tvol), 2) / round(sum(vol), 2), 6) AS mkt_share
    FROM vols GROUP BY o_year
    """,
)


# ---------------------------------------------------------------------------
# Q9 (adapted) — product-line profit by supplier nation and year
# ---------------------------------------------------------------------------

Q9_NAME_TOKEN = "widget"


def product_type_profit(sf_dir: str):
    """TPC-H Q9 adapted to the fixture (no ``partsupp`` table, so profit
    omits the supply-cost term): revenue of parts whose name contains
    ``Q9_NAME_TOKEN``, grouped by (supplier nation, order year).

    Scale shape: the name predicate prunes parts driver-side into a
    loud-guarded broadcast key set filtering lineitem AT THE READ; the
    tree is lineitem ⋈ orders (year only) ⋈ supplier (nation), then a
    per-block (nation, year) combiner + one exchange keyed on the nation
    — at most |nations| x |years| rows per block move in it."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from .joins import join_output_schema, parquet_schema, shuffle_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    names = dict(zip(nation.column("n_nationkey").to_pylist(),
                     nation.column("n_name").to_pylist()))
    tok_parts = sorted(_key_set(
        f"{sf_dir}/part.parquet", "p_partkey",
        pc.match_substring(pads.field("p_name"), Q9_NAME_TOKEN)))
    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_partkey"],
        filter=pads.field("l_partkey").isin(tok_parts),
    )

    def _vol(batch: pa.Table) -> pa.Table:
        # EXACT integer arithmetic in 1e-4 units: price and discount are
        # 2-decimal values, so price*(1-disc) is a 4-decimal decimal —
        # float sums of it can land on either side of a half-cent
        # boundary depending on add order (observed: 6244553.215), while
        # integer sums round identically on both engines.  Headroom:
        # ~1e9 units/item, int64 overflows past ~9e9 items per group.
        price_c = np.rint(batch.column("l_extendedprice")
                          .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        disc_c = 100 - np.rint(batch.column("l_discount")
                               .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "l_suppkey": batch.column("l_suppkey"),
            "vol": pa.array(price_c * disc_c, pa.int64()),
        })

    li = li.map_batches(_vol, batch_format="pyarrow", zero_copy_batch=True)
    lp = f"{sf_dir}/lineitem.parquet"
    li_schema = pa.schema([
        ("l_orderkey",
         parquet_schema(lp, ["l_orderkey"]).field("l_orderkey").type),
        ("l_suppkey",
         parquet_schema(lp, ["l_suppkey"]).field("l_suppkey").type),
        ("vol", pa.int64()),
    ])

    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"])

    def _year(batch: pa.Table) -> pa.Table:
        year = batch.column("o_orderdate").cast(pa.timestamp("ns")) \
            .to_numpy(zero_copy_only=False).astype("datetime64[Y]") \
            .astype(np.int64) + 1970
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "o_year": pa.array(year, pa.int64()),
        })

    orders = orders.map_batches(_year, batch_format="pyarrow",
                                zero_copy_batch=True)
    op = f"{sf_dir}/orders.parquet"
    orders_schema = pa.schema([
        ("o_orderkey",
         parquet_schema(op, ["o_orderkey"]).field("o_orderkey").type),
        ("o_year", pa.int64()),
    ])
    supp = read_parquet_file(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    supp_schema = parquet_schema(f"{sf_dir}/supplier.parquet",
                                 ["s_suppkey", "s_nationkey"])

    j1 = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                      left_schema=li_schema, right_schema=orders_schema)
    j1_schema = join_output_schema(li_schema, orders_schema,
                                   on="l_orderkey", right_on="o_orderkey")
    j2 = shuffle_join(j1, supp, on="l_suppkey", right_on="s_suppkey",
                      left_schema=j1_schema, right_schema=supp_schema)

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "nk": batch.column("s_nationkey").to_numpy(
                zero_copy_only=False),
            "o_year": batch.column("o_year").to_numpy(
                zero_copy_only=False),
            "vol": batch.column("vol").to_numpy(zero_copy_only=False),
        })
        return _agg(df, ["nk", "o_year"], _schema(nk=_I, o_year=_I, vol=_I),
                    vol=("vol", "sum"))

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["nk", "o_year"], sort=True)["vol"].sum() \
            .reset_index()
        cents = (g["vol"].to_numpy(np.int64) + 50) // 100  # half-up
        return pd.DataFrame({
            "n_name": g["nk"].map(names).to_numpy(dtype=object),
            "o_year": g["o_year"].astype("int64"),
            "profit": cents.astype(np.float64) / 100.0,
        })

    return sharded_aggregate(j2, _partial, _merge, _schema(
        n_name=_S, o_year=_I, profit=_F), key="nk")


register(
    "product_type_profit",
    product_type_profit,
    f"""
    SELECT n.n_name AS n_name,
           CAST(extract(year FROM o.o_orderdate) AS BIGINT) AS o_year,
           CAST((sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                 + 50) // 100 AS DOUBLE) / 100.0 AS profit
    FROM lineitem l
    JOIN part p ON p.p_partkey = l.l_partkey
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
    JOIN nation n ON n.n_nationkey = s.s_nationkey
    WHERE p.p_name LIKE '%{Q9_NAME_TOKEN}%'
    GROUP BY n.n_name, o_year
    """,
)


# ---------------------------------------------------------------------------
# Q22 (adapted) — global sales opportunity (no c_phone: nation = country)
# ---------------------------------------------------------------------------

Q22_NATIONS = (3, 9, 13, 17, 21)
Q22_MAX_ORDERS = 7


def sales_opportunity(sf_dir: str):
    """TPC-H Q22 adapted to the fixture (no ``c_phone`` — the country
    code is ``c_nationkey`` — and every fixture customer has orders, so
    the original's NOT-EXISTS becomes "at most ``Q22_MAX_ORDERS``
    orders"): under-engaged customers of ``Q22_NATIONS`` whose account
    balance exceeds the positive-balance average of that nation set,
    counted per nation with their total balance.

    Scale shape: pass 1 is a per-block (sum, count) combiner over the
    nation-pruned positive balances (one scalar pair to the driver);
    the order-count side is a per-block custkey combiner + one exchange
    keyed on the custkey that keeps the low-engagement keys (keys only —
    no payload ever shuffles); pass 2 re-reads customers with the
    threshold AS a read filter and semi-joins those keys; the final
    per-nation aggregate is a block combiner + one exchange keyed on the
    nation."""
    import pyarrow.dataset as pads

    from .joins import parquet_schema, shuffle_join

    nations = sorted(Q22_NATIONS)
    cust0 = read_parquet_file(
        f"{sf_dir}/customer.parquet", columns=["c_acctbal", "c_nationkey"],
        filter=(pads.field("c_nationkey").isin(nations)
                & (pads.field("c_acctbal") > 0.0)),
    )

    def _sumcount(batch: pa.Table) -> pa.Table:
        v = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array([float(v.sum())], pa.float64()),
                         "n": pa.array([len(v)], pa.int64())})

    parts = cust0.map_batches(_sumcount, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
    total = sum(p["s"] for p in parts)
    count = sum(p["n"] for p in parts)
    # both engines compare against the same round-6 threshold, so block
    # summation-order noise cannot flip a membership decision; with no
    # positive balance no customer qualifies
    avg_bal = float(round_half_away(
        np.float64(round_half_away(np.float64(total), 2) / count), 6)) \
        if count else np.inf

    orders = read_parquet_file(f"{sf_dir}/orders.parquet",
                               columns=["o_custkey"])
    cust_schema = parquet_schema(
        f"{sf_dir}/customer.parquet",
        ["c_custkey", "c_nationkey", "c_acctbal"])
    keys = pa.schema([("ck", cust_schema.field("c_custkey").type)])

    def _count_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("o_custkey").aggregate([("o_custkey", "count")])
        return pa.table({
            "ck": g.column("o_custkey"),
            "n": g.column("o_custkey_count").cast(pa.int64()),
        })

    def _low_keys(df: pd.DataFrame) -> dict:
        g = df.groupby("ck", sort=False)["n"].sum()
        return {"ck": g.index[(g <= Q22_MAX_ORDERS).to_numpy()]}

    low = sharded_aggregate(orders, _count_partial, _low_keys, keys,
                            key="ck")
    cust = read_parquet_file(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
        filter=(pads.field("c_nationkey").isin(nations)
                & (pads.field("c_acctbal") > avg_bal)),
    )
    picked = shuffle_join(cust, low, on="c_custkey", right_on="ck",
                          how="semi", left_schema=cust_schema,
                          right_schema=keys)

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "cntrycode": batch.column("c_nationkey").to_numpy(
                zero_copy_only=False),
            "bal": batch.column("c_acctbal").to_numpy(
                zero_copy_only=False),
        })
        return _agg(df, "cntrycode", _schema(cntrycode=_I, n=_I, s=_F),
                    n=("bal", "size"), s=("bal", "sum"))

    def _merge(df: pd.DataFrame) -> dict:
        g = df.groupby("cntrycode", sort=False)[["n", "s"]].sum()
        return {"cntrycode": g.index, "numcust": g["n"],
                "totacctbal": round_half_away(g["s"].to_numpy(), 2)}

    return sharded_aggregate(picked, _partial, _merge, _schema(
        cntrycode=_I, numcust=_I, totacctbal=_F), key="cntrycode")


register(
    "sales_opportunity",
    sales_opportunity,
    f"""
    WITH pos AS (
        SELECT c_acctbal FROM customer
        WHERE c_nationkey IN {tuple(sorted(Q22_NATIONS))}
          AND c_acctbal > 0.0
    ),
    thr AS (
        SELECT round(round(sum(c_acctbal), 2) / count(*), 6) AS avg_bal
        FROM pos
    )
    SELECT CAST(c.c_nationkey AS BIGINT) AS cntrycode,
           CAST(count(*) AS BIGINT) AS numcust,
           round(sum(c.c_acctbal), 2) AS totacctbal
    FROM customer c, thr
    WHERE c.c_nationkey IN {tuple(sorted(Q22_NATIONS))}
      AND c.c_acctbal > thr.avg_bal
      AND (SELECT count(*) FROM orders o
           WHERE o.o_custkey = c.c_custkey) <= {Q22_MAX_ORDERS}
    GROUP BY c.c_nationkey
    """,
)
