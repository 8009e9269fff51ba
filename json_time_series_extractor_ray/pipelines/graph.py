"""Graph analytics over relationship graphs aggregated from fact tables.

``trade_pagerank``: PageRank over the nation-to-nation trade graph
(customer nation -> supplier nation, weighted by lineitem count).  The
pattern this demonstrates — distinct from the sharded connected
components in ``dedup`` — is the ITERATIVE solve over an AGGREGATED
graph:

* the expensive part is building the edge list from the fact tables —
  one lineitem ⋈ orders shuffle plus two broadcast dimension lookups and
  a per-block (src, dst) count combiner, then one shard exchange
  (``_util.sharded_aggregate``) that carries O(blocks x k²) partial
  rows, never lineitems;
* the aggregated graph is tiny (k = |nations|), so the fixed-iteration
  power method runs driver-side on the collected k x k matrix — the
  same "sketch partials -> driver merge" discipline as ``kmeans_fit`` /
  ``sketches``.  For graphs whose NODE set scales with the corpus, this
  driver solve does not apply; use the per-shard forest contraction in
  ``dedup.near_dup_clusters_distributed`` as the scale pattern instead
  (documented non-goal here).

Hash parity: ranks are rounded to 6 decimals after EVERY iteration on
both engines (the repo's rounded-moments rule), so each iteration's
inputs are identical doubles and cross-engine summation-order noise
(~1e-16 over <=k in-edge terms) cannot accumulate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._util import (
    collect,
    read_parquet_file,
    round_half_away,
    sharded_aggregate,
)
from .registry import register

PR_DAMPING = 0.85
PR_ITERS = 10


def nation_trade_edges(sf_dir: str):
    """(src_nation, dst_nation, weight) — customer nation -> supplier
    nation, weight = number of lineitems shipped along that pair.

    Scale shape: one orderkey shuffle join; both nation lookups are
    broadcast dimensions; each joined block counts its (src, dst) pairs
    and one exchange keyed on ``src_nation`` sums them."""
    from .enrich import broadcast_join
    from .joins import parquet_schema, shuffle_join
    from .relational import _dim_map

    cust_map = _dim_map(f"{sf_dir}/customer.parquet", "c_custkey",
                        "c_nationkey", None)
    supp_map = _dim_map(f"{sf_dir}/supplier.parquet", "s_suppkey",
                        "s_nationkey", None)

    li = read_parquet_file(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"])
    orders = read_parquet_file(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    li_schema = parquet_schema(
        f"{sf_dir}/lineitem.parquet", ["l_orderkey", "l_suppkey"])
    orders_schema = parquet_schema(
        f"{sf_dir}/orders.parquet", ["o_orderkey", "o_custkey"])
    j = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                     left_schema=li_schema, right_schema=orders_schema)
    j = broadcast_join(j, cust_map, key="o_custkey",
                       value_name="src_nation", value_type=pa.int64())
    j = broadcast_join(j, supp_map, key="l_suppkey",
                       value_name="dst_nation", value_type=pa.int64())

    def _count_partial(batch: pa.Table) -> pa.Table:
        return batch.select(["src_nation", "dst_nation"]) \
            .group_by(["src_nation", "dst_nation"]) \
            .aggregate([("dst_nation", "count")]) \
            .rename_columns(["src_nation", "dst_nation", "w"])

    def _count_merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["src_nation", "dst_nation"], sort=False)["w"] \
            .sum().reset_index(name="weight")

    return sharded_aggregate(j, _count_partial, _count_merge, pa.schema([
        ("src_nation", pa.int64()), ("dst_nation", pa.int64()),
        ("weight", pa.int64())]), key="src_nation")


def pagerank_from_edges(edges_df: pd.DataFrame) -> pd.DataFrame:
    """Fixed-iteration weighted PageRank on a collected edge list
    (columns src_nation / dst_nation / weight).  Deterministic: node
    order sorted, ranks rounded per iteration.  Every node is assumed to
    have out-weight > 0 (true for the trade graph; asserted)."""
    nodes = np.unique(np.r_[edges_df["src_nation"].to_numpy(np.int64),
                            edges_df["dst_nation"].to_numpy(np.int64)])
    idx = {int(n): i for i, n in enumerate(nodes)}
    k = len(nodes)
    W = np.zeros((k, k))
    for s, d, w in zip(edges_df["src_nation"], edges_df["dst_nation"],
                       edges_df["weight"]):
        W[idx[int(s)], idx[int(d)]] += float(w)
    out_w = W.sum(axis=1)
    assert (out_w > 0).all(), "dangling node in trade graph"
    # column-stochastic transition: P[d, s] = W[s, d] / out_w[s]
    P = (W / out_w[:, None]).T
    r = round_half_away(np.full(k, 1.0 / k))
    teleport = (1.0 - PR_DAMPING) / k
    for _ in range(PR_ITERS):
        r = round_half_away(teleport + PR_DAMPING * (P @ r))
    return pd.DataFrame({"n_nationkey": nodes.astype(np.int64),
                         "pagerank": r})


def _q_trade_pagerank(sf_dir: str):
    import pyarrow.parquet as pq

    edges = collect(nation_trade_edges(sf_dir))  # k x k rows, tiny
    pr = pagerank_from_edges(edges)
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    out = pr.merge(nation, on="n_nationkey", sort=False)
    return out[["n_nationkey", "n_name", "pagerank"]] \
        .sort_values("n_nationkey").reset_index(drop=True)


def _pagerank_sql() -> str:
    """Power method unrolled as chained CTEs (one per iteration — SQL
    recursive CTEs forbid aggregating over the recursive reference), each
    applying the same round-6 as the engine so identical doubles feed
    every step.  The per-step expression mirrors
    ``pagerank_from_edges``: teleport + damping * Σ rank(src) * w / ow."""
    steps = []
    for i in range(1, PR_ITERS + 1):
        steps.append(f"""
    r{i} AS (
        SELECT n.node,
               round((1.0 - {PR_DAMPING}) / kk.k
                     + {PR_DAMPING} * coalesce((
                         SELECT sum(p.rank * e.w / outw.ow)
                         FROM e
                         JOIN outw ON outw.src = e.src
                         JOIN r{i - 1} p ON p.node = e.src
                         WHERE e.dst = n.node
                     ), 0.0), 6) AS rank
        FROM nodes n CROSS JOIN kk
    )""")
    return f"""
    WITH e AS (
        SELECT c.c_nationkey AS src, s.s_nationkey AS dst,
               CAST(count(*) AS DOUBLE) AS w
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN supplier s ON l.l_suppkey = s.s_suppkey
        GROUP BY 1, 2
    ),
    outw AS (SELECT src, sum(w) AS ow FROM e GROUP BY 1),
    nodes AS (
        SELECT src AS node FROM e
        UNION SELECT dst FROM e
    ),
    kk AS (SELECT CAST(count(*) AS DOUBLE) AS k FROM nodes),
    r0 AS (SELECT node, round(1.0 / k, 6) AS rank FROM nodes, kk),
    {",".join(steps)}
    SELECT n_nationkey, n_name, rank AS pagerank
    FROM r{PR_ITERS} JOIN nation ON n_nationkey = node
    """


register("nation_trade_pagerank", _q_trade_pagerank, _pagerank_sql())


# ---------------------------------------------------------------------------
# Triangle count / clustering coefficient on the trade graph
# ---------------------------------------------------------------------------

def triangles_from_edges(edges_df: pd.DataFrame) -> pd.DataFrame:
    """Per-node triangle count, degree and local clustering coefficient
    on the UNDIRECTED simple graph induced by a directed edge list
    (self-loops dropped, direction and multiplicity collapsed).

    Same scale split as ``pagerank_from_edges``: the fact-table work is
    the edge aggregation (done upstream, distributed); the solve runs
    driver-side on the k x k adjacency because k = |nations|.  Counts
    are exact integers (diag(A^3) / 2); the coefficient is the one float
    — round-6 of ``2 * tri / (deg * (deg - 1))``, 0 when deg < 2."""
    src = edges_df["src_nation"].to_numpy(np.int64)
    dst = edges_df["dst_nation"].to_numpy(np.int64)
    keep = src != dst
    a = np.minimum(src[keep], dst[keep])
    b = np.maximum(src[keep], dst[keep])
    nodes = np.unique(np.r_[a, b])
    idx = {int(n): i for i, n in enumerate(nodes)}
    k = len(nodes)
    A = np.zeros((k, k), dtype=np.int64)
    for u, v in zip(a, b):
        A[idx[int(u)], idx[int(v)]] = 1
        A[idx[int(v)], idx[int(u)]] = 1
    deg = A.sum(axis=1)
    tri = np.diag(A @ A @ A) // 2
    denom = deg * (deg - 1)
    cc = np.where(denom > 0,
                  round_half_away(2.0 * tri / np.where(denom > 0, denom, 1)
                                  .astype(np.float64)),
                  0.0)
    return pd.DataFrame({
        "n_nationkey": nodes.astype(np.int64),
        "degree": deg.astype(np.int64),
        "triangles": tri.astype(np.int64),
        "clustering": cc.astype(np.float64),
    })


def _q_trade_triangles(sf_dir: str):
    import pyarrow.parquet as pq

    edges = collect(nation_trade_edges(sf_dir))  # <= k^2 rows, tiny
    out = triangles_from_edges(edges)
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    out = out.merge(nation, on="n_nationkey", sort=False)
    return out[["n_nationkey", "n_name", "degree", "triangles",
                "clustering"]].sort_values("n_nationkey") \
        .reset_index(drop=True)


_TRIANGLES_SQL = """
    WITH e AS (
        SELECT c.c_nationkey AS src, s.s_nationkey AS dst
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN supplier s ON l.l_suppkey = s.s_suppkey
        GROUP BY 1, 2
    ),
    und AS (
        SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
        FROM e WHERE src <> dst
    ),
    sym AS (
        SELECT a AS u, b AS v FROM und
        UNION ALL SELECT b, a FROM und
    ),
    deg AS (SELECT u, count(*) AS d FROM sym GROUP BY 1),
    tri AS (
        SELECT s1.u AS node, count(*) AS t
        FROM sym s1
        JOIN sym s2 ON s2.u = s1.u AND s1.v < s2.v
        JOIN und e3 ON e3.a = s1.v AND e3.b = s2.v
        GROUP BY 1
    )
    SELECT n_nationkey, n_name,
           CAST(deg.d AS BIGINT) AS degree,
           CAST(coalesce(tri.t, 0) AS BIGINT) AS triangles,
           CASE WHEN deg.d >= 2
                THEN round(2.0 * coalesce(tri.t, 0)
                           / (deg.d * (deg.d - 1.0)), 6)
                ELSE 0.0 END AS clustering
    FROM deg
    LEFT JOIN tri ON tri.node = deg.u
    JOIN nation ON n_nationkey = deg.u
"""

register("nation_trade_triangles", _q_trade_triangles, _TRIANGLES_SQL)


# ---------------------------------------------------------------------------
# Stationary distribution of the event-type Markov chain
# ---------------------------------------------------------------------------

MC_ITERS = 20


def markov_stationary(counts_df: pd.DataFrame) -> pd.DataFrame:
    """Fixed-iteration power method for the stationary distribution of
    the row-stochastic chain built from (prev_state, next_state, n)
    transition counts.  Complements ``events_transition_matrix`` (the
    distributed count build) with the iterative solve, in the PageRank
    discipline: states sorted, per-edge probability computed as
    ``n / out_weight`` (one division, then the multiply), distribution
    rounded to 6 dp after EVERY iteration so both engines feed identical
    doubles into the next step.  Every state must have out-transitions
    (asserted — true for the event stream; a general chain would need an
    absorbing-state rule both engines agree on)."""
    states = np.unique(np.r_[counts_df["prev_state"].to_numpy(object),
                             counts_df["next_state"].to_numpy(object)])
    idx = {s: i for i, s in enumerate(states)}
    k = len(states)
    N = np.zeros((k, k))
    for p, nx, n in zip(counts_df["prev_state"], counts_df["next_state"],
                        counts_df["n"]):
        N[idx[p], idx[nx]] += float(n)
    ow = N.sum(axis=1)
    assert (ow > 0).all(), "state with no out-transitions"
    P = N / ow[:, None]          # row-stochastic: P[i, j] = n_ij / ow_i
    r = round_half_away(np.full(k, 1.0 / k))
    for _ in range(MC_ITERS):
        r = round_half_away(P.T @ r)
    return pd.DataFrame({"state": states, "stationary": r})


def _q_type_stationary(sf_dir: str):
    from .windows import transition_counts

    ds = read_parquet_file(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"])
    counts = transition_counts(ds, member="user_id", ts="ts",
                               state_col="event_type",
                               order_col="event_id").to_pandas()
    return markov_stationary(counts).sort_values("state") \
        .reset_index(drop=True)


def _stationary_sql() -> str:
    """Unrolled power iteration (chained CTEs, round-6 per step) over
    the LEAD-derived transition counts — the SQL twin of
    ``markov_stationary`` with the identical per-term expression
    ``p * (n / ow)``."""
    steps = []
    for i in range(1, MC_ITERS + 1):
        steps.append(f"""
    r{i} AS (
        SELECT st.s,
               round(coalesce((
                   SELECT sum(p.p * (e.n / o.ow))
                   FROM e
                   JOIN outw o ON o.prev_state = e.prev_state
                   JOIN r{i - 1} p ON p.s = e.prev_state
                   WHERE e.next_state = st.s
               ), 0.0), 6) AS p
        FROM states st
    )""")
    return f"""
    WITH pairs AS (
        SELECT event_type AS prev_state,
               LEAD(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
               ) AS next_state
        FROM events
    ),
    e AS (
        SELECT prev_state, next_state, CAST(count(*) AS DOUBLE) AS n
        FROM pairs WHERE next_state IS NOT NULL GROUP BY 1, 2
    ),
    outw AS (SELECT prev_state, sum(n) AS ow FROM e GROUP BY 1),
    states AS (
        SELECT prev_state AS s FROM e UNION SELECT next_state FROM e
    ),
    kk AS (SELECT CAST(count(*) AS DOUBLE) AS k FROM states),
    r0 AS (SELECT s, round(1.0 / k, 6) AS p FROM states, kk),
    {",".join(steps)}
    SELECT s AS state, p AS stationary FROM r{MC_ITERS}
    """


register("events_type_stationary", _q_type_stationary, _stationary_sql())
