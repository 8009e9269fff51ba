"""Referential-integrity report: for each foreign-key relation, the
number of distinct FK values and how many are ORPHANS (no matching
primary key) — the cross-table data-quality check an ingest pipeline
runs before anything joins.

Scale shape, per relation: every block keeps its DISTINCT non-null key
values, the fact's FKs and the dimension's PKs tagged by side, and ONE
shard exchange keyed on the key value (``_util.sharded_aggregate``)
brings every copy of a key into one task, which counts its distinct FKs
and the ones no PK matches — key-cardinality-bounded, never
fact-row-bounded, and one shuffle where a distinct and an anti join ran
two.  Each relation folds to a single (relation, n_keys, n_orphans) row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._util import collect, read_parquet_file, sharded_aggregate
from .registry import register

# (relation name, fact table, fk column, dim table, pk column)
RELATIONS = (
    ("events.user_id -> customer.c_custkey",
     "events", "user_id", "customer", "c_custkey"),
    ("lineitem.l_orderkey -> orders.o_orderkey",
     "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("orders.o_custkey -> customer.c_custkey",
     "orders", "o_custkey", "customer", "c_custkey"),
)


def orphan_counts(fact_ds, fk: str, dim_ds, pk: str,
                  fk_type=pa.int64()) -> tuple:
    """(n distinct FK values, n orphans) of ``fact_ds[fk]`` against
    ``dim_ds[pk]`` on one exchange.  A null FK is neither counted nor an
    orphan, as SQL's NOT EXISTS and COUNT(DISTINCT) have it."""
    def _keys(ds, col: str, side: int):
        def _distinct(batch: pa.Table) -> pa.Table:
            k = batch.column(col).cast(fk_type)
            return pa.table({
                "k": k, "side": pa.array(np.full(len(k), side, np.int8)),
            }).filter(pc.is_valid(k)).group_by(["k", "side"]).aggregate([])

        return ds.map_batches(_distinct, batch_format="pyarrow",
                              zero_copy_batch=True)

    def _count(df: pd.DataFrame) -> dict:
        fks = df["k"][df["side"] == 0].unique()
        orphans = ~np.isin(fks, df["k"][df["side"] == 1].to_numpy())
        return {"n_keys": [len(fks)], "n_orphans": [int(orphans.sum())]}

    keys = _keys(fact_ds, fk, 0).union(_keys(dim_ds, pk, 1))
    out = collect(sharded_aggregate(keys, lambda t: t, _count, pa.schema([
        ("n_keys", pa.int64()), ("n_orphans", pa.int64())]), key="k"))
    return int(out["n_keys"].sum()), int(out["n_orphans"].sum())


def referential_integrity_report(sf_dir: str) -> pd.DataFrame:
    rows = []
    for name, fact, fk, dim, pk in RELATIONS:
        fact_ds = read_parquet_file(f"{sf_dir}/{fact}.parquet", columns=[fk])
        dim_ds = read_parquet_file(f"{sf_dir}/{dim}.parquet", columns=[pk])
        n_keys, n_orphans = orphan_counts(fact_ds, fk, dim_ds, pk)
        rows.append((name, n_keys, n_orphans))
    return pd.DataFrame({
        "relation": [r[0] for r in rows],
        "n_fk_values": pd.array([r[1] for r in rows], dtype="int64"),
        "n_orphans": pd.array([r[2] for r in rows], dtype="int64"),
    }).sort_values("relation", ignore_index=True)


def _rel_sql(name, fact, fk, dim, pk) -> str:
    return f"""
    SELECT '{name}' AS relation,
           CAST(count(DISTINCT {fk}) AS BIGINT) AS n_fk_values,
           CAST(count(DISTINCT CASE WHEN NOT EXISTS (
                    SELECT 1 FROM {dim} d WHERE d.{pk} = f.{fk})
                THEN {fk} END) AS BIGINT) AS n_orphans
    FROM {fact} f WHERE {fk} IS NOT NULL
    """


register(
    "referential_integrity",
    referential_integrity_report,
    " UNION ALL ".join(_rel_sql(*r) for r in RELATIONS)
    + " ORDER BY relation",
)
