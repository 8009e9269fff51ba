"""Shared helpers for the operator families."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.checkpoint import shard_apply

#: Adaptive execution: when the MATERIALIZED partial relation of a
#: value-ordered statistic (``ranktests``, ``psidrift``) is small enough to
#: fold on the driver (~200 MB at 5M rows), skip the shuffle rounds
#: entirely — the fold is the same exact arithmetic, just local.  Above the
#: bound the value-ordered shard rounds run (the 100 TB path); equality of
#: the two paths is pinned by test.  The same adaptivity as the
#: shredded-vs-traversal kernel switch: pick the cheap plan when the data
#: proves small, never guess.
MAX_DRIVER_FOLD_ROWS = 5_000_000


def read_parquet_file(path: str, columns=None, **kwargs):
    """``ray.data.read_parquet(path, columns=columns, **kwargs)`` of one
    Parquet file, with its pandas metadata dropped from the read schema
    (only ``columns``, in their order): Ray cannot hash a schema that
    carries it when it unifies the schemas of the blocks it splits a row
    group into, and logs "Failed to hash the schemas" from every such
    read task."""
    import pyarrow.parquet as pq
    import ray

    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema,
                                 **kwargs)


def shard_to_pandas(tbl) -> "pd.DataFrame":
    """Arrow shard frame -> pandas without float64-decaying ints: an int
    column WITH nulls becomes a pandas nullable IntegerArray built
    directly from (fill_null values, is_null mask) — fast path; a default
    ``to_pandas()`` would upcast it to float64 and silently round
    co-resident values > 2^53.  Null-free columns take the plain numpy
    fast path.  Shared by the shuffle/as-of/range join shard tasks."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    cols = {}
    for name in tbl.column_names:
        col = tbl.column(name)
        if pa.types.is_integer(col.type) and col.null_count > 0:
            filled = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
            mask = pc.is_null(col).to_numpy(zero_copy_only=False)
            cols[name] = pd.arrays.IntegerArray(filled, mask)
        else:
            cols[name] = col.to_pandas()
    return pd.DataFrame(cols)


def round_half_away(x, digits: int = 6):
    """Round ties away from zero — bit-matching DuckDB's ``ROUND`` so both
    sides of a driver comparison round identically (numpy's default is
    half-to-even, which disagrees on exact midpoints like 1/128)."""
    scale = 10.0 ** digits
    arr = np.asarray(x, dtype=np.float64)
    return np.sign(arr) * np.floor(np.abs(arr) * scale + 0.5) / scale


def as_table(out, schema: pa.Schema) -> pa.Table:
    """Rows as one table of exactly ``schema``, with no pandas metadata
    (Ray cannot hash a schema that carries it): ``out`` is a pandas
    frame, a dict of columns, a list of row tuples in ``schema`` order,
    or an Arrow table.  No rows gives ``schema.empty_table()``."""
    if isinstance(out, pa.Table):
        return out.select(schema.names).cast(schema)
    frame = pd.DataFrame(out, columns=schema.names) \
        if isinstance(out, list) else pd.DataFrame(out)
    if frame.empty:
        return schema.empty_table()
    return pa.Table.from_pandas(frame[schema.names], schema=schema,
                                preserve_index=False).replace_schema_metadata()


def sharded_aggregate(ds, partial, final, schema: pa.Schema, *,
                      key: str | None = "series_key"):
    """A keyed aggregate on the one shard exchange
    (``state/checkpoint.shard_apply``): ``partial`` maps each Arrow block
    to bounded partial rows, the exchange brings every partial row of one
    ``key`` value into one task, and ``final`` reduces that whole shard's
    partial rows (a pandas frame, the one pandas bridge; many keys at
    once) to output rows in any form ``as_table`` takes.  With
    ``key=None`` every partial row meets in one task (a global reduce
    such as a contingency table).  Each shard's output is cast once to
    ``schema``, and an input with no rows gives one empty block of it.
    The small blocks of a materialized ``ds`` (such as the output of an
    exchange: one block per shard) share one map task up to Ray Data's
    minimum block size (``_block_groups``), so a chain of exchanges
    starts a map task per 1 MiB, not per shard.  Runs when called, like
    ``shard_apply``."""
    import ray
    from ray.data.dataset import MaterializedDataset

    def _partial(batch: pa.Table) -> pa.Table:
        t = partial(batch)
        return t.append_column("group", pa.array(
            np.zeros(t.num_rows, np.int8))) if key is None else t

    def _reduce(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["shard"] + (["group"] if key is None else []))
        return as_table(final(t.to_pandas()), schema)

    inputs = _block_groups(ds, _partial) \
        if isinstance(ds, MaterializedDataset) else ds.map_batches(
            _partial, batch_format="pyarrow", zero_copy_batch=True)
    out = shard_apply(inputs, _reduce, key=key or "group")
    return out if out.num_blocks() else ray.data.from_arrow(
        schema.empty_table())


def _block_groups(ds, fn) -> list:
    """A materialized ``ds``'s non-empty blocks as ``shard_apply`` map
    inputs, each ``fn`` over a run of consecutive blocks that reaches Ray
    Data's ``target_min_block_size`` (1 MiB) or ends the dataset."""
    from ..state.checkpoint import data_context

    target = data_context().target_min_block_size
    groups, size = [[]], 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                if size >= target:
                    groups.append([])
                    size = 0
                groups[-1].append(ref)
                size += meta.size_bytes
    return [(_apply_each, fn, *refs) for refs in groups if refs]


def _apply_each(fn, *blocks) -> pa.Table:
    """``fn`` of each block (Arrow or pandas), concatenated."""
    from ray.data.block import BlockAccessor

    return pa.concat_tables(
        [fn(BlockAccessor.for_block(b).to_arrow()) for b in blocks],
        promote_options="permissive")


def collect(ds) -> pd.DataFrame:
    """The rows of a materialized ``ds`` (an exchange's output: one small
    block per shard) as one pandas frame, its blocks fetched directly:
    ``Dataset.to_pandas`` would run a Ray Data plan, a few ms a block."""
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs())).to_pandas()


def window_rows(batch: pa.Table, window_ns: int,
                ts_col: str = "ts") -> pd.DataFrame:
    """(series_key, window_ns, ts_ns, v) of a block's numeric samples
    (non-null ``value_num``); ``ts_col`` is a timestamp or int64 ns."""
    t = batch.filter(batch.column("value_num").is_valid())
    ts = t.column(ts_col)
    if pa.types.is_timestamp(ts.type):
        ts = ts.cast(pa.timestamp("ns"))
    ts = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
    return pd.DataFrame({
        "series_key": t.column("series_key").to_pandas(),
        "window_ns": ts // window_ns * window_ns,
        "ts_ns": ts,
        "v": t.column("value_num").to_numpy(zero_copy_only=False),
    })


def window_sums(df: pd.DataFrame, **aggs) -> pd.DataFrame:
    """Named aggregates per (series_key, window_ns), keys as columns."""
    return df.groupby(["series_key", "window_ns"], sort=True).agg(
        **aggs).reset_index()


#: the (series, window) partials of ``window_means``
_MEAN_PARTIALS = pa.schema([("series_key", pa.string()),
                            ("window_ns", pa.int64()), ("n", pa.int64()),
                            ("s", pa.float64())])


def window_means(samples_ds, *, window_ns: int, fit, schema: pa.Schema,
                 series=None, round_digits: int = 6):
    """The canonical rounded window mean ``round(round(Σv, 6) / n, 6)`` of
    every (series_key, window) of the numeric samples, fitted one shard
    at a time: each block collapses to (series_key, window_ns) ->
    (n, Σv) partials, ``sharded_aggregate`` brings each series' partials
    into one task, and ``fit(series, windows, y, starts)`` gets that
    shard's series keys, window starts and means sorted by
    (series_key, window_ns), with series ``i`` in rows
    ``starts[i]:starts[i + 1]``.  ``fit`` returns output rows (see
    ``as_table``), cast to ``schema``.

    With ``series``, only those keys are kept, and all of them meet in
    one task (a cross-series fit such as a pair correlation)."""
    keep = None if series is None else pa.array(list(series), pa.string())

    def _partial(batch: pa.Table) -> pa.Table:
        if keep is not None:
            batch = batch.filter(pc.is_in(batch.column("series_key"),
                                          value_set=keep))
        return as_table(window_sums(window_rows(batch, window_ns),
                                    n=("v", "size"), s=("v", "sum")),
                        _MEAN_PARTIALS)

    def _final(df: pd.DataFrame):
        g = window_sums(df, n=("n", "sum"), s=("s", "sum"))
        y = round_half_away(
            round_half_away(g["s"].to_numpy(), round_digits)
            / g["n"].to_numpy(), round_digits)
        series = g["series_key"].to_numpy()
        starts = np.r_[0, np.flatnonzero(series[1:] != series[:-1]) + 1,
                       len(series)]
        return fit(series, g["window_ns"].to_numpy(np.int64), y, starts)

    return sharded_aggregate(samples_ds, _partial, _final, schema,
                             key="series_key" if keep is None else None)


def hash_shards(values, num_shards: int, *, mix=None):
    """Deterministic cross-process shard ids for a column (never Python's
    salted ``hash()``): pandas' stable vectorized hash reduced mod
    ``num_shards``.  ``mix`` optionally XORs in a second column's hash
    (composite keys).  On an int64 column this is the exchange's own
    integer hash (``state/checkpoint.add_shard_column``: splitmix64 of
    the value), so both put an int64 key in the same shard."""
    import pandas as pd

    h = pd.util.hash_array(
        values.to_numpy() if hasattr(values, "to_numpy") else values
    )
    if mix is not None:
        h = h ^ pd.util.hash_array(
            mix.to_numpy() if hasattr(mix, "to_numpy") else mix
        )
    return (h % np.uint64(num_shards)).astype(np.int32)


def value_ordered_shards(values, num_shards: int):
    """Coordination-free VALUE-ORDERED shard ids for a float64 column:
    the top bits of the IEEE-754 sortable-integer transform (sign-flip
    trick) are a monotone function of the value, so shard ids order
    exactly like the values and cumulative offsets accumulate correctly
    across shards — no bounds pass over the data.  Sign + exponent
    (12 bits) plus ``log2(num_shards)`` mantissa bits give roughly
    ``num_shards`` sub-shards per binade.  Equal values always share a
    shard (a pure function of the value), so tie groups never split —
    required by every rank-based consumer.  A fully-degenerate all-tied
    column lands in one task, inherent to any coordination-free
    value-ordered split.  Shared by ``relational.customer_spend_gini``
    and ``ranktests.mannwhitney_weekend``'s distributed prefix-rank.
    """
    s = np.array(values, dtype=np.float64)  # ndarray, pandas or Arrow input
    # IEEE -0.0 and +0.0 compare equal everywhere downstream (pandas
    # groupby, DuckDB) but have different bit patterns — normalize so
    # the 'equal values share a shard' invariant holds for the zero tie
    # group (s == 0.0 matches both zeros)
    s[s == 0.0] = 0.0
    u = s.view(np.uint64)
    su = np.where(u >> np.uint64(63), ~u, u | np.uint64(1 << 63))
    mbits = max(int(np.log2(max(num_shards, 1))), 0)
    return (su >> np.uint64(64 - 12 - mbits)).astype(np.int64)


def segment_sum(x, offsets):
    """Per-segment sums of ``x`` for Arrow list ``offsets`` — the safe
    twin of ``np.add.reduceat(x, offsets[:-1])``, which raises
    ``IndexError`` when the LAST segment is empty (its start offset ==
    len(x), out of bounds for reduceat) and silently returns ``x[i]``
    for interior empty segments.  Non-empty segments reduce with the
    exact same reduceat float semantics; empty segments are 0.0."""
    n = len(offsets) - 1
    out = np.zeros(n)
    if len(x) == 0:
        return out
    offsets = np.asarray(offsets)
    nonempty = offsets[1:] > offsets[:-1]
    # reduceat over ONLY the non-empty segments' starts: those are
    # strictly increasing and in bounds, and consecutive non-empty
    # starts delimit exactly one original segment (empty segments in
    # between don't advance the offsets), so float semantics match
    # reduceat on the dense case bit for bit.  (Clipping out-of-range
    # starts instead would silently TRUNCATE the preceding segment —
    # the bug hypothesis found.)
    out[nonempty] = np.add.reduceat(x, offsets[:-1][nonempty])
    return out


def scratch_dir(name: str) -> str:
    """Per-purpose, per-process scratch directory under /tmp, wiped on
    reuse so repeated bench/correctness runs hold at most ONE copy per
    purpose per process (tempfile.mkdtemp per invocation leaked a
    corpus-sized directory every run until /tmp filled).  The pid suffix
    keeps concurrent processes of the same query from rmtree-ing each
    other's still-lazy reads."""
    import os
    import re
    import shutil

    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
    path = os.path.join("/tmp/jtse_scratch", f"{safe}.{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def regex_trim(text_col):
    """RE2 trim (ASCII ``\\s`` only) — the ONE canonical trim for every
    text-splitting kernel, matching the DuckDB oracles'
    ``regexp_replace(text, '^\\s+|\\s+$', '', 'g')`` exactly.  Arrow's
    ``utf8_trim_whitespace`` strips Unicode whitespace DuckDB's RE2 does
    not (U+00A0 etc.) — a latent hash-parity break this helper exists to
    prevent; never trim with anything else in an oracle-checked kernel."""
    import pyarrow.compute as pc

    return pc.replace_substring_regex(text_col, r"^\s+|\s+$", "")
