"""Shared helpers for the operator families."""

from __future__ import annotations

import numpy as np

#: Adaptive execution: when the MATERIALIZED partial relation of a
#: value-ordered statistic (``ranktests``, ``psidrift``) is small enough to
#: fold on the driver (~200 MB at 5M rows), skip the shuffle rounds
#: entirely — the fold is the same exact arithmetic, just local.  Above the
#: bound the value-ordered shard rounds run (the 100 TB path); equality of
#: the two paths is pinned by test.  The same adaptivity as the
#: shredded-vs-traversal kernel switch: pick the cheap plan when the data
#: proves small, never guess.
MAX_DRIVER_FOLD_ROWS = 5_000_000


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


def hash_shards(values, num_shards: int, *, mix=None):
    """Deterministic cross-process shard ids for a column (never Python's
    salted ``hash()``): pandas' stable vectorized hash reduced mod
    ``num_shards``.  ``mix`` optionally XORs in a second column's hash
    (composite keys).  Shared by every co-partitioning module so the
    hashing discipline lives in one place."""
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
