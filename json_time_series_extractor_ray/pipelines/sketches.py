"""Distributed statistics: exact per-group percentiles and a mergeable
HyperLogLog distinct-count sketch.

* ``group_percentiles``: exact discrete quantiles per key — the per-group
  sort is local (bounded by the group's rows) after the one co-locating
  ``groupby``; index rule mirrors DuckDB's ``quantile_disc``
  (``sorted[ceil(n*p) - 1]``) so the oracle comparison is value-exact.
* ``hll_distinct``: the classic mergeable cardinality sketch (Flajolet et
  al. 2007, public algorithm).  Each batch collapses to ONE 2^p-register
  row inside ``map_batches`` (the combiner), registers merge by
  element-wise max — so the driver-side reduce moves kilobytes regardless
  of corpus size.  This is the sketch shape a 100 TB distinct-count
  actually uses; exactness is impossible by design, so the driver check
  is rows-only and the error bound (~1.04/sqrt(2^p)) is pinned in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .registry import register

PCTS = (0.5, 0.9, 0.99)


def group_percentiles(ds, *, key: str, value: str, pcts=PCTS):
    """Exact discrete percentiles of ``value`` per ``key``."""

    def _fn(df: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(df[value].to_numpy())
        n = len(v)
        row = {key: [df[key].iloc[0]], "n": np.int64(n)}
        for p in pcts:
            idx = max(int(np.ceil(n * p)) - 1, 0)
            row[f"p{int(p * 100)}"] = v[idx]
        return pd.DataFrame(row)

    return ds.groupby(key).map_groups(_fn, batch_format="pandas")


def quantile_buckets(ds_fn, *, key: str, value: str,
                     pcts=(0.25, 0.5, 0.75)):
    """Row counts per (key, quantile bucket) — NTILE-style histogram over
    EXACT per-key quantile bounds.

    Two-pass broadcast shape (same as ``joins.winsorize``): pass 1
    computes the discrete quantile bounds per key (one tiny row each,
    collected driver-side and captured in the task closure); pass 2 is a
    stateless vectorized bucketing scan whose per-block partial counts —
    bounded by ``keys × (len(pcts)+1)`` — feed one tiny groupby.  Bucket
    assignment is pure comparison against existing values (quantile_disc
    picks, no interpolation), so the result oracles exactly; rows whose
    value is NULL/NaN fall into the last bucket on both engines (SQL
    CASE: a NULL comparison is never TRUE).
    """
    bounds = group_percentiles(ds_fn(), key=key, value=value,
                               pcts=pcts).to_pandas()
    pct_cols = [f"p{int(p * 100)}" for p in pcts]
    lut = {row[key]: [row[c] for c in pct_cols]
           for _, row in bounds.iterrows()}
    n_buckets = len(pcts) + 1

    def _bucket(batch: pa.Table) -> pa.Table:
        k = batch.column(key).to_pandas().to_numpy()
        v = batch.column(value).to_numpy(zero_copy_only=False)
        bucket = np.full(len(v), n_buckets, np.int64)
        for kk, qs in lut.items():
            mask = k == kk
            vv = v[mask]
            b = np.full(len(vv), n_buckets, np.int64)
            for i in range(len(qs) - 1, -1, -1):
                b[vv <= qs[i]] = i + 1
            bucket[mask] = b
        g = pd.DataFrame({key: k, "bucket": bucket}) \
            .groupby([key, "bucket"], sort=False).size() \
            .rename("n").reset_index()
        return pa.table({
            key: pa.array(g[key].astype(str), pa.string()),
            "bucket": pa.array(g["bucket"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        })

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key: [df[key].iloc[0]],
            "bucket": pd.Series([df["bucket"].iloc[0]], dtype="int64"),
            "n": pd.Series([int(df["n"].sum())], dtype="int64"),
        })

    return ds_fn().map_batches(_bucket, batch_format="pyarrow",
                               zero_copy_batch=True) \
        .groupby([key, "bucket"]).map_groups(_sum, batch_format="pandas")


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------

HLL_P = 12  # 4096 registers -> ~1.6% standard error


def _hash64(values: pd.Series) -> np.ndarray:
    """Stable (process-independent) 64-bit hashes — pandas siphash with a
    fixed key, NEVER Python hash() (salted per process)."""
    return pd.util.hash_array(values.to_numpy(dtype=object))


def _hll_ranks(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """64-bit hashes -> (register index, rank) — the ONE HLL kernel shared
    by the corpus-level sketch and the tier-cascade operator so their
    registers can never diverge."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # top (64-p) significant bits
    # rank = leading zeros of `rest` + 1, capped at 64-p+1 (rest == 0)
    lz = np.full(len(h), 64 - p, dtype=np.int64)
    nz = rest != 0
    # log2 of the highest set bit -> leading zero count
    top = np.zeros(len(h), dtype=np.int64)
    top[nz] = 63 - np.floor(np.log2(rest[nz].astype(np.float64))).astype(np.int64)
    lz[nz] = top[nz]
    rank = np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)
    return idx, rank


def hll_partial_batch(batch: pa.Table, column: str, p: int = HLL_P) -> pa.Table:
    """One block -> one HLL register row (the combiner)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    vals = batch.column(column).to_pandas().astype(str)
    if len(vals):
        idx, rank = _hll_ranks(_hash64(vals), p)
        np.maximum.at(regs, idx, rank)
    return pa.table({"registers": pa.array([regs.tobytes()], pa.binary())})


def hll_estimate(register_rows, p: int = HLL_P) -> float:
    """Merge register rows (element-wise max) and estimate cardinality with
    the standard bias-corrected harmonic mean + small-range correction."""
    m = 1 << p
    merged = np.zeros(m, dtype=np.uint8)
    for blob in register_rows:
        merged = np.maximum(merged, np.frombuffer(blob, dtype=np.uint8))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-merged.astype(np.float64)))
    zeros = int(np.sum(merged == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting
    return float(est)


def hll_distinct(ds, *, column: str, p: int = HLL_P):
    """Approximate COUNT(DISTINCT column): per-batch register partials ->
    one tiny driver-side max-merge (kilobytes, not a shuffle)."""
    import functools

    partials = ds.map_batches(
        functools.partial(hll_partial_batch, column=column, p=p),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    blobs = [r["registers"] for r in partials.take_all()]  # k rows of 4 KiB
    return hll_estimate(blobs, p)


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters (mergeable frequent-items sketch)
# ---------------------------------------------------------------------------

MG_CAP = 65536


def mg_summarize(counts: dict, m: int) -> tuple[dict, int]:
    """Shrink a count map to at most ``m`` counters, Misra-Gries style:
    subtract the (m+1)-th largest count from every counter and drop the
    non-positive ones.  Returns ``(summary, error)`` — every surviving
    counter undercounts its true frequency by at most ``error``
    (mergeable-summaries result, Agarwal et al., PODS'12)."""
    if len(counts) <= m:
        return counts, 0
    vals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    thresh = int(np.partition(vals, len(vals) - m - 1)[len(vals) - m - 1])
    out = {k: c - thresh for k, c in counts.items() if c > thresh}
    return out, thresh


def mg_merge(a: dict, b: dict, m: int) -> tuple[dict, int]:
    """Merge two summaries: add counters, then re-summarize to ``m``."""
    merged = dict(a)
    for k, c in b.items():
        merged[k] = merged.get(k, 0) + c
    return mg_summarize(merged, m)


def heavy_hitters(ds, *, column: str, m: int = MG_CAP, top: int | None = None):
    """Frequent items of ``column``: per-block exact counts collapse to a
    Misra-Gries summary INSIDE ``map_batches`` (the combiner — at most
    ``m`` rows leave each block regardless of block size), then a tiny
    driver-side merge.  No shuffle at any point.

    When ``m`` exceeds the distinct-key count the total error is 0 and
    counts are exact (that configuration is what the driver oracle
    checks); undersized ``m`` degrades gracefully to the classic
    guarantee — every key with true frequency > N/(m+1) survives, each
    count low by at most the accumulated error (returned separately by
    ``heavy_hitters_with_error``).
    """
    table, _err = heavy_hitters_with_error(ds, column=column, m=m, top=top)
    return table


def heavy_hitters_with_error(ds, *, column: str, m: int = MG_CAP,
                             top: int | None = None):
    import functools

    def _partial(batch: pa.Table, column: str, m: int) -> pa.Table:
        vc = batch.column(column).value_counts()
        counts = dict(
            zip(
                vc.field("values").to_pylist(),
                (int(c) for c in vc.field("counts").to_pylist()),
            )
        )
        summary, err = mg_summarize(counts, m)
        keys = list(summary.keys())
        cnts = list(summary.values())
        is_err = [False] * len(keys)
        if err:  # one flagged row carries this block's summarization error
            # (a dedicated column, NOT a null key — genuine null keys from
            # value_counts() must stay ordinary counters).
            keys.append(None)
            cnts.append(err)
            is_err.append(True)
        key_type = batch.schema.field(column).type
        return pa.table(
            {
                "key": pa.array(keys, key_type),
                "cnt": pa.array(cnts, pa.int64()),
                "is_err": pa.array(is_err, pa.bool_()),
            }
        )

    parts = ds.map_batches(
        functools.partial(_partial, column=column, m=m),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # <= m+1 rows per block — kilobytes at any corpus size

    acc: dict = {}
    total_err = 0
    for row in parts:
        if row["is_err"]:
            total_err += row["cnt"]
        else:
            acc[row["key"]] = acc.get(row["key"], 0) + row["cnt"]
    acc, merge_err = mg_summarize(acc, m)
    total_err += merge_err

    # null keys sort last among equal counts (they can't compare to
    # str/int keys directly).
    items = sorted(
        acc.items(),
        key=lambda kv: (-kv[1], kv[0] is None,
                        kv[0] if kv[0] is not None else 0),
    )
    if top is not None:
        items = items[:top]
    table = pa.table(
        {
            column: pa.array([k for k, _ in items]),
            "n": pa.array([c for _, c in items], pa.int64()),
        }
    )
    return table, total_err


# ---------------------------------------------------------------------------
# Bloom filter (mergeable membership sketch)
# ---------------------------------------------------------------------------

BLOOM_BITS = 1 << 20  # 128 KiB of bits
BLOOM_K = 7


def _bloom_positions(values: pd.Series, m_bits: int, k: int) -> np.ndarray:
    """k bit positions per value via double hashing of two stable 64-bit
    hashes (Kirsch-Mitzenmacher): g_i = h1 + i*h2 mod m."""
    s = values.astype(str)
    h1 = pd.util.hash_array(s.to_numpy(dtype=object), hash_key="0123456789123456")
    h2 = pd.util.hash_array(s.to_numpy(dtype=object), hash_key="6543210987654321")
    i = np.arange(k, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(m_bits)).astype(np.int64)


def bloom_partial_batch(batch: pa.Table, column: str,
                        m_bits: int = BLOOM_BITS, k: int = BLOOM_K) -> pa.Table:
    """One block -> one bloom bitmap row (the combiner; OR-mergeable)."""
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    vals = batch.column(column).to_pandas()
    if len(vals):
        pos = _bloom_positions(vals, m_bits, k).ravel()
        np.bitwise_or.at(bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})


def bloom_build(ds, *, column: str, m_bits: int = BLOOM_BITS,
                k: int = BLOOM_K) -> bytes:
    """Distributed build: per-block partial bitmaps, driver-side OR-merge
    (each partial is m_bits/8 bytes regardless of block size)."""
    import functools

    partials = ds.map_batches(
        functools.partial(bloom_partial_batch, column=column,
                          m_bits=m_bits, k=k),
        batch_format="pyarrow", zero_copy_batch=True,
    ).take_all()
    merged = np.zeros(m_bits // 8, dtype=np.uint8)
    for row in partials:
        merged |= np.frombuffer(row["bits"], dtype=np.uint8)
    return merged.tobytes()


def bloom_filter_out(big_ds, bloom_bits: bytes, *, column: str,
                     m_bits: int = BLOOM_BITS, k: int = BLOOM_K,
                     keep: str = "new"):
    """Keep rows whose ``column`` is NOT (probably) in the bloom — the
    cross-run dedup shape: the previous run's fingerprints live in a
    fixed-size bitmap broadcast once via ``ray.put``; no shuffle, no join.
    False positives (rate ~(1-e^{-kn/m})^k) drop a few genuinely-new rows;
    false negatives are impossible — nothing already seen gets through.

    ``keep="member"`` inverts the filter (keep probable members): the
    join-prefilter shape — FPs pass harmlessly into the exact join that
    follows, so the composition stays value-exact."""
    import ray

    if keep not in ("new", "member"):
        raise ValueError(f"keep must be 'new' or 'member', got {keep!r}")
    bits_ref = ray.put(bloom_bits)

    def _keep_new(batch: pa.Table) -> pa.Table:
        bits = np.frombuffer(ray.get(bits_ref), dtype=np.uint8)
        vals = batch.column(column).to_pandas()
        if not len(vals):
            return batch
        pos = _bloom_positions(vals, m_bits, k)
        hit = (bits[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
        member = hit.all(axis=0)  # all k bits set -> probably seen
        return batch.filter(pa.array(member if keep == "member" else ~member))

    return big_ds.map_batches(_keep_new, batch_format="pyarrow",
                              zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Driver queries
# ---------------------------------------------------------------------------

def _q_percentiles(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return group_percentiles(ds, key="event_type", value="value")


def _q_hll_users(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    est = hll_distinct(ds, column="user_id")
    return pa.table({"approx_distinct_users": pa.array([round(est)], pa.int64())})


register(
    "events_value_percentiles",
    _q_percentiles,
    f"""
    SELECT event_type, count(*) AS n,
           {', '.join(f"quantile_disc(value, {p}) AS p{int(p * 100)}"
                      for p in PCTS)}
    FROM events GROUP BY event_type
    """,
)

register("events_hll_distinct_users", _q_hll_users)  # approximate -> rows-only


def _exact_distinct_count(ds, field: pa.Field) -> int:
    """Exact distributed COUNT(DISTINCT field): per-block Arrow dedup
    combiner -> ONE exchange keyed on the column -> count
    (``tpch._sharded_distinct`` — never one task per key)."""
    from .tpch import _sharded_distinct

    return _sharded_distinct(ds, pa.schema([field]), field.name).count()


#: HLL standard error at p=12 is 1.04/sqrt(4096) ≈ 1.625%; the structural
#: oracle pins the estimate inside 3 sigma of the EXACT count.  Both the
#: hash seed and the corpus are fixed, so the flag is deterministic.
HLL_3SIGMA = 3 * 1.04 / ((1 << HLL_P) ** 0.5)


def _q_hll_vs_exact(sf_dir: str):
    """Structural oracle for the HLL sketch (round-3 verdict item 4):
    the exact distinct-user count (SQL-checkable) next to a driver-hashed
    guarantee flag that the HLL estimate landed within 3 sigma of it.
    The estimate itself stays in the rows-only ``events_hll_distinct_users``
    entry; THIS entry makes a silent HLL value bug driver-visible."""
    import ray

    def _events():
        return ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                     columns=["user_id"])

    exact = _exact_distinct_count(_events(), pa.field("user_id", pa.int64()))
    est = hll_distinct(_events(), column="user_id")
    ok = bool(abs(est - exact) <= HLL_3SIGMA * exact)
    return pa.table({
        "exact_distinct_users": pa.array([exact], pa.int64()),
        "hll_within_3sigma": pa.array([ok], pa.bool_()),
    })


register(
    "events_hll_vs_exact",
    _q_hll_vs_exact,
    """
    SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS exact_distinct_users,
           TRUE AS hll_within_3sigma
    FROM events
    """,
)


def _q_heavy_users(sf_dir: str):
    """Top-20 users by event count via the Misra-Gries combiner path.
    Capacity (65536) exceeds the distinct-user count at every test SF, so
    the sketch is provably exact here and gets a plain GROUP BY oracle;
    the SAME code under-capacity degrades to the epsilon-guarantee pinned
    in TestMisraGries."""
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return heavy_hitters(ds, column="user_id", top=20)


def _q_bloom_new_docs(sf_dir: str):
    """Cross-run dedup: a bloom of the even-doc_id fingerprints (the
    "previous run") filters the odd-doc_id stream down to genuinely-new
    content.  Deterministic but not SQL-expressible (siphash + bitmap) ->
    rows-only driver check; no-false-negative + FP-bound behaviour is
    pinned in TestBloom."""
    import ray

    from .textstats import fingerprint_batch

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    fps = docs.map_batches(fingerprint_batch, batch_format="pyarrow",
                           zero_copy_batch=True)

    def _half(parity):
        def _fn(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % 2 == parity))

        return _fn

    seen = fps.map_batches(_half(0), batch_format="pyarrow",
                           zero_copy_batch=True)
    candidates = fps.map_batches(_half(1), batch_format="pyarrow",
                                 zero_copy_batch=True)
    bloom = bloom_build(seen, column="fingerprint")
    return bloom_filter_out(candidates, bloom, column="fingerprint")


# Full rows-level oracle: the fingerprint is md5 of whitespace-
# normalized text (SQL-computable — the exact_dedup rule), and with 250
# even-doc entries in a 2^20-bit / k=7 bloom the per-candidate false-
# positive probability is (250*7/2^20)^7 ≈ 1e-20, so the filter output
# EQUALS the exact anti-join relation as a deterministic fact of the
# fixed seed + fixtures (verified sf0.001/0.01: 250/250 both).  The
# no-false-negative property itself is pinned in TestBloom.
register(
    "doc_bloom_new_docs",
    _q_bloom_new_docs,
    r"""
    WITH f AS (
        SELECT doc_id,
               md5(regexp_replace(regexp_replace(text, '^\s+|\s+$', '', 'g'),
                   '\s+', ' ', 'g')) AS fingerprint
        FROM documents
    )
    SELECT doc_id, fingerprint
    FROM f
    WHERE doc_id % 2 = 1
      AND fingerprint NOT IN (SELECT fingerprint FROM f WHERE doc_id % 2 = 0)
    """,
)


register(
    "events_heavy_users",
    _q_heavy_users,
    """
    SELECT user_id, count(*) AS n
    FROM events
    GROUP BY user_id
    ORDER BY n DESC, user_id
    LIMIT 20
    """,
)


# ---------------------------------------------------------------------------
# Mergeable quantile sketch (uniform-compression summary, KLL-style)
# ---------------------------------------------------------------------------

QSK_CAP = 1024  # summary points per (block, key) -> rank error <= 1/(2*cap)


def qsketch_compress(values: np.ndarray, weights: np.ndarray,
                     cap: int = QSK_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Compress a weighted, SORTED value list to at most ``cap`` points.

    Picks the values at the ``cap`` equally-spaced cumulative-weight
    midpoints and gives each ``W/cap`` weight — one compression adds at
    most ``W/(2*cap)`` rank error, so block partials followed by a single
    un-recompressed merge stay within ``n/(2*cap)`` ranks overall
    (ε = 1/(2*cap) relative rank; deterministic, no sampling).
    """
    n = len(values)
    if n <= cap:
        return values, weights
    total = float(weights.sum())
    cum = np.cumsum(weights, dtype=np.float64)
    targets = total * (np.arange(cap, dtype=np.float64) + 0.5) / cap
    idx = np.searchsorted(cum, targets, side="left")
    return values[idx], np.full(cap, total / cap)


def qsketch_partial_batch(batch: pa.Table, *, key: str, value: str,
                          cap: int = QSK_CAP) -> pa.Table:
    """One block -> per-key compressed (value, weight) summary rows."""
    df = pa.table({
        "k": batch.column(key), "v": batch.column(value)
    }).to_pandas()
    ks, vs, ws = [], [], []
    for k, g in df.groupby("k", sort=False):
        v = np.sort(g["v"].to_numpy(dtype=np.float64))
        cv, cw = qsketch_compress(v, np.ones(len(v)), cap)
        ks.append(np.full(len(cv), k, dtype=object))
        vs.append(cv)
        ws.append(cw)
    return pa.table({
        "k": pa.array(np.concatenate(ks) if ks else [], pa.string()),
        "v": pa.array(np.concatenate(vs) if vs else [], pa.float64()),
        "w": pa.array(np.concatenate(ws) if ws else [], pa.float64()),
    })


def qsketch_quantiles(ds, *, key: str, value: str, pcts=PCTS,
                      cap: int = QSK_CAP):
    """Approximate per-key quantiles with a mergeable summary sketch:
    per-(block, key) compressed partials (<= ``cap`` rows each, the
    combiner) -> driver-side weighted-rank merge over the k-row summaries
    — no shuffle of the data, only O(#blocks x #keys x cap) sketch rows
    move.  Deterministic; rank error <= 1/(2*cap) of each key's mass
    (pinned in TestQuantileSketch)."""
    import functools

    partials = ds.map_batches(
        functools.partial(qsketch_partial_batch, key=key, value=value,
                          cap=cap),
        batch_format="pyarrow", zero_copy_batch=True,
    ).take_all()
    df = pd.DataFrame(partials)
    rows = []
    for k, g in sorted(df.groupby("k", sort=False), key=lambda kv: kv[0]):
        order = np.argsort(g["v"].to_numpy(), kind="stable")
        v = g["v"].to_numpy()[order]
        w = g["w"].to_numpy()[order]
        cum = np.cumsum(w)
        total = cum[-1]
        row = {key: k, "n": np.int64(round(total))}
        for p in pcts:
            i = int(np.searchsorted(cum, p * total, side="left"))
            row[f"p{int(p * 100)}"] = v[min(i, len(v) - 1)]
        rows.append(row)
    return pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)


def _q_quantile_sketch(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return qsketch_quantiles(ds, key="event_type", value="value")


# Approximate by construction (error bound pinned in pytest) -> rows-only.
register("events_value_quantile_sketch", _q_quantile_sketch)


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005, public algorithm)
# ---------------------------------------------------------------------------
# Mergeable frequency sketch: depth x width counter matrix; estimate =
# min over rows; always an OVERestimate, err <= (e/width) * N with
# probability 1 - e^-depth.  Per-block partials are one matrix each and
# merge by ADDITION, so the driver-side reduce moves
# depth*width*8 bytes per block regardless of corpus size — the same
# shape as the HLL/Misra-Gries reducers above.

CMS_WIDTH = 2048
CMS_DEPTH = 4


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain mixing constants)."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _cms_keys(values: pd.Series, depth: int) -> np.ndarray:
    """(depth, n) deterministic 64-bit hashes (never Python's salted
    ``hash()``).  pandas' ``hash_array`` IGNORES ``hash_key`` for numeric
    dtypes (verified), so per-depth independence comes from a splitmix64
    re-mix of the base hash with a per-depth seed — distinct rows are
    what makes min-over-depth actually tighten the bound."""
    base = pd.util.hash_array(values.to_numpy())
    with np.errstate(over="ignore"):
        return np.stack([
            _splitmix64(base ^ np.uint64(0xA076_1D64_78BD_642F + 2 * d + 1))
            for d in range(depth)
        ])


def cms_partial_batch(batch: pa.Table, column: str,
                      width: int = CMS_WIDTH,
                      depth: int = CMS_DEPTH) -> np.ndarray:
    """One block -> one (depth, width) int64 counter matrix."""
    mat = np.zeros((depth, width), dtype=np.int64)
    vals = batch.column(column).to_pandas()
    if not len(vals):
        return mat
    pos = (_cms_keys(vals, depth) % np.uint64(width)).astype(np.int64)
    for d in range(depth):
        np.add.at(mat[d], pos[d], 1)
    return mat


def cms_build(ds, *, column: str, width: int = CMS_WIDTH,
              depth: int = CMS_DEPTH) -> np.ndarray:
    """Build the merged sketch: per-block matrices summed driver-side."""
    import ray

    def _partial(batch: pa.Table) -> pa.Table:
        mat = cms_partial_batch(batch, column, width, depth)
        return pa.table({"mat": pa.array([mat.ravel()],
                                         pa.list_(pa.int64()))})

    parts = ds.map_batches(_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    total = np.zeros(depth * width, dtype=np.int64)
    for t in ray.get(parts.to_arrow_refs()):
        for row in t.column("mat").to_pylist():
            total += np.asarray(row, dtype=np.int64)
    return total.reshape(depth, width)


def cms_estimate(mat: np.ndarray, keys: pd.Series) -> np.ndarray:
    """Point-frequency estimates (min over depth rows) for ``keys``."""
    depth, width = mat.shape
    pos = (_cms_keys(keys, depth) % np.uint64(width)).astype(np.int64)
    return np.min(
        np.stack([mat[d, pos[d]] for d in range(depth)]), axis=0
    )


def _q_cms_user_counts(sf_dir: str):
    """CMS-estimated event counts for the 20 heaviest users (sketch is
    approximate by construction -> rows-only; bounds pinned in
    TestCountMin)."""
    import ray

    def _events():
        return ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                     columns=["user_id"])

    mat = cms_build(_events(), column="user_id")
    top = heavy_hitters(_events(), column="user_id", m=65536, top=20)
    keys = top.column("user_id").to_pandas()
    est = cms_estimate(mat, keys)
    return pa.table({
        "user_id": pa.array(keys.astype("int64"), pa.int64()),
        "est_count": pa.array(est, pa.int64()),
    })


register("events_cms_user_counts", _q_cms_user_counts)


def _q_cms_vs_exact(sf_dir: str):
    """Structural oracle for the count-min sketch (round-3 verdict item
    4): for the 20 heaviest users, the EXACT event count (SQL-checkable)
    plus two driver-hashed guarantee flags — the CMS never underestimates
    (structural, holds unconditionally) and its overestimate stays within
    the classic ``(e/width) * N`` bound (holds per query with prob
    1 - e^-depth; deterministic here because hash seeds and corpus are
    fixed).  The raw estimates stay rows-only in
    ``events_cms_user_counts``; this entry makes a silent CMS value bug
    driver-visible."""
    import math

    import ray

    def _events():
        return ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                     columns=["user_id"])

    mat = cms_build(_events(), column="user_id")
    n_total = int(mat[0].sum())  # every row of the matrix sums to N
    top = heavy_hitters(_events(), column="user_id", m=65536, top=20)
    keys = top.column("user_id").to_pandas()
    exact = top.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    est = cms_estimate(mat, keys).astype(np.int64)
    eps_bound = math.e / CMS_WIDTH * n_total
    return pa.table({
        "user_id": pa.array(keys.astype("int64"), pa.int64()),
        "exact_count": pa.array(exact, pa.int64()),
        "cms_ge_exact": pa.array(est >= exact, pa.bool_()),
        "cms_within_eps": pa.array(est - exact <= eps_bound, pa.bool_()),
    })


register(
    "events_cms_vs_exact",
    _q_cms_vs_exact,
    """
    SELECT user_id, CAST(count(*) AS BIGINT) AS exact_count,
           TRUE AS cms_ge_exact, TRUE AS cms_within_eps
    FROM events
    GROUP BY user_id
    ORDER BY exact_count DESC, user_id
    LIMIT 20
    """,
)


def _q_quantile_buckets(sf_dir: str):
    import ray

    def _events():
        return ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        )

    return quantile_buckets(_events, key="event_type", value="value")


register(
    "events_quantile_buckets",
    _q_quantile_buckets,
    """
    WITH b AS (
        SELECT event_type,
               quantile_disc(value, 0.25) AS p25,
               quantile_disc(value, 0.50) AS p50,
               quantile_disc(value, 0.75) AS p75
        FROM events GROUP BY event_type
    )
    SELECT e.event_type,
           CASE WHEN e.value <= b.p25 THEN 1
                WHEN e.value <= b.p50 THEN 2
                WHEN e.value <= b.p75 THEN 3
                ELSE 4 END AS bucket,
           count(*) AS n
    FROM events e JOIN b USING (event_type)
    GROUP BY 1, 2
    """,
)


def mad_outliers(ds_fn, *, key: str, value: str, id_column: str,
                 k: float = 3.0):
    """Robust per-key outlier flags via Median Absolute Deviation:
    a row is an outlier when ``|value - median| > k * MAD`` where
    ``MAD = median(|value - median|)`` — the standard robust alternative
    to z-scores (immune to the outliers it is hunting).

    Three streaming scans, no shuffle of the big side: (1) per-key
    discrete medians (tiny, collected + broadcast in the task closure),
    (2) per-key discrete medians of the absolute deviations, (3) a
    stateless vectorized flag pass.  Every intermediate (subtraction,
    abs, ``k * MAD``, the comparison) is the same IEEE double expression
    in SQL, and the medians are ``quantile_disc`` picks of existing
    values — so the result hashes exactly with zero rounding.
    """
    med = group_percentiles(ds_fn(), key=key, value=value,
                            pcts=(0.5,)).to_pandas()
    med_lut = dict(zip(med[key], med["p50"]))

    def _apply_lut(kk: np.ndarray, lut: dict) -> np.ndarray:
        out = np.empty(len(kk), np.float64)
        for name, x in lut.items():
            out[kk == name] = x
        return out

    def _ad(batch: pa.Table) -> pa.Table:
        kk = batch.column(key).to_pandas().to_numpy()
        v = batch.column(value).to_numpy(zero_copy_only=False)
        return pa.table({
            key: batch.column(key),
            "ad": pa.array(np.abs(v - _apply_lut(kk, med_lut)),
                           pa.float64()),
        })

    mad = group_percentiles(
        ds_fn().map_batches(_ad, batch_format="pyarrow",
                            zero_copy_batch=True),
        key=key, value="ad", pcts=(0.5,),
    ).to_pandas()
    mad_lut = dict(zip(mad[key], mad["p50"]))

    def _flag(batch: pa.Table) -> pa.Table:
        kk = batch.column(key).to_pandas().to_numpy()
        v = batch.column(value).to_numpy(zero_copy_only=False)
        m = _apply_lut(kk, med_lut)
        s = _apply_lut(kk, mad_lut)
        ad = np.abs(v - m)
        return pa.table({
            id_column: batch.column(id_column),
            key: batch.column(key),
            value: batch.column(value),
            "med": pa.array(m, pa.float64()),
            "mad": pa.array(s, pa.float64()),
            "is_outlier": pa.array((ad > k * s).astype(np.int64),
                                   pa.int64()),
        })

    return ds_fn().map_batches(_flag, batch_format="pyarrow",
                               zero_copy_batch=True)


def _q_mad_outliers(sf_dir: str):
    import ray

    def _events():
        return ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "event_type", "value"],
        )

    return mad_outliers(_events, key="event_type", value="value",
                        id_column="event_id", k=3.0)


register(
    "events_mad_outliers",
    _q_mad_outliers,
    """
    WITH m AS (
        SELECT event_type, quantile_disc(value, 0.5) AS med
        FROM events GROUP BY event_type
    ),
    d AS (
        SELECT e.event_id, e.event_type, e.value, m.med,
               abs(e.value - m.med) AS ad
        FROM events e JOIN m USING (event_type)
    ),
    s AS (SELECT event_type, quantile_disc(ad, 0.5) AS mad
          FROM d GROUP BY event_type)
    SELECT d.event_id, d.event_type, d.value, d.med, s.mad,
           CAST(CASE WHEN d.ad > 3.0 * s.mad THEN 1 ELSE 0 END AS BIGINT)
               AS is_outlier
    FROM d JOIN s USING (event_type)
    """,
)


# ---------------------------------------------------------------------------
# Exact per-(series, window) percentiles
# ---------------------------------------------------------------------------

HOUR_NS_PCT = 3_600_000_000_000
WINDOW_PCT_SHARDS = 256


def window_percentiles(samples_ds, *, window_ns: int = HOUR_NS_PCT,
                       pcts=PCTS, shards: int = WINDOW_PCT_SHARDS):
    """Exact discrete percentiles of the numeric values per
    (series, tumbling window) — the windowed twin of
    ``group_percentiles``.

    Scale shape: exact percentiles need the raw values, so the ONE
    shuffle carries the projected (series, window, value) stream keyed by
    ``window % shards`` — never one Ray group per (series, window), which
    is near-singleton at scale (the pivot lesson); inside a shard task a
    single pandas groupby computes every window's sorted picks.  The
    mergeable ``events_value_quantile_sketch`` is the bounded-shuffle
    approximation when raw-value movement is too expensive.
    """
    from .analytics import _numeric

    def _project(batch: pa.Table) -> pa.Table:
        t = _numeric(batch)
        ts = t.column("ts_ns").to_numpy(zero_copy_only=False)
        w = ts - (ts % window_ns)
        return pa.table({
            "series_key": t.column("series_key"),
            "window_ns": pa.array(w, pa.int64()),
            "value_num": t.column("value_num"),
            "shard": pa.array(((w // window_ns) % shards).astype(np.int32),
                              pa.int32()),
        })

    pct_cols = [f"p{int(p * 100)}" for p in pcts]

    def _shard_pcts(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"series_key": [], "window_ns": [], "n": []}
        for c in pct_cols:
            rows[c] = []
        for (key, w), g in df.groupby(["series_key", "window_ns"],
                                      sort=False):
            v = np.sort(g["value_num"].to_numpy())
            n = len(v)
            rows["series_key"].append(key)
            rows["window_ns"].append(w)
            rows["n"].append(n)
            for p, c in zip(pcts, pct_cols):
                rows[c].append(v[max(int(np.ceil(n * p)) - 1, 0)])
        out = pd.DataFrame(rows)
        out["window_ns"] = out["window_ns"].astype(np.int64)
        out["n"] = out["n"].astype(np.int64)
        return out

    return (
        samples_ds.map_batches(_project, batch_format="pyarrow",
                               zero_copy_batch=True)
        .groupby("shard")
        .map_groups(_shard_pcts, batch_format="pandas")
    )


def _q_window_percentiles(sf_dir: str):
    from .analytics import _events_samples

    return window_percentiles(_events_samples(sf_dir))


def _window_pcts_sql() -> str:
    from ._events_sql import EVENTS_NUMERIC_SQL

    qs = ", ".join(f"quantile_disc(value_num, {p}) AS p{int(p * 100)}"
                   for p in PCTS)
    return f"""
    WITH num AS ({EVENTS_NUMERIC_SQL})
    SELECT series_key,
           ts_ns - (ts_ns % {HOUR_NS_PCT}) AS window_ns,
           CAST(count(*) AS BIGINT) AS n, {qs}
    FROM num GROUP BY 1, 2
    """


register("events_window_percentiles_1h", _q_window_percentiles,
         _window_pcts_sql())


# ---------------------------------------------------------------------------
# Exact GLOBAL quantiles of an integer column without collecting it
# ---------------------------------------------------------------------------

QEXACT_COLLECT_THRESHOLD = 65_536
QEXACT_BUCKETS = 4_096


def dataset_quantiles_exact(ds, column: str, qs, *,
                            collect_threshold: int = QEXACT_COLLECT_THRESHOLD,
                            n_buckets: int = QEXACT_BUCKETS):
    """Exact linear-interpolated global quantiles (numpy 'linear' ==
    DuckDB ``quantile_cont``) of an int64 Dataset column WITHOUT
    collecting the column to the driver.

    Scale shape: one count/min/max aggregate finds the needed order
    statistics; then an iterative bucket-count refinement locates each —
    every pass is one ``map_batches`` histogram partial (``n_buckets``
    rows per state) + a tiny groupby, narrowing the candidate value range
    ~``n_buckets``x, and ALL ranks refine jointly in the same scans.  The
    final in-range slice (≤ ``collect_threshold`` rows per rank, by the
    loop guard) is the only raw-value collect.  Integer domains converge
    in O(log_buckets(range)) passes — 3 for ns-scale ranges — so pass a
    ``materialize()``d dataset when upstream is an expensive pipeline.

    Returns ``(n, {q: value})``; empty input gives ``(0, {q: nan})``.
    """
    from ray.data.aggregate import Count, Max, Min

    agg = ds.aggregate(Count(), Min(column), Max(column))
    n = int((agg or {}).get("count()") or 0)
    if n == 0:
        return 0, {q: float("nan") for q in qs}
    lo0, hi0 = int(agg[f"min({column})"]), int(agg[f"max({column})"])

    # 0-based order statistics needed for linear interpolation
    ranks = sorted({int(np.floor((n - 1) * q)) for q in qs}
                   | {int(np.ceil((n - 1) * q)) for q in qs})
    picked = _order_statistics(ds, column, ranks, lo0, hi0, n,
                               collect_threshold, n_buckets)
    out = {}
    for q in qs:
        h = (n - 1) * q
        k0, k1 = int(np.floor(h)), int(np.ceil(h))
        v0, v1 = float(picked[k0]), float(picked[k1])
        out[q] = v0 + (h - k0) * (v1 - v0)
    return n, out


def _order_statistics(ds, column: str, ranks, lo: int, hi: int, n: int,
                      collect_threshold: int, n_buckets: int) -> dict:
    """Values at the given 0-based global ranks of ``ds[column]`` (int).
    Joint bucket-count refinement: all ranks share each scan."""
    # state per rank: (rank-within-range, range_lo, range_hi, rows-in-range)
    states = {i: [k, lo, hi, n] for i, k in enumerate(ranks)}

    def _active():
        return [i for i, (k, lo_, hi_, cnt) in states.items()
                if hi_ > lo_ and cnt > collect_threshold]

    while True:
        act = _active()
        if not act:
            break
        specs = {
            i: (states[i][1], states[i][2],
                max((states[i][2] - states[i][1] + n_buckets) // n_buckets,
                    1))
            for i in act
        }

        def _hist(batch: pa.Table, specs=specs) -> pa.Table:
            v = batch.column(column).to_numpy(zero_copy_only=False)
            sids, bids, cnts = [], [], []
            for i, (lo_, hi_, w_) in specs.items():
                vv = v[(v >= lo_) & (v <= hi_)]
                if len(vv) == 0:
                    continue
                c = np.bincount((vv - lo_) // w_)
                nz = np.nonzero(c)[0]
                sids.append(np.full(len(nz), i, np.int64))
                bids.append(nz.astype(np.int64))
                cnts.append(c[nz].astype(np.int64))
            if not sids:
                return pa.table({"sid": pa.array([], pa.int64()),
                                 "bucket": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            return pa.table({"sid": pa.array(np.concatenate(sids)),
                             "bucket": pa.array(np.concatenate(bids)),
                             "cnt": pa.array(np.concatenate(cnts))})

        hist = (
            ds.map_batches(_hist, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(["sid", "bucket"]).sum("cnt")
        ).take_all()  # ≤ n_buckets rows per active rank
        by_sid: dict = {}
        for r in hist:
            by_sid.setdefault(int(r["sid"]), []).append(
                (int(r["bucket"]), int(r["sum(cnt)"])))
        for i in act:
            k, lo_, hi_, _ = states[i]
            w_ = specs[i][2]
            cum = 0
            for b, c in sorted(by_sid.get(i, [])):
                if cum + c > k:
                    states[i] = [k - cum, lo_ + b * w_,
                                 min(lo_ + (b + 1) * w_ - 1, hi_), c]
                    break
                cum += c
            else:
                raise AssertionError(
                    f"rank {k} beyond range count (histogram lost rows)")

    # single-point ranges answer directly; the rest collect one bounded
    # slice each (all slices gathered in ONE pass)
    out = {}
    pending = {}
    for i, (k, lo_, hi_, cnt) in states.items():
        if hi_ == lo_:
            out[ranks[i]] = lo_
        else:
            pending[i] = (k, lo_, hi_)
    if pending:
        specs2 = {i: (lo_, hi_) for i, (k, lo_, hi_) in pending.items()}

        def _slice(batch: pa.Table, specs2=specs2) -> pa.Table:
            v = batch.column(column).to_numpy(zero_copy_only=False)
            sids, vals = [], []
            for i, (lo_, hi_) in specs2.items():
                vv = v[(v >= lo_) & (v <= hi_)]
                if len(vv):
                    sids.append(np.full(len(vv), i, np.int64))
                    vals.append(vv.astype(np.int64))
            if not sids:
                return pa.table({"sid": pa.array([], pa.int64()),
                                 "val": pa.array([], pa.int64())})
            return pa.table({"sid": pa.array(np.concatenate(sids)),
                             "val": pa.array(np.concatenate(vals))})

        rows = ds.map_batches(_slice, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
        sid_arr = np.fromiter((r["sid"] for r in rows), np.int64,
                              count=len(rows))
        val_arr = np.fromiter((r["val"] for r in rows), np.int64,
                              count=len(rows))
        for i, (k, lo_, hi_) in pending.items():
            vals = val_arr[sid_arr == i]
            out[ranks[i]] = int(np.partition(vals, k)[k])
    return out


# ---------------------------------------------------------------------------
# HLL tier cascade: distinct users per day, direct vs merged-from-1h
# ---------------------------------------------------------------------------

HLL_TIER_P = 8  # 256 registers/window (~6.5% se) — windows are many, keep
                # the per-window state small; the CASCADE property being
                # demonstrated is register-exact at any p

HOUR_NS_HLL = 3_600_000_000_000
DAY_NS_HLL = 24 * HOUR_NS_HLL


def hll_window_cascade(events_ds, *, p: int = HLL_TIER_P,
                       num_shards: int = 32):
    """Distinct-user estimates per DAY computed two ways — directly from
    raw events, and by max-merging the 1h tier's HLL registers up to 1d
    — demonstrating the property exact distinct counts lack: HLL
    registers CASCADE through the retention ladder (1m->1h->1d) exactly
    like sum/count/min/max do, so coarser tiers derive from finer tiers
    without re-reading raw data.  Register max-merge is associative, so
    ``est_cascaded == est_direct`` REGISTER-EXACTLY (asserted per row in
    the output and pinned with an error-vs-exact bound in pytest).

    Scale shape: the per-block combiner emits one (window, registers)
    row per block x 1h window (2^p bytes each, never raw events); each
    tier merge is one window-sharded groupby over those partials; the
    final day-level join of the two paths moves |days| rows.
    """
    def _partials(day_key: bool):
        window_ns = DAY_NS_HLL if day_key else HOUR_NS_HLL

        def _fn(batch: pa.Table) -> pa.Table:
            from ._util import hash_shards

            m = 1 << p
            ts = batch.column("ts").cast(pa.timestamp("ns")) \
                .cast(pa.int64()).to_numpy(zero_copy_only=False)
            win = ts // window_ns * window_ns
            vals = batch.column("user_id").to_pandas().astype(str)
            idx, rank = _hll_ranks(_hash64(vals), p)
            order = np.argsort(win, kind="stable")
            starts = np.r_[0, np.where(np.diff(win[order]) != 0)[0] + 1]
            uwins = win[order][starts]
            blobs = []
            ends = np.r_[starts[1:], len(order)]
            for s, e in zip(starts, ends):
                regs = np.zeros(m, dtype=np.uint8)
                sel = order[s:e]
                np.maximum.at(regs, idx[sel], rank[sel])
                blobs.append(regs.tobytes())
            return pa.table({
                "window_ns": pa.array(uwins, pa.int64()),
                "registers": pa.array(blobs, pa.binary()),
                "shard": pa.array(hash_shards(uwins, num_shards),
                                  pa.int32()),
            })
        return _fn

    def _merge_regs(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for w, g in df.groupby("window_ns", sort=True):
            merged = np.zeros(1 << p, dtype=np.uint8)
            for blob in g["registers"]:
                merged = np.maximum(merged,
                                    np.frombuffer(blob, dtype=np.uint8))
            rows.append((int(w), merged.tobytes()))
        return pd.DataFrame(rows, columns=["window_ns", "registers"])

    def _tier(ds, keyer):
        return (
            ds.map_batches(keyer, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("shard").map_groups(_merge_regs,
                                         batch_format="pandas")
        )

    hourly = _tier(events_ds, _partials(day_key=False))

    def _to_day(batch: pa.Table) -> pa.Table:
        from ._util import hash_shards

        day = batch.column("window_ns").to_numpy(zero_copy_only=False) \
            // DAY_NS_HLL * DAY_NS_HLL
        return pa.table({
            "window_ns": pa.array(day, pa.int64()),
            "registers": batch.column("registers"),
            "shard": pa.array(hash_shards(day, num_shards), pa.int32()),
        })

    cascaded = _tier(hourly, _to_day)
    direct = _tier(events_ds, _partials(day_key=True))

    # day-level: tiny relations (|days| rows) -> driver-side align
    c = cascaded.to_pandas().set_index("window_ns")
    d = direct.to_pandas().set_index("window_ns")
    days = sorted(set(c.index) | set(d.index))
    out = []
    for day in days:
        rc = np.frombuffer(c.loc[day, "registers"], dtype=np.uint8)
        rd = np.frombuffer(d.loc[day, "registers"], dtype=np.uint8)
        out.append((
            int(day),
            round(hll_estimate([rc.tobytes()], p), 6),
            round(hll_estimate([rd.tobytes()], p), 6),
            bool(np.array_equal(rc, rd)),
        ))
    import ray
    return ray.data.from_pandas(pd.DataFrame(
        out, columns=["day_ns", "est_cascaded", "est_direct",
                      "registers_equal"]))


def _q_hll_cascade(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "user_id"])
    return hll_window_cascade(ds)


register("events_hll_1d_cascade", _q_hll_cascade)  # approximate -> rows-only


#: 3-sigma band for the tier cascade's p=8 registers (se = 1.04/sqrt(256))
HLL_TIER_3SIGMA = 3 * 1.04 / ((1 << HLL_TIER_P) ** 0.5)


def _q_hll_1d_vs_exact(sf_dir: str):
    """Structural oracle for the per-day HLL cascade (round-4: shrink the
    rows-only surface): the EXACT per-day distinct-user count
    (SQL-checkable) next to driver-hashed guarantee flags — the cascaded
    and direct register paths agree register-exactly, and the estimate
    lands within 3 sigma of the exact count.  A silent bug in the
    register merge or the rank extraction flips a hashed flag."""
    import ray

    from ._util import collect, sharded_aggregate
    from .tpch import _sharded_distinct

    casc = _q_hll_cascade(sf_dir).to_pandas()

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "user_id"])

    def _day_user(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("ns")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // DAY_NS_HLL * DAY_NS_HLL
        return pa.table({
            "day_ns": pa.array(day, pa.int64()),
            "user_id": batch.column("user_id"),
        })

    pairs = _sharded_distinct(
        ds.map_batches(_day_user, batch_format="pyarrow",
                       zero_copy_batch=True),
        pa.schema([("day_ns", pa.int64()), ("user_id", pa.int64())]),
        "user_id")
    # the distinct users of each day, on one exchange keyed on the day
    exact = collect(sharded_aggregate(
        pairs, lambda t: t.group_by("day_ns").aggregate([("day_ns", "count")]),
        lambda df: df.groupby("day_ns", sort=False)["day_ns_count"].sum()
        .reset_index(name="exact_distinct"),
        pa.schema([("day_ns", pa.int64()), ("exact_distinct", pa.int64())]),
        key="day_ns"))
    m = casc.merge(exact, left_on="day_ns", right_on="day_ns", how="outer")
    ok = ((m["est_direct"] - m["exact_distinct"]).abs()
          <= HLL_TIER_3SIGMA * m["exact_distinct"])
    m = m.sort_values("day_ns")
    return pa.table({
        "day_ns": pa.array(m["day_ns"].astype("int64"), pa.int64()),
        "exact_distinct": pa.array(m["exact_distinct"].astype("int64"),
                                   pa.int64()),
        "registers_equal": pa.array(m["registers_equal"].astype(bool),
                                    pa.bool_()),
        "hll_within_3sigma": pa.array(ok.astype(bool), pa.bool_()),
    })


register(
    "events_hll_1d_vs_exact",
    _q_hll_1d_vs_exact,
    """
    SELECT CAST(epoch_ns(date_trunc('day', ts)) AS BIGINT) AS day_ns,
           CAST(count(DISTINCT user_id) AS BIGINT) AS exact_distinct,
           TRUE AS registers_equal,
           TRUE AS hll_within_3sigma
    FROM events
    GROUP BY 1
    ORDER BY 1
    """,
)


def _q_quantile_vs_exact(sf_dir: str):
    """Structural oracle for the mergeable quantile sketch: per
    event_type the EXACT row count (SQL-checkable) plus driver-hashed
    flags that each sketch percentile's TRUE rank interval
    [count(v < est), count(v <= est)] intersects the guaranteed window
    pct*n ± (n/(2*cap) + 2) — the sketch's own rank-error bound
    (``qsketch_compress`` docstring) made driver-visible."""
    import ray

    est = _q_quantile_sketch(sf_dir).to_pandas().set_index("event_type")

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    # one pass: per (key, pct) partial counts of v < est and v <= est
    est_map = {k: [float(est.loc[k, f"p{int(p * 100)}"]) for p in PCTS]
               for k in est.index}

    def _ranks(batch: pa.Table) -> pa.Table:
        df = pa.table({"k": batch.column("event_type"),
                       "v": batch.column("value")}).to_pandas()
        rows = []
        for k, g in df.groupby("k", sort=False):
            v = g["v"].to_numpy(dtype=np.float64)
            for pi, q in enumerate(est_map.get(k, [])):
                rows.append((k, pi, int((v < q).sum()),
                             int((v <= q).sum()), len(v)))
        return pa.table({
            "k": pa.array([r[0] for r in rows], pa.string()),
            "pi": pa.array([r[1] for r in rows], pa.int32()),
            "lt": pa.array([r[2] for r in rows], pa.int64()),
            "le": pa.array([r[3] for r in rows], pa.int64()),
            "n": pa.array([r[4] for r in rows], pa.int64()),
        })

    parts = pd.DataFrame(ds.map_batches(
        _ranks, batch_format="pyarrow", zero_copy_batch=True).take_all())
    agg = parts.groupby(["k", "pi"]).sum().reset_index()
    out_rows = []
    for k in sorted(est.index):
        g = agg[agg["k"] == k].set_index("pi")
        n = int(g["n"].iloc[0])
        flags = []
        for pi, p in enumerate(PCTS):
            err = n / (2 * QSK_CAP) + 2
            lo, hi = p * n - err, p * n + err
            flags.append(bool(g.loc[pi, "le"] >= lo and g.loc[pi, "lt"] <= hi))
        out_rows.append((k, n, *flags))
    cols = list(zip(*out_rows))
    names = ["event_type", "n"] + [f"p{int(p * 100)}_rank_ok" for p in PCTS]
    arrays = [pa.array(cols[0], pa.string()), pa.array(cols[1], pa.int64())]
    arrays += [pa.array(c, pa.bool_()) for c in cols[2:]]
    return pa.table(dict(zip(names, arrays)))


register(
    "events_quantile_vs_exact",
    _q_quantile_vs_exact,
    """
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS n,
           TRUE AS p50_rank_ok,
           TRUE AS p90_rank_ok,
           TRUE AS p99_rank_ok
    FROM events
    GROUP BY event_type
    ORDER BY event_type
    """,
)
