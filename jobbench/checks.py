"""Output checks and exact counts for one job's output directory.

Every check returns a list of error strings; an empty list means the
output is correct.  Counts are read with pyarrow in this process, never
through the program under test.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from workload import sort_points

#: Columns compared bit-for-bit against the oracle.  ``sum`` and ``mean``
#: depend on how samples were split into blocks before the combiner (float
#: reassociation), so they are compared with a relative tolerance.
EXACT_COLUMNS = ("count", "min", "max", "last", "last_ts", "last_doc",
                 "last_ord")
FLOAT_RTOL = 1e-9


def read_rollups(out_dir: str):
    import pyarrow.dataset as pads

    return pads.dataset(os.path.join(out_dir, "rollups"),
                        format="parquet").to_table()


def rows_per_tier(rollups, tiers) -> dict:
    import pyarrow.compute as pc

    col = rollups.column("tier")
    return {t: int(pc.sum(pc.equal(col, t)).as_py() or 0) for t in tiers}


def compare_to_oracle(rollups, oracle) -> list:
    """Committed 1m/1h/1d rows against ``rollup_oracle`` over the same
    samples."""
    keys = ["tier", "series_key", "window_start"]
    got = rollups.to_pandas()
    if len(got) != len(oracle):
        return [f"rollup rows {len(got)} != oracle rows {len(oracle)}"]
    got = got.sort_values(keys, ignore_index=True)
    exp = oracle.sort_values(keys, ignore_index=True)
    errors = []
    for col in ("tier", "series_key"):
        if not (got[col].to_numpy() == exp[col].to_numpy()).all():
            errors.append(f"rollup column {col} differs from the oracle")
    for col in ("window_start",) + EXACT_COLUMNS:
        a, b = got[col].to_numpy(), exp[col].to_numpy()
        if a.dtype.kind == "M":
            a, b = a.astype("int64"), b.astype("int64")
        if not (a == b).all():
            errors.append(f"rollup column {col} differs from the oracle")
    for col in ("sum", "mean"):
        if not np.allclose(got[col].to_numpy(), exp[col].to_numpy(),
                           rtol=FLOAT_RTOL, atol=0.0):
            errors.append(f"rollup column {col} differs from the oracle "
                          f"beyond rtol {FLOAT_RTOL}")
    return errors


def shard_checksums(out_dir: str) -> dict:
    from json_time_series_extractor_ray.state.checkpoint import manifest_report

    rep = manifest_report(os.path.join(out_dir, "rollups"))
    return dict(zip(rep.column("shard").to_pylist(),
                    rep.column("checksum").to_pylist()))


def commit_wall_s(out_dir: str) -> list:
    from json_time_series_extractor_ray.state.checkpoint import manifest_report

    rep = manifest_report(os.path.join(out_dir, "rollups"))
    return rep.column("wall_s").to_pylist()


def compare_checksums(got: dict, ref: dict) -> list:
    if got == ref:
        return []
    diff = sorted(s for s in set(got) | set(ref) if got.get(s) != ref.get(s))
    return [f"manifest checksums differ from the reference on shards {diff}"]


def compare_points(decoded, expected) -> list:
    """Decoded chunk points against the numeric samples, as multisets."""
    if decoded.num_rows != expected.num_rows:
        return [f"decoded points {decoded.num_rows} != "
                f"expected {expected.num_rows}"]
    got = sort_points(decoded.select(["series_key", "ts_ns", "value_num"]))
    for col in ("series_key", "ts_ns", "value_num"):
        if not got.column(col).equals(expected.column(col)):
            return [f"decoded chunk column {col} differs from the samples"]
    return []


def range_expected(points, lo: int, hi: int):
    """Points a chunk-pruned range read returns: every point of each series
    whose chunk overlaps ``[lo, hi]`` (one chunk per series)."""
    import pyarrow.compute as pc

    grouped = points.group_by("series_key").aggregate(
        [("ts_ns", "min"), ("ts_ns", "max")])
    keep = grouped.filter(pc.and_(pc.greater_equal(grouped["ts_ns_max"], lo),
                                  pc.less_equal(grouped["ts_ns_min"], hi)))
    mask = pc.is_in(points.column("series_key"),
                    value_set=keep.column("series_key"))
    return points.filter(mask)


def chunk_summary(out_dir: str) -> dict:
    """Exact facts of the chunk store: rows, points, bytes, and a digest of
    the (series_key, chunk) multiset that a re-write must reproduce."""
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(out_dir, "chunks"),
                     format="parquet").to_table()
    keys = t.column("series_key").to_pylist()
    blobs = t.column("chunk").to_pylist()
    digest = hashlib.sha256()
    for k, b in sorted(zip(keys, blobs)):
        digest.update(k.encode())
        digest.update(hashlib.sha256(b).digest())
    chunk_bytes = sum(len(b) for b in blobs)
    raw = int(sum(t.column("raw_bytes").to_pylist()))
    return {
        "rows": t.num_rows,
        "points": int(sum(t.column("n_points").to_pylist())),
        "chunk_bytes": chunk_bytes,
        "raw_bytes": raw,
        "digest": digest.hexdigest()[:16],
    }


def store_bytes(out_dir: str) -> int:
    """Bytes of the Parquet data files under ``rollups/`` and ``chunks/``.
    Manifest records are left out: they carry wall times and dates."""
    total = 0
    for sub in ("rollups", "chunks"):
        for dirpath, _, filenames in os.walk(os.path.join(out_dir, sub)):
            for name in filenames:
                if name.endswith(".parquet"):
                    total += os.path.getsize(os.path.join(dirpath, name))
    return total


def crash_odd_shards(out_dir: str) -> list:
    """Simulate a crash after the even shards committed: delete the
    manifest records of the committed odd shards.  Returns those shards."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    mgr = CheckpointManifest(os.path.join(out_dir, "rollups"))
    removed = sorted(s for s in mgr.completed_shards() if s % 2 == 1)
    for s in removed:
        os.remove(mgr.record_path(s))
    return removed
