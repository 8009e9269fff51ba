"""Checkpoint / lineage / resume for partitioned pipeline outputs.

Requirement (BASELINE.json north_rule): a killed job resumes without
recomputing or double-counting rollups, with per-partition lineage +
metrics.  Design:

* Output is partitioned: shard ``s`` of a stage writes to
  ``<out_dir>/shard=<s>/`` via **write-to-temp + atomic rename** — a
  partition directory either exists completely or not at all.  The job
  publishes each shard's Gorilla chunks to ``<chunks_dir>/shard=<s>/`` first.
* Each completed shard appends a lineage record to
  ``<out_dir>/_manifest/<shard>.json`` (one file per shard, so concurrent
  writers never contend): input fragments, row count, min/max event
  timestamp (the shard watermark), value checksum, commit and compute
  time, chunk rows and checksum.  Written last: a record implies its files.
* Resume = read the manifest directory, skip shards whose record exists
  AND whose partition directory exists; recompute the rest.  A shard task
  sums its whole shard in one sorted pass, so with deterministic
  extraction (no wall-clock fallback) a re-run of an incomplete shard is
  value-identical to the fresh run: no double counting.

The shard axis is ``hash(series_key) % num_shards`` and it is the key of
the one wide operation in the pipeline: samples shuffle by shard, so
restart granularity is the unit of work (SURVEY.md §4).  ``_exchange``
is that shuffle.  The job (``run_sharded_rollup``) calls it directly, and
every other per-series path (ladder, tier merge, chunking, compaction,
hopping windows, the pipelines' sharded aggregates) through
``shard_apply``, its ``Dataset`` form: one task call per non-empty shard,
never one per series.  It is a direct exchange of plain Ray tasks, not a
Ray Data ``groupby``: the map side (a Ray Data plan's blocks, or plain
map tasks such as the job's read + extract) splits its rows by shard id,
and each shard task reads only its own slices.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


#: The job's ``num_shards`` default, and the shard count of every
#: per-series path that does not checkpoint.
NUM_SHARDS = 64


def shard_of(series_key: str, num_shards: int) -> int:
    """Stable shard id (md5-based — never Python's salted hash())."""
    h = hashlib.md5(series_key.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") % num_shards


def add_shard_column(batch: pa.Table, num_shards: int,
                     key_column: str = "series_key") -> pa.Table:
    """Vectorized shard assignment: dictionary-encode the key column and
    md5-hash only the UNIQUE keys (series-key cardinality is tiny next to
    row count), then gather by index — round 1 hashed every row in Python
    on the resumable-job hot path.  Same ``shard_of`` md5, so existing
    manifests stay valid.  A non-string key (an integer id, a day number)
    hashes through its string form, and every null key goes to shard 0."""
    col = batch.column(key_column)
    if not pa.types.is_string(col.type):
        col = pc.cast(col, pa.string())
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out = []
    for chunk in chunks:
        enc = chunk.dictionary_encode()
        # one trailing slot for the null key
        lut = np.array(
            [shard_of(k, num_shards) for k in enc.dictionary.to_pylist()]
            + [0], dtype=np.int32,
        )
        idx = pc.fill_null(enc.indices, len(lut) - 1).to_numpy()
        out.append(lut[idx])
    shards = pa.chunked_array(
        [pa.array(a, pa.int32()) for a in out]
    ) if out else pa.array([], pa.int32())
    return batch.append_column("shard", shards)


def lex_ranks(col):
    """String column -> (int64 rank per row, distinct values in rank
    order followed by one null).

    Ranks are lexicographic: Arrow compares UTF-8 bytes, and UTF-8 byte
    order is code-point order, which is Python's ``str`` order, so sorting
    ranks sorts the strings.  A null ranks after every string (its rank
    is the count of distinct strings), so ``uniques.take(ranks)`` gathers
    the strings back, nulls included.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    order = pc.sort_indices(enc.dictionary).to_numpy()
    rank = np.empty(len(order) + 1, np.int64)
    rank[order] = np.arange(len(order))
    rank[-1] = len(order)
    # a null index would turn into a NaN float in to_numpy
    idx = pc.fill_null(enc.indices, len(order)).to_numpy()
    return rank[idx], pa.concat_arrays(
        [enc.dictionary.take(order), pa.nulls(1, enc.dictionary.type)])


class ShardSamples:
    """One shard task's samples, rank-coded once and sorted once.

    ``series`` and ``doc`` are ``lex_ranks`` of ``series_key`` and
    ``doc_id``, with ``keys`` and ``docs`` their distinct strings.
    ``order`` sorts the rows by ``(series_key, ts, doc_id,
    sample_ordinal)``, ties in row order; the rollup partials take its
    numeric rows, the Gorilla chunk writer all of them.  The two rank a
    null ``doc_id`` differently (partials before every string, chunks
    after), so a shard with a null ``doc_id`` sorts twice.
    """

    #: the sample columns it reads
    COLUMNS = ["series_key", "ts", "value_num", "value_kind", "doc_id",
               "sample_ordinal"]

    def __init__(self, table: pa.Table):
        self.series, self.keys = lex_ranks(table.column("series_key"))
        doc_id = table.column("doc_id")
        self.doc, self.docs = lex_ranks(doc_id)
        self._null_docs = doc_id.null_count > 0
        self.ts = table.column("ts").cast(pa.int64()).to_numpy()
        self.values = table.column("value_num").to_numpy(
            zero_copy_only=False)
        self.numeric = table.column("value_kind").to_numpy(
            zero_copy_only=False) == 1
        self.ordinal = table.column("sample_ordinal").cast(
            pa.int64()).to_numpy()
        self._orders = {}

    def order(self, *, nulls_first: bool, numeric: bool = False):
        """Row indices in ``(series_key, ts, doc_id, sample_ordinal)``
        order, a null ``doc_id`` first or last; only the numeric rows
        (``value_kind == 1``) with ``numeric``."""
        key = nulls_first and self._null_docs
        if key not in self._orders:
            doc = np.where(self.doc == len(self.docs) - 1, -1,
                           self.doc) if key else self.doc
            self._orders[key] = np.lexsort(
                (self.ordinal, doc, self.ts, self.series))
        order = self._orders[key]
        return order[self.numeric[order]] if numeric else order


def _ipc_stream(table: pa.Table) -> pa.Buffer:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue()


def _tag(batch: pa.Table, num_shards: int, key: str,
         skip: np.ndarray) -> pa.Table:
    """Map side of the exchange: tag every row with the ``shard`` of its
    ``key`` (replacing any ``shard`` column), drop the rows of shards
    ``skip`` marks, and sort the rest stably by ``shard``."""
    if "shard" in batch.column_names:
        batch = batch.drop_columns(["shard"])
    t = add_shard_column(batch, num_shards, key)
    shard = t.column("shard").to_numpy()
    order = np.argsort(shard, kind="stable")
    return t.take(order[~skip[shard[order]]])


def _split_block(block: pa.Table, num_shards: int):
    """One map block, sorted by ``shard`` -> its row count per shard, then
    one slice per shard as an Arrow IPC stream (``None`` for an empty
    one).  A stream serializes in a quarter of the time Ray takes for a
    table, and reads back zero-copy."""
    counts = np.bincount(block.column("shard").to_numpy(),
                         minlength=num_shards)
    starts = np.cumsum(counts) - counts
    return (counts, *(_ipc_stream(block.slice(s, n)) if n else None
                      for s, n in zip(starts, counts)))


def _map_task(num_shards: int, key: str, skip: np.ndarray, fn, *args):
    """One map input of the exchange: ``fn(*args)``, tagged and split
    by shard in the same task -> ``_split_block``'s output."""
    return _split_block(_tag(fn(*args), num_shards, key, skip), num_shards)


def _to_arrow(block) -> pa.Table:
    """A Ray Data block (Arrow or pandas) as an Arrow table."""
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def _shard_task(fn, *slices: pa.Buffer):
    """One whole shard: its slices of every map block, one ``fn`` call."""
    return fn(pa.concat_tables(
        [pa.ipc.open_stream(s).read_all() for s in slices],
        promote_options="permissive"))


def _as_block(fn, table: pa.Table):
    """``shard_apply``'s shard body: ``fn(table)`` as an Arrow table ->
    (its Ray Data block metadata, the table)."""
    from ray.data._internal.util import get_table_block_metadata_schema

    out = fn(table)
    out = out if isinstance(out, pa.Table) else pa.table(out)
    return get_table_block_metadata_schema(out), out


@functools.cache
def _ray_tasks():
    """``_map_task`` and ``_shard_task`` as Ray tasks, made on first use:
    importing this module does not import Ray."""
    import ray

    return ray.remote(_map_task), ray.remote(_shard_task)


def data_context():
    """Ray Data's current ``DataContext``.  Ray 2.49's ``DataContext()``
    assigns its own defaults for the deprecated ``use_push_based_shuffle``
    and ``use_polars`` through the setter that warns about them, so the
    call that builds a process's context would emit two
    ``DeprecationWarning``s about settings nobody made: they are silenced
    here, and only here."""
    import warnings

    from ray.data.context import DataContext

    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"`use_(push_based_shuffle|polars)` is deprecated",
            DeprecationWarning)
        return DataContext.get_current()


def _from_arrow_refs(tables, metas):
    """``ray.data.from_arrow_refs(tables)`` given the tables' block
    metadata: Ray's would start one more task per table to compute it."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": metas}, parent=None),
        data_context().copy())
    return MaterializedDataset(
        plan, LogicalPlan(FromArrow(tables, metas), plan._context))


def _exchange(ds, fn, num_shards: int, skip_shards=(),
              key: str = "series_key", num_returns: int = 1) -> list:
    """The direct exchange behind ``shard_apply`` (which documents it):
    map, tag and split every map input, fetch the counts, and start one
    ``_shard_task`` per non-empty shard -> the shard tasks' output refs in
    shard order, not waited on (a list of ``num_returns`` refs each when
    ``num_returns > 1``).  Raises the error of a failed map task."""
    import ray

    skip = np.zeros(num_shards, bool)
    skip[list(skip_shards)] = True
    map_task, shard_task = _ray_tasks()
    if not isinstance(ds, list):
        # lazily: a block's map task starts as the block arrives
        ds = ((_to_arrow, block)
              for bundle in ds.iter_internal_ref_bundles()
              for block, meta in bundle.blocks if meta.num_rows != 0)
    mapped = map_task.options(num_returns=num_shards + 1)
    parts = [mapped.remote(num_shards, key, skip, *inp) for inp in ds]
    counts = np.array(ray.get([p[0] for p in parts]),
                      np.int64).reshape(len(parts), num_shards)
    fn_ref = ray.put(fn)
    shard_task = shard_task.options(num_returns=num_returns)
    return [shard_task.remote(fn_ref, *(p[1 + s] for p, n in
                                        zip(parts, counts[:, s]) if n))
            for s in np.flatnonzero(counts.sum(axis=0))]


def shard_apply(ds, fn, num_shards: int = NUM_SHARDS, *, skip_shards=(),
                key: str = "series_key"):
    """The one shard-keyed shuffle: tag every row map-side with the
    ``shard`` of its ``key`` column (``add_shard_column``), drop rows of
    ``skip_shards``, then call ``fn`` once per whole non-empty shard.

    ``fn`` takes an Arrow table and returns one (or a dict of columns):
    all rows of many series at once (and the ``shard`` column, replacing
    any input one, e.g. a store's hive partition key), so per-series work
    must be vectorized over ``series_key`` segments.  A task holds one
    shard: ``num_shards`` bounds its memory.

    The exchange (``_exchange``) is direct, since every row's shard is
    known map-side.  ``ds`` is the map side: a list of map inputs
    ``(f, *args)``, or a ``ray.data.Dataset``, whose plan runs at full
    cluster width (a materialized one runs none) and streams its blocks
    to the calling process as object refs, each block one map input that
    its map task makes an Arrow table (``_to_arrow``).  One plain Ray task
    per map input (``_map_task``) calls ``f(*args)`` (Ray resolves
    object-ref arguments), tags its rows with their shard and sorts them
    by it (``_tag``), and returns its row count per shard and one slice
    per shard (``_split_block``).  The caller fetches only the counts,
    then starts one ``_shard_task`` per non-empty shard on that shard's
    slices.  No row reaches the caller, and no Ray Data plan holds an
    all-to-all operator: Ray's sort-based ``groupby`` would add a
    sampling pass, a sort, a merge and tasks for empty key ranges.

    This wrapper is the exchange's ``Dataset`` form: each shard task also
    computes its output's block metadata (``_as_block``), and the outputs
    become a materialized ``Dataset`` in shard order.  Apart from a
    ``Dataset`` map side, building it is the only Ray Data step, and the
    first ``Dataset`` of a Ray session starts Ray Data's stats actor (a
    worker process, about a second on a 4-CPU host).  The job
    (``run_sharded_rollup``) calls the exchange directly and builds no
    ``Dataset``.

    Runs when called, not lazily: it returns once every shard task has
    finished (raising the error of a failed map or shard task).  A shard
    task that Ray retries calls ``fn`` again on the same rows.
    """
    import ray

    out = _exchange(ds, functools.partial(_as_block, fn), num_shards,
                    skip_shards, key, num_returns=2)
    # raises the error of a failed shard task
    metas = ray.get([meta for meta, _ in out])
    return _from_arrow_refs([table for _, table in out], metas)


def _fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    """Durably record a directory entry (rename target / new file)."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _checksum_table(table: pa.Table) -> str:
    """Order-insensitive value checksum: per-row hashes SUM-folded mod
    2^64 (with the row count appended).  Sum, not xor: an xor fold is
    blind to rows duplicated an even number of times — exactly the
    double-counting corruption the lineage record exists to detect.
    Vectorized (pandas' stable row hash), not a per-row Python loop —
    the commit path runs this on every shard."""
    if table.num_rows == 0:
        return "0" * 16 + "-0"
    import pandas as pd

    df = table.select(sorted(table.column_names)).to_pandas()
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    with np.errstate(over="ignore"):
        acc = int(np.sum(h, dtype=np.uint64))
    return f"{acc:016x}-{len(h)}"


def _publish_partition(final_dir: str, table: pa.Table) -> None:
    """Atomically publish one partition dir: tmp write -> fsync -> rename.
    An empty table (a shard of string-only series rolls up nothing) gives
    an empty dir: a 0-row file would type its strings as null and break
    readers that take the schema from the first file."""
    # per-attempt tmp name: a retried task racing a presumed-dead
    # worker must never rmtree the other attempt's in-progress dir
    # and publish a partial shard — whichever attempt renames last
    # wins atomically
    tmp_dir = f"{final_dir}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp_dir)
    if table.num_rows:
        part_path = os.path.join(tmp_dir, "part-0.parquet")
        # no min/max statistics on binary blobs (Gorilla chunks): nothing
        # filters on them, and each page and footer would copy two blobs
        pq.write_table(table, part_path, write_statistics=[
            f.name for f in table.schema if not pa.types.is_binary(f.type)])
        _fsync_path(part_path)
    _fsync_dir(tmp_dir)
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.rename(tmp_dir, final_dir)
    _fsync_dir(os.path.dirname(final_dir))
    # best-effort sweep of stale tmp dirs left by dead attempts
    for stale in glob.glob(f"{final_dir}.tmp.*"):
        shutil.rmtree(stale, ignore_errors=True)


class CheckpointManifest:
    """Per-(stage-output) manifest directory with one record per shard."""

    def __init__(self, out_dir: str, chunks_dir: str | None = None):
        self.out_dir = out_dir
        self.chunks_dir = chunks_dir
        self.manifest_dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.manifest_dir, exist_ok=True)

    def record_path(self, shard: int) -> str:
        return os.path.join(self.manifest_dir, f"shard-{shard:05d}.json")

    def ensure_sharding(self, num_shards: int) -> None:
        """Pin the shard count on first run; REFUSE a resume under a
        different one.  Shard ids from a 64-way run are meaningless to a
        32-way rerun — silently mixing them drops some series from
        recompute while their data never lands (the exact missing/
        double-counted outcome resume exists to prevent)."""
        meta_path = os.path.join(self.manifest_dir, "_meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                stored = json.load(f).get("num_shards")
            if stored != num_shards:
                raise ValueError(
                    f"manifest at {self.manifest_dir} was written with "
                    f"num_shards={stored}; resuming with {num_shards} would "
                    "mix incompatible shardings — rerun with the original "
                    "value or start a fresh output_dir"
                )
            return
        tmp = meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"num_shards": num_shards}, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, meta_path)
        _fsync_dir(self.manifest_dir)

    def shard_dir(self, shard: int) -> str:
        return os.path.join(self.out_dir, f"shard={shard:05d}")

    def chunk_dir(self, shard: int) -> str:
        return os.path.join(self.chunks_dir, f"shard={shard:05d}")

    def completed_shards(self) -> set:
        done = set()
        for name in os.listdir(self.manifest_dir):
            if not name.startswith("shard-") or not name.endswith(".json"):
                continue
            shard = int(name[len("shard-"):-len(".json")])
            if os.path.isdir(self.shard_dir(shard)):
                done.add(shard)
        return done

    def load_record(self, shard: int) -> dict:
        with open(self.record_path(shard)) as f:
            return json.load(f)

    def commit_shard(self, shard: int, table: pa.Table, *,
                     chunks: pa.Table | None = None,
                     input_fragments=(), extra: dict | None = None) -> dict:
        """Atomically publish one shard: its chunk file (when ``chunks`` is
        given), then its rollup file, each by tmp write -> fsync -> rename,
        then the lineage record (record last => record implies data)."""
        t0 = time.perf_counter()
        if chunks is not None:
            _publish_partition(self.chunk_dir(shard), chunks)
        _publish_partition(self.shard_dir(shard), table)

        ts_col = None
        for cand in ("ts", "window_start", "last_ts"):
            if cand in table.column_names:
                ts_col = cand
                break
        record = {
            "shard": shard,
            "rows": table.num_rows,
            "input_fragments": list(input_fragments),
            "checksum": _checksum_table(table),
            "watermark_min": None,
            "watermark_max": None,
            "wall_s": round(time.perf_counter() - t0, 4),
            "completed_at": time.time(),
        }
        if ts_col is not None and table.num_rows:
            col = table.column(ts_col)
            if pa.types.is_timestamp(col.type):
                col = col.cast(pa.int64())
            record["watermark_min"] = pc.min(col).as_py()
            record["watermark_max"] = pc.max(col).as_py()
        if chunks is not None:
            record["chunk_rows"] = chunks.num_rows
            record["chunk_checksum"] = _checksum_table(chunks)
        if extra:
            record.update(extra)
        tmp_rec = self.record_path(shard) + ".tmp"
        with open(tmp_rec, "w") as f:
            json.dump(record, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_rec, self.record_path(shard))
        _fsync_dir(self.manifest_dir)
        return record

    def metrics(self) -> dict:
        """Aggregate per-partition metrics across completed shards."""
        shards = sorted(self.completed_shards())
        recs = [self.load_record(s) for s in shards]
        return {
            "shards_completed": len(recs),
            "rows": sum(r["rows"] for r in recs),
            "watermark_max": max(
                (r["watermark_max"] for r in recs if r["watermark_max"] is not None),
                default=None,
            ),
            "wall_s_total": round(sum(r["wall_s"] for r in recs), 4),
            "compute_s_total": round(
                sum(r.get("compute_s", 0.0) for r in recs), 4),
        }


def run_sharded_rollup(samples, out_dir: str, num_shards: int, *,
                       tiers=("1m", "1h", "1d"), gap_fill=None,
                       chunks_dir: str | None = None,
                       chunk_bucket_ns: int | None = None):
    """Resumable rollup: shuffle samples once by shard, then roll up and
    commit every shard missing from the checkpoint manifest inside its
    group task; with ``chunks_dir``, also its Gorilla chunks (per series,
    or per series x ``chunk_bucket_ns`` bucket).

    ``samples`` is either form of ``shard_apply``'s map side: a samples
    ``Dataset`` (only ``ShardSamples.COLUMNS`` are exchanged), or a list
    of map inputs whose outputs hold those columns (``job.run_job``'s
    read + extract tasks, which select them themselves).  It calls the
    exchange (``_exchange``) directly and waits on each shard's id, so it
    builds no ``Dataset``, and on a list no task of it imports
    ``ray.data``: a job in a fresh Ray session starts no Ray Data stats
    actor.

    Returns (manifest, shards_run, shards_skipped).  Fresh and resumed runs
    take the same path: samples of completed shards are dropped before the
    shuffle (none on a fresh run) and only shards with samples get a task,
    so finished work is neither recomputed nor double-counted.  A retried
    task republishes its shard whole (``commit_shard``).

    A shard task rank-codes and sorts its samples once (``ShardSamples``);
    that one sort yields the first tier's partials and the chunk rows, the
    coarser tiers are integer merges (``stages/rollup.rollup_shard``), each
    followed by the segmented gap-fill when ``gap_fill`` is set, and both
    committed tables are built as Arrow, with no pandas round trip.  An
    unknown ``gap_fill`` is refused here, before any sample is read.  Each
    record's ``wall_s`` is the commit time, ``rollup_s`` the partials,
    cascade and gap-fill, ``encode_s`` the chunk rows, and ``compute_s``
    their total.  No shard output is read back: a shard task returns only
    its shard id, once its record is written.
    """
    import ray

    from ..stages.gapfill import check_gap_fill
    from ..stages.rollup import rollup_shard
    from .gorilla import GorillaChunkWriter

    check_gap_fill(gap_fill)
    manifest = CheckpointManifest(out_dir, chunks_dir)
    manifest.ensure_sharding(num_shards)  # refuse mismatched resumes
    done = sorted(manifest.completed_shards())
    writer = None if chunks_dir is None else GorillaChunkWriter(
        chunk_bucket_ns)

    # Commit each shard INSIDE its group task (atomic tmp+rename + manifest
    # record written by the worker) — the driver only collects the shard
    # ids, never the data.  Requires the output dirs to be on storage all
    # workers share (true single-node and for any cluster writing to
    # shared/object storage).
    def _rollup_and_commit(samples: pa.Table) -> int:
        shard = samples.column("shard")[0].as_py()
        t0 = time.perf_counter()
        # one rank coding and one sorted pass over the whole shard serve
        # the rollup and the chunks: sums do not depend on how the samples
        # were cut into blocks
        shard_samples = ShardSamples(samples)
        rolled = rollup_shard(shard_samples, tiers, gap_fill=gap_fill)
        t1 = time.perf_counter()
        chunks = None if writer is None else writer.chunks(shard_samples)
        t2 = time.perf_counter()
        CheckpointManifest(out_dir, chunks_dir).commit_shard(
            shard, rolled, chunks=chunks,
            extra={"compute_s": round(t2 - t0, 4),
                   "rollup_s": round(t1 - t0, 4),
                   "encode_s": round(t2 - t1, 4)})
        return shard

    if not isinstance(samples, list):
        samples = samples.select_columns(ShardSamples.COLUMNS)
    # returns once every shard task has committed (raising the error of a
    # failed one)
    run = ray.get(_exchange(samples, _rollup_and_commit, num_shards, done))
    return manifest, sorted(run), done


def manifest_report(out_dir: str) -> pa.Table:
    """All shard lineage records of one stage output as a queryable Arrow
    table — the per-partition metrics surface (rows, watermarks, commit
    time, compute time and its rollup and chunk-encoding parts, checksum)
    the north rule's "lineage + metrics" contract exposes to operators.
    One row per committed shard, read in the calling process by design
    (the manifest is #shards rows, not data)."""
    mgr = CheckpointManifest(out_dir)
    shards = sorted(mgr.completed_shards())
    recs = [mgr.load_record(s) for s in shards]
    return pa.table({
        "shard": pa.array([r["shard"] for r in recs], pa.int32()),
        "rows": pa.array([r["rows"] for r in recs], pa.int64()),
        "watermark_min": pa.array(
            [r.get("watermark_min") for r in recs], pa.int64()),
        "watermark_max": pa.array(
            [r.get("watermark_max") for r in recs], pa.int64()),
        **{k: pa.array([float(r.get(k, 0.0)) for r in recs], pa.float64())
           for k in ("wall_s", "compute_s", "rollup_s", "encode_s")},
        "checksum": pa.array(
            [r.get("checksum") for r in recs], pa.string()),
        "n_input_fragments": pa.array(
            [len(r.get("input_fragments", ())) for r in recs], pa.int64()),
    })
