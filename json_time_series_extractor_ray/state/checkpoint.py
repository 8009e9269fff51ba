"""Checkpoint / lineage / resume for partitioned pipeline outputs.

Requirement (BASELINE.json north_rule): a killed job resumes without
recomputing or double-counting rollups, with per-partition lineage +
metrics.  The design is the Delta Lake log (Armbrust et al., VLDB 2020):

* Shard ``s`` of a store writes its files under fresh names,
  ``<store>/shard=<s>/part-<uuid>.parquet``, through the ``pyarrow.fs``
  filesystem of the store's path or URI, and renames nothing.  Its record
  ``<store>/_manifest/shard-<s>.json``, written last, is the commit: it
  names the files (path and size) and holds the shard's lineage (input
  fragments, rows, min/max event timestamp, value checksum, commit and
  compute time).  The job commits a shard's Gorilla chunks first, with
  their own record, the only record of their lineage; the rollup record
  is its commit point.
* The value checksum (``_checksum_table``) is ``"<16 hex>-<rows>"``: a
  64-bit hash per row, summed mod 2^64, so it ignores row order but sees
  a duplicated row.  A row hashes its columns in name order, each coded
  from its own bits (a number) or its rank among the table's distinct
  strings plus a blake2b digest of them (a string or binary value), and
  mixed with splitmix64's finalizer.  It is computed with Arrow and
  numpy alone and is stable across library versions.
* A shard is completed when its record exists and every file the record
  names exists.  Package reads of a store with a manifest take its files
  from the records (``CheckpointManifest.source``), so a dead attempt's
  file is never read, and the run that commits the shard deletes it.
* Resume = skip the completed shards and recompute the rest.  A shard
  task sums its whole shard in one sorted pass, so with deterministic
  extraction (no wall-clock fallback) a re-run of an incomplete shard is
  value-identical to the fresh run: no double counting.  ``_meta.json``
  pins the job's identity, so a resume under another one is refused.
* A store recomputed whole on every run (the job's side passes:
  ``commit_all``, ``rewrite``, ``commit_exchange(whole=True)``) is swept
  once its tasks return of every record and file they did not name: a
  rerun replaces it, never appends to it.

The shard axis is ``hash(series_key) % num_shards``, the key of the one
wide operation in the pipeline (SURVEY.md §4): ``_exchange``, a direct
exchange of plain Ray tasks, not a Ray Data ``groupby``.  The job
(``run_sharded_rollup``) calls it directly, and every other per-series
path (ladder, tier merge, chunking, compaction, hopping windows, the
pipelines' sharded aggregates) through ``shard_apply``, its ``Dataset``
form: one task call per non-empty shard, never one per series.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.fs as pafs
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
    """Vectorized shard assignment.  An integer key (an id, a day number)
    is cast to int64 and its shard is ``_mix(its bits) % num_shards``,
    one numpy pass: ``_mix`` is splitmix64's finalizer, the same hash
    ``pd.util.hash_array`` gives int64, so ``pipelines/_util.hash_shards``
    shards an int64 column alike.  A string key keeps ``shard_of``'s md5,
    so existing manifests stay valid: the column is dictionary-encoded,
    only the UNIQUE keys are hashed (series-key cardinality is tiny next
    to row count), then gathered by index.  A key of another type hashes
    through its string form.  Every null key goes to shard 0."""
    col = batch.column(key_column)
    if pa.types.is_integer(col.type):
        col = pc.cast(col, pa.int64(), safe=False)
        shards = (_mix(pc.fill_null(col, 0).to_numpy().astype(np.uint64))
                  % np.uint64(num_shards)).astype(np.int32)
        if col.null_count:
            shards[pc.is_null(col).to_numpy()] = 0
        return batch.append_column("shard", pa.array(shards))
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
    """String or binary column (an Array, or a ChunkedArray, whose chunks
    are not combined) -> (int64 rank per row, distinct values in rank
    order followed by one null).

    Ranks are lexicographic: Arrow compares UTF-8 bytes, and UTF-8 byte
    order is code-point order, which is Python's ``str`` order, so sorting
    ranks sorts the strings.  A null ranks after every string (its rank
    is the count of distinct strings), so ``uniques.take(ranks)`` gathers
    the strings back, nulls included.
    """
    enc = col.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        # the chunks index one dictionary, which the last one holds whole
        dictionary = enc.chunk(enc.num_chunks - 1).dictionary \
            if enc.num_chunks else pa.array([], col.type)
        idx = pa.chunked_array([c.indices for c in enc.chunks], pa.int32())
    else:
        dictionary, idx = enc.dictionary, enc.indices
    order = pc.sort_indices(dictionary).to_numpy()
    rank = np.empty(len(order) + 1, np.int64)
    rank[order] = np.arange(len(order))
    rank[-1] = len(order)
    if idx.null_count:  # a null index would be a NaN float in to_numpy
        idx = pc.fill_null(idx, len(order))
    return rank[idx.to_numpy()], pa.concat_arrays(
        [dictionary.take(order), pa.nulls(1, dictionary.type)])


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
    """Ray Data's current ``DataContext``, with the two
    ``DeprecationWarning``s silenced that Ray 2.49's ``DataContext()``
    emits about its own defaults for ``use_push_based_shuffle`` and
    ``use_polars``."""
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
    ``(f, *args)``, or a ``ray.data.Dataset`` whose blocks stream to the
    caller as object refs, each one map input (``_to_arrow``).  One plain
    Ray task per map input (``_map_task``) calls ``f(*args)``, tags and
    sorts its rows by shard (``_tag``) and returns its row count and one
    slice per shard (``_split_block``).  The caller fetches only the
    counts, then starts one ``_shard_task`` per non-empty shard on its
    slices.  No row reaches the caller, and no Ray Data plan holds an
    all-to-all operator (a sort-based ``groupby`` would add a sampling
    pass, a sort, a merge and tasks for empty key ranges).

    The outputs become a materialized ``Dataset`` in shard order (each
    shard task also computes its block metadata, ``_as_block``); the first
    ``Dataset`` of a Ray session starts Ray Data's stats actor (about a
    second on a 4-CPU host).

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


def _fsync(path: str) -> None:
    """Make a file's data, or a directory's entries, durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: splitmix64's finalizer (Steele, Lea and Flood, OOPSLA 2014)
_MIX = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFTS = np.uint64(30), np.uint64(27), np.uint64(31)
#: a null's code, whatever the column's type
_NULL = np.uint64(0x6E756C6C6E756C6C)
#: the weight of column ``i`` (in name order) is ``(2i + 1) * _GOLDEN``:
#: odd, so each is a bijection, and distinct, so the columns' order counts
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
#: Arrow type ids by how ``_checksum_table`` codes them
_TEXT = {t.id for t in (pa.string(), pa.binary())}
_WIDE_TEXT = {t.id for t in (pa.large_string(), pa.large_binary())}
_FLOAT = {t.id for t in (pa.float16(), pa.float32(), pa.float64())}
_INT = {t.id for t in (pa.bool_(), pa.int8(), pa.int16(), pa.int32(),
                       pa.int64(), pa.uint8(), pa.uint16(), pa.uint32(),
                       pa.uint64())}
_TIMESTAMP = pa.timestamp("ns").id
_LIST = {pa.list_(pa.int8()).id, pa.large_list(pa.int8()).id}


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a uint64 array, in place: a bijection
    whose every output bit depends on every input bit."""
    tmp = np.empty_like(x)
    for shift, mul in zip(_SHIFTS, _MIX):
        x ^= np.right_shift(x, shift, out=tmp)
        x *= mul
    x ^= np.right_shift(x, _SHIFTS[2], out=tmp)
    return x


def _digest(values: pa.Array) -> np.uint64:
    """blake2b (8 bytes) of a binary array: its value lengths as
    little-endian int64, then its value bytes."""
    h = hashlib.blake2b(digest_size=8)
    if len(values):
        _, offsets, data = values.buffers()
        off = np.frombuffer(offsets, np.int32, len(values) + 1,
                            4 * values.offset)
        h.update(np.diff(off).astype("<i8"))
        if off[-1] > off[0]:
            h.update(memoryview(data)[off[0]:off[-1]])
    return np.uint64(int.from_bytes(h.digest(), "little"))


def _number_codes(name: str, col: pa.Array, tid: int) -> np.ndarray:
    """A number, bool or timestamp column's codes (``tid`` is its type's
    id): the bits of its float64 or int64 value (a timestamp's int64 in
    its own unit, a uint64's own bits), read from its data buffer.  A
    null's slot holds any value."""
    if tid not in _FLOAT and tid not in _INT and tid != _TIMESTAMP:
        raise TypeError(f"lineage checksum: column {name!r} has unsupported "
                        f"type {col.type}")
    if col.type.bit_width != 64:
        col = col.cast(pa.float64() if tid in _FLOAT else pa.int64())
    return np.frombuffer(col.buffers()[1], np.uint64, len(col),
                         8 * col.offset)


def _text_codes(cols: list) -> np.ndarray:
    """The codes of a table's string and binary columns, one row each: a
    value's ``lex_ranks`` rank among the distinct values of all of them,
    plus the ``_digest`` of those values in rank order, which pins what
    the ranks stand for; a null's is ``_NULL``.  One ``lex_ranks`` serves
    every column: here a compute call costs more than its rows."""
    ranks, uniques = lex_ranks(pa.chunked_array(
        [c.view(pa.binary()) if c.type.id in _TEXT else c.cast(pa.binary())
         for c in cols]))
    lut = np.arange(len(uniques), dtype=np.uint64) + _digest(uniques[:-1])
    lut[-1] = _NULL
    return lut[ranks].reshape(len(cols), -1)


def _list_codes(name: str, col: pa.Array) -> np.ndarray:
    """A list column's codes: per row, its length plus the sum mod 2^64
    of its elements' ``_row_hashes``, each element hashed with its
    position in the list (a column named ``""``, which sorts first, so
    that an unsupported element type names the list's column)."""
    off = col.offsets.to_numpy().astype(np.int64)
    values = col.values.slice(off[0], off[-1] - off[0])
    off -= off[0]
    lengths = np.diff(off)
    cum = np.zeros(len(values) + 1, np.uint64)
    if len(values):
        pos = np.arange(len(values)) - np.repeat(off[:-1], lengths)
        np.cumsum(_row_hashes(pa.table([pos, values], names=["", name])),
                  out=cum[1:])
    return cum[off[1:]] - cum[off[:-1]] + lengths.astype(np.uint64)


def _row_hashes(table: pa.Table) -> np.ndarray:
    """``_checksum_table``'s per-row hashes, one uint64 per row."""
    names = table.schema.names
    order = sorted(range(len(names)), key=names.__getitem__)
    codes = np.empty((len(order), table.num_rows), np.uint64)
    texts = {}
    for i, j in enumerate(order):
        col = table.column(j)
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        tid = col.type.id
        if tid in _TEXT or tid in _WIDE_TEXT:
            texts[i] = col
            continue
        codes[i] = (_list_codes(names[j], col) if tid in _LIST
                    else _number_codes(names[j], col, tid))
        if col.null_count:
            codes[i, col.is_null().to_numpy(zero_copy_only=False)] = _NULL
    if texts:
        codes[list(texts)] = _text_codes(list(texts.values()))
    weights = np.arange(1, 2 * len(order), 2, dtype=np.uint64) * _GOLDEN
    return _mix(weights @ _mix(codes))  # uint64: exact mod 2^64


def _checksum_table(table: pa.Table) -> str:
    """Order-insensitive value checksum, ``"<16 hex>-<rows>"``: per-row
    64-bit hashes SUM-folded mod 2^64, and the row count.  Sum, not xor:
    an xor fold is blind to rows duplicated an even number of times,
    exactly the double-counting corruption the lineage record exists to
    detect.

    A row's hash is ``mix(sum_i (2i + 1) * GOLDEN * mix(code_i))`` over its
    columns in name order, ``mix`` being splitmix64's finalizer: the outer
    ``mix`` keeps the row association, so a value moved between two rows
    of one column changes the sum.  A number, bool or timestamp codes as
    the bits of its float64 or int64 value (``_number_codes``), a string
    or binary value as its rank among the table's distinct strings plus
    one blake2b digest of them (``_text_codes``), a list as its length
    plus the hashes of its elements and their positions (``_list_codes``),
    a null as a constant of its own.  All columns are stacked and mixed in
    one numpy pass, with no Python loop per row or per distinct value.
    The hash uses only Arrow's byte order of strings and its widening
    casts of numbers, blake2b and numpy's uint64 arithmetic, so it does
    not change with the pyarrow, numpy or pandas version.  A chunked or
    sliced table hashes as its combined rows.  A column of another type
    raises ``TypeError`` naming it."""
    n = table.num_rows
    if n == 0:
        return "0" * 16 + "-0"
    return f"{int(_row_hashes(table).sum(dtype=np.uint64)):016x}-{n}"


_RECORD = re.compile(r"_manifest/shard-(\d+)\.json")


class CheckpointManifest:
    """The table of contents of one store (module docstring); with
    ``chunks_dir``, ``chunks`` is the chunk store's.  A path resolves to
    its ``pyarrow.fs`` filesystem unless ``filesystem`` is given.  Only
    the writers create directories.  ``records`` is ``None``, or after
    ``run_sharded_rollup`` the ``{shard: record}`` of every shard it left
    completed, as committed or loaded, never read back."""

    def __init__(self, out_dir: str, chunks_dir: str | None = None, *,
                 filesystem=None):
        self.out_dir, self.chunks_dir = out_dir, chunks_dir
        self.manifest_dir = os.path.join(out_dir, "_manifest")
        fs, root = ((filesystem, out_dir) if filesystem is not None
                    else pafs.FileSystem.from_uri(out_dir) if "://" in out_dir
                    else (pafs.LocalFileSystem(), os.path.abspath(out_dir)))
        self.fs, self.root = fs, root.rstrip("/")
        self.local = isinstance(fs, pafs.LocalFileSystem)
        self.chunks = None if chunks_dir is None else CheckpointManifest(
            chunks_dir, filesystem=filesystem)
        self.records = None

    def _path(self, rel: str) -> str:
        return f"{self.root}/{rel}"

    def _read(self, rel: str) -> bytes:
        with self.fs.open_input_stream(self._path(rel)) as f:
            return f.read()

    def _put(self, rel: str, data: bytes) -> None:
        """Write a small file whole, replacing any: locally a tmp file
        (one name per attempt), fsync, ``os.replace`` and a dir fsync;
        elsewhere one output stream, i.e. one object put."""
        path = self._path(rel)
        self.fs.create_dir(path.rsplit("/", 1)[0])
        tmp = f"{path}.{uuid.uuid4().hex}.tmp" if self.local else path
        with self.fs.open_output_stream(tmp) as f:
            f.write(data)
        if self.local:
            _fsync(tmp)
            os.replace(tmp, path)
            _fsync(os.path.dirname(path))

    def record_path(self, shard: int) -> str:
        return os.path.join(self.manifest_dir, f"shard-{shard:05d}.json")

    def load_record(self, shard: int) -> dict:
        return json.loads(self._read(f"_manifest/shard-{shard:05d}.json"))

    def check_identity(self, **fields) -> dict | None:
        """Refuse ``fields`` that differ from the ones ``_meta.json`` pins
        -> the pinned fields, or ``None`` if the store pins none.  A field
        the file lacks (a store written before it was pinned) is not
        checked."""
        try:
            stored = json.loads(self._read("_manifest/_meta.json"))
        except FileNotFoundError:
            return None
        for field, value in fields.items():
            if field in stored and stored[field] != value:
                raise ValueError(
                    f"manifest at {self.manifest_dir} was written with "
                    f"{field}={stored[field]!r}; resuming with {value!r} "
                    "would mix two jobs in one store — rerun with the "
                    "original value or start a fresh output_dir")
        return stored

    def ensure_sharding(self, num_shards: int, **identity) -> None:
        """Pin the job's identity, ``num_shards`` and the ``identity``
        fields (JSON values), on first run; REFUSE a resume under a
        different one (``check_identity``): mixing shardings drops some
        series from recompute while their data never lands, and mixing
        tiers or gap-fill leaves two jobs' rows in one store."""
        meta = {"num_shards": num_shards, **identity}
        if self.check_identity(**meta) is None:
            self._put("_manifest/_meta.json", json.dumps(meta).encode())

    def shard_dir(self, shard: int) -> str:
        return os.path.join(self.out_dir, f"shard={shard:05d}")

    def _listing(self) -> dict:
        """``{path in the store: size}`` of every file in it."""
        infos = self.fs.get_file_info(
            pafs.FileSelector(self.root, allow_not_found=True, recursive=True))
        return {i.path[len(self.root) + 1:]: i.size for i in infos
                if i.type == pafs.FileType.File}

    def _committed(self):
        """``{shard: record}`` of the shards whose named files all exist
        with their sizes; ``None`` for a path with no manifest."""
        if self.fs.get_file_info(self._path("_manifest")).type != \
                pafs.FileType.Directory:
            return None
        listing = self._listing()
        recs = {int(m[1]): json.loads(self._read(rel)) for rel in listing
                if (m := _RECORD.fullmatch(rel))}
        if not recs and "_manifest/_meta.json" not in listing:
            return None
        return {s: r for s, r in recs.items() if "files" in r and all(
            listing.get(f["path"]) == f["size"] for f in r["files"])}

    def _completed(self) -> dict:
        done = self._committed()
        if done is None:
            raise FileNotFoundError(
                f"no checkpoint manifest at {self.out_dir}")
        return done

    def completed_shards(self) -> set:
        return set(self._completed())

    def source(self) -> tuple:
        """What readers read: ``(the files the committed records name, in
        shard order, the filesystem, the store root)``, or ``(the path,
        None, None)`` for a path with no manifest, read by discovery (a
        flat ``write_parquet`` store, a corpus)."""
        recs = self._committed()
        if recs is None:
            return self.out_dir, None, None
        return [self._path(f["path"]) for _, r in sorted(recs.items())
                for f in r["files"]], self.fs, self.root

    def read_shard(self, shard: int) -> pa.Table:
        """The rows of the files shard ``shard``'s record names."""
        files = self.load_record(shard)["files"]
        return pa.concat_tables(
            [pq.read_table(self._path(f["path"]), filesystem=self.fs)
             for f in files]) if files else pa.table({})

    def _write(self, shard: int, table: pa.Table) -> list:
        """Write ``table`` as a new file of shard ``shard`` -> the record's
        file list; none for an empty table (a 0-row file would type its
        strings as null).  Locally it fsyncs the file, the shard dir and
        the store root, on every commit: a shard dir that already exists
        may be one a dead attempt created and never made durable."""
        shard_dir = self._path(f"shard={shard:05d}")
        self.fs.create_dir(shard_dir)
        files = []
        if table.num_rows:
            rel = f"shard={shard:05d}/part-{uuid.uuid4().hex}.parquet"
            with self.fs.open_output_stream(self._path(rel)) as out:
                # no min/max statistics on binary blobs (Gorilla chunks):
                # nothing filters on them, and each page and footer would
                # copy two blobs
                pq.write_table(table, out, write_statistics=[
                    f.name for f in table.schema
                    if not pa.types.is_binary(f.type)])
                files.append({"path": rel, "size": out.tell()})
        if self.local:
            for path in [self._path(f["path"]) for f in files] + [
                    shard_dir, self.root]:
                _fsync(path)
        return files

    def commit_shard(self, shard: int, table: pa.Table, *,
                     input_fragments=(), extra: dict | None = None,
                     started: float | None = None) -> dict:
        """Commit one shard: its file under a new name and, last, its
        record, the commit point -> the record.  It never touches another
        attempt's files (``sweep`` deletes them).  ``wall_s`` times the
        whole commit up to the record's write, the checksum and the
        watermarks included, from ``started`` (a ``time.perf_counter()``:
        the job's shard task passes the start of its chunk commit, which
        comes first) or from the call."""
        t0 = time.perf_counter() if started is None else started
        files = self._write(shard, table)
        checksum = _checksum_table(table)
        wm = None, None
        ts_col = next((c for c in ("ts", "window_start", "last_ts")
                       if c in table.column_names), None)
        if ts_col is not None and table.num_rows:
            col = table.column(ts_col)
            if pa.types.is_timestamp(col.type):
                col = col.cast(pa.int64())
            wm = pc.min(col).as_py(), pc.max(col).as_py()
        record = {
            "shard": shard,
            "rows": table.num_rows,
            "input_fragments": list(input_fragments),
            "checksum": checksum,
            "watermark_min": wm[0],
            "watermark_max": wm[1],
            "wall_s": round(time.perf_counter() - t0, 4),
            "completed_at": time.time(),
            "files": files,
        }
        record.update(extra or {})
        self._put(f"_manifest/shard-{shard:05d}.json",
                  json.dumps(record).encode())
        return record

    def sweep(self, records: dict, *, whole: bool = False) -> None:
        """Delete what ``records`` (``{shard: record}``, as their commits
        returned them) do not name: in the dirs of their shards, the other
        files and the records' tmp files; with ``whole`` (a store
        recomputed whole), every other file and dir of the store but
        ``_manifest/_meta.json``.  Call it only once every attempt that
        could write them has ended."""
        keep = {f["path"] for r in records.values() for f in r["files"]}
        heads = tuple(p for s in records for p in (
            f"shard={s:05d}/", f"_manifest/shard-{s:05d}.json."))
        if whole:
            keep |= {"_manifest/_meta.json",
                     *(f"_manifest/shard-{s:05d}.json" for s in records)}
            heads = ("",)
            dirs = {"_manifest", *(f"shard={s:05d}" for s in records)}
            for info in self.fs.get_file_info(
                    pafs.FileSelector(self.root, allow_not_found=True)):
                if info.type == pafs.FileType.Directory and \
                        info.base_name not in dirs:
                    self.fs.delete_dir(info.path)
        for rel in self._listing() if heads else ():
            if rel.startswith(heads) and rel not in keep:
                self.fs.delete_file(self._path(rel))

    def commit_all(self, inputs) -> dict:
        """Recompute the store whole: one Ray task per ``(shard, f,
        *args)`` of ``inputs`` commits ``f(*args)`` as that shard; then
        what they did not name is deleted (``sweep(whole=True)``), so a
        rerun replaces the store -> their ``{shard: record}``."""
        import ray

        task = ray.remote(lambda s, f, *args: self.commit_shard(s, f(*args)))
        records = {r["shard"]: r for r in ray.get(
            [task.remote(*inp) for inp in inputs])}
        self.sweep(records, whole=True)
        return records

    def rewrite(self, fn, into: CheckpointManifest | None = None) -> dict:
        """Recompute ``into`` (default: this store, e.g. the chunk
        compaction) shard by shard from this store: one Ray task per
        committed shard commits ``fn`` of its rows as the same shard of
        ``into`` (``commit_all``) -> the records."""

        def _shard(s: int) -> pa.Table:
            return fn(self.read_shard(s))

        return (self if into is None else into).commit_all(
            [(s, _shard, s) for s in sorted(self._committed() or ())])

    def metrics(self, records: dict | None = None) -> dict:
        """Aggregate per-partition metrics across completed shards: those
        of ``records`` (``{shard: record}``, e.g. the ``records`` that
        ``run_sharded_rollup`` leaves), else the store's."""
        recs = [r for _, r in sorted(
            (self._completed() if records is None else records).items())]
        return {
            "shards_completed": len(recs),
            "rows": sum(r["rows"] for r in recs),
            "watermark_max": max((r["watermark_max"] for r in recs
                                  if r["watermark_max"] is not None),
                                 default=None),
            "wall_s_total": round(sum(r["wall_s"] for r in recs), 4),
            "compute_s_total": round(
                sum(r.get("compute_s", 0.0) for r in recs), 4),
        }


def commit_exchange(inputs, commit, num_shards: int, stores: list, *,
                    skip_shards=(), whole: bool = False) -> list:
    """``_exchange`` whose shard body ``commit`` commits its shard to each
    store of ``stores`` and returns their records in that order; once
    every shard task has returned (raising the error of a failed one),
    each store is swept (``CheckpointManifest.sweep``, with ``whole``) ->
    one ``{shard: record}`` per store, as the tasks returned them."""
    import ray

    out = ray.get(_exchange(inputs, commit, num_shards, skip_shards))
    runs = [{recs[i]["shard"]: recs[i] for recs in out}
            for i in range(len(stores))]
    for store, run in zip(stores, runs):
        store.sweep(run, whole=whole)
    return runs


def run_sharded_rollup(samples, out_dir: str, num_shards: int, *,
                       tiers=("1m", "1h", "1d"), gap_fill=None,
                       chunks_dir: str | None = None,
                       chunk_bucket_ns: int | None = None, filesystem=None):
    """Resumable rollup: shuffle samples once by shard, then roll up and
    commit every shard missing from the checkpoint manifest inside its
    group task; with ``chunks_dir``, also its Gorilla chunks (per series,
    or per series x ``chunk_bucket_ns`` bucket).

    ``samples`` is either form of ``shard_apply``'s map side: a samples
    ``Dataset`` (only ``ShardSamples.COLUMNS`` are exchanged), or a list
    of map inputs whose outputs hold those columns (``job.run_job``'s
    read + extract tasks).  It calls ``_exchange`` directly
    (``commit_exchange``), so it builds no ``Dataset``, and on a list no
    task of it imports ``ray.data``.

    Returns (manifest, shards_run, shards_skipped).  Fresh and resumed runs
    take the same path: samples of completed shards are dropped before the
    shuffle and only shards with samples get a task, so finished work is
    neither recomputed nor double-counted.  ``_meta.json`` pins
    ``num_shards``, ``tiers``, ``gap_fill`` and ``chunk_bucket_ns``: a
    resume that changes one is refused before any sample is read
    (``CheckpointManifest.ensure_sharding``).  The first run that succeeds
    writes them to the chunk store too, so a run with no sample leaves
    both stores readable, as empty.  A retried task commits its
    shard again under fresh file names; once every shard task has
    returned, this process sweeps the shards run with the records the
    tasks returned.  Those and the skipped shards' records, loaded to find
    them, become ``manifest.records``.  ``filesystem`` overrides the one
    the paths resolve to.

    A shard task rank-codes and sorts its samples once (``ShardSamples``);
    that sort yields the first tier's partials and the chunk rows, and the
    coarser tiers are integer merges (``stages/rollup.rollup_shard``), each
    gap-filled when ``gap_fill`` is set (an unknown one is refused before
    any sample is read).  Each record's ``wall_s`` is the commit time,
    ``rollup_s`` the partials, cascade and gap-fill, ``encode_s`` the
    chunk rows, and ``compute_s`` their total.  A shard task returns its
    chunk record (with ``chunks_dir``) and its record, once both are
    written.
    """
    from ..stages.gapfill import check_gap_fill
    from ..stages.rollup import rollup_shard
    from .gorilla import GorillaChunkWriter

    check_gap_fill(gap_fill)
    manifest = CheckpointManifest(out_dir, chunks_dir, filesystem=filesystem)
    identity = dict(tiers=list(tiers), gap_fill=gap_fill,
                    chunk_bucket_ns=chunk_bucket_ns)
    # refuse mismatched resumes
    manifest.ensure_sharding(num_shards, **identity)
    done = manifest._completed()
    writer = None if chunks_dir is None else GorillaChunkWriter(
        chunk_bucket_ns)
    stores = [manifest] if writer is None else [manifest.chunks, manifest]

    # Each shard commits INSIDE its task: the driver only collects the
    # records.  The stores must be on storage all workers share.
    def _rollup_and_commit(samples: pa.Table) -> tuple:
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
        chunk_record = () if chunks is None else (
            manifest.chunks.commit_shard(shard, chunks),)
        return *chunk_record, manifest.commit_shard(
            shard, rolled, started=t2,
            extra={"compute_s": round(t2 - t0, 4),
                   "rollup_s": round(t1 - t0, 4),
                   "encode_s": round(t2 - t1, 4)})

    if not isinstance(samples, list):
        samples = samples.select_columns(ShardSamples.COLUMNS)
    *_, run = commit_exchange(samples, _rollup_and_commit, num_shards, stores,
                              skip_shards=done)
    if writer is not None and manifest.chunks.check_identity() is None:
        # written once a run succeeds, so a run with no sample leaves a
        # chunk store that reads as empty; the rollup store's is checked
        manifest.chunks.ensure_sharding(num_shards, **identity)
    manifest.records = {**done, **run}
    return manifest, sorted(run), sorted(done)


def manifest_report(out_dir: str) -> pa.Table:
    """All shard lineage records of one stage output as a queryable Arrow
    table — the per-partition metrics surface (rows, watermarks, commit
    time, compute time and its rollup and chunk-encoding parts, checksum)
    the north rule's "lineage + metrics" contract exposes to operators.
    ``wall_s`` is a shard's whole commit (``commit_shard``): for a job's
    rollup store, its chunk commit, data file, checksum and watermarks.
    The chunk store's report (``<out>/chunks``) is its chunks' lineage,
    after a compaction too.
    One row per committed shard, read in the calling process (#shards
    rows, not data).  A path with no manifest raises
    ``FileNotFoundError``."""
    recs = [r for _, r in sorted(CheckpointManifest(out_dir)._completed()
                                 .items())]
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
