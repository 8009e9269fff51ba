"""Parquet reads whose footers are read in the calling process: the
row-group planner (``plan_row_groups``) and the direct reads built on
it, the job's map side, its token archive and its update pass, and
``read_decoded``, the read of both chunk stores.  A store with a
manifest is read as the files its records name.

``ray.data.read_parquet`` reads the footers of more than 24 files in
remote tasks, so it restarts idle worker processes: on a 4-CPU host the
read took 0.04 s or 0.4-0.9 s depending on when the last task ran.
Reading the footers here costs about 1 ms a file on local storage.  The
direct reads run no Ray Data plan at all: Ray Data's streaming executor
costs 70-85 ms per plan on a 4-CPU host, where eight plain Ray tasks take
6 ms.

Importing this module does not import ``ray.data``, and neither does
``iter_row_groups``, which the job's tasks run: only ``read_decoded``
(whose output is a ``Dataset``) and its tasks (``_read_group``) import
it.  The first ``Dataset`` of a
Ray session starts Ray Data's stats actor, so the first read-back after a
job pays that start.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..state.checkpoint import (
    CheckpointManifest,
    _from_arrow_refs,
    data_context,
)


def plan_row_groups(paths, keep=None):
    """The driver-side read plan of Parquet directories or files ->
    ``(schema, groups)``.

    ``paths`` (one path or a list) resolve as Ray's ``read_parquet``
    resolves them: hive partitioning, names starting with ``_`` or ``.``
    ignored; a store with a manifest is the files its records name
    (``CheckpointManifest.source``).  Every footer is read here; with
    ``keep`` (a ``pyarrow.dataset`` filter expression) only the row groups
    whose statistics do not rule it out stay.  The kept row groups, in file
    order, are cut into ``min(#row groups, max(2 x cluster CPUs,
    ceil(bytes / the block target)))`` contiguous groups of about equal
    footer ``total_byte_size``, so a read runs a few tasks per CPU.  A
    group is a list of ``(filesystem, file path, [row group ids])``, read
    by ``iter_row_groups``; a file with no kept row group is in no group.
    ``schema`` is the unified schema of the files.
    """
    import ray

    datasets = [
        pads.dataset(src, filesystem=fs, format="parquet", partitioning="hive",
                     partition_base_dir=base)
        for src, fs, base in (CheckpointManifest(p).source() for p in (
            [paths] if isinstance(paths, str) else paths))]
    pieces = []
    for dataset in datasets:
        for frag in dataset.get_fragments():
            if keep is not None:
                frag = frag.subset(keep)
            pieces += [(dataset.filesystem, frag.path, rg.id,
                        rg.total_byte_size) for rg in frag.row_groups]
    schema = pa.unify_schemas([d.schema for d in datasets])
    if not pieces:
        return schema, []
    cum = np.cumsum([p[-1] for p in pieces], dtype=np.float64)
    target = data_context().target_max_block_size
    n = max(2 * int(ray.cluster_resources().get("CPU", 1)),
            int(np.ceil(cum[-1] / target)) if target else 0)
    n = min(len(pieces), n)
    # the first piece past each 1/n of the bytes starts a group; every
    # group keeps at least one piece
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, n) / n) + 1
    starts = [0]
    for j, cut in enumerate(cuts.tolist(), 1):
        starts.append(min(max(cut, starts[-1] + 1), len(pieces) - n + j))
    return schema, [
        [(fs, file, [p[2] for p in rgs]) for (fs, file), rgs in
         itertools.groupby(pieces[a:b], key=lambda p: (p[0], p[1]))]
        for a, b in zip(starts, starts[1:] + [len(pieces)])]


#: Rows per Parquet read batch of ``iter_row_groups``: its tables
#: overshoot ``batch_bytes`` by at most this many rows.
READ_ROWS = 256


def iter_row_groups(group: list, columns: list, batch_bytes=None):
    """One group of ``plan_row_groups``, only ``columns``, as tables.

    Without ``batch_bytes``, one table per file.  With it, the group's
    rows stream across its files in tables of about ``batch_bytes`` of
    Arrow memory, so a task never holds a whole large row group and a
    group of small files still reaches its consumer in few large tables.
    A table is also cut where a file's Arrow schema differs from the
    previous file's, so every table has one schema.  Yields at least one
    table, empty (the last file's ``columns``) for a group of no rows."""
    if batch_bytes is None:
        for fs, file, row_groups in group:
            yield pq.ParquetFile(file, filesystem=fs).read_row_groups(
                row_groups, columns=columns)
        return
    acc, size, schema = [], 0, None
    for fs, file, row_groups in group:
        f = pq.ParquetFile(file, filesystem=fs)
        # a map task has one CPU: no reader thread pool
        for batch in f.iter_batches(batch_size=READ_ROWS,
                                    row_groups=row_groups, columns=columns,
                                    use_threads=False):
            if acc and (size >= batch_bytes
                        or not batch.schema.equals(acc[0].schema)):
                yield pa.Table.from_batches(acc).combine_chunks()
                acc, size = [], 0
            acc.append(batch)
            size += batch.nbytes
        schema = f.schema_arrow
    if acc:
        yield pa.Table.from_batches(acc).combine_chunks()
    elif schema is not None:
        yield schema.empty_table().select(columns)


def _read_group(group: list, columns: list, keep, decode):
    """One group's rows -> the rows ``keep`` keeps -> ``decode`` -> (the
    output's Ray Data block metadata, the output)."""
    from ray.data._internal.util import get_table_block_metadata_schema

    table = pa.concat_tables(iter_row_groups(group, columns),
                             promote_options="permissive")
    out = decode(table if keep is None else table.filter(keep))
    return get_table_block_metadata_schema(out), out


@functools.cache
def _read_task():
    """``_read_group`` as a Ray task, made on first use."""
    import ray

    return ray.remote(num_returns=2)(_read_group)


def read_decoded(path: str, decode, *, columns: list, bounds: tuple,
                 lo=None, hi=None):
    """Decode a directory of chunk files as a materialized ``Dataset``:
    the chunks whose range, the columns named by ``bounds = (first,
    last)``, overlaps ``[lo, hi]`` (either end ``None``: open).

    ``plan_row_groups`` resolves the store, reads every footer in the
    calling process and keeps the row groups whose statistics do not rule
    the overlap out; one Ray task per group reads them (only
    ``columns``), drops the chunks outside the range and calls ``decode``
    once on the rest.  A pruned file starts no task; when every file is
    pruned, or the store has none, the output is ``decode`` of no rows,
    which must not need ``columns``.

    Runs when called, not lazily: it returns once every task has
    finished (raising the error of a failed one), and the decoded rows
    stay in the object store while the ``Dataset`` lives: read a large
    store by range.
    """
    import ray
    from ray.data._internal.util import get_table_block_metadata_schema

    first, last = bounds
    keep = None
    if lo is not None:
        keep = pads.field(last) >= lo
    if hi is not None:
        upper = pads.field(first) <= hi
        keep = upper if keep is None else keep & upper
    schema, groups = plan_row_groups(path, keep)
    task = _read_task()
    out = [task.remote(group, columns, keep, decode) for group in groups]
    if not out:
        # a store of no files has no columns: ``decode`` gives its own
        # empty output for no rows
        empty = decode(schema.empty_table())
        return _from_arrow_refs([ray.put(empty)],
                                [get_table_block_metadata_schema(empty)])
    # raises the error of a failed task
    metas = ray.get([meta for meta, _ in out])
    return _from_arrow_refs([table for _, table in out], metas)
