"""Parquet reads whose footers are read in the calling process: Ray
Data's ``read_parquet`` for the job's inputs, and ``read_decoded``, the
direct read of both chunk stores.

``ray.data.read_parquet`` reads the footers of more than 24 files in
remote tasks of 0.5 CPU each (38 files: 7 tasks), so it runs up to twice
as many tasks as CPUs at once.  Ray keeps one idle worker process per CPU
and kills the others after a second idle, so such a read starts worker
processes again whenever the last one was more than a second ago: on a
4-CPU host the read took 0.04 s or 0.4-0.9 s depending on that gap, and a
job's wall time followed it.  Reading the footers here costs about 1 ms a
file on local storage and starts no process.

``read_decoded`` runs no Ray Data plan at all.  Ray Data's streaming
executor costs 70-85 ms per plan on a 4-CPU host, where eight plain Ray
tasks take 6 ms, so a chunk read-back spent more time starting its plan
than decoding.  It prunes row groups by their footer statistics in the
calling process and decodes each file that keeps any in one Ray task.
"""

from __future__ import annotations

import functools
import warnings

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ray.data.datasource.parquet_meta_provider import (
    PARALLELIZE_META_FETCH_THRESHOLD,
    ParquetMetadataProvider,
)


class _InProcessFooters(ParquetMetadataProvider):
    """Ray's metadata provider, with every batch of footers read in the
    calling process: the same metadata, in the same order."""

    def prefetch_file_metadata(self, fragments, **ray_remote_args):
        step = PARALLELIZE_META_FETCH_THRESHOLD  # at most this many: in process
        out = []
        for i in range(0, len(fragments), step):
            part = fragments[i:i + step]
            meta = super().prefetch_file_metadata(part) or []
            out += meta
            if len(meta) < len(part):
                break  # as Ray: metadata ends at the first fragment without it
        return out


def read_parquet(paths, **kwargs):
    """``ray.data.read_parquet(paths, **kwargs)`` with the footers read in
    the calling process (module docstring): the same plan, read tasks and
    blocks."""
    import ray

    with warnings.catch_warnings():
        # Ray 2.49 marks ``meta_provider`` deprecated; it is the only way
        # to keep the footer reads out of remote tasks.
        warnings.simplefilter("ignore", DeprecationWarning)
        return ray.data.read_parquet(
            paths, meta_provider=_InProcessFooters(), **kwargs)


def _read_file(filesystem, path: str, row_groups: list, columns: list,
               keep, decode):
    """One file's kept row groups -> the rows ``keep`` keeps ->
    ``decode`` -> (the output's Ray Data block metadata, the output)."""
    from ray.data._internal.util import get_table_block_metadata_schema

    table = pq.ParquetFile(path, filesystem=filesystem).read_row_groups(
        row_groups, columns=columns)
    out = decode(table if keep is None else table.filter(keep))
    return get_table_block_metadata_schema(out), out


@functools.cache
def _read_task():
    """``_read_file`` as a Ray task, made on first use."""
    import ray

    return ray.remote(num_returns=2)(_read_file)


def read_decoded(path: str, decode, *, columns: list, bounds: tuple,
                 lo=None, hi=None):
    """Decode a directory of chunk files as a materialized ``Dataset``:
    the chunks whose range, the columns named by ``bounds = (first,
    last)``, overlaps ``[lo, hi]`` (either end ``None``: open).

    The store resolves as Ray's ``read_parquet`` resolves it (hive
    partitioning; names starting with ``_`` or ``.`` ignored).  The
    calling process reads every footer and keeps the row groups whose
    statistics do not rule the overlap out; one Ray task per file that
    keeps any reads them (only ``columns``), drops the chunks outside the
    range and calls ``decode`` once on the rest.  A pruned file starts no
    task; when every file is pruned, the output is ``decode`` of no rows.

    Runs when called, not lazily: it returns once every task has
    finished (raising the error of a failed one), and the decoded rows
    stay in the object store for the life of the ``Dataset``.  A caller
    that reads a large store whole holds all of it there, so read a large
    store by range.
    """
    import ray
    from ray.data._internal.util import get_table_block_metadata_schema

    from ..state.checkpoint import _from_arrow_refs

    first, last = bounds
    keep = None
    if lo is not None:
        keep = pads.field(last) >= lo
    if hi is not None:
        upper = pads.field(first) <= hi
        keep = upper if keep is None else keep & upper
    dataset = pads.dataset(path, format="parquet", partitioning="hive")
    files = []
    for frag in dataset.get_fragments():
        if keep is not None:
            frag = frag.subset(keep)
        row_groups = [rg.id for rg in frag.row_groups]
        if row_groups:
            files.append((frag.path, row_groups))
    task = _read_task()
    out = [task.remote(dataset.filesystem, p, rgs, columns, keep, decode)
           for p, rgs in files]
    if not out:
        empty = decode(dataset.schema.empty_table().select(columns))
        return _from_arrow_refs([ray.put(empty)],
                                [get_table_block_metadata_schema(empty)])
    # raises the error of a failed task
    metas = ray.get([meta for meta, _ in out])
    return _from_arrow_refs([table for _, table in out], metas)
