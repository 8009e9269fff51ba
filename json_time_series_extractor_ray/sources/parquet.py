"""Parquet reads whose footers are read in the calling process.

``ray.data.read_parquet`` reads the footers of more than 24 files in
remote tasks of 0.5 CPU each (38 files: 7 tasks), so it runs up to twice
as many tasks as CPUs at once.  Ray keeps one idle worker process per CPU
and kills the others after a second idle, so such a read starts worker
processes again whenever the last one was more than a second ago: on a
4-CPU host the read took 0.04 s or 0.4-0.9 s depending on that gap, and a
job's wall time followed it.  Reading the footers here costs about 1 ms a
file on local storage and starts no process.
"""

from __future__ import annotations

import warnings

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
