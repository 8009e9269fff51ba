"""Where the job's map tasks spend their time.

Runs one warm-up job and then ``-n`` timed jobs of ``job.run_job`` over
one corpus, with the job settings of a jobbench workload
(``jobbench/workload.job_config``), each into a fresh directory under
``--out``, and prints one JSON line.  Every map task (one per row-group
group) times, from inside the task, its reads (``iter_row_groups``), its
extraction stage calls and its shard tag + split; the line holds the
medians of those per-group times over every group of every timed job,
the median and maximum tables per group and the median docs per table.
Usage, from the root of a checkout (the map tasks import the package
from the working directory)::

    python scripts/map_probe.py <corpus dir> <workload> --out <dir> [-n 5]

``<workload>`` is a name in ``jobbench/workload.WORKLOADS``; the corpus
is a jobbench corpus of it (``.bench_build/jobbench/cache/*/corpus``).
Ray runs in this process with jobbench's CPU count and block target.
The timings are written under ``<out>/map-timings``, one file a task.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def _probed(timings_dir: str, real, stage, group, batch_bytes):
    """``real`` (``job._extract_group``) run with its reads, its stage
    calls and the task's tag + split timed.  Runs in the map task: it
    wraps the worker's ``iter_row_groups``, ``_tag`` and ``_split_block``
    on first use, and the wrapped ``_split_block``, the task's last step,
    writes the task's record."""
    import uuid

    from json_time_series_extractor_ray.sources import parquet
    from json_time_series_extractor_ray.state import checkpoint

    rec = {"read_s": 0.0, "extract_s": 0.0, "tag_split_s": 0.0, "docs": []}
    checkpoint._probe_record = rec
    if not hasattr(checkpoint, "_probe_wrapped"):
        checkpoint._probe_wrapped = True
        read, tag, split = (parquet.iter_row_groups, checkpoint._tag,
                            checkpoint._split_block)

        def timed_read(*args):
            it = read(*args)
            while True:
                t0 = time.perf_counter()
                try:
                    table = next(it)
                except StopIteration:
                    return
                finally:
                    checkpoint._probe_record["read_s"] += (
                        time.perf_counter() - t0)
                yield table

        def timed_tag(*args):
            t0 = time.perf_counter()
            out = tag(*args)
            checkpoint._probe_record["tag_split_s"] += (
                time.perf_counter() - t0)
            return out

        def timed_split(*args):
            t0 = time.perf_counter()
            out = split(*args)
            r = checkpoint._probe_record
            r["tag_split_s"] += time.perf_counter() - t0
            with open(os.path.join(timings_dir, uuid.uuid4().hex), "w") as f:
                json.dump(r, f)
            return out

        parquet.iter_row_groups = timed_read
        checkpoint._tag, checkpoint._split_block = timed_tag, timed_split

    class _TimedStage:
        id_column = stage.id_column
        tokens_column = stage.tokens_column

        def __call__(self, table):
            t0 = time.perf_counter()
            out = stage(table)
            rec["extract_s"] += time.perf_counter() - t0
            rec["docs"].append(table.num_rows)
            return out

    return real(_TimedStage(), group, batch_bytes)


def main() -> None:
    from jobbench.workload import (
        BLOCK_TARGET_BYTES,
        RAY_NUM_CPUS,
        WORKLOADS,
        job_config,
    )

    ap = argparse.ArgumentParser()
    ap.add_argument("corpus")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("-n", type=int, default=5)
    args = ap.parse_args()

    import functools

    import ray

    from json_time_series_extractor_ray import job
    from json_time_series_extractor_ray.state.checkpoint import data_context

    ray.init(address="local", num_cpus=RAY_NUM_CPUS, include_dashboard=False,
             log_to_driver=False)
    data_context().target_max_block_size = BLOCK_TARGET_BYTES
    timings = os.path.join(args.out, "map-timings")
    job._extract_group = functools.partial(_probed, timings,
                                           job._extract_group)
    walls, groups = [], []
    try:
        for i in range(args.n + 1):  # job 0 is the warm-up
            out_dir = os.path.join(args.out, f"job-{i}")
            shutil.rmtree(out_dir, ignore_errors=True)
            shutil.rmtree(timings, ignore_errors=True)
            os.makedirs(timings)
            t0 = time.perf_counter()
            job.run_job(job_config(args.corpus, out_dir,
                                   WORKLOADS[args.workload]))
            wall = time.perf_counter() - t0
            if i:
                walls.append(wall)
                for name in glob.glob(os.path.join(timings, "*")):
                    with open(name) as f:
                        groups.append(json.load(f))
    finally:
        ray.shutdown()

    def med(values):
        return round(statistics.median(values), 4)

    tables = [len(g["docs"]) for g in groups]
    print(json.dumps({
        "jobs": args.n,
        "job_s": med(walls),
        "groups_per_job": len(groups) / args.n,
        **{f"group_{k}": med([g[k] for g in groups])
           for k in ("read_s", "extract_s", "tag_split_s")},
        "tables_per_group": med(tables),
        "max_tables_per_group": max(tables),
        "docs_per_table": med([d for g in groups for d in g["docs"]]),
    }))


if __name__ == "__main__":
    main()
