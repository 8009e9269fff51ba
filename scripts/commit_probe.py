"""Compute versus commit time of the job's shard tasks.

Runs one warm-up job and then ``-n`` timed jobs of ``job.run_job`` over
one corpus, with the job settings of a jobbench workload
(``jobbench/workload.job_config``), each into a fresh directory under
``--out`` (nothing is written anywhere else), and prints one JSON line:
the median job wall time, and the medians over every shard of every
timed job of the shard records' ``compute_s``, ``wall_s`` (the commit),
``rollup_s`` and ``encode_s`` (``state/checkpoint.manifest_report``).
Usage::

    python scripts/commit_probe.py <corpus dir> <workload> --out <dir> [-n 5]

``<workload>`` is a name in ``jobbench/workload.WORKLOADS``; the corpus
is a jobbench corpus of it (``.bench_build/jobbench/cache/*/corpus``).
Ray runs in this process with jobbench's CPU count and block target.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

FIELDS = ("compute_s", "wall_s", "rollup_s", "encode_s")


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

    import ray

    from json_time_series_extractor_ray.job import run_job
    from json_time_series_extractor_ray.state.checkpoint import (
        data_context,
        manifest_report,
    )

    ray.init(address="local", num_cpus=RAY_NUM_CPUS, include_dashboard=False,
             log_to_driver=False)
    data_context().target_max_block_size = BLOCK_TARGET_BYTES
    walls, shards = [], {k: [] for k in FIELDS}
    try:
        for i in range(args.n + 1):  # job 0 is the warm-up
            out_dir = os.path.join(args.out, f"job-{i}")
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            run_job(job_config(args.corpus, out_dir,
                               WORKLOADS[args.workload]))
            wall = time.perf_counter() - t0
            if i:
                walls.append(wall)
                rep = manifest_report(os.path.join(out_dir, "rollups"))
                for k in FIELDS:
                    shards[k] += rep.column(k).to_pylist()
    finally:
        ray.shutdown()
    print(json.dumps({
        "jobs": args.n,
        "job_s": round(statistics.median(walls), 4),
        **{f"shard_{k}": round(statistics.median(v), 4)
           for k, v in shards.items()},
    }))


if __name__ == "__main__":
    main()
