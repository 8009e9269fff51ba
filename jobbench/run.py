"""Job-level benchmark of the tsx engine: ``job.run_job`` end to end.

Usage (from the root of a checkout)::

    python3 jobbench/run.py --workload few_series --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: closed loop, one job at a
time, each iteration a fresh ``run_job``, a read-back of its output and a
crash-resume of it.  ``--trace 1`` is the separate traced run that calls
each layer in turn and reports per-layer metrics.  The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the samples behind each metric, the exact counts
and the host shape.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import procs
import workload as wlmod
from workload import ROOT

#: Ray sessions per run.  Each is set up (``setup_s`` is the median) and
#: then runs iterations for its share of ``--seconds``: job times differ
#: more between sessions than within one, so one run samples several.
SESSIONS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "points_per_s": "1/s",
    "read_s": "s",
    "resume_s": "s",
    "store_bytes": "bytes",
    "chunk_ratio": "ratio",
    "driver_peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="jobbench/run.py")
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def summarize(values: list, clocks: list | None = None) -> dict:
    """Median and max (the highest percentile a run's few samples support)
    of a metric's samples, their count, and for timings the wall time and
    host steal share behind each sample."""
    if not values:
        return {"n": 0}
    out = {"n": len(values), "median": statistics.median(values),
           "max": max(values), "values": values}
    if clocks:
        out["wall_s"] = [c.wall for c in clocks]
        out["steal"] = [c.steal for c in clocks]
    return out


def timed_run(args, wl, session, work) -> tuple:
    from harness import COUNT_KEYS, Iterations, Ops, setup

    ops = Ops()
    it = None
    setup_clocks = []
    cpu_before = wlmod.cpu_times()
    i = 0
    generated = False
    for _ in range(SESSIONS):
        prep, clock = setup(session, wl, args.seed, work)
        setup_clocks.append(clock)
        generated = generated or prep.generated
        it = it or Iterations(prep, work, ops)
        t_loop = time.perf_counter()
        while True:
            it.iteration(i)
            i += 1
            if time.perf_counter() - t_loop >= args.seconds / SESSIONS:
                break
        session.stop()
    steal = wlmod.steal_share(cpu_before, wlmod.cpu_times())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stats = {k: summarize(v, it.clocks.get(k)) for k, v in it.samples.items()}
    stats["setup_s"] = summarize([c.host_s for c in setup_clocks],
                                 setup_clocks)
    metrics = {k: st.get("median", -1.0) for k, st in stats.items()}
    metrics["driver_peak_rss_mb"] = peak_rss_mb
    prep = it.prep
    seed_counts = prep.meta.get("first_counts")
    if it.first_counts is not None:
        if seed_counts is None:
            prep.meta["first_counts"] = it.first_counts
            prep.save_meta()
        else:
            it.count_mismatch += [
                f"{k}: {it.first_counts[k]} != earlier run {seed_counts[k]}"
                for k in COUNT_KEYS if it.first_counts[k] != seed_counts.get(k)]
    detail = {
        "iterations": i,
        "host_steal_share": steal,
        "samples": stats,
        "counts": it.first_counts,
        "deterministic": not it.count_mismatch,
        "count_mismatch": it.count_mismatch,
        "resume_checksum_drift": it.resume_drift,
        "ops_failed_frac": ops.failed / max(ops.attempted, 1),
        "errors": ops.errors[:20],
        "corpus": {k: v for k, v in prep.meta.items() if k != "first_counts"},
        "corpus_generated": generated,
    }
    if it.count_mismatch:
        print("jobbench: non-deterministic counts: "
              + "; ".join(it.count_mismatch), file=sys.stderr)
    return metrics, ops, detail


def _terminate(signum, frame):
    # SIGTERM unwinds like an exit, so ``finally`` stops Ray's processes
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    procs.adopt_orphans()
    if not os.path.isdir(os.path.join(ROOT, wlmod.PACKAGE)):
        print("jobbench: the program's package is not next to the benchmark "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers import the package too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    import harness

    if args.workload == "all":
        # every workload in turn, each in its own process (and Ray session)
        rc = 0
        for name in wlmod.WORKLOADS:
            rc = max(rc, subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], check=False).returncode)
        procs.wait_children()
        return rc
    wl = wlmod.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"jobbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wlmod.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_build", "jobbench")
    os.makedirs(work, exist_ok=True)
    session = harness.RaySession()
    try:
        if args.trace:
            import layers

            metrics, ops, detail = layers.traced_run(args, wl, session, work)
        else:
            metrics, ops, detail = timed_run(args, wl, session, work)
    finally:
        session.stop()
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else layers.PER_LAYER_UNITS
    detail.update({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "load": "closed loop, one job at a time",
        "host": wlmod.host_shape(session.num_cpus),
    })
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
