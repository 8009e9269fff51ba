"""Ray session, plan capture, and the checked job, read-back and resume
calls both run modes make."""

from __future__ import annotations

import logging
import os
import re
import shutil
import sys
import time
import traceback

import checks
import procs
import workload as wlmod

#: Longest Ray temp dir that keeps Ray's unix socket paths
#: (``<tmp>/session_<date>_<pid>/sockets/plasma_store``) under the 107-byte
#: limit; a longer checkout path falls back to Ray's default temp dir.
_MAX_RAY_TMP = 42

#: Shuffle (all-to-all) operators as they appear in Ray Data's logged
#: execution plans.
_ALL_TO_ALL = re.compile(
    r"\b(AllToAllOperator|\w*Shuffl\w*Operator|HashAggregateOperator|"
    r"JoinOperator)\[")

#: The range read spans hour [1h, 2h) after the corpus base instant.
HOUR_NS = 3_600_000_000_000


class RaySession:
    """A local Ray session with a fixed CPU count and block target."""

    def __init__(self, num_cpus: int = wlmod.RAY_NUM_CPUS):
        self.num_cpus = num_cpus
        tmp = os.path.join(wlmod.ROOT, ".bench_build", "ray")
        self.temp_dir = tmp if len(tmp) <= _MAX_RAY_TMP else None
        if self.temp_dir is not None:
            shutil.rmtree(self.temp_dir, ignore_errors=True)  # older runs

    def start(self) -> None:
        import ray

        if self.temp_dir is not None:
            os.makedirs(self.temp_dir, exist_ok=True)
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            object_store_memory=512 * 1024 * 1024,
            logging_level=logging.WARNING,
            log_to_driver=False,
            _temp_dir=self.temp_dir,
        )
        ctx = ray.data.DataContext.get_current()
        ctx.target_max_block_size = wlmod.BLOCK_TARGET_BYTES
        ctx.enable_progress_bars = False

    @staticmethod
    def stop() -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        procs.wait_children()


class Clock:
    """One timed call: its wall time, the share of the host's busy CPU time
    other guests stole meanwhile, and the wall time less that share
    (``host_s``), the time the call took on the CPU it was given."""

    def __enter__(self):
        self._cpu = wlmod.cpu_times()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        self.steal = wlmod.steal_share(self._cpu, wlmod.cpu_times())
        self.host_s = self.wall * (1.0 - (self.steal or 0.0))


class PlanCounter(logging.Handler):
    """Counts all-to-all operators in the plans Ray Data executes while
    installed (it logs each plan before running it)."""

    _LOGGER = "ray.data._internal.execution.streaming_executor"

    def __init__(self):
        super().__init__(logging.INFO)
        self.ops = 0
        self.plans = 0

    def emit(self, record) -> None:
        msg = record.getMessage()
        if "Execution plan of Dataset" in msg:
            self.plans += 1
            self.ops += len(_ALL_TO_ALL.findall(msg))

    def __enter__(self):
        logger = logging.getLogger(self._LOGGER)
        self._level = logger.level
        if logger.getEffectiveLevel() > logging.INFO:
            logger.setLevel(logging.INFO)
        logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        logger = logging.getLogger(self._LOGGER)
        logger.removeHandler(self)
        logger.setLevel(self._level)


def range_bounds() -> tuple:
    from json_time_series_extractor_ray.corpus import BASE_TS_NS

    return BASE_TS_NS + HOUR_NS, BASE_TS_NS + 2 * HOUR_NS - 1


def fetch(ds):
    """A materialized Dataset's rows as one Arrow table in this process."""
    import pyarrow as pa
    import ray

    # Blocks of pruned reads can be empty and schema-less.
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tables) if tables else None


def read_back(out_dir: str, spans=None) -> dict:
    """Full chunk decode, one range-pruned decode and the 1h tier rows,
    each materialized (inside a span when ``spans`` is given)."""
    import contextlib

    import pyarrow.dataset as pads
    import ray

    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )

    lo, hi = range_bounds()
    chunks = os.path.join(out_dir, "chunks")
    rollups = os.path.join(out_dir, "rollups")
    reads = {
        "full": lambda: read_gorilla_chunks(chunks),
        "range": lambda: read_gorilla_chunks(chunks, min_ts_ns=lo,
                                             max_ts_ns=hi),
        "tier": lambda: ray.data.read_parquet(
            rollups, filter=pads.field("tier") == "1h"),
    }
    out = {}
    for name, make in reads.items():
        with (spans.span(f"readback.{name}") if spans is not None
              else contextlib.nullcontext()):
            out[name] = make().materialize()
    return out


def check_reads(reads: dict, prep) -> list:
    """Decoded points equal the numeric samples; the range read returns
    exactly the chunks overlapping the hour; the tier read every 1h row."""
    lo, hi = range_bounds()
    errors = []
    full = fetch(reads["full"])
    if full is None:
        errors.append("full chunk read returned no blocks")
    else:
        errors += checks.compare_points(full, prep.points)
    rng = fetch(reads["range"])
    expected = checks.range_expected(prep.points, lo, hi)
    if rng is None:
        if expected.num_rows:
            errors.append("range read returned no blocks")
    else:
        errors += ["range read: " + e
                   for e in checks.compare_points(rng, expected)]
    n_1h = reads["tier"].count()
    if n_1h != prep.meta["rows_per_tier"]["1h"]:
        errors.append(f"1h tier read {n_1h} rows, oracle has "
                      f"{prep.meta['rows_per_tier']['1h']}")
    return errors


def range_chunks(out_dir: str) -> int:
    """Chunk rows the range read's pruning filter keeps."""
    import pyarrow.dataset as pads

    lo, hi = range_bounds()
    ds = pads.dataset(os.path.join(out_dir, "chunks"), format="parquet")
    return ds.count_rows(filter=(pads.field("t_max") >= lo)
                         & (pads.field("t_min") <= hi))


def setup(session, wl, seed: int, work: str):
    """Ray start, corpus generation or cache load, warm-up job.  Returns
    the prepared workload and the setup's ``Clock``."""
    from json_time_series_extractor_ray.job import run_job

    warm_out = os.path.join(work, "warmup-out")
    with Clock() as clock:
        session.start()
        prep = wlmod.prepare(wl, seed, os.path.join(work, "cache"))
        shutil.rmtree(warm_out, ignore_errors=True)
        run_job(wlmod.job_config(prep.warmup_dir, warm_out, wl))
    shutil.rmtree(warm_out, ignore_errors=True)
    return prep, clock


#: Counts every job of one seed must repeat exactly.
COUNT_KEYS = ("samples", "series", "rows_1m", "rows_1h", "rows_1d",
              "shards_run", "shards_skipped", "all_to_all_ops",
              "store_bytes", "chunk_bytes", "chunk_rows")


class Ops:
    """Timed calls attempted and failed; a failure is recorded, never
    fatal."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, what: str, errors: list) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)
            for e in errors:
                print(f"jobbench: {what}: {e}", file=sys.stderr)
        return not errors

    @staticmethod
    def checked(check) -> list:
        """Errors of ``check``; a check that raises is one error."""
        try:
            return check()
        except Exception:
            return [traceback.format_exc(limit=3)]

    def call(self, what: str, fn):
        """Run ``fn``; on an exception record a failed op and return None."""
        try:
            return fn()
        except Exception:
            self.record(what, [traceback.format_exc(limit=3)])
            return None


def job_counts(out_dir: str, result: dict, plan_ops: int) -> tuple:
    """Exact counts of one job's output, its rollup rows and chunk summary."""
    import pyarrow.compute as pc

    rollups = checks.read_rollups(out_dir)
    tiers = checks.rows_per_tier(rollups, wlmod.TIERS)
    one_m = rollups.filter(pc.equal(rollups.column("tier"), "1m"))
    chunk = checks.chunk_summary(out_dir)
    return {
        "samples": int(pc.sum(one_m.column("count")).as_py() or 0),
        "series": len(pc.unique(rollups.column("series_key"))),
        **{f"rows_{t}": n for t, n in tiers.items()},
        "shards_run": len(result["shards_run"]),
        "shards_skipped": len(result["shards_skipped"]),
        "all_to_all_ops": plan_ops,
        "store_bytes": checks.store_bytes(out_dir),
        "chunk_bytes": chunk["chunk_bytes"],
        "chunk_rows": chunk["rows"],
    }, rollups, chunk


class Iterations:
    """Fresh job, read-back and crash-resume, with every output checked."""

    def __init__(self, prep, work, ops: Ops):
        self.prep = prep
        self.work = work
        self.ops = ops
        self.ref_checksums = None
        self.first_counts = None
        self.count_mismatch: list = []
        self.resume_drift: list = []
        self.samples = {k: [] for k in ("job_s", "points_per_s", "read_s",
                                        "resume_s", "store_bytes",
                                        "chunk_ratio")}
        #: the ``Clock`` of each timed sample, parallel to ``samples``
        self.clocks = {k: [] for k in ("job_s", "points_per_s", "read_s",
                                       "resume_s")}

    def run_job_checked(self, out_dir: str):
        """One timed ``run_job`` over a fresh ``out_dir``, checked."""
        from json_time_series_extractor_ray.job import run_job

        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = wlmod.job_config(self.prep.corpus_dir, out_dir,
                               self.prep.workload)
        with PlanCounter() as plans, Clock() as clock:
            result = self.ops.call("job", lambda: run_job(cfg))
        if result is None:
            return None
        try:
            counts, rollups, chunk = job_counts(out_dir, result, plans.ops)
            errors = self._check_job(out_dir, result, rollups)
        except Exception:
            errors = [traceback.format_exc(limit=3)]
            counts = None
        if counts is not None:
            self.note_counts(counts)
        if not self.ops.record("job", errors):
            return None
        raw = counts["samples"]
        points = raw + counts["rows_1m"] + counts["rows_1h"] + counts["rows_1d"]
        self.add("job_s", clock.host_s, clock)
        self.add("points_per_s", points / clock.host_s, clock)
        self.samples["store_bytes"].append(counts["store_bytes"])
        self.samples["chunk_ratio"].append(
            chunk["raw_bytes"] / chunk["chunk_bytes"])
        return chunk

    def _check_job(self, out_dir: str, result: dict, rollups) -> list:
        errors = []
        if self.ref_checksums is None:
            # The first job is validated row by row against the oracle;
            # its shard checksums are the reference every later job must
            # reproduce exactly.
            errors += checks.compare_to_oracle(rollups, self.prep.oracle)
            if not errors:
                self.ref_checksums = checks.shard_checksums(out_dir)
        else:
            errors += checks.compare_checksums(
                checks.shard_checksums(out_dir), self.ref_checksums)
        if result["shards_skipped"]:
            errors.append(f"fresh job skipped shards {result['shards_skipped']}")
        return errors

    def add(self, metric: str, value: float, clock: Clock) -> None:
        self.samples[metric].append(value)
        self.clocks[metric].append(clock)

    def note_counts(self, counts: dict) -> None:
        if self.first_counts is None:
            self.first_counts = counts
            return
        for k in COUNT_KEYS:
            if counts[k] != self.first_counts[k]:
                self.count_mismatch.append(
                    f"{k}: {counts[k]} != first {self.first_counts[k]}")

    def read(self, out_dir: str) -> None:
        with Clock() as clock:
            reads = self.ops.call("read", lambda: read_back(out_dir))
        if reads is None:
            return
        errors = self.ops.checked(lambda: check_reads(reads, self.prep))
        if self.ops.record("read", errors):
            self.add("read_s", clock.host_s, clock)

    def resume(self, out_dir: str, chunk_before: dict) -> None:
        """Crash after the even shards committed, then the same job."""
        from json_time_series_extractor_ray.job import run_job

        removed = checks.crash_odd_shards(out_dir)
        cfg = wlmod.job_config(self.prep.corpus_dir, out_dir,
                               self.prep.workload)
        with Clock() as clock:
            result = self.ops.call("resume", lambda: run_job(cfg))
        if result is None:
            return
        errors = self.ops.checked(
            lambda: self._check_resume(out_dir, result, removed, chunk_before))
        if self.ops.record("resume", errors):
            self.add("resume_s", clock.host_s, clock)

    def _check_resume(self, out_dir, result, removed, chunk_before) -> list:
        errors = []
        if sorted(result["shards_run"]) != removed:
            errors.append(f"resume ran shards {sorted(result['shards_run'])}"
                          f", crash removed {removed}")
        # No double counting and nothing lost: every committed row against
        # the oracle again.  Exact checksums are not required here: a
        # resumed shard re-sums its samples in other combiner blocks, so a
        # float sum may move by an ulp (recorded as checksum drift).
        errors += checks.compare_to_oracle(checks.read_rollups(out_dir),
                                           self.prep.oracle)
        drift = checks.compare_checksums(checks.shard_checksums(out_dir),
                                         self.ref_checksums)
        if drift:
            self.resume_drift.append(drift[0])
        chunk_after = checks.chunk_summary(out_dir)
        if chunk_after != chunk_before:
            errors.append(f"chunk store after resume {chunk_after} != "
                          f"before {chunk_before}")
        return errors

    def iteration(self, i: int) -> None:
        out_dir = os.path.join(self.work, "out", f"job-{i}")
        chunk = self.run_job_checked(out_dir)
        if chunk is not None:
            self.read(out_dir)
            self.resume(out_dir, chunk)
        shutil.rmtree(out_dir, ignore_errors=True)
