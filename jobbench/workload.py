"""Workloads of the job benchmark: seeded IoT corpora and their oracle.

A workload is one corpus shape run through ``job.run_job``.  Its corpus is
rendered serially in one child process from ``--seed`` with
``corpus.iot_corpus_table`` and written as Parquet; the program under test
only ever sees that Parquet.  The same process computes the oracle without
Ray: in-process extraction (``ExtractSamplesStage``) followed by
``stages.rollup.rollup_oracle``.  Corpus and oracle are cached under the
checkout's ``.bench_build/`` keyed by seed, size, device count, template
and a hash of the package sources, so a run with a seed it has seen
before only loads files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

PACKAGE = "json_time_series_extractor_ray"
#: Root of the checkout: the program's package sits next to the benchmark.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TIERS = ("1m", "1h", "1d")
NUM_SHARDS = 16
#: ``DataContext.target_max_block_size`` that ``run_job`` sets when it
#: starts Ray itself; the benchmark owns the session, so it sets the same.
BLOCK_TARGET_BYTES = 8 * 1024 * 1024
RAY_NUM_CPUS = 4
#: Docs and devices of the warm-up corpus: every layer of the workload's
#: job runs, on few enough series that the warm-up stays short.
WARMUP_DOCS = 64
WARMUP_DEVICES = 2
#: Docs per corpus Parquet file.  Ray's Parquet reader cuts a file into
#: blocks of (target block size / 10) / (bytes per row sampled from the
#: data) rows: 440-670 rows here, which made one-file corpora 18 or 27
#: blocks depending on the seed (and the job 30% slower at 27).  Files
#: below the smallest such cut are never cut, only grouped.
DOCS_PER_FILE = 320
#: Corpora kept in the cache; older ones are deleted.
CACHE_KEEP = 6


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    n_devices: int
    template: str | None  # None = the default ``{$prop}`` template
    why: str

    def options(self) -> dict:
        opts = {"recursive": True, "allow_nested_timestamps": True}
        if self.template is not None:
            opts["template"] = self.template
        return opts


# Sizes are set by the run budget: every run must start Ray, warm up three
# times, run at least one job + read + resume and stop well inside a
# minute on a 4-CPU host.  See README.md for what each workload loads.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "few_series", 12000, 256, None,
            "few long series (default template): shredded extraction and "
            "long-series Gorilla encode/decode dominate; cascade and commit "
            "stay nearly idle",
        ),
        Workload(
            "many_series", 2500, 16, "{device}/{$prop}",
            "many short series ({device} in the key): traversal kernel, "
            "tokenizer decode and per-series map_groups work dominate",
        ),
    )
}


def job_config(corpus_dir: str, output_dir: str, wl: Workload) -> dict:
    return {
        "input": corpus_dir,
        "output_dir": output_dir,
        "options": wl.options(),
        "tokenizer": "utf8",
        "tiers": list(TIERS),
        "num_shards": NUM_SHARDS,
        "fallback_now_ns": 0,
        "gorilla_chunks": True,
    }


def source_hash() -> str:
    """Hash of the package sources: a change to the program invalidates
    the cached oracle."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, PACKAGE)
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


@dataclasses.dataclass
class Prepared:
    """A workload's inputs and expected outputs for one seed."""

    workload: Workload
    seed: int
    corpus_dir: str
    warmup_dir: str
    oracle: "object"  # pandas DataFrame of expected rollup rows
    points: "object"  # pyarrow Table (series_key, ts_ns, value_num), sorted
    meta: dict
    cache_dir: str
    generated: bool

    def save_meta(self) -> None:
        _write_json(os.path.join(self.cache_dir, "meta.json"), self.meta)


def _write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True)
    os.replace(tmp, path)


def _extract_in_process(table, wl: Workload):
    """Every sample of ``table``, extracted without Ray."""
    import pyarrow as pa

    from json_time_series_extractor_ray.stages.extract import (
        SAMPLE_SCHEMA,
        ExtractSamplesStage,
    )

    stage = ExtractSamplesStage(wl.options(), fallback_now_ns=0)
    parts = [stage(pa.Table.from_batches([b]))
             for b in table.to_batches(max_chunksize=8192)]
    return pa.concat_tables(parts) if parts else SAMPLE_SCHEMA.empty_table()


def numeric_points(samples):
    """(series_key, ts_ns, value_num) of the numeric samples, sorted."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = samples.filter(pc.equal(samples.column("value_kind"), 1))
    pts = pa.table({
        "series_key": t.column("series_key"),
        "ts_ns": t.column("ts").cast(pa.int64()),
        "value_num": t.column("value_num"),
    })
    return sort_points(pts)


def sort_points(pts):
    return pts.sort_by([("series_key", "ascending"), ("ts_ns", "ascending"),
                        ("value_num", "ascending")])


def _generate(wl: Workload, seed: int, cache_dir: str) -> None:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from json_time_series_extractor_ray.corpus import iot_corpus_table
    from json_time_series_extractor_ray.stages.rollup import rollup_oracle

    tmp = cache_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "corpus"))
    os.makedirs(os.path.join(tmp, "warmup"))
    table = iot_corpus_table(wl.n_docs, seed=seed,
                             cfg={"n_devices": wl.n_devices})
    for i, start in enumerate(range(0, table.num_rows, DOCS_PER_FILE)):
        pq.write_table(table.slice(start, DOCS_PER_FILE),
                       os.path.join(tmp, "corpus", f"part-{i:05d}.parquet"))
    warm = iot_corpus_table(WARMUP_DOCS, seed=seed,
                            cfg={"n_devices": WARMUP_DEVICES})
    pq.write_table(warm, os.path.join(tmp, "warmup", "part-0.parquet"))

    samples = _extract_in_process(table, wl)
    oracle = rollup_oracle(samples, TIERS)
    oracle.to_parquet(os.path.join(tmp, "oracle.parquet"), index=False)
    points = numeric_points(samples)
    pq.write_table(points, os.path.join(tmp, "points.parquet"))
    meta = {
        "docs": table.num_rows,
        "corpus_bytes": int(sum(
            os.path.getsize(os.path.join(tmp, "corpus", f))
            for f in os.listdir(os.path.join(tmp, "corpus")))),
        "samples": samples.num_rows,
        "numeric_samples": points.num_rows,
        "series": len(pc.unique(samples.column("series_key"))),
        "numeric_series": len(pc.unique(points.column("series_key"))),
        "rows_per_tier": {t: int((oracle["tier"] == t).sum()) for t in TIERS},
    }
    _write_json(os.path.join(tmp, "meta.json"), meta)
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.rename(tmp, cache_dir)


def _prune_cache(cache_root: str, keep_dir: str) -> None:
    entries = [os.path.join(cache_root, d) for d in os.listdir(cache_root)]
    entries = [d for d in entries if os.path.isdir(d) and d != keep_dir]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[CACHE_KEEP - 1:]:
        shutil.rmtree(old, ignore_errors=True)


def prepare(wl: Workload, seed: int, cache_root: str) -> Prepared:
    """Load the workload's corpus and oracle, generating them on a miss."""
    import pandas as pd
    import pyarrow.parquet as pq

    template = wl.template or "{$prop}"
    key = (f"{wl.name}-s{seed}-n{wl.n_docs}-f{DOCS_PER_FILE}-d{wl.n_devices}-t"
           f"{hashlib.sha256(template.encode()).hexdigest()[:8]}-"
           f"p{source_hash()}")
    cache_dir = os.path.join(cache_root, key)
    os.makedirs(cache_root, exist_ok=True)
    generated = not os.path.isfile(os.path.join(cache_dir, "meta.json"))
    if generated:
        # One child process, so the corpus and oracle never count toward
        # this process's peak RSS (driver_peak_rss_mb).  A plain waited-for
        # subprocess: multiprocessing's spawn would leave its resource
        # tracker process running past the benchmark's exit.
        import subprocess
        import sys

        rc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--generate",
             wl.name, str(seed), cache_dir], check=False).returncode
        if rc != 0:
            raise RuntimeError(f"corpus generation exited {rc}")
        _prune_cache(cache_root, cache_dir)
    os.utime(cache_dir)
    with open(os.path.join(cache_dir, "meta.json")) as f:
        meta = json.load(f)
    return Prepared(
        workload=wl,
        seed=seed,
        corpus_dir=os.path.join(cache_dir, "corpus"),
        warmup_dir=os.path.join(cache_dir, "warmup"),
        oracle=pd.read_parquet(os.path.join(cache_dir, "oracle.parquet")),
        points=pq.read_table(os.path.join(cache_dir, "points.parquet")),
        meta=meta,
        cache_dir=cache_dir,
        generated=generated,
    )


def host_shape(num_cpus: int) -> dict:
    """The host facts every result carries: numbers compare only across
    one host shape."""
    import platform

    import pyarrow
    import ray

    mem_total_kb = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_total_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "mem_total_kb": mem_total_kb,
        "ray_num_cpus": num_cpus,
        "block_target_bytes": BLOCK_TARGET_BYTES,
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python": platform.python_version(),
        "memory_probe": _memory_probe(),
    }


def cpu_times() -> list | None:
    """Host CPU jiffies (``/proc/stat``) or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of the host's busy CPU time that other guests stole between two
    ``cpu_times`` readings.  On a shared host a call slows by about this
    share, so every timing is recorded with it."""
    if before is None or after is None or len(before) < 8:
        return None
    d = [b - a for a, b in zip(before, after)]
    busy = sum(d) - d[3] - d[4]  # minus idle and iowait
    return d[7] / busy if busy > 0 else None


def _memory_probe():
    """``bench.probe_host_memory()`` when the repo's bench module has it."""
    import importlib.util

    path = os.path.join(ROOT, "bench.py")
    if not os.path.isfile(path):
        return None
    spec = importlib.util.spec_from_file_location("_repo_bench", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    probe = getattr(mod, "probe_host_memory", None)
    return probe() if probe is not None else None


if __name__ == "__main__":
    import sys

    # python3 workload.py --generate <workload> <seed> <cache_dir>
    if len(sys.argv) != 5 or sys.argv[1] != "--generate":
        sys.exit("usage: workload.py --generate <workload> <seed> <cache_dir>")
    _generate(WORKLOADS[sys.argv[2]], int(sys.argv[3]), sys.argv[4])
