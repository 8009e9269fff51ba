"""Traced run: each layer of the job called in turn, timed from outside.

The run first makes one untraced ``run_job`` + read-back (the baseline for
the tracing overhead and the reference output).  It then mirrors the job
layer by layer with a ``materialize()`` between layers, inside spans:
read -> extract -> sharded rollup + commit -> extract again -> Gorilla
chunk pass -> chunk write -> read-back.  Diagnostic layers follow (the
combiner alone, the ladder alone, a crash-resume of the sharded rollup),
then a single-process pass over the same batches as the single-threaded
baseline of the kernels.  Spans are written to
``.bench_build/jobbench/spans-<workload>-<seed>.json`` when the run ends.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import checks
import harness
import workload as wlmod

PER_LAYER_UNITS = {
    "sources.read_s": "s",
    "sources.rows": "count",
    "sources.bytes": "bytes",
    "tokenizer.decode_s": "s",
    "tokenizer.bytes": "bytes",
    "extract.s": "s",
    "extract.samples": "count",
    "extract.kernel_s": "s",
    "extract.shred_hit_ratio": "ratio",
    "rollup.partial_s": "s",
    "rollup.partial_rows_in": "count",
    "rollup.partial_rows_out": "count",
    "rollup.ladder_s": "s",
    "rollup.series": "count",
    "rollup.cascade_call_s": "s",
    "checkpoint.sharded_rollup_s": "s",
    "checkpoint.commit_s": "s",
    "checkpoint.shards_run": "count",
    "checkpoint.shards_skipped": "count",
    "plan.all_to_all_ops": "count",
    "gorilla.chunk_s": "s",
    "gorilla.encode_pts_per_s": "1/s",
    "gorilla.decode_pts_per_s": "1/s",
    "gorilla.points": "count",
    "gorilla.chunks": "count",
    "chunks.write_s": "s",
    "readback.full_s": "s",
    "readback.range_s": "s",
    "readback.range_chunks": "count",
    "readback.tier_s": "s",
    "trace.overhead_s": "s",
}


def _job_mirror(prep, out_dir, spans, m, ops):
    """The job's layers in its order, each materialized inside a span."""
    import ray

    from json_time_series_extractor_ray.pipelines.timeseries import (
        extract_pipeline,
    )
    from json_time_series_extractor_ray.state.checkpoint import (
        run_sharded_rollup,
    )
    from json_time_series_extractor_ray.state.gorilla import (
        compress_series_dataset,
    )

    wl = prep.workload

    def extract(corpus):
        # the job's own call: whole read blocks, stateless tasks
        return extract_pipeline(corpus, wl.options(), tokenizer="utf8",
                                concurrency=None, batch_size=None,
                                fallback_now_ns=0).materialize()

    with spans.span("traced_job"):
        with spans.span("sources.read") as counts:
            corpus = ray.data.read_parquet(prep.corpus_dir).materialize()
            counts["rows"] = m["sources.rows"] = corpus.count()
            counts["bytes"] = m["sources.bytes"] = corpus.size_bytes()
        with spans.span("extract") as counts:
            samples = extract(corpus)
            counts["samples"] = m["extract.samples"] = samples.count()
        with spans.span("checkpoint.sharded_rollup"):
            run_sharded_rollup(samples, os.path.join(out_dir, "rollups"),
                               wlmod.NUM_SHARDS, tiers=wlmod.TIERS)
        with spans.span("extract.chunk_pass"):
            samples2 = extract(corpus)
        with spans.span("gorilla.chunk"):
            chunks = compress_series_dataset(samples2).materialize()
        with spans.span("chunks.write"):
            chunks.write_parquet(os.path.join(out_dir, "chunks"))
        with spans.span("readback"):
            reads = harness.read_back(out_dir, spans)

    m["checkpoint.commit_s"] = statistics.median(checks.commit_wall_s(out_dir))
    summary = checks.chunk_summary(out_dir)
    m["gorilla.points"] = summary["points"]
    m["gorilla.chunks"] = summary["rows"]
    m["readback.range_chunks"] = harness.range_chunks(out_dir)
    # Materialized extraction blocks feed the combiner other batches than
    # the job's fused read+extract, so float sums may differ by an ulp:
    # the mirror is checked against the oracle, not the job's checksums.
    errors = ops.checked(lambda: checks.compare_to_oracle(
        checks.read_rollups(out_dir), prep.oracle))
    errors += ops.checked(lambda: harness.check_reads(reads, prep))
    ops.record("traced_job", errors)
    return corpus, samples


def _diagnostic_layers(prep, out_dir, samples, spans, m, ops):
    """The combiner and the ladder alone, then a crash-resume of the
    sharded rollup the mirror committed."""
    from json_time_series_extractor_ray.stages.rollup import (
        PartialRollupStage,
        rollup_ladder,
    )
    from json_time_series_extractor_ray.state.checkpoint import (
        run_sharded_rollup,
    )

    with spans.span("layers"):
        with spans.span("rollup.partial") as counts:
            # the ladder's own combiner call
            partials = samples.map_batches(
                PartialRollupStage(), batch_format="pyarrow",
                zero_copy_batch=True, batch_size=65536).materialize()
            counts["rows_in"] = m["rollup.partial_rows_in"] = samples.count()
            counts["rows_out"] = m["rollup.partial_rows_out"] = (
                partials.count())
        with spans.span("rollup.ladder"):
            ladder = rollup_ladder(samples, tiers=wlmod.TIERS).materialize()
        removed = checks.crash_odd_shards(out_dir)
        with spans.span("checkpoint.resume") as counts:
            _, run, skipped = run_sharded_rollup(
                samples, os.path.join(out_dir, "rollups"), wlmod.NUM_SHARDS,
                tiers=wlmod.TIERS)
            counts["shards_run"] = m["checkpoint.shards_run"] = len(run)
            counts["shards_skipped"] = m["checkpoint.shards_skipped"] = (
                len(skipped))
    m["rollup.series"] = len(ladder.unique("series_key"))
    errors = [] if sorted(run) == removed else [
        f"resume ran shards {sorted(run)}, crash removed {removed}"]
    errors += ops.checked(lambda: checks.compare_to_oracle(
        checks.read_rollups(out_dir), prep.oracle))
    ops.record("traced_resume", errors)


def _single_process(prep, corpus, spans, m):
    """The kernels over the same batches in this process, no Ray."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from json_time_series_extractor_ray.stages.extract import (
        SAMPLE_SCHEMA,
        ExtractSamplesStage,
    )
    from json_time_series_extractor_ray.stages.rollup import (
        cascade_series_group,
        partial_rollup_batch,
    )
    from json_time_series_extractor_ray.stages.shred import try_shred_batch
    from json_time_series_extractor_ray.state.gorilla import (
        compress_chunk,
        decompress_chunk,
    )
    from json_time_series_extractor_ray.tokenizer import (
        Utf8Tokenizer,
        _tokens_to_numpy,
    )

    batches = list(corpus.iter_batches(batch_size=None,
                                       batch_format="pyarrow"))
    stage = ExtractSamplesStage(prep.workload.options(), fallback_now_ns=0)
    tok = Utf8Tokenizer()
    with spans.span("single_process"):
        with spans.span("tokenizer.decode"):
            for b in batches:
                tok.decode_batch(b.column("tokens"))
        tried = hits = 0
        with spans.span("extract.shred_probe"):
            if stage.shred:
                for b in batches:
                    tried += 1
                    raw = _tokens_to_numpy(b.column("tokens"))
                    hits += try_shred_batch(
                        None, stage.plan, None, 0, b.column("doc_id"),
                        SAMPLE_SCHEMA, raw_utf8=raw) is not None
        with spans.span("extract.kernel"):
            samples = [stage(b) for b in batches]
        with spans.span("rollup.partial_kernel"):
            partials = [partial_rollup_batch(s) for s in samples]
        partial = pa.concat_tables(partials).to_pandas()
        call_s = []
        with spans.span("rollup.cascade"):
            for _, g in partial.groupby("series_key", sort=True):
                t0 = time.perf_counter()
                cascade_series_group(g.copy(), wlmod.TIERS)
                call_s.append(time.perf_counter() - t0)
        points = prep.points
        keys = points.column("series_key")
        bounds = _series_bounds(keys)
        ts = points.column("ts_ns").to_numpy()
        vals = points.column("value_num").to_numpy()
        with spans.span("gorilla.encode"):
            blobs = [compress_chunk(ts[a:b], vals[a:b]) for a, b in bounds]
        with spans.span("gorilla.decode"):
            for blob in blobs:
                decompress_chunk(blob)
    m["tokenizer.decode_s"] = spans.duration("tokenizer.decode")
    m["tokenizer.bytes"] = int(sum(
        pc.sum(b.column("n_tok")).as_py() for b in batches))
    m["extract.kernel_s"] = spans.duration("extract.kernel")
    m["extract.shred_hit_ratio"] = hits / tried if tried else 0.0
    m["rollup.cascade_call_s"] = statistics.median(call_s) if call_s else 0.0
    for name in ("encode", "decode"):
        m[f"gorilla.{name}_pts_per_s"] = (
            points.num_rows / spans.duration(f"gorilla.{name}"))


def _series_bounds(keys) -> list:
    """[start, end) row ranges of each series in the sorted points."""
    import numpy as np
    import pyarrow.compute as pc

    codes = pc.dictionary_encode(keys).combine_chunks().indices.to_numpy()
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    ends = np.r_[starts[1:], len(codes)]
    return list(zip(starts.tolist(), ends.tolist()))


def traced_run(args, wl, session, work) -> tuple:
    from harness import Iterations, Ops, setup
    from spans import SpanRecorder

    prep, _ = setup(session, wl, args.seed, work)
    ops = Ops()
    # the untraced baseline: one checked job + read-back, which also
    # yields the job's shuffle count
    base = Iterations(prep, work, ops)
    base_out = os.path.join(work, "out", "baseline")
    if base.run_job_checked(base_out) is not None:
        base.read(base_out)
    m = {"plan.all_to_all_ops": (base.first_counts or {}).get(
        "all_to_all_ops", -1)}

    spans = SpanRecorder(f"{wl.name}-{args.seed}")
    out_dir = os.path.join(work, "out", "traced")
    shutil.rmtree(out_dir, ignore_errors=True)
    mirrored = ops.call("traced_job",
                        lambda: _job_mirror(prep, out_dir, spans, m, ops))
    if mirrored is not None:
        corpus, samples = mirrored
        ops.call("traced_resume", lambda: _diagnostic_layers(
            prep, out_dir, samples, spans, m, ops))
        ops.call("single_process",
                 lambda: _single_process(prep, corpus, spans, m))
    session.stop()

    for name, span in (("sources.read_s", "sources.read"),
                       ("extract.s", "extract"),
                       ("rollup.partial_s", "rollup.partial"),
                       ("rollup.ladder_s", "rollup.ladder"),
                       ("checkpoint.sharded_rollup_s",
                        "checkpoint.sharded_rollup"),
                       ("gorilla.chunk_s", "gorilla.chunk"),
                       ("chunks.write_s", "chunks.write"),
                       ("readback.full_s", "readback.full"),
                       ("readback.range_s", "readback.range"),
                       ("readback.tier_s", "readback.tier")):
        m[name] = spans.duration(span)
    # span times are plain wall times, so the baseline is too
    untraced = [c.wall for k in ("job_s", "read_s") for c in base.clocks[k]]
    m["trace.overhead_s"] = (spans.duration("traced_job") - sum(untraced)
                             if len(untraced) == 2 else -1.0)
    spans_path = os.path.join(work, f"spans-{wl.name}-{args.seed}.json")
    spans.write(spans_path)
    detail = {
        "spans_file": os.path.relpath(spans_path, wlmod.ROOT),
        "self_s": spans.self_times(),
        "untraced_wall_s": {k: [c.wall for c in base.clocks[k]]
                            for k in ("job_s", "read_s")},
        "ops_failed_frac": ops.failed / max(ops.attempted, 1),
        "errors": ops.errors[:20],
        "corpus": prep.meta,
        "counts": base.first_counts,
    }
    # a layer that failed leaves its metrics at -1
    return {k: m.get(k, -1.0) for k in PER_LAYER_UNITS}, ops, detail
