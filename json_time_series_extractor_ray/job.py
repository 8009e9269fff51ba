"""Cluster job entry point: config JSON -> resumable extract+rollup job.

The engine twin of the reference CLI sample (the closest thing the
reference has to a "config -> pipeline -> writer" flow,
``samples/JsonTimeSeriesExtractor.Cli/Program.cs:11-73``), shaped for
``ray job submit``::

    ray job submit -- python -m json_time_series_extractor_ray.job \\
        --config job.json

Config schema.  Every path may be a URI that pyarrow's filesystems
resolve: ``input`` and ``update_input`` are read through them, the shard
commits of ``rollups/`` and ``chunks/`` (and the compaction of
``chunks/``) write through them, and ``rollups_updated``,
``rollups_current`` and ``token_chunks`` are Ray Data ``write_parquet``
outputs, which resolve the same URIs::

    {
      "input": "/data/corpus/",            # Parquet (doc_id, tokens, n_tok, source):
                                           # a directory, a file or a list of them
      "output_dir": "/data/out/",          # rollups/ (+ manifest) and chunks/
      "options": {"recursive": true, ...}, # ExtractorOptions.from_dict payload
      "tokenizer": "utf8",
      "tiers": ["1m", "1h", "1d"],
      "gap_fill": null,                    # null | "locf" | "linear"
      "num_shards": 64,                    # checkpoint/partition granularity
      "fallback_now_ns": 0,                # deterministic fallback timestamp
      "chunk_bucket_ns": 86400000000000,   # optional: one chunk per series x bucket
      "compact_chunks": false,             # maintenance: merge small chunks
      "compact_target_points": 1000000,    # max points per compacted chunk
      "token_chunks": false,               # also archive the input corpus as
                                           # compressed varint token chunks
      "update_input": "/data/new/",        # incremental mode: roll up ONLY
                                           # these fragments and merge into
                                           # the stored tiers (nightly
                                           # append; writes rollups_updated)
      "retention": {"1m": ..., "1h": ...}, # per-tier TTL ns (true = defaults);
                                           # writes <out>/rollups_current with
                                           # expired windows dropped, watermark
                                           # taken from the shard manifests
    }

The job extracts the corpus once and shuffles its samples once, by shard,
with no Ray Data plan: the driver plans the corpus row groups
(``sources/parquet.plan_row_groups``), and one plain Ray task per group
of them streams ``doc_id``/``tokens`` across the group's files in tables
of half the block target, runs the extraction stage (built once, shipped
once) and splits its samples by shard
(``state/checkpoint.run_sharded_rollup``).  Each
shard task commits ``chunks/shard=NNNNN/`` (the Gorilla raw tier), then
``rollups/shard=NNNNN/``: files first, then the record naming them.  None
of the job's tasks imports ``ray.data``, so a cold job starts no Ray Data
stats actor.  The removed options ``extract_concurrency`` and
``batch_size`` are refused: the samples do not depend on the cut.

Rerunning with the same config skips shards recorded in
``<output_dir>/rollups/_manifest`` (see state/checkpoint.py).  A map task
holds one table of its group's rows at a time and the group's samples, a
shard task one shard's samples: ``num_shards``, not ``chunk_bucket_ns``,
bounds its memory.  Exit output is one JSON line of manifest metrics.
"""

from __future__ import annotations

import argparse
import json
import sys


def _extract_group(stage, group: list, batch_bytes):
    """One map task's rows: a row-group group of the corpus, read in
    tables of about ``batch_bytes`` -> their samples, only the columns the
    shard tasks read, as one chunk (the shard tag and the slices handed to
    the shard tasks cost per chunk)."""
    import pyarrow as pa

    from .sources.parquet import iter_row_groups
    from .state.checkpoint import ShardSamples

    columns = [stage.id_column, stage.tokens_column]
    return pa.concat_tables(
        [stage(t).select(ShardSamples.COLUMNS)
         for t in iter_row_groups(group, columns, batch_bytes)],
        promote_options="permissive").combine_chunks()


def run_job(config: dict) -> dict:
    for knob in ("extract_concurrency", "batch_size"):
        if config.get(knob) is not None:
            raise ValueError(
                f"job option {knob!r} was removed: the job's map side is "
                "one plain task per row-group group, with no actor pool "
                "and no batch cut to tune; drop the key")

    import ray

    from .state.checkpoint import NUM_SHARDS, data_context, run_sharded_rollup

    if not ray.is_initialized():  # standalone runs; the driver/tests own Ray otherwise
        ray.init(address="local", include_dashboard=False)
        # Standalone sessions only: the 8 MB block target of bench.py,
        # which also sets the map tasks' table cut below.
        data_context().target_max_block_size = 8 * 1024 * 1024

    from .sources.parquet import plan_row_groups, read_parquet
    from .stages.extract import ExtractSamplesStage

    out_dir = config["output_dir"].rstrip("/")
    tiers = tuple(config.get("tiers", ("1m", "1h", "1d")))
    extract_args = dict(options=config.get("options") or {"recursive": True},
                        tokenizer=config.get("tokenizer", "utf8"),
                        fallback_now_ns=config.get("fallback_now_ns", 0))

    update_input = config.get("update_input")
    if update_input:
        # Incremental update (nightly-append shape): roll up ONLY the new
        # corpus fragments and merge them into the stored tiers with
        # merge_tier_rollups — the historical corpus is never re-read.
        # The stored tiers carry the last_doc/last_ord tie-break that
        # makes the merge exact; their gap-fill rows are skipped and
        # gap_fill re-applied.  Promoting <out>/rollups_updated over
        # rollups/ is the operator's explicit action.
        from .pipelines.timeseries import extract_pipeline
        from .stages.rollup import merge_tier_rollups, rollup_ladder

        stored = read_parquet(f"{out_dir}/rollups")
        increment = rollup_ladder(
            extract_pipeline(read_parquet(update_input), batch_size=None,
                             **extract_args),
            tiers=tiers)
        merged = merge_tier_rollups([stored, increment], tiers=tiers,
                                    gap_fill=config.get("gap_fill"))
        merged = merged.materialize()  # small rollup rows; consumed twice
        merged.write_parquet(f"{out_dir}/rollups_updated")
        return {"updated_rows": merged.count(), "update_input": update_input,
                "output": f"{out_dir}/rollups_updated"}

    # built (and its options validated) here, shipped once to every task
    stage = ray.put(ExtractSamplesStage(**extract_args))
    _, groups = plan_row_groups(config["input"])
    # a map task holds one table of rows at a time, so a row group larger
    # than a block is never read whole; the shredded kernel costs about
    # 2 ms a call, so the tables are as large as half a block
    target = data_context().target_max_block_size
    batch_bytes = target // 2 if target else None
    manifest, shards_run, shards_skipped = run_sharded_rollup(
        [(_extract_group, stage, g, batch_bytes) for g in groups],
        f"{out_dir}/rollups",
        config.get("num_shards", NUM_SHARDS),
        tiers=tiers,
        gap_fill=config.get("gap_fill"),
        chunks_dir=f"{out_dir}/chunks",
        chunk_bucket_ns=config.get("chunk_bucket_ns"),
    )

    result = {
        # the records the shard tasks returned: nothing is read back
        "rollups": manifest.metrics(manifest.records),
        "shards_run": shards_run,
        "shards_skipped": shards_skipped,
        "chunks_written": True,
    }

    retention = config.get("retention")
    if retention:
        # Retention pass over the STORED tiers, with the manifest's
        # watermark (max committed window_start): no recompute.
        from .pipelines.downsample import DEFAULT_TTL_NS, retention_expire

        ttl_ns = (
            dict(DEFAULT_TTL_NS)
            if retention is True
            else {tier: int(v) for tier, v in retention.items()}
        )
        wm = result["rollups"]["watermark_max"]
        if wm is not None:  # else no rollup row is stored: nothing expires
            rollups_ds = read_parquet(f"{out_dir}/rollups")
            current = retention_expire(rollups_ds, ttl_ns=ttl_ns,
                                       watermark_ns=int(wm))
            current.write_parquet(f"{out_dir}/rollups_current")
        result["retention"] = {
            "watermark_ns": wm,
            "ttl_ns": ttl_ns,
            "rows_before": result["rollups"]["rows"],
        }

    if config.get("token_chunks", False):
        # Archive the INPUT corpus as checksummed varint token chunks
        # (state/tokenstore.py): read_token_chunks(out) == the corpus.
        from .state.tokenstore import compress_corpus_dataset

        tchunks = compress_corpus_dataset(read_parquet(config["input"]))
        tchunks.write_parquet(f"{out_dir}/token_chunks")
        result["token_chunks_written"] = True

    if config.get("compact_chunks", False):
        # Maintenance pass, after every shard has committed: merge each
        # shard's small chunks (one per series x bucket) into few large
        # ones, bit-exact, as one chunk commit per shard.
        from .state.gorilla import compact_table

        target = int(config.get("compact_target_points", 1_000_000))
        manifest.chunks.rewrite(lambda t: compact_table(t, target))
        result["chunks_compacted"] = True

    return result


def main(argv=None):
    ap = argparse.ArgumentParser(prog="json_time_series_extractor_ray.job")
    ap.add_argument("--config", required=True, help="path to job config JSON")
    args = ap.parse_args(argv)
    with open(args.config) as f:
        config = json.load(f)
    result = run_job(config)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
