"""Cluster job entry point: config JSON -> resumable extract+rollup job.

The engine twin of the reference CLI sample (the closest thing the
reference has to a "config -> pipeline -> writer" flow,
``samples/JsonTimeSeriesExtractor.Cli/Program.cs:11-73``), shaped for
``ray job submit``::

    ray job submit -- python -m json_time_series_extractor_ray.job \\
        --config job.json

Config schema.  Every path may be a URI that pyarrow's filesystems
resolve: ``input`` and ``update_input`` are read through them, and every
store the job writes (``rollups/``, ``chunks/``, ``rollups_current/``,
``rollups_updated/``, ``token_chunks/``) is a set of shard commits
through them (``state/checkpoint.CheckpointManifest``)::

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
                                           # (<out>/token_chunks)
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
(``state/checkpoint.run_sharded_rollup``).  Each shard task commits
``chunks/shard=NNNNN/`` (the Gorilla raw tier), then
``rollups/shard=NNNNN/``: files first, then the record naming them.  None
of the job's tasks imports ``ray.data``, so a cold job starts no Ray Data
stats actor.  The removed options ``extract_concurrency`` and
``batch_size`` are refused: the samples do not depend on the cut.

Rerunning with the same config skips shards recorded in
``<output_dir>/rollups/_manifest`` (see state/checkpoint.py); a rerun
that changes ``num_shards``, ``tiers``, ``gap_fill`` or
``chunk_bucket_ns`` is refused.  The side passes (retention, the token
archive, the update) are plain Ray tasks that recompute their store whole
on every run: a rerun replaces it, never appends to it.  A map task holds
one table of its group's rows at a time and the group's samples, a shard
task one shard's samples: ``num_shards``, not ``chunk_bucket_ns``, bounds
its memory.  Exit output is one JSON line of manifest metrics.
"""

from __future__ import annotations

import argparse
import json
import sys


def _map_group(fn, group: list, columns: list, batch_bytes=None):
    """One task's rows: a row-group group of Parquet files, only
    ``columns``, read in tables of about ``batch_bytes`` -> ``fn`` of each
    table, as one table."""
    import pyarrow as pa

    from .sources.parquet import iter_row_groups

    return pa.concat_tables(
        [fn(t) for t in iter_row_groups(group, columns, batch_bytes)],
        promote_options="permissive")


def _extract_group(stage, group: list, batch_bytes):
    """One map task of the job: a row-group group of the corpus -> its
    samples, only the columns the shard tasks read, as one chunk (the
    shard tag and the slices handed to the shard tasks cost per chunk)."""
    from .state.checkpoint import ShardSamples

    return _map_group(lambda t: stage(t).select(ShardSamples.COLUMNS), group,
                      [stage.id_column, stage.tokens_column],
                      batch_bytes).combine_chunks()


def _extract_partials(stage, group: list, batch_bytes, tier: str):
    """An update's map task over new fragments: ``_extract_group``'s
    samples, cut to partials of ``tier``'s windows in the same task."""
    from .stages.rollup import (
        WINDOW_NS,
        WINDOW_OFFSET_NS,
        partial_rollup_batch,
    )

    return partial_rollup_batch(_extract_group(stage, group, batch_bytes),
                                WINDOW_NS[tier], WINDOW_OFFSET_NS.get(tier, 0))


def _update(update_input, stage, batch_bytes, out_dir: str, tiers: tuple,
            gap_fill, num_shards: int) -> dict:
    """Incremental update (nightly-append shape): one exchange merges the
    new fragments' partials (``_extract_partials``) with the stored
    finest-tier rows that are observations (``count > 0``), whose
    ``last_doc``/``last_ord`` tie-break makes the merge exact.  Each shard
    task cascades its partials, re-applies ``gap_fill`` and commits
    ``rollups_updated/``, recomputed whole; the historical corpus is never
    re-read.  Promoting it over ``rollups/`` is the operator's action."""
    import functools

    import pyarrow.dataset as pads

    from .sources.parquet import plan_row_groups
    from .stages.gapfill import check_gap_fill
    from .stages.rollup import PARTIAL_COLUMNS, cascade_series_group, \
        tier_partials
    from .state.checkpoint import CheckpointManifest, commit_exchange

    check_gap_fill(gap_fill)
    stored = f"{out_dir}/rollups"
    CheckpointManifest(stored).check_identity(tiers=list(tiers),
                                              gap_fill=gap_fill)
    updated = CheckpointManifest(f"{out_dir}/rollups_updated")
    finest = tiers[0]

    def _cascade_and_commit(partials):
        return (updated.commit_shard(
            partials.column("shard")[0].as_py(),
            cascade_series_group(partials, tiers, gap_fill=gap_fill)),)

    observed = (pads.field("tier") == finest) & (pads.field("count") > 0)
    stored_partials = functools.partial(tier_partials, tier=finest)
    inputs = [(_extract_partials, stage, g, batch_bytes, finest)
              for g in plan_row_groups(update_input)[1]]
    inputs += [(_map_group, stored_partials, g, ["tier", *PARTIAL_COLUMNS])
               for g in plan_row_groups(stored, observed)[1]]
    run, = commit_exchange(inputs, _cascade_and_commit, num_shards, [updated],
                           whole=True)
    return {"updated_rows": sum(r["rows"] for r in run.values()),
            "update_input": update_input, "output": updated.out_dir}


def run_job(config: dict) -> dict:
    for knob in ("extract_concurrency", "batch_size"):
        if config.get(knob) is not None:
            raise ValueError(
                f"job option {knob!r} was removed: the job's map side is "
                "one plain task per row-group group, with no actor pool "
                "and no batch cut to tune; drop the key")

    import ray

    from .state.checkpoint import (
        NUM_SHARDS,
        CheckpointManifest,
        data_context,
        run_sharded_rollup,
    )

    if not ray.is_initialized():  # standalone runs; the driver/tests own Ray otherwise
        ray.init(address="local", include_dashboard=False)
        # Standalone sessions only: the 8 MB block target of bench.py,
        # which also sets the map tasks' table cut below.
        data_context().target_max_block_size = 8 * 1024 * 1024

    from .sources.parquet import plan_row_groups
    from .stages.extract import ExtractSamplesStage

    out_dir = config["output_dir"].rstrip("/")
    tiers = tuple(config.get("tiers", ("1m", "1h", "1d")))
    num_shards = config.get("num_shards", NUM_SHARDS)
    # built (and its options validated) here, shipped once to every task
    stage = ray.put(ExtractSamplesStage(
        options=config.get("options") or {"recursive": True},
        tokenizer=config.get("tokenizer", "utf8"),
        fallback_now_ns=config.get("fallback_now_ns", 0)))
    # a map task holds one table of rows at a time, so a row group larger
    # than a block is never read whole; the shredded kernel costs about
    # 2 ms a call, so the tables are as large as half a block
    target = data_context().target_max_block_size
    batch_bytes = target // 2 if target else None

    update_input = config.get("update_input")
    if update_input:
        return _update(update_input, stage, batch_bytes, out_dir, tiers,
                       config.get("gap_fill"), num_shards)

    _, groups = plan_row_groups(config["input"])
    manifest, shards_run, shards_skipped = run_sharded_rollup(
        [(_extract_group, stage, g, batch_bytes) for g in groups],
        f"{out_dir}/rollups",
        num_shards,
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
        # watermark (max committed window_start): one task per committed
        # shard commits its unexpired rows, no recompute.
        from .pipelines.downsample import DEFAULT_TTL_NS, expire_rows

        ttl_ns = (
            dict(DEFAULT_TTL_NS)
            if retention is True
            else {tier: int(v) for tier, v in retention.items()}
        )
        # no watermark: no rollup row is stored, so nothing expires
        wm = result["rollups"]["watermark_max"]
        manifest.rewrite(lambda t: expire_rows(t, ttl_ns, wm),
                         into=CheckpointManifest(f"{out_dir}/rollups_current"))
        result["retention"] = {
            "watermark_ns": wm,
            "ttl_ns": ttl_ns,
            "rows_before": result["rollups"]["rows"],
        }

    if config.get("token_chunks", False):
        # Archive the INPUT corpus as checksummed varint token chunks
        # (state/tokenstore.py), one shard per map group:
        # read_token_chunks(out) == the corpus.
        from .state.tokenstore import compress_corpus_batch

        CheckpointManifest(f"{out_dir}/token_chunks").commit_all(
            [(i, _map_group, compress_corpus_batch, g,
              ["doc_id", "tokens", "source"], batch_bytes)
             for i, g in enumerate(groups)])
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
