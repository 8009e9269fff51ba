"""State: Gorilla chunk codec, checkpoint/lineage/resume."""

from .checkpoint import CheckpointManifest, run_sharded_rollup, shard_of
from .gorilla import (
    GorillaChunkWriter,
    compress_chunk,
    compress_chunks,
    compress_series_dataset,
    decompress_chunk,
    decompress_chunks,
)

__all__ = [
    "CheckpointManifest", "run_sharded_rollup", "shard_of",
    "GorillaChunkWriter", "compress_chunk", "compress_chunks",
    "compress_series_dataset", "decompress_chunk", "decompress_chunks",
]
