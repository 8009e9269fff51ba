"""Ray Data stages: extraction, rollup ladder, gap-fill."""

from .extract import SAMPLE_SCHEMA, ExtractSamplesStage, extract_dataset
from .gapfill import FILL_LINEAR, FILL_LOCF, gap_fill_series
from .rollup import (
    TIER_ORDER,
    WINDOW_NS,
    PartialRollupStage,
    cascade_series_group,
    partial_rollup_batch,
    rollup_ladder,
    rollup_oracle,
)

__all__ = [
    "SAMPLE_SCHEMA", "ExtractSamplesStage", "extract_dataset",
    "FILL_LINEAR", "FILL_LOCF", "gap_fill_series",
    "TIER_ORDER", "WINDOW_NS", "PartialRollupStage", "cascade_series_group",
    "partial_rollup_batch", "rollup_ladder", "rollup_oracle",
]
