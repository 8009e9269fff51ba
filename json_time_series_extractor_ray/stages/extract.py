"""Ray Data extraction stage: tokenized corpus batches -> sample batches.

The engine twin of the reference's whole library surface (``GetSamples``,
``TimeSeriesExtractor.cs:356-615``), restructured for Ray Data:

* the stage is a callable CLASS for ``ds.map_batches(ExtractSamplesStage(...),
  batch_format="pyarrow", zero_copy_batch=True, concurrency=N)`` — an actor
  pool whose per-options compiled state (match-rule regexes/sets, template
  AST, tokenizer tables) is built ONCE per worker in ``__init__``, the
  distributed analogue of the reference compiling per-``GetSamples`` state
  once per call (``TimeSeriesExtractor.cs:140-266``);
* batches stay Arrow end-to-end: the ``tokens`` list<int32> column is
  detokenized via a zero-copy numpy view; samples are accumulated into
  columnar builders and returned as one ``pyarrow.Table``;
* the wide ``tokens`` column is dropped on output (SURVEY.md §7.3.9): the
  shuffle after extraction moves only sample columns.  Token-array equality
  is preserved trivially because the stage never mutates its input block —
  verified end-to-end by ``tests/test_ray_pipeline.py``.

Determinism: distributed fallback timestamps must not use the wall clock
(retries would change outputs — SURVEY.md §7.3.5).  Configure either
``fallback_ts_column`` (per-row fallback, e.g. an ingest watermark column) or
``fallback_now_ns`` (job-level constant); using neither raises unless
``allow_wall_clock=True``.
"""

from __future__ import annotations

import json

from ..functions.jsonio import loads as _json_loads

import numpy as np
import pyarrow as pa

from ..extractor import (
    ExtractionPlan,
    ExtractorOptions,
    TimestampSource,
    extract_samples,
)
from ..tokenizer import get_tokenizer

SAMPLE_SCHEMA = pa.schema(
    [
        ("series_key", pa.string()),
        ("ts", pa.timestamp("ns")),
        ("ts_source", pa.int8()),
        ("value_num", pa.float64()),
        ("value_str", pa.string()),
        ("value_bool", pa.bool_()),
        ("value_kind", pa.int8()),
        ("doc_id", pa.string()),
        ("sample_ordinal", pa.int32()),
    ]
)


class ExtractSamplesStage:
    """tokens/text batches in, SAMPLE_SCHEMA batches out.

    Two kernels emit the same samples.  When the options are inside the
    shredded kernel's envelope (``stages/shred.plan_is_shreddable``:
    recursive, array indexes in keys, no filter, no start pointer, the
    built-in timestamp parsing; any key template), each batch first tries
    ``stages/shred.try_shred_batch``, and a batch it cannot prove, such as
    one whose ``{name}`` placeholder is not a top-level string in every
    doc or whose docs order their keys differently, takes the
    per-document traversal of ``extractor.py``.  ``shred=False`` pins the
    traversal.
    """

    def __init__(
        self,
        options: "ExtractorOptions | dict",
        tokenizer="utf8",
        *,
        tokens_column: str = "tokens",
        text_column: str | None = None,
        id_column: str = "doc_id",
        fallback_ts_column: str | None = None,
        fallback_now_ns: int | None = None,
        allow_wall_clock: bool = False,
        on_error: str = "raise",
        shred: bool = True,
    ):
        if isinstance(options, dict):
            options = ExtractorOptions.from_dict(options)
        self.plan = ExtractionPlan(options)  # compiled once per actor
        self.tokenizer = get_tokenizer(tokenizer) if text_column is None else None
        self.tokens_column = tokens_column
        self.text_column = text_column
        self.id_column = id_column
        self.fallback_ts_column = fallback_ts_column
        self.fallback_now_ns = fallback_now_ns
        if on_error not in ("raise", "skip"):
            raise ValueError("on_error must be 'raise' or 'skip'")
        # 'skip': corrupt payloads (bad tokens / invalid JSON) drop the DOC,
        # never the task — at 100 TB a handful of bad rows must not kill or
        # retry-storm the job.  Skips are counted per worker and logged.
        self.on_error = on_error
        self.skipped_docs = 0
        # Vectorized Arrow shredding (stages/shred.py); every batch it
        # cannot PROVE identical falls back to the per-document traversal.
        from .shred import plan_is_shreddable

        self.shred = bool(shred) and plan_is_shreddable(self.plan)
        if (
            options.get_default_timestamp is None
            and fallback_ts_column is None
            and fallback_now_ns is None
            and not allow_wall_clock
        ):
            raise ValueError(
                "Distributed extraction requires a deterministic fallback "
                "timestamp: set fallback_ts_column / fallback_now_ns / "
                "options.get_default_timestamp, or opt in with "
                "allow_wall_clock=True."
            )

    def _decode_texts(self, batch: pa.Table) -> list:
        if self.text_column is not None:
            return batch.column(self.text_column).to_pylist()
        return self.tokenizer.decode_batch(
            batch.column(self.tokens_column), on_error=self.on_error
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.fallback_ts_column is not None:
            col = batch.column(self.fallback_ts_column)
            if pa.types.is_timestamp(col.type):
                col = col.cast(pa.timestamp("ns"))
            fallbacks = col.cast(pa.int64()).to_pylist()
        else:
            fallbacks = None

        texts = None
        if self.shred:
            from ..tokenizer import Utf8Tokenizer, _tokens_to_numpy
            from .shred import try_shred_batch

            raw = None
            if self.text_column is None and isinstance(
                self.tokenizer, Utf8Tokenizer
            ):
                # Zero-decode path: utf8 token bytes ARE the JSON text
                # (the int32 ids narrow to bytes in one cast in the
                # shred, which leaves a batch with an id outside 0..255
                # to the tokenizer's decode).
                values, offsets = _tokens_to_numpy(
                    batch.column(self.tokens_column)
                )
                raw = (values, offsets)
            else:
                texts = self._decode_texts(batch)
            shredded = try_shred_batch(
                texts, self.plan, fallbacks, self.fallback_now_ns,
                batch.column(self.id_column), SAMPLE_SCHEMA,
                raw_utf8=raw,
            )
            if shredded is not None:
                return shredded

        if texts is None:
            texts = self._decode_texts(batch)

        plan = self.plan
        loads = _json_loads
        default_now = self.fallback_now_ns
        skip = self.on_error == "skip"
        n_rows = batch.num_rows
        flat: list = []
        counts = np.zeros(n_rows, dtype=np.int64)
        for row_idx, text in enumerate(texts):
            if skip:
                if text is None:  # undecodable tokens
                    self.skipped_docs += 1
                    continue
                try:
                    doc = loads(text)
                except ValueError:
                    self.skipped_docs += 1
                    continue
            else:
                doc = loads(text)
            fallback = fallbacks[row_idx] if fallbacks is not None else default_now
            samples = extract_samples(doc, plan, fallback_now_ns=fallback)
            counts[row_idx] = len(samples)
            flat.extend(samples)

        # Columnar rebuild: one C-speed comprehension per column beats a
        # single Python loop doing 9 appends + branching per sample; the
        # lineage columns are pure-Arrow/numpy (take + arange arithmetic).
        n = len(flat)
        indices = np.repeat(np.arange(n_rows), counts)
        starts = np.cumsum(counts) - counts
        ordinal = (
            np.arange(n, dtype=np.int32)
            - np.repeat(starts, counts).astype(np.int32)
            if n
            else np.empty(0, dtype=np.int32)
        )
        id_col = batch.column(self.id_column)
        if isinstance(id_col, pa.ChunkedArray):
            id_col = id_col.combine_chunks()
        return pa.table(
            {
                "series_key": pa.array([s[0] for s in flat], pa.string()),
                "ts": pa.array([s[1] for s in flat], pa.int64()).cast(
                    pa.timestamp("ns")
                ),
                "ts_source": pa.array([s[2] for s in flat], pa.int8()),
                "value_num": pa.array(
                    [s[3] if s[4] == 1 else None for s in flat], pa.float64()
                ),
                "value_str": pa.array(
                    [s[3] if s[4] == 2 or s[4] == 4 else None for s in flat],
                    pa.string(),
                ),
                "value_bool": pa.array(
                    [s[3] if s[4] == 3 else None for s in flat], pa.bool_()
                ),
                "value_kind": pa.array([s[4] for s in flat], pa.int8()),
                "doc_id": id_col.take(pa.array(indices)),
                "sample_ordinal": pa.array(ordinal, pa.int32()),
            },
            schema=SAMPLE_SCHEMA,
        )


def extract_dataset(
    ds,
    options,
    tokenizer="utf8",
    *,
    concurrency=None,
    batch_size: int = 2048,
    **stage_kwargs,
):
    """Attach the extraction stage to a Dataset.

    ``concurrency=None`` lets Ray run it as stateless tasks with a plan
    compiled per task via the callable-class path; pass an int (or
    ``(min, max)``) to pin an actor pool, which amortizes plan compilation
    across all batches of each worker — the right choice for non-trivial
    option sets.
    """
    # Validate eagerly on the driver: actor __init__ errors otherwise only
    # surface at first batch, deep inside the lazy execution.
    probe = ExtractSamplesStage(options, tokenizer=tokenizer, **stage_kwargs)
    kwargs = dict(
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    if concurrency is None:
        # Stateless tasks: ship the pre-compiled stage instance.
        return ds.map_batches(probe, **kwargs)
    return ds.map_batches(
        ExtractSamplesStage,
        fn_constructor_args=(options,),
        fn_constructor_kwargs=dict(tokenizer=tokenizer, **stage_kwargs),
        concurrency=concurrency,
        **kwargs,
    )
