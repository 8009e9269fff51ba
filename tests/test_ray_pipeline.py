"""End-to-end Ray Data pipeline tests: tokenized corpus -> extraction ->
rollup ladder, pinned against the single-process kernel oracle, plus the
token-array-equality invariant."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from json_time_series_extractor_ray import ExtractorOptions, extract_samples
from json_time_series_extractor_ray.corpus import (
    BASE_TS_NS,
    iot_corpus_table,
    texts_to_corpus_table,
)
from json_time_series_extractor_ray.stages.extract import (
    ExtractSamplesStage,
    extract_dataset,
)
from json_time_series_extractor_ray.stages.rollup import (
    rollup_ladder,
    rollup_oracle,
)
from json_time_series_extractor_ray.tokenizer import get_tokenizer

IOT_OPTIONS = ExtractorOptions(
    recursive=True,
    allow_nested_timestamps=True,
    timestamp_property="/time",
    template="{device}/{$prop-local}",
    include_array_indexes_in_sample_keys=False,
    can_process_element=lambda ctx, ptr, el: ptr[-1] not in ("device", "status"),
)


@pytest.fixture(scope="module")
def corpus():
    return iot_corpus_table(2000, seed=7, cfg={"block_size": 512, "n_devices": 16})


def kernel_samples(corpus_table, options):
    """Single-process oracle: detokenize + extract row by row."""
    tok = get_tokenizer("utf8")
    texts = tok.decode_batch(corpus_table.column("tokens"))
    rows = []
    for doc_id, text in zip(corpus_table.column("doc_id").to_pylist(), texts):
        for ordinal, s in enumerate(
            extract_samples(text, options, fallback_now_ns=BASE_TS_NS)
        ):
            rows.append((s.key, s.ts_ns, doc_id, ordinal, s.value, s.value_kind))
    return rows


def test_corpus_is_deterministic():
    a = iot_corpus_table(600, seed=7, cfg={"block_size": 512, "n_devices": 16})
    b = iot_corpus_table(600, seed=7, cfg={"block_size": 512, "n_devices": 16})
    assert a.equals(b)
    c = iot_corpus_table(600, seed=8, cfg={"block_size": 512, "n_devices": 16})
    assert not a.equals(c)


def test_tokenizer_roundtrip(corpus):
    tok = get_tokenizer("utf8")
    texts = tok.decode_batch(corpus.column("tokens"))
    assert len(texts) == corpus.num_rows
    # re-encoding reproduces the token arrays bit-for-bit
    re_encoded = texts_to_corpus_table(
        corpus.column("doc_id").to_pylist(), texts, corpus.column("source").to_pylist()
    )
    assert re_encoded.column("tokens").equals(corpus.column("tokens"))
    assert all(json.loads(t) for t in texts[:10])


def test_bpe_tokenizer_roundtrip():
    tok = get_tokenizer("bpe")
    text = '{"time":"2024-01-01T00:00:00Z","temperature":19.3}'
    ids = tok.encode(text)
    assert tok.decode(ids) == text
    assert len(ids) < len(text)  # it actually compresses
    # deterministic across instances
    assert get_tokenizer("bpe").encode(text) == ids


def test_extract_stage_matches_kernel(ray_session, corpus):
    import ray

    ds = ray.data.from_arrow(corpus).repartition(4)
    out = extract_dataset(
        ds, IOT_OPTIONS, concurrency=2, fallback_now_ns=BASE_TS_NS
    )
    got = out.to_pandas()
    expected = kernel_samples(corpus, IOT_OPTIONS)
    assert len(got) == len(expected)
    got_set = set(
        zip(
            got["series_key"],
            got["ts"].astype("int64"),
            got["doc_id"],
            got["sample_ordinal"],
            got["value_num"].fillna(np.nan),
        )
    )
    exp_set = {(k, t, d, o, v if v is not None else np.nan)
               for (k, t, d, o, v, kind) in expected}
    # ordinal+doc_id give a stable identity even though Ray block order varies
    assert len(got_set) == len(exp_set)
    # compare ignoring NaN identity issues on non-numeric rows
    got_num = {x for x in got_set if x[4] == x[4]}
    exp_num = {x for x in exp_set if x[4] == x[4]}
    assert got_num == exp_num


def test_token_array_equality_through_pipeline(ray_session, corpus):
    """The per-row invariant: tokens ride through the engine unchanged."""
    import ray

    ds = ray.data.from_arrow(corpus).repartition(3)
    # a pass-through projection of the lineage columns next to the extraction
    back = ds.select_columns(["doc_id", "tokens", "n_tok"]).to_pandas()
    back = back.sort_values("doc_id", ignore_index=True)
    orig = corpus.select(["doc_id", "tokens", "n_tok"]).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    assert (back["doc_id"] == orig["doc_id"]).all()
    assert (back["n_tok"] == orig["n_tok"]).all()
    assert all(
        np.array_equal(a, b) for a, b in zip(back["tokens"], orig["tokens"])
    )


def test_rollup_ladder_matches_oracle(ray_session, corpus):
    import ray

    ds = ray.data.from_arrow(corpus).repartition(4)
    samples_ds = extract_dataset(
        ds, IOT_OPTIONS, concurrency=2, fallback_now_ns=BASE_TS_NS
    )
    ladder = rollup_ladder(samples_ds).to_pandas()
    ladder = ladder.sort_values(
        ["tier", "series_key", "window_start"], ignore_index=True
    )

    # oracle: same corpus through the serial kernel + serial cascade
    stage = ExtractSamplesStage(IOT_OPTIONS, fallback_now_ns=BASE_TS_NS)
    samples_table = stage(corpus)
    expected = rollup_oracle(samples_table)

    assert list(ladder.columns) == list(expected.columns)
    assert len(ladder) == len(expected)
    pd.testing.assert_frame_equal(ladder, expected, check_exact=True)


def test_cascade_exactness():
    """1h/1d tiers derived from 1m partials equal direct aggregation of the
    samples (count/min/max/last exactly; mean from carried sum)."""
    from json_time_series_extractor_ray.stages.rollup import (
        WINDOW_NS,
        partial_rollup_batch,
        rollup_oracle,
    )

    rng = np.random.default_rng(3)
    n = 5000
    ts = BASE_TS_NS + rng.integers(0, 3 * 86400, n) * 10**9
    t = pa.table(
        {
            "series_key": pa.array(np.where(rng.random(n) < 0.8, "hot", "cold")),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("ns")),
            "value_num": pa.array(np.round(rng.random(n) * 100, 2)),
            "value_kind": pa.array(np.ones(n, dtype=np.int8)),
            "doc_id": pa.array([f"d{i:05d}" for i in range(n)]),
            "sample_ordinal": pa.array(np.zeros(n, dtype=np.int32)),
        }
    )
    out = rollup_oracle(t)
    day = out[out["tier"] == "1d"]
    # direct daily aggregation in pandas
    df = t.to_pandas()
    ts_ns = df["ts"].astype("int64")
    df["w"] = (ts_ns - ts_ns % WINDOW_NS["1d"]).astype("datetime64[ns]")
    direct = df.groupby(["series_key", "w"]).agg(
        count=("value_num", "size"), min=("value_num", "min"), max=("value_num", "max")
    ).reset_index()
    merged = day.merge(
        direct, left_on=["series_key", "window_start"], right_on=["series_key", "w"]
    )
    assert len(merged) == len(day)
    assert (merged["count_x"] == merged["count_y"]).all()
    assert (merged["min_x"] == merged["min_y"]).all()
    assert (merged["max_x"] == merged["max_y"]).all()
    # mean is exactly sum/count of the carried sum
    assert np.allclose(day["mean"], day["sum"] / day["count"], rtol=0, atol=0)


def test_extract_on_error_skip(ray_session):
    """Corrupt rows (bad JSON or undecodable tokens) drop the doc, not the
    task, under on_error='skip'; on_error='raise' keeps strict parity."""
    import pyarrow as pa
    import pytest
    import ray

    from json_time_series_extractor_ray.corpus import texts_to_corpus_table
    from json_time_series_extractor_ray.stages.extract import ExtractSamplesStage

    good = '{"time":"2024-01-01T00:00:00Z","v":1.5}'
    bad_json = '{"time": not json'
    t = texts_to_corpus_table(["g1", "b1", "g2"], [good, bad_json, good],
                              ["s"] * 3)
    # also corrupt one row's tokens to invalid UTF-8 (lone continuation byte)
    tokens = t.column("tokens").to_pylist()
    tokens[2] = [0x80, 0x80]
    t = t.set_column(1, "tokens", pa.array(tokens, pa.list_(pa.int32())))

    strict = ExtractSamplesStage({"recursive": True}, fallback_now_ns=0)
    with pytest.raises(Exception):
        strict(t)

    lenient = ExtractSamplesStage({"recursive": True}, fallback_now_ns=0,
                                  on_error="skip")
    out = lenient(t)
    assert out.num_rows == 1  # only g1 survives
    assert lenient.skipped_docs == 2


def test_bpe_corpus_end_to_end(ray_session):
    """BPE-tokenized corpus -> extraction, token-array equality preserved."""
    import json

    import numpy as np
    import ray

    from json_time_series_extractor_ray.corpus import texts_to_corpus_table
    from json_time_series_extractor_ray.pipelines.timeseries import extract_pipeline
    from json_time_series_extractor_ray.tokenizer import get_tokenizer

    texts = [
        json.dumps({"time": f"2024-01-01T00:0{i}:00Z", "temperature": 19.3 + i},
                   separators=(",", ":"))
        for i in range(5)
    ]
    spec = ("bpe", {"seed": 42, "n_merges": 80})
    t = texts_to_corpus_table([f"d{i}" for i in range(5)], texts,
                              ["s"] * 5, tokenizer=spec)
    # tokens round-trip exactly
    tok = get_tokenizer(spec)
    decoded = tok.decode_batch(t.column("tokens").combine_chunks())
    assert decoded == texts
    # and extraction over the BPE corpus matches the text values
    out = extract_pipeline(
        ray.data.from_arrow(t), dict(recursive=True), tokenizer=spec
    ).to_pandas().sort_values("doc_id", ignore_index=True)
    assert len(out) == 5
    assert np.allclose(out["value_num"], [19.3 + i for i in range(5)])


def test_incremental_merge_equals_batch(ray_session):
    """merge_tier_rollups over a 3-way split of the corpus reproduces the
    one-shot ladder: bit-for-bit on every order-independent column
    (count/min/max/last/last_ts + the last_doc/last_ord tie-break), and
    within float-reassociation ULP noise on sum/mean (different partial
    groupings sum in a different order; identical after the 6-decimal
    rounding every consumer applies — pinned by the driver oracle)."""
    import ray

    from json_time_series_extractor_ray.corpus import iot_corpus_table
    from json_time_series_extractor_ray.stages.extract import extract_dataset
    from json_time_series_extractor_ray.stages.rollup import (
        merge_tier_rollups,
        rollup_ladder,
    )

    corpus = iot_corpus_table(3000)
    key_cols = ["tier", "series_key", "window_start"]

    def _ladder(table):
        samples = extract_dataset(
            ray.data.from_arrow(table), IOT_OPTIONS,
            fallback_now_ns=BASE_TS_NS,
        )
        return rollup_ladder(samples)

    batch = _ladder(corpus).to_pandas().sort_values(key_cols, ignore_index=True)
    thirds = [
        corpus.slice(0, 1000), corpus.slice(1000, 1000), corpus.slice(2000),
    ]
    merged = (
        merge_tier_rollups([_ladder(t) for t in thirds])
        .to_pandas()
        .sort_values(key_cols, ignore_index=True)
    )
    float_cols = ["sum", "mean"]
    exact = [c for c in batch.columns if c not in float_cols]
    pd.testing.assert_frame_equal(batch[exact], merged[exact],
                                  check_exact=True)
    for c in float_cols:
        np.testing.assert_allclose(batch[c], merged[c], rtol=1e-12)


class TestMergeWindowsNaN:
    """The tier merge (``cascade_series_group`` over one tier) on
    NaN-bearing partials."""

    def _merge(self, rows):
        import pandas as pd

        from json_time_series_extractor_ray.stages.rollup import (
            cascade_series_group,
        )

        df = pd.DataFrame(
            rows,
            columns=["window_start", "sum", "count", "min", "max", "last",
                     "last_ts", "last_doc", "last_ord"],
        )
        df.insert(0, "series_key", "s")
        df["window_start"] *= 60 * 10**9  # minutes -> 1m windows
        out = cascade_series_group(df, ("1m",)).to_pandas()
        out["last_ts"] = out["last_ts"].astype("int64")
        return out

    def test_nan_merge_is_partition_invariant(self):
        import numpy as np

        # window 0: clean partial + NaN-bearing partial (NaN last row)
        rows = [
            (0, 3.0, 2, 1.0, 2.0, 2.0, 10, "a", 0),
            (0, np.nan, 1, np.nan, np.nan, np.nan, 20, "b", 0),
        ]
        merged = self._merge(rows)
        assert len(merged) == 1
        r = merged.iloc[0]
        # NaN propagates (matching the partial kernel's reduceat), and
        # the whole 'last' triple comes from ONE row — the true last
        assert np.isnan(r["sum"]) and np.isnan(r["min"]) and np.isnan(r["max"])
        assert np.isnan(r["last"])
        assert r["last_ts"] == 20 and r["last_doc"] == "b"
        assert r["count"] == 3

    def test_clean_merge_unchanged(self):
        rows = [
            (0, 3.0, 2, 1.0, 2.0, 2.0, 10, "a", 0),
            (0, 5.0, 1, 5.0, 5.0, 5.0, 20, "b", 0),
            (1, 7.0, 1, 7.0, 7.0, 7.0, 70, "c", 0),
        ]
        merged = self._merge(rows)
        assert merged["sum"].tolist() == [8.0, 7.0]
        assert merged["count"].tolist() == [3, 1]
        assert merged["last"].tolist() == [5.0, 7.0]
        assert merged["last_doc"].tolist() == ["b", "c"]


@pytest.mark.parametrize("tiers", [("1m", "1h", "1d"), ("1m", "1w")])
def test_multi_series_cascade_equals_per_series(tiers):
    """One cascade call over the partials of many series equals the
    concat of per-series calls bit for bit, with NaN values and tied
    ``last_ts`` across partial rows of one window."""
    from json_time_series_extractor_ray.stages.rollup import (
        cascade_series_group,
        partial_rollup_batch,
    )

    rng = np.random.default_rng(5)
    n = 12_000
    base = 1_704_067_200 * 10**9
    values = rng.normal(size=n) * 1e3 / 7.0
    values[rng.random(n) < 0.02] = np.nan
    keys = np.array([f"s{k:03d}" for k in rng.integers(0, 150, n)])
    # 3,000 instants over ~14 days: equal timestamps within a series
    ts = base + rng.integers(0, 3000, n) * 397 * 10**9
    # series confined to one minute: neighbours in key order share their
    # only window at every tier, so a merge that ignored the key would mix
    one_minute = rng.random(n) < 0.05
    keys[one_minute] = [f"z{k}" for k in rng.integers(0, 10, one_minute.sum())]
    ts[one_minute] = base + rng.integers(0, 60, one_minute.sum()) * 10**9
    samples = pa.table({
        "series_key": pa.array(keys),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("ns")),
        "value_num": pa.array(values),
        "value_kind": pa.array(np.ones(n, np.int8)),
        "doc_id": pa.array([f"d{i:06d}" for i in rng.permutation(n)]),
        "sample_ordinal": pa.array(rng.integers(0, 3, n), pa.int32()),
    })
    partials = pd.concat(
        [partial_rollup_batch(samples.slice(i, 1000)).to_pandas()
         for i in range(0, n, 1000)],
        ignore_index=True,
    )
    partials = partials.iloc[rng.permutation(len(partials))].reset_index(
        drop=True)
    tied = partials.duplicated(["series_key", "window_start", "last_ts"],
                               keep=False)
    assert tied.any() and partials["last"].isna().any()

    keys = ["tier", "series_key", "window_start"]
    together = cascade_series_group(partials, tiers).to_pandas().sort_values(
        keys, ignore_index=True)
    apart = pd.concat(
        [cascade_series_group(g.copy(), tiers).to_pandas()
         for _, g in partials.groupby("series_key", sort=True)],
        ignore_index=True,
    ).sort_values(keys, ignore_index=True)
    pd.testing.assert_frame_equal(together, apart, check_exact=True)


def test_incremental_merge_non_default_tiers(ray_session):
    """merge_tier_rollups over a ladder stored WITHOUT a 1m tier must
    merge that ladder's finest tier, not silently filter on '1m'."""
    import pyarrow.compute as pc

    from json_time_series_extractor_ray.corpus import iot_corpus_table
    from json_time_series_extractor_ray.pipelines.timeseries import (
        extract_pipeline,
    )
    from json_time_series_extractor_ray.stages.rollup import (
        merge_tier_rollups,
        rollup_ladder,
    )
    import ray

    corpus = ray.data.from_arrow(iot_corpus_table(400, seed=5))
    tiers = ("1h", "1d")

    def _half(parity):
        def _f(batch):
            import pyarrow as pa

            last = pc.utf8_slice_codeunits(batch.column("doc_id"),
                                           start=13, stop=14)
            digits = "02468" if parity == 0 else "13579"
            return batch.filter(
                pc.is_in(last, value_set=pa.array(list(digits)))
            )
        return corpus.map_batches(_f, batch_format="pyarrow")

    batch_df = rollup_ladder(
        extract_pipeline(corpus), tiers=tiers
    ).to_pandas()
    merged_df = merge_tier_rollups(
        [rollup_ladder(extract_pipeline(_half(p)), tiers=tiers)
         for p in (0, 1)],
        tiers=tiers,
    ).to_pandas()
    key = ["tier", "series_key", "window_start"]
    a = batch_df.sort_values(key, ignore_index=True)
    b = merged_df.sort_values(key, ignore_index=True)
    assert len(b) == len(a) > 0
    assert a["count"].tolist() == b["count"].tolist()
    assert a["min"].tolist() == b["min"].tolist()
    assert a["last"].tolist() == b["last"].tolist()


def test_weekly_tier_monday_alignment(ray_session, corpus):
    """The '1w' tier uses WINDOW_OFFSET_NS to align on calendar (ISO)
    Mondays — epoch day 0 is a Thursday, so plain epoch flooring would
    start weeks on Thursdays.  Pins: every window_start is a Monday
    midnight covering its samples, and the distributed ladder equals the
    serial oracle at tiers=('1m', '1w')."""
    import datetime as dt

    import ray

    from json_time_series_extractor_ray.stages.rollup import (
        WINDOW_NS,
        WINDOW_OFFSET_NS,
    )

    ds = ray.data.from_arrow(corpus).repartition(4)
    samples_ds = extract_dataset(
        ds, IOT_OPTIONS, concurrency=2, fallback_now_ns=BASE_TS_NS
    )
    ladder = rollup_ladder(samples_ds, tiers=("1m", "1w")).to_pandas()
    week = ladder[ladder["tier"] == "1w"]
    assert len(week) > 0
    for w in week["window_start"]:
        pyw = w.to_pydatetime()
        assert pyw.weekday() == 0, f"{w} is not a Monday"
        assert pyw.time() == dt.time(0, 0)
    # every sample's ts lands inside its week window
    gap = week["last_ts"].astype("int64") - week["window_start"].astype("int64")
    assert ((gap >= 0) & (gap < WINDOW_NS["1w"])).all()
    # the offset itself is a whole number of 1d windows (cascade nesting)
    assert WINDOW_OFFSET_NS["1w"] % WINDOW_NS["1d"] == 0

    stage = ExtractSamplesStage(IOT_OPTIONS, fallback_now_ns=BASE_TS_NS)
    expected = rollup_oracle(stage(corpus), tiers=("1m", "1w"))
    got = ladder.sort_values(["tier", "series_key", "window_start"],
                             ignore_index=True)
    pd.testing.assert_frame_equal(got, expected, check_exact=True)
