"""The rank-coded shard kernels equal the pandas reference kernels
(``tests/rollup_reference.py``) bit for bit: partials, the tier cascade,
the segmented gap-fill, the job's shard rollup and the Gorilla chunk
writer, on keys that are non-ASCII or differ only in case, ``last_ts``
ties, NaN and signed-zero values, null doc ids, and 0, 1 or many rows
and series.  ``rollup_oracle`` runs the same cascade as the job, so these
tests keep that oracle independent."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from json_time_series_extractor_ray.stages.rollup import (
    PARTIAL_COLUMNS,
    WINDOW_NS,
    cascade_series_group,
    partial_rollup_batch,
    rollup_shard,
)
from json_time_series_extractor_ray.state.checkpoint import ShardSamples
from json_time_series_extractor_ray.state.gorilla import (
    GorillaChunkWriter,
    decompress_chunk,
)
from tests import rollup_reference as ref

MIN = 60 * 10**9
BASE = 1_704_067_200 * 10**9  # 2024-01-01, a Monday and a day boundary
KEYS = ["Z", "a", "A", "é", "😀", "a/é", "Z/😀"]
DOCS = ["d1", "d2", "D", "é", "😀", None]
#: wide magnitudes and signed zeros: a sum run in any other order
#: differs in its last bits
VALUES = [0.1, 0.2, 1e16, -1e16, 3.0, -0.0, 1 / 3, np.nan]
#: instants that tie, sit on minute, hour, day and Monday boundaries
OFFSETS = [0, 1, MIN - 1, MIN, 59 * MIN, 60 * MIN, 1439 * MIN,
           1440 * MIN, 7 * 1440 * MIN - 1, 7 * 1440 * MIN, 10 * 1440 * MIN]
TIER_SETS = [("1m", "1h", "1d"), ("1m", "1w")]
BUCKETS = [None, 5 * MIN]


def _samples_table(keys, offsets, values, kinds, docs, ordinals) -> pa.Table:
    return pa.table({
        "series_key": pa.array(keys, pa.string()),
        "ts": pa.array(BASE + np.asarray(offsets, np.int64),
                       pa.int64()).cast(pa.timestamp("ns")),
        "value_num": pa.array(np.asarray(values, np.float64)),
        "value_kind": pa.array(np.asarray(kinds, np.int8)),
        "doc_id": pa.array(docs, pa.string()),
        "sample_ordinal": pa.array(np.asarray(ordinals, np.int32)),
    })


_samples = st.integers(0, 40).flatmap(lambda n: st.builds(
    _samples_table,
    st.lists(st.sampled_from(KEYS), min_size=n, max_size=n),
    st.lists(st.sampled_from(OFFSETS), min_size=n, max_size=n),
    st.lists(st.sampled_from(VALUES), min_size=n, max_size=n),
    st.lists(st.sampled_from([1, 1, 1, 2]), min_size=n, max_size=n),
    st.lists(st.sampled_from(DOCS), min_size=n, max_size=n),
    st.lists(st.integers(0, 2), min_size=n, max_size=n),
))


def _partials_frame(keys, windows, last_off, docs, ords, vals, counts):
    w = BASE + np.asarray(windows, np.int64) * MIN
    v = np.asarray(vals, np.float64)
    return pd.DataFrame({
        "series_key": np.asarray(keys, object),
        "window_start": w,
        "sum": v * 3,
        "count": np.asarray(counts, np.int64),
        "min": v - 1,
        "max": v + 1,
        "last": v,
        "last_ts": w + np.asarray(last_off, np.int64),
        "last_doc": np.asarray(docs, object),
        "last_ord": np.asarray(ords, np.int64),
    })


# minute indices around hour, day and Monday boundaries
_WINDOWS = [0, 1, 59, 60, 61, 1439, 1440, 4 * 1440 - 1, 4 * 1440,
            7 * 1440 - 1, 7 * 1440, 11 * 1440]
_partials = st.integers(0, 40).flatmap(lambda n: st.builds(
    _partials_frame,
    st.lists(st.sampled_from(KEYS), min_size=n, max_size=n),
    st.lists(st.sampled_from(_WINDOWS), min_size=n, max_size=n),
    st.lists(st.sampled_from([0, 1, 30 * 10**9]), min_size=n, max_size=n),
    st.lists(st.sampled_from(DOCS), min_size=n, max_size=n),
    st.lists(st.integers(0, 1), min_size=n, max_size=n),
    st.lists(st.sampled_from(VALUES), min_size=n, max_size=n),
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
))


def _assert_bits_equal(got: pd.DataFrame, want: pd.DataFrame):
    """Same columns, dtypes and values; floats compared by their bits."""
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    for c in want.columns:
        g, w = got[c].to_numpy(), want[c].to_numpy()
        if w.dtype == np.float64:
            assert g.dtype == w.dtype, c
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64),
                                          err_msg=c)
        else:
            pd.testing.assert_series_equal(got[c], want[c], check_exact=True)


def _check_rollups(samples: pa.Table):
    want_partials = ref.partial_rollup_batch(samples)
    got_partials = partial_rollup_batch(samples)
    assert got_partials.column_names == PARTIAL_COLUMNS
    if not len(want_partials):
        assert got_partials.num_rows == 0
        assert rollup_shard(ShardSamples(samples)).num_rows == 0
        return
    _assert_bits_equal(got_partials.to_pandas(), want_partials)
    for tiers in TIER_SETS:
        want = ref.cascade_series_group(want_partials, tiers)
        _assert_bits_equal(
            cascade_series_group(want_partials, tiers).to_pandas(), want)
        # the job's path: the first tier straight from the shard's sort
        _assert_bits_equal(
            rollup_shard(ShardSamples(samples), tiers).to_pandas(), want)


def _check_chunks(samples: pa.Table):
    frame = samples.to_pandas()
    for bucket_ns in BUCKETS:
        got = GorillaChunkWriter(bucket_ns)(samples).to_pandas()
        if not len(frame):
            assert len(got) == 0  # the reference cannot cut 0 rows
            continue
        pd.testing.assert_frame_equal(got, ref.chunk_rows(frame, bucket_ns),
                                      check_exact=True)


@settings(max_examples=150, deadline=None)
@given(_samples)
def test_partials_and_shard_rollup_equal_reference(samples):
    _check_rollups(samples)


@settings(max_examples=150, deadline=None)
@given(_partials)
def test_cascade_equals_reference(partials):
    for tiers in TIER_SETS:
        want = ref.cascade_series_group(partials, tiers)
        got = cascade_series_group(partials, tiers)
        if not len(partials):
            assert got.num_rows == 0
            continue
        _assert_bits_equal(got.to_pandas(), want)


@settings(max_examples=150, deadline=None)
@given(_samples)
def test_chunk_writer_equals_reference(samples):
    _check_chunks(samples)


def test_many_series_equal_reference():
    """3,000 series over four keys that differ only in a non-ASCII
    prefix, with tied timestamps, null doc ids and NaN values."""
    rng = np.random.default_rng(11)
    n = 30_000
    prefix = np.array(["Z", "a", "é", "😀"], object)[rng.integers(0, 4, n)]
    keys = [f"{p}{k:04d}" for p, k in zip(prefix, rng.integers(0, 750, n))]
    docs = np.array([f"d{i:05d}" for i in rng.integers(0, n, n)], object)
    docs[rng.random(n) < 0.01] = None
    samples = _samples_table(
        keys, rng.integers(0, 20_000, n) * 397 * 10**9,
        rng.choice(VALUES, n) * rng.integers(1, 5, n),
        np.where(rng.random(n) < 0.05, 2, 1), list(docs),
        rng.integers(0, 3, n))
    _check_rollups(samples)
    _check_chunks(samples)
    partials = ref.partial_rollup_batch(samples)
    partials = partials.iloc[rng.permutation(len(partials))]
    for tiers in TIER_SETS:
        _assert_bits_equal(cascade_series_group(partials, tiers).to_pandas(),
                           ref.cascade_series_group(partials, tiers))


#: gap-fill (method, round digits) pairs: the job's two, and the
#: registry's rounded linear fill
FILLS = [("locf", None), ("linear", None), ("linear", 6)]
#: (tiers, offset scale): a 1m-based set over two days, and a 1h-based
#: one over 20 days that crosses Monday-aligned week boundaries
GAP_TIERS = [(("1m", "1h", "1d"), 1), (("1h", "1w"), 10)]
GAP_OFFSETS = [0, 1, MIN - 1, MIN, 3 * MIN, 59 * MIN, 60 * MIN,
               1439 * MIN, 1440 * MIN, 2 * 1440 * MIN]
KEY = ["tier", "series_key", "window_start"]


def _check_gap_fill(samples: pa.Table, tiers):
    """Both package paths equal the per-segment reference fill of the
    reference cascade, bit for bit, after sorting by ``KEY``.  Partials
    are cut at the first tier, so the job's path sums like the others."""
    partials = partial_rollup_batch(samples, WINDOW_NS[tiers[0]])
    for method, digits in FILLS:
        got = cascade_series_group(partials, tiers, gap_fill=method,
                                   gap_fill_round=digits).to_pandas()
        if digits is None:
            _assert_bits_equal(rollup_shard(ShardSamples(samples), tiers,
                                            gap_fill=method).to_pandas(), got)
        if not partials.num_rows:
            assert len(got) == 0 and got.columns[-1] == "fill"
            continue
        want = ref.gap_fill_tier_group(
            ref.cascade_series_group(partials.to_pandas(), tiers), method,
            digits)
        _assert_bits_equal(got.sort_values(KEY, ignore_index=True),
                           want.sort_values(KEY, ignore_index=True))


_gap_samples = st.integers(0, 30).flatmap(lambda n: st.builds(
    lambda tiers, *cols: (tiers, _samples_table(*cols)),
    st.sampled_from(GAP_TIERS),
    st.lists(st.sampled_from(KEYS), min_size=n, max_size=n),
    st.lists(st.sampled_from(GAP_OFFSETS), min_size=n, max_size=n),
    st.lists(st.sampled_from(VALUES + [0.0]), min_size=n, max_size=n),
    st.lists(st.sampled_from([1, 1, 1, 2]), min_size=n, max_size=n),
    st.lists(st.sampled_from(DOCS), min_size=n, max_size=n),
    st.lists(st.integers(0, 2), min_size=n, max_size=n),
))


@settings(max_examples=100, deadline=None)
@given(_gap_samples)
def test_gap_fill_equals_reference(case):
    (tiers, scale), samples = case
    scaled = samples.set_column(1, "ts", pa.array(
        BASE + (samples.column("ts").cast(pa.int64()).to_numpy() - BASE)
        * scale, pa.int64()).cast(pa.timestamp("ns")))
    _check_gap_fill(scaled, tiers)


def test_gap_fill_edge_shapes_equal_reference():
    """0 rows, a single-row series, a series with no gap, a null
    ``last_doc``, NaN and signed zeros, and week gaps on the 1w tier."""
    _check_gap_fill(_samples_table([], [], [], [], [], []), TIER_SETS[0])
    samples = _samples_table(
        ["one", "full", "full", "full", "gap", "gap", "gap", "nan", "nan"],
        [5, 0, MIN, 2 * MIN, 0, 9 * MIN, 3000 * MIN, 0, 7 * MIN],
        [1.0, 0.0, -0.0, 2.0, -0.0, 0.0, 4.0, np.nan, 1.0],
        [1] * 9, ["d", "a", "b", None, None, "c", "e", "f", None], [0] * 9)
    for tiers in TIER_SETS + [("1h", "1w")]:
        _check_gap_fill(samples, tiers)
    weeks = _samples_table(["w"] * 3, [0, 15 * 1440 * MIN, 30 * 1440 * MIN],
                           [1.0, 2.0, 5.0], [1] * 3, ["a", "b", None],
                           [0] * 3)
    _check_gap_fill(weeks, ("1h", "1w"))
    filled = cascade_series_group(partial_rollup_batch(weeks), ("1w",),
                                  gap_fill="linear").to_pandas()
    assert filled["fill"].tolist() == ["", "linear", "", "linear", ""]


def test_gap_fill_many_series_equal_reference():
    """3,000 series over one hour: most 1m grids have gaps."""
    rng = np.random.default_rng(12)
    n = 15_000
    docs = np.array([f"d{i:05d}" for i in range(n)], object)
    docs[rng.random(n) < 0.01] = None
    samples = _samples_table(
        [f"s{k:04d}" for k in rng.integers(0, 3_000, n)],
        rng.integers(0, 3_600, n) * 10**9, rng.choice(VALUES + [0.0], n),
        np.where(rng.random(n) < 0.05, 2, 1), list(docs),
        rng.integers(0, 3, n))
    _check_gap_fill(samples, TIER_SETS[0])


def test_partial_ranks_null_doc_before_strings():
    """Rows tied on ``ts``: the partial's ``last`` is the largest doc
    string's row, never the null doc's; a null doc that wins on ``ts``
    reports a null ``last_doc``."""
    tied = _samples_table(["s"] * 3, [5] * 3, [1.0, 2.0, 3.0], [1] * 3,
                          ["d2", None, "d1"], [0] * 3)
    row = partial_rollup_batch(tied).to_pylist()[0]
    assert (row["last"], row["last_doc"]) == (1.0, "d2")
    later = _samples_table(["s"] * 3, [9, 5, 5], [1.0, 2.0, 3.0], [1] * 3,
                           [None, "a", "b"], [0] * 3)
    row = partial_rollup_batch(later).to_pylist()[0]
    assert (row["last"], row["last_doc"], row["last_ts"]) == (
        1.0, None, BASE + 9)


def test_cascade_ranks_null_last_doc_after_strings():
    """Partials tied on ``last_ts``: the merged ``last`` is the null
    ``last_doc`` row's."""
    partials = _partials_frame(["s", "s"], [0, 0], [5, 5], [None, "d2"],
                               [0, 0], [1.0, 2.0], [1, 1])
    row = cascade_series_group(partials, ("1m",)).to_pylist()[0]
    assert row["last"] == 1.0 and row["last_doc"] is None


def test_chunk_writer_ranks_null_doc_after_strings():
    samples = _samples_table(["s"] * 3, [5] * 3, [1.0, 2.0, 3.0], [1] * 3,
                             ["b", None, "a"], [0] * 3)
    chunk = GorillaChunkWriter()(samples).column("chunk")[0].as_py()
    assert decompress_chunk(chunk)[1].tolist() == [3.0, 1.0, 2.0]


class _Samples:
    """The one Dataset method ``run_sharded_rollup`` calls."""

    def __init__(self, table):
        self.table = table

    def select_columns(self, cols):
        return _Samples(self.table.select(cols))


def test_no_pandas_sort_in_shard_kernels(ray_session, monkeypatch, tmp_path):
    """The cascade, gap-fill, the chunk writer, compaction and the job's
    shard body never sort a pandas frame (a string sort costs more than
    the whole kernel)."""
    from json_time_series_extractor_ray.state import checkpoint, gorilla

    rng = np.random.default_rng(2)
    n = 2_000
    samples = _samples_table(
        [f"dev-{k:03d}/{p}" for k, p in zip(rng.integers(0, 200, n),
                                            rng.choice(["t", "h"], n))],
        rng.integers(0, 10**5, n) * 10**9, rng.normal(size=n),
        np.where(rng.random(n) < 0.05, 2, 1),
        [f"d{i:05d}" for i in range(n)], rng.integers(0, 3, n))
    partials = partial_rollup_batch(samples)
    chunks = GorillaChunkWriter(5 * MIN)(samples)

    def _shards(ds, fn, num_shards):
        t = checkpoint.add_shard_column(ds.table, num_shards)
        shard = t.column("shard").to_numpy()
        return [fn(t.filter(pa.array(shard == s))) for s in np.unique(shard)]

    def _in_process(ds, fn, num_shards=checkpoint.NUM_SHARDS, *,
                    skip_shards=()):
        return pa.concat_tables(
            [pa.table(out) for out in _shards(ds, fn, num_shards)])

    def _in_process_exchange(ds, fn, num_shards, skip_shards=()):
        return [ray_session.put(out) for out in _shards(ds, fn, num_shards)]

    def _no_sort(*args, **kwargs):
        raise AssertionError("pandas sort_values called")

    monkeypatch.setattr(checkpoint, "_exchange", _in_process_exchange)
    monkeypatch.setattr(gorilla, "shard_apply", _in_process)
    monkeypatch.setattr(pd.DataFrame, "sort_values", _no_sort)
    for gap_fill in (None, "locf", "linear"):
        out = cascade_series_group(partials, gap_fill=gap_fill)
        assert out.num_rows > partials.num_rows
        manifest, run, _ = checkpoint.run_sharded_rollup(
            _Samples(samples), str(tmp_path / f"rollups-{gap_fill}"), 4,
            gap_fill=gap_fill, chunks_dir=str(tmp_path / f"chunks-{gap_fill}"),
            chunk_bucket_ns=5 * MIN)
        assert len(run) == 4
        assert sum(manifest.chunks.load_record(s)["rows"] for s in run) > 200
    compacted = gorilla.compact_chunks(_Samples(chunks), target_points=7)
    assert compacted.num_rows > 200
    assert sum(compacted.column("n_points").to_pylist()) == sum(
        chunks.column("n_points").to_pylist())
