"""Checkpoint manifest, atomic shard commit, and kill/resume semantics."""

import json
import logging
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from json_time_series_extractor_ray.state.checkpoint import (
    CheckpointManifest,
    add_shard_column,
    run_sharded_rollup,
    shard_of,
)


def _samples_table(n_series=8, n_per=50):
    base = 1_704_067_200 * 10**9
    rows = {"series_key": [], "ts": [], "value_num": [], "value_kind": [],
            "doc_id": [], "sample_ordinal": []}
    for s in range(n_series):
        for i in range(n_per):
            rows["series_key"].append(f"series-{s:03d}")
            rows["ts"].append(base + i * 30 * 10**9 + s)
            rows["value_num"].append(float(s * 100 + i))
            rows["value_kind"].append(1)
            rows["doc_id"].append(f"d{s}-{i}")
            rows["sample_ordinal"].append(0)
    return pa.table(
        {
            "series_key": pa.array(rows["series_key"]),
            "ts": pa.array(rows["ts"], pa.int64()).cast(pa.timestamp("ns")),
            "value_num": pa.array(rows["value_num"], pa.float64()),
            "value_kind": pa.array(rows["value_kind"], pa.int8()),
            "doc_id": pa.array(rows["doc_id"]),
            "sample_ordinal": pa.array(rows["sample_ordinal"], pa.int32()),
        }
    )


class TestManifest:
    def test_shard_of_stable(self):
        assert shard_of("abc", 16) == shard_of("abc", 16)
        assert 0 <= shard_of("abc", 16) < 16

    def test_add_shard_column_string_keys_keep_their_shards(self):
        keys = ["series-000", "dev-1/temp", "", "é/ü", "series-000"]
        t = add_shard_column(pa.table({"series_key": pa.chunked_array(
            [keys[:2], keys[2:]])}), 64)
        assert t.column("shard").type == pa.int32()
        # the ids every job manifest and shard directory already uses
        assert t.column("shard").to_pylist() == [43, 5, 4, 36, 43]
        assert t.column("shard").to_pylist() == [shard_of(k, 64)
                                                 for k in keys]

    def test_add_shard_column_integer_keys_hash_like_hash_shards(self):
        from json_time_series_extractor_ray.pipelines._util import (
            hash_shards,
        )

        keys = [0, 7, -3, 2**40, 7, -2**63, 2**63 - 1]
        t = add_shard_column(pa.table({"user_id": pa.array(keys, pa.int64())}),
                             64, "user_id")
        assert t.column("shard").type == pa.int32()
        assert t.column("shard").to_pylist() == [0, 20, 15, 56, 20, 10, 61]
        assert t.column("shard").to_pylist() == list(
            hash_shards(np.array(keys, np.int64), 64))
        # every integer width hashes its value as an int64
        narrow = add_shard_column(pa.table({"k": pa.chunked_array(
            [pa.array([0, 7], pa.int32()), pa.array([-3], pa.int32())])}),
            64, "k")
        assert narrow.column("shard").to_pylist() == [0, 20, 15]

    def test_add_shard_column_null_keys_share_one_shard(self):
        for keys, want in ((pa.array(["a", None, "b", None]),
                            [shard_of("a", 64), 0, shard_of("b", 64), 0]),
                           (pa.array([None, 7, None, -3], pa.int64()),
                            [0, 20, 0, 15]),
                           (pa.nulls(3, pa.string()), [0, 0, 0])):
            shards = add_shard_column(pa.table({"k": keys}), 64, "k") \
                .column("shard").to_pylist()
            assert shards == want

    def test_commit_is_atomic_and_recorded(self, tmp_path):
        m = CheckpointManifest(str(tmp_path / "out"))
        t = pa.table({"series_key": ["a"], "window_start": [1], "v": [2.0]})
        rec = m.commit_shard(3, t, input_fragments=["f1.parquet"])
        assert rec["rows"] == 1
        assert m.completed_shards() == {3}
        assert os.path.isdir(m.shard_dir(3))
        assert not os.path.exists(m.shard_dir(3) + ".tmp")
        loaded = m.load_record(3)
        assert loaded["input_fragments"] == ["f1.parquet"]
        assert loaded["checksum"] == rec["checksum"]

    def test_record_without_data_dir_not_completed(self, tmp_path):
        m = CheckpointManifest(str(tmp_path / "out"))
        t = pa.table({"x": [1]})
        m.commit_shard(0, t)
        import shutil

        shutil.rmtree(m.shard_dir(0))
        assert m.completed_shards() == set()

    def test_reading_a_path_with_no_manifest_raises_and_creates_nothing(
            self, tmp_path):
        from json_time_series_extractor_ray.state.checkpoint import (
            manifest_report,
        )

        missing = str(tmp_path / "no" / "such" / "store")
        with pytest.raises(FileNotFoundError, match=re.escape(missing)):
            manifest_report(missing)
        with pytest.raises(FileNotFoundError, match=re.escape(missing)):
            CheckpointManifest(missing).completed_shards()
        assert not os.path.exists(tmp_path / "no")

    def test_uri_store_commits_through_its_filesystem(self, tmp_path,
                                                      monkeypatch):
        """A ``file://`` store is written through pyarrow's local
        filesystem: no relative ``file:`` directory appears."""
        monkeypatch.chdir(tmp_path)
        m = CheckpointManifest(f"file://{tmp_path}/out")
        m.ensure_sharding(4)
        m.commit_shard(1, pa.table({"x": [1, 2]}))
        assert m.completed_shards() == {1}
        assert m.read_shard(1).column("x").to_pylist() == [1, 2]
        assert os.listdir(tmp_path) == ["out"]

    def test_root_is_fsynced_for_a_dir_a_dead_attempt_left(self, tmp_path,
                                                            monkeypatch):
        from json_time_series_extractor_ray.state import checkpoint

        synced = []
        monkeypatch.setattr(checkpoint, "_fsync", synced.append)
        m = CheckpointManifest(str(tmp_path / "out"))
        os.makedirs(m.shard_dir(2))  # no record: it may not be durable
        m.commit_shard(2, pa.table({"x": [3]}))
        assert m.root in synced and m._path("shard=00002") in synced

    def test_recommit_overwrites(self, tmp_path):
        m = CheckpointManifest(str(tmp_path / "out"))
        m.commit_shard(1, pa.table({"x": [1, 2]}))
        m.commit_shard(1, pa.table({"x": [5]}))
        assert m.load_record(1)["rows"] == 1


def _multi_block_samples(n_series=64, n_blocks=32, block_rows=5000, seed=3):
    """About 160k samples in ``n_blocks`` blocks of ``block_rows`` rows,
    randomly permuted, with non-round values: more rows than one 65,536-row
    combiner batch, so the combiner's batch cut matters to float sums."""
    rng = np.random.default_rng(seed)
    n = n_blocks * block_rows
    base = 1_704_067_200 * 10**9
    perm = rng.permutation(n)
    series = rng.integers(0, n_series, n)[perm]
    table = pa.table(
        {
            "series_key": pa.array([f"series-{s:03d}" for s in series]),
            "ts": pa.array(base + rng.integers(0, 6 * 3600 * 10**9, n)[perm],
                           pa.int64()).cast(pa.timestamp("ns")),
            "value_num": pa.array(rng.normal(size=n) * 1e3 / 7.0),
            "value_kind": pa.array(np.ones(n, np.int8)),
            "doc_id": pa.array([f"d{i:07d}" for i in perm]),
            "sample_ordinal": pa.array(np.zeros(n, np.int32)),
        }
    )
    return [table.slice(i, block_rows) for i in range(0, n, block_rows)]


class TestResume:
    def _assert_resume_matches_full_run(self, make_ds, tmp_path, num_shards):
        # Full run in one go -> reference output.
        full_dir = str(tmp_path / "full")
        m_full, run_full, skipped_full = run_sharded_rollup(
            make_ds(), full_dir, num_shards
        )
        assert skipped_full == []
        assert set(run_full) == m_full.completed_shards()

        # Simulated kill: first run only sees half the shards completed.
        part_dir = str(tmp_path / "resumable")
        m1, run1, _ = run_sharded_rollup(make_ds(), part_dir, num_shards)
        # wipe half the shards' data+records to simulate a crash mid-job
        import shutil

        lost = run1[:len(run1) // 2]
        for s in lost:
            shutil.rmtree(m1.shard_dir(s))
            os.remove(m1.record_path(s))
        assert len(m1.completed_shards()) == len(run1) - len(lost)

        m2, run2, skipped2 = run_sharded_rollup(make_ds(), part_dir, num_shards)
        assert sorted(run2) == sorted(lost)                 # only missing shards
        assert sorted(skipped2) == sorted(run1[len(lost):])  # finished skipped

        # Byte-identical results: every shard's checksum matches the full run.
        for s in m_full.completed_shards():
            assert m_full.load_record(s)["checksum"] == m2.load_record(s)["checksum"]
            assert m_full.load_record(s)["rows"] == m2.load_record(s)["rows"]

    def test_resume_skips_completed_and_matches_full_run(self, ray_session, tmp_path):
        import ray

        table = _samples_table()
        self._assert_resume_matches_full_run(
            lambda: ray.data.from_arrow(table), tmp_path, num_shards=4)

    def test_resume_matches_full_run_multi_block(self, ray_session, tmp_path):
        """Same contract over blocks larger in total than one combiner
        batch: resumed shards must reproduce the fresh checksums exactly,
        which holds only if the combiner sees the same batches."""
        import ray

        blocks = _multi_block_samples()
        self._assert_resume_matches_full_run(
            lambda: ray.data.from_arrow(blocks), tmp_path, num_shards=8)

    def test_resume_from_other_blocks_reproduces_checksums(
            self, ray_session, tmp_path):
        """A resume fed the same samples cut into a different number of
        blocks reproduces the fresh manifest checksums bit for bit: each
        shard is summed in one sorted pass, not per block."""
        import ray

        blocks = _multi_block_samples()
        out = str(tmp_path / "out")
        m, run, _ = run_sharded_rollup(ray.data.from_arrow(blocks), out, 8)
        fresh = {s: m.load_record(s)["checksum"] for s in run}
        odd = [s for s in run if s % 2]
        for s in odd:
            os.remove(m.record_path(s))

        table = pa.concat_tables(blocks)
        step = 7_919  # 21 blocks instead of 32, cut at other rows
        other = [table.slice(i, step) for i in range(0, table.num_rows, step)]
        m2, run2, _ = run_sharded_rollup(ray.data.from_arrow(other), out, 8)
        assert run2 == odd
        assert {s: m2.load_record(s)["checksum"] for s in run} == fresh

    def test_string_only_shard_commits_chunks_without_rollup_file(
            self, ray_session, tmp_path):
        """A shard whose series carry no numeric sample still commits: its
        chunk file keeps the 0-point row, its rollup dir holds no file
        (a 0-row file would type its strings as null), and a resume skips
        it."""
        import pyarrow.dataset as pads
        import ray

        table = _samples_table()
        used = {shard_of(k, 64) for k in table.column("series_key").to_pylist()}
        key = next(k for k in (f"text-{i}" for i in range(1000))
                   if shard_of(k, 64) not in used)
        text = pa.table({
            "series_key": [key], "ts": table.column("ts")[:1],
            "value_num": pa.array([None], pa.float64()),
            "value_kind": pa.array([2], pa.int8()), "doc_id": ["t0"],
            "sample_ordinal": pa.array([0], pa.int32())})
        ds = ray.data.from_arrow([table, text])
        out, chunks = str(tmp_path / "rollups"), str(tmp_path / "chunks")
        m, run, _ = run_sharded_rollup(ds, out, 64, chunks_dir=chunks)
        s = shard_of(key, 64)
        assert s in run and os.listdir(m.shard_dir(s)) == []
        assert (m.load_record(s)["rows"],
                m.chunks.load_record(s)["rows"]) == (0, 1)
        chunk = m.chunks.read_shard(s)
        assert chunk.column("n_points").to_pylist() == [0]
        assert pads.dataset(out).to_table().num_rows == m.metrics()["rows"]

        _, run2, skipped2 = run_sharded_rollup(ds, out, 64, chunks_dir=chunks)
        assert run2 == [] and sorted(skipped2) == sorted(run)

    def test_metrics_aggregate(self, ray_session, tmp_path):
        import ray

        m, run, _ = run_sharded_rollup(
            ray.data.from_arrow(_samples_table()), str(tmp_path / "o"), 4
        )
        metrics = m.metrics()
        assert metrics["shards_completed"] == len(run)
        assert metrics["rows"] > 0
        assert metrics["watermark_max"] is not None
        assert metrics["compute_s_total"] > 0


class _PlanCounter(logging.Handler):
    """Counts all-to-all operators in the execution plans Ray Data logs
    while installed."""

    _LOGGER = "ray.data._internal.execution.streaming_executor"
    _ALL_TO_ALL = re.compile(
        r"\b(AllToAllOperator|\w*Shuffl\w*Operator|HashAggregateOperator|"
        r"JoinOperator)\[")

    def __init__(self):
        super().__init__(logging.INFO)
        self.plans = 0
        self.ops = 0

    def emit(self, record) -> None:
        msg = record.getMessage()
        if "Execution plan of Dataset" in msg:
            self.plans += 1
            self.ops += len(self._ALL_TO_ALL.findall(msg))

    def __enter__(self):
        # importing ray.data configures its loggers, which drops handlers
        # installed before it
        import ray.data  # noqa: F401

        logger = logging.getLogger(self._LOGGER)
        self._level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        logger = logging.getLogger(self._LOGGER)
        logger.removeHandler(self)
        logger.setLevel(self._level)


class _ExchangeCounter:
    """Counts shard exchanges (``state/checkpoint._exchange`` calls: one per
    ``shard_apply`` or ``run_sharded_rollup`` call) while installed."""

    def __init__(self):
        self.calls = 0

    def __enter__(self):
        from json_time_series_extractor_ray.state import checkpoint

        self._real = real = checkpoint._exchange

        def _counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        checkpoint._exchange = _counted
        return self

    def __exit__(self, *exc):
        from json_time_series_extractor_ray.state import checkpoint

        checkpoint._exchange = self._real


class TestOneShuffle:
    def _committed(self, manifest) -> pd.DataFrame:
        import pyarrow.parquet as pq

        return pd.concat(
            [pq.read_table(manifest.shard_dir(s)).to_pandas()
             for s in sorted(manifest.completed_shards())],
            ignore_index=True,
        )

    def _assert_matches_oracle(self, got: pd.DataFrame, oracle: pd.DataFrame):
        keys = ["tier", "series_key", "window_start"]
        got = got.sort_values(keys, ignore_index=True)
        exact = keys + ["count", "min", "max", "last", "last_ts", "last_doc",
                        "last_ord"]
        pd.testing.assert_frame_equal(got[exact], oracle[exact],
                                      check_exact=True)
        for c in ("sum", "mean"):
            np.testing.assert_allclose(got[c], oracle[c], rtol=1e-12)

    def test_fresh_and_resumed_runs_shuffle_once(self, ray_session, tmp_path):
        """One shard exchange per run, fresh or resumed, with no
        all-to-all operator in any Ray Data plan, and the committed rows
        of 5,000 series over 8 shards equal the oracle."""
        import shutil

        import ray

        from json_time_series_extractor_ray.stages.rollup import rollup_oracle

        rng = np.random.default_rng(11)
        n_series, n = 5000, 20_000
        base = 1_704_067_200 * 10**9
        table = pa.table(
            {
                "series_key": pa.array(
                    [f"dev-{s:05d}"
                     for s in rng.permutation(np.arange(n) % n_series)]),
                "ts": pa.array(base + rng.integers(0, 3 * 3600 * 10**9, n),
                               pa.int64()).cast(pa.timestamp("ns")),
                "value_num": pa.array(rng.normal(size=n) * 1e3 / 7.0),
                "value_kind": pa.array(np.ones(n, np.int8)),
                "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
                "sample_ordinal": pa.array(np.zeros(n, np.int32)),
            }
        )
        oracle = rollup_oracle(table)
        assert oracle["series_key"].nunique() == n_series

        out = str(tmp_path / "out")
        with _ExchangeCounter() as exchanges, _PlanCounter() as plans:
            m, run, skipped = run_sharded_rollup(
                ray.data.from_arrow(table), out, 8)
        assert exchanges.calls == 1 and (plans.plans, plans.ops) == (1, 0)
        assert skipped == [] and len(run) == 8
        self._assert_matches_oracle(self._committed(m), oracle)

        lost = run[::2]
        for s in lost:
            shutil.rmtree(m.shard_dir(s))
            os.remove(m.record_path(s))
        with _ExchangeCounter() as exchanges, _PlanCounter() as plans:
            m2, run2, skipped2 = run_sharded_rollup(
                ray.data.from_arrow(table), out, 8)
        assert exchanges.calls == 1 and (plans.plans, plans.ops) == (1, 0)
        assert run2 == lost and skipped2 == run[1::2]
        self._assert_matches_oracle(self._committed(m2), oracle)


class TestShardingGuards:
    def test_resume_with_different_num_shards_refused(self, tmp_path):
        import json
        import os

        import pytest as _pytest

        from json_time_series_extractor_ray.state.checkpoint import (
            CheckpointManifest,
        )

        m = CheckpointManifest(str(tmp_path / "out"))
        m.ensure_sharding(64)
        m.ensure_sharding(64)  # same value: fine
        with _pytest.raises(ValueError, match="num_shards=64"):
            m.ensure_sharding(32)
        meta = json.load(open(os.path.join(m.manifest_dir, "_meta.json")))
        assert meta["num_shards"] == 64

    def test_checksum_detects_even_duplication(self):
        import pyarrow as pa

        from json_time_series_extractor_ray.state.checkpoint import (
            _checksum_table,
        )

        t = pa.table({"a": [1, 2], "b": ["x", "y"]})
        doubled = pa.table({"a": [1, 1, 2, 2], "b": ["x", "x", "y", "y"]})
        empty = t.slice(0, 0)
        assert _checksum_table(t) != _checksum_table(doubled)
        assert _checksum_table(t) != _checksum_table(empty)
        # order-insensitive: permuted rows hash identically
        perm = pa.table({"a": [2, 1], "b": ["y", "x"]})
        assert _checksum_table(t) == _checksum_table(perm)


_NS = pa.timestamp("ns")


def _rollup_golden():
    """A rollup-store table: nulls, an empty string, NaN, -0.0."""
    return pa.table({
        "tier": ["1m", "1m", "1h", "1d"],
        "series_key": ["dev-1/temp", "", "dev-1/temp", "é/ü"],
        "window_start": pa.array([0, 60, 3600, 86400], pa.int64()).cast(_NS),
        "min": [-0.0, 1.5, float("nan"), None],
        "max": [0.0, 2.5, float("nan"), None],
        "mean": [0.0, 2.0, float("nan"), None],
        "sum": [0.0, 4.0, float("nan"), None],
        "count": pa.array([1, 2, 3, 0], pa.int64()),
        "last": [0.0, 2.5, float("inf"), None],
        "last_ts": pa.array([5, 61, None, 86401], pa.int64()).cast(_NS),
        "last_doc": ["doc-1", None, "", "doc-2"],
        "last_ord": pa.array([0, 7, -1, None], pa.int64()),
    })


def _chunk_golden():
    """A chunk-store table: a chunk over 64 KiB, an empty one, nulls."""
    return pa.table({
        "series_key": ["dev-1/temp", "dev-2/hum", "", None],
        "n_points": pa.array([4096, 0, 1, 2], pa.int64()),
        "t_min": pa.array([0, 0, 10, None], pa.int64()),
        "t_max": pa.array([4095, 0, 10, 20], pa.int64()),
        "raw_bytes": pa.array([65536, 0, 16, 32], pa.int64()),
        "chunk": pa.array([bytes(range(256)) * 300, b"", None, b"\x00\x01"],
                          pa.binary()),
    })


def _token_golden():
    """A token-chunk-store table: list columns with an empty and a null
    list, a null element and a repeated one."""
    return pa.table({
        "n_docs": pa.array([2, 0, 1, 3], pa.int32()),
        "doc_ids": pa.array([["d1", "d2"], [], None, ["d3", None, "d3"]],
                            pa.list_(pa.string())),
        "n_tok": pa.array([[3, 4], [], [7], None], pa.list_(pa.int32())),
        "payload": pa.array([b"\x01\x02", b"", b"\x07", b"\x00"]),
    })


class TestChecksumContract:
    """``_checksum_table``'s contract: the lineage records of every store
    hold its values, so they must not change with a library version."""

    @staticmethod
    def _checksum(table):
        from json_time_series_extractor_ray.state.checkpoint import (
            _checksum_table,
        )

        return _checksum_table(table)

    def test_golden_values(self):
        assert self._checksum(_rollup_golden()) == "ac6b3497f0c9f16a-4"
        assert self._checksum(_chunk_golden()) == "9ee8553ab1deb5d0-4"
        assert self._checksum(_token_golden()) == "4c03d0c03ba4753c-4"

    def test_row_order_and_column_order_do_not_count(self):
        for t in (_rollup_golden(), _chunk_golden(), _token_golden()):
            perm = t.take([3, 1, 0, 2]).select(t.column_names[::-1])
            assert self._checksum(perm) == self._checksum(t)

    def test_chunked_and_sliced_inputs_hash_as_their_rows(self):
        for t in (_rollup_golden(), _chunk_golden(), _token_golden()):
            chunked = pa.concat_tables([t.slice(0, 1), t.slice(1, 2),
                                        t.slice(3)])
            assert chunked.column(0).num_chunks == 3
            padded = pa.concat_tables([t, t, t]).combine_chunks()
            assert self._checksum(chunked) == self._checksum(t)
            assert self._checksum(padded.slice(4, 4)) == self._checksum(t)
            assert self._checksum(padded.slice(3, 2)) == self._checksum(
                pa.concat_tables([t.slice(3), t.slice(0, 1)]))

    def test_a_list_element_moved_changes_it(self):
        """Within a list, between lists, or an empty list made null."""
        t = _token_golden()
        i = t.column_names.index("doc_ids")
        for moved in ([["d2", "d1"], [], None, ["d3", None, "d3"]],
                      [["d1"], ["d2"], None, ["d3", None, "d3"]],
                      [["d1", "d2"], None, None, ["d3", None, "d3"]],
                      [["d1", "d2"], [], None, ["d3", "d3", None]]):
            changed = t.set_column(i, "doc_ids", pa.array(
                moved, t.schema.field("doc_ids").type))
            assert self._checksum(changed) != self._checksum(t)

    def test_a_value_moved_between_rows_changes_it(self):
        t = pa.table({"a": [1, 2], "b": ["x", "y"], "c": [0.5, 0.25]})
        for col, moved in (("a", [2, 1]), ("b", ["y", "x"]),
                           ("c", [0.25, 0.5])):
            swapped = t.set_column(t.column_names.index(col), col,
                                   pa.array(moved, t.schema.field(col).type))
            assert self._checksum(swapped) != self._checksum(t)
        # columns are mixed before they are weighted and summed: with
        # weights w and 3w, (+3, -1) would cancel in a linear sum
        assert self._checksum(pa.table({"a": [0], "b": [1]})) != \
            self._checksum(pa.table({"a": [3], "b": [0]}))

    def test_null_differs_from_empty_string_and_zero(self):
        text = [self._checksum(pa.table({"s": pa.array(v, pa.string())}))
                for v in ([None], [""])]
        ints = [self._checksum(pa.table({"i": pa.array(v, pa.int64())}))
                for v in ([None], [0])]
        floats = [self._checksum(pa.table({"f": pa.array(v, pa.float64())}))
                  for v in ([None], [0.0], [float("nan")])]
        for codes in (text, ints, floats):
            assert len(set(codes)) == len(codes)

    def test_strings_are_pinned_by_their_bytes(self):
        # a string codes as its rank among the table's distinct strings:
        # the digest of those strings must tell tables of equal ranks apart
        for a, b in ((["a"], ["b"]), (["ab", "c"], ["a", "bc"]),
                     ([b"\x00"], [b"\x00\x00"])):
            assert self._checksum(pa.table({"s": a})) != \
                self._checksum(pa.table({"s": b}))

    def test_unsupported_type_names_the_column(self):
        t = pa.table({"ok": [1], "tags": pa.array([[{"a": 1}]])})
        with pytest.raises(TypeError, match="'tags'"):
            self._checksum(t)

    def test_no_pandas(self, monkeypatch):
        import pyarrow.pandas_compat

        def _refuse(*args, **kwargs):
            raise AssertionError("pandas called")

        # Table.to_pandas is immutable: its conversion is what it calls
        monkeypatch.setattr(pyarrow.pandas_compat, "table_to_dataframe",
                            _refuse)
        monkeypatch.setattr(pd.util, "hash_pandas_object", _refuse)
        with pytest.raises(AssertionError, match="pandas called"):
            _rollup_golden().to_pandas()
        assert self._checksum(_rollup_golden()) == "ac6b3497f0c9f16a-4"
        assert self._checksum(_chunk_golden()) == "9ee8553ab1deb5d0-4"
