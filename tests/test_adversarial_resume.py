"""Adversarial kill/resume (round-3 verdict item 7): crash INSIDE
``commit_shard`` at each fault point — after the tmp write but before
the rename, and after the rename but before the manifest record lands —
then resume, asserting no double-count and no missing shard.  The job's
two-file commit (chunk file, rollup file, then record) is crashed between
its renames and before its record the same way.

The faults are injected into the REAL ``commit_shard`` path (a raising
``os.rename`` / ``os.replace``), so the on-disk crash states are exactly
what the code would leave behind, not hand-crafted approximations.  The
existing tests in ``test_checkpoint_resume.py`` cover only the clean
interrupt (whole shards wiped)."""

import glob
import hashlib
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from json_time_series_extractor_ray.state.checkpoint import (
    CheckpointManifest,
    run_sharded_rollup,
)

from tests.test_checkpoint_resume import _samples_table

NUM_SHARDS = 4


def _all_rows(out_dir: str) -> pd.DataFrame:
    """Union of every committed partition, canonically sorted — the
    ground truth for double-count / missing-row assertions."""
    parts = sorted(glob.glob(os.path.join(out_dir, "shard=*", "*.parquet")))
    df = pd.concat([pq.read_table(p).to_pandas() for p in parts],
                   ignore_index=True)
    return df.sort_values(list(df.columns), ignore_index=True)


def _shard_table(manifest: CheckpointManifest, shard: int) -> pa.Table:
    return pq.read_table(os.path.join(manifest.shard_dir(shard),
                                      "part-0.parquet"))


@pytest.fixture()
def reference(ray_session, tmp_path):
    """One uninterrupted run: the byte-level target every resume must
    reproduce."""
    import ray

    table = _samples_table()
    out = str(tmp_path / "reference")
    manifest, run, skipped = run_sharded_rollup(
        ray.data.from_arrow(table), out, NUM_SHARDS)
    assert skipped == [] and len(run) > 0
    return table, manifest, run


class TestCrashBeforeRename:
    def test_tmp_left_behind_then_resume(self, reference, tmp_path,
                                         monkeypatch, ray_session):
        import ray

        table, ref, ref_shards = reference
        out = str(tmp_path / "crash_a")
        m = CheckpointManifest(out)
        m.ensure_sharding(NUM_SHARDS)

        # simulate partial progress: all but the victim shard committed
        victim = ref_shards[0]
        for s in ref_shards[1:]:
            m.commit_shard(s, _shard_table(ref, s))

        # victim crashes AFTER the tmp write, BEFORE the rename
        real_rename = os.rename

        def _dying_rename(src, dst):
            if dst == m.shard_dir(victim):
                raise OSError("injected kill: power loss before rename")
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", _dying_rename)
        with pytest.raises(OSError, match="injected kill"):
            m.commit_shard(victim, _shard_table(ref, victim))
        monkeypatch.undo()

        # crash state: tmp dir present, final dir absent, record absent
        stale = glob.glob(m.shard_dir(victim) + ".tmp.*")
        assert stale, "tmp dir should survive the simulated kill"
        assert not os.path.isdir(m.shard_dir(victim))
        assert not os.path.exists(m.record_path(victim))
        assert victim not in m.completed_shards()

        m2, run2, skipped2 = run_sharded_rollup(
            ray.data.from_arrow(table), out, NUM_SHARDS)
        assert run2 == [victim]                      # only the victim reran
        assert sorted(skipped2) == sorted(ref_shards[1:])
        # stale tmp swept by the successful commit
        assert not glob.glob(m.shard_dir(victim) + ".tmp.*")
        for s in ref_shards:
            assert m2.load_record(s)["checksum"] == \
                ref.load_record(s)["checksum"]
        pd.testing.assert_frame_equal(_all_rows(out), _all_rows(ref.out_dir))


class TestCrashAfterRename:
    def test_data_without_record_recomputed_not_double_counted(
            self, reference, tmp_path, monkeypatch, ray_session):
        import ray

        table, ref, ref_shards = reference
        out = str(tmp_path / "crash_b")
        m = CheckpointManifest(out)
        m.ensure_sharding(NUM_SHARDS)

        victim = ref_shards[-1]
        for s in ref_shards[:-1]:
            m.commit_shard(s, _shard_table(ref, s))

        # victim crashes AFTER the rename, BEFORE the record publishes
        real_replace = os.replace

        def _dying_replace(src, dst):
            if dst == m.record_path(victim):
                raise OSError("injected kill: died before manifest record")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", _dying_replace)
        with pytest.raises(OSError, match="injected kill"):
            m.commit_shard(victim, _shard_table(ref, victim))
        monkeypatch.undo()

        # crash state: data dir EXISTS (complete), record absent -> the
        # shard must NOT count as completed (record implies data, not
        # the reverse)
        assert os.path.isdir(m.shard_dir(victim))
        assert not os.path.exists(m.record_path(victim))
        assert victim not in m.completed_shards()

        m2, run2, skipped2 = run_sharded_rollup(
            ray.data.from_arrow(table), out, NUM_SHARDS)
        assert run2 == [victim]
        assert sorted(skipped2) == sorted(ref_shards[:-1])
        # the recommit REPLACED the orphaned dir atomically: exactly one
        # part file, rows identical to the reference, nothing doubled
        parts = glob.glob(os.path.join(m.shard_dir(victim), "*.parquet"))
        assert len(parts) == 1
        for s in ref_shards:
            rec2, rec_ref = m2.load_record(s), ref.load_record(s)
            assert rec2["checksum"] == rec_ref["checksum"]
            assert rec2["rows"] == rec_ref["rows"]
        pd.testing.assert_frame_equal(_all_rows(out), _all_rows(ref.out_dir))

    def test_record_tmp_leftover_is_harmless(self, reference, tmp_path,
                                             monkeypatch, ray_session):
        """Third fault point: died between writing the record's .tmp and
        publishing it — the orphaned .json.tmp must not fake completion
        and is overwritten by the recommit."""
        import ray

        table, ref, ref_shards = reference
        out = str(tmp_path / "crash_c")
        m = CheckpointManifest(out)
        m.ensure_sharding(NUM_SHARDS)
        victim = ref_shards[0]
        for s in ref_shards[1:]:
            m.commit_shard(s, _shard_table(ref, s))

        real_replace = os.replace
        wrote_tmp = []

        def _dying_replace(src, dst):
            if dst == m.record_path(victim):
                wrote_tmp.append(src)
                raise OSError("injected kill: record tmp written, not live")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", _dying_replace)
        with pytest.raises(OSError, match="injected kill"):
            m.commit_shard(victim, _shard_table(ref, victim))
        monkeypatch.undo()

        assert wrote_tmp and os.path.exists(wrote_tmp[0])  # .json.tmp orphan
        assert victim not in m.completed_shards()

        m2, _, _ = run_sharded_rollup(
            ray.data.from_arrow(table), out, NUM_SHARDS)
        assert m2.completed_shards() == set(ref_shards)
        assert m2.load_record(victim)["checksum"] == \
            ref.load_record(victim)["checksum"]
        pd.testing.assert_frame_equal(_all_rows(out), _all_rows(ref.out_dir))


def _chunk_pairs(chunks_dir: str) -> list:
    """Sorted ``(series_key, sha256(chunk))`` multiset of a chunk store."""
    pairs = []
    for p in glob.glob(os.path.join(chunks_dir, "shard=*", "*.parquet")):
        t = pq.read_table(p)
        pairs += [(k, hashlib.sha256(c).hexdigest()) for k, c in
                  zip(t.column("series_key").to_pylist(),
                      t.column("chunk").to_pylist())]
    return sorted(pairs)


class TestTwoFileCommitCrash:
    """Kill the job's shard commit after the chunk dir is renamed but
    before the rollup dir, and after both renames but before the record;
    the resume must reproduce the uninterrupted store exactly."""

    @pytest.mark.parametrize("fault", ["rollup_rename", "record_replace"])
    def test_crash_then_resume(self, fault, tmp_path, monkeypatch,
                               ray_session):
        import ray

        table = _samples_table()
        ref = CheckpointManifest(str(tmp_path / "ref" / "rollups"),
                                 str(tmp_path / "ref" / "chunks"))
        _, ref_shards, _ = run_sharded_rollup(
            ray.data.from_arrow(table), ref.out_dir, NUM_SHARDS,
            chunks_dir=ref.chunks_dir)
        assert len(ref_shards) > 1

        m = CheckpointManifest(str(tmp_path / "crash" / "rollups"),
                               str(tmp_path / "crash" / "chunks"))
        m.ensure_sharding(NUM_SHARDS)

        def _commit(s):
            chunks = pq.read_table(os.path.join(ref.chunk_dir(s),
                                                "part-0.parquet"))
            return m.commit_shard(s, _shard_table(ref, s), chunks=chunks)

        victim = ref_shards[0]
        for s in ref_shards[1:]:
            _commit(s)

        if fault == "rollup_rename":
            real = os.rename
            name, target = "rename", m.shard_dir(victim)
        else:
            real = os.replace
            name, target = "replace", m.record_path(victim)

        def _dying(src, dst):
            if dst == target:
                raise OSError(f"injected kill at {fault}")
            return real(src, dst)

        monkeypatch.setattr(os, name, _dying)
        with pytest.raises(OSError, match="injected kill"):
            _commit(victim)
        monkeypatch.undo()

        # crash state: the chunk dir is live, the record is not
        assert os.path.isdir(m.chunk_dir(victim))
        assert os.path.isdir(m.shard_dir(victim)) == (
            fault == "record_replace")
        assert not os.path.exists(m.record_path(victim))
        assert victim not in m.completed_shards()

        m2, run2, skipped2 = run_sharded_rollup(
            ray.data.from_arrow(table), m.out_dir, NUM_SHARDS,
            chunks_dir=m.chunks_dir)
        assert run2 == [victim]
        assert sorted(skipped2) == sorted(ref_shards[1:])
        pd.testing.assert_frame_equal(_all_rows(m.out_dir),
                                      _all_rows(ref.out_dir))
        pairs = _chunk_pairs(m.chunks_dir)
        assert pairs == _chunk_pairs(ref.chunks_dir)
        assert len({k for k, _ in pairs}) == len(pairs)  # no duplicate row
        for store in (m.out_dir, m.chunks_dir):
            assert not glob.glob(os.path.join(store, "*.tmp.*"))
        for s in ref_shards:
            rec2, rec_ref = m2.load_record(s), ref.load_record(s)
            for key in ("checksum", "rows", "chunk_rows", "chunk_checksum"):
                assert rec2[key] == rec_ref[key]


class TestZorderCrashStates:
    def test_kill_before_rename_then_resume(self, ray_session, tmp_path):
        """The zorder writer's analogue: a bucket's .tmp left by a kill
        (no final dir) is swept and the bucket rewritten; committed
        buckets are not rewritten; the resumed manifest equals the
        reference."""
        import shutil

        import ray

        from json_time_series_extractor_ray.pipelines.zorder import (
            write_zorder_partitions)

        rows = pa.table({
            "event_id": pa.array(range(400), pa.int64()),
            "user_id": pa.array([i % 37 for i in range(400)], pa.int64()),
            "ts": pa.array([1_704_067_200 * 10**9 + i * 10**9 * 60
                            for i in range(400)], pa.int64())
            .cast(pa.timestamp("ns")),
        })
        bounds = (0, 36, 1_704_067_200 // 60 // 60,
                  (1_704_067_200 + 400 * 60) // 60 // 60)

        ref_dir = str(tmp_path / "z_ref")
        ref = write_zorder_partitions(
            ray.data.from_arrow(rows), ref_dir, bounds)
        assert len(ref) >= 2

        out = str(tmp_path / "z_crash")
        first = write_zorder_partitions(
            ray.data.from_arrow(rows), out, bounds)
        # victim bucket: demote its committed dir to the pre-rename
        # crash state (exactly what a kill between write and rename
        # leaves: complete tmp, no final dir)
        vb, _, vpath = first[0]
        os.rename(vpath, vpath + ".tmp")

        resumed = write_zorder_partitions(
            ray.data.from_arrow(rows), out, bounds)
        assert [(b, n) for b, n, _ in resumed] == [(b, n) for b, n, _ in ref]
        assert not os.path.isdir(vpath + ".tmp")
        assert os.path.isdir(vpath)
        ours = pq.read_table(os.path.join(vpath, "part-0.parquet"))
        theirs = pq.read_table(
            os.path.join(ref_dir, f"bucket={vb:05d}", "part-0.parquet"))
        assert ours.equals(theirs)
