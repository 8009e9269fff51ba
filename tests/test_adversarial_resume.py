"""Adversarial kill/resume (round-3 verdict item 7): crash INSIDE
``commit_shard`` at each fault point of the rename-free commit, then
resume, asserting no double count, no missing shard and no leftover
file.  The fault points:

* the shard's data file is written, its record is not;
* the record's tmp file is written, not yet replaced;
* in the job's two-store commit, the chunk record is written and the
  rollup record (the commit point) is not.

The faults are injected into the REAL ``commit_shard`` path (a raising
record put, or a raising ``os.replace``), so the on-disk crash states are
exactly what the code would leave behind, not hand-crafted
approximations.  Files that no record names are planted too (a dead
attempt's tmp dir, an unnamed part file), and the store is written
through a filesystem that refuses rename.  The existing tests in
``test_checkpoint_resume.py`` cover only the clean interrupt (whole
shards wiped)."""

import glob
import hashlib
import os
import re
import shutil
import uuid

import pandas as pd
import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import pytest

from json_time_series_extractor_ray.state.checkpoint import (
    CheckpointManifest,
    run_sharded_rollup,
)

from tests.test_checkpoint_resume import _samples_table

NUM_SHARDS = 4


def _all_rows(out_dir: str) -> pd.DataFrame:
    """Union of every partition file on disk, canonically sorted — the
    ground truth for double-count / missing-row assertions (a file no
    record names would add its rows)."""
    parts = sorted(glob.glob(os.path.join(out_dir, "shard=*", "*.parquet")))
    df = pd.concat([pq.read_table(p).to_pandas() for p in parts],
                   ignore_index=True)
    return df.sort_values(list(df.columns), ignore_index=True)


def _leftovers(store: str) -> list:
    """Files in ``store`` that are neither a record (or ``_meta.json``) nor
    named by a committed record."""
    named = set(CheckpointManifest(store).source()[0])
    record = re.compile(r"_manifest/(shard-\d+|_meta)\.json")
    return sorted(
        p for d, _, names in os.walk(store) for p in
        (os.path.join(d, n) for n in names)
        if p not in named and not record.fullmatch(os.path.relpath(p, store)))


def _die_at_record_put(monkeypatch, store: str, victim: int) -> None:
    """Kill the commit of ``victim`` in ``store`` at its record put, before
    the record's tmp file is written."""
    real = CheckpointManifest._put
    root = os.path.abspath(store)

    def _dying(self, rel, data):
        if self.root == root and rel == f"_manifest/shard-{victim:05d}.json":
            raise OSError("injected kill: files written, no record")
        return real(self, rel, data)

    monkeypatch.setattr(CheckpointManifest, "_put", _dying)


def _die_at_record_replace(monkeypatch, manifest, victim: int) -> list:
    """Kill the commit of ``victim`` at the ``os.replace`` of its record:
    the tmp file is written and fsynced.  Returns the tmp paths seen."""
    real = os.replace
    seen = []

    def _dying(src, dst):
        if dst == manifest.record_path(victim):
            seen.append(src)
            raise OSError("injected kill: record tmp written, not live")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", _dying)
    return seen


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
    """The shard's data file is written, its record is not (the rename
    protocol's tmp dir left behind has become an unnamed file)."""

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
            m.commit_shard(s, ref.read_shard(s))

        _die_at_record_put(monkeypatch, out, victim)
        with pytest.raises(OSError, match="injected kill"):
            m.commit_shard(victim, ref.read_shard(victim))
        monkeypatch.undo()

        # crash state: an unnamed data file, no record, and no read sees it
        orphans = glob.glob(os.path.join(m.shard_dir(victim), "*.parquet"))
        assert len(orphans) == 1
        assert not os.path.exists(m.record_path(victim))
        assert victim not in m.completed_shards()
        assert _leftovers(out) == orphans

        m2, run2, skipped2 = run_sharded_rollup(
            ray.data.from_arrow(table), out, NUM_SHARDS)
        assert run2 == [victim]                      # only the victim reran
        assert sorted(skipped2) == sorted(ref_shards[1:])
        # the unnamed file swept once the run returned
        assert not os.path.exists(orphans[0]) and _leftovers(out) == []
        for s in ref_shards:
            assert m2.load_record(s)["checksum"] == \
                ref.load_record(s)["checksum"]
        pd.testing.assert_frame_equal(_all_rows(out), _all_rows(ref.out_dir))


class TestCrashAfterRename:
    """The record's tmp file is written, not yet replaced: the data is
    complete, the record is not live."""

    def test_data_without_record_recomputed_not_double_counted(
            self, reference, tmp_path, monkeypatch, ray_session):
        import ray

        table, ref, ref_shards = reference
        out = str(tmp_path / "crash_b")
        m = CheckpointManifest(out)
        m.ensure_sharding(NUM_SHARDS)

        victim = ref_shards[-1]
        for s in ref_shards[:-1]:
            m.commit_shard(s, ref.read_shard(s))

        _die_at_record_replace(monkeypatch, m, victim)
        with pytest.raises(OSError, match="injected kill"):
            m.commit_shard(victim, ref.read_shard(victim))
        monkeypatch.undo()

        # crash state: the data file EXISTS (complete), the record is
        # absent -> the shard must NOT count as completed (record implies
        # data, not the reverse)
        assert glob.glob(os.path.join(m.shard_dir(victim), "*.parquet"))
        assert not os.path.exists(m.record_path(victim))
        assert victim not in m.completed_shards()

        m2, run2, skipped2 = run_sharded_rollup(
            ray.data.from_arrow(table), out, NUM_SHARDS)
        assert run2 == [victim]
        assert sorted(skipped2) == sorted(ref_shards[:-1])
        # the recommit's file is the only one left: exactly one part file,
        # rows identical to the reference, nothing doubled
        parts = glob.glob(os.path.join(m.shard_dir(victim), "*.parquet"))
        assert len(parts) == 1
        assert _leftovers(out) == []
        for s in ref_shards:
            rec2, rec_ref = m2.load_record(s), ref.load_record(s)
            assert rec2["checksum"] == rec_ref["checksum"]
            assert rec2["rows"] == rec_ref["rows"]
        pd.testing.assert_frame_equal(_all_rows(out), _all_rows(ref.out_dir))

    def test_record_tmp_leftover_is_harmless(self, reference, tmp_path,
                                             monkeypatch, ray_session):
        """The orphaned record tmp must not fake completion, and the sweep
        after the recommit deletes it."""
        import ray

        table, ref, ref_shards = reference
        out = str(tmp_path / "crash_c")
        m = CheckpointManifest(out)
        m.ensure_sharding(NUM_SHARDS)
        victim = ref_shards[0]
        for s in ref_shards[1:]:
            m.commit_shard(s, ref.read_shard(s))

        wrote_tmp = _die_at_record_replace(monkeypatch, m, victim)
        with pytest.raises(OSError, match="injected kill"):
            m.commit_shard(victim, ref.read_shard(victim))
        monkeypatch.undo()

        assert wrote_tmp and os.path.exists(wrote_tmp[0])  # tmp orphan
        assert victim not in m.completed_shards()

        m2, _, _ = run_sharded_rollup(
            ray.data.from_arrow(table), out, NUM_SHARDS)
        assert m2.completed_shards() == set(ref_shards)
        assert m2.load_record(victim)["checksum"] == \
            ref.load_record(victim)["checksum"]
        assert not os.path.exists(wrote_tmp[0]) and _leftovers(out) == []
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
    """Kill the job's shard commit after the chunk record is written but
    before the rollup record (at its put, or with its tmp written); the
    resume must reproduce the uninterrupted store exactly."""

    @pytest.mark.parametrize("fault", ["chunk_record", "record_replace"])
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
            m.chunks.commit_shard(s, ref.chunks.read_shard(s))
            return m.commit_shard(s, ref.read_shard(s))

        victim = ref_shards[0]
        for s in ref_shards[1:]:
            _commit(s)

        if fault == "chunk_record":
            _die_at_record_put(monkeypatch, m.out_dir, victim)
        else:
            _die_at_record_replace(monkeypatch, m, victim)
        with pytest.raises(OSError, match="injected kill"):
            _commit(victim)
        monkeypatch.undo()

        # crash state: the chunk record is live, the rollup record is not
        assert os.path.exists(m.chunks.record_path(victim))
        assert glob.glob(os.path.join(m.shard_dir(victim), "*.parquet"))
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
            assert _leftovers(store) == []
        for s in ref_shards:
            for got, want in ((m2, ref), (m2.chunks, ref.chunks)):
                rec2, rec_ref = got.load_record(s), want.load_record(s)
                for key in ("checksum", "rows"):
                    assert rec2[key] == rec_ref[key]


def _points(ds) -> list:
    df = ds.to_pandas()
    return sorted(zip(df["series_key"], df["ts_ns"].astype("int64"),
                      df["value_num"]))


class TestOrphans:
    def test_planted_orphans_are_never_read(self, tmp_path, ray_session):
        """A dead attempt's tmp dir (``shard=N.tmp.<pid>.<hex>``) and an
        unnamed part file inside a committed shard dir, in both stores:
        the chunk reads (whole and by range), ``manifest_report`` and the
        rollup read see none of them, before and after a resume; the
        resume sweeps the unnamed file of the shard it recommits."""
        import ray

        from json_time_series_extractor_ray.sources.gorilla_chunks import (
            read_gorilla_chunks,
        )
        from json_time_series_extractor_ray.state.checkpoint import (
            manifest_report,
        )

        table = _samples_table()
        m = CheckpointManifest(str(tmp_path / "rollups"),
                               str(tmp_path / "chunks"))
        bucket = 300 * 10**9  # five chunks per series

        def job():
            return run_sharded_rollup(
                ray.data.from_arrow(table), m.out_dir, NUM_SHARDS,
                chunks_dir=m.chunks_dir, chunk_bucket_ns=bucket)

        _, run, _ = job()
        assert len(run) > 2
        lo = table.column("ts").cast(pa.int64())[0].as_py()
        hi = lo + bucket // 5

        def reads():
            rep = manifest_report(m.out_dir).drop_columns(
                ["wall_s", "compute_s", "rollup_s", "encode_s"])
            rows = pa.concat_tables(
                [pq.read_table(f) for f in CheckpointManifest(
                    m.out_dir).source()[0]]).to_pandas()
            return (_points(read_gorilla_chunks(m.chunks_dir)),
                    _points(read_gorilla_chunks(m.chunks_dir, min_ts_ns=lo,
                                                max_ts_ns=hi)),
                    rep, rows.sort_values(list(rows.columns),
                                          ignore_index=True))

        def same(a, b):
            assert a[:2] == b[:2] and a[2].equals(b[2])
            pd.testing.assert_frame_equal(a[3], b[3])

        before = reads()
        assert before[1] and len(before[1]) < len(before[0])
        rerun, kept = run[0], run[1]
        planted = []
        for shard_dir in (m.shard_dir, m.chunks.shard_dir):
            shutil.copytree(shard_dir(rerun),
                            f"{shard_dir(rerun)}.tmp.12345.deadbeef")
            for s in (rerun, kept):
                (named,) = glob.glob(os.path.join(shard_dir(s), "*.parquet"))
                orphan = os.path.join(shard_dir(s),
                                      f"part-{uuid.uuid4().hex}.parquet")
                shutil.copy(named, orphan)
                planted.append((s, orphan))
        same(reads(), before)

        os.remove(m.record_path(rerun))
        _, run2, _ = job()
        assert run2 == [rerun]
        same(reads(), before)
        for s, orphan in planted:
            assert os.path.exists(orphan) == (s == kept)


def _no_rename_fs(base: str) -> pafs.PyFileSystem:
    """A local directory as a filesystem that refuses ``move``, as an
    object store has no atomic rename.  The handler class is local, so
    Ray ships it to its workers by value."""

    class _NoRename(pafs.FileSystemHandler):
        def __init__(self, base: str):
            self.base = base
            self.fs = pafs.SubTreeFileSystem(base, pafs.LocalFileSystem())

        def __eq__(self, other):
            return isinstance(other, _NoRename) and other.base == self.base

        def __ne__(self, other):
            return not self == other

        def get_type_name(self):
            return "norename"

        def normalize_path(self, path):
            return path

        def get_file_info(self, paths):
            return self.fs.get_file_info(paths)

        def get_file_info_selector(self, selector):
            return self.fs.get_file_info(selector)

        def create_dir(self, path, recursive):
            self.fs.create_dir(path, recursive=recursive)

        def delete_dir(self, path):
            self.fs.delete_dir(path)

        def delete_dir_contents(self, path, missing_dir_ok=False):
            self.fs.delete_dir_contents(path, missing_dir_ok=missing_dir_ok)

        def delete_root_dir_contents(self):
            self.fs.delete_dir_contents("", accept_root_dir=True)

        def delete_file(self, path):
            self.fs.delete_file(path)

        def move(self, src, dest):
            raise OSError(f"rename refused: {src} -> {dest}")

        def copy_file(self, src, dest):
            self.fs.copy_file(src, dest)

        def open_input_stream(self, path):
            return self.fs.open_input_stream(path)

        def open_input_file(self, path):
            return self.fs.open_input_file(path)

        def open_output_stream(self, path, metadata):
            return self.fs.open_output_stream(path, metadata=metadata)

        def open_append_stream(self, path, metadata):
            return self.fs.open_append_stream(path, metadata=metadata)

    return pafs.PyFileSystem(_NoRename(base))


class TestRenameFreeFilesystem:
    def test_commit_through_a_filesystem_without_rename(self, tmp_path,
                                                        ray_session):
        """The job's commit through a ``PyFileSystem`` whose ``move``
        raises: fresh, and after losing half its records, the files read
        through the records and the records' counts and checksums equal a
        local run's."""
        import ray

        table = _samples_table()
        local = CheckpointManifest(str(tmp_path / "local" / "rollups"),
                                   str(tmp_path / "local" / "chunks"))
        _, want_run, _ = run_sharded_rollup(
            ray.data.from_arrow(table), local.out_dir, NUM_SHARDS,
            chunks_dir=local.chunks_dir)
        (tmp_path / "remote").mkdir()
        fs = _no_rename_fs(str(tmp_path / "remote"))

        def lineage(m, s):
            rec, chunk_rec = m.load_record(s), m.chunks.load_record(s)
            return {"rows": rec["rows"], "checksum": rec["checksum"],
                    "chunk_rows": chunk_rec["rows"],
                    "chunk_checksum": chunk_rec["checksum"]}

        def outputs(m):
            return {s: (lineage(m, s), m.read_shard(s), m.chunks.read_shard(s))
                    for s in sorted(m.completed_shards())}

        def run():
            return run_sharded_rollup(
                ray.data.from_arrow(table), "out/rollups", NUM_SHARDS,
                chunks_dir="out/chunks", filesystem=fs)

        want = outputs(local)
        m, got_run, _ = run()
        assert got_run == want_run
        assert outputs(m).keys() == want.keys()
        for s, (rec, rows, chunks) in outputs(m).items():
            assert rec == want[s][0]
            assert rows.equals(want[s][1]) and chunks.equals(want[s][2])

        lost = got_run[::2]
        for s in lost:
            fs.delete_file(m.record_path(s))
        m2, run2, skipped = run()
        assert run2 == lost and skipped == got_run[1::2]
        for s, (rec, rows, chunks) in outputs(m2).items():
            assert rec == want[s][0]
            assert rows.equals(want[s][1]) and chunks.equals(want[s][2])
        # one file per shard dir: the one its record names
        for store in ("out/rollups", "out/chunks"):
            files = [i.path for i in fs.get_file_info(
                pafs.FileSelector(store, recursive=True))
                if i.type == pafs.FileType.File and "/shard=" in i.path]
            assert sorted(f.split("/")[2] for f in files) == [
                f"shard={s:05d}" for s in got_run]


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
