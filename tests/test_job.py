"""End-to-end job entry point: config -> resumable run -> resume no-op."""

import glob
import json
import logging
import os
import shutil
import subprocess
import sys
import textwrap
import uuid

import pandas as pd
import pyarrow.parquet as pq
import pytest

from json_time_series_extractor_ray.corpus import iot_corpus_table
from json_time_series_extractor_ray.job import run_job


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    pq.write_table(iot_corpus_table(2000, seed=3), str(d / "part-0.parquet"))
    return str(d)


def _config(corpus_dir, out_dir):
    return {
        "input": corpus_dir,
        "output_dir": out_dir,
        "options": {"recursive": True, "allow_nested_timestamps": True},
        "tiers": ["1m", "1h"],
        "num_shards": 8,
    }


def test_job_full_then_resume(ray_session, corpus_dir, tmp_path):
    out_dir = str(tmp_path / "out")
    cfg = _config(corpus_dir, out_dir)

    r1 = run_job(cfg)
    assert r1["rollups"]["shards_completed"] > 0
    assert r1["rollups"]["rows"] > 0
    assert r1["shards_skipped"] == []
    assert os.path.isdir(f"{out_dir}/rollups/_manifest")
    assert os.path.isdir(f"{out_dir}/chunks")

    # real chunk bytes on disk, every one decodable back to its points
    import pyarrow.dataset as pads

    from json_time_series_extractor_ray.state.gorilla import decompress_chunk

    chunks = pads.dataset(f"{out_dir}/chunks").to_table()
    assert chunks.num_rows > 0
    for row in chunks.to_pylist():
        ts, vals = decompress_chunk(row["chunk"])
        assert len(ts) == row["n_points"] == len(vals)
        if len(ts):
            assert ts[0] == row["t_min"] and ts[-1] == row["t_max"]
            assert len(row["chunk"]) < row["raw_bytes"]  # it actually compresses

    # resume: everything skipped, nothing recomputed
    r2 = run_job(cfg)
    assert r2["shards_run"] == []
    assert sorted(r2["shards_skipped"]) == sorted(r1["shards_run"])
    assert r2["rollups"]["rows"] == r1["rollups"]["rows"]


def test_write_tiers_partitioned(ray_session, corpus_dir, tmp_path):
    import os

    import pyarrow.dataset as pads
    import ray

    from json_time_series_extractor_ray.pipelines.timeseries import (
        extract_and_rollup,
        write_tiers,
    )

    corpus = ray.data.read_parquet(corpus_dir)
    rollups = extract_and_rollup(
        corpus, {"recursive": True, "allow_nested_timestamps": True},
        tiers=("1m", "1h"),
    )
    out = str(tmp_path / "tiers")
    write_tiers(rollups, out)
    subdirs = sorted(d for d in os.listdir(out) if d.startswith("tier="))
    assert subdirs == ["tier=1h", "tier=1m"]
    t = pads.dataset(f"{out}/tier=1m").to_table()
    assert t.num_rows > 0
    assert "series_key" in t.column_names


def test_job_retention_pass(ray_session, corpus_dir, tmp_path):
    import pyarrow.dataset as pads

    from json_time_series_extractor_ray.stages.rollup import WINDOW_NS

    out_dir = str(tmp_path / "out_ret")
    five_min = 5 * WINDOW_NS["1m"]
    cfg = _config(corpus_dir, out_dir)
    # 1m tier keeps five minutes before the watermark (the test corpus
    # spans ~16 minutes); 1h keeps everything.
    cfg["retention"] = {"1m": five_min, "1h": 365 * WINDOW_NS["1d"]}

    r = run_job(cfg)
    assert r["retention"]["watermark_ns"] == r["rollups"]["watermark_max"]

    full = pads.dataset(f"{out_dir}/rollups").to_table().to_pandas()
    cur = pads.dataset(f"{out_dir}/rollups_current").to_table().to_pandas()
    wm = r["retention"]["watermark_ns"]

    # 1h tier untouched; 1m tier pruned to windows within five minutes
    # of the manifest watermark; nothing else changed.
    assert len(cur[cur["tier"] == "1h"]) == len(full[full["tier"] == "1h"])
    kept_1m = cur[cur["tier"] == "1m"]["window_start"].astype("int64")
    assert (kept_1m >= wm - five_min).all()
    expect_1m = full[full["tier"] == "1m"]["window_start"].astype("int64")
    assert len(kept_1m) == (expect_1m >= wm - five_min).sum()
    assert len(kept_1m) < len(expect_1m)  # something actually expired
    # the rows' schema is rollups', with no hive ``shard`` column
    schemas = {pq.read_schema(f) for store in ("rollups", "rollups_current")
               for f in _named_files(f"{out_dir}/{store}")}
    assert len(schemas) == 1 and "shard" not in schemas.pop().names


def test_job_retention_over_no_numeric_rows(ray_session, tmp_path):
    """Retention over a store with no rollup row (every value is a
    string) expires nothing: ``rows_before`` 0 and a null watermark."""
    from json_time_series_extractor_ray.corpus import texts_to_corpus_table

    texts = [json.dumps({"device": f"d{i}", "time": f"2024-01-01T00:00:0{i}Z",
                         "status": "ok"}) for i in range(5)]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(texts_to_corpus_table([f"doc-{i}" for i in range(5)],
                                         texts, ["test"] * 5, "utf8"),
                   str(corpus / "part-0.parquet"))
    r = run_job(dict(_config(str(corpus), str(tmp_path / "out")),
                     retention=True))
    assert r["rollups"]["shards_completed"] > 0
    assert r["rollups"]["rows"] == 0
    assert r["retention"]["rows_before"] == 0
    assert r["retention"]["watermark_ns"] is None


def test_job_unknown_gap_fill_fails_before_any_shard(ray_session, corpus_dir,
                                                     tmp_path):
    """An unknown ``gap_fill`` is refused on the driver, before the corpus
    is read: no task fails, no manifest is made, no shard is committed."""
    import ray

    out_dir = str(tmp_path / "out_cubic")
    with pytest.raises(ValueError,
                       match="unknown gap-fill method: 'cubic'") as err:
        run_job({**_config(corpus_dir, out_dir), "gap_fill": "cubic"})
    assert not isinstance(err.value, ray.exceptions.RayError)
    assert glob.glob(f"{out_dir}/rollups/shard=*") == []
    assert not os.path.exists(f"{out_dir}/rollups")


def test_job_incremental_update(ray_session, tmp_path):
    """Nightly-append shape: job on the first half of the corpus, then an
    update_input run merging the second half — rollups_updated must match
    a one-shot job over the full corpus (exact on order-independent
    columns; sum/mean within float-reassociation tolerance)."""
    _assert_update_equals_full_job(tmp_path, gap_fill=None)


@pytest.mark.parametrize("gap_fill", ["locf", "linear"])
def test_job_incremental_update_gap_filled(ray_session, tmp_path, gap_fill):
    """The same on a gap-filled store (one series per device, so 1m
    windows have gaps): its fill rows are not merged as observations, and
    the update re-applies the configured gap-fill."""
    _assert_update_equals_full_job(tmp_path, gap_fill=gap_fill,
                                   template="{device}/{$prop}")


def _assert_update_equals_full_job(tmp_path, gap_fill, template=None):
    import numpy as np
    import pandas as pd
    import pyarrow.dataset as pads

    full = iot_corpus_table(2000, seed=9)
    d_full = tmp_path / "full"; d_full.mkdir()
    d_a = tmp_path / "a"; d_a.mkdir()
    d_b = tmp_path / "b"; d_b.mkdir()
    pq.write_table(full, str(d_full / "part-0.parquet"))
    pq.write_table(full.slice(0, 1000), str(d_a / "part-0.parquet"))
    pq.write_table(full.slice(1000), str(d_b / "part-0.parquet"))

    def cfg(inp, out):
        return {
            "input": inp, "output_dir": out,
            "options": {"recursive": True, "allow_nested_timestamps": True,
                        **({"template": template} if template else {})},
            "tiers": ["1m", "1h"], "num_shards": 4, "gap_fill": gap_fill,
        }

    out_half = str(tmp_path / "out_half")
    run_job(cfg(str(d_a), out_half))
    upd = run_job({**cfg(str(d_a), out_half), "update_input": str(d_b)})
    assert upd["updated_rows"] > 0

    out_full = str(tmp_path / "out_full")
    run_job(cfg(str(d_full), out_full))

    key = ["tier", "series_key", "window_start"]
    got = (
        pads.dataset(f"{out_half}/rollups_updated").to_table().to_pandas()
        .sort_values(key, ignore_index=True)
    )
    want = (
        pads.dataset(f"{out_full}/rollups").to_table().to_pandas()
        .drop(columns=["shard"], errors="ignore")
        .sort_values(key, ignore_index=True)
    )
    assert len(got) == len(want)
    if gap_fill is not None:
        assert (want["fill"] == gap_fill).any()
    exact = [c for c in want.columns if c not in ("sum", "mean")]
    pd.testing.assert_frame_equal(
        got[exact].reset_index(drop=True), want[exact].reset_index(drop=True),
        check_exact=True, check_dtype=False, check_categorical=False,
    )
    for c in ("sum", "mean"):
        np.testing.assert_allclose(got[c], want[c], rtol=1e-12)


def test_job_token_chunk_archive(ray_session, corpus_dir, tmp_path):
    import numpy as np
    import ray

    from json_time_series_extractor_ray.sources.token_chunks import (
        read_token_chunks,
    )

    out_dir = str(tmp_path / "out_tok")
    cfg = _config(corpus_dir, out_dir)
    cfg["token_chunks"] = True
    r = run_job(cfg)
    assert r["token_chunks_written"] is True

    back = read_token_chunks(f"{out_dir}/token_chunks").to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    orig = ray.data.read_parquet(corpus_dir).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert back["doc_id"].tolist() == orig["doc_id"].tolist()
    for a, b in zip(orig["tokens"], back["tokens"]):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_job_over_an_empty_corpus_leaves_readable_stores(ray_session,
                                                        corpus_dir,
                                                        tmp_path):
    """A job over a corpus file of no rows leaves a chunk store and a
    token archive that read as 0 rows with their decoded schemas; a path
    that was never written still raises ``FileNotFoundError``."""
    import pyarrow as pa

    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )
    from json_time_series_extractor_ray.sources.token_chunks import (
        read_token_chunks,
    )

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(pq.read_table(corpus_dir).slice(0, 0),
                   str(corpus / "part-0.parquet"))
    out = str(tmp_path / "out")
    r = run_job({**_config(str(corpus), out), "token_chunks": True})
    assert r["chunks_written"] and r["token_chunks_written"]
    assert r["rollups"]["rows"] == 0

    for read, path, schema in (
            (read_gorilla_chunks, f"{out}/chunks", pa.schema([
                ("series_key", pa.string()), ("ts_ns", pa.int64()),
                ("value_num", pa.float64())])),
            (read_token_chunks, f"{out}/token_chunks", pa.schema([
                ("doc_id", pa.string()), ("tokens", pa.list_(pa.int32())),
                ("n_tok", pa.int32()), ("source", pa.string())]))):
        ds = read(path)
        assert ds.count() == 0
        assert ds.schema().base_schema == schema
        with pytest.raises(FileNotFoundError):
            read(str(tmp_path / "never_written"))


def test_job_compaction_pass(ray_session, corpus_dir, tmp_path):
    """Chunks with a small bucket -> many chunks; compact_chunks pass
    merges them; readback is identical either way."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )

    out = str(tmp_path / "out")
    cfg = _config(corpus_dir, out)
    cfg["chunk_bucket_ns"] = 300_000_000_000  # 5-min buckets (corpus spans ~16 min)
    r1 = run_job(cfg)
    assert r1["chunks_written"]
    before = pq.read_table(f"{out}/chunks")
    samples_before = read_gorilla_chunks(f"{out}/chunks").to_pandas() \
        .sort_values(["series_key", "ts_ns"], ignore_index=True)

    # maintenance run: the same config plus compact_chunks; every shard
    # is already committed, so only the compaction pass does work
    cfg["compact_chunks"] = True
    r2 = run_job(cfg)
    assert r2.get("chunks_compacted")
    after = pq.read_table(f"{out}/chunks")
    assert after.num_rows < before.num_rows  # fewer, larger chunks
    # one chunk commit per shard: the shard layout stays, and each shard
    # dir holds only the file its new chunk record names
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    named = CheckpointManifest(f"{out}/chunks").source()[0]
    assert sorted(glob.glob(f"{out}/chunks/shard=*/*")) == sorted(named)
    assert sorted({os.path.basename(os.path.dirname(p)) for p in named}) == [
        f"shard={s:05d}" for s in sorted(r1["shards_run"])]
    samples_after = read_gorilla_chunks(f"{out}/chunks").to_pandas() \
        .sort_values(["series_key", "ts_ns"], ignore_index=True)
    pd.testing.assert_frame_equal(samples_before, samples_after)


def test_job_compaction_lineage_is_the_chunk_stores(ray_session, corpus_dir,
                                                    tmp_path):
    """After ``compact_chunks`` the chunk store's own records, which
    ``manifest_report`` shows, describe the compacted chunk files; the
    rollup records carry no copy of the chunks' lineage."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
        _checksum_table,
        manifest_report,
    )

    out = str(tmp_path / "out")
    cfg = _config(corpus_dir, out)
    cfg["chunk_bucket_ns"] = 60_000_000_000  # one chunk per series x minute
    run_job(cfg)
    written = sum(manifest_report(f"{out}/chunks").column("rows").to_pylist())
    cfg["compact_chunks"] = True
    run_job(cfg)
    rep = manifest_report(f"{out}/chunks").to_pydict()
    m = CheckpointManifest(f"{out}/rollups", f"{out}/chunks")
    for s, rows, checksum in zip(rep["shard"], rep["rows"], rep["checksum"]):
        chunks = m.chunks.read_shard(s)
        assert (rows, checksum) == (chunks.num_rows, _checksum_table(chunks))
        assert not {"chunk_rows", "chunk_checksum"} & set(m.load_record(s))
    assert sum(rep["rows"]) == pq.read_table(f"{out}/chunks").num_rows
    assert sum(rep["rows"]) < written


def test_job_driver_reads_back_no_record(ray_session, corpus_dir, tmp_path,
                                         monkeypatch):
    """The driver sweeps and reports a job from the records its shard
    tasks return: a fresh job reads no shard record, a resumed one only
    the records of the shards it skips, once each; the metrics equal the
    store's."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    reads = []
    read = CheckpointManifest._read

    def _read(self, rel):
        reads.append(f"{os.path.basename(self.root)}/{rel}")
        return read(self, rel)

    monkeypatch.setattr(CheckpointManifest, "_read", _read)
    out = str(tmp_path / "out")
    cfg = _config(corpus_dir, out)
    r1 = run_job(cfg)
    assert [r for r in reads if "shard-" in r] == []
    m = CheckpointManifest(f"{out}/rollups")
    assert r1["rollups"] == m.metrics()
    for s in r1["shards_run"][1::2]:
        os.remove(m.record_path(s))
    reads.clear()
    r2 = run_job(cfg)
    assert sorted(r for r in reads if "shard-" in r) == [
        f"rollups/_manifest/shard-{s:05d}.json" for s in r2["shards_skipped"]]
    assert r2["shards_run"] == r1["shards_run"][1::2]
    assert r2["rollups"] == m.metrics()
    for k in ("shards_completed", "rows", "watermark_max"):
        assert r2["rollups"][k] == r1["rollups"][k]


def test_manifest_report(ray_session, corpus_dir, tmp_path):
    from json_time_series_extractor_ray.state.checkpoint import (
        manifest_report,
    )

    out = str(tmp_path / "out")
    run_job(_config(corpus_dir, out))
    rep = manifest_report(os.path.join(out, "rollups")).to_pandas()
    # every committed shard reports; empty shards may not commit a dir
    assert 1 <= len(rep) <= 8
    assert (rep["rows"] >= 0).all()
    assert rep["checksum"].notna().all()
    done = rep[rep["rows"] > 0]
    assert (done["watermark_max"] >= done["watermark_min"]).all()
    # cascade time and commit time are reported apart
    assert (rep["compute_s"] > 0).all() and (rep["wall_s"] >= 0).all()
    # compute time splits into rollup and chunk encoding; each is rounded
    # to 0.1 ms apart from their total
    assert (rep["rollup_s"] > 0).all() and (rep["encode_s"] >= 0).all()
    assert (rep["rollup_s"] + rep["encode_s"]
            <= rep["compute_s"] + 1.5e-4).all()


def _chunk_frame(df):
    cols = ["series_key", "n_points", "t_min", "t_max", "raw_bytes", "chunk"]
    return df[cols].sort_values(["series_key", "t_min", "n_points"],
                                ignore_index=True)


def test_job_shuffles_once(ray_session, corpus_dir, tmp_path):
    """One shard exchange per job, fresh or resumed, and no Ray Data plan
    at all: the map side is plain tasks, and the retention and
    token-archive passes add none.  An update is one exchange and no
    plan too."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )
    from tests.test_checkpoint_resume import _ExchangeCounter, _PlanCounter

    cfg = dict(_config(corpus_dir, str(tmp_path / "out")), retention=True,
               token_chunks=True)
    with _ExchangeCounter() as exchanges, _PlanCounter() as plans:
        r1 = run_job(cfg)
    assert exchanges.calls == 1
    assert plans.plans == 0
    m = CheckpointManifest(f"{cfg['output_dir']}/rollups")
    lost = r1["shards_run"][::2]
    for s in lost:
        os.remove(m.record_path(s))
    with _ExchangeCounter() as exchanges, _PlanCounter() as plans:
        r2 = run_job(cfg)
    assert r2["shards_run"] == lost
    assert exchanges.calls == 1
    assert plans.plans == 0
    with _ExchangeCounter() as exchanges, _PlanCounter() as plans:
        assert run_job(dict(cfg, update_input=corpus_dir))["updated_rows"]
    assert (exchanges.calls, plans.plans) == (1, 0)


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python(*args, timeout=600) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process with the package importable."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [REPO, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc


def test_job_modules_do_not_import_ray_data():
    """The modules a job's tasks run import no ``ray.data`` (about 0.6 s
    in every fresh worker process)."""
    proc = _python("-c", textwrap.dedent("""
        import sys
        from json_time_series_extractor_ray import job
        from json_time_series_extractor_ray.sources import parquet
        from json_time_series_extractor_ray.state import checkpoint, gorilla
        from json_time_series_extractor_ray.stages import extract, rollup
        print(sorted(m for m in sys.modules if m.startswith("ray.data")))
    """))
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_job_starts_no_ray_data_stats_actor(corpus_dir, tmp_path):
    """A job in a fresh Ray session, with its retention and token-archive
    passes and then an update pass, builds no ``Dataset``, so Ray Data's
    stats actor (a worker process of its own) never starts."""
    cfg = _config(corpus_dir, str(tmp_path / "out"))
    side = dict(cfg, retention=True, token_chunks=True)
    update = dict(cfg, update_input=corpus_dir)
    proc = _python("-c", textwrap.dedent(f"""
        import json
        import ray
        from json_time_series_extractor_ray.job import run_job
        ray.init(address="local", num_cpus=2, include_dashboard=False)
        result = run_job({side!r})
        assert result["shards_run"], result
        assert result["token_chunks_written"], result
        assert run_job({update!r})["updated_rows"] > 0
        print(json.dumps(sorted(
            a["name"] for a in ray.util.list_named_actors(
                all_namespaces=True))))
        ray.shutdown()
    """))
    names = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "datasets_stats_actor" not in names


def test_job_cli(corpus_dir, tmp_path):
    """``python -m json_time_series_extractor_ray.job --config`` runs the
    job in a fresh process and prints its result as the last line."""
    cfg = _config(corpus_dir, str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = _python("-m", "json_time_series_extractor_ray.job",
                   "--config", str(path))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["shards_run"] and result["shards_skipped"] == []
    for store in ("rollups", "chunks"):
        parts = os.listdir(os.path.join(cfg["output_dir"], store))
        assert sorted(p for p in parts if p.startswith("shard=")) == [
            f"shard={s:05d}" for s in result["shards_run"]]


class _SchemaWarnings(logging.Handler):
    """Collects Ray Data's ``RefBundle with a different schema`` warnings
    while installed."""

    _LOGGER = "ray.data._internal.execution.streaming_executor_state"

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record) -> None:
        if "RefBundle with a different schema" in record.getMessage():
            self.messages.append(record.getMessage())

    def __enter__(self):
        import ray.data  # noqa: F401  (its logging setup drops handlers)

        logging.getLogger(self._LOGGER).addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger(self._LOGGER).removeHandler(self)


def test_job_calls_shard_body_once_per_nonempty_shard(ray_session, tmp_path,
                                                      monkeypatch):
    """A 16-shard job over a corpus whose series fill k < 16 shards calls
    the shard body k times, once per non-empty shard; a resume calls it
    only for the shards it lost, and a resume with every shard done calls
    it 0 times.  No run logs a schema-mismatch warning."""
    import pyarrow.dataset as pads

    from json_time_series_extractor_ray.state import checkpoint

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(iot_corpus_table(400, seed=7, cfg={"n_devices": 3}),
                   str(corpus / "part-0.parquet"))
    calls = tmp_path / "calls"
    real = checkpoint._exchange

    def _recorded(ds, fn, *args, **kwargs):
        # one file per body call, named after the shard it got
        def _body(table):
            shards = set(table.column("shard").to_pylist())
            name = f"{min(shards)}-{len(shards)}-{table.num_rows}-"
            open(os.path.join(str(calls), name + uuid.uuid4().hex),
                 "w").close()
            return fn(table)

        return real(ds, _body, *args, **kwargs)

    def _run():
        shutil.rmtree(calls, ignore_errors=True)
        calls.mkdir()
        with _SchemaWarnings() as warned:
            result = run_job(cfg)
        assert warned.messages == []
        names = [n.split("-") for n in os.listdir(calls)]
        # every call got one whole non-empty shard
        assert all(n[1] == "1" and int(n[2]) > 0 for n in names)
        return result, sorted(int(n[0]) for n in names)

    monkeypatch.setattr(checkpoint, "_exchange", _recorded)
    cfg = dict(_config(str(corpus), str(tmp_path / "out")), num_shards=16)
    r1, called = _run()
    keys = pads.dataset(f"{cfg['output_dir']}/chunks").to_table(
        columns=["series_key"]).column("series_key").to_pylist()
    nonempty = sorted({checkpoint.shard_of(k, 16) for k in keys})
    assert 1 < len(nonempty) < 16
    assert called == nonempty == sorted(r1["shards_run"])

    manifest = checkpoint.CheckpointManifest(f"{cfg['output_dir']}/rollups")
    lost = nonempty[1::2]
    for s in lost:
        shutil.rmtree(manifest.shard_dir(s))
        os.remove(manifest.record_path(s))
    r2, called = _run()
    assert called == lost == sorted(r2["shards_run"])

    r3, called = _run()
    assert called == [] and r3["shards_run"] == []
    assert sorted(r3["shards_skipped"]) == nonempty


def test_job_reads_corpus_footers_in_process(ray_session, tmp_path,
                                             monkeypatch):
    """A corpus of more than 24 files (where Ray would read the footers in
    remote tasks) runs and resumes with its footers read in the driver."""
    from tests.test_sources import _no_remote_footers

    table = iot_corpus_table(600, seed=5)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(30):
        pq.write_table(table.slice(i * 20, 20),
                       str(corpus / f"part-{i:02d}.parquet"))
    _no_remote_footers(monkeypatch)
    cfg = _config(str(corpus), str(tmp_path / "out"))
    r1 = run_job(cfg)
    assert r1["rollups"]["shards_completed"] > 0 and r1["shards_skipped"] == []
    r2 = run_job(cfg)
    assert r2["shards_run"] == [] and r2["rollups"]["rows"] == r1["rollups"]["rows"]


@pytest.mark.parametrize("bucket_ns", [None, 300_000_000_000])
def test_job_chunks_equal_compress_series_dataset(ray_session, corpus_dir,
                                                  tmp_path, bucket_ns):
    """The shard task's chunk rows are the rows of the standalone chunk
    pass over the same samples, byte for byte, 0-point rows of
    string-only series included."""
    import pandas as pd
    import pyarrow.dataset as pads
    import ray

    from json_time_series_extractor_ray.pipelines.timeseries import (
        extract_pipeline,
    )
    from json_time_series_extractor_ray.state.gorilla import (
        compress_series_dataset,
    )

    cfg = _config(corpus_dir, str(tmp_path / "out"))
    if bucket_ns is not None:
        cfg["chunk_bucket_ns"] = bucket_ns
    run_job(cfg)
    got = _chunk_frame(
        pads.dataset(f"{cfg['output_dir']}/chunks").to_table().to_pandas())

    samples = extract_pipeline(ray.data.read_parquet(corpus_dir),
                               cfg["options"], fallback_now_ns=0)
    want = _chunk_frame(
        compress_series_dataset(samples, bucket_ns=bucket_ns).to_pandas())
    assert (got["n_points"] == 0).any()  # string-only series keep a row
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_job_crash_resume_keeps_chunk_store(ray_session, corpus_dir,
                                            tmp_path):
    """Delete the odd shards' records, run again: only they rerun and the
    chunk store's (series_key, sha256(chunk)) multiset is unchanged."""
    import hashlib

    import pyarrow.dataset as pads

    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    cfg = _config(corpus_dir, str(tmp_path / "out"))

    def digest():
        t = pads.dataset(f"{cfg['output_dir']}/chunks").to_table()
        return sorted(
            (k, hashlib.sha256(c).hexdigest()) for k, c in
            zip(t["series_key"].to_pylist(), t["chunk"].to_pylist()))

    r1 = run_job(cfg)
    before = digest()
    m = CheckpointManifest(f"{cfg['output_dir']}/rollups")
    odd = sorted(s for s in r1["shards_run"] if s % 2)
    assert odd
    for s in odd:
        os.remove(m.record_path(s))
    r2 = run_job(cfg)
    assert r2["shards_run"] == odd
    assert digest() == before


def _shard_outputs(out_dir):
    """Every committed shard's rollup and chunk file bytes, by shard dir
    (file names are unique per commit), and its rollup and chunk
    records' ``rows`` and ``checksum``."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    m = CheckpointManifest(f"{out_dir}/rollups", f"{out_dir}/chunks")
    out = {}
    for s in sorted(m.completed_shards()):
        rec, chunk_rec = m.load_record(s), m.chunks.load_record(s)
        files = {}
        for d in (m.shard_dir(s), m.chunks.shard_dir(s)):
            contents = []
            for name in os.listdir(d):
                with open(os.path.join(d, name), "rb") as f:
                    contents.append(f.read())
            files[os.path.relpath(d, out_dir)] = sorted(contents)
        out[s] = ({"rows": rec["rows"], "checksum": rec["checksum"],
                   "chunk_rows": chunk_rec["rows"],
                   "chunk_checksum": chunk_rec["checksum"]}, files)
    return out


def test_job_equals_dataset_path(ray_session, tmp_path):
    """The job's plain map tasks commit what ``run_sharded_rollup`` fed a
    samples ``Dataset`` of the same docs commits, file for file and
    checksum for checksum, over a corpus of multi-row-group files, a
    hive-partitioned subdirectory and an ``_``-prefixed file that is not
    read."""
    import ray

    from json_time_series_extractor_ray.pipelines.timeseries import (
        extract_pipeline,
    )
    from json_time_series_extractor_ray.state.checkpoint import (
        run_sharded_rollup,
    )

    table = iot_corpus_table(900, seed=13)
    corpus = tmp_path / "corpus"
    (corpus / "region=eu").mkdir(parents=True)
    pq.write_table(table.slice(0, 400), str(corpus / "part-0.parquet"),
                   row_group_size=60)
    pq.write_table(table.slice(400, 300), str(corpus / "part-1.parquet"),
                   row_group_size=110)
    pq.write_table(table.slice(700), str(corpus / "region=eu" / "p.parquet"),
                   row_group_size=70)
    pq.write_table(iot_corpus_table(50, seed=14),
                   str(corpus / "_ignored.parquet"))
    cfg = dict(_config(str(corpus), str(tmp_path / "job")), num_shards=16,
               fallback_now_ns=0)
    run_job(cfg)

    ref = str(tmp_path / "ref")
    samples = extract_pipeline(ray.data.from_arrow(table), cfg["options"],
                               fallback_now_ns=0)
    run_sharded_rollup(samples, f"{ref}/rollups", 16, tiers=cfg["tiers"],
                       chunks_dir=f"{ref}/chunks")
    got, want = _shard_outputs(cfg["output_dir"]), _shard_outputs(ref)
    assert len(want) > 1
    assert got.keys() == want.keys()
    for s in want:
        assert got[s] == want[s], f"shard {s} differs"


def test_job_map_side_is_few_tasks_each_doc_once(ray_session, tmp_path,
                                                  monkeypatch):
    """A 30-file corpus runs in at most 2 x CPUs map tasks, and every doc
    reaches extraction exactly once."""
    import json as _json

    import ray

    from json_time_series_extractor_ray import job
    from json_time_series_extractor_ray.sources.parquet import (
        iter_row_groups,
    )

    table = iot_corpus_table(600, seed=5)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(30):
        pq.write_table(table.slice(i * 20, 20),
                       str(corpus / f"part-{i:02d}.parquet"))
    calls = tmp_path / "calls"
    calls.mkdir()
    real = job._extract_group

    def _recorded(stage, group, batch_bytes):
        docs = [d for t in iter_row_groups(group, ["doc_id"])
                for d in t.column("doc_id").to_pylist()]
        with open(os.path.join(str(calls), uuid.uuid4().hex), "w") as f:
            _json.dump(docs, f)
        return real(stage, group, batch_bytes)

    monkeypatch.setattr(job, "_extract_group", _recorded)
    r = run_job(_config(str(corpus), str(tmp_path / "out")))
    assert r["rollups"]["shards_completed"] > 0
    seen = []
    for name in os.listdir(calls):
        with open(calls / name) as f:
            seen += _json.load(f)
    n_tasks = len(os.listdir(calls))
    assert 1 <= n_tasks <= 2 * ray.cluster_resources()["CPU"]
    assert sorted(seen) == sorted(table.column("doc_id").to_pylist())


def test_job_streams_a_large_row_group_in_bounded_batches(
        ray_session, tmp_path, monkeypatch):
    """Under a small block target, a corpus file of one row group larger
    than the target reaches extraction in tables of about half the
    target, every doc once, and the job commits what it commits under the
    default target."""
    import json as _json

    import ray

    from json_time_series_extractor_ray import job
    from json_time_series_extractor_ray.sources.parquet import READ_ROWS

    table = iot_corpus_table(3000, seed=9)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(table, str(corpus / "part-0.parquet"),
                   row_group_size=len(table))
    cfg = dict(_config(str(corpus), str(tmp_path / "ref")), num_shards=16)
    run_job(cfg)

    target = 512 * 1024
    assert table.nbytes > 4 * target
    calls = tmp_path / "calls"
    calls.mkdir()
    real = job._extract_group

    class _Recording:
        def __init__(self, stage):
            self.stage = stage
            self.id_column = stage.id_column
            self.tokens_column = stage.tokens_column

        def __call__(self, batch):
            with open(os.path.join(str(calls), uuid.uuid4().hex), "w") as f:
                _json.dump([batch.column("doc_id").to_pylist(),
                            batch.nbytes], f)
            return self.stage(batch)

    def _recorded(stage, group, batch_bytes):
        return real(_Recording(stage), group, batch_bytes)

    monkeypatch.setattr(job, "_extract_group", _recorded)
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = target
    try:
        run_job(dict(cfg, output_dir=str(tmp_path / "small")))
    finally:
        ctx.target_max_block_size = saved
    docs, sizes = [], []
    for name in os.listdir(calls):
        with open(calls / name) as f:
            ids, nbytes = _json.load(f)
        docs += ids
        sizes.append(nbytes)
    # a read batch of the two columns is under READ_ROWS x 2 KB here
    assert len(sizes) > 4
    assert max(sizes) < target // 2 + READ_ROWS * 2048
    assert sorted(docs) == sorted(table.column("doc_id").to_pylist())
    assert (_shard_outputs(str(tmp_path / "small"))
            == _shard_outputs(str(tmp_path / "ref")))


def test_map_group_of_files_with_different_doc_id_types(ray_session,
                                                        tmp_path):
    """A map group whose files store ``doc_id`` as ``string`` and
    ``large_string`` is cut where the type changes: every doc is
    extracted once, with the samples of per-file extraction, and the job
    commits what it commits when every file stores ``string``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from json_time_series_extractor_ray.job import _extract_group
    from json_time_series_extractor_ray.sources.parquet import (
        iter_row_groups,
        plan_row_groups,
    )
    from json_time_series_extractor_ray.stages.extract import (
        ExtractSamplesStage,
    )
    from json_time_series_extractor_ray.state.checkpoint import ShardSamples

    table = iot_corpus_table(300, seed=23)
    mixed, plain = tmp_path / "mixed", tmp_path / "plain"
    mixed.mkdir()
    plain.mkdir()
    for i in range(3):
        part = table.slice(100 * i, 100)
        pq.write_table(part, str(plain / f"part-{i}.parquet"))
        if i == 1:
            part = part.set_column(0, "doc_id",
                                   part.column("doc_id").cast(pa.large_string()))
        pq.write_table(part, str(mixed / f"part-{i}.parquet"))
    _, groups = plan_row_groups(str(mixed))
    group = [piece for g in groups for piece in g]
    columns = ["doc_id", "tokens"]
    assert len(list(iter_row_groups(group, columns, 1 << 30))) == 3

    stage = ExtractSamplesStage({"recursive": True}, fallback_now_ns=0)
    got = _extract_group(stage, group, 1 << 30)
    want = pa.concat_tables(
        [stage(t).select(ShardSamples.COLUMNS)
         for t in iter_row_groups(group, columns)],
        promote_options="permissive")
    keys = [(c, "ascending") for c in ("doc_id", "sample_ordinal")]
    got, want = (t.cast(got.schema).take(pc.sort_indices(t, sort_keys=keys))
                 for t in (got, want))
    assert got.equals(want)
    assert set(got.column("doc_id").to_pylist()) == set(
        table.column("doc_id").to_pylist())

    run_job(_config(str(plain), str(tmp_path / "ref")))
    run_job(_config(str(mixed), str(tmp_path / "out")))
    want = _shard_outputs(str(tmp_path / "ref"))
    assert want and _shard_outputs(str(tmp_path / "out")) == want


def test_job_input_may_be_a_list(ray_session, tmp_path):
    """``input`` may list directories and files: the job commits what it
    commits for one directory holding the same files."""
    table = iot_corpus_table(600, seed=21)
    one, a, b = (tmp_path / d for d in ("one", "a", "b"))
    for d in (one, a, b):
        d.mkdir()
    for i in range(3):
        part = table.slice(200 * i, 200)
        pq.write_table(part, str(one / f"part-{i}.parquet"))
        pq.write_table(part, str((a if i < 2 else b) / f"part-{i}.parquet"))
    run_job(_config(str(one), str(tmp_path / "ref")))
    run_job(_config([str(a), str(b / "part-2.parquet")],
                    str(tmp_path / "list")))
    want = _shard_outputs(str(tmp_path / "ref"))
    assert want and _shard_outputs(str(tmp_path / "list")) == want


def test_job_empty_corpus_commits_nothing(ray_session, tmp_path):
    """A corpus with no rows commits no shard and raises nothing, fresh or
    rerun; the chunk store holds its pinned identity and no record."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(iot_corpus_table(10, seed=3).slice(0, 0),
                   str(corpus / "part-0.parquet"))
    cfg = _config(str(corpus), str(tmp_path / "out"))
    for _ in range(2):
        r = run_job(cfg)
        assert r["shards_run"] == [] and r["shards_skipped"] == []
        assert r["rollups"]["shards_completed"] == 0
        assert r["rollups"]["rows"] == 0
    assert CheckpointManifest(
        f"{cfg['output_dir']}/chunks").completed_shards() == set()


def test_job_corrupt_doc_raises_extraction_error(ray_session, tmp_path):
    """One undecodable doc under the default ``on_error="raise"`` fails
    the job with the extraction error, and commits nothing."""
    import threading

    import pyarrow as pa

    from json_time_series_extractor_ray.corpus import texts_to_corpus_table

    good = iot_corpus_table(200, seed=3)
    bad = texts_to_corpus_table(["bad-doc"], ['{"device": "d1", "t": '],
                                ["test"], "utf8").cast(good.schema)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(pa.concat_tables([good.slice(0, 100), bad,
                                     good.slice(100)]),
                   str(corpus / "part-0.parquet"), row_group_size=50)
    cfg = _config(str(corpus), str(tmp_path / "out"))
    raised = []

    def _run():
        try:
            run_job(cfg)
        except Exception as e:  # noqa: BLE001  (checked below)
            raised.append(e)

    t = threading.Thread(target=_run, daemon=True)
    t.start()
    t.join(120)
    assert not t.is_alive(), "run_job hung on a corrupt doc"
    # the worker's JSONDecodeError, re-raised in the driver
    assert len(raised) == 1 and isinstance(raised[0], ValueError)
    assert "Expecting value" in str(raised[0])
    assert not os.path.exists(f"{cfg['output_dir']}/chunks")


@pytest.mark.parametrize("knob,value", [("extract_concurrency", 2),
                                        ("batch_size", 64)])
def test_job_refuses_removed_extraction_knobs(tmp_path, knob, value):
    """Both removed options are refused, naming the key, before anything
    is read or written; a null value is accepted as before."""
    cfg = dict(_config(str(tmp_path / "missing"), str(tmp_path / "out")),
               **{knob: value})
    with pytest.raises(ValueError, match=knob):
        run_job(cfg)
    assert not os.path.exists(tmp_path / "out")


def _named_files(store):
    """The files of a store's committed records, in shard order."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    return CheckpointManifest(store).source()[0]


def _rows(store):
    """A derived rollup store's rows, as its records name them, sorted."""
    import pyarrow as pa

    df = pa.concat_tables(
        [pq.read_table(f) for f in _named_files(store)]).to_pandas()
    return df.sort_values(["tier", "series_key", "window_start"],
                          ignore_index=True)


def _docs(out_dir):
    """The token archive read back: ``(doc_id, tokens)`` by ``doc_id``."""
    from json_time_series_extractor_ray.sources.token_chunks import (
        read_token_chunks,
    )

    df = read_token_chunks(f"{out_dir}/token_chunks").to_pandas()
    return sorted((d, tuple(t)) for d, t in zip(df["doc_id"], df["tokens"]))


def _assert_only_records_and_their_files(store):
    """Every file left in a store is a committed record or a file one
    names: a rerun left nothing of an earlier run behind."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    m = CheckpointManifest(store)
    left = sorted(os.path.relpath(p, store) for p in glob.glob(
        f"{store}/**", recursive=True) if os.path.isfile(p))
    assert left == sorted(
        [os.path.relpath(f, store) for f in _named_files(store)]
        + [f"_manifest/shard-{s:05d}.json" for s in m.completed_shards()])


def _plant_a_dead_run(store):
    """What a crashed earlier run can leave in a store: the record of a
    shard this run does not commit, naming a copy of a committed file, and
    an unnamed copy of that file in its committed shard's dir."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )

    m = CheckpointManifest(store)
    named = _named_files(store)[0]
    shutil.copy(named, os.path.join(os.path.dirname(named),
                                    f"part-{uuid.uuid4().hex}.parquet"))
    stale = f"shard=00099/part-{uuid.uuid4().hex}.parquet"
    os.makedirs(f"{store}/shard=00099")
    shutil.copy(named, f"{store}/{stale}")
    record = m.load_record(m.completed_shards().pop())
    record.update(shard=99, files=[{"path": stale,
                                    "size": os.path.getsize(named)}])
    with open(m.record_path(99), "w") as f:
        json.dump(record, f)


def test_job_side_passes_replace_their_stores(ray_session, corpus_dir,
                                              tmp_path):
    """A rerun of one config recomputes ``rollups_current`` and
    ``token_chunks`` whole: each holds one run's rows, the archive reads
    every doc once, and a rerun over a dead run's planted record and
    unnamed file equals a clean run, with nothing of either left."""
    from json_time_series_extractor_ray.stages.rollup import WINDOW_NS

    out = str(tmp_path / "out")
    cfg = dict(_config(corpus_dir, out), token_chunks=True, retention={
        "1m": 5 * WINDOW_NS["1m"], "1h": 365 * WINDOW_NS["1d"]})
    run_job(cfg)
    current, docs = _rows(f"{out}/rollups_current"), _docs(out)
    corpus = pq.read_table(corpus_dir)
    assert docs == sorted(
        (d, tuple(t)) for d, t in zip(corpus.column("doc_id").to_pylist(),
                                      corpus.column("tokens").to_pylist()))
    assert 0 < len(current) < len(_rows(f"{out}/rollups"))

    for rerun in range(2):
        if rerun:
            for store in ("rollups_current", "token_chunks"):
                _plant_a_dead_run(f"{out}/{store}")
            assert len(_rows(f"{out}/rollups_current")) > len(current)
            assert len(_docs(out)) > len(docs)
        run_job(cfg)
        pd.testing.assert_frame_equal(_rows(f"{out}/rollups_current"),
                                      current)
        assert _docs(out) == docs
        for store in ("rollups_current", "token_chunks"):
            _assert_only_records_and_their_files(f"{out}/{store}")


def test_job_update_replaces_rollups_updated(ray_session, tmp_path):
    """A second update run, and one over a dead run's planted record and
    unnamed file, leave the rows of one update in ``rollups_updated``."""
    full = iot_corpus_table(1000, seed=9)
    d_a, d_b = tmp_path / "a", tmp_path / "b"
    for d, part in ((d_a, full.slice(0, 500)), (d_b, full.slice(500))):
        d.mkdir()
        pq.write_table(part, str(d / "part-0.parquet"))
    out = str(tmp_path / "out")
    cfg = _config(str(d_a), out)
    run_job(cfg)
    update = dict(cfg, update_input=str(d_b))
    first = run_job(update)
    rows = _rows(f"{out}/rollups_updated")
    assert first["updated_rows"] == len(rows) > 0
    for rerun in range(2):
        if rerun:
            _plant_a_dead_run(f"{out}/rollups_updated")
            assert len(_rows(f"{out}/rollups_updated")) > len(rows)
        assert run_job(update) == first
        pd.testing.assert_frame_equal(_rows(f"{out}/rollups_updated"), rows)
        _assert_only_records_and_their_files(f"{out}/rollups_updated")


@pytest.mark.parametrize("field,value", [
    ("tiers", ["1m"]), ("gap_fill", "locf"),
    ("chunk_bucket_ns", 60_000_000_000)])
def test_job_resume_refuses_a_changed_identity(ray_session, corpus_dir,
                                               tmp_path, field, value):
    """A resume that changes ``tiers``, ``gap_fill`` or
    ``chunk_bucket_ns`` raises naming the field before any sample is read
    (no exchange runs); a ``_meta.json`` written before the field was
    pinned does not check it."""
    from json_time_series_extractor_ray.state.checkpoint import (
        CheckpointManifest,
    )
    from tests.test_checkpoint_resume import _ExchangeCounter

    cfg = _config(corpus_dir, str(tmp_path / "out"))
    r1 = run_job(cfg)
    m = CheckpointManifest(f"{cfg['output_dir']}/rollups")
    lost = r1["shards_run"][::2]
    for s in lost:
        os.remove(m.record_path(s))
    with _ExchangeCounter() as exchanges, \
            pytest.raises(ValueError, match=f"{field}=") as err:
        run_job({**cfg, field: value})
    assert exchanges.calls == 0
    assert repr(value) in str(err.value)
    assert sorted(m.completed_shards()) == r1["shards_run"][1::2]

    meta = os.path.join(m.manifest_dir, "_meta.json")
    with open(meta) as f:
        pinned = json.load(f)
    with open(meta, "w") as f:
        json.dump({k: v for k, v in pinned.items() if k != field}, f)
    assert run_job({**cfg, field: value})["shards_run"] == lost


@pytest.mark.parametrize("field,value", [("tiers", ["1m", "1h", "1d"]),
                                         ("gap_fill", "linear")])
def test_job_update_refuses_a_changed_identity(ray_session, corpus_dir,
                                               tmp_path, field, value):
    """An update whose ``tiers`` or ``gap_fill`` differs from the stored
    store's raises naming the field, and writes nothing."""
    cfg = _config(corpus_dir, str(tmp_path / "out"))
    run_job(cfg)
    with pytest.raises(ValueError, match=f"{field}="):
        run_job({**cfg, field: value, "update_input": corpus_dir})
    assert not os.path.exists(f"{cfg['output_dir']}/rollups_updated")
