"""JSON / JSONL sources land in the mandated corpus schema and feed the
same extraction pipeline (reference S1/S3 parity)."""

import json

import pytest

from json_time_series_extractor_ray.corpus import CORPUS_SCHEMA
from json_time_series_extractor_ray.pipelines.timeseries import extract_pipeline
from json_time_series_extractor_ray.sources.jsonfiles import (
    corpus_from_json_files,
    corpus_from_jsonl,
)

PAYLOADS = [
    {"time": "2024-01-01T00:00:00Z", "temp": 19.5, "ok": True},
    {"time": "2024-01-01T00:01:00Z", "temp": 20.5, "ok": False},
    {"time": "2024-01-01T00:02:00Z", "temp": 21.5, "note": "x"},
]


@pytest.fixture(scope="module")
def json_tree(tmp_path_factory):
    d = tmp_path_factory.mktemp("json_src")
    jsonl = d / "docs.jsonl"
    jsonl.write_text("\n".join(json.dumps(p, separators=(",", ":")) for p in PAYLOADS))
    for i, p in enumerate(PAYLOADS):
        (d / f"doc{i}.json").write_text(json.dumps(p, separators=(",", ":")))
    return d


def test_jsonl_source(ray_session, json_tree):
    ds = corpus_from_jsonl(str(json_tree / "docs.jsonl"))
    t = ds.take_all()
    assert len(t) == 3
    assert ds.schema().names == CORPUS_SCHEMA.names
    samples = extract_pipeline(ds, dict(recursive=True)).to_pandas()
    # 3 docs x 2 non-timestamp fields
    assert len(samples) == 6
    assert set(samples["series_key"]) == {"temp", "ok", "note"}


def test_json_files_source(ray_session, json_tree):
    paths = [str(json_tree / f"doc{i}.json") for i in range(3)]
    ds = corpus_from_json_files(paths)
    rows = ds.take_all()
    assert len(rows) == 3
    assert all(r["doc_id"].endswith(".json") for r in rows)
    samples = extract_pipeline(ds, dict(recursive=True)).to_pandas()
    assert len(samples) == 6


def test_sources_are_deterministic(ray_session, json_tree):
    a = corpus_from_jsonl(str(json_tree / "docs.jsonl")).to_pandas()
    b = corpus_from_jsonl(str(json_tree / "docs.jsonl")).to_pandas()
    a = a.sort_values("doc_id", ignore_index=True)
    b = b.sort_values("doc_id", ignore_index=True)
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert a["n_tok"].tolist() == b["n_tok"].tolist()


def _no_remote_footers(monkeypatch):
    import ray.data.datasource.parquet_meta_provider as pmp

    def refuse(*args, **kwargs):
        raise AssertionError("footers read in remote tasks")

    monkeypatch.setattr(pmp, "_fetch_metadata_parallel", refuse)


def test_chunk_stores_read_footers_in_process(ray_session, tmp_path,
                                              monkeypatch):
    """A Gorilla chunk store and a token-chunk store of 30 files each (a
    default 64-shard store has more than 24) read back whole with every
    footer read in the calling process."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from json_time_series_extractor_ray.corpus import iot_corpus_table
    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )
    from json_time_series_extractor_ray.sources.token_chunks import (
        read_token_chunks,
    )
    from json_time_series_extractor_ray.state.gorilla import (
        GorillaChunkWriter,
    )
    from json_time_series_extractor_ray.state.tokenstore import (
        compress_corpus_batch,
    )

    n = 300
    ts = 1_704_067_200 * 10**9 + np.arange(n) * 10**9
    samples = pa.table({
        "series_key": pa.array([f"dev-{i % 30:02d}" for i in range(n)]),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("ns")),
        "value_num": pa.array(np.arange(n) / 4.0),
        "value_kind": pa.array(np.ones(n, np.int8)),
        "doc_id": pa.array([f"d{i:03d}" for i in range(n)]),
        "sample_ordinal": pa.array(np.zeros(n, np.int32)),
    })
    chunks = GorillaChunkWriter()(samples)
    corpus = iot_corpus_table(n, seed=5)
    assert chunks.num_rows == 30
    for name, rows in (("chunks", lambda i: chunks.slice(i, 1)),
                       ("tokens", lambda i: compress_corpus_batch(
                           corpus.slice(i * 10, 10)))):
        (tmp_path / name).mkdir()
        for i in range(30):
            pq.write_table(rows(i), str(tmp_path / name / f"p{i:02d}.parquet"))

    _no_remote_footers(monkeypatch)
    points = read_gorilla_chunks(str(tmp_path / "chunks")).to_pandas()
    assert sorted(zip(points["ts_ns"], points["value_num"])) == sorted(
        zip(ts.tolist(), (np.arange(n) / 4.0).tolist()))
    docs = read_token_chunks(str(tmp_path / "tokens")).to_pandas()
    assert sorted(docs["doc_id"]) == sorted(corpus.column("doc_id").to_pylist())


SEC = 10**9
T0 = 1_704_067_200 * SEC


def _samples(keys, ts):
    """Numeric samples, one per ``(key, ts)``, valued ``ts / 1e9``."""
    import numpy as np
    import pyarrow as pa

    ts = np.asarray(ts, np.int64)
    n = len(ts)
    return pa.table({
        "series_key": pa.array(keys, pa.string()),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("ns")),
        "value_num": pa.array((ts - T0) / 1e9),
        "value_kind": pa.array(np.ones(n, np.int8)),
        "doc_id": pa.array([f"d{i:04d}" for i in range(n)]),
        "sample_ordinal": pa.array(np.zeros(n, np.int32)),
    })


@pytest.fixture(scope="module")
def time_sliced_store(tmp_path_factory):
    """30 chunk files, file ``i`` holding two series' samples of seconds
    ``[100 i, 100 i + 10)``: the files' time ranges are disjoint."""
    import pyarrow.parquet as pq

    from json_time_series_extractor_ray.state.gorilla import (
        GorillaChunkWriter,
    )

    d = tmp_path_factory.mktemp("time_sliced")
    for i in range(30):
        ts = [T0 + (100 * i + j) * SEC for j in range(10)]
        pq.write_table(
            GorillaChunkWriter()(_samples(["a"] * 10 + ["b"] * 10, ts * 2)),
            str(d / f"part-{i:02d}.parquet"))
    return str(d)


def _points(ds):
    df = ds.to_pandas()
    return sorted(zip(df["series_key"], df["ts_ns"], df["value_num"]))


def test_chunk_reads_run_no_ray_data_plan(ray_session, tmp_path,
                                          time_sliced_store):
    """Both chunk read-backs are direct: no Ray Data plan executes, not
    even when the caller materializes the result."""
    import pyarrow.parquet as pq

    from json_time_series_extractor_ray.corpus import iot_corpus_table
    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )
    from json_time_series_extractor_ray.sources.token_chunks import (
        read_token_chunks,
    )
    from json_time_series_extractor_ray.state.tokenstore import (
        compress_corpus_batch,
    )
    from tests.test_checkpoint_resume import _PlanCounter

    corpus = iot_corpus_table(40, seed=3)
    for i in range(4):
        pq.write_table(compress_corpus_batch(corpus.slice(i * 10, 10)),
                       str(tmp_path / f"t{i}.parquet"))
    with _PlanCounter() as plans:
        points = read_gorilla_chunks(time_sliced_store).materialize()
        docs = read_token_chunks(str(tmp_path)).materialize()
        ranged = read_token_chunks(
            str(tmp_path), min_doc_id=corpus.column("doc_id")[12].as_py(),
            max_doc_id=corpus.column("doc_id")[12].as_py()).materialize()
    assert plans.plans == 0
    assert points.count() == 600
    assert sorted(docs.to_pandas()["doc_id"]) == sorted(
        corpus.column("doc_id").to_pylist())
    assert ranged.num_blocks() == 1  # chunk of docs 10..19 only
    assert corpus.column("doc_id")[12].as_py() in set(
        ranged.to_pandas()["doc_id"])
    none = read_token_chunks(str(tmp_path), min_doc_id="\U0010ffff")
    assert none.count() == 0
    assert none.schema().names == ["doc_id", "tokens", "n_tok", "source"]


def test_full_read_runs_few_tasks(ray_session, time_sliced_store):
    """A whole read of 30 one-row-group files runs one task per group of
    files, at most 2 x CPUs of them, and decodes every point once."""
    import ray

    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )

    ds = read_gorilla_chunks(time_sliced_store)
    assert ds.num_blocks() <= 2 * ray.cluster_resources()["CPU"]
    assert _points(ds) == sorted(
        (k, T0 + (100 * i + j) * SEC, float(100 * i + j))
        for k in "ab" for i in range(30) for j in range(10))


@pytest.mark.parametrize("sizes,n", [
    ([10] * 30, 8),            # even sizes: 30 row groups in 8 groups
    ([10] * 3, 3),             # fewer row groups than 2 x CPUs
    ([1000, 1, 1, 1, 1, 1, 1, 1, 1, 1], 8),  # one heavy row group
    ([0] * 12, 8),             # no bytes at all
])
def test_plan_row_groups_cuts_contiguous_balanced_groups(
        ray_session, tmp_path, sizes, n):
    """The planner covers every row group once, in file order, in
    ``min(#row groups, 2 x CPUs)`` non-empty contiguous groups (the bytes
    stay below one block target here), balanced by footer bytes."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from json_time_series_extractor_ray.sources.parquet import (
        plan_row_groups,
    )

    rng = np.random.default_rng(0)
    pieces = []
    for i, size in enumerate(sizes):
        # one file of one row group, 100 x ``size`` float64 values
        path = str(tmp_path / f"f{i:02d}.parquet")
        pq.write_table(pa.table({"x": rng.normal(size=size * 100)}), path)
        pieces.append(path)
    _, groups = plan_row_groups(str(tmp_path))
    assert len(groups) == n and all(groups)
    flat = [(f, rg) for g in groups for _, f, rgs in g for rg in rgs]
    assert flat == [(p, 0) for p in pieces]
    if len(set(sizes)) == 1 and sizes[0]:
        lens = [sum(len(rgs) for _, _, rgs in g) for g in groups]
        assert max(lens) - min(lens) <= 1
    if sizes[0] == 1000:
        assert [(f, rgs) for _, f, rgs in groups[0]] == [(pieces[0], [0])]


def test_iter_row_groups_streams_bounded_tables(tmp_path):
    """With ``batch_bytes``, a group's rows stream across its files in
    tables of at most ``batch_bytes`` plus one read batch, together every
    row once in order: a table may hold rows of two files.  A group of
    only empty files yields one empty table with the asked columns.
    Without ``batch_bytes``, one table per file."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from json_time_series_extractor_ray.sources.parquet import (
        READ_ROWS,
        iter_row_groups,
        plan_row_groups,
    )

    n = 10 * READ_ROWS
    big = pa.table({"i": np.arange(n), "x": np.arange(n, dtype=np.float64),
                    "s": [f"row-{i}" for i in range(n)]})
    small = big.slice(0, READ_ROWS // 2)
    pq.write_table(big, str(tmp_path / "a-big.parquet"), row_group_size=n)
    pq.write_table(big.slice(0, 0), str(tmp_path / "b-empty.parquet"))
    pq.write_table(small, str(tmp_path / "c-small.parquet"))
    _, groups = plan_row_groups(str(tmp_path))
    group = [piece for g in groups for piece in g]
    assert [len(rgs) for _, _, rgs in group] == [1, 1, 1]
    want = pa.concat_tables([big, small]).select(["i", "x"])
    batch_bytes = big.slice(0, 3 * READ_ROWS).select(["i", "x"]).nbytes
    step = big.slice(0, READ_ROWS).select(["i", "x"]).nbytes

    tables = list(iter_row_groups(group, ["i", "x"], batch_bytes))
    assert len(tables) > 2
    assert all(t.nbytes < batch_bytes + step for t in tables)
    assert all(t.num_rows and t.schema.names == ["i", "x"] for t in tables)
    assert pa.concat_tables(tables).equals(want)
    # one table crosses from the big file into the small one
    whole = list(iter_row_groups(group, ["i", "x"], want.nbytes))
    assert len(whole) == 1 and whole[0].equals(want)

    empty = list(iter_row_groups(group[1:2], ["i", "x"], batch_bytes))
    assert [t.num_rows for t in empty] == [0]
    assert empty[0].schema.names == ["i", "x"]

    per_file = list(iter_row_groups(group, ["s"]))
    assert [t.num_rows for t in per_file] == [n, 0, len(small)]
    assert per_file[0].equals(big.select(["s"]))


def test_range_read_starts_tasks_only_for_overlapping_files(
        ray_session, time_sliced_store):
    """A range over 3 of 30 files yields 3 blocks: a file whose footer
    statistics rule the range out gets no task."""
    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )

    lo, hi = T0 + 1_005 * SEC, T0 + 1_205 * SEC  # files 10, 11 and 12
    ds = read_gorilla_chunks(time_sliced_store, min_ts_ns=lo, max_ts_ns=hi)
    assert ds.num_blocks() == 3
    want = sorted((k, T0 + (100 * i + j) * SEC, float(100 * i + j))
                  for k in "ab" for i in (10, 11, 12) for j in range(10))
    assert _points(ds) == want


def test_range_outside_every_chunk_reads_empty(ray_session,
                                               time_sliced_store):
    import pyarrow as pa

    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )

    ds = read_gorilla_chunks(time_sliced_store, min_ts_ns=T0 + 10**6 * SEC)
    assert ds.count() == 0
    assert ds.schema().base_schema == pa.schema([
        ("series_key", pa.string()), ("ts_ns", pa.int64()),
        ("value_num", pa.float64())])
    assert read_gorilla_chunks(time_sliced_store,
                               max_ts_ns=T0 - 1).count() == 0


def test_corrupt_chunk_raises_from_the_read(ray_session, tmp_path):
    """The read runs when called: a corrupt chunk fails the call itself."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )
    from json_time_series_extractor_ray.state.gorilla import (
        GorillaChunkWriter,
    )

    chunks = GorillaChunkWriter()(_samples(
        ["a"] * 50, [T0 + j * SEC for j in range(50)]))
    cut = pc.binary_slice(chunks.column("chunk"), 0, -2)
    pq.write_table(chunks.set_column(
        chunks.schema.get_field_index("chunk"), "chunk", cut),
        str(tmp_path / "bad.parquet"))
    with pytest.raises(ValueError, match="gorilla:"):
        read_gorilla_chunks(str(tmp_path))


def test_flat_and_shard_partitioned_stores_read_equal(ray_session,
                                                      tmp_path):
    """The same chunks written flat by ``write_parquet`` and as the job's
    ``chunks/shard=NNNNN/`` store read back equal, whole and by range; the
    store's ``_``- and ``.``-prefixed entries are not read."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from json_time_series_extractor_ray.sources.gorilla_chunks import (
        read_gorilla_chunks,
    )
    from json_time_series_extractor_ray.state.checkpoint import shard_of
    from json_time_series_extractor_ray.state.gorilla import (
        GorillaChunkWriter,
    )

    keys = [f"dev-{i % 7}" for i in range(700)]
    chunks = GorillaChunkWriter(bucket_ns=20 * SEC)(
        _samples(keys, T0 + np.arange(700) * SEC))
    flat = str(tmp_path / "flat")
    ray.data.from_arrow(chunks).repartition(3).write_parquet(flat)
    store = tmp_path / "chunks"
    shard = np.array([shard_of(k, 4) for k in
                      chunks.column("series_key").to_pylist()])
    for s in np.unique(shard):
        (store / f"shard={s:05d}").mkdir(parents=True)
        pq.write_table(chunks.filter(shard == s),
                       str(store / f"shard={s:05d}" / "part-0.parquet"))
    (store / "_manifest").mkdir()
    (store / "_manifest" / "00000.json").write_text("{}")
    (store / ".part-0.parquet.crc").write_bytes(b"\0")

    t_min = chunks.column("t_min").to_numpy()
    t_max = chunks.column("t_max").to_numpy()
    n_points = chunks.column("n_points").to_numpy()
    for lo, hi in ((T0, T0 + 700 * SEC), (T0 + 250 * SEC, T0 + 300 * SEC)):
        a = _points(read_gorilla_chunks(flat, min_ts_ns=lo, max_ts_ns=hi))
        b = _points(read_gorilla_chunks(str(store), min_ts_ns=lo,
                                        max_ts_ns=hi))
        assert a == b
        assert len(a) == n_points[(t_max >= lo) & (t_min <= hi)].sum()
    assert _points(read_gorilla_chunks(flat)) == _points(
        read_gorilla_chunks(str(store))) == sorted(
            zip(keys, (T0 + np.arange(700) * SEC).tolist(),
                np.arange(700, dtype=float).tolist()))
