"""Every per-series path runs on the one shard-keyed shuffle
(``state/checkpoint.shard_apply``): at 10^4 series each path equals its
per-series oracle bit for bit, each runs one direct shard exchange whose
map side runs at full cluster width and whose Ray Data plans hold no
all-to-all operator, ``stages/``/``state/`` hold no ``.groupby(`` call,
and ``pipelines/diffstats.py``, ``pipelines/analytics.py``,
``pipelines/relational.py``, the TPC-H family (``tpch.py``, ``tpch2.py``,
``graph.py``) and ``joins.shuffle_join`` no hand-written shuffle.  The
``pipelines/_util`` helpers on the exchange (``sharded_aggregate``,
``window_means``) produce blocks of exactly their declared schema."""

import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from json_time_series_extractor_ray.pipelines import _util
from json_time_series_extractor_ray.pipelines._util import (
    round_half_away,
    window_means,
)
from json_time_series_extractor_ray.pipelines.analytics import (
    group_mode,
    ohlc_rollup,
    twa_rollup,
    value_histogram,
)
from json_time_series_extractor_ray.pipelines.diffstats import (
    ar2_yule_walker,
    holt_smooth,
    kendall_tau_pair,
    simple_window_rollup,
    welch_weekend_effect,
    window_stddev,
)
from json_time_series_extractor_ray.pipelines.downsample import hopping_rollup
from json_time_series_extractor_ray.pipelines.ranktests import ks_weekend
from json_time_series_extractor_ray.stages.rollup import (
    merge_tier_rollups,
    rollup_ladder,
    rollup_oracle,
)
from json_time_series_extractor_ray.state.checkpoint import shard_of
from json_time_series_extractor_ray.state.gorilla import (
    GorillaChunkWriter,
    compact_chunks,
    compress_series_dataset,
    decompress_chunks,
)
from tests import rollup_reference as ref
from tests.test_checkpoint_resume import _ExchangeCounter, _PlanCounter
from tests.test_gorilla_codec import oracle_compress_chunk

N_SERIES = 10_000
H_NS = 3_600_000_000_000
BASE = 1_704_067_200 * 10**9  # 2024-01-01, a day boundary
KEY = ["tier", "series_key", "window_start"]


def _samples(n_series=N_SERIES, per_series=4, seed=0) -> pa.Table:
    """``per_series`` samples per series inside a 10-minute span that
    starts anywhere in two days, so 1m windows have interior gaps and
    some series cross an hour or day boundary.  Values are multiples of
    1/4, so every float sum is exact whatever the block layout; 2% of
    series and 2% of other samples are strings."""
    rng = np.random.default_rng(seed)
    n = n_series * per_series
    series = rng.permutation(np.arange(n) % n_series)
    start = rng.integers(0, 2 * 86_400, n_series)[series]
    kind = np.where((series % 50 == 7) | (rng.random(n) < 0.02), 2, 1)
    return pa.table({
        "series_key": pa.array([f"dev-{s:05d}/temp" for s in series]),
        "ts": pa.array(BASE + (start + rng.integers(0, 600, n)) * 10**9,
                       pa.int64()).cast(pa.timestamp("ns")),
        "value_num": pa.array(rng.integers(-4000, 4000, n) / 4.0),
        "value_kind": pa.array(kind.astype(np.int8)),
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "sample_ordinal": pa.array(rng.integers(0, 3, n), pa.int32()),
    })


def _dataset(table: pa.Table, n_blocks=8):
    import ray

    step = -(-table.num_rows // n_blocks)
    return ray.data.from_arrow(
        [table.slice(i, step) for i in range(0, table.num_rows, step)])


def _sorted(df: pd.DataFrame, key=KEY) -> pd.DataFrame:
    return df.sort_values(key, ignore_index=True)


@pytest.fixture(scope="module")
def samples():
    return _samples()


@pytest.mark.parametrize("gap_fill", [None, "locf"])
def test_rollup_ladder_high_cardinality_equals_oracle(ray_session, samples,
                                                      gap_fill):
    # the gap-fill oracle costs one numpy pass per (series, tier): 1m only
    tiers = ("1m", "1h", "1d") if gap_fill is None else ("1m",)
    want = rollup_oracle(samples, tiers)
    assert want["series_key"].nunique() >= 9_000
    if gap_fill is not None:
        # oracle: the reference fill of each (series, tier) alone
        want = ref.gap_fill_tier_group(want, gap_fill)
        assert (want["count"] == 0).sum() > 10_000  # filled rows exist
    got = rollup_ladder(_dataset(samples), tiers,
                        gap_fill=gap_fill).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want)[got.columns],
                                  check_exact=True)


def test_merge_tier_rollups_two_way_split_equals_one_pass(ray_session,
                                                          samples):
    """Samples split 2 ways at random (most windows get rows from both
    halves): merging the two ladders equals the one-pass ladder."""
    half = np.random.default_rng(1).random(samples.num_rows) < 0.5
    ladders = [rollup_ladder(_dataset(samples.filter(pa.array(m)))
                             ).materialize()
               for m in (half, ~half)]
    got = merge_tier_rollups(ladders).to_pandas()
    want = rollup_ladder(_dataset(samples)).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want)[got.columns],
                                  check_exact=True)


@pytest.mark.parametrize("bucket_ns", [None, 300_000_000_000])
def test_compress_series_dataset_high_cardinality(ray_session, samples,
                                                  bucket_ns):
    """Per-(series, bucket) chunk rows equal the writer run on each series
    alone, bytes included, 0-point rows of string-only series too."""
    key = ["series_key", "t_min", "n_points"]
    got = compress_series_dataset(_dataset(samples),
                                  bucket_ns=bucket_ns).to_pandas()
    writer = GorillaChunkWriter(bucket_ns)
    want = pd.concat(
        [writer(pa.Table.from_pandas(g, preserve_index=False)).to_pandas()
         for _, g in samples.to_pandas().groupby("series_key")],
        ignore_index=True)
    assert (want["n_points"] == 0).any()
    assert want["series_key"].nunique() >= 9_000
    pd.testing.assert_frame_equal(_sorted(got, key), _sorted(want, key),
                                  check_exact=True)


def test_compact_chunks_high_cardinality_matches_scalar_encoder(ray_session):
    """10^4 series of 0-3 small chunks each, compacted at 5 points per
    chunk: every series decodes to its points in (t_min, t_max) order, and
    every output chunk is the scalar encoder's bytes for its slice."""
    import ray

    target = 5
    rng = np.random.default_rng(4)
    rows, points = [], {}
    for s in range(N_SERIES):
        key = f"dev-{s:05d}"
        t = BASE + int(rng.integers(0, 10**12))
        ts_all, vals_all = [], []
        for n in rng.integers(0, 5, rng.integers(1, 4)):
            ts = t + np.cumsum(rng.choice([10**9, 2 * 10**9, 7], n))
            vals = np.round(rng.normal(20, 2, n), 2)
            rows.append((key, n, int(ts[0]) if n else 0,
                         int(ts[-1]) if n else 0, 16 * n,
                         oracle_compress_chunk(ts, vals)))
            t = int(ts[-1]) if n else t
            ts_all.append(ts)
            vals_all.append(vals)
        points[key] = (np.concatenate(ts_all), np.concatenate(vals_all))
    chunks = pd.DataFrame(rows, columns=["series_key", "n_points", "t_min",
                                         "t_max", "raw_bytes", "chunk"])
    chunks = chunks.iloc[rng.permutation(len(chunks))]
    got = _sorted(compact_chunks(ray.data.from_pandas(chunks),
                                 target_points=target).to_pandas(),
                  ["series_key", "t_min"])
    assert got["series_key"].nunique() == N_SERIES
    assert (got["n_points"] <= target).all()
    assert ((got["n_points"] == 0)
            == got["series_key"].map(lambda k: len(points[k][0]) == 0)).all()

    ts, vals, counts = decompress_chunks(list(got["chunk"]))
    np.testing.assert_array_equal(counts, got["n_points"])
    bounds = np.cumsum(counts) - counts
    for key, g in got.groupby("series_key", sort=False):
        want_ts, want_vals = points[key]
        lo, hi = bounds[g.index[0]], bounds[g.index[-1]] + counts[g.index[-1]]
        np.testing.assert_array_equal(ts[lo:hi], want_ts)
        np.testing.assert_array_equal(vals[lo:hi].view(np.uint64),
                                      want_vals.view(np.uint64))
        cuts = np.arange(0, len(want_ts), target)
        want_chunks = [oracle_compress_chunk(want_ts[c:c + target],
                                             want_vals[c:c + target])
                       for c in cuts] or [oracle_compress_chunk(want_ts,
                                                                want_vals)]
        assert list(g["chunk"]) == want_chunks


def _assert_one_exchange(make) -> None:
    """``make()`` and the read of its output run one shard exchange, and
    the Ray Data plans they execute (none for a materialized input) hold
    no all-to-all operator."""
    with _ExchangeCounter() as exchanges, _PlanCounter() as plans:
        make().materialize()
    assert exchanges.calls == 1
    assert plans.ops == 0


def test_map_side_runs_tasks_concurrently(ray_session):
    """The shuffle's map side runs several tasks at once: 8 one-block
    map tasks that each sleep 0.25 s overlap on 4 CPUs (with Ray's
    per-operator reservation they ran one at a time), every row still
    reaches the shard body, and the global DataContext is untouched."""
    import time

    import ray
    from ray.data import DataContext

    from json_time_series_extractor_ray.state.checkpoint import shard_apply

    reservation = DataContext.get_current().op_resource_reservation_enabled
    blocks = [pa.table({"series_key": [f"s{b}-{i}" for i in range(25)],
                        "row": np.arange(b * 25, (b + 1) * 25)})
              for b in range(8)]

    def _sleep(batch: pa.Table) -> pa.Table:
        t0 = time.time()
        time.sleep(0.25)
        n = batch.num_rows
        return batch.append_column("t0", pa.array([t0] * n)).append_column(
            "t1", pa.array([time.time()] * n))

    out = shard_apply(
        ray.data.from_arrow(blocks).map_batches(
            _sleep, batch_format="pyarrow", batch_size=None),
        lambda t: t.drop_columns(["shard"]), num_shards=4,
    ).to_pandas()

    assert sorted(out["row"]) == list(range(200))
    spans = out[["t0", "t1"]].drop_duplicates()
    assert len(spans) == 8
    events = sorted([(t, 1) for t in spans["t0"]] +
                    [(t, -1) for t in spans["t1"]])
    assert max(np.cumsum([d for _, d in events])) >= 2
    assert DataContext.get_current().op_resource_reservation_enabled \
        == reservation


def test_every_per_series_path_runs_one_exchange(ray_session):
    import ray

    table = _samples(n_series=200, per_series=3, seed=2)
    samples = _dataset(table).materialize()
    ladder = rollup_ladder(samples).materialize()
    chunks = compress_series_dataset(samples).materialize()
    _assert_one_exchange(lambda: rollup_ladder(samples))
    _assert_one_exchange(lambda: rollup_ladder(samples, gap_fill="locf"))
    _assert_one_exchange(lambda: merge_tier_rollups([ladder, ladder]))
    _assert_one_exchange(lambda: compress_series_dataset(samples))
    _assert_one_exchange(lambda: compress_series_dataset(
        samples, bucket_ns=300_000_000_000))
    _assert_one_exchange(lambda: compact_chunks(
        ray.data.from_pandas(chunks.to_pandas())))
    _assert_one_exchange(lambda: hopping_rollup(
        samples, width_ns=300_000_000_000, hop_ns=60_000_000_000))
    _assert_one_exchange(lambda: window_stddev(samples, window_ns=H_NS))
    _assert_one_exchange(lambda: holt_smooth(samples, window_ns=H_NS))
    _assert_one_exchange(lambda: kendall_tau_pair(
        samples, x_series="dev-00000/temp", y_series="dev-00001/temp",
        window_ns=H_NS))
    _assert_one_exchange(lambda: ks_weekend(samples))
    _assert_one_exchange(lambda: ohlc_rollup(samples))
    _assert_one_exchange(lambda: twa_rollup(samples, window_ns=H_NS))
    _assert_one_exchange(lambda: value_histogram(samples))
    # an integer key
    events = ray.data.from_arrow(pa.table({
        "user_id": pa.array(np.arange(600) % 37, pa.int64()),
        "event_type": pa.array(np.array(["view", "click", "buy"])[
            np.arange(600) % 3]),
    })).materialize()
    _assert_one_exchange(lambda: group_mode(events))


def test_relational_and_shuffle_join_run_one_exchange(ray_session):
    """``joins.shuffle_join`` under every ``how``, and a relational
    operator on a string key, one on an integer key and one global reduce
    (``key=None``), each run one shard exchange and no Ray Data
    all-to-all operator."""
    import ray

    from json_time_series_extractor_ray.pipelines.joins import shuffle_join
    from json_time_series_extractor_ray.pipelines.registry import (
        extra_queries,
    )
    from json_time_series_extractor_ray.pipelines.relational import (
        customer_ltv,
        table_profile,
    )

    rng = np.random.default_rng(4)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(list(rng.integers(0, 40, 300)) + [None], pa.int64()),
        "x": pa.array(np.arange(301), pa.int64()),
    })).repartition(3).materialize()
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(list(rng.integers(20, 60, 100)) + [None], pa.int64()),
        "y": pa.array(np.arange(101) * 0.5),
    })).repartition(2).materialize()
    for how in ("inner", "left", "outer", "semi", "anti"):
        _assert_one_exchange(lambda: shuffle_join(left, right, on="k",
                                                  how=how, num_shards=8))
    # a string key: the profiled column's name
    _assert_one_exchange(lambda: table_profile(left, ["k", "x"]))
    # an integer key: the customer
    orders = ray.data.from_arrow(pa.table({
        "o_custkey": pa.array(np.arange(600) % 37, pa.int64()),
        "o_totalprice": pa.array(np.arange(600) * 1.25),
        "o_orderdate": pa.array(BASE + np.arange(600) * H_NS,
                                pa.int64()).cast(pa.timestamp("ns")),
    })).repartition(4).materialize()
    _assert_one_exchange(lambda: customer_ltv(orders))
    # key=None: the ABC classification ranks every part in one task
    _assert_one_exchange(lambda: extra_queries()["parts_abc_classes"](
        "/root/testdata/sf0.001"))


#: the registered queries of ``tpch.py``, ``tpch2.py`` and ``graph.py``
#: that run on the shard exchange
TPCH_FAMILY = (
    "forecast_revenue_change", "promo_revenue_effect",
    "order_priority_checking", "part_supplier_counts",
    "part_supplier_counts_excl", "brand_quantity_revenue",
    "customer_order_distribution", "top_supplier_revenue",
    "small_quantity_revenue", "national_market_share",
    "product_type_profit", "sales_opportunity", "min_cost_supplier",
    "important_part_values", "late_shipment_priority",
    "excess_supply_suppliers", "suppliers_kept_waiting",
    "nation_trade_pagerank", "nation_trade_triangles",
)


def test_tpch_family_runs_no_all_to_all_operator(ray_session):
    """The TPC-H family's queries shuffle only on the shard exchange: the
    Ray Data plans they execute hold no all-to-all operator."""
    from __ray_entry__ import SF0001

    from json_time_series_extractor_ray.pipelines.registry import (
        extra_queries,
    )

    queries = extra_queries()
    with _PlanCounter() as plans:
        for name in TPCH_FAMILY:
            out = queries[name](SF0001)
            if not isinstance(out, pd.DataFrame):
                out.to_pandas()
    assert plans.plans > 0
    assert plans.ops == 0


def test_sharded_distinct_runs_one_exchange(ray_session):
    """``tpch._sharded_distinct`` on an integer key and on a string key:
    one exchange each, and the distinct rows of the input."""
    import ray

    from json_time_series_extractor_ray.pipelines.tpch import (
        _sharded_distinct,
    )

    rng = np.random.default_rng(5)
    table = pa.table({
        "k": pa.array(rng.integers(0, 30, 500), pa.int64()),
        "s": pa.array([f"v{i}" for i in rng.integers(0, 7, 500)]),
    })
    ds = ray.data.from_arrow(table).repartition(4).materialize()
    want = table.to_pandas().drop_duplicates()
    for key in ("k", "s"):
        _assert_one_exchange(lambda: _sharded_distinct(ds, table.schema, key))
        got = _sharded_distinct(ds, table.schema, key).to_pandas()
        pd.testing.assert_frame_equal(_sorted(got, ["k", "s"]),
                                      _sorted(want, ["k", "s"]))


def test_stages_and_state_have_no_groupby():
    """No ``.groupby(`` at all: the shard exchange is the one shuffle, and
    a per-series shuffle (or a per-group pandas loop) cannot come back
    unnoticed.  ``pipelines/diffstats.py``, ``pipelines/analytics.py``,
    ``pipelines/relational.py`` and the TPC-H family (``tpch.py``,
    ``tpch2.py``, ``graph.py``) run every operator on the ``_util``
    helpers: no ``map_groups(`` and no ``hash_shards``; and
    ``joins.shuffle_join`` runs no Ray Data ``groupby``."""
    import inspect

    from json_time_series_extractor_ray.pipelines.joins import shuffle_join

    pkg = pathlib.Path(__file__).resolve().parents[1] / \
        "json_time_series_extractor_ray"
    hits = [
        (path.relative_to(pkg).as_posix(), line.strip())
        for sub in ("stages", "state")
        for path in sorted((pkg / sub).glob("*.py"))
        for line in path.read_text().splitlines()
        if ".groupby(" in line
    ]
    assert hits == []
    for family in ("diffstats", "analytics", "relational", "tpch", "tpch2",
                   "graph"):
        src = (pkg / "pipelines" / f"{family}.py").read_text()
        assert "map_groups(" not in src, family
        assert "hash_shards" not in src, family
    assert "groupby(" not in inspect.getsource(shuffle_join)


def _numeric(table: pa.Table) -> pa.Table:
    """String samples (``value_kind`` 2) carry no ``value_num``."""
    import pyarrow.compute as pc

    return table.set_column(
        table.schema.get_field_index("value_num"), "value_num",
        pc.if_else(pc.equal(table.column("value_kind"), 2),
                   pa.scalar(None, pa.float64()), table.column("value_num")))


def test_window_means_high_cardinality_equals_one_pass(ray_session,
                                                       samples):
    """10^4 series over 8 blocks: every (series, window) mean equals the
    rounded mean of one pandas pass, and each ``fit`` segment is exactly
    one series' windows."""
    table = _numeric(samples)

    def _fit(series, windows, y, starts):
        lens = np.diff(starts)
        assert (series[starts[:-1]] == series[starts[1:] - 1]).all()
        assert (series[starts[1:-1]] > series[starts[:-2]]).all()
        return {"series_key": series, "window_ns": windows, "y": y,
                "seg_len": np.repeat(lens, lens)}

    got = window_means(_dataset(table), window_ns=H_NS, fit=_fit,
                       schema=pa.schema([("series_key", pa.string()),
                                         ("window_ns", pa.int64()),
                                         ("y", pa.float64()),
                                         ("seg_len", pa.int64())]))
    got = _sorted(got.to_pandas(), ["series_key", "window_ns"])

    df = table.to_pandas().dropna(subset=["value_num"])
    ts = df["ts"].to_numpy().astype("datetime64[ns]").astype(np.int64)
    want = df.assign(window_ns=ts // H_NS * H_NS).groupby(
        ["series_key", "window_ns"], sort=True)["value_num"].agg(
        ["sum", "size"]).reset_index()
    want["y"] = round_half_away(round_half_away(want["sum"], 6)
                                / want["size"], 6)
    want["seg_len"] = want.groupby("series_key")["y"].transform("size")
    assert want["series_key"].nunique() >= 9_000
    pd.testing.assert_frame_equal(
        got, want[["series_key", "window_ns", "y", "seg_len"]],
        check_exact=True)


def _brute_tau_b(x: np.ndarray, y: np.ndarray) -> tuple:
    """(cd, tau_b) by a loop over every window pair."""
    n = len(x)
    cd = n1 = n2 = 0
    for i in range(n):
        for j in range(i + 1, n):
            cd += int(np.sign(x[j] - x[i]) * np.sign(y[j] - y[i]))
            n1 += x[i] == x[j]
            n2 += y[i] == y[j]
    n0 = n * (n - 1) // 2
    return cd, cd / np.sqrt((n0 - n1) * (n0 - n2))


def test_kendall_tau_pair_across_shards_equals_brute_force(ray_session):
    """The two series hash to different shards; the pair key still
    brings both into one task, and the result equals a brute-force
    tau-b over their aligned daily means (with ties, and windows only
    one series has)."""
    import ray

    day = 86_400_000_000_000
    keys = [f"dev-{i:05d}/temp" for i in range(50)]
    x_key = keys[0]
    y_key = next(k for k in keys if shard_of(k, 64) != shard_of(x_key, 64))
    rng = np.random.default_rng(7)
    rows = []
    for key in keys:
        days = rng.choice(40, 30, replace=False)
        for d in days:
            for v in rng.integers(0, 6, rng.integers(1, 4)) / 2.0:
                rows.append((key, BASE + int(d) * day
                             + int(rng.integers(0, day)), v))
    df = pd.DataFrame(rows, columns=["series_key", "ts_ns", "value_num"])
    df = df.sample(frac=1.0, random_state=3, ignore_index=True)
    table = pa.table({
        "series_key": pa.array(df["series_key"], pa.string()),
        "ts": pa.array(df["ts_ns"], pa.int64()).cast(pa.timestamp("ns")),
        "value_num": pa.array(df["value_num"], pa.float64()),
    })
    got = kendall_tau_pair(_dataset(table), x_series=x_key,
                           y_series=y_key, window_ns=day).to_pandas()

    means = df.assign(w=df["ts_ns"] // day).groupby(
        ["series_key", "w"])["value_num"].agg(["sum", "size"])
    means = pd.Series(round_half_away(round_half_away(means["sum"], 6)
                                      / means["size"], 6), means.index)
    both = pd.concat([means[x_key].rename("x"), means[y_key].rename("y")],
                     axis=1, join="inner").sort_index()
    x, y = both["x"].to_numpy(), both["y"].to_numpy()
    assert len(x) >= 5 and len(np.unique(x)) < len(x)  # ties exist
    cd, tau = _brute_tau_b(x, y)
    assert got.to_dict("records") == [{
        "x_series": x_key, "y_series": y_key, "n_windows": len(x),
        "cd": cd, "tau_b": round_half_away(tau, 6)}]

    # neither series exists: no shard runs, the output is still typed
    none = kendall_tau_pair(_dataset(table), x_series="nope",
                            y_series="nada", window_ns=day)
    assert none.count() == 0
    assert none.schema().names == ["x_series", "y_series", "n_windows",
                                   "cd", "tau_b"]


def _blocks(ds) -> list:
    import ray

    return [ray.get(block) for bundle in ds.iter_internal_ref_bundles()
            for block, _ in bundle.blocks]


def _assert_clean(schema: pa.Schema) -> None:
    assert schema.metadata is None
    hash(schema)


def _declared(ints=(), floats=()) -> pa.Schema:
    return pa.schema([("series_key", pa.string())]
                     + [(c, pa.int64()) for c in ints]
                     + [(c, pa.float64()) for c in floats])


@pytest.mark.parametrize("make, schema, empty", [
    (lambda ds: simple_window_rollup(ds, window_ns=60_000_000_000),
     _declared(["window_ns", "n"], ["min", "max", "sum", "mean"]), False),
    (lambda ds: window_stddev(ds, window_ns=H_NS),
     _declared(["window_ns", "n"], ["mean", "stddev"]), False),
    # two weekdays of samples: no series has a weekend group
    (welch_weekend_effect,
     _declared(["n_weekday", "n_weekend"],
               ["mean_weekday", "mean_weekend", "t_stat"]), True),
    (lambda ds: holt_smooth(ds, window_ns=H_NS),
     _declared(["window_ns"], ["y", "level", "trend", "forecast_next"]),
     False),
    # every series has fewer than 5 hourly windows: every shard's fit
    # emits zero rows
    (lambda ds: ar2_yule_walker(ds, window_ns=H_NS),
     _declared(["n_windows"], ["r1", "r2", "phi1", "phi2"]), True),
], ids=["simple_window_rollup", "window_stddev", "welch", "holt",
        "ar2_all_below_min_windows"])
def test_helper_blocks_have_the_declared_schema(ray_session, monkeypatch,
                                                make, schema, empty):
    """Every partial block the helpers exchange has one schema, and every
    output block exactly the declared one, empty blocks too; neither
    carries pandas metadata, so Ray can hash them."""
    import ray

    samples = _dataset(_numeric(_samples(n_series=300, per_series=3,
                                         seed=5))).materialize()
    partials = []
    real = _util.shard_apply

    def _capture(ds, fn, **kwargs):
        if isinstance(ds, list):
            # a materialized input's map inputs: ``(_apply_each, partial,
            # *blocks)``, the partial applied to each of its blocks
            partials.extend(partial(b) for _, partial, *refs in ds
                            for b in ray.get(refs))
        else:
            ds = ds.materialize()
            partials.extend(_blocks(ds))
        return real(ds, fn, **kwargs)

    monkeypatch.setattr(_util, "shard_apply", _capture)
    out = make(samples)
    assert len({b.schema for b in partials}) == 1
    _assert_clean(partials[0].schema)

    blocks = _blocks(out)
    assert len(blocks) > 1
    assert (sum(b.num_rows for b in blocks) == 0) == empty
    assert all(b.schema == schema for b in blocks)
    _assert_clean(blocks[0].schema)
