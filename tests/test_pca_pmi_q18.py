"""PCA (covariance accumulation), type-pair PMI, and TPC-H Q18."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

from json_time_series_extractor_ray.pipelines.analytics import (
    type_cooccurrence_pmi,
)
from json_time_series_extractor_ray.pipelines.similarity import (
    pca_top_component,
)

SF = "/root/testdata/sf0.001"


class TestPcaTopComponent:
    def _cloud(self, seed=7, n=300, d=16):
        rng = np.random.default_rng(seed)
        # anisotropic cloud with a clear top direction
        base = rng.normal(size=(n, d))
        base[:, 0] *= 6.0
        base[:, 1] *= 2.5
        base += rng.normal(size=d) * 3.0  # nonzero mean must be removed
        return base

    def _ds(self, E):
        return ray.data.from_arrow(pa.table({
            "embedding": pa.array([list(map(float, r)) for r in E],
                                  pa.list_(pa.float64())),
        }))

    def test_matches_dense_eigh(self, ray_session):
        E = self._cloud()
        out = pca_top_component(self._ds(E), n_components=2).to_pandas()
        C = np.cov(E, rowvar=False)
        w, V = np.linalg.eigh(C)
        for c, ref_idx in ((0, -1), (1, -2)):
            v = out[out.component == c].sort_values("dim")[
                "loading"].to_numpy()
            ref = V[:, ref_idx]
            assert abs(v @ ref) > 0.999999
            assert out[out.component == c]["eigval"].iloc[0] == (
                pytest.approx(w[ref_idx], abs=1e-5))

    def test_sign_convention_and_determinism(self, ray_session):
        E = self._cloud(seed=11)
        a = pca_top_component(self._ds(E)).to_pandas()
        b = pca_top_component(self._ds(E)).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        v = a["loading"].to_numpy()
        assert v[np.argmax(np.abs(v))] > 0

    def test_block_invariance(self, ray_session):
        # partial merge must not depend on how rows split into blocks
        E = self._cloud(seed=3, n=200)
        one = pca_top_component(self._ds(E)).to_pandas()
        many = pca_top_component(
            self._ds(E).repartition(7)).to_pandas()
        np.testing.assert_allclose(one["loading"], many["loading"],
                                   atol=1e-6)


class TestTypePmi:
    def test_small_fixture_exact(self, ray_session):
        # 3 baskets: {a,b}, {a,b,c}, {a}
        h = 3_600_000_000_000
        rows = [
            (1, 0, "a"), (1, 0, "b"), (1, 1, "a"),  # user 1: 2 baskets
            (1, 1, "b"), (1, 1, "c"), (2, 0, "a"),
            (1, 0, "a"),  # duplicate triple -> must dedup
        ]
        ds = ray.data.from_arrow(pa.table({
            "ts": pa.array([u_h[1] * h + 5 for u_h in rows],
                           pa.timestamp("ns")),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
        }))
        out = type_cooccurrence_pmi(ds).to_pandas().set_index(
            ["type_a", "type_b"])
        # counts: nb=3, a=3, b=2, c=1; pairs ab=2, ac=1, bc=1
        assert out.loc[("a", "b"), "n_pair"] == 2
        assert out.loc[("a", "c"), "n_pair"] == 1
        assert out.loc[("b", "c"), "n_pair"] == 1
        assert out.loc[("a", "b"), "pmi"] == pytest.approx(
            np.log(2 * 3 / (3 * 2)), abs=1e-6)
        assert out.loc[("b", "c"), "pmi"] == pytest.approx(
            np.log(1 * 3 / (2 * 1)), abs=1e-6)

    def test_shard_invariance(self, ray_session):
        """The table does not depend on how the events are cut: read as
        one block and as eight, both equal the DuckDB oracle."""
        import duckdb
        import pyarrow.parquet as pq

        from json_time_series_extractor_ray.pipelines.registry import (
            extra_oracle_sql,
        )

        ev = pq.read_table(f"{SF}/events.parquet",
                           columns=["ts", "user_id", "event_type"])
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM "
                    f"'{SF}/events.parquet'")
        want = con.execute(extra_oracle_sql()["events_type_pmi"]).fetchdf() \
            .sort_values(["type_a", "type_b"], ignore_index=True)
        con.close()
        assert len(want) > 0
        step = -(-ev.num_rows // 8)
        for blocks in ([ev], [ev.slice(i, step)
                              for i in range(0, ev.num_rows, step)]):
            got = type_cooccurrence_pmi(ray.data.from_arrow(blocks)) \
                .to_pandas().sort_values(["type_a", "type_b"],
                                         ignore_index=True)
            pd.testing.assert_frame_equal(got, want, check_exact=True)


class TestLargeVolumeOrders:
    def test_threshold_and_order(self, ray_session):
        from json_time_series_extractor_ray.pipelines.relational import (
            large_volume_orders,
        )

        out = large_volume_orders(SF).to_pandas()
        assert len(out) > 0
        assert (out["total_qty"] > 250).all()
        # descending by totalprice, orderkey tiebreak ascending
        tp = out["o_totalprice"].to_numpy()
        assert (np.diff(tp) <= 0).all()
        # exact vs a local pandas recompute
        li = pd.read_parquet(f"{SF}/lineitem.parquet",
                             columns=["l_orderkey", "l_quantity"])
        q = li.groupby("l_orderkey")["l_quantity"].sum()
        want = set(q[q > 250].index)
        assert set(out["o_orderkey"]) <= want
        assert len(out) == min(100, len(want))


class TestBigramLogprob:
    def test_small_fixture_exact(self, ray_session):
        from json_time_series_extractor_ray.pipelines.textstats import (
            bigram_logprob,
        )

        # corpus: "a b a b" (doc 0), "a b c" (doc 1), "x" (doc 2: no
        # bigrams -> absent).  c12: ab=3, ba=1, bc=1; prefix: a=3, b=2.
        docs = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a b a b", "a b c", "x"], pa.string()),
        })
        out = bigram_logprob(
            lambda: ray.data.from_arrow(docs)
        ).to_pandas().set_index("doc_id")
        assert 2 not in out.index
        # doc 0: ab,ba,ab -> 2*ln(3/3) + ln(1/2)
        assert out.loc[0, "n_bigrams"] == 3
        assert out.loc[0, "logprob"] == pytest.approx(
            np.log(1 / 2), abs=1e-6)
        # doc 1: ab, bc -> ln(3/3) + ln(1/2)
        assert out.loc[1, "n_bigrams"] == 2
        assert out.loc[1, "logprob"] == pytest.approx(
            np.log(1 / 2), abs=1e-6)


class TestQuantizationError:
    def test_error_bounded_by_half_step(self, ray_session):
        from json_time_series_extractor_ray.pipelines.similarity import (
            quantization_error_report,
        )

        rng = np.random.default_rng(5)
        E = rng.normal(size=(200, 8)).astype(np.float64)
        ds_fn = lambda: ray.data.from_arrow(pa.table({  # noqa: E731
            "vec_id": pa.array(np.arange(200), pa.int64()),
            "embedding": pa.array([list(r) for r in E],
                                  pa.list_(pa.float64())),
        }))
        out = quantization_error_report(ds_fn).to_pandas()
        assert len(out) == 200
        half_step = ((E.max(0) - E.min(0)) / 255.0).max() / 2
        assert (out["max_abs_err"] <= half_step + 1e-9).all()
        assert (out["mse"] >= 0).all()
