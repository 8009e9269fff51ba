"""Driver-gate parity inside the pytest contract.

The driver compares every ``__ray_entry__.queries()`` entry against its
``oracle_sql()`` twin (row count, column names, order-insensitive values)
at sf0.01.  ``scripts/check_oracle.py`` is the full local stand-in; this
test wires a REPRESENTATIVE subset — one query per operator family,
including every family added late (multimodal, splits, downsampling) —
into ``python -m pytest -x -q`` at sf0.001 so a broken oracle contract
fails the test suite, not just the next driver round.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import duckdb
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF_DIR = "/root/testdata/sf0.001"

# One per family: extraction, rollup ladder, gap-fill, native aggregates,
# as-of join, sessionize, dedup, text stats, similarity, split, multimodal.
SUBSET = [
    "events_extract_samples",
    "events_rollup_1h",
    "events_rollup_1m_locf",
    "events_type_stats",
    "events_asof_orders",
    "events_sessionize",
    "exact_dedup",
    "doc_token_stats",
    "embedding_near_dups",
    "doc_train_val_split",
    "media_decode_meta",
    "media_frame_sample",
    "events_gorilla_readback",
    "events_rollup_1m_salted",
    "events_heavy_users",
    "events_rollup_1h_incremental",
    "events_pivot_1m_means",
    "near_dup_clusters",
    "corpus_curation",
    "events_session_assign_bucketed",
    "events_ohlc_1m",
    "events_zscore_anomalies",
    "events_twa_1d",
    "doc_stratified_sample",
    "doc_common_token_ratio",
    "doc_decontaminate",
    "doc_repetition_stats",
    "doc_tfidf_keywords",
    "events_value_histogram",
    "events_ewma",
    "events_window_corr",
    "doc_pack_offsets",
    "doc_chunk_manifest",
    "doc_inverted_index",
    "events_hourly_profile",
    "doc_char_entropy",
    "events_last_value",
    "events_deadband",
    "events_top_series_1h",
    "doc_unigram_logprob",
    "passage_dedup",
    "events_acf_1m",
    "events_interarrival",
    # relational family (semi/anti join, grouping sets, funnel, set ops,
    # profile, join trees, bloom-pruned join, global terciles / classes)
    "customers_without_orders",
    "events_grouping_sets",
    "events_funnel_click_purchase",
    "parts_except_months",
    "parts_intersect_months",
    "lineitem_profile",
    "revenue_by_nation",
    "lineitem_orders_bloom_join",
    "customer_rfm_segments",
    "parts_abc_classes",
    # bands family (Bollinger envelope, lead-lag cross-correlation)
    "events_bollinger_1m",
    "events_leadlag_corr",
    # vector aggregation + tolerance-bounded as-of
    "embedding_label_centroids",
    "events_asof_orders_tol",
    # novelty family (n-gram novelty, keep-best dedup)
    "doc_ngram_novelty",
    "doc_keep_best_dedup",
    # mining + monitoring (hard negatives, Q1, staleness, dwell)
    "embedding_hard_negatives",
    "lineitem_pricing_summary",
    "events_staleness",
    "events_dwell_times",
    # symbolic family (SAX, count bursts) + source report
    "events_sax_1h",
    "events_count_bursts_1h",
    "doc_source_report",
    # containment dedup + data-card aggregates + customer LTV
    "containment_block_pairs",
    "doc_dup_cluster_sizes",
    "doc_lang_confusion",
    "customer_ltv",
    # coverage monitoring + seasonality removal
    "events_gap_report",
    "events_seasonal_residuals",
    # chunk-store maintenance (compaction readback)
    "events_gorilla_compacted_readback",
    # alarm counting + provenance dup attribution
    "events_threshold_crossings",
    "doc_dup_rate_by_source",
    # cohort retention triangle
    "events_retention_cohorts",
    # dimension-tree rollup (supplier -> nation -> region)
    "supplier_region_stats",
    # multimodal resize plumbing
    "media_resize_meta",
    # exact windowed percentiles (window-sharded)
    "events_window_percentiles_1h",
    # Q3-shape top-n join + calendar-month rollup
    "orders_shipping_priority",
    "nation_monthly_orders",
    # calendar-aligned (Monday) weekly tier via window offsets
    "events_rollup_1w",
    # CUSUM changepoint alarms + interval-union coverage
    "events_cusum_1h",
    "events_interval_coverage",
    # kNN label vote + TPC-H Q5 local supplier volume
    "knn_label_vote",
    "local_supplier_volume",
    # rolling median, trigram sequence mining, substring decontam
    "events_moving_median_1m",
    "events_type_trigrams",
    "doc_substring_decontam",
    # per-(series, day) percent rank
    "events_percent_rank_1d",
    # behavioural diversity (per-user event-type entropy)
    "events_user_type_entropy",
    # spend inequality (per-nation Gini over customer spend)
    "customer_spend_gini",
    # TPC-H Q18 large-volume orders (HAVING semi join + top-n)
    "large_volume_orders",
    # event-type co-occurrence PMI (market-basket association)
    "events_type_pmi",
    # bigram LM scoring (aggregate-join shape) + int8 quantization error
    "doc_bigram_logprob",
    "embedding_quant_error",
    # distributed connected components (no driver-side edge collect)
    "near_dup_clusters_distributed",
    # ratio-to-report window + deterministic per-group mode
    "nation_monthly_share",
    "events_user_mode_type",
    # TPC-H Q10 returned-item revenue + BM25 retrieval
    "returned_item_revenue",
    "doc_bm25_topk",
    # global exact Jaccard join via prefix filtering (no quadratic block)
    "jaccard_prefix_join",
    # 2-D Pareto frontier (skyline) with exact tie semantics
    "customer_pareto_frontier",
    # Holt double exponential smoothing (bit-exact recursion parity)
    "events_holt_1h",
    # min-max decimation (bounded per-block extreme candidates)
    "events_minmax_1h",
    # nearest-direction as-of join (both time branches carry traffic)
    "events_click_nearest_purchase",
    # TPC-H Q7 volume shipping (dual-nation join tree)
    "volume_shipping",
    # chi-square independence cells (type x day-of-week)
    "events_type_dow_chi2",
    # Welch's t (weekend vs weekday values per series)
    "events_weekend_welch_t",
    # multi-window SLO burn-rate alerts (day-sharded dual window)
    "events_slo_burn_alerts",
    # schema drift report (weekly kind mix + first-seen flags)
    "events_schema_drift",
    # Kalman local-level filter (data-independent gain sequence parity)
    "events_kalman_1h",
    # RRF hybrid retrieval (rank-only fusion of BM25 + cosine lists)
    "hybrid_rrf_topk",
    # PageRank over the nation trade graph (per-iteration round parity)
    "nation_trade_pagerank",
    # TPC-H Q6/Q14/Q4/Q16/Q19 shapes (combiner aggregates, correlated
    # EXISTS via groupby-max + shuffle join, double distinct rollup,
    # disjunctive broadcast predicate)
    "forecast_revenue_change",
    "promo_revenue_effect",
    "order_priority_checking",
    "part_supplier_counts",
    "brand_quantity_revenue",
    # Theil-Sen robust trend (median of pairwise slopes over window means)
    "events_theil_sen_1h",
    # DTW distance (recursive-CTE double-diagonal DP oracle)
    "events_dtw_1d",
    # MASE seasonal-naive forecast error (wall-time lag matching)
    "events_mase_daily",
    # Matryoshka dimension-truncation recall report
    "embedding_trunc_recall",
    # TPC-H Q13/Q15/Q17 shapes (LEFT-join histogram with arithmetic zero
    # bucket, rounded-max tie handling, correlated avg via broadcast)
    "customer_order_distribution",
    "top_supplier_revenue",
    "small_quantity_revenue",
    # Z-order layout pruning index (range-normalized Morton cells)
    "events_zorder_stats",
    # FULL OUTER shuffle join (both unmatched directions, nullable ints)
    "users_customers_outer",
    # referential-integrity report (distinct combiner + anti shuffle join)
    "referential_integrity",
    # DAU/MAU stickiness (exact trailing-window distinct members)
    "events_dau_stickiness",
    # funnel time-to-convert latency (member-sharded, user-bounded collect)
    "events_funnel_latency",
    # the last five TPC-H shapes (correlated min, global-scalar HAVING,
    # CASE-sum priority split, nested dominant-share IN chain,
    # EXISTS/NOT-EXISTS sole-late-supplier self-join)
    "min_cost_supplier",
    "important_part_values",
    "late_shipment_priority",
    "excess_supply_suppliers",
    "suppliers_kept_waiting",
    # every diffstats operator on the shared exchange helpers
    # (sharded_aggregate / window_means) not gated above
    "events_window_stddev_1h",
    "events_daily_trend",
    "events_gorilla_rollup_roundtrip",
    "events_rollup_1m_diff",
    "events_holt_winters_1h",
    "events_ar2_yule_walker",
    "events_pacf_1h",
    "events_variance_ratio",
    "events_hurst_rs",
    "events_ljung_box_1h",
    "events_jarque_bera_1h",
    "events_mann_kendall_1d",
    "events_grubbs_1h",
    "events_seasonal_strength_hod",
    "events_kendall_tau_pair",
    "events_pettitt_1d",
    "events_arch_lm_1h",
    "events_bowley_skew_1h",
    # the other window_means callers: KS weekend test, and the matrix
    # profile over dtw.window_mean_vectors
    "events_ks_weekend",
    "events_matrix_profile_1d",
    "events_top_motif_1d",
    # every analytics operator runs on the shared exchange; these five
    # were not gated above
    "events_hist_quantile",
    "user_activity_balance_corr",
    "parts_rank_stability",
    "orders_lognormal_fit",
    "brand_discount_quantity_corr",
    # the TPC-H family on the shared exchange: full-shape Q16, Q8, Q9,
    # Q22 and the trade-graph triangles, not gated above
    "part_supplier_counts_excl",
    "national_market_share",
    "product_type_profit",
    "sales_opportunity",
    "nation_trade_triangles",
]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_oracle", os.path.join(REPO, "scripts", "check_oracle.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def oracle_env(ray_session):
    sys.path.insert(0, REPO)
    import __ray_entry__ as entry

    checker = _load_checker()
    con = duckdb.connect()
    for t in checker.TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    yield entry, checker, con
    con.close()


def test_checker_errors_on_unknown_query_names():
    """A misspelled query name in a sweep invocation must exit non-zero
    with a named error, not print "all queries match" (verdict r3 item 3).
    The check runs before ray.init, so the subprocess fails instantly."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "check_oracle.py"),
         SF_DIR, "events_rollup_1m_typo", "definitely_not_a_query"],
        capture_output=True, text=True, timeout=120, cwd=REPO,
    )
    assert proc.returncode == 2, (proc.returncode, proc.stdout, proc.stderr)
    assert "unknown query name" in proc.stdout
    assert "events_rollup_1m_typo" in proc.stdout
    assert "definitely_not_a_query" in proc.stdout
    assert "all queries match" not in proc.stdout


@pytest.mark.parametrize("name", SUBSET)
def test_query_matches_oracle(oracle_env, name):
    entry, checker, con = oracle_env
    queries, oracles = entry.queries(), entry.oracle_sql()
    assert name in queries, f"{name} missing from queries()"
    assert name in oracles, f"{name} missing from oracle_sql()"
    ours = checker.to_pandas(queries[name](SF_DIR))
    oracle = con.execute(oracles[name]).fetchdf()
    assert checker.compare(name, ours, oracle), f"{name} diverged from oracle"
