"""Spark engines vs local engines and vs the paper's theorems.

The distributed TeraHAC, SCC and graph-DBSCAN must implement exactly the
same algorithms as their in-process twins — the Table 2 quality grid
runs on the local engines and the timing tables on the Spark engines,
so this equivalence is what makes the two sets of results one system.
"""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.baselines.dbscan import graph_dbscan_local, graph_dbscan_spark
from repro.baselines.hac_exact import exact_hac_graph
from repro.baselines.scc import scc_local, scc_spark
from repro.core.dendrogram import empirical_approx_ratio
from repro.core.terahac import terahac
from repro.core.terahac_local import terahac_local
from repro.eval.metrics import ari
from repro.synth_data import edges_to_spark, random_weighted_graph, web_query_lite
from tests.util import validate_good_merges

N = 120


@pytest.fixture(scope="module")
def workload(spark):
    edges = random_weighted_graph(n=N, avg_deg=5, seed=5)
    return edges, edges_to_spark(spark, edges).cache()


def test_terahac_spark_eps0_matches_exact(spark, workload):
    edges, df = workload
    res = terahac(spark, df, N, eps=0.0, t=0.0, shuffle_partitions=4)
    ex = exact_hac_graph(edges, N)
    assert res.dendrogram.internal_cluster_sets() == ex.internal_cluster_sets()
    assert res.forced_merges == 0


def test_terahac_spark_approx_ratio(spark, workload):
    edges, df = workload
    res = terahac(spark, df, N, eps=0.1, t=0.0, shuffle_partitions=4)
    assert empirical_approx_ratio(res.dendrogram, edges) <= 1.1 * (1 + 1e-9)
    validate_good_merges(edges, res.dendrogram, 0.1)


def test_terahac_spark_threshold_and_stats(spark, workload):
    edges, df = workload
    res = terahac(
        spark, df, N, eps=0.1, t=0.3, shuffle_partitions=4, collect_stats=True
    )
    # stats populated and consistent
    assert len(res.stats) == res.rounds
    assert all(st.n_good is not None and st.n_vertices > 0 for st in res.stats)
    # the counts observed on the barrier writes equal the local engine's
    lo = terahac_local(edges, N, eps=0.1, t=0.3, collect_stats=True)
    assert res.stats == lo.stats
    assert sum(st.n_merges for st in res.stats) == len(res.dendrogram.merges)
    # Lemma 8 on the Spark output
    for mn in res.dendrogram.flat_cluster_min_merge(0.3):
        assert mn >= 0.3 / 1.1 * (1 - 1e-9)


def test_terahac_spark_equals_local_flatten(spark, workload):
    """Same algorithm, same deterministic partitioning rule: the flat
    clusterings at the run threshold agree exactly (ARI 1)."""
    edges, df = workload
    t = 0.2
    sp = terahac(spark, df, N, eps=0.1, t=t, shuffle_partitions=4)
    lo = terahac_local(edges, N, eps=0.1, t=t)
    assert ari(sp.dendrogram.flatten(t), lo.dendrogram.flatten(t)) == pytest.approx(1.0)
    # per-round heavy-edge counts, observed on the edge-barrier writes
    assert [st.n_heavy for st in sp.stats] == [st.n_heavy for st in lo.stats]
    assert [st.n_edges for st in sp.stats] == [st.n_edges for st in lo.stats]


def test_terahac_spark_size_constrained(spark, workload):
    """Tiny subgraph caps exercise the splitting and the stall fallback
    without breaking the approximation guarantee (Lemma 7), and both
    engines split alike, so they still agree merge for merge."""
    edges, df = workload
    res = terahac(
        spark, df, N, eps=0.1, t=0.0, shuffle_partitions=4, max_subgraph_edges=40
    )
    assert empirical_approx_ratio(res.dendrogram, edges) <= 1.1 * (1 + 1e-9)
    lo = terahac_local(edges, N, eps=0.1, t=0.0, max_subgraph_edges=40)
    assert res.dendrogram.internal_cluster_sets() == lo.dendrogram.internal_cluster_sets()
    assert (res.rounds, res.forced_merges) == (lo.rounds, lo.forced_merges)
    assert res.forced_merges > 0


def test_terahac_spark_stall_fallback_is_checked(spark):
    """A subgraph cap of one edge row hash-splits every cluster into as
    many parts as it ships rows, so SubgraphHAC calls see (almost) no
    active-active edge, rounds stall, and the fallback must merge the
    global top edge through SubgraphHAC."""
    edges = [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (3, 4, 0.6), (4, 5, 0.5), (0, 5, 0.4)]
    df = edges_to_spark(spark, edges)
    res = terahac(spark, df, 6, eps=0.1, t=0.0, max_subgraph_edges=1, shuffle_partitions=2)
    assert res.forced_merges >= 1
    assert len(res.dendrogram.merges) == 5
    validate_good_merges(edges, res.dendrogram, 0.1)


def test_terahac_spark_leaves_no_checkpoint_files(spark, workload, tmp_path, monkeypatch):
    _, df = workload
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    terahac(spark, df, N, eps=0.1, t=0.2, shuffle_partitions=4)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_graph_dbscan_spark_leaves_no_checkpoint_files(spark, tmp_path, monkeypatch):
    """A path's core component needs enough connected-components iterations
    to write a parquet barrier; it must be gone once the labels are back."""
    n = 64
    edges = [(i, i + 1, 0.9) for i in range(n - 1)]
    df = edges_to_spark(spark, edges)
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    labels = graph_dbscan_spark(spark, df, n, eps=0.5, min_pts=2)
    assert len(set(labels.tolist())) == 1
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_scc_spark_equals_local(spark, workload):
    edges, df = workload
    rl = scc_local(edges, N, rounds=5, t=0.05)
    rs = scc_spark(spark, df, N, rounds=5, t=0.05, shuffle_partitions=4)
    assert len(rs.levels) == 5
    for a, b in zip(rl.levels, rs.levels):
        assert ari(a, b) == pytest.approx(1.0)


def test_scc_spark_stats(spark, workload):
    _, df = workload
    rs = scc_spark(
        spark, df, N, rounds=3, t=0.05, shuffle_partitions=4, collect_stats=True
    )
    assert len(rs.nodes_per_round) == 3
    assert rs.nodes_per_round == sorted(rs.nodes_per_round, reverse=True)


@pytest.mark.parametrize("eps,min_pts", [(0.5, 3), (0.8, 2)])
def test_graph_dbscan_spark_equals_local(spark, workload, eps, min_pts):
    edges, df = workload
    la = graph_dbscan_local(edges, N, eps=eps, min_pts=min_pts)
    lb = graph_dbscan_spark(spark, df, N, eps=eps, min_pts=min_pts)
    assert ari(la, lb) == pytest.approx(1.0)


def test_terahac_spark_webquery_quality(spark):
    """End-to-end §6.3 shape at toy scale: TeraHAC recovers the planted
    clusters from the web-query-lite graph."""
    n = 800
    edges, truth, pairs = web_query_lite(n=n, seed=9, n_label_pairs=400)
    df = edges_to_spark(spark, edges)
    res = terahac(spark, df, n, eps=0.1, t=0.05, shuffle_partitions=4)
    best = max(ari(truth, res.dendrogram.flatten(ft)) for ft in (0.5, 0.4, 0.3))
    assert best > 0.8
