"""TeraHAC distributed engine (Algorithm 1 / Fig. 5) on Spark DataFrames.

The paper's Flume-C++ KVTable pipeline maps 1:1 onto Catalyst:

* ``AffinityClustering``   -> :func:`repro.graphs.affinity.size_constrained_affinity`
* ``KeyByClusterId`` + ``GroupByKey`` + per-machine ``SubgraphHac``
                           -> joins + ``groupBy(cluster).applyInPandas``
                              around :func:`repro.core.subgraph_hac.subgraph_hac`
* ``Contract``             -> two mapping joins + group-by SUM of raw weights
                              (:func:`repro.graphs.edges.contract_sized`)
* ``Prune`` / ``RemoveIsolatedVertices``
                           -> :func:`repro.graphs.edges.prune_sized`

There is no vertex table. The graph is one self-describing edge table
``(u, v, raw, su, sv, mu, mv)``: each row carries both endpoints' size and
M, so the weight ``raw / (su * sv)`` is a column expression, and the
contraction's two mapping joins carry the merged clusters' size and M
along. Every vertex that survives pruning keeps an edge, so the edge table
alone describes the graph.

Each inter-cluster edge is shipped to both of its clusters (so every
active vertex sees its full neighbourhood, as required for w_max), each
intra-cluster edge to exactly one. Dendrogram nodes are collected on the
driver each round; the graph itself never leaves the cluster. A round has
two parquet barriers (see :mod:`repro.graphs.io` for why
``localCheckpoint`` is not enough): the SubgraphHAC output and the next
round's edge table. The edge barrier's write also counts the next round's
edges and heavy edges (``DataFrame.observe``), so that test costs no job.
All barriers of a call live in one directory, deleted when the call ends.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.dendrogram import Dendrogram
from repro.core.stats import RoundStats, TeraHACResult
from repro.core.subgraph_hac import Merge, subgraph_hac
from repro.graphs.affinity import size_constrained_affinity
from repro.graphs.edges import (
    SIZED,
    canonicalize,
    contract_sized,
    good_edge_count,
    prune_sized,
    sized_weight,
    symmetrize,
)
from repro.graphs.io import checkpoint_scope, materialize

_RESULT_SCHEMA = (
    "tag int, id1 long, id2 long, id3 long, val1 double"
)
_MAPPING_SCHEMA = "old_id long, new_id long, size long, m double"


def _make_subgraph_fn(eps: float, n_base: int):
    """Build the per-partition pandas UDF: one SubgraphHAC call per group."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        cluster = int(pdf["cluster"].iloc[0])
        rows = [
            (
                int(r.u),
                int(r.v),
                float(r.raw),
                int(r.su),
                int(r.sv),
                float(r.mu),
                float(r.mv),
                int(r.cu) == cluster,
                int(r.cv) == cluster,
            )
            for r in pdf.itertuples()
        ]
        res = subgraph_hac(rows, eps, n_base)
        out = [
            (0, old, new, s, mm) for old, (new, s, mm) in res.mapping.items()
        ] + [
            (1, mg.parent, mg.left, mg.right, mg.similarity) for mg in res.merges
        ]
        return pd.DataFrame(out, columns=["tag", "id1", "id2", "id3", "val1"])

    return fn


def _edge_barrier(edges: DataFrame, t: float) -> tuple[DataFrame, dict]:
    """Materialize a round's edge table. Returns it with its edge and
    heavy-edge (``w >= t``) counts, observed on the write itself."""
    obs = Observation()
    e = materialize(
        edges.observe(
            obs,
            F.count(F.lit(1)).alias("edges"),
            F.count(F.when(sized_weight() >= t, 1)).alias("heavy"),
        ),
        "edges",
    )
    return e, obs.get


def _forced_merge(spark: SparkSession, ew: DataFrame, eps: float, n_base: int):
    """Stall fallback: merge the globally heaviest edge, which is always
    (1+eps)-good (Lemma 2) but may have been separated by a size split.
    It goes through SubgraphHAC with both endpoints' incident edges, the
    rows :func:`repro.core.terahac_local.terahac_local` builds, so the merge
    is checked like any other. Returns the merges and the vertex mapping."""
    top = ew.orderBy(F.desc("w"), F.desc("v")).first()
    a, b = top.u, top.v
    ends = [a, b]
    rows = []
    for r in ew.filter(F.col("u").isin(ends) | F.col("v").isin(ends)).collect():
        if (r.u, r.v) == (a, b):
            rows.append((a, b, r.raw, r.su, r.sv, r.mu, r.mv, True, True))
        elif r.u in ends:
            rows.append((r.u, r.v, r.raw, r.su, r.sv, r.mu, r.mv, True, False))
        else:
            rows.append((r.v, r.u, r.raw, r.sv, r.su, r.mv, r.mu, True, False))
    res = subgraph_hac(rows, eps, n_base)
    if not res.merges:
        raise RuntimeError("global max edge is not good — invariant broken")
    mapping = spark.createDataFrame(
        [(old, new, s, mm) for old, (new, s, mm) in res.mapping.items()],
        _MAPPING_SCHEMA,
    )
    return res.merges, mapping


def terahac(
    spark: SparkSession,
    edges: DataFrame,
    n_base: int,
    eps: float = 0.1,
    t: float = 0.01,
    max_subgraph_edges: int = 200_000,
    max_rounds: int = 100,
    collect_stats: bool = False,
    shuffle_partitions: int | None = 8,
) -> TeraHACResult:
    """Run distributed TeraHAC.

    ``edges``: DataFrame ``(u, v, w)`` — undirected weighted graph over
    original vertex ids ``0..n_base-1``, positive weights. Returns the
    same :class:`TeraHACResult` as the local engine; dendrogram node ids
    use the shared ``(rep, size)`` encoding. Per-round edge and heavy-edge
    counts are always recorded, at no job cost; ``collect_stats`` adds the
    vertex and good-edge counts, which cost extra jobs every round.

    ``shuffle_partitions`` temporarily overrides
    ``spark.sql.shuffle.partitions`` for the run — iterative graph
    rounds on a single box are scheduler-latency-bound, so small graphs
    want few partitions (None leaves the session setting untouched).
    """
    prev_sp = spark.conf.get("spark.sql.shuffle.partitions")
    if shuffle_partitions is not None:
        spark.conf.set("spark.sql.shuffle.partitions", str(shuffle_partitions))
    try:
        with checkpoint_scope(spark):
            return _terahac_impl(
                spark, edges, n_base, eps, t, max_subgraph_edges, max_rounds,
                collect_stats,
            )
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", prev_sp)


def _terahac_impl(
    spark: SparkSession,
    edges: DataFrame,
    n_base: int,
    eps: float,
    t: float,
    max_subgraph_edges: int,
    max_rounds: int,
    collect_stats: bool,
) -> TeraHACResult:
    enc = n_base + 1
    singletons = canonicalize(
        edges.select(
            (F.col("u").cast("long") * enc).alias("u"),
            (F.col("v").cast("long") * enc).alias("v"),
            F.col("w").cast("double").alias("raw"),
        )
    ).select(
        "u", "v", "raw",
        F.lit(1).cast("long").alias("su"),
        F.lit(1).cast("long").alias("sv"),
        F.lit(float("inf")).alias("mu"),
        F.lit(float("inf")).alias("mv"),
    )
    e, counts = _edge_barrier(singletons, t)

    fn = _make_subgraph_fn(eps, n_base)
    merges: list[Merge] = []
    stats: list[RoundStats] = []
    forced = 0
    prune_at = t / (1.0 + eps)

    rounds = 0
    for rounds in range(1, max_rounds + 1):
        if counts["heavy"] == 0:
            rounds -= 1
            break
        ew = e.withColumn("w", sized_weight())
        n_good = None
        n_vertices = -1
        if collect_stats:
            n_good = good_edge_count(ew, eps)
            n_vertices = symmetrize(e).select("src").distinct().count()

        clusters = size_constrained_affinity(
            ew.select("u", "v", "w"), None, max_subgraph_edges
        )
        cu = clusters.select(F.col("id").alias("u"), F.col("cluster").alias("cu"))
        cv = clusters.select(F.col("id").alias("v"), F.col("cluster").alias("cv"))
        sub = (
            ew.join(cu, "u")
            .join(cv, "v")
            .withColumn("cluster", F.explode(F.array_distinct(F.array("cu", "cv"))))
            .select("cluster", *SIZED, "cu", "cv")
        )
        result = materialize(
            sub.groupBy("cluster").applyInPandas(fn, _RESULT_SCHEMA),
            "subgraphhac",
        )
        round_merges = [
            Merge(parent=r.id1, left=r.id2, right=r.id3, similarity=r.val1)
            for r in result.filter(F.col("tag") == 1).collect()
        ]
        mapping = result.filter(F.col("tag") == 0).select(
            F.col("id1").alias("old_id"),
            F.col("id2").alias("new_id"),
            F.col("id3").alias("size"),
            F.col("val1").alias("m"),
        )
        if not round_merges:
            round_merges, mapping = _forced_merge(spark, ew, eps, n_base)
            forced += 1

        merges.extend(round_merges)
        stats.append(
            RoundStats(
                round=rounds,
                n_vertices=n_vertices,
                n_edges=counts["edges"],
                n_heavy=counts["heavy"],
                n_merges=len(round_merges),
                n_good=n_good,
            )
        )
        e, counts = _edge_barrier(prune_sized(contract_sized(e, mapping), prune_at), t)
    else:
        raise RuntimeError(f"TeraHAC did not finish within {max_rounds} rounds")

    return TeraHACResult(
        dendrogram=Dendrogram(n_base=n_base, merges=merges),
        rounds=rounds,
        stats=stats,
        forced_merges=forced,
    )
