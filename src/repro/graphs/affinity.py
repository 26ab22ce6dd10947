"""Affinity clustering (Bateni et al. [7]) and the size-constrained variant
(Epasto et al. [27]) used as TeraHAC's graph partitioner.

Affinity clustering: each vertex marks its highest-weight incident edge
(deterministic tie-break on the larger neighbour id); the clusters are the
connected components spanned by the marked edges, labelled by their min
member id.

Those components are found by pointer jumping, not by general connected
components. Every vertex points at its best neighbour, so the marked
graph is a pseudoforest: each component has exactly one cycle. Under the
``(w, neighbour-id)`` order that cycle has length 2. Take a cycle
``x_0 -> x_1 -> ... -> x_{k-1} -> x_0`` with ``k >= 3``. Vertex ``x_i``
picked ``x_{i+1}`` over its other cycle neighbour ``x_{i-1}``, so
``w(x_i, x_{i+1}) >= w(x_{i-1}, x_i)``; around the cycle all its weights
are therefore equal, and every pick was made by the id tie-break:
``x_{i+1} > x_{i-1}`` for every ``i``. Stepping by two around the cycle
then gives a strictly increasing cyclic sequence, which is impossible.
So each component is a tree hanging off one mutual best edge. Pointing
the smaller end of that edge at itself makes it the root, and jumping
``p <- p[p]`` finds every vertex's root in ``ceil(log2 depth)`` joins
(the tree-contraction idea of Łącki et al. [36]).

The size-constrained variant additionally splits any cluster whose
*shipped subgraph load* (sum of member degrees — the number of edge rows
that would be sent to one machine) exceeds a cap, by hashing members into
sub-clusters. Lemma 7 guarantees TeraHAC is correct under any partition,
so the split only affects performance, never correctness.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.graphs.edges import symmetrize
from repro.graphs.io import materialize


def _marked(edges_w: DataFrame) -> DataFrame:
    """``(src, dst, deg)``: each vertex's best edge and its degree."""
    # max of (w, dst) struct == max weight, then max dst: deterministic.
    return symmetrize(edges_w, "w").groupBy("src").agg(
        F.max(F.struct("w", "dst")).alias("b"), F.count("*").alias("deg")
    ).select("src", F.col("b.dst").alias("dst"), "deg")


def best_edges(edges_w: DataFrame) -> DataFrame:
    """Per-vertex best incident edge of a canonical weighted edge table
    (columns ``u, v, w``). Returns ``(src, dst)`` — the marked edge of each
    vertex, max weight with ties broken toward the larger neighbour id."""
    return _marked(edges_w).select("src", "dst")


def _rooted(edges_w: DataFrame, vertices: DataFrame | None) -> DataFrame:
    """``(id, root, deg)``: the root of each vertex's tree of marked edges
    (the smaller end of the tree's mutual best edge) and its degree."""
    b = _marked(edges_w).select(
        F.col("src").alias("id"), F.col("dst").alias("parent"), "deg"
    )
    up = b.select(F.col("id").alias("parent"), F.col("parent").alias("grand"))
    mutual = F.col("grand") == F.col("id")
    # ``done``: the parent is known to be a root. Roots keep pointing at
    # themselves, so a jump only ever passes ``done`` on.
    p = b.join(up, "parent").select(
        "id",
        F.when(mutual & (F.col("id") < F.col("parent")), F.col("id"))
        .otherwise(F.col("parent"))
        .alias("parent"),
        "deg",
        mutual.alias("done"),
    )
    # Depth is below 2**63, so at most 63 jumps; more means a longer cycle.
    for jump in range(1, 65):
        p = p.localCheckpoint(eager=False)
        # The count materializes ``p`` and tells whether any root is unknown.
        if p.filter(~F.col("done")).count() == 0:
            break
        up = p.select(
            F.col("id").alias("parent"),
            F.col("parent").alias("grand"),
            F.col("done").alias("grand_done"),
        )
        p = p.join(up, "parent").select(
            "id", F.col("grand").alias("parent"), "deg", F.col("grand_done").alias("done")
        )
        if jump % 4 == 0:
            # localCheckpoint propagates the original plan's statistics
            # (originStats), whose BigInt magnitude grows with every jump;
            # reset them with a real materialization.
            p = materialize(p, "affinity-parents")
    else:
        raise RuntimeError("best-edge graph has a cycle longer than two")
    out = p.select("id", F.col("parent").alias("root"), "deg")
    if vertices is not None:
        out = (
            vertices.select("id")
            .join(out, "id", "left")
            .select(
                "id",
                F.coalesce("root", "id").alias("root"),
                F.coalesce("deg", F.lit(0)).alias("deg"),
            )
        )
    return out


def affinity_clusters(edges_w: DataFrame, vertices: DataFrame | None) -> DataFrame:
    """Plain affinity clustering. Returns ``(id, cluster)`` where cluster is
    the min vertex id of the component of marked edges. ``vertices``
    (``id``) adds vertices with no edge as singleton clusters; None means
    the endpoints of ``edges_w`` only."""
    r = _rooted(edges_w, vertices)
    return r.select("id", F.min("id").over(Window.partitionBy("root")).alias("cluster"))


def size_constrained_affinity(
    edges_w: DataFrame, vertices: DataFrame | None, max_load: int
) -> DataFrame:
    """Affinity clustering with shipped-load cap.

    ``max_load`` bounds the number of incident-edge rows a single
    SubgraphHAC call receives (the paper uses 10M; tests use far less).
    ``vertices`` is as in :func:`affinity_clusters`. Returns
    ``(id, cluster)`` with cluster ids that are opaque longs.
    """
    tree = Window.partitionBy("root")
    loaded = _rooted(edges_w, vertices).select(
        "id",
        F.min("id").over(tree).alias("cluster"),
        F.sum("deg").over(tree).alias("load"),
    )
    nparts = F.greatest(F.lit(1), F.ceil(F.col("load") / F.lit(max_load)))
    out = loaded.select(
        "id",
        F.when(nparts <= 1, F.col("cluster")).otherwise(
            # Opaque split id; a hash collision would only coarsen the
            # partition, which is still a valid partition (Lemma 7).
            F.xxhash64(F.col("cluster"), F.pmod(F.xxhash64("id"), nparts))
        ).alias("cluster"),
    )
    # Consumed twice (u- and v-side joins); cut the lineage here.
    return out.localCheckpoint(eager=False)
