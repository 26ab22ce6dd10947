"""Canonical undirected edge tables and the DataFrame primitives TeraHAC needs.

Representation (used by every algorithm in this repo):

* ``edges``: DataFrame ``(u: long, v: long, raw: double)`` with ``u < v``,
  no self loops, one row per undirected edge. ``raw`` is the *sum of
  point-pair similarities* between the two clusters, i.e. the
  average-linkage weight times ``|u|*|v|``. Keeping the un-normalized sum
  makes graph contraction an exact, associative group-by SUM.
* ``vertices``: DataFrame ``(id: long, size: long, m: double)`` where ``m``
  is the min-merge similarity M(v) of Definition 2 (+inf for singletons).

The displayed average-linkage weight is ``w = raw / (size_u * size_v)``.

The TeraHAC engine keeps no vertex table. Its edges are *self-describing*:
``(u, v, raw, su, sv, mu, mv)`` carries both endpoints' size and M
(:data:`SIZED`), so ``w`` is a column expression (:func:`sized_weight`) and
contraction and pruning (:func:`contract_sized`, :func:`prune_sized`) need
no join against vertices.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


SIZED = ("u", "v", "raw", "su", "sv", "mu", "mv")


def sized_weight():
    """The average-linkage weight of a self-describing edge table."""
    return F.col("raw") / (F.col("su") * F.col("sv"))


def canonicalize(edges: DataFrame) -> DataFrame:
    """Return ``(u, v, raw)`` with ``u < v``, self-loops dropped and
    parallel edges summed. Accepts any ``(u, v, raw)`` orientation."""
    e = edges.filter(F.col("u") != F.col("v")).select(
        F.least("u", "v").alias("u"),
        F.greatest("u", "v").alias("v"),
        F.col("raw"),
    )
    return e.groupBy("u", "v").agg(F.sum("raw").alias("raw"))


def symmetrize(edges: DataFrame, *cols: str) -> DataFrame:
    """Both orientations of an edge table ``(u, v, *cols)``:
    ``(src, dst, *cols)``, each row once as ``u -> v`` and once as ``v -> u``."""
    fwd = edges.select(F.col("u").alias("src"), F.col("v").alias("dst"), *cols)
    bwd = edges.select(F.col("v").alias("src"), F.col("u").alias("dst"), *cols)
    return fwd.unionByName(bwd)


def with_weights(edges: DataFrame, vertices: DataFrame) -> DataFrame:
    """Attach endpoint metadata and the normalized average-linkage weight.

    Output: ``(u, v, raw, su, sv, mu, mv, w)`` where
    ``w = raw / (su * sv)``.
    """
    vu = vertices.select(
        F.col("id").alias("u"), F.col("size").alias("su"), F.col("m").alias("mu")
    )
    vv = vertices.select(
        F.col("id").alias("v"), F.col("size").alias("sv"), F.col("m").alias("mv")
    )
    return (
        edges.join(vu, "u")
        .join(vv, "v")
        .select(*SIZED, sized_weight().alias("w"))
    )


def w_max_per_vertex(edges_w: DataFrame) -> DataFrame:
    """Per-vertex maximum incident normalized weight.

    Input must have columns ``u, v, w`` (canonical). Output: ``(id, wmax)``.
    Vertices with no incident edges do not appear.
    """
    return symmetrize(edges_w, "w").groupBy(F.col("src").alias("id")).agg(
        F.max("w").alias("wmax")
    )


def degrees(edges: DataFrame) -> DataFrame:
    """Per-vertex degree of a canonical edge table. Output ``(id, deg)``."""
    return symmetrize(edges).groupBy(F.col("src").alias("id")).agg(
        F.count("*").alias("deg")
    )


def good_edge_count(edges_w: DataFrame, eps: float) -> int:
    """Number of `(1+eps)`-good edges in the *global* graph (Definition 2).

    An edge uv is good iff max(wmax(u), wmax(v)) / min(M(u), M(v), w(uv))
    <= 1 + eps.  This is the quantity plotted in Fig. 15 of the paper.
    Input needs columns ``u, v, w, mu, mv``, as :func:`with_weights` gives.
    """
    wm = w_max_per_vertex(edges_w)
    e = (
        edges_w.join(wm.withColumnRenamed("id", "u").withColumnRenamed("wmax", "wmu"), "u")
        .join(wm.withColumnRenamed("id", "v").withColumnRenamed("wmax", "wmv"), "v")
    )
    good = e.filter(
        F.greatest("wmu", "wmv")
        <= (1.0 + eps) * F.least("mu", "mv", "w")
    )
    return good.count()


def contract(edges: DataFrame, mapping: DataFrame) -> DataFrame:
    """Contract a canonical edge table under a vertex -> cluster mapping.

    ``mapping`` is ``(old_id, new_id)``; vertices absent from the mapping
    keep their id (left join + coalesce), so partial mappings — e.g. the
    single forced merge in TeraHAC's stall fallback — are valid. Self
    loops created by the contraction are dropped; parallel edges are
    summed exactly (``raw`` is a sum of point-pair similarities).
    """
    mu = mapping.select(F.col("old_id").alias("u"), F.col("new_id").alias("nu"))
    mv = mapping.select(F.col("old_id").alias("v"), F.col("new_id").alias("nv"))
    e = (
        edges.join(mu, "u", "left")
        .join(mv, "v", "left")
        .select(
            F.coalesce("nu", "u").alias("a"),
            F.coalesce("nv", "v").alias("b"),
            "raw",
        )
    )
    return canonicalize(e.select(F.col("a").alias("u"), F.col("b").alias("v"), "raw"))


def contract_sized(edges: DataFrame, mapping: DataFrame) -> DataFrame:
    """:func:`contract` for a self-describing edge table.

    ``edges`` is ``(u, v, raw, su, sv, mu, mv)`` (see :data:`SIZED`),
    ``mapping`` is ``(old_id, new_id, size, m)``. The two mapping joins
    carry the new endpoint size and M along; vertices absent from the
    mapping keep their id and metadata. Returns the same schema, canonical.
    """
    def side(x: str) -> DataFrame:
        return mapping.select(
            F.col("old_id").alias(x),
            F.col("new_id").alias(f"n{x}"),
            F.col("size").alias(f"ns{x}"),
            F.col("m").alias(f"nm{x}"),
        )

    e = (
        edges.join(side("u"), "u", "left")
        .join(side("v"), "v", "left")
        .select(
            F.coalesce("nu", "u").alias("a"),
            F.coalesce("nv", "v").alias("b"),
            "raw",
            F.coalesce("nsu", "su").alias("sa"),
            F.coalesce("nsv", "sv").alias("sb"),
            F.coalesce("nmu", "mu").alias("ma"),
            F.coalesce("nmv", "mv").alias("mb"),
        )
        .filter(F.col("a") != F.col("b"))
    )
    swap = F.col("a") > F.col("b")

    def pick(if_swap: str, otherwise: str):
        return F.when(swap, F.col(if_swap)).otherwise(F.col(otherwise))

    # size and M are functions of the vertex id, so grouping by them too
    # keeps one row per undirected edge.
    return (
        e.select(
            pick("b", "a").alias("u"),
            pick("a", "b").alias("v"),
            "raw",
            pick("sb", "sa").alias("su"),
            pick("sa", "sb").alias("sv"),
            pick("mb", "ma").alias("mu"),
            pick("ma", "mb").alias("mv"),
        )
        .groupBy("u", "v", "su", "sv", "mu", "mv")
        .agg(F.sum("raw").alias("raw"))
        .select(*SIZED)
    )


def prune_sized(edges: DataFrame, threshold: float) -> DataFrame:
    """Vertex pruning (Algorithm 1, line 7) on a self-describing edge table.

    Removes every vertex whose maximum incident weight is < ``threshold``
    together with all its incident edges. Every surviving vertex keeps at
    least one edge (its heaviest: the other end survives too), so the
    surviving edges alone describe the surviving graph.
    """
    keep = (
        w_max_per_vertex(edges.withColumn("w", sized_weight()))
        .filter(F.col("wmax") >= threshold)
        .select("id")
    )
    return (
        edges.join(keep.withColumnRenamed("id", "u"), "u")
        .join(keep.withColumnRenamed("id", "v"), "v")
        .select(*SIZED)
    )


def init_vertices(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """Singleton vertex table for every endpoint of ``edges``:
    size 1, M = +inf (Definition 2)."""
    ids = symmetrize(edges).select(F.col("src").alias("id")).distinct()
    return ids.select(
        "id", F.lit(1).cast("long").alias("size"), F.lit(float("inf")).alias("m")
    )
