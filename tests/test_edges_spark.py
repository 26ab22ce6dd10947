"""DataFrame primitives of the graph substrate, checked against DuckDB
SQL through the oracle — a wrong join or aggregation in these breaks
every algorithm built on top."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.edges import (
    canonicalize,
    contract,
    contract_sized,
    degrees,
    init_vertices,
    prune_sized,
    w_max_per_vertex,
    with_weights,
)
from repro.graphs.weights import degree_log_weights
from repro.oracle import assert_equivalent
from repro.synth_data import edges_to_spark, random_weighted_graph


@pytest.fixture(scope="module")
def graph(spark):
    edges = random_weighted_graph(n=80, avg_deg=5, seed=11)
    raw = edges_to_spark(spark, edges).select(
        "u", "v", F.col("w").alias("raw")
    )
    e = canonicalize(raw)
    v = init_vertices(spark, e)
    return e, v, raw.toPandas()


def test_canonicalize_oracle(spark, graph):
    e, _, pdf = graph
    assert_equivalent(
        e,
        """
        SELECT least(u, v) AS u, greatest(u, v) AS v, sum(raw) AS raw
        FROM raw WHERE u <> v GROUP BY 1, 2
        """,
        raw=pdf,
    )


def test_canonicalize_merges_parallel_edges(spark):
    df = spark.createDataFrame(
        pd.DataFrame({"u": [1, 2, 3, 3], "v": [2, 1, 3, 4], "raw": [0.5, 0.25, 9.0, 1.0]})
    )
    got = {(r.u, r.v): r.raw for r in canonicalize(df).collect()}
    assert got == {(1, 2): 0.75, (3, 4): 1.0}


def test_with_weights_oracle(spark, graph):
    e, v, _ = graph
    ew = with_weights(e, v).select("u", "v", "w")
    assert_equivalent(
        ew,
        """
        SELECT e.u, e.v, e.raw / (vu.size * vv.size) AS w
        FROM e JOIN v vu ON e.u = vu.id JOIN v vv ON e.v = vv.id
        """,
        e=e,
        v=v,
    )


def test_w_max_oracle(spark, graph):
    e, v, _ = graph
    ew = with_weights(e, v)
    assert_equivalent(
        w_max_per_vertex(ew),
        """
        WITH sym AS (
          SELECT u AS id, w FROM ew UNION ALL SELECT v AS id, w FROM ew
        )
        SELECT id, max(w) AS wmax FROM sym GROUP BY id
        """,
        ew=ew.select("u", "v", "w"),
    )


def test_degrees_oracle(spark, graph):
    e, _, _ = graph
    assert_equivalent(
        degrees(e),
        """
        WITH sym AS (SELECT u AS id FROM e UNION ALL SELECT v AS id FROM e)
        SELECT id, count(*) AS deg FROM sym GROUP BY id
        """,
        e=e,
    )


def test_contract_oracle(spark, graph):
    e, _, _ = graph
    # map every vertex to id // 10 (a coarse partition)
    ids = e.select(F.col("u").alias("old_id")).unionByName(
        e.select(F.col("v").alias("old_id"))
    ).distinct()
    mapping = ids.select("old_id", (F.col("old_id") % 7).alias("new_id"))
    got = contract(e, mapping)
    assert_equivalent(
        got,
        """
        SELECT least(u % 7, v % 7) AS u, greatest(u % 7, v % 7) AS v,
               sum(raw) AS raw
        FROM e WHERE (u % 7) <> (v % 7) GROUP BY 1, 2
        """,
        e=e,
    )


def test_contract_partial_mapping(spark):
    """Vertices absent from the mapping keep their id (fallback path)."""
    e = spark.createDataFrame(
        pd.DataFrame({"u": [0, 1], "v": [1, 2], "raw": [1.0, 2.0]})
    )
    mapping = spark.createDataFrame(
        pd.DataFrame({"old_id": [1], "new_id": [0]})
    )
    got = {(r.u, r.v): r.raw for r in contract(e, mapping).collect()}
    assert got == {(0, 2): 2.0}  # 0-1 became a self loop and vanished


def test_prune_sized_oracle(spark, graph):
    e, v, _ = graph
    ew = with_weights(e, v)
    ke = prune_sized(ew.drop("w"), 0.4)
    import duckdb

    con = duckdb.connect()
    con.register("ew", ew.select("u", "v", "w", "raw").toPandas())
    keep = set(
        con.execute(
            """
            WITH sym AS (SELECT u AS id, w FROM ew UNION ALL
                         SELECT v AS id, w FROM ew)
            SELECT id FROM sym GROUP BY id HAVING max(w) >= 0.4
            """
        ).fetchdf()["id"]
    )
    con.close()
    assert ke.columns == ["u", "v", "raw", "su", "sv", "mu", "mv"]
    rows = ke.collect()
    # every surviving vertex keeps an edge, and no surviving-vertex edge is lost
    assert {r.u for r in rows} | {r.v for r in rows} == keep
    assert len(rows) == ew.filter(
        F.col("u").isin(list(keep)) & F.col("v").isin(list(keep))
    ).count()


def test_contract_sized_carries_size_and_m(spark):
    """The mapping's size and M land on the right endpoint, also when the
    contraction swaps an edge's orientation; unmapped vertices keep
    theirs."""
    inf = float("inf")
    e = spark.createDataFrame(
        [(0, 1, 1.0, 1, 2, inf, 0.5), (1, 2, 2.0, 2, 1, 0.5, inf), (2, 3, 4.0, 1, 3, inf, 0.3)],
        "u long, v long, raw double, su long, sv long, mu double, mv double",
    )
    mapping = spark.createDataFrame(
        [(0, 9, 3, 0.4), (1, 9, 3, 0.4)], "old_id long, new_id long, size long, m double"
    )
    got = {tuple(r) for r in contract_sized(e, mapping).collect()}
    # 0-1 became a self loop; 1-2 became 9-2, stored as 2-9
    assert got == {(2, 9, 2.0, 1, 3, inf, 0.4), (2, 3, 4.0, 1, 3, inf, 0.3)}


def test_contract_sized_sums_parallel_edges(spark, graph):
    e, v, _ = graph
    sized = with_weights(e, v).drop("w")
    mapping = (
        v.select("id", (F.col("id") % 7).alias("new_id"))
        .groupBy("new_id")
        .agg(F.collect_list("id").alias("ids"), F.count("*").alias("size"))
        .select(F.explode("ids").alias("old_id"), "new_id", "size", F.lit(0.25).alias("m"))
    )
    got = {(r.u, r.v): r.raw for r in contract_sized(sized, mapping).collect()}
    expect = {(r.u, r.v): r.raw for r in contract(e, mapping).collect()}
    assert got.keys() == expect.keys()
    assert all(got[k] == pytest.approx(expect[k]) for k in expect)


def test_degree_log_weights_oracle(spark):
    pdf = pd.DataFrame({"u": [0, 1, 0, 2], "v": [1, 2, 3, 3]})
    e = spark.createDataFrame(pdf)
    got = degree_log_weights(e)
    assert_equivalent(
        got,
        """
        WITH deg AS (
          SELECT id, count(*) AS d FROM (
            SELECT u AS id FROM e UNION ALL SELECT v AS id FROM e
          ) GROUP BY id
        )
        SELECT e.u, e.v, 1.0 / ln(du.d + dv.d) AS raw
        FROM e JOIN deg du ON e.u = du.id JOIN deg dv ON e.v = dv.id
        """,
        e=e,
    )


def test_init_vertices(spark, graph):
    e, v, _ = graph
    rows = v.collect()
    ids = {r.id for r in rows}
    expect = {r.u for r in e.collect()} | {r.v for r in e.collect()}
    assert ids == expect
    assert all(r.size == 1 and r.m == float("inf") for r in rows)
