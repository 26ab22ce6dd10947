"""Tests of the benchmark itself: the output gate and job attribution.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# Spark's Python workers import repro as well.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)

from gate import GateError, check_dendrogram  # noqa: E402
from run import (  # noqa: E402
    CALIBRATION_NOMINAL_S, WORKLOADS, at_nominal_speed, last_job_id, make_input,
    timed_calls,
)
from spans import LOCAL_HOOKS, SPARK_HOOKS, Tracer  # noqa: E402

from repro.core.terahac_local import terahac_local  # noqa: E402


@pytest.fixture(scope="module", params=["wq4k-spark", "rmat8x16-local"])
def seed_output(request):
    """Engine output on a scaled-down copy of each workload."""
    wl = dict(WORKLOADS[request.param])
    wl.update(n=400, scale=8, copies=2)
    edges, n_base, _ = make_input(wl, seed=3)
    res = terahac_local(edges, n_base, eps=wl["eps"], t=wl["t"])
    assert res.rounds >= 2
    return edges, n_base, res, wl["eps"], wl["t"]


def test_gate_accepts_engine_output(seed_output):
    edges, n_base, res, eps, t = seed_output
    check_dendrogram(edges, n_base, res.dendrogram.merges, eps, t)


def test_gate_rejects_corrupted_similarity(seed_output):
    edges, n_base, res, eps, t = seed_output
    merges = list(res.dendrogram.merges)
    i = len(merges) // 2
    merges[i] = dataclasses.replace(merges[i], similarity=merges[i].similarity * 1.01)
    with pytest.raises(GateError, match="similarity"):
        check_dendrogram(edges, n_base, merges, eps, t)


def test_gate_rejects_dropped_last_round(seed_output):
    edges, n_base, res, eps, t = seed_output
    merges = res.dendrogram.merges[: -res.stats[-1].n_merges]
    with pytest.raises(GateError, match="incomplete"):
        check_dendrogram(edges, n_base, merges, eps, t)


def test_gate_rejects_bad_merge(seed_output):
    """Merging across the edge furthest below its endpoints' heaviest
    edges is not (1+eps)-good."""
    from repro.core.goodness import encode_leaf, merge_id
    from repro.core.subgraph_hac import Merge

    edges, n_base, res, eps, t = seed_output
    w_max: dict[int, float] = {}
    for u, v, w in edges:
        w_max[u], w_max[v] = max(w_max.get(u, 0.0), w), max(w_max.get(v, 0.0), w)
    u, v, w = max(edges, key=lambda e: max(w_max[e[0]], w_max[e[1]]) / e[2])
    assert max(w_max[u], w_max[v]) > (1 + eps) * w
    a, b = encode_leaf(u, n_base), encode_leaf(v, n_base)
    with pytest.raises(GateError, match="goodness"):
        check_dendrogram(edges, n_base, [Merge(merge_id(a, b, n_base), a, b, w)], eps, t)


def test_timed_calls_keeps_first_result_and_counts_failures():
    """A call that raises or returns another dendrogram is a failure. The
    last call outlasts the window, which ends the loop."""
    outcomes = [None, {1}, {1}, {2}, {1}]

    def call():
        sets = outcomes.pop(0)
        if not outcomes:
            time.sleep(2.0)
        if sets is None:
            raise RuntimeError("engine failed")
        return SimpleNamespace(
            dendrogram=SimpleNamespace(internal_cluster_sets=lambda: sets)
        )

    first, walls, calibrations, ok, failed = timed_calls(call, 1.5)
    assert first.dendrogram.internal_cluster_sets() == {1}
    assert len(walls) == 5 and len(calibrations) == 6
    assert ok == [1, 2, 4] and failed == 2


def test_at_nominal_speed_scales_by_the_bracketing_calibrations():
    """A call that takes 30 calibrations reads 30 nominal calibrations,
    whatever the host speed; calls outside ``ok`` do not count."""
    times, calibrations = [3.0, 6.0, 99.0], [0.1, 0.1, 0.3, 1.0]
    assert at_nominal_speed(times, calibrations, [0, 1]) == pytest.approx(
        30 * CALIBRATION_NOMINAL_S
    )


def test_absent_hook_is_reported_not_raised():
    tracer = Tracer()
    hooks = (("repro.core.terahac_local", "no_such_function", "x"),)
    with tracer.installed(hooks):
        pass
    assert tracer.absent == ["repro.core.terahac_local.no_such_function"]


def test_self_times_add_up_to_wall():
    wl = dict(WORKLOADS["rmat8x16-local"], scale=8, copies=2)
    edges, n_base, _ = make_input(wl, seed=3)
    tracer = Tracer()
    with tracer.installed(LOCAL_HOOKS):
        res = tracer.call("core.terahac_local", terahac_local, edges, n_base)
    assert tracer.calls()["core.subgraph_hac"] == len(tracer.kernel_calls) > 0
    assert sum(m for _, m in tracer.kernel_calls) == len(res.dendrogram.merges)
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.spans[0].seconds)


def test_layer_jobs_sum_to_spark_jobs(spark):
    from repro.core.terahac import terahac
    from repro.synth_data import edges_to_spark, random_weighted_graph

    edges = random_weighted_graph(n=12, avg_deg=2, seed=1)
    df = edges_to_spark(spark, edges)
    sc = spark.sparkContext
    before = last_job_id(sc)
    tracer = Tracer(sc)
    with tracer.installed(SPARK_HOOKS):
        res = tracer.call("core.terahac", terahac, spark, df, 12, eps=0.1, t=0.05)
    spark.range(1).count()  # first job after the call, outside any group
    probe = min(j for j in sc.statusTracker().getJobIdsForGroup(None) if j > before)
    jobs = tracer.jobs()
    assert sum(jobs.values()) == len(tracer.job_ids()) == probe - before - 1
    assert jobs["graphs.components.connected_components"] > 0
    assert tracer.calls()["graphs.io.materialize.subgraphhac"] == res.rounds
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.spans[0].seconds)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rmat8x16-local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_names_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
