"""TeraHAC benchmark: end-to-end and per-layer metrics of both engines.

Run from the repository root:

    python3 perfbench/run.py --workload wq4k-spark --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced engine calls and prints the end-to-end
metrics; ``--trace 1`` makes one traced call and prints the per-layer
metrics (see ``perfbench/spans.py``). Every engine output goes through the
output gate (``perfbench/gate.py``); a call that raises or fails the gate
counts as a failed operation. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run's context (commit, cores, versions, parameters, input
sizes, every sample).

Workloads (paper parameters, inputs generated from ``--seed``):

* ``wq4k-spark``: Spark engine (``repro.core.terahac.terahac``) on
  web-query-lite, n=4000, eps=0.1, t=0.05 (the Table 3 setting). Five
  rounds whose cost is mostly fixed per-round Spark work: partitioning
  (affinity + connected components), the parquet barriers and the
  SubgraphHAC UDF. Its output must equal the local engine's.
* ``rmat8x16-local``: shared-memory engine
  (``repro.core.terahac_local.terahac_local``) on 16 disjoint rMAT-8 graphs
  with degree-log weights, eps=0.1, t=0.01. The SubgraphHAC kernel is about
  three quarters of the time and no Spark code runs, so Spark-round changes
  must leave it unchanged. One rMAT graph's cost is set by its largest
  affinity cluster and differs up to 1.7x between seeds; a union of
  independently seeded graphs keeps the cost of one seed close to another's.

Timing: the engine is called until the calls fill ``--seconds`` (at least
one call). The input is generated before and the gate runs after the timed
calls. ``setup_s`` is what a caller pays before the first call: on Spark,
session start plus a warm-up call on a two-edge graph; locally, fresh
interpreters that import the engine and make the same warm-up call.

A shared host's speed drifts, in bursts of seconds and in stretches of
minutes that slow every call of a run alike (up to 1.7x), so raw times of
the local engine do not repeat between runs. Each timed local call and
interpreter start is therefore bracketed by a calibration loop: a fixed
single-threaded pure-Python heap-and-dict loop, the kind of work the local
engine does, which depends on neither the program nor the seed. The local
``wall_s`` and ``setup_s`` are the medians over the calls (starts) of their
time / the mean of the two calibrations beside them, times
``CALIBRATION_NOMINAL_S``, the loop's time on a quiet core: seconds at a
fixed host speed. The Spark engine's one call runs ~50 s over a JVM and
four worker processes, which two short calibrations do not track (the
normalised figure spread more between seeds than the raw one), so its
``wall_s`` and ``setup_s`` are raw seconds. Raw times and calibrations are
in the context line.
"""
from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WARMUP_EDGES = [(0, 1, 1.0), (2, 3, 0.5)]  # one round: two merges, then empty
LOCAL_SETUP_RUNS = 9
CALIBRATION_REPS = 5
CALIBRATION_NOMINAL_S = 0.08  # calibration_s() on a quiet core of a 4-core x86 box
# Flatten thresholds of jobs/table3_webquery.py (plus the run's t).
FLATTEN_THRESHOLDS = (0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.3, 0.15)

WORKLOADS = {
    "wq4k-spark": {"engine": "spark", "graph": "web_query_lite", "n": 4000,
                   "eps": 0.1, "t": 0.05},
    "rmat8x16-local": {"engine": "local", "graph": "rmat", "scale": 8, "copies": 16,
                       "eps": 0.1, "t": 0.01},
}

AFFINITY = "graphs.affinity.size_constrained_affinity"
CC = "graphs.components.connected_components"
HEAVY = "graphs.edges.num_heavy_edges"
BARRIERS = ("subgraphhac", "edges", "vertices")
KERNEL_NOTE = (
    "On the Spark engine SubgraphHAC runs inside Python workers, where it "
    "cannot be timed from outside the program; its time is part of "
    "graphs.io.materialize.subgraphhac.s and core.subgraph_hac.* read 0."
)
AFFINITY_NOTE = (
    "size_constrained_affinity returns a lazy local checkpoint, so the joins "
    "that finish it (degree, load, split) and the checkpoint itself run in "
    "the next barrier's job; their time and jobs are counted in "
    "graphs.io.materialize.subgraphhac, not graphs.affinity.*."
)


def make_input(wl: dict, seed: int):
    """Returns ``(edges, n_base, labelled_pairs or None)``."""
    from repro import synth_data

    if wl["graph"] == "web_query_lite":
        edges, _, pairs = synth_data.web_query_lite(n=wl["n"], seed=seed)
        return edges, wl["n"], pairs
    # Disjoint union of independently seeded rMAT graphs, vertex ids offset.
    edges, n_base = [], 0
    for i in range(wl["copies"]):
        pairs = synth_data.rmat_edges(scale=wl["scale"], seed=seed * wl["copies"] + i)
        edges += [(u + n_base, v + n_base, w)
                  for u, v, w in synth_data.degree_weights_local(pairs)]
        n_base += int(pairs.max()) + 1
    return edges, n_base, None


def pair_f1(dendro, pairs, t: float) -> float:
    """Best pairwise F1 against the labelled pairs over the flatten
    thresholds (the Section 6.3 protocol)."""
    from repro.eval.flatten_eval import pair_precision_recall

    best = 0.0
    for ft in (*FLATTEN_THRESHOLDS, t):
        pr = pair_precision_recall(dendro.flatten(ft), pairs)
        if pr.precision + pr.recall > 0:
            best = max(best, 2 * pr.precision * pr.recall / (pr.precision + pr.recall))
    return best


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop of heap pushes and pops and
    dict updates, independent of the program and of the seed."""
    t0 = perf_counter()
    for _ in range(CALIBRATION_REPS):
        rng = random.Random(7)
        heap, live = [], {}
        for i in range(15000):
            key = rng.random()
            heapq.heappush(heap, (key, i))
            live[i] = key
        while heap:
            _, i = heapq.heappop(heap)
            if live.pop(i, None) is not None and i * 7919 % 15000 in live:
                live[i * 7919 % 15000] *= 0.5
    return perf_counter() - t0


def at_nominal_speed(times, calibrations, ok) -> float:
    """Median over ``ok`` of ``times[i]`` scaled to the host speed at which
    ``calibration_s()`` takes ``CALIBRATION_NOMINAL_S``; ``calibrations[i]``
    and ``calibrations[i + 1]`` bracket ``times[i]``."""
    return CALIBRATION_NOMINAL_S * statistics.median(
        times[i] * 2 / (calibrations[i] + calibrations[i + 1]) for i in ok
    )


def timed_calls(call, seconds: float):
    """Call ``call()`` until the next call would likely end after
    ``seconds`` (at least once), with ``calibration_s()`` before the first
    call and after each. The first result that returns is kept; each later
    one is compared with it right after its calibration, and dropped, so at
    most two results are alive at once and peak memory does not grow with
    the number of calls. Returns the kept result (None if every call
    raised), the wall times of all calls, the calibration times (one more
    than calls), the indices of the calls that returned the kept
    dendrogram, and the number of calls that raised or returned another
    dendrogram."""
    first = first_sets = None
    walls, ok, failed = [], [], 0
    start = perf_counter()
    calibrations = [calibration_s()]
    while True:
        t0 = perf_counter()
        try:
            res = call()
        except Exception:
            traceback.print_exc()
            res = None
        walls.append(perf_counter() - t0)
        calibrations.append(calibration_s())
        if res is None:
            failed += 1
        elif first is None:
            first, first_sets = res, res.dendrogram.internal_cluster_sets()
            ok.append(len(walls) - 1)
        elif res.dendrogram.internal_cluster_sets() != first_sets:
            print("gate: repeated call gave another dendrogram", file=sys.stderr)
            failed += 1
        else:
            ok.append(len(walls) - 1)
        del res
        if perf_counter() - start + max(walls) > seconds:
            return first, walls, calibrations, ok, failed


def dir_bytes(path: Path) -> int:
    return sum(
        (Path(d) / f).stat().st_size for d, _, files in os.walk(path) for f in files
    )


def passes_gate(res, edges, n_base, eps, t, reference=None) -> bool:
    """Full output gate on one result, plus equality with ``reference``
    when given."""
    from gate import GateError, check_dendrogram

    try:
        check_dendrogram(edges, n_base, res.dendrogram.merges, eps, t)
        if reference is not None and (
            res.dendrogram.internal_cluster_sets()
            != reference.dendrogram.internal_cluster_sets()
            or res.rounds != reference.rounds
        ):
            raise GateError("Spark result != terahac_local result")
    except GateError as e:
        print(f"gate: {e}", file=sys.stderr)
        return False
    return True


# ------------------------------------------------------------------ Spark
def start_spark(work: Path, cores: int):
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 2g pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.local.dir", str(work / "spark-local"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={work / 'tmp'}")
        # Same session settings as jobs/_session.py.
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def last_job_id(sc) -> int:
    """Highest id of a job run outside any job group (-1 if none)."""
    return max(sc.statusTracker().getJobIdsForGroup(None), default=-1)


# ------------------------------------------------------------------ local
LOCAL_SETUP = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.core.terahac_local import terahac_local
terahac_local({edges!r}, 4, eps={eps!r}, t={t!r})
"""


def local_setup_s(wl: dict, info: dict) -> float:
    """Time of a fresh interpreter that imports the local engine and makes
    one warm-up call, at nominal host speed (median of several)."""
    code = LOCAL_SETUP.format(edges=WARMUP_EDGES, eps=wl["eps"], t=wl["t"])
    times, calibrations = [], [calibration_s()]
    for _ in range(LOCAL_SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
        times.append(perf_counter() - t0)
        calibrations.append(calibration_s())
    info.update(setup_times=times, setup_calibrations=calibrations)
    return at_nominal_speed(times, calibrations, range(len(times)))


# ------------------------------------------------------------------ run
def run_workload(wl: dict, args, work: Path, info: dict) -> tuple[dict, int, int]:
    from repro.core.terahac import terahac
    from repro.core.terahac_local import terahac_local

    from spans import LOCAL_HOOKS, SPARK_HOOKS, Tracer

    eps, t = wl["eps"], wl["t"]
    spark = sc = None
    ckpt_root = Path(os.environ["REPRO_CKPT_DIR"])
    try:
        t0 = perf_counter()
        if wl["engine"] == "spark":
            from repro.synth_data import edges_to_spark

            spark = start_spark(work, info["cores"])
            sc = spark.sparkContext
            terahac(spark, edges_to_spark(spark, WARMUP_EDGES), 4, eps=eps, t=t)
            setup_s = perf_counter() - t0
        else:
            setup_s = local_setup_s(wl, info)

        edges, n_base, pairs = make_input(wl, args.seed)
        info.update(input_vertices=n_base, input_edges=len(edges))
        if spark is not None:
            df = edges_to_spark(spark, edges)
            root, hooks = "core.terahac", SPARK_HOOKS

            def engine():
                return terahac(spark, df, n_base, eps=eps, t=t)
        else:
            root, hooks = "core.terahac_local", LOCAL_HOOKS

            def engine():
                return terahac_local(edges, n_base, eps=eps, t=t)

        ckpt_before = dir_bytes(ckpt_root)
        job_before = last_job_id(sc) if sc else -1
        tracer = Tracer(sc)
        if args.trace:
            with tracer.installed(hooks):
                res, walls, calibrations, ok, failed = timed_calls(
                    lambda: tracer.call(root, engine), 0
                )
        else:
            res, walls, calibrations, ok, failed = timed_calls(engine, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ckpt_left = dir_bytes(ckpt_root) - ckpt_before
        jobs, untraced_jobs = {}, False
        if sc is not None:
            if args.trace:
                jobs = tracer.jobs()
                ids = tracer.job_ids()
                jobs_total = len(ids)
                untraced_jobs = last_job_id(sc) > job_before or ids != list(
                    range(job_before + 1, job_before + 1 + len(ids))
                )
            else:
                jobs_total = last_job_id(sc) - job_before
        else:
            jobs_total = 0
    finally:
        if spark is not None:
            stop_spark(spark)

    if res is not None:
        reference = terahac_local(edges, n_base, eps=eps, t=t) if spark else None
        if not passes_gate(res, edges, n_base, eps, t, reference):
            # every call that returned the same dendrogram fails with it
            failed += len(ok)
            ok = []
    if untraced_jobs:
        print("gate: Spark jobs ran outside the traced job groups", file=sys.stderr)
        failed += 1
    info.update(
        setup_s=setup_s, walls=walls, calibrations=calibrations, spark_jobs=jobs_total,
        ckpt_bytes_left=ckpt_left,
        rounds=res and res.rounds, merges=res and len(res.dendrogram.merges),
        forced_merges=res and res.forced_merges,
        pair_f1=pairs and res and pair_f1(res.dendrogram, pairs, t),
    )
    if not args.trace:
        metrics = {
            "wall_s": 0.0 if not ok else (
                statistics.median(walls[i] for i in ok) if spark is not None
                else at_nominal_speed(walls, calibrations, ok)
            ),
            "setup_s": setup_s,
            "rounds": res.rounds if res else 0,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = layer_metrics(tracer, jobs, info)
        if sc is not None:
            info["notes"] += [KERNEL_NOTE, AFFINITY_NOTE]
        if tracer.absent:
            info["notes"].append("absent hooks, read as 0: " + ", ".join(tracer.absent))
        info.update(layer_self_s=tracer.self_times(), layer_calls=tracer.calls(),
                    layer_jobs=jobs, trace_overhead_s=tracer.overhead_s)
    return metrics, len(walls), failed


def layer_metrics(tracer, jobs: dict, info: dict) -> dict:
    """Per-layer metrics of one traced call. ``.s`` and ``.jobs`` are self
    figures (children excluded), so they add up to ``trace.wall_s`` and
    ``spark_jobs``. A layer the workload does not run reads 0."""
    selfs, calls = tracer.self_times(), tracer.calls()
    wall = tracer.spans[0].seconds
    rounds = max(info["rounds"] or 0, 1)
    kernel = tracer.kernel_calls
    m = {
        "input.vertices": info["input_vertices"],
        "input.edges": info["input_edges"],
        "trace.wall_s": wall,
        "trace.overhead_s": tracer.overhead_s,
        "spark_jobs": info["spark_jobs"],
        "pair_f1": info["pair_f1"] or 0.0,
    }
    for layer in (AFFINITY, CC, HEAVY):
        m[f"{layer}.s"] = selfs.get(layer, 0.0)
        m[f"{layer}.jobs"] = jobs.get(layer, 0)
        m[f"{layer}.calls"] = calls.get(layer, 0)
    m[f"{CC}.jobs_per_call"] = jobs.get(CC, 0) / max(calls.get(CC, 0), 1)
    for tag in BARRIERS:
        m[f"graphs.io.materialize.{tag}.s"] = selfs.get(f"graphs.io.materialize.{tag}", 0.0)
        m[f"graphs.io.materialize.{tag}.jobs"] = jobs.get(f"graphs.io.materialize.{tag}", 0)
    m["graphs.io.ckpt_bytes_left"] = info["ckpt_bytes_left"]
    m.update({
        "core.terahac.self_s": selfs.get("core.terahac", 0.0),
        "core.terahac.jobs_self": jobs.get("core.terahac", 0),
        "core.terahac.jobs_per_round": info["spark_jobs"] / rounds,
        "core.terahac.s_per_round": wall / rounds,
        "core.terahac.forced_merges": info["forced_merges"] or 0,
        "core.subgraph_hac.s": selfs.get("core.subgraph_hac", 0.0),
        "core.subgraph_hac.calls": len(kernel),
        "core.subgraph_hac.rows": sum(r for r, _ in kernel),
        "core.subgraph_hac.max_rows": max((r for r, _ in kernel), default=0),
        "core.subgraph_hac.merges": sum(mg for _, mg in kernel),
        "core.subgraph_hac.zero_merge_calls": sum(1 for _, mg in kernel if mg == 0),
        "core.terahac_local.self_s": selfs.get("core.terahac_local", 0.0),
    })
    return m


def context(args, wl: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the benchmark may run from a plain source tree
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "eps": wl["eps"], "t": wl["t"],
        "notes": [],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Spark's Python workers import repro too, so src goes on PYTHONPATH,
    # not only on sys.path.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_CKPT_DIR"] = str(work / "ckpt")
    tempfile.tempdir = None  # re-read TMPDIR
    sys.path.insert(0, str(SRC))

    info = context(args, wl)
    try:
        metrics, attempted, failed = run_workload(wl, args, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only if no concurrent run still uses it
        except OSError:
            pass
    try:
        import pyspark

        info["pyspark"] = pyspark.__version__
    except ImportError:
        info["pyspark"] = None
    print(json.dumps({"info": info}, default=str))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
