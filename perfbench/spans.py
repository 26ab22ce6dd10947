"""Per-layer spans and Spark job attribution, taken from outside the program.

The engines call their layers through module-level names
(``repro.core.terahac.materialize``, ``repro.graphs.affinity.connected_components``,
...). :class:`Tracer` replaces those names with wrappers for the duration of
one traced engine call. Each wrapper records a span (name, start, end,
parent) and, on Spark, points ``SparkContext.setJobGroup`` at its layer so
that every job the layer triggers is counted against it. Jobs triggered
outside any wrapper land in the root span's group (``core.terahac``).

A layer's self time is its span minus its direct children's spans, so the
self times of all layers add up to the root span, which is the traced
engine call's wall time; the same holds for jobs.

On the Spark engine the SubgraphHAC kernel runs inside Python workers
(``applyInPandas``), where a driver-side wrapper cannot reach it; its time
is part of ``graphs.io.materialize.subgraphhac``. So is the tail of the
affinity layer: ``size_constrained_affinity`` returns a lazy local
checkpoint, and the joins that finish it (degree, load, split) and the
checkpoint itself run in the job of the barrier that follows.
"""
from __future__ import annotations

import importlib
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# (module whose global is replaced, global name, layer name)
SPARK_HOOKS = (
    ("repro.core.terahac", "size_constrained_affinity",
     "graphs.affinity.size_constrained_affinity"),
    ("repro.graphs.affinity", "connected_components",
     "graphs.components.connected_components"),
    ("repro.core.terahac", "num_heavy_edges", "graphs.edges.num_heavy_edges"),
    # Span name gets the barrier tag appended: .edges, .vertices, .subgraphhac
    ("repro.core.terahac", "materialize", "graphs.io.materialize"),
)
LOCAL_HOOKS = (
    ("repro.core.terahac_local", "subgraph_hac", "core.subgraph_hac"),
)

_tracer_ids = itertools.count()


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans of one traced engine call. ``sc`` is the SparkContext, or None
    for the shared-memory engine."""

    sc: object = None
    spans: list[Span] = field(default_factory=list)
    overhead_s: float = 0.0  # time spent in the wrappers themselves
    absent: list[str] = field(default_factory=list)  # hooks with no target
    kernel_calls: list[tuple[int, int]] = field(default_factory=list)  # (rows, merges)

    def __post_init__(self) -> None:
        self._stack: list[int] = []
        self._group_prefix = f"perfbench-{next(_tracer_ids)}:"

    def group(self, name: str) -> str:
        return self._group_prefix + name

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as a span named ``name``."""
        t_enter = perf_counter()
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = Span(name, parent)
        self.spans.append(span)
        self._stack.append(idx)
        if self.sc is not None:
            self.sc.setJobGroup(self.group(name), name)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if self.sc is not None:
                if parent is None:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
                    self.sc.setLocalProperty("spark.job.description", None)
                else:
                    pname = self.spans[parent].name
                    self.sc.setJobGroup(self.group(pname), pname)
            self.overhead_s += (span.start - t_enter) + (perf_counter() - span.end)

    def _wrapper(self, orig, layer: str):
        if layer == "graphs.io.materialize":
            def wrapped(df, tag="step"):
                return self.call(f"{layer}.{tag}", orig, df, tag)
        elif layer == "core.subgraph_hac":
            def wrapped(edge_rows, *args, **kwargs):
                res = self.call(layer, orig, edge_rows, *args, **kwargs)
                self.kernel_calls.append((len(edge_rows), len(res.merges)))
                return res
        else:
            def wrapped(*args, **kwargs):
                return self.call(layer, orig, *args, **kwargs)
        return wrapped

    @contextmanager
    def installed(self, hooks):
        """Replace each hook's target with a span wrapper; restore on exit.
        A target that no longer exists is recorded in ``absent``."""
        restore = []
        try:
            for modname, attr, layer in hooks:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                setattr(mod, attr, self._wrapper(orig, layer))
                restore.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(restore):
                setattr(mod, attr, orig)

    def self_times(self) -> dict[str, float]:
        """Layer name -> summed self time (span minus direct children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.seconds - c
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out

    def jobs(self) -> dict[str, int]:
        """Layer name -> number of Spark jobs run while it was innermost."""
        st = self.sc.statusTracker()
        return {
            name: len(st.getJobIdsForGroup(self.group(name)))
            for name in self.calls()
        }

    def job_ids(self) -> list[int]:
        st = self.sc.statusTracker()
        return sorted(
            j for name in self.calls() for j in st.getJobIdsForGroup(self.group(name))
        )
