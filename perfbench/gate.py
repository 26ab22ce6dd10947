"""Output gate: checks a TeraHAC dendrogram against the paper's guarantees.

:func:`check_dendrogram` replays the merges in emission order on the
original graph and raises :class:`GateError` at the first merge that
breaks one of:

* the merge joins two live clusters that share an edge, and its recorded
  similarity is their current average-linkage weight;
* its id is the ``(rep, size)`` encoding of the two children
  (:func:`repro.core.goodness.merge_id`);
* it is (1+eps)-good (Definition 2), with M(.) tracked through the replay;
* Lemma 2 holds for the new cluster: ``w_max <= (1+eps) * M``.

Then it checks completeness: no edge of weight >= t is left between the
final clusters, so an engine that stops early fails.

Vertex pruning (Algorithm 1, line 7) removes a vertex whose heaviest edge
is below t/(1+eps). Such a vertex never merges again, and merging its
neighbours only lowers the weights of its edges, so its edges stay below
t/(1+eps) for the rest of the run. The engine judges goodness without
them, so the replay leaves edges below t/(1+eps) out of w_max: a w_max
under that floor counts as the merge's own weight. With t = 0 this is the
plain Definition 2 test.

The empirical approximation ratio is not used as a gate: with t > 0 it
is unbounded.
"""
from __future__ import annotations

import math

from repro.core.goodness import encode_leaf, merge_id

TOL = 1e-9  # relative tolerance of every weight comparison


class GateError(Exception):
    """A dendrogram failed the output gate."""


def check_dendrogram(
    edges: list[tuple[int, int, float]],
    n_base: int,
    merges: list,
    eps: float,
    t: float,
) -> None:
    size: dict[int, int] = {}
    m: dict[int, float] = {}
    adj: dict[int, dict[int, float]] = {}
    for v in range(n_base):
        x = encode_leaf(v, n_base)
        size[x], m[x], adj[x] = 1, math.inf, {}
    for u, v, w in edges:
        a, b = encode_leaf(u, n_base), encode_leaf(v, n_base)
        adj[a][b] = adj[a].get(b, 0.0) + w
        adj[b][a] = adj[a][b]

    floor = t / (1.0 + eps)
    limit = (1.0 + eps) * (1.0 + TOL)

    def w_max(x: int) -> float:
        sx = size[x]
        return max((r / (sx * size[y]) for y, r in adj[x].items()), default=0.0)

    for i, mg in enumerate(merges):
        u, v = mg.left, mg.right
        if u not in adj or v not in adj:
            raise GateError(f"merge {i} {mg}: a child is not a live cluster")
        if v not in adj[u]:
            raise GateError(f"merge {i} {mg}: children share no edge")
        w_uv = adj[u][v] / (size[u] * size[v])
        if not math.isclose(mg.similarity, w_uv, rel_tol=TOL):
            raise GateError(
                f"merge {i} {mg}: similarity {mg.similarity} != replayed {w_uv}"
            )
        if mg.parent != merge_id(u, v, n_base):
            raise GateError(f"merge {i} {mg}: id is not the (rep, size) encoding")
        top = max(w_max(u), w_max(v))
        if top < floor:
            top = w_uv
        m_new = min(m[u], m[v], w_uv)
        if top > limit * m_new:
            raise GateError(
                f"merge {i} {mg}: goodness {top / m_new} > 1+eps={1 + eps}"
            )
        nbrs: dict[int, float] = {}
        for x, r in adj.pop(u).items():
            if x != v:
                nbrs[x] = nbrs.get(x, 0.0) + r
        for x, r in adj.pop(v).items():
            if x != u:
                nbrs[x] = nbrs.get(x, 0.0) + r
        for x, r in nbrs.items():
            ax = adj[x]
            ax.pop(u, None)
            ax.pop(v, None)
            ax[mg.parent] = r
        p = mg.parent
        adj[p], size[p], m[p] = nbrs, size[u] + size[v], m_new
        wp = w_max(p)
        if wp >= floor and wp > limit * m_new:
            raise GateError(f"merge {i} {mg}: Lemma 2 fails, w_max {wp} > (1+eps)M")

    for x, nb in adj.items():
        for y, r in nb.items():
            w = r / (size[x] * size[y])
            if x < y and w >= t * (1.0 + TOL):
                raise GateError(
                    f"incomplete: edge ({x},{y}) of weight {w} >= t={t} remains"
                )

