"""The in-process weighted graph behind every local HAC loop.

A graph is ``adj: {id: {neighbour: raw}}`` plus ``size: {id: leaves}``.
``raw`` is the un-normalized average-linkage weight (the sum of point-pair
similarities), so merging and contracting sum raws exactly and the weight
is ``adj[a][b] / (size[a] * size[b])``. This is the contraction rule of the
Spark engine's edge tables (:mod:`repro.graphs.edges`), kept as dicts.

SubgraphHAC, both TeraHAC engines' local paths, exact HAC, RAC, ParHAC, SCC
and the greedy replay of :func:`repro.core.dendrogram.empirical_approx_ratio`
all build, merge and contract through these functions; each keeps its own
heap, goodness test and M bookkeeping.
"""
from __future__ import annotations

from repro.core.goodness import encode_leaf

Adj = dict[int, dict[int, float]]
Sizes = dict[int, int]


def build(edges: list[tuple[int, int, float]], n_base: int) -> tuple[Adj, Sizes]:
    """Adjacency and sizes of ``edges`` = ``(u, v, w)`` over original
    vertices, keyed by :func:`repro.core.goodness.encode_leaf` ids. Self
    loops are dropped and parallel edges summed; every endpoint has size 1."""
    adj: Adj = {}
    for u, v, w in edges:
        if u == v:
            continue
        eu, ev = encode_leaf(u, n_base), encode_leaf(v, n_base)
        au, av = adj.setdefault(eu, {}), adj.setdefault(ev, {})
        au[ev] = av[eu] = au.get(ev, 0.0) + w
    return adj, dict.fromkeys(adj, 1)


def merge_pair(adj: Adj, size: Sizes, u: int, v: int, pid: int) -> dict[int, float]:
    """Merge ``u`` and ``v`` into the new vertex ``pid`` and return its
    neighbours (``pid``'s adjacency, with summed raws).

    Only neighbours that have an adjacency entry of their own are rewired;
    SubgraphHAC keeps none for its inactive vertices."""
    nbrs = dict(adj.pop(u))
    nbrs.pop(v, None)
    for x, r in adj.pop(v).items():
        if x != u:
            nbrs[x] = nbrs.get(x, 0.0) + r
    for x, r in nbrs.items():
        ax = adj.get(x)
        if ax is not None:
            ax.pop(u, None)
            ax.pop(v, None)
            ax[pid] = r
    adj[pid] = nbrs
    size[pid] = size[u] + size[v]
    return nbrs


def contract(adj: Adj, size: Sizes, relabel: dict[int, int]) -> tuple[Adj, Sizes]:
    """Contract the graph under ``relabel`` (old id -> new id; absent ids
    keep theirs). Self loops are dropped, raws and sizes summed."""
    new_adj: Adj = {new: {} for new in relabel.values()}
    new_size: Sizes = {}
    for a, nb in adj.items():
        na = relabel.get(a, a)
        new_size[na] = new_size.get(na, 0) + size[a]
        row = new_adj.setdefault(na, {})
        for b, raw in nb.items():
            nb_ = relabel.get(b, b)
            if na != nb_:
                row[nb_] = row.get(nb_, 0.0) + raw
    return new_adj, new_size


class DSU:
    """Union-find whose representative is the minimum id of each set."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != x:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


_P1, _P2, _P3, _P4, _P5 = (
    0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0x85EBCA77C2B2AE63, 0x27D4EB2F165667C5,
)
_M64 = (1 << 64) - 1


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M64


def xxhash64(x: int) -> int:
    """Spark's ``xxhash64`` (XXH64, seed 42) of one long, as a signed long.
    ``xxhash64(x) % n`` equals Spark's ``pmod(xxhash64(x), n)``, so both
    TeraHAC engines split an oversized cluster the same way."""
    h = (42 + _P5 + 8) & _M64
    h ^= _rotl(x * _P2 & _M64, 31) * _P1 & _M64
    h = (_rotl(h, 27) * _P1 + _P4) & _M64
    h = (h ^ (h >> 33)) * _P2 & _M64
    h = (h ^ (h >> 29)) * _P3 & _M64
    h ^= h >> 32
    return h - (1 << 64) if h >> 63 else h
