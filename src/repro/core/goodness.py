"""Definition 2 machinery: (1+eps)-good merges, M(.) bookkeeping and the
coordination-free dendrogram-node id encoding.

Id encoding
-----------
A cluster is identified by ``rep * (n_base + 1) + (size - 1)`` where
``rep`` is the minimum *original* vertex id contained in the cluster and
``size`` its number of leaves. Within one run this is unique: reps are
disjoint across live clusters, and the cluster containing a given rep has
a strictly increasing size trajectory, so no two dendrogram nodes share
``(rep, size)``. Any parallel SubgraphHAC call can therefore mint the id
of a merge result locally — ``rep = min(rep_u, rep_v)``,
``size = size_u + size_v`` — without a global counter, which is what lets
TeraHAC apply merges from independent partitions without renumbering.
Leaves encode as ``v * (n_base + 1)`` (size 1).
"""
from __future__ import annotations


def encode_leaf(v: int, n_base: int) -> int:
    """Encoded id of original vertex ``v`` (a size-1 cluster)."""
    return v * (n_base + 1)


def decode_rep(node_id: int, n_base: int) -> int:
    """Minimum original vertex id contained in the cluster ``node_id``."""
    return node_id // (n_base + 1)


def decode_size(node_id: int, n_base: int) -> int:
    """Number of leaves of the cluster ``node_id``."""
    return node_id % (n_base + 1) + 1


def merge_id(id_u: int, id_v: int, n_base: int) -> int:
    """Id of the cluster created by merging ``id_u`` and ``id_v``."""
    rep = min(decode_rep(id_u, n_base), decode_rep(id_v, n_base))
    size = decode_size(id_u, n_base) + decode_size(id_v, n_base)
    return rep * (n_base + 1) + (size - 1)


def goodness(w_max_u: float, w_max_v: float, m_u: float, m_v: float, w_uv: float) -> float:
    """Goodness of merging u and v (Definition 2):
    ``max(wmax(u), wmax(v)) / min(M(u), M(v), w(uv))``.

    A merge is (1+eps)-good iff this is <= 1+eps. Lower is better.
    ``w_uv`` must be positive (edges have positive weight by assumption).
    """
    return max(w_max_u, w_max_v) / min(m_u, m_v, w_uv)


def merged_m(m_u: float, m_v: float, w_uv: float) -> float:
    """M of the merged cluster: ``min(M(u), M(v), w(uv))`` (Definition 2)."""
    return min(m_u, m_v, w_uv)
