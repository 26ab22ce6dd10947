"""Contracts of the in-process graph primitives (repro.core.localgraph) that
the HAC loops built on them do not pin down on their own."""
from __future__ import annotations

from repro.core.localgraph import DSU, contract, merge_pair


def test_merge_pair_sums_shared_neighbour_and_skips_absent_entries():
    # x is adjacent to both u and v; y has no adjacency entry of its own,
    # like an inactive vertex in SubgraphHAC.
    u, v, x, y, pid = 1, 2, 3, 4, 9
    adj = {
        u: {v: 0.5, x: 1.0, y: 0.25},
        v: {u: 0.5, x: 2.0},
        x: {u: 1.0, v: 2.0},
    }
    size = {u: 1, v: 2, x: 1, y: 1}
    nbrs = merge_pair(adj, size, u, v, pid)
    assert nbrs == {x: 3.0, y: 0.25}
    assert adj == {x: {pid: 3.0}, pid: {x: 3.0, y: 0.25}}
    assert size[pid] == 3


def test_contract_sums_both_orientations_and_drops_self_loops():
    a, b, c = 1, 2, 3
    adj = {
        a: {b: 1.0, c: 2.0},
        b: {a: 1.0, c: 4.0},
        c: {a: 2.0, b: 4.0},
    }
    size = {a: 1, b: 2, c: 3}
    new_adj, new_size = contract(adj, size, {b: b, c: b})
    assert new_adj == {b: {a: 3.0}, a: {b: 3.0}}
    assert new_size == {a: 1, b: 5}


def test_dsu_representative_is_min_id():
    dsu = DSU()
    dsu.union(7, 5)
    dsu.union(9, 7)
    dsu.union(3, 8)
    assert {x: dsu.find(x) for x in (3, 5, 7, 8, 9, 11)} == {
        3: 3, 5: 5, 7: 5, 8: 3, 9: 5, 11: 11,
    }
    dsu.union(8, 9)
    assert {dsu.find(x) for x in (3, 5, 7, 8, 9)} == {3}
