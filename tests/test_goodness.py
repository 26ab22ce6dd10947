"""Unit tests for Definition 2 machinery (repro.core.goodness)."""
from __future__ import annotations

from math import inf as INF

import numpy as np
import pytest

from repro.core.goodness import (
    decode_rep,
    decode_size,
    encode_leaf,
    goodness,
    merge_id,
    merged_m,
)


@pytest.mark.parametrize("n_base", [1, 7, 150, 10_000])
@pytest.mark.parametrize("v", [0, 1, 5])
def test_leaf_encoding_roundtrip(n_base, v):
    if v >= n_base:
        pytest.skip("vertex out of range")
    e = encode_leaf(v, n_base)
    assert decode_rep(e, n_base) == v
    assert decode_size(e, n_base) == 1


@pytest.mark.parametrize("n_base", [10, 100])
def test_merge_id_rep_and_size(n_base):
    a, b = encode_leaf(3, n_base), encode_leaf(7, n_base)
    p = merge_id(a, b, n_base)
    assert decode_rep(p, n_base) == 3
    assert decode_size(p, n_base) == 2
    q = merge_id(p, encode_leaf(1, n_base), n_base)
    assert decode_rep(q, n_base) == 1
    assert decode_size(q, n_base) == 3


def test_merge_id_is_commutative():
    n = 50
    a, b = encode_leaf(10, n), encode_leaf(20, n)
    assert merge_id(a, b, n) == merge_id(b, a, n)


@pytest.mark.parametrize("seed", range(5))
def test_merge_ids_unique_over_random_merge_sequences(seed):
    """Simulate random binary merge trees; every minted id must be fresh."""
    rng = np.random.default_rng(seed)
    n = 40
    live = [encode_leaf(v, n) for v in range(n)]
    seen = set(live)
    while len(live) > 1:
        i, j = rng.choice(len(live), 2, replace=False)
        a, b = live[int(i)], live[int(j)]
        p = merge_id(a, b, n)
        assert p not in seen, "id collision"
        seen.add(p)
        live = [x for x in live if x not in (a, b)] + [p]


def test_goodness_formula():
    # max(wmax_u, wmax_v) / min(m_u, m_v, w_uv)
    assert goodness(1.0, 0.5, INF, INF, 1.0) == 1.0
    assert goodness(1.0, 2.0, INF, INF, 1.0) == 2.0
    assert goodness(1.0, 1.0, 0.5, INF, 1.0) == 2.0
    assert goodness(1.0, 1.0, INF, 0.25, 1.0) == 4.0


def test_merged_m():
    assert merged_m(INF, INF, 0.7) == 0.7
    assert merged_m(0.3, INF, 0.7) == 0.3
    assert merged_m(0.9, 0.4, 0.7) == 0.4


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
def test_figure4_example(eps):
    """The paper's Fig. 4: after the (1+eps)-good merge of ab with weight 1,
    merging {a,b} with c (edge 1+eps, while c also sees (1+eps)^2) is NOT
    good because M({a,b}) = 1, but merging c with d is."""
    w_ab, w_bc, w_cd = 1.0, 1 + eps, (1 + eps) ** 2
    # merge ab: wmax(a)=1, wmax(b)=max(1, 1+eps)
    assert goodness(w_ab, max(w_ab, w_bc), INF, INF, w_ab) <= 1 + eps + 1e-12
    m_ab = merged_m(INF, INF, w_ab)
    # {a,b}-c: wmax({a,b}) = w_bc/2 (size 2), wmax(c) = (1+eps)^2
    g = goodness(w_bc / 2, max(w_bc / 2, w_cd), m_ab, INF, w_bc / 2)
    assert g > 1 + eps
    # c-d is good
    assert goodness(w_cd, w_cd, INF, INF, w_cd) <= 1 + eps
