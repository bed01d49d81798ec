"""Exact neighbor search against a brute-force oracle."""

import math

import numpy as np
import pytest

from driftknn.core import RandomSource, SampleSet, TransferDataset
from driftknn.neighbors import (
    MergedOrder,
    NeighborIndex,
    NeighborList,
    merged_knn,
    merged_order,
)


def brute_force_order(points, x):
    """Indices sorted by (Euclidean distance, index), plain Python arithmetic."""
    keyed = []
    for i, p in enumerate(points):
        dist = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, x)))
        keyed.append((dist, i))
    keyed.sort()
    return [i for _, i in keyed], [d for d, _ in keyed]


def make_set(points, labels=None):
    pts = np.asarray(points, dtype=float)
    if labels is None:
        labels = np.zeros(len(pts), dtype=np.int64)
    return SampleSet(pts, np.asarray(labels))


def test_neighbor_list_validation():
    nl = NeighborList([0, 1], [0.5, 1.0], [1, 0])
    assert len(nl) == 2
    assert nl.label_sum == 1
    assert list(nl) == [(0, 0.5, 1), (1, 1.0, 0)]
    with pytest.raises(ValueError):
        NeighborList([0, 1], [0.5], [1, 0])


def test_query_simple():
    s = make_set([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]], [1, 0, 1])
    idx = NeighborIndex(s)
    nl = idx.query([0.1, 0.0], 2)
    assert nl.indices.tolist() == [0, 2]
    assert nl.labels.tolist() == [1, 1]
    assert nl.label_sum == 2
    np.testing.assert_allclose(nl.distances, [0.1, 0.9])


def test_tie_breaks_by_lower_index():
    # both points sit at distance 1 from the origin
    s = make_set([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    nl = NeighborIndex(s).query([0.0, 0.0], 1)
    assert nl.indices.tolist() == [0]
    # flip the storage order and the other point wins
    s2 = make_set([[1.0, 0.0], [0.0, 1.0]], [1, 0])
    nl2 = NeighborIndex(s2).query([0.0, 0.0], 1)
    assert nl2.indices.tolist() == [0]
    assert nl2.labels.tolist() == [1]


def test_query_edge_cases():
    s = make_set([[0.0], [1.0]], [0, 1])
    idx = NeighborIndex(s)
    assert len(idx.query([0.0], 0)) == 0
    # k beyond n quietly returns everything
    assert len(idx.query([0.0], 10)) == 2
    with pytest.raises(ValueError, match="k must be >= 0"):
        idx.query([0.0], -1)
    with pytest.raises(ValueError, match="dimension"):
        idx.query([0.0, 1.0], 1)
    empty = NeighborIndex(SampleSet.empty(1))
    assert len(empty.query([0.0], 3)) == 0


def test_query_matches_brute_force():
    gen = RandomSource(101).generator()
    for trial in range(30):
        n = int(gen.integers(1, 40))
        d = int(gen.integers(1, 5))
        pts = gen.random((n, d))
        labels = gen.integers(0, 2, n)
        x = gen.random(d)
        idx = NeighborIndex(SampleSet(pts, labels))
        oracle_idx, oracle_dist = brute_force_order(pts, x)
        for k in (1, min(3, n), n):
            nl = idx.query(x, k)
            assert nl.indices.tolist() == oracle_idx[:k]
            np.testing.assert_allclose(nl.distances, oracle_dist[:k], rtol=1e-12)


def test_query_with_duplicate_points():
    # four copies of the same point plus one farther away
    s = make_set([[0.5, 0.5]] * 4 + [[0.9, 0.9]], [1, 0, 1, 0, 1])
    nl = NeighborIndex(s).query([0.5, 0.5], 3)
    assert nl.indices.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(nl.distances, 0.0)


def test_prefix_property():
    gen = RandomSource(17).generator()
    pts = gen.random((25, 3))
    idx = NeighborIndex(SampleSet(pts, gen.integers(0, 2, 25)))
    x = gen.random(3)
    prev = []
    for k in range(1, 26):
        cur = idx.query(x, k).indices.tolist()
        assert cur[: len(prev)] == prev
        prev = cur


def test_sorted_order_agrees_with_query():
    gen = RandomSource(23).generator()
    pts = gen.random((30, 2))
    s = SampleSet(pts, gen.integers(0, 2, 30))
    idx = NeighborIndex(s)
    x = gen.random(2)
    dist, order = idx.sorted_order(x)
    assert (np.diff(dist) >= 0).all()
    nl = idx.query(x, 30)
    np.testing.assert_array_equal(order, nl.indices)
    oracle_idx, _ = brute_force_order(pts, x)
    assert order.tolist() == oracle_idx


def test_permutation_invariance():
    gen = RandomSource(31).generator()
    pts = gen.random((40, 2))
    labels = gen.integers(0, 2, 40)
    x = gen.random(2)
    perm = gen.permutation(40)
    nl = NeighborIndex(SampleSet(pts, labels)).query(x, 7)
    nl_p = NeighborIndex(SampleSet(pts[perm], labels[perm])).query(x, 7)
    # random continuous points: distances distinct, so the same physical
    # neighbors come back regardless of storage order
    np.testing.assert_allclose(nl.distances, nl_p.distances, rtol=1e-12)
    np.testing.assert_array_equal(pts[nl.indices], pts[perm][nl_p.indices])
    assert nl.label_sum == nl_p.label_sum


def test_batch_matches_single():
    gen = RandomSource(47).generator()
    pts = gen.random((60, 3))
    s = SampleSet(pts, gen.integers(0, 2, 60))
    idx = NeighborIndex(s)
    xs = gen.random((20, 3))
    for k in (1, 5, 60):
        dists, nbrs = idx.query_batch(xs, k)
        assert dists.shape == (20, k)
        for row in range(20):
            nl = idx.query(xs[row], k)
            assert nbrs[row].tolist() == nl.indices.tolist()
            np.testing.assert_allclose(dists[row], nl.distances, rtol=1e-12)


def test_batch_with_ties_reroutes_to_canonical():
    # duplicate training points force distance ties in every row
    s = make_set([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], [0, 1, 1, 0])
    idx = NeighborIndex(s)
    xs = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    dists, nbrs = idx.query_batch(xs, 2)
    for row in range(3):
        nl = idx.query(xs[row], 2)
        assert nbrs[row].tolist() == nl.indices.tolist()
        np.testing.assert_array_equal(dists[row], nl.distances)


def test_batch_edge_cases():
    s = make_set([[0.0], [1.0]], [0, 1])
    idx = NeighborIndex(s)
    d0, i0 = idx.query_batch(np.empty((0, 1)), 2)
    assert d0.shape[0] == 0 and i0.shape[0] == 0
    d1, i1 = idx.query_batch([[0.5]], 0)
    assert d1.shape == (1, 0)
    with pytest.raises(ValueError, match="must be \\(m, d\\)"):
        idx.query_batch(np.zeros(3), 1)


def test_non_finite_query_is_rejected_and_named():
    s = make_set([[0.0, 0.0], [1.0, 1.0]], [0, 1])
    idx = NeighborIndex(s)
    with pytest.raises(ValueError, match=r"query \[nan, 0.5\] has a non-finite"):
        idx.query([np.nan, 0.5], 1)
    with pytest.raises(ValueError, match=r"query \[inf, 0.0\] has a non-finite"):
        idx.sorted_order([np.inf, 0.0])
    with pytest.raises(ValueError, match=r"query \[0.5, -inf\] has a non-finite"):
        idx.query_batch([[0.0, 0.0], [0.5, -np.inf]], 1)
    with pytest.raises(ValueError, match="non-finite"):
        merged_order([s, s], [np.nan, 0.0])


# ---------------------------------------------------------------- merged


def test_merged_order_tie_prefers_target():
    # one P and one Q point, both at distance 1 from the query
    p = make_set([[1.0, 0.0]], [1])
    q = make_set([[0.0, 1.0]], [0])
    mo = merged_order([q, p], [0.0, 0.0])
    assert mo.group.tolist() == [0, 1]  # Q (group 0) wins the tie
    assert mo.labels.tolist() == [0, 1]
    assert mo.n_groups == 2


def test_merged_knn_split_counts():
    p = make_set([[0.1], [0.2], [0.3]], [1, 1, 1])
    q = make_set([[0.15], [0.4]], [0, 0])
    ds = TransferDataset(p, q)
    p_list, q_list = merged_knn(ds, [0.0], 5)
    assert len(p_list) == 3
    assert len(q_list) == 2
    assert p_list.label_sum == 3
    assert q_list.label_sum == 0
    # indices refer to positions inside each origin set
    assert sorted(p_list.indices.tolist()) == [0, 1, 2]
    assert sorted(q_list.indices.tolist()) == [0, 1]


def test_merged_knn_equidistant_pair():
    p = make_set([[1.0, 0.0]], [1])
    q = make_set([[0.0, 1.0]], [0])
    ds = TransferDataset(p, q)
    # k = 1 takes only the Q point because of the tie priority
    p_list, q_list = merged_knn(ds, [0.0, 0.0], 1)
    assert (len(p_list), len(q_list)) == (0, 1)
    p_list, q_list = merged_knn(ds, [0.0, 0.0], 2)
    assert (len(p_list), len(q_list)) == (1, 1)


def test_merged_knn_validates_k():
    ds = TransferDataset(make_set([[0.0]], [1]), make_set([[1.0]], [0]))
    with pytest.raises(ValueError, match="exceeds the 2 available"):
        merged_knn(ds, [0.0], 3)
    with pytest.raises(ValueError, match=">= 0"):
        merged_knn(ds, [0.0], -1)


def test_merged_knn_prefix_monotone():
    gen = RandomSource(59).generator()
    p = SampleSet(gen.random((12, 2)), gen.integers(0, 2, 12))
    q = SampleSet(gen.random((8, 2)), gen.integers(0, 2, 8))
    ds = TransferDataset(p, q)
    x = gen.random(2)
    prev_p, prev_q = [], []
    for k in range(1, 21):
        p_list, q_list = merged_knn(ds, x, k)
        assert len(p_list) + len(q_list) == k
        assert p_list.indices.tolist()[: len(prev_p)] == prev_p
        assert q_list.indices.tolist()[: len(prev_q)] == prev_q
        prev_p = p_list.indices.tolist()
        prev_q = q_list.indices.tolist()


def test_merged_order_distances_ascend_and_labels_match():
    gen = RandomSource(61).generator()
    sets = [
        SampleSet(gen.random((n, 3)), gen.integers(0, 2, n)) for n in (5, 7, 3)
    ]
    x = gen.random(3)
    mo = merged_order(sets, x)
    assert len(mo) == 15
    assert (np.diff(mo.distances) >= 0).all()
    for pos in range(len(mo)):
        g = int(mo.group[pos])
        wi = int(mo.within_index[pos])
        assert mo.labels[pos] == sets[g].labels[wi]
        d = math.dist(sets[g].points[wi], x)
        assert math.isclose(d, float(mo.distances[pos]), rel_tol=1e-12)


def test_merged_order_handles_empty_sets():
    q = make_set([[0.0]], [1])
    mo = merged_order([q, SampleSet.empty(1)], [0.5])
    assert len(mo) == 1
    assert mo.n_groups == 2
    mo_all_empty = merged_order([SampleSet.empty(2), SampleSet.empty(2)], [0.0, 0.0])
    assert len(mo_all_empty) == 0
    assert isinstance(mo_all_empty, MergedOrder)


def test_merged_order_multi_groups():
    s1 = make_set([[0.3]], [1])
    s2 = make_set([[0.6]], [0])
    q = make_set([[0.1]], [1])
    mo = merged_order([q, s1, s2], [0.0])
    assert mo.group.tolist() == [0, 1, 2]  # Q nearest, then source 1, then 2
    assert mo.n_groups == 3
