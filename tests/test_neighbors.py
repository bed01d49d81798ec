"""Exact neighbor search against a brute-force oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftknn.core import RandomSource, SampleSet
from driftknn.neighbors import (
    MergedOrder,
    NeighborIndex,
    _canonical_argsort,
    _distances,
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


def merged_knn(sets, x, k):
    """Reference split of the merged order's first k positions by group:
    per set, (indices within the set, labels), in merged order."""
    mo = merged_order(sets, x)
    head = slice(0, k)
    return [(mo.within_index[head][mask], mo.labels[head][mask])
            for mask in (mo.group[head] == g for g in range(len(sets)))]


def test_query_simple():
    s = make_set([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]], [1, 0, 1])
    dist, nbrs = NeighborIndex(s).query([0.1, 0.0], 2)
    assert nbrs.tolist() == [0, 2]
    assert s.labels[nbrs].tolist() == [1, 1]
    np.testing.assert_allclose(dist, [0.1, 0.9])


def test_tie_breaks_by_lower_index():
    # both points sit at distance 1 from the origin
    s = make_set([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    assert NeighborIndex(s).query([0.0, 0.0], 1)[1].tolist() == [0]
    # flip the storage order and the other point wins
    s2 = make_set([[1.0, 0.0], [0.0, 1.0]], [1, 0])
    nbrs = NeighborIndex(s2).query([0.0, 0.0], 1)[1]
    assert nbrs.tolist() == [0]
    assert s2.labels[nbrs].tolist() == [1]


def test_query_edge_cases():
    s = make_set([[0.0], [1.0]], [0, 1])
    idx = NeighborIndex(s)
    with pytest.raises(ValueError, match="k must be >= 0"):
        idx.query([0.0], -1)
    with pytest.raises(ValueError, match="dimension"):
        idx.query([0.0, 1.0], 1)
    # query, sorted_order and a one-row query_batch give the same float64 /
    # int64 arrays at k = 0, at k beyond n (everything) and on an empty index
    empty = NeighborIndex(SampleSet.empty(1))
    for index, k, n_out in ((idx, 0, 0), (idx, 10, 2), (empty, 3, 0)):
        all_d, all_i = index.sorted_order([0.0])
        batch_d, batch_i = index.query_batch([[0.0]], k)
        for dist, nbrs in (index.query([0.0], k), (all_d[:k], all_i[:k]),
                           (batch_d[0], batch_i[0])):
            assert (dist.dtype, nbrs.dtype) == (np.float64, np.int64)
            np.testing.assert_array_equal(dist, all_d[:n_out])
            np.testing.assert_array_equal(nbrs, all_i[:n_out])
        assert len(all_i) == len(index.sample_set)


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
            dist, nbrs = idx.query(x, k)
            assert nbrs.tolist() == oracle_idx[:k]
            np.testing.assert_allclose(dist, oracle_dist[:k], rtol=1e-12)


def test_query_with_duplicate_points():
    # four copies of the same point plus one farther away
    s = make_set([[0.5, 0.5]] * 4 + [[0.9, 0.9]], [1, 0, 1, 0, 1])
    dist, nbrs = NeighborIndex(s).query([0.5, 0.5], 3)
    assert nbrs.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(dist, 0.0)


def test_prefix_property():
    gen = RandomSource(17).generator()
    pts = gen.random((25, 3))
    idx = NeighborIndex(SampleSet(pts, gen.integers(0, 2, 25)))
    x = gen.random(3)
    prev = []
    for k in range(1, 26):
        cur = idx.query(x, k)[1].tolist()
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
    np.testing.assert_array_equal(order, idx.query(x, 30)[1])
    oracle_idx, _ = brute_force_order(pts, x)
    assert order.tolist() == oracle_idx


def test_permutation_invariance():
    gen = RandomSource(31).generator()
    pts = gen.random((40, 2))
    labels = gen.integers(0, 2, 40)
    x = gen.random(2)
    perm = gen.permutation(40)
    dist, nbrs = NeighborIndex(SampleSet(pts, labels)).query(x, 7)
    dist_p, nbrs_p = NeighborIndex(SampleSet(pts[perm], labels[perm])).query(x, 7)
    # random continuous points: distances distinct, so the same physical
    # neighbors come back regardless of storage order
    np.testing.assert_allclose(dist, dist_p, rtol=1e-12)
    np.testing.assert_array_equal(pts[nbrs], pts[perm][nbrs_p])
    assert labels[nbrs].sum() == labels[perm][nbrs_p].sum()


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
            dist, nbr = idx.query(xs[row], k)
            assert nbrs[row].tolist() == nbr.tolist()
            np.testing.assert_allclose(dists[row], dist, rtol=1e-12)


def test_batch_with_ties_reroutes_to_canonical():
    # duplicate training points force distance ties in every row
    s = make_set([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], [0, 1, 1, 0])
    idx = NeighborIndex(s)
    xs = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    dists, nbrs = idx.query_batch(xs, 2)
    for row in range(3):
        dist, nbr = idx.query(xs[row], 2)
        assert nbrs[row].tolist() == nbr.tolist()
        np.testing.assert_array_equal(dists[row], dist)


def test_batch_tie_tolerance_is_per_row():
    # one far query must not widen the tie window of the ordinary rows: on
    # continuous data they need no canonical recomputation at all
    gen = RandomSource(67).generator()
    idx = NeighborIndex(SampleSet(gen.random((2000, 2)), gen.integers(0, 2, 2000)))
    xs = np.vstack([gen.random((100, 2)), [[1e6, 1e6]]])
    calls = []
    query = idx.query
    idx.query = lambda x, k: calls.append(x) or query(x, k)
    dists, nbrs = idx.query_batch(xs, 14)
    assert len(calls) <= 1
    assert all(np.array_equal(c, xs[-1]) for c in calls)
    for row in (0, 50, 99, 100):
        assert nbrs[row].tolist() == query(xs[row], 14)[1].tolist()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_batch_overflow_warns_no_invalid_value():
    s = make_set([[1e308, 0.0], [-1e308, 0.0], [1e308, 1e308]], [0, 1, 0])
    idx = NeighborIndex(s)
    xs = np.array([[-1e308, 0.0], [0.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dists, nbrs = idx.query_batch(xs, 2)
    assert not [w for w in caught if "invalid value" in str(w.message)]
    for row in range(2):
        assert nbrs[row].tolist() == idx.query(xs[row], 2)[1].tolist()


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
    (q_idx, q_lab), (p_idx, p_lab) = merged_knn([q, p], [0.0], 5)
    assert p_lab.sum() == 3
    assert q_lab.sum() == 0
    # indices refer to positions inside each origin set
    assert p_idx.tolist() == [0, 1, 2]
    assert q_idx.tolist() == [0, 1]
    (q_idx, _), (p_idx, _) = merged_knn([q, p], [0.0], 3)
    assert (p_idx.tolist(), q_idx.tolist()) == ([0, 1], [0])


def test_merged_knn_equidistant_pair():
    p = make_set([[1.0, 0.0]], [1])
    q = make_set([[0.0, 1.0]], [0])
    # k = 1 takes only the Q point because of the tie priority
    (q_idx, _), (p_idx, _) = merged_knn([q, p], [0.0, 0.0], 1)
    assert (len(p_idx), len(q_idx)) == (0, 1)
    (q_idx, _), (p_idx, _) = merged_knn([q, p], [0.0, 0.0], 2)
    assert (len(p_idx), len(q_idx)) == (1, 1)
    # with P listed first, P takes the tie
    (p_idx, _), (q_idx, _) = merged_knn([p, q], [0.0, 0.0], 1)
    assert (len(p_idx), len(q_idx)) == (1, 0)


def test_merged_knn_prefix_monotone():
    # every group's share of the first k merged positions is that set's own
    # canonical k_g nearest, so the shares only grow by appending
    gen = RandomSource(59).generator()
    sets = [SampleSet(gen.integers(0, 4, (n, 2)) / 3, gen.integers(0, 2, n)) for n in (8, 12, 5)]
    x = gen.integers(0, 4, 2) / 3
    prev = [[] for _ in sets]
    for k in range(1, 26):
        shares = [nbrs.tolist() for nbrs, _ in merged_knn(sets, x, k)]
        assert sum(map(len, shares)) == k
        for s, share, before in zip(sets, shares, prev):
            assert share == NeighborIndex(s).query(x, len(share))[1].tolist()
            assert share[: len(before)] == before
        prev = shares


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


# ---------------------------------------------------------------- one sort


def assert_orders_match_lexsort(sets, x):
    """Every ordering path, the k-d tree batch path included, against
    np.lexsort on the same float distances: (distance, index) in each set,
    (distance, group, index) merged."""
    x = np.asarray(x, dtype=np.float64)
    dists = [_distances(s.points, x) for s in sets]
    for s, dist in zip(sets, dists):
        ref = np.lexsort((np.arange(len(s)), dist))
        np.testing.assert_array_equal(_canonical_argsort(dist), ref)
        idx = NeighborIndex(s)
        got_d, got_i = idx.sorted_order(x)
        np.testing.assert_array_equal(got_i, ref)
        np.testing.assert_array_equal(got_d, dist[ref])
        for k in range(len(s) + 1):
            got_d, got_i = idx.query(x, k)
            np.testing.assert_array_equal(got_i, ref[:k])
            np.testing.assert_array_equal(got_d, dist[ref[:k]])
            # tree distances may differ from _distances in the last ulps
            batch_d, batch_i = idx.query_batch(x[None], k)
            np.testing.assert_array_equal(batch_i, ref[None, :k])
            np.testing.assert_allclose(batch_d, dist[None, ref[:k]], rtol=1e-12)
    dist = np.concatenate(dists)
    group = np.concatenate([np.full(len(s), g) for g, s in enumerate(sets)])
    within = np.concatenate([np.arange(len(s)) for s in sets])
    ref = np.lexsort((within, group, dist))
    mo = merged_order(sets, x)
    assert mo.n_groups == len(sets)
    np.testing.assert_array_equal(mo.distances, dist[ref])
    np.testing.assert_array_equal(mo.group, group[ref])
    np.testing.assert_array_equal(mo.within_index, within[ref])
    np.testing.assert_array_equal(mo.labels, np.concatenate([s.labels for s in sets])[ref])


@settings(derandomize=True, deadline=None, max_examples=80)
@given(sizes=st.lists(st.integers(0, 20), min_size=2, max_size=4),
       seed=st.integers(0, 2**32 - 1), grid=st.integers(1, 8), d=st.integers(1, 3))
def test_orders_match_lexsort_on_lattices(sizes, seed, grid, d):
    # sets [Q, S_1..S_m], m = 1..3, on the 1/grid lattice: duplicate points
    # and exact distance ties are common, and a set may be empty
    gen = np.random.default_rng(seed)
    sets = [make_set(gen.integers(0, grid + 1, size=(n, d)) / grid, gen.integers(0, 2, n))
            for n in sizes]
    assert_orders_match_lexsort(sets, gen.integers(0, grid + 1, size=d) / grid)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_orders_keep_exact_float_ties_only():
    one, next_up = 1.0, np.nextafter(1.0, 2.0)
    # one ulp apart is no tie: the primitive takes no tolerance
    np.testing.assert_array_equal(_canonical_argsort(np.array([next_up, one, next_up, one])),
                                  [1, 3, 0, 2])
    ulp = make_set([[next_up], [one], [next_up], [one]], [1, 0, 1, 0])
    assert len(set(_distances(ulp.points, np.zeros(1)).tolist())) == 2
    assert_orders_match_lexsort([ulp, make_set([[-one], [-next_up]], [0, 1]), ulp], [0.0])
    # distances that overflow are all inf, so they tie and go by index
    inf = np.inf
    np.testing.assert_array_equal(_canonical_argsort(np.array([inf, 0.0, inf, 1e308, inf])),
                                  [1, 3, 0, 2, 4])
    big = make_set([[1e308, 0.0], [-1e308, 0.0], [1e308, -1e308], [-1e308, 1e150], [1e308, 1.0]],
                   [1, 0, 1, 0, 1])
    x = [-1e308, 0.0]
    assert np.isinf(_distances(big.points, np.asarray(x))).sum() == 3
    assert_orders_match_lexsort([big, SampleSet.empty(2), big], x)
    # every distance overflows: the k-d tree reports no neighbor at all
    far = make_set([[1e308, 0.0], [1e308, 1.0], [1e308, -1.0]], [0, 1, 0])
    assert_orders_match_lexsort([far, big], x)
