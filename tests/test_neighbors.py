"""Exact neighbor search against a brute-force oracle."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftknn.core import RandomSource, SampleSet, TransferDataset, pooled_sample_set
from driftknn.neighbors import (
    MergedOrder,
    NeighborIndex,
    _canonical_argsort,
    _distances,
    _squared_distances,
    merged_order,
)
from driftknn.simulation import DriftModel


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


def test_query_batch_refuses_a_negative_k():
    idx = NeighborIndex(make_set([[0.0], [1.0]], [0, 1]))
    with pytest.raises(ValueError, match=r"^k must be >= 0, got -1$"):
        idx.query_batch([[0.0], [1.0]], -1)


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


def tie_branch(dist_sorted, k):
    """Where a row's exact ties lie: at the cut (k-th against (k+1)-th), only
    inside its k nearest, nowhere among its k + 1 nearest, or overflow."""
    if not np.isfinite(dist_sorted[k - 1]):
        return "overflow"
    if k < len(dist_sorted) and dist_sorted[k] == dist_sorted[k - 1]:
        return "cut"
    return "inner" if (np.diff(dist_sorted[:k]) == 0).any() else "none"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_batch_rows_are_lexsort_rows_without_a_full_query_on_tie_heavy_lattices():
    # Many rows per batch on lattices with duplicate points: every row equals
    # np.lexsort's, and only a row whose distances overflow runs query() over
    # all n samples; a tie inside the k nearest or at the cut is resolved from
    # the tree's own candidates.
    gen = RandomSource(71).generator()
    seen = set()
    for grid in (8, 20, 128):
        # the left half of the points comes twice, so most rows see exact ties;
        # queries on the lattice tie by symmetry, queries off it rarely tie
        base = gen.integers(0, grid + 1, (120, 2)) / grid
        pts = np.vstack([base, base[base[:, 0] < 0.5][:40]])
        idx = NeighborIndex(SampleSet(pts, gen.integers(0, 2, len(pts))))
        n = len(pts)
        xs = np.vstack([gen.integers(0, grid + 1, (12, 2)) / grid,
                        0.5 + 0.5 * gen.random((8, 2)),
                        [[1e308, -1e308], [0.25, 0.5]]])
        calls = []
        query = idx.query
        idx.query = lambda x, k: calls.append(x) or query(x, k)
        for k in (1, 5, 14, n - 1, n):
            calls.clear()
            dists, nbrs = idx.query_batch(xs, k)
            branches = []
            for row, x in enumerate(xs):
                dist = _distances(pts, x)
                ref = np.lexsort((np.arange(n), dist))
                branches.append(tie_branch(dist[ref], k))
                np.testing.assert_array_equal(nbrs[row], ref[:k])
                np.testing.assert_allclose(dists[row], dist[ref[:k]], rtol=1e-12)
            overflow = [row for row, b in enumerate(branches) if b == "overflow"]
            assert overflow == [len(xs) - 2]
            assert len(calls) == 1 and np.array_equal(calls[0], xs[overflow[0]])
            seen |= {(grid, b) for b in branches}
    assert seen == {(g, b) for g in (8, 20, 128) for b in ("none", "inner", "cut", "overflow")}


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
    (distance, group, index) merged, and the merged order's views of one
    set and of the pooled set."""
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
    # the k nearest, sorted alone on a fresh order, and sliced from the built one
    for k in range(len(mo) + 1):
        for order in (merged_order(sets, x), mo):
            got_g, got_l = order.head(k)
            assert (got_g.dtype, got_l.dtype) == (mo.group.dtype, mo.labels.dtype)
            np.testing.assert_array_equal(got_g, mo.group[:k])
            np.testing.assert_array_equal(got_l, mo.labels[:k])
    # The views of the merged order, once with row ids in place of the labels,
    # so that each must reproduce an order, not only a label sequence: set g
    # alone, and the pooled set S_1..S_m, Q.
    for g, s in enumerate(sets):
        got = replace(mo, labels=mo.within_index).group_labels(g)
        np.testing.assert_array_equal(got, NeighborIndex(s).sorted_order(x)[1])
        np.testing.assert_array_equal(mo.group_labels(g), s.labels[got])
    pooled = pooled_sample_set(TransferDataset(tuple(sets[1:]), sets[0]))
    pooled_ref = np.lexsort((np.arange(len(pooled)), _distances(pooled.points, x)))
    starts = np.cumsum([0] + [len(s) for s in sets[1:]])  # S_1..S_m, then Q
    first = np.roll(starts, 1)  # the pooled row of each set's first row, Q first
    got = replace(mo, labels=first[mo.group] + mo.within_index).pooled_labels()
    np.testing.assert_array_equal(got, pooled_ref)
    np.testing.assert_array_equal(got, NeighborIndex(pooled).sorted_order(x)[1])
    np.testing.assert_array_equal(mo.pooled_labels(), pooled.labels[pooled_ref])


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


def test_merged_order_arrays_are_read_only():
    gen = np.random.default_rng(3)
    mo = merged_order([make_set(gen.random((6, 2)), gen.integers(0, 2, 6)),
                       make_set(gen.random((4, 2)), gen.integers(0, 2, 4))], [0.5, 0.5])
    for a in (mo.distances, mo.group, mo.within_index, mo.labels, mo.pooled_labels()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]


def pooled_lexsort_labels(sets, x):
    """Pooled labels by lexsort on (distance, pooled row) with S_1..S_m before Q."""
    pooled = pooled_sample_set(TransferDataset(tuple(sets[1:]), sets[0]))
    dist = _distances(pooled.points, np.asarray(x, dtype=np.float64))
    return pooled.labels[np.lexsort((np.arange(len(pooled)), dist))]


def test_pooled_labels_without_ties_are_the_merged_labels():
    gen = np.random.default_rng(11)
    sets = [make_set(gen.random((n, 2)), gen.integers(0, 2, n)) for n in (40, 25, 30)]
    x = gen.random(2)
    mo = merged_order(sets, x)
    assert len(set(mo.distances.tolist())) == len(mo)
    got = mo.pooled_labels()
    assert got is mo.labels
    np.testing.assert_array_equal(got, pooled_lexsort_labels(sets, x))


def test_pooled_labels_regroup_a_single_exact_tie():
    # Q row 0 and P row 0 lie at the same distance of the query: the merged
    # order puts Q first, the pooled one P (S_1..S_m before Q)
    gen = np.random.default_rng(12)
    q = make_set(np.vstack([[0.5, 0.75], 0.4 + 0.2 * gen.random((9, 2))]),
                 np.r_[1, gen.integers(0, 2, 9)])
    p = make_set(np.vstack([[0.75, 0.5], 0.4 + 0.2 * gen.random((7, 2))]),
                 np.r_[0, gen.integers(0, 2, 7)])
    x = [0.5, 0.5]
    mo = merged_order([q, p], x)
    assert len(set(mo.distances.tolist())) == len(mo) - 1
    tie = np.flatnonzero(mo.distances[1:] == mo.distances[:-1])[0]
    np.testing.assert_array_equal(mo.labels[tie:tie + 2], [1, 0])
    got = mo.pooled_labels()
    np.testing.assert_array_equal(got[tie:tie + 2], [0, 1])
    np.testing.assert_array_equal(got, pooled_lexsort_labels([q, p], x))


# ---------------------------------------------------------------- distance kernel


def kernel_rows(d, lattice, seed=0, n=500):
    gen = np.random.default_rng(seed)
    points, x = gen.random((n, d)), gen.random(d)
    if lattice:
        points, x = np.round(points * 128) / 128, np.round(x * 128) / 128
    return points, x


@pytest.mark.parametrize("lattice", [False, True])
@pytest.mark.parametrize("d", range(1, 8))
def test_squared_distances_match_the_numpy_spellings(d, lattice):
    # the coordinate-order sum equals a last-axis sum up to d = 7, and the
    # einsum product at d <= 2 (einsum may pair lanes from d = 3 on)
    points, x = kernel_rows(d, lattice, seed=d)
    got = _squared_distances(points, x)
    np.testing.assert_array_equal(got, ((points - x) ** 2).sum(axis=-1))
    if d <= 2 or lattice:
        diff = points - x
        np.testing.assert_array_equal(got, np.einsum("ij,ij->i", diff, diff))
    np.testing.assert_array_equal(np.sqrt(got), _distances(points, x))
    # one point is the same number as its row of the batch
    assert _squared_distances(points[7], x) == got[7]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_model_sampler_and_index_share_the_kernel(d):
    model, center = DriftModel(0.8, 0.3, d, test_radius=0.3), np.full(d, 0.5)
    points, _ = kernel_rows(d, lattice=False, seed=10 + d)
    np.testing.assert_array_equal(
        model.eta_q(points), np.maximum(0.8 - _distances(points, center), 0.5))
    assert model.eta_q(points[3]) == model.eta_q(points)[3]
    # the ball test of the sampler: replay its rejection stream with the kernel; d = 8 is
    # the last dimension where the ball fills 1% of its cube and rejection is used
    r, n = model.test_radius, 50
    got = model.sample_test_points(n, RandomSource(5))
    gen, want = RandomSource(5).generator(), []
    while len(want) < n:
        cand = center + r * (2.0 * gen.random((max(64, 2 * (n - len(want))), d)) - 1.0)
        want += list(cand[_squared_distances(cand, center) <= r * r])[:n - len(want)]
    np.testing.assert_array_equal(got, np.array(want))


def test_merged_order_ties_on_a_d3_lattice_do_not_depend_on_summation_order():
    # squares of k/128 add exactly in any order, so the einsum distances and
    # the kernel's agree, and so does every tie of the merged order
    gen = np.random.default_rng(3)
    sets = [make_set(gen.integers(0, 9, size=(n, 3)) / 8, gen.integers(0, 2, n))
            for n in (120, 80, 60)]
    x = np.array([0.5, 0.25, 0.625])
    diffs = [s.points - x for s in sets]
    einsum = np.sqrt(np.concatenate([np.einsum("ij,ij->i", q, q) for q in diffs]))
    np.testing.assert_array_equal(np.concatenate([_distances(s.points, x) for s in sets]), einsum)
    group = np.concatenate([np.full(len(s), g) for g, s in enumerate(sets)])
    within = np.concatenate([np.arange(len(s)) for s in sets])
    ref = np.lexsort((within, group, einsum))
    mo = merged_order(sets, x)
    assert (np.diff(mo.distances) == 0).sum() > 150
    np.testing.assert_array_equal(mo.distances, einsum[ref])
    np.testing.assert_array_equal(mo.group, group[ref])
    np.testing.assert_array_equal(mo.within_index, within[ref])
