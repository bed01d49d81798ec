"""Exact nearest-neighbor search with deterministic tie-breaking.

All queries use the Euclidean norm, summed in coordinate order by one kernel
(``_squared_distances``), and are exact. Every path that takes a query, here and
in ``simulation.DriftModel.eta_q``, checks it with ``_check_query`` (d coordinates
under ``core``'s rule, so no distance overflows). Neighbor order is canonical:
ascending distance, ties broken by ascending sample index; merged queries also
break cross-set ties by set order (target first). Ties are exact float equality.

One primitive per query shape: one query is ordered by ``merged_order``, which
every single-query classifier reads; many go through the k-d tree of
``NeighborIndex.query_batch``, which returns plain (distances, indices)
arrays. Each sorts only what its reader reads:

* ``merged_order`` sorts nothing when made and keeps the sorted prefix of
  its nearest points: the adaptive scan's first block reads
  ``MergedOrder.head`` and sorts only the points it scans; a read past
  that prefix sorts afresh;
* ``_k_nearest``, shared by ``query`` and ``MergedOrder``, sorts only
  the points at or within the k-th distance;
* a batch row with no tie keeps the tree's order; one with a tie sorts the
  tree's ball around its k-th distance. The tie tolerance is relative to
  the row's own k-th distance, and no result depends on the tree's
  internal ordering.

One sort gives the (distance, index) order of n distances in [+0.0, inf]:
``_canonical_argsort`` sorts in place one uint64 key per entry, ``(bits >>
(b - 1)) << b | index`` with b = bit_length(n - 1), as a float64's bit pattern
rises with its value. Equal distances share a key prefix and come out by index.
Distinct ones within about 2^-(53 - b) relative may share one too; then the
distances do not come out ascending, and a stable argsort of them, almost
sorted, puts them right. At n = 7000 it takes 60-80 us on the 1/128 lattice
and on continuous data, against 460-610 us for ``np.lexsort``. A batch row's
ball, tens of candidates, goes through ``np.lexsort`` on (distance, index):
about 2 us against 9-15 us for ``_canonical_argsort`` on 60 values of a 1/20
grid (2-vCPU Xeon).

One ``MergedOrder`` serves every method scored on its query: filtered to one
set it is that set's order, and with each run of equal distances regrouped by
pooled position it is the order of ``core.pooled_sample_set`` (S_1..S_m, Q).

scipy is imported only by the batch k-NN path, inside ``query_batch``:
``rate-check`` and ``predict``/``eval`` with weighted, qonly, combined or knn
load it; ``simulate`` and the scan methods (adaptive, Lepski) never do.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError

import numpy as np

from .core import BAD_COORD, MAX_COORD, SampleSet, _check_count

__all__ = [
    "NeighborIndex",
    "MergedOrder",
    "merged_order",
]

# Relative slack for tie detection in query_batch, where the k-d tree's
# distances and _distances may differ in the last ulps.
_TIE_RTOL = 1e-9


def _canonical_argsort(dist: np.ndarray) -> np.ndarray:
    """Indices sorting dist by (distance, index): np.lexsort((arange(n), dist)), for
    float64 dist in [+0.0, inf]. One in-place sort of keys, the top 64 - b bits of each
    distance over b index bits; a near tie they miss leaves dist[order] not ascending,
    and a stable argsort puts it right. 60-80 us at n = 7000, np.lexsort 460-610 us."""
    n = dist.shape[0]
    b = max(n - 1, 1).bit_length()
    key = dist.view(np.uint64) >> (b - 1) << b  # the sign bit drops out: -0.0 keys as +0.0
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    key &= (1 << b) - 1
    order = key.view(np.int64)
    d = dist[order]
    if (d[1:] < d[:-1]).any():
        order = order[np.argsort(d, kind="stable")]
    return order


def _k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k nearest entries of dist (k >= 1; all for k >= len(dist)) in
    (distance, position) order: a partition finds the k-th distance, and only the
    entries at or within it go through the canonical sort."""
    if k >= len(dist):
        return _canonical_argsort(dist)
    # cand ascends, so its positions order like those of dist.
    cand = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
    return cand[_canonical_argsort(dist[cand])][:k]


def _check_k(k, n: int | None = None) -> int:
    """k as an int: a count (``core._check_count``), or given n, an integer in [1, n]."""
    k = _check_count(k, "k", 0 if n is None else -np.inf)
    if n is not None and not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return k


def _check_query(x, d: int) -> np.ndarray:
    """x as float64, if each point has d coordinates under core's rule; one array test if so."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (d,):
        raise ValueError(f"query has dimension {x.shape[-1] if x.ndim else 0}, need {d}")
    ok = np.abs(x) <= MAX_COORD
    if not ok.all():
        bad = x.reshape(-1, d)[ok.reshape(-1, d).all(axis=1).argmin()]
        raise ValueError(f"query {bad.tolist()} has a {BAD_COORD}")
    return x


def _squared_distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances over the last axis, summed in coordinate order."""
    total = (points[..., 0] - x[..., 0]) ** 2
    for j in range(1, points.shape[-1]):
        total += (points[..., j] - x[..., j]) ** 2
    return total


def _distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.sqrt(_squared_distances(points, x))


class NeighborIndex:
    """Exact k-NN index over one SampleSet (Euclidean, canonical tie order) for
    batches of queries; one query is ordered by ``merged_order``."""

    def __init__(self, sample_set: SampleSet):
        self.points = sample_set.points
        self.n = len(sample_set)
        self.d = sample_set.d

    def _k_eff(self, k: int) -> int:
        return min(_check_k(k), self.n)

    def sorted_order(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of all n samples in canonical order: query(x, n)."""
        return self.query(x, self.n)

    def query(self, x, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest samples to x in canonical order: a row of ``query_batch``.

        Returns (distances, indices), both of length min(k, n), from one
        distance pass and ``_k_nearest`` (k = n included). k = 0 or an empty
        index gives empty float64/int64 arrays. Raises on dimension mismatch
        or a k that is not an integer >= 0.
        """
        x = _check_query(x, self.d)
        k_eff = self._k_eff(k)
        if k_eff == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        dist = _distances(self.points, x)
        order = _k_nearest(dist, k_eff)
        return dist[order], order

    def query_batch(self, xs, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors for each row of xs, each row in the order ``query()`` gives.

        Returns (distances, indices), each of shape (m, min(k, n)). The k-d
        tree probes k + 1 neighbors per row; two adjacent ones tie when their
        tree distances lie within _TIE_RTOL times the row's own k-th distance
        (or 1, if larger), so one far query does not widen the tolerance of
        the other rows. What each row then sorts:

        * no tie: nothing; its ascending tree distances fix its order;
        * a tie: the tree's ball of radius k-th distance plus the tolerance,
          by exact ``_distances`` and index (a row whose ties all lie inside
          its k nearest has a ball of exactly those k).

        Re-sorted rows carry exact distances, the others the tree's. The
        tolerance, at least 1e-9, dwarfs the tree's rounding within the
        coordinate rule, so a ball never holds fewer than k points.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2:
            raise ValueError(f"xs must be (m, d), got shape {xs.shape}")
        _check_query(xs, self.d)
        k_eff = self._k_eff(k)
        m = xs.shape[0]
        if k_eff == 0 or m == 0:
            return np.empty((m, 0)), np.empty((m, 0), dtype=np.int64)
        from scipy.spatial import cKDTree
        k_probe = min(k_eff + 1, self.n)
        tree = cKDTree(self.points)
        dist, idx = tree.query(xs, k=k_probe, workers=-1)
        dist = np.atleast_2d(dist.reshape(m, k_probe))
        idx = np.atleast_2d(idx.reshape(m, k_probe))
        tol = _TIE_RTOL * np.maximum(dist[:, k_eff - 1], 1.0)
        rows = np.flatnonzero((np.diff(dist, axis=1) <= tol[:, None]).any(axis=1))
        out_d = dist[:, :k_eff].copy()
        out_i = idx[:, :k_eff].astype(np.int64)
        balls = tree.query_ball_point(xs[rows], out_d[rows, -1] + tol[rows],
                                      return_sorted=False)
        for row, ball in zip(rows, balls):
            cand = np.asarray(ball, dtype=np.int64)
            if len(cand) < k_eff:  # not under the coordinate rule; it would broadcast
                raise RuntimeError(f"k-d ball of row {row} holds {len(cand)} < {k_eff} points")
            exact = _distances(self.points[cand], xs[row])
            pos = np.lexsort((cand, exact))[:k_eff]
            out_d[row], out_i[row] = exact[pos], cand[pos]
        return out_d, out_i


def _sorted_rows(field: int) -> functools.cached_property:
    """Row field ``field`` of a MergedOrder in the full order, gathered when first read."""
    def gather(self: MergedOrder) -> np.ndarray:
        a = self._rows[field][self._sorted(len(self))]
        a.setflags(write=False)
        return a
    return functools.cached_property(gather)


class MergedOrder:
    """All points of several sample sets sorted by distance to one query.

    The constructor takes one row per point, in any order, and sorts the
    rows by (distance, row position), so rows given in that order keep it.
    It refuses a negative or NaN distance with ValueError; -0.0 sorts as +0.0.
    ``group`` is each point's set (0 for the target Q, 1..m for the
    sources) and ``within_index`` its index in that set. The order is
    frozen and its four arrays are read-only, so the views below
    (``pooled_labels`` may return ``labels`` itself) cannot alter it.

    Nothing is sorted when the order is made. It keeps one sorted prefix,
    the positions of its nearest rows: ``head(k)`` on a fresh order sorts
    only the k nearest, and a read past the prefix sorts afresh.
    """

    def __init__(self, distances, group, within_index, labels, n_groups: int):
        distances = np.asarray(distances, dtype=np.float64)
        if not np.min(distances, initial=0.0) >= 0:  # NaN fails too
            raise ValueError("distances must be >= 0 and not NaN")
        object.__setattr__(self, "n_groups", n_groups)
        object.__setattr__(self, "_rows", (distances, group, within_index, labels))
        object.__setattr__(self, "_prefix", np.empty(0, dtype=np.int64))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    distances, group, within_index, labels = map(_sorted_rows, range(4))

    def _sorted(self, k: int) -> np.ndarray:
        """Positions of at least the min(k, len) nearest rows, in order: the prefix, or
        a fresh sort of the k nearest (``_k_nearest``) kept as the new prefix."""
        if len(self._prefix) < min(k, len(self)):
            object.__setattr__(self, "_prefix", _k_nearest(self._rows[0], k))
        return self._prefix

    def __len__(self) -> int:
        return self._rows[0].shape[0]

    def head(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(group[:k], labels[:k]), k an integer >= 0, from the kept prefix or a fresh
        sort of the k nearest rows, so a fresh order sorts only those."""
        k = _check_k(k)
        pos = self._sorted(k)
        if len(pos) == len(self):  # slice the built arrays
            return self.group[:k], self.labels[:k]
        return self._rows[1][pos[:k]], self._rows[3][pos[:k]]

    def group_labels(self, g: int) -> np.ndarray:
        """The labels of set g in its own (distance, index) order."""
        return self.labels[self.group == g]

    def pooled_labels(self) -> np.ndarray:
        """The labels in the (distance, index) order of the pooled set S_1..S_m, Q.

        With no two distances equal that order is this one, and ``labels``
        itself is returned.
        """
        if not (self.distances[1:] == self.distances[:-1]).any():
            return self.labels
        sizes = np.bincount(self.group, minlength=self.n_groups)
        start = np.cumsum(sizes) - sizes  # of each set in [Q, S_1..S_m]
        start[0] = len(self)              # Q moves behind the sources
        pos = start[self.group] - sizes[0] + self.within_index
        by_pos, dist = np.empty_like(self.labels), np.empty_like(self.distances)
        by_pos[pos], dist[pos] = self.labels, self.distances
        return by_pos[_canonical_argsort(dist)]


def merged_order(sets: list[SampleSet], x) -> MergedOrder:
    """Merge several sample sets into one distance-sorted sequence.

    sets[0] is the target set (tie priority first), the rest follow in
    order. The rows go to ``MergedOrder`` set by set, so its (distance,
    position) order is (distance, group, index within set): a position is
    the set's offset plus the index within it. Sorting waits for the
    order's reads (see ``MergedOrder``). x is one point, of shape (d,).
    """
    if not sets:
        raise ValueError("merged_order needs at least one sample set")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"a query is one point of shape (d,), got shape {x.shape}")
    for s in sets:
        x = _check_query(x, s.d)
    sizes = [len(s) for s in sets]
    return MergedOrder(np.concatenate([_distances(s.points, x) for s in sets]),
                       np.repeat(np.arange(len(sets)), sizes),
                       np.concatenate([np.arange(n) for n in sizes]),
                       np.concatenate([s.labels for s in sets]), len(sets))
