"""Exact nearest-neighbor search with deterministic tie-breaking.

All queries use the Euclidean norm, summed in coordinate order by one kernel
(``_squared_distances``), and are exact. Every path that takes a query, here and
in ``simulation.DriftModel.eta_q``, checks it with ``_check_query`` (d finite
coordinates). Neighbor order is canonical: ascending distance, ties broken by
ascending sample index; merged queries also break cross-set ties by set order
(target first). Ties are exact float equality.

One primitive per query shape: one query is ordered by ``merged_order``, which
every single-query classifier reads; many go through the k-d tree of
``NeighborIndex.query_batch``, which returns plain (distances, indices)
arrays. Each sorts only what its reader reads:

* ``merged_order`` sorts all n points once, when its arrays are first read;
  the adaptive scan's first block reads ``MergedOrder.head`` and sorts only
  the points it scans;
* ``_k_nearest``, shared by ``query`` and the batch rows below, sorts only
  the points at or within the k-th distance;
* a batch row with no tie keeps the tree's order; one with ties inside its
  k nearest re-sorts those k; one with a tie at the cut sorts the tree's
  ball around its k-th distance; only a row with overflowing distances (no
  floating-point warning) or a short ball goes through ``query``. The tie
  tolerance is relative to the row's own k-th distance, and no result
  depends on the tree's internal ordering.

Every sort of one distance vector is one primitive, ``_canonical_argsort``: a
default argsort, then one integer sort of the runs of equal distances by
position (``_sort_ties``). The batch re-sorts its inner-tie rows together, by
one row-wise ``np.lexsort`` on (distance, index).

One ``MergedOrder`` serves every method scored on its query: filtered to one
set it is that set's order, and with each run of equal distances regrouped by
pooled position it is the order of ``core.pooled_sample_set`` (S_1..S_m, Q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import SampleSet

__all__ = [
    "NeighborIndex",
    "MergedOrder",
    "merged_order",
]

# Relative slack for tie detection in query_batch, where the k-d tree's
# distances and _distances may differ in the last ulps.
_TIE_RTOL = 1e-9


def _sort_ties(d: np.ndarray, key: np.ndarray) -> np.ndarray:
    """key, a permutation of 0..n-1, sorted within each run of equal values of the
    ascending d: np.sort(run * n + key) - run * n, as runs keep their places (n < 3e9)."""
    tie = d[1:] == d[:-1]
    if not tie.any():
        return key
    offset = np.concatenate(([0], np.cumsum(~tie))) * d.shape[0]
    return np.sort(offset + key) - offset


def _canonical_argsort(dist: np.ndarray) -> np.ndarray:
    """Indices sorting dist by (distance, index): np.lexsort((arange(n), dist)).
    The default argsort is not stable; ``_sort_ties`` restores index order."""
    order = np.argsort(dist)
    return _sort_ties(dist[order], order)


def _k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k nearest entries of dist (1 <= k <= len(dist)) in (distance,
    position) order: an argpartition finds the k-th distance, and only the entries at
    or within it go through the canonical sort."""
    dmax = dist[np.argpartition(dist, k - 1)[:k]].max()
    # cand ascends, so its positions order like those of dist.
    cand = np.flatnonzero(dist <= dmax)
    return cand[_canonical_argsort(dist[cand])][:k]


def _check_query(x, d: int) -> np.ndarray:
    """x as float64, if each point has d finite coordinates; one whole-array test when so."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (d,):
        raise ValueError(f"query has dimension {x.shape[-1] if x.ndim else 0}, need {d}")
    if not np.isfinite(x).all():
        rows = x.reshape(-1, d)
        bad = rows[np.argmin(np.isfinite(rows).all(axis=1))]
        raise ValueError(f"query {bad.tolist()} has a non-finite coordinate")
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
        self.sample_set = sample_set
        self.points = sample_set.points
        self.n = len(sample_set)
        self.d = sample_set.d

    def _k_eff(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return min(int(k), self.n)

    def sorted_order(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of all n samples in canonical order: query(x, n)."""
        return self.query(x, self.n)

    def query(self, x, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest samples to x in canonical order: a row of ``query_batch``.

        Returns (distances, indices), both of length min(k, n), from one
        distance pass and ``_k_nearest`` (k = n included). k = 0 or an empty
        index gives empty float64/int64 arrays. Raises on dimension mismatch
        or negative k.
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
        * ties inside its k nearest only: the neighbor set is exact, and its k
          rows are re-sorted by exact ``_distances`` and index;
        * a tie at the cut: the tree's ball of radius k-th distance plus the
          tolerance, through ``_k_nearest``;
        * distances that overflow, or a ball of fewer than k points: all n
          samples, through ``query()``.

        Re-sorted rows carry exact distances, the others the tree's.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2:
            raise ValueError(f"xs must be (m, d), got shape {xs.shape}")
        _check_query(xs, self.d)
        k_eff = self._k_eff(k)
        m = xs.shape[0]
        if k_eff == 0 or m == 0:
            return np.empty((m, 0)), np.empty((m, 0), dtype=np.int64)
        k_probe = min(k_eff + 1, self.n)
        tree = cKDTree(self.points)
        dist, idx = tree.query(xs, k=k_probe, workers=-1)
        dist = np.atleast_2d(dist.reshape(m, k_probe))
        idx = np.atleast_2d(idx.reshape(m, k_probe))
        # The tree reports an overflowed distance as a missing neighbor, so
        # gaps are taken only on rows whose k included distances are finite.
        tol = _TIE_RTOL * np.maximum(dist[:, k_eff - 1], 1.0)
        finite = np.isfinite(tol)
        tie = np.diff(dist if finite.all() else dist[finite], axis=1) <= tol[finite, None]
        tied, at_cut = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
        tied[finite] = tie.any(axis=1)
        if k_probe > k_eff:
            at_cut[finite] = tie[:, k_eff - 1]
        out_d = dist[:, :k_eff].copy()
        out_i = idx[:, :k_eff].astype(np.int64)
        inner = np.flatnonzero(tied & ~at_cut)
        if inner.size:
            cand = out_i[inner]
            exact = _distances(self.points[cand], xs[inner, None])
            order = np.lexsort((cand, exact))  # row by row
            out_i[inner] = np.take_along_axis(cand, order, axis=1)
            out_d[inner] = np.take_along_axis(exact, order, axis=1)
        cut = np.flatnonzero(at_cut)
        full = ~finite
        if cut.size:
            radius = out_d[cut, -1] + tol[cut]
            balls = tree.query_ball_point(xs[cut], radius, return_sorted=True)
            for row, ball in zip(cut, balls):
                cand = np.asarray(ball, dtype=np.int64)
                if len(cand) < k_eff:
                    full[row] = True
                    continue
                exact = _distances(self.points[cand], xs[row])
                pos = _k_nearest(exact, k_eff)
                out_d[row], out_i[row] = exact[pos], cand[pos]
        # an exact distance may overflow where the tree's did not
        full |= ~np.isfinite(out_d[:, -1])
        for row in np.flatnonzero(full):
            out_d[row], out_i[row] = self.query(xs[row], k_eff)
        return out_d, out_i


_ARRAYS = ("distances", "group", "within_index", "labels")


@dataclass(frozen=True, eq=False)
class MergedOrder:
    """All points of several sample sets sorted by distance to one query.

    ``group`` holds the origin of each position: 0 for the target (Q) set,
    1..m for source sets in order. Ties resolve by (distance, group, index
    within set). ``within_index`` is each point's index inside its own set.
    The four arrays are read-only, so the views below (``pooled_labels``
    may return ``labels`` itself) cannot alter the order.

    An order from ``merged_order`` sorts nothing when made: it builds the
    four arrays, with one sort of all n points, when one of them is first
    read. Before that, ``head(k)`` sorts only the k nearest, and ``len``
    sorts nothing.
    """

    distances: np.ndarray
    group: np.ndarray
    within_index: np.ndarray
    labels: np.ndarray
    n_groups: int

    def __getattr__(self, name):
        # Reached only for an unset attribute: an array of an order from
        # merged_order that has not been read yet.
        unsorted = self.__dict__.get("_unsorted")
        if unsorted is None or name not in _ARRAYS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        order = _canonical_argsort(unsorted[0])
        for field, a in zip(_ARRAYS, (unsorted[0][order], *self._at(order))):
            a.setflags(write=False)
            object.__setattr__(self, field, a)
        return self.__dict__[name]

    def _at(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(group, within_index, labels) of the given positions of the unsorted order."""
        _, labels, owner, starts = self.__dict__["_unsorted"]
        group = owner[pos]
        return group, pos - starts[group], labels[pos]

    def __len__(self) -> int:
        unsorted = self.__dict__.get("_unsorted")
        return (self.distances if unsorted is None else unsorted[0]).shape[0]

    def head(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(group[:k], labels[:k]): slices of the arrays once built; before that,
        for 0 < k < len, only the k nearest points are sorted (``_k_nearest``)."""
        if "labels" in self.__dict__ or not 0 < k < len(self):
            return self.group[:k], self.labels[:k]
        group, _, labels = self._at(_k_nearest(self._unsorted[0], k))
        return group, labels

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
        by_pos = np.empty_like(self.labels)
        by_pos[pos] = self.labels
        return by_pos[_sort_ties(self.distances, pos)]


def merged_order(sets: list[SampleSet], x) -> MergedOrder:
    """Merge several sample sets into one distance-sorted sequence.

    sets[0] is the target set (tie priority first), the rest follow in
    order. The per-set distances are concatenated in set order and sorted
    by (distance, position), which is (distance, group, index within set)
    because a position is the set's offset plus the index within it. The
    sort waits for the order's first read (see ``MergedOrder``).
    """
    for s in sets:
        x = _check_query(x, s.d)
    sizes = [len(s) for s in sets]
    dist = np.concatenate([_distances(s.points, x) for s in sets])
    labels = np.concatenate([s.labels for s in sets])
    owner = np.repeat(np.arange(len(sets)), sizes)  # the group of each position
    mo = object.__new__(MergedOrder)
    vars(mo).update(n_groups=len(sets),
                    _unsorted=(dist, labels, owner, np.cumsum(sizes) - sizes))
    return mo
