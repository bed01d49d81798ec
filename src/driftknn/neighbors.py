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
arrays. A batch row with a distance tie detected near the cut, or with
overflowing distances (no floating-point warning), is rerouted through
``NeighborIndex.query``, so results never depend on the tree's internal
ordering; the tie tolerance is relative to the row's own k-th distance.
``merged_order`` and the boundary of ``query`` sort one distance vector with
one primitive, ``_canonical_argsort``: a default argsort, then one integer
sort of the runs of equal distances by position (``_sort_ties``).

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

        Returns (distances, indices), both of length min(k, n). An
        argpartition finds the k-th distance (k = n included); every sample at
        or within it is then ordered by the canonical sort. k = 0 or an empty
        index gives empty float64/int64 arrays. Raises on dimension mismatch
        or negative k.
        """
        x = _check_query(x, self.d)
        k_eff = self._k_eff(k)
        if k_eff == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        dist = _distances(self.points, x)
        dmax = dist[np.argpartition(dist, k_eff - 1)[:k_eff]].max()
        # cand ascends, so its positions order like the sample indices.
        cand = np.flatnonzero(dist <= dmax)
        order = cand[_canonical_argsort(dist[cand])][:k_eff]
        return dist[order], order

    def query_batch(self, xs, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors for each row of xs.

        Returns (distances, indices), each of shape (m, min(k, n)). The
        neighbor set per row is exact. A row is recomputed on the canonical
        path when two adjacent ones of its k + 1 tree distances lie within
        _TIE_RTOL times its own k-th distance (or 1, if larger), or when its
        distances overflow; one far query does not widen the tolerance of
        the other rows. Every row is in canonical order, the order ``query()``
        gives: a row that is not rerouted has no two of its k + 1 distances
        within the tolerance, so its ascending distances fix its order.
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
        dist, idx = cKDTree(self.points).query(xs, k=k_probe, workers=-1)
        dist = np.atleast_2d(dist.reshape(m, k_probe))
        idx = np.atleast_2d(idx.reshape(m, k_probe))
        # A row needs exact treatment if any two of its k + 1 probed distances
        # could tie (the first excluded neighbor against the last included
        # one, or an included pair, whose order the tree does not promise),
        # or if a distance overflowed: the tree reports those as missing
        # neighbors. The tolerance scales with the row's own k-th distance,
        # and gaps are taken only on rows whose included distances are finite.
        finite = np.isfinite(dist[:, k_eff - 1])
        rows = dist if finite.all() else dist[finite]
        gap = np.diff(rows, axis=1).min(axis=1, initial=np.inf)
        suspect = ~finite
        suspect[finite] = gap <= _TIE_RTOL * np.maximum(rows[:, k_eff - 1], 1.0)
        out_d = dist[:, :k_eff].copy()
        out_i = idx[:, :k_eff].astype(np.int64)
        for row in np.flatnonzero(suspect):
            out_d[row], out_i[row] = self.query(xs[row], k_eff)
        return out_d, out_i


@dataclass(frozen=True, eq=False)
class MergedOrder:
    """All points of several sample sets sorted by distance to one query.

    ``group`` holds the origin of each position: 0 for the target (Q) set,
    1..m for source sets in order. Ties resolve by (distance, group, index
    within set). ``within_index`` is each point's index inside its own set.
    ``merged_order`` makes the four arrays read-only, so the views below
    (``pooled_labels`` may return ``labels`` itself) cannot alter the order.
    """

    distances: np.ndarray
    group: np.ndarray
    within_index: np.ndarray
    labels: np.ndarray
    n_groups: int

    def __len__(self) -> int:
        return self.distances.shape[0]

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
    once by (distance, position), which is (distance, group, index within
    set) because a position is the set's offset plus the index within it.
    """
    for s in sets:
        x = _check_query(x, s.d)
    sizes = [len(s) for s in sets]
    dist = np.concatenate([_distances(s.points, x) for s in sets])
    order = _canonical_argsort(dist)
    group = np.repeat(np.arange(len(sets)), sizes)[order]
    within = order - (np.cumsum(sizes) - sizes)[group]
    labels = np.concatenate([s.labels for s in sets])[order]
    arrays = (dist[order], group, within, labels)
    for a in arrays:
        a.setflags(write=False)
    return MergedOrder(*arrays, len(sets))
