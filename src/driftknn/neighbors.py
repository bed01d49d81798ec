"""Exact nearest-neighbor search with deterministic tie-breaking.

All queries use the Euclidean norm and are exact, and a query with a
non-finite coordinate is rejected. Every ``NeighborIndex`` query returns
plain (distances, indices) arrays. Neighbor order is canonical: ascending
distance, ties broken by ascending sample index. Merged queries over several
sample sets additionally break cross-set distance ties by set priority
(target set first, then source order).

Ties are exact float equality. Every ordering path (``sorted_order``, the
boundary of ``query`` and ``merged_order``) sorts one distance vector with
one primitive, ``_canonical_argsort``: a default argsort, then one integer
sort of the runs of equal distances by position. Batch queries go through a
k-d tree for speed; any row where a distance tie is detected near the cut
is rerouted through the canonical path, so results never depend on the
tree's internal ordering. The tie tolerance is relative to each row's own
k-th distance, and rows whose distances overflow are rerouted without a
floating-point warning.
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


def _canonical_argsort(dist: np.ndarray) -> np.ndarray:
    """Indices sorting dist by (distance, index): np.lexsort((arange(n), dist)).

    The default argsort is not stable, so each run of exactly equal
    distances is put back in index order by one sort of the unique integer
    key run * n + index (exact for n < 3e9). Data without ties skip it.
    """
    order = np.argsort(dist)
    d = dist[order]
    tie = d[1:] == d[:-1]
    if not tie.any():
        return order
    n = dist.shape[0]
    run = np.concatenate(([0], np.cumsum(~tie)))
    return np.sort(run * n + order) % n


def _require_finite(x: np.ndarray):
    finite = np.isfinite(x).all(axis=-1)
    if not finite.all():
        bad = x if x.ndim == 1 else x[np.flatnonzero(~finite)[0]]
        raise ValueError(f"query {bad.tolist()} has a non-finite coordinate")


def _distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    diff = points - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class NeighborIndex:
    """Exact k-NN index over one SampleSet (Euclidean, canonical tie order)."""

    def __init__(self, sample_set: SampleSet):
        self.sample_set = sample_set
        self.points = sample_set.points
        self.labels = sample_set.labels
        self.n = len(sample_set)
        self.d = sample_set.d
        self._tree: cKDTree | None = None

    def _require_dim(self, x: np.ndarray):
        if x.shape[-1] != self.d:
            raise ValueError(f"query has dimension {x.shape[-1]}, index has {self.d}")
        _require_finite(x)

    def sorted_order(self, x) -> tuple[np.ndarray, np.ndarray]:
        """All sample indices sorted by (distance, index), with distances.

        Returns (distances, indices), both length n, distances ascending.
        """
        x = np.asarray(x, dtype=np.float64)
        self._require_dim(x)
        if self.n == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        dist = _distances(self.points, x)
        order = _canonical_argsort(dist)
        return dist[order], order

    def query(self, x, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest samples to x in canonical order.

        Returns (distances, indices), both of length min(k, n): the first
        min(k, n) entries of ``sorted_order(x)``. An argpartition finds the
        k-th distance; every sample at or within it is then ordered by the
        canonical sort. k = 0 or an empty index gives empty float64/int64
        arrays. Raises on dimension mismatch or negative k.
        """
        x = np.asarray(x, dtype=np.float64)
        self._require_dim(x)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        k_eff = min(int(k), self.n)
        if k_eff == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        dist = _distances(self.points, x)
        if k_eff >= self.n:
            order = _canonical_argsort(dist)
        else:
            part = np.argpartition(dist, k_eff - 1)[:k_eff]
            dmax = dist[part].max()
            # cand ascends, so its positions order like the sample indices.
            cand = np.flatnonzero(dist <= dmax)
            order = cand[_canonical_argsort(dist[cand])][:k_eff]
        return dist[order], order

    def _ensure_tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def query_batch(self, xs, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors for each row of xs.

        Returns (distances, indices), each of shape (m, min(k, n)). The
        neighbor set per row is exact. A row is recomputed on the canonical
        path when two adjacent ones of its k + 1 tree distances lie within
        _TIE_RTOL times its own k-th distance (or 1, if larger), or when its
        distances overflow; one far query does not widen the tolerance of
        the other rows. Distances along a row ascend, but within-row tie
        order follows the canonical rule only on rerouted rows; callers
        needing guaranteed order should use query().
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2:
            raise ValueError(f"xs must be (m, d), got shape {xs.shape}")
        self._require_dim(xs)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        m = xs.shape[0]
        k_eff = min(int(k), self.n)
        if k_eff == 0 or m == 0:
            return np.empty((m, 0)), np.empty((m, 0), dtype=np.int64)
        tree = self._ensure_tree()
        k_probe = min(k_eff + 1, self.n)
        dist, idx = tree.query(xs, k=k_probe, workers=-1)
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


@dataclass(frozen=True)
class MergedOrder:
    """All points of several sample sets sorted by distance to one query.

    ``group`` holds the origin of each position: 0 for the target (Q) set,
    1..m for source sets in order. Ties resolve by (distance, group, index
    within set). ``within_index`` is each point's index inside its own set.
    """

    distances: np.ndarray
    group: np.ndarray
    within_index: np.ndarray
    labels: np.ndarray
    n_groups: int

    def __len__(self) -> int:
        return self.distances.shape[0]


def merged_order(sets: list[SampleSet], x) -> MergedOrder:
    """Merge several sample sets into one distance-sorted sequence.

    sets[0] is the target set (tie priority first), the rest follow in
    order. The per-set distances are concatenated in set order and sorted
    once by (distance, position), which is (distance, group, index within
    set) because a position is the set's offset plus the index within it.
    """
    x = np.asarray(x, dtype=np.float64)
    for g, s in enumerate(sets):
        if s.d != x.shape[-1]:
            raise ValueError(f"query has dimension {x.shape[-1]}, set {g} has {s.d}")
    _require_finite(x)
    sizes = [len(s) for s in sets]
    dist = np.concatenate([_distances(s.points, x) for s in sets])
    order = _canonical_argsort(dist)
    group = np.repeat(np.arange(len(sets)), sizes)[order]
    within = order - (np.cumsum(sizes) - sizes)[group]
    labels = np.concatenate([s.labels for s in sets])[order]
    return MergedOrder(dist[order], group, within, labels, len(sets))
