"""Exact nearest-neighbor search with deterministic tie-breaking.

All queries use the Euclidean norm and are exact, and a query with a
non-finite coordinate is rejected. Neighbor order is canonical: ascending
distance, ties broken by ascending sample index. Merged queries over several
sample sets additionally break cross-set distance ties by set priority
(target set first, then source order).

Single-point queries run a vectorized scan (argpartition plus a
lexicographic sort of the boundary candidates). Batch queries go through a
k-d tree for speed; any row where a distance tie is detected near the cut
is rerouted through the canonical path, so results never depend on the
tree's internal ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import SampleSet, TransferDataset

__all__ = [
    "NeighborList",
    "NeighborIndex",
    "merged_knn",
    "MergedOrder",
    "merged_order",
]

# Relative slack used when detecting potential distance ties in float math.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class NeighborList:
    """Query result: parallel arrays of sample index, distance, and label.

    Entries are sorted by (distance, index). ``indices`` refer to positions
    in the queried sample set.
    """

    indices: np.ndarray
    distances: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        ix = np.asarray(self.indices, dtype=np.int64)
        dist = np.asarray(self.distances, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.int64)
        if not (ix.shape == dist.shape == lab.shape) or ix.ndim != 1:
            raise ValueError("indices, distances, labels must be equal-length 1-d arrays")
        for a in (ix, dist, lab):
            a.setflags(write=False)
        object.__setattr__(self, "indices", ix)
        object.__setattr__(self, "distances", dist)
        object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __iter__(self):
        return iter(zip(self.indices.tolist(), self.distances.tolist(), self.labels.tolist()))

    @property
    def label_sum(self) -> int:
        return int(self.labels.sum())


def _empty_list() -> NeighborList:
    return NeighborList(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    )


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
        finite = np.isfinite(x).all(axis=-1)
        if not finite.all():
            bad = x if x.ndim == 1 else x[np.flatnonzero(~finite)[0]]
            raise ValueError(f"query {bad.tolist()} has a non-finite coordinate")

    def _canonical_distances(self, x: np.ndarray) -> np.ndarray:
        diff = self.points - x
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def sorted_order(self, x) -> tuple[np.ndarray, np.ndarray]:
        """All sample indices sorted by (distance, index), with distances.

        Returns (distances, indices), both length n, distances ascending.
        """
        x = np.asarray(x, dtype=np.float64)
        self._require_dim(x)
        if self.n == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        dist = self._canonical_distances(x)
        order = np.lexsort((np.arange(self.n), dist))
        return dist[order], order.astype(np.int64)

    def query(self, x, k: int) -> NeighborList:
        """The k nearest samples to x in canonical order.

        Returns min(k, n) entries; k = 0 or an empty index gives an empty
        result. Raises on dimension mismatch or negative k.
        """
        x = np.asarray(x, dtype=np.float64)
        self._require_dim(x)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        k_eff = min(int(k), self.n)
        if k_eff == 0:
            return _empty_list()
        dist = self._canonical_distances(x)
        if k_eff >= self.n:
            order = np.lexsort((np.arange(self.n), dist))
        else:
            part = np.argpartition(dist, k_eff - 1)[:k_eff]
            dmax = dist[part].max()
            # Pull in every point whose distance could tie the cut, then
            # resolve the boundary exactly in (distance, index) order.
            cand = np.flatnonzero(dist <= dmax * (1.0 + _TIE_RTOL))
            order = cand[np.lexsort((cand, dist[cand]))][:k_eff]
        return NeighborList(order.astype(np.int64), dist[order], self.labels[order])

    def _ensure_tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def query_batch(self, xs, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors for each row of xs.

        Returns (distances, indices), each of shape (m, min(k, n)). The
        neighbor set per row is exact; rows with a detected distance tie at
        the cut are recomputed on the canonical path. Distances along a row
        ascend, but within-row tie order follows the canonical rule only on
        rerouted rows; callers needing guaranteed order should use query().
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
        # A row needs exact treatment if the first excluded neighbor could
        # tie the last included one, or if any included pair ties (the tree
        # does not promise index order within equal distances).
        tol = _TIE_RTOL * np.maximum(dist[:, :k_eff].max(initial=0.0), 1.0)
        suspect = np.zeros(m, dtype=bool)
        if k_probe > k_eff:
            suspect |= dist[:, k_eff] - dist[:, k_eff - 1] <= tol
        if k_eff > 1:
            suspect |= (np.diff(dist[:, :k_eff], axis=1) <= tol).any(axis=1)
        out_d = dist[:, :k_eff].copy()
        out_i = idx[:, :k_eff].astype(np.int64)
        for row in np.flatnonzero(suspect):
            nl = self.query(xs[row], k_eff)
            out_d[row] = nl.distances
            out_i[row] = nl.indices
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
    order. Uses canonical distances from each set's index.
    """
    x = np.asarray(x, dtype=np.float64)
    dists, groups, widx, labels = [], [], [], []
    for g, s in enumerate(sets):
        if s.d != x.shape[-1]:
            raise ValueError(f"query has dimension {x.shape[-1]}, set {g} has {s.d}")
        if len(s) == 0:
            continue
        idx = NeighborIndex(s)
        d_sorted, order = idx.sorted_order(x)
        dists.append(d_sorted)
        groups.append(np.full(len(s), g, dtype=np.int64))
        widx.append(order)
        labels.append(s.labels[order])
    if not dists:
        return MergedOrder(
            np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), len(sets),
        )
    dist = np.concatenate(dists)
    group = np.concatenate(groups)
    wi = np.concatenate(widx)
    lab = np.concatenate(labels)
    order = np.lexsort((wi, group, dist))
    return MergedOrder(dist[order], group[order], wi[order], lab[order], len(sets))


def merged_knn(ds: TransferDataset, x, k: int) -> tuple[NeighborList, NeighborList]:
    """Split the k nearest points of the combined P and Q samples by origin.

    Returns (p_neighbors, q_neighbors); their lengths sum to k. Cross-set
    distance ties favor the Q point, then the smaller index. Raises if
    k exceeds n_P + n_Q or on dimension mismatch.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    total = ds.n_p + ds.n_q
    if k > total:
        raise ValueError(f"k = {k} exceeds the {total} available samples")
    mo = merged_order([ds.q_data, ds.p_data], x)
    head_group = mo.group[:k]
    head_dist = mo.distances[:k]
    head_wi = mo.within_index[:k]
    head_lab = mo.labels[:k]
    out = []
    for g in (1, 0):  # P first in the return tuple
        mask = head_group == g
        out.append(NeighborList(head_wi[mask], head_dist[mask], head_lab[mask]))
    return out[0], out[1]
