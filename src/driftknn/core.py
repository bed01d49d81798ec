"""Core data types for transfer classification under posterior drift.

The setting: m >= 1 source distributions and a target distribution Q share
the same covariate marginal but have different regression functions. One
dataset type, ``TransferDataset``, holds the target sample plus a tuple of
source samples; the two-sample problem (one source P) is the case m = 1,
``TransferDataset((p,), q)``. This module defines the sample containers,
the hyper-parameter record, the k-NN plan record (one count and weight per
source plus the target pair), and a reproducible random-source contract
used by the simulation harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampleSet",
    "TransferDataset",
    "HyperParams",
    "KnnPlan",
    "RandomSource",
    "pooled_sample_set",
]

# Maximum fan-out of RandomSource.substream at each derivation level.
SUBSTREAM_CAP = 1 << 20


def _as_points(x, d: int | None = None) -> np.ndarray:
    """Coerce to a read-only (n, d) float64 array of finite coordinates."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, d if d is not None else 0)
    if arr.ndim != 2:
        raise ValueError(f"points must be a 2-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _as_labels(y) -> np.ndarray:
    arr = np.array(y, dtype=np.int64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"labels must be a 1-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SampleSet:
    """An ordered collection of labeled samples sharing one dimension.

    Stored columnar: ``points`` is (n, d) float64 and ``labels`` is (n,)
    int64 with values in {0, 1}. Insertion order is significant; neighbor
    ties are broken by ascending sample index.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        labs = _as_labels(self.labels)
        if pts.shape[0] != labs.shape[0]:
            raise ValueError(
                f"{pts.shape[0]} points but {labs.shape[0]} labels"
            )
        if pts.shape[0] > 0 and pts.shape[1] == 0:
            raise ValueError("points must have at least one coordinate")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise ValueError(f"sample {int(bad[0])}: non-finite coordinate")
        bad = np.flatnonzero((labs != 0) & (labs != 1))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"sample {i}: label must be 0 or 1, got {int(labs[i])}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def empty(cls, d: int) -> "SampleSet":
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return cls(np.empty((0, d)), np.empty((0,), dtype=np.int64))

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class TransferDataset:
    """m >= 1 source samples S1..Sm plus one target sample Q, sharing one dimension.

    The two-sample problem is m = 1: ``TransferDataset((p,), q)``. Any set
    may be empty. ``sources`` must be a sequence of sample sets; a bare
    SampleSet is rejected rather than read as a sequence of rows.
    """

    sources: tuple[SampleSet, ...]
    q_data: SampleSet

    def __post_init__(self):
        try:
            sources = tuple(self.sources)
        except TypeError:
            raise TypeError("sources must be a sequence of SampleSets, e.g. (p,) for one source")
        if len(sources) < 1:
            raise ValueError("need at least one source sample set")
        for i, s in enumerate(sources, start=1):
            if s.d != self.q_data.d:
                raise ValueError(
                    f"source {i}: dimension mismatch, d={s.d} against target d={self.q_data.d}"
                )
        object.__setattr__(self, "sources", sources)

    @property
    def m(self) -> int:
        return len(self.sources)

    @property
    def d(self) -> int:
        return self.q_data.d

    @property
    def n_q(self) -> int:
        return len(self.q_data)

    @property
    def source_sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sources)

    @property
    def n_p(self) -> int:
        """The number of source rows, over all sources."""
        return sum(self.source_sizes)


@dataclass(frozen=True)
class HyperParams:
    """Problem hyper-parameters.

    alpha:  margin exponent, >= 0.
    beta:   Holder smoothness of the regression functions, in (0, 1].
    gamma:  relative signal exponent of the source against the target
            (scalar, or one value per source for multi-source problems),
            every entry > 0.
    d:      covariate dimension, >= 1.

    The margin and smoothness interact: alpha * beta <= d is required
    (otherwise only trivial distributions satisfy both conditions).
    """

    alpha: float
    beta: float
    gamma: float | tuple[float, ...]
    d: int

    def __post_init__(self):
        if not (self.alpha >= 0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not (0 < self.beta <= 1):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        gamma = self.gamma
        if isinstance(gamma, (int, float)):
            if not (gamma > 0):
                raise ValueError(f"gamma must be > 0, got {gamma}")
            gamma = float(gamma)
        else:
            gamma = tuple(float(g) for g in gamma)
            if len(gamma) == 0:
                raise ValueError("gamma vector must be nonempty")
            for i, g in enumerate(gamma):
                if not (g > 0):
                    raise ValueError(f"gamma[{i}] must be > 0, got {g}")
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"d must be an integer >= 1, got {self.d}")
        if self.alpha * self.beta > self.d:
            raise ValueError(
                f"alpha * beta must be <= d, got {self.alpha} * {self.beta} > {self.d}"
            )
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "d", int(self.d))

    def scalar_gamma(self) -> float:
        """The single relative-signal exponent; errors on a true vector."""
        if isinstance(self.gamma, float):
            return self.gamma
        if len(self.gamma) == 1:
            return self.gamma[0]
        raise ValueError("expected a scalar gamma, got a vector")

    def gamma_vector(self, m: int) -> tuple[float, ...]:
        """gamma as an m-vector, broadcasting a scalar."""
        if isinstance(self.gamma, float):
            return (self.gamma,) * m
        if len(self.gamma) != m:
            raise ValueError(f"gamma vector has {len(self.gamma)} entries, need {m}")
        return self.gamma


@dataclass(frozen=True)
class KnnPlan:
    """Per-source neighbor counts and vote weights plus the target pair."""

    k_sources: tuple[int, ...]
    w_sources: tuple[float, ...]
    k_q: int
    w_q: float

    def __post_init__(self):
        ks = tuple(int(k) for k in self.k_sources)
        ws = tuple(float(w) for w in self.w_sources)
        if len(ks) != len(ws):
            raise ValueError(f"{len(ks)} counts but {len(ws)} weights")
        if len(ks) < 1:
            raise ValueError("need at least one source entry")
        if any(k < 0 for k in ks) or self.k_q < 0:
            raise ValueError("neighbor counts must be >= 0")
        if any(w < 0 for w in ws) or self.w_q < 0:
            raise ValueError("weights must be >= 0")
        object.__setattr__(self, "k_sources", ks)
        object.__setattr__(self, "w_sources", ws)
        object.__setattr__(self, "k_q", int(self.k_q))
        object.__setattr__(self, "w_q", float(self.w_q))

    @property
    def m(self) -> int:
        return len(self.k_sources)


@dataclass(frozen=True)
class RandomSource:
    """Deterministic, splittable random stream keyed by (seed, stream).

    Identical (seed, stream) pairs produce identical sequences on every
    platform; distinct pairs are statistically independent. Backed by the
    counter-based Philox generator keyed via SeedSequence entropy, so
    derived streams never overlap. ``substream(i)`` derives child stream
    ``stream * 2**20 + i + 1`` (fan-out capped at 2**20 per level).
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative integers")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream", int(self.stream))

    def generator(self) -> np.random.Generator:
        """A fresh numpy Generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=(self.seed, self.stream))
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, i: int) -> "RandomSource":
        """Derive an independent child stream; i in [0, 2**20 - 1)."""
        if not (0 <= i < SUBSTREAM_CAP - 1):
            raise ValueError(f"substream index out of range: {i}")
        return RandomSource(self.seed, self.stream * SUBSTREAM_CAP + i + 1)


def pooled_sample_set(ds: TransferDataset) -> SampleSet:
    """The rows of S1..Sm, then of Q, as one plain sample set.

    A lone nonempty set is returned as is.
    """
    full = [s for s in (*ds.sources, ds.q_data) if len(s)]
    if len(full) == 1:
        return full[0]
    if not full:
        return SampleSet.empty(ds.d)
    return SampleSet(np.concatenate([s.points for s in full]),
                     np.concatenate([s.labels for s in full]))
