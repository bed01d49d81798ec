"""Nearest-neighbor classifiers for transfer learning under posterior drift.

m >= 1 source samples and a target sample (Q) share a covariate marginal
but have different regression functions, linked by relative signal
exponents gamma_i: each source signal |eta_i - 1/2| dominates
|eta_Q - 1/2|^gamma_i with matching signs. The classifiers work on the
groups [Q, S_1..S_m] of one ``TransferDataset``; the two-sample problem is
the case m = 1 with S_1 = P.

* ``weighted_knn_predict``: one weighted k-NN vote over the groups, with
  counts and weights from ``minimax_plan`` (rate-optimal in the sample
  sizes, beta, gamma_i, d); the plain majority ``knn_predict`` is the vote
  over the single group [s] with weight 1. Each takes one query or an
  (m, d) array of queries.
* ``adaptive_predict``: one scan of k over the merged neighbor order that
  stops the first time a signal-to-noise statistic clears (d+3) * log(n),
  else takes the argmax k.
* ``lepski_predict``: a classical adaptive baseline that intersects
  confidence intervals for eta(x) over increasing k and stops when the
  intersection separates from 1/2.

The scan keeps two label rules and picks one by m: Alg. 3's sign of
sqrt(k_P)(eta_P - 1/2) + sqrt(k_Q)(eta_Q - 1/2) at m = 1, and
snr_pos >= snr_neg at m >= 2. They agree in exact arithmetic at m = 1,
but rounding can split them at exact ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import HyperParams, KnnPlan, SampleSet, TransferDataset
from . import neighbors
from .neighbors import NeighborIndex

__all__ = [
    "default_knn_k",
    "combined_budget_k",
    "minimax_plan",
    "weighted_knn_eta",
    "weighted_knn_predict",
    "knn_predict",
    "AdaptiveTrace",
    "adaptive_predict",
    "LEPSKI_WIDTHS",
    "LepskiTrace",
    "lepski_predict",
]


def default_knn_k(n: int, hp: HyperParams) -> int:
    """Rate-optimal single-sample neighbor count floor(n^(2b/(2b+d))), >= 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0
    return max(1, math.floor(n ** (2 * hp.beta / (2 * hp.beta + hp.d))))


def combined_budget_k(n_p: int, n_q: int, hp: HyperParams) -> int:
    """Neighbor count for the source-blind pooled baseline.

    n_p is the number of source rows, over all sources. Uses the total
    budget k_P + k_Q of the one-source plan on n_p rows, so the pooled
    classifier looks at essentially the same neighborhood but votes it
    uniformly. This isolates what the weights buy. With n_P=0 it
    collapses to default_knn_k(n_Q), so the pooled and target-only
    baselines coincide exactly in the degenerate case.
    """
    plan = minimax_plan((n_p,), n_q, hp)
    return max(1, plan.k_sources[0] + plan.k_q)


def minimax_plan(source_sizes: Sequence[int], n_q: int, hp: HyperParams) -> KnnPlan:
    """Per-source neighbor counts and weights for m source samples.

    The effective target-equivalent size pools every source at its own
    exponent: N = n_Q + sum_i n_i^((2b+d)/(2 g_i b + d)); then

        w_Q = N^(-b/(2b+d))            k_Q = floor(n_Q * N^(-d/(2b+d)))
        w_i = N^(-g_i b/(2b+d))        k_i = floor(n_i * N^(-d/(2b+d)))

    where b is the smoothness, g_i the relative signal exponent of source
    i (hp.gamma, broadcast if scalar), d the dimension. Counts are clamped
    so a nonempty sample always contributes at least one neighbor.
    Requires at least one sample overall.
    """
    sizes = [int(n) for n in source_sizes]
    if len(sizes) < 1:
        raise ValueError("need at least one source")
    if any(n < 0 for n in sizes) or n_q < 0:
        raise ValueError("sample sizes must be >= 0")
    if sum(sizes) == 0 and n_q == 0:
        raise ValueError("need at least one sample across all sets")
    b, d = hp.beta, float(hp.d)
    gammas = hp.gamma_vector(len(sizes))
    eff = float(n_q) + sum(
        float(n) ** ((2 * b + d) / (2 * g * b + d)) for n, g in zip(sizes, gammas)
    )
    shrink = eff ** (-d / (2 * b + d))
    w_q = eff ** (-b / (2 * b + d))
    k_q = max(math.floor(n_q * shrink), min(n_q, 1))
    w_s = tuple(eff ** (-g * b / (2 * b + d)) for g in gammas)
    k_s = tuple(max(math.floor(n * shrink), min(n, 1)) for n in sizes)
    return KnnPlan(k_sources=k_s, w_sources=w_s, k_q=k_q, w_q=w_q)


def _vote_eta(groups: Sequence[SampleSet], ks: Sequence[int], ws: Sequence[float], x):
    """The weighted k-NN vote over the groups [Q, S_1..S_m].

    eta_hat(x) = sum_g w_g * (sum of the k_g nearest labels of group g)
    / sum_g w_g k_g. The numerator adds the groups in order, Q first; the
    denominator is w_Q k_Q plus the sum over the sources. Raises if a
    group is asked for more neighbors than it holds or every selected
    neighbor has zero weight. Like ``DriftModel.eta_q``, x is one query
    (d,) and the answer a float, or an (m, d) array answered row by row
    through the k-d tree path; both paths give the same values.
    """
    if ks[0] > len(groups[0]):
        raise ValueError(f"plan needs k_Q = {ks[0]} but Q has {len(groups[0])} samples")
    for i, (k, s) in enumerate(zip(ks[1:], groups[1:]), start=1):
        if k > len(s):
            raise ValueError(f"plan needs k = {k} from source {i} of size {len(s)}")
    den = ws[0] * ks[0] + sum(w * k for w, k in zip(ws[1:], ks[1:]))
    if den <= 0:
        raise ValueError("plan selects no positively weighted neighbors")
    x = np.asarray(x, dtype=np.float64)
    num = 0.0 if x.ndim == 1 else np.zeros(x.shape[0])
    for s, k, w in zip(groups, ks, ws):
        if k == 0:
            continue
        idx = NeighborIndex(s)
        _, nbrs = idx.query(x, k) if x.ndim == 1 else idx.query_batch(x, k)
        num += w * idx.labels[nbrs].sum(axis=-1)
    return num / den


def _label(eta):
    """1 iff eta > 1/2: an int for one estimate, an int64 array for many."""
    return int(eta > 0.5) if np.ndim(eta) == 0 else (eta > 0.5).astype(np.int64)


def weighted_knn_eta(ds: TransferDataset, plan: KnnPlan, x):
    """The weighted neighbor-vote estimate of the target regression at x.

    eta_hat = (w_Q * [k_Q nearest Q-labels] + sum_i w_i * [k_i nearest
    labels of source i]) / (w_Q k_Q + sum_i w_i k_i): the vote over
    [Q, S_1..S_m]. A float for one query x, an array for an (m, d) array
    of queries.
    """
    if plan.m != ds.m:
        raise ValueError(f"plan has {plan.m} sources, dataset has {ds.m}")
    return _vote_eta((ds.q_data, *ds.sources), (plan.k_q, *plan.k_sources),
                     (plan.w_q, *plan.w_sources), x)


def weighted_knn_predict(ds: TransferDataset, plan: KnnPlan, x):
    """Weighted k-NN label at x: 1 iff eta_hat > 1/2.

    An int for one query x, an int64 array for an (m, d) array of queries.
    """
    return _label(weighted_knn_eta(ds, plan, x))


def knn_predict(s: SampleSet, k: int, x):
    """Plain k-NN majority label with strict-majority tie rule (> 1/2).

    The weighted vote over the one group [s] with weight 1, so eta_hat is
    the label mean S / k; one query or an (m, d) array.
    """
    if not (1 <= k <= len(s)):
        raise ValueError(f"k must be in [1, {len(s)}], got {k}")
    return _label(_vote_eta((s,), (k,), (1.0,), x))


@dataclass(frozen=True)
class AdaptiveTrace:
    """Per-step record of the adaptive scan over the merged neighbor order.

    Arrays are indexed by step (k = index + 1). Row g of the (m+1, n)
    arrays ``k_counts`` and ``etas`` is group g of [Q, S_1..S_m]: how many
    of the k nearest points it holds and their label mean (1/2 while it
    holds none). ``snr_pos``/``snr_neg`` sum the evidence k_g (eta_g - 1/2)^2
    of the groups at or above 1/2 and strictly below it; the statistic
    ``snr`` is their maximum. ``stop_step`` is the first 1-based k whose
    statistic exceeded ``threshold``, or None if none did; ``chosen_step``
    is the step whose intermediate classifier produced ``label`` (the stop
    step, else the first argmax of the statistic). ``k_q``/``eta_q`` are
    row 0 and ``k_p``/``eta_p`` row 1, the source of a two-sample dataset.
    """

    k_counts: np.ndarray
    etas: np.ndarray
    snr_pos: np.ndarray
    snr_neg: np.ndarray
    snr: np.ndarray
    threshold: float
    stop_step: int | None
    chosen_step: int
    label: int

    @property
    def k_q(self) -> np.ndarray:
        return self.k_counts[0]

    @property
    def k_p(self) -> np.ndarray:
        return self.k_counts[1]

    @property
    def eta_q(self) -> np.ndarray:
        return self.etas[0]

    @property
    def eta_p(self) -> np.ndarray:
        return self.etas[1]

    @property
    def steps(self) -> np.ndarray:
        return np.arange(1, len(self.snr) + 1)


def adaptive_predict(ds: TransferDataset, x) -> tuple[int, AdaptiveTrace]:
    """Adaptive classifier: scan k over the merged order, stop on strong evidence.

    Walks the merged (distance-sorted) sequence of all target and source
    rows. At step k the k nearest points split into k_g from each group g
    of [Q, S_1..S_m], with label means eta_g (1/2 while a group is empty).
    snr_pos(k) sums k_g (eta_g - 1/2)^2 over the groups with eta_g >= 1/2,
    snr_neg(k) over the groups below 1/2. The scan stops at the first k
    where max(snr_pos, snr_neg) exceeds (d+3) * log(n); if none does, the
    argmax step (smallest on ties) is used. The label at that step is
    1{sqrt(k_P)(eta_P - 1/2) + sqrt(k_Q)(eta_Q - 1/2) >= 0} (Alg. 3) for
    one source, and 1{snr_pos >= snr_neg} for m >= 2.
    """
    groups = [ds.q_data, *ds.sources]
    n = sum(len(s) for s in groups)
    if n == 0:
        raise ValueError("dataset is empty")
    # Looked up on the module, so a replaced neighbors.merged_order (a tracer
    # or a tie-rule mutation) sees every scan.
    mo = neighbors.merged_order(groups, x)
    # Row g of the (m+1, n) arrays is group g; the sums over axis 0 add the
    # groups in order, Q first.
    member = mo.group == np.arange(len(groups))[:, None]
    k_counts = np.cumsum(member, axis=1)
    sums = np.cumsum(member * mo.labels, axis=1)
    etas = np.where(k_counts > 0, sums / np.maximum(k_counts, 1), 0.5)
    s = etas - 0.5
    terms = k_counts * s * s
    above = etas >= 0.5
    snr_pos = np.where(above, terms, 0.0).sum(axis=0)
    snr_neg = np.where(above, 0.0, terms).sum(axis=0)
    snr = np.maximum(snr_pos, snr_neg)
    threshold = (ds.d + 3) * math.log(n)
    exceed = snr > threshold
    if exceed.any():
        chosen = int(np.argmax(exceed))
        stop_step = chosen + 1
    else:
        stop_step = None
        chosen = int(np.argmax(snr))
    if ds.m == 1:
        k, eta = k_counts[:, chosen], etas[:, chosen]
        label = int(math.sqrt(k[1]) * (eta[1] - 0.5) + math.sqrt(k[0]) * (eta[0] - 0.5) >= 0)
    else:
        label = int(snr_pos[chosen] >= snr_neg[chosen])
    trace = AdaptiveTrace(
        k_counts=k_counts, etas=etas, snr_pos=snr_pos, snr_neg=snr_neg, snr=snr,
        threshold=threshold, stop_step=stop_step, chosen_step=chosen + 1, label=label,
    )
    return label, trace


def _width_log_outside(n: int, d: int, k: np.ndarray) -> np.ndarray:
    return np.sqrt((d + 3) / k) * math.log(n)


def _width_log_inside(n: int, d: int, k: np.ndarray) -> np.ndarray:
    return np.sqrt((d + 3) * math.log(n) / k)


# Two conventions for the confidence width at step k; they differ in
# where the log(n) factor sits relative to the square root.
LEPSKI_WIDTHS = {
    "algorithm3": _width_log_outside,  # sqrt((d+3)/k) * log(n)
    "lemma5": _width_log_inside,       # sqrt((d+3) * log(n) / k)
}


@dataclass(frozen=True)
class LepskiTrace:
    """Per-step record of the interval-intersection scan."""

    eta: np.ndarray
    width: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    stop_step: int | None
    label: int


def lepski_predict(s: SampleSet, x, width: str = "algorithm3") -> tuple[int, LepskiTrace]:
    """Interval-intersection adaptive k-NN label on a single sample.

    For k = 1..n the running intersection of the confidence intervals
    [eta_k - w_k, eta_k + w_k] around the k-NN label mean is tracked; the
    scan stops as soon as the intersection lies strictly above or below
    1/2 and labels 1{eta_k >= 1/2} at that k. If the intersection never
    separates, the label comes from eta_n. ``width`` picks the convention
    from LEPSKI_WIDTHS. Returns (label, trace), like ``adaptive_predict``.
    """
    n = len(s)
    if n == 0:
        raise ValueError("sample set is empty")
    try:
        width_fn = LEPSKI_WIDTHS[width]
    except KeyError:
        raise ValueError(f"unknown width variant {width!r}; options: {sorted(LEPSKI_WIDTHS)}")
    _, order = NeighborIndex(s).sorted_order(x)
    labels = s.labels[order]
    k = np.arange(1, n + 1, dtype=np.float64)
    eta = np.cumsum(labels) / k
    w = width_fn(n, s.d, k)
    lower = np.maximum.accumulate(eta - w)
    upper = np.minimum.accumulate(eta + w)
    split = (lower > 0.5) | (upper < 0.5)
    if split.any():
        stop = int(np.argmax(split))
        stop_step = stop + 1
        label = int(eta[stop] >= 0.5)
    else:
        stop_step = None
        label = int(eta[-1] >= 0.5)
    return label, LepskiTrace(eta=eta, width=w, lower=lower, upper=upper,
                              stop_step=stop_step, label=label)

