"""Nearest-neighbor classifiers for transfer learning under posterior drift.

The source sample (P) and target sample (Q) share a covariate marginal but
have different regression functions eta_P and eta_Q, linked by a relative
signal exponent gamma: the source signal |eta_P - 1/2| dominates
|eta_Q - 1/2|^gamma with matching signs. The classifiers work on the groups
[Q, S_1..S_m], the target sample followed by m source samples; a
two-sample dataset is the case m = 1 with S_1 = P.

* ``weighted_knn_predict`` / ``multisource_weighted_predict``: one
  weighted k-NN vote over the groups, with counts and weights from
  ``multisource_plan`` (rate-optimal in the sample sizes, beta, gamma, d);
  the plain majority ``knn_predict`` is the vote with no source and w_Q = 1.
  Each takes one query or an (m, d) array of queries.
* ``adaptive_predict`` / ``multisource_adaptive_predict``: one scan of k
  over the merged neighbor order that stops the first time a
  signal-to-noise statistic clears (d+3) * log(n), else takes the argmax k.
* ``lepski_predict``: a classical adaptive baseline that intersects
  confidence intervals for eta(x) over increasing k and stops when the
  intersection separates from 1/2.

At m = 1 the two-sample functions give the multi-source floats exactly.
The scan keeps two label rules: Alg. 3's sign of
sqrt(k_P)(eta_P - 1/2) + sqrt(k_Q)(eta_Q - 1/2) for two samples, and
snr_pos >= snr_neg for m sources. They agree in exact arithmetic at m = 1,
but rounding can split them at exact ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    HyperParams,
    KnnPlan,
    MultiKnnPlan,
    MultiSourceDataset,
    SampleSet,
    TransferDataset,
)
from . import neighbors
from .neighbors import NeighborIndex

__all__ = [
    "default_knn_k",
    "minimax_plan",
    "multisource_plan",
    "weighted_knn_eta",
    "weighted_knn_predict",
    "knn_predict",
    "snr_index",
    "AdaptiveTrace",
    "adaptive_predict",
    "multisource_weighted_predict",
    "multisource_adaptive_predict",
    "LEPSKI_WIDTHS",
    "LepskiTrace",
    "lepski_predict",
    "bayes_classify",
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

    Uses the same total budget k_P + k_Q as the two-sample plan, so the
    pooled classifier looks at essentially the same neighborhood but
    votes it uniformly. This isolates what the weights buy. With n_P=0
    it collapses to default_knn_k(n_Q), so the pooled and target-only
    baselines coincide exactly in the degenerate case.
    """
    plan = minimax_plan(n_p, n_q, hp)
    return max(1, plan.k_p + plan.k_q)


def minimax_plan(n_p: int, n_q: int, hp: HyperParams) -> KnnPlan:
    """Neighbor counts and weights for the two-sample weighted k-NN.

    With N = n_P^((2b+d)/(2gb+d)) + n_Q (the effective target-equivalent
    sample size), the plan is

        w_Q = N^(-b/(2b+d))          k_Q = floor(n_Q * N^(-d/(2b+d)))
        w_P = N^(-gb/(2b+d))         k_P = floor(n_P * N^(-d/(2b+d)))

    where b is the smoothness, g the relative signal exponent, d the
    dimension. Counts are clamped so a nonempty sample always contributes
    at least one neighbor. Requires at least one sample overall. This is
    the m = 1 case of multisource_plan.
    """
    return multisource_plan((n_p,), n_q, hp).to_single()


def multisource_plan(source_sizes: Sequence[int], n_q: int, hp: HyperParams) -> MultiKnnPlan:
    """Per-source neighbor counts and weights for m source samples.

    The effective size pools every source at its own exponent:
    N = n_Q + sum_j n_j^((2b+d)/(2 g_j b + d)); then each source i gets
    w_i = N^(-g_i b/(2b+d)), k_i = floor(n_i * N^(-d/(2b+d))), and the
    target gets the gamma = 1 weight. Same clamping as the two-sample plan.
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
    return MultiKnnPlan(k_sources=k_s, w_sources=w_s, k_q=k_q, w_q=w_q)


def _vote_eta(data: TransferDataset | MultiSourceDataset, k_q: int, w_q: float,
              k_sources: Sequence[int], w_sources: Sequence[float], x):
    """The weighted k-NN vote over the groups [Q, S_1..S_m] of a dataset.

    eta_hat(x) = sum_g w_g * (sum of the k_g nearest labels of group g)
    / sum_g w_g k_g. The numerator adds the groups in order, Q first; the
    denominator is w_Q k_Q plus the sum over the sources. With that order
    the one-source vote gives the two-sample floats. Raises if a group is
    asked for more neighbors than it holds or every selected neighbor has
    zero weight. Like ``DriftModel.eta_q``, x is one query (d,) and the
    answer a float, or an (m, d) array answered row by row through the
    k-d tree path; both paths give the same values.
    """
    if k_q > data.n_q:
        raise ValueError(f"plan needs k_Q = {k_q} but Q has {data.n_q} samples")
    for i, (k, s) in enumerate(zip(k_sources, data.sources), start=1):
        if k <= len(s):
            continue
        if isinstance(data, TransferDataset):
            raise ValueError(f"plan needs k_P = {k} but P has {len(s)} samples")
        raise ValueError(f"plan needs k = {k} from source {i} of size {len(s)}")
    den = w_q * k_q + sum(w * k for w, k in zip(w_sources, k_sources))
    if den <= 0:
        raise ValueError("plan selects no positively weighted neighbors")
    x = np.asarray(x, dtype=np.float64)
    num = 0.0 if x.ndim == 1 else np.zeros(x.shape[0])
    for s, k, w in zip([data.q_data, *data.sources], (k_q, *k_sources), (w_q, *w_sources)):
        if k == 0:
            continue
        idx = NeighborIndex(s)
        if x.ndim == 1:
            num += w * idx.query(x, k).label_sum
        else:
            num += w * idx.labels[idx.query_batch(x, k)[1]].sum(axis=1)
    return num / den


def _label(eta):
    """1 iff eta > 1/2: an int for one estimate, an int64 array for many."""
    return int(eta > 0.5) if np.ndim(eta) == 0 else (eta > 0.5).astype(np.int64)


def weighted_knn_eta(ds: TransferDataset, plan: KnnPlan, x):
    """The weighted neighbor-vote estimate of the target regression at x.

    eta_hat = (w_P * sum of k_P nearest P-labels + w_Q * sum of k_Q nearest
    Q-labels) / (w_P k_P + w_Q k_Q): the vote over [Q, P]. A float for one
    query x, an array for an (m, d) array of queries.
    """
    return _vote_eta(ds, plan.k_q, plan.w_q, (plan.k_p,), (plan.w_p,), x)


def weighted_knn_predict(ds: TransferDataset, plan: KnnPlan, x):
    """Two-sample weighted k-NN label at x: 1 iff eta_hat > 1/2.

    An int for one query x, an int64 array for an (m, d) array of queries.
    """
    return _label(weighted_knn_eta(ds, plan, x))


def knn_predict(s: SampleSet, k: int, x):
    """Plain k-NN majority label with strict-majority tie rule (> 1/2).

    The weighted vote with no source sample and w_Q = 1, so eta_hat is the
    label mean S / k; one query or an (m, d) array.
    """
    if not (1 <= k <= len(s)):
        raise ValueError(f"k must be in [1, {len(s)}], got {k}")
    return _label(weighted_knn_eta(TransferDataset(SampleSet.empty(s.d), s),
                                   KnnPlan(k_p=0, k_q=k, w_p=0.0, w_q=1.0), x))


def multisource_weighted_predict(mds: MultiSourceDataset, plan: MultiKnnPlan, x):
    """Weighted k-NN vote pooled over every source sample and the target.

    eta_hat = (sum_i w_i * [k_i nearest labels of source i] + w_Q * [k_Q
    nearest target labels]) / (sum_i w_i k_i + w_Q k_Q); label 1 iff > 1/2.
    One query or an (m, d) array, as weighted_knn_predict.
    """
    if plan.m != mds.m:
        raise ValueError(f"plan has {plan.m} sources, dataset has {mds.m}")
    return _label(_vote_eta(mds, plan.k_q, plan.w_q, plan.k_sources, plan.w_sources, x))


def snr_index(k_p: int, eta_p: float, k_q: int, eta_q: float) -> float:
    """Signal-to-noise statistic of a (k_P, k_Q) neighbor split.

    When the two estimates sit on the same side of 1/2 their evidence adds:
    k_P (eta_P - 1/2)^2 + k_Q (eta_Q - 1/2)^2. On opposite sides only the
    stronger one counts: max of the two terms. An estimate exactly at 1/2
    agrees with everything and contributes zero either way.
    """
    sp = eta_p - 0.5
    sq = eta_q - 0.5
    tp = k_p * sp * sp
    tq = k_q * sq * sq
    if sp * sq >= 0:
        return tp + tq
    return max(tp, tq)


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


def _adaptive_scan(data, x, label_at) -> tuple[int, AdaptiveTrace]:
    """The scan behind both adaptive classifiers; ``data`` is a
    TransferDataset or MultiSourceDataset, and ``label_at(k, eta, pos, neg)``
    labels the chosen step from its per-group counts and means."""
    groups = [data.q_data, *data.sources]
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
    threshold = (data.d + 3) * math.log(n)
    exceed = snr > threshold
    if exceed.any():
        chosen = int(np.argmax(exceed))
        stop_step = chosen + 1
    else:
        stop_step = None
        chosen = int(np.argmax(snr))
    label = label_at(k_counts[:, chosen], etas[:, chosen], snr_pos[chosen], snr_neg[chosen])
    trace = AdaptiveTrace(
        k_counts=k_counts, etas=etas, snr_pos=snr_pos, snr_neg=snr_neg, snr=snr,
        threshold=threshold, stop_step=stop_step, chosen_step=chosen + 1, label=label,
    )
    return label, trace


def adaptive_predict(ds: TransferDataset, x) -> tuple[int, AdaptiveTrace]:
    """Adaptive two-sample classifier: scan k, stop on strong evidence.

    Walks the merged (distance-sorted) sequence of all n_P + n_Q samples.
    At step k the k nearest points split into k_P from P and k_Q from Q
    with label means eta_P, eta_Q (1/2 when a side is empty). The scan
    stops at the first k whose snr_index exceeds (d+3) * log(n_P + n_Q);
    if none does, the argmax step (smallest on ties) is used. The label is
    1{sqrt(k_P)(eta_P - 1/2) + sqrt(k_Q)(eta_Q - 1/2) >= 0} at that step.
    """
    return _adaptive_scan(ds, x, lambda k, eta, _pos, _neg: int(
        math.sqrt(k[1]) * (eta[1] - 0.5) + math.sqrt(k[0]) * (eta[0] - 0.5) >= 0))


def multisource_adaptive_predict(mds: MultiSourceDataset, x) -> tuple[int, AdaptiveTrace]:
    """Adaptive classifier over m sources plus the target.

    Same scan as adaptive_predict, with per-group evidence split by side:
    snr_pos(k) sums k_g (eta_g - 1/2)^2 over groups with eta_g >= 1/2,
    snr_neg(k) over groups with eta_g < 1/2. Stops at the first k where
    max(snr_pos, snr_neg) clears (d+3) * log(total n), argmax fallback.
    The label is 1{snr_pos >= snr_neg} at the chosen step.
    """
    return _adaptive_scan(mds, x, lambda _k, _eta, pos, neg: int(pos >= neg))


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


def lepski_predict(s: SampleSet, x, width: str = "algorithm3", return_trace: bool = False):
    """Interval-intersection adaptive k-NN label on a single sample.

    For k = 1..n the running intersection of the confidence intervals
    [eta_k - w_k, eta_k + w_k] around the k-NN label mean is tracked; the
    scan stops as soon as the intersection lies strictly above or below
    1/2 and labels 1{eta_k >= 1/2} at that k. If the intersection never
    separates, the label comes from eta_n. ``width`` picks the convention
    from LEPSKI_WIDTHS.
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
    if not return_trace:
        return label
    return label, LepskiTrace(eta=eta, width=w, lower=lower, upper=upper,
                              stop_step=stop_step, label=label)


def bayes_classify(model, x) -> int:
    """Oracle label under a known target regression: 0 iff eta_Q(x) <= 1/2.

    ``model`` is anything exposing ``eta_q(x)`` (see simulation.DriftModel).
    """
    return int(np.asarray(model.eta_q(x)) > 0.5)
