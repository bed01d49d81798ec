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
  intersection separates from 1/2, which is at the first k whose own
  interval lies strictly above or below 1/2.

The scan keeps two label rules and picks one by m: Alg. 3's sign of
sqrt(k_P)(eta_P - 1/2) + sqrt(k_Q)(eta_Q - 1/2) at m = 1, and
snr_pos >= snr_neg at m >= 2. They agree in exact arithmetic at m = 1,
but rounding can split them at exact ties.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import HyperParams, KnnPlan, SampleSet, TransferDataset, _check_count
from . import neighbors
from .neighbors import NeighborIndex, _check_k

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


def _floor_count(x: float) -> int:
    """floor(x) after rounding to 9 decimals, so a count that is an integer in exact
    arithmetic (8^(2/3) = 4, 2401^(1/2) = 49) survives a float power a few ulps low."""
    return math.floor(round(x, 9))


def default_knn_k(n: int, hp: HyperParams) -> int:
    """Rate-optimal single-sample neighbor count floor(n^(2b/(2b+d))), >= 1."""
    if _check_count(n, "n") == 0:
        return 0
    return max(1, _floor_count(n ** (2 * hp.beta / (2 * hp.beta + hp.d))))


def combined_budget_k(source_sizes: Sequence[int], n_q: int, hp: HyperParams) -> int:
    """Neighbor count for the source-blind pooled baseline.

    The total budget k_Q + sum_i k_i of ``minimax_plan(source_sizes, n_q,
    hp)``: the pooled classifier reads the neighborhood that the m-source
    weighted vote reads, but votes it uniformly, which isolates what the
    weights buy. With no source rows it equals default_knn_k(n_Q), so the
    pooled and target-only baselines coincide in the degenerate case.
    """
    plan = minimax_plan(source_sizes, n_q, hp)
    return max(1, plan.k_q + sum(plan.k_sources))


def _checked_sizes(source_sizes: Sequence[int], n_q: int) -> tuple[list[int], int]:
    """(source sizes, n_q) as ints, if there is at least one source size and every size,
    n_q too, is a count (``core._check_count``)."""
    sizes = [_check_count(n, f"source {i} size") for i, n in enumerate(source_sizes, start=1)]
    if not sizes:
        raise ValueError("need at least one source size")
    return sizes, _check_count(n_q, "n_q")


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
    sizes, n_q = _checked_sizes(source_sizes, n_q)
    if sum(sizes) == 0 and n_q == 0:
        raise ValueError("need at least one sample across all sets")
    b, d = hp.beta, float(hp.d)
    gammas = hp.gamma_vector(len(sizes))
    eff = float(n_q) + sum(
        float(n) ** ((2 * b + d) / (2 * g * b + d)) for n, g in zip(sizes, gammas)
    )
    shrink = eff ** (-d / (2 * b + d))
    w_q = eff ** (-b / (2 * b + d))
    k_q = max(_floor_count(n_q * shrink), min(n_q, 1))
    w_s = tuple(eff ** (-g * b / (2 * b + d)) for g in gammas)
    k_s = tuple(max(_floor_count(n * shrink), min(n, 1)) for n in sizes)
    return KnnPlan(k_sources=k_s, w_sources=w_s, k_q=k_q, w_q=w_q)


def _vote_eta(groups, ks: Sequence[int], ws: Sequence[float], x=None):
    """The weighted k-NN vote over the groups [Q, S_1..S_m].

    eta_hat(x) = sum_g w_g * (sum of the k_g nearest labels of group g)
    / sum_g w_g k_g. The numerator adds the groups in order, Q first; the
    denominator is w_Q k_Q plus the sum over the sources. Raises if a
    group is asked for more neighbors than it holds or every selected
    neighbor has zero weight. The groups are sample sets queried at x or,
    with no x, each group's labels nearest first (views of one order). Like
    ``DriftModel.eta_q``, x is one query (d,), read through the views of its
    ``merged_order``, with a float answer, or an (m, d) array answered row by
    row through the k-d tree path; both paths give the same values.
    """
    if ks[0] > len(groups[0]):
        raise ValueError(f"plan needs k_Q = {ks[0]} but Q has {len(groups[0])} samples")
    for i, (k, s) in enumerate(zip(ks[1:], groups[1:]), start=1):
        if k > len(s):
            raise ValueError(f"plan needs k = {k} from source {i} of size {len(s)}")
    den = ws[0] * ks[0] + sum(w * k for w, k in zip(ws[1:], ks[1:]))
    if den <= 0:
        raise ValueError("plan selects no positively weighted neighbors")
    if np.ndim(x) == 1:
        # Looked up on the module, as in adaptive_predict.
        mo = neighbors.merged_order(groups, x)
        groups, x = [mo.group_labels(g) for g in range(mo.n_groups)], None
    num = 0.0
    for s, k, w in zip(groups, ks, ws):
        if k and x is None:
            num += w * s[:k].sum()
        elif k:
            num += w * s.labels[NeighborIndex(s).query_batch(x, k)[1]].sum(axis=-1)
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
    return _label(_vote_eta((s,), (_check_k(k, len(s)),), (1.0,), x))


@dataclass(frozen=True, eq=False)
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
    The trace keeps the merged ``order``; the five arrays come from one block over
    all n steps when first read, as ``LepskiTrace``'s bounds do: ``k_counts`` (int64)
    and ``etas`` (1/2 filled in) from its float counts and sums. When the scan stopped
    in its first block, that read sorts the whole order (see ``MergedOrder``).
    """

    order: neighbors.MergedOrder
    threshold: float
    stop_step: int | None
    chosen_step: int
    label: int

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        k, sums, snr_pos, snr_neg, snr = _scan_block(self.order, 0, len(self.order))
        return k.astype(np.int64), _etas(k, sums), snr_pos, snr_neg, snr

    k_counts = property(lambda self: self._arrays[0])
    etas = property(lambda self: self._arrays[1])
    snr_pos = property(lambda self: self._arrays[2])
    snr_neg = property(lambda self: self._arrays[3])
    snr = property(lambda self: self._arrays[4])
    k_q = property(lambda self: self.k_counts[0])
    k_p = property(lambda self: self.k_counts[1])
    eta_q = property(lambda self: self.etas[0])
    eta_p = property(lambda self: self.etas[1])
    steps = property(lambda self: np.arange(1, len(self.order) + 1))


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
    one source, and 1{snr_pos >= snr_neg} for m >= 2. A scan that stops in
    the first quarter of the order computes no step past it and sorts only
    that quarter of the order.
    """
    # Looked up on the module, so a replaced neighbors.merged_order (a tracer
    # or a tie-rule mutation) sees every scan.
    return _adaptive_scan(neighbors.merged_order([ds.q_data, *ds.sources], x), ds.d)


def _scan_block(mo: neighbors.MergedOrder, lo: int, hi: int, carry=0) -> tuple:
    """(k, sums, snr_pos, snr_neg, snr) on steps lo..hi-1 (0-based): float64 counts, label sums.

    ``carry`` is the group counts and label sums of the steps before lo, as one (2, m+1, 1)
    array. Row g of the (m+1, hi-lo) arrays is group g; the sums over axis 0 add the
    groups in order, Q first. One allocation holds four float64 (m+1, hi-lo) buffers,
    filled in place: counts and sums (exact below 2^53, so bit for bit the full scan's),
    s = eta - 1/2 with no 1/2 fill (an empty group's term is +0.0) and the terms k s^2.
    A first block reads ``mo.head(hi)``, so it sorts only the hi nearest points.
    """
    group, labels = mo.head(hi)
    member = group[lo:] == np.arange(mo.n_groups)[:, None]
    k, sums, s, terms = buf = np.empty((4, *member.shape))
    np.cumsum(member, axis=1, dtype=np.float64, out=k)
    np.cumsum(np.logical_and(member, labels[lo:], out=member), axis=1, dtype=np.float64, out=sums)
    buf[:2] += carry
    np.divide(sums, np.maximum(k, 1.0, out=s), out=s)
    s -= 0.5
    np.multiply(k, s, out=terms)
    terms *= s
    np.multiply(terms, np.greater_equal(s, 0.0, out=member), out=s)  # the eta >= 1/2 side
    terms -= s
    snr_pos, snr_neg = s.sum(axis=0), terms.sum(axis=0)
    return k, sums, snr_pos, snr_neg, np.maximum(snr_pos, snr_neg)


def _etas(k: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The label means sums / k, 1/2 where a group holds no point."""
    return np.where(k > 0, sums / np.maximum(k, 1.0), 0.5)


def _adaptive_scan(mo: neighbors.MergedOrder, d: int) -> tuple[int, AdaptiveTrace]:
    """The scan of ``adaptive_predict`` over the merged order of [Q, S_1..S_m].

    It runs in at most two blocks, the first n // 4 steps and the rest; the
    second runs only if no step of the first stops the scan. With no stop,
    the chosen step is the first argmax over both blocks.
    """
    n = len(mo)
    if n == 0:
        raise ValueError("dataset is empty")
    threshold = (d + 3) * math.log(n)
    # numpy adds a one-step block's groups pairwise, not in order: no cut then.
    cuts = (0, n // 4, n) if n >= 8 else (0, n)
    carry, peak = 0, -1.0
    for lo, hi in zip(cuts, cuts[1:]):
        block = _scan_block(mo, lo, hi, carry)
        snr = block[4]
        exceed = snr > threshold
        stops = bool(exceed.any())
        i = int(np.argmax(exceed if stops else snr))
        if stops or snr[i] > peak:  # a later block takes the argmax only if strictly higher
            peak, chosen, col = snr[i], lo + i, [a[..., i].copy() for a in block]
        if stops:
            break
        carry = np.stack([a[:, -1:] for a in block[:2]])
        del block, snr, exceed  # copies kept: the first block is freed before the second
    k, sums, snr_pos, snr_neg, _ = col  # the chosen step's column
    if mo.n_groups == 2:
        eta = _etas(k, sums)
        label = int(math.sqrt(k[1]) * (eta[1] - 0.5) + math.sqrt(k[0]) * (eta[0] - 0.5) >= 0)
    else:
        label = int(snr_pos >= snr_neg)
    return label, AdaptiveTrace(
        order=mo, threshold=threshold, stop_step=chosen + 1 if stops else None,
        chosen_step=chosen + 1, label=label)


# Two conventions for the confidence width at step k; they differ in
# where the log(n) factor sits relative to the square root.
LEPSKI_WIDTHS = {
    "algorithm3": lambda n, d, k: np.sqrt((d + 3) / k) * math.log(n),
    "lemma5": lambda n, d, k: np.sqrt((d + 3) * math.log(n) / k),
}


def _check_width(width: str):
    if width not in LEPSKI_WIDTHS:
        raise ValueError(f"unknown width variant {width!r}; options: {sorted(LEPSKI_WIDTHS)}")


@dataclass(frozen=True, eq=False)
class LepskiTrace:
    """Per-step record of the interval-intersection scan.

    ``eta`` and ``width`` are indexed by step (k = index + 1); ``width`` is
    a read-only array shared by every scan of the same (n, d, width). The
    running bounds ``lower`` (max of eta_j - w_j over j <= k) and ``upper``
    (min of eta_j + w_j) are computed on access; the scan itself never
    needs them.
    """

    eta: np.ndarray
    width: np.ndarray
    stop_step: int | None
    label: int

    @property
    def lower(self) -> np.ndarray:
        return np.maximum.accumulate(self.eta - self.width)

    @property
    def upper(self) -> np.ndarray:
        return np.minimum.accumulate(self.eta + self.width)


def lepski_predict(s: SampleSet, x, width: str = "algorithm3") -> tuple[int, LepskiTrace]:
    """Interval-intersection adaptive k-NN label on a single sample.

    For k = 1..n the running intersection of the confidence intervals
    [eta_k - w_k, eta_k + w_k] around the k-NN label mean is tracked; it
    separates from 1/2 at the first k whose own interval lies strictly
    above or below 1/2, where the scan stops and labels 1{eta_k >= 1/2}.
    If no interval separates, the label comes from eta_n. ``width`` picks
    the convention from LEPSKI_WIDTHS. Returns (label, trace), like
    ``adaptive_predict``.
    """
    return _lepski_scan(neighbors.merged_order([s], x).labels, s.d, width)


@functools.lru_cache(maxsize=16)
def _lepski_steps(n: int, d: int, width: str) -> tuple[np.ndarray, np.ndarray]:
    """The read-only steps k = 1..n (float64) and their widths, one pair per (n, d, width)."""
    k = np.arange(1, n + 1, dtype=np.float64)
    w = LEPSKI_WIDTHS[width](n, d, k)
    k.setflags(write=False)
    w.setflags(write=False)
    return k, w


def _lepski_scan(labels: np.ndarray, d: int, width: str) -> tuple[int, LepskiTrace]:
    """The scan of ``lepski_predict`` over one sample's labels, nearest first.

    The intersection's lower end max_{j <= k}(eta_j - w_j) first exceeds
    1/2 at the first k with eta_k - w_k > 1/2 (likewise the upper end), so
    the stop is the first step whose own interval excludes 1/2.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("sample set is empty")
    _check_width(width)
    k, w = _lepski_steps(n, d, width)
    eta = np.cumsum(labels) / k
    split = (eta - w > 0.5) | (eta + w < 0.5)
    i = int(np.argmax(split))
    stop = i + 1 if split[i] else None
    label = int(eta[i if stop else -1] >= 0.5)
    return label, LepskiTrace(eta=eta, width=w, stop_step=stop, label=label)
