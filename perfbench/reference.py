"""Brute-force reference labels for the predict-lattice workload.

Independent of driftknn: every query sorts all training rows by exact
squared distance, with the tie rules the package documents:

* merged order (adaptive): distance, then Q before P, then index in its set;
* per-set order (weighted): distance, then index;
* pooled order (lepski --pool): distance, then index in P rows then Q rows.

Squared distances are exact for coordinates on a dyadic lattice such as
k/128, so ties are detected exactly; the labels follow the formulas of
Cai & Wei (Ann. Statist. 49(1), 2021), Alg. 2 and 3, and the Lepski scan
in the order the package evaluates them.
"""

from __future__ import annotations

import math

import numpy as np


def _sqdist(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    diff = points - x
    return (diff * diff).sum(axis=1)


def adaptive_label(p_pts, p_lab, q_pts, q_lab, x) -> int:
    """Adaptive scan over the merged order; stop at the first k whose
    statistic exceeds (d+3) log n, else take the first argmax."""
    n_q, n_p = len(q_pts), len(p_pts)
    n, d = n_q + n_p, q_pts.shape[1]
    dist = np.concatenate([_sqdist(q_pts, x), _sqdist(p_pts, x)])
    group = np.concatenate([np.zeros(n_q, np.int64), np.ones(n_p, np.int64)])
    within = np.concatenate([np.arange(n_q), np.arange(n_p)])
    order = np.lexsort((within, group, dist))
    labels = np.concatenate([q_lab, p_lab])[order]
    is_q = group[order] == 0
    k_q = np.cumsum(is_q)
    k_p = np.arange(1, n + 1) - k_q
    eta_q = np.where(k_q > 0, np.cumsum(labels * is_q) / np.maximum(k_q, 1), 0.5)
    eta_p = np.where(k_p > 0, np.cumsum(labels * ~is_q) / np.maximum(k_p, 1), 0.5)
    sp, sq = eta_p - 0.5, eta_q - 0.5
    term_p, term_q = k_p * sp * sp, k_q * sq * sq
    snr = np.where(sp * sq >= 0, term_p + term_q, np.maximum(term_p, term_q))
    exceed = np.flatnonzero(snr > (d + 3) * math.log(n))
    k = int(exceed[0]) if exceed.size else int(np.argmax(snr))
    score = math.sqrt(k_p[k]) * sp[k] + math.sqrt(k_q[k]) * sq[k]
    return int(score >= 0)


def weighted_plan(n_p: int, n_q: int, gamma: float, beta: float, d: int):
    """(k_P, k_Q, w_P, w_Q) of the minimax-weighted vote."""
    b, dd = beta, float(d)
    eff = float(n_p) ** ((2 * b + dd) / (2 * gamma * b + dd)) + float(n_q)
    w_q = eff ** (-b / (2 * b + dd))
    w_p = eff ** (-gamma * b / (2 * b + dd))
    shrink = eff ** (-dd / (2 * b + dd))
    k_q = max(math.floor(n_q * shrink), min(n_q, 1))
    k_p = max(math.floor(n_p * shrink), min(n_p, 1))
    return k_p, k_q, w_p, w_q


def weighted_label(p_pts, p_lab, q_pts, q_lab, x, plan) -> int:
    """Weighted vote of the k_P nearest P labels and k_Q nearest Q labels."""
    k_p, k_q, w_p, w_q = plan

    def label_sum(pts, lab, k):
        order = np.lexsort((np.arange(len(pts)), _sqdist(pts, x)))
        return int(lab[order[:k]].sum())

    num = w_p * label_sum(p_pts, p_lab, k_p) + w_q * label_sum(q_pts, q_lab, k_q)
    return int(num / (w_p * k_p + w_q * k_q) > 0.5)


def lepski_label(pts, lab, x) -> int:
    """Interval-intersection scan with the algorithm3 width
    sqrt((d+3)/k) log n over the single sample ``pts``."""
    n, d = len(pts), pts.shape[1]
    order = np.lexsort((np.arange(n), _sqdist(pts, x)))
    k = np.arange(1, n + 1, dtype=np.float64)
    eta = np.cumsum(lab[order]) / k
    w = np.sqrt((d + 3) / k) * math.log(n)
    lower = np.maximum.accumulate(eta - w)
    upper = np.minimum.accumulate(eta + w)
    split = np.flatnonzero((lower > 0.5) | (upper < 0.5))
    return int(eta[split[0] if split.size else -1] >= 0.5)


def reference_labels(p_pts, p_lab, q_pts, q_lab, queries, gamma: float,
                     beta: float = 1.0) -> dict[str, np.ndarray]:
    """Labels of every query for the three predict methods the workload runs."""
    plan = weighted_plan(len(p_pts), len(q_pts), gamma, beta, q_pts.shape[1])
    pooled_pts = np.concatenate([p_pts, q_pts])
    pooled_lab = np.concatenate([p_lab, q_lab])
    out = {"adaptive": [], "weighted": [], "lepski": []}
    for x in queries:
        out["adaptive"].append(adaptive_label(p_pts, p_lab, q_pts, q_lab, x))
        out["weighted"].append(weighted_label(p_pts, p_lab, q_pts, q_lab, x, plan))
        out["lepski"].append(lepski_label(pooled_pts, pooled_lab, x))
    return {m: np.asarray(v, dtype=np.int64) for m, v in out.items()}
