"""Synthetic posterior-drift experiments and Monte Carlo risk estimation.

The canned model, ``DriftModel``: covariates uniform on [0,1]^d for P and Q,
target regression eta_Q(x) = max(p_max - ||x - c||, 1/2), a cone around the
middle c of the cube, and source regression eta_P = 1/2 + (eta_Q - 1/2)^gamma.
The model owns its test ball B(c, 0.05), where test points are drawn, and its
signal ball B(c, p_max - 1/2), the only place where eta_Q differs from 1/2.

Both engines run one replication loop, ``_replicate``, over (model, n_P, n_Q) cells:
``run_accuracy_experiment`` sweeps method-vs-grid accuracy (one fresh dataset and one
test point per replication), and ``rate_exponent_check`` fits the empirical log-log
convergence slope of the Monte Carlo excess risk.

A replication orders its dataset once (``neighbors.merged_order``) and each
method reads that order, a one-set method through its target or pooled view;
batch prediction (``eval``, ``rate-check``, ``predict``) orders each query.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import core, neighbors
from .core import HyperParams, RandomSource, SampleSet, TransferDataset, pooled_sample_set
from .neighbors import _check_k
from .classifiers import _adaptive_scan, _check_width, _checked_sizes, _label
from .classifiers import _lepski_scan, _vote_eta
from .classifiers import (
    adaptive_predict,
    combined_budget_k,
    default_knn_k,
    knn_predict,
    lepski_predict,
    minimax_plan,
    weighted_knn_predict,
)

__all__ = [
    "DriftModel",
    "sample_dataset",
    "sample_multisource_dataset",
    "sample_test_points",
    "classification_accuracy",
    "McEstimate",
    "excess_risk_mc",
    "constant_classifier",
    "ExperimentRecord",
    "AggregateRow",
    "METHODS",
    "ADAPTIVE_METHODS",
    "NONADAPTIVE_METHODS",
    "fit_method",
    "run_accuracy_experiment",
    "summarize_accuracy",
    "EXPERIMENT_PRESETS",
    "run_preset",
    "target_rate_exponent",
    "RateCheckResult",
    "rate_exponent_check",
]

TEST_BALL_RADIUS = 0.05
N_BOOTSTRAP = 1000  # resamples behind rate_exponent_check's slope interval
_MC_CHUNK = 1 << 20  # Monte Carlo draws per chunk of excess_risk_mc

# Stream-id offsets so different experiment kinds never share streams.
_EXPERIMENT_STREAM_IDS = {
    "fig4a": 1, "fig4b": 2, "fig5a": 3, "fig5b": 4,
    "rate-q": 5, "rate-p": 6, "eval": 7,
}


@dataclass(frozen=True)
class DriftModel:
    """Cone-signal distribution pair with a power-link posterior drift.

    eta_Q(x) = max(p_max - ||x - c||, 1/2), with c the middle of the cube;
    eta_P(x) = 1/2 + (eta_Q(x) - 1/2)^gamma_sim.
    Covariates are uniform on [0,1]^d under both P and Q. The model owns its test
    ball B(c, test_radius) and its signal ball B(c, p_max - 1/2), where eta_Q != 1/2.
    eta_q (so eta_p, bayes) takes a query through ``neighbors._check_query``.
    """

    # |eta_Q - 1/2| = max(p_max - 1/2 - ||x - c||, 0) is the distance to the edge of
    # the signal ball, so P(0 < |eta_Q - 1/2| <= t) grows linearly in t: the margin
    # exponent of Audibert & Tsybakov (2007) is 1 for every p_max, gamma_sim and d.
    MARGIN_EXPONENT = 1.0

    p_max: float
    gamma_sim: float = 0.3
    d: int = 2
    test_radius: float = TEST_BALL_RADIUS

    def __post_init__(self):
        if not (0.5 < self.p_max <= 1.0):
            raise ValueError(f"p_max must be in (0.5, 1], got {self.p_max}")
        if not (self.gamma_sim > 0):
            raise ValueError(f"gamma_sim must be > 0, got {self.gamma_sim}")
        object.__setattr__(self, "d", core._check_count(self.d, "d", 1))
        object.__setattr__(self, "_center", np.full(self.d, 0.5))  # cone apex
        _check_radius(self.test_radius)

    def eta_q(self, x):
        x = neighbors._check_query(x, self.d)
        dist = neighbors._distances(x, self._center)
        val = np.maximum(self.p_max - dist, 0.5)
        return float(val) if x.ndim == 1 else val

    def eta_p(self, x):
        eq = np.asarray(self.eta_q(x))
        val = 0.5 + (eq - 0.5) ** self.gamma_sim
        return float(val) if val.ndim == 0 else val

    def bayes(self, x):
        """Oracle labels: 1 where eta_Q > 1/2, else 0."""
        val = (np.asarray(self.eta_q(x)) > 0.5).astype(np.int64)
        return int(val) if val.ndim == 0 else val

    def sample_covariates(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return gen.random((n, self.d))

    def sample_test_points(self, n: int, rng: RandomSource) -> np.ndarray:
        return sample_test_points(self._center, self.test_radius, n, rng)

    def signal_volume(self) -> float:
        return _ball_volume(self.d, self.p_max - 0.5)


def _check_radius(radius: float):
    if not (0 < radius < math.inf):
        raise ValueError(f"radius must be finite and > 0, got {radius}")


def _ball_volume(d: int, r: float) -> float:
    """V_d r^d, V_d taken in logs: pi^(d/2) and gamma(d/2 + 1) overflow a float."""
    return math.exp(d / 2 * math.log(math.pi) - math.lgamma(d / 2 + 1)) * r ** d


def sample_dataset(model: DriftModel, n_p: int, n_q: int, rng: RandomSource) -> TransferDataset:
    """Draw n_P source and n_Q target samples: sample_multisource_dataset with m = 1.

    The target draw uses substream 0 and the source draw substream 1, so
    the Q sample for a given rng is identical whatever n_P is.
    """
    return sample_multisource_dataset(model, (n_p,), n_q, rng)


def sample_multisource_dataset(model: DriftModel, source_sizes: Sequence[int], n_q: int,
                               rng: RandomSource) -> TransferDataset:
    """Draw m source samples (all from the model's P) plus a target sample.

    The target uses substream 0 and source i (1-based) substream i.
    """
    sizes, n_q = _checked_sizes(source_sizes, n_q)

    def draw(n: int, eta: Callable, stream: int) -> SampleSet:
        if n == 0:
            return SampleSet.empty(model.d)
        gen = rng.substream(stream).generator()
        x = model.sample_covariates(n, gen)
        return SampleSet(x, gen.random(n) < eta(x))

    q = draw(n_q, model.eta_q, 0)
    return TransferDataset(tuple(draw(n, model.eta_p, i) for i, n in enumerate(sizes, start=1)), q)


def sample_test_points(x_c: Sequence[float], radius: float, n: int, rng: RandomSource) -> np.ndarray:
    """n points uniform on the ball B(x_c, radius): by rejection from the cube while the
    ball fills at least 1% of it (d <= 8), else a Gaussian direction times radius U^(1/d)
    (Muller 1959; Marsaglia 1972)."""
    center = np.asarray(x_c, dtype=np.float64)
    if center.ndim != 1 or not np.isfinite(center).all():
        raise ValueError(f"x_c must be a finite vector, got {center.tolist()}")
    _check_radius(radius)
    if (np.abs(center) > core.MAX_COORD - radius).any():  # |x_c_j| + radius > MAX_COORD
        raise ValueError(f"ball of radius {radius} at {center.tolist()}: {core.BAD_COORD}")
    n = core._check_count(n, "n", 1)
    d = center.shape[0]
    gen = rng.generator()
    if _ball_volume(d, 0.5) < 0.01:
        z = gen.standard_normal((n, d))
        scale = radius * gen.random(n) ** (1.0 / d) / np.linalg.norm(z, axis=1)
        return center + scale[:, None] * z
    out = np.empty((n, d))
    have = 0
    while have < n:
        batch = max(64, 2 * (n - have))
        cand = center + radius * (2.0 * gen.random((batch, d)) - 1.0)
        keep = cand[neighbors._squared_distances(cand, center) <= radius * radius]
        take = min(len(keep), n - have)
        out[have:have + take] = keep[:take]
        have += take
    return out


def classification_accuracy(predict: Callable[[np.ndarray], np.ndarray], model: DriftModel,
                            test_points: np.ndarray) -> float:
    """Fraction of test points where the prediction, one 0/1 label per point, matches the
    oracle label."""
    pts = np.asarray(test_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("test_points must be a nonempty (m, d) array")
    return float(np.mean(_labels_of(predict, pts) == model.bayes(pts)))


def _labels_of(predict: Callable[[np.ndarray], np.ndarray], pts: np.ndarray) -> np.ndarray:
    """predict(pts), if it is one 0/1 label per row of pts: the scorers' check of a predictor."""
    pred = np.asarray(predict(pts))
    if pred.shape != (len(pts),):
        raise ValueError(f"a predictor must answer one label per point: {len(pts)} points, "
                         f"answer of shape {pred.shape}")
    bad = np.flatnonzero((pred != 0) & (pred != 1))
    if bad.size:
        raise ValueError(f"a predictor must answer 0 or 1, got {pred.tolist()[bad[0]]!r}")
    return pred


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    value: float
    std_error: float
    n: int


def excess_risk_mc(predict: Callable[[np.ndarray], np.ndarray], model: DriftModel,
                   n_mc: int, rng: RandomSource) -> McEstimate:
    """Monte Carlo excess risk of a classifier against the oracle.

    Estimates 2 E[|eta_Q(X) - 1/2| 1{predict(X) != bayes(X)}] with X
    uniform on [0,1]^d. Draws with zero weight |eta_Q - 1/2| = 0 contribute
    exactly zero, so the classifier (one 0/1 label per point) is only evaluated where
    the weight is positive; the estimate and standard error equal the full evaluation's.
    The variance merges per-chunk moments (no E[x^2] - mean^2 cancellation).
    The draw sequence depends only on rng, not on the chunk size. The one draw
    budget check: n_mc * signal_volume() < 1 expected live draws is refused.
    """
    n_mc = core._check_count(n_mc, "n_mc", 2)
    if n_mc * model.signal_volume() < 1:
        raise ValueError(f"too few draws ({_ball_note(model, n_mc)}; need at least 1)")
    gen = rng.generator()
    total = 0.0
    moments = (0, 0.0, 0.0)  # count, mean, sum of squared deviations
    done = 0
    while done < n_mc:
        m = min(_MC_CHUNK, n_mc - done)
        pts = gen.random((m, model.d))
        eta = model.eta_q(pts)
        weight = 2.0 * np.abs(eta - 0.5)
        live = np.flatnonzero(weight > 0)
        pred = _labels_of(predict, pts[live]) if live.size else 0
        contrib = weight[live] * (pred != (eta[live] > 0.5))
        total += float(contrib.sum())
        moments = _add_chunk(moments, contrib, m)
        done += m
    var = moments[2] / (n_mc - 1)
    return McEstimate(value=total / n_mc, std_error=math.sqrt(var / n_mc), n=n_mc)


def _ball_note(model: DriftModel, n_mc: int) -> str:
    """How many of n_mc uniform draws the signal ball expects, with the settings behind it."""
    return (f"d = {model.d}, p_max = {model.p_max}, n_mc = {n_mc}: about "
            f"{n_mc * model.signal_volume():.3g} Monte Carlo draws are expected in the signal ball")


def _add_chunk(moments: tuple[int, float, float], values: np.ndarray, n: int):
    """moments after n more draws, values then zeros (Chan, Golub & LeVeque merge)."""
    count, mean, m2 = moments
    c_mean = float(values.sum()) / n
    dev = values - c_mean
    c_m2 = float(dev @ dev) + (n - len(values)) * c_mean * c_mean
    total, delta = count + n, c_mean - mean
    return total, mean + delta * n / total, m2 + c_m2 + delta * delta * count * n / total


def constant_classifier(label: int) -> Callable[[np.ndarray], np.ndarray]:
    """Batch predictor that always answers the given label."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")

    def predict(pts: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(pts).shape[0], label, dtype=np.int64)

    return predict


class FittedMethod:
    """A fitted classifier: one label from a merged order, or labels of query rows."""

    def __init__(self, name: str, ds: TransferDataset, order_fn: Callable, batch_fn: Callable):
        self.name, self._order, self._batch = name, order_fn, batch_fn
        self._shape = (ds.m + 1, ds.n_q + ds.n_p)

    def predict_order(self, mo: neighbors.MergedOrder) -> int:
        """The label of an order of the fitted dataset's [Q, S_1..S_m] around one query."""
        shape = (mo.n_groups, len(mo))
        if shape != self._shape:
            raise ValueError(f"an order of (sets, points) {shape} for a fit of {self._shape}")
        return int(self._order(mo))

    def predict_batch(self, pts: np.ndarray) -> np.ndarray:
        """The labels of the rows of an (m, d) array."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"pts must be (m, d), got shape {pts.shape}")
        return np.asarray(self._batch(pts), dtype=np.int64)


# The named methods of simulate, eval and predict, all built by fit_method. predict's knn
# and lepski are spellings of qonly, combined, lepski-q and lepski-combined.
METHODS = ("weighted", "combined", "qonly", "adaptive", "lepski-combined", "lepski-q")
NONADAPTIVE_METHODS = ("weighted", "combined", "qonly")
ADAPTIVE_METHODS = ("adaptive", "lepski-combined", "lepski-q")


def fit_method(name: str, ds: TransferDataset, hp: HyperParams,
               lepski_width: str = "algorithm3", k: int | None = None) -> FittedMethod:
    """Fit a named method to a dataset with any number of sources: the one place a method is
    built, after the one check of every fit's settings (name, hp.d, the length of hp.gamma,
    Lepski width, then k). weighted is the vote over [Q, S_1..S_m] with the minimax_plan and
    adaptive the adaptive scan over them, a batch scanning each row's own order; both raise
    ValueError when every set is empty. The one-set methods read Q, or the pooled S_1..S_m,
    Q (its SampleSet built on the first batch), and raise ValueError when that set is empty:
    qonly and combined are the plain k-NN majority vote, k in [1, n] if given (refused on
    other methods), else default_knn_k on Q and combined_budget_k pooled; lepski-q and
    lepski-combined the Lepski interval scan, a batch scanning row by row."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; options: {sorted(METHODS)}")
    if hp.d != ds.d:
        raise ValueError(f"hyper-parameters have d = {hp.d} but the dataset has d = {ds.d}")
    hp.gamma_vector(ds.m)
    _check_width(lepski_width)
    if k is not None and name not in ("qonly", "combined"):
        raise ValueError(f"k applies only to qonly and combined, not {name!r}")
    pooled = name in ("combined", "lepski-combined")
    n = ds.n_q + (0 if name in ("qonly", "lepski-q") else ds.n_p)
    if n == 0:
        raise ValueError(f"method {name!r} has no samples to fit on")
    if name == "weighted":
        plan = minimax_plan(ds.source_sizes, ds.n_q, hp)
        ks, ws = (plan.k_q, *plan.k_sources), (plan.w_q, *plan.w_sources)
        views = lambda mo: [mo.group_labels(g) for g in range(mo.n_groups)]
        return FittedMethod(name, ds, lambda mo: _label(_vote_eta(views(mo), ks, ws)),
                            lambda pts: weighted_knn_predict(ds, plan, pts))
    if name == "adaptive":
        return FittedMethod(name, ds, lambda mo: _adaptive_scan(mo, ds.d)[0],
                            lambda pts: [adaptive_predict(ds, x)[0] for x in pts])
    view = neighbors.MergedOrder.pooled_labels if pooled else lambda mo: mo.group_labels(0)
    one_set = functools.cache(lambda: pooled_sample_set(ds)) if pooled else lambda: ds.q_data
    if name.startswith("lepski"):
        return FittedMethod(name, ds, lambda mo: _lepski_scan(view(mo), ds.d, lepski_width)[0],
                            lambda pts: [lepski_predict(one_set(), x, width=lepski_width)[0]
                                         for x in pts])
    if k is None:
        k = combined_budget_k(ds.source_sizes, ds.n_q, hp) if pooled else default_knn_k(n, hp)
    k = _check_k(k, n)
    return FittedMethod(name, ds, lambda mo: _label(_vote_eta((view(mo),), (k,), (1.0,))),
                        lambda pts: knn_predict(one_set(), k, pts))


@dataclass(frozen=True)
class ExperimentRecord:
    """One replication of one method at one grid point. wall_time is the seconds of that
    method's fit and score, not of the dataset draw or an order shared by methods; no CSV
    writes it."""

    experiment: str
    method: str
    seed: int
    replication: int
    p_max: float
    gamma: float
    d: int
    n_p: int
    n_q: int
    accuracy: float | None
    excess_risk: float | None
    wall_time: float

    def __post_init__(self):
        if self.accuracy is not None and not (0.0 <= self.accuracy <= 1.0):
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.excess_risk is not None and not (self.excess_risk >= 0.0):
            raise ValueError(f"excess risk must be >= 0, got {self.excess_risk}")


@dataclass(frozen=True)
class AggregateRow:
    """Mean accuracy of one method at one grid point, over all replications."""

    experiment: str
    method: str
    seed: int
    p_max: float
    gamma: float
    d: int
    n_p: int
    n_q: int
    reps: int
    accuracy_mean: float
    accuracy_se: float


def run_accuracy_experiment(experiment: str, methods: Sequence[str],
                            p_max_values: Sequence[float], n_p_values: Sequence[int],
                            n_q: int, reps: int, seed: int, gamma: float = 0.3,
                            beta: float = 1.0, d: int = 2,
                            lepski_width: str = "algorithm3") -> list[ExperimentRecord]:
    """Accuracy sweep over a (p_max x n_P) grid.

    Each replication draws a fresh dataset and one test point from the model's test ball,
    orders the dataset once around it and scores every method on that order. gamma is used
    both to generate the source data and in the weighted plan. The experiment (a preset's
    name, which keys its streams), the methods (a sequence of names, at least one, none
    twice), each grid point's model and sizes, and reps against the substream cap are
    checked before the first replication; fit_method checks method names and width in it.
    """
    _preset(experiment)  # a name outside the presets would share another sweep's streams
    reps = core._check_count(reps, "reps", 1)
    hp = HyperParams(beta=beta, gamma=gamma, d=d)
    gamma = hp.scalar_gamma()  # a vector is refused even on an empty grid
    if isinstance(methods, str):
        raise ValueError(f"methods must be a sequence of method names, got {methods!r}")
    if not methods or len(set(methods)) != len(methods):
        raise ValueError(f"methods must be distinct and nonempty, got {tuple(methods)}")
    root = RandomSource(seed).substream(_EXPERIMENT_STREAM_IDS[experiment])
    cells = [(DriftModel(pm, gamma, hp.d), n_p, n_q)
             for pm in p_max_values for n_p in n_p_values]
    for i, (model, n_p, n_q) in enumerate(cells):
        (n_p,), n_q = _checked_sizes((n_p,), n_q)
        cells[i] = model, n_p, n_q

    def score(model, ds, rs):
        x = model.sample_test_points(1, rs)[0]
        truth = model.bayes(x)
        # one order for every method (looked up on the module), sorted outside the timed fits
        mo = neighbors.merged_order([ds.q_data, *ds.sources], x)
        mo.labels  # sorts the whole order
        for name in methods:
            t0 = time.perf_counter()
            pred = fit_method(name, ds, hp, lepski_width).predict_order(mo)
            yield name, float(pred == truth), None, time.perf_counter() - t0

    return _replicate(experiment, root, cells, reps, score)


def _replicate(experiment: str, root: RandomSource, cells: Sequence[tuple], reps: int,
               score: Callable, first: int = 0) -> list[ExperimentRecord]:
    """The one replication loop: replication r of cell i, a checked (model, n_p, n_q), draws
    its dataset from root.substream(first + i).substream(r).substream(0), and score(model, ds,
    that stream's substream(1)) yields one (method, accuracy, excess_risk, wall_time) per
    record. An empty grid, then reps beyond the substream cap, are refused first."""
    if not cells:
        raise ValueError("empty grid")
    root.substream(reps - 1)  # the last replication's stream must exist
    records: list[ExperimentRecord] = []
    for i, (model, n_p, n_q) in enumerate(cells):
        cell_rs = root.substream(first + i)
        for rep in range(reps):
            rs = cell_rs.substream(rep)
            ds = sample_dataset(model, n_p, n_q, rs.substream(0))
            records += [ExperimentRecord(experiment, method, root.seed, rep, float(model.p_max),
                                         model.gamma_sim, model.d, n_p, n_q, *scored)
                        for method, *scored in score(model, ds, rs.substream(1))]
    return records


def summarize_accuracy(records: Sequence[ExperimentRecord]) -> list[AggregateRow]:
    """Collapse per-replication records to per-(method, grid point) means.

    Rows keep first-appearance order. The standard error is the sample
    standard deviation of the replication accuracies over sqrt(reps).
    """
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for r in records:
        if r.accuracy is None:
            raise ValueError("record without accuracy cannot be aggregated")
        # the first eight fields of AggregateRow, in order
        key = (r.experiment, r.method, r.seed, r.p_max, r.gamma, r.d, r.n_p, r.n_q)
        groups.setdefault(key, []).append(r)
    rows = []
    for key, recs in groups.items():
        acc = np.array([r.accuracy for r in recs])
        se = float(acc.std(ddof=1) / math.sqrt(len(acc))) if len(acc) > 1 else 0.0
        rows.append(AggregateRow(*key, reps=len(recs), accuracy_mean=float(acc.mean()),
                                 accuracy_se=se))
    return rows


def _pmax_grid() -> tuple[float, ...]:
    return tuple(round(0.505 + 0.005 * i, 3) for i in range(10))


def _np_grid() -> tuple[int, ...]:
    return (250, 500, 1000, 2000, 4000, 8000, 16000)


# Canned experiment presets. fig4a/fig5a sweep the peak posterior level
# at fixed sample sizes; fig4b/fig5b sweep n_P at a fixed signal level.
# The fig5 pair runs the self-tuning methods instead of the plan-based ones.
EXPERIMENT_PRESETS: dict[str, dict] = {
    "fig4a": dict(methods=NONADAPTIVE_METHODS, p_max_values=_pmax_grid(),
                  n_p_values=(2000,), n_q=5000, reps=2000),
    "fig4b": dict(methods=NONADAPTIVE_METHODS, p_max_values=(0.53,),
                  n_p_values=_np_grid(), n_q=5000, reps=1000),
    "fig5a": dict(methods=ADAPTIVE_METHODS, p_max_values=_pmax_grid(),
                  n_p_values=(2000,), n_q=5000, reps=2000),
    "fig5b": dict(methods=ADAPTIVE_METHODS, p_max_values=(0.53,),
                  n_p_values=_np_grid(), n_q=5000, reps=1000),
}


def run_preset(name: str, seed: int, **overrides) -> list[ExperimentRecord]:
    """Run a canned experiment, optionally overriding any engine argument."""
    return run_accuracy_experiment(name, seed=seed, **{**_preset(name), **overrides})


def _preset(name: str) -> dict:
    """The arguments of the canned experiment name; any other name is refused."""
    if name not in EXPERIMENT_PRESETS:
        raise ValueError(f"unknown experiment {name!r}; options: {sorted(EXPERIMENT_PRESETS)}")
    return EXPERIMENT_PRESETS[name]


def target_rate_exponent(hp: HyperParams, sweep: str = "q") -> float:
    """Theoretical log-log slope of the excess risk for a size sweep of the cone model.

    Target-only ("q"): -beta (1+alpha) / (2 beta + d).
    Source-only ("p"): -beta (1+alpha) / (2 gamma beta + d).
    alpha is the cone's margin exponent, DriftModel.MARGIN_EXPONENT = 1.
    """
    b, a, d = hp.beta, DriftModel.MARGIN_EXPONENT, float(hp.d)
    if sweep == "q":
        return -b * (1 + a) / (2 * b + d)
    if sweep == "p":
        return -b * (1 + a) / (2 * hp.scalar_gamma() * b + d)
    raise ValueError(f"sweep must be 'q' or 'p', got {sweep!r}")


@dataclass(frozen=True, eq=False)
class RateCheckResult:
    """Fitted convergence slope of the excess risk over a size grid."""

    sweep: str
    sizes: tuple[int, ...]
    mean_risks: tuple[float, ...]
    rep_risks: np.ndarray
    slope: float
    ci_low: float
    ci_high: float
    target_slope: float
    n_mc: int
    reps: int
    seed: int
    records: list[ExperimentRecord] = field(repr=False, default_factory=list)


def _fit_slope(log_sizes: np.ndarray, means: np.ndarray):
    """Least-squares slope of log(means) on log_sizes; one per column of a 2-d means."""
    return np.polyfit(log_sizes, np.log(means), 1)[0]


def _bootstrap_ci(rep_risks: np.ndarray, log_sizes: np.ndarray, gen: np.random.Generator,
                  n_bootstrap: int) -> tuple[float, ...]:
    """95% percentile slope interval over n_bootstrap resamples, drawn and fitted at once."""
    draws = gen.integers(rep_risks.shape[1], size=(n_bootstrap, *rep_risks.shape))
    means = np.take_along_axis(rep_risks[None], draws, axis=2).mean(axis=2)
    means = means[np.all(means > 0, axis=1)]
    if len(means) < max(n_bootstrap // 2, 1):
        raise RuntimeError("bootstrap degenerate: too many zero-risk resamples")
    return tuple(map(float, np.percentile(_fit_slope(log_sizes, means.T), [2.5, 97.5])))


def rate_exponent_check(hp: HyperParams, sizes: Sequence[int], reps: int, rng: RandomSource,
                        sweep: str = "q", p_max: float = 0.60,
                        n_mc: int = 100_000) -> RateCheckResult:
    """Empirical convergence slope of the weighted-plan classifier.

    The default signal level is 0.60 rather than the accuracy experiments'
    0.55: at 0.55 the k-NN neighborhood radius exceeds the signal ball for
    every size on the default grid, so the measured risk curve is flat and
    no slope is identifiable at desk scale. 0.60 is still pre-asymptotic: its
    intervals exclude -0.5, the cone model's tight rate at d = 2 (alpha = 1).

    For each size n in the grid, draws ``reps`` independent datasets
    (target-only for sweep="q", source-only for sweep="p"), estimates each
    classifier's excess risk by Monte Carlo with n_mc draws, and regresses
    log(mean risk) on log(n). The confidence interval comes from a
    replication bootstrap of N_BOOTSTRAP resamples. The grid must hold at least 4
    sizes spanning at least a decade, and reps below 2**20, the substream fan-out
    cap. The target slope is target_rate_exponent at the cone's margin exponent, alpha = 1.
    """
    target = target_rate_exponent(hp, sweep)
    if len(sizes) < 4:
        raise ValueError(f"degenerate grid: need >= 4 sizes, got {len(sizes)}")
    sizes = tuple(core._check_count(n, "size", 1) for n in sizes)
    if max(sizes) < 10 * min(sizes):
        raise ValueError("degenerate grid: sizes must span at least a decade")
    reps = core._check_count(reps, "reps", 2)
    n_mc = core._check_count(n_mc, "n_mc", 2)
    model = DriftModel(p_max, hp.scalar_gamma(), hp.d)
    root = rng.substream(_EXPERIMENT_STREAM_IDS[f"rate-{sweep}"])

    def score(model, ds, rs):
        t0 = time.perf_counter()
        risk = excess_risk_mc(fit_method("weighted", ds, hp).predict_batch, model, n_mc, rs)
        return [("weighted", None, risk.value, time.perf_counter() - t0)]

    cells = [(model, *((0, n) if sweep == "q" else (n, 0))) for n in sizes]
    # stream 0 of root is the bootstrap's, so the cells start at 1
    records = _replicate(f"rate-{sweep}", root, cells, reps, score, first=1)
    rep_risks = np.array([r.excess_risk for r in records]).reshape(len(sizes), reps)
    means = rep_risks.mean(axis=1)
    if np.any(means <= 0):
        bad = sizes[int(np.flatnonzero(means <= 0)[0])]
        raise RuntimeError(f"mean excess risk is zero at size {bad}; cannot fit a log-log "
                           f"slope ({_ball_note(model, n_mc)})")
    log_sizes = np.log(np.asarray(sizes, dtype=np.float64))
    lo, hi = _bootstrap_ci(rep_risks, log_sizes, root.substream(0).generator(), N_BOOTSTRAP)
    return RateCheckResult(
        sweep=sweep, sizes=sizes, mean_risks=tuple(float(v) for v in means),
        rep_risks=rep_risks, slope=float(_fit_slope(log_sizes, means)), ci_low=lo, ci_high=hi,
        target_slope=target, n_mc=n_mc, reps=reps, seed=rng.seed, records=records,
    )
