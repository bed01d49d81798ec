"""Synthetic posterior-drift experiments and Monte Carlo risk estimation.

The canned model: covariates uniform on [0,1]^d for both P and Q, target
regression eta_Q(x) = max(p_max - ||x - x_c||, 1/2) (a cone of height
p_max - 1/2 and radius p_max - 1/2 on a flat 1/2 plateau), and source
regression eta_P = 1/2 + (eta_Q - 1/2)^gamma. Test points are drawn
uniformly from the ball B(x_c, 0.05) where the signal lives.

The experiment engine runs method-vs-grid accuracy sweeps (one fresh
dataset and one test point per replication), and ``rate_exponent_check``
fits the empirical log-log convergence slope of the excess risk.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import HyperParams, RandomSource, SampleSet, TransferDataset, pooled_sample_set
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
    "make_drift_model",
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

# Stream-id offsets so different experiment kinds never share streams.
_EXPERIMENT_STREAM_IDS = {
    "fig4a": 1, "fig4b": 2, "fig5a": 3, "fig5b": 4,
    "rate-q": 5, "rate-p": 6, "eval": 7,
}


@dataclass(frozen=True)
class DriftModel:
    """Cone-signal distribution pair with a power-link posterior drift.

    eta_Q(x) = max(p_max - ||x - x_c||, 1/2);
    eta_P(x) = 1/2 + (eta_Q(x) - 1/2)^gamma_sim.
    Covariates are uniform on [0,1]^d under both P and Q.
    """

    p_max: float
    gamma_sim: float
    d: int
    x_c: np.ndarray

    def eta_q(self, x):
        x = np.asarray(x, dtype=np.float64)
        dist = np.sqrt(((x - self.x_c) ** 2).sum(axis=-1))
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

    def sample_labels(self, points: np.ndarray, which: str, gen: np.random.Generator) -> np.ndarray:
        """Bernoulli labels at the given points under eta_P or eta_Q."""
        if which == "P":
            eta = self.eta_p(points)
        elif which == "Q":
            eta = self.eta_q(points)
        else:
            raise ValueError(f"which must be 'P' or 'Q', got {which!r}")
        return (gen.random(points.shape[0]) < eta).astype(np.int64)


def make_drift_model(p_max: float, gamma_sim: float = 0.3, d: int = 2,
                     x_c: Sequence[float] | None = None) -> DriftModel:
    """Validated cone-signal model; x_c defaults to the cube center."""
    if not (0.5 < p_max <= 1.0):
        raise ValueError(f"p_max must be in (0.5, 1], got {p_max}")
    if not (gamma_sim > 0):
        raise ValueError(f"gamma_sim must be > 0, got {gamma_sim}")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"d must be an integer >= 1, got {d}")
    if x_c is None:
        center = np.full(int(d), 0.5)
    else:
        center = np.asarray(x_c, dtype=np.float64)
        if center.shape != (d,):
            raise ValueError(f"x_c must have shape ({d},), got {center.shape}")
        if not np.all((center >= 0) & (center <= 1)):
            raise ValueError("x_c must lie in [0,1]^d")
    center.setflags(write=False)
    return DriftModel(p_max=float(p_max), gamma_sim=float(gamma_sim), d=int(d), x_c=center)


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
    sizes = [int(n) for n in source_sizes]
    if len(sizes) < 1:
        raise ValueError("need at least one source size")
    if any(n < 0 for n in sizes) or n_q < 0:
        raise ValueError(f"sample sizes must be >= 0, got sources {sizes}, target {n_q}")

    def draw(n: int, which: str, stream: int) -> SampleSet:
        if n == 0:
            return SampleSet.empty(model.d)
        gen = rng.substream(stream).generator()
        x = model.sample_covariates(n, gen)
        return SampleSet(x, model.sample_labels(x, which, gen))

    q = draw(n_q, "Q", 0)
    return TransferDataset(tuple(draw(n, "P", i) for i, n in enumerate(sizes, start=1)), q)


def sample_test_points(x_c: Sequence[float], radius: float, n: int, rng: RandomSource) -> np.ndarray:
    """n points uniform on the ball B(x_c, radius), by rejection from the cube."""
    center = np.asarray(x_c, dtype=np.float64)
    if center.ndim != 1:
        raise ValueError("x_c must be a vector")
    if not (radius > 0):
        raise ValueError(f"radius must be > 0, got {radius}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    d = center.shape[0]
    gen = rng.generator()
    out = np.empty((n, d))
    have = 0
    while have < n:
        batch = max(64, 2 * (n - have))
        cand = center + radius * (2.0 * gen.random((batch, d)) - 1.0)
        keep = cand[((cand - center) ** 2).sum(axis=1) <= radius * radius]
        take = min(len(keep), n - have)
        out[have:have + take] = keep[:take]
        have += take
    return out


def classification_accuracy(predict: Callable[[np.ndarray], np.ndarray], model: DriftModel,
                            test_points: np.ndarray, target: str = "bayes",
                            rng: RandomSource | None = None) -> float:
    """Fraction of test points where the prediction matches the ground truth.

    ``target="bayes"`` scores against the oracle labels; ``"noisy"`` draws
    fresh labels from eta_Q (requires rng).
    """
    pts = np.asarray(test_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("test_points must be a nonempty (m, d) array")
    pred = np.asarray(predict(pts))
    if target == "bayes":
        truth = model.bayes(pts)
    elif target == "noisy":
        if rng is None:
            raise ValueError("noisy accuracy target requires rng")
        truth = model.sample_labels(pts, "Q", rng.generator())
    else:
        raise ValueError(f"unknown accuracy target {target!r}")
    return float(np.mean(pred == truth))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    value: float
    std_error: float
    n: int


def excess_risk_mc(predict: Callable[[np.ndarray], np.ndarray], model: DriftModel,
                   n_mc: int, rng: RandomSource, chunk_size: int = 1 << 20) -> McEstimate:
    """Monte Carlo excess risk of a classifier against the oracle.

    Estimates 2 E[|eta_Q(X) - 1/2| 1{predict(X) != bayes(X)}] with X
    uniform on [0,1]^d. Draws with zero weight |eta_Q - 1/2| = 0 contribute
    exactly zero, so the classifier is only evaluated where the weight is
    positive; the estimate and standard error equal the full evaluation's.
    The draw sequence depends only on rng, not on chunk_size.
    """
    if n_mc < 2:
        raise ValueError(f"n_mc must be >= 2, got {n_mc}")
    gen = rng.generator()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_mc:
        m = min(chunk_size, n_mc - done)
        pts = gen.random((m, model.d))
        eta = model.eta_q(pts)
        weight = 2.0 * np.abs(eta - 0.5)
        live = np.flatnonzero(weight > 0)
        if live.size:
            sub = pts[live]
            pred = np.asarray(predict(sub))
            truth = (eta[live] > 0.5).astype(np.int64)
            contrib = weight[live] * (pred != truth)
            total += float(contrib.sum())
            total_sq += float((contrib * contrib).sum())
        done += m
    mean = total / n_mc
    var = max(total_sq / n_mc - mean * mean, 0.0) * n_mc / (n_mc - 1)
    return McEstimate(value=mean, std_error=math.sqrt(var / n_mc), n=n_mc)


def constant_classifier(label: int) -> Callable[[np.ndarray], np.ndarray]:
    """Batch predictor that always answers the given label."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")

    def predict(pts: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(pts).shape[0], label, dtype=np.int64)

    return predict


class FittedMethod:
    """A classifier fitted to one dataset: point and batch prediction."""

    def __init__(self, name: str, point_fn: Callable, batch_fn: Callable | None = None):
        self.name = name
        self._point = point_fn
        self._batch = batch_fn

    def predict_point(self, x) -> int:
        return int(self._point(x))

    def predict_batch(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if self._batch is not None:
            return np.asarray(self._batch(pts), dtype=np.int64)
        return np.array([self._point(x) for x in pts], dtype=np.int64)


def _fit_knn(name: str, s: SampleSet, k: int) -> FittedMethod:
    """Plain k-NN majority vote on one sample set, k clamped to [1, len(s)]."""
    if len(s) == 0:
        raise ValueError(f"method {name!r} has no samples to fit on")
    k = min(max(1, k), len(s))
    vote = lambda x: knn_predict(s, k, x)
    return FittedMethod(name, vote, vote)


def _fit_weighted(ds: TransferDataset, hp: HyperParams) -> FittedMethod:
    """The weighted vote over [Q, S_1..S_m] with the minimax_plan."""
    plan = minimax_plan(ds.source_sizes, ds.n_q, hp)
    vote = lambda x: weighted_knn_predict(ds, plan, x)
    return FittedMethod("weighted", vote, vote)


def _fit_adaptive(ds: TransferDataset) -> FittedMethod:
    """The adaptive scan over [Q, S_1..S_m]."""
    return FittedMethod("adaptive", lambda x: adaptive_predict(ds, x)[0])


def _fit_lepski(name: str, s: SampleSet, width: str) -> FittedMethod:
    """The Lepski interval scan on one sample set."""
    return FittedMethod(name, lambda x: lepski_predict(s, x, width=width)[0])


# The named methods of simulate and eval: each maps (dataset, hyper-parameters,
# Lepski width) to a fit. The predict CLI builds its predictors from the same
# _fit_* functions.
METHODS: dict[str, Callable[[TransferDataset, HyperParams, str], FittedMethod]] = {
    "weighted": lambda ds, hp, _w: _fit_weighted(ds, hp),
    "combined": lambda ds, hp, _w: _fit_knn(
        "combined", pooled_sample_set(ds), combined_budget_k(ds.n_p, ds.n_q, hp)),
    "qonly": lambda ds, hp, _w: _fit_knn("qonly", ds.q_data, default_knn_k(ds.n_q, hp)),
    "adaptive": lambda ds, _hp, _w: _fit_adaptive(ds),
    "lepski-combined": lambda ds, _hp, w: _fit_lepski("lepski-combined", pooled_sample_set(ds), w),
    "lepski-q": lambda ds, _hp, w: _fit_lepski("lepski-q", ds.q_data, w),
}
NONADAPTIVE_METHODS = ("weighted", "combined", "qonly")
ADAPTIVE_METHODS = ("adaptive", "lepski-combined", "lepski-q")


def fit_method(name: str, ds: TransferDataset, hp: HyperParams,
               lepski_width: str = "algorithm3") -> FittedMethod:
    """Fit a named method to a dataset with any number of sources."""
    try:
        fitter = METHODS[name]
    except KeyError:
        raise ValueError(f"unknown method {name!r}; options: {sorted(METHODS)}")
    return fitter(ds, hp, lepski_width)


@dataclass(frozen=True)
class ExperimentRecord:
    """One replication of one method at one grid point."""

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
                            beta: float = 1.0, alpha: float = 0.0, d: int = 2,
                            test_radius: float = TEST_BALL_RADIUS,
                            lepski_width: str = "algorithm3",
                            accuracy_target: str = "bayes") -> list[ExperimentRecord]:
    """Accuracy sweep over a (p_max x n_P) grid.

    Each replication draws a fresh dataset and a single test point from
    B(x_c, test_radius), then scores every method on that point. gamma is
    used both to generate the source data and in the weighted plan.
    Replication streams are keyed by (experiment, grid index, replication),
    so results are independent of method order and reproducible per seed.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; options: {sorted(METHODS)}")
    hp = HyperParams(alpha=alpha, beta=beta, gamma=gamma, d=d)
    exp_stream = _EXPERIMENT_STREAM_IDS.get(experiment, 0)
    root = RandomSource(seed).substream(exp_stream)
    grid = [(pm, n_p) for pm in p_max_values for n_p in n_p_values]
    if not grid:
        raise ValueError("empty grid")
    records: list[ExperimentRecord] = []
    for gi, (p_max, n_p) in enumerate(grid):
        model = make_drift_model(p_max, gamma, d)
        grid_rs = root.substream(gi)
        for rep in range(reps):
            rs = grid_rs.substream(rep)
            ds = sample_dataset(model, n_p, n_q, rs.substream(0))
            x = sample_test_points(model.x_c, test_radius, 1, rs.substream(1))[0]
            if accuracy_target == "bayes":
                truth = model.bayes(x)
            elif accuracy_target == "noisy":
                truth = int(model.sample_labels(x[None, :], "Q", rs.substream(2).generator())[0])
            else:
                raise ValueError(f"unknown accuracy target {accuracy_target!r}")
            for name in methods:
                t0 = time.perf_counter()
                pred = fit_method(name, ds, hp, lepski_width).predict_point(x)
                elapsed = time.perf_counter() - t0
                records.append(ExperimentRecord(
                    experiment=experiment, method=name, seed=seed, replication=rep,
                    p_max=p_max, gamma=gamma, d=d, n_p=n_p, n_q=n_q,
                    accuracy=float(pred == truth), excess_risk=None, wall_time=elapsed,
                ))
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
        key = (r.experiment, r.method, r.seed, r.p_max, r.gamma, r.d, r.n_p, r.n_q)
        groups.setdefault(key, []).append(r)
    rows = []
    for key, recs in groups.items():
        acc = np.array([r.accuracy for r in recs])
        se = float(acc.std(ddof=1) / math.sqrt(len(acc))) if len(acc) > 1 else 0.0
        rows.append(AggregateRow(
            experiment=key[0], method=key[1], seed=key[2], p_max=key[3], gamma=key[4],
            d=key[5], n_p=key[6], n_q=key[7], reps=len(recs),
            accuracy_mean=float(acc.mean()), accuracy_se=se,
        ))
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
    if name not in EXPERIMENT_PRESETS:
        raise ValueError(f"unknown experiment {name!r}; options: {sorted(EXPERIMENT_PRESETS)}")
    kwargs = dict(EXPERIMENT_PRESETS[name])
    kwargs.update(overrides)
    return run_accuracy_experiment(name, seed=seed, **kwargs)


def target_rate_exponent(hp: HyperParams, sweep: str = "q") -> float:
    """Theoretical log-log slope of the excess risk for a size sweep.

    Target-only ("q"): -beta (1+alpha) / (2 beta + d).
    Source-only ("p"): -beta (1+alpha) / (2 gamma beta + d).
    """
    b, a, d = hp.beta, hp.alpha, float(hp.d)
    if sweep == "q":
        return -b * (1 + a) / (2 * b + d)
    if sweep == "p":
        return -b * (1 + a) / (2 * hp.scalar_gamma() * b + d)
    raise ValueError(f"sweep must be 'q' or 'p', got {sweep!r}")


@dataclass(frozen=True)
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


def _fit_slope(log_sizes: np.ndarray, means: np.ndarray) -> float:
    return float(np.polyfit(log_sizes, np.log(means), 1)[0])


def rate_exponent_check(hp: HyperParams, sizes: Sequence[int], reps: int, rng: RandomSource,
                        sweep: str = "q", p_max: float = 0.60, n_mc: int = 100_000,
                        n_bootstrap: int = 1000) -> RateCheckResult:
    """Empirical convergence slope of the weighted-plan classifier.

    The default signal level is 0.60 rather than the accuracy experiments'
    0.55: at 0.55 the k-NN neighborhood radius exceeds the signal ball for
    every size on the default grid, so the measured risk curve is flat and
    no slope is identifiable at desk scale. At 0.60 the finite-sample
    slope sits near the asymptotic exponent.

    For each size n in the grid, draws ``reps`` independent datasets
    (target-only for sweep="q", source-only for sweep="p"), estimates each
    classifier's excess risk by Monte Carlo with n_mc draws, and regresses
    log(mean risk) on log(n). The confidence interval comes from a
    replication bootstrap. The grid must hold at least 4 sizes spanning at
    least a decade.
    """
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 4:
        raise ValueError(f"degenerate grid: need >= 4 sizes, got {len(sizes)}")
    if any(n < 1 for n in sizes):
        raise ValueError("degenerate grid: sizes must be >= 1")
    if max(sizes) < 10 * min(sizes):
        raise ValueError("degenerate grid: sizes must span at least a decade")
    if reps < 2:
        raise ValueError(f"reps must be >= 2, got {reps}")
    if sweep not in ("q", "p"):
        raise ValueError(f"sweep must be 'q' or 'p', got {sweep!r}")
    model = make_drift_model(p_max, hp.scalar_gamma(), hp.d)
    experiment = f"rate-{sweep}"
    target = target_rate_exponent(hp, sweep)
    root = rng.substream(_EXPERIMENT_STREAM_IDS[experiment])
    rep_risks = np.empty((len(sizes), reps))
    records: list[ExperimentRecord] = []
    for gi, n in enumerate(sizes):
        grid_rs = root.substream(gi + 1)
        n_p, n_q = (0, n) if sweep == "q" else (n, 0)
        for rep in range(reps):
            rs = grid_rs.substream(rep)
            t0 = time.perf_counter()
            ds = sample_dataset(model, n_p, n_q, rs.substream(0))
            fitted = fit_method("weighted", ds, hp)
            est = excess_risk_mc(fitted.predict_batch, model, n_mc, rs.substream(1))
            elapsed = time.perf_counter() - t0
            rep_risks[gi, rep] = est.value
            records.append(ExperimentRecord(
                experiment=experiment, method="weighted", seed=rng.seed, replication=rep,
                p_max=p_max, gamma=hp.scalar_gamma(), d=hp.d, n_p=n_p, n_q=n_q,
                accuracy=None, excess_risk=est.value, wall_time=elapsed,
            ))
    means = rep_risks.mean(axis=1)
    if np.any(means <= 0):
        bad = sizes[int(np.flatnonzero(means <= 0)[0])]
        # Only draws in the signal ball B(x_c, p_max - 1/2) can carry risk.
        in_ball = n_mc * math.pi ** (hp.d / 2) * (p_max - 0.5) ** hp.d / math.gamma(hp.d / 2 + 1)
        raise RuntimeError(
            f"mean excess risk is zero at size {bad}; cannot fit a log-log slope "
            f"(d = {hp.d}, p_max = {p_max}, n_mc = {n_mc}: about {in_ball:.3g} Monte Carlo "
            f"draws per replication are expected in the signal ball)")
    log_sizes = np.log(np.asarray(sizes, dtype=np.float64))
    slope = _fit_slope(log_sizes, means)
    boot_gen = root.substream(0).generator()
    boot_slopes = []
    for _ in range(n_bootstrap):
        draw = rep_risks[np.arange(len(sizes))[:, None],
                         boot_gen.integers(reps, size=(len(sizes), reps))]
        bmeans = draw.mean(axis=1)
        if np.all(bmeans > 0):
            boot_slopes.append(_fit_slope(log_sizes, bmeans))
    if len(boot_slopes) < n_bootstrap // 2:
        raise RuntimeError("bootstrap degenerate: too many zero-risk resamples")
    lo, hi = np.percentile(boot_slopes, [2.5, 97.5])
    return RateCheckResult(
        sweep=sweep, sizes=sizes, mean_risks=tuple(float(v) for v in means),
        rep_risks=rep_risks, slope=slope, ci_low=float(lo), ci_high=float(hi),
        target_slope=target, n_mc=n_mc, reps=reps, seed=rng.seed, records=records,
    )
