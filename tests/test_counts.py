"""One count rule: every sample size, dimension, neighbor count, seed and replication
count is an integer (a numpy one passes, a bool or a float such as 3.0 does not) at or
above its minimum, refused with the same two messages wherever it enters."""

import re

import numpy as np
import pytest

from driftknn.classifiers import default_knn_k, minimax_plan
from driftknn.core import HyperParams, KnnPlan, RandomSource, SampleSet
from driftknn.simulation import (
    DriftModel,
    constant_classifier,
    excess_risk_mc,
    fit_method,
    rate_exponent_check,
    run_accuracy_experiment,
    sample_dataset,
    sample_multisource_dataset,
    sample_test_points,
)

HP = HyperParams(beta=1.0, gamma=0.3, d=2)
MODEL = DriftModel(0.6)
DS = sample_dataset(MODEL, 20, 30, RandomSource(1))


def grid(n_p=10, n_q=10, reps=1):
    return run_accuracy_experiment("fig4a", ("qonly",), (0.55,), (n_p,), n_q, reps, 1)


def rate(sizes=(20, 50, 100, 200), reps=2):
    return rate_exponent_check(HP, sizes, reps, RandomSource(1), n_mc=4000, p_max=0.7)


# entry point: (a call with the count v in its place, the count's name, its minimum, a
# value it accepts, and the message for lo - 1 where it is not the rule's)
COUNTS = {
    "HyperParams d": (lambda v: HyperParams(1.0, 0.3, v), "d", 1, 2),
    "SampleSet.empty d": (lambda v: SampleSet.empty(v), "d", 1, 2),
    "DriftModel d": (lambda v: DriftModel(0.6, d=v), "d", 1, 2),
    "RandomSource seed": (lambda v: RandomSource(v), "seed", 0, 3),
    "RandomSource stream": (lambda v: RandomSource(1, v), "stream", 0, 3),
    "RandomSource.substream": (lambda v: RandomSource(1).substream(v), "substream index", 0, 3),
    "KnnPlan k_sources": (lambda v: KnnPlan((1, v), (1.0, 1.0), 1, 1.0), "k_sources[1]", 0, 2),
    "KnnPlan k_q": (lambda v: KnnPlan((1,), (1.0,), v, 1.0), "k_q", 0, 2),
    "fit_method k": (lambda v: fit_method("qonly", DS, HP, k=v), "k", 1, 3,
                     "k must be in [1, 30], got 0"),
    "minimax_plan source size": (lambda v: minimax_plan((5, v), 10, HP), "source 2 size", 0, 5),
    "minimax_plan n_q": (lambda v: minimax_plan((5,), v, HP), "n_q", 0, 10),
    "sample_multisource_dataset source size": (
        lambda v: sample_multisource_dataset(MODEL, (v, 5), 4, RandomSource(2)),
        "source 1 size", 0, 5),
    "sample_multisource_dataset n_q": (
        lambda v: sample_multisource_dataset(MODEL, (5,), v, RandomSource(2)), "n_q", 0, 4),
    "default_knn_k n": (lambda v: default_knn_k(v, HP), "n", 0, 100),
    "sample_test_points n": (
        lambda v: sample_test_points([0.5, 0.5], 0.1, v, RandomSource(3)), "n", 1, 3),
    "excess_risk_mc n_mc": (
        lambda v: excess_risk_mc(constant_classifier(1), MODEL, v, RandomSource(4)),
        "n_mc", 2, 100),
    "run_accuracy_experiment reps": (lambda v: grid(reps=v), "reps", 1, 2),
    "run_accuracy_experiment source size": (lambda v: grid(n_p=v), "source 1 size", 0, 10),
    "run_accuracy_experiment n_q": (lambda v: grid(n_q=v), "n_q", 0, 10),
    "rate_exponent_check reps": (lambda v: rate(reps=v), "reps", 2, 2),
    "rate_exponent_check size": (lambda v: rate(sizes=(v, 50, 100, 200)), "size", 1, 20),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_is_an_integer_at_or_above_its_minimum(entry):
    call, name, lo, ok, *below = COUNTS[entry]
    call(np.int64(ok))
    # KnnPlan((2.5,), ...) and rate_exponent_check's sizes used to truncate by int(),
    # default_knn_k(2.5) and (True) returned 1, and sample_test_points and excess_risk_mc
    # failed inside numpy
    for bad in (2.5, True, np.float64(3.0)):
        message = f"{name} must be an integer, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    message = below[0] if below else f"{name} must be >= {lo}, got {lo - 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(lo - 1)


def test_a_checked_count_is_stored_as_an_int():
    plan = KnnPlan((np.int64(2),), (1.0,), np.int32(1), 1.0)
    assert (plan.k_sources, plan.k_q) == ((2,), 1)
    assert type(plan.k_sources[0]) is int and type(plan.k_q) is int
    result = rate(sizes=np.array([20, 50, 100, 200]), reps=np.int64(2))
    assert result.sizes == (20, 50, 100, 200) and result.reps == 2
    assert all(type(n) is int for n in (*result.sizes, result.reps))
    assert [r.n_q for r in result.records[::2]] == [20, 50, 100, 200]
