"""Synthetic model, samplers, Monte Carlo scoring, and the experiment engine.

Frozen expectations come from closed forms: eta_P(x) = 1/2 + (eta_Q - 1/2)^g
evaluated by hand, the constant-0 excess risk (2 pi / 3) r^3 for the planar
cone of signal radius r, and the mean distance 2r/3 of a uniform draw from a
planar disc of radius r.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftknn
from driftknn.classifiers import (
    adaptive_predict,
    combined_budget_k,
    default_knn_k,
    knn_predict,
    lepski_predict,
    minimax_plan,
    weighted_knn_predict,
)
from driftknn.core import (
    BAD_COORD, MAX_COORD, HyperParams, RandomSource, SampleSet, TransferDataset,
    pooled_sample_set,
)
from driftknn.neighbors import merged_order
from driftknn.simulation import (
    _EXPERIMENT_STREAM_IDS,
    ADAPTIVE_METHODS,
    EXPERIMENT_PRESETS,
    METHODS,
    NONADAPTIVE_METHODS,
    DriftModel,
    classification_accuracy,
    constant_classifier,
    excess_risk_mc,
    _add_chunk,
    _bootstrap_ci,
    _fit_slope,
    fit_method,
    rate_exponent_check,
    run_accuracy_experiment,
    run_preset,
    sample_dataset,
    sample_multisource_dataset,
    sample_test_points,
    summarize_accuracy,
    target_rate_exponent,
)

HP_MAIN = HyperParams(beta=1.0, gamma=0.3, d=2)
CENTER = np.array([0.5, 0.5])  # the middle of the square: the planar cone's apex


# ---------------------------------------------------------------- model


def test_model_validation():
    for args, message in (((0.5,), "p_max must be in (0.5, 1], got 0.5"),
                          ((1.2,), "p_max must be in (0.5, 1], got 1.2"),
                          ((0.55, 0.0), "gamma_sim must be > 0, got 0.0"),
                          ((0.55, 0.3, 0), "d must be >= 1, got 0"),
                          ((0.55, 0.3, 2.0), "d must be an integer, got 2.0"),
                          ((0.55, 0.3, 2, 0.0), "radius must be finite and > 0, got 0.0"),
                          ((0.55, 0.3, 2, -0.1), "radius must be finite and > 0, got -0.1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DriftModel(*args)
    # the model, the hyper-parameters and an empty sample set share one dimension rule
    # a bool is an int subclass, but not a dimension
    for d, rule in ((0, ">= 1"), (-1, ">= 1"), (2.0, "an integer"), ("2", "an integer"),
                    (None, "an integer"), (np.float64(3.0), "an integer"), (True, "an integer"),
                    (False, "an integer")):
        message = f"^{re.escape(f'd must be {rule}, got {d}')}$"
        for build in (lambda: DriftModel(0.55, d=d), lambda: HyperParams(1.0, 0.3, d),
                      lambda: SampleSet.empty(d)):
            with pytest.raises(ValueError, match=message):
                build()
    for d in (1, 3, np.int64(2)):
        built = (DriftModel(0.55, d=d).d, HyperParams(1.0, 0.3, d).d, SampleSet.empty(d).d)
        # each keeps the checked int, not the value it was given
        assert built == (d, d, d) and {type(v) for v in built} == {int}


def test_model_is_a_value():
    # the defaults are the fields written out: equal fields compare and hash alike
    a, b = DriftModel(0.55), DriftModel(0.55, 0.3, 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert b.test_radius == 0.05
    for other in (DriftModel(0.56), DriftModel(0.55, 0.4), DriftModel(0.55, d=3),
                  DriftModel(0.55, test_radius=0.1)):
        assert other != a and len({a, other}) == 2


def test_model_draws_test_points_from_its_own_ball():
    # the module sampler around the middle of the cube, with the model's test radius
    for d, radius in ((2, 0.05), (3, 0.2)):
        m = DriftModel(0.6, d=d, test_radius=radius)
        got = m.sample_test_points(40, RandomSource(8))
        want = sample_test_points(np.full(d, 0.5), radius, 40, RandomSource(8))
        np.testing.assert_array_equal(got, want)


def test_signal_volume():
    # at d = 2 the signal ball is a disc of radius p_max - 1/2
    for p_max in (0.51, 0.55, 0.8, 1.0):
        assert DriftModel(p_max).signal_volume() == pytest.approx(math.pi * (p_max - 0.5) ** 2,
                                                                  rel=1e-14)
    # at d = 3 it is the share of cube draws where eta_Q differs from 1/2
    m, n = DriftModel(0.8, d=3), 200_000
    share = np.mean(m.eta_q(RandomSource(61).generator().random((n, 3))) != 0.5)
    vol = m.signal_volume()
    assert vol == pytest.approx(4 / 3 * math.pi * 0.3 ** 3, rel=1e-14)
    assert abs(share - vol) < 3 * math.sqrt(vol * (1 - vol) / n)
    # far past the float range of pi^(d/2) and gamma(d/2 + 1), the volume is 0, not an error
    assert DriftModel(0.6, d=2000).signal_volume() == 0.0


def test_eta_values_frozen():
    m = DriftModel(0.55, gamma_sim=0.3, d=2)
    assert m.eta_q(CENTER) == pytest.approx(0.55, abs=0)
    # 1/2 + 0.05^0.3 and 1/2 + 0.03^0.3, computed independently
    assert m.eta_p(CENTER) == pytest.approx(0.90709053153690444, rel=1e-15)
    x = CENTER + np.array([0.02, 0.0])
    assert m.eta_q(x) == pytest.approx(0.53, rel=1e-12)
    assert m.eta_p(x) == pytest.approx(0.84924996914343953, rel=1e-13)
    far = np.array([0.0, 0.0])
    assert m.eta_q(far) == 0.5
    assert m.eta_p(far) == 0.5


def test_eta_vectorized():
    m = DriftModel(0.6, d=2)
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.55]])
    eq = m.eta_q(pts)
    assert eq.shape == (3,)
    np.testing.assert_allclose(eq, [0.6, 0.5, 0.55])
    assert m.bayes(pts).tolist() == [1, 0, 1]


def test_bayes_region():
    m = DriftModel(0.55, d=2)
    assert m.bayes(CENTER) == 1
    inside = CENTER + np.array([0.03, 0.0])
    assert m.bayes(inside) == 1
    # outside the signal ball eta is exactly 1/2, and 1/2 is not > 1/2
    plateau = CENTER + np.array([0.2, 0.0])
    assert m.eta_q(plateau) == 0.5
    assert m.bayes(plateau) == 0
    assert m.bayes([0.1, 0.1]) == 0


def test_labels_are_the_links_drawn_after_the_covariates():
    # replay: a set's labels are gen.random(n) < eta(x), drawn on the set's own substream
    # right after its covariates; Q reads eta_q on substream 0, source i eta_p on i
    m, rs = DriftModel(0.7, 0.3, 2), RandomSource(71)
    ds = sample_dataset(m, 300, 400, rs)
    mds = sample_multisource_dataset(m, (300, 200), 400, rs)
    for s, eta, stream in ((ds.q_data, m.eta_q, 0), (ds.sources[0], m.eta_p, 1),
                           (mds.sources[1], m.eta_p, 2)):
        gen = rs.substream(stream).generator()
        x = gen.random((len(s), 2))
        np.testing.assert_array_equal(s.points, x)
        np.testing.assert_array_equal(s.labels, gen.random(len(s)) < eta(x))
        assert 0 < s.labels.mean() < 1


# ---------------------------------------------------------------- samplers


def test_sample_dataset_shapes_and_cube():
    m = DriftModel(0.55, d=3)
    ds = sample_dataset(m, 40, 60, RandomSource(5))
    assert (ds.n_p, ds.n_q, ds.d) == (40, 60, 3)
    assert ds.m == 1
    for s in (*ds.sources, ds.q_data):
        assert ((s.points >= 0) & (s.points <= 1)).all()
        assert set(np.unique(s.labels)) <= {0, 1}
    with pytest.raises(ValueError, match=">= 0"):
        sample_dataset(m, -1, 10, RandomSource(5))


def test_sample_dataset_q_independent_of_np():
    m = DriftModel(0.55)
    rs = RandomSource(9)
    q_only = sample_dataset(m, 0, 50, rs)
    with_p = sample_dataset(m, 200, 50, rs)
    np.testing.assert_array_equal(q_only.q_data.points, with_p.q_data.points)
    np.testing.assert_array_equal(q_only.q_data.labels, with_p.q_data.labels)
    assert q_only.n_p == 0


def test_sample_dataset_deterministic():
    m = DriftModel(0.6)
    a = sample_dataset(m, 10, 10, RandomSource(3))
    b = sample_dataset(m, 10, 10, RandomSource(3))
    np.testing.assert_array_equal(a.sources[0].points, b.sources[0].points)
    np.testing.assert_array_equal(a.q_data.labels, b.q_data.labels)
    c = sample_dataset(m, 10, 10, RandomSource(4))
    assert not np.array_equal(a.q_data.points, c.q_data.points)


def test_sample_multisource_single_source_matches_two_sample():
    m = DriftModel(0.55)
    rs = RandomSource(12)
    mds = sample_multisource_dataset(m, (30,), 20, rs)
    ds = sample_dataset(m, 30, 20, rs)
    np.testing.assert_array_equal(mds.q_data.points, ds.q_data.points)
    np.testing.assert_array_equal(mds.q_data.labels, ds.q_data.labels)
    np.testing.assert_array_equal(mds.sources[0].points, ds.sources[0].points)
    np.testing.assert_array_equal(mds.sources[0].labels, ds.sources[0].labels)


def test_sample_multisource_shapes():
    m = DriftModel(0.55)
    mds = sample_multisource_dataset(m, (5, 0, 7), 4, RandomSource(13))
    assert mds.source_sizes == (5, 0, 7)
    assert mds.n_q == 4
    with pytest.raises(ValueError, match="at least one source"):
        sample_multisource_dataset(m, (), 4, RandomSource(13))
    # a size of 10.5 used to draw 10 rows, and a target size of 5.5 failed inside numpy;
    # numpy integers pass
    for sizes, n_q, shown in (((10.5,), 4, "source 1 size must be an integer, got 10.5"),
                              ((4, True), 4, "source 2 size must be an integer, got True"),
                              ((10,), 5.5, "n_q must be an integer, got 5.5")):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            sample_multisource_dataset(m, sizes, n_q, RandomSource(13))
    mds = sample_multisource_dataset(m, np.array([5, 0, 7]), np.int64(4), RandomSource(13))
    assert (mds.source_sizes, mds.n_q) == ((5, 0, 7), 4)


def test_sample_test_points_containment_and_radius():
    center = np.array([0.5, 0.5])
    r = 0.05
    pts = sample_test_points(center, r, 20_000, RandomSource(21))
    dist = np.sqrt(((pts - center) ** 2).sum(axis=1))
    assert (dist <= r).all()
    # uniform on a disc: mean distance 2r/3, variance r^2/18
    se = math.sqrt(r * r / 18 / len(pts))
    assert abs(dist.mean() - 2 * r / 3) < 3 * se


@pytest.mark.parametrize("d", [9, 16, 20])
def test_sample_test_points_above_d8_are_uniform_on_the_ball(d):
    # past d = 8 the ball fills under 1% of its cube, and the draw is direct: (|x - c| / r)^d
    # of a uniform point is uniform on [0, 1], with mean 1/2 and standard error 0.009 here
    center, r = np.full(d, 0.5), 0.05
    pts = sample_test_points(center, r, 1000, RandomSource(d))
    ratio = np.sqrt(((pts - center) ** 2).sum(axis=1)) / r
    assert pts.shape == (1000, d) and (ratio <= 1 + 1e-12).all()
    assert abs(np.mean(ratio ** d) - 0.5) < 0.05
    # the same stream gives the same points
    np.testing.assert_array_equal(pts, sample_test_points(center, r, 1000, RandomSource(d)))


def test_sample_test_points_validation():
    with pytest.raises(ValueError, match="radius"):
        sample_test_points([0.5, 0.5], 0.0, 3, RandomSource(1))
    # no caller asks for an empty sample: n = 0 is refused like a negative n
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            sample_test_points([0.5, 0.5], 0.1, n, RandomSource(1))
    with pytest.raises(ValueError, match="vector"):
        sample_test_points(0.5, 0.1, 3, RandomSource(1))


def test_ball_radius_must_be_finite_and_positive():
    # an infinite radius would put +-inf test points in front of the query check
    for radius in (math.inf, math.nan, -math.inf):
        message = f"^radius must be finite and > 0, got {radius}$"
        with pytest.raises(ValueError, match=message):
            DriftModel(0.6, test_radius=radius)
        with pytest.raises(ValueError, match=message):
            sample_test_points([0.5, 0.5], radius, 3, RandomSource(1))


def test_sample_test_points_refuses_a_non_finite_centre():
    # no NaN candidate passes the rejection test, so an unchecked centre loops forever:
    # run in a child process, so a regression fails on the timeout instead of hanging
    code = ("import math; from driftknn import RandomSource; "
            "from driftknn.simulation import sample_test_points; "
            "sample_test_points([math.nan, 0.5], 0.1, 3, RandomSource(1))")
    src = str(Path(driftknn.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert "ValueError: x_c must be a finite vector, got [nan, 0.5]" in proc.stderr
    for centre in ([0.5, math.inf], [-math.inf, 0.5]):
        with pytest.raises(ValueError, match=r"^x_c must be a finite vector"):
            sample_test_points(centre, 0.1, 3, RandomSource(1))


def test_sample_test_points_refuses_a_ball_beyond_the_coordinate_rule():
    # A ball with |x_c_j| + radius > core.MAX_COORD is refused with core's message
    # before any draw: at [1e200, 0.5] it returned points that every query path then
    # refused, and a radius of 1e300 overflowed the rejection test's squared distances.
    class NoDraws:
        def generator(self):
            raise AssertionError("drew before checking the ball")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for centre, radius in (([1e200, 0.5], 0.05), ([1e300, 0.5], 1e300),
                               ([0.5, 0.5], 1e151), ([0.5, -MAX_COORD], 1e140)):
            with pytest.raises(ValueError, match=f"^ball of radius .*: {re.escape(BAD_COORD)}$"):
                sample_test_points(centre, radius, 3, NoDraws())
        # a ball just inside the rule is drawn, and every point keeps to it
        pts = sample_test_points([0.999 * MAX_COORD, 0.5], 1e146, 50, RandomSource(1))
        assert (np.abs(pts) <= MAX_COORD).all() and len(SampleSet(pts, np.zeros(50))) == 50


# ---------------------------------------------------------------- scoring


def test_classification_accuracy_extremes():
    m = DriftModel(0.55)
    pts = m.sample_test_points(200, RandomSource(31))

    def oracle(xs):
        return m.bayes(xs)

    def inverted(xs):
        return 1 - m.bayes(xs)

    assert classification_accuracy(oracle, m, pts) == 1.0
    assert classification_accuracy(inverted, m, pts) == 0.0
    acc0 = classification_accuracy(constant_classifier(0), m, pts)
    acc1 = classification_accuracy(constant_classifier(1), m, pts)
    assert acc0 + acc1 == pytest.approx(1.0)


def test_classification_accuracy_validation():
    m = DriftModel(0.55)
    with pytest.raises(ValueError, match="nonempty"):
        classification_accuracy(constant_classifier(1), m, np.empty((0, 2)))


def test_the_scorers_refuse_an_answer_that_is_not_one_label_per_point():
    # np.array([1]) used to broadcast over every point and score 1.0, and an answer of 0.7
    # was scored as wrong
    m = DriftModel(0.6)
    pts = m.sample_test_points(5, RandomSource(33))
    for answer, message in ((lambda xs: np.array([1]), "one label per point: 5 points, "
                                                        "answer of shape (1,)"),
                            (lambda xs: np.ones((len(xs), 1)), "one label per point"),
                            (lambda xs: np.full(len(xs), 0.7), "must answer 0 or 1, got 0.7"),
                            (lambda xs: np.full(len(xs), np.nan), "must answer 0 or 1, got nan")):
        with pytest.raises(ValueError, match=re.escape(message)):
            classification_accuracy(answer, m, pts)
        # excess_risk_mc asks only about its live draws, so its point count differs
        with pytest.raises(ValueError, match=re.escape(message.split(":")[0])):
            excess_risk_mc(answer, m, 4000, RandomSource(34))
    # 0/1 labels of any dtype, bools too, are scored
    for answer in (lambda xs: m.bayes(xs).astype(bool), lambda xs: m.bayes(xs) * 1.0):
        assert classification_accuracy(answer, m, pts) == 1.0
        assert excess_risk_mc(answer, m, 4000, RandomSource(34)).value == 0.0


def test_excess_risk_of_oracle_is_zero():
    m = DriftModel(0.55)
    est = excess_risk_mc(lambda xs: m.bayes(xs), m, 10_000, RandomSource(41))
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.n == 10_000


def test_excess_risk_constant_one_is_zero():
    # predicting 1 everywhere only disagrees with the oracle where the
    # weight |eta - 1/2| vanishes, so the weighted risk is exactly zero
    m = DriftModel(0.55)
    est = excess_risk_mc(constant_classifier(1), m, 10_000, RandomSource(42))
    assert est.value == 0.0


def test_excess_risk_constant_zero_matches_closed_form():
    m = DriftModel(0.55)
    est = excess_risk_mc(constant_classifier(0), m, 200_000, RandomSource(43))
    truth = 2.6179938779914946e-4  # (2 pi / 3) * 0.05^3
    assert est.std_error > 0
    assert abs(est.value - truth) < 3 * est.std_error


def test_excess_risk_chunk_size_invariance(monkeypatch):
    from driftknn import simulation

    m = DriftModel(0.6)
    a = excess_risk_mc(constant_classifier(0), m, 50_000, RandomSource(44))
    monkeypatch.setattr(simulation, "_MC_CHUNK", 999)
    b = excess_risk_mc(constant_classifier(0), m, 50_000, RandomSource(44))
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert a.std_error == pytest.approx(b.std_error, rel=1e-9)


def test_chunk_merged_variance_is_exact_far_from_zero():
    # 1e8 + U(0,1): E[x^2] - mean^2 cancels all but a few bits of the variance 1/12
    gen = np.random.default_rng(3)
    values = 1e8 + gen.random(100_000)
    want = np.var(values, ddof=1)
    naive = (np.mean(values * values) - values.mean() ** 2) * len(values) / (len(values) - 1)
    assert abs(naive - want) > 1e-3 * want
    for cuts in ([], [1], [5, 17], list(range(1000, 100_000, 7919))):
        moments = (0, 0.0, 0.0)
        for chunk in np.split(values, cuts):
            moments = _add_chunk(moments, chunk, len(chunk))
        assert moments[0] == len(values)
        assert moments[2] / (len(values) - 1) == pytest.approx(want, rel=1e-9)
    # a chunk's zero draws are counted without being stored
    n, mean, m2 = _add_chunk((0, 0.0, 0.0), values[:10], 25)
    padded = np.concatenate([values[:10], np.zeros(15)])
    assert n == 25 and mean == pytest.approx(padded.mean(), rel=1e-15)
    assert m2 == pytest.approx(np.var(padded) * 25, rel=1e-12)


def test_excess_risk_validation():
    m = DriftModel(0.55)
    with pytest.raises(ValueError, match="n_mc"):
        excess_risk_mc(constant_classifier(0), m, 1, RandomSource(1))
    with pytest.raises(ValueError, match="label"):
        constant_classifier(2)


def test_excess_risk_refuses_fewer_than_one_expected_ball_draw():
    # at d = 20 the ball B(c, 0.4) holds about 5.7e-07 of 2000 uniform draws: the worst
    # classifier would score an exact 0 +- 0, so the estimate is refused instead
    model = DriftModel(0.9, 0.3, 20)
    with pytest.raises(ValueError, match=r"^too few draws \(d = 20, p_max = 0.9, n_mc = 2000: "
                       r"about 5.\d+e-07 Monte Carlo draws are expected in the signal ball; "
                       r"need at least 1\)$"):
        excess_risk_mc(constant_classifier(0), model, 2000, RandomSource(1))
    # the threshold is 1 expected draw: pi * 0.05^2 * n_mc crosses it between 127 and 128
    m = DriftModel(0.55)
    with pytest.raises(ValueError, match="too few draws"):
        excess_risk_mc(constant_classifier(0), m, 127, RandomSource(1))
    assert excess_risk_mc(constant_classifier(0), m, 128, RandomSource(1)).n == 128


def test_fit_method_all_names_predict():
    m = DriftModel(0.55)
    ds = sample_dataset(m, 60, 80, RandomSource(51))
    x = CENTER
    for name in METHODS:
        fm = fit_method(name, ds, HP_MAIN)
        assert fm.name == name
        assert fm.predict_order(merged_order([ds.q_data, *ds.sources], x)) in (0, 1)
        assert fm.predict_batch(np.vstack([x, x])).shape == (2,)
    with pytest.raises(ValueError, match="unknown method"):
        fit_method("nope", ds, HP_MAIN)


def test_fit_method_k_overrides_the_neighbour_count_of_knn_fits():
    m = DriftModel(0.55)
    ds = sample_dataset(m, 60, 80, RandomSource(52))
    pts = sample_test_points(CENTER, 0.2, 25, RandomSource(53))
    sets = {"qonly": ds.q_data, "combined": pooled_sample_set(ds)}
    for name, one_set in sets.items():
        for k in (1, 7, len(one_set)):
            fm = fit_method(name, ds, HP_MAIN, k=k)
            assert fm.name == name
            np.testing.assert_array_equal(fm.predict_batch(pts), knn_predict(one_set, k, pts))
            mo = merged_order([ds.q_data, *ds.sources], pts[0])
            assert fm.predict_order(mo) == knn_predict(one_set, k, pts[0])
        # an explicit k outside [1, n] is refused as knn_predict refuses it, never clamped
        n = len(one_set)
        for k in (0, -5, n + 1, 10**6):
            with pytest.raises(ValueError, match=rf"^k must be in \[1, {n}\], got {k}$"):
                fit_method(name, ds, HP_MAIN, k=k)
    for name in set(METHODS) - set(sets):
        with pytest.raises(ValueError, match="k applies only to qonly and combined"):
            fit_method(name, ds, HP_MAIN, k=3)


def test_fit_method_refuses_a_k_that_is_not_an_integer():
    ds = sample_dataset(DriftModel(0.55), 60, 80, RandomSource(52))
    for name in ("qonly", "combined"):
        for k, shown in ((2.5, "2.5"), (np.float64(3.0), "3.0"), (True, "True")):
            with pytest.raises(ValueError, match=rf"^k must be an integer, got {shown}$"):
                fit_method(name, ds, HP_MAIN, k=k)
        fm = fit_method(name, ds, HP_MAIN, k=np.int64(3))
        mo = merged_order([ds.q_data, *ds.sources], CENTER)
        assert fm.predict_order(mo) == fm.predict_batch(CENTER[None])[0]


def test_the_pooled_set_of_a_fit_is_built_on_its_first_batch_only(monkeypatch):
    # simulate refits every method on every replication and reads only the merged
    # order, so a fit must not build the pooled set; a batch builds it once
    from driftknn import simulation

    builds = []
    real = simulation.pooled_sample_set

    def counting(ds):
        builds.append(ds)
        return real(ds)

    monkeypatch.setattr(simulation, "pooled_sample_set", counting)
    ds = sample_dataset(DriftModel(0.55), 60, 80, RandomSource(54))
    mo = merged_order([ds.q_data, *ds.sources], CENTER)
    pts = np.vstack([CENTER, CENTER + 0.1])
    for name in ("combined", "lepski-combined"):
        fm = fit_method(name, ds, HP_MAIN)
        fm.predict_order(mo)
        assert builds == []
        first = fm.predict_batch(pts)
        assert builds == [ds]
        np.testing.assert_array_equal(fm.predict_batch(pts), first)
        assert builds == [ds]
        builds.clear()
    for name in ("qonly", "lepski-q"):
        fm = fit_method(name, ds, HP_MAIN)
        fm.predict_order(mo)
        fm.predict_batch(pts)
        assert builds == []


def test_predict_batch_takes_only_an_m_by_d_array():
    ds = sample_dataset(DriftModel(0.55), 60, 80, RandomSource(55))
    for name in METHODS:
        fm = fit_method(name, ds, HP_MAIN)
        for pts, shape in ((CENTER, r"\(2,\)"), (0.5, r"\(\)"), (np.zeros((1, 2, 2)), r"\(1, 2, 2\)")):
            with pytest.raises(ValueError, match=rf"^pts must be \(m, d\), got shape {shape}$"):
                fm.predict_batch(pts)
        assert fm.predict_batch(np.empty((0, 2))).shape == (0,)


def test_fit_method_refuses_hyperparams_of_another_dimension():
    # a plan built for the wrong d would answer silently: every fit refuses it
    m = DriftModel(0.55, d=3)
    ds = sample_dataset(m, 60, 80, RandomSource(54))
    for name in METHODS:
        fit_method(name, ds, HyperParams(beta=1.0, gamma=0.3, d=3))
        for d in (1, 50):
            with pytest.raises(ValueError, match=f"^hyper-parameters have d = {d} but the "
                                                 f"dataset has d = 3$"):
                fit_method(name, ds, HyperParams(beta=1.0, gamma=0.3, d=d))
    with pytest.raises(ValueError, match="d = 2 but the dataset has d = 3"):
        fit_method("qonly", ds, HP_MAIN, k=3)


@pytest.mark.parametrize("name", ["qonly", "combined", "lepski-q", "lepski-combined", "adaptive",
                                  "weighted"])
def test_one_set_fits_refuse_an_empty_set_when_fitted(name):
    rows = SampleSet(np.full((3, 2), 0.5), np.array([0, 1, 1]))
    q_only = TransferDataset((SampleSet.empty(2),), rows)
    empty_q = TransferDataset((rows,), SampleSet.empty(2))
    empty = TransferDataset((SampleSet.empty(2),), SampleSet.empty(2))
    # the target-only fits need Q rows; the pooled ones, adaptive and weighted any rows
    for ds in ((empty, empty_q) if name in ("qonly", "lepski-q") else (empty,)):
        with pytest.raises(ValueError, match=f"method '{name}' has no samples to fit on"):
            fit_method(name, ds, HP_MAIN)
    fit_method(name, q_only, HP_MAIN).predict_batch(np.zeros((1, 2)))


def lattice_points(gen, n, grid, d=2):
    """n points on the 1/grid lattice of the unit cube: exact distance ties."""
    return gen.integers(0, grid + 1, size=(n, d)) / grid


def lattice_set(gen, n, grid, d=2):
    if n == 0:
        return SampleSet.empty(d)
    return SampleSet(lattice_points(gen, n, grid, d), gen.integers(0, 2, n))


LATTICE = dict(seed=st.integers(0, 2**32 - 1), grid=st.integers(1, 8))


def one_query_predictors(ds):
    """The public one-query function behind each registry method fitted with
    HP_MAIN, as x -> label."""
    pooled = pooled_sample_set(ds)
    plan = minimax_plan(ds.source_sizes, ds.n_q, HP_MAIN)
    k_pooled = combined_budget_k(ds.source_sizes, ds.n_q, HP_MAIN)
    return {
        "weighted": lambda x: weighted_knn_predict(ds, plan, x),
        "combined": lambda x: knn_predict(pooled, k_pooled, x),
        "qonly": lambda x: knn_predict(ds.q_data, default_knn_k(ds.n_q, HP_MAIN), x),
        "adaptive": lambda x: adaptive_predict(ds, x)[0],
        "lepski-combined": lambda x: lepski_predict(pooled, x)[0],
        "lepski-q": lambda x: lepski_predict(ds.q_data, x)[0],
    }


def assert_batch_agrees_with_order(ds, pts):
    """Each registry method gives the same label from the shared merged order
    of one query (the replication path), from its batch path (eval, predict) and
    from its public one-query function."""
    orders = [merged_order([ds.q_data, *ds.sources], x) for x in pts]
    one_query = one_query_predictors(ds)
    assert set(one_query) == set(METHODS)
    for name in METHODS:
        fm = fit_method(name, ds, HP_MAIN)
        want = [fm.predict_order(mo) for mo in orders]
        np.testing.assert_array_equal(fm.predict_batch(pts), want, err_msg=name)
        assert [one_query[name](x) for x in pts] == want, name


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n_p=st.integers(0, 40), n_q=st.integers(1, 40), **LATTICE)
def test_fit_method_batch_agrees_with_point(n_p, n_q, seed, grid):
    # one source on the 1/grid lattice, so distance ties are common
    gen = np.random.default_rng(seed)
    ds = TransferDataset((lattice_set(gen, n_p, grid),), lattice_set(gen, n_q, grid))
    assert_batch_agrees_with_order(ds, lattice_points(gen, 12, grid))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(sizes=st.lists(st.integers(0, 30), min_size=2, max_size=3), n_q=st.integers(1, 30),
       **LATTICE)
def test_multisource_fits_batch_agree_with_point(sizes, n_q, seed, grid):
    gen = np.random.default_rng(seed)
    mds = TransferDataset(tuple(lattice_set(gen, n, grid) for n in sizes),
                          lattice_set(gen, n_q, grid))
    assert_batch_agrees_with_order(mds, lattice_points(gen, 10, grid))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n_p=st.integers(0, 40), n_q=st.integers(0, 40), **LATTICE)
def test_single_source_scan_is_bit_identical(n_p, n_q, seed, grid):
    gen = np.random.default_rng(seed)
    ds = TransferDataset((lattice_set(gen, n_p, grid),), lattice_set(gen, n_q, grid))
    if n_p + n_q == 0:
        return
    # an empty extra source adds a zero row to every sum
    padded = TransferDataset((*ds.sources, SampleSet.empty(2)), ds.q_data)
    for x in lattice_points(gen, 5, grid):
        _, two = adaptive_predict(ds, x)
        _, multi = adaptive_predict(padded, x)
        np.testing.assert_array_equal(two.snr, multi.snr)
        # the two-sample statistic (snr_index at every step), in its own arithmetic
        sp, sq = two.eta_p - 0.5, two.eta_q - 0.5
        tp, tq = two.k_p * sp * sp, two.k_q * sq * sq
        np.testing.assert_array_equal(
            two.snr, np.where(sp * sq >= 0, tp + tq, np.maximum(tp, tq)))
        assert (two.stop_step, two.chosen_step) == (multi.stop_step, multi.chosen_step)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sizes=st.lists(st.integers(0, 30), min_size=1, max_size=3), n_q=st.integers(0, 30),
       **LATTICE)
def test_scan_evidence_matches_a_group_loop(sizes, n_q, seed, grid):
    gen = np.random.default_rng(seed)
    mds = TransferDataset(tuple(lattice_set(gen, n, grid) for n in sizes),
                          lattice_set(gen, n_q, grid))
    if sum(sizes) + n_q == 0:
        return
    x = lattice_points(gen, 1, grid)[0]
    _, trace = adaptive_predict(mds, x)
    mo = merged_order([mds.q_data, *mds.sources], x)
    # reference: plain floats step by step, the groups added Q first
    counts, sums = [0] * (len(sizes) + 1), [0] * (len(sizes) + 1)
    for step, (g, y) in enumerate(zip(mo.group.tolist(), mo.labels.tolist())):
        counts[g] += 1
        sums[g] += y
        pos = neg = 0.0
        for k, total in zip(counts, sums):
            eta = total / k if k else 0.5
            term = k * (eta - 0.5) * (eta - 0.5)
            if eta >= 0.5:
                pos += term
            else:
                neg += term
        assert (trace.snr_pos[step], trace.snr_neg[step]) == (pos, neg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_raise_on_every_path(bad):
    m = DriftModel(0.6)
    x = np.array([bad, 0.5])
    pts = np.vstack([CENTER, x])
    ds = sample_dataset(m, 30, 40, RandomSource(56))
    mds = sample_multisource_dataset(m, (20, 25), 30, RandomSource(57))
    fits = [fit_method(name, ds, HP_MAIN) for name in METHODS]
    fits += [fit_method(name, mds, HP_MAIN) for name in ("weighted", "adaptive")]
    plan = minimax_plan(mds.source_sizes, mds.n_q, HP_MAIN)
    calls = [lambda: weighted_knn_predict(mds, plan, x),
             lambda: adaptive_predict(mds, x)]
    calls += [lambda: merged_order([mds.q_data, *mds.sources], x)]
    # the model's regression functions and oracle, for one point and for a batch
    calls += [lambda f=f, q=q: f(q) for f in (m.eta_q, m.eta_p, m.bayes) for q in (x, pts)]
    calls += [lambda: classification_accuracy(fits[0].predict_batch, m, pts)]
    calls += [lambda fm=fm: fm.predict_batch(pts) for fm in fits]
    for call in calls:
        with pytest.raises(ValueError, match="non-finite coordinate"):
            call()


def test_model_refuses_a_query_of_another_dimension():
    # one point or a batch with fewer or more than d coordinates, at d = 3
    m = DriftModel(0.6, d=3)
    for q, k in (([0.5, 0.5], 2), ([0.5] * 4, 4), (np.full((5, 2), 0.5), 2),
                 (np.full((5, 4), 0.5), 4)):
        for f in (m.eta_q, m.eta_p, m.bayes):
            with pytest.raises(ValueError, match=f"^query has dimension {k}, need 3$"):
                f(q)
    # a batch names its first non-finite row
    pts = np.full((4, 3), 0.5)
    pts[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^query \[0.5, nan, 0.5\] has a non-finite"):
        m.bayes(pts)
    assert m.eta_q([0.5, 0.5, 0.5]) == 0.6


def test_fit_method_lepski_width_passthrough():
    m = DriftModel(0.55)
    ds = sample_dataset(m, 0, 40, RandomSource(54))
    a = fit_method("lepski-q", ds, HP_MAIN, "algorithm3")
    b = fit_method("lepski-q", ds, HP_MAIN, "lemma5")
    pts = m.sample_test_points(10, RandomSource(55))
    assert a.predict_batch(pts).shape == b.predict_batch(pts).shape


def test_fit_method_refuses_an_unknown_lepski_width_for_every_method():
    ds = sample_dataset(DriftModel(0.55), 30, 40, RandomSource(56))
    for name in METHODS:
        with pytest.raises(ValueError, match=r"^unknown width variant 'bogus'; options: "
                                             r"\['algorithm3', 'lemma5'\]$"):
            fit_method(name, ds, HP_MAIN, lepski_width="bogus")


@pytest.mark.parametrize("sizes", [(30,), (30, 20)])
def test_fit_method_refuses_a_gamma_vector_of_another_length_for_every_method(sizes):
    ds = sample_multisource_dataset(DriftModel(0.55), sizes, 40, RandomSource(57))
    hp = HyperParams(beta=1.0, gamma=(0.3, 0.5, 0.7), d=2)
    for name in METHODS:
        with pytest.raises(ValueError, match=f"^gamma vector has 3 entries, need {len(sizes)}$"):
            fit_method(name, ds, hp)


# ---------------------------------------------------------------- engine


def test_run_accuracy_experiment_shape_and_determinism():
    kwargs = dict(methods=("weighted", "qonly"), p_max_values=(0.55, 0.6),
                  n_p_values=(50,), n_q=60, reps=3, seed=2)
    rec1 = run_accuracy_experiment("fig4a", **kwargs)
    rec2 = run_accuracy_experiment("fig4a", **kwargs)
    assert len(rec1) == 2 * 2 * 3
    assert [r.accuracy for r in rec1] == [r.accuracy for r in rec2]
    assert {r.method for r in rec1} == {"weighted", "qonly"}
    assert all(r.excess_risk is None for r in rec1)


def test_replication_orders_once_for_every_method(monkeypatch):
    from driftknn import core, neighbors, simulation

    calls = []
    real = neighbors.merged_order

    def counting(sets, x):
        calls.append(len(sets))
        return real(sets, x)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a replication ordered its points a second time")

    monkeypatch.setattr(neighbors, "merged_order", counting)
    for owner, attr in ((neighbors.NeighborIndex, "sorted_order"),
                        (neighbors.NeighborIndex, "query"),
                        (neighbors.NeighborIndex, "query_batch"),
                        (core, "pooled_sample_set"), (simulation, "pooled_sample_set")):
        monkeypatch.setattr(owner, attr, refuse)
    records = run_accuracy_experiment("fig5a", methods=tuple(METHODS), p_max_values=(0.53, 0.55),
                                      n_p_values=(0, 40), n_q=30, reps=3, seed=4)
    assert calls == [2] * (2 * 2 * 3)
    assert len(records) == len(calls) * len(METHODS)


def test_one_query_calls_order_once_without_the_index(monkeypatch):
    # every public one-query classifier reads one merged order of its groups;
    # NeighborIndex serves batches only
    from driftknn import classifiers, neighbors

    m = DriftModel(0.55)
    ds = sample_multisource_dataset(m, (40, 30), 50, RandomSource(71))
    pts = m.sample_test_points(3, RandomSource(72))
    plan = minimax_plan(ds.source_sizes, ds.n_q, HP_MAIN)
    want = {name: [f(x) for x in pts] for name, f in one_query_predictors(ds).items()}
    want_eta = [classifiers.weighted_knn_eta(ds, plan, x) for x in pts]

    def refuse(*_args, **_kwargs):
        raise AssertionError("a one-query call reached NeighborIndex")

    calls = []
    real = neighbors.merged_order

    def counting(sets, x):
        calls.append(len(sets))
        return real(sets, x)

    monkeypatch.setattr(neighbors, "merged_order", counting)
    for attr in ("sorted_order", "query", "query_batch"):
        monkeypatch.setattr(neighbors.NeighborIndex, attr, refuse)
    for name, f in one_query_predictors(ds).items():
        del calls[:]
        assert [f(x) for x in pts] == want[name], name
        # the vote and the scan order [Q, S_1, S_2], a one-set method its one set
        assert calls == [3 if name in ("weighted", "adaptive") else 1] * len(pts), name
    assert [classifiers.weighted_knn_eta(ds, plan, x) for x in pts] == want_eta


def test_run_accuracy_experiment_method_streams_independent():
    # dropping a method must not change another method's replications
    base = dict(p_max_values=(0.55,), n_p_values=(40,), n_q=50, reps=4, seed=3)
    both = run_accuracy_experiment("fig4a", methods=("weighted", "combined"), **base)
    alone = run_accuracy_experiment("fig4a", methods=("weighted",), **base)
    w_both = [r.accuracy for r in both if r.method == "weighted"]
    w_alone = [r.accuracy for r in alone]
    assert w_both == w_alone


def test_run_accuracy_experiment_seed_and_experiment_matter():
    base = dict(methods=("qonly",), p_max_values=(0.55,), n_p_values=(0,),
                n_q=200, reps=20)
    a = run_accuracy_experiment("fig4a", seed=1, **base)
    b = run_accuracy_experiment("fig4a", seed=2, **base)
    c = run_accuracy_experiment("fig4b", seed=1, **base)
    acc = lambda rs: [r.accuracy for r in rs]
    assert acc(a) != acc(b)
    assert acc(a) != acc(c)


def test_run_accuracy_experiment_validation():
    base = dict(methods=("qonly",), p_max_values=(0.55,), n_p_values=(0,), n_q=10, seed=1)
    with pytest.raises(ValueError, match="reps"):
        run_accuracy_experiment("fig4a", reps=0, **base)
    with pytest.raises(ValueError, match="unknown method"):
        run_accuracy_experiment("fig4a", methods=("nope",), p_max_values=(0.55,),
                                n_p_values=(0,), n_q=10, reps=1, seed=1)
    with pytest.raises(ValueError, match="empty grid"):
        run_accuracy_experiment("fig4a", methods=("qonly",), p_max_values=(),
                                n_p_values=(0,), n_q=10, reps=1, seed=1)


def test_run_accuracy_experiment_records_keep_python_ints(tmp_path):
    # numpy sizes, dimension and seed are stored as the checked ints, so a
    # record goes to JSON; the records CSV is byte for byte the same
    from driftknn.io_cli import write_records_csv

    def run(n_p_values, n_q, seed, d):
        return run_accuracy_experiment("fig4a", ("qonly", "adaptive"), (0.55,), n_p_values,
                                       n_q, 2, seed, d=d)

    plain, numpy = run((10,), 10, 1, 2), run(np.array([10]), np.int64(10), np.int64(1),
                                             np.int64(2))
    for rec in numpy:
        for name in ("seed", "d", "n_p", "n_q"):
            assert type(getattr(rec, name)) is int, name
        json.dumps(dataclasses.asdict(rec))
    paths = tmp_path / "plain.csv", tmp_path / "numpy.csv"
    for path, records in zip(paths, (plain, numpy)):
        write_records_csv(path, records)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_records_keep_python_floats():
    # a numpy p_max, gamma and n_mc are stored as the plain float or checked int
    runs = run_accuracy_experiment("fig4a", ("qonly",), (np.float32(0.55),), (10,), 10, 1, 1,
                                   gamma=np.float32(0.3))
    result = rate_exponent_check(HP_MAIN, (20, 50, 100, 200), 2, RandomSource(1),
                                 n_mc=np.int64(4000), p_max=np.float32(0.7))
    assert type(result.n_mc) is int and result.n_mc == 4000
    for rec in runs + result.records:
        assert type(rec.p_max) is float and type(rec.gamma) is float
        json.dumps(dataclasses.asdict(rec))
    assert runs[0].p_max == float(np.float32(0.55)) and runs[0].gamma == float(np.float32(0.3))
    assert result.records[0].p_max == float(np.float32(0.7))


def test_predict_order_refuses_an_order_of_another_dataset():
    two = sample_multisource_dataset(DriftModel(0.7), (30, 20), 40, RandomSource(5))
    one = sample_dataset(DriftModel(0.7), 50, 40, RandomSource(6))
    smaller = sample_multisource_dataset(DriftModel(0.7), (30, 19), 40, RandomSource(5))
    for name in METHODS:
        fm = fit_method(name, two, HyperParams(1.0, (0.3, 0.3), 2))
        assert fm.predict_order(merged_order([two.q_data, *two.sources], CENTER)) in (0, 1)
        with pytest.raises(ValueError, match=r"^an order of \(sets, points\) \(2, 90\) "
                                             r"for a fit of \(3, 90\)$"):
            fm.predict_order(merged_order([one.q_data, *one.sources], CENTER))
        with pytest.raises(ValueError, match=r"^an order of \(sets, points\) \(3, 89\) "
                                             r"for a fit of \(3, 90\)$"):
            fm.predict_order(merged_order([smaller.q_data, *smaller.sources], CENTER))


def test_run_accuracy_experiment_refuses_an_unknown_lepski_width():
    with pytest.raises(ValueError, match="^unknown width variant 'bogus'"):
        run_accuracy_experiment("fig4a", methods=("qonly",), p_max_values=(0.55,),
                                n_p_values=(0,), n_q=10, reps=1, seed=1, lepski_width="bogus")


def test_run_accuracy_experiment_takes_a_one_entry_gamma_as_its_scalar():
    # HyperParams accepts (0.3,); the models used to be built from the tuple
    kwargs = dict(methods=("qonly", "weighted"), p_max_values=(0.55,), n_p_values=(10,),
                  n_q=10, reps=2, seed=1)
    one = run_accuracy_experiment("fig4a", **kwargs, gamma=(0.3,))
    assert {r.gamma for r in one} == {0.3}
    strip = lambda records: [dataclasses.replace(r, wall_time=0.0) for r in records]
    assert strip(one) == strip(run_accuracy_experiment("fig4a", **kwargs, gamma=0.3))


def test_both_engines_refuse_reps_beyond_the_substream_cap_before_sampling(monkeypatch):
    from driftknn import core, simulation

    def refuse(*_args):
        raise AssertionError("a replication was sampled")

    monkeypatch.setattr(core, "SUBSTREAM_CAP", 8)
    monkeypatch.setattr(simulation, "sample_dataset", refuse)
    with pytest.raises(ValueError, match="^substream index out of range: 7$"):
        run_accuracy_experiment("fig5a", methods=("qonly",), p_max_values=(0.55,),
                                n_p_values=(10,), n_q=10, reps=8, seed=1)
    with pytest.raises(ValueError, match="^substream index out of range: 7$"):
        rate_exponent_check(HP_MAIN, (20, 50, 100, 200), 8, RandomSource(1), n_mc=4000,
                            p_max=0.7)


@pytest.mark.parametrize("bad, message", [
    (dict(p_max_values=(0.55, 0.4)), r"p_max must be in \(0.5, 1\], got 0.4"),
    (dict(n_p_values=(30, -1)), r"source 1 size must be >= 0, got -1"),
    (dict(n_q=-1), r"n_q must be >= 0, got -1"),
    # a size of 10.5 used to run 10-row sources but record n_p = 10.5
    (dict(n_p_values=(30, 10.5)), r"source 1 size must be an integer, got 10.5"),
    (dict(n_q=20.0), r"n_q must be an integer, got 20.0"),
    # a two-entry gamma used to reach DriftModel and raise a TypeError
    (dict(gamma=(0.3, 0.4)), r"expected a scalar gamma, got a vector"),
    # a repeated method used to double its aggregate row's reps and shrink its SE by sqrt(2)
    (dict(methods=("qonly", "qonly")),
     r"methods must be distinct and nonempty, got \('qonly', 'qonly'\)"),
    # no methods used to run every replication and return []
    (dict(methods=()), r"methods must be distinct and nonempty, got \(\)"),
    # a bare name used to be read letter by letter, after a first dataset draw
    (dict(methods="qonly"), r"methods must be a sequence of method names, got 'qonly'"),
])
def test_run_accuracy_experiment_refuses_a_bad_grid_before_any_replication(
        monkeypatch, bad, message):
    from driftknn import simulation

    calls = []
    real = simulation.sample_dataset

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simulation, "sample_dataset", counting)
    kwargs = dict(methods=("qonly",), p_max_values=(0.55, 0.6), n_p_values=(30, 40), n_q=20,
                  reps=2, seed=1)
    assert len(run_accuracy_experiment("fig4a", **kwargs)) == len(calls) == 2 * 2 * 2
    calls.clear()
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_accuracy_experiment("fig4a", **dict(kwargs, **bad))
    assert calls == []


@pytest.mark.parametrize("experiment", ["mine", "rate-q", "eval", "FIG4A"])
def test_run_accuracy_experiment_refuses_an_unknown_experiment_before_any_replication(
        monkeypatch, experiment):
    # any name outside the presets used to key stream 0, so two custom names drew the same
    # datasets, and "rate-q" drew rate-check's
    from driftknn import simulation

    calls = []
    monkeypatch.setattr(simulation, "sample_dataset", lambda *args: calls.append(args))
    message = (f"unknown experiment {experiment!r}; options: "
               "['fig4a', 'fig4b', 'fig5a', 'fig5b']")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_accuracy_experiment(experiment, methods=("qonly",), p_max_values=(0.6,),
                                n_p_values=(50,), n_q=50, reps=5, seed=3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_preset(experiment, seed=3)
    assert calls == []


def test_summarize_accuracy():
    records = run_accuracy_experiment(
        "fig4a", methods=("qonly", "combined"), p_max_values=(0.55, 0.6),
        n_p_values=(30,), n_q=40, reps=5, seed=4)
    rows = summarize_accuracy(records)
    assert len(rows) == 4  # 2 methods x 2 grid points
    for row in rows:
        recs = [r.accuracy for r in records
                if r.method == row.method and r.p_max == row.p_max]
        assert row.reps == 5
        assert row.accuracy_mean == pytest.approx(np.mean(recs))
        assert row.accuracy_se == pytest.approx(np.std(recs, ddof=1) / math.sqrt(5))
    # summaries keep first-appearance order
    assert rows[0].method == records[0].method


def test_target_rate_exponent_values():
    # the cone's margin exponent is 1: -beta (1 + 1) / (2 beta + d) and its source twin
    hp = HyperParams(beta=1.0, gamma=0.3, d=2)
    assert target_rate_exponent(hp, "q") == -0.5
    assert target_rate_exponent(hp, "p") == pytest.approx(-2.0 / 2.6, rel=1e-15)
    hp1 = HyperParams(beta=1.0, gamma=1.0, d=2)
    # a gamma = 1 source converges exactly like the target
    assert target_rate_exponent(hp1, "p") == target_rate_exponent(hp1, "q") == -0.5
    with pytest.raises(ValueError, match="sweep"):
        target_rate_exponent(hp, "both")


def test_rate_check_grid_validation():
    hp = HP_MAIN
    rs = RandomSource(1)
    with pytest.raises(ValueError, match=">= 4 sizes"):
        rate_exponent_check(hp, (10, 100, 1000), 2, rs)
    with pytest.raises(ValueError, match="span at least a decade"):
        rate_exponent_check(hp, (100, 200, 400, 800), 2, rs)
    with pytest.raises(ValueError, match="^size must be >= 1, got 0$"):
        rate_exponent_check(hp, (0, 10, 100, 1000), 2, rs)
    with pytest.raises(ValueError, match="reps"):
        rate_exponent_check(hp, (10, 20, 50, 100), 1, rs)
    with pytest.raises(ValueError, match="sweep"):
        rate_exponent_check(hp, (10, 20, 50, 100), 2, rs, sweep="pq")


def test_rate_check_smoke():
    result = rate_exponent_check(
        HP_MAIN, (20, 50, 100, 200), reps=2, rng=RandomSource(6),
        sweep="q", p_max=0.7, n_mc=2000)
    assert result.sizes == (20, 50, 100, 200)
    assert result.rep_risks.shape == (4, 2)
    assert len(result.mean_risks) == 4
    assert all(v > 0 for v in result.mean_risks)
    assert math.isfinite(result.slope)
    assert result.ci_low <= result.ci_high
    assert result.target_slope == -0.5
    assert len(result.records) == 8
    assert all(r.experiment == "rate-q" and r.accuracy is None for r in result.records)
    # deterministic under the same random source
    again = rate_exponent_check(
        HP_MAIN, (20, 50, 100, 200), reps=2, rng=RandomSource(6),
        sweep="q", p_max=0.7, n_mc=2000)
    assert again.slope == result.slope


def test_rate_check_refuses_fewer_than_one_expected_ball_draw():
    # at d = 6 the signal ball B(c, 0.1) holds 2000 * pi^3 * 0.1^6 / 3! = 0.0103
    # of the 2000 Monte Carlo draws in expectation
    hp = HyperParams(beta=1.0, gamma=0.3, d=6)
    with pytest.raises(ValueError, match=r"^too few draws \(d = 6, p_max = 0.6, "
                       r"n_mc = 2000: about 0.0103 Monte Carlo draws .*; need at least 1\)$"):
        rate_exponent_check(hp, (20, 50, 100, 200), reps=2, rng=RandomSource(6), n_mc=2000)
    # the count quoted is n_mc times the model's own signal volume
    for d, n_mc in ((6, 2000), (2, 30)):
        about = f"about {n_mc * DriftModel(0.6, 0.3, d).signal_volume():.3g} Monte Carlo draws"
        with pytest.raises(ValueError, match=re.escape(about)):
            rate_exponent_check(HyperParams(beta=1.0, gamma=0.3, d=d), (20, 50, 100, 200),
                                reps=2, rng=RandomSource(6), n_mc=n_mc)


def test_rate_check_zero_risk_names_the_expected_ball_draws():
    # 4000 * pi * 0.01^2 = 1.26 expected draws in B(c, 0.01): past the refusal,
    # yet at this seed both replications at size 20 have zero risk
    with pytest.raises(RuntimeError, match=r"^mean excess risk is zero at size 20; .*"
                       r"\(d = 2, p_max = 0.51, n_mc = 4000: about 1.26 Monte Carlo draws"):
        rate_exponent_check(HP_MAIN, (20, 50, 100, 200), reps=2, rng=RandomSource(0),
                            p_max=0.51, n_mc=4000)


def _loop_bootstrap_ci(rep_risks, log_sizes, gen, n_bootstrap=1000):
    """Reference: one draw, one mean and one fit per resample."""
    n_sizes, reps = rep_risks.shape
    slopes = []
    for _ in range(n_bootstrap):
        draw = rep_risks[np.arange(n_sizes)[:, None], gen.integers(reps, size=(n_sizes, reps))]
        means = draw.mean(axis=1)
        if np.all(means > 0):
            slopes.append(float(_fit_slope(log_sizes, means)))
    if len(slopes) < n_bootstrap // 2:
        raise RuntimeError("bootstrap degenerate: too many zero-risk resamples")
    return tuple(float(v) for v in np.percentile(slopes, [2.5, 97.5]))


def _hand_risks(n_sizes, reps, seed, zero_frac=0.0):
    """Replicate risks falling like n^-0.4 over a doubling grid, some set to zero."""
    gen = np.random.default_rng(seed)
    sizes = 500 * 2.0 ** np.arange(n_sizes)
    risks = gen.exponential(size=(n_sizes, reps)) * sizes[:, None] ** -0.4
    risks[gen.random((n_sizes, reps)) < zero_frac] = 0.0
    return np.log(sizes), risks


def test_rate_check_bootstrap_matches_the_per_resample_loop():
    seed, sizes = 6, (20, 50, 100, 200)
    result = rate_exponent_check(HP_MAIN, sizes, reps=3, rng=RandomSource(seed),
                                 p_max=0.7, n_mc=2000)
    root = RandomSource(seed).substream(_EXPERIMENT_STREAM_IDS["rate-q"])
    ref = _loop_bootstrap_ci(result.rep_risks, np.log(np.asarray(sizes, dtype=np.float64)),
                             root.substream(0).generator())
    assert (result.ci_low, result.ci_high) == ref
    # the benchmark's 6-size grid, odd and even reps, some resamples dropped
    for reps, seed in ((4, 0), (5, 1), (24, 2)):
        log_sizes, risks = _hand_risks(6, reps, seed, zero_frac=0.15)
        got = _bootstrap_ci(risks, log_sizes, RandomSource(seed).generator(), 1000)
        assert got == _loop_bootstrap_ci(risks, log_sizes, RandomSource(seed).generator())


def test_rate_check_bootstrap_long_grid_agrees_to_rounding():
    # From 8 sizes up, LAPACK's many-column least-squares solve may round the
    # last bits apart from the one-column solve (seen with OpenBLAS).
    log_sizes, risks = _hand_risks(9, 3, 3, zero_frac=0.15)
    got = _bootstrap_ci(risks, log_sizes, RandomSource(3).generator(), 1000)
    ref = _loop_bootstrap_ci(risks, log_sizes, RandomSource(3).generator())
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_rate_check_bootstrap_degenerate():
    # three sizes with a single positive replication out of 4: each resample
    # misses it with probability (3/4)^4, so about 0.32 of resamples are valid
    log_sizes, risks = _hand_risks(4, 4, 4)
    risks[:3, :3] = 0.0
    for fn in (_bootstrap_ci, _loop_bootstrap_ci):
        with pytest.raises(RuntimeError, match="^bootstrap degenerate"):
            fn(risks, log_sizes, RandomSource(4).generator(), 1000)
    # no valid resample at all: the same error, also where half of n_bootstrap is 0
    risks[0] = 0.0
    for n_bootstrap in (1000, 1):
        with pytest.raises(RuntimeError, match="^bootstrap degenerate"):
            _bootstrap_ci(risks, log_sizes, RandomSource(4).generator(), n_bootstrap)


def test_rate_check_source_sweep_runs():
    result = rate_exponent_check(
        HP_MAIN, (20, 50, 100, 200), reps=2, rng=RandomSource(7),
        sweep="p", p_max=0.7, n_mc=2000)
    assert result.sweep == "p"
    assert result.target_slope == pytest.approx(-2.0 / 2.6)
    assert all(r.n_q == 0 for r in result.records)


# ---------------------------------------------------------------- presets


def test_experiment_presets_contents():
    assert set(EXPERIMENT_PRESETS) == {"fig4a", "fig4b", "fig5a", "fig5b"}
    assert EXPERIMENT_PRESETS["fig4a"]["methods"] == NONADAPTIVE_METHODS
    assert EXPERIMENT_PRESETS["fig5a"]["methods"] == ADAPTIVE_METHODS
    grid = EXPERIMENT_PRESETS["fig4a"]["p_max_values"]
    assert grid[0] == 0.505 and grid[-1] == 0.55 and len(grid) == 10
    sizes = EXPERIMENT_PRESETS["fig4b"]["n_p_values"]
    assert sizes == (250, 500, 1000, 2000, 4000, 8000, 16000)
    assert EXPERIMENT_PRESETS["fig4b"]["p_max_values"] == (0.53,)
    for cfg in EXPERIMENT_PRESETS.values():
        assert cfg["n_q"] == 5000


def test_run_preset_with_overrides():
    records = run_preset("fig4a", seed=1, reps=2, p_max_values=(0.55,),
                         n_p_values=(30,), n_q=25, methods=("qonly",))
    assert len(records) == 2
    assert records[0].experiment == "fig4a"
    with pytest.raises(ValueError, match="unknown experiment"):
        run_preset("no-such-sweep", seed=1)
