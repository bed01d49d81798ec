"""Synthetic model, samplers, Monte Carlo scoring, and the experiment engine.

Frozen expectations come from closed forms: eta_P(x) = 1/2 + (eta_Q - 1/2)^g
evaluated by hand, the constant-0 excess risk (2 pi / 3) r^3 for the planar
cone of signal radius r, and the mean distance 2r/3 of a uniform draw from a
planar disc of radius r.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftknn.classifiers import adaptive_predict, minimax_plan, weighted_knn_predict
from driftknn.core import HyperParams, RandomSource, SampleSet, TransferDataset
from driftknn.neighbors import merged_order
from driftknn.simulation import (
    ADAPTIVE_METHODS,
    EXPERIMENT_PRESETS,
    METHODS,
    NONADAPTIVE_METHODS,
    FittedMethod,
    classification_accuracy,
    constant_classifier,
    excess_risk_mc,
    _fit_adaptive,
    _fit_weighted,
    fit_method,
    make_drift_model,
    rate_exponent_check,
    run_accuracy_experiment,
    run_preset,
    sample_dataset,
    sample_multisource_dataset,
    sample_test_points,
    summarize_accuracy,
    target_rate_exponent,
)

HP_MAIN = HyperParams(alpha=0.0, beta=1.0, gamma=0.3, d=2)


# ---------------------------------------------------------------- model


def test_model_validation():
    with pytest.raises(ValueError, match="p_max"):
        make_drift_model(0.5)
    with pytest.raises(ValueError, match="p_max"):
        make_drift_model(1.2)
    with pytest.raises(ValueError, match="gamma_sim"):
        make_drift_model(0.55, gamma_sim=0.0)
    with pytest.raises(ValueError, match="d must be"):
        make_drift_model(0.55, d=0)
    with pytest.raises(ValueError, match="shape"):
        make_drift_model(0.55, d=2, x_c=[0.5])
    with pytest.raises(ValueError, match="lie in"):
        make_drift_model(0.55, d=2, x_c=[0.5, 1.5])
    m = make_drift_model(0.55)
    np.testing.assert_array_equal(m.x_c, [0.5, 0.5])


def test_eta_values_frozen():
    m = make_drift_model(0.55, gamma_sim=0.3, d=2)
    assert m.eta_q(m.x_c) == pytest.approx(0.55, abs=0)
    # 1/2 + 0.05^0.3 and 1/2 + 0.03^0.3, computed independently
    assert m.eta_p(m.x_c) == pytest.approx(0.90709053153690444, rel=1e-15)
    x = m.x_c + np.array([0.02, 0.0])
    assert m.eta_q(x) == pytest.approx(0.53, rel=1e-12)
    assert m.eta_p(x) == pytest.approx(0.84924996914343953, rel=1e-13)
    far = np.array([0.0, 0.0])
    assert m.eta_q(far) == 0.5
    assert m.eta_p(far) == 0.5


def test_eta_vectorized():
    m = make_drift_model(0.6, d=2)
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.55]])
    eq = m.eta_q(pts)
    assert eq.shape == (3,)
    np.testing.assert_allclose(eq, [0.6, 0.5, 0.55])
    assert m.bayes(pts).tolist() == [1, 0, 1]


def test_bayes_region():
    m = make_drift_model(0.55, d=2)
    assert m.bayes(m.x_c) == 1
    inside = m.x_c + np.array([0.03, 0.0])
    assert m.bayes(inside) == 1
    # outside the signal ball eta is exactly 1/2, and 1/2 is not > 1/2
    plateau = m.x_c + np.array([0.2, 0.0])
    assert m.eta_q(plateau) == 0.5
    assert m.bayes(plateau) == 0
    assert m.bayes([0.1, 0.1]) == 0


def test_sample_labels_frequency():
    m = make_drift_model(0.55, gamma_sim=0.3, d=2)
    n = 100_000
    pts = np.tile(m.x_c, (n, 1))
    gen = RandomSource(71).generator()
    for which, eta in (("Q", 0.55), ("P", 0.90709053153690444)):
        labs = m.sample_labels(pts, which, gen)
        freq = labs.mean()
        tol = 3 * math.sqrt(eta * (1 - eta) / n)
        assert abs(freq - eta) < tol
    with pytest.raises(ValueError, match="'P' or 'Q'"):
        m.sample_labels(pts[:1], "R", gen)


# ---------------------------------------------------------------- samplers


def test_sample_dataset_shapes_and_cube():
    m = make_drift_model(0.55, d=3)
    ds = sample_dataset(m, 40, 60, RandomSource(5))
    assert (ds.n_p, ds.n_q, ds.d) == (40, 60, 3)
    assert ds.m == 1
    for s in (*ds.sources, ds.q_data):
        assert ((s.points >= 0) & (s.points <= 1)).all()
        assert set(np.unique(s.labels)) <= {0, 1}
    with pytest.raises(ValueError, match=">= 0"):
        sample_dataset(m, -1, 10, RandomSource(5))


def test_sample_dataset_q_independent_of_np():
    m = make_drift_model(0.55)
    rs = RandomSource(9)
    q_only = sample_dataset(m, 0, 50, rs)
    with_p = sample_dataset(m, 200, 50, rs)
    np.testing.assert_array_equal(q_only.q_data.points, with_p.q_data.points)
    np.testing.assert_array_equal(q_only.q_data.labels, with_p.q_data.labels)
    assert q_only.n_p == 0


def test_sample_dataset_deterministic():
    m = make_drift_model(0.6)
    a = sample_dataset(m, 10, 10, RandomSource(3))
    b = sample_dataset(m, 10, 10, RandomSource(3))
    np.testing.assert_array_equal(a.sources[0].points, b.sources[0].points)
    np.testing.assert_array_equal(a.q_data.labels, b.q_data.labels)
    c = sample_dataset(m, 10, 10, RandomSource(4))
    assert not np.array_equal(a.q_data.points, c.q_data.points)


def test_sample_multisource_single_source_matches_two_sample():
    m = make_drift_model(0.55)
    rs = RandomSource(12)
    mds = sample_multisource_dataset(m, (30,), 20, rs)
    ds = sample_dataset(m, 30, 20, rs)
    np.testing.assert_array_equal(mds.q_data.points, ds.q_data.points)
    np.testing.assert_array_equal(mds.q_data.labels, ds.q_data.labels)
    np.testing.assert_array_equal(mds.sources[0].points, ds.sources[0].points)
    np.testing.assert_array_equal(mds.sources[0].labels, ds.sources[0].labels)


def test_sample_multisource_shapes():
    m = make_drift_model(0.55)
    mds = sample_multisource_dataset(m, (5, 0, 7), 4, RandomSource(13))
    assert mds.source_sizes == (5, 0, 7)
    assert mds.n_q == 4
    with pytest.raises(ValueError, match="at least one source"):
        sample_multisource_dataset(m, (), 4, RandomSource(13))


def test_sample_test_points_containment_and_radius():
    center = np.array([0.5, 0.5])
    r = 0.05
    pts = sample_test_points(center, r, 20_000, RandomSource(21))
    dist = np.sqrt(((pts - center) ** 2).sum(axis=1))
    assert (dist <= r).all()
    # uniform on a disc: mean distance 2r/3, variance r^2/18
    se = math.sqrt(r * r / 18 / len(pts))
    assert abs(dist.mean() - 2 * r / 3) < 3 * se


def test_sample_test_points_validation():
    with pytest.raises(ValueError, match="radius"):
        sample_test_points([0.5, 0.5], 0.0, 3, RandomSource(1))
    with pytest.raises(ValueError, match="n must be"):
        sample_test_points([0.5, 0.5], 0.1, -1, RandomSource(1))
    with pytest.raises(ValueError, match="vector"):
        sample_test_points(0.5, 0.1, 3, RandomSource(1))
    empty = sample_test_points([0.5, 0.5], 0.1, 0, RandomSource(1))
    assert empty.shape == (0, 2)


# ---------------------------------------------------------------- scoring


def test_classification_accuracy_extremes():
    m = make_drift_model(0.55)
    pts = sample_test_points(m.x_c, 0.05, 200, RandomSource(31))

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
    m = make_drift_model(0.55)
    pts = sample_test_points(m.x_c, 0.05, 5, RandomSource(32))
    with pytest.raises(ValueError, match="nonempty"):
        classification_accuracy(constant_classifier(1), m, np.empty((0, 2)))
    with pytest.raises(ValueError, match="requires rng"):
        classification_accuracy(constant_classifier(1), m, pts, target="noisy")
    with pytest.raises(ValueError, match="unknown accuracy target"):
        classification_accuracy(constant_classifier(1), m, pts, target="exact")
    noisy = classification_accuracy(constant_classifier(1), m, pts, target="noisy",
                                    rng=RandomSource(33))
    assert 0.0 <= noisy <= 1.0


def test_excess_risk_of_oracle_is_zero():
    m = make_drift_model(0.55)
    est = excess_risk_mc(lambda xs: m.bayes(xs), m, 10_000, RandomSource(41))
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.n == 10_000


def test_excess_risk_constant_one_is_zero():
    # predicting 1 everywhere only disagrees with the oracle where the
    # weight |eta - 1/2| vanishes, so the weighted risk is exactly zero
    m = make_drift_model(0.55)
    est = excess_risk_mc(constant_classifier(1), m, 10_000, RandomSource(42))
    assert est.value == 0.0


def test_excess_risk_constant_zero_matches_closed_form():
    m = make_drift_model(0.55)
    est = excess_risk_mc(constant_classifier(0), m, 200_000, RandomSource(43))
    truth = 2.6179938779914946e-4  # (2 pi / 3) * 0.05^3
    assert est.std_error > 0
    assert abs(est.value - truth) < 3 * est.std_error


def test_excess_risk_chunk_size_invariance():
    m = make_drift_model(0.6)
    a = excess_risk_mc(constant_classifier(0), m, 50_000, RandomSource(44))
    b = excess_risk_mc(constant_classifier(0), m, 50_000, RandomSource(44), chunk_size=999)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert a.std_error == pytest.approx(b.std_error, rel=1e-9)


def test_excess_risk_validation():
    m = make_drift_model(0.55)
    with pytest.raises(ValueError, match="n_mc"):
        excess_risk_mc(constant_classifier(0), m, 1, RandomSource(1))
    with pytest.raises(ValueError, match="label"):
        constant_classifier(2)


def test_fitted_method_point_fallback():
    calls = []

    def point(x):
        calls.append(1)
        return 1

    fm = FittedMethod("stub", point)
    assert fm.predict_point([0.0]) == 1
    out = fm.predict_batch(np.zeros((3, 1)))
    assert out.tolist() == [1, 1, 1]
    assert len(calls) == 4  # one point call plus three fallback calls
    fm2 = FittedMethod("stub2", point, lambda pts: np.zeros(len(pts)))
    assert fm2.predict_batch(np.zeros((3, 1))).tolist() == [0, 0, 0]


def test_fit_method_all_names_predict():
    m = make_drift_model(0.55)
    ds = sample_dataset(m, 60, 80, RandomSource(51))
    x = m.x_c
    for name in METHODS:
        fm = fit_method(name, ds, HP_MAIN)
        assert fm.name == name
        assert fm.predict_point(x) in (0, 1)
        assert fm.predict_batch(np.vstack([x, x])).shape == (2,)
    with pytest.raises(ValueError, match="unknown method"):
        fit_method("nope", ds, HP_MAIN)


def lattice_points(gen, n, grid, d=2):
    """n points on the 1/grid lattice of the unit cube: exact distance ties."""
    return gen.integers(0, grid + 1, size=(n, d)) / grid


def lattice_set(gen, n, grid, d=2):
    if n == 0:
        return SampleSet.empty(d)
    return SampleSet(lattice_points(gen, n, grid, d), gen.integers(0, 2, n))


LATTICE = dict(seed=st.integers(0, 2**32 - 1), grid=st.integers(1, 8))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n_p=st.integers(0, 40), n_q=st.integers(1, 40), **LATTICE)
def test_fit_method_batch_agrees_with_point(n_p, n_q, seed, grid):
    gen = np.random.default_rng(seed)
    ds = TransferDataset((lattice_set(gen, n_p, grid),), lattice_set(gen, n_q, grid))
    pts = lattice_points(gen, 12, grid)
    for name in METHODS:
        fm = fit_method(name, ds, HP_MAIN)
        single = np.array([fm.predict_point(x) for x in pts])
        np.testing.assert_array_equal(fm.predict_batch(pts), single, err_msg=name)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(sizes=st.lists(st.integers(0, 30), min_size=2, max_size=3), n_q=st.integers(1, 30),
       **LATTICE)
def test_multisource_fits_batch_agree_with_point(sizes, n_q, seed, grid):
    gen = np.random.default_rng(seed)
    mds = TransferDataset(tuple(lattice_set(gen, n, grid) for n in sizes),
                          lattice_set(gen, n_q, grid))
    hp = HyperParams(alpha=0.0, beta=1.0, gamma=0.3, d=2)
    plan = minimax_plan(mds.source_sizes, mds.n_q, hp)
    pts = lattice_points(gen, 10, grid)
    weighted, adaptive = _fit_weighted(mds, hp), _fit_adaptive(mds)
    want_w = [weighted_knn_predict(mds, plan, x) for x in pts]
    want_a = [adaptive_predict(mds, x)[0] for x in pts]
    np.testing.assert_array_equal(weighted.predict_batch(pts), want_w)
    np.testing.assert_array_equal([weighted.predict_point(x) for x in pts], want_w)
    np.testing.assert_array_equal(adaptive.predict_batch(pts), want_a)


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
    m = make_drift_model(0.6)
    x = np.array([bad, 0.5])
    pts = np.vstack([m.x_c, x])
    ds = sample_dataset(m, 30, 40, RandomSource(56))
    mds = sample_multisource_dataset(m, (20, 25), 30, RandomSource(57))
    fits = [fit_method(name, ds, HP_MAIN) for name in METHODS]
    fits += [_fit_weighted(mds, HP_MAIN), _fit_adaptive(mds)]
    plan = minimax_plan(mds.source_sizes, mds.n_q, HP_MAIN)
    calls = [lambda: weighted_knn_predict(mds, plan, x),
             lambda: adaptive_predict(mds, x)]
    calls += [lambda fm=fm: fm.predict_point(x) for fm in fits]
    calls += [lambda fm=fm: fm.predict_batch(pts) for fm in fits]
    for call in calls:
        with pytest.raises(ValueError, match="non-finite coordinate"):
            call()


def test_fit_method_lepski_width_passthrough():
    m = make_drift_model(0.55)
    ds = sample_dataset(m, 0, 40, RandomSource(54))
    a = fit_method("lepski-q", ds, HP_MAIN, "algorithm3")
    b = fit_method("lepski-q", ds, HP_MAIN, "lemma5")
    pts = sample_test_points(m.x_c, 0.05, 10, RandomSource(55))
    assert a.predict_batch(pts).shape == b.predict_batch(pts).shape


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
    hp = HyperParams(alpha=0.0, beta=1.0, gamma=0.3, d=2)
    assert target_rate_exponent(hp, "q") == -0.25
    assert target_rate_exponent(hp, "p") == pytest.approx(-1.0 / 2.6, rel=1e-15)
    hp1 = HyperParams(alpha=0.0, beta=1.0, gamma=1.0, d=2)
    # a gamma = 1 source converges exactly like the target
    assert target_rate_exponent(hp1, "p") == target_rate_exponent(hp1, "q") == -0.25
    with pytest.raises(ValueError, match="sweep"):
        target_rate_exponent(hp, "both")


def test_rate_check_grid_validation():
    hp = HP_MAIN
    rs = RandomSource(1)
    with pytest.raises(ValueError, match=">= 4 sizes"):
        rate_exponent_check(hp, (10, 100, 1000), 2, rs)
    with pytest.raises(ValueError, match="span at least a decade"):
        rate_exponent_check(hp, (100, 200, 400, 800), 2, rs)
    with pytest.raises(ValueError, match="sizes must be >= 1"):
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
    assert result.target_slope == -0.25
    assert len(result.records) == 8
    assert all(r.experiment == "rate-q" and r.accuracy is None for r in result.records)
    # deterministic under the same random source
    again = rate_exponent_check(
        HP_MAIN, (20, 50, 100, 200), reps=2, rng=RandomSource(6),
        sweep="q", p_max=0.7, n_mc=2000)
    assert again.slope == result.slope


def test_rate_check_zero_risk_names_the_expected_ball_draws():
    # at d = 6 the signal ball B(x_c, 0.1) holds 2000 * pi^3 * 0.1^6 / 3! = 0.0103
    # of the 2000 Monte Carlo draws in expectation, so every risk is zero
    hp = HyperParams(alpha=0.0, beta=1.0, gamma=0.3, d=6)
    with pytest.raises(RuntimeError, match=r"^mean excess risk is zero at size 20; .*"
                       r"\(d = 6, p_max = 0.6, n_mc = 2000: about 0.0103 Monte Carlo draws"):
        rate_exponent_check(hp, (20, 50, 100, 200), reps=2, rng=RandomSource(6), n_mc=2000)


def test_rate_check_source_sweep_runs():
    result = rate_exponent_check(
        HP_MAIN, (20, 50, 100, 200), reps=2, rng=RandomSource(7),
        sweep="p", p_max=0.7, n_mc=2000)
    assert result.sweep == "p"
    assert result.target_slope == pytest.approx(-1.0 / 2.6)
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
