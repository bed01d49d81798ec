"""Neighbor plans, weighted votes, adaptive scans, and the Lepski baseline.

Frozen numeric expectations were computed independently with plain Python
floats (math.floor / math.log arithmetic on the closed-form expressions)
before being pasted here.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftknn import classifiers, neighbors
from driftknn.core import HyperParams, KnnPlan, RandomSource, SampleSet, TransferDataset
from driftknn.classifiers import (
    LEPSKI_WIDTHS,
    _adaptive_scan,
    _lepski_scan,
    LepskiTrace,
    adaptive_predict,
    combined_budget_k,
    default_knn_k,
    knn_predict,
    lepski_predict,
    minimax_plan,
    weighted_knn_eta,
    weighted_knn_predict,
)
from driftknn.simulation import DriftModel, sample_dataset

HP_MAIN = HyperParams(beta=1.0, gamma=0.3, d=2)


def make_set(points, labels):
    return SampleSet(np.asarray(points, dtype=float), np.asarray(labels))


def random_transfer(seed, n_p, n_q, d=2):
    gen = RandomSource(seed).generator()
    p = SampleSet(gen.random((n_p, d)), gen.integers(0, 2, n_p))
    q = SampleSet(gen.random((n_q, d)), gen.integers(0, 2, n_q))
    return TransferDataset((p,), q)


def snr_index(k_p: int, eta_p: float, k_q: int, eta_q: float) -> float:
    """Reference two-sample scan statistic of a (k_P, k_Q) neighbor split.

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


# ---------------------------------------------------------------- plans


def test_default_knn_k_frozen():
    hp1 = HyperParams(beta=1.0, gamma=0.3, d=1)
    assert default_knn_k(100, hp1) == 21  # floor(100^(2/3))
    assert default_knn_k(8, hp1) == 4  # 8^(2/3) is exactly 4; the float power falls short
    assert default_knn_k(5000, HP_MAIN) == 70  # floor(5000^(1/2))
    assert default_knn_k(0, HP_MAIN) == 0
    assert default_knn_k(1, HP_MAIN) == 1
    with pytest.raises(ValueError):
        default_knn_k(-1, HP_MAIN)


def test_minimax_plan_frozen_main():
    plan = minimax_plan((2000,), 5000, HP_MAIN)
    assert plan.k_sources == (5,)
    assert plan.k_q == 14
    assert plan.w_sources[0] == pytest.approx(0.41474412601881938, rel=1e-15)
    assert plan.w_q == pytest.approx(0.053202757972825004, rel=1e-15)


def test_minimax_plan_target_only_matches_single_sample_rule():
    hp = HyperParams(beta=1.0, gamma=0.3, d=1)
    plan = minimax_plan((0,), 100, hp)
    assert plan.k_sources == (0,)
    assert plan.k_q == 21
    assert plan.k_q == default_knn_k(100, hp)
    assert plan.w_q == pytest.approx(0.21544346900318839, rel=1e-15)
    # the identity holds on a grid, not just one size
    for n in (1, 7, 50, 1234, 20000):
        assert minimax_plan((0,), n, hp).k_q == default_knn_k(n, hp)


def test_minimax_plan_clamps_small_side():
    hp = HyperParams(beta=0.8, gamma=0.5, d=3)
    plan = minimax_plan((300,), 40, hp)
    assert plan.k_sources == (3,)
    assert plan.k_q == 1  # raw floor is 0; a nonempty set keeps one vote
    assert plan.w_sources[0] == pytest.approx(0.54671956187348703, rel=1e-15)
    assert plan.w_q == pytest.approx(0.29890227933513758, rel=1e-15)


def test_minimax_plan_counts_never_exceed_sizes():
    gen = RandomSource(3).generator()
    for _ in range(50):
        n_p = int(gen.integers(0, 500))
        n_q = int(gen.integers(0, 500))
        if n_p == 0 and n_q == 0:
            continue
        plan = minimax_plan((n_p,), n_q, HP_MAIN)
        (k_p,), (w_p,) = plan.k_sources, plan.w_sources
        assert 0 <= k_p <= n_p
        assert 0 <= plan.k_q <= n_q
        assert (k_p > 0) == (n_p > 0)
        assert (plan.k_q > 0) == (n_q > 0)
        assert w_p > 0 and plan.w_q > 0
        # weaker source signal never outweighs the target
        assert w_p >= plan.w_q


def test_minimax_plan_validation():
    with pytest.raises(ValueError, match=">= 0"):
        minimax_plan((-1,), 10, HP_MAIN)
    # minimax_plan((10.7,), 5, hp) used to plan for 10 source rows; numpy integers pass
    for sizes, n_q, shown in (((10.7,), 5, "source 1 size must be an integer, got 10.7"),
                              ((10, True), 5, "source 2 size must be an integer, got True"),
                              ((10,), 5.0, "n_q must be an integer, got 5.0"),
                              ((10,), False, "n_q must be an integer, got False")):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            minimax_plan(sizes, n_q, HP_MAIN)
    assert minimax_plan(np.array([2000]), np.int64(5000), HP_MAIN) == \
        minimax_plan((2000,), 5000, HP_MAIN)
    with pytest.raises(ValueError, match="at least one sample"):
        minimax_plan((0,), 0, HP_MAIN)


def test_combined_budget_k_frozen():
    assert combined_budget_k((2000,), 5000, HP_MAIN) == 19  # k_P + k_Q = 5 + 14
    plan = minimax_plan((2000,), 5000, HP_MAIN)
    assert combined_budget_k((2000,), 5000, HP_MAIN) == plan.k_sources[0] + plan.k_q


def test_combined_budget_k_is_the_m_source_plan_total():
    hp = HyperParams(beta=1.0, gamma=(0.3, 0.8), d=2)
    plan = minimax_plan((1000, 3000), 5000, hp)
    assert combined_budget_k((1000, 3000), 5000, hp) == plan.k_q + sum(plan.k_sources)
    with pytest.raises(ValueError, match="gamma vector has 2 entries, need 1"):
        combined_budget_k((4000,), 5000, hp)


def test_combined_budget_k_collapses_without_source():
    assert combined_budget_k((0,), 5000, HP_MAIN) == default_knn_k(5000, HP_MAIN) == 70
    assert combined_budget_k((0,), 2401, HP_MAIN) == default_knn_k(2401, HP_MAIN) == 49
    # Every n <= 2000, and every perfect power up to 20000: only there is the
    # exact count an integer that the float powers can miss by a few ulps.
    powers = {t ** j for j in range(2, 15) for t in range(2, 142) if t ** j <= 20000}
    sizes = sorted(set(range(1, 2001)) | powers)
    for beta in (1.0, 0.5, 0.25):
        for d in (1, 2, 3, 5):
            hp = HyperParams(beta=beta, gamma=0.3, d=d)
            for n in sizes:
                assert combined_budget_k((0,), n, hp) == default_knn_k(n, hp), (beta, d, n)


def test_multisource_plan_frozen():
    hp = HyperParams(beta=1.0, gamma=(0.3, 0.3), d=2)
    plan = minimax_plan((1000, 1000), 5000, hp)
    assert plan.k_sources == (3, 3)
    assert plan.k_q == 16
    assert plan.w_sources[0] == pytest.approx(0.42594367903639346, rel=1e-15)
    assert plan.w_q == pytest.approx(0.058144315091452181, rel=1e-15)


def test_multisource_plan_weights_decrease_in_gamma():
    hp = HyperParams(beta=1.0, gamma=(0.2, 0.5, 1.0), d=2)
    plan = minimax_plan((500, 500, 500), 1000, hp)
    assert plan.k_sources == (2, 2, 2)
    assert plan.k_q == 5
    expect = (0.59103005530836783, 0.26854923274626374, 0.072118690408606925)
    for got, want in zip(plan.w_sources, expect):
        assert got == pytest.approx(want, rel=1e-15)
    assert plan.w_sources[0] > plan.w_sources[1] > plan.w_sources[2]
    # gamma = 1 source carries the same weight exponent as the target
    assert plan.w_sources[2] == pytest.approx(plan.w_q, rel=1e-15)


def test_multisource_plan_single_source_reduces_to_two_sample():
    # an empty second source adds nothing to N, so the plan of the one
    # nonempty source is the two-sample plan, floats included
    hp2 = HyperParams(beta=1.0, gamma=(0.3, 0.7), d=2)
    two = minimax_plan((2000, 0), 5000, hp2)
    one = minimax_plan((2000,), 5000, HP_MAIN)
    assert two.k_sources == (*one.k_sources, 0)
    assert (two.k_q, two.w_q, two.w_sources[0]) == (one.k_q, one.w_q, one.w_sources[0])


def test_multisource_plan_validation():
    with pytest.raises(ValueError, match="at least one source"):
        minimax_plan((), 10, HP_MAIN)
    with pytest.raises(ValueError, match=">= 0"):
        minimax_plan((5, -1), 10, HP_MAIN)
    with pytest.raises(ValueError, match="at least one sample"):
        minimax_plan((0, 0), 0, HP_MAIN)
    with pytest.raises(ValueError, match="2 entries, need 3"):
        minimax_plan((1, 1, 1), 1, HyperParams(1.0, (0.3, 0.5), 2))


# ---------------------------------------------------------------- weighted vote


def hand_example():
    p = make_set([[0.0, 0.0]], [1])
    q = make_set([[0.1, 0.0], [0.0, 0.1]], [0, 0])
    ds = TransferDataset((p,), q)
    plan = KnnPlan(k_sources=(1,), w_sources=(1.0,), k_q=2, w_q=1.5)
    return ds, plan


def test_weighted_eta_hand_computed():
    ds, plan = hand_example()
    # num = 1.0 * 1 + 1.5 * 0 = 1, den = 1.0 * 1 + 1.5 * 2 = 4
    eta = weighted_knn_eta(ds, plan, [0.0, 0.0])
    assert eta == pytest.approx(0.25)
    assert weighted_knn_predict(ds, plan, [0.0, 0.0]) == 0


def test_weighted_eta_rescaling_invariance():
    ds, plan = hand_example()
    x = [0.05, 0.02]
    base = weighted_knn_eta(ds, plan, x)
    for c in (0.01, 3.0, 1e6):
        scaled = KnnPlan(plan.k_sources, [c * w for w in plan.w_sources], plan.k_q,
                         c * plan.w_q)
        assert weighted_knn_eta(ds, scaled, x) == pytest.approx(base, rel=1e-12)


def test_weighted_label_flip_symmetry():
    ds = random_transfer(5, 30, 50)
    plan = minimax_plan((30,), 50, HP_MAIN)
    p = ds.sources[0]
    flipped = TransferDataset(
        (SampleSet(p.points, 1 - p.labels),),
        SampleSet(ds.q_data.points, 1 - ds.q_data.labels),
    )
    gen = RandomSource(6).generator()
    for _ in range(20):
        x = gen.random(2)
        eta = weighted_knn_eta(ds, plan, x)
        eta_f = weighted_knn_eta(flipped, plan, x)
        assert eta_f == pytest.approx(1.0 - eta, abs=1e-12)
        if abs(eta - 0.5) > 1e-9:
            assert weighted_knn_predict(flipped, plan, x) == 1 - weighted_knn_predict(ds, plan, x)


def test_weighted_eta_validates_plan_against_sizes():
    ds, _ = hand_example()
    with pytest.raises(ValueError, match="^plan needs k = 2 from source 1 of size 1$"):
        weighted_knn_eta(ds, KnnPlan((2,), (1.0,), 1, 1.0), [0.0, 0.0])
    with pytest.raises(ValueError, match="k_Q = 3 but Q has 2"):
        weighted_knn_eta(ds, KnnPlan((1,), (1.0,), 3, 1.0), [0.0, 0.0])
    with pytest.raises(ValueError, match="no positively weighted"):
        weighted_knn_eta(ds, KnnPlan((1,), (0.0,), 2, 0.0), [0.0, 0.0])


def test_weighted_predict_without_source():
    q = make_set([[0.0], [0.2], [0.4]], [1, 1, 0])
    ds = TransferDataset((SampleSet.empty(1),), q)
    plan = minimax_plan(ds.source_sizes, ds.n_q, HyperParams(1.0, 0.3, 1))
    assert plan.k_sources == (0,)
    assert weighted_knn_predict(ds, plan, [0.0]) == 1


def test_knn_predict_majority_and_validation():
    s = make_set([[0.0], [0.1], [0.2]], [1, 1, 0])
    assert knn_predict(s, 3, [0.0]) == 1
    assert knn_predict(s, 1, [0.21]) == 0
    # an exact tie is not a strict majority
    s2 = make_set([[0.0], [0.1]], [1, 0])
    assert knn_predict(s2, 2, [0.0]) == 0
    with pytest.raises(ValueError, match="k must be in \\[1, 3\\]"):
        knn_predict(s, 0, [0.0])
    with pytest.raises(ValueError, match="k must be in \\[1, 3\\]"):
        knn_predict(s, 4, [0.0])


def test_knn_predict_refuses_a_k_that_is_not_an_integer():
    s = make_set([[0.0], [0.1], [0.2]], [1, 1, 0])
    for k, shown in ((True, "True"), (2.5, "2.5"), (np.float64(1.0), "1.0")):
        with pytest.raises(ValueError, match=rf"^k must be an integer, got {shown}$"):
            knn_predict(s, k, [0.0])
    assert knn_predict(s, np.int64(3), [0.0]) == 1


def test_one_query_classifiers_refuse_a_query_of_several_points():
    s = make_set([[0.0, 0.0], [1.0, 1.0]], [0, 1])
    x = [[0.2, 0.1], [0.9, 0.8]]
    with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
        lepski_predict(s, x)
    with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
        adaptive_predict(TransferDataset((s,), s), x)


def test_multisource_weighted_matches_hand_example():
    ds, _ = hand_example()
    p2 = make_set([[0.0, 0.05], [0.3, 0.0]], [1, 1])
    mds = TransferDataset((*ds.sources, p2), ds.q_data)
    plan = KnnPlan((1, 1), (1.0, 0.5), 2, 1.5)
    # num = 1.5 * 0 + 1.0 * 1 + 0.5 * 1 = 1.5, den = 1.5 * 2 + 1.0 * 1 + 0.5 * 1 = 4.5
    assert weighted_knn_eta(mds, plan, [0.0, 0.0]) == pytest.approx(1.5 / 4.5, rel=1e-15)
    assert weighted_knn_predict(mds, plan, [0.0, 0.0]) == 0
    # all of S2 at full weight tips the vote: (1 + 2) / (3 + 1 + 2) = 1/2 is no majority,
    # (1 + 4) / (3 + 1 + 4) > 1/2 is
    assert weighted_knn_predict(mds, KnnPlan((1, 2), (1.0, 1.0), 2, 1.5), [0.0, 0.0]) == 0
    assert weighted_knn_predict(mds, KnnPlan((1, 2), (1.0, 2.0), 2, 1.5), [0.0, 0.0]) == 1


def test_multisource_weighted_validation():
    mds = TransferDataset((make_set([[0.0]], [1]),), make_set([[1.0]], [0]))
    with pytest.raises(ValueError, match="plan has 2 sources, dataset has 1"):
        weighted_knn_predict(mds, KnnPlan((1, 1), (1.0, 1.0), 1, 1.0), [0.0])
    with pytest.raises(ValueError, match="k_Q = 5"):
        weighted_knn_predict(mds, KnnPlan((1,), (1.0,), 5, 1.0), [0.0])
    with pytest.raises(ValueError, match="source 1 of size 1"):
        weighted_knn_predict(mds, KnnPlan((3,), (1.0,), 1, 1.0), [0.0])
    with pytest.raises(ValueError, match="no positively weighted"):
        weighted_knn_predict(mds, KnnPlan((1,), (0.0,), 1, 0.0), [0.0])


def test_multisource_weighted_names_the_over_requested_source():
    mds = TransferDataset((make_set([[0.0], [0.5]], [1, 0]), make_set([[0.2]], [1])),
                          make_set([[1.0]], [0]))
    plan = KnnPlan((1, 3), (1.0, 1.0), 1, 1.0)
    with pytest.raises(ValueError, match="plan needs k = 3 from source 2 of size 1$"):
        weighted_knn_predict(mds, plan, [0.0])


def test_votes_take_a_batch_of_queries():
    # the (m, d) batch path gives the point path's values, floats included
    gen = RandomSource(71).generator()
    p = make_set(gen.integers(0, 5, (30, 2)) / 4, gen.integers(0, 2, 30))
    ds = TransferDataset((p,), make_set(gen.integers(0, 5, (40, 2)) / 4, gen.integers(0, 2, 40)))
    mds = TransferDataset((p, p), ds.q_data)
    plan = minimax_plan(ds.source_sizes, ds.n_q, HP_MAIN)
    mplan = minimax_plan(mds.source_sizes, mds.n_q, HyperParams(1.0, (0.3, 0.5), 2))
    xs = gen.integers(0, 5, (25, 2)) / 4
    cases = [lambda x: weighted_knn_eta(ds, plan, x),
             lambda x: weighted_knn_predict(ds, plan, x),
             lambda x: knn_predict(ds.q_data, 7, x),
             lambda x: weighted_knn_predict(mds, mplan, x)]
    for f in cases:
        batch = f(xs)
        assert isinstance(batch, np.ndarray) and batch.shape == (25,)
        np.testing.assert_array_equal(batch, [f(x) for x in xs])


# ---------------------------------------------------------------- snr statistic


def test_snr_index_hand_values():
    # one-sided evidence
    assert snr_index(4, 0.75, 0, 0.5) == pytest.approx(0.25)
    # agreeing sides add
    assert snr_index(4, 0.75, 9, 0.75) == pytest.approx(0.8125)
    # disagreeing sides keep only the stronger term
    assert snr_index(4, 0.75, 9, 0.25) == pytest.approx(0.5625)
    # estimates exactly at 1/2 carry no evidence
    assert snr_index(100, 0.5, 100, 0.5) == 0.0
    # at 1/2 on one side, the other side's evidence passes through
    assert snr_index(3, 0.5, 5, 0.9) == pytest.approx(5 * 0.4 ** 2)


def test_snr_index_symmetry():
    assert snr_index(4, 0.75, 9, 0.25) == snr_index(9, 0.75, 4, 0.25)
    assert snr_index(7, 0.3, 2, 0.3) == pytest.approx(snr_index(7, 0.7, 2, 0.7))


# ---------------------------------------------------------------- adaptive scan


def test_adaptive_single_point():
    ds = TransferDataset((SampleSet.empty(1),), make_set([[0.0]], [1]))
    label, trace = adaptive_predict(ds, [0.5])
    assert label == 1
    assert trace.threshold == 0.0  # (d+3) * log(1)
    assert trace.stop_step == 1
    assert trace.chosen_step == 1
    np.testing.assert_allclose(trace.snr, [0.25])
    assert trace.k_p.tolist() == [0]
    assert trace.k_q.tolist() == [1]


def test_adaptive_all_ones_frozen_stop():
    gen = RandomSource(13).generator()
    p = SampleSet(gen.random((100, 1)), np.ones(100, dtype=np.int64))
    q = SampleSet(gen.random((100, 1)), np.ones(100, dtype=np.int64))
    label, trace = adaptive_predict(TransferDataset((p,), q), [0.5])
    # snr(k) = k/4 regardless of how the merge splits, so the stop index
    # depends only on the threshold: first k with k/4 > 4 log(200)
    assert trace.threshold == pytest.approx(21.193269466192145, rel=1e-15)
    assert trace.stop_step == 85
    assert trace.chosen_step == 85
    assert label == 1
    np.testing.assert_allclose(trace.snr, trace.steps / 4.0)


def test_adaptive_trace_invariants():
    for seed, n_p, n_q in ((21, 40, 60), (22, 0, 30), (23, 25, 0)):
        ds = random_transfer(seed, n_p, n_q)
        x = RandomSource(seed + 100).generator().random(2)
        label, tr = adaptive_predict(ds, x)
        n = n_p + n_q
        assert len(tr.snr) == n
        np.testing.assert_array_equal(tr.k_p + tr.k_q, np.arange(1, n + 1))
        assert tr.k_p[-1] == n_p and tr.k_q[-1] == n_q
        # counts grow one side at a time
        assert (np.diff(tr.k_p) >= 0).all() and (np.diff(tr.k_q) >= 0).all()
        # empty side reads 1/2 by convention
        np.testing.assert_array_equal(tr.eta_p[tr.k_p == 0], 0.5)
        np.testing.assert_array_equal(tr.eta_q[tr.k_q == 0], 0.5)
        assert tr.threshold == pytest.approx((ds.d + 3) * math.log(n))
        exceed = tr.snr > tr.threshold
        if tr.stop_step is None:
            assert not exceed.any()
            assert tr.chosen_step == int(np.argmax(tr.snr)) + 1
        else:
            assert exceed[tr.stop_step - 1]
            assert not exceed[: tr.stop_step - 1].any()
            assert tr.chosen_step == tr.stop_step
        # per-step statistic recomputes from the split
        c = tr.chosen_step - 1
        want = snr_index(int(tr.k_p[c]), float(tr.eta_p[c]),
                         int(tr.k_q[c]), float(tr.eta_q[c]))
        assert tr.snr[c] == pytest.approx(want, rel=1e-12)
        score = (math.sqrt(tr.k_p[c]) * (tr.eta_p[c] - 0.5)
                 + math.sqrt(tr.k_q[c]) * (tr.eta_q[c] - 0.5))
        assert label == int(score >= 0) == tr.label


def test_adaptive_argmax_fallback():
    # balanced labels keep the statistic far below threshold
    p = make_set([[0.0], [0.3]], [1, 0])
    q = make_set([[0.1], [0.2]], [0, 1])
    label, tr = adaptive_predict(TransferDataset((p,), q), [0.0])
    assert tr.stop_step is None
    assert tr.chosen_step == int(np.argmax(tr.snr)) + 1
    assert label == tr.label


def test_adaptive_empty_dataset_raises():
    ds = TransferDataset((SampleSet.empty(2),), SampleSet.empty(2))
    with pytest.raises(ValueError, match="empty"):
        adaptive_predict(ds, [0.0, 0.0])
    ds = TransferDataset((SampleSet.empty(2),) * 3, SampleSet.empty(2))
    with pytest.raises(ValueError, match="empty"):
        adaptive_predict(ds, [0.0, 0.0])


def test_multisource_adaptive_single_source_equals_two_sample():
    # at m = 1 the per-side statistic max(snr_pos, snr_neg) is the
    # two-sample statistic of Alg. 3 at every step, not just the chosen one
    ds = random_transfer(33, 50, 70)
    gen = RandomSource(34).generator()
    for _ in range(10):
        _, tr = adaptive_predict(ds, gen.random(2))
        want = [snr_index(int(kp), float(ep), int(kq), float(eq))
                for kp, ep, kq, eq in zip(tr.k_p, tr.eta_p, tr.k_q, tr.eta_q)]
        np.testing.assert_allclose(tr.snr, want, rtol=1e-12)


def test_adaptive_label_rule_follows_m():
    # one source: Alg. 3's sign rule; m >= 2: snr_pos >= snr_neg. Lattice
    # data gives exact distance ties and balanced steps.
    gen = RandomSource(37).generator()

    def lattice(n):
        return make_set(gen.integers(0, 5, (n, 2)) / 4, gen.integers(0, 2, n))

    one = TransferDataset((lattice(30),), lattice(40))
    three = TransferDataset((lattice(20), lattice(15), lattice(25)), lattice(30))
    for x in gen.integers(0, 5, (40, 2)) / 4:
        label, tr = adaptive_predict(one, x)
        c = tr.chosen_step - 1
        score = (math.sqrt(tr.k_p[c]) * (tr.eta_p[c] - 0.5)
                 + math.sqrt(tr.k_q[c]) * (tr.eta_q[c] - 0.5))
        assert label == int(score >= 0) == tr.label
        label, tr = adaptive_predict(three, x)
        c = tr.chosen_step - 1
        assert tr.k_counts.shape[0] == 4
        assert label == int(tr.snr_pos[c] >= tr.snr_neg[c]) == tr.label


def test_multisource_adaptive_trace_invariants():
    gen = RandomSource(35).generator()
    sources = tuple(
        SampleSet(gen.random((n, 2)), gen.integers(0, 2, n)) for n in (20, 15, 25)
    )
    q = SampleSet(gen.random((30, 2)), gen.integers(0, 2, 30))
    mds = TransferDataset(sources, q)
    x = gen.random(2)
    label, tr = adaptive_predict(mds, x)
    n = 90
    assert tr.k_counts.shape == (4, n)
    np.testing.assert_array_equal(tr.k_counts.sum(axis=0), np.arange(1, n + 1))
    np.testing.assert_array_equal(tr.snr, np.maximum(tr.snr_pos, tr.snr_neg))
    c = tr.chosen_step - 1
    assert label == int(tr.snr_pos[c] >= tr.snr_neg[c]) == tr.label
    if tr.stop_step is not None:
        exceed = tr.snr > tr.threshold
        assert exceed[tr.stop_step - 1] and not exceed[: tr.stop_step - 1].any()
    # side sums recompute from the per-group rows
    terms = tr.k_counts * (tr.etas - 0.5) ** 2
    above = tr.etas >= 0.5
    np.testing.assert_allclose(tr.snr_pos, np.where(above, terms, 0.0).sum(axis=0))
    np.testing.assert_allclose(tr.snr_neg, np.where(above, 0.0, terms).sum(axis=0))


def reference_adaptive(ds, x):
    """Alg. 3's scan written out step by step over all n steps, with plain floats.

    Returns (label, stop_step, chosen_step, [k_counts, etas, snr_pos, snr_neg,
    snr]). Each step's sums add the groups in order, Q first, as the library
    does, so the values are comparable bit for bit. Distances on a dyadic
    lattice are exact, so sorting by (distance, group, index) is the
    canonical order.
    """
    groups = [ds.q_data, *ds.sources]
    rows = sorted((math.dist(s.points[i], x), g, i)
                  for g, s in enumerate(groups) for i in range(len(s)))
    k, sums, cols = [0] * len(groups), [0] * len(groups), [[], [], [], [], []]
    for _, g, i in rows:
        k[g] += 1
        sums[g] += int(groups[g].labels[i])
        etas = [sums[h] / k[h] if k[h] else 0.5 for h in range(len(groups))]
        terms = [k[h] * (e - 0.5) * (e - 0.5) for h, e in enumerate(etas)]
        pos = sum(t for t, e in zip(terms, etas) if e >= 0.5)
        neg = sum(t for t, e in zip(terms, etas) if e < 0.5)
        for col, v in zip(cols, (list(k), etas, pos, neg, max(pos, neg))):
            col.append(v)
    k_counts, etas = np.array(cols[0]).T, np.array(cols[1]).T
    snr_pos, snr_neg, snr = (np.array(c, dtype=np.float64) for c in cols[2:])
    threshold = (ds.d + 3) * math.log(len(rows))
    over = [j for j, v in enumerate(snr) if v > threshold]
    c = over[0] if over else int(np.argmax(snr))
    if ds.m == 1:
        score = sum(math.sqrt(k_counts[h, c]) * (etas[h, c] - 0.5) for h in (1, 0))
        label = int(score >= 0)
    else:
        label = int(snr_pos[c] >= snr_neg[c])
    return label, (c + 1 if over else None), c + 1, [k_counts, etas, snr_pos, snr_neg, snr]


def lattice_transfer(gen, sizes, grid, p_one):
    """Sets on the 1/grid lattice of [0, 1]^2, labels 1 with probability p_one."""
    q, *sources = (make_set(gen.integers(0, grid + 1, (n, 2)) / grid,
                            (gen.random(n) < p_one).astype(np.int64)) for n in sizes)
    return TransferDataset(tuple(sources), q)


def test_adaptive_scan_matches_full_length_reference():
    # tie-heavy lattices, m = 1..3: scans that stop in the first block (the
    # first n // 4 steps), stop later, or never stop all give the reference's
    # label, steps and full-length arrays, equal to the last bit
    gen = RandomSource(61).generator()
    seen = set()
    for m in (1, 2, 3):
        for p_one, n_each, grid in ((1.0, 300, 4), (0.9, 60, 8), (0.8, 100, 16), (0.5, 40, 2)):
            for _ in range(3):
                ds = lattice_transfer(gen, [n_each] * (m + 1), grid, p_one)
                x = gen.integers(0, grid + 1, 2) / grid
                label, tr = adaptive_predict(ds, x)
                want_label, stop, chosen, arrays = reference_adaptive(ds, x)
                assert (label, tr.label, tr.stop_step, tr.chosen_step) == (
                    want_label, want_label, stop, chosen)
                got = [tr.k_counts, tr.etas, tr.snr_pos, tr.snr_neg, tr.snr]
                for g, w in zip(got, arrays):
                    assert g.shape == w.shape and np.array_equal(g, w)
                assert tr.k_counts.dtype == np.int64 and tr.etas.dtype == np.float64
                n = len(tr.steps)
                seen.add("none" if stop is None else "first" if stop <= n // 4 else "second")
    assert seen == {"first", "second", "none"}


def test_adaptive_scan_with_empty_groups_matches_the_reference_bit_for_bit():
    # The scan forms no eta, so a group that holds none of the k nearest points
    # (never, or not yet) has s = eta - 1/2 = -1/2 where the trace fills in eta = 1/2;
    # its term must still be +0.0 and leave every bit as the reference's. At m = 2
    # source 1 is empty and source 2 lies wholly beyond the target, so beyond the
    # n // 4-th distance; at m = 1 the one source does. The scans stop in the first
    # block, stop in the second, or never stop.
    gen = RandomSource(65).generator()
    x = np.zeros(2)
    seen = set()
    for n_q, n_far, p_q in ((300, 500, 1.0), (500, 300, 0.8), (300, 500, 0.5)):
        for m in (1, 2):
            q = make_set(gen.integers(0, 9, (n_q, 2)) / 32, (gen.random(n_q) < p_q).astype(int))
            far = make_set(0.75 + gen.integers(0, 9, (n_far, 2)) / 32, gen.integers(0, 2, n_far))
            ds = TransferDataset((far,) if m == 1 else (SampleSet.empty(2), far), q)
            label, tr = adaptive_predict(ds, x)
            want_label, stop, chosen, arrays = reference_adaptive(ds, x)
            assert (label, tr.label, tr.stop_step, tr.chosen_step) == (
                want_label, want_label, stop, chosen)
            np.testing.assert_array_equal(tr.steps, np.arange(1, n_q + n_far + 1))
            got = [tr.k_counts, tr.etas, tr.snr_pos, tr.snr_neg, tr.snr]
            for g, w in zip(got, arrays):
                assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes()
            assert tr.k_counts.dtype == np.int64 and not tr.k_counts[-1, : n_q].any()
            n = n_q + n_far
            seen.add("none" if stop is None else "first" if stop <= n // 4 else "second")
    assert seen == {"first", "second", "none"}


def test_never_stopping_scan_stays_within_its_buffers():
    # Each block allocates its four (m+1, steps) float64 buffers at once, and the
    # scan frees the first block before the second runs: a never-stopping scan at
    # n = 7000, m = 1, over an order already sorted, peaks under eight (2, 5250)
    # float64 arrays of traced memory (about 465 KiB; ten separate temporaries per
    # block reach about 800 KiB).
    ds = sample_dataset(DriftModel(0.55), 2000, 5000, RandomSource(66))
    mo = neighbors.merged_order([ds.q_data, *ds.sources], np.array([0.5, 0.5]))
    mo.group, mo.labels  # sort the whole order before measuring
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _, tr = _adaptive_scan(mo, ds.d)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert tr.stop_step is None and len(tr.order) == 7000
    assert peak <= 8 * (2 * 5250 * 8)


def test_adaptive_scan_stops_computing_at_its_stop(monkeypatch):
    calls = []
    block = classifiers._scan_block

    def spy(mo, lo, hi, *carry):
        calls.append((lo, hi))
        return block(mo, lo, hi, *carry)

    monkeypatch.setattr(classifiers, "_scan_block", spy)
    gen = RandomSource(62).generator()
    ds = lattice_transfer(gen, [500, 300], 8, 1.0)
    n = 800
    label, tr = adaptive_predict(ds, [0.5, 0.5])
    # all labels are 1, so snr(k) = k / 4 stops the scan at k = 134 < n // 4
    assert (label, tr.stop_step) == (1, 134)
    assert calls and all(hi <= n // 4 for _, hi in calls)
    before = len(calls)
    assert len(tr.snr) == n
    assert calls[before:] == [(0, n)]
    assert tr.snr[0] == 0.25 and tr.k_p[-1] == 300 and tr.etas.shape == (2, n)
    assert len(calls) == before + 1
    # a scan that never stops computes the rest of the order in one more block
    calls.clear()
    ds = lattice_transfer(gen, [40, 40], 2, 0.5)
    _, tr = adaptive_predict(ds, [0.5, 0.5])
    assert tr.stop_step is None and calls == [(0, 20), (20, 80)]


def test_adaptive_scan_sorts_only_the_head_it_reads(monkeypatch):
    # A scan that stops in its first block (the first n // 4 steps) sorts only
    # the points at or within the n // 4-th distance; one that stops later, or
    # never, then sorts the whole order once. Either way its label, steps and
    # trace arrays are those of the same scan over an eagerly built order.
    sorted_sizes = []
    argsort = neighbors._canonical_argsort
    monkeypatch.setattr(neighbors, "_canonical_argsort",
                        lambda dist: sorted_sizes.append(len(dist)) or argsort(dist))
    gen = RandomSource(64).generator()
    x = np.array([0.5, 0.5])
    for where, sizes, grid, p_one in (("first", [500, 300], 8, 1.0),
                                      ("second", [300, 200], 16, 0.8),
                                      ("none", [300, 200], 8, 0.7)):
        ds = lattice_transfer(gen, sizes, grid, p_one)
        sets = [ds.q_data, *ds.sources]
        sorted_sizes.clear()
        label, tr = adaptive_predict(ds, x)
        n = sum(sizes)
        stop = tr.stop_step
        assert where == ("none" if stop is None else "first" if stop <= n // 4 else "second")
        dist = np.sort(np.concatenate([neighbors._distances(s.points, x) for s in sets]))
        head = int((dist <= dist[n // 4 - 1]).sum())
        assert head < n and sorted_sizes == ([head] if where == "first" else [head, n])
        mo = neighbors.merged_order(sets, x)
        eager = neighbors.MergedOrder(mo.distances, mo.group, mo.within_index, mo.labels,
                                      mo.n_groups)
        want_label, want = _adaptive_scan(eager, ds.d)
        assert (label, tr.label, stop, tr.chosen_step) == (
            want_label, want_label, want.stop_step, want.chosen_step)
        for name in ("k_counts", "etas", "snr_pos", "snr_neg", "snr", "k_p", "eta_q", "steps"):
            got, exp = getattr(tr, name), getattr(want, name)
            assert got.dtype == exp.dtype and np.array_equal(got, exp), name


def test_adaptive_argmax_tie_across_blocks_keeps_the_first():
    # D = 2 S(k) - k walks so that snr(k) = D^2 / (4k) is exactly 1/4 at k = 1,
    # 4 and 16 and lower elsewhere: no stop, and the tie at k = 16, past the
    # first block's 40 // 4 steps, does not displace the first argmax
    walk = [1, 0, 1, 2, 1, 2, 1, 2, 1, 2, 3, 2, 3, 2, 3, 4] + [3, 2] * 12
    labels = [1] + [int(b > a) for a, b in zip(walk, walk[1:])]
    q = make_set([[i / 64, 0.0] for i in range(40)], labels)
    _, tr = adaptive_predict(TransferDataset((SampleSet.empty(2),), q), [0.0, 0.0])
    assert tr.stop_step is None
    assert tr.snr.max() == tr.snr[0] == tr.snr[3] == tr.snr[15] == 0.25
    assert tr.chosen_step == 1


def test_adaptive_trace_is_frozen_and_hashes_by_identity():
    ds = lattice_transfer(RandomSource(63).generator(), [30, 20], 4, 0.7)
    _, tr = adaptive_predict(ds, [0.5, 0.5])
    _, other = adaptive_predict(ds, [0.5, 0.5])
    for name in ("label", "stop_step", "snr", "k_counts"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tr, name, None)
    assert len(tr.snr) == 50  # a read caches the arrays but leaves the hash as it was
    assert hash(tr) == object.__hash__(tr) and hash(other) == object.__hash__(other)
    assert tr != other and len({tr, other, tr}) == 2


# ---------------------------------------------------------------- lepski


def test_lepski_all_ones_frozen_stops():
    gen = RandomSource(41).generator()
    s = SampleSet(gen.random((2000, 1)), np.ones(2000, dtype=np.int64))
    # eta is 1 at every k, so the stop is the first k with width < 1/2
    label, tr = lepski_predict(s, [0.5], width="algorithm3")
    assert label == 1
    assert tr.stop_step == 925
    label5, tr5 = lepski_predict(s, [0.5], width="lemma5")
    assert label5 == 1
    assert tr5.stop_step == 122


def test_lepski_single_sample():
    s = make_set([[0.0]], [0])
    # log(1) = 0 widths collapse the interval; it splits immediately
    label, tr = lepski_predict(s, [0.3])
    assert label == 0
    assert tr.stop_step == 1
    assert lepski_predict(make_set([[0.0]], [1]), [0.3])[0] == 1


def test_lepski_returns_label_and_trace():
    s = make_set([[0.0], [1.0]], [1, 1])
    label, tr = lepski_predict(s, [0.0])
    assert type(label) is int and label == 1
    assert isinstance(tr, LepskiTrace) and tr.label == label


def test_lepski_trace_invariants():
    gen = RandomSource(43).generator()
    s = SampleSet(gen.random((200, 2)), gen.integers(0, 2, 200))
    x = gen.random(2)
    for width in LEPSKI_WIDTHS:
        label, tr = lepski_predict(s, x, width=width)
        k = np.arange(1, 201, dtype=float)
        np.testing.assert_allclose(tr.width, LEPSKI_WIDTHS[width](200, 2, k))
        np.testing.assert_array_equal(tr.lower, np.maximum.accumulate(tr.eta - tr.width))
        np.testing.assert_array_equal(tr.upper, np.minimum.accumulate(tr.eta + tr.width))
        split = (tr.lower > 0.5) | (tr.upper < 0.5)
        if tr.stop_step is None:
            assert not split.any()
            assert label == int(tr.eta[-1] >= 0.5)
        else:
            i = tr.stop_step - 1
            assert split[i] and not split[:i].any()
            assert label == int(tr.eta[i] >= 0.5)


def lepski_reference(labels, d, width):
    """The scan as the running intersection: max/min accumulates of the interval
    ends, stopping at the first k where they lie strictly on one side of 1/2."""
    n = len(labels)
    k = np.arange(1, n + 1, dtype=np.float64)
    eta = np.cumsum(labels) / k
    w = LEPSKI_WIDTHS[width](n, d, k)
    lower = np.maximum.accumulate(eta - w)
    upper = np.minimum.accumulate(eta + w)
    split = (lower > 0.5) | (upper < 0.5)
    stop = int(np.argmax(split)) if split.any() else None
    label = int(eta[-1 if stop is None else stop] >= 0.5)
    return label, eta, w, lower, upper, None if stop is None else stop + 1


# 0/1 label sequences built from runs, so eta settles on one side for long
# stretches and the intervals separate at all depths
label_runs = st.lists(st.tuples(st.integers(0, 1), st.integers(1, 120)), min_size=1, max_size=12)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(runs=label_runs, n=st.integers(1, 400), d=st.integers(1, 6),
       width=st.sampled_from(sorted(LEPSKI_WIDTHS)))
def test_lepski_scan_matches_the_running_intersection(runs, n, d, width):
    labels = np.concatenate([np.full(r, v, dtype=np.int64) for v, r in runs])
    labels = np.resize(labels, n)
    label, eta, w, lower, upper, stop = lepski_reference(labels, d, width)
    got, tr = _lepski_scan(labels, d, width)
    assert (got, tr.label, tr.stop_step) == (label, label, stop)
    for a, b in ((tr.eta, eta), (tr.width, w), (tr.lower, lower), (tr.upper, upper)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the widths come from one read-only table per (n, d, width)
    assert not tr.width.flags.writeable
    assert _lepski_scan(labels[::-1].copy(), d, width)[1].width is tr.width


def test_lepski_width_conventions_differ():
    k = np.arange(1.0, 11.0)
    w3 = LEPSKI_WIDTHS["algorithm3"](100, 2, k)
    w5 = LEPSKI_WIDTHS["lemma5"](100, 2, k)
    np.testing.assert_allclose(w3, np.sqrt(5.0 / k) * math.log(100))
    np.testing.assert_allclose(w5, np.sqrt(5.0 * math.log(100) / k))
    assert (w3 > w5).all()  # log(100) > 1 makes the scan widths wider


def test_lepski_validation():
    s = make_set([[0.0]], [1])
    with pytest.raises(ValueError, match="unknown width"):
        lepski_predict(s, [0.0], width="bogus")
    with pytest.raises(ValueError, match="empty"):
        lepski_predict(SampleSet.empty(1), [0.0])

