"""End-to-end acceptance gate for the transfer k-NN package.

Each test here checks one headline claim at reduced desk scale and prints a
single PASS/FAIL line with the measured numbers (visible even under output
capture). Every run is keyed to seed 7, so the suite is deterministic: the
replication counts below were sized so each comparison holds with a wide
margin against its Monte Carlo noise.
"""

import math

import numpy as np

from driftknn.core import HyperParams, KnnPlan, RandomSource, SampleSet, TransferDataset
from driftknn.classifiers import (
    adaptive_predict,
    combined_budget_k,
    default_knn_k,
    knn_predict,
    minimax_plan,
    weighted_knn_eta,
    weighted_knn_predict,
)
from driftknn.neighbors import NeighborIndex
from driftknn.simulation import (
    DriftModel,
    constant_classifier,
    excess_risk_mc,
    rate_exponent_check,
    run_accuracy_experiment,
    run_preset,
    sample_dataset,
    sample_multisource_dataset,
    summarize_accuracy,
)
from driftknn.io_cli import read_labeled_csv, write_labeled_csv

SEED = 7


def snr_index(k_p, eta_p, k_q, eta_q):
    """Reference two-sample scan statistic: agreeing sides add their
    evidence k (eta - 1/2)^2, opposite sides keep the stronger term."""
    sp, sq = eta_p - 0.5, eta_q - 0.5
    tp, tq = k_p * sp * sp, k_q * sq * sq
    return tp + tq if sp * sq >= 0 else max(tp, tq)


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {num} ({name}): {status}  [{detail}]")


def row(rows, method, **keys):
    for r in rows:
        if r.method == method and all(
                math.isclose(getattr(r, k), v, rel_tol=0, abs_tol=1e-9)
                for k, v in keys.items()):
            return r
    raise AssertionError(f"no summary row for {method} {keys}")


def pooled_se(a, b):
    return math.hypot(a.accuracy_se, b.accuracy_se)


def test_criterion_1_two_sample_beats_baselines(capsys):
    # n_P=2000, n_Q=5000, gamma=0.3, d=2, signal grid 0.505..0.55, 500 reps:
    # the weighted two-sample rule matches or beats both baselines at 0.53
    # and 0.55, with the 0.55 gap exceeding twice the pooled standard error
    rows = summarize_accuracy(run_preset("fig4a", seed=SEED, reps=500))
    parts = []
    ok = True
    for pm in (0.53, 0.55):
        w = row(rows, "weighted", p_max=pm)
        c = row(rows, "combined", p_max=pm)
        q = row(rows, "qonly", p_max=pm)
        ok &= w.accuracy_mean >= c.accuracy_mean
        ok &= w.accuracy_mean >= q.accuracy_mean
        if pm == 0.55:
            ok &= w.accuracy_mean - c.accuracy_mean > 2 * pooled_se(w, c)
            ok &= w.accuracy_mean - q.accuracy_mean > 2 * pooled_se(w, q)
        parts.append(f"p={pm:g}: weighted={w.accuracy_mean:.4f} "
                     f"combined={c.accuracy_mean:.4f} qonly={q.accuracy_mean:.4f} "
                     f"2se={2 * max(pooled_se(w, c), pooled_se(w, q)):.4f}")
    report(capsys, 1, "two-sample vs pooled and target-only k-NN", ok, " | ".join(parts))
    assert ok


def test_criterion_2_accuracy_grows_with_source_size(capsys):
    # p_max=0.53, n_Q=5000, n_P from 250 to 16000, 300 reps: more source
    # data must help by more than twice the pooled standard error
    rows = summarize_accuracy(
        run_preset("fig4b", seed=SEED, reps=300, methods=("weighted",)))
    lo = row(rows, "weighted", n_p=250)
    hi = row(rows, "weighted", n_p=16000)
    gap = hi.accuracy_mean - lo.accuracy_mean
    bar = 2 * pooled_se(lo, hi)
    ok = gap > bar
    report(capsys, 2, "accuracy increases in n_P", ok,
           f"acc(250)={lo.accuracy_mean:.4f} acc(16000)={hi.accuracy_mean:.4f} "
           f"gap={gap:.4f} > 2se={bar:.4f}")
    assert ok


def test_criterion_3_adaptive_beats_lepski(capsys):
    # p_max=0.55, n_P=2000, n_Q=5000, 500 reps: the adaptive rule beats the
    # interval-intersection baseline on pooled data and on target-only data.
    # At this signal the scan never clears its threshold, so the label comes
    # from its argmax fallback (the step of largest statistic), not a stop.
    rows = summarize_accuracy(
        run_preset("fig5a", seed=SEED, reps=500, p_max_values=(0.55,)))
    a = row(rows, "adaptive", p_max=0.55)
    lc = row(rows, "lepski-combined", p_max=0.55)
    lq = row(rows, "lepski-q", p_max=0.55)
    gap_c = a.accuracy_mean - lc.accuracy_mean
    gap_q = a.accuracy_mean - lq.accuracy_mean
    ok = gap_c > 2 * pooled_se(a, lc) and gap_q > 2 * pooled_se(a, lq)
    report(capsys, 3, "adaptive vs Lepski baselines", ok,
           f"adaptive={a.accuracy_mean:.4f} lepski-combined={lc.accuracy_mean:.4f} "
           f"lepski-q={lq.accuracy_mean:.4f} gaps={gap_c:.4f}/{gap_q:.4f} "
           f"2se={2 * pooled_se(a, lc):.4f}/{2 * pooled_se(a, lq):.4f}")
    assert ok


def test_criterion_4_rate_exponent(capsys):
    # target-only sweep 500..16000 under the cone model (beta=1, d=2 and
    # margin exponent alpha=1, target slope -0.5): the fitted log-log slope
    # of the excess risk sits in the band [-0.40, -0.10]. The band stops
    # short of -0.5 because at signal level 0.60 these sizes are still
    # pre-asymptotic. 0.60 keeps the finite-size curve in its converging
    # regime (at 0.55 the neighborhoods out-span the signal ball at these
    # sizes and the curve is flat).
    hp = HyperParams(beta=1.0, gamma=0.3, d=2)
    result = rate_exponent_check(
        hp, (500, 1000, 2000, 4000, 8000, 16000), reps=24,
        rng=RandomSource(SEED), sweep="q", p_max=0.60, n_mc=100_000)
    ok = -0.40 <= result.slope <= -0.10
    report(capsys, 4, "excess-risk convergence slope", ok,
           f"slope={result.slope:+.4f} target={result.target_slope:+.2f} "
           f"band=[-0.40, -0.10] ci=[{result.ci_low:+.4f}, {result.ci_high:+.4f}]")
    assert ok


def test_criterion_5_excess_risk_oracle(capsys):
    # the always-0 classifier under p_max=0.55, d=2 has closed-form excess
    # risk (2 pi / 3) * 0.05^3; the MC estimator must land within 3 of its
    # own standard errors at ten million draws
    truth = 2 * math.pi / 3 * 0.05 ** 3
    assert math.isclose(truth, 2.6179938779914946e-4, rel_tol=1e-15)
    model = DriftModel(0.55, 0.3, 2)
    est = excess_risk_mc(constant_classifier(0), model, 10_000_000,
                         RandomSource(SEED).substream(9))
    dev = abs(est.value - truth)
    ok = dev <= 3 * est.std_error
    report(capsys, 5, "constant-0 excess risk vs closed form", ok,
           f"mc={est.value:.6e} truth={truth:.6e} |dev|={dev:.2e} "
           f"3se={3 * est.std_error:.2e}")
    assert ok


def _check_brute_force(rng):
    gen = rng.generator()
    for _ in range(200):
        n = int(gen.integers(1, 2001))
        d = int(gen.integers(1, 6))
        pts = gen.random((n, d))
        labels = gen.integers(0, 2, n)
        x = gen.random(d).tolist()
        k = int(gen.integers(1, n + 1))
        _, nbrs = NeighborIndex(SampleSet(pts, labels)).query(x, k)
        keyed = sorted((math.dist(p, x), i) for i, p in enumerate(pts.tolist()))
        if nbrs.tolist() != [i for _, i in keyed[:k]]:
            return False
    return True


def _check_adaptive_invariants(rng):
    gen = rng.generator()
    for _ in range(25):
        n_p = int(gen.integers(0, 120))
        n_q = int(gen.integers(0, 120))
        if n_p + n_q == 0:
            continue
        ds = TransferDataset(
            (SampleSet(gen.random((n_p, 2)), gen.integers(0, 2, n_p)),),
            SampleSet(gen.random((n_q, 2)), gen.integers(0, 2, n_q)))
        label, tr = adaptive_predict(ds, gen.random(2))
        n = n_p + n_q
        if not np.array_equal(tr.k_p + tr.k_q, np.arange(1, n + 1)):
            return False
        if not math.isclose(tr.threshold, 5 * math.log(n), rel_tol=1e-12):
            return False
        exceed = tr.snr > tr.threshold
        if tr.stop_step is None:
            if exceed.any() or tr.chosen_step != int(np.argmax(tr.snr)) + 1:
                return False
        else:
            if (not exceed[tr.stop_step - 1] or exceed[: tr.stop_step - 1].any()
                    or tr.chosen_step != tr.stop_step):
                return False
        for i in range(n):
            want = snr_index(int(tr.k_p[i]), float(tr.eta_p[i]),
                             int(tr.k_q[i]), float(tr.eta_q[i]))
            if not math.isclose(tr.snr[i], want, rel_tol=1e-9, abs_tol=1e-12):
                return False
        c = tr.chosen_step - 1
        score = (math.sqrt(tr.k_p[c]) * (tr.eta_p[c] - 0.5)
                 + math.sqrt(tr.k_q[c]) * (tr.eta_q[c] - 0.5))
        if label != int(score >= 0):
            return False
    return True


def _check_reductions(rng):
    hp = HyperParams(beta=1.0, gamma=0.3, d=2)
    gen = rng.generator()
    model = DriftModel(0.55, 0.3, 2)
    # n_P = 0: the weighted rule degenerates to plain target-only k-NN,
    # and the pooled baseline's budget matches the single-sample rule
    ds0 = sample_dataset(model, 0, 400, rng.substream(0))
    plan0 = minimax_plan((0,), 400, hp)
    if combined_budget_k((0,), 400, hp) != default_knn_k(400, hp):
        return False
    for _ in range(20):
        x = gen.random(2)
        if weighted_knn_predict(ds0, plan0, x) != knn_predict(ds0.q_data, plan0.k_q, x):
            return False
    # an empty second source changes nothing: the plan keeps the one-source
    # counts and weights, and the vote and scan statistic their floats
    ds1 = sample_dataset(model, 150, 200, rng.substream(1))
    ds2 = TransferDataset((*ds1.sources, SampleSet.empty(2)), ds1.q_data)
    plan1 = minimax_plan(ds1.source_sizes, 200, hp)
    plan2 = minimax_plan(ds2.source_sizes, 200, hp)
    if (plan2.k_sources != (*plan1.k_sources, 0) or plan2.k_q != plan1.k_q
            or plan2.w_sources[0] != plan1.w_sources[0] or plan2.w_q != plan1.w_q):
        return False
    for _ in range(20):
        x = gen.random(2)
        if weighted_knn_eta(ds2, plan2, x) != weighted_knn_eta(ds1, plan1, x):
            return False
        if not np.array_equal(adaptive_predict(ds2, x)[1].snr, adaptive_predict(ds1, x)[1].snr):
            return False
    return True


def _check_rescaling(rng):
    hp = HyperParams(beta=1.0, gamma=0.3, d=2)
    model = DriftModel(0.55, 0.3, 2)
    ds = sample_dataset(model, 200, 300, rng.substream(0))
    plan = minimax_plan((200,), 300, hp)
    gen = rng.generator()
    for _ in range(20):
        x = gen.random(2)
        base = weighted_knn_eta(ds, plan, x)
        for c in (1e-3, 7.0, 1e4):
            scaled = KnnPlan(plan.k_sources, [c * w for w in plan.w_sources], plan.k_q,
                             c * plan.w_q)
            if not math.isclose(weighted_knn_eta(ds, scaled, x), base,
                                rel_tol=1e-9, abs_tol=1e-12):
                return False
    return True


def _check_determinism():
    kwargs = dict(methods=("weighted", "qonly"), p_max_values=(0.55,),
                  n_p_values=(80,), n_q=100, reps=5, seed=SEED)
    a = run_accuracy_experiment("fig4a", **kwargs)
    b = run_accuracy_experiment("fig4a", **kwargs)
    if [r.accuracy for r in a] != [r.accuracy for r in b]:
        return False
    model = DriftModel(0.6, 0.3, 2)
    e1 = excess_risk_mc(constant_classifier(0), model, 20_000, RandomSource(SEED))
    e2 = excess_risk_mc(constant_classifier(0), model, 20_000, RandomSource(SEED))
    return e1.value == e2.value


def _check_csv_round_trips(rng, tmp_path):
    model = DriftModel(0.55, 0.3, 2)
    ds = sample_dataset(model, 40, 60, rng.substream(0))
    path = tmp_path / "transfer.csv"
    write_labeled_csv(path, ds)
    back = read_labeled_csv(path)
    if not (np.array_equal(back.sources[0].points, ds.sources[0].points)
            and np.array_equal(back.q_data.points, ds.q_data.points)
            and np.array_equal(back.sources[0].labels, ds.sources[0].labels)
            and np.array_equal(back.q_data.labels, ds.q_data.labels)):
        return False
    mds = sample_multisource_dataset(model, (15, 25), 30, rng.substream(1))
    mpath = tmp_path / "multi.csv"
    write_labeled_csv(mpath, mds)
    mback = read_labeled_csv(mpath)
    if not isinstance(mback, TransferDataset) or mback.m != 2:
        return False
    return all(
        np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)
        for a, b in zip((*mback.sources, mback.q_data), (*mds.sources, mds.q_data)))


def test_criterion_6_invariant_batteries(capsys, tmp_path):
    root = RandomSource(SEED).substream(100)
    checks = {
        "brute-force x200": _check_brute_force(root.substream(0)),
        "adaptive-trace": _check_adaptive_invariants(root.substream(1)),
        "reductions": _check_reductions(root.substream(2)),
        "weight-rescaling": _check_rescaling(root.substream(3)),
        "determinism": _check_determinism(),
        "csv-round-trip": _check_csv_round_trips(root.substream(4), tmp_path),
    }
    ok = all(checks.values())
    detail = ", ".join(f"{name}={'ok' if v else 'FAIL'}" for name, v in checks.items())
    report(capsys, 6, "invariant batteries", ok, detail)
    assert ok


def test_criterion_7_merged_sources_match_single(capsys):
    # two gamma=0.3 sources of 1000 points each vs the same 2000 points
    # treated as one source: identical exponents make the plans agree, so
    # the two classifiers' accuracies must sit within 2 pooled SEs
    model = DriftModel(0.55, 0.3, 2)
    hp2 = HyperParams(beta=1.0, gamma=(0.3, 0.3), d=2)
    hp1 = HyperParams(beta=1.0, gamma=0.3, d=2)
    plan2 = minimax_plan((1000, 1000), 5000, hp2)
    plan1 = minimax_plan((2000,), 5000, hp1)
    root = RandomSource(SEED).substream(8)
    reps = 300
    acc_multi = np.empty(reps)
    acc_single = np.empty(reps)
    for rep in range(reps):
        rs = root.substream(rep)
        mds = sample_multisource_dataset(model, (1000, 1000), 5000, rs.substream(0))
        x = model.sample_test_points(1, rs.substream(1))[0]
        truth = model.bayes(x)
        merged = SampleSet(np.concatenate([s.points for s in mds.sources]),
                           np.concatenate([s.labels for s in mds.sources]))
        acc_multi[rep] = weighted_knn_predict(mds, plan2, x) == truth
        acc_single[rep] = weighted_knn_predict(TransferDataset((merged,), mds.q_data),
                                               plan1, x) == truth
    m2, m1 = acc_multi.mean(), acc_single.mean()
    se = math.hypot(acc_multi.std(ddof=1), acc_single.std(ddof=1)) / math.sqrt(reps)
    ok = abs(m2 - m1) <= 2 * se
    report(capsys, 7, "two equal-gamma sources vs merged source", ok,
           f"multi={m2:.4f} merged-single={m1:.4f} |diff|={abs(m2 - m1):.4f} "
           f"2se={2 * se:.4f}")
    assert ok
