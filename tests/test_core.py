"""Container, hyper-parameter, and random-stream contracts."""

import numpy as np
import pytest

from driftknn.core import (
    SUBSTREAM_CAP,
    HyperParams,
    KnnPlan,
    LabeledSample,
    MultiKnnPlan,
    MultiSourceDataset,
    RandomSource,
    SampleSet,
    TransferDataset,
    merge_sources,
    pooled_sample_set,
)


def make_set(points, labels):
    return SampleSet(np.asarray(points, dtype=float), np.asarray(labels))


# ---------------------------------------------------------------- samples


def test_labeled_sample_basics():
    s = LabeledSample([0.5, 1.5], 1)
    assert s.d == 2
    assert s.y == 1
    assert s.x.dtype == np.float64


def test_labeled_sample_rejects_bad_shapes():
    with pytest.raises(ValueError, match="nonempty 1-d"):
        LabeledSample([], 0)
    with pytest.raises(ValueError, match="nonempty 1-d"):
        LabeledSample([[1.0, 2.0]], 0)


def test_labeled_sample_rejects_nonfinite():
    with pytest.raises(ValueError, match="position 1"):
        LabeledSample([0.0, np.nan, 1.0], 0)
    with pytest.raises(ValueError, match="position 0"):
        LabeledSample([np.inf], 1)


def test_labeled_sample_rejects_bad_label():
    for y in (-1, 2, 0.5):
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            LabeledSample([0.0], y)


def test_labeled_sample_is_readonly():
    s = LabeledSample([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        s.x[0] = 9.0


def test_sample_set_basics():
    s = make_set([[0, 0], [1, 1], [2, 2]], [0, 1, 0])
    assert len(s) == 3
    assert s.d == 2
    assert s.labels.tolist() == [0, 1, 0]
    samples = s.samples
    assert len(samples) == 3
    assert samples[1].y == 1
    np.testing.assert_array_equal(samples[2].x, [2.0, 2.0])


def test_sample_set_points_readonly():
    s = make_set([[0.0], [1.0]], [0, 1])
    with pytest.raises(ValueError):
        s.points[0, 0] = 5.0
    with pytest.raises(ValueError):
        s.labels[0] = 1


def test_sample_set_copies_input():
    pts = np.array([[1.0], [2.0]])
    s = SampleSet(pts, np.array([0, 1]))
    pts[0, 0] = 99.0
    assert s.points[0, 0] == 1.0


def test_sample_set_length_mismatch():
    with pytest.raises(ValueError, match="3 points but 2 labels"):
        make_set([[0], [1], [2]], [0, 1])


def test_sample_set_error_cites_offending_index():
    with pytest.raises(ValueError, match="sample 1: non-finite"):
        make_set([[0.0], [np.nan], [2.0]], [0, 0, 0])
    with pytest.raises(ValueError, match="sample 2: label must be 0 or 1, got 7"):
        make_set([[0.0], [1.0], [2.0]], [0, 1, 7])


def test_sample_set_from_samples():
    samples = [LabeledSample([0.0, 1.0], 1), LabeledSample([2.0, 3.0], 0)]
    s = SampleSet.from_samples(samples)
    assert len(s) == 2
    np.testing.assert_array_equal(s.points, [[0.0, 1.0], [2.0, 3.0]])
    assert s.labels.tolist() == [1, 0]


def test_sample_set_from_samples_dimension_mismatch():
    samples = [LabeledSample([0.0], 0), LabeledSample([0.0, 1.0], 0)]
    with pytest.raises(ValueError, match="sample 1: dimension 2 != 1"):
        SampleSet.from_samples(samples)


def test_empty_sample_set():
    s = SampleSet.empty(3)
    assert len(s) == 0
    assert s.d == 3
    with pytest.raises(ValueError, match="d is required"):
        SampleSet.from_samples([])
    with pytest.raises(ValueError, match="d must be >= 1"):
        SampleSet.empty(0)
    assert len(SampleSet.from_samples([], d=2)) == 0


# ---------------------------------------------------------------- datasets


def test_transfer_dataset_sizes():
    p = make_set([[0, 0]], [1])
    q = make_set([[1, 1], [2, 2]], [0, 1])
    ds = TransferDataset(p, q)
    assert (ds.n_p, ds.n_q, ds.d) == (1, 2, 2)


def test_transfer_dataset_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        TransferDataset(make_set([[0, 0]], [1]), make_set([[1]], [0]))


def test_pooled_order_is_p_then_q():
    p = make_set([[10.0], [11.0]], [1, 1])
    q = make_set([[20.0]], [0])
    pooled = pooled_sample_set(TransferDataset(p, q))
    assert pooled.points[:, 0].tolist() == [10.0, 11.0, 20.0]
    assert pooled.labels.tolist() == [1, 1, 0]


def test_pooled_degenerate_sides():
    q = make_set([[1.0]], [0])
    ds = TransferDataset(SampleSet.empty(1), q)
    assert pooled_sample_set(ds) is q
    ds = TransferDataset(q, SampleSet.empty(1))
    assert pooled_sample_set(ds) is q


def test_multi_source_dataset():
    s1 = make_set([[0.0]], [0])
    s2 = make_set([[1.0], [2.0]], [1, 1])
    q = make_set([[3.0]], [0])
    mds = MultiSourceDataset((s1, s2), q)
    assert mds.m == 2
    assert mds.source_sizes == (1, 2)
    assert mds.n_q == 1
    with pytest.raises(ValueError, match="at least one source"):
        MultiSourceDataset((), q)
    with pytest.raises(ValueError, match="source 1"):
        MultiSourceDataset((s1, make_set([[0, 0]], [1])), q)


def test_merge_sources_preserves_order():
    s1 = make_set([[1.0]], [1])
    s2 = make_set([[2.0], [3.0]], [0, 1])
    q = make_set([[9.0]], [0])
    merged = merge_sources(MultiSourceDataset((s1, s2), q))
    assert merged.p_data.points[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert merged.p_data.labels.tolist() == [1, 0, 1]
    assert merged.q_data is q


def test_merge_sources_all_empty():
    q = make_set([[0.0, 0.0]], [1])
    mds = MultiSourceDataset((SampleSet.empty(2), SampleSet.empty(2)), q)
    merged = merge_sources(mds)
    assert merged.n_p == 0
    assert merged.d == 2


# ---------------------------------------------------------------- parameters


def test_hyperparams_defaults_and_coercion():
    hp = HyperParams(alpha=0, beta=1, gamma=0.3, d=2)
    assert isinstance(hp.alpha, float)
    assert isinstance(hp.gamma, float)
    assert hp.scalar_gamma() == 0.3


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="alpha"):
        HyperParams(alpha=-0.1, beta=1.0, gamma=0.3, d=2)
    with pytest.raises(ValueError, match="beta"):
        HyperParams(alpha=0.0, beta=0.0, gamma=0.3, d=2)
    with pytest.raises(ValueError, match="beta"):
        HyperParams(alpha=0.0, beta=1.2, gamma=0.3, d=2)
    with pytest.raises(ValueError, match="gamma"):
        HyperParams(alpha=0.0, beta=1.0, gamma=0.0, d=2)
    with pytest.raises(ValueError, match="d must be"):
        HyperParams(alpha=0.0, beta=1.0, gamma=0.3, d=0)
    with pytest.raises(ValueError, match="alpha \\* beta"):
        HyperParams(alpha=3.0, beta=1.0, gamma=0.3, d=2)


def test_hyperparams_gamma_vector():
    hp = HyperParams(alpha=0.0, beta=1.0, gamma=(0.2, 0.5), d=2)
    assert hp.gamma == (0.2, 0.5)
    assert hp.gamma_vector(2) == (0.2, 0.5)
    with pytest.raises(ValueError, match="scalar gamma"):
        hp.scalar_gamma()
    with pytest.raises(ValueError, match="2 entries, need 3"):
        hp.gamma_vector(3)
    with pytest.raises(ValueError, match="gamma\\[1\\]"):
        HyperParams(alpha=0.0, beta=1.0, gamma=(0.2, -0.5), d=2)
    with pytest.raises(ValueError, match="nonempty"):
        HyperParams(alpha=0.0, beta=1.0, gamma=(), d=2)
    # a length-1 vector still answers scalar_gamma
    hp1 = HyperParams(alpha=0.0, beta=1.0, gamma=(0.7,), d=2)
    assert hp1.scalar_gamma() == 0.7
    assert hp1.gamma_vector(1) == (0.7,)


def test_hyperparams_scalar_broadcast():
    hp = HyperParams(alpha=0.0, beta=1.0, gamma=0.4, d=2)
    assert hp.gamma_vector(3) == (0.4, 0.4, 0.4)


def test_knn_plan_validation():
    plan = KnnPlan(2, 3, 0.5, 1.5)
    assert (plan.k_p, plan.k_q) == (2, 3)
    with pytest.raises(ValueError):
        KnnPlan(-1, 1, 0.5, 0.5)
    with pytest.raises(ValueError):
        KnnPlan(1, 1, -0.5, 0.5)


def test_multi_knn_plan_to_single():
    plan = MultiKnnPlan((4,), (0.25,), 9, 0.75)
    single = plan.to_single()
    assert (single.k_p, single.k_q, single.w_p, single.w_q) == (4, 9, 0.25, 0.75)
    plan2 = MultiKnnPlan((1, 2), (0.1, 0.2), 3, 0.3)
    assert plan2.m == 2
    with pytest.raises(ValueError, match="expected 1"):
        plan2.to_single()
    with pytest.raises(ValueError, match="counts but"):
        MultiKnnPlan((1, 2), (0.1,), 3, 0.3)
    with pytest.raises(ValueError, match="at least one source"):
        MultiKnnPlan((), (), 3, 0.3)


# ---------------------------------------------------------------- randomness


def test_random_source_is_deterministic():
    a = RandomSource(42).generator().random(8)
    b = RandomSource(42).generator().random(8)
    np.testing.assert_array_equal(a, b)


def test_random_source_streams_differ():
    base = RandomSource(42)
    a = base.substream(0).generator().random(8)
    b = base.substream(1).generator().random(8)
    assert not np.array_equal(a, b)
    c = RandomSource(43).generator().random(8)
    assert not np.array_equal(a, c)


def test_substream_arithmetic():
    rs = RandomSource(7, stream=3)
    child = rs.substream(5)
    assert child.seed == 7
    assert child.stream == 3 * SUBSTREAM_CAP + 6
    grand = child.substream(0)
    assert grand.stream == child.stream * SUBSTREAM_CAP + 1


def test_substream_never_collides_with_parent():
    # child streams are always >= 1, so the root stream 0 is never reused
    rs = RandomSource(1)
    assert rs.substream(0).stream == 1
    streams = {rs.substream(i).stream for i in range(100)}
    assert len(streams) == 100
    assert 0 not in streams


def test_substream_range_checked():
    rs = RandomSource(0)
    with pytest.raises(ValueError, match="out of range"):
        rs.substream(-1)
    with pytest.raises(ValueError, match="out of range"):
        rs.substream(SUBSTREAM_CAP - 1)
    rs.substream(SUBSTREAM_CAP - 2)  # last valid index


def test_random_source_rejects_negative_keys():
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(0, stream=-2)
