"""Container, hyper-parameter, and random-stream contracts."""

import numpy as np
import pytest

from driftknn.core import (
    SUBSTREAM_CAP,
    HyperParams,
    KnnPlan,
    RandomSource,
    SampleSet,
    TransferDataset,
    pooled_sample_set,
)


def make_set(points, labels):
    return SampleSet(np.asarray(points, dtype=float), np.asarray(labels))


# ---------------------------------------------------------------- samples


def test_sample_set_basics():
    s = make_set([[0, 0], [1, 1], [2, 2]], [0, 1, 0])
    assert len(s) == 3
    assert s.d == 2
    assert s.labels.tolist() == [0, 1, 0]
    np.testing.assert_array_equal(s.points[2], [2.0, 2.0])


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


def test_empty_sample_set():
    s = SampleSet.empty(3)
    assert len(s) == 0
    assert s.d == 3
    with pytest.raises(ValueError, match="d must be >= 1"):
        SampleSet.empty(0)


# ---------------------------------------------------------------- datasets


def test_transfer_dataset_sizes():
    p = make_set([[0, 0]], [1])
    q = make_set([[1, 1], [2, 2]], [0, 1])
    ds = TransferDataset((p,), q)
    assert (ds.m, ds.n_p, ds.n_q, ds.d) == (1, 1, 2, 2)
    assert ds.source_sizes == (1,)
    assert ds.sources[0] is p


def test_transfer_dataset_dimension_mismatch():
    with pytest.raises(ValueError, match="^source 1: dimension mismatch"):
        TransferDataset((make_set([[0, 0]], [1]),), make_set([[1]], [0]))


def test_transfer_dataset_rejects_bad_sources():
    p = make_set([[0.0, 0.0], [1.0, 1.0]], [1, 0])
    q = make_set([[2.0, 2.0]], [0])
    # a bare SampleSet is not read as a sequence of rows
    with pytest.raises(TypeError, match="sequence of SampleSets"):
        TransferDataset(p, q)
    with pytest.raises(ValueError, match="at least one source"):
        TransferDataset((), q)
    # sources are numbered 1-based, as the P1..Pm tags
    with pytest.raises(ValueError, match="^source 3: dimension mismatch, d=1 against target d=2$"):
        TransferDataset((p, p, make_set([[0.0]], [1])), q)


def test_pooled_order_is_p_then_q():
    p = make_set([[10.0], [11.0]], [1, 1])
    q = make_set([[20.0]], [0])
    pooled = pooled_sample_set(TransferDataset((p,), q))
    assert pooled.points[:, 0].tolist() == [10.0, 11.0, 20.0]
    assert pooled.labels.tolist() == [1, 1, 0]


def test_pooled_degenerate_sides():
    q = make_set([[1.0]], [0])
    ds = TransferDataset((SampleSet.empty(1),), q)
    assert pooled_sample_set(ds) is q
    ds = TransferDataset((q,), SampleSet.empty(1))
    assert pooled_sample_set(ds) is q


def test_multi_source_dataset():
    s1 = make_set([[0.0]], [0])
    s2 = make_set([[1.0], [2.0]], [1, 1])
    q = make_set([[3.0]], [0])
    mds = TransferDataset([s1, s2], q)
    assert mds.sources == (s1, s2)
    assert mds.m == 2
    assert mds.source_sizes == (1, 2)
    assert (mds.n_p, mds.n_q) == (3, 1)
    with pytest.raises(ValueError, match="at least one source"):
        TransferDataset((), q)
    with pytest.raises(ValueError, match="^source 2: dimension mismatch"):
        TransferDataset((s1, make_set([[0, 0]], [1])), q)


def test_merge_sources_preserves_order():
    # the pooled set of m = 2 sources: S1 rows, S2 rows, then Q rows
    s1 = make_set([[1.0]], [1])
    s2 = make_set([[2.0], [3.0]], [0, 1])
    q = make_set([[9.0]], [0])
    pooled = pooled_sample_set(TransferDataset((s1, s2), q))
    assert pooled.points[:, 0].tolist() == [1.0, 2.0, 3.0, 9.0]
    assert pooled.labels.tolist() == [1, 0, 1, 0]


def test_merge_sources_all_empty():
    q = make_set([[0.0, 0.0]], [1])
    ds = TransferDataset((SampleSet.empty(2), SampleSet.empty(2)), q)
    assert ds.n_p == 0
    assert pooled_sample_set(ds) is q
    empty = pooled_sample_set(TransferDataset((SampleSet.empty(2),) * 2, SampleSet.empty(2)))
    assert (len(empty), empty.d) == (0, 2)


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
    plan = KnnPlan((2,), (0.5,), 3, 1.5)
    assert (plan.m, plan.k_sources, plan.k_q) == (1, (2,), 3)
    assert (plan.w_sources, plan.w_q) == ((0.5,), 1.5)
    plan2 = KnnPlan((1, 2), (0.1, 0.2), 3, 0.3)
    assert plan2.m == 2
    with pytest.raises(ValueError, match=">= 0"):
        KnnPlan((-1,), (0.5,), 1, 0.5)
    with pytest.raises(ValueError, match=">= 0"):
        KnnPlan((1,), (-0.5,), 1, 0.5)
    with pytest.raises(ValueError, match="counts but"):
        KnnPlan((1, 2), (0.1,), 3, 0.3)
    with pytest.raises(ValueError, match="at least one source"):
        KnnPlan((), (), 3, 0.3)


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
