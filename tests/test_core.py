"""Container, hyper-parameter, and random-stream contracts."""

import dataclasses

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


def test_sample_set_checks_labels_before_the_int_cast():
    # a fractional or NaN label is refused with its value, never truncated to 0
    for bad, shown in ((0.9, "0.9"), (0.5, "0.5"), (np.nan, "nan"), (-1.0, "-1.0")):
        with pytest.raises(ValueError, match=rf"^sample 1: label must be 0 or 1, got {shown}$"):
            make_set([[0.0], [1.0]], [1.0, bad])
    # bools and integral floats are 0/1 labels, stored as int64
    for labels in ([True, False], [1.0, 0.0], np.array([1, 0], dtype=np.uint8)):
        s = make_set([[0.0], [1.0]], labels)
        assert s.labels.dtype == np.int64 and s.labels.tolist() == [1, 0]
        assert not s.labels.flags.writeable


def test_empty_sample_set():
    s = SampleSet.empty(3)
    assert len(s) == 0
    assert s.d == 3
    with pytest.raises(ValueError, match=r"^d must be >= 1, got 0$"):
        SampleSet.empty(0)
    # an empty set still needs a dimension: no guessing d = 0 from empty input
    with pytest.raises(ValueError, match="2-d array"):
        SampleSet([], [])
    with pytest.raises(ValueError, match="at least one coordinate"):
        SampleSet(np.empty((0, 0)), [])


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
    hp = HyperParams(beta=1, gamma=0.3, d=2)
    assert isinstance(hp.beta, float)
    assert isinstance(hp.gamma, float)
    assert hp.scalar_gamma() == 0.3
    # a numpy scalar gamma is a scalar, as a numpy integer d is an integer
    for gamma in (np.float32(0.3), np.int64(1)):
        hp_np = HyperParams(beta=1, gamma=gamma, d=np.int64(2))
        assert (type(hp_np.gamma), hp_np.gamma, hp_np.d) == (float, float(gamma), 2)
    with pytest.raises(ValueError, match="^gamma must be > 0, got 0.0$"):
        HyperParams(beta=1, gamma=np.float64(0.0), d=2)
    # the fields are the classifier inputs only; a margin exponent is not one of them
    assert [f.name for f in dataclasses.fields(HyperParams)] == ["beta", "gamma", "d"]
    # the old 4-positional form (alpha first) is refused, never read as (beta, gamma, d)
    with pytest.raises(TypeError):
        HyperParams(0.0, 1.0, 0.3, 2)
    with pytest.raises(TypeError):
        HyperParams(alpha=0.0, beta=1.0, gamma=0.3, d=2)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="beta"):
        HyperParams(beta=0.0, gamma=0.3, d=2)
    with pytest.raises(ValueError, match="beta"):
        HyperParams(beta=1.2, gamma=0.3, d=2)
    with pytest.raises(ValueError, match="gamma"):
        HyperParams(beta=1.0, gamma=0.0, d=2)
    with pytest.raises(ValueError, match="d must be"):
        HyperParams(beta=1.0, gamma=0.3, d=0)


def test_hyperparams_gamma_vector():
    hp = HyperParams(beta=1.0, gamma=(0.2, 0.5), d=2)
    assert hp.gamma == (0.2, 0.5)
    assert hp.gamma_vector(2) == (0.2, 0.5)
    with pytest.raises(ValueError, match="scalar gamma"):
        hp.scalar_gamma()
    with pytest.raises(ValueError, match="2 entries, need 3"):
        hp.gamma_vector(3)
    with pytest.raises(ValueError, match="gamma\\[1\\]"):
        HyperParams(beta=1.0, gamma=(0.2, -0.5), d=2)
    with pytest.raises(ValueError, match="nonempty"):
        HyperParams(beta=1.0, gamma=(), d=2)
    # a length-1 vector still answers scalar_gamma
    hp1 = HyperParams(beta=1.0, gamma=(0.7,), d=2)
    assert hp1.scalar_gamma() == 0.7
    assert hp1.gamma_vector(1) == (0.7,)


def test_hyperparams_scalar_broadcast():
    hp = HyperParams(beta=1.0, gamma=0.4, d=2)
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
    # a NaN weight made the vote's estimate NaN, which the batch path read as label 0
    for w_sources, w_q in (((np.nan,), 1.0), ((1.0,), np.inf), ((np.inf,), 1.0),
                           ((1.0,), -np.inf)):
        with pytest.raises(ValueError, match="^weights must be finite and >= 0, got "):
            KnnPlan((1,), w_sources, 2, w_q)
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
    with pytest.raises(ValueError, match="^substream index must be >= 0, got -1$"):
        rs.substream(-1)
    with pytest.raises(ValueError, match="out of range"):
        rs.substream(SUBSTREAM_CAP - 1)
    rs.substream(SUBSTREAM_CAP - 2)  # last valid index


def test_random_source_rejects_negative_keys():
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(0, stream=-2)


def test_random_source_refuses_keys_and_indices_that_are_not_integers():
    # a float or bool seed, stream or substream index used to be truncated by int():
    # RandomSource(1.5) and RandomSource(True) ran as seed 1
    for seed, stream, shown in ((1.5, 0, "seed must be an integer, got 1.5"),
                                (True, 0, "seed must be an integer, got True"),
                                (2, 1.0, "stream must be an integer, got 1.0"),
                                (2, False, "stream must be an integer, got False"),
                                ("3", 0, "seed must be an integer, got 3")):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            RandomSource(seed, stream)
    rs = RandomSource(2)
    for i in (1.9, 0.0, True, np.float64(1.0)):
        with pytest.raises(ValueError, match=r"^substream index must be an integer, got "):
            rs.substream(i)
    # numpy integers pass and are stored as ints
    child = RandomSource(np.int64(2), np.uint8(1)).substream(np.int32(1))
    assert child == RandomSource(2, SUBSTREAM_CAP + 2)
    assert type(child.seed) is int and type(child.stream) is int
    # the index joins the stream id as an int: a numpy one used to overflow int64 here
    assert RandomSource(0, 2**50).substream(np.int64(1)).stream == 2**70 + 2
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        RandomSource(np.int64(-1))
    with pytest.raises(ValueError, match="^substream index must be >= 0, got -1$"):
        rs.substream(np.int64(-1))


def test_records_that_hold_arrays_compare_by_identity():
    from driftknn.classifiers import adaptive_predict, lepski_predict
    from driftknn.neighbors import merged_order
    from driftknn.simulation import RateCheckResult

    s = make_set([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], [0, 1, 1])
    x = np.array([0.25, 0.25])
    makers = {
        "SampleSet": lambda: make_set([[0.1, 0.2]], [1]),
        "TransferDataset": lambda: TransferDataset((s,), s),
        "MergedOrder": lambda: merged_order([s, s], x),
        "AdaptiveTrace": lambda: adaptive_predict(TransferDataset((s,), s), x)[1],
        "LepskiTrace": lambda: lepski_predict(s, x)[1],
        "RateCheckResult": lambda: RateCheckResult(
            "q", (1, 2), (0.1, 0.2), np.ones((2, 2)), -0.5, -0.6, -0.4, -0.5, 10, 2, 0),
    }
    for name, make in makers.items():
        a, b = make(), make()
        assert type(a).__name__ == name
        assert (a == a) is True and (a != a) is False, name
        assert (a == b) is False and (a != b) is True, name
        assert {a, b} == {b, a} and len({a, a, b}) == 2, name
