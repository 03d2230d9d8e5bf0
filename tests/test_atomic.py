import numpy as np
import pytest

from mrarc.atomic import AtomicSet, Partition, atomic_norm, prox, vector_prox_arrays
from mrarc.errors import DimensionMismatch, NonFiniteInput, NonPositiveGamma, ShapeMismatch

from _oracles import prox_l1_scalar, prox_l2_vector


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partition_basic_properties():
    p = Partition([(0, 1), (2,), (3, 4, 5)])
    assert p.size == 6
    order, bounds = p.arrays()
    assert order.dtype == np.int64 and bounds.dtype == np.int64
    np.testing.assert_array_equal(np.sort(order), np.arange(6))
    assert bounds[0] == 0 and bounds[-1] == 6


def test_partition_rejects_gaps_overlaps_and_empties():
    with pytest.raises(ValueError):
        Partition([(0, 1), (3,)])  # index 2 missing
    with pytest.raises(ValueError):
        Partition([(0, 1), (1, 2)])  # 1 duplicated
    with pytest.raises(ValueError):
        Partition([(0,), ()])
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([(-1, 0)])


def test_partition_from_labels_groups_by_value():
    p = Partition.from_labels([0, 0, 1, 2, 2, 2])
    assert p.blocks == ((0, 1), (2,), (3, 4, 5))


def test_partition_singletons_and_trivial():
    assert Partition.singletons(3).blocks == ((0,), (1,), (2,))
    assert Partition.trivial(3).blocks == ((0, 1, 2),)


def test_atomic_set_constructors_validate():
    assert AtomicSet.sparse().kind == "sparse"
    assert AtomicSet.collaborative().kind == "collaborative"
    assert AtomicSet.joint_rows().kind == "joint_rows"
    assert AtomicSet.block(Partition.singletons(2)).partition.size == 2
    with pytest.raises(ValueError):
        AtomicSet("block", None)
    with pytest.raises(ValueError):
        AtomicSet("sparse", Partition.singletons(2))
    with pytest.raises(ValueError):
        AtomicSet("fancy")


def test_vector_prox_arrays_checks_partition_size():
    aset = AtomicSet.block(Partition.singletons(3))
    with pytest.raises(ShapeMismatch):
        vector_prox_arrays(aset, 4)
    with pytest.raises(ShapeMismatch):
        vector_prox_arrays(AtomicSet.joint_rows(), 4)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_atomic_norm_values():
    c = np.array([3.0, -4.0, 0.0, 1.0])
    assert atomic_norm(AtomicSet.sparse(), c) == pytest.approx(8.0)
    assert atomic_norm(AtomicSet.collaborative(), c) == pytest.approx(
        np.sqrt(26.0)
    )
    blocked = AtomicSet.block(Partition([(0, 1), (2, 3)]))
    assert atomic_norm(blocked, c) == pytest.approx(5.0 + 1.0)
    C = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    assert atomic_norm(AtomicSet.joint_rows(), C) == pytest.approx(6.0)


def test_atomic_norm_shape_errors():
    with pytest.raises(ShapeMismatch):
        atomic_norm(AtomicSet.joint_rows(), np.ones(3))
    with pytest.raises((ShapeMismatch, DimensionMismatch)):
        atomic_norm(AtomicSet.sparse(), np.ones((2, 2)))


def test_atomic_norm_triangle_inequality_and_homogeneity():
    rng = np.random.default_rng(7)
    sets = [
        AtomicSet.sparse(),
        AtomicSet.collaborative(),
        AtomicSet.block(Partition([(0, 2), (1, 4), (3,)])),
    ]
    for trial in range(50):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        t = float(rng.uniform(0.1, 3.0))
        for aset in sets:
            na, nb = atomic_norm(aset, a), atomic_norm(aset, b)
            assert atomic_norm(aset, a + b) <= na + nb + 1e-12
            assert atomic_norm(aset, t * a) == pytest.approx(t * na, rel=1e-12)


# ---------------------------------------------------------------------------
# proximity operators vs line-search oracles
# ---------------------------------------------------------------------------


def test_prox_sparse_matches_coordinate_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        z = rng.standard_normal(rng.integers(1, 9)) * rng.uniform(0.1, 5.0)
        gamma = float(rng.uniform(0.01, 2.0))
        got = prox(AtomicSet.sparse(), z, gamma)
        want = np.array([prox_l1_scalar(zi, gamma) for zi in z])
        assert np.linalg.norm(got - want) <= 1e-8


def test_prox_collaborative_matches_radial_oracle():
    rng = np.random.default_rng(12)
    for trial in range(100):
        z = rng.standard_normal(rng.integers(1, 9)) * rng.uniform(0.1, 5.0)
        gamma = float(rng.uniform(0.01, 2.0))
        got = prox(AtomicSet.collaborative(), z, gamma)
        want = prox_l2_vector(z, gamma)
        assert np.linalg.norm(got - want) <= 1e-8


def test_prox_block_matches_blockwise_radial_oracle():
    rng = np.random.default_rng(13)
    part = Partition([(0, 3), (1, 2, 5), (4,)])
    aset = AtomicSet.block(part)
    for trial in range(100):
        z = rng.standard_normal(6) * rng.uniform(0.1, 5.0)
        gamma = float(rng.uniform(0.01, 2.0))
        got = prox(aset, z, gamma)
        want = np.zeros(6)
        for idx in part.blocks:
            want[list(idx)] = prox_l2_vector(z[list(idx)], gamma)
        assert np.linalg.norm(got - want) <= 1e-8


def test_prox_joint_rows_matches_rowwise_radial_oracle():
    rng = np.random.default_rng(14)
    for trial in range(100):
        Z = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 4)))
        gamma = float(rng.uniform(0.01, 2.0))
        got = prox(AtomicSet.joint_rows(), Z, gamma)
        want = np.vstack([prox_l2_vector(row, gamma) for row in Z])
        assert np.linalg.norm(got - want) <= 1e-8


def test_prox_is_nonexpansive():
    rng = np.random.default_rng(15)
    sets = [
        AtomicSet.sparse(),
        AtomicSet.collaborative(),
        AtomicSet.block(Partition([(0, 1), (2, 3, 4), (5,)])),
    ]
    for trial in range(50):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        gamma = float(rng.uniform(0.05, 1.0))
        for aset in sets:
            d = np.linalg.norm(prox(aset, a, gamma) - prox(aset, b, gamma))
            assert d <= np.linalg.norm(a - b) + 1e-12


def test_prox_zero_input_stays_zero():
    assert np.all(prox(AtomicSet.sparse(), np.zeros(4), 0.3) == 0.0)
    assert np.all(prox(AtomicSet.joint_rows(), np.zeros((4, 2)), 0.3) == 0.0)


def test_prox_zeroes_groups_whose_squared_norm_underflows():
    # the squares of 1e-170 underflow to 0, but the true norms of these
    # groups are far below gamma, so each group must come out exactly zero
    gamma = 0.01
    z = np.array([1e-170, -2e-170, 0.5])
    want = np.array([0.0, 0.0, 0.5 - gamma])
    np.testing.assert_array_equal(prox(AtomicSet.sparse(), z, gamma), want)
    blocks = AtomicSet.block(Partition([(0, 1), (2,)]))
    np.testing.assert_array_equal(prox(blocks, z, gamma), want)
    np.testing.assert_array_equal(
        prox(AtomicSet.collaborative(), np.array([1e-170, -2e-170, 0.0]), gamma),
        np.zeros(3),
    )
    rows = prox(AtomicSet.joint_rows(), np.array([[1e-170, -2e-170], [0.5, 0.0]]), gamma)
    np.testing.assert_array_equal(rows, [[0.0, 0.0], [0.5 - gamma, 0.0]])


@pytest.mark.parametrize("aset", [AtomicSet.sparse(), AtomicSet.collaborative()])
def test_prox_of_an_empty_vector_is_empty(aset):
    out = prox(aset, np.array([]), 0.3)
    assert out.shape == (0,) and out.dtype == np.float64


def test_prox_rejects_nonpositive_gamma():
    with pytest.raises(NonPositiveGamma):
        prox(AtomicSet.sparse(), np.ones(3), 0.0)
    with pytest.raises(NonPositiveGamma):
        prox(AtomicSet.sparse(), np.ones(3), -1.0)


def test_prox_shape_errors():
    with pytest.raises(ShapeMismatch):
        prox(AtomicSet.joint_rows(), np.ones(3), 0.1)
    with pytest.raises((ShapeMismatch, DimensionMismatch)):
        prox(AtomicSet.sparse(), np.ones((3, 2)), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_joint_rows_reject_non_finite_input(bad):
    # the same library error as the vector atomic sets raise
    Z = np.array([[bad, 1.0], [0.5, 2.0]])
    with pytest.raises(NonFiniteInput):
        prox(AtomicSet.joint_rows(), Z, 0.1)
    with pytest.raises(NonFiniteInput):
        atomic_norm(AtomicSet.joint_rows(), Z)


# ---------------------------------------------------------------------------
# degeneracy identities
# ---------------------------------------------------------------------------


def _soft_threshold(z, gamma):
    return np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)


def _with_zeros_and_ties(rng, n):
    # random entries plus exact zeros and entries with |z| = gamma
    z = rng.standard_normal(n) * 3.0
    gamma = float(rng.uniform(0.05, 1.5))
    z[:2] = 0.0
    z[2], z[3] = gamma, -gamma
    return rng.permutation(z), gamma


def test_singleton_blocks_reduce_to_soft_threshold_exactly():
    rng = np.random.default_rng(16)
    aset = AtomicSet.block(Partition.singletons(8))
    for trial in range(30):
        z, gamma = _with_zeros_and_ties(rng, 8)
        want = _soft_threshold(z, gamma)
        np.testing.assert_array_equal(prox(aset, z, gamma), want)
        np.testing.assert_array_equal(prox(AtomicSet.sparse(), z, gamma), want)


def test_one_column_joint_rows_reduces_to_soft_threshold_exactly():
    rng = np.random.default_rng(17)
    for trial in range(30):
        z, gamma = _with_zeros_and_ties(rng, 8)
        got = prox(AtomicSet.joint_rows(), z[:, None], gamma)
        np.testing.assert_array_equal(got[:, 0], _soft_threshold(z, gamma))


def test_trivial_partition_reduces_to_collaborative():
    rng = np.random.default_rng(18)
    aset = AtomicSet.block(Partition.trivial(6))
    for trial in range(30):
        z = rng.standard_normal(6)
        gamma = float(rng.uniform(0.05, 1.5))
        np.testing.assert_allclose(
            prox(aset, z, gamma),
            prox(AtomicSet.collaborative(), z, gamma),
            rtol=0,
            atol=1e-15,
        )
