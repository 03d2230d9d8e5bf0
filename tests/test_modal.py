import math

import numpy as np
import pytest

from mrarc.atomic import AtomicSet
from mrarc.errors import EmptyInput, NonFiniteInput, UnsupportedKernel
from mrarc.modal import (
    Kernel,
    ModalLoss,
    default_sigma_floor,
    estimate_mode,
    mrlf,
    parzen_density,
)
from mrarc.solver import SolverConfig, solve_mrar


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_gaussian_kernel_values():
    # one residual e costs 1 - exp(-e^2 / (2 sigma^2))
    assert mrlf(np.array([0.0]), 1.0) == 0.0
    assert mrlf(np.array([2.0]), 2.0) == pytest.approx(1.0 - math.exp(-0.5))
    assert mrlf(np.array([1.0]), 1.0) == pytest.approx(1.0 - math.exp(-0.5))


def test_epanechnikov_kernel_values():
    # with one sample at 0 the density is the kernel itself, (3/4)(1 - t^2)+
    k, at_zero = Kernel.epanechnikov(), np.array([0.0])
    assert parzen_density(k, at_zero, 0.0) == pytest.approx(0.75)
    assert parzen_density(k, at_zero, 1.0) == 0.0
    assert parzen_density(k, at_zero, 2.0) == 0.0
    assert parzen_density(k, at_zero, 0.5) == pytest.approx(0.75 * 0.75)


def test_kernels_are_even():
    rng = np.random.default_rng(0)
    for k in (Kernel.gaussian(0.7), Kernel.epanechnikov()):
        e = rng.standard_normal(50) * 2.0
        at_zero = np.array([0.0])
        np.testing.assert_array_equal(
            parzen_density(k, at_zero, e), parzen_density(k, at_zero, -e)
        )


def test_kernel_validation():
    with pytest.raises(UnsupportedKernel):
        Kernel("tricube")
    with pytest.raises(ValueError):
        Kernel.gaussian(0.0)
    with pytest.raises(ValueError):
        Kernel.gaussian(-1.0)


def test_modal_loss_is_fixed_or_adaptive():
    assert ModalLoss.fixed(2) == ModalLoss(2.0, None)
    assert ModalLoss.adaptive() == ModalLoss() == ModalLoss(None, None)
    assert ModalLoss.adaptive(0.01) == ModalLoss(None, 0.01)
    with pytest.raises(ValueError, match="min_sigma"):
        ModalLoss(0.5, 0.01)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ModalLoss.fixed(bad)
        with pytest.raises(ValueError):
            ModalLoss.adaptive(bad)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_mrlf_zero_at_zero_residual():
    assert mrlf(np.zeros(9), 0.8) == 0.0


def test_mrlf_half_at_half_width():
    sigma = 1.3
    e = np.array([sigma * math.sqrt(2.0 * math.log(2.0))])
    assert mrlf(e, sigma) == pytest.approx(0.5)


def test_mrlf_positive_unless_zero_and_bounded():
    rng = np.random.default_rng(1)
    for trial in range(30):
        e = rng.standard_normal(7) * rng.uniform(0.1, 10.0)
        v = mrlf(e, 1.0)
        assert 0.0 < v < 7.0
    assert mrlf(np.zeros(7), 1.0) == 0.0


def test_mrlf_validates_its_arguments():
    with pytest.raises(ValueError):
        mrlf(np.ones(3), 0.0)
    with pytest.raises(NonFiniteInput):
        mrlf(np.array([1.0, np.nan]), 1.0)


def test_mrlf_matches_density_identity():
    # sum_i (1 - K(e_i)) = m (1 - parzen(0)) when the unit-peak loss kernel
    # equals the area-normalized density kernel, i.e. sigma = 1/sqrt(2 pi)
    rng = np.random.default_rng(2)
    e = rng.standard_normal(7)
    sigma = 1.0 / math.sqrt(2.0 * math.pi)
    assert mrlf(e, sigma) == pytest.approx(
        7.0 * (1.0 - parzen_density(Kernel.gaussian(sigma), e, 0.0)), abs=1e-12
    )


def test_hq_surrogate_tightness():
    # For any weights w in (0,1], the half-quadratic surrogate
    #   sum_i [w_i e_i^2/(2 s^2) + 1 - w_i + w_i log w_i]
    # dominates the loss, with equality exactly at the half-quadratic
    # weights w_i = exp(-e_i^2 / (2 s^2)).
    rng = np.random.default_rng(4)
    sigma = 0.8
    e = rng.standard_normal(12) * 1.5
    base = mrlf(e, sigma)

    def surrogate(w):
        quad = w * (e * e) / (2.0 * sigma * sigma)
        return float(np.sum(quad + 1.0 - w + w * np.log(w)))

    w_star = np.exp(-(e * e) / (2.0 * sigma * sigma))
    assert surrogate(w_star) == pytest.approx(base, abs=1e-10)
    for trial in range(1000):
        w = rng.uniform(1e-6, 1.0, 12)
        assert surrogate(w) >= base - 1e-10


# ---------------------------------------------------------------------------
# adaptive bandwidth: sigma = max(floor, ||e|| / sqrt(2 m)), refreshed by the
# solver from the residual (a full solve is tested in test_solver.py)
# ---------------------------------------------------------------------------


def _adaptive_sigma(y, min_sigma):
    # the first iterate steps from z = 0, so the bandwidth it records is the
    # rule applied to the residual e = y
    y = np.asarray(y, dtype=float)
    cfg = SolverConfig(lam=1e-2, max_iter=1, loss=ModalLoss.adaptive(min_sigma))
    out = solve_mrar(np.eye(y.size, 2), y, AtomicSet.sparse(), cfg)
    return float(out.history.sigma[0])


def test_adaptive_sigma_formula():
    assert _adaptive_sigma(np.array([3.0, 4.0]), 1e-4) == pytest.approx(2.5)
    c = 0.7
    e = np.full(5, c)
    assert _adaptive_sigma(e, 1e-4) == pytest.approx(c / math.sqrt(2.0))


def test_adaptive_sigma_floor_engages():
    assert _adaptive_sigma(np.zeros(4), 0.05) == 0.05
    with pytest.raises(EmptyInput):
        _adaptive_sigma(np.array([]), 0.05)
    with pytest.raises(ValueError):
        _adaptive_sigma(np.ones(3), 0.0)


def test_default_sigma_floor_scales_with_target():
    y = np.ones(4) * 2.0
    assert default_sigma_floor(y) == pytest.approx(1e-4 * (1.0 + 2.0))
    assert default_sigma_floor(np.zeros(4)) == pytest.approx(1e-4)


# ---------------------------------------------------------------------------
# density and mode estimation
# ---------------------------------------------------------------------------


def test_parzen_density_normalized_peak():
    val = parzen_density(Kernel.gaussian(1.0), np.array([0.0]), 0.0)
    assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


def test_parzen_density_symmetry():
    k = Kernel.gaussian(0.5)
    a = 1.3
    both = parzen_density(k, np.array([-a, a]), 0.0)
    one = parzen_density(k, np.array([a]), 0.0)
    assert both == pytest.approx(one)


def test_parzen_density_integrates_to_one():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(40)
    for k in (Kernel.gaussian(0.4), Kernel.epanechnikov()):
        grid = np.linspace(-12.0, 12.0, 4001)
        dens = parzen_density(k, samples, grid)
        integral = np.trapezoid(dens, grid)
        assert integral == pytest.approx(1.0, abs=1e-3)


def test_parzen_density_vector_evaluation_matches_scalar():
    k = Kernel.gaussian(0.7)
    samples = np.array([0.0, 1.0, -2.0])
    ts = np.linspace(-3, 3, 11)
    dens = parzen_density(k, samples, ts)
    for t, d in zip(ts, dens):
        assert d == pytest.approx(parzen_density(k, samples, float(t)))


def test_parzen_density_empty_input():
    with pytest.raises(EmptyInput):
        parzen_density(Kernel.gaussian(1.0), np.array([]), 0.0)


def test_estimate_mode_point_mass():
    assert estimate_mode(Kernel.gaussian(1.0), np.full(5, 3.0)) == 3.0


def test_estimate_mode_symmetric_pair_merges():
    mode = estimate_mode(Kernel.gaussian(5.0), np.array([-1.0, 1.0]))
    assert abs(mode) <= 1e-6


def test_estimate_mode_picks_dominant_component():
    rng = np.random.default_rng(6)
    samples = np.concatenate(
        [rng.normal(0.0, 0.1, 9000), rng.normal(5.0, 0.1, 1000)]
    )
    mode = estimate_mode(Kernel.gaussian(0.1), samples)
    assert abs(mode) <= 0.05
    p0 = parzen_density(Kernel.gaussian(0.1), samples, 0.0)
    p5 = parzen_density(Kernel.gaussian(0.1), samples, 5.0)
    assert p0 > 5.0 * p5


def test_estimate_mode_grid_range_validation():
    samples = np.array([0.0, 2.0])
    with pytest.raises(ValueError):
        estimate_mode(Kernel.gaussian(1.0), samples, grid_range=(0.5, 3.0))
    with pytest.raises(EmptyInput):
        estimate_mode(Kernel.gaussian(1.0), np.array([]))


def test_estimate_mode_epanechnikov():
    samples = np.concatenate([np.full(30, 1.0), np.full(5, -1.0)])
    mode = estimate_mode(Kernel.epanechnikov(), samples)
    assert mode == pytest.approx(1.0, abs=1e-6)
