import math

import numpy as np
import pytest

from mrarc.errors import EmptyInput, UnsupportedKernel
from mrarc.modal import (
    Kernel,
    ModalLoss,
    adaptive_sigma,
    default_sigma_floor,
    estimate_mode,
    hq_weights,
    kernel_eval,
    mrlf,
    parzen_density,
)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_gaussian_kernel_values():
    k = Kernel.gaussian(1.0)
    assert kernel_eval(k, 0.0) == 1.0
    assert kernel_eval(Kernel.gaussian(2.0), 2.0) == pytest.approx(
        math.exp(-0.5)
    )
    assert kernel_eval(k, 1.0) == pytest.approx(math.exp(-0.5))


def test_epanechnikov_kernel_values():
    k = Kernel.epanechnikov()
    assert kernel_eval(k, 0.0) == pytest.approx(0.75)
    assert kernel_eval(k, 1.0) == 0.0
    assert kernel_eval(k, 2.0) == 0.0
    assert kernel_eval(k, 0.5) == pytest.approx(0.75 * 0.75)


def test_kernels_are_even():
    rng = np.random.default_rng(0)
    for k in (Kernel.gaussian(0.7), Kernel.epanechnikov()):
        e = rng.standard_normal(50) * 2.0
        np.testing.assert_array_equal(kernel_eval(k, e), kernel_eval(k, -e))


def test_kernel_validation():
    with pytest.raises(UnsupportedKernel):
        Kernel("tricube")
    with pytest.raises(ValueError):
        Kernel.gaussian(0.0)
    with pytest.raises(ValueError):
        Kernel.gaussian(-1.0)


def test_modal_loss_rejects_epanechnikov():
    with pytest.raises(UnsupportedKernel):
        ModalLoss(Kernel.epanechnikov())


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_mrlf_zero_at_zero_residual():
    loss = ModalLoss.fixed(0.8)
    assert mrlf(loss, np.zeros(9)) == 0.0


def test_mrlf_half_at_half_width():
    sigma = 1.3
    e = np.array([sigma * math.sqrt(2.0 * math.log(2.0))])
    assert mrlf(ModalLoss.fixed(sigma), e) == pytest.approx(0.5)


def test_mrlf_positive_unless_zero_and_bounded():
    rng = np.random.default_rng(1)
    loss = ModalLoss.fixed(1.0)
    for trial in range(30):
        e = rng.standard_normal(7) * rng.uniform(0.1, 10.0)
        v = mrlf(loss, e)
        assert 0.0 < v < 7.0
    assert mrlf(loss, np.zeros(7)) == 0.0


def test_mrlf_matches_density_identity():
    # sum_i (1 - K(e_i)) = m (1 - parzen(0)) whenever the loss kernel equals
    # the area-normalized density kernel
    rng = np.random.default_rng(2)
    e = rng.standard_normal(7)
    epan = Kernel.epanechnikov()
    lhs = mrlf(epan, e)
    rhs = 7.0 * (1.0 - parzen_density(epan, e, 0.0))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    gauss = Kernel.gaussian(1.0 / math.sqrt(2.0 * math.pi))
    assert mrlf(gauss, e) == pytest.approx(
        7.0 * (1.0 - parzen_density(gauss, e, 0.0)), abs=1e-12
    )


def test_mrlf_sigma_override():
    e = np.array([1.0, -2.0])
    assert mrlf(ModalLoss.fixed(1.0), e, sigma=2.0) == pytest.approx(
        mrlf(ModalLoss.fixed(2.0), e)
    )


# ---------------------------------------------------------------------------
# half-quadratic weights
# ---------------------------------------------------------------------------


def test_hq_weights_formula_and_range():
    loss = ModalLoss.fixed(1.0)
    w = hq_weights(loss, np.array([0.0, 10.0]))
    assert w[0] == 1.0
    assert w[1] == pytest.approx(math.exp(-50.0))
    rng = np.random.default_rng(3)
    for trial in range(20):
        e = rng.standard_normal(9) * rng.uniform(0.1, 5.0)
        w = hq_weights(loss, e)
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        np.testing.assert_array_equal(w, kernel_eval(loss.kernel, e))


def test_hq_weights_monotone_in_magnitude():
    loss = ModalLoss.fixed(0.9)
    e = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    w = hq_weights(loss, e)
    assert np.all(np.diff(w) < 0.0)


def test_hq_surrogate_tightness():
    # For any weights w in (0,1], the half-quadratic surrogate
    #   sum_i [w_i e_i^2/(2 s^2) + 1 - w_i + w_i log w_i]
    # dominates the loss, with equality exactly at w = hq_weights(e).
    rng = np.random.default_rng(4)
    sigma = 0.8
    loss = ModalLoss.fixed(sigma)
    e = rng.standard_normal(12) * 1.5
    base = mrlf(loss, e)

    def surrogate(w):
        quad = w * (e * e) / (2.0 * sigma * sigma)
        return float(np.sum(quad + 1.0 - w + w * np.log(w)))

    w_star = hq_weights(loss, e)
    assert surrogate(w_star) == pytest.approx(base, abs=1e-10)
    for trial in range(1000):
        w = rng.uniform(1e-6, 1.0, 12)
        assert surrogate(w) >= base - 1e-10


# ---------------------------------------------------------------------------
# adaptive bandwidth
# ---------------------------------------------------------------------------


def test_adaptive_sigma_formula():
    assert adaptive_sigma(np.array([3.0, 4.0]), 1e-4) == pytest.approx(2.5)
    c = 0.7
    e = np.full(5, c)
    assert adaptive_sigma(e, 1e-4) == pytest.approx(c / math.sqrt(2.0))


def test_adaptive_sigma_floor_engages():
    assert adaptive_sigma(np.zeros(4), 0.05) == 0.05
    with pytest.raises(EmptyInput):
        adaptive_sigma(np.array([]), 0.05)
    with pytest.raises(ValueError):
        adaptive_sigma(np.ones(3), 0.0)


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
