import itertools

import numpy as np
import pytest

from mrarc import kernels
from mrarc.atomic import AtomicSet, Partition
from mrarc.classify import ClassifierSpec
from mrarc.errors import DimensionMismatch, NotSPD, ShapeMismatch
from mrarc.modal import ModalLoss, mrlf
from mrarc.solver import (
    SolverConfig,
    SquaredLoss,
    solve_ar_squared,
    solve_ar_squared_multimodal,
    solve_crc,
    solve_mrar,
    solve_mrar_multimodal,
)

from _oracles import (
    group_subgradient_gap,
    ista_lasso,
    lasso_kkt_violation,
    lasso_objective,
    group_lasso_kkt_violation,
    lstsq_on_support,
    modal_gradient,
    modal_scalar_min,
)


def _unit_columns(rng, m, n):
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=0)


def _modal_cfg(**kw):
    kw.setdefault("loss", ModalLoss.adaptive())
    return SolverConfig(**kw)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(hq_inner_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(hq_inner_max=0)
    with pytest.raises(TypeError):
        SolverConfig(loss="huber")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: SolverConfig(lam=v),
        lambda v: SolverConfig(mu=v),
        lambda v: SolverConfig(epsilon=v),
        lambda v: SolverConfig(hq_inner_tol=v),
        lambda v: ClassifierSpec("SRC", lam=v),
        lambda v: solve_crc(np.eye(2), np.ones(2), v),
        lambda v: ModalLoss.adaptive(v),
    ],
    ids=["lam", "mu", "epsilon", "hq_inner_tol", "spec_lam", "crc_lam", "min_sigma"],
)
def test_non_finite_settings_rejected(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


def test_solver_loss_type_enforced():
    X = np.eye(3)
    y = np.ones(3)
    with pytest.raises(TypeError):
        solve_mrar(X, y, AtomicSet.sparse(), SolverConfig())
    with pytest.raises(TypeError):
        solve_ar_squared(X, y, AtomicSet.sparse(), _modal_cfg())


def test_solver_rejects_joint_rows_and_bad_shapes():
    X = np.eye(3)
    y = np.ones(3)
    with pytest.raises(ShapeMismatch):
        solve_mrar(X, y, AtomicSet.joint_rows(), _modal_cfg())
    with pytest.raises(ShapeMismatch):
        solve_ar_squared(X, y, AtomicSet.joint_rows(), SolverConfig())
    with pytest.raises(DimensionMismatch):
        solve_mrar(X, np.ones(4), AtomicSet.sparse(), _modal_cfg())


# ---------------------------------------------------------------------------
# modal-regression solver
# ---------------------------------------------------------------------------


def test_huge_lambda_kills_all_coefficients():
    # the prox annihilates any bounded input once lam/mu dwarfs it; the
    # squared-loss consensus also closes, while the modal z keeps chasing its
    # unregularized fit and may legitimately never meet c at 0
    rng = np.random.default_rng(0)
    X = _unit_columns(rng, 12, 8)
    y = rng.standard_normal(12)
    out = solve_mrar(X, y, AtomicSet.sparse(), _modal_cfg(lam=1e6, max_iter=500))
    assert np.max(np.abs(out.coefficients)) <= 1e-6
    out = solve_ar_squared(X, y, AtomicSet.sparse(), SolverConfig(lam=1e6))
    assert out.converged
    assert np.max(np.abs(out.coefficients)) <= 1e-6


def test_identity_dictionary_matches_separable_oracle():
    # With X = I the model decouples per coordinate; each coefficient must
    # agree with a dense-grid scalar minimizer at the solver's final
    # bandwidth.
    y = np.array([5.0, 0.0, 0.0, 0.0])
    cfg = _modal_cfg(lam=0.01, epsilon=1e-9, max_iter=5000)
    out = solve_mrar(np.eye(4), y, AtomicSet.sparse(), cfg)
    assert out.converged
    assert out.sigma is not None and out.sigma > 0.0
    want = np.array([modal_scalar_min(t, 0.01, out.sigma) for t in y])
    np.testing.assert_allclose(out.coefficients, want, rtol=0, atol=1e-6)
    assert out.coefficients[0] > 4.5
    assert np.max(np.abs(out.coefficients[1:])) <= 1e-6


def test_three_sparse_recovery_noiseless():
    rng = np.random.default_rng(1)
    X = _unit_columns(rng, 30, 10)
    c0 = np.zeros(10)
    c0[[1, 4, 7]] = np.array([2.0, -1.5, 1.0])
    y = X @ c0
    out = solve_mrar(X, y, AtomicSet.sparse(), _modal_cfg(lam=1e-3, epsilon=1e-8))
    support = np.flatnonzero(np.abs(out.coefficients) > 1e-4)
    assert set([1, 4, 7]) <= set(support.tolist())
    resid = np.linalg.norm(y - X @ out.coefficients)
    assert resid <= 1e-3 * np.linalg.norm(y)
    ls = lstsq_on_support(X, y, [1, 4, 7])
    np.testing.assert_allclose(out.coefficients, ls, rtol=0, atol=5e-3)


def test_mrar_downweights_gross_outliers():
    # one wildly corrupted observation should barely move the modal fit,
    # while the squared-loss fit chases it
    rng = np.random.default_rng(2)
    X = _unit_columns(rng, 40, 8)
    c0 = np.zeros(8)
    c0[[0, 3]] = [1.0, -2.0]
    y = X @ c0
    y_bad = y.copy()
    y_bad[5] += 50.0
    cfg = _modal_cfg(lam=1e-3, epsilon=1e-7)
    robust = solve_mrar(X, y_bad, AtomicSet.sparse(), cfg)
    fragile = solve_ar_squared(
        X, y_bad, AtomicSet.sparse(), SolverConfig(lam=1e-3, epsilon=1e-7)
    )
    err_robust = np.linalg.norm(robust.coefficients - c0)
    err_fragile = np.linalg.norm(fragile.coefficients - c0)
    assert err_robust < 0.05
    assert err_fragile > 5.0 * err_robust


def test_hq_inner_loop_is_monotone_at_fixed_sigma():
    # one weighted-ridge pass at a time; the subproblem objective
    # mrlf(y - Xz) + mu/2 ||z - v||^2 must never increase
    rng = np.random.default_rng(3)
    impl = kernels.active()
    for trial in range(20):
        m, n = int(rng.integers(5, 20)), int(rng.integers(3, 15))
        X = rng.standard_normal((m, n))
        y = rng.standard_normal(m) * rng.uniform(0.5, 3.0)
        v = rng.standard_normal(n)
        sigma = float(rng.uniform(0.3, 2.0))
        mu = 0.1
        Xt = np.ascontiguousarray(X.T)
        woodbury = m < n
        XXt = X @ Xt if woodbury else np.zeros((0, 0))
        z = np.zeros(n)

        def g(z):
            return mrlf(y - X @ z, sigma) + 0.5 * mu * float((z - v) @ (z - v))

        prev = g(z)
        for _ in range(12):
            z, _ = impl.hq_inner(X, Xt, XXt, y, v, mu, sigma, z, 1e-14, 1, woodbury)
            cur = g(z)
            assert cur <= prev + 1e-10
            prev = cur


@pytest.mark.slow
def test_exit_contract_when_converged():
    rng = np.random.default_rng(4)
    for trial in range(10):
        m, n = 15, int(rng.integers(5, 25))
        X = _unit_columns(rng, m, n)
        y = rng.standard_normal(m)
        out = solve_mrar(X, y, AtomicSet.sparse(), _modal_cfg(lam=1e-2))
        if out.converged:
            assert out.history.gap[-1] < 1e-7
            assert out.history.step[-1] < 1e-7
            assert out.iterations == out.history.gap.size


def test_hitting_max_iter_reports_not_converged():
    rng = np.random.default_rng(5)
    X = _unit_columns(rng, 10, 20)
    y = rng.standard_normal(10)
    out = solve_mrar(X, y, AtomicSet.sparse(), _modal_cfg(lam=1e-2, max_iter=3))
    assert not out.converged
    assert out.iterations == 3
    assert out.history.gap.size == 3


def test_solver_is_deterministic_bitwise():
    rng = np.random.default_rng(6)
    X = _unit_columns(rng, 12, 18)
    y = rng.standard_normal(12)
    cfg = _modal_cfg(lam=1e-2, epsilon=1e-6, max_iter=500)
    a = solve_mrar(X, y, AtomicSet.sparse(), cfg)
    b = solve_mrar(X, y, AtomicSet.sparse(), cfg)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    np.testing.assert_array_equal(a.history.gap, b.history.gap)
    np.testing.assert_array_equal(a.history.step, b.history.step)
    np.testing.assert_array_equal(a.history.sigma, b.history.sigma)
    assert a.iterations == b.iterations and a.converged == b.converged


def test_history_records_every_iteration():
    rng = np.random.default_rng(7)
    X = _unit_columns(rng, 10, 6)
    y = rng.standard_normal(10)
    out = solve_mrar(X, y, AtomicSet.sparse(), _modal_cfg(lam=1e-2))
    h = out.history
    assert h.gap.size == h.step.size == h.sigma.size
    assert h.gap.size == out.iterations
    assert np.all(h.sigma > 0.0)


def test_fixed_sigma_policy_is_respected():
    rng = np.random.default_rng(8)
    X = _unit_columns(rng, 10, 6)
    y = rng.standard_normal(10)
    cfg = SolverConfig(lam=1e-2, loss=ModalLoss.fixed(0.7))
    out = solve_mrar(X, y, AtomicSet.sparse(), cfg)
    assert out.sigma == 0.7
    assert np.all(out.history.sigma == 0.7)


def test_converged_modal_solves_meet_the_first_order_bound():
    # wide problems with a planted class and impulse-corrupted entries; a
    # converged solve's coefficients must satisfy -grad f(c) in lam dN(c) to
    # within 2 (mu + L) epsilon, L the inf-norm of X^T X / sigma^2.  The
    # small bandwidth makes the loss strongly nonconvex; the large one makes
    # L about 1, and with it the bound tight.
    m, n, K = 24, 48, 6
    lam, mu, eps = 1e-2, 0.1, 1e-6
    labels = np.repeat(np.arange(K), n // K)
    rows = [[i] for i in range(n)]
    sets = [
        (AtomicSet.sparse(), rows),
        (AtomicSet.block(Partition.from_labels(labels)),
         [np.flatnonzero(labels == k) for k in range(K)]),
        (AtomicSet.collaborative(), [np.arange(n)]),
    ]
    for sigma, seed in itertools.product((0.3, 3.0), range(3)):
        cfg = SolverConfig(lam=lam, mu=mu, epsilon=eps, max_iter=5000, loss=ModalLoss.fixed(sigma))
        rng = np.random.default_rng(40 + seed)
        Xs = [_unit_columns(rng, m, n) for _ in range(2)]
        ys = []
        for X in Xs:
            y = X[:, labels == seed] @ rng.uniform(0.5, 1.5, n // K)
            ys.append(y / np.linalg.norm(y) + 0.01 * rng.standard_normal(m))
        hit = rng.choice(m, m // 5, replace=False)
        ys[0][hit] = rng.uniform(-0.5, 0.5, hit.size)
        hess = [np.max(np.sum(np.abs(X.T @ X), axis=1)) / sigma**2 for X in Xs]
        for aset, groups in sets:
            out = solve_mrar(Xs[0], ys[0], aset, cfg)
            assert out.converged, (aset.kind, sigma)
            G = modal_gradient(Xs[0], ys[0], out.coefficients, sigma)
            gap = group_subgradient_gap(out.coefficients[:, None], G[:, None], lam, groups)
            assert gap <= 2.0 * (mu + hess[0]) * eps, (aset.kind, sigma)
        out = solve_mrar_multimodal(Xs, ys, AtomicSet.joint_rows(), cfg)
        assert out.converged, sigma
        C = out.coefficients
        G = np.column_stack([modal_gradient(X, y, C[:, j], sigma) for j, (X, y) in enumerate(zip(Xs, ys))])
        assert group_subgradient_gap(C, G, lam, rows) <= 2.0 * (mu + max(hess)) * eps


def test_accelerated_solves_never_repeat_an_iteration():
    # a restart right after a momentum-free step would step from the same
    # point twice; the repeat has a zero c step and the gap of the step
    # before, so it would pass the stop test at a point still moving
    m, n, eps = 24, 48, 1e-6
    for seed in range(4):
        rng = np.random.default_rng(40 + seed)
        X = _unit_columns(rng, m, n)
        y = X[:, :8] @ rng.uniform(0.5, 1.5, 8)
        y = y / np.linalg.norm(y) + 0.01 * rng.standard_normal(m)
        hit = rng.choice(m, m // 5, replace=False)
        y[hit] = rng.uniform(-0.5, 0.5, hit.size)
        cfg = SolverConfig(lam=1e-2, mu=0.1, epsilon=eps, max_iter=5000, loss=ModalLoss.fixed(0.3))
        h = solve_mrar(X, y, AtomicSet.sparse(), cfg).history
        repeats = (h.step[1:] == 0.0) & (h.gap[1:] == h.gap[:-1])
        assert not repeats.any(), (seed, np.flatnonzero(repeats) + 1)


# ---------------------------------------------------------------------------
# squared-loss solver
# ---------------------------------------------------------------------------


def test_vanishing_lambda_recovers_least_squares():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 6))
    y = rng.standard_normal(20)
    cfg = SolverConfig(lam=1e-10, epsilon=1e-10, max_iter=50_000)
    out = solve_ar_squared(X, y, AtomicSet.sparse(), cfg)
    ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(out.coefficients, ls, rtol=0, atol=1e-4)


def test_squared_admm_matches_ista_objective():
    rng = np.random.default_rng(10)
    for lam in (0.01, 0.1, 1.0):
        X = rng.standard_normal((10, 20))
        y = rng.standard_normal(10)
        out = solve_ar_squared(
            X, y, AtomicSet.sparse(),
            SolverConfig(lam=lam, epsilon=1e-9, max_iter=200_000),
        )
        c_ref = ista_lasso(X, y, lam)
        gap = lasso_objective(X, y, out.coefficients, lam) - lasso_objective(
            X, y, c_ref, lam
        )
        assert gap <= 1e-4


def test_squared_admm_satisfies_lasso_kkt():
    rng = np.random.default_rng(11)
    for trial in range(5):
        X = rng.standard_normal((12, 24))
        y = rng.standard_normal(12)
        out = solve_ar_squared(
            X, y, AtomicSet.sparse(),
            SolverConfig(lam=0.2, epsilon=1e-10, max_iter=300_000),
        )
        assert lasso_kkt_violation(X, y, out.coefficients, 0.2) <= 1e-5


def test_squared_admm_satisfies_group_lasso_kkt():
    rng = np.random.default_rng(12)
    blocks = ((0, 1, 2), (3, 4, 5), (6, 7), (8, 9, 10, 11))
    aset = AtomicSet.block(Partition(blocks))
    for trial in range(5):
        X = rng.standard_normal((9, 12))
        y = rng.standard_normal(9)
        out = solve_ar_squared(
            X, y, aset, SolverConfig(lam=0.3, epsilon=1e-10, max_iter=300_000)
        )
        assert group_lasso_kkt_violation(X, y, out.coefficients, 0.3, blocks) <= 1e-5


def test_scale_coherence_of_the_lasso():
    # scaling (X, y) by alpha and lambda by alpha^2 leaves the argmin alone
    rng = np.random.default_rng(13)
    X = rng.standard_normal((10, 15))
    y = rng.standard_normal(10)
    alpha = 3.7
    base = solve_ar_squared(
        X, y, AtomicSet.sparse(), SolverConfig(lam=0.1, epsilon=1e-10, max_iter=200_000)
    )
    scaled = solve_ar_squared(
        alpha * X, alpha * y, AtomicSet.sparse(),
        SolverConfig(lam=alpha**2 * 0.1, epsilon=1e-10, max_iter=200_000),
    )
    np.testing.assert_allclose(
        base.coefficients, scaled.coefficients, rtol=0, atol=1e-6
    )


@pytest.mark.slow
def test_singleton_blocks_match_sparse_solution():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((8, 12))
    y = rng.standard_normal(8)
    cfg = SolverConfig(lam=0.05, epsilon=1e-9, max_iter=100_000)
    a = solve_ar_squared(X, y, AtomicSet.sparse(), cfg)
    b = solve_ar_squared(X, y, AtomicSet.block(Partition.singletons(12)), cfg)
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-6
    mcfg = _modal_cfg(lam=0.05, epsilon=1e-8)
    am = solve_mrar(X, y, AtomicSet.sparse(), mcfg)
    bm = solve_mrar(X, y, AtomicSet.block(Partition.singletons(12)), mcfg)
    assert np.max(np.abs(am.coefficients - bm.coefficients)) <= 1e-6


def test_squared_history_has_no_bandwidth():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    out = solve_ar_squared(X, y, AtomicSet.sparse(), SolverConfig(lam=0.1))
    assert out.sigma is None
    assert np.all(np.isnan(out.history.sigma))


def test_tall_and_wide_problems_agree_with_oracle():
    # the wide case exercises the dual-form (m x m) ridge solve
    rng = np.random.default_rng(16)
    for m, n in ((24, 9), (9, 24)):
        X = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        out = solve_ar_squared(
            X, y, AtomicSet.sparse(),
            SolverConfig(lam=0.15, epsilon=1e-10, max_iter=300_000),
        )
        c_ref = ista_lasso(X, y, 0.15)
        assert abs(
            lasso_objective(X, y, out.coefficients, 0.15)
            - lasso_objective(X, y, c_ref, 0.15)
        ) <= 1e-5


# ---------------------------------------------------------------------------
# collaborative closed form
# ---------------------------------------------------------------------------


def test_crc_identity_dictionary():
    y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        solve_crc(np.eye(3), y, 0.5), y / 1.5, rtol=0, atol=1e-12
    )


def test_crc_large_lambda_shrinks_to_zero():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    c = solve_crc(A, y, 1e12)
    assert np.max(np.abs(c)) <= 1e-9


def test_crc_satisfies_normal_equations():
    rng = np.random.default_rng(18)
    A = rng.standard_normal((20, 10))
    y = rng.standard_normal(20)
    lam = 0.3
    c = solve_crc(A, y, lam)
    resid = (A.T @ A + lam * np.eye(10)) @ c - A.T @ y
    assert np.linalg.norm(resid) <= 1e-8


def test_crc_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        solve_crc(np.eye(2), np.ones(2), 0.0)


def test_crc_reports_a_numerically_singular_ridge_system():
    # more atoms than rows: A^T A is singular, and lam = 1e-300 is lost to rounding
    A = _unit_columns(np.random.default_rng(0), 5, 8)
    with pytest.raises(NotSPD):
        solve_crc(A, np.ones(5), 1e-300)


# ---------------------------------------------------------------------------
# multimodal solvers
# ---------------------------------------------------------------------------


def test_multimodal_single_modality_reduces_to_sparse():
    rng = np.random.default_rng(19)
    X = _unit_columns(rng, 12, 9)
    y = rng.standard_normal(12)
    mcfg = _modal_cfg(lam=1e-2, epsilon=1e-8)
    joint = solve_mrar_multimodal([X], [y], AtomicSet.joint_rows(), mcfg)
    single = solve_mrar(X, y, AtomicSet.sparse(), mcfg)
    assert joint.coefficients.shape == (9, 1)
    assert np.max(np.abs(joint.coefficients[:, 0] - single.coefficients)) <= 1e-6

    scfg = SolverConfig(lam=1e-2, epsilon=1e-8)
    joint_sq = solve_ar_squared_multimodal([X], [y], AtomicSet.joint_rows(), scfg)
    single_sq = solve_ar_squared(X, y, AtomicSet.sparse(), scfg)
    assert np.max(np.abs(joint_sq.coefficients[:, 0] - single_sq.coefficients)) <= 1e-6


@pytest.mark.parametrize("m, n", [(12, 30), (30, 12)])
def test_single_modality_runs_the_same_iterations_as_the_vector_solver(m, n):
    # one ADMM loop serves both entry points, so a single joint-rows modality
    # must follow the sparse vector solve iteration for iteration
    rng = np.random.default_rng(22 + m)
    X = _unit_columns(rng, m, n)
    y = rng.standard_normal(m)
    mcfg = _modal_cfg(lam=1e-2, epsilon=1e-6, max_iter=2000)
    scfg = SolverConfig(lam=1e-2, epsilon=1e-6, max_iter=2000)
    joint_rows = AtomicSet.joint_rows()
    pairs = (
        (solve_mrar_multimodal([X], [y], joint_rows, mcfg),
         solve_mrar(X, y, AtomicSet.sparse(), mcfg)),
        (solve_ar_squared_multimodal([X], [y], joint_rows, scfg),
         solve_ar_squared(X, y, AtomicSet.sparse(), scfg)),
    )
    for joint, flat in pairs:
        assert joint.iterations == flat.iterations
        assert joint.history.gap.size == flat.history.gap.size == flat.iterations
        assert np.max(np.abs(joint.coefficients[:, 0] - flat.coefficients)) <= 1e-12


def test_multimodal_identical_modalities_give_equal_columns():
    rng = np.random.default_rng(20)
    X = _unit_columns(rng, 12, 9)
    y = rng.standard_normal(12)
    out = solve_mrar_multimodal(
        [X, X], [y, y], AtomicSet.joint_rows(), _modal_cfg(lam=1e-2, epsilon=1e-8)
    )
    assert out.coefficients.shape == (9, 2)
    assert np.max(np.abs(out.coefficients[:, 0] - out.coefficients[:, 1])) <= 1e-6
    assert isinstance(out.sigma, np.ndarray) and out.sigma.shape == (2,)


def test_multimodal_planted_common_support():
    rng = np.random.default_rng(21)
    n = 12
    c0 = np.zeros(n)
    c0[[2, 5, 9]] = [1.5, -1.0, 2.0]
    Xs, ys = [], []
    for j in range(2):
        X = _unit_columns(rng, 20, n)
        Xs.append(X)
        ys.append(X @ c0)
    out = solve_mrar_multimodal(
        Xs, ys, AtomicSet.joint_rows(), _modal_cfg(lam=1e-3, epsilon=1e-7)
    )
    pattern = np.abs(out.coefficients) > 1e-4
    np.testing.assert_array_equal(pattern[:, 0], pattern[:, 1])
    assert {2, 5, 9} <= set(np.flatnonzero(pattern[:, 0]).tolist())


def test_multimodal_dimension_checks():
    X = np.eye(4)
    y = np.ones(4)
    with pytest.raises(ShapeMismatch):
        solve_mrar_multimodal([X], [y], AtomicSet.sparse(), _modal_cfg())
    with pytest.raises(DimensionMismatch):
        solve_mrar_multimodal([X], [y, y], AtomicSet.joint_rows(), _modal_cfg())
    with pytest.raises(DimensionMismatch):
        solve_mrar_multimodal(
            [X, np.eye(5)], [y, np.ones(5)], AtomicSet.joint_rows(), _modal_cfg()
        )
    with pytest.raises(DimensionMismatch):
        solve_mrar_multimodal([], [], AtomicSet.joint_rows(), _modal_cfg())
