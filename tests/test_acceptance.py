"""End-to-end acceptance checks: one test per release criterion.

Each test pins a user-visible guarantee — prox operators against line-search
oracles, the squared-loss solver against a lasso duality gap, half-quadratic
monotonicity, the solver exit contract, mode estimation on a contaminated
mixture, the robustness trend under impulsive corruption, joint-sparsity
structure, degeneracy identities between methods, and byte-level benchmark
determinism.
Every test also enforces its wall-clock budget.
"""

import json
import time

import numpy as np
import pytest

from mrarc import kernels
from mrarc.atomic import AtomicSet, Partition, prox
from mrarc.classify import ClassifierSpec, Dictionary, classify, classify_lrc, classify_multimodal
from mrarc.cli import main
from mrarc.data import PixelCorruption, SyntheticSpec, corrupt, gen_subspace_data
from mrarc.modal import Kernel, ModalLoss, estimate_mode, mrlf
from mrarc.solver import (
    SolverConfig,
    solve_ar_squared,
    solve_ar_squared_multimodal,
    solve_crc,
    solve_mrar,
    solve_mrar_multimodal,
)

from _oracles import (
    lasso_duality_gap,
    prox_l1_scalar,
    prox_l2_vector,
)


def test_criterion_1_prox_operators_match_line_search_oracles():
    # 100 random (z, gamma) instances per atomic set, each within 1e-8 in
    # solution norm of an independent golden-section minimizer
    t0 = time.perf_counter()

    rng = np.random.default_rng(101)
    for trial in range(100):
        z = rng.standard_normal(int(rng.integers(2, 12))) * rng.uniform(0.1, 5.0)
        gamma = float(rng.uniform(0.01, 2.5))
        got = prox(AtomicSet.sparse(), z, gamma)
        want = np.array([prox_l1_scalar(zi, gamma) for zi in z])
        assert np.linalg.norm(got - want) <= 1e-8

    rng = np.random.default_rng(102)
    for trial in range(100):
        z = rng.standard_normal(int(rng.integers(2, 12))) * rng.uniform(0.1, 5.0)
        gamma = float(rng.uniform(0.01, 2.5))
        got = prox(AtomicSet.collaborative(), z, gamma)
        assert np.linalg.norm(got - prox_l2_vector(z, gamma)) <= 1e-8

    rng = np.random.default_rng(103)
    part = Partition([(0, 3), (1, 2, 5), (4, 6, 7, 8)])
    aset = AtomicSet.block(part)
    for trial in range(100):
        z = rng.standard_normal(9) * rng.uniform(0.1, 5.0)
        gamma = float(rng.uniform(0.01, 2.5))
        got = prox(aset, z, gamma)
        want = np.zeros(9)
        for idx in part.blocks:
            want[list(idx)] = prox_l2_vector(z[list(idx)], gamma)
        assert np.linalg.norm(got - want) <= 1e-8

    rng = np.random.default_rng(104)
    for trial in range(100):
        Z = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(1, 5))))
        gamma = float(rng.uniform(0.01, 2.5))
        got = prox(AtomicSet.joint_rows(), Z, gamma)
        want = np.vstack([prox_l2_vector(row, gamma) for row in Z])
        assert np.linalg.norm(got - want) <= 1e-8

    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_squared_admm_matches_ista_on_lasso():
    # 50 random instances (m=10, n=20) at lam in {0.01, 0.1, 1}: the ADMM
    # objective is within 1e-4 of the lasso optimum, certified by a duality
    # gap (no looser than a comparison with ISTA's objective, which cannot
    # lie below the optimum; tests/test_solver.py keeps ISTA as a reference)
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for trial in range(50):
        X = rng.standard_normal((10, 20))
        y = rng.standard_normal(10)
        for lam in (0.01, 0.1, 1.0):
            out = solve_ar_squared(
                X, y, AtomicSet.sparse(),
                SolverConfig(lam=lam, epsilon=1e-9, max_iter=200_000),
            )
            assert lasso_duality_gap(X, y, out.coefficients, lam) <= 1e-4
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_hq_passes_never_increase_subproblem_objective():
    # 50 random z-subproblems at fixed sigma, stepped one weighted-ridge
    # pass at a time; g(z) = mrlf(y - Xz) + mu/2 ||z - v||^2 is monotone
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    impl = kernels.active()
    for trial in range(50):
        m, n = int(rng.integers(5, 25)), int(rng.integers(3, 20))
        X = rng.standard_normal((m, n))
        y = rng.standard_normal(m) * rng.uniform(0.5, 3.0)
        v = rng.standard_normal(n)
        sigma = float(rng.uniform(0.3, 2.0))
        mu = float(rng.uniform(0.05, 1.0))
        Xt = np.ascontiguousarray(X.T)
        woodbury = m < n
        XXt = X @ Xt if woodbury else np.zeros((0, 0))
        z = np.zeros(n)

        def g(z):
            return mrlf(y - X @ z, sigma) + 0.5 * mu * float((z - v) @ (z - v))

        prev = g(z)
        for _ in range(10):
            z, _ = impl.hq_inner(X, Xt, XXt, y, v, mu, sigma, z, 1e-14, 1, woodbury)
            cur = g(z)
            assert cur <= prev + 1e-10
            prev = cur
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.slow
def test_criterion_4_converged_implies_both_gaps_below_tolerance():
    # whenever a solve reports converged=True, the final consensus gap
    # ||c - z||_inf and step ||delta c||_inf are both under epsilon = 1e-7
    rng = np.random.default_rng(4)
    seen_converged = 0
    for trial in range(12):
        m, n = 15, int(rng.integers(5, 25))
        X = rng.standard_normal((m, n))
        X /= np.linalg.norm(X, axis=0)
        y = rng.standard_normal(m)
        modal = solve_mrar(
            X, y, AtomicSet.sparse(),
            SolverConfig(lam=1e-2, epsilon=1e-7, max_iter=50_000,
                         loss=ModalLoss.adaptive()),
        )
        squared = solve_ar_squared(
            X, y, AtomicSet.sparse(),
            SolverConfig(lam=1e-2, epsilon=1e-7, max_iter=50_000),
        )
        for out in (modal, squared):
            if out.converged:
                seen_converged += 1
                assert out.history.gap[-1] < 1e-7
                assert out.history.step[-1] < 1e-7
    assert seen_converged > 0


def test_criterion_5_mode_of_contaminated_mixture_sits_at_zero():
    # 10,000 draws from 0.9 N(0, 0.1^2) + 0.1 N(5, 0.1^2): the minority
    # bump must not drag the estimated mode away from 0
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    samples = np.concatenate([
        rng.normal(0.0, 0.1, 9000),
        rng.normal(5.0, 0.1, 1000),
    ])
    mode = estimate_mode(Kernel.gaussian(0.1), samples)
    assert abs(mode) < 0.05
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.slow
def test_criterion_6_modal_loss_wins_under_impulsive_corruption():
    # K=10 classes, d=5, m=100, 30 train / 20 test per class, 10 seeds:
    # clean accuracy >= 0.95 for both SRC and MRSRC; at 40% corruption
    # (uniform over +-5x signal scale) MRSRC leads SRC by >= 5 points
    t0 = time.perf_counter()
    # solver budgets chosen so accuracies match much tighter settings while
    # the 10-seed sweep stays inside the wall-clock budget
    src = ClassifierSpec(
        "SRC", 1e-3,
        solver=SolverConfig(lam=1e-3, mu=1.0, epsilon=3e-4, max_iter=600),
    )
    mrsrc = ClassifierSpec(
        "MRSRC", 1e-3, ModalLoss.adaptive(),
        SolverConfig(lam=1e-3, mu=1.0, epsilon=1e-4, max_iter=100,
                     loss=ModalLoss.adaptive()),
    )

    def accuracy(dictionary, queries, labels, spec):
        hits = 0
        for q in range(queries.shape[1]):
            hits += classify(dictionary, queries[:, q], spec).label == labels[q]
        return hits / queries.shape[1]

    acc = {("SRC", "clean"): [], ("SRC", "corrupted"): [],
           ("MRSRC", "clean"): [], ("MRSRC", "corrupted"): []}
    for seed in range(10):
        train, test = gen_subspace_data(
            SyntheticSpec(10, 5, 100, 30, 20, seed=seed)
        )
        dictionary = Dictionary.from_samples(train.samples, train.labels)
        scale = float(np.std(test.samples))
        noisy = corrupt(
            test, PixelCorruption(0.4, (-5.0 * scale, 5.0 * scale), seed=777 + seed)
        )
        labels = [int(v) for v in test.labels]
        for name, spec in (("SRC", src), ("MRSRC", mrsrc)):
            acc[name, "clean"].append(accuracy(dictionary, test.samples, labels, spec))
            acc[name, "corrupted"].append(accuracy(dictionary, noisy.samples, labels, spec))

    means = {k: float(np.mean(v)) for k, v in acc.items()}
    assert means["SRC", "clean"] >= 0.95, means
    assert means["MRSRC", "clean"] >= 0.95, means
    assert means["MRSRC", "corrupted"] - means["SRC", "corrupted"] >= 0.05, means
    assert time.perf_counter() - t0 < 180.0


def test_criterion_7_joint_solver_ties_rows_and_matches_single_modality():
    # (a) planted 2-modality recovery: the nonzero-row pattern (threshold
    # 1e-4) is identical across columns on >= 19 of 20 seeded instances;
    # (b) duplicating one modality reproduces the single-modality label
    cfg = SolverConfig(lam=1e-2, epsilon=1e-6, max_iter=20_000,
                       loss=ModalLoss.adaptive())
    matches = 0
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        n, sizes = 30, (18, 15)
        support = rng.choice(n, size=4, replace=False)
        Xs, ys = [], []
        for m in sizes:
            X = rng.standard_normal((m, n))
            X /= np.linalg.norm(X, axis=0)
            coeff = np.zeros(n)
            coeff[support] = rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
            Xs.append(X)
            ys.append(X @ coeff)
        out = solve_mrar_multimodal(Xs, ys, AtomicSet.joint_rows(), cfg)
        pattern = np.abs(out.coefficients) > 1e-4
        if pattern.any() and np.array_equal(pattern[:, 0], pattern[:, 1]):
            matches += 1
    assert matches >= 19

    jspec = ClassifierSpec("MRJSRC", 1e-3, ModalLoss.adaptive(), cfg)
    uspec = ClassifierSpec("MRSRC", 1e-3, ModalLoss.adaptive(), cfg)
    agree = 0
    for seed in range(20):
        train, test = gen_subspace_data(SyntheticSpec(4, 3, 30, 8, 1, seed=seed))
        dictionary = Dictionary.from_samples(train.samples, train.labels)
        y = test.samples[:, seed % test.n_samples]
        single = classify(dictionary, y, uspec).label
        doubled = classify_multimodal([dictionary, dictionary], [y, y], jspec).label
        agree += single == doubled
    assert agree == 20


@pytest.mark.slow
def test_criterion_8_degeneracy_identities_hold():
    rng = np.random.default_rng(8)

    # singleton blocks reduce the block penalty to the sparse one
    for trial in range(5):
        X = rng.standard_normal((12, 18))
        X /= np.linalg.norm(X, axis=0)
        y = rng.standard_normal(12)
        singles = AtomicSet.block(Partition.singletons(18))
        modal_cfg = SolverConfig(lam=1e-2, epsilon=1e-7, max_iter=20_000,
                                 loss=ModalLoss.adaptive())
        sq_cfg = SolverConfig(lam=1e-2, epsilon=1e-7, max_iter=20_000)
        a = solve_mrar(X, y, singles, modal_cfg).coefficients
        b = solve_mrar(X, y, AtomicSet.sparse(), modal_cfg).coefficients
        assert np.max(np.abs(a - b)) <= 1e-6
        a = solve_ar_squared(X, y, singles, sq_cfg).coefficients
        b = solve_ar_squared(X, y, AtomicSet.sparse(), sq_cfg).coefficients
        assert np.max(np.abs(a - b)) <= 1e-6

    # a single modality reduces the joint-rows penalty to the sparse one
    for trial in range(5):
        X = rng.standard_normal((10, 16))
        X /= np.linalg.norm(X, axis=0)
        y = rng.standard_normal(10)
        modal_cfg = SolverConfig(lam=1e-2, epsilon=1e-7, max_iter=20_000,
                                 loss=ModalLoss.adaptive())
        sq_cfg = SolverConfig(lam=1e-2, epsilon=1e-7, max_iter=20_000)
        joint = solve_mrar_multimodal([X], [y], AtomicSet.joint_rows(), modal_cfg)
        flat = solve_mrar(X, y, AtomicSet.sparse(), modal_cfg)
        assert np.max(np.abs(joint.coefficients[:, 0] - flat.coefficients)) <= 1e-6
        joint = solve_ar_squared_multimodal([X], [y], AtomicSet.joint_rows(), sq_cfg)
        flat = solve_ar_squared(X, y, AtomicSet.sparse(), sq_cfg)
        assert np.max(np.abs(joint.coefficients[:, 0] - flat.coefficients)) <= 1e-6

    # the ridge closed form satisfies its normal equations
    for trial in range(10):
        A = rng.standard_normal((10, 15))
        y = rng.standard_normal(10)
        lam = float(rng.uniform(0.01, 1.0))
        c = solve_crc(A, y, lam)
        residual = (A.T @ A + lam * np.eye(15)) @ c - A.T @ y
        assert np.max(np.abs(residual)) <= 1e-8

    # per-class least-squares residuals match the normal-equation oracle
    for trial in range(5):
        d = Dictionary.from_samples(
            rng.standard_normal((12, 9)), np.repeat([0, 1, 2], 3)
        )
        y = rng.standard_normal(12)
        res = classify_lrc(d, y)
        for k in range(3):
            Ak = d.atoms[:, d.columns_of_class(k)]
            ck = np.linalg.solve(Ak.T @ Ak, Ak.T @ y)
            assert abs(res.residuals[k] - np.linalg.norm(y - Ak @ ck)) <= 1e-8


def test_criterion_9_bench_runs_are_byte_identical(tmp_path):
    cfg = {
        "data": {
            "synthetic": {
                "classes": 4, "subspace_dim": 2, "ambient_dim": 20,
                "per_class_train": 6, "per_class_test": 3,
            }
        },
        "methods": [
            {"name": "CRC"},
            {"name": "SRC", "epsilon": 1e-5, "max_iter": 3000},
            {"name": "MRSRC", "epsilon": 1e-4, "max_iter": 200},
        ],
        "noise": [
            {"kind": "pixel_corruption", "fraction": 0.0},
            {"kind": "pixel_corruption", "fraction": 0.3, "range": [-2, 2]},
        ],
        "repeats": 2,
        "seed": 7,
        "record_timing": False,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    first = (out_a / "results.csv").read_bytes()
    second = (out_b / "results.csv").read_bytes()
    assert first == second
    assert first.decode().count("\n") == 1 + 3 * 2 * 2
