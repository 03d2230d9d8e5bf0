from dataclasses import replace

import numpy as np
import pytest

from mrarc.atomic import AtomicSet, Partition
from mrarc.classify import (
    METHODS,
    MULTIMODAL_METHODS,
    UNIMODAL_METHODS,
    ClassifierSpec,
    Dictionary,
    classify,
    classify_lrc,
    classify_multimodal,
    restrict_to_class,
)
from mrarc.errors import (
    DimensionMismatch,
    EmptyQuerySet,
    InconsistentModalities,
    IndexOutOfRange,
)
from mrarc.modal import ModalLoss
from mrarc.solver import (
    SolverConfig,
    SquaredLoss,
    solve_crc,
    solve_mrar,
    solve_mrar_multimodal,
)

from _oracles import class_residuals


def _orthogonal_subspace_dictionary(rng, n_classes=3, block=4, per_class=5):
    """Classes live in disjoint coordinate blocks, so cross-class residuals
    cannot vanish; queries inside one block are unambiguous."""
    m = n_classes * block
    cols, labels = [], []
    for k in range(n_classes):
        basis = np.linalg.qr(rng.standard_normal((block, block)))[0]
        for j in range(per_class):
            col = np.zeros(m)
            col[k * block : (k + 1) * block] = basis @ rng.standard_normal(block)
            cols.append(col)
            labels.append(k)
    return Dictionary.from_samples(np.array(cols).T, np.array(labels))


def _query_in_class(rng, dictionary, k, scale=1.0):
    cols = dictionary.columns_of_class(k)
    w = rng.uniform(0.5, 1.5, cols.size)
    y = dictionary.atoms[:, cols] @ w
    return scale * y / np.linalg.norm(y)


FAST = SolverConfig(lam=1e-3, epsilon=1e-5, max_iter=2000)


# ---------------------------------------------------------------------------
# dictionary
# ---------------------------------------------------------------------------


def test_dictionary_from_samples_normalizes_columns():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((6, 5)) * 7.0
    d = Dictionary.from_samples(S, np.array([0, 0, 1, 1, 1]))
    np.testing.assert_allclose(
        np.linalg.norm(d.atoms, axis=0), np.ones(5), rtol=0, atol=1e-12
    )
    assert d.n_classes == 2 and d.n_atoms == 5


def test_dictionary_rejects_unnormalized_atoms():
    with pytest.raises(ValueError):
        Dictionary(np.eye(3) * 2.0, np.array([0, 1, 2]), 3)


def test_dictionary_rejects_zero_column():
    S = np.eye(3)
    S[:, 1] = 0.0
    with pytest.raises(ValueError):
        Dictionary.from_samples(S, np.array([0, 1, 2]))


def test_dictionary_rejects_empty_class():
    with pytest.raises(ValueError):
        Dictionary(np.eye(3), np.array([0, 0, 2]), 3)


def test_dictionary_rejects_label_count_mismatch():
    with pytest.raises(DimensionMismatch):
        Dictionary(np.eye(3), np.array([0, 1]), 2)


def test_columns_of_class_bounds():
    d = Dictionary(np.eye(3), np.array([0, 1, 1]), 2)
    np.testing.assert_array_equal(d.columns_of_class(1), [1, 2])
    with pytest.raises(IndexOutOfRange):
        d.columns_of_class(2)
    with pytest.raises(IndexOutOfRange):
        d.columns_of_class(-1)


def test_dictionary_owns_read_only_arrays():
    rng = np.random.default_rng(2)
    S = rng.standard_normal((6, 4))
    S /= np.linalg.norm(S, axis=0)
    labels = np.array([0, 1, 0, 1])
    kept_atoms, kept_labels = S.copy(), labels.copy()
    for atoms in (S, S[:, ::1]):  # the caller's array, and a view of it
        d = Dictionary(atoms, labels, 2)
        assert not d.atoms.flags.writeable and not d.class_of.flags.writeable
        assert not np.shares_memory(d.atoms, S)
        assert not np.shares_memory(d.class_of, labels)
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 0.0
        with pytest.raises(ValueError):
            d.class_of[0] = 1
    assert S.flags.writeable and labels.flags.writeable
    S[0, 0], labels[0] = 9.0, 1
    np.testing.assert_array_equal(d.atoms, kept_atoms)
    np.testing.assert_array_equal(d.class_of, kept_labels)

    e = Dictionary.from_samples(5.0 * S, labels)
    assert not e.atoms.flags.writeable and not e.class_of.flags.writeable
    # arrays another dictionary already owns are shared, not copied
    f = Dictionary(e.atoms, e.class_of, e.n_classes)
    assert f.atoms is e.atoms and f.class_of is e.class_of


def test_dictionaries_compare_and_hash_by_identity():
    atoms, labels = np.eye(3), np.array([0, 1, 2])
    d, twin = Dictionary(atoms, labels, 3), Dictionary(atoms, labels, 3)
    assert d == d and not (d != d)
    assert d != twin and not (d == twin)
    assert hash(d) == hash(d) and hash(d) != hash(twin)
    assert {d, twin, d} == {d, twin} and len({d, twin}) == 2
    assert d in {d} and twin not in {d}


def test_constructing_a_dictionary_builds_no_plan():
    rng = np.random.default_rng(3)
    d = Dictionary.from_samples(rng.standard_normal((8, 6)), np.repeat([0, 1, 2], 2))
    plans = {"partition", "_crc_factors", "lrc_projector"}
    assert plans.isdisjoint(vars(d))
    y = rng.standard_normal(8)
    for method in ("CRC", "LRC"):
        classify(d, y, ClassifierSpec(method, lam=0.1))
    assert plans <= set(vars(d))


# ---------------------------------------------------------------------------
# coefficient masking
# ---------------------------------------------------------------------------


def test_restrict_to_class_masks_other_classes():
    d = Dictionary(np.eye(3), np.array([0, 1, 1]), 2)
    c = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(restrict_to_class(c, d, 1), [0.0, 2.0, 3.0])
    np.testing.assert_array_equal(restrict_to_class(c, d, 0), [1.0, 0.0, 0.0])


def test_restrict_to_class_partitions_coefficients():
    rng = np.random.default_rng(1)
    d = _orthogonal_subspace_dictionary(rng)
    c = rng.standard_normal(d.n_atoms)
    total = sum(restrict_to_class(c, d, k) for k in range(d.n_classes))
    np.testing.assert_array_equal(total, c)


def test_restrict_to_class_validates():
    d = Dictionary(np.eye(3), np.array([0, 1, 1]), 2)
    with pytest.raises(IndexOutOfRange):
        restrict_to_class(np.ones(3), d, 5)
    with pytest.raises(DimensionMismatch):
        restrict_to_class(np.ones(4), d, 0)


# ---------------------------------------------------------------------------
# unimodal classification
# ---------------------------------------------------------------------------


def test_exact_atom_query_recovers_its_class():
    rng = np.random.default_rng(2)
    d = _orthogonal_subspace_dictionary(rng)
    for k in range(d.n_classes):
        y = d.atoms[:, int(d.columns_of_class(k)[0])]
        res = classify(d, y, ClassifierSpec("MRSRC", lam=1e-4, solver=FAST))
        assert res.label == k
        assert res.label == int(np.argmin(res.residuals))


def test_single_class_dictionary_always_wins():
    rng = np.random.default_rng(3)
    d = Dictionary.from_samples(rng.standard_normal((5, 4)), np.zeros(4, dtype=int))
    y = rng.standard_normal(5)
    for method in UNIMODAL_METHODS:
        assert classify(d, y, ClassifierSpec(method, solver=FAST)).label == 0


def test_orthogonal_subspaces_all_methods_agree():
    rng = np.random.default_rng(4)
    d = _orthogonal_subspace_dictionary(rng, n_classes=3, block=4, per_class=5)
    for k in range(3):
        y = _query_in_class(rng, d, k)
        for method in UNIMODAL_METHODS:
            res = classify(d, y, ClassifierSpec(method, lam=1e-3, solver=FAST))
            assert res.label == k, method
            assert res.residuals.shape == (3,)


def test_classification_result_exposes_full_coefficients():
    rng = np.random.default_rng(5)
    d = _orthogonal_subspace_dictionary(rng)
    y = _query_in_class(rng, d, 1)
    res = classify(d, y, ClassifierSpec("MRSRC", solver=FAST))
    assert res.coefficients.shape == (d.n_atoms,)
    assert res.iterations > 0


def test_crc_and_lrc_take_no_iterations():
    rng = np.random.default_rng(6)
    d = _orthogonal_subspace_dictionary(rng)
    y = _query_in_class(rng, d, 0)
    for method in ("CRC", "LRC"):
        res = classify(d, y, ClassifierSpec(method))
        assert res.iterations == 0
        assert res.converged


def test_crc_keeps_one_factor_per_lambda():
    rng = np.random.default_rng(7)
    d = Dictionary.from_samples(rng.standard_normal((10, 12)), np.tile([1, 0, 2], 4))
    for y in rng.standard_normal((3, 10)):
        for lam in (1e-3, 0.5, 1e-3):
            res = classify(d, y, ClassifierSpec("CRC", lam=lam))
            np.testing.assert_array_equal(res.coefficients, solve_crc(d.atoms, y, lam))
    assert d.crc_factor(0.5) is d.crc_factor(0.5)
    assert d.crc_factor(0.5)[0] is not d.crc_factor(1e-3)[0]


def test_tie_breaks_to_lowest_class_index():
    # query orthogonal to every atom: all coefficients are exactly zero, so
    # every class leaves the identical residual and the tie is exact
    atoms = np.column_stack([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    d = Dictionary(atoms, np.array([0, 1, 2]), 3)
    y = np.array([0.0, 0.0, 0.0, 2.0])
    for method in ("SRC", "CRC", "LRC", "MRSRC"):
        res = classify(d, y, ClassifierSpec(method, solver=FAST))
        assert res.residuals[0] == res.residuals[1] == res.residuals[2]
        assert res.label == 0, method


def test_mrsrc_with_squared_loss_is_src():
    rng = np.random.default_rng(7)
    for trial in range(20):
        d = _orthogonal_subspace_dictionary(rng, n_classes=3, block=3, per_class=4)
        y = rng.standard_normal(d.atoms.shape[0])
        a = classify(d, y, ClassifierSpec("MRSRC", lam=1e-3, loss=SquaredLoss(), solver=FAST))
        b = classify(d, y, ClassifierSpec("SRC", lam=1e-3, solver=FAST))
        assert a.label == b.label
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(a.residuals, b.residuals)


def test_bsrc_accepts_custom_partition():
    rng = np.random.default_rng(8)
    d = _orthogonal_subspace_dictionary(rng, n_classes=2, block=3, per_class=3)
    y = _query_in_class(rng, d, 1)
    part = Partition.from_labels(d.class_of)
    res = classify(d, y, ClassifierSpec("BSRC", lam=1e-3, solver=FAST, block_partition=part))
    assert res.label == 1
    custom = Partition([(0, 1), (2,), (3, 4), (5,)])
    res2 = classify(d, y, ClassifierSpec("MRBSRC", lam=1e-3, solver=FAST, block_partition=custom))
    assert res2.label == 1


def test_residuals_follow_interleaved_class_labels():
    # class columns are not contiguous, so the class layout permutes them
    rng = np.random.default_rng(22)
    labels = np.tile([2, 0, 1, 0, 2, 1], 2)
    d = Dictionary.from_samples(rng.standard_normal((12, labels.size)), labels)
    for trial in range(3):
        ys = rng.standard_normal((2, d.atoms.shape[0]))
        for method in METHODS:
            sigma = 0.3 if method.startswith("MR") else None
            loss = ModalLoss.fixed(sigma) if sigma else None
            spec = ClassifierSpec(method, lam=1e-2, loss=loss, solver=FAST)
            if method in MULTIMODAL_METHODS:
                res = classify_multimodal([d, d], list(ys), spec)
                want = sum(
                    class_residuals(d.atoms, d.class_of, y, res.coefficients[:, j], sigma)
                    for j, y in enumerate(ys)
                )
            elif method == "LRC":
                res = classify(d, ys[0], spec)
                want = []
                for k in range(d.n_classes):
                    Ak = d.atoms[:, np.flatnonzero(labels == k)]
                    ck = np.linalg.lstsq(Ak, ys[0], rcond=None)[0]
                    want.append(np.linalg.norm(ys[0] - Ak @ ck))
            else:
                res = classify(d, ys[0], spec)
                want = class_residuals(d.atoms, d.class_of, ys[0], res.coefficients, sigma)
            np.testing.assert_allclose(
                res.residuals, want, rtol=1e-10, atol=1e-12, err_msg=method
            )
            assert res.label == int(np.argmin(res.residuals))
        default = classify(d, ys[0], ClassifierSpec("BSRC", lam=1e-2, solver=FAST))
        explicit = classify(d, ys[0], ClassifierSpec(
            "BSRC", lam=1e-2, solver=FAST, block_partition=Partition.from_labels(labels),
        ))
        np.testing.assert_array_equal(default.coefficients, explicit.coefficients)
        np.testing.assert_array_equal(default.residuals, explicit.residuals)


def test_result_reports_the_bandwidth_the_classes_were_scored_with():
    rng = np.random.default_rng(23)
    labels = np.repeat(np.arange(4), 5)
    d = Dictionary.from_samples(rng.standard_normal((12, labels.size)), labels)
    y = rng.standard_normal(12)
    cfg = SolverConfig(lam=1e-2, epsilon=1e-5, max_iter=2000)
    for method, aset in (
        ("MRSRC", AtomicSet.sparse()),
        ("MRBSRC", AtomicSet.block(Partition.from_labels(labels))),
        ("MRCRC", AtomicSet.collaborative()),
    ):
        for loss in (ModalLoss.adaptive(1e-2), ModalLoss.fixed(0.4)):
            res = classify(d, y, ClassifierSpec(method, lam=1e-2, loss=loss, solver=cfg))
            out = solve_mrar(d.atoms, y, aset, replace(cfg, loss=loss))
            assert isinstance(res.sigma, float)
            assert res.sigma == out.sigma
            np.testing.assert_allclose(
                res.residuals,
                class_residuals(d.atoms, labels, y, res.coefficients, res.sigma),
                rtol=1e-10, atol=1e-12, err_msg=method,
            )
    ys = [y, rng.standard_normal(12)]
    loss = ModalLoss.adaptive(1e-2)
    res = classify_multimodal([d, d], ys, ClassifierSpec("MRJSRC", lam=1e-2, loss=loss, solver=cfg))
    out = solve_mrar_multimodal([d.atoms] * 2, ys, AtomicSet.joint_rows(), replace(cfg, loss=loss))
    assert res.sigma.shape == (2,)
    np.testing.assert_array_equal(res.sigma, out.sigma)
    want = sum(
        class_residuals(d.atoms, labels, yj, res.coefficients[:, j], res.sigma[j])
        for j, yj in enumerate(ys)
    )
    np.testing.assert_allclose(res.residuals, want, rtol=1e-10, atol=1e-12)
    for method in ("SRC", "BSRC", "CRC", "LRC"):
        assert classify(d, y, ClassifierSpec(method, lam=1e-2, solver=cfg)).sigma is None
    assert classify_multimodal([d, d], ys, ClassifierSpec("JSRC", lam=1e-2, solver=cfg)).sigma is None


def test_classify_validates_inputs():
    rng = np.random.default_rng(9)
    d = _orthogonal_subspace_dictionary(rng)
    with pytest.raises(DimensionMismatch):
        classify(d, np.ones(d.atoms.shape[0] + 1), ClassifierSpec("SRC"))
    with pytest.raises(ValueError):
        ClassifierSpec("XYZ")
    with pytest.raises(ValueError):
        classify(d, np.ones(d.atoms.shape[0]), ClassifierSpec("MRJSRC"))


def test_classify_is_deterministic():
    rng = np.random.default_rng(10)
    d = _orthogonal_subspace_dictionary(rng)
    y = rng.standard_normal(d.atoms.shape[0])
    spec = ClassifierSpec("MRSRC", solver=FAST)
    a = classify(d, y, spec)
    b = classify(d, y, spec)
    assert a.label == b.label
    np.testing.assert_array_equal(a.residuals, b.residuals)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


# ---------------------------------------------------------------------------
# per-class least squares
# ---------------------------------------------------------------------------


def test_lrc_projects_onto_class_spans():
    rng = np.random.default_rng(11)
    d = _orthogonal_subspace_dictionary(rng, n_classes=3, block=4, per_class=3)
    y = _query_in_class(rng, d, 2)
    res = classify_lrc(d, y)
    assert res.label == 2
    assert res.residuals[2] <= 1e-10


def test_lrc_matches_normal_equation_oracle():
    rng = np.random.default_rng(12)
    d = Dictionary.from_samples(
        rng.standard_normal((10, 9)), np.repeat([0, 1, 2], 3)
    )
    y = rng.standard_normal(10)
    res = classify_lrc(d, y)
    for k in range(3):
        Ak = d.atoms[:, d.columns_of_class(k)]
        ck = np.linalg.solve(Ak.T @ Ak, Ak.T @ y)
        want = np.linalg.norm(y - Ak @ ck)
        assert abs(res.residuals[k] - want) <= 1e-8


def test_lrc_orthogonal_query_ties_to_class_zero():
    # dictionary spans the first 4 coordinates only; the query lives in the
    # others, so every class leaves the full query as residual
    rng = np.random.default_rng(13)
    cols, labels = [], []
    for k in range(3):
        for j in range(2):
            col = np.zeros(8)
            col[rng.integers(0, 4)] = 1.0
            col[0] += 0.1 * rng.standard_normal()
            cols.append(col)
            labels.append(k)
    d = Dictionary.from_samples(np.array(cols).T, np.array(labels))
    y = np.zeros(8)
    y[5] = 2.0
    res = classify_lrc(d, y)
    np.testing.assert_allclose(res.residuals, np.full(3, 2.0), rtol=0, atol=1e-10)
    assert res.label == 0


def test_lrc_handles_rank_deficient_class():
    atoms = np.column_stack([
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],  # duplicated atom: singular normal equations
        [0.0, 1.0, 0.0],
    ])
    d = Dictionary(atoms, np.array([0, 0, 1]), 2)
    y = np.array([1.0, 0.0, 0.0])
    res = classify_lrc(d, y)
    assert res.label == 0
    assert res.residuals[0] <= 1e-4


def test_lrc_projector_matches_lstsq_on_ill_conditioned_and_singular_classes():
    rng = np.random.default_rng(15)
    m, labels = 12, np.tile([2, 0, 1, 0, 2, 1], 2)
    S = rng.standard_normal((m, labels.size))
    # class 0 spans a badly conditioned basis, class 1 holds a duplicated atom
    U, _ = np.linalg.qr(rng.standard_normal((m, 4)))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    S[:, labels == 0] = U @ np.diag(np.logspace(0, -6, 4)) @ V
    dup = np.flatnonzero(labels == 1)
    S[:, dup[1]] = S[:, dup[0]]
    d = Dictionary.from_samples(S, labels)
    blocks = [np.flatnonzero(labels == k) for k in range(3)]
    cond = np.linalg.cond(d.atoms[:, blocks[0]])
    assert 1e5 < cond < 1e7
    assert np.linalg.matrix_rank(d.atoms[:, blocks[1]]) == blocks[1].size - 1
    # in class 0's span the codes are O(1) and fixed only to about eps * cond
    cases = [(y, 1e-12) for y in rng.standard_normal((6, m))]
    cases += [
        (d.atoms[:, cols] @ rng.standard_normal(cols.size), 10.0 * np.finfo(float).eps * cond)
        for cols in blocks
    ]
    for y, rtol in cases:
        want_c = np.zeros(d.n_atoms)
        want_res = np.empty(3)
        for k, cols in enumerate(blocks):
            want_c[cols] = np.linalg.lstsq(d.atoms[:, cols], y, rcond=None)[0]
            want_res[k] = np.linalg.norm(y - d.atoms[:, cols] @ want_c[cols])
        fits = d.lrc_projector @ y
        scale = 1.0 + np.max(np.abs(want_c))
        assert np.max(np.abs(fits - want_c)) <= rtol * scale
        res = classify_lrc(d, y)
        assert res.label == int(np.argmin(want_res))
        assert np.max(np.abs(res.residuals - want_res)) <= 1e-9 * (1.0 + np.linalg.norm(y))
        won = restrict_to_class(want_c, d, res.label)
        assert np.max(np.abs(res.coefficients - won)) <= rtol * scale


# ---------------------------------------------------------------------------
# multimodal classification
# ---------------------------------------------------------------------------


def test_multimodal_single_modality_matches_unimodal_label():
    rng = np.random.default_rng(14)
    d = _orthogonal_subspace_dictionary(rng)
    y = _query_in_class(rng, d, 1)
    for mm, um in (("MRJSRC", "MRSRC"), ("JSRC", "SRC")):
        got = classify_multimodal([d], [y], ClassifierSpec(mm, lam=1e-3, solver=FAST))
        want = classify(d, y, ClassifierSpec(um, lam=1e-3, solver=FAST))
        assert got.label == want.label
        assert got.coefficients.shape == (d.n_atoms, 1)


def test_multimodal_duplicated_modalities_keep_the_label():
    rng = np.random.default_rng(15)
    d = _orthogonal_subspace_dictionary(rng)
    y = _query_in_class(rng, d, 2)
    spec = ClassifierSpec("MRJSRC", lam=1e-3, solver=FAST)
    one = classify_multimodal([d], [y], spec)
    two = classify_multimodal([d, d], [y, y], spec)
    assert two.label == one.label
    assert two.coefficients.shape == (d.n_atoms, 2)


def test_multimodal_planted_class_recovered():
    rng = np.random.default_rng(16)
    d1 = _orthogonal_subspace_dictionary(rng)
    d2 = _orthogonal_subspace_dictionary(rng)
    for spec_name in ("MRJSRC", "JSRC"):
        spec = ClassifierSpec(spec_name, lam=1e-3, solver=FAST)
        res = classify_multimodal(
            [d1, d2],
            [_query_in_class(rng, d1, 1), _query_in_class(rng, d2, 1)],
            spec,
        )
        assert res.label == 1


def test_multimodal_validates_consistency():
    rng = np.random.default_rng(17)
    d = _orthogonal_subspace_dictionary(rng)
    other = Dictionary(np.eye(3), np.array([0, 1, 2]), 3)
    y = np.ones(d.atoms.shape[0])
    spec = ClassifierSpec("MRJSRC", solver=FAST)
    with pytest.raises(EmptyQuerySet):
        classify_multimodal([], [], spec)
    with pytest.raises(InconsistentModalities):
        classify_multimodal([d, other], [y, np.ones(3)], spec)
    with pytest.raises(ValueError):
        classify_multimodal([d], [y], ClassifierSpec("MRSRC", solver=FAST))


def test_method_rosters():
    assert set(UNIMODAL_METHODS) == {
        "MRSRC", "MRBSRC", "MRCRC", "SRC", "BSRC", "CRC", "LRC",
    }
    assert set(MULTIMODAL_METHODS) == {"MRJSRC", "JSRC"}
    assert set(METHODS) == set(UNIMODAL_METHODS) | set(MULTIMODAL_METHODS)
