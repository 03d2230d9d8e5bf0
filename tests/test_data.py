import numpy as np
import pytest

from mrarc.data import (
    BlockOcclusion,
    LabeledMatrix,
    PixelCorruption,
    SyntheticSpec,
    corrupt,
    gen_subspace_data,
    load_matrix,
    occlude,
    save_matrix,
)
from mrarc.errors import (
    GeometryMismatch,
    InvalidSpec,
    MagicMismatch,
    ParseError,
)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_gen_shapes_and_labels():
    spec = SyntheticSpec(
        n_classes=3, subspace_dim=2, ambient_dim=10,
        per_class_train=4, per_class_test=2, seed=0,
    )
    train, test = gen_subspace_data(spec)
    assert train.samples.shape == (10, 12)
    assert test.samples.shape == (10, 6)
    np.testing.assert_array_equal(train.labels, np.repeat([0, 1, 2], 4))
    np.testing.assert_array_equal(test.labels, np.repeat([0, 1, 2], 2))


def test_gen_is_deterministic_bitwise():
    spec = SyntheticSpec(2, 3, 12, 5, 3, seed=42)
    a_train, a_test = gen_subspace_data(spec)
    b_train, b_test = gen_subspace_data(spec)
    np.testing.assert_array_equal(a_train.samples, b_train.samples)
    np.testing.assert_array_equal(a_test.samples, b_test.samples)
    c_train, _ = gen_subspace_data(SyntheticSpec(2, 3, 12, 5, 3, seed=43))
    assert not np.array_equal(a_train.samples, c_train.samples)


def test_gen_rank_one_classes_are_collinear():
    spec = SyntheticSpec(3, 1, 20, 5, 2, seed=1)
    train, _ = gen_subspace_data(spec)
    for k in range(3):
        cols = train.samples[:, train.labels == k]
        unit = cols / np.linalg.norm(cols, axis=0)
        cosines = np.abs(unit.T @ unit)
        np.testing.assert_allclose(cosines, np.ones((5, 5)), rtol=0, atol=1e-10)


def test_gen_classes_span_distinct_subspaces():
    spec = SyntheticSpec(2, 2, 50, 8, 2, seed=2)
    train, _ = gen_subspace_data(spec)
    bases = []
    for k in range(2):
        cols = train.samples[:, train.labels == k]
        q, _ = np.linalg.qr(cols)
        bases.append(q[:, :2])
    overlap = np.linalg.svd(bases[0].T @ bases[1], compute_uv=False)
    assert overlap.max() < 1.0 - 1e-6


def test_gen_coeff_scale_scales_samples():
    a, _ = gen_subspace_data(SyntheticSpec(2, 2, 10, 3, 1, coeff_scale=1.0, seed=3))
    b, _ = gen_subspace_data(SyntheticSpec(2, 2, 10, 3, 1, coeff_scale=2.5, seed=3))
    np.testing.assert_allclose(b.samples, 2.5 * a.samples, rtol=1e-12, atol=0)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        SyntheticSpec(0, 2, 10, 3, 1)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(2, 10, 10, 3, 1)  # subspace_dim must stay below ambient
    with pytest.raises(InvalidSpec):
        SyntheticSpec(2, 2, 10, 0, 1)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(2, 2, 10, 3, 0)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(2, 2, 10, 3, 1, coeff_scale=0.0)


_COUNTS = ("n_classes", "subspace_dim", "ambient_dim", "per_class_train", "per_class_test")


@pytest.mark.parametrize(
    "bad", [True, np.True_, 3.0, 2.5, "3"], ids=["bool", "np_bool", "whole_float", "float", "str"]
)
@pytest.mark.parametrize("field", _COUNTS)
def test_spec_counts_must_be_integers(field, bad):
    # True would otherwise pass as the count 1, and 3.0 as 3
    counts = dict(zip(_COUNTS, (2, 2, 10, 3, 1)))
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        SyntheticSpec(**{**counts, field: bad})
    counts[field] = np.int64(counts[field])  # numpy integers are integers
    assert SyntheticSpec(**counts) == SyntheticSpec(2, 2, 10, 3, 1)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_spec_coeff_scale_is_no_boolean(flag):
    with pytest.raises(TypeError, match="coeff_scale must be a number"):
        SyntheticSpec(2, 2, 10, 3, 1, coeff_scale=flag)


def test_labeled_matrix_validation():
    with pytest.raises(ValueError):
        LabeledMatrix(np.eye(3), np.array([0, 1]))
    with pytest.raises(GeometryMismatch):
        LabeledMatrix(np.zeros((6, 2)), None, image_shape=(2, 2))
    lm = LabeledMatrix(np.zeros((6, 2)), None, image_shape=(2, 3))
    assert lm.n_samples == 2


# ---------------------------------------------------------------------------
# block occlusion
# ---------------------------------------------------------------------------


def _image_matrix(rng, h, w, n):
    samples = rng.uniform(0.0, 255.0, (h * w, n))
    labels = np.zeros(n, dtype=int)
    return LabeledMatrix(samples, labels, image_shape=(h, w))


def test_occlude_zero_fraction_is_identity():
    rng = np.random.default_rng(0)
    x = _image_matrix(rng, 6, 7, 3)
    out = occlude(x, BlockOcclusion(0.0, seed=1))
    np.testing.assert_array_equal(out.samples, x.samples)


def test_occlude_full_fraction_rewrites_every_pixel():
    rng = np.random.default_rng(1)
    x = _image_matrix(rng, 8, 8, 4)
    out = occlude(x, BlockOcclusion(1.0, fill_range=(300.0, 400.0), seed=2))
    assert np.all(out.samples >= 300.0) and np.all(out.samples <= 400.0)


def test_occlude_square_size_follows_area_fraction():
    # side = round(sqrt(0.2 * 48 * 42)) = 20, so exactly 400 pixels change
    rng = np.random.default_rng(2)
    x = _image_matrix(rng, 48, 42, 5)
    out = occlude(x, BlockOcclusion(0.2, fill_range=(300.0, 400.0), seed=3))
    changed = out.samples != x.samples
    np.testing.assert_array_equal(changed.sum(axis=0), np.full(5, 400))


def test_occluded_region_is_a_contiguous_square():
    rng = np.random.default_rng(3)
    h, w = 12, 15
    x = _image_matrix(rng, h, w, 4)
    out = occlude(x, BlockOcclusion(0.25, fill_range=(300.0, 400.0), seed=4))
    for j in range(4):
        mask = (out.samples[:, j] != x.samples[:, j]).reshape(h, w)
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        side = rows.size
        assert cols.size == side
        assert np.array_equal(rows, np.arange(rows[0], rows[0] + side))
        assert np.array_equal(cols, np.arange(cols[0], cols[0] + side))
        assert mask.sum() == side * side


def test_occlude_preserves_pixels_outside_square():
    rng = np.random.default_rng(4)
    x = _image_matrix(rng, 10, 10, 2)
    out = occlude(x, BlockOcclusion(0.16, fill_range=(300.0, 400.0), seed=5))
    changed = out.samples != x.samples
    unchanged = ~changed
    np.testing.assert_array_equal(
        out.samples[unchanged], x.samples[unchanged]
    )


def test_occlude_patch_fill_copies_patch():
    rng = np.random.default_rng(5)
    x = _image_matrix(rng, 10, 10, 3)
    patch = np.arange(16.0).reshape(4, 4) + 1000.0
    spec = BlockOcclusion(0.16, fill="patch", patch=patch, seed=6)
    out = occlude(x, spec)  # side = round(sqrt(0.16*100)) = 4 = patch side
    for j in range(3):
        mask = (out.samples[:, j] != x.samples[:, j]).reshape(10, 10)
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        got = out.samples[:, j].reshape(10, 10)[np.ix_(rows, cols)]
        np.testing.assert_array_equal(got, patch)


def test_occlude_is_deterministic_in_seed():
    rng = np.random.default_rng(6)
    x = _image_matrix(rng, 9, 9, 4)
    a = occlude(x, BlockOcclusion(0.3, seed=7))
    b = occlude(x, BlockOcclusion(0.3, seed=7))
    np.testing.assert_array_equal(a.samples, b.samples)
    c = occlude(x, BlockOcclusion(0.3, seed=8))
    assert not np.array_equal(a.samples, c.samples)


def test_occlude_requires_geometry():
    x = LabeledMatrix(np.zeros((12, 2)), None)  # no image shape
    with pytest.raises(GeometryMismatch):
        occlude(x, BlockOcclusion(0.5, seed=0))
    rng = np.random.default_rng(7)
    thin = _image_matrix(rng, 48, 42, 1)
    with pytest.raises(GeometryMismatch):
        occlude(thin, BlockOcclusion(1.0, seed=0))  # side 45 > min(h, w)


def test_occlusion_spec_validation():
    with pytest.raises(ValueError):
        BlockOcclusion(-0.1)
    with pytest.raises(ValueError):
        BlockOcclusion(1.5)
    with pytest.raises(ValueError):
        BlockOcclusion(0.5, fill="patch", patch=None)
    with pytest.raises(ValueError):
        BlockOcclusion(0.5, fill_range=(10.0, 5.0))


# ---------------------------------------------------------------------------
# pixel corruption
# ---------------------------------------------------------------------------


def test_corrupt_zero_fraction_is_identity():
    rng = np.random.default_rng(8)
    x = LabeledMatrix(rng.uniform(0, 255, (20, 3)), np.zeros(3, dtype=int))
    out = corrupt(x, PixelCorruption(0.0, seed=9))
    np.testing.assert_array_equal(out.samples, x.samples)


def test_corrupt_full_fraction_replaces_everything():
    rng = np.random.default_rng(9)
    x = LabeledMatrix(rng.uniform(0, 255, (20, 3)), np.zeros(3, dtype=int))
    out = corrupt(x, PixelCorruption(1.0, value_range=(300.0, 400.0), seed=10))
    assert np.all(out.samples >= 300.0) and np.all(out.samples <= 400.0)


def test_corrupt_replaces_exact_count_per_column():
    # round-half-up of 0.3 * 504 = 151 coordinates per column
    rng = np.random.default_rng(10)
    x = LabeledMatrix(rng.uniform(0, 255, (504, 6)), np.zeros(6, dtype=int))
    out = corrupt(x, PixelCorruption(0.3, value_range=(300.0, 400.0), seed=11))
    changed = out.samples != x.samples
    np.testing.assert_array_equal(changed.sum(axis=0), np.full(6, 151))
    unchanged = ~changed
    np.testing.assert_array_equal(out.samples[unchanged], x.samples[unchanged])


def test_corrupt_rounds_half_up():
    rng = np.random.default_rng(11)
    x = LabeledMatrix(rng.uniform(0, 255, (10, 2)), np.zeros(2, dtype=int))
    out = corrupt(x, PixelCorruption(0.25, value_range=(300.0, 400.0), seed=12))
    changed = out.samples != x.samples  # 0.25 * 10 = 2.5 -> 3
    np.testing.assert_array_equal(changed.sum(axis=0), np.full(2, 3))


def test_corrupt_is_deterministic_in_seed():
    rng = np.random.default_rng(12)
    x = LabeledMatrix(rng.uniform(0, 255, (30, 4)), np.zeros(4, dtype=int))
    a = corrupt(x, PixelCorruption(0.4, seed=13))
    b = corrupt(x, PixelCorruption(0.4, seed=13))
    np.testing.assert_array_equal(a.samples, b.samples)


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        PixelCorruption(-0.01)
    with pytest.raises(ValueError):
        PixelCorruption(1.01)
    with pytest.raises(ValueError):
        PixelCorruption(0.5, value_range=(1.0, 0.0))


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(13)
    x = LabeledMatrix(rng.standard_normal((7, 5)), np.array([0, 1, 2, 1, 0]))
    p = tmp_path / "data.csv"
    save_matrix(x, p)
    back = load_matrix(p)
    np.testing.assert_array_equal(back.samples, x.samples)
    np.testing.assert_array_equal(back.labels, x.labels)


def test_csv_known_fixture(tmp_path):
    p = tmp_path / "fixture.csv"
    p.write_text("1.5,-2.0,0.25,0\n3.0,4.0,-1.0,2\n")
    lm = load_matrix(p)
    np.testing.assert_array_equal(
        lm.samples, np.array([[1.5, 3.0], [-2.0, 4.0], [0.25, -1.0]])
    )
    np.testing.assert_array_equal(lm.labels, [0, 2])


def test_csv_header_row_is_a_parse_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,label\n1.0,2.0,0\n")
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert "line 1" in str(err.value)


def test_csv_ragged_rows_are_a_parse_error(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0,0\n1.0,2.0,3.0,0\n")
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert "line 2" in str(err.value)


def test_csv_fractional_label_is_a_parse_error(tmp_path):
    p = tmp_path / "fraclabel.csv"
    p.write_text("1.0,2.0,0.5\n")
    with pytest.raises(ParseError):
        load_matrix(p)


def test_csv_empty_file_is_a_parse_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_matrix(p)


def test_raw_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(14)
    x = LabeledMatrix(rng.standard_normal((9, 4)), np.array([0, 0, 1, 1]))
    p = tmp_path / "data.raw"
    save_matrix(x, p)
    back = load_matrix(p)
    np.testing.assert_array_equal(back.samples, x.samples)
    np.testing.assert_array_equal(back.labels, x.labels)


def test_raw_round_trip_without_labels(tmp_path):
    rng = np.random.default_rng(15)
    x = LabeledMatrix(rng.standard_normal((5, 3)), None)
    p = tmp_path / "unl.raw"
    save_matrix(x, p)
    back = load_matrix(p)
    np.testing.assert_array_equal(back.samples, x.samples)
    assert back.labels is None


def test_raw_header_layout(tmp_path):
    x = LabeledMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]))
    p = tmp_path / "layout.raw"
    save_matrix(x, p)
    blob = p.read_bytes()
    assert blob[:6] == b"MRARC1"
    m, n, has = np.frombuffer(blob[6:18], dtype="<u4")
    assert (m, n, has) == (2, 2, 1)
    doubles = np.frombuffer(blob[18 : 18 + 32], dtype="<f8")
    np.testing.assert_array_equal(doubles, [1.0, 3.0, 2.0, 4.0])  # column-major
    labels = np.frombuffer(blob[18 + 32 :], dtype="<u4")
    np.testing.assert_array_equal(labels, [0, 1])


def test_raw_wrong_magic(tmp_path):
    p = tmp_path / "junk.raw"
    p.write_bytes(b"NOTME1" + b"\x00" * 32)
    with pytest.raises(MagicMismatch):
        load_matrix(p)


def test_raw_truncated_payload(tmp_path):
    x = LabeledMatrix(np.ones((4, 3)), None)
    p = tmp_path / "trunc.raw"
    save_matrix(x, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert "byte" in str(err.value)


def test_raw_trailing_garbage(tmp_path):
    x = LabeledMatrix(np.ones((2, 2)), None)
    p = tmp_path / "extra.raw"
    save_matrix(x, p)
    p.write_bytes(p.read_bytes() + b"\x00\x00")
    with pytest.raises(ParseError):
        load_matrix(p)


def test_format_inferred_from_extension(tmp_path):
    x = LabeledMatrix(np.ones((3, 2)), np.array([0, 1]))
    raw = tmp_path / "t.raw"
    csv = tmp_path / "t.csv"
    save_matrix(x, raw)
    save_matrix(x, csv)
    assert raw.read_bytes()[:6] == b"MRARC1"
    assert csv.read_text().splitlines()[0].endswith(",0")


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_matrix(tmp_path / "absent.csv")
