import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlab.cli import main
from freqlab.data import (
    IdxFormatError,
    PowerIterationError,
    center,
    leading_eigenvector,
    load_idx_bytes,
    load_image_set,
    parse_idx_images,
    parse_idx_labels,
    pca_project,
    project_rescale,
    synthetic_image_set,
)


def build_idx_images(matrix_784xN=None, count=2, rows=28, cols=28, pixels=None):
    if pixels is None:
        pixels = np.zeros(count * rows * cols, dtype=np.uint8)
    header = struct.pack(">IIII", 0x00000803, count, rows, cols)
    return header + bytes(pixels)


def build_idx_labels(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


class TestIdxImages:
    def test_minimal_container(self):
        raw = build_idx_images(count=2, rows=28, cols=28)
        X = parse_idx_images(raw)
        assert X.shape == (784, 2)
        assert np.array_equal(X, np.zeros((784, 2)))

    def test_roundtrip_random_pixels(self):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=3 * 4 * 5, dtype=np.uint8)
        X = parse_idx_images(build_idx_images(count=3, rows=4, cols=5, pixels=pixels))
        assert X.shape == (20, 3)
        assert np.array_equal(X, pixels.reshape(3, 20).T / 255.0)

    def test_bad_magic(self):
        raw = struct.pack(">IIII", 0x00000802, 1, 2, 2) + bytes(4)
        with pytest.raises(IdxFormatError):
            parse_idx_images(raw)

    def test_truncated_payload(self):
        raw = build_idx_images(count=2, rows=28, cols=28)[:-100]
        with pytest.raises(IdxFormatError):
            parse_idx_images(raw)

    def test_values_normalized_to_unit_interval(self):
        pixels = np.array([0, 128, 255, 7], dtype=np.uint8)
        X = parse_idx_images(build_idx_images(count=1, rows=2, cols=2, pixels=pixels))
        assert X.min() >= 0.0 and X.max() <= 1.0
        assert X[2, 0] == 1.0


class TestIdxLabels:
    def test_parse(self):
        assert np.array_equal(parse_idx_labels(build_idx_labels([7, 0, 9])), [7, 0, 9])

    def test_empty(self):
        assert parse_idx_labels(build_idx_labels([])).shape == (0,)

    def test_out_of_range_label(self):
        with pytest.raises(IdxFormatError):
            parse_idx_labels(build_idx_labels([3, 12]))

    def test_bad_magic(self):
        with pytest.raises(IdxFormatError):
            parse_idx_labels(struct.pack(">II", 0x00000803, 0))

    def test_truncated(self):
        with pytest.raises(IdxFormatError):
            parse_idx_labels(struct.pack(">II", 0x00000801, 10) + bytes(3))


class TestLoading:
    def test_gzip_transparent(self, tmp_path):
        raw = build_idx_labels([1, 2, 3])
        plain = tmp_path / "labels.idx"
        plain.write_bytes(raw)
        packed = tmp_path / "labels.idx.gz"
        packed.write_bytes(gzip.compress(raw))
        assert load_idx_bytes(plain) == raw
        assert load_idx_bytes(packed) == raw

    def test_load_image_set_count_mismatch(self, tmp_path):
        (tmp_path / "im").write_bytes(build_idx_images(count=2))
        (tmp_path / "lb").write_bytes(build_idx_labels([1, 2, 3]))
        with pytest.raises(IdxFormatError):
            load_image_set(tmp_path / "im", tmp_path / "lb")

    @pytest.mark.parametrize("images,labels", [
        (b"not an idx file", build_idx_labels([1, 2])),
        (build_idx_images(count=2), build_idx_labels([1, 12])),
        (build_idx_images(count=2), gzip.compress(build_idx_labels([1, 2]))[:-12]),
        (build_idx_images(count=2), gzip.compress(build_idx_labels([1, 2]))[:-6] + b"\0" * 6),
    ], ids=["bad-magic", "label-out-of-range", "truncated-gzip", "bad-gzip-crc"])
    def test_malformed_dataset_file_exits_2(self, tmp_path, capsys, images, labels):
        (tmp_path / "im").write_bytes(images)
        (tmp_path / "lb").write_bytes(labels)
        code = main(["mnist-pca", "--preset", "desk-mnist-pca", "--mnist-images", str(tmp_path / "im"),
                     "--mnist-labels", str(tmp_path / "lb"), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_load_image_set_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=2 * 784, dtype=np.uint8)
        (tmp_path / "im").write_bytes(build_idx_images(count=2, pixels=pixels))
        (tmp_path / "lb").write_bytes(build_idx_labels([4, 7]))
        images = load_image_set(tmp_path / "im", tmp_path / "lb")
        assert images.num_samples == 2
        assert np.array_equal(images.labels, [4, 7])
        onehot = images.onehot()
        assert onehot.shape == (10, 2)
        assert onehot[4, 0] == 1.0 and onehot[7, 1] == 1.0
        assert onehot.sum() == 2.0


class TestCenter:
    def test_identical_columns_become_zero(self):
        col = np.arange(5.0).reshape(-1, 1)
        X = np.hstack([col, col, col])
        assert np.array_equal(center(X), np.zeros((5, 3)))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 9))
        assert np.allclose(center(center(X)), center(X), atol=1e-14)

    def test_two_columns_hand_case(self):
        a = np.array([2.0, 4.0])
        b = np.array([0.0, 8.0])
        Xc = center(np.column_stack([a, b]))
        assert np.allclose(Xc[:, 0], (a - b) / 2)
        assert np.allclose(Xc[:, 1], (b - a) / 2)

    def test_sample_mean_is_zero(self):
        rng = np.random.default_rng(3)
        Xc = center(rng.standard_normal((10, 40)) + 5.0)
        assert np.max(np.abs(Xc.mean(axis=1))) < 1e-10


class TestLeadingEigenvector:
    def test_rank_one_axis(self):
        rng = np.random.default_rng(4)
        X = np.zeros((6, 30))
        X[0] = rng.standard_normal(30)
        v = leading_eigenvector(X)
        assert abs(abs(v[0]) - 1.0) < 1e-10
        assert np.max(np.abs(v[1:])) < 1e-10

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 50))
        v = leading_eigenvector(X)
        C = X @ X.T
        w, V = np.linalg.eigh(C)
        top = V[:, -1]
        assert abs(v @ top) > 1 - 1e-8
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 40))
        v = leading_eigenvector(X)
        assert v[np.argmax(np.abs(v))] > 0

    def test_degenerate_top_pair_still_converges_by_residual(self):
        # two equal top eigenvalues: any unit vector in the top plane passes
        X = np.diag([2.0, 2.0, 0.5])  # C = diag(4, 4, 0.25)
        v = leading_eigenvector(X, tol=1e-10)
        C = X @ X.T
        lam = v @ C @ v
        assert np.linalg.norm(C @ v - lam * v) <= 1e-10 * lam
        assert abs(v[2]) < 1e-8

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            leading_eigenvector(np.zeros((4, 4)))

    def test_nonconvergence_reports_residual(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 30))
        with pytest.raises(PowerIterationError) as err:
            leading_eigenvector(X, tol=1e-10, max_iters=1)
        assert err.value.residual > 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_rayleigh_quotient_dominates_random_directions(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((8, 25))
        v = leading_eigenvector(X)
        C = X @ X.T
        top = v @ C @ v
        for _ in range(10):
            u = rng.standard_normal(8)
            u /= np.linalg.norm(u)
            assert top >= u @ C @ u - 1e-8 * top


class TestProjectRescale:
    def test_endpoints(self):
        X = np.array([[2.0, 4.0, 6.0]])
        out = project_rescale(X, np.array([1.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 12))
        d = rng.standard_normal(5)
        base = project_rescale(X, d)
        scaled = project_rescale(3.0 * X + 7.0, d)  # positive scale + shift
        assert np.allclose(base, scaled, atol=1e-12)

    def test_negative_scale_reverses(self):
        X = np.array([[2.0, 4.0, 6.0]])
        out = project_rescale(-1.0 * X, np.array([1.0]))
        assert np.allclose(out, [1.0, 0.5, 0.0])

    def test_constant_projection_rejected(self):
        X = np.ones((3, 4))
        with pytest.raises(ValueError):
            project_rescale(X, np.array([1.0, 1.0, 1.0]))

    def test_min_zero_max_one_attained(self):
        rng = np.random.default_rng(9)
        out = project_rescale(rng.standard_normal((6, 20)), rng.standard_normal(6))
        assert out.min() == 0.0 and out.max() == 1.0
        assert np.all((out >= 0) & (out <= 1))


class TestPipeline:
    def test_synthetic_set_properties(self):
        images = synthetic_image_set(100, seed=3)
        assert images.images.shape == (784, 100)
        assert images.images.min() >= 0.0 and images.images.max() <= 1.0
        assert set(np.unique(images.labels)) == {0, 1}

    def test_synthetic_deterministic(self):
        a = synthetic_image_set(50, seed=11)
        b = synthetic_image_set(50, seed=11)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_pca_projection_separates_blobs(self):
        images = synthetic_image_set(200, seed=4)
        coords = pca_project(images, seed=4)
        assert coords.min() == 0.0 and coords.max() == 1.0
        left = coords[images.labels == 0]
        right = coords[images.labels == 1]
        if left.mean() > right.mean():
            left, right = right, left
        assert left.max() < right.min()  # blobs are linearly separated on the axis

    def test_pipeline_deterministic(self):
        images = synthetic_image_set(80, seed=5)
        a = pca_project(images, seed=5)
        b = pca_project(images, seed=5)
        assert np.array_equal(a, b)
