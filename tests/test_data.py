import gzip
import struct
import tracemalloc

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

    @pytest.mark.parametrize("count,rows,cols", [(0, 28, 28), (3, 0, 0), (3, 4, 0)])
    def test_nothing_to_project_rejected(self, count, rows, cols):
        with pytest.raises(IdxFormatError, match="nothing to project"):
            parse_idx_images(build_idx_images(count=count, rows=rows, cols=cols))

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
        (build_idx_images(count=0), build_idx_labels([])),
        (build_idx_images(count=4, rows=0, cols=0), build_idx_labels([1, 2, 3, 4])),
        (build_idx_images(count=4, rows=2, cols=2, pixels=[9, 200, 31, 0] * 4), build_idx_labels([1, 2, 3, 4])),
    ], ids=["bad-magic", "label-out-of-range", "truncated-gzip", "bad-gzip-crc", "no-images", "no-pixels",
            "all-images-equal"])
    def test_malformed_dataset_file_exits_2(self, tmp_path, capsys, images, labels):
        (tmp_path / "im").write_bytes(images)
        (tmp_path / "lb").write_bytes(labels)
        code = main(["mnist-pca", "--preset", "desk-mnist-pca", "--mnist-images", str(tmp_path / "im"),
                     "--mnist-labels", str(tmp_path / "lb"), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run" / "config.txt").exists()

    def test_label_file_shorter_than_its_header_exits_2(self, tmp_path, capsys):
        (tmp_path / "im").write_bytes(build_idx_images(count=2))
        (tmp_path / "lb").write_bytes(build_idx_labels([1, 2])[:7])
        code = main(["mnist-pca", "--preset", "desk-mnist-pca", "--mnist-images", str(tmp_path / "im"),
                     "--mnist-labels", str(tmp_path / "lb"), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "label header truncated" in capsys.readouterr().err
        assert not (tmp_path / "run" / "config.txt").exists()

    @pytest.mark.parametrize("unreadable", ["missing.idx", "a-directory"])
    def test_unreadable_dataset_file_exits_2(self, tmp_path, capsys, unreadable):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "lb").write_bytes(build_idx_labels([1, 2]))
        path = tmp_path / unreadable
        code = main(["mnist-pca", "--preset", "desk-mnist-pca", "--set", "samples=60", "--set", "epochs=2",
                     "--mnist-images", str(path), "--mnist-labels", str(tmp_path / "lb"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"config error: cannot read dataset file {path}: [Errno" in capsys.readouterr().err
        assert not (tmp_path / "run" / "config.txt").exists()

    def test_load_image_set_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=2 * 784, dtype=np.uint8)
        (tmp_path / "im").write_bytes(build_idx_images(count=2, pixels=pixels))
        (tmp_path / "lb").write_bytes(build_idx_labels([4, 7]))
        images, labels = load_image_set(tmp_path / "im", tmp_path / "lb")
        assert images.shape == (784, 2) and images.flags.f_contiguous
        assert np.array_equal(images, pixels.reshape(2, 784).T / 255.0)
        assert np.array_equal(labels, [4, 7])


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
        images, labels = synthetic_image_set(101, seed=3)
        assert images.shape == (784, 101) and images.flags.c_contiguous
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert np.array_equal(labels, [0] * 50 + [1] * 51)

    def test_synthetic_deterministic(self):
        a_images, a_labels = synthetic_image_set(50, seed=11)
        b_images, b_labels = synthetic_image_set(50, seed=11)
        assert np.array_equal(a_images, b_images)
        assert np.array_equal(a_labels, b_labels)

    def test_synthetic_set_is_built_in_place(self):
        tracemalloc.start()
        try:
            images, _ = synthetic_image_set(2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * images.nbytes

    def test_pca_projection_separates_blobs(self):
        images, labels = synthetic_image_set(200, seed=4)
        coords = pca_project(images, seed=4)
        assert coords.min() == 0.0 and coords.max() == 1.0
        left = coords[labels == 0]
        right = coords[labels == 1]
        if left.mean() > right.mean():
            left, right = right, left
        assert left.max() < right.min()  # blobs are linearly separated on the axis

    def test_pipeline_deterministic(self):
        images, _ = synthetic_image_set(80, seed=5)
        a = pca_project(images, seed=5)
        b = pca_project(images, seed=5)
        assert np.array_equal(a, b)
