"""MNIST ingestion and the 1-d reduction used for frequency analysis:
IDX parsing, mean-centering, leading principal direction by power iteration,
and projection rescaled to [0, 1]; pca_project returns the coordinates, one
scalar per sample.

A dataset is two arrays, (images, labels): images is the pixels-by-samples
fp64 matrix with values in [0, 1], labels the integer class of each column.
MNIST files are an external input (optionally gzipped); a seeded synthetic
two-blob dataset stands in when no files are available.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = [
    "IdxFormatError",
    "PowerIterationError",
    "parse_idx_images",
    "parse_idx_labels",
    "load_idx_bytes",
    "load_image_set",
    "synthetic_image_set",
    "center",
    "leading_eigenvector",
    "project_rescale",
    "pca_project",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
NUM_CLASSES = 10
SYNTHETIC_PIXELS = 784  # an MNIST image's 28 x 28


class IdxFormatError(ConfigError):
    """Malformed IDX container (a bad input file is a configuration error)."""


class PowerIterationError(ConfigError):
    """Power iteration found no leading direction: data PCA cannot reduce (a configuration error)."""

    def __init__(self, residual: float, max_iters: int):
        self.residual = residual
        super().__init__(f"power iteration did not converge in {max_iters} iterations "
                         f"(achieved residual {residual:.3e})")


def parse_idx_images(data: bytes) -> np.ndarray:
    """IDX image container -> (rows*cols, count) matrix of byte values / 255."""
    if len(data) < 16:
        raise IdxFormatError("image header truncated")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"bad image magic 0x{magic:08x}")
    if count == 0 or rows * cols == 0:
        raise IdxFormatError(f"nothing to project: {count} images of {rows}x{cols} pixels")
    expected = count * rows * cols
    if expected > len(data) - 16:
        raise IdxFormatError(f"payload truncated: expected {expected} bytes, have {len(data) - 16}")
    raw = np.frombuffer(data, dtype=np.uint8, count=expected, offset=16)
    return raw.reshape(count, rows * cols).T.astype(float) / 255.0


def parse_idx_labels(data: bytes) -> np.ndarray:
    """IDX label container -> integer label vector."""
    if len(data) < 8:
        raise IdxFormatError("label header truncated")
    magic, count = struct.unpack(">II", data[:8])
    if magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(f"bad label magic 0x{magic:08x}")
    if count > len(data) - 8:
        raise IdxFormatError(f"payload truncated: expected {count} bytes, have {len(data) - 8}")
    labels = np.frombuffer(data, dtype=np.uint8, count=count, offset=8).astype(int)
    if labels.size and labels.max() >= NUM_CLASSES:
        raise IdxFormatError(f"label {labels.max()} out of range 0..{NUM_CLASSES - 1}")
    return labels


def load_idx_bytes(path: str | Path) -> bytes:
    """Read an IDX file, transparently decompressing gzip. A file that cannot
    be read is a configuration error, as a malformed one is."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read dataset file {path}: {e}") from e
    if raw[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as e:  # truncated or corrupt
            raise IdxFormatError(f"{path}: bad gzip stream: {e}") from e
    return raw


def load_image_set(images_path: str | Path, labels_path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels) from an IDX image file and an IDX label file; images
    is F-ordered, one column per image."""
    images = parse_idx_images(load_idx_bytes(images_path))
    labels = parse_idx_labels(load_idx_bytes(labels_path))
    if images.shape[1] != len(labels):
        raise IdxFormatError(f"{images.shape[1]} images but {len(labels)} labels")
    return images, labels


def synthetic_image_set(num_samples: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels): two well-separated Gaussian blobs with step-function
    labels, 0 for the first num_samples // 2 columns and 1 for the rest.

    The blob axis dominates the covariance, so the leading principal
    direction recovers it; pixel values are clipped into [0, 1]. The matrix is
    C-ordered and built in place: the noise, then each half's centre column.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    axis = rng.standard_normal(SYNTHETIC_PIXELS)
    axis /= np.linalg.norm(axis)
    half = num_samples // 2
    labels = (np.arange(num_samples) >= half).astype(int)
    images = rng.standard_normal((SYNTHETIC_PIXELS, num_samples))
    images *= 0.02
    images[:, :half] += (0.5 - 0.35 * axis)[:, None]
    images[:, half:] += (0.5 + 0.35 * axis)[:, None]
    np.clip(images, 0.0, 1.0, out=images)
    return images, labels


def center(X: np.ndarray) -> np.ndarray:
    """Subtract the mean sample (mean across columns)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("need a 2-d matrix with at least one column")
    return X - X.mean(axis=1, keepdims=True)


def leading_eigenvector(Xc: np.ndarray, tol: float = 1e-10, max_iters: int = 10_000,
                        seed: int = 0) -> np.ndarray:
    """Leading eigenvector of Xc Xc^T by power iteration.

    The covariance is applied as Xc (Xc^T v) so the pixels-by-pixels matrix is
    never formed. Converges when ||C v - lam v||_2 <= tol * lam; the sign is
    fixed so the largest-magnitude entry is positive.
    """
    Xc = np.asarray(Xc, dtype=float)
    if not np.any(Xc):
        raise ValueError("cannot extract a principal direction from a zero matrix")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(Xc.shape[0])
    v /= np.linalg.norm(v)
    residual = np.inf
    for _ in range(max_iters):
        w = Xc @ (Xc.T @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            v = rng.standard_normal(Xc.shape[0])
            v /= np.linalg.norm(v)
            continue
        lam = float(v @ w)  # Rayleigh quotient for the current unit vector
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol * abs(lam):
            break
        v = w / norm_w
    else:
        raise PowerIterationError(residual, max_iters)
    idx = int(np.argmax(np.abs(v)))
    if v[idx] < 0:
        v = -v
    return v


def project_rescale(X: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Project the columns on the direction and rescale affinely onto [0, 1]."""
    proj = np.asarray(direction, dtype=float) @ np.asarray(X, dtype=float)
    lo, hi = proj.min(), proj.max()
    if hi == lo:
        raise ValueError("all projections identical; cannot rescale to [0, 1]")
    return (proj - lo) / (hi - lo)


def pca_project(images: np.ndarray, seed: int = 0) -> np.ndarray:
    """Full reduction of the pixels-by-samples images: center, leading
    direction, projection onto [0, 1].

    Returns one coordinate per sample (column). The projection is taken
    against the centered images; the rescale absorbs the constant shift, so
    the coordinates match projecting the raw images.
    """
    Xc = center(images)
    return project_rescale(Xc, leading_eigenvector(Xc, seed=seed))
