"""Frequency-domain machinery: direct transforms, peak picking, the relative
frequency difference at a peak, and the per-mode decomposition of a training
gradient. The runners keep the step-by-step history of these differences
themselves (see experiments._spectral_recorder).

A spectrum is its complex coefficient vector, indexed by integer frequency:
spectrum applies a phase matrix to values and rejects non-finite
coefficients, and pick_peaks and rel_freq_diff read it as it stands. All
transforms are exact direct summations (O(N^2) / O(nK)); at the sample sizes
used here that is cheap and keeps every value independently checkable against
a second summation.

dft_matrix and nufft_matrix spell the spectrum phases; grad_decomposition
spells its own orthonormal basis. Building a matrix costs far more than
applying it (about 150 us against 3.4 us at N = 65), so a run that records a
spectrum many times builds its matrix once and passes it to spectrum at each
recording; dft_uniform and nufft_direct build and apply in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nn import Mlp, backprop, forward

__all__ = [
    "DF_DENOMINATORS",
    "GradDecomposition",
    "dft_matrix",
    "nufft_matrix",
    "spectrum",
    "dft_uniform",
    "nufft_direct",
    "pick_peaks",
    "rel_freq_diff",
    "grad_decomposition",
]

#: denominator amplitudes below this yield an infinite relative difference
_DENOM_FLOOR = 1e-14

#: the spectra rel_freq_diff can normalize by; config.validate reads them here
DF_DENOMINATORS = ("target", "model")


def dft_matrix(n: int) -> np.ndarray:
    """The (n, n) phase matrix exp(-2*pi*i * x_j * gamma) of the uniform nodes
    x_j = j/n, row gamma = 0..n-1, column j."""
    if n < 1:
        raise ValueError("dft_matrix needs n >= 1")
    j = np.arange(n)
    return np.exp((-2j * math.pi / n) * np.outer(j, j))


def nufft_matrix(points, num_freqs: int) -> np.ndarray:
    """The (num_freqs, len(points)) phase matrix exp(-2*pi*i * points_j * k) of
    nodes in [0, 1], row k = 0..num_freqs-1, column j: the sign and node
    convention of dft_matrix."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 1:
        raise ValueError("points must be a 1-d vector")
    if num_freqs < 1:
        raise ValueError("num_freqs must be >= 1")
    if np.any(x < -1e-9) or np.any(x > 1.0 + 1e-9):
        raise ValueError("nodes must lie in [0, 1]")
    k = np.arange(num_freqs)
    return np.exp(-2j * math.pi * np.outer(k, x))


def spectrum(phase: np.ndarray, values) -> np.ndarray:
    """The complex coefficients phase @ values of a dft_matrix or nufft_matrix
    and one value per column; a non-finite coefficient raises ValueError."""
    v = np.asarray(values, dtype=float)
    if phase.shape[1:] != v.shape:
        raise ValueError(f"expected {phase.shape[1]} values in a 1-d vector, got shape {v.shape}")
    coefficients = phase @ v
    if not np.all(np.isfinite(coefficients)):
        raise ValueError("spectrum coefficients must be finite")
    return coefficients


def dft_uniform(values) -> np.ndarray:
    """Unnormalized forward DFT of uniformly sampled values (direct summation):
    spectrum(dft_matrix(N), values), the coefficients c[gamma] = sum_j values_j
    * exp(-2*pi*i * x_j * gamma) at the nodes x_j = j/N, gamma = 0..N-1."""
    v = np.asarray(values, dtype=float)
    return spectrum(dft_matrix(v.size), v)


def nufft_direct(points, values, num_freqs: int) -> np.ndarray:
    """Direct-sum transform of values at nonuniform nodes in [0, 1]:
    spectrum(nufft_matrix(points, num_freqs), values), the coefficients c[k] =
    sum_j values_j * exp(-2*pi*i * points_j * k) for k = 0..num_freqs-1. Exact
    summation, no gridding approximation."""
    return spectrum(nufft_matrix(points, num_freqs), values)


def pick_peaks(spectrum: np.ndarray, max_count: int = 4, min_rel_amplitude: float = 0.05) -> list[int]:
    """Dominant local maxima of the amplitude over the first half-spectrum.

    Candidates are local maxima of |spectrum| on 0..len//2 (the window
    boundaries compare against their single inside neighbor), filtered to at
    least min_rel_amplitude of the window maximum; the max_count largest
    survive, returned in ascending frequency order.
    """
    amps = np.abs(spectrum)
    half = len(amps) // 2
    window = amps[: half + 1]
    top = float(window.max())
    candidates = []
    for g in range(half + 1):
        left_ok = g == 0 or window[g] > window[g - 1]
        right_ok = g == half or window[g] > window[g + 1]
        if left_ok and right_ok and window[g] >= min_rel_amplitude * top:
            candidates.append(g)
    candidates.sort(key=lambda g: window[g], reverse=True)
    return sorted(candidates[:max_count])


def rel_freq_diff(
    model_spec: np.ndarray,
    target_spec: np.ndarray,
    freq_index: int,
    denominator: str = "target",
) -> float:
    """|model - target| at one frequency, normalized by the chosen spectrum.

    Returns +inf when the denominator amplitude is below 1e-14.
    """
    if denominator not in DF_DENOMINATORS:
        raise ValueError(f"denominator must be one of {DF_DENOMINATORS}, got {denominator!r}")
    if not 0 <= freq_index < min(len(model_spec), len(target_spec)):
        raise IndexError(f"frequency index {freq_index} out of range")
    num = abs(model_spec[freq_index] - target_spec[freq_index])
    den_spec = target_spec if denominator == "target" else model_spec
    den = abs(den_spec[freq_index])
    if den < _DENOM_FLOOR:
        return math.inf
    return float(num / den)


@dataclass
class GradDecomposition:
    """Per-mode split of a training gradient through the network's first
    output over the unitary Fourier basis.

    Every parameter-indexed axis is in Mlp.params order, the layout of the
    gradients backprop returns. mode_terms[k] summed over k must
    reproduce direct_grad (real part) with a vanishing imaginary remainder;
    mode k's gradient magnitude is the norm of row k of mode_terms.
    """

    d_k: np.ndarray            # (K,) complex: coefficients of dl/doutput
    mode_terms: np.ndarray     # (K, P) complex: per-mode gradient contributions
    direct_grad: np.ndarray    # (P,) float: gradient computed without the split

    def summed(self) -> np.ndarray:
        return self.mode_terms.sum(axis=0)

    @property
    def real_residual(self) -> float:
        scale = np.linalg.norm(self.direct_grad)
        return float(np.linalg.norm(self.summed().real - self.direct_grad) / scale)

    @property
    def imag_residual(self) -> float:
        scale = np.linalg.norm(self.direct_grad)
        return float(np.linalg.norm(self.summed().imag) / scale)


def _check_uniform(xs: np.ndarray) -> None:
    if len(xs) < 2:
        return
    diffs = np.diff(xs)
    span = abs(xs[-1] - xs[0]) + 1e-30
    if np.max(np.abs(diffs - diffs[0])) > 1e-9 * span:
        raise ValueError("samples must be uniformly spaced for the mode decomposition")


def grad_decomposition(
    mlp: Mlp,
    xs: np.ndarray,
    pointwise_loss: Callable[[np.ndarray], np.ndarray],
) -> GradDecomposition:
    """Split the loss gradient through the first output into Fourier modes.

    pointwise_loss maps the (N, out) network outputs to the loss derivatives
    (N, out) with respect to them; the loss must act sample by sample
    (couplings across samples break the identity). The expansion uses
    the orthonormal basis p_k(j) = exp(2*pi*i*k*j/N)/sqrt(N) over the sample
    index, which requires uniformly spaced scalar samples. Row j of the
    (N, P) Jacobian is backprop's gradient of sample j's first output, in
    Mlp.params order.
    """
    xs = np.asarray(xs, dtype=float)
    flat = xs.reshape(len(xs), -1)
    if flat.shape[1] != 1:
        raise ValueError("mode decomposition expects scalar inputs")
    _check_uniform(flat[:, 0])
    n = len(xs)
    outputs, cache = forward(mlp, flat)
    dl_dout = pointwise_loss(outputs)
    if dl_dout.shape != outputs.shape:
        raise ValueError("pointwise_loss must return per-sample derivatives matching the outputs")
    s = dl_dout[:, 0]

    # per-sample parameter gradients of the first output
    jac = np.empty((n, mlp.params.size))
    for j in range(n):
        seed = np.zeros_like(outputs)
        seed[j, 0] = 1.0
        jac[j] = backprop(mlp, cache, seed)  # into=jac[j] would leave mlp.work holding jac

    k = np.arange(n)
    basis = np.exp((2j * math.pi / n) * np.outer(k, k)) / math.sqrt(n)  # basis[k, j]
    d_k = basis @ s
    dc_dtheta = np.conjugate(basis) @ jac
    mode_terms = dc_dtheta * d_k[:, None]
    direct = s @ jac
    return GradDecomposition(d_k=d_k, mode_terms=mode_terms, direct_grad=direct)
