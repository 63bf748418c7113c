"""Frequency-domain training diagnostics and hybrid solvers for 1-d Poisson.

Subpackages:

- nn: dense network with exact backprop and seeded Gaussian init
- losses: square error, two-term cross entropy, discrete Dirichlet energy
- spectral: direct DFT/NUFFT, peak tracking, per-mode gradient decomposition
- poisson: tridiagonal assembly, direct/Jacobi/Gauss-Seidel solvers, hybrids
- data: MNIST IDX parsing and leading-direction PCA reduction
- config / experiments / reporting / cli: reproducible experiment runs
"""

import os

# One BLAS thread: threaded BLAS sums in a thread-dependent order, which
# changes the bytes a (config, seed) writes. The variables pin it when they are
# set before numpy loads; _pin_bundled_openblas pins it in a process that
# loaded numpy before freqlab.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from . import config, data, errors, experiments, losses, nn, poisson, reporting, spectral  # noqa: E402

__version__ = "0.1.0"


def _bundled_openblas():
    """numpy's own OpenBLAS, found in the numpy.libs directory beside the numpy
    package (loaded already, with numpy), or None where numpy bundles none."""
    import ctypes
    from pathlib import Path

    import numpy

    found = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("lib*openblas*"))
    return ctypes.CDLL(str(found[0])) if found else None


def _openblas_function(name: str):
    """scipy_openblas_<name>64_, else openblas_<name>64_, from
    _bundled_openblas(), or None where there is neither."""
    lib = _bundled_openblas()
    found = (getattr(lib, f"{prefix}{name}64_", None) for prefix in ("scipy_openblas_", "openblas_"))
    return next((fn for fn in found if fn is not None), None)


def _pin_bundled_openblas() -> None:
    """Set numpy's bundled OpenBLAS to one thread. Without the library or its
    setter, the environment variables are the only pin."""
    import ctypes

    setter = _openblas_function("set_num_threads")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


_pin_bundled_openblas()
