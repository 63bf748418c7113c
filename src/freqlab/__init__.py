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

# One BLAS thread, set before the submodules load numpy: threaded BLAS sums in
# a thread-dependent order, which changes the bytes a (config, seed) writes. A
# process that loaded numpy before freqlab keeps numpy's own thread count.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from . import config, data, errors, experiments, losses, nn, poisson, reporting, spectral  # noqa: E402

__version__ = "0.1.0"
