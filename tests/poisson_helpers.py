"""Helpers shared by the Poisson and experiment tests."""

import numpy as np

from freqlab.poisson import METHODS


def sweep_once(method, rhs, u):
    """One METHODS[method] sweep of the interior values u from row 0 of a
    zero-padded pair of rows into row 1; returns the new interior values."""
    states = np.zeros((2, rhs.size + 2))
    states[0, 1:-1] = u
    assert len(list(METHODS[method](rhs, states)(1))) == 1
    return states[1, 1:-1]
