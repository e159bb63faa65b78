"""Independent references that the tests check the library against."""

import numpy as np


def kronecker_power(m: int) -> np.ndarray:
    """m-th Kronecker power of [[1,0],[1,1]]: a 2^m x 2^m lower-triangular uint8 matrix.

    Fully materialized, so it is the reference for rm_core's weight-selected
    rows, which are built without it.
    """
    power = np.array([[1]], dtype=np.uint8)
    base = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for _ in range(m):
        power = np.kron(power, base)
    return power


def min_nonzero_weight(codewords) -> int:
    """Minimum Hamming weight over the nonzero rows of a codeword stack."""
    weights = np.asarray(codewords).sum(axis=1, dtype=np.int64)
    return int(weights[weights > 0].min())
