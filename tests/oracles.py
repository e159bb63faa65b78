"""Independent references that the tests check the library against."""

import numpy as np

from rmproduct import rm_core


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


def sylvester(m: int) -> np.ndarray:
    """2^m x 2^m Sylvester-Hadamard matrix as float64 +-1 entries."""
    h = np.array([[1.0]])
    for _ in range(m):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]))
    return h


def exhaustive_scores(block, code):
    """Correlations of each LLR row against every +-1 codeword, and the codewords."""
    words = rm_core.encode_batch(code, rm_core.binary_words(code.k))
    return np.asarray(block) @ (1.0 - 2.0 * words).T, words


def exhaustive_info_llrs(block, code):
    """Max-log LLRs of the k information bits of each LLR row: for each bit, the
    best score with the bit 0 minus the best score with the bit 1."""
    scores, _ = exhaustive_scores(block, code)
    bits = rm_core.binary_words(code.k).T == 0  # score j belongs to the binary word of j
    return np.stack([scores[..., zero].max(axis=-1) - scores[..., ~zero].max(axis=-1)
                     for zero in bits], axis=-1)


def exhaustive_code_llrs(block, code):
    """Max-log LLRs of the n code positions of each LLR row: for each position,
    the best score over the codewords with a 0 there minus the best with a 1,
    each gathered through a boolean mask of the codeword column."""
    scores, words = exhaustive_scores(block, code)
    return np.stack([scores[..., zero].max(axis=-1) - scores[..., ~zero].max(axis=-1)
                     for zero in words.T == 0], axis=-1)
