"""Independent references that the tests check the library against."""

from itertools import combinations

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


def product_rows_generator(m: int, r: int) -> np.ndarray:
    """The canonical RM(m, r) generator built row block by row block: the all-one
    row, the m first-order rows whose columns spell 0..n-1 in binary (MSB in the
    first), then for each degree i >= 2 the element-wise products of the
    i-element subsets of the first-order rows, subsets in lexicographic order."""
    blocks = [np.ones((1, 1 << m), dtype=np.uint8)]
    if r >= 1:
        g1 = np.ascontiguousarray(rm_core.binary_words(m).T)
        blocks.append(g1)
        for degree in range(2, r + 1):
            rows = [g1[list(subset)].prod(axis=0) for subset in combinations(range(m), degree)]
            blocks.append(np.array(rows, dtype=np.uint8))
    return np.concatenate(blocks, axis=0)


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


def fht_reference(values) -> np.ndarray:
    """Sylvester-Hadamard transform along the last axis of a C-ordered float64
    copy of `values` by plain butterfly stages, index bit 0 first: each entry
    is rounded as by any FHT whose stages run in the order 0..m-1."""
    a = np.array(values, dtype=np.float64, order="C")
    n = a.shape[-1]
    for b in range(n.bit_length() - 1):
        pairs = a.reshape(a.shape[:-1] + (n >> (b + 1), 2, 1 << b))
        low, high = pairs[..., 0, :].copy(), pairs[..., 1, :].copy()
        np.add(low, high, out=pairs[..., 0, :])
        np.subtract(low, high, out=pairs[..., 1, :])
    return a


def exhaustive_scores(block, code):
    """Correlations of each LLR row against every +-1 codeword, and the codewords,
    C-ordered as the decoders' codebook is, so that the product rounds as theirs."""
    words = np.ascontiguousarray(rm_core.encode_batch(code, rm_core.binary_words(code.k)))
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
