"""Soft-input soft-output decoding of first-order RM codes.

The SISO component decoder works in three steps along the last axis of any
(..., n) array: transform the channel LLRs to the Walsh spectrum, form max-log
LLRs for the k = m+1 information bits from the two halves of the spectrum
that each bit splits it into, then re-expand them to the n code positions by
a min-sum prefix butterfly.  A brute-force soft-MAP over all 2^k codewords
doubles as the exact max-log oracle for the fast path and as the component
decoder for small codes of order above one.
"""

from functools import lru_cache

import numpy as np

from . import rm_core
from .channel import bpsk_modulate
from .fht import fht, fiber_block, prefix_butterfly

MAX_BF_DIM = 16


def info_bit_llrs_batch(spectra, code, counter=None) -> np.ndarray:
    """Max-log LLRs of the m+1 information bits along the last axis of (..., n) spectra.

    The first bit weighs the best positive spectrum entry against the best
    negative one.  Bit b+1 is bit m-1-b of the spectrum index: it weighs the
    largest magnitudes of the halves of |S|.reshape(pre, 2^b, 2, n/2^(b+1), post).
    """
    block, restore = fiber_block(spectra, code.n)
    pre, n, post = block.shape
    m = code.m
    out = np.empty((pre, m + 1, post))
    np.add(block.max(axis=1), block.min(axis=1), out=out[:, 0])
    magnitudes = np.abs(block)
    for b in range(m):  # one axis at a time, skipping size-1 axes: fast for any post
        halves = magnitudes.reshape(pre, 1 << b, 2, n >> (b + 1), post)
        best = halves.max(axis=1) if b else halves[:, 0]
        best = best.max(axis=2) if b < m - 1 else best[:, :, 0]
        np.subtract(best[:, 0], best[:, 1], out=out[:, b + 1])
    if counter is not None:
        counter.compare += pre * post * (2 * (n - 1) + m * (n - 2))
        counter.add_sub += pre * post * (1 + m)
        counter.depth += m + 1
    return restore(out)


def encoded_bit_llrs_batch(info_llrs, code, counter=None) -> np.ndarray:
    """Min-sum LLRs of the n code positions along the last axis of (..., m+1) LLRs.

    Position x is fed by the all-one row and the row of each set bit of x, so
    from the all-one row each bit doubles the prefix with min(prefix, |L_b|)
    and sign prefix ^ (L_b < 0): n-1 mins and sign XORs per fiber, sign(0) = +1.
    """
    block, restore = fiber_block(info_llrs, code.k)
    pre, _, post = block.shape
    magnitudes = np.abs(block)
    negative = block < 0.0
    least = prefix_butterfly(np.minimum, magnitudes[:, :1], magnitudes[:, 1:], np.float64)
    flips = prefix_butterfly(np.logical_xor, negative[:, :1], negative[:, 1:], bool)
    least *= bpsk_modulate(flips)
    if counter is not None:
        counter.compare += pre * post * (code.n - 1)
        counter.sign_mult += pre * post * (code.n - 1)
        counter.depth += code.m
    return restore(least)


def soft_fht_decode_batch(llrs, code, counter=None) -> np.ndarray:
    """Full SISO pipeline along the last axis of a (..., n) LLR array."""
    spectra = fht(llrs, counter)
    return encoded_bit_llrs_batch(info_bit_llrs_batch(spectra, code, counter), code, counter)


@lru_cache(maxsize=None)
def _codebook(code: rm_core.RmCode):
    """Cached (codewords, +-1 codewords, labels) enumeration.  Row i of the
    (2^k, k+n) labels is information word i followed by its codeword."""
    if code.k > MAX_BF_DIM:
        raise rm_core.SizeLimitError(
            f"brute-force decoding caps at k <= {MAX_BF_DIM}, got k={code.k}"
        )
    infos = rm_core.binary_words(code.k)
    codewords = rm_core.encode_batch(code, infos)
    return codewords, bpsk_modulate(codewords), np.hstack([infos, codewords])


def _correlations(llrs, signs):
    """The leading shape of (..., n) LLRs and their (rows, 2^k) correlations
    with the +-1 codewords, one row per fiber in C order."""
    llrs = np.asarray(llrs, dtype=np.float64)
    return llrs.shape[:-1], llrs.reshape(-1, llrs.shape[-1]) @ signs.T


def brute_force_soft_map_batch(llrs, code, counter=None):
    """Exact max-log soft MAP along the last axis of (..., n) LLRs, over any small code.

    Returns (information-bit LLRs (..., k), code-position LLRs (..., n)), both
    by exhaustive correlation against all 2^k codewords.
    """
    _, signs, labels = _codebook(code)
    lead, scores = _correlations(llrs, signs)
    rows, count = scores.shape
    k, n = code.k, code.n
    out = np.empty((rows, k + n))
    for j, zero in enumerate(labels.T == 0):
        out[:, j] = scores[:, zero].max(axis=1) - scores[:, ~zero].max(axis=1)
    if counter is not None:
        counter.add_sub += rows * (count * (n - 1) + k + n)
        counter.compare += rows * (k + n) * (count - 2)
        counter.depth += (n.bit_length() - 1) + k + 1
    return out[:, :k].reshape(lead + (k,)), out[:, k:].reshape(lead + (n,))


def brute_force_ml_decode_batch(llrs, code, counter=None) -> np.ndarray:
    """Exhaustive hard ML codewords (..., n) along the last axis of (..., n)
    LLRs, over any small code (ties to the lowest codeword index)."""
    codewords, signs, _ = _codebook(code)
    lead, scores = _correlations(llrs, signs)
    best = np.argmax(scores, axis=1)
    if counter is not None:
        rows, count = scores.shape
        counter.add_sub += rows * count * (code.n - 1)
        counter.compare += rows * (count - 1)
        counter.depth += (code.n.bit_length() - 1) + code.k
    return codewords[best].reshape(lead + (code.n,))
