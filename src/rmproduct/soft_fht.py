"""Soft-input soft-output decoding of first-order RM codes.

The SISO component decoder works in three steps along the last axis of any
(..., n) array: transform the channel LLRs to the Walsh spectrum, form max-log
LLRs for the k = m+1 information bits from the two halves of the spectrum
that each bit splits it into, then re-expand them to the n code positions by
a min-sum prefix butterfly.  A brute-force soft-MAP over all 2^k codewords is
the component decoder for small codes of order above one.
"""

from functools import lru_cache

import numpy as np

from . import rm_core
from .channel import bpsk_modulate
from .fht import fht, fiber_block, hard_decode, prefix_butterfly

MAX_BF_DIM = 16
SCORE_BLOCK_SIZE = 1 << 17  # scores per codeword-major block copy (1 MiB): 1,024 fibers at k = 7


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
    least = prefix_butterfly(np.minimum, magnitudes[:, :1], magnitudes[:, 1:])
    flips = prefix_butterfly(np.logical_xor, negative[:, :1], negative[:, 1:])
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
def _codebook(code: rm_core.RmCode) -> np.ndarray:
    """Cached +-1 codewords (2^k, n); row i encodes information word i."""
    if code.k > MAX_BF_DIM:
        raise rm_core.SizeLimitError(
            f"{code.descriptor}: brute-force decoding caps at k <= {MAX_BF_DIM}, got k={code.k}"
        )
    return bpsk_modulate(rm_core.encode_batch(code, rm_core.binary_words(code.k)))


@lru_cache(maxsize=None)
def _column_splits(code: rm_core.RmCode) -> tuple:
    """Cached (codeword indices with bit j = 0, with bit j = 1) for each position j."""
    return tuple((np.flatnonzero(column > 0.0), np.flatnonzero(column < 0.0))
                 for column in _codebook(code).T)


def _correlations(block, signs):
    """(pre, post, 2^k) correlations of a (pre, n, post) block's fibers with
    the +-1 codewords, as one (pre * post, n) @ (n, 2^k) product."""
    pre, n, post = block.shape
    return (block.transpose(0, 2, 1).reshape(-1, n) @ signs.T).reshape(pre, post, -1)


def brute_force_soft_map_batch(llrs, code, counter=None) -> np.ndarray:
    """Exact max-log soft MAP along the last axis of (..., n) LLRs, over any small code.

    Returns the code-position LLRs (..., n), by exhaustive correlation against
    all 2^k codewords.  The scores are reduced a block of at most
    SCORE_BLOCK_SIZE >> k fibers at a time: the block is copied
    codeword-major, (2^k, fibers), and position j takes the max over its rows
    of the codewords with a 0 at j minus the max over those with a 1.
    """
    signs = _codebook(code)
    block, restore = fiber_block(llrs, code.n)
    pre, n, post = block.shape
    scores = _correlations(block, signs)
    out = np.empty(block.shape)
    fibers = SCORE_BLOCK_SIZE >> code.k
    step_pre, step_post = max(1, fibers // post), min(post, fibers)
    for p in range(0, pre, step_pre):
        for q in range(0, post, step_post):
            major = np.moveaxis(scores[p : p + step_pre, q : q + step_post], -1, 0).copy()
            for j, (zero, one) in enumerate(_column_splits(code)):
                out[p : p + step_pre, j, q : q + step_post] = (
                    major[zero].max(axis=0) - major[one].max(axis=0))
    if counter is not None:
        rows, count = pre * post, len(signs)
        counter.add_sub += rows * (count * (n - 1) + n)
        counter.compare += rows * n * (count - 2)
        counter.depth += (n.bit_length() - 1) + code.k + 1
    return restore(out)


def _ml_kernel(block, code):
    """Exhaustive hard ML codewords of a (pre, n, post) block, ties to the lowest codeword index."""
    signs = _codebook(code)
    best = np.argmax(_correlations(block, signs), axis=-1)
    return signs[best[:, None, :], np.arange(code.n)[:, None]]  # (pre, n, post)


def brute_force_ml_decode_batch(llrs, code, counter=None) -> np.ndarray:
    """Exhaustive hard ML along the last axis of (..., n) LLRs, over any small
    code (ties to the lowest codeword index); returns the +-1 codewords (..., n).

    A call whose entries are all +-1 on a code with 2^(n+k) <= 2^21 (every
    rm(2,r) and rm(3,r), rm(4,0) and rm(4,1)) is served from a table of these
    decisions on all 2^n +-1 words (see `fht.hard_decode`); it counts the
    operations of the exhaustive search all the same.
    """
    decided = hard_decode(llrs, code, _ml_kernel)
    if counter is not None:
        rows, count, n = decided.size // code.n, 1 << code.k, code.n
        counter.add_sub += rows * count * (n - 1)
        counter.compare += rows * (count - 1)
        counter.depth += (n.bit_length() - 1) + code.k
    return decided
