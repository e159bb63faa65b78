"""Soft-input soft-output decoding of first-order RM codes.

The SISO component decoder works in three steps along the last axis of any
(..., n) array: transform the channel LLRs to the Walsh spectrum, form max-log
LLRs for the k = m+1 information bits from the two halves of the spectrum
that each bit splits it into, then re-expand them to the n code positions by
a min-sum prefix butterfly.  A brute-force soft-MAP over all 2^k codewords is
the component decoder for small codes of order above one; on the
single-parity-check codes rm(m, m-1) it takes the min-sum check-node rule,
the exact max-log MAP of one parity check (Hagenauer, Offer, Papke, IEEE
Trans. Inf. Theory, 1996), in O(n) per fiber.  Every kernel takes the
keyword `out=` and counts nothing, as those in `fht` do; the soft decoders
return float64 LLRs, and the exhaustive hard ML decoder returns uint8
codeword bits, as `fht`'s does.
"""

from functools import lru_cache

import numpy as np

from . import rm_core
from .channel import bpsk_modulate
from .fht import fht, fiber_block, hard_decode, workspace

MAX_BF_DIM = 16
SCORE_BLOCK_SIZE = 1 << 17  # scores per soft-MAP tile (1 MiB), never fewer than 2 fibers: 1,024 at k = 7


def info_bit_llrs_batch(spectra, code, *, out=None) -> np.ndarray:
    """Max-log LLRs of the m+1 information bits along the last axis of (..., n)
    spectra, into `out` if given (it may overlap the spectra).

    The first bit weighs the best positive spectrum entry against the best
    negative one.  Bit b+1 is bit m-1-b of the spectrum index: it weighs the
    largest entries of the two halves of M_b, where M_0 = |S| (formed in the
    workspace scratch) and M_(b+1) is M_b with its halves folded together by a
    pairwise max, in place.  So about 3n entries are read per fiber, and no
    temporary is larger than a (pre, post) row.
    """
    block, written, result = fiber_block(spectra, code.n, out, code.k)
    peak, trough = block.max(axis=1), block.min(axis=1)
    magnitudes = np.abs(block, out=workspace(block.size)[1].reshape(block.shape))
    np.add(peak, trough, out=written[:, 0])
    for b in range(code.m):
        half = code.n >> (b + 1)
        low, high = magnitudes[:, :half], magnitudes[:, half : 2 * half]
        np.max(low, axis=1, out=written[:, b + 1])
        written[:, b + 1] -= high.max(axis=1)
        np.maximum(low, high, out=low)
    return result


def prefix_butterfly(op, first, rows, out=None):
    """Re-expand (pre, 1, post) `first` and (pre, m, post) `rows` to (pre, 2^m, post),
    into `out` if given, else into a fresh array in the dtype of `first`.

    Each row, the last one first, doubles the prefix to op(prefix, row), so
    row b feeds the positions with bit 2^(m-1-b) set, as info bit b+1 of RM(m, 1).
    """
    pre, m, post = rows.shape
    if out is None:
        out = np.empty((pre, 1 << m, post), dtype=first.dtype)
    out[:, :1] = first
    for b in range(m - 1, -1, -1):
        width = 1 << (m - 1 - b)
        op(out[:, :width], rows[:, b : b + 1], out=out[:, width : 2 * width])
    return out


def encoded_bit_llrs_batch(info_llrs, code, *, out=None) -> np.ndarray:
    """Min-sum LLRs of the n code positions along the last axis of (..., m+1)
    LLRs, into `out` if given (it may overlap the LLRs: all of them are read
    first, so the soft decoder re-expands its info rows over its spectra).

    Position x is fed by the all-one row and the row of each set bit of x, so
    from the all-one row each bit doubles the prefix with min(prefix, |L_b|)
    and sign prefix ^ (L_b < 0): n-1 mins and sign XORs per fiber, sign(0) = +1.
    The signs are applied as a +-1 product; the magnitudes and then the +-1
    signs live in the workspace scratch.
    """
    block, least, result = fiber_block(info_llrs, code.k, out, code.n)
    pre, _, post = block.shape
    scratch = workspace(pre * code.n * post)[1]
    magnitudes = np.abs(block, out=scratch[: block.size].reshape(block.shape))
    negative = block < 0.0
    prefix_butterfly(np.minimum, magnitudes[:, :1], magnitudes[:, 1:], least)
    flips = prefix_butterfly(np.logical_xor, negative[:, :1], negative[:, 1:])
    least *= bpsk_modulate(flips, scratch[: least.size].reshape(least.shape))
    return result


def soft_fht_decode_batch(llrs, code, *, out=None) -> np.ndarray:
    """Full SISO pipeline along the last axis of a (..., n) LLR array, into
    `out` if given (it may be `llrs`).  All three steps run in the component
    decoders' workspace array [0], laid out with the fiber axis slowest
    whatever the block's layout: the spectra (n, pre * post), the info-bit
    LLRs over their head (k, pre * post), and the min-sum positions over the
    spent spectra, so every step runs over pre * post contiguous entries
    however few frames a chunk has.  The block is written once, at the end.
    Each step gets (pre, post, n) views."""
    block, written, result = fiber_block(llrs, code.n, out)
    pre, n, post = block.shape
    spare = workspace(block.size)[0]
    spectra = spare[: block.size].reshape(n, pre, post).transpose(1, 2, 0)
    info = spare[: code.k * pre * post].reshape(code.k, pre, post).transpose(1, 2, 0)
    fht(block.swapaxes(1, 2), out=spectra)
    info_bit_llrs_batch(spectra, code, out=info)
    encoded_bit_llrs_batch(info, code, out=spectra)
    written[...] = spectra.swapaxes(1, 2)
    return result


def single_parity_check(code) -> bool:
    """Whether `code` is rm(m, m-1), whose soft MAP takes the closed form."""
    return code.r == code.m - 1


def check_exhaustive_size(descriptor: str, k: int) -> None:
    """Refuse a code of dimension k too large to decode over all of its 2^k codewords."""
    if k > MAX_BF_DIM:
        raise rm_core.SizeLimitError(
            f"{descriptor}: brute-force decoding caps at k <= {MAX_BF_DIM}, got k={k}")


@lru_cache(maxsize=None)
def _codebook(code: rm_core.RmCode) -> tuple:
    """Cached read-only +-1 codewords (2^k, n), C-ordered, row i encoding word i,
    and per position the ascending indices of those with a 0 there, then a 1."""
    words = rm_core.encode_batch(code, rm_core.binary_words(code.k))
    signs = bpsk_modulate(words, np.empty(words.shape))
    splits = np.argsort(words.T, axis=1, kind="stable").reshape(code.n, 2, -1)
    signs.setflags(write=False)  # shared by every caller in the process
    splits.setflags(write=False)
    return signs, splits


def _parity_check_kernel(block, written):
    """Max-log MAP of the single-parity-check fibers of a (pre, n, post)
    block, into `written` (it may be the block): position j gets
    2 L_j + 2 (prod_{i != j} sign L_i) min_{i != j} |L_i|.

    One pass over the n slices, in order, keeps the smallest and the
    second-smallest |L| and the XOR of the sign bits; only then is anything
    written, and position j reads only L_j.  The least other magnitude is the
    second-smallest where |L_j| is the smallest (on a tie the two are equal)
    and the smallest elsewhere.  Signs are taken from sign bits, yet every
    value is the one of sign(0) = +1: the sign bit of L_j cancels at j, and a
    zero L_i makes the least other magnitude zero at every other position.
    Every temporary is a (pre, post) row.
    """
    n = block.shape[1]
    first = np.abs(block[:, 0])
    second = np.full_like(first, np.inf)
    odd = np.signbit(block[:, 0])
    value, tie = np.empty_like(first), np.empty_like(odd)
    for i in range(1, n):
        np.abs(block[:, i], out=value)
        np.minimum(second, value, out=second)
        np.maximum(second, first, out=second)
        np.minimum(first, value, out=first)
        odd ^= np.signbit(block[:, i], out=tie)
    flip = 1.0 - 2.0 * odd  # the product of all n signs
    for j in range(n):
        np.equal(np.abs(block[:, j], out=value), first, out=tie)
        least = np.where(tie, second, first)
        np.copysign(least, block[:, j], out=least)
        least *= flip  # signed by the product of the other n - 1 signs
        np.add(block[:, j], least, out=written[:, j])
        written[:, j] *= 2.0


def brute_force_soft_map_batch(llrs, code, *, out=None) -> np.ndarray:
    """Exact max-log soft MAP along the last axis of (..., n) LLRs, over any small code.

    Returns the code-position LLRs (..., n), in `out` if given (it may be
    `llrs`: all of it is read first).  A single-parity-check code, r = m-1,
    takes the closed form of `_parity_check_kernel`, in O(n) per fiber: the
    same max-log values as the search, rounded once per position, and
    independent of how many fibers share the call.  Any other code gathers
    its fibers once, (pre * post, n), and walks them in contiguous tiles of
    about SCORE_BLOCK_SIZE scores, at least SCORE_BLOCK_SIZE >> k >= 2 fibers
    each unless the call has one fiber (with OpenBLAS a product of two or
    more rows rounds as those rows of one whole product; one row may not,
    so no tile is a lone fiber).  Each tile is correlated against all 2^k
    codewords, (fibers, n) @ (n, 2^k), and copied codeword-major, (2^k,
    fibers); position j takes the max over its rows of the codewords with a 0
    at j minus the max over those with a 1, into an (n, pre * post) array
    that is written to the block once, at the end.  So no more than a tile's
    scores are alive at once.  Codes with k > MAX_BF_DIM are refused on
    either path.
    """
    check_exhaustive_size(code.descriptor, code.k)
    block, written, result = fiber_block(llrs, code.n, out)
    pre, _, post = block.shape
    if single_parity_check(code):
        _parity_check_kernel(block, written)
    else:
        signs, splits = _codebook(code)
        fibers = block.transpose(0, 2, 1).reshape(-1, code.n)
        flat = np.empty((code.n, len(fibers)))
        tiles = max(1, len(fibers) * len(signs) // SCORE_BLOCK_SIZE)
        for t in range(tiles):
            tile = slice(len(fibers) * t // tiles, len(fibers) * (t + 1) // tiles)
            major = np.ascontiguousarray((fibers[tile] @ signs.T).T)  # (2^k, fibers)
            for j, (zero, one) in enumerate(splits):
                np.subtract(major[zero].max(axis=0), major[one].max(axis=0), out=flat[j, tile])
        written[...] = flat.reshape(code.n, pre, post).swapaxes(0, 1)
    return result


def _ml_kernel(block, code, written):
    """Exhaustive hard ML codeword bits of a (pre, n, post) block, into
    `written`, ties to the lowest codeword index."""
    signs, _ = _codebook(code)
    pre, n, post = block.shape
    best = np.argmax(block.transpose(0, 2, 1).reshape(-1, n) @ signs.T, axis=-1).reshape(pre, post)
    written[...] = signs[best[:, None, :], np.arange(code.n)[:, None]] < 0.0  # (pre, n, post)


def brute_force_ml_decode_batch(llrs, code, *, out=None) -> np.ndarray:
    """Exhaustive hard ML along the last axis of (..., n) float LLRs or uint8
    codeword bits, over any small code (ties to the lowest codeword index);
    returns the uint8 codeword bits (..., n), in uint8 `out` if given (it may
    be `llrs`).

    Bits are read as the +-1 words 1 - 2c; on a code with 2^(n+k) <= 2^21
    (every rm(2,r) and rm(3,r), rm(4,0) and rm(4,1)) they are served from a
    table of these decisions on all 2^n +-1 words (see `fht.hard_decode`).
    """
    check_exhaustive_size(code.descriptor, code.k)
    return hard_decode(llrs, code, _ml_kernel, out)
