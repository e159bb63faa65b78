"""Fast Walsh-Hadamard transform and hard ML decoding of first-order RM codes.

Every component kernel (here and in `soft_fht`) views its (..., n) input as a
(pre, n, post) block laid out as it sits in memory and returns float64 in that
layout, so product-tensor fibers are decoded in place along any axis.

In hard product decoding every component call after the first sees +-1
fibers, the codewords the previous axis decided.  Both hard decoders (here
and in `soft_fht`) serve such calls on a small code from a table of their
own decisions on all 2^n +-1 words (`hard_decode`).
"""

import math
from functools import lru_cache

import numpy as np

from .channel import bpsk_modulate

MAX_TABLE_BITS = 21  # a hard decoder is tabulated on +-1 words when 2^(n+k) <= 2^21
TABLE_BLOCK_SIZE = 1 << 17  # entries of the largest per-word array in one table-build block


def fiber_block(values, length=None):
    """The last axis of `values` as the middle axis of a (pre, n, post) block.

    Axes go into memory order, so for any axis permutation of a C-ordered
    array the reshape is a view.  Also returns `restore`, which lays a
    (pre, j, post) result out as (..., j) in the input's axis order.
    """
    a = np.asarray(values, dtype=np.float64)
    if length is not None and a.shape[-1] != length:
        raise ValueError(f"fibers have length {a.shape[-1]}, expected {length}")
    order = sorted(range(a.ndim - 1), key=lambda axis: -a.strides[axis])
    place = sum(a.strides[axis] > a.strides[-1] for axis in order)
    perm = order[:place] + [a.ndim - 1] + order[place:]
    moved = a.transpose(perm)
    outer, inner = moved.shape[:place], moved.shape[place + 1:]
    block = moved.reshape(math.prod(outer), a.shape[-1], math.prod(inner))
    inverse = np.argsort(perm)
    return block, lambda result: result.reshape(outer + result.shape[1:2] + inner).transpose(inverse)


def prefix_butterfly(op, first, rows):
    """Re-expand (pre, 1, post) `first` and (pre, m, post) `rows` to (pre, 2^m, post).

    Each row, the last one first, doubles the prefix to op(prefix, row) in the
    dtype of `first`, so row b feeds the positions with bit 2^(m-1-b) set, as
    info bit b+1 of RM(m, 1).
    """
    pre, m, post = rows.shape
    out = np.empty((pre, 1 << m, post), dtype=first.dtype)
    out[:, :1] = first
    for b in range(m - 1, -1, -1):
        width = 1 << (m - 1 - b)
        op(out[:, :width], rows[:, b : b + 1], out=out[:, width : 2 * width])
    return out


def fht(values, counter=None):
    """Transform along the last axis by the Sylvester matrix [[1,1],[1,-1]]^(kron m).

    log2(n) butterfly stages, each doing exactly n additions/subtractions per
    fiber; applying it twice returns n times the input.  Does not mutate the
    input; returns a float64 array of the same shape.
    """
    block, restore = fiber_block(values)
    pre, n, post = block.shape
    if n == 0 or n & (n - 1):
        raise ValueError(f"transform length must be a power of two, got {n}")
    m = n.bit_length() - 1
    buffers = [np.empty(block.shape) for _ in range(min(m, 2))]  # C-ordered: reshapes are views
    source = block if m else block.copy()
    for stage in range(m):
        pairs = source.reshape(pre, n >> (stage + 1), 2, 1 << stage, post)
        out = buffers[stage % 2].reshape(pairs.shape)
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=out[:, :, 0])
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=out[:, :, 1])
        source = buffers[stage % 2]
    if counter is not None:
        counter.add_sub += pre * post * n * m
        counter.depth += m
    return restore(source)


def _sign_indices(block):
    """(pre, post) index of each +-1 fiber of a (pre, n, post) block, with bit j
    set when position j is -1; exact, since every partial sum is an integer."""
    n = block.shape[1]
    return ((1 << n) - 1 - np.matmul(1 << np.arange(n), block)).astype(np.intp) >> 1


def _pm1_fibers(indices, n):
    """The (pre, n, post) +-1 fibers of (pre, post) sign indices: -1 at the set bits."""
    bits = (1 << np.arange(n, dtype=np.uint16))[:, None]
    return bpsk_modulate((indices[:, None, :] & bits) != 0)


@lru_cache(maxsize=None)
def _hard_table(code, kernel):
    """Sign index of `kernel`'s decision on each +-1 word, by the word's sign index.

    Built a block of TABLE_BLOCK_SIZE >> max(m, k) words at a time, so that
    the words, their spectra or their 2^k correlations stay near 1 MiB; the
    correlations of +-1 words are integers, so blocking cannot change them.
    """
    words = 1 << code.n
    table = np.empty(words, dtype=np.uint16)  # n <= 16 whenever a table is built
    step = TABLE_BLOCK_SIZE >> max(code.m, code.k)
    for start in range(0, words, step):
        index = np.arange(start, min(words, start + step))[:, None]  # (words, post = 1)
        table[start : start + step] = _sign_indices(kernel(_pm1_fibers(index, code.n), code))[:, 0]
    table.setflags(write=False)  # shared by every caller in the process
    return table


def hard_decode(llrs, code, kernel):
    """Hard decisions along the last axis of (..., n) LLRs by `kernel`, which
    maps a (pre, n, post) fiber block to its +-1 codewords in a C-ordered block.

    When every entry is +-1 and 2^(n+k) <= 2^MAX_TABLE_BITS, the fibers are
    served from a table of the kernel's own decisions on all 2^n +-1 words,
    built once per code, so every tie breaks as the kernel breaks it.  The
    first fiber is checked first: channel LLRs fall through after O(n).
    """
    block, restore = fiber_block(llrs, code.n)
    if (code.n + code.k <= MAX_TABLE_BITS and block.size
            and np.all(np.abs(block[0, :, 0]) == 1.0) and np.all(np.abs(block) == 1.0)):
        decided = np.take(_hard_table(code, kernel), _sign_indices(block))
        return restore(_pm1_fibers(decided, code.n))
    return restore(kernel(block, code))


def _ml_kernel(block, code):
    """Hard ML codewords of a (pre, n, post) block: the spectrum entry of
    largest magnitude (ties to the smallest index, zero sign treated as
    positive) names the information word."""
    spectra = fht(block.swapaxes(1, 2)).swapaxes(1, 2)  # (pre, n, post) again, C-ordered
    index = np.argmax(np.abs(spectra), axis=1)
    peak = np.take_along_axis(spectra, index[:, None, :], axis=1)[:, 0]
    pre, post = index.shape
    infos = np.empty((pre, code.m + 1, post), dtype=np.uint8)
    infos[:, 0] = peak < 0.0
    infos[:, 1:] = (index[:, None] >> np.arange(code.m - 1, -1, -1)[:, None]) & 1  # MSB first
    return bpsk_modulate(prefix_butterfly(np.bitwise_xor, infos[:, :1], infos[:, 1:]))


def fht_ml_decode_batch(llrs, code, counter=None):
    """Hard ML decoding along the last axis of a (..., n) LLR array.

    Picks the spectrum entry of largest magnitude (ties to the smallest index,
    zero sign treated as positive); returns the +-1 codewords (..., n).  A
    call whose entries are all +-1 on a code with 2^(n+k) <= 2^21 (rm(1,1)
    to rm(4,1)) is served from a table of these decisions on all 2^n
    +-1 words (see `hard_decode`); it counts the operations of the transform
    and the search all the same.
    """
    decided = hard_decode(llrs, code, _ml_kernel)
    if counter is not None:
        fibers, n, m = decided.size // code.n, code.n, code.m
        counter.add_sub += fibers * n * m
        counter.compare += fibers * (n - 1)
        counter.depth += 2 * m
    return decided
