"""Fast Walsh-Hadamard transform and hard ML decoding of first-order RM codes.

Every first-order kernel (here and in `soft_fht`) works along the last axis of
any (..., n) array, on a (pre, n, post) view laid out as the array sits in
memory, so product-tensor fibers are decoded in place along any axis.
"""

import math

import numpy as np


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


def prefix_butterfly(op, first, rows, dtype):
    """Re-expand (pre, 1, post) `first` and (pre, m, post) `rows` to (pre, 2^m, post).

    Each row, the last one first, doubles the prefix to op(prefix, row), so row
    b feeds the positions with bit 2^(m-1-b) set, as info bit b+1 of RM(m, 1).
    """
    pre, m, post = rows.shape
    out = np.empty((pre, 1 << m, post), dtype=dtype)
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


def fht_ml_decode_batch(llrs, code, counter=None):
    """Hard ML decoding along the last axis of a (..., n) LLR array.

    Picks the spectrum entry of largest magnitude (ties to the smallest index,
    zero sign treated as positive); returns uint8 (codewords (..., n),
    information words (..., m+1)).
    """
    spectra, restore = fiber_block(fht(llrs, counter), code.n)
    pre, n, post = spectra.shape
    m = code.m
    index = np.argmax(np.abs(spectra), axis=1)
    peak = np.take_along_axis(spectra, index[:, None, :], axis=1)[:, 0]
    infos = np.empty((pre, m + 1, post), dtype=np.uint8)
    infos[:, 0] = peak < 0.0
    infos[:, 1:] = (index[:, None] >> np.arange(m - 1, -1, -1)[:, None]) & 1  # MSB first
    codewords = prefix_butterfly(np.bitwise_xor, infos[:, :1], infos[:, 1:], np.uint8)
    if counter is not None:
        counter.compare += pre * post * (n - 1)
        counter.depth += m
    return restore(codewords), restore(infos)
