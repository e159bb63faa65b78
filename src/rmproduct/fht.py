"""Fast Walsh-Hadamard transform and hard ML decoding of first-order RM codes.

Every component kernel (here and in `soft_fht`) takes from one `fiber_block`
call its (..., n) input as a (pre, n, post) block laid out as it sits in
memory, the block it writes in that layout (the keyword `out=` if given,
else a fresh array that the caller owns) and the array it returns.  A
component decoder's `out` may be its input itself, so product-tensor fibers
are decoded in place along any axis.  Full-size work arrays come from
`workspace`, one set per thread and size, so a steady-state decode faults no
work array in.  The FHT runs every stage with the fiber axis slowest,
(n, pre, post), whatever the input's layout: in m passes when the input is
already laid out so (pre = 1) and m <= 5, else in m + 2, two of them copies
that rotate the index bits into that layout.  No kernel counts its work: the
cost model of every step is in `ops`.

Both hard decoders (here and in `soft_fht`) read float LLRs or uint8 0/1
codeword bits and write uint8 codeword bits.  In hard product decoding every
component call after the first reads the bits the previous axis decided; on a
small code they are served from a table of the decoder's own decisions on all
2^n +-1 words (`hard_decode`).
"""

import math
import threading
from functools import lru_cache

import numpy as np

from .channel import bpsk_modulate

MAX_TABLE_BITS = 21  # a hard decoder is tabulated on bit words when 2^(n+k) <= 2^21
TABLE_BLOCK_SIZE = 1 << 17  # entries of the largest per-word array in one table-build block
# Up to m = 5 the FHT reads a pre = 1 block in place, without the two rotating copies; above,
# the copies win on blocks that fit in cache.  (1, n, post) blocks, rotating -> in place, ms
# (2-core x86-64 VM, numpy 2.4): (1, 16, 4096) 0.23->0.20, (1, 32, 4096) 0.67->0.57,
# (1, 64, 256) 0.12->0.15, (1, 128, 256) 0.30->0.36, (1, 256, 256) 0.45->0.62,
# (1, 64, 1024) 0.33->0.41, (1, 64, 4096) 2.32->1.94, (1, 256, 2048) 6.40->6.32.
_MAX_STRAIGHT_BITS = 5


@lru_cache(maxsize=4)
def _workspace(size, thread):
    return np.empty(size), np.empty(size)


def workspace(size):
    """This thread's two flat float64 work arrays of `size` elements, cached
    for the last few (size, thread) pairs.  Each nesting level owns one:
    [0] a component decoder's spectra (and the soft decoder's info LLRs),
    [1] a step kernel's scratch (the FHT's ping-pong partner, laid out
    (n, pre, post); the hard ML peak keys and mask, the min-sum magnitudes
    and signs).  Keying by thread keeps concurrent decodes apart, as numpy
    releases the GIL.
    """
    return _workspace(size, threading.get_ident())


def fiber_block(values, length=None, out=None, width=None, dtype=np.float64):
    """The last axis of `values` as the middle axis of a (pre, n, post) block,
    with the (pre, width, post) block of `dtype` a kernel writes (width
    defaults to n) and the (..., width) array it returns in the input's axis
    order.  The values are read as float64, or kept as uint8 bits when a uint8
    block is written.

    Axes go into memory order, so for any axis permutation of a C-ordered
    array the reshape is a view.  The written block is `out` seen through the
    same transpose (an array of `dtype` and the input's leading shape whose
    axes lie in memory in the input's order, such as the input itself), else
    a fresh C-ordered block; returns (block, written, result).
    """
    a = np.asarray(values)
    a = a if a.dtype == dtype == np.uint8 else a.astype(np.float64, copy=False)
    if length is not None and a.shape[-1] != length:
        raise ValueError(f"fibers have length {a.shape[-1]}, expected {length}")
    order = sorted(range(a.ndim - 1), key=lambda axis: -a.strides[axis])
    place = sum(a.strides[axis] > a.strides[-1] for axis in order)
    perm = order[:place] + [a.ndim - 1] + order[place:]
    moved = a.transpose(perm)
    outer, inner = moved.shape[:place], moved.shape[place + 1:]
    pre, post = math.prod(outer), math.prod(inner)
    block = moved.reshape(pre, a.shape[-1], post)
    shape = a.shape[:-1] + (a.shape[-1] if width is None else width,)
    if out is not None:
        if out.dtype != dtype or out.shape != shape:
            raise ValueError(f"out must be {np.dtype(dtype)} of shape {shape}, got {out.dtype} {out.shape}")
        try:
            return block, out.transpose(perm).reshape((pre, shape[-1], post), copy=False), out
        except ValueError:
            raise ValueError(f"out must lay out its axes in memory as the input does, "
                             f"{tuple(perm)} from slowest to fastest") from None
    written = np.empty((pre, shape[-1], post), dtype=dtype)
    return block, written, written.reshape(outer + shape[-1:] + inner).transpose(np.argsort(perm))


def fht(values, *, out=None):
    """Transform along the last axis by the Sylvester matrix [[1,1],[1,-1]]^(kron m).

    log2(n) butterfly stages, each doing exactly n additions/subtractions per
    fiber; applying it twice returns n times the input.  Does not mutate the
    input; returns a float64 array of the same shape, `out` if given (it must
    not overlap the input).  Every pass runs with the fiber axis slowest: it
    sees its source and target as (n, pre, post), so stage b pairs runs of
    2^b * pre * post entries.  The passes alternate between the written block
    seen as (n, pre, post) and a workspace partner of that shape, the last
    landing in the written block.  The decoders' spectra lie in memory that
    way; a written block that does not (only a direct call makes one, such
    as fht(x) on C-ordered (count, n) fibers) takes its passes through that
    strided view, several times slower.  A block already fiber slowest
    (pre = 1) with m <= _MAX_STRAIGHT_BITS is read in place by the m stages:
    m passes.  Any other takes m + 2: the low m//2 index bits are transformed
    first, then the rest, each group after a pass that copies the data into
    (n, pre, post) with its index bits rotated so that the group's bits are
    the slowest, so no stage pairs runs shorter than 2^(m//2) * pre * post
    entries.  Both plans transform index bits 0..m-1 in that order, so they
    give the same bits.  At n = 1 the one pass is a copy.
    """
    if out is not None and np.may_share_memory(values, out):
        raise ValueError("fht's out must not overlap its input")
    block, written, result = fiber_block(values, out=out)
    pre, n, post = block.shape
    if n == 0 or n & (n - 1):
        raise ValueError(f"transform length must be a power of two, got {n}")
    m = n.bit_length() - 1
    if m == 0:
        written[...] = block
        return result
    straight = pre == 1 and m <= _MAX_STRAIGHT_BITS
    buffers = (written.transpose(1, 0, 2), workspace(block.size)[1].reshape(n, pre, post))
    source, turn = block.transpose(1, 0, 2), (m + 1) % 2  # m or m + 2 passes, the last into `written`
    for low in (m,) if straight else (m // 2, m - m // 2):
        if not straight:
            # rotate the index bits right by `low`: the bits transformed next become the slowest
            into = buffers[turn].reshape((1 << low, n >> low, pre, post), copy=False)
            into[...] = source.reshape(n >> low, 1 << low, pre, post).swapaxes(0, 1)
            source, turn = buffers[turn], 1 - turn
        for stage in range(m - low, m):
            shape = (n >> (stage + 1), 2, 1 << stage, pre, post)
            pairs = source.reshape(shape)
            into = buffers[turn].reshape(shape, copy=False)  # splits one axis: a view
            np.add(pairs[:, 0], pairs[:, 1], out=into[:, 0])
            np.subtract(pairs[:, 0], pairs[:, 1], out=into[:, 1])
            source, turn = buffers[turn], 1 - turn
    return result


def _word_indices(bits):
    """(pre, post) index of each fiber of a (pre, n, post) uint8 bit block,
    with bit j from position j, in the least unsigned type of 2^n - 1."""
    n = bits.shape[1]
    weights = 1 << np.arange(n, dtype=np.min_scalar_type((1 << n) - 1))[:, None]
    return np.bitwise_or.reduce(bits * weights, axis=1)


def _word_bits(indices, out):
    """Bit j of each (pre, post) word index, into position j of the (pre, n,
    post) uint8 block `out`."""
    shifts = np.arange(out.shape[1], dtype=indices.dtype)[:, None]
    np.right_shift(indices[:, None, :], shifts, out=out, casting="unsafe")
    out &= 1


@lru_cache(maxsize=None)
def _hard_table(code, kernel):
    """Word index of `kernel`'s decision on each +-1 word, by the word's index
    (bit j set where position j is -1), both in the least unsigned type of
    2^n - 1: uint8 up to n = 8, else uint16 (n <= 16 whenever a table is built).

    Built a block of TABLE_BLOCK_SIZE >> max(m, k) words at a time, so that
    the words, their spectra or their 2^k correlations stay near 1 MiB; the
    correlations of +-1 words are integers, so blocking cannot change them.
    """
    words = 1 << code.n
    table = np.empty(words, dtype=np.min_scalar_type(words - 1))
    step = TABLE_BLOCK_SIZE >> max(code.m, code.k)
    for start in range(0, words, step):
        index = np.arange(start, min(words, start + step), dtype=table.dtype)[:, None]  # post = 1
        bits = np.empty((len(index), code.n, 1), dtype=np.uint8)
        _word_bits(index, bits)
        kernel(bpsk_modulate(bits), code, bits)
        table[start : start + step] = _word_indices(bits)[:, 0]
    table.setflags(write=False)  # shared by every caller in the process
    return table


def hard_decode(llrs, code, kernel, out=None):
    """Hard decisions along the last axis of (..., n) float LLRs or uint8
    0/1 bits by `kernel`, which writes the codeword bits of a (pre, n, post)
    float fiber block into a uint8 block given as its third argument; into
    `out` if given (it may be `llrs`).

    The input's dtype and the code's size pick the path, never its values.
    LLRs run the kernel.  Bits of a code with 2^(n+k) <= 2^MAX_TABLE_BITS are
    served from a table of the kernel's own decisions on all 2^n +-1 words,
    built once per code, so every tie breaks as the kernel breaks it; bits of
    a larger code run the kernel on their +-1 words.  Every path reads all of
    the input before it writes the output.
    """
    block, written, result = fiber_block(llrs, code.n, out, dtype=np.uint8)
    if block.dtype == np.uint8 and code.n + code.k <= MAX_TABLE_BITS:
        _word_bits(np.take(_hard_table(code, kernel), _word_indices(block)), written)
    else:
        kernel(block if block.dtype == np.float64 else bpsk_modulate(block), code, written)
    return result


def _ml_kernel(block, code, written):
    """Hard ML codeword bits of a (pre, n, post) block, into `written`: the
    Sylvester-Hadamard row at the spectrum entry of largest magnitude (ties to
    the smallest index), negated when that entry is negative (zero sign
    treated as positive), so bit x is parity(index & x) ^ (peak < 0).

    The FHT writes the spectra fiber-slowest, as n contiguous rows of pre *
    post entries, whatever the block's layout.  Each entry's key is
    2(n - 1 - j) + [S_j < 0] if its magnitude equals its fiber's largest
    (exact: the max is one of them), else 0, in the least unsigned type of
    2n - 1, so each fiber's largest key holds its first peak's index
    (n - 1 - (key >> 1)) and sign (key & 1), with -0.0 read as positive.
    The keys (<= 4 bytes an entry), then the peak mask, fill the scratch
    array; the magnitudes overwrite the spectra after the signs are read.
    """
    pre, n, post = block.shape
    spectra, scratch = workspace(block.size)
    rows = spectra.reshape(n, pre * post)
    fht(block.swapaxes(1, 2), out=spectra.reshape(n, pre, post).transpose(1, 2, 0))
    keys = scratch.view(np.min_scalar_type(2 * n - 1))[: block.size].reshape(n, pre * post)
    peaks = scratch.view(bool)[keys.nbytes : keys.nbytes + block.size].reshape(n, pre * post)
    np.less(rows, 0.0, out=keys)
    magnitudes = np.abs(rows, out=rows)
    np.equal(magnitudes, magnitudes.max(axis=0), out=peaks)
    keys += np.arange(2 * (n - 1), -1, -2, dtype=keys.dtype)[:, None]
    keys *= peaks
    key = keys.max(axis=0).reshape(pre, post)
    # the index in the least unsigned type of n - 1: numpy counts uint8 bits far faster
    index = (n - 1 - (key >> 1)).astype(np.min_scalar_type(n - 1))
    np.bitwise_count(index[:, None, :] & np.arange(n, dtype=index.dtype)[:, None], out=written)
    written &= 1
    written ^= (key & 1).astype(np.uint8)[:, None, :]


def fht_ml_decode_batch(llrs, code, *, out=None):
    """Hard ML decoding along the last axis of (..., n) float LLRs or uint8
    codeword bits.

    Picks the spectrum entry of largest magnitude (ties to the smallest index,
    zero sign treated as positive) by one rule at every n (see `_ml_kernel`).
    Returns the uint8 codeword bits (..., n), in uint8 `out` if given (it may
    be `llrs`).  Bits must be 0/1; they are read as the +-1 words 1 - 2c;
    on a code with 2^(n+k) <= 2^21 (rm(1,1) to rm(4,1)) they are served from a
    table of these decisions on all 2^n +-1 words (see `hard_decode`).
    """
    return hard_decode(llrs, code, _ml_kernel, out)
