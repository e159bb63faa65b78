"""Fast Walsh-Hadamard transform and hard ML decoding of first-order RM codes.

Every component kernel (here and in `soft_fht`) takes from one `fiber_block`
call its (..., n) input as a (pre, n, post) block laid out as it sits in
memory, the block it writes in that layout (the keyword `out=` if given,
else a fresh array that the caller owns) and the array it returns.  A
component decoder's `out` may be its input itself, so product-tensor fibers
are decoded in place along any axis.  Full-size work arrays come from
`workspace`, one set per thread and size, so a steady-state decode faults no
work array in.  The FHT runs its stages in the layout of the block it
writes, whatever the input's: in m passes when that block lies in memory as
the input does and m <= 5, else in m + 2, two of them copies that rotate the
index bits.  No kernel counts its work: the cost model of every step is in
`ops`.

Both hard decoders (here and in `soft_fht`) read float LLRs or uint8 codeword
bits and write uint8 codeword bits.  In hard product decoding every component
call after the first reads the bits the previous axis decided; on a small code
they are served from a table of the decoder's own decisions on all 2^n +-1
words (`hard_decode`).
"""

import math
import threading
from functools import lru_cache

import numpy as np

from .channel import bpsk_modulate

MAX_TABLE_BITS = 21  # a hard decoder is tabulated on bit words when 2^(n+k) <= 2^21
TABLE_BLOCK_SIZE = 1 << 17  # entries of the largest per-word array in one table-build block
# Up to n = 2^4 hard ML finds each spectrum peak by a running compare over the n spectrum
# rows, and longer fibers take argmax.  The whole kernel on 2^17-entry (pre, n, 256) blocks,
# argmax -> scan, ms (2-core x86-64 VM, numpy 2.4): n=2 2.07->0.70, n=4 1.79->0.88,
# n=8 1.72->1.15, n=16 1.68->1.35, n=32 1.72->1.78, n=64 1.58->1.91.
_MAX_SCAN_BITS = 4
# Up to m = 5 the FHT runs its m stages straight, without the two rotating copies, when the
# block it writes lies in memory as its input.  C-ordered (pre, n, post) blocks, rotating ->
# straight, ms, same host: (64, 8, 256) 0.85->0.74, (1, 16, 8192) 1.05->0.91, (1, 32, 4096)
# 0.76->0.67, (64, 32, 64) 1.51->1.46, (16, 32, 256) 1.18->1.21; at m = 6 and 7 the rotating
# plan wins, (4, 64, 256) 0.40->0.46 and (2, 128, 256) 0.37->0.43.
_MAX_STRAIGHT_BITS = 5


@lru_cache(maxsize=4)
def _workspace(size, thread):
    return np.empty(size), np.empty(size)


def workspace(size):
    """This thread's two flat float64 work arrays of `size` elements, cached
    for the last few (size, thread) pairs.  Each nesting level owns one:
    [0] a component decoder's spectra (and the soft decoder's info LLRs),
    [1] a step kernel's scratch (the FHT's ping-pong partner, laid out as the
    block it writes; |S|, the min-sum magnitudes and signs).  Keying by
    thread keeps concurrent decodes apart, as numpy releases the GIL.
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
    not overlap the input).  The passes alternate between the written block
    and a workspace partner laid out like it, the last landing in the written
    block, and both plans below transform index bits 0..m-1 in that order, so
    they give the same bits.  When m <= _MAX_STRAIGHT_BITS and the written
    block lies in memory as the input block does (the hard ML kernel's
    blocks, the hard tables' (words, n, 1) blocks, the soft decoder's pre = 1
    axis), the m stages run straight: m passes.  Otherwise there are m + 2:
    the low m//2 index bits are transformed first, then the rest; each group
    starts with a pass that copies the data with its index bits rotated so
    that the group's bits are the slowest, so no stage pairs runs shorter than
    2^(m//2) entries of the fiber axis.  At n = 1 the one pass is a copy.
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
    straight = m <= _MAX_STRAIGHT_BITS and _slowest_first(written)
    buffers = (written, _laid_out_like(workspace(block.size)[1], written))
    source, turn = block, (m + 1) % 2  # m or m + 2 passes, the last into `written`
    for low in (m,) if straight else (m // 2, m - m // 2):
        if not straight:
            # rotate the index bits right by `low`: the bits transformed next become the slowest
            into = buffers[turn].reshape((pre, 1 << low, n >> low, post), copy=False)
            into[...] = source.reshape(pre, n >> low, 1 << low, post).swapaxes(1, 2)
            source, turn = buffers[turn], 1 - turn
        for stage in range(m - low, m):
            shape = (pre, n >> (stage + 1), 2, 1 << stage, post)
            pairs = source.reshape(shape)
            into = buffers[turn].reshape(shape, copy=False)  # splits one axis: a view
            np.add(pairs[:, :, 0], pairs[:, :, 1], out=into[:, :, 0])
            np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=into[:, :, 1])
            source, turn = buffers[turn], 1 - turn
    return result


def _slowest_first(block):
    """Whether the axes of `block` longer than one lie in memory in their own order."""
    strides = [stride for stride, length in zip(block.strides, block.shape) if length > 1]
    return strides == sorted(strides, reverse=True)


def _laid_out_like(flat, block):
    """The head of a flat array in `block`'s shape, its axes in memory in `block`'s order."""
    order = np.argsort(block.strides)[::-1]
    return flat[: block.size].reshape(np.take(block.shape, order)).transpose(np.argsort(order))


def _word_indices(bits):
    """(pre, post) uint16 index of each fiber of a (pre, n, post) uint8 bit
    block, with bit j from position j."""
    shifts = np.arange(bits.shape[1], dtype=np.uint16)[:, None]
    return np.bitwise_or.reduce(np.left_shift(bits, shifts, dtype=np.uint16), axis=1)


def _word_bits(indices, out):
    """Bit j of each (pre, post) word index, into position j of the (pre, n,
    post) uint8 block `out`."""
    shifts = np.arange(out.shape[1], dtype=np.uint16)[:, None]
    np.right_shift(indices[:, None, :], shifts, out=out, casting="unsafe")
    out &= 1


@lru_cache(maxsize=None)
def _hard_table(code, kernel):
    """Word index of `kernel`'s decision on each +-1 word, by the word's index
    (bit j set where position j is -1).

    Built a block of TABLE_BLOCK_SIZE >> max(m, k) words at a time, so that
    the words, their spectra or their 2^k correlations stay near 1 MiB; the
    correlations of +-1 words are integers, so blocking cannot change them.
    """
    words = 1 << code.n
    table = np.empty(words, dtype=np.uint16)  # n <= 16 whenever a table is built
    step = TABLE_BLOCK_SIZE >> max(code.m, code.k)
    for start in range(0, words, step):
        index = np.arange(start, min(words, start + step), dtype=np.uint16)[:, None]  # post = 1
        bits = np.empty((len(index), code.n, 1), dtype=np.uint8)
        _word_bits(index, bits)
        kernel(bpsk_modulate(bits), code, bits)
        table[start : start + step] = _word_indices(bits)[:, 0]
    table.setflags(write=False)  # shared by every caller in the process
    return table


def hard_decode(llrs, code, kernel, out=None):
    """Hard decisions along the last axis of (..., n) float LLRs or uint8
    bits by `kernel`, which writes the codeword bits of a (pre, n, post) float
    fiber block into a uint8 block given as its third argument; into `out` if
    given (it may be `llrs`).

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
    treated as positive), so bit x is parity(index & x) ^ (peak < 0).  The
    spectra lie in the block's layout.  Up to n = 2^_MAX_SCAN_BITS the peak is
    found by one running compare over the n (pre, post) spectrum rows
    (`_scan_peaks`); longer fibers take argmax over the magnitudes laid out
    fiber-major, (pre, post, n), so that it reads them in place."""
    pre, n, post = block.shape
    spectra = workspace(block.size)[0].reshape(block.shape)
    fht(block.swapaxes(1, 2), out=spectra.swapaxes(1, 2))
    scratch = workspace(block.size)[1]
    if n <= 1 << _MAX_SCAN_BITS:
        index, negative = _scan_peaks(spectra, scratch)
    else:
        magnitudes = np.abs(spectra.swapaxes(1, 2), out=scratch.reshape(pre, post, n))
        # the least unsigned type that holds every index and position: uint8 up to n = 2^8, and
        # uint16 up to n = 2^16, the cap rm_core.MAX_M = 16 sets; numpy counts uint8 bits far faster
        index = np.argmax(magnitudes, axis=2).astype(np.min_scalar_type(n - 1))
        negative = np.take_along_axis(spectra, index[:, None, :], axis=1)[:, 0] < 0.0
    np.bitwise_count(index[:, None, :] & np.arange(n, dtype=index.dtype)[:, None], out=written)
    written &= 1
    written ^= negative[:, None, :]


def _scan_peaks(spectra, scratch):
    """The uint8 index and sign bit of the entry of largest magnitude in each
    fiber of a (pre, n, post) spectrum block, n <= 16, by one running
    strict-greater compare over its n (pre, post) rows.

    A running uint8 max keeps greater_j * (2j + [S_j < 0]): an entry that beats
    the best magnitude so far outranks every earlier key, and one that only
    ties adds 0, so the key holds the first peak's index (key >> 1) and sign
    (key & 1), with -0.0 read as positive.  The best and current magnitudes
    sit at the head of the flat float64 `scratch`.  No masked write: numpy's
    masked loops run several times slower than these plain ones.
    """
    pre, n, post = spectra.shape
    best, magnitude = scratch[: 2 * pre * post].reshape(2, pre, post)
    np.abs(spectra[:, 0], out=best)
    key = (spectra[:, 0] < 0.0).view(np.uint8)
    greater = np.empty((pre, post), dtype=bool)
    candidate = np.empty((pre, post), dtype=np.uint8)
    for j in range(1, n):
        row = spectra[:, j]
        np.abs(row, out=magnitude)
        np.greater(magnitude, best, out=greater)
        np.maximum(best, magnitude, out=best)
        np.less(row, 0.0, out=candidate.view(bool))
        candidate += 2 * j
        candidate *= greater
        np.maximum(key, candidate, out=key)
    return key >> 1, key & 1


def fht_ml_decode_batch(llrs, code, *, out=None):
    """Hard ML decoding along the last axis of (..., n) float LLRs or uint8
    codeword bits.

    Picks the spectrum entry of largest magnitude (ties to the smallest index,
    zero sign treated as positive): by a running compare over the spectrum
    rows up to n = 16, by argmax beyond (see `_ml_kernel`), with the same
    decisions either way.  Returns the uint8 codeword bits (..., n), in uint8
    `out` if given (it may be `llrs`).  Bits are read as the +-1 words 1 - 2c;
    on a code with 2^(n+k) <= 2^21 (rm(1,1) to rm(4,1)) they are served from a
    table of these decisions on all 2^n +-1 words (see `hard_decode`).
    """
    return hard_decode(llrs, code, _ml_kernel, out)
