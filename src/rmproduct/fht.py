"""Fast Walsh-Hadamard transform and hard ML decoding of first-order RM codes.

Every component kernel (here and in `soft_fht`) takes from one `fiber_block`
call its (..., n) input as a (pre, n, post) block laid out as it sits in
memory, the block it writes in that layout (`out=` if given, else a fresh
array that the caller owns) and the array it returns.  A component decoder's
`out` may be its input itself, so product-tensor fibers are decoded in place
along any axis.  Full-size work arrays come from `workspace`, one set per
thread and size, so a steady-state decode faults no work array in.  The FHT
runs its stages in the layout of the block it writes, whatever the input's.

In hard product decoding every component call after the first sees +-1
fibers, the codewords the previous axis decided.  Both hard decoders (here
and in `soft_fht`) serve such calls on a small code from a table of their
own decisions on all 2^n +-1 words (`hard_decode`).
"""

import math
import threading
from functools import lru_cache

import numpy as np

from .channel import bpsk_modulate

MAX_TABLE_BITS = 21  # a hard decoder is tabulated on +-1 words when 2^(n+k) <= 2^21
TABLE_BLOCK_SIZE = 1 << 17  # entries of the largest per-word array in one table-build block


@lru_cache(maxsize=4)
def _workspace(size, thread):
    return np.empty(size), np.empty(size)


def workspace(size):
    """This thread's two flat float64 work arrays of `size` elements, cached
    for the last few (size, thread) pairs.  Each nesting level owns one:
    [0] a component decoder's spectra (and the soft decoder's info LLRs),
    [1] a step kernel's scratch (the FHT's ping-pong partner, laid out as the
    block it writes; |S|, the min-sum magnitudes and signs, the hard decoders'
    bits).  A hard decoder's +-1 check borrows both before its kernel runs.
    Keying by thread keeps concurrent decodes apart, as numpy releases the GIL.
    """
    return _workspace(size, threading.get_ident())


def fiber_block(values, length=None, out=None, width=None):
    """The last axis of `values` as the middle axis of a (pre, n, post) block,
    with the (pre, width, post) block a kernel writes (width defaults to n)
    and the (..., width) array it returns in the input's axis order.

    Axes go into memory order, so for any axis permutation of a C-ordered
    array the reshape is a view.  The written block is `out` seen through the
    same transpose (a float64 array of the input's leading shape that takes
    the reshape as a view, such as the input itself), else a fresh C-ordered
    block; returns (block, written, result).
    """
    a = np.asarray(values, dtype=np.float64)
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
        if out.dtype != np.float64 or out.shape != shape:
            raise ValueError(f"out must be float64 of shape {shape}, got {out.dtype} {out.shape}")
        return block, out.transpose(perm).reshape((pre, shape[-1], post), copy=False), out
    written = np.empty((pre, shape[-1], post))
    return block, written, written.reshape(outer + shape[-1:] + inner).transpose(np.argsort(perm))


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


def fht(values, counter=None, out=None):
    """Transform along the last axis by the Sylvester matrix [[1,1],[1,-1]]^(kron m).

    log2(n) butterfly stages, each doing exactly n additions/subtractions per
    fiber; applying it twice returns n times the input.  Does not mutate the
    input; returns a float64 array of the same shape, `out` if given (it must
    not overlap the input).  The passes alternate between the written block
    and a workspace partner laid out like it, the last landing in the written
    block.  The low m//2 index bits are transformed first, then the rest; each
    group starts with a pass that copies the data with its index bits rotated
    so that the group's bits are the slowest, so no stage pairs runs shorter
    than 2^(m//2) entries of the fiber axis.
    """
    if out is not None and np.may_share_memory(values, out):
        raise ValueError("fht's out must not overlap its input")
    block, written, result = fiber_block(values, out=out)
    pre, n, post = block.shape
    if n == 0 or n & (n - 1):
        raise ValueError(f"transform length must be a power of two, got {n}")
    m = n.bit_length() - 1
    buffers = (written, _laid_out_like(workspace(block.size)[1], written))
    source, turn = block, (m + 1) % 2  # m + 2 passes, the last into `written`
    for low in (m // 2, m - m // 2):
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
    if counter is not None:
        counter.add_sub += pre * post * n * m
        counter.depth += m
    return result


def _laid_out_like(flat, block):
    """The head of a flat array in `block`'s shape, its axes in memory in `block`'s order."""
    order = np.argsort(block.strides)[::-1]
    return flat[: block.size].reshape(np.take(block.shape, order)).transpose(np.argsort(order))


def _sign_indices(block):
    """(pre, post) index of each +-1 fiber of a (pre, n, post) block, with bit j
    set when position j is -1; exact, since every partial sum is an integer."""
    n = block.shape[1]
    return ((1 << n) - 1 - np.matmul(1 << np.arange(n), block)).astype(np.intp) >> 1


def _pm1_fibers(indices, n, out=None):
    """The (pre, n, post) +-1 fibers of (pre, post) uint16 sign indices, -1 at
    the set bits, into `out` if given; the bits are formed in the workspace scratch."""
    pre, post = indices.shape
    bits = workspace(pre * n * post)[1].view(np.uint16)[: pre * n * post].reshape(pre, n, post)
    np.right_shift(indices[:, None, :], np.arange(n, dtype=np.uint16)[:, None], out=bits)
    bits &= 1
    return bpsk_modulate(bits, out)


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
        index = np.arange(start, min(words, start + step), dtype=np.uint16)[:, None]  # post = 1
        fibers = _pm1_fibers(index, code.n)
        decided = np.empty(fibers.shape)
        kernel(fibers, code, decided)
        table[start : start + step] = _sign_indices(decided)[:, 0]
    table.setflags(write=False)  # shared by every caller in the process
    return table


def _all_pm1(block):
    """Whether every entry of a (pre, n, post) block is +-1; the first fiber
    is checked first, so channel LLRs fall through after O(n)."""
    if not block.size or np.any(np.abs(block[0, :, 0]) != 1.0):
        return False
    spare, scratch = workspace(block.size)
    magnitudes = np.abs(block, out=scratch.reshape(block.shape))
    return np.equal(magnitudes, 1.0, out=spare.view(np.bool_)[: block.size].reshape(block.shape)).all()


def hard_decode(llrs, code, kernel, out=None):
    """Hard decisions along the last axis of (..., n) LLRs by `kernel`, which
    writes the +-1 codewords of a (pre, n, post) fiber block into a block
    given as its third argument; into `out` if given (it may be `llrs`).

    When every entry is +-1 and 2^(n+k) <= 2^MAX_TABLE_BITS, the fibers are
    served from a table of the kernel's own decisions on all 2^n +-1 words,
    built once per code, so every tie breaks as the kernel breaks it.  Both
    paths read all of the input before they write the output.
    """
    block, written, result = fiber_block(llrs, code.n, out)
    if code.n + code.k <= MAX_TABLE_BITS and _all_pm1(block):
        _pm1_fibers(np.take(_hard_table(code, kernel), _sign_indices(block)), code.n, written)
    else:
        kernel(block, code, written)
    return result


def _ml_kernel(block, code, written):
    """Hard ML codewords of a (pre, n, post) block, into `written`: the
    spectrum entry of largest magnitude (ties to the smallest index, zero sign
    treated as positive) names the information word.  The magnitudes are laid
    out fiber-major, (pre, post, n), so that argmax reads them in place."""
    pre, n, post = block.shape
    spectra, scratch = workspace(block.size)
    spectra = spectra.reshape(block.shape)
    fht(block.swapaxes(1, 2), out=spectra.swapaxes(1, 2))
    magnitudes = np.abs(spectra.swapaxes(1, 2), out=scratch.reshape(pre, post, n))
    index = np.argmax(magnitudes, axis=2)
    peak = np.take_along_axis(spectra, index[:, None, :], axis=1)[:, 0]
    infos = np.empty((pre, code.m + 1, post), dtype=np.uint8)
    infos[:, 0] = peak < 0.0
    for b in range(code.m):  # MSB first
        infos[:, b + 1] = (index >> (code.m - 1 - b)) & 1
    bits = scratch.view(np.uint8)[: block.size].reshape(block.shape)  # over the read magnitudes
    bpsk_modulate(prefix_butterfly(np.bitwise_xor, infos[:, :1], infos[:, 1:], bits), written)


def fht_ml_decode_batch(llrs, code, counter=None, out=None):
    """Hard ML decoding along the last axis of a (..., n) LLR array.

    Picks the spectrum entry of largest magnitude (ties to the smallest index,
    zero sign treated as positive); returns the +-1 codewords (..., n), in
    `out` if given (it may be `llrs`).  A call whose entries are all +-1 on a
    code with 2^(n+k) <= 2^21 (rm(1,1) to rm(4,1)) is served from a table of
    these decisions on all 2^n +-1 words (see `hard_decode`); it counts the
    operations of the transform and the search all the same.
    """
    decided = hard_decode(llrs, code, _ml_kernel, out)
    if counter is not None:
        fibers, n, m = decided.size // code.n, code.n, code.m
        counter.add_sub += fibers * n * m
        counter.compare += fibers * (n - 1)
        counter.depth += 2 * m
    return decided
