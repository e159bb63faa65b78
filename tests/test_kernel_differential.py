"""Differential tests of the first-order kernels and the product decoder.

The fast kernels are checked against dense references written here, for
m = 1..12, on 1-D, 2-D and 3-D inputs and on `np.moveaxis` views of every
axis of 2- and 3-axis tensors, with random LLRs, exact zeros, exact ties and
magnitudes near 1e150.  Hypothesis draws the cases derandomized, so every
run checks the same examples.  The brute-force kernels and the encoder take
the same inputs and are checked against row-by-row calls, and the soft-MAP
against a mask-gather oracle on fiber counts across its tile edges, with
score memory that does not grow with the fiber count, and on the
single-parity-check codes, where it takes a closed form, against the
exhaustive oracle on every layout.  The hard decoders read LLRs or bits and
return codeword bits.  They serve the bits of small codes from tables of their
own decisions, indexed in uint8 up to n = 8 and in uint16 beyond: on all 2^n
bit words, in every layout, the table answers are checked against the
kernels' answers on the same words as +-1 LLRs, and bits of codes too large
to tabulate take the kernel on their +-1 words.  The hard ML kernel's first
peak rule must decide as the argmax of the oracle's spectra for n = 2..1024
(signed zeros included, and on the table's (words, n, 1) block), at the n
where its key and index types change, and in every entry of the tables of
rm(1,1)..rm(4,1).  The FHT, in place or through its rotating copies, into a
written block of any layout, must round bit for bit as the oracle's plain
stages in bit order for m = 0..11.  Every component decoder, on the kernel
and on the table path, must write over its input with `out=` exactly what it
returns without it, in every layout: the soft decoders over LLRs, the hard
decoders over bits.  The product decoder is checked bit for bit against the
row-by-row decoder it replaced (index-set max-log, min-sum over generator
column supports, a copy of each axis' fibers), kept here as a reference.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_code_llrs, fht_reference, product_rows_generator
from rmproduct import rm_core
from rmproduct.channel import bpsk_modulate
import rmproduct.fht as fht_module
import rmproduct.soft_fht as soft_fht_module
from rmproduct.fht import fht, fht_ml_decode_batch
from rmproduct.product import (
    BF_MAP,
    Component,
    ProductCode,
    decode_ops,
    product_code_from_descriptor,
    product_decode_batch,
    product_encode_batch,
)
from rmproduct.soft_fht import (
    SCORE_BLOCK_SIZE,
    brute_force_ml_decode_batch,
    brute_force_soft_map_batch,
    encoded_bit_llrs_batch,
    info_bit_llrs_batch,
    soft_fht_decode_batch,
)
from test_acceptance import MENU_CODES

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None, max_examples=12)

KINDS = ("normal", "zeros", "ties", "huge", "huge-ties")
EXACT_KINDS = ("ties", "huge-ties")  # integer multiples of a power of two: sums are exact
# viewD-axisK: a D-axis C-ordered tensor with the fibers on axis K, seen through
# np.moveaxis(tensor, K, -1); the last-axis views are plain 2-D and 3-D inputs
LAYOUTS = ("1d", "view2-axis0", "view2-axis1", "view3-axis0", "view3-axis1", "view3-axis2",
           "strided")


def _values(rng, kind, shape):
    if kind == "normal":
        return rng.normal(size=shape) * 3.0
    if kind == "zeros":
        values = rng.normal(size=shape) * 3.0
        values[rng.random(shape) < 0.5] = 0.0
        return values
    if kind == "ties":
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "huge":
        return rng.normal(size=shape) * 1e150
    if kind == "signed-zeros":  # every magnitude ties at 0; the peak's sign is that of S_0
        values = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        values[0] = -0.0  # S_0 = -0.0, read as positive
        return values
    return rng.integers(-3, 4, size=shape) * 2.0**500  # about 1e150, exact ties


def _lay_out(fibers, layout, shape):
    """`fibers` (count, n) as the kernel input named by `layout`; 'view3' inputs
    have the leading shape `shape` (count = prod(shape))."""
    n = fibers.shape[-1]
    if layout == "1d":
        return fibers[0]
    if layout == "strided":
        spaced = np.zeros((2 * fibers.shape[0], n), dtype=fibers.dtype)
        spaced[::2] = fibers
        return spaced[::2]
    dims, axis = int(layout[4]), int(layout[-1])
    logical = fibers.reshape((shape[0], -1, n) if dims == 3 else (-1, n))
    stored = np.ascontiguousarray(np.moveaxis(logical, -1, axis))  # n on `axis` in memory
    return np.moveaxis(stored, axis, -1)


@st.composite
def draws(draw, kinds=KINDS):
    """A value kind, a leading shape and a data seed; every test checks each
    of LAYOUTS on them."""
    kind = draw(st.sampled_from(kinds))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return kind, shape, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _dense_fht(fibers):
    """Product with the Sylvester-Hadamard matrix, built a block of rows at a
    time from H[j, x] = (-1)^popcount(j & x)."""
    n = fibers.shape[-1]
    x = np.arange(n)
    out = np.empty_like(fibers)
    for start in range(0, n, 512):
        j = np.arange(start, min(n, start + 512))
        rows = 1.0 - 2.0 * (np.bitwise_count(j[:, None] & x[None, :]) & 1)
        out[:, j] = fibers @ rows.T
    return out


def _dense_info(spectra, m):
    """Max-log over all 2^(m+1) codewords, whose correlations are +-S_j."""
    n = 1 << m
    j = np.arange(n)
    out = np.empty((spectra.shape[0], m + 1))
    out[:, 0] = spectra.max(axis=1) - (-spectra).max(axis=1)
    magnitudes = np.abs(spectra)
    for b in range(m):
        one = ((j >> (m - 1 - b)) & 1) == 1
        out[:, b + 1] = (np.where(one, -np.inf, magnitudes).max(axis=1)
                         - np.where(one, magnitudes, -np.inf).max(axis=1))
    return out


def _dense_min_sum(info, m):
    """Per position: the least magnitude over the generator rows covering it,
    negative when an odd number of those rows is negative."""
    covers = product_rows_generator(m, 1).astype(bool)  # (k, n)
    least = np.where(covers[None], np.abs(info)[:, :, None], np.inf).min(axis=1)
    parity = ((info < 0).astype(np.int64) @ covers.astype(np.int64)) & 1
    return np.where(parity == 1, -least, least)


def _as_fibers(result, layout):
    """The kernel's output as (count, j) rows, in the order of the input fibers."""
    return result[None, :] if layout == "1d" else result.reshape(-1, result.shape[-1])


def test_dense_fht_rows_are_the_sylvester_matrix():
    h = np.array([[1.0]])
    for m in range(7):
        assert np.array_equal(_dense_fht(np.eye(1 << m)), h)
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]))


@pytest.mark.parametrize("m", range(1, 13))
@DIFFERENTIAL
@given(draws())
def test_fht_matches_dense_sylvester_product(m, case):
    kind, shape, rng = case
    fibers = _values(rng, kind, (shape[0] * shape[1], 1 << m))
    dense = _dense_fht(fibers)
    for layout in LAYOUTS:
        values = _lay_out(fibers, layout, shape)
        before = values.copy()
        got = fht(values)
        assert got.shape == values.shape
        assert np.array_equal(values, before)  # input untouched
        fast = _as_fibers(got, layout)
        if kind in EXACT_KINDS:
            assert np.array_equal(fast, dense[: len(fast)]), layout
        else:
            bound = 1e-13 * m * np.abs(fibers[: len(fast)]).sum(axis=1, keepdims=True)
            assert np.all(np.abs(fast - dense[: len(fast)]) <= bound), layout


@pytest.mark.parametrize("m", range(1, 13))
@DIFFERENTIAL
@given(draws())
def test_info_bit_llrs_match_dense_max_log(m, case):
    kind, shape, rng = case
    spectra = _values(rng, kind, (shape[0] * shape[1], 1 << m))
    dense = _dense_info(spectra, m)
    for layout in LAYOUTS:
        got = info_bit_llrs_batch(_lay_out(spectra, layout, shape), rm_core.build_rm_code(m, 1))
        assert got.shape[:-1] == _lay_out(spectra, layout, shape).shape[:-1]
        fast = _as_fibers(got, layout)
        assert np.array_equal(fast, dense[: len(fast)]), layout


@pytest.mark.parametrize("m", range(1, 13))
@DIFFERENTIAL
@given(draws())
def test_min_sum_matches_dense_column_supports(m, case):
    kind, shape, rng = case
    info = _values(rng, kind, (shape[0] * shape[1], m + 1))
    dense = _dense_min_sum(info, m)
    for layout in LAYOUTS:
        got = encoded_bit_llrs_batch(_lay_out(info, layout, shape), rm_core.build_rm_code(m, 1))
        assert got.shape[:-1] == _lay_out(info, layout, shape).shape[:-1]
        fast = _as_fibers(got, layout)
        assert np.array_equal(fast, dense[: len(fast)]), layout


def _ml_codewords(fibers):
    """The hard ML codewords of (count, n) LLR fibers: the rows of the
    oracle's spectra (rounded as by the library's FHT), argmax of the
    magnitudes (ties to the smallest index), negated where that entry is
    negative (-0.0 reads as positive), encoded by `rm_core`."""
    m = fibers.shape[-1].bit_length() - 1
    spectra = fht_reference(fibers)
    index = np.argmax(np.abs(spectra), axis=1)
    negative = spectra[np.arange(len(index)), index] < 0.0
    bits = (index[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    infos = np.concatenate((negative[:, None], bits), axis=1).astype(np.uint8)
    return rm_core.encode_batch(rm_core.build_rm_code(m, 1), infos)


def _ml_kernel_bits(block, code):
    written = np.empty(block.shape, dtype=np.uint8)
    fht_module._ml_kernel(block, code, written)
    return written


@pytest.mark.parametrize("m", range(1, 11))
@DIFFERENTIAL
@given(draws(kinds=KINDS + ("signed-zeros",)))
def test_hard_ml_matches_dense_argmax(m, case):
    kind, shape, rng = case
    llrs = _values(rng, kind, (shape[0] * shape[1], 1 << m))
    codewords = _ml_codewords(llrs)
    code = rm_core.build_rm_code(m, 1)
    for layout in LAYOUTS:
        got = _as_fibers(fht_ml_decode_batch(_lay_out(llrs, layout, shape), code), layout)
        assert got.dtype == np.uint8 and np.array_equal(got, codewords[: len(got)]), layout
    for block in (llrs[:, :, None], llrs[:1, :, None]):  # the table's (words, n, 1), one fiber
        assert np.array_equal(_ml_kernel_bits(block, code)[:, :, 0], codewords[: len(block)])


@pytest.mark.parametrize("m", [7, 8, 9, 15, 16])
def test_hard_ml_first_peak_at_the_type_boundaries(m):
    # the keys 2(n - 1 - j) + [S_j < 0] go from uint8 to uint16 at n = 256 and to
    # uint32 at n = 2^16, the index from uint8 to uint16 at n = 512; the fibers put
    # the peak at each end of both ranges
    n = 1 << m
    last = 1.0 - 2.0 * (np.bitwise_count(np.arange(n)) & 1)  # Sylvester-Hadamard row n - 1
    fibers = np.stack([
        np.random.default_rng(m).normal(size=n),
        np.full(n, -1.0),  # peak S_0 < 0: the largest key, 2n - 1
        -last,  # peak S_(n-1) < 0: the smallest index type's largest index
        last - 1.0,  # S_0 = -n and S_(n-1) = n tie: index 0, negative
        np.full(n, -0.0),  # every S_j is +-0.0 and S_0 = -0.0: index 0, positive
    ])
    codewords = _ml_codewords(fibers)
    code = rm_core.build_rm_code(m, 1)
    for llrs in (fibers, np.ascontiguousarray(fibers.T).T):  # pre = 5, and post = 5
        assert np.array_equal(fht_ml_decode_batch(llrs, code), codewords)


@pytest.mark.parametrize("m", range(1, 5))
def test_hard_tables_hold_the_oracle_ml_decisions(m):
    # every +-1 word of n <= 16 has integer spectra full of ties, so the whole
    # table checks the first peak rule's index and sign on all of them
    code = rm_core.build_rm_code(m, 1)
    words = _bit_words(code.n)
    expected = _ml_codewords(bpsk_modulate(words)).astype(np.uint32) @ (1 << np.arange(code.n))
    build = fht_module._hard_table.__wrapped__  # uncached
    for table in (build(code, fht_module._ml_kernel),
                  fht_module._hard_table(code, fht_module._ml_kernel)):
        assert np.array_equal(table, expected)


@pytest.mark.parametrize("shape", [(64, 8, 256), (4, 1024, 256)])
def test_hard_ml_kernel_keeps_its_keys_in_the_workspace(shape):
    # a warm call allocates only per-fiber arrays, the largest the fibers' max
    # magnitudes (8 / n bytes an entry); a fresh Hadamard row index & x would add
    # 1 byte an entry at n = 8 and 2 at n = 1024, a fresh peak mask 1, fresh keys
    # or magnitudes more
    block = np.random.default_rng(73).normal(size=shape)
    code = rm_core.build_rm_code(shape[1].bit_length() - 1, 1)
    _ml_kernel_bits(block, code)  # fills the workspace
    written = np.empty(shape, dtype=np.uint8)
    tracemalloc.start()  # numpy reports its data buffers to tracemalloc
    try:
        fht_module._ml_kernel(block, code, written)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (8 / shape[1] + 0.25) * block.size, peak / block.size  # bytes per entry


# rm(5,2) reduces 2-fiber tiles at about 40 ms each, so it gets few fibers
@pytest.mark.parametrize("m, r, count", [(3, 1, 16384), (4, 2, 4096), (4, 2, 16384), (5, 2, 32)])
def test_soft_map_score_memory_does_not_grow_with_the_fibers(m, r, count):
    # the scores of one tile of about SCORE_BLOCK_SIZE entries, its codeword-major
    # copy and a gather are alive at once, besides the gathered fibers and the
    # position LLRs; the whole (count, 2^k) score matrix of rm(4,2) and rm(5,2)
    # would take 16 to 256 MiB here
    code = rm_core.build_rm_code(m, r)
    llrs = np.random.default_rng(count).normal(size=(count, code.n)) * 3.0
    brute_force_soft_map_batch(llrs.copy(), code)  # builds the codebook
    tracemalloc.start()
    try:
        brute_force_soft_map_batch(llrs, code, out=llrs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * llrs.nbytes + 4 * 8 * SCORE_BLOCK_SIZE, peak / 2**20  # MiB


def _fht_inputs(m):
    """(pre, post, n) views of C-ordered (pre, n, post) blocks with few fibers
    and with many, pre = 1 blocks (one fiber, and fibers stored (n, count)),
    strided views, and plain C-ordered (count, n) fibers."""
    n = 1 << m
    rng = np.random.default_rng(m)
    few, many = (rng.normal(size=(pre, n, post)) * 3.0 for pre, post in ((8, 8), (32, 64)))
    spaced = rng.normal(size=(4, n, 2 * 8)) * 3.0
    stored = rng.normal(size=(n, 24)) * 3.0
    return [few.swapaxes(1, 2), many.swapaxes(1, 2), stored[:, 0], stored.T,
            spaced[:, :, ::2].swapaxes(1, 2), spaced[::2, :, 1::2].swapaxes(1, 2), stored.T[::2],
            np.ascontiguousarray(stored.T)]


@pytest.mark.parametrize("m", range(0, 12))
def test_fht_rounds_as_plain_stages_in_bit_order(m):
    # every plan, in place (pre = 1) or rotating, into any layout of the written
    # block, transforms index bits 0..m-1 in that order: bit for bit the oracle's
    for values in _fht_inputs(m):
        expected = fht_reference(values).view(np.uint64)
        fiber_slowest = np.empty(np.moveaxis(values, -1, 0).shape)
        for out in (None, np.empty(values.shape), np.moveaxis(fiber_slowest, 0, -1)):
            got = fht(values, out=out)
            assert out is None or got is out
            assert np.array_equal(got.view(np.uint64), expected), (values.shape, values.strides)
        if m == 0:
            assert np.array_equal(expected, np.asarray(values).view(np.uint64))


@pytest.mark.parametrize("shape", [(4096, 64), (64, 1024), (16384, 8), (3, 4, 5, 8)])
def test_fht_returns_a_fresh_result_with_the_fiber_axis_slowest(shape):
    # without `out` every pass writes contiguous runs: the result lies fiber
    # slowest, its other axes in the input's memory order, here C-ordered
    # (count, n) fibers and a 4-axis moveaxis view that leaves them permuted
    values = np.random.default_rng(len(shape)).normal(size=shape) * 3.0
    if values.ndim > 2:
        values = values.transpose(2, 0, 1, 3)
    got = fht(values)
    assert np.array_equal(got.view(np.uint64), fht_reference(values).view(np.uint64))
    assert got.strides[-1] == max(got.strides)
    assert np.array_equal(np.argsort(got.strides[:-1]), np.argsort(values.strides[:-1]))
    for empty in (np.float64(1.0), np.zeros((3, 0))):  # 0-d, and fibers of length 0
        with pytest.raises(ValueError):
            fht(empty)


@pytest.mark.parametrize("n", range(1, 17))
def test_word_indices_and_bits_round_trip_in_the_least_type(n):
    # uint8 up to n = 8, uint16 above; every word up to n = 12, random ones beyond
    indices = (np.arange(1 << n) if n <= 12
               else np.random.default_rng(n).integers(0, 1 << n, 4096))
    least = np.uint8 if n <= 8 else np.uint16
    for pre, post in ((len(indices), 1), (1, len(indices)), (2, len(indices) // 2)):
        words = indices.astype(least).reshape(pre, post)
        bits = np.empty((pre, n, post), dtype=np.uint8)
        fht_module._word_bits(words, bits)
        assert np.array_equal(bits.swapaxes(1, 2).reshape(-1, n),
                              (indices[:, None] >> np.arange(n)) & 1)
        back = fht_module._word_indices(bits)
        assert back.dtype == least and np.array_equal(back, words)


def _table_lookups():
    info = fht_module._hard_table.cache_info()
    return info.hits + info.misses


def _bit_words(n):
    """All 2^n uint8 words of length n; word i has bit j of i at position j."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


@pytest.mark.parametrize("decoder, m, r", [
    (fht_ml_decode_batch, 1, 1),
    (fht_ml_decode_batch, 2, 1),
    (fht_ml_decode_batch, 3, 1),
    (fht_ml_decode_batch, 4, 1),
    (fht_ml_decode_batch, 5, 1),  # 2^(n+k) > 2^21: never tabulated
    (brute_force_ml_decode_batch, 2, 2),
    (brute_force_ml_decode_batch, 3, 1),
    (brute_force_ml_decode_batch, 3, 2),
    (brute_force_ml_decode_batch, 3, 3),
    (brute_force_ml_decode_batch, 4, 0),  # n = 16: a uint16 table
    (brute_force_ml_decode_batch, 4, 2),  # never tabulated
], ids=lambda value: getattr(value, "__name__", None))
def test_hard_decoders_serve_pm1_words_as_their_kernel_decides_them(decoder, m, r):
    # bits of a small code are served from a table, indexed in uint8 up to
    # n = 8 and in uint16 beyond, and bits of a larger one take the kernel; as
    # +-1 LLRs the same words always take the kernel, and their sums are
    # exact, so every decision and tie must agree
    code = rm_core.build_rm_code(m, r)
    tabulated = code.n + code.k <= fht_module.MAX_TABLE_BITS
    words = (_bit_words(code.n) if tabulated
             else np.random.default_rng(m).integers(0, 2, (512, code.n), dtype=np.uint8))
    lookups = _table_lookups()
    for layout in LAYOUTS:
        fibers = _lay_out(words, layout, (2, len(words) // 2))
        decided = decoder(fibers, code)
        assert decided.dtype == np.uint8
        assert np.array_equal(decided, decoder(bpsk_modulate(fibers), code)), layout
    assert _table_lookups() == lookups + tabulated * len(LAYOUTS)  # one lookup a tabulated layout
    if tabulated:
        kernel = {fht_ml_decode_batch: fht_module._ml_kernel,
                  brute_force_ml_decode_batch: soft_fht_module._ml_kernel}[decoder]
        least = np.uint8 if code.n <= 8 else np.uint16
        assert fht_module._hard_table(code, kernel).dtype == least


@pytest.mark.parametrize("decoder, m, r", [
    (soft_fht_decode_batch, 1, 1),
    (soft_fht_decode_batch, 3, 1),
    (soft_fht_decode_batch, 6, 1),
    (fht_ml_decode_batch, 3, 1),
    (fht_ml_decode_batch, 5, 1),  # 2^(n+k) > 2^21: never tabulated
    (brute_force_soft_map_batch, 3, 2),  # the parity-check closed form
    (brute_force_soft_map_batch, 4, 2),  # the exhaustive search
    (brute_force_ml_decode_batch, 3, 2),
    (brute_force_ml_decode_batch, 4, 2),  # never tabulated
], ids=lambda value: getattr(value, "__name__", None))
@DIFFERENTIAL
@given(draws())
def test_decoders_write_over_their_input_what_they_return(decoder, m, r, case):
    kind, shape, rng = case
    code = rm_core.build_rm_code(m, r)
    llrs = _values(rng, kind, (shape[0] * shape[1], code.n))
    if decoder in (fht_ml_decode_batch, brute_force_ml_decode_batch):
        # a hard decoder writes bits: into a uint8 out laid out as its LLRs, or over bits
        for layout in LAYOUTS:
            fibers = _lay_out(llrs, layout, shape)
            out = np.empty_like(fibers, dtype=np.uint8)  # its axes in memory as the LLRs'
            assert decoder(fibers, code, out=out) is out
            assert np.array_equal(out, decoder(fibers, code)), layout
        llrs = (llrs < 0.0).astype(np.uint8)
    for layout in LAYOUTS:
        expected = decoder(_lay_out(llrs, layout, shape), code)
        fibers = _lay_out(llrs.copy(), layout, shape)  # '1d' and 'strided' are views of the copy
        assert decoder(fibers, code, out=fibers) is fibers
        assert np.array_equal(fibers, expected), layout


# (m, pre, post) of (pre, n, post) blocks, seen as (pre, post, n) views, of at
# most 2^20 entries: at m = 1 and 2 the k info rows outnumber half the n
BLOCKS = [(m, pre, post) for m in range(1, 13) for pre in (1, 4, 8) for post in (1, 8, 256)
          if pre * post << m <= 1 << 20]


def _block_view(m, pre, post):
    """A C-ordered (pre, n, post) block of LLRs seen as (pre, post, n), and
    its fibers one at a time as (pre * post, n) rows."""
    block = _values(np.random.default_rng(m * 1000 + pre * 10 + post),
                    KINDS[m % len(KINDS)], (pre, 1 << m, post))
    view = block.swapaxes(1, 2)
    return view, view.reshape(-1, 1 << m)


@pytest.mark.parametrize("m, pre, post", BLOCKS)
def test_fht_writes_any_out_layout_as_it_transforms_each_fiber(m, pre, post):
    view, fibers = _block_view(m, pre, post)
    per_fiber = np.stack([fht(fiber) for fiber in fibers])
    assert np.array_equal(per_fiber, _rows_fht(fibers))
    c_ordered = np.empty(view.shape)
    fiber_major = np.empty((1 << m, pre, post)).transpose(1, 2, 0)  # laid out (n, pre, post)
    for out in (c_ordered, fiber_major):
        assert fht(view, out=out) is out
        assert np.array_equal(out.reshape(-1, 1 << m), per_fiber)


@pytest.mark.parametrize("m, pre, post", BLOCKS)
def test_soft_fht_decodes_a_block_in_place_as_it_decodes_each_fiber(m, pre, post):
    code = rm_core.build_rm_code(m, 1)
    view, fibers = _block_view(m, pre, post)
    per_fiber = np.stack([soft_fht_decode_batch(fiber, code) for fiber in fibers])
    assert np.array_equal(per_fiber, _rows_soft(fibers, code))
    assert soft_fht_decode_batch(view, code, out=view) is view
    assert np.array_equal(view.reshape(-1, 1 << m), per_fiber)


@pytest.mark.parametrize("decoder, m, r", [
    (fht_ml_decode_batch, 2, 1),
    (fht_ml_decode_batch, 3, 1),
    (brute_force_ml_decode_batch, 3, 2),
], ids=lambda value: getattr(value, "__name__", None))
def test_the_table_path_writes_over_its_input_what_it_returns(decoder, m, r):
    code = rm_core.build_rm_code(m, r)
    words = _bit_words(code.n)
    for layout in LAYOUTS:
        expected = decoder(_lay_out(words, layout, (2, len(words) // 2)), code)
        lookups = _table_lookups()
        fibers = _lay_out(words.copy(), layout, (2, len(words) // 2))
        assert decoder(fibers, code, out=fibers) is fibers
        assert _table_lookups() == lookups + 1  # served from the table
        assert np.array_equal(fibers, expected), layout


def test_pm1_words_of_a_code_too_large_to_tabulate_decode_exhaustively():
    code = rm_core.build_rm_code(4, 2)  # 2^(n+k) = 2^27 > 2^21: no table
    chosen = np.random.default_rng(42).choice(1 << code.n, 512, replace=False)
    words = bpsk_modulate(_bit_words(code.n)[chosen])
    lookups = _table_lookups()
    decided = brute_force_ml_decode_batch(words, code)
    assert _table_lookups() == lookups
    codebook = rm_core.encode_batch(code, rm_core.binary_words(code.k))
    assert np.array_equal(decided, codebook[np.argmax(words @ bpsk_modulate(codebook).T, axis=1)])  # exact
    assert np.array_equal(decided, brute_force_ml_decode_batch(0.5 * words, code))


@pytest.mark.parametrize("descriptor", MENU_CODES)
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_noiseless_codewords_decode_to_themselves(descriptor, mode):
    code = product_code_from_descriptor(descriptor)
    frames = 2 if code.n_t > 4096 else 64
    rng = np.random.default_rng(len(descriptor))
    sent = product_encode_batch(code, rng.integers(0, 2, (frames, code.k_t), dtype=np.uint8))
    decided, _ = product_decode_batch(code, 1.0 - 2.0 * sent, 1.0, 3, mode)
    assert np.array_equal(decided, sent)


@pytest.mark.parametrize("m, r", [(2, 2), (3, 1), (3, 2), (4, 2)])
@DIFFERENTIAL
@given(draws())
def test_brute_force_and_encode_take_any_leading_shape(m, r, case):
    kind, shape, rng = case
    code = rm_core.build_rm_code(m, r)
    count = shape[0] * shape[1]
    llrs = _values(rng, kind, (count, code.n))
    words = rng.integers(0, 2, (count, code.k), dtype=np.uint8)
    codebook = rm_core.encode_batch(code, rm_core.binary_words(code.k))  # row j encodes the binary word of j
    for layout in LAYOUTS:
        fibers, infos = _lay_out(llrs, layout, shape), _lay_out(words, layout, shape)
        lead = fibers.shape[:-1]
        rows, info_rows = fibers.reshape(-1, code.n).copy(), infos.reshape(-1, code.k).copy()
        coded = brute_force_soft_map_batch(fibers, code)
        decided = brute_force_ml_decode_batch(fibers, code)
        encoded = rm_core.encode_batch(code, infos)
        assert coded.shape == decided.shape == lead + (code.n,)
        assert encoded.shape == lead + (code.n,) and encoded.dtype == np.uint8
        assert np.array_equal(encoded.reshape(-1, code.n),
                              [rm_core.encode_batch(code, row) for row in info_rows]), layout
        # one call on the rows is the same arithmetic
        assert np.array_equal(coded.reshape(-1, code.n), brute_force_soft_map_batch(rows, code))
        assert np.array_equal(decided.reshape(-1, code.n), brute_force_ml_decode_batch(rows, code))
        if kind not in EXACT_KINDS:  # a one-row product may round differently
            continue
        assert np.array_equal(coded.reshape(-1, code.n),
                              [brute_force_soft_map_batch(row, code) for row in rows]), layout
        assert np.array_equal(decided.reshape(-1, code.n),
                              [brute_force_ml_decode_batch(row, code) for row in rows]), layout
        scores = rows @ (1.0 - 2.0 * codebook).T  # exact: ties stay ties
        assert np.array_equal(decided.reshape(-1, code.n), codebook[np.argmax(scores, axis=1)])


@pytest.mark.parametrize("m, r", [(2, 2), (3, 1), (4, 1), (4, 2), (5, 2)])  # exhaustive, k = 4..16
def test_soft_map_matches_the_mask_gather_oracle_across_score_blocks(m, r):
    code = rm_core.build_rm_code(m, r)
    words, block = 1 << code.k, SCORE_BLOCK_SIZE >> code.k  # block: the fewest fibers in a tile
    rng = np.random.default_rng(100 * m + r)
    for count in (1, block - 1, block, block + 1, 3 * block + 5):
        llrs = rng.normal(size=(count, code.n)) * 3.0
        lead = next(d for d in (3, 5, 7, 2, 1) if count % d == 0)  # 'view3' leading axis
        for layout in LAYOUTS:
            fibers = _lay_out(llrs, layout, (lead, count // lead))
            fast = _as_fibers(brute_force_soft_map_batch(fibers, code), layout)
            # each tile's product has >= 2 rows, so it rounds as the oracle's whole product
            expected = exhaustive_code_llrs(llrs[: len(fast)], code)
            assert np.array_equal(fast, expected), (count, layout)
    # the modeled work of the exhaustive search on one fiber, independent of the blocks
    work = decode_ops(ProductCode([Component(code, BF_MAP)]), "soft", 1)
    assert work.add_sub == words * (code.n - 1) + code.n
    assert work.compare == code.n * (words - 2)
    assert work.depth == m + code.k + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@DIFFERENTIAL
@given(draws())
def test_parity_check_closed_form_matches_the_exhaustive_oracle(m, case):
    kind, shape, rng = case
    code = rm_core.build_rm_code(m, m - 1)  # the single-parity-check code
    llrs = _values(rng, kind, (shape[0] * shape[1], code.n))
    oracle = exhaustive_code_llrs(llrs, code)
    bound = 1e-12 * (1.0 + np.abs(llrs).sum(axis=1, keepdims=True))
    for layout in LAYOUTS:
        fibers = _lay_out(llrs.copy(), layout, shape)  # '1d' and 'strided' are views of the copy
        fresh = brute_force_soft_map_batch(fibers, code)
        assert brute_force_soft_map_batch(fibers, code, out=fibers) is fibers
        assert np.array_equal(fibers, fresh), layout
        fast = _as_fibers(fibers, layout)
        expected, near = oracle[: len(fast)], bound[: len(fast)]
        if kind in EXACT_KINDS:  # integer multiples of a power of two: both sides are exact
            assert np.array_equal(fast, expected), layout
            continue
        assert np.all(np.abs(fast - expected) <= near), layout
        decided = np.abs(expected) > near  # away from exact ties
        assert np.array_equal(fast[decided] < 0.0, expected[decided] < 0.0), layout


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_parity_check_llrs_do_not_depend_on_the_call_size(m):
    code = rm_core.build_rm_code(m, m - 1)
    llrs = np.random.default_rng(m).normal(size=(40, code.n)) * 3.0
    together = brute_force_soft_map_batch(llrs, code)
    assert np.array_equal(together, [brute_force_soft_map_batch(row, code) for row in llrs])
    for lead in [(0,), (3, 0)]:  # no frames
        empty = np.zeros(lead + (code.n,))
        assert brute_force_soft_map_batch(empty, code, out=empty) is empty


# -- the row-by-row decoder that the in-place kernels replaced ----------------

def _rows_fht(rows):
    rows_count, n = rows.shape
    out = rows
    for stage in range(n.bit_length() - 1):
        half = 1 << stage
        pairs = out.reshape(rows_count, n // (2 * half), 2, half)
        out = np.stack((pairs[:, :, 0, :] + pairs[:, :, 1, :],
                        pairs[:, :, 0, :] - pairs[:, :, 1, :]), axis=2).reshape(rows_count, n)
    return out


def _rows_soft(rows, code):
    spectra = _rows_fht(rows)
    m, n = code.m, code.n
    generator = product_rows_generator(m, code.r)
    ones = generator[1 : m + 1].astype(bool)
    info = np.empty((rows.shape[0], m + 1))
    info[:, 0] = spectra.max(axis=1) - (-spectra).max(axis=1)
    magnitudes = np.abs(spectra)
    for b in range(m):
        info[:, b + 1] = (magnitudes[:, np.flatnonzero(~ones[b])].max(axis=1)
                          - magnitudes[:, np.flatnonzero(ones[b])].max(axis=1))
    parity = ((info < 0.0).astype(np.uint8) @ generator) & 1
    least = np.full((rows.shape[0], n), np.inf)
    for b, support in enumerate(generator.astype(bool)):
        least[:, support] = np.minimum(least[:, support], np.abs(info[:, b : b + 1]))
    return (1.0 - 2.0 * parity) * least


def _rows_hard(rows, code):
    spectra = _rows_fht(rows)
    index = np.argmax(np.abs(spectra), axis=-1)
    peak = np.take_along_axis(spectra, index[:, None], axis=-1)[:, 0]
    infos = np.empty((rows.shape[0], code.k), dtype=np.uint8)
    infos[:, 0] = peak < 0.0
    infos[:, 1:] = (index[:, None] >> np.arange(code.m - 1, -1, -1)[None, :]) & 1
    return 1.0 - 2.0 * rm_core.encode_batch(code, infos)


def _rows_decode(code, received, sigma2, iterations, mode):
    count = received.shape[0]
    tensor = ((2.0 / sigma2) * received).reshape((count,) + code.tensor_shape)
    for _ in range(iterations):
        for index, comp in enumerate(code.components):
            axis = 1 + (code.q_count - 1 - index)
            moved = np.moveaxis(tensor, axis, -1)
            flat = moved.reshape(-1, comp.code.n)
            if comp.decoder == BF_MAP:
                updated = (brute_force_soft_map_batch(flat, comp.code) if mode == "soft"
                           else 1.0 - 2.0 * brute_force_ml_decode_batch(flat, comp.code))
            else:
                updated = (_rows_soft if mode == "soft" else _rows_hard)(flat, comp.code)
            tensor = np.moveaxis(updated.reshape(moved.shape), -1, axis)
    decided = (np.ascontiguousarray(tensor).reshape(count, code.n_t) < 0.0).astype(np.uint8)
    if mode == "hard":  # the decoder returns the codeword bits it decided in
        tensor = (tensor < 0.0).astype(np.uint8)
    return decided, tensor


@pytest.mark.parametrize("descriptor", MENU_CODES)
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_decode_is_bit_exact_with_the_row_by_row_decoder(descriptor, mode):
    code = product_code_from_descriptor(descriptor)
    frames = 8 if code.n_t > 4096 else 256  # the brute-force axis needs 1 MiB per frame
    rng = np.random.default_rng(20260809)
    sent = product_encode_batch(code, rng.integers(0, 2, (frames, code.k_t), dtype=np.uint8))
    received = 1.0 - 2.0 * sent + rng.normal(0.0, 0.9, sent.shape)
    decided, tensor = product_decode_batch(code, received, 0.81, 3, mode)
    expected_decided, expected_tensor = _rows_decode(code, received, 0.81, 3, mode)
    assert decided.dtype == np.uint8 and decided.shape == (frames, code.n_t)
    assert np.array_equal(decided, expected_decided)
    assert tensor.shape == expected_tensor.shape and tensor.dtype == expected_tensor.dtype
    assert np.array_equal(tensor, expected_tensor)

