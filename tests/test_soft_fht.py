import tracemalloc

import numpy as np
import pytest

from oracles import exhaustive_info_llrs, product_rows_generator
from rmproduct import rm_core, soft_fht
from rmproduct.fht import fht, fht_ml_decode_batch
from rmproduct.ops import OpCounter
from rmproduct.product import decode_ops, product_code_from_descriptor, product_decode_batch
from rmproduct.soft_fht import (
    brute_force_ml_decode_batch,
    brute_force_soft_map_batch,
    encoded_bit_llrs_batch,
    info_bit_llrs_batch,
    soft_fht_decode_batch,
)


def _halves(m, b):
    """Spectrum indices of the zero and the one half of information bit b+1,
    whose bit m-1-b is clear and set: (2^b, 2, n/2^(b+1)) reshaped."""
    x = np.arange(1 << m).reshape(1 << b, 2, (1 << m) >> (b + 1))
    return x[:, 0].ravel(), x[:, 1].ravel()


def test_tables_m1_index_sets():
    row = product_rows_generator(1, 1)[1]
    assert np.flatnonzero(row == 0).tolist() == [0]
    assert np.flatnonzero(row == 1).tolist() == [1]
    zero, one = _halves(1, 0)
    assert zero.tolist() == [0] and one.tolist() == [1]


def test_tables_index_sets_are_balanced_partitions():
    for m in range(1, 11):
        generator = product_rows_generator(m, 1)
        n = 1 << m
        for b in range(m):
            zero = set(np.flatnonzero(generator[b + 1] == 0).tolist())
            one = set(np.flatnonzero(generator[b + 1] == 1).tolist())
            assert len(zero) == len(one) == n // 2
            assert zero | one == set(range(n))
            assert not zero & one
            kernel_zero, kernel_one = _halves(m, b)
            assert set(kernel_zero.tolist()) == zero and set(kernel_one.tolist()) == one


def test_tables_column_supports_m2():
    supports = product_rows_generator(2, 1).astype(bool)
    # canonical generator [[1,1,1,1],[0,0,1,1],[0,1,0,1]]: first column touches
    # only the all-one row
    assert np.flatnonzero(supports[:, 0]).tolist() == [0]
    assert np.flatnonzero(supports[:, 3]).tolist() == [0, 1, 2]


def test_tables_every_column_has_support():
    for m in (1, 3, 6):
        generator = product_rows_generator(m, 1)
        assert generator.sum(axis=0).min() >= 1


def test_info_llrs_strongly_positive_channel():
    # all-+10 LLRs at m=2: spectrum [40,0,0,0]; value frozen from the
    # exhaustive max-log oracle, which must agree exactly
    code = rm_core.build_rm_code(2, 1)
    spectrum = fht([10.0, 10.0, 10.0, 10.0])
    got = info_bit_llrs_batch(spectrum, code)
    assert got.tolist() == [40.0, 40.0, 40.0]
    oracle = exhaustive_info_llrs([10.0] * 4, code)
    assert np.array_equal(got, oracle)


def test_info_llrs_negation_flips_only_first_bit():
    code = rm_core.build_rm_code(3, 1)
    rng = np.random.default_rng(21)
    llr = rng.normal(size=8) * 3.0
    plus = info_bit_llrs_batch(fht(llr), code)
    minus = info_bit_llrs_batch(fht(-llr), code)
    assert minus[0] == pytest.approx(-plus[0], abs=1e-12)
    assert np.allclose(minus[1:], plus[1:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_info_llrs_match_exhaustive_oracle(m):
    code = rm_core.build_rm_code(m, 1)
    rng = np.random.default_rng(300 + m)
    block = rng.normal(size=(200, code.n)) * 2.5
    fast = info_bit_llrs_batch(fht(block), code)
    slow = exhaustive_info_llrs(block, code)
    assert np.max(np.abs(fast - slow)) < 1e-9


def test_min_sum_expansion_m2():
    code = rm_core.build_rm_code(2, 1)
    # supports per column: {0}, {0,2}, {0,1}, {0,1,2}
    out = encoded_bit_llrs_batch([2.0, -1.0, 3.0], code)
    assert out.tolist() == [2.0, 2.0, -1.0, -1.0]


def test_min_sum_all_positive_inputs_stay_positive():
    code = rm_core.build_rm_code(3, 1)
    out = encoded_bit_llrs_batch([5.0, 1.0, 2.0, 0.5], code)
    assert (out > 0).all()


def test_min_sum_zero_magnitude_decides_as_bit_zero():
    code = rm_core.build_rm_code(2, 1)
    out = encoded_bit_llrs_batch([0.0, -1.0, 3.0], code)
    # a zero input magnitude zeroes every column it feeds ...
    assert out[0] == 0.0 and out[2] == 0.0
    # ... and the downstream hard decision treats zero as positive (bit 0)
    assert not (out < 0)[0] and not (out < 0)[2]


def test_soft_decode_noiseless_all_zero():
    code = rm_core.build_rm_code(4, 1)
    out = soft_fht_decode_batch(np.full(16, 9.0), code)
    assert (out > 0).all()


def test_soft_decode_positive_homogeneity():
    code = rm_core.build_rm_code(4, 1)
    rng = np.random.default_rng(31)
    llr = rng.normal(size=16) * 2.0
    base = soft_fht_decode_batch(llr, code)
    for alpha in (0.25, 3.0, 17.5):
        scaled = soft_fht_decode_batch(alpha * llr, code)
        assert np.allclose(scaled, alpha * base, rtol=1e-12)


def test_soft_decode_signs_match_hard_ml():
    code = rm_core.build_rm_code(5, 1)
    rng = np.random.default_rng(41)
    block = rng.normal(size=(2000, 32)) * 1.5
    soft = soft_fht_decode_batch(block, code)
    hard = fht_ml_decode_batch(block, code)  # codeword bits
    assert np.array_equal((soft < 0).astype(np.uint8), hard)


def test_soft_decode_batch_matches_single():
    code = rm_core.build_rm_code(3, 1)
    rng = np.random.default_rng(51)
    block = rng.normal(size=(20, 8))
    together = soft_fht_decode_batch(block, code)
    for i in range(20):
        assert np.array_equal(together[i], soft_fht_decode_batch(block[i], code))


def test_soft_decode_operation_bound():
    # counted work stays within a fixed multiple of n log2(n)
    for m in range(4, 11):
        n = 1 << m
        code = product_code_from_descriptor(f"rm({m},1)")
        assert decode_ops(code, "soft", 1).total() <= 4 * n * m, m


def test_brute_force_zero_input_gives_zero_llrs():
    code = rm_core.build_rm_code(3, 1)
    coded = brute_force_soft_map_batch(np.zeros(8), code)
    assert coded.shape == (8,)
    assert not coded.any()


def test_brute_force_handles_second_order_code():
    code = rm_core.build_rm_code(3, 2)  # k = 7: 128 codewords
    rng = np.random.default_rng(61)
    llr = rng.normal(size=8) * 2.0
    coded = brute_force_soft_map_batch(llr, code)
    assert coded.shape == (8,)
    # hard thresholds of the coded LLRs reproduce the exhaustive ML word
    best = brute_force_ml_decode_batch(llr[None, :], code)[0]  # codeword bits
    assert np.array_equal((coded < 0).astype(np.uint8), best)


def test_soft_map_keeps_one_score_block_beside_the_scores():
    code = rm_core.build_rm_code(3, 1)  # k = 4: 16 codewords, searched exhaustively
    llrs = np.random.default_rng(67).normal(size=(16384, code.n))
    brute_force_soft_map_batch(llrs[:2], code)  # builds the cached codebook and index sets
    tracemalloc.start()  # numpy reports its data buffers to tracemalloc
    try:
        brute_force_soft_map_batch(llrs, code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scores = llrs.shape[0] * (1 << code.k) * 8
    assert peak < scores + 4 * 2**20, peak - scores


@pytest.mark.parametrize("descriptor, frames, bound", [
    ("rm(11,1)xrm(3,2):bfmap", 8, 2.0),  # pre = 8, post = 8
    ("rm(6,1)xrm(2,1)", 256, 4.0),  # pre = 4, post = 256
])
def test_soft_fht_decode_in_place_makes_no_full_size_temporary(descriptor, frames, bound):
    code = product_code_from_descriptor(descriptor)
    axis = len(code.tensor_shape) - 1  # component 1, as the product decoder stores it
    tensor = np.random.default_rng(71).normal(size=code.tensor_shape + (frames,))
    view = np.moveaxis(tensor, axis, -1)
    first = code.components[0].code
    soft_fht_decode_batch(view, first, out=view)  # fills the workspace
    tracemalloc.start()  # numpy reports its data buffers to tracemalloc
    try:
        soft_fht_decode_batch(view, first, out=view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * tensor.size, peak / tensor.size  # bytes per entry; float64 is 8


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("decoder, order", [
    (soft_fht_decode_batch, 1),
    (fht_ml_decode_batch, 1),
    (brute_force_soft_map_batch, 2),
    (brute_force_ml_decode_batch, 2),
], ids=lambda value: getattr(value, "__name__", None))
def test_component_decoders_return_their_dtype_laid_out_like_the_input(decoder, order, axis):
    # soft decoders return float64 LLRs, hard decoders uint8 codeword bits
    code = rm_core.build_rm_code(3, order)
    shape = [5, 6, 7]
    shape[axis] = code.n
    fibers = np.moveaxis(np.random.default_rng(axis).normal(size=shape), axis, -1)
    out = decoder(fibers, code)
    hard = decoder in (fht_ml_decode_batch, brute_force_ml_decode_batch)
    assert out.dtype == (np.uint8 if hard else np.float64) and out.shape == fibers.shape
    assert np.array_equal(np.argsort(out.strides), np.argsort(fibers.strides))
    if hard:
        assert np.array_equal(out, out & 1)  # the codeword bits


@pytest.mark.parametrize("lead", [(0,), (3, 0)])
@pytest.mark.parametrize("decoder, order", [
    (soft_fht_decode_batch, 1),
    (fht_ml_decode_batch, 1),
    (brute_force_soft_map_batch, 2),
    (brute_force_ml_decode_batch, 2),
], ids=lambda value: getattr(value, "__name__", None))
def test_component_decoders_take_no_fibers(decoder, order, lead):
    code = rm_core.build_rm_code(3, order)
    llrs = np.zeros(lead + (code.n,))
    out = decoder(llrs, code)
    hard = decoder in (fht_ml_decode_batch, brute_force_ml_decode_batch)
    assert out.dtype == (np.uint8 if hard else np.float64) and out.shape == llrs.shape
    if hard:  # a hard decoder writes over the bits it reads
        llrs = np.zeros(lead + (code.n,), dtype=np.uint8)
    assert decoder(llrs, code, out=llrs) is llrs


@pytest.mark.parametrize("decoder, length, order", [
    (fht_ml_decode_batch, 16, 1),
    (info_bit_llrs_batch, 16, 1),
    (encoded_bit_llrs_batch, 5, 1),  # reads k = 4 information-bit LLRs
    (soft_fht_decode_batch, 16, 1),
    (brute_force_soft_map_batch, 7, 2),
    (brute_force_ml_decode_batch, 7, 2),
], ids=lambda value: getattr(value, "__name__", None))
def test_fibers_of_the_wrong_length_are_rejected(decoder, length, order):
    # the FHT kernels get a power of two: another length fails in the transform first
    with pytest.raises(ValueError, match="fibers have length"):
        decoder(np.zeros(length), rm_core.build_rm_code(3, order))


def test_brute_force_dimension_cap():
    code = rm_core.build_rm_code(5, 4)  # k = 31
    with pytest.raises(rm_core.SizeLimitError):
        brute_force_soft_map_batch(np.zeros(32), code)


@pytest.mark.parametrize("m, r", [(5, 3), (5, 4)])
def test_codes_past_the_dimension_cap_are_refused_before_any_codebook(m, r):
    code = rm_core.build_rm_code(m, r)
    message = rf"^rm\({m},{r}\): brute-force decoding caps at k <= 16, got k={code.k}$"
    built = soft_fht._codebook.cache_info().currsize
    with pytest.raises(rm_core.SizeLimitError, match=message):
        product_code_from_descriptor(code.descriptor)
    for decoder in (brute_force_soft_map_batch, brute_force_ml_decode_batch):
        with pytest.raises(rm_core.SizeLimitError, match=message):
            decoder(np.zeros((2, code.n)), code)
    assert soft_fht._codebook.cache_info().currsize == built


def test_only_a_kernel_that_reads_the_codebook_builds_it():
    soft_fht._codebook.cache_clear()
    llrs = np.random.default_rng(23).normal(size=(4, 16))
    brute_force_soft_map_batch(llrs, rm_core.build_rm_code(4, 3))  # the closed form
    product_code_from_descriptor("rm(11,1)xrm(3,2):bfmap")
    assert soft_fht._codebook.cache_info().currsize == 0
    brute_force_soft_map_batch(llrs, rm_core.build_rm_code(4, 2))  # the search reads it
    assert soft_fht._codebook.cache_info().currsize == 1


def test_brute_force_info_sign_matches_ml_word():
    code = rm_core.build_rm_code(3, 1)
    rng = np.random.default_rng(71)
    infos = rm_core.binary_words(code.k)
    words = rm_core.encode_batch(code, infos)
    for _ in range(300):
        llr = rng.normal(size=8) * 2.0
        scores = llr @ (1.0 - 2.0 * words).T
        order = np.argsort(-scores)
        if scores[order[0]] <= scores[order[1]]:
            continue
        ml_info = infos[order[0]]
        info = exhaustive_info_llrs(llr, code)
        assert np.array_equal((info < 0).astype(np.uint8), ml_info)


def test_counters_accumulate_per_call():
    code = product_code_from_descriptor("rm(4,1)")
    one, two = OpCounter(), OpCounter()
    for counter in (one, two, two):
        product_decode_batch(code, np.zeros((1, 16)), 1.0, 1, "soft", counter)
    assert two.total() == 2 * one.total()
    assert two.depth == 2 * one.depth
