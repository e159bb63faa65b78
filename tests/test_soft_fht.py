import numpy as np
import pytest

from rmproduct import rm_core
from rmproduct.fht import fht, fht_ml_decode_batch
from rmproduct.ops import OpCounter
from rmproduct.soft_fht import (
    brute_force_ml_decode_batch,
    brute_force_soft_map,
    brute_force_soft_map_batch,
    encoded_bit_llrs,
    info_bit_llrs,
    info_bit_llrs_batch,
    precompute_tables,
    soft_fht_decode,
    soft_fht_decode_batch,
)


def _halves(m, b):
    """Spectrum indices of the zero and the one half of information bit b+1,
    as the info-bit kernel reshapes them: (2^b, 2, n/2^(b+1))."""
    x = np.arange(1 << m).reshape(1 << b, 2, (1 << m) >> (b + 1))
    return x[:, 0].ravel(), x[:, 1].ravel()


def test_tables_m1_index_sets():
    row = rm_core.build_rm_code(1, 1).generator[1]
    assert np.flatnonzero(row == 0).tolist() == [0]
    assert np.flatnonzero(row == 1).tolist() == [1]
    zero, one = _halves(1, 0)
    assert zero.tolist() == [0] and one.tolist() == [1]


def test_tables_index_sets_are_balanced_partitions():
    for m in range(1, 11):
        generator = rm_core.build_rm_code(m, 1).generator
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
    supports = rm_core.build_rm_code(2, 1).generator.astype(bool)
    # canonical generator [[1,1,1,1],[0,0,1,1],[0,1,0,1]]: first column touches
    # only the all-one row
    assert np.flatnonzero(supports[:, 0]).tolist() == [0]
    assert np.flatnonzero(supports[:, 3]).tolist() == [0, 1, 2]


def test_tables_every_column_has_support():
    for m in (1, 3, 6):
        generator = rm_core.build_rm_code(m, 1).generator
        assert generator.sum(axis=0).min() >= 1


def test_tables_cap():
    with pytest.raises(rm_core.SizeLimitError):
        precompute_tables(0)
    with pytest.raises(rm_core.SizeLimitError):
        precompute_tables(17)


def test_info_llrs_strongly_positive_channel():
    # all-+10 LLRs at m=2: spectrum [40,0,0,0]; value frozen from the
    # exhaustive max-log oracle, which must agree exactly
    tables = precompute_tables(2)
    spectrum = fht([10.0, 10.0, 10.0, 10.0])
    got = info_bit_llrs(spectrum, tables)
    assert got.tolist() == [40.0, 40.0, 40.0]
    oracle, _ = brute_force_soft_map([10.0] * 4, rm_core.build_rm_code(2, 1))
    assert np.array_equal(got, oracle)


def test_info_llrs_negation_flips_only_first_bit():
    tables = precompute_tables(3)
    rng = np.random.default_rng(21)
    llr = rng.normal(size=8) * 3.0
    plus = info_bit_llrs(fht(llr), tables)
    minus = info_bit_llrs(fht(-llr), tables)
    assert minus[0] == pytest.approx(-plus[0], abs=1e-12)
    assert np.allclose(minus[1:], plus[1:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_info_llrs_match_exhaustive_oracle(m):
    code = rm_core.build_rm_code(m, 1)
    tables = precompute_tables(m)
    rng = np.random.default_rng(300 + m)
    block = rng.normal(size=(200, code.n)) * 2.5
    fast = info_bit_llrs_batch(fht(block), tables)
    slow = brute_force_soft_map_batch(block, code)[0]
    assert np.max(np.abs(fast - slow)) < 1e-9


def test_min_sum_expansion_m2():
    tables = precompute_tables(2)
    # supports per column: {0}, {0,2}, {0,1}, {0,1,2}
    out = encoded_bit_llrs([2.0, -1.0, 3.0], tables)
    assert out.tolist() == [2.0, 2.0, -1.0, -1.0]


def test_min_sum_all_positive_inputs_stay_positive():
    tables = precompute_tables(3)
    out = encoded_bit_llrs([5.0, 1.0, 2.0, 0.5], tables)
    assert (out > 0).all()


def test_min_sum_zero_magnitude_decides_as_bit_zero():
    tables = precompute_tables(2)
    out = encoded_bit_llrs([0.0, -1.0, 3.0], tables)
    # a zero input magnitude zeroes every column it feeds ...
    assert out[0] == 0.0 and out[2] == 0.0
    # ... and the downstream hard decision treats zero as positive (bit 0)
    assert not (out < 0)[0] and not (out < 0)[2]


def test_soft_decode_noiseless_all_zero():
    tables = precompute_tables(4)
    out = soft_fht_decode(np.full(16, 9.0), tables)
    assert (out > 0).all()


def test_soft_decode_positive_homogeneity():
    tables = precompute_tables(4)
    rng = np.random.default_rng(31)
    llr = rng.normal(size=16) * 2.0
    base = soft_fht_decode(llr, tables)
    for alpha in (0.25, 3.0, 17.5):
        scaled = soft_fht_decode(alpha * llr, tables)
        assert np.allclose(scaled, alpha * base, rtol=1e-12)


def test_soft_decode_signs_match_hard_ml():
    tables = precompute_tables(5)
    rng = np.random.default_rng(41)
    block = rng.normal(size=(2000, 32)) * 1.5
    soft = soft_fht_decode_batch(block, tables)
    hard, _ = fht_ml_decode_batch(block, tables)
    assert np.array_equal((soft < 0).astype(np.uint8), hard)


def test_soft_decode_batch_matches_single():
    tables = precompute_tables(3)
    rng = np.random.default_rng(51)
    block = rng.normal(size=(20, 8))
    together = soft_fht_decode_batch(block, tables)
    for i in range(20):
        assert np.array_equal(together[i], soft_fht_decode(block[i], tables))


def test_soft_decode_operation_bound():
    # counted work stays within a fixed multiple of n log2(n)
    for m in range(4, 11):
        n = 1 << m
        tables = precompute_tables(m)
        counter = OpCounter()
        soft_fht_decode_batch(np.zeros((1, n)), tables, counter)
        assert counter.total() <= 4 * n * m, m


def test_brute_force_zero_input_gives_zero_llrs():
    code = rm_core.build_rm_code(3, 1)
    info, coded = brute_force_soft_map(np.zeros(8), code)
    assert not info.any()
    assert not coded.any()


def test_brute_force_handles_second_order_code():
    code = rm_core.build_rm_code(3, 2)  # k = 7: 128 codewords
    rng = np.random.default_rng(61)
    llr = rng.normal(size=8) * 2.0
    info, coded = brute_force_soft_map(llr, code)
    assert info.shape == (7,)
    assert coded.shape == (8,)
    # hard thresholds of the coded LLRs reproduce the exhaustive ML word
    best = brute_force_ml_decode_batch(llr[None, :], code)[0]
    assert np.array_equal((coded < 0).astype(np.uint8), best)


def test_brute_force_dimension_cap():
    code = rm_core.build_rm_code(5, 4)  # k = 31
    with pytest.raises(rm_core.SizeLimitError):
        brute_force_soft_map(np.zeros(32), code)


def test_brute_force_info_sign_matches_ml_word():
    code = rm_core.build_rm_code(3, 1)
    rng = np.random.default_rng(71)
    words = rm_core.enumerate_codewords(code)
    infos = rm_core.binary_words(code.k)
    for _ in range(300):
        llr = rng.normal(size=8) * 2.0
        scores = llr @ (1.0 - 2.0 * words).T
        order = np.argsort(-scores)
        if scores[order[0]] <= scores[order[1]]:
            continue
        ml_info = infos[order[0]]
        info, _ = brute_force_soft_map(llr, code)
        assert np.array_equal((info < 0).astype(np.uint8), ml_info)


def test_counters_accumulate_per_call():
    tables = precompute_tables(4)
    one, two = OpCounter(), OpCounter()
    soft_fht_decode_batch(np.zeros((1, 16)), tables, one)
    soft_fht_decode_batch(np.zeros((1, 16)), tables, two)
    soft_fht_decode_batch(np.zeros((1, 16)), tables, two)
    assert two.total() == 2 * one.total()
    assert two.depth == 2 * one.depth
