import numpy as np
import pytest

from oracles import exhaustive_scores, sylvester
from rmproduct import rm_core
from rmproduct.fht import fht, fht_ml_decode_batch
from rmproduct.ops import OpCounter, fht_step
from rmproduct.product import product_code_from_descriptor, product_decode_batch


def naive_ml(llr, code):
    """Exhaustive correlation decoder; returns (codeword, unique_max)."""
    scores, words = exhaustive_scores(llr, code)
    order = np.argsort(-scores)
    unique = scores[order[0]] > scores[order[1]]
    return words[int(np.argmax(scores))], unique


def test_base_butterfly():
    assert fht([3.0, 1.0]).tolist() == [4.0, 2.0]


def test_constant_vector_concentrates():
    assert fht([1.0, 1.0, 1.0, 1.0]).tolist() == [4.0, 0.0, 0.0, 0.0]


def test_involution():
    rng = np.random.default_rng(5)
    v = rng.normal(size=16)
    assert np.allclose(fht(fht(v)), 16.0 * v, rtol=1e-12)


def test_length_one_is_identity():
    assert fht([7.5]).tolist() == [7.5]


def test_matches_explicit_matrix():
    rng = np.random.default_rng(6)
    for m in range(0, 7):
        v = rng.normal(size=1 << m)
        expected = v @ sylvester(m)
        got = fht(v)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12), m


def test_batch_matches_per_row():
    rng = np.random.default_rng(8)
    block = rng.normal(size=(9, 32))
    together = fht(block)
    for i in range(9):
        assert np.array_equal(together[i], fht(block[i]))


def test_does_not_mutate_input():
    v = np.ones(8)
    fht(v)
    assert np.array_equal(v, np.ones(8))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rejects_an_out_that_overlaps_the_input(m):
    values = np.random.default_rng(m).normal(size=(2, 1 << m))
    before = values.copy()
    for out in (values, values[::-1]):  # the input itself, and its rows in reverse
        with pytest.raises(ValueError, match="overlap"):
            fht(values, out=out)
        assert np.array_equal(values, before)


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fht([1.0, 2.0, 3.0])


def test_operation_count_and_depth():
    for m in range(4, 13):
        n = 1 << m
        step = fht_step(rm_core.build_rm_code(m, 1))
        assert step.add_sub == n * m  # exactly n log2(n) adds/subs
        assert step.depth == m  # one level per butterfly stage


def test_ml_decode_all_positive():
    code = rm_core.build_rm_code(2, 1)
    codeword = fht_ml_decode_batch([10.0, 10.0, 10.0, 10.0], code)
    assert codeword.dtype == np.uint8 and codeword.tolist() == [0, 0, 0, 0]


def test_ml_decode_all_negative():
    code = rm_core.build_rm_code(2, 1)
    codeword = fht_ml_decode_batch([-10.0, -10.0, -10.0, -10.0], code)
    assert codeword.tolist() == [1, 1, 1, 1]


def test_ml_decode_zero_llrs_break_to_zero_word():
    # all-zero spectrum: smallest index wins, sign(0) counts as positive
    code = rm_core.build_rm_code(3, 1)
    codeword = fht_ml_decode_batch(np.zeros(8), code)
    assert not codeword.any()


def test_ml_decode_magnitude_tie_prefers_smallest_index():
    # spectrum engineered to [5, -5, 0, 0]: equal magnitudes at indices 0 and 1
    code = rm_core.build_rm_code(2, 1)
    llr = fht([5.0, -5.0, 0.0, 0.0]) / 4.0
    codeword = fht_ml_decode_batch(llr, code)
    assert codeword.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ml_decode_matches_exhaustive_search(m):
    code = rm_core.build_rm_code(m, 1)
    rng = np.random.default_rng(100 + m)
    checked = 0
    for _ in range(300):
        llr = rng.normal(size=code.n) * 2.0
        expected_cw, unique = naive_ml(llr, code)
        if not unique:
            continue
        codeword = fht_ml_decode_batch(llr, code)
        assert np.array_equal(codeword, expected_cw)
        checked += 1
    assert checked > 250


def test_ml_decode_batch_matches_single():
    code = rm_core.build_rm_code(4, 1)
    rng = np.random.default_rng(9)
    block = rng.normal(size=(50, 16))
    codewords = fht_ml_decode_batch(block, code)
    for i in range(50):
        assert np.array_equal(codewords[i], fht_ml_decode_batch(block[i], code))


def test_codeword_hadamard_alignment():
    # +-1 codeword list of RM(m,1): first half is H, second half is -H
    for m in range(1, 5):
        code = rm_core.build_rm_code(m, 1)
        words = rm_core.encode_batch(code, rm_core.binary_words(code.k))
        pm1 = 1.0 - 2.0 * words.astype(np.float64)
        h = sylvester(m)
        n = 1 << m
        assert np.array_equal(pm1[:n], h), m
        assert np.array_equal(pm1[n:], -h), m


def test_counter_is_per_invocation():
    # a one-iteration hard decode of rm(4,1) adds the FHT's add/subs alone
    code = product_code_from_descriptor("rm(4,1)")
    a, b = OpCounter(), OpCounter()
    for counter in (a, b, b):
        product_decode_batch(code, np.zeros((1, 16)), 1.0, 1, "hard", counter)
    assert a.add_sub == 64
    assert b.add_sub == 128
