import math

import numpy as np
import pytest

from rmproduct import gf2, rm_core


def test_polarization_matrix_base_cases():
    assert rm_core.build_polarization_matrix(0).tolist() == [[1]]
    assert rm_core.build_polarization_matrix(1).tolist() == [[1, 0], [1, 1]]
    assert rm_core.build_polarization_matrix(2).tolist() == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 1],
    ]


def test_polarization_matrix_is_lower_triangular():
    p = rm_core.build_polarization_matrix(4)
    assert np.array_equal(np.triu(p, 1), np.zeros_like(p))
    assert p[-1].sum() == 16  # last row is all-one


def test_polarization_matrix_limits():
    with pytest.raises(ValueError):
        rm_core.build_polarization_matrix(-1)
    with pytest.raises(rm_core.SizeLimitError):
        rm_core.build_polarization_matrix(rm_core.MAX_M + 1)


@pytest.mark.parametrize("m,r,k", [(6, 1, 7), (13, 2, 92), (3, 2, 7), (8, 2, 37)])
def test_dimension_examples(m, r, k):
    assert rm_core.rm_dimension(m, r) == k


def test_dimension_rejects_bad_orders():
    with pytest.raises(ValueError):
        rm_core.rm_dimension(3, 4)
    with pytest.raises(ValueError):
        rm_core.rm_dimension(3, -1)
    with pytest.raises(ValueError):
        rm_core.build_rm_code(2, 3)


def test_canonical_generator_small():
    assert rm_core.build_rm_code(1, 1).generator.tolist() == [[1, 1], [0, 1]]
    assert rm_core.build_rm_code(2, 1).generator.tolist() == [
        [1, 1, 1, 1],
        [0, 0, 1, 1],
        [0, 1, 0, 1],
    ]


def test_first_row_is_all_one():
    for m, r in [(3, 1), (4, 2), (5, 3)]:
        code = rm_core.build_rm_code(m, r)
        assert code.generator[0].sum() == code.n


def test_row_space_equals_weight_selected_rows():
    # independent check against the fully materialized Kronecker power
    for m in range(0, 7):
        p = rm_core.build_polarization_matrix(m)
        weights = p.sum(axis=1)
        for r in range(m + 1):
            selected = p[weights >= 2 ** (m - r)]
            code = rm_core.build_rm_code(m, r)
            assert gf2.row_space_equal(code.generator, selected), (m, r)


def test_weight_profile_counts():
    for m in range(0, 11):
        for r in range(m + 1):
            code = rm_core.build_rm_code(m, r)
            assert code.k == rm_core.rm_dimension(m, r)
            profile = dict(code.weight_profile)
            for i in range(r + 1):
                assert profile.get(code.n // 2**i, 0) == math.comb(m, i), (m, r, i)
            assert sum(profile.values()) == code.k


def test_generator_min_row_weight():
    code = rm_core.build_rm_code(6, 3)
    assert code.generator.sum(axis=1).min() == 2 ** (6 - 3)


def test_encode_examples():
    code = rm_core.build_rm_code(2, 1)
    assert rm_core.encode_batch(code, [0, 0, 0]).tolist() == [0, 0, 0, 0]
    assert rm_core.encode_batch(code, [1, 0, 0]).tolist() == [1, 1, 1, 1]
    assert rm_core.encode_batch(code, [1, 1, 0]).tolist() == [1, 1, 0, 0]


def test_encode_is_linear():
    code = rm_core.build_rm_code(5, 2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.integers(0, 2, code.k, dtype=np.uint8)
        v = rng.integers(0, 2, code.k, dtype=np.uint8)
        both = rm_core.encode_batch(code, u ^ v)
        assert np.array_equal(both, rm_core.encode_batch(code, u) ^ rm_core.encode_batch(code, v))


def test_encode_rejects_wrong_length():
    code = rm_core.build_rm_code(3, 1)
    with pytest.raises(ValueError):
        rm_core.encode_batch(code, [1, 0])


def test_enumerate_codewords_rm11():
    code = rm_core.build_rm_code(1, 1)
    assert rm_core.enumerate_codewords(code).tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]


def test_enumerate_codewords_counts_and_order():
    code = rm_core.build_rm_code(2, 1)
    words = rm_core.enumerate_codewords(code)
    assert words.shape == (8, 4)
    assert not words[0].any()  # index 0 is the zero word
    assert len({tuple(w) for w in words}) == 8  # full-rank generator: all distinct
    # row j encodes the binary word of j, MSB first
    u = rm_core.binary_words(code.k)[5]
    assert np.array_equal(words[5], rm_core.encode_batch(code, u))


def test_enumerate_codewords_cap():
    code = rm_core.build_rm_code(5, 5)  # k = 32
    with pytest.raises(rm_core.SizeLimitError):
        rm_core.enumerate_codewords(code)


def test_min_distance_examples():
    assert rm_core.min_distance_bruteforce(rm_core.build_rm_code(3, 1)) == 4
    assert rm_core.min_distance_bruteforce(rm_core.build_rm_code(2, 1)) == 2


def test_min_distance_matches_formula():
    for m in range(1, 6):
        for r in range(m + 1):
            code = rm_core.build_rm_code(m, r)
            if code.k > rm_core.MAX_ENUM_DIM:
                continue
            assert rm_core.min_distance_bruteforce(code) == 2 ** (m - r), (m, r)


def test_descriptor_parsing():
    assert rm_core.parse_rm_descriptor("rm(6,1)") == (6, 1)
    assert rm_core.parse_rm_descriptor("RM( 13 , 2 )") == (13, 2)
    for bad in ("rm(6;1)", "rm(6)", "pm(6,1)", "rm(6,1)x", ""):
        with pytest.raises(ValueError):
            rm_core.parse_rm_descriptor(bad)


def test_descriptor_round_trip():
    code = rm_core.build_rm_code(6, 1)
    assert code.descriptor == "rm(6,1)"
    assert rm_core.parse_rm_descriptor(code.descriptor) == (6, 1)
