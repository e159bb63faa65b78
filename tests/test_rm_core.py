import math

import numpy as np
import pytest

from oracles import kronecker_power, min_nonzero_weight, product_rows_generator
from rmproduct import gf2, rm_core


def test_polarization_matrix_base_cases():
    assert kronecker_power(0).tolist() == [[1]]
    assert kronecker_power(1).tolist() == [[1, 0], [1, 1]]
    assert kronecker_power(2).tolist() == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 1],
    ]


def test_polarization_matrix_is_lower_triangular():
    p = kronecker_power(4)
    assert np.array_equal(np.triu(p, 1), np.zeros_like(p))
    assert p[-1].sum() == 16  # last row is all-one


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
    assert product_rows_generator(1, 1).tolist() == [[1, 1], [0, 1]]
    assert product_rows_generator(2, 1).tolist() == [
        [1, 1, 1, 1],
        [0, 0, 1, 1],
        [0, 1, 0, 1],
    ]


# every order up to m = 10, and orders 0..2 up to the cap m = 16
CANONICAL_PAIRS = [(m, r) for m in range(11) for r in range(m + 1)] + [
    (m, r) for m in range(11, 17) for r in range(3)]


def test_canonical_generator_matches_the_row_products():
    # the encoder's codewords of the unit words are the rows of its generator
    for m, r in CANONICAL_PAIRS:
        code = rm_core.build_rm_code(m, r)
        generator = rm_core.encode_batch(code, np.eye(code.k, dtype=np.uint8))
        assert generator.dtype == np.uint8
        assert np.array_equal(generator, product_rows_generator(m, r)), (m, r)


def test_first_row_is_all_one():
    for m, r in [(3, 1), (4, 2), (5, 3)]:
        code = rm_core.build_rm_code(m, r)
        assert product_rows_generator(m, r)[0].sum() == code.n


def test_row_space_equals_weight_selected_rows():
    # independent check against the fully materialized Kronecker power
    for m in range(0, 7):
        p = kronecker_power(m)
        weights = p.sum(axis=1)
        for r in range(m + 1):
            selected = p[weights >= 2 ** (m - r)]
            assert gf2.row_space_equal(product_rows_generator(m, r), selected), (m, r)


def test_weight_profile_counts():
    for m in range(0, 11):
        for r in range(m + 1):
            code = rm_core.build_rm_code(m, r)
            assert code.k == rm_core.rm_dimension(m, r)
            weights, counts = np.unique(product_rows_generator(m, r).sum(axis=1), return_counts=True)
            profile = dict(zip(weights.tolist(), counts.tolist()))
            for i in range(r + 1):
                assert profile.get(code.n // 2**i, 0) == math.comb(m, i), (m, r, i)
            assert sum(profile.values()) == code.k


def test_generator_min_row_weight():
    assert product_rows_generator(6, 3).sum(axis=1).min() == 2 ** (6 - 3)


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


def test_encode_keeps_parity_past_255_ones():
    code = rm_core.build_rm_code(10, 5)  # k = 638
    rng = np.random.default_rng(13)
    infos = rng.integers(0, 2, (4, code.k), dtype=np.uint8)
    sums = infos.astype(np.int64) @ product_rows_generator(10, 5).astype(np.int64)
    assert sums.max() > 255  # more than a uint8 sum holds
    encoded = rm_core.encode_batch(code, infos)
    assert encoded.dtype == np.uint8
    assert np.array_equal(encoded, sums % 2)


def test_encode_matches_the_generator_product_over_the_integers():
    # (u @ G) % 2 in int64 is the parity of every entry, so 2, 3 and 255 count
    # by their low bit; words come as 0 frames, 1-D, 3-D and axis-moved views
    rng = np.random.default_rng(19)
    values = np.array([0, 1, 2, 3, 255], dtype=np.uint8)
    for m, r in CANONICAL_PAIRS:
        code = rm_core.build_rm_code(m, r)
        generator = product_rows_generator(m, r).astype(np.int64)
        words = rng.choice(values, size=(2, 3, code.k))
        expected = (words.astype(np.int64) @ generator) % 2
        k_slowest = np.moveaxis(np.ascontiguousarray(np.moveaxis(words, -1, 0)), 0, -1)
        for infos, want in ((words[:, :0], expected[:, :0]), (words[0, 0], expected[0, 0]),
                            (words, expected), (np.moveaxis(words, 0, 1), np.moveaxis(expected, 0, 1)),
                            (k_slowest, expected)):
            encoded = rm_core.encode_batch(code, infos)
            assert encoded.dtype == np.uint8 and encoded.shape == infos.shape[:-1] + (code.n,)
            assert np.array_equal(encoded, want), (m, r, infos.shape)


def test_encode_rejects_wrong_length():
    code = rm_core.build_rm_code(3, 1)
    with pytest.raises(ValueError):
        rm_core.encode_batch(code, [1, 0])


def test_recover_inverts_encode_and_reads_only_the_information_positions():
    # every r <= m <= 10, rm(3,2) and rm(4,2) among them, and r <= 2 up to
    # m = 16; words come as 0 frames, 1-D, 3-D, axis-moved and n-slowest views
    rng = np.random.default_rng(23)
    for m, r in CANONICAL_PAIRS:
        code = rm_core.build_rm_code(m, r)
        infos = rng.integers(0, 2, (2, 3, code.k), dtype=np.uint8)
        words = rm_core.encode_batch(code, infos)
        for given, want in ((words[:, :0], infos[:, :0]), (words[0, 0], infos[0, 0]),
                            (np.ascontiguousarray(words), infos),
                            (np.moveaxis(words, 0, 1), np.moveaxis(infos, 0, 1)), (words, infos)):
            recovered = rm_core.recover_batch(code, given)
            assert recovered.dtype == np.uint8 and recovered.shape == given.shape[:-1] + (code.k,)
            assert np.array_equal(recovered, want), (m, r, given.shape)
        elsewhere = np.setdiff1d(np.arange(code.n), code.positions)
        flipped = words.copy()
        flipped[..., elsewhere] ^= rng.integers(0, 2, flipped[..., elsewhere].shape, dtype=np.uint8)
        assert np.array_equal(rm_core.recover_batch(code, flipped), infos), (m, r)


def test_recover_rejects_wrong_length():
    code = rm_core.build_rm_code(3, 1)
    with pytest.raises(ValueError, match=r"expected \(\.\.\., 8\)"):
        rm_core.recover_batch(code, np.zeros((2, 4), dtype=np.uint8))


def test_enumerate_codewords_rm11():
    code = rm_core.build_rm_code(1, 1)
    words = rm_core.encode_batch(code, rm_core.binary_words(code.k))
    assert words.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]


def test_enumerate_codewords_counts_and_order():
    code = rm_core.build_rm_code(2, 1)
    words = rm_core.encode_batch(code, rm_core.binary_words(code.k))
    assert words.shape == (8, 4)
    assert not words[0].any()  # index 0 is the zero word
    assert len({tuple(w) for w in words}) == 8  # full-rank generator: all distinct
    # row j encodes the binary word of j, MSB first
    u = rm_core.binary_words(code.k)[5]
    assert np.array_equal(words[5], rm_core.encode_batch(code, u))


def min_distance_bruteforce(code):
    return min_nonzero_weight(rm_core.encode_batch(code, rm_core.binary_words(code.k)))


def test_min_distance_examples():
    assert min_distance_bruteforce(rm_core.build_rm_code(3, 1)) == 4
    assert min_distance_bruteforce(rm_core.build_rm_code(2, 1)) == 2


def test_min_distance_matches_formula():
    for m in range(1, 6):
        for r in range(m + 1):
            code = rm_core.build_rm_code(m, r)
            if code.k > 20:  # 2^k codewords
                continue
            assert min_distance_bruteforce(code) == 2 ** (m - r), (m, r)


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
