import numpy as np

from rmproduct import gf2


def test_pack_rows_little_endian_columns():
    assert gf2.pack_rows([[1, 0, 0], [0, 1, 1]]) == [0b001, 0b110]


def test_rank_basic():
    # elimination reduces each matrix to a basis of the expected size
    assert gf2.row_space_equal([[1, 0], [0, 1]], np.eye(2, dtype=np.uint8))
    assert gf2.row_space_equal([[1, 1], [1, 1]], [[1, 1]])
    assert gf2.row_space_equal(np.zeros((3, 4), dtype=np.uint8), np.zeros((0, 4), dtype=np.uint8))


def test_rank_of_random_invertible():
    rng = np.random.default_rng(2)
    eye = np.eye(12, dtype=np.uint8)
    mixed = eye.copy()
    for _ in range(50):  # row operations preserve rank
        i, j = rng.integers(0, 12, 2)
        if i != j:
            mixed[i] ^= mixed[j]
    assert gf2.row_space_equal(mixed, eye)


def test_row_space_equal():
    a = [[1, 0, 1], [0, 1, 1]]
    b = [[1, 1, 0], [0, 1, 1]]  # same span, different basis
    c = [[1, 0, 1]]
    assert gf2.row_space_equal(a, b)
    assert not gf2.row_space_equal(a, c)


def test_in_row_space():
    basis = [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert gf2.row_space_equal(np.vstack([basis, [[1, 1, 1, 1], [0, 0, 0, 0]]]), basis)
    assert not gf2.row_space_equal(np.vstack([basis, [[1, 0, 0, 0]]]), basis)
