import numpy as np
import pytest

from rmproduct import gf2, rm_core
from rmproduct.fht import fht_ml_decode_batch
from rmproduct.product import (
    BF_MAP,
    SOFT_FHT,
    build_product_code,
    parse_product_descriptor,
    product_code_from_descriptor,
    product_decode_batch,
    product_encode_batch,
)
from rmproduct.soft_fht import soft_fht_decode_batch


def codeword_set(code):
    return {tuple(w) for w in rm_core.enumerate_codewords(code)}


def test_parameters_fig_subject_code():
    code = product_code_from_descriptor("rm(6,1)xrm(2,1)")
    assert (code.n_t, code.k_t, code.d_t) == (256, 21, 64)
    assert (code.m_t, code.r_t) == (8, 2)
    assert code.rate == 21 / 256


def test_parameters_large_low_rate_code():
    code = product_code_from_descriptor("rm(11,1)xrm(3,2):bfmap")
    assert (code.n_t, code.k_t) == (2**14, 84)
    assert code.components[1].decoder == BF_MAP


def test_dimension_below_enclosing_rm_code():
    code = product_code_from_descriptor("rm(4,1)xrm(4,1)")
    assert code.k_t == 25
    assert rm_core.rm_dimension(code.m_t, code.r_t) == 37
    assert code.k_t <= 37


def test_parameters_multiply():
    for descriptor in ("rm(3,1)xrm(2,1)", "rm(5,1)xrm(3,1)", "rm(2,1)xrm(2,1)xrm(1,1)"):
        code = product_code_from_descriptor(descriptor)
        components = [c.code for c in code.components]
        assert code.n_t == np.prod([c.n for c in components]) == 2**code.m_t
        assert code.k_t == np.prod([c.k for c in components])
        assert code.d_t == np.prod([c.min_distance for c in components]) == 2 ** (code.m_t - code.r_t)
        assert code.rate == pytest.approx(np.prod([c.rate for c in components]), rel=1e-12)


def test_descriptor_parsing_variants():
    assert parse_product_descriptor("RM(6,1) X rm(2,1)") == [("rm(6,1)", SOFT_FHT), ("rm(2,1)", SOFT_FHT)]
    assert parse_product_descriptor("rm(11,1)xrm(3,2):BFMAP")[1] == ("rm(3,2)", BF_MAP)
    for bad in ("", "x", "rm(2,1)x", "rm(2,1):fast", "rm(2,1):", "rm(2:1)"):
        with pytest.raises(ValueError):
            parse_product_descriptor(bad)


def test_descriptor_round_trip():
    code = product_code_from_descriptor("rm(11,1)xrm(3,2):bfmap")
    assert code.descriptor == "rm(11,1)xrm(3,2):bfmap"
    again = product_code_from_descriptor(code.descriptor)
    assert (again.n_t, again.k_t) == (code.n_t, code.k_t)


def test_higher_order_component_needs_bfmap():
    with pytest.raises(ValueError, match="bfmap"):
        build_product_code([("rm(11,1)", SOFT_FHT), ("rm(3,2)", SOFT_FHT)])


def test_bfmap_component_dimension_cap():
    with pytest.raises(rm_core.SizeLimitError):
        build_product_code([("rm(5,3)", BF_MAP)])  # k = 26 > 16


def test_encode_zero_maps_to_zero():
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    assert not product_encode_batch(code, np.zeros(code.k_t, dtype=np.uint8)).any()


def test_encode_fibers_exhaustively():
    # every axis fiber of every codeword belongs to its component code
    code = product_code_from_descriptor("rm(2,1)xrm(1,1)")
    rows = codeword_set(code.components[0].code)  # axis 1 = last tensor axis
    cols = codeword_set(code.components[1].code)
    for u in rm_core.binary_words(code.k_t):
        tensor = product_encode_batch(code, u).reshape(code.tensor_shape)
        assert tensor.shape == (2, 4)
        for row in tensor:
            assert tuple(row) in rows
        for col in tensor.T:
            assert tuple(col) in cols


def test_encode_fibers_sampled_large_code():
    code = product_code_from_descriptor("rm(6,1)xrm(2,1)")
    rows = codeword_set(code.components[0].code)
    cols = codeword_set(code.components[1].code)
    rng = np.random.default_rng(81)
    for _ in range(20):
        u = rng.integers(0, 2, code.k_t, dtype=np.uint8)
        tensor = product_encode_batch(code, u).reshape(code.tensor_shape)
        for row in tensor:
            assert tuple(row) in rows
        for col in tensor.T:
            assert tuple(col) in cols


def test_three_dimensional_fibers():
    code = product_code_from_descriptor("rm(2,1)xrm(1,1)xrm(1,1)")
    books = [codeword_set(c.code) for c in code.components]
    rng = np.random.default_rng(82)
    u = rng.integers(0, 2, code.k_t, dtype=np.uint8)
    tensor = product_encode_batch(code, u).reshape(code.tensor_shape)
    assert tensor.shape == (2, 2, 4)
    # component q lives on tensor axis Q-q: fibers along each axis
    for axis, book in ((2, books[0]), (1, books[1]), (0, books[2])):
        moved = np.moveaxis(tensor, axis, -1).reshape(-1, tensor.shape[axis])
        for fiber in moved:
            assert tuple(fiber) in book


def test_product_codewords_inside_enclosing_rm_code():
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    enclosing = rm_core.build_rm_code(5, 2)
    assert gf2.in_row_space(code.enumerate_codewords(), enclosing.generator)


def test_product_basis_inside_enclosing_rm_code_more_pairs():
    for m1, m2 in ((4, 3), (5, 2), (6, 4)):
        code = product_code_from_descriptor(f"rm({m1},1)xrm({m2},1)")
        basis = product_encode_batch(code, np.eye(code.k_t, dtype=np.uint8))
        enclosing = rm_core.build_rm_code(m1 + m2, 2)
        assert gf2.in_row_space(basis, enclosing.generator), (m1, m2)


def test_product_min_distance_bruteforce():
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    assert rm_core.min_distance_bruteforce(code) == 8 == code.d_t


def test_reshape_2d_index_convention():
    # element (row i2, col i1) of the tensor sits at vector index i2*n1 + i1:
    # on every codeword, those rows are component-1 and those columns are
    # component-2 codewords
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    rows = codeword_set(code.components[0].code)
    cols = codeword_set(code.components[1].code)
    n1, n2 = (c.code.n for c in code.components)
    assert code.tensor_shape == (n2, n1) == (4, 8)
    for sent in code.enumerate_codewords():
        for i2 in range(n2):
            assert tuple(sent[[i2 * n1 + i1 for i1 in range(n1)]]) in rows
        for i1 in range(n1):
            assert tuple(sent[[i2 * n1 + i1 for i2 in range(n2)]]) in cols


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_noiseless_decode_recovers_codeword(mode):
    code = product_code_from_descriptor("rm(4,1)xrm(2,1)")
    rng = np.random.default_rng(101)
    for _ in range(10):
        u = rng.integers(0, 2, code.k_t, dtype=np.uint8)
        sent = product_encode_batch(code, u)
        decided, _ = product_decode_batch(code, 1.0 - 2.0 * sent.astype(float), 1.0, 1, mode)
        assert np.array_equal(decided, sent)


def test_noiseless_decode_bfmap_component():
    code = product_code_from_descriptor("rm(4,1)xrm(3,2):bfmap")
    rng = np.random.default_rng(102)
    u = rng.integers(0, 2, code.k_t, dtype=np.uint8)
    sent = product_encode_batch(code, u)
    for mode in ("soft", "hard"):
        decided, _ = product_decode_batch(code, 1.0 - 2.0 * sent.astype(float), 1.0, 2, mode)
        assert np.array_equal(decided, sent)


def test_single_iteration_soft_equals_manual_axis_sweep():
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    code1 = rm_core.build_rm_code(3, 1)
    code2 = rm_core.build_rm_code(2, 1)
    rng = np.random.default_rng(111)
    y = rng.normal(size=code.n_t)
    sigma2 = 0.8
    decided, tensor = product_decode_batch(code, y, sigma2, 1, "soft")

    manual = (2.0 / sigma2 * y).reshape(4, 8)
    manual = soft_fht_decode_batch(manual, code1)            # axis 1: rows
    manual = soft_fht_decode_batch(manual.T, code2).T        # axis 2: columns
    assert np.allclose(tensor, manual, rtol=1e-12)
    assert np.array_equal(decided, (manual.reshape(-1) < 0).astype(np.uint8))


def test_single_iteration_hard_equals_manual_axis_sweep():
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    code1 = rm_core.build_rm_code(3, 1)
    code2 = rm_core.build_rm_code(2, 1)
    rng = np.random.default_rng(112)
    y = rng.normal(size=code.n_t)
    decided, tensor = product_decode_batch(code, y, 1.0, 1, "hard")

    manual = (2.0 * y).reshape(4, 8)
    rows_hard, _ = fht_ml_decode_batch(manual, code1)
    manual = 1.0 - 2.0 * rows_hard                         # hard decisions re-modulated
    cols_hard, _ = fht_ml_decode_batch(manual.T, code2)
    manual = (1.0 - 2.0 * cols_hard).T
    assert np.array_equal(tensor, manual)
    assert np.array_equal(decided, (manual.reshape(-1) < 0).astype(np.uint8))


def test_soft_decision_invariant_to_noise_variance_scale():
    # component decoders are positively homogeneous: sigma2 rescales LLRs only
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    rng = np.random.default_rng(113)
    y = rng.normal(size=code.n_t)
    a, _ = product_decode_batch(code, y, 0.5, 3, "soft")
    b, _ = product_decode_batch(code, y, 4.0, 3, "soft")
    assert np.array_equal(a, b)


def test_decode_batch_matches_single():
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    rng = np.random.default_rng(114)
    block = rng.normal(size=(16, code.n_t))
    decided, tensors = product_decode_batch(code, block, 1.0, 2, "soft")
    for i in range(16):
        single, tensor = product_decode_batch(code, block[i], 1.0, 2, "soft")
        assert single.shape == (code.n_t,) and tensor.shape == code.tensor_shape
        assert np.array_equal(decided[i], single)
        assert np.array_equal(tensors[i], tensor)


@pytest.mark.parametrize("descriptor", ["rm(3,1)xrm(2,1)", "rm(2,1)xrm(1,1)xrm(2,1)",
                                        "rm(3,2):bfmapxrm(2,1)"])
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_encode_and_decode_take_any_leading_shape(descriptor, mode):
    code = product_code_from_descriptor(descriptor)
    rng = np.random.default_rng(115)
    infos = rng.integers(0, 2, (2, 3, code.k_t), dtype=np.uint8)
    sent = product_encode_batch(code, infos)
    assert sent.shape == (2, 3, code.n_t)
    assert np.array_equal(sent.reshape(6, -1), product_encode_batch(code, infos.reshape(6, -1)))
    received = 1.0 - 2.0 * sent + rng.normal(0.0, 0.8, sent.shape)
    decided, tensors = product_decode_batch(code, received, 2.0, 2, mode)
    assert decided.shape == (2, 3, code.n_t) and tensors.shape == (2, 3) + code.tensor_shape
    flat_decided, flat_tensors = product_decode_batch(code, received.reshape(6, -1), 2.0, 2, mode)
    assert np.array_equal(decided.reshape(6, -1), flat_decided)
    assert np.array_equal(tensors.reshape((6,) + code.tensor_shape), flat_tensors)


def test_decode_validates_arguments():
    code = product_code_from_descriptor("rm(2,1)xrm(1,1)")
    y = np.zeros(code.n_t)
    with pytest.raises(ValueError):
        product_decode_batch(code, y, 0.0, 1, "soft")
    with pytest.raises(ValueError):
        product_decode_batch(code, y, 1.0, 0, "soft")
    with pytest.raises(ValueError):
        product_decode_batch(code, y, 1.0, 1, "fuzzy")
    with pytest.raises(ValueError):
        product_decode_batch(code, np.zeros(3), 1.0, 1, "soft")


def test_encode_validates_arguments():
    code = product_code_from_descriptor("rm(2,1)xrm(1,1)")
    with pytest.raises(ValueError):
        product_encode_batch(code, np.zeros(code.k_t + 1, dtype=np.uint8))


def test_single_component_product():
    # Q = 1 degenerates to the component code itself
    code = product_code_from_descriptor("rm(3,1)")
    assert (code.n_t, code.k_t, code.d_t) == (8, 4, 4)
    rng = np.random.default_rng(121)
    u = rng.integers(0, 2, code.k_t, dtype=np.uint8)
    sent = product_encode_batch(code, u)
    assert np.array_equal(sent, rm_core.encode_batch(code.components[0].code, u))
    decided, _ = product_decode_batch(code, 1.0 - 2.0 * sent.astype(float), 1.0, 1, "soft")
    assert np.array_equal(decided, sent)


def test_generators_are_read_only():
    code = product_code_from_descriptor("rm(2,1)xrm(1,1)")
    with pytest.raises(ValueError):
        code.components[0].code.generator[0, 0] = 0
