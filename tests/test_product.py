import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import min_nonzero_weight, product_rows_generator
from test_ops import PINNED
from rmproduct import gf2, rm_core, soft_fht
import rmproduct.fht as fht_module
from rmproduct.fht import fht, fht_ml_decode_batch
from rmproduct.ops import OpCounter
from rmproduct.product import (
    BF_MAP,
    SOFT_FHT,
    Component,
    ProductCode,
    decode_ops,
    product_code_from_descriptor,
    product_decode_batch,
    product_encode_batch,
    product_recover_batch,
)
from rmproduct.soft_fht import (
    brute_force_ml_decode_batch,
    brute_force_soft_map_batch,
    encoded_bit_llrs_batch,
    info_bit_llrs_batch,
    soft_fht_decode_batch,
)


def codeword_set(code):
    return {tuple(w) for w in rm_core.encode_batch(code, rm_core.binary_words(code.k))}


def product_codewords(code):
    """All 2^k_t codewords; row j encodes the k_t-bit binary word of j."""
    return product_encode_batch(code, rm_core.binary_words(code.k_t))


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


def components_of(descriptor):
    return [(c.code.descriptor, c.decoder) for c in product_code_from_descriptor(descriptor).components]


def test_descriptor_parsing_variants():
    assert components_of("RM(6,1) X rm(2,1)") == [("rm(6,1)", SOFT_FHT), ("rm(2,1)", SOFT_FHT)]
    assert components_of("rm(11,1)xrm(3,2):BFMAP")[1] == ("rm(3,2)", BF_MAP)
    for bad in ("", "x", "rm(2,1)x", "rm(2,1):fast", "rm(2,1):", "rm(2:1)"):
        with pytest.raises(ValueError):
            product_code_from_descriptor(bad)


def test_descriptor_round_trip():
    code = product_code_from_descriptor("rm(11,1)xrm(3,2):bfmap")
    assert code.descriptor == "rm(11,1)xrm(3,2):bfmap"
    again = product_code_from_descriptor(code.descriptor)
    assert (again.n_t, again.k_t) == (code.n_t, code.k_t)
    # every component a Component accepts is named by its descriptor
    for m, r in [(0, 0), (1, 0), (1, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
        for decoder in (SOFT_FHT, BF_MAP) if r == 1 else (BF_MAP,):
            code = ProductCode([Component(rm_core.build_rm_code(m, r), decoder)])
            assert product_code_from_descriptor(code.descriptor).components == code.components


@pytest.mark.parametrize("m, r, decoder", [
    (3, 2, SOFT_FHT), (3, 0, SOFT_FHT), (3, 1, "nonsense"), (3, 1, "Soft-FHT"), (3, 1, None),
])
def test_component_refuses_a_decoder_it_cannot_run(m, r, decoder):
    with pytest.raises(ValueError, match="decoder"):
        Component(rm_core.build_rm_code(m, r), decoder)


def test_higher_order_component_implies_bfmap():
    for descriptor in ("rm(3,2)", "rm(3,0)"):
        code = product_code_from_descriptor(descriptor)
        assert code.components[0].decoder == BF_MAP
        assert code.descriptor == descriptor + ":bfmap"
    assert components_of("rm(11,1)xrm(3,2)") == components_of("rm(11,1)xrm(3,2):bfmap")
    assert components_of("rm(4,1)xrm(4,1):bfmap") == [("rm(4,1)", SOFT_FHT), ("rm(4,1)", BF_MAP)]


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_implied_bfmap_decodes_like_the_suffix(mode):
    implied = product_code_from_descriptor("rm(4,1)xrm(3,2)")
    spelled = product_code_from_descriptor("rm(4,1)xrm(3,2):bfmap")
    rng = np.random.default_rng(12)
    sent = product_encode_batch(spelled, rng.integers(0, 2, (64, spelled.k_t), dtype=np.uint8))
    received = 1.0 - 2.0 * sent + rng.normal(0.0, 0.9, sent.shape)

    def decode(code):
        counter = OpCounter()
        return product_decode_batch(code, received, 0.81, 3, mode, counter) + (counter,)

    (decided, llrs, counter), (expected_decided, expected_llrs, expected_counter) = map(
        decode, (implied, spelled))
    assert np.array_equal(decided, expected_decided)
    assert np.array_equal(llrs, expected_llrs)
    assert counter == expected_counter


@pytest.mark.parametrize("descriptor", ["rm(3,1)xrm(3,1)xrm(3,1)", "rm(4,1)xrm(3,2):bfmap"])
def test_hard_operation_counts_do_not_depend_on_the_input(descriptor):
    # the first call of a decode runs its kernel on channel LLRs, zero or (bpsk
    # codewords at sigma2 = 2) +-1; every later call reads bits, which the
    # tables serve; each call counts its kernel's operations all the same
    code = product_code_from_descriptor(descriptor)
    sent = product_encode_batch(code, np.random.default_rng(5).integers(
        0, 2, (16, code.k_t), dtype=np.uint8))
    counters = OpCounter(), OpCounter()
    for received, counter in zip((np.zeros(sent.shape), 1.0 - 2.0 * sent), counters):
        product_decode_batch(code, received, 2.0, 3, "hard", counter)
    assert counters[0] == counters[1]
    assert counters[0].total() > 0


@pytest.mark.parametrize("descriptor", ["rm(5,3)", "rm(5,3):bfmap"])
def test_bfmap_component_dimension_cap(descriptor):
    with pytest.raises(rm_core.SizeLimitError, match=r"rm\(5,3\)"):
        product_code_from_descriptor(descriptor)  # k = 26 > 16


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
    enclosing = product_rows_generator(5, 2)
    words = product_codewords(code)
    assert gf2.row_space_equal(np.vstack([enclosing, words]), enclosing)


def test_product_basis_inside_enclosing_rm_code_more_pairs():
    for m1, m2 in ((4, 3), (5, 2), (6, 4)):
        code = product_code_from_descriptor(f"rm({m1},1)xrm({m2},1)")
        basis = product_encode_batch(code, np.eye(code.k_t, dtype=np.uint8))
        enclosing = product_rows_generator(m1 + m2, 2)
        assert gf2.row_space_equal(np.vstack([enclosing, basis]), enclosing), (m1, m2)


# one, two and three axes, with order-0 and full-order components
SUBCODE_CODES = ("rm(0,0)", "rm(3,3)", "rm(2,0)", "rm(3,1)xrm(2,1)", "rm(2,0)xrm(3,3)",
                 "rm(0,0)xrm(4,1)", "rm(2,0)xrm(3,3)xrm(2,1)", "rm(3,1)xrm(0,0)xrm(2,2)")


@pytest.mark.parametrize("descriptor", SUBCODE_CODES)
def test_the_product_is_a_subcode_of_the_enclosing_rm_code(descriptor):
    code = product_code_from_descriptor(descriptor)
    enclosing = rm_core.build_rm_code(code.m_t, code.r_t)
    assert set(code.subcode.positions) <= set(enclosing.positions)
    infos = np.random.default_rng(31).integers(0, 2, (6, code.k_t), dtype=np.uint8)
    v = np.zeros((6, enclosing.k), dtype=np.uint8)  # the bits at the subcode's positions
    v[:, [enclosing.positions.index(p) for p in code.subcode.positions]] = infos
    sent = product_encode_batch(code, infos)
    assert np.array_equal(sent, rm_core.encode_batch(enclosing, v))
    assert np.array_equal(product_recover_batch(code, sent), infos)
    # every fiber along component q's axis, the last for q = 1, is a codeword of component q
    tensors = sent.reshape((6,) + code.tensor_shape)
    for axis, comp in zip(range(code.q_count, 0, -1), code.components):
        fibers = np.moveaxis(tensors, axis, -1).reshape(-1, comp.code.n)
        assert {tuple(f) for f in fibers} <= codeword_set(comp.code)


def test_products_of_swapped_components_are_different_subcodes():
    a, b = (product_code_from_descriptor(d).subcode for d in ("rm(3,1)xrm(2,1)", "rm(2,1)xrm(3,1)"))
    assert (a.m, a.r, a.n, a.k) == (b.m, b.r, b.n, b.k) == (5, 2, 32, 12)
    assert a != b


def test_product_min_distance_bruteforce():
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    assert min_nonzero_weight(product_codewords(code)) == 8 == code.d_t


def test_reshape_2d_index_convention():
    # element (row i2, col i1) of the tensor sits at vector index i2*n1 + i1:
    # on every codeword, those rows are component-1 and those columns are
    # component-2 codewords
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    rows = codeword_set(code.components[0].code)
    cols = codeword_set(code.components[1].code)
    n1, n2 = (c.code.n for c in code.components)
    assert code.tensor_shape == (n2, n1) == (4, 8)
    for sent in product_codewords(code):
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
    manual = fht_ml_decode_batch(manual, code1)            # codeword bits
    manual = fht_ml_decode_batch(manual.T, code2).T
    assert tensor.dtype == np.uint8 and np.array_equal(tensor, manual)  # the bits decided in
    assert np.array_equal(decided, manual.reshape(-1))
    assert np.shares_memory(tensor, decided)


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_final_llrs_keep_the_frames_on_the_smallest_stride(mode):
    # every component decoder, the exhaustive one included, returns its input's layout
    code = product_code_from_descriptor("rm(4,1)xrm(3,2):bfmap")
    received = np.random.default_rng(114).normal(size=(32, code.n_t))
    _, tensor = product_decode_batch(code, received, 1.0, 3, mode)
    assert tensor.strides[0] == tensor.itemsize == min(tensor.strides)


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
    # frames on the smallest stride, as the decisions the tally XORs them with
    assert product_encode_batch(code, infos.reshape(6, -1)).strides == flat_decided.strides


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


@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("sigma2", [np.nan, np.float64(np.nan), np.inf, -np.inf, 5e-324])
def test_decode_refuses_a_noise_variance_without_a_finite_llr_scale(mode, sigma2):
    # a NaN or infinite LLR scale would decide the all-zero word for any input; 2/5e-324 is inf
    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    with pytest.raises(ValueError, match="noise variance"):
        product_decode_batch(code, np.ones((4, code.n_t)), sigma2, 3, mode)


def test_llrs_that_leave_the_float_range_are_refused():
    # soft LLRs grow about 256x an iteration on rm(6,1)xrm(2,1): 200 iterations reach inf and
    # then inf - inf, and a tiny noise variance overflows within 3
    code = product_code_from_descriptor("rm(6,1)xrm(2,1)")
    received = 1.0 + np.random.default_rng(116).normal(0.0, 0.7, (8, code.n_t))
    for sigma2, iterations in ((0.5, 200), (1e-305, 3)):
        with pytest.raises(ValueError, match=rf"float64 range in {iterations} iterations"):
            product_decode_batch(code, received, sigma2, iterations, "soft")


@pytest.mark.parametrize("descriptor, message", [
    ("rm(17,1)", r"^m=17 exceeds cap 16$"),
    ("rm(100000,99999)", r"^m=100000 exceeds cap 16$"),  # no dimension summed over a huge m
    ("rm(14,7)", r"^rm\(14,7\): brute-force decoding caps at k <= 16, got k=9908$"),
    ("rm(16,15)", r"^rm\(16,15\): brute-force decoding caps at k <= 16, got k=65535$"),
    ("rm(9,1)xrm(8,1)", r"^rm\(9,1\)xrm\(8,1\): a product caps at n_t <= 65536, got n_t=131072$"),
    ("rm(8,1):bfmapxrm(9,1)", r"^rm\(8,1\):bfmapxrm\(9,1\): a product caps at n_t <= 65536"),
])
def test_size_caps_are_checked_before_any_code_is_built(monkeypatch, descriptor, message):
    def no_build(m, r):
        raise AssertionError(f"rm({m},{r}) was built")

    monkeypatch.setattr(rm_core, "build_rm_code", no_build)
    with pytest.raises(rm_core.SizeLimitError, match=message):
        product_code_from_descriptor(descriptor)


def test_encode_validates_arguments():
    code = product_code_from_descriptor("rm(2,1)xrm(1,1)")
    with pytest.raises(ValueError):
        product_encode_batch(code, np.zeros(code.k_t + 1, dtype=np.uint8))


# the acceptance menu, the CI smoke codes, the benchmark matrix, and rm(3,2)
# and rm(4,2) as one-component products
RECOVER_CODES = (
    "rm(6,1)xrm(2,1)", "rm(5,1)xrm(3,1)", "rm(4,1)xrm(4,1)", "rm(3,1)xrm(2,1)", "rm(4,1)xrm(2,1)",
    "rm(11,1)xrm(3,2):bfmap", "rm(10,1)xrm(2,1)", "rm(3,1)xrm(3,1)xrm(3,1)", "rm(3,2):bfmapxrm(2,1)",
    "rm(4,1)xrm(3,2):bfmap", "rm(4,3)xrm(2,1)", "rm(4,1)xrm(3,2)", "rm(4,2)xrm(2,1)",
    "rm(3,1):bfmapxrm(2,1)", "rm(3,2)", "rm(4,2)",
)


@pytest.mark.parametrize("descriptor", RECOVER_CODES)
def test_recover_inverts_encode(descriptor):
    code = product_code_from_descriptor(descriptor)
    infos = np.random.default_rng(29).integers(0, 2, (2, 3, code.k_t), dtype=np.uint8)
    sent = product_encode_batch(code, infos)
    frames_fastest = np.asfortranarray(sent.reshape(6, -1))  # the decoder's layout
    for words, want in ((sent[:, :0], infos[:, :0]), (sent[0, 0], infos[0, 0]), (sent, infos),
                        (frames_fastest, infos.reshape(6, -1))):
        recovered = product_recover_batch(code, words)
        assert recovered.dtype == np.uint8 and recovered.shape == words.shape[:-1] + (code.k_t,)
        assert np.array_equal(recovered, want), words.shape


def test_recover_validates_arguments():
    code = product_code_from_descriptor("rm(2,1)xrm(1,1)")
    with pytest.raises(ValueError, match="expected"):
        product_recover_batch(code, np.zeros(code.n_t + 1, dtype=np.uint8))


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


def test_per_code_caches_are_read_only():
    # the exhaustive codebook and its position splits, and both hard decoders' +-1 tables
    fht_code, exhaustive_code = rm_core.build_rm_code(2, 1), rm_core.build_rm_code(3, 2)
    caches = soft_fht._codebook(exhaustive_code) + (
        fht_module._hard_table(fht_code, fht_module._ml_kernel),
        fht_module._hard_table(exhaustive_code, soft_fht._ml_kernel))
    for cache in caches:
        with pytest.raises(ValueError, match="read-only"):
            cache[(0,) * cache.ndim] = 0


@pytest.mark.parametrize("descriptor", ["rm(3,2)xrm(2,1)", "rm(3,1):bfmapxrm(2,1)", "rm(3,1)xrm(2,1)"])
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_decode_takes_zero_frames(descriptor, mode):
    code = product_code_from_descriptor(descriptor)
    decided, tensors = product_decode_batch(code, np.zeros((0, code.n_t)), 1.0, 3, mode)
    assert decided.shape == (0, code.n_t) and decided.dtype == np.uint8
    assert tensors.shape == (0,) + code.tensor_shape


def _workspace_slots(*sizes):
    return [slot for size in sizes for slot in fht_module.workspace(size)]


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_decode_outputs_stay_owned_by_the_caller(mode):
    # the kernels work in a reused workspace: what a call returns must not be part of it
    code = product_code_from_descriptor("rm(3,1)xrm(3,2):bfmapxrm(2,1)")
    rng = np.random.default_rng(131)
    first, second = (rng.normal(size=(16, code.n_t)) for _ in range(2))  # pure noise: distinct words
    decided, tensors = product_decode_batch(code, first, 1.0, 2, mode)
    kept = decided.copy(), tensors.copy()
    again = product_decode_batch(code, second, 1.0, 2, mode)
    assert not np.array_equal(again[1], kept[1])
    assert np.array_equal(decided, kept[0]) and np.array_equal(tensors, kept[1])
    for result in (decided, tensors) + again:
        assert not any(np.shares_memory(result, slot) for slot in _workspace_slots(first.size))


def test_kernels_without_out_return_arrays_of_their_own():
    rng = np.random.default_rng(132)
    first, second = rm_core.build_rm_code(3, 1), rm_core.build_rm_code(3, 2)
    llrs = rng.normal(size=(5, 8))
    bits = (llrs < 0.0).astype(np.uint8)  # bits: the table path
    results = [fht(llrs), info_bit_llrs_batch(llrs, first), encoded_bit_llrs_batch(llrs[:, :4], first),
               soft_fht_decode_batch(llrs, first), fht_ml_decode_batch(llrs, first),
               fht_ml_decode_batch(bits, first), brute_force_soft_map_batch(llrs, second),
               brute_force_ml_decode_batch(llrs, second), brute_force_ml_decode_batch(bits, second)]
    for result in results:
        assert not any(np.shares_memory(result, slot) for slot in _workspace_slots(20, 40))


def test_every_kernel_refuses_an_out_of_the_wrong_dtype_or_shape():
    first, second = rm_core.build_rm_code(3, 1), rm_core.build_rm_code(3, 2)
    rng = np.random.default_rng(133)
    llrs, cube = rng.normal(size=(5, 8)), rng.normal(size=(2, 3, 8))
    # (kernel, input length, output length, output dtype)
    calls = [(lambda x, out: fht(x, out=out), 8, 8, np.float64),
             (lambda x, out: info_bit_llrs_batch(x, first, out=out), 8, 4, np.float64),
             (lambda x, out: encoded_bit_llrs_batch(x, first, out=out), 4, 8, np.float64),
             (lambda x, out: soft_fht_decode_batch(x, first, out=out), 8, 8, np.float64),
             (lambda x, out: fht_ml_decode_batch(x, first, out=out), 8, 8, np.uint8),
             (lambda x, out: brute_force_soft_map_batch(x, second, out=out), 8, 8, np.float64),
             (lambda x, out: brute_force_ml_decode_batch(x, second, out=out), 8, 8, np.uint8)]
    for call, length, width, dtype in calls:
        other = np.float32 if dtype == np.float64 else np.float64
        for wrong in (np.zeros((5, width), dtype=other), np.zeros((5, width + 1), dtype=dtype),
                      np.zeros((4, width), dtype=dtype)):
            with pytest.raises(ValueError, match=rf"out must be {np.dtype(dtype)} of shape \(5, {width}\), got"):
                call(llrs[:, :length], wrong)
        # the right dtype and shape, with its axes in memory in another order than the input's
        with pytest.raises(ValueError, match=r"out must lay out its axes in memory as the input does"):
            call(cube[..., :length], np.zeros((width, 3, 2), dtype=dtype).T)


@pytest.mark.parametrize("descriptor, mode", [("rm(6,1)xrm(2,1)", "soft"),
                                              ("rm(3,1)xrm(3,1)xrm(3,1)", "hard")])
def test_a_steady_state_decode_allocates_little_beyond_its_outputs(descriptor, mode):
    code = product_code_from_descriptor(descriptor)
    received = np.random.default_rng(133).normal(size=(256, code.n_t)) + 1.0
    product_decode_batch(code, received, 0.8, 3, mode)  # fills the workspace and the tables
    tracemalloc.start()  # numpy reports its data buffers to tracemalloc
    try:
        product_decode_batch(code, received, 0.8, 3, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the outputs alone are 1.125 LLR tensors: the LLR tensor, allocated in the call and
    # decoded in, and one byte a decision
    assert peak <= 3 * received.nbytes, peak / received.nbytes


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_decodes_in_threads_at_once_match_sequential_ones(mode):
    # numpy releases the GIL, so threads that shared a workspace would corrupt each other
    code = product_code_from_descriptor("rm(6,1)xrm(3,2):bfmapxrm(2,1)")
    rng = np.random.default_rng(134)
    inputs = [rng.normal(size=(64, code.n_t)) + 0.5 for _ in range(3)]  # more threads than cores
    expected = [product_decode_batch(code, received, 0.8, 3, mode) for received in inputs]
    start = threading.Barrier(len(inputs))
    results = [[] for _ in inputs]

    def decode(index):
        start.wait(timeout=60)
        for _ in range(6):
            results[index].append(product_decode_batch(code, inputs[index], 0.8, 3, mode))

    threads = [threading.Thread(target=decode, args=(index,)) for index in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, (decided, tensors) in zip(results, expected):
        assert len(got) == 6
        for got_decided, got_tensors in got:
            assert np.array_equal(got_decided, decided) and np.array_equal(got_tensors, tensors)


@pytest.mark.parametrize("descriptor, mode, iterations, counts", PINNED)
def test_the_model_counts_each_frame_as_the_decoder_does(descriptor, mode, iterations, counts):
    # work scales with the frames decoded side by side; the depth does not
    code = product_code_from_descriptor(descriptor)
    work = decode_ops(code, mode, iterations)
    assert (work.add_sub, work.compare, work.sign_mult, work.depth) == counts
    counter = OpCounter(depth=1)
    product_decode_batch(code, np.zeros((5, code.n_t)), 1.0, iterations, mode, counter)
    assert counter == OpCounter(5 * work.add_sub, 5 * work.compare, 5 * work.sign_mult, 1 + work.depth)


def test_decode_ops_refuses_a_bad_setting():
    code = product_code_from_descriptor("rm(3,1)")
    with pytest.raises(ValueError, match="iterations"):
        decode_ops(code, "soft", 0)
    with pytest.raises(ValueError, match="mode"):
        decode_ops(code, "Soft", 3)


@pytest.mark.parametrize("kernel", [
    fht, fht_ml_decode_batch, info_bit_llrs_batch, encoded_bit_llrs_batch, soft_fht_decode_batch,
    brute_force_soft_map_batch, brute_force_ml_decode_batch,
], ids=lambda kernel: kernel.__name__)
def test_no_kernel_takes_a_counter(kernel):
    # `out` is keyword-only, so a counter passed where it used to go is refused
    code = rm_core.build_rm_code(2, 1)
    with pytest.raises(TypeError):
        kernel(np.zeros((1, code.n)), code, OpCounter())
