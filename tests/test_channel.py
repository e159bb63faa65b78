"""The BPSK/AWGN channel conventions, checked where the library carries them:
modulation and the SNR/Eb/N0 conversions in `channel`, the noise in
`sim._chunk_draws` and the 2y/sigma2 channel LLRs in `product_decode_batch`."""

import math

import numpy as np
import pytest

from rmproduct import channel, product, sim
from rmproduct.soft_fht import soft_fht_decode_batch


def test_modulate_examples():
    assert channel.bpsk_modulate([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]
    assert (channel.bpsk_modulate(np.zeros(5, dtype=np.uint8)) == 1.0).all()
    assert channel.bpsk_modulate(np.array([[True], [False]])).tolist() == [[-1.0], [1.0]]


def test_modulate_never_changes_its_input():
    for bits in (np.array([0, 1, 1], dtype=np.uint8), np.array([0.0, 1.0, 1.0])):
        before = bits.copy()
        symbols = channel.bpsk_modulate(bits)
        assert np.array_equal(bits, before) and symbols.dtype == np.float64
        assert not np.shares_memory(symbols, bits)


def test_modulate_hard_decision_round_trip():
    bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    symbols = channel.bpsk_modulate(bits)
    assert np.array_equal(((1.0 - symbols) / 2.0).astype(np.uint8), bits)


def test_llr_formula():
    # one iteration of a single-component code sees exactly 2y/sigma2
    code = product.product_code_from_descriptor("rm(2,1)")
    y = np.array([0.5, -1.0, 0.25, 2.0])
    _, tensor = product.product_decode_batch(code, y, 0.5, iterations=1)
    assert np.array_equal(tensor, soft_fht_decode_batch([2.0, -4.0, 1.0, 8.0], code.components[0].code))


def test_llr_preserves_signs():
    # rm(1,1) is all of GF(2)^2: max-log decoding keeps each LLR's sign
    code = product.product_code_from_descriptor("rm(1,1)")
    y = np.random.default_rng(3).normal(size=(50, 2))
    decided, _ = product.product_decode_batch(code, y, 0.7, iterations=1)
    assert np.array_equal(decided, (y < 0).astype(np.uint8))


def test_ebno_conversion_examples():
    assert channel.ebno_db_to_sigma2(0.0, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert channel.ebno_db_to_sigma2(0.0, 21 / 256) == pytest.approx(128 / 21, rel=1e-12)


def test_ebno_conversion_round_trip():
    # Eb/N0 = SNR / rate, so the SNR of an Eb/N0 point is Eb/N0 + 10 log10(rate) dB
    for ebno in (-3.0, 0.0, 2.5, 10.0):
        for rate in (0.01, 21 / 256, 0.5, 1.0):
            sigma2 = channel.ebno_db_to_sigma2(ebno, rate)
            assert channel.sigma2_to_snr_db(sigma2) == pytest.approx(ebno + 10 * math.log10(rate), abs=1e-12)


def test_snr_definition():
    assert channel.sigma2_to_snr_db(0.5) == pytest.approx(0.0, abs=1e-12)


def test_parameter_validation():
    code = product.product_code_from_descriptor("rm(2,1)")
    with pytest.raises(ValueError):
        product.product_decode_batch(code, np.ones(4), 0.0)
    with pytest.raises(ValueError):
        product.product_decode_batch(code, np.ones(4), -1.0)
    with pytest.raises(ValueError):
        channel.sigma2_to_snr_db(0.0)
    for sigma2 in (math.nan, math.inf, 5e-324):  # NaN, infinite, or 2/sigma2 is inf
        with pytest.raises(ValueError, match="noise variance"):
            channel.sigma2_to_snr_db(sigma2)
        with pytest.raises(ValueError, match="noise variance"):
            product.product_decode_batch(code, np.ones(4), sigma2)
    with pytest.raises(ValueError):
        channel.ebno_db_to_sigma2(0.0, 0.0)
    with pytest.raises(ValueError):
        channel.ebno_db_to_sigma2(0.0, 1.5)
    for ebno_db in (1e308, -4000.0, 3080.0):  # sigma2 overflows, underflows to 0, or 2/sigma2 is inf
        with pytest.raises(ValueError, match="noise variance outside the float range"):
            channel.ebno_db_to_sigma2(ebno_db, 0.5)


def _chunk_noise(sigma2, seed, frames=245):
    code = product.product_code_from_descriptor("rm(10,1)xrm(2,1)")  # n_t = 4096
    return sim._chunk_draws(code, sigma2, seed, 0, frames)[1]


def test_awgn_noise_statistics():
    sigma2 = 0.8
    noise = _chunk_noise(sigma2, 12345)
    n = noise.size
    assert n > 1_000_000
    assert abs(noise.mean()) < 5.0 * math.sqrt(sigma2 / n)
    assert noise.var() == pytest.approx(sigma2, rel=0.01)


def test_awgn_is_reproducible_from_seed():
    assert np.array_equal(_chunk_noise(1.0, 7, frames=2), _chunk_noise(1.0, 7, frames=2))


def test_bpsk_sign_error_rate_matches_analytic():
    # uncoded BPSK: P(sign flip) = Q(1/sigma) with Q(x) = erfc(x/sqrt(2))/2
    sigma2 = 0.5
    noise = _chunk_noise(sigma2, 99)
    received = channel.bpsk_modulate(np.zeros(noise.shape, dtype=np.uint8)) + noise
    n = received.size
    measured = (received < 0).mean()
    expected = 0.5 * math.erfc(1.0 / math.sqrt(2.0 * sigma2))
    assert measured == pytest.approx(expected, abs=4.0 * math.sqrt(expected * (1 - expected) / n))
