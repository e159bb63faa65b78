"""BPSK over AWGN: modulation and SNR <-> Eb/N0 conversions.

Conventions: bits map to symbols as 1 - 2c; noise is zero-mean Gaussian with
per-sample variance sigma2 (drawn in `sim._chunk_draws`); channel LLRs are
2y/sigma2 (formed in `product.product_decode_batch`); SNR := 1/(2 sigma2)
and Eb/N0 := SNR / rate.
"""

import math

import numpy as np


def bpsk_modulate(bits) -> np.ndarray:
    """Map bits {0,1} to symbols {+1,-1} as 1 - 2c, in place on one float64 copy
    (never on the input), since arithmetic into fresh temporaries is slower."""
    symbols = np.array(bits, dtype=np.float64)
    symbols *= -2.0
    symbols += 1.0
    return symbols


def ebno_db_to_sigma2(ebno_db: float, rate: float) -> float:
    """Noise variance for a given Eb/N0 (dB) and code rate."""
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return 1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0))


def sigma2_to_snr_db(sigma2: float) -> float:
    """SNR (dB) for a noise variance: 10 log10(1/(2 sigma2))."""
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma2}")
    return 10.0 * math.log10(1.0 / (2.0 * sigma2))
