"""BPSK over AWGN: modulation and SNR <-> Eb/N0 conversions.

Conventions: bits map to symbols as 1 - 2c; noise is zero-mean Gaussian with
per-sample variance sigma2 (drawn in `sim._chunk_draws`); channel LLRs are
2y/sigma2 (formed in `product.product_decode_batch`); SNR := 1/(2 sigma2)
and Eb/N0 := SNR / rate.
"""

import math

import numpy as np


def bpsk_modulate(bits, out=None) -> np.ndarray:
    """Map bits {0,1} to symbols {+1,-1} as 1 - 2c into one float64 array,
    `out` if given (never the input), since arithmetic into fresh
    temporaries is slower."""
    symbols = np.multiply(bits, -2.0, out=out, dtype=np.float64)
    symbols += 1.0
    return symbols


def is_noise_variance(sigma2) -> bool:
    """Whether `sigma2` is a positive float whose LLR scale 2/sigma2 is finite:
    false for NaN, infinities and subnormal-tiny values such as 5e-324.  The
    scale is taken in Python floats, so a numpy scalar warns of no overflow."""
    return 0.0 < sigma2 < math.inf and 2.0 / float(sigma2) < math.inf


def ebno_db_to_sigma2(ebno_db: float, rate: float) -> float:
    """Noise variance for a given Eb/N0 (dB) and code rate; refuses an Eb/N0
    whose variance or LLR scale 2/sigma2 is not a finite positive float."""
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = math.nan
    if not is_noise_variance(sigma2):
        raise ValueError(f"Eb/N0 of {ebno_db} dB at rate {rate} gives a noise variance "
                         f"outside the float range")
    return sigma2


def sigma2_to_snr_db(sigma2: float) -> float:
    """SNR (dB) for a noise variance: 10 log10(1/(2 sigma2)); refuses a
    variance that `is_noise_variance` rejects."""
    if not is_noise_variance(sigma2):
        raise ValueError(f"noise variance must be positive with a finite LLR scale 2/sigma2, got {sigma2}")
    return 10.0 * math.log10(1.0 / (2.0 * sigma2))
