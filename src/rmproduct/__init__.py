"""Products of first-order Reed-Muller codes with iterative soft-FHT decoding."""

from .channel import bpsk_modulate, ebno_db_to_sigma2, sigma2_to_snr_db
from .fht import fht_ml_decode_batch
from .ops import OpCounter
from .product import (
    ProductCode,
    product_code_from_descriptor,
    product_decode_batch,
    product_encode_batch,
)
from .rm_core import (
    RmCode,
    SizeLimitError,
    build_rm_code,
    encode_batch,
    parse_rm_descriptor,
    rm_dimension,
)
from .sim import SimConfig, SimPoint, run_point, run_sweep, wilson_interval
from .soft_fht import (
    brute_force_soft_map_batch,
    encoded_bit_llrs_batch,
    info_bit_llrs_batch,
    soft_fht_decode_batch,
)

__version__ = "0.1.0"

__all__ = [
    "OpCounter",
    "ProductCode",
    "RmCode",
    "SimConfig",
    "SimPoint",
    "SizeLimitError",
    "bpsk_modulate",
    "build_rm_code",
    "brute_force_soft_map_batch",
    "ebno_db_to_sigma2",
    "encode_batch",
    "encoded_bit_llrs_batch",
    "fht_ml_decode_batch",
    "info_bit_llrs_batch",
    "parse_rm_descriptor",
    "product_code_from_descriptor",
    "product_decode_batch",
    "product_encode_batch",
    "rm_dimension",
    "run_point",
    "run_sweep",
    "sigma2_to_snr_db",
    "soft_fht_decode_batch",
    "wilson_interval",
]
