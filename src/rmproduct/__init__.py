"""Products of first-order Reed-Muller codes with iterative soft-FHT decoding."""

from .channel import (
    ChannelParams,
    awgn_channel,
    bpsk_modulate,
    channel_llr,
    ebno_db_to_sigma2,
    sigma2_to_ebno_db,
    sigma2_to_snr_db,
)
from .fht import fht, fht_ml_decode
from .ops import OpCounter
from .product import (
    ProductCode,
    build_product_code,
    product_code_from_descriptor,
    product_decode,
    product_encode,
    reshape_tensor_to_vector,
    reshape_vector_to_tensor,
)
from .rm_core import (
    RmCode,
    SizeLimitError,
    build_polarization_matrix,
    build_rm_code,
    encode,
    enumerate_codewords,
    min_distance_bruteforce,
    parse_rm_descriptor,
    rm_dimension,
)
from .sim import SimConfig, SimPoint, run_point, run_sweep, wilson_interval
from .soft_fht import (
    brute_force_soft_map,
    encoded_bit_llrs,
    info_bit_llrs,
    precompute_tables,
    soft_fht_decode,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "OpCounter",
    "ProductCode",
    "RmCode",
    "SimConfig",
    "SimPoint",
    "SizeLimitError",
    "awgn_channel",
    "bpsk_modulate",
    "build_polarization_matrix",
    "build_product_code",
    "build_rm_code",
    "brute_force_soft_map",
    "channel_llr",
    "ebno_db_to_sigma2",
    "encode",
    "encoded_bit_llrs",
    "enumerate_codewords",
    "fht",
    "fht_ml_decode",
    "info_bit_llrs",
    "min_distance_bruteforce",
    "parse_rm_descriptor",
    "precompute_tables",
    "product_code_from_descriptor",
    "product_decode",
    "product_encode",
    "reshape_tensor_to_vector",
    "reshape_vector_to_tensor",
    "rm_dimension",
    "run_point",
    "run_sweep",
    "sigma2_to_ebno_db",
    "sigma2_to_snr_db",
    "soft_fht_decode",
    "wilson_interval",
]
