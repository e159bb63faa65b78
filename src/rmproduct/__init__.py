"""Products of first-order Reed-Muller codes with iterative soft-FHT decoding.

`import rmproduct` loads the coding library: codes, encoders, decoders and
the channel.  The sweep names (`SimConfig`, `SimPoint`, `run_point`,
`run_sweep`, `wilson_interval`) load `rmproduct.sim`, and with it the
process-pool and JSON modules, on first use.
"""

import importlib

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

_SIM_NAMES = frozenset({"SimConfig", "SimPoint", "run_point", "run_sweep", "wilson_interval"})


def __getattr__(name):
    """Import `sim` on first use of a sweep name (PEP 562)."""
    if name != "sim" and name not in _SIM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sim = importlib.import_module(".sim", __name__)
    return sim if name == "sim" else getattr(sim, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
