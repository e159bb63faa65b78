"""Products of RM component codes: parameters, tensor encoding, iterative decoding.

A Q-component product code shapes the information word as a Q-dimensional
array and encodes along each axis with that axis' component encoder; every
axis-q fiber of the result is a codeword of component q.  Decoding sweeps the
axes in component order, replacing each fiber's LLRs with the component
decoder's output, and repeats for a configured number of iterations before
the final sign decision.

Tensor layout: shape (n_Q, ..., n_2, n_1) with component 1 on the last
(fastest-varying) axis; vectors are the row-major serialization of that
tensor, so in 2D the element (row i2, col i1) sits at index i2*n_1 + i1.
Encoding and decoding work on the last axis of any (..., k_t) or (..., n_t)
array, one frame per leading index.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from . import rm_core, soft_fht
from .channel import bpsk_modulate
from .fht import fht_ml_decode_batch
from .soft_fht import brute_force_ml_decode_batch, brute_force_soft_map_batch, soft_fht_decode_batch

SOFT_FHT = "soft-fht"
BF_MAP = "bfmap"

SOFT = "soft"
HARD = "hard"


@dataclass(frozen=True)
class Component:
    """One product component: the code and its decoder kind."""

    code: rm_core.RmCode
    decoder: str


class ProductCode:
    """Ordered product C1 x ... x CQ with multiplied parameters."""

    def __init__(self, components: list[Component]):
        if not components:
            raise ValueError("a product code needs at least one component")
        self.components = tuple(components)
        codes = [c.code for c in components]
        self.q_count = len(codes)
        self.n_t = math.prod(c.n for c in codes)
        self.k_t = math.prod(c.k for c in codes)
        self.d_t = math.prod(c.min_distance for c in codes)
        self.rate = self.k_t / self.n_t
        self.m_t = sum(c.m for c in codes)
        self.r_t = sum(c.r for c in codes)
        assert self.d_t == 1 << (self.m_t - self.r_t)
        assert self.k_t <= rm_dimension_of_enclosing(self), (
            "product dimension exceeds the enclosing RM code dimension"
        )
        # component 1 encodes/decodes the last tensor axis
        self.tensor_shape = tuple(c.n for c in reversed(codes))
        self.info_shape = tuple(c.k for c in reversed(codes))

    @property
    def descriptor(self) -> str:
        parts = []
        for comp in self.components:
            suffix = ":bfmap" if comp.decoder == BF_MAP else ""
            parts.append(comp.code.descriptor + suffix)
        return "x".join(parts)

    def enumerate_codewords(self) -> np.ndarray:
        """All 2^k_t codewords; row j encodes the k_t-bit binary word of j."""
        if self.k_t > rm_core.MAX_ENUM_DIM:
            raise rm_core.SizeLimitError(
                f"k_t={self.k_t} exceeds enumeration cap {rm_core.MAX_ENUM_DIM}"
            )
        return product_encode_batch(self, rm_core.binary_words(self.k_t))

    def __str__(self) -> str:
        return f"{self.descriptor} [n={self.n_t}, k={self.k_t}, d={self.d_t}]"


def rm_dimension_of_enclosing(code: ProductCode) -> int:
    """Dimension of the smallest RM code containing the product."""
    return rm_core.rm_dimension(code.m_t, code.r_t)


def build_product_code(specs) -> ProductCode:
    """Build from (component descriptor, decoder kind) pairs.

    Decoder kinds: 'soft-fht' (requires order 1) or 'bfmap' (exhaustive
    soft-MAP, requires component dimension <= 16).
    """
    components = []
    for descriptor, kind in specs:
        m, r = rm_core.parse_rm_descriptor(descriptor)
        code = rm_core.build_rm_code(m, r)
        if kind == SOFT_FHT:
            if r != 1:
                raise ValueError(
                    f"{code.descriptor}: soft-FHT component decoding needs order 1; "
                    "append :bfmap for the exhaustive soft-MAP decoder"
                )
        elif kind == BF_MAP:
            if code.k > soft_fht.MAX_BF_DIM:
                raise rm_core.SizeLimitError(
                    f"{code.descriptor}: brute-force component decoding caps at "
                    f"k <= {soft_fht.MAX_BF_DIM}, got k={code.k}"
                )
        else:
            raise ValueError(f"unknown decoder kind {kind!r}")
        components.append(Component(code=code, decoder=kind))
    return ProductCode(components)


def parse_product_descriptor(text: str) -> list[tuple[str, str]]:
    """Parse 'rm(m1,r1)xrm(m2,r2)...' with optional per-component ':bfmap'."""
    parts = re.split(r"\s*[xX]\s*", text.strip())
    if not parts or any(not part for part in parts):
        raise ValueError(f"invalid product descriptor {text!r}")
    specs = []
    for part in parts:
        base, sep, suffix = part.partition(":")
        suffix = suffix.strip().lower()
        if sep and suffix != "bfmap":
            raise ValueError(f"unknown decoder suffix {suffix!r} in {part!r}")
        m, r = rm_core.parse_rm_descriptor(base)  # validates the component syntax
        specs.append((f"rm({m},{r})", BF_MAP if suffix else SOFT_FHT))
    return specs


def product_code_from_descriptor(text: str) -> ProductCode:
    """Build a product code from its descriptor string."""
    return build_product_code(parse_product_descriptor(text))


def product_encode_batch(code: ProductCode, infos) -> np.ndarray:
    """Encode (..., k_t) information words to (..., n_t) codewords."""
    infos = np.asarray(infos, dtype=np.uint8)
    if infos.ndim == 0 or infos.shape[-1] != code.k_t:
        raise ValueError(f"information words have shape {infos.shape}, expected (..., {code.k_t})")
    lead = infos.shape[:-1]
    tensor = infos.reshape(lead + code.info_shape)
    for index, comp in enumerate(code.components):
        axis = -1 - index  # component 1 on the last axis
        encoded = rm_core.encode_batch(comp.code, np.moveaxis(tensor, axis, -1))
        tensor = np.moveaxis(encoded, -1, axis)
    return tensor.reshape(lead + (code.n_t,))


def _decode_fibers(comp: Component, fibers: np.ndarray, mode: str, counter) -> np.ndarray:
    """Run the component decoder along the last axis of `fibers`, a view of the tensor."""
    if comp.decoder == BF_MAP:
        if mode == SOFT:
            return brute_force_soft_map_batch(fibers, comp.code, counter)[1]
        return bpsk_modulate(brute_force_ml_decode_batch(fibers, comp.code, counter))
    if mode == SOFT:
        return soft_fht_decode_batch(fibers, comp.code, counter)
    return bpsk_modulate(fht_ml_decode_batch(fibers, comp.code, counter)[0])  # +-1 re-enters the loop


def product_decode_batch(code: ProductCode, received, sigma2: float,
                         iterations: int = 3, mode: str = SOFT, counter=None):
    """Decode (..., n_t) received samples.

    Returns (hard codewords (..., n_t) uint8, final LLR tensors with shape
    (...) + tensor_shape).  Fibers along one axis are decoded as a single
    batch, in place on a view of the tensor; axes and iterations are sequential.
    """
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma2}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if mode not in (SOFT, HARD):
        raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
    received = np.asarray(received, dtype=np.float64)
    if received.ndim == 0 or received.shape[-1] != code.n_t:
        raise ValueError(f"received samples have shape {received.shape}, expected (..., {code.n_t})")
    lead = received.shape[:-1]
    received = received.reshape(-1, code.n_t)
    count = received.shape[0]
    # channel LLRs 2y/sigma2, with the frames on the fastest axis: every axis'
    # kernel then runs long inner loops
    llrs = np.empty((code.n_t, count))
    np.multiply(2.0 / sigma2, received.T, out=llrs)
    tensor = np.moveaxis(llrs.reshape(code.tensor_shape + (count,)), -1, 0)
    for _ in range(iterations):
        for index, comp in enumerate(code.components):
            axis = -1 - index
            updated = _decode_fibers(comp, np.moveaxis(tensor, axis, -1), mode, counter)
            tensor = np.moveaxis(updated, -1, axis)
    decided = (tensor < 0.0).reshape(lead + (code.n_t,)).view(np.uint8)  # sign(0) = +1 maps to bit 0
    return decided, tensor.reshape(lead + code.tensor_shape)
