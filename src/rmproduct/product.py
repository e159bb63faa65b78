"""Products of RM component codes: parameters, tensor encoding, iterative decoding.

A Q-component product code shapes the information word as a Q-dimensional
array and encodes along each axis with that axis' component encoder; every
axis-q fiber of the result is a codeword of component q.  Decoding sweeps the
axes in component order, replacing each fiber's LLRs with the component
decoder's output, and repeats for a configured number of iterations before
the final sign decision.  In hard mode the output is codeword bits, which
every later component call reads.

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

MAX_PRODUCT_N = 1 << 16  # a 256-frame chunk's float64 LLR block stays within 128 MiB


@dataclass(frozen=True)
class Component:
    """One product component: the code and its decoder kind."""

    code: rm_core.RmCode
    decoder: str


class ProductCode:
    """Ordered product C1 x ... x CQ with multiplied parameters, of length n_t <= MAX_PRODUCT_N."""

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
        # component 1 encodes/decodes the last tensor axis
        self.tensor_shape = tuple(c.n for c in reversed(codes))
        self.info_shape = tuple(c.k for c in reversed(codes))
        if self.n_t > MAX_PRODUCT_N:
            raise rm_core.SizeLimitError(
                f"{self.descriptor}: a product caps at n_t <= {MAX_PRODUCT_N}, got n_t={self.n_t}")

    @property
    def descriptor(self) -> str:
        parts = []
        for comp in self.components:
            suffix = ":bfmap" if comp.decoder == BF_MAP else ""
            parts.append(comp.code.descriptor + suffix)
        return "x".join(parts)

    def __str__(self) -> str:
        return f"{self.descriptor} [n={self.n_t}, k={self.k_t}, d={self.d_t}]"


def product_code_from_descriptor(text: str) -> ProductCode:
    """Build a product code from 'rm(m1,r1)xrm(m2,r2)...'.

    A component's order picks its decoder: order 1 decodes with the soft-FHT
    decoder, and any other order with the exhaustive soft-MAP decoder, which
    needs component dimension <= 16.  ':bfmap' after an order-1 component
    chooses the exhaustive decoder for it too.  Every part is parsed before
    any code is built.
    """
    parts = re.split(r"\s*[xX]\s*", text.strip())
    if not all(parts):
        raise ValueError(f"invalid product descriptor {text!r}")
    specs = []
    for part in parts:
        base, sep, suffix = part.partition(":")
        suffix = suffix.strip().lower()
        if sep and suffix != BF_MAP:
            raise ValueError(f"unknown decoder suffix {suffix!r} in {part!r}")
        m, r = rm_core.parse_rm_descriptor(base)
        specs.append((m, r, BF_MAP if sep or r != 1 else SOFT_FHT))
    components = []
    for m, r, kind in specs:
        code = rm_core.build_rm_code(m, r)
        if kind == BF_MAP:
            soft_fht.check_exhaustive_size(code)
        components.append(Component(code=code, decoder=kind))
    return ProductCode(components)


def _along_axes(code: ProductCode, tensor, step) -> np.ndarray:
    """Apply `step(component code, array)` along the last axis of each
    component's view of `tensor`, component 1 (the last axis) first."""
    for index, comp in enumerate(code.components):
        axis = -1 - index
        tensor = np.moveaxis(step(comp.code, np.moveaxis(tensor, axis, -1)), -1, axis)
    return tensor


def product_encode_batch(code: ProductCode, infos) -> np.ndarray:
    """Encode (..., k_t) information words to (..., n_t) codewords."""
    infos = np.asarray(infos, dtype=np.uint8)
    if infos.ndim == 0 or infos.shape[-1] != code.k_t:
        raise ValueError(f"information words have shape {infos.shape}, expected (..., {code.k_t})")
    lead = infos.shape[:-1]
    return _along_axes(code, infos.reshape(lead + code.info_shape),
                       rm_core.encode_batch).reshape(lead + (code.n_t,))


def product_recover_batch(code: ProductCode, words) -> np.ndarray:
    """The (..., k_t) information words of (..., n_t) words, read through each
    component's information positions: the inverse of `product_encode_batch`
    on codewords, and the information-bit error pattern of an error pattern."""
    words = np.asarray(words, dtype=np.uint8)
    if words.ndim == 0 or words.shape[-1] != code.n_t:
        raise ValueError(f"words have shape {words.shape}, expected (..., {code.n_t})")
    lead = words.shape[:-1]
    return _along_axes(code, words.reshape(lead + code.tensor_shape),
                       rm_core.recover_batch).reshape(lead + (code.k_t,))


def _decode_fibers(comp: Component, source, written, axis: int, mode: str, counter) -> None:
    """Run the component decoder along `axis` of the tensor `source`, writing
    its output into the same fibers of `written`, a tensor of the decoder's
    output dtype laid out as `source` (it may be `source`)."""
    if comp.decoder == BF_MAP:
        decoder = brute_force_soft_map_batch if mode == SOFT else brute_force_ml_decode_batch
    else:
        decoder = soft_fht_decode_batch if mode == SOFT else fht_ml_decode_batch
    decoder(np.moveaxis(source, axis, -1), comp.code, counter, out=np.moveaxis(written, axis, -1))


def product_decode_batch(code: ProductCode, received, sigma2: float,
                         iterations: int = 3, mode: str = SOFT, counter=None):
    """Decode (..., n_t) received samples.

    Returns (hard codewords (..., n_t) uint8, final LLR tensors with shape
    (...) + tensor_shape), both owned by the caller; the LLRs are the tensor
    the decoder worked in, with the frames on the smallest stride.  Fibers
    along one axis are decoded as a single batch, in place on a view of the
    tensor; axes and iterations are sequential.  In hard mode the first call
    decodes the LLR tensor into a uint8 tensor laid out as it, every later
    call decodes that in place, and the final LLRs are its bits as +-1.
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
    llrs = np.multiply(2.0 / sigma2, received.T, order="C")
    tensor = np.moveaxis(llrs.reshape(code.tensor_shape + (count,)), -1, 0)
    written = tensor if mode == SOFT else np.empty_like(tensor, dtype=np.uint8)
    for iteration in range(iterations):
        for index, comp in enumerate(code.components):
            source = tensor if iteration == index == 0 else written
            _decode_fibers(comp, source, written, -1 - index, mode, counter)
    decided = written if mode == HARD else (tensor < 0.0).view(np.uint8)  # sign(0) = +1 maps to bit 0
    if mode == HARD:
        bpsk_modulate(written, out=tensor)  # the decisions, as +-1 LLRs
    return decided.reshape(lead + (code.n_t,)), tensor.reshape(lead + code.tensor_shape)
