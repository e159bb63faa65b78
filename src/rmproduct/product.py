"""Products of RM component codes: parameters, encoding, iterative decoding.

Tensor layout: shape (n_Q, ..., n_2, n_1) with component 1 on the last
(fastest-varying) axis; vectors are the row-major serialization of that
tensor, so in 2D the element (row i2, col i1) sits at index i2*n_1 + i1.
Every component length is a power of two, so a position's m_t = m_1 + ... +
m_Q index bits are its components' index bits laid end to end, component Q
most significant, and the product C1 x ... x CQ is the subcode of
RM(m_t, r_1 + ... + r_Q) whose information positions are the components'
positions laid end to end the same way, in row-major order over the
(k_Q, ..., k_1) information tensor.  Encoding and recovery are that
subcode's own: the information bits scattered to its positions and the
m_t-stage subset-XOR butterfly, O(n_t log n_t); every axis-q fiber of a
codeword is a codeword of component q.  Encoding and decoding work on the
last axis of any (..., k_t) or (..., n_t) array, one frame per leading index.

Decoding sweeps the axes in component order, replacing each fiber's LLRs
with the component decoder's output, and repeats for a configured number of
iterations before the final sign decision.  In hard mode the output is
codeword bits, which every later component call reads and the decoder returns.
`decode_ops` is the modeled work of a decode, summed from the steps in `ops`.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import ops, rm_core, soft_fht
from .fht import fht_ml_decode_batch
from .soft_fht import brute_force_ml_decode_batch, brute_force_soft_map_batch, soft_fht_decode_batch

SOFT_FHT = "soft-fht"
BF_MAP = "bfmap"

SOFT = "soft"
HARD = "hard"

MAX_PRODUCT_N = 1 << 16  # a 256-frame chunk's float64 LLR block stays within 128 MiB


@dataclass(frozen=True)
class Component:
    """One product component: the code and its decoder kind, soft-FHT for
    an order-1 code only."""

    code: rm_core.RmCode
    decoder: str

    def __post_init__(self):
        if self.decoder != BF_MAP and (self.decoder != SOFT_FHT or self.code.r != 1):
            raise ValueError(f"decoder {self.decoder!r} cannot decode {self.code.descriptor}")


class ProductCode:
    """Ordered product C1 x ... x CQ with multiplied parameters, of length n_t <= MAX_PRODUCT_N."""

    def __init__(self, components: list[Component]):
        if not components:
            raise ValueError("a product code needs at least one component")
        self.components = tuple(components)
        codes = [c.code for c in reversed(components)]  # component Q first: the slowest axis
        self.q_count = len(codes)
        self.tensor_shape = tuple(c.n for c in codes)
        n_t = 1 << sum(c.m for c in codes)
        _check_product_length(self.descriptor, n_t)
        positions = (0,)
        for c in codes:
            positions = tuple(x * c.n + p for x in positions for p in c.positions)
        self.subcode = rm_core.RmCode(m=sum(c.m for c in codes), r=sum(c.r for c in codes),
                                      n=n_t, k=len(positions), positions=positions)
        self.n_t, self.k_t, self.m_t, self.r_t = n_t, self.subcode.k, self.subcode.m, self.subcode.r
        self.d_t, self.rate = self.subcode.min_distance, self.subcode.rate

    @property
    def descriptor(self) -> str:
        return _descriptor((c.code.m, c.code.r, c.decoder) for c in self.components)

    def __str__(self) -> str:
        return f"{self.descriptor} [n={self.n_t}, k={self.k_t}, d={self.d_t}]"


def _descriptor(specs) -> str:
    """'rm(m1,r1)x...' of (m, r, decoder) specs, ':bfmap' after each exhaustive one."""
    return "x".join(f"rm({m},{r})" + (":bfmap" if kind == BF_MAP else "") for m, r, kind in specs)


def _check_product_length(name: str, n_t: int) -> None:
    if n_t > MAX_PRODUCT_N:
        raise rm_core.SizeLimitError(f"{name}: a product caps at n_t <= {MAX_PRODUCT_N}, got n_t={n_t}")


def product_code_from_descriptor(text: str) -> ProductCode:
    """Build a product code from 'rm(m1,r1)xrm(m2,r2)...'.

    A component's order picks its decoder: order 1 decodes with the soft-FHT
    decoder, and any other order with the exhaustive soft-MAP decoder, which
    needs component dimension <= 16.  ':bfmap' after an order-1 component
    chooses the exhaustive decoder for it too.  Every part is parsed, and
    every size cap checked, before any code is built.
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
    for m, r, kind in specs:
        rm_core.check_length(m)
        if kind == BF_MAP:
            soft_fht.check_exhaustive_size(f"rm({m},{r})", rm_core.rm_dimension(m, r))
    _check_product_length(_descriptor(specs), 1 << sum(m for m, _, _ in specs))
    return ProductCode([Component(code=rm_core.build_rm_code(m, r), decoder=kind) for m, r, kind in specs])


def product_encode_batch(code: ProductCode, infos) -> np.ndarray:
    """Encode (..., k_t) information words to (..., n_t) codewords, as
    `code.subcode`; the frames sit on the smallest stride."""
    return rm_core.encode_batch(code.subcode, infos)


def product_recover_batch(code: ProductCode, words) -> np.ndarray:
    """The (..., k_t) information words of (..., n_t) words, read through the
    subcode's information positions: the inverse of `product_encode_batch`
    on codewords, and the information-bit error pattern of an error pattern."""
    return rm_core.recover_batch(code.subcode, words)


def _decode_fibers(comp: Component, source, written, axis: int, mode: str) -> None:
    """Run the component decoder along `axis` of the tensor `source`, writing
    its output into the same fibers of `written`, a tensor of the decoder's
    output dtype laid out as `source` (it may be `source`)."""
    if comp.decoder == BF_MAP:
        decoder = brute_force_soft_map_batch if mode == SOFT else brute_force_ml_decode_batch
    else:
        decoder = soft_fht_decode_batch if mode == SOFT else fht_ml_decode_batch
    decoder(np.moveaxis(source, axis, -1), comp.code, out=np.moveaxis(written, axis, -1))


def decode_ops(code: ProductCode, mode: str, iterations: int) -> ops.OpCounter:
    """The modeled work of decoding one frame (see `ops`): each iteration runs
    every component's decoder steps once, on the n_t / n_q fibers of its axis
    side by side."""
    if mode not in (SOFT, HARD) or iterations < 1:
        raise ValueError(f"mode must be 'soft' or 'hard' and iterations >= 1, got {mode!r}, {iterations}")
    counter = ops.OpCounter()
    for comp in code.components:
        c = comp.code
        if comp.decoder == BF_MAP:
            steps = [ops.parity_check_step(c) if mode == SOFT and soft_fht.single_parity_check(c)
                     else ops.exhaustive_search_step(c, mode == SOFT)]
        elif mode == SOFT:
            steps = [ops.fht_step(c), ops.info_bit_step(c), ops.min_sum_step(c)]
        else:
            steps = [ops.fht_step(c), ops.spectrum_search_step(c)]
        for step in steps:
            counter.add(step, code.n_t // c.n, iterations)
    return counter


def product_decode_batch(code: ProductCode, received, sigma2: float,
                         iterations: int = 3, mode: str = SOFT, counter=None):
    """Decode (..., n_t) received samples.

    Returns (hard codewords (..., n_t) uint8, the tensor the decoder worked
    in, shape (...) + tensor_shape, frames on the smallest stride), both
    owned by the caller: the final float64 LLRs in soft mode, and in hard
    mode the uint8 codeword bits, the decisions' own memory.  Fibers along
    one axis are decoded as a single batch, in place on a view of the tensor;
    axes and iterations are sequential, and in hard mode every call after the
    first decodes bits.  LLRs that leave the float64 range raise ValueError.
    A `counter` gets the decode's `decode_ops` for each frame.
    """
    if not (0.0 < sigma2 < np.inf and 2.0 / float(sigma2) < np.inf):
        raise ValueError(f"noise variance must be positive with a finite LLR scale 2/sigma2, got {sigma2}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if mode not in (SOFT, HARD):
        raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
    received = np.asarray(received, dtype=np.float64)
    if received.ndim == 0 or received.shape[-1] != code.n_t:
        raise ValueError(f"received samples have shape {received.shape}, expected (..., {code.n_t})")
    lead = received.shape[:-1]
    try:
        with np.errstate(over="raise", invalid="raise"):
            # channel LLRs 2y/sigma2, frames fastest: every axis' kernel runs long inner loops
            llrs = np.multiply(2.0 / sigma2, received.reshape(-1, code.n_t).T, order="C")
            tensor = np.moveaxis(llrs.reshape(code.tensor_shape + (-1,)), -1, 0)
            written = tensor if mode == SOFT else np.empty_like(tensor, dtype=np.uint8)
            for iteration in range(iterations):
                for index, comp in enumerate(code.components):
                    source = tensor if iteration == index == 0 else written
                    _decode_fibers(comp, source, written, -1 - index, mode)
    except FloatingPointError as exc:
        raise ValueError(f"the LLRs left the float64 range in {iterations} iterations ({exc})") from None
    if counter is not None:
        counter.add(decode_ops(code, mode, iterations), received.size // code.n_t)
    decided = written if mode == HARD else (tensor < 0.0).view(np.uint8)  # sign(0) = +1 maps to bit 0
    return decided.reshape(lead + (code.n_t,)), written.reshape(lead + code.tensor_shape)
