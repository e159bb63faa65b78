"""Reed-Muller component codes over GF(2).

An RM(m, r) code has blocklength n = 2^m and dimension k = sum_{i<=r} C(m, i).
Its generator is the set of rows of the m-th Kronecker power of [[1,0],[1,1]]
whose Hamming weight is at least 2^(m-r), stored here in a canonical order:
the all-one row first, then the m weight-n/2 rows whose columns spell the
numbers 0..n-1 in binary (most significant bit in the first of these rows),
then for each degree i >= 2 the element-wise products of the i-element subsets
of those rows, subsets in lexicographic order.  The canonical order is what
makes the codeword/Hadamard-column correspondence used by the FHT decoders
deterministic; construction verifies it spans the same row space as the
weight-selected rows.
"""

import math
import re
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import gf2

MAX_M = 16
MAX_ENUM_DIM = 20


class SizeLimitError(ValueError):
    """Requested construction exceeds the desk-scale size caps."""


def _check_order(m: int, r: int) -> None:
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if not 0 <= r <= m:
        raise ValueError(f"order must satisfy 0 <= r <= m, got r={r} with m={m}")


def rm_dimension(m: int, r: int) -> int:
    """Dimension of RM(m, r): sum of C(m, i) for i = 0..r."""
    _check_order(m, r)
    return sum(math.comb(m, i) for i in range(r + 1))


def build_polarization_matrix(m: int) -> np.ndarray:
    """m-th Kronecker power of [[1,0],[1,1]]: a 2^m x 2^m lower-triangular uint8 matrix."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m > MAX_M:
        raise SizeLimitError(f"m={m} exceeds cap {MAX_M} (needs 2^m x 2^m storage)")
    power = np.array([[1]], dtype=np.uint8)
    base = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for _ in range(m):
        power = np.kron(power, base)
    return power


@dataclass(frozen=True)
class RmCode:
    """An RM(m, r) component code with its canonical generator."""

    m: int
    r: int
    n: int
    k: int
    generator: np.ndarray = field(compare=False)  # (k, n) uint8, canonical row order
    weight_profile: tuple = field(compare=False)  # ((row weight, count), ...) descending

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def min_distance(self) -> int:
        return 1 << (self.m - self.r)

    @property
    def descriptor(self) -> str:
        return f"rm({self.m},{self.r})"

    def __str__(self) -> str:
        return self.descriptor


_RM_DESCRIPTOR = re.compile(r"^\s*rm\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*$", re.IGNORECASE)


def parse_rm_descriptor(text: str) -> tuple[int, int]:
    """Parse a component descriptor 'rm(m,r)' (case-insensitive) into (m, r)."""
    match = _RM_DESCRIPTOR.match(text)
    if match is None:
        raise ValueError(f"invalid code descriptor {text!r}, expected rm(m,r)")
    return int(match.group(1)), int(match.group(2))


def first_order_rows(m: int) -> np.ndarray:
    """The m weight-n/2 canonical rows: column x is the binary word of x, MSB first."""
    return np.ascontiguousarray(binary_words(m).T)


def _weight_selected_rows(m: int, r: int) -> np.ndarray:
    """Rows of the Kronecker power with weight >= 2^(m-r), in matrix row order.

    Row i of the power has support {x : x is a bit-submask of i}, hence weight
    2^popcount(i); only the selected rows are materialized so that first-order
    constructions stay cheap for large m.
    """
    n = 1 << m
    x = np.arange(n)
    keep = [i for i in range(n) if i.bit_count() >= m - r]
    return np.array([(x | i) == i for i in keep], dtype=np.uint8)


def build_rm_code(m: int, r: int) -> RmCode:
    """Construct RM(m, r) with the canonical generator row order."""
    _check_order(m, r)
    if m > MAX_M:
        raise SizeLimitError(f"m={m} exceeds cap {MAX_M}")
    n = 1 << m
    blocks = [np.ones((1, n), dtype=np.uint8)]
    if r >= 1:
        g1 = first_order_rows(m)
        blocks.append(g1)
        for degree in range(2, r + 1):
            rows = [g1[list(subset)].prod(axis=0) for subset in combinations(range(m), degree)]
            blocks.append(np.array(rows, dtype=np.uint8))
    generator = np.concatenate(blocks, axis=0)
    generator.setflags(write=False)  # shared read-only across workers
    k = generator.shape[0]
    assert k == rm_dimension(m, r)
    assert gf2.row_space_equal(generator, _weight_selected_rows(m, r)), (
        f"canonical rm({m},{r}) generator does not span the weight-selected rows"
    )
    weights, counts = np.unique(generator.sum(axis=1), return_counts=True)
    profile = tuple(sorted(zip(weights.tolist(), counts.tolist()), reverse=True))
    return RmCode(m=m, r=r, n=n, k=k, generator=generator, weight_profile=profile)


def encode_batch(code: RmCode, infos) -> np.ndarray:
    """Encode (..., k) information words to (..., n) codewords: u . G over GF(2)."""
    infos = np.asarray(infos, dtype=np.uint8)
    if infos.ndim == 0 or infos.shape[-1] != code.k:
        raise ValueError(f"information words have shape {infos.shape}, expected (..., {code.k})")
    products = infos.astype(np.int32) @ code.generator.astype(np.int32)
    return (products & 1).astype(np.uint8)


def binary_words(k: int) -> np.ndarray:
    """(2^k, k) uint8 matrix counting 0..2^k-1 in binary, MSB first."""
    j = np.arange(1 << k)
    shifts = np.arange(k - 1, -1, -1)
    return ((j[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def enumerate_codewords(code: RmCode) -> np.ndarray:
    """All 2^k codewords; row j encodes the k-bit binary word of j, MSB first."""
    if code.k > MAX_ENUM_DIM:
        raise SizeLimitError(f"k={code.k} exceeds enumeration cap {MAX_ENUM_DIM}")
    return encode_batch(code, binary_words(code.k))


def min_distance_bruteforce(code) -> int:
    """Minimum Hamming weight over all nonzero codewords, by exhaustion.

    Accepts an RmCode or any product code exposing k_t and enumerate_codewords().
    """
    if isinstance(code, RmCode):
        dimension = code.k
        words = None
    else:
        dimension = code.k_t
        words = code.enumerate_codewords
    if dimension > MAX_ENUM_DIM:
        raise SizeLimitError(f"dimension {dimension} exceeds enumeration cap {MAX_ENUM_DIM}")
    codewords = enumerate_codewords(code) if words is None else words()
    weights = codewords.sum(axis=1, dtype=np.int64)
    return int(weights[weights > 0].min())
