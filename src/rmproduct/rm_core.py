"""Reed-Muller codes and their subcodes over GF(2).

An RM(m, r) code has blocklength n = 2^m and dimension k = sum_{i<=r} C(m, i).
Variable b (0 <= b < m) is bit m-1-b of a position x, most significant first,
and point(S) = sum_{b in S} 2^(m-1-b) is the position whose set variables are
exactly S.  A code is its k information positions point(S), one per set S of
at most r variables, by degree and then lexicographically: bit S carries the
monomial of S, 1 at the positions whose bits include point(S), so the empty
set's all-one word comes first and the m first-order words spell 0..n-1 in
binary.  This canonical order makes the codeword/Hadamard-column
correspondence of the FHT decoders deterministic.  A subcode of RM(m, r),
such as a product code, is a subset of these positions.  Encoding is the
m-stage subset-XOR butterfly; recovery runs the same stages, their own
inverse, and reads the information positions.  Construction checks that the
encoder spans the rows of the Kronecker power of [[1,0],[1,1]] of weight
>= 2^(m-r).
"""

import math
import re
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import gf2

MAX_M = 16


class SizeLimitError(ValueError):
    """Requested construction exceeds the desk-scale size caps."""


def _check_order(m: int, r: int) -> None:
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if not 0 <= r <= m:
        raise ValueError(f"order must satisfy 0 <= r <= m, got r={r} with m={m}")


def check_length(m: int) -> None:
    """Refuse a code of length 2^m above the cap 2^MAX_M."""
    if m > MAX_M:
        raise SizeLimitError(f"m={m} exceeds cap {MAX_M}")


def rm_dimension(m: int, r: int) -> int:
    """Dimension of RM(m, r): sum of C(m, i) for i = 0..r."""
    _check_order(m, r)
    return sum(math.comb(m, i) for i in range(r + 1))


@dataclass(frozen=True)
class RmCode:
    """An RM(m, r) code, or a subcode of it, given by its information positions."""

    m: int
    r: int
    n: int
    k: int
    # point(S) of each bit, canonical order for RM(m, r) itself; two subcodes of
    # one RM(m, r) with equal k can differ here, so they compare by it
    positions: tuple[int, ...]

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


def _weight_selected_rows(m: int, r: int) -> np.ndarray:
    """Rows of the Kronecker power with weight >= 2^(m-r), in matrix row order: row i
    is 1 on the bit-submasks of i, weight 2^popcount(i), and only these are built."""
    x = np.arange(1 << m)
    return np.array([(x | i) == i for i in range(1 << m) if i.bit_count() >= m - r], dtype=np.uint8)


def build_rm_code(m: int, r: int) -> RmCode:
    """Construct RM(m, r) with its information positions point(S) in canonical order."""
    _check_order(m, r)
    check_length(m)
    positions = tuple(sum(1 << (m - 1 - b) for b in subset)
                      for degree in range(r + 1) for subset in combinations(range(m), degree))
    assert len(positions) == rm_dimension(m, r)
    code = RmCode(m=m, r=r, n=1 << m, k=len(positions), positions=positions)
    rows = encode_batch(code, np.eye(code.k, dtype=np.uint8))
    assert gf2.row_space_equal(rows, _weight_selected_rows(m, r)), f"rm({m},{r}): encoder spans wrong rows"
    return code


def _subset_xor(words, m: int) -> None:
    """The m in-place stages on (2^m, count) uint8 `words`, positions slowest:
    stage b XORs each position x without bit 2^b into x | 2^b, 2^b positions
    of every word at a time, so x ends as the XOR of its submasks' entries.
    Over GF(2) the transform is its own inverse."""
    count = words.shape[1]
    for b in range(m):
        pairs = words.reshape(words.shape[0] >> (b + 1), 2, (1 << b) * count)
        pairs[:, 1] ^= pairs[:, 0]


def encode_batch(code: RmCode, infos) -> np.ndarray:
    """Encode (..., k) information words to (..., n) codewords over GF(2).

    The low bit of bit S goes to point(S) of a zeroed array with the positions
    slowest, and the subset-XOR stages leave each position x the XOR of the
    bits placed at its submasks.  Returns a view of that array."""
    infos = np.asarray(infos, dtype=np.uint8)
    if infos.ndim == 0 or infos.shape[-1] != code.k:
        raise ValueError(f"information words have shape {infos.shape}, expected (..., {code.k})")
    lead, count = infos.shape[:-1], math.prod(infos.shape[:-1])
    words = np.zeros((code.n, count), dtype=np.uint8)
    words[list(code.positions)] = np.moveaxis(infos, -1, 0).reshape(code.k, count) & 1
    _subset_xor(words, code.m)
    return np.moveaxis(words.reshape((code.n,) + lead), 0, -1)


def recover_batch(code: RmCode, words) -> np.ndarray:
    """The (..., k) information words of (..., n) words over GF(2), read through
    the information positions: the inverse of `encode_batch` on codewords.

    The low bits are copied with the positions slowest and the other axes in
    the input's memory order, the subset-XOR stages undo the encoder's, and
    bit S is read at point(S); a word's bits elsewhere are never read.  Linear,
    so it maps a codeword error pattern to the information-bit error pattern.
    Returns a view of that gather, positions slowest."""
    words = np.asarray(words, dtype=np.uint8)
    if words.ndim == 0 or words.shape[-1] != code.n:
        raise ValueError(f"words have shape {words.shape}, expected (..., {code.n})")
    moved = np.moveaxis(words, -1, 0)
    order = [0] + sorted(range(1, moved.ndim), key=lambda axis: -moved.strides[axis])
    bits = np.bitwise_and(moved.transpose(order), 1, order="C")
    _subset_xor(bits.reshape(code.n, -1), code.m)
    return np.moveaxis(bits[list(code.positions)].transpose(np.argsort(order)), 0, -1)


def binary_words(k: int) -> np.ndarray:
    """(2^k, k) uint8 matrix counting 0..2^k-1 in binary, MSB first."""
    j = np.arange(1 << k)
    shifts = np.arange(k - 1, -1, -1)
    return ((j[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
