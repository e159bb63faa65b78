"""GF(2) row-space check on integer-packed rows."""

import numpy as np


def pack_rows(matrix) -> list[int]:
    """Pack each 0/1 row into a Python int bitset (column j -> bit j), C-ordered for packbits' speed."""
    rows = np.bitwise_and(np.atleast_2d(np.asarray(matrix, dtype=np.uint8)), 1, order="C")
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _reduce(value: int, basis: dict[int, int]) -> int:
    """Reduce a bitset against a basis keyed by leading bit position."""
    while value:
        lead = value.bit_length() - 1
        if lead not in basis:
            return value
        value ^= basis[lead]
    return 0


def _build_basis(values) -> dict[int, int]:
    basis: dict[int, int] = {}
    for value in values:
        reduced = _reduce(value, basis)
        if reduced:
            basis[reduced.bit_length() - 1] = reduced
    return basis


def row_space_equal(a, b) -> bool:
    """True when the two matrices span the same GF(2) row space."""
    basis, rows = _build_basis(pack_rows(a)), pack_rows(b)
    return len(_build_basis(rows)) == len(basis) and all(_reduce(v, basis) == 0 for v in rows)
