"""Seeded sweeps still print the bytes kept in tests/golden (see regenerate_golden.py)."""

import numpy as np
import pytest

from regenerate_golden import GOLDEN_DIR, GOLDEN_GRIDS, golden_output


@pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
def test_seeded_sweep_matches_its_golden_bytes(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_bytes()
    got = golden_output(GOLDEN_GRIDS[name]).encode("utf-8")
    assert got == expected, (
        f"{name}: seeded output differs from tests/golden/{name}.json under numpy "
        f"{np.__version__}; if a numpy release changed a Generator stream, bump sim.RNG_SCHEME, "
        f"and if results changed on purpose, bump sim.RESULT_FORMAT; then run "
        f"tests/regenerate_golden.py")
