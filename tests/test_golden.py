"""Seeded sweeps still print the bytes kept in tests/golden, and their soft chunks
still decode to the LLRs whose digests are kept there (see regenerate_golden.py)."""

import json

import numpy as np
import pytest

from regenerate_golden import (GOLDEN_DIR, GOLDEN_GRIDS, LLR_DIGEST_GRIDS, LLR_DIGESTS,
                               chunk_llr_digest, golden_output)


@pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
def test_seeded_sweep_matches_its_golden_bytes(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_bytes()
    got = golden_output(GOLDEN_GRIDS[name]).encode("utf-8")
    assert got == expected, (
        f"{name}: seeded output differs from tests/golden/{name}.json under numpy "
        f"{np.__version__}; if a numpy release changed a Generator stream, bump sim.RNG_SCHEME, "
        f"and if results changed on purpose, bump sim.RESULT_FORMAT; then run "
        f"tests/regenerate_golden.py")


@pytest.mark.parametrize("name", LLR_DIGEST_GRIDS)
def test_soft_chunk_llrs_match_their_golden_digest(name):
    expected = json.loads(LLR_DIGESTS.read_text(encoding="utf-8"))[name]
    assert chunk_llr_digest(GOLDEN_GRIDS[name]) == expected, (
        f"{name}: chunk 0's final LLRs differ from their digest in {LLR_DIGESTS.name}; "
        f"if soft values changed on purpose, bump sim.RESULT_FORMAT and run "
        f"tests/regenerate_golden.py")
