"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Monte-Carlo criteria run at a fixed operating point (2.5 dB for the
rm(6,1)xrm(2,1) family) calibrated so the soft decoder's single-iteration
BLER sits inside [1e-2, 1e-1]; every run is fully seeded, so the gate is
deterministic.  Expected wall time: about a minute for the trend criteria.
"""

import subprocess
import sys
from functools import lru_cache

import numpy as np

from oracles import (exhaustive_info_llrs, exhaustive_scores, min_nonzero_weight, product_rows_generator,
                     sylvester)
from rmproduct import rm_core, sim
from rmproduct.fht import fht, fht_ml_decode_batch
from rmproduct.ops import OpCounter
from rmproduct.product import (
    product_code_from_descriptor,
    product_decode_batch,
    product_encode_batch,
)
from rmproduct.soft_fht import info_bit_llrs_batch, soft_fht_decode_batch

SEED = 20260809
TREND_EBNO = 2.5
TREND_CODE = "rm(6,1)xrm(2,1)"
MENU_CODES = (
    "rm(6,1)xrm(2,1)",
    "rm(5,1)xrm(3,1)",
    "rm(4,1)xrm(4,1)",
    "rm(3,1)xrm(2,1)",
    "rm(4,1)xrm(2,1)",
    "rm(11,1)xrm(3,2):bfmap",
    "rm(10,1)xrm(2,1)",
    "rm(3,1)xrm(3,1)xrm(3,1)",
)


def _report(number, label, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


@lru_cache(maxsize=None)
def _point(descriptor, mode, iterations, ebno_db, min_errors, max_frames):
    return sim.run_point(
        descriptor, mode=mode, iterations=iterations, ebno_db=ebno_db,
        min_block_errors=min_errors, max_frames=max_frames, seed=SEED,
    )


def _separated(better, worse):
    """True when `better` beats `worse` with non-overlapping 95% CIs."""
    return better.bler_ci_hi < worse.bler_ci_lo


def _overlap(a, b):
    return a.bler_ci_lo <= b.bler_ci_hi and b.bler_ci_lo <= a.bler_ci_hi


def test_criterion_1_hard_ml_oracle_equivalence():
    mismatches = 0
    checked = 0
    for m in (2, 3, 4):
        code = rm_core.build_rm_code(m, 1)
        rng = np.random.default_rng(SEED + m)
        block = rng.normal(size=(1000, code.n)) * 2.0
        decoded = fht_ml_decode_batch(block, code)  # codeword bits
        scores, words = exhaustive_scores(block, code)
        top_two = -np.sort(-scores, axis=1)[:, :2]
        unique = top_two[:, 0] > top_two[:, 1]
        expected = words[np.argmax(scores, axis=1)]
        mismatches += int((decoded[unique] != expected[unique]).any(axis=1).sum())
        checked += int(unique.sum())
    _report(1, "hard-ML oracle equivalence", mismatches == 0 and checked >= 2900,
            f"{checked} unique-max frames, {mismatches} mismatches")


def test_criterion_2_soft_oracle_equivalence():
    worst = 0.0
    for m in (2, 3, 4, 5):
        code = rm_core.build_rm_code(m, 1)
        rng = np.random.default_rng(SEED + 10 + m)
        block = rng.normal(size=(1000, code.n)) * 2.0
        fast = info_bit_llrs_batch(fht(block), code)
        slow = exhaustive_info_llrs(block, code)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    _report(2, "soft info-bit LLR oracle equivalence", worst < 1e-9,
            f"max |diff| = {worst:.2e}")


def test_criterion_3_sign_accordance():
    disagreements = 0
    checked = 0
    for m in range(2, 7):
        code = rm_core.build_rm_code(m, 1)
        rng = np.random.default_rng(SEED + 20 + m)
        block = rng.normal(size=(10_000, code.n)) * 1.5
        soft_hard = (soft_fht_decode_batch(block, code) < 0).astype(np.uint8)
        ml_hard = fht_ml_decode_batch(block, code)  # codeword bits
        scores, _ = exhaustive_scores(block, code)
        top_two = -np.sort(-scores, axis=1)[:, :2]
        unique = top_two[:, 0] > top_two[:, 1]
        disagreements += int((soft_hard[unique] != ml_hard[unique]).any(axis=1).sum())
        checked += int(unique.sum())
    _report(3, "soft/hard sign accordance", disagreements == 0 and checked >= 49_000,
            f"{checked} tie-free frames, {disagreements} disagreements")


def test_criterion_4_structural_checks():
    ok = True
    notes = []

    # +-1 codeword stacks of RM(m,1) split into the Hadamard matrix and its negation
    for m in range(1, 5):
        code = rm_core.build_rm_code(m, 1)
        words = rm_core.encode_batch(code, rm_core.binary_words(code.k))
        pm1 = 1.0 - 2.0 * words.astype(np.float64)
        h = sylvester(m)
        n = 1 << m
        if not (np.array_equal(pm1[:n], h) and np.array_equal(pm1[n:], -h)):
            ok = False
            notes.append(f"alignment m={m}")

    # multiplied parameters and the enclosing-dimension inequality
    for descriptor in MENU_CODES:
        code = product_code_from_descriptor(descriptor)
        parts = [c.code for c in code.components]
        good = (
            code.n_t == np.prod([c.n for c in parts]) == 2**code.m_t
            and code.k_t == np.prod([c.k for c in parts])
            and code.d_t == np.prod([c.min_distance for c in parts]) == 2 ** (code.m_t - code.r_t)
            and code.k_t <= rm_core.rm_dimension(code.m_t, code.r_t)
        )
        if not good:
            ok = False
            notes.append(f"parameters {descriptor}")

    small = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    small_words = product_encode_batch(small, rm_core.binary_words(small.k_t))
    if min_nonzero_weight(small_words) != 8 or small.d_t != 8:
        ok = False
        notes.append("min distance")

    from rmproduct import gf2

    enclosing = product_rows_generator(5, 2)
    if not gf2.row_space_equal(np.vstack([enclosing, small_words]), enclosing):
        ok = False
        notes.append("subcode membership")

    _report(4, "structural checks", ok, "; ".join(notes) if notes else "all hold")


def test_criterion_5_complexity_counters():
    ok = True
    notes = []

    for m in range(4, 13):
        n = 1 << m
        counter = OpCounter()
        fht(np.zeros(n), counter)
        if counter.add_sub != n * m or counter.depth != m:
            ok = False
            notes.append(f"fht n={n}")

    iterations = 3
    op_ratios = []
    depth_ratios = []
    for m1 in range(4, 11):
        code = product_code_from_descriptor(f"rm({m1},1)xrm(2,1)")
        counter = OpCounter()
        product_decode_batch(code, np.zeros((1, code.n_t)), 1.0, iterations, "soft", counter)
        log_n = code.m_t
        op_ratios.append(counter.total() / (iterations * code.n_t * log_n))
        depth_ratios.append(counter.depth / (iterations * log_n))
    ops_c = op_ratios[0]
    depth_c = depth_ratios[0]
    if not all(0.75 * ops_c <= r <= 1.25 * ops_c for r in op_ratios):
        ok = False
        notes.append(f"op ratios {['%.3f' % r for r in op_ratios]}")
    if not all(0.75 * depth_c <= r <= 1.25 * depth_c for r in depth_ratios):
        ok = False
        notes.append(f"depth ratios {['%.3f' % r for r in depth_ratios]}")

    detail = notes[0] if notes else (
        f"ops/(I*n*log n) in [{min(op_ratios):.3f}, {max(op_ratios):.3f}], "
        f"depth/(I*log n) in [{min(depth_ratios):.3f}, {max(depth_ratios):.3f}]"
    )
    _report(5, "complexity counters", ok, detail)


def test_criterion_6_iteration_effect():
    one = _point(TREND_CODE, "soft", 1, TREND_EBNO, 5000, 200_000)
    two = _point(TREND_CODE, "soft", 2, TREND_EBNO, 5000, 250_000)
    three = _point(TREND_CODE, "soft", 3, TREND_EBNO, 1000, 100_000)
    four = _point(TREND_CODE, "soft", 4, TREND_EBNO, 1000, 100_000)

    in_band = 1e-2 <= one.bler <= 1e-1 and one.block_errors >= 200
    second_better = two.bler < one.bler and _separated(two, one)
    late_flat = _overlap(three, four)
    ok = in_band and second_better and late_flat
    _report(6, "iteration effect", ok,
            f"BLER I1={one.bler:.4f} I2={two.bler:.4f} I3={three.bler:.4f} I4={four.bler:.4f}")


def test_criterion_7_soft_beats_hard():
    soft = _point(TREND_CODE, "soft", 3, TREND_EBNO, 1000, 100_000)
    hard = _point(TREND_CODE, "hard", 3, TREND_EBNO, 1000, 100_000)
    ok = soft.bler < hard.bler and _separated(soft, hard)
    _report(7, "soft outperforms hard", ok,
            f"soft={soft.bler:.4f} hard={hard.bler:.4f}")


def test_criterion_8_component_ordering():
    strong = _point("rm(6,1)xrm(2,1)", "soft", 3, TREND_EBNO, 1000, 100_000)
    middle = _point("rm(5,1)xrm(3,1)", "soft", 3, TREND_EBNO, 1000, 100_000)
    weak = _point("rm(4,1)xrm(4,1)", "soft", 3, TREND_EBNO, 1000, 100_000)
    enough = all(p.block_errors >= 200 for p in (strong, middle, weak))
    ordered = strong.bler < middle.bler < weak.bler
    split = _separated(strong, middle) and _separated(middle, weak)
    _report(8, "component ordering", enough and ordered and split,
            f"m1-m2=4: {strong.bler:.4f} < 2: {middle.bler:.4f} < 0: {weak.bler:.4f}")


def test_criterion_9_reproducibility(tmp_path):
    base = [
        sys.executable, "-m", "rmproduct.cli",
        "--code", "rm(4,1)xrm(2,1)", "--decoder", "soft", "--iterations", "2",
        "--ebno", "2:3:0.5", "--min-errors", "40", "--max-frames", "4000",
        "--seed", "11",
    ]
    outputs = {}
    for fmt in ("csv", "json"):
        for workers in ("1", "2"):
            path = tmp_path / f"sweep_{fmt}_{workers}.{fmt}"
            result = subprocess.run(
                base + ["--workers", workers, "--format", fmt, "--out", str(path)],
                capture_output=True, text=True, timeout=600,
            )
            assert result.returncode == 0, result.stderr
            outputs[(fmt, workers)] = path.read_bytes()
    ok = (outputs[("csv", "1")] == outputs[("csv", "2")]
          and outputs[("json", "1")] == outputs[("json", "2")])
    _report(9, "byte-identical output across worker counts", ok,
            f"csv {len(outputs[('csv', '1')])} bytes, json {len(outputs[('json', '1')])} bytes")
