import csv
import io
import json
import math
import os
import re
from concurrent.futures import Future
from statistics import NormalDist

import numpy as np
import pytest

from rmproduct import cli, fht, product, rm_core, sim, soft_fht


def quick_point(**overrides):
    args = dict(
        mode="soft", iterations=2, ebno_db=1.0,
        min_block_errors=25, max_frames=3000, seed=77,
    )
    args.update(overrides)
    return sim.run_point("rm(3,1)xrm(2,1)", **args)


def test_wilson_interval_textbook_value():
    lo, hi = sim.wilson_interval(5, 100)
    assert lo == pytest.approx(0.0215, abs=2e-3)
    assert hi == pytest.approx(0.1118, abs=2e-3)


def test_wilson_interval_edges():
    lo, hi = sim.wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.12
    lo, hi = sim.wilson_interval(50, 50)
    assert 0.88 < lo < 1.0 and hi == 1.0
    assert sim.wilson_interval(0, 0) == (0.0, 1.0)


def test_noiseless_limit_has_zero_bler():
    point = sim.run_point("rm(3,1)xrm(2,1)", mode="soft", iterations=1, ebno_db=40.0,
                          min_block_errors=1, max_frames=1000, seed=5)
    assert point.frames == 1000
    assert point.block_errors == 0
    assert point.bler == 0.0
    assert point.bit_errors == 0


def test_point_tally_invariants():
    point = quick_point()
    code_k = 12  # rm(3,1)xrm(2,1): 4 * 3
    assert 0 < point.block_errors <= point.frames <= 3000
    assert point.bler == point.block_errors / point.frames
    assert point.ber == point.bit_errors / (point.frames * code_k)
    assert point.bler_ci_lo <= point.bler <= point.bler_ci_hi


def test_stopping_rule_hits_error_target_exactly():
    point = quick_point()
    assert point.block_errors == 25  # stops at the frame of the 25th error


def test_stopping_rule_respects_frame_cap():
    point = quick_point(ebno_db=8.0, min_block_errors=10_000, max_frames=600)
    assert point.frames == 600
    assert point.block_errors < 10_000


def test_same_seed_reproduces_point():
    assert quick_point() == quick_point()


def test_different_seeds_differ():
    assert quick_point(seed=77) != quick_point(seed=78)


# Seeded sweeps whose output bytes must not depend on --workers: each is run
# in process and pooled.  A new decoder path adds a row here.
WORKER_SWEEPS = [
    "--code rm(3,1)xrm(2,1) --iterations 2 --ebno 1 --min-errors 25 --max-frames 3000 --seed 77",
    # a single-parity-check component takes the closed-form soft-MAP: four full chunks
    "--code rm(4,3)xrm(2,1) --ebno 1 --min-errors 5000 --max-frames 1024 --seed 1",
    # CLI smoke runs: soft-FHT, bit-flip and exhaustive axes, one point and a grid
    *(f"--code {code} --ebno {grid} --min-errors 5 --max-frames 512 --seed 1"
      for code in ("rm(3,1)xrm(2,1)", "rm(3,2):bfmapxrm(2,1)", "rm(4,1)xrm(3,2):bfmap")
      for grid in ("1", "-1:0:1")),
    # hard mode: both hard decoders build their tables of codeword bits inside the pool
    # workers too, rm(4,1)'s table in several blocks, and rm(5,1), too large for a
    # table, runs its kernel on the bits' +-1 words
    *(f"--code {code} --decoder hard --ebno -1:0:1 --min-errors 5 --max-frames 512 --seed 1"
      for code in ("rm(3,1)xrm(2,1)", "rm(3,2):bfmapxrm(2,1)", "rm(4,1)xrm(4,1)", "rm(5,1)xrm(2,1)")),
    # hard ML keeps each fiber's first spectrum peak by one key rule at every n: here
    # the first axis has the shortest fiber, n = 2, the smallest key range (both later
    # axes are served from tables)
    "--code rm(1,1)xrm(2,1)xrm(4,1) --decoder hard --ebno 2:4:1 --min-errors 20 --max-frames 1024 --seed 1",
    # its keys 2(n - 1 - j) + [S_j < 0] take uint16 from n = 256, and the peak index
    # takes uint16 from n = 512
    *(f"--code {code} --decoder hard --ebno 0:2:1 --min-errors 20 --max-frames 1024 --seed 1"
      for code in ("rm(8,1)xrm(1,1)", "rm(9,1)xrm(1,1)")),
    # hard tables index their words in the least unsigned type: rm(3,3)'s 2^8 words in
    # uint8 and rm(4,0)'s 2^16 in uint16, the latter built in 8 blocks
    "--code rm(4,0)xrm(3,3) --decoder hard --ebno 0:2:1 --min-errors 20 --max-frames 1024 --seed 1",
    # every hard call after the first is fed bits, and an axis too large for a table,
    # rm(6,1) or rm(10,1), runs the FHT-ML kernel on their +-1 words
    *(f"--code {code} --decoder hard --ebno 0:2:1 --min-errors 20 --max-frames {frames} --seed 1"
      for code, frames in (("rm(6,1)xrm(2,1)", 1024), ("rm(10,1)xrm(2,1)", 512))),
    # the second axis's FHT blocks have pre = 1 and m = 7, past the in-place plan's
    # bound (fht._MAX_STRAIGHT_BITS), so they take the rotating copies
    *(f"--code rm(2,1)xrm(7,1) --decoder {decoder} "
      "--ebno 0:2:1 --min-errors 20 --max-frames 1024 --seed 1" for decoder in ("soft", "hard")),
    # components whose dual code is not trivial take the codeword-major exhaustive search, soft and hard
    *(f"--code {code} --decoder {decoder} --ebno 1:3:1 --min-errors 50 --max-frames 1024 --seed 1"
      for code in ("rm(4,2)xrm(2,1)", "rm(3,1):bfmapxrm(2,1)") for decoder in ("soft", "hard")),
    # a 3-axis product is decoded in place through middle-axis views, in one workspace per process
    *(f"--code rm(3,1)xrm(3,1)xrm(3,1) --decoder {decoder} "
      "--ebno 3:5:1 --min-errors 5 --max-frames 512 --seed 1" for decoder in ("soft", "hard")),
    # a pooled sweep runs the next point's chunks while a point drains: the benchmark's
    # own sweep, and a frame-capped point before one that stops in its first chunk
    "--code rm(3,1)xrm(3,1)xrm(3,1) --decoder hard --ebno 5:6:0.5 --min-errors 200 --seed 1",
    "--code rm(3,1)xrm(2,1) --ebno 8,-2 --min-errors 3 --max-frames 600 --seed 1",
    # soft-FHT chunks of few frames: the bfmap benchmark's own 8-frame chunk, and the
    # headline code's 256 + 44 frames, whose last chunk is short
    "--code rm(11,1)xrm(3,2):bfmap --ebno 0.5 --min-errors 5 --max-frames 8 --seed 1",
    "--code rm(6,1)xrm(2,1) --ebno 2 --min-errors 1000 --max-frames 300 --seed 1",
    # a product with an order-0 and a full-order component is one RM(7,4) subcode
    *(f"--code rm(2,0)xrm(3,3)xrm(2,1) --decoder {decoder} "
      "--ebno 2:6:2 --min-errors 20 --max-frames 1024 --seed 1" for decoder in ("soft", "hard")),
]


@pytest.mark.parametrize("sweep", WORKER_SWEEPS)
def test_worker_count_does_not_change_results(sweep, tmp_path):
    outputs = []
    for workers in ("1", "2"):
        # the pool's workers fork from this process: let them build their own tables
        # and codes, as under a fresh `python -m rmproduct.cli`
        for cached in (fht._hard_table, soft_fht._codebook, sim._cached_code):
            cached.cache_clear()
        path = tmp_path / f"workers-{workers}.csv"
        assert cli.main(sweep.split() + ["--workers", workers, "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    # bit errors count information bits, so no row's ber exceeds its bler
    rows = list(csv.DictReader(io.StringIO(outputs[0].decode())))
    assert rows and all(float(row["ber"]) <= float(row["bler"]) for row in rows)


def test_snr_matches_rate_and_ebno():
    point = quick_point()
    # Eb/N0 (dB) = SNR (dB) - 10 log10(rate)
    assert point.snr_db == pytest.approx(point.ebno_db + 10 * np.log10(12 / 32), abs=1e-9)


@pytest.mark.parametrize("descriptor, mode, ebno_db, decisions", [
    # repetition products: max-log passes each fiber's sum on every axis, so the
    # soft decision is the sign of the frame's total LLR, which is ML: one decision
    ("rm(4,0)", "soft", 1.0, 1),
    ("rm(3,0)xrm(2,0)", "soft", 0.0, 1),
    # full spaces at rate 1: each of the n_t bits is decided by its own sign
    ("rm(2,2)", "soft", 3.0, 4),
    ("rm(2,2)", "hard", 3.0, 4),
    ("rm(1,1)xrm(1,1)xrm(1,1)", "soft", 3.0, 8),
])
def test_bler_matches_its_closed_form_where_the_decoder_is_ml(descriptor, mode, ebno_db, decisions):
    # BLER = 1 - (1 - p)^decisions, with p = Q(sqrt(2 Eb/N0)) the uncoded BPSK
    # error rate: ties the BLER column to theory, so a sweep whose chunks see a
    # noise variance other than the one it reports fails; seed and target fixed in advance
    point = sim.run_point(descriptor, mode=mode, iterations=3, ebno_db=ebno_db,
                          min_block_errors=2000, max_frames=10_000_000, seed=1)
    p = 0.5 * math.erfc(math.sqrt(10.0 ** (ebno_db / 10.0)))
    z = NormalDist().inv_cdf(0.9995)  # two-sided 99.9% Wilson score interval
    phat, trials = point.bler, point.frames
    center = (phat + z * z / (2 * trials)) / (1 + z * z / trials)
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / (1 + z * z / trials)
    assert center - half <= 1.0 - (1.0 - p) ** decisions <= center + half, (trials, phat)


def test_hard_mode_counts_fewer_operations():
    soft = quick_point(mode="soft")
    hard = quick_point(mode="hard")
    assert hard.ops_per_decode <= soft.ops_per_decode


def test_operation_count_is_measured_once_per_setting(monkeypatch):
    # the count is the cost model's: the sweep decodes its chunks and no frame to count
    counters = []
    decode = product.product_decode_batch

    def spy(code, received, sigma2, iterations=3, mode="soft", counter=None):
        counters.append(counter)
        return decode(code, received, sigma2, iterations, mode, counter)

    monkeypatch.setattr(product, "product_decode_batch", spy)
    code = product.product_code_from_descriptor("rm(3,1)xrm(2,1)")
    for mode in ("soft", "hard"):
        for ebno_db in (1.0, 3.0):
            point = quick_point(max_frames=8, mode=mode, ebno_db=ebno_db)
            assert point.ops_per_decode == product.decode_ops(code, mode, 2).total()
    assert len(counters) == 4 and all(counter is None for counter in counters)


def test_bler_monotone_in_ebno_up_to_ci_overlap():
    config = sim.SimConfig(
        code="rm(4,1)xrm(2,1)", decoder="soft", iterations=2,
        ebno_dbs=(0.0, 1.0, 2.0, 3.0), min_block_errors=50,
        max_frames=20_000, seed=9,
    )
    points = sim.run_sweep(config)
    for lower, higher in zip(points, points[1:]):
        assert higher.bler <= lower.bler or higher.bler_ci_lo <= lower.bler_ci_hi


def test_csv_format():
    points = [quick_point()]
    stream = io.StringIO()
    sim.emit_csv(points, stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == ("ebno_db,snr_db,frames,bit_errors,block_errors,"
                        "ber,bler,bler_ci_lo,bler_ci_hi,ops_per_decode")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 10
    assert float(fields[0]) == 1.0
    assert int(fields[2]) == points[0].frames


def test_csv_empty_grid_has_header_only():
    stream = io.StringIO()
    sim.emit_csv([], stream)
    assert stream.getvalue() == ("ebno_db,snr_db,frames,bit_errors,block_errors,"
                                 "ber,bler,bler_ci_lo,bler_ci_hi,ops_per_decode\n")


def test_json_format_carries_config():
    config = sim.SimConfig(code="rm(3,1)xrm(2,1)", ebno_dbs=(1.0,), min_block_errors=25,
                           max_frames=3000, seed=77, iterations=2)
    points = sim.run_sweep(config)
    stream = io.StringIO()
    sim.emit_json(points, config, stream)
    payload = json.loads(stream.getvalue())
    assert payload["config"]["code"] == "rm(3,1)xrm(2,1)"
    assert payload["config"]["seed"] == 77
    assert len(payload["points"]) == 1
    assert set(payload["points"][0]) == set(sim.CSV_COLUMNS)


def test_config_validation(tmp_path):
    grid = (1.0,)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, decoder="fuzzy")
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, iterations=0)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, min_block_errors=0)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, max_frames=0)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, workers=0)
    with pytest.raises(ValueError, match="seed"):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, seed=-1)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, out_format="xml")
    with pytest.raises(ValueError, match="output path"):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, out_path=str(tmp_path / "no" / "out.csv"))
    with pytest.raises(ValueError, match="garbage"):
        sim.SimConfig(code="garbage", ebno_dbs=grid)
    with pytest.raises(ValueError, match="Eb/N0"):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=())
    # finite, but their noise variance or LLR scale is not: every grid point is converted
    for ebno_db in (1e308, -4000.0):
        with pytest.raises(ValueError, match=re.escape(f"Eb/N0 of {ebno_db} dB")):
            sim.SimConfig(code="rm(2,1)", ebno_dbs=(1.0, ebno_db))
    with pytest.raises(TypeError, match="ebno_dbs"):
        sim.SimConfig(code="rm(2,1)")


def test_a_product_longer_than_the_cap_is_rejected_when_the_config_builds_it():
    sim.SimConfig(code="rm(8,1)xrm(8,1)", ebno_dbs=(0.0,))  # n_t = 2^16, at the cap
    with pytest.raises(rm_core.SizeLimitError, match=r"rm\(14,1\)xrm\(14,1\).*n_t=268435456"):
        sim.SimConfig(code="rm(14,1)xrm(14,1)", ebno_dbs=(0.0,))  # 2 GiB of LLRs per frame


def test_run_point_accepts_prebuilt_code():
    from rmproduct.product import product_code_from_descriptor

    code = product_code_from_descriptor("rm(3,1)xrm(2,1)")
    direct = sim.run_point(code, mode="soft", iterations=2, ebno_db=1.0,
                           min_block_errors=25, max_frames=3000, seed=77)
    assert direct == quick_point()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_ebno_is_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        sim.SimConfig(code="rm(2,1)", ebno_dbs=(1.0, bad))
    with pytest.raises(ValueError, match="finite"):
        quick_point(ebno_db=bad)


def test_json_config_records_result_format():
    config = sim.SimConfig(code="rm(2,1)xrm(1,1)", ebno_dbs=(8.0,), min_block_errors=1,
                           max_frames=10, seed=1, iterations=1)
    stream = io.StringIO()
    sim.emit_json(sim.run_sweep(config), config, stream)
    described = json.loads(stream.getvalue())["config"]
    assert described["result_format"] == sim.RESULT_FORMAT == 5
    assert described["rng"] == sim.RNG_SCHEME == 2


# A change to any of these counts changes result values, so it must also bump
# RESULT_FORMAT, which is pinned beside them.
@pytest.mark.parametrize("descriptor, soft, hard", [
    ("rm(6,1)xrm(2,1)", 17364, 7476),
    ("rm(4,1)xrm(4,1)", 17760, 7584),
    ("rm(10,1)xrm(2,1)", 377700, 168948),
    ("rm(3,1)xrm(3,1)xrm(3,1)", 42624, 17856),
    ("rm(11,1)xrm(3,2):bfmap", 1597104, 6875112),
])
def test_ops_per_decode_of_the_benchmark_matrix(descriptor, soft, hard):
    assert sim.RESULT_FORMAT == 5
    code = product.product_code_from_descriptor(descriptor)
    assert product.decode_ops(code, "soft", 3).total() == soft
    assert product.decode_ops(code, "hard", 3).total() == hard


@pytest.mark.parametrize("descriptor, mode, ebno_db", [
    ("rm(3,1)xrm(2,1)", "soft", 1.0), ("rm(3,1)xrm(2,1)", "hard", 1.0), ("rm(6,1)xrm(2,1)", "soft", 2.5),
    ("rm(6,1)xrm(2,1)", "hard", 2.5), ("rm(3,1)xrm(3,1)xrm(3,1)", "hard", 5.0),
    ("rm(4,2)xrm(2,1)", "hard", 2.0),
])
def test_information_bit_error_rate_never_exceeds_the_block_error_rate(descriptor, mode, ebno_db):
    point = sim.run_point(descriptor, mode=mode, iterations=3, ebno_db=ebno_db,
                          min_block_errors=40, max_frames=2048, seed=2022)
    assert point.block_errors > 0
    assert point.ber <= point.bler
    assert point.bit_errors <= sim._cached_code(descriptor).k_t * point.block_errors


def chunk_args(ebno_db=0.5, seed=77):
    descriptor = "rm(3,1)xrm(2,1)"
    sigma2 = sim.channel.ebno_db_to_sigma2(ebno_db, sim._cached_code(descriptor).rate)
    return descriptor, "soft", 2, sigma2, seed


def test_a_non_codeword_with_the_right_information_bits_has_no_bit_errors(monkeypatch):
    # x0 x1 on the rm(3,1) axis is a monomial outside its information set, so
    # it is zero at every information position, and of weight 2 < d = 4
    descriptor, mode, iterations, sigma2, seed = chunk_args()
    code = sim._cached_code(descriptor)
    monomial = rm_core.encode_batch(rm_core.build_rm_code(3, 3), np.eye(8, dtype=np.uint8)[4])
    assert monomial.tolist() == [0, 0, 0, 0, 0, 0, 1, 1]
    pattern = np.outer(np.ones(4, dtype=np.uint8), monomial).reshape(-1)  # rows on the rm(3,1) axis
    infos, _ = sim._chunk_draws(code, sigma2, seed, 0, 5)
    decided = product.product_encode_batch(code, infos) ^ pattern
    assert np.array_equal(product.product_recover_batch(code, decided), infos)
    monkeypatch.setattr(sim.product, "product_decode_batch", lambda *args: (decided, None))
    flags, bit_counts = sim._run_chunk(descriptor, mode, iterations, sigma2, seed, 0, 5)
    assert flags.tolist() == [True] * 5 and bit_counts.tolist() == [0] * 5


def test_partial_chunk_is_head_of_full_chunk():
    descriptor, mode, iterations, sigma2, seed = chunk_args()
    start = 2 * sim.CHUNK_FRAMES
    full = sim._run_chunk(descriptor, mode, iterations, sigma2, seed, start, sim.CHUNK_FRAMES)
    head = sim._run_chunk(descriptor, mode, iterations, sigma2, seed, start, 44)
    assert 0 < full[0][:44].sum() < 44  # the tallies vary from frame to frame
    for whole, part in zip(full, head):
        np.testing.assert_array_equal(part, whole[:44])
    code = sim._cached_code(descriptor)
    full_draws = sim._chunk_draws(code, sigma2, seed, start, sim.CHUNK_FRAMES)
    for whole, part in zip(full_draws, sim._chunk_draws(code, sigma2, seed, start, 44)):
        np.testing.assert_array_equal(part, whole[:44])


def test_chunks_of_one_seed_draw_different_frames():
    descriptor, _, _, sigma2, seed = chunk_args()
    code = sim._cached_code(descriptor)
    first = sim._chunk_draws(code, sigma2, seed, 0, sim.CHUNK_FRAMES)
    second = sim._chunk_draws(code, sigma2, seed, sim.CHUNK_FRAMES, sim.CHUNK_FRAMES)
    for a, b in zip(first, second):
        assert a.shape == b.shape
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("min_block_errors, stops_on", [(40, "errors"), (10_000, "frame cap")])
def test_workers_agree_on_a_partial_last_chunk(min_block_errors, stops_on):
    max_frames = 700  # chunks of 256, 256 and 188 frames
    serial = quick_point(ebno_db=2.0, min_block_errors=min_block_errors,
                         max_frames=max_frames, workers=1)
    parallel = quick_point(ebno_db=2.0, min_block_errors=min_block_errors,
                           max_frames=max_frames, workers=2)
    assert serial == parallel
    if stops_on == "errors":
        assert serial.block_errors == min_block_errors
        assert sim.CHUNK_FRAMES < serial.frames < max_frames
    else:
        assert serial.frames == max_frames


@pytest.mark.parametrize("workers", [1, 2])
def test_huge_frame_cap_stops_at_the_error_target(workers):
    point = quick_point(ebno_db=-2.0, min_block_errors=3, max_frames=10**12, workers=workers)
    assert point.block_errors == 3
    assert point.frames < sim.CHUNK_FRAMES


def test_a_long_grid_checks_each_point_a_few_times(monkeypatch):
    checks = []
    frames_needed = sim._Tally.frames_needed
    monkeypatch.setattr(sim._Tally, "frames_needed",
                        lambda tally, config: checks.append(tally) or frames_needed(tally, config))
    grid = tuple(i / 10 for i in range(300))
    points = sim.run_sweep(sim.SimConfig(code="rm(2,1)", ebno_dbs=grid, min_block_errors=1,
                                         max_frames=1))
    assert [p.frames for p in points] == [1] * len(grid)
    assert len(checks) <= 4 * len(grid)  # a finished point is not checked again


class SettledFuture(Future):
    """A future that records when the sweep folds its result or cancels it."""

    settled = False

    def result(self, timeout=None):
        self.settled = True
        return super().result(timeout)

    def cancel(self):
        self.settled = True
        return super().cancel()


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs each call at submit, starts no process.

    Records the size of every pool built, the start frame of every chunk
    submitted, and after each submit the chunks submitted and not yet folded
    or cancelled.
    """

    sizes: list = []
    submitted: list = []
    in_flight: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.futures = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.submitted.append(args[5])
        future = SettledFuture()
        future.set_result(fn(*args))
        self.futures.append(future)
        self.in_flight.append(sum(not f.settled for f in self.futures))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(InlinePool, "submitted", [])
    monkeypatch.setattr(InlinePool, "in_flight", [])
    monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
    return InlinePool


def test_pool_is_clamped_to_usable_cpus_and_shared_by_a_sweep(inline_pool, monkeypatch):
    monkeypatch.setattr(sim, "usable_cpus", lambda: 3)
    point = quick_point(workers=10**6)
    assert point == quick_point(workers=1)
    config = sim.SimConfig(code="rm(3,1)xrm(2,1)", iterations=2, ebno_dbs=(0.0, 1.0, 2.0),
                           min_block_errors=25, max_frames=3000, seed=77, workers=10**6)
    assert sim.run_sweep(config)[1] == point
    assert inline_pool.sizes == [3, 3]  # one for the point, one for the whole sweep


def test_no_pool_is_opened_when_one_cpu_is_usable(inline_pool, monkeypatch):
    monkeypatch.setattr(sim, "usable_cpus", lambda: 1)
    point = quick_point(workers=4)
    assert inline_pool.sizes == []
    assert point == quick_point(workers=1)


@pytest.mark.parametrize("setting, value, named", [
    ("max_frames", 0, "max_frames"),
    ("min_block_errors", 0, "min_block_errors"),
    ("min_block_errors", -5, "min_block_errors"),
    ("seed", -1, "seed"),
    ("workers", 0, "workers"),
    ("iterations", 0, "iterations"),
    ("mode", "bogus", "decoder mode"),
])
def test_run_point_rejects_bad_settings_before_any_chunk(setting, value, named,
                                                         inline_pool, monkeypatch):
    chunks_run = []
    monkeypatch.setattr(sim, "_run_chunk", lambda *args: chunks_run.append(args))
    with pytest.raises(ValueError, match=named):
        quick_point(**{"workers": 2, setting: value})
    assert inline_pool.sizes == [] and chunks_run == []


def test_pool_keeps_a_fixed_window_of_chunks_in_flight(inline_pool, monkeypatch):
    monkeypatch.setattr(sim, "usable_cpus", lambda: 8)
    processes = 2
    point = quick_point(ebno_db=-2.0, min_block_errors=3, max_frames=10**12, workers=processes)
    assert point.frames < sim.CHUNK_FRAMES  # stops inside the first chunk
    assert inline_pool.sizes == [processes]
    # the chunks it can still need are bounded when they are submitted, not cancelled later
    assert len(inline_pool.submitted) <= 1 + processes
    # a point that needs many chunks fills the window of 2 * processes, and no more
    long_point = quick_point(ebno_db=4.0, min_block_errors=40, max_frames=10**12, workers=processes)
    assert long_point == quick_point(ebno_db=4.0, min_block_errors=40, max_frames=10**12)
    assert long_point.frames > 4 * sim.CHUNK_FRAMES
    assert max(inline_pool.in_flight) == 2 * processes


class LazyFuture(Future):
    """A future whose result, when read, first runs its pool's queued calls."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.run_through(self)
        return super().result(timeout)


class LazyPool:
    """Stands in for ProcessPoolExecutor: runs a call only when the sweep reads
    its result or that of a later call, and then runs every queued call up to
    that one, the newest first, so futures complete out of submission order.
    Cancelled calls never run.

    Records the (sigma2, start) of every call run, the sigma2 and future of
    every call submitted, and the (sigma2, done, cancelled) of every future
    when the pool exits.
    """

    ran: list = []
    submitted: list = []
    at_exit: list = []

    def __init__(self, max_workers):
        self.queue = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.at_exit.extend((sigma2, f.done(), f.cancelled()) for sigma2, f in self.submitted)
        return False

    def submit(self, fn, *args):
        future = LazyFuture(self)
        self.queue.append((future, fn, args))
        self.submitted.append((args[3], future))
        return future

    def run_through(self, target):
        count = next((i + 1 for i, (future, _, _) in enumerate(self.queue) if future is target), 0)
        calls, self.queue = self.queue[:count], self.queue[count:]
        for future, fn, args in reversed(calls):
            if future.set_running_or_notify_cancel():
                self.ran.append((args[3], args[5]))
                try:
                    future.set_result(fn(*args))
                except RuntimeError as error:
                    future.set_exception(error)


@pytest.fixture
def lazy_pool(monkeypatch):
    for records in ("ran", "submitted", "at_exit"):
        monkeypatch.setattr(LazyPool, records, [])
    monkeypatch.setattr(sim, "ProcessPoolExecutor", LazyPool)
    monkeypatch.setattr(sim, "usable_cpus", lambda: 3)
    return LazyPool


def sigma2_of(descriptor, ebno_db):
    return sim.channel.ebno_db_to_sigma2(ebno_db, sim._cached_code(descriptor).rate)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_out_of_order_completion_does_not_change_a_sweep(workers, lazy_pool):
    config = dict(code="rm(3,1)xrm(2,1)", iterations=2, ebno_dbs=(-2.0, 4.0, 8.0),
                  min_block_errors=20, max_frames=2000, seed=77)
    in_process = sim.run_sweep(sim.SimConfig(**config))
    first_chunk, several, capped = in_process
    assert first_chunk.frames < sim.CHUNK_FRAMES and first_chunk.block_errors == 20
    assert several.frames > 4 * sim.CHUNK_FRAMES and several.block_errors == 20
    assert capped.frames == 2000 and capped.block_errors < 20  # seven chunks and 208 frames
    assert sim.run_sweep(sim.SimConfig(**config, workers=workers)) == in_process
    assert (lazy_pool.ran == []) == (workers == 1)
    # a chunk submitted past a point's stopping frame is cancelled before it runs
    stops = {sigma2_of(config["code"], p.ebno_db): p.frames for p in in_process}
    assert all(start < stops[sigma2] for sigma2, start in lazy_pool.ran)


def test_a_failing_chunk_cancels_every_pending_chunk_before_the_pool_exits(lazy_pool, monkeypatch):
    sweep = sim.SimConfig(code="rm(3,1)xrm(2,1)", iterations=2, ebno_dbs=(4.0, 1.0, 2.0),
                          min_block_errors=40, max_frames=10**12, seed=77, workers=3)
    run_chunk = sim._run_chunk
    raised_after = []

    def chunk(*args):
        if args[3] == sigma2_of(sweep.code, 1.0):
            raised_after.append(len(lazy_pool.submitted))
            raise RuntimeError("chunk failed")
        return run_chunk(*args)

    monkeypatch.setattr(sim, "_run_chunk", chunk)
    with pytest.raises(RuntimeError, match="chunk failed"):
        sim.run_sweep(sweep)
    assert raised_after == [len(lazy_pool.submitted)]  # nothing was submitted after the raise
    pending = [(sigma2, cancelled) for sigma2, done, cancelled in lazy_pool.at_exit
               if cancelled or not done]
    assert {sigma2 for sigma2, _ in pending} == {sigma2_of(sweep.code, 4.0), sigma2_of(sweep.code, 2.0)}
    assert all(cancelled for _, cancelled in pending)


def test_failed_write_leaves_existing_output_untouched(tmp_path, monkeypatch):
    out = tmp_path / "result.csv"
    out.write_bytes(b"previous result\n")
    config = sim.SimConfig(code="rm(2,1)", ebno_dbs=(1.0,), out_path=str(out))
    points = [quick_point()]

    def failing_emit_csv(points, stream):
        stream.write("ebno_db,")
        raise RuntimeError("write failed")

    with monkeypatch.context() as patch:
        patch.setattr(sim, "emit_csv", failing_emit_csv)
        with pytest.raises(RuntimeError, match="write failed"):
            sim.emit(points, config)
    assert out.read_bytes() == b"previous result\n"
    assert os.listdir(tmp_path) == ["result.csv"]

    sim.emit(points, config)
    assert out.read_text().startswith("ebno_db,snr_db,")
    assert os.listdir(tmp_path) == ["result.csv"]
