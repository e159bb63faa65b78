import io
import json
import os
from concurrent.futures import Future

import numpy as np
import pytest

from rmproduct import product, sim


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


def test_worker_count_does_not_change_results():
    serial = quick_point(workers=1)
    parallel = quick_point(workers=2)
    assert serial == parallel


def test_snr_matches_rate_and_ebno():
    point = quick_point()
    # Eb/N0 (dB) = SNR (dB) - 10 log10(rate)
    assert point.snr_db == pytest.approx(point.ebno_db + 10 * np.log10(12 / 32), abs=1e-9)


def test_hard_mode_counts_fewer_operations():
    soft = quick_point(mode="soft")
    hard = quick_point(mode="hard")
    assert hard.ops_per_decode <= soft.ops_per_decode


def test_operation_count_is_measured_once_per_setting(monkeypatch):
    sim._ops_per_decode.cache_clear()
    counted = []
    decode = product.product_decode_batch

    def spy(code, received, sigma2, iterations=3, mode="soft", counter=None):
        if counter is not None:
            counted.append((code.descriptor, mode, iterations))
        return decode(code, received, sigma2, iterations, mode, counter)

    monkeypatch.setattr(product, "product_decode_batch", spy)
    first = quick_point(max_frames=8)
    again = quick_point(max_frames=8, ebno_db=3.0)
    quick_point(max_frames=8, mode="hard")
    assert counted == [("rm(3,1)xrm(2,1)", "soft", 2), ("rm(3,1)xrm(2,1)", "hard", 2)]
    assert first.ops_per_decode == again.ops_per_decode


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


def test_config_validation():
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", decoder="fuzzy")
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", iterations=0)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", min_block_errors=0)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", max_frames=0)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", workers=0)
    with pytest.raises(ValueError, match="seed"):
        sim.SimConfig(code="rm(2,1)", seed=-1)
    with pytest.raises(ValueError):
        sim.SimConfig(code="rm(2,1)", out_format="xml")


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
    assert described["result_format"] == sim.RESULT_FORMAT == 2
    assert described["rng"] == sim.RNG_SCHEME == 2


def chunk_args(ebno_db=0.5, seed=77):
    descriptor = "rm(3,1)xrm(2,1)"
    sigma2 = sim.channel.ebno_db_to_sigma2(ebno_db, sim._cached_code(descriptor).rate)
    return descriptor, "soft", 2, sigma2, seed


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


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs each call at submit, starts no process.

    Records the size of every pool built and the start frame of every chunk
    submitted.
    """

    sizes: list = []
    submitted: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.submitted.append(args[5])
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(InlinePool, "submitted", [])
    monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
    return InlinePool


def test_pool_is_clamped_to_usable_cpus_and_shared_by_a_sweep(inline_pool):
    cpus = len(os.sched_getaffinity(0))
    point = quick_point(workers=10**6)
    assert point == quick_point(workers=1)
    config = sim.SimConfig(code="rm(3,1)xrm(2,1)", iterations=2, ebno_dbs=(0.0, 1.0, 2.0),
                           min_block_errors=25, max_frames=3000, seed=77, workers=10**6)
    assert sim.run_sweep(config)[1] == point
    assert inline_pool.sizes == [cpus, cpus]  # one for the point, one for the whole sweep


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


def test_pool_keeps_a_fixed_window_of_chunks_in_flight(inline_pool):
    point = quick_point(ebno_db=-2.0, min_block_errors=3, max_frames=10**12, workers=2)
    assert point.frames < sim.CHUNK_FRAMES  # stops inside the first chunk
    window = 2 * sim._pool_size(2) + 2
    assert inline_pool.submitted == [i * sim.CHUNK_FRAMES for i in range(window)]


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
