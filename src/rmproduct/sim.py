"""Monte-Carlo BLER/BER estimation over the BPSK/AWGN channel.

Every frame owns a generator seeded from (master seed, frame index), frames
are processed in fixed-size chunks, and tallies are folded in frame order, so
a sweep's output is byte-identical for any worker count.  A point stops at
the exact frame where the block-error target is met, or at the frame cap.
"""

import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import channel, product
from .ops import OpCounter

CHUNK_FRAMES = 256  # fixed batch size; part of the determinism contract
# Version of the result values, recorded in the JSON config.  2: ops_per_decode
# counts the n-1 compares and sign XORs per fiber of the min-sum butterfly.
RESULT_FORMAT = 2
Z_95 = 1.959963984540054  # two-sided 95% normal quantile

CSV_COLUMNS = (
    "ebno_db", "snr_db", "frames", "bit_errors", "block_errors",
    "ber", "bler", "bler_ci_lo", "bler_ci_hi", "ops_per_decode",
)


@dataclass(frozen=True)
class SimConfig:
    """One sweep: a code, a decoder setting, and an Eb/N0 grid."""

    code: str
    decoder: str = product.SOFT
    iterations: int = 3
    ebno_dbs: tuple[float, ...] = ()
    min_block_errors: int = 100
    max_frames: int = 10_000_000
    seed: int = 1
    workers: int = 1
    out_format: str = "csv"
    out_path: str = "stdout"

    def __post_init__(self):
        if self.decoder not in (product.SOFT, product.HARD):
            raise ValueError(f"decoder must be 'soft' or 'hard', got {self.decoder!r}")
        for ebno_db in self.ebno_dbs:
            _check_ebno(ebno_db)
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.min_block_errors < 1:
            raise ValueError(f"min_block_errors must be >= 1, got {self.min_block_errors}")
        if self.max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {self.max_frames}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.out_format!r}")


def _check_ebno(ebno_db: float) -> None:
    if not math.isfinite(ebno_db):
        raise ValueError(f"Eb/N0 must be a finite number of dB, got {ebno_db}")


@dataclass(frozen=True)
class SimPoint:
    """One Monte-Carlo measurement at a single Eb/N0."""

    ebno_db: float
    snr_db: float
    frames: int
    bit_errors: int
    block_errors: int
    ber: float
    bler: float
    bler_ci_lo: float
    bler_ci_hi: float
    ops_per_decode: float


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    phat = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (phat + zz / (2.0 * trials)) / denom
    half = z * ((phat * (1.0 - phat) / trials + zz / (4.0 * trials * trials)) ** 0.5) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@lru_cache(maxsize=16)
def _cached_code(descriptor: str) -> product.ProductCode:
    return product.product_code_from_descriptor(descriptor)


def _frame_rng(seed: int, frame: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, frame)))


def _run_chunk(descriptor: str, mode: str, iterations: int, sigma2: float,
               seed: int, start: int, count: int):
    """Simulate frames [start, start+count); returns per-frame error tallies."""
    code = _cached_code(descriptor)
    infos = np.empty((count, code.k_t), dtype=np.uint8)
    noise = np.empty((count, code.n_t))
    sigma = sigma2 ** 0.5
    for i in range(count):
        rng = _frame_rng(seed, start + i)
        infos[i] = rng.integers(0, 2, size=code.k_t, dtype=np.uint8)
        noise[i] = rng.normal(0.0, sigma, size=code.n_t)
    encoded = product.product_encode_batch(code, infos)
    received = channel.bpsk_modulate(encoded) + noise
    decided, _ = product.product_decode_batch(code, received, sigma2, iterations, mode)
    mismatch = decided != encoded
    return mismatch.any(axis=1), mismatch.sum(axis=1, dtype=np.int64)


def _ops_per_decode(code: product.ProductCode, mode: str, iterations: int) -> float:
    """Counted operations of one decode; input-independent, so measured once."""
    counter = OpCounter()
    product.product_decode_batch(code, np.zeros((1, code.n_t)), 1.0, iterations, mode, counter)
    return float(counter.total())


def run_point(code, *, mode: str, iterations: int, ebno_db: float,
              min_block_errors: int, max_frames: int, seed: int,
              workers: int = 1) -> SimPoint:
    """Estimate BLER/BER at one Eb/N0 point.

    `code` is a ProductCode or its descriptor string.  Frames are compared at
    the codeword level (the decoder returns a hard codeword, not information
    bits); a block error is any bit mismatch.
    """
    _check_ebno(ebno_db)
    descriptor = code.descriptor if isinstance(code, product.ProductCode) else code
    built = _cached_code(descriptor)
    sigma2 = channel.ebno_db_to_sigma2(ebno_db, built.rate)

    frames_run = 0
    block_errors = 0
    bit_errors = 0

    def fold(flags: np.ndarray, bit_counts: np.ndarray) -> bool:
        """Fold one chunk in frame order; True when the error target is met."""
        nonlocal frames_run, block_errors, bit_errors
        remaining = min_block_errors - block_errors
        cumulative = np.cumsum(flags)
        if cumulative[-1] >= remaining:
            cut = int(np.searchsorted(cumulative, remaining)) + 1  # stop frame inclusive
            frames_run += cut
            block_errors += int(cumulative[cut - 1])
            bit_errors += int(bit_counts[:cut].sum())
            return True
        frames_run += flags.shape[0]
        block_errors += int(cumulative[-1])
        bit_errors += int(bit_counts.sum())
        return False

    starts = list(range(0, max_frames, CHUNK_FRAMES))
    if workers == 1:
        for start in starts:
            count = min(CHUNK_FRAMES, max_frames - start)
            if fold(*_run_chunk(descriptor, mode, iterations, sigma2, seed, start, count)):
                break
    else:
        window = 2 * workers + 2
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = []
            submitted = 0
            done = False
            while not done and (pending or submitted < len(starts)):
                while submitted < len(starts) and len(pending) < window:
                    start = starts[submitted]
                    count = min(CHUNK_FRAMES, max_frames - start)
                    pending.append(pool.submit(
                        _run_chunk, descriptor, mode, iterations, sigma2, seed, start, count))
                    submitted += 1
                head = pending.pop(0)
                done = fold(*head.result())
            for future in pending:
                future.cancel()

    bler = block_errors / frames_run
    ci_lo, ci_hi = wilson_interval(block_errors, frames_run)
    return SimPoint(
        ebno_db=float(ebno_db),
        snr_db=channel.sigma2_to_snr_db(sigma2),
        frames=frames_run,
        bit_errors=bit_errors,
        block_errors=block_errors,
        ber=bit_errors / (frames_run * built.k_t),
        bler=bler,
        bler_ci_lo=ci_lo,
        bler_ci_hi=ci_hi,
        ops_per_decode=_ops_per_decode(built, mode, iterations),
    )


def run_sweep(config: SimConfig) -> list[SimPoint]:
    """Run every grid point of a sweep configuration."""
    return [
        run_point(
            config.code,
            mode=config.decoder,
            iterations=config.iterations,
            ebno_db=ebno_db,
            min_block_errors=config.min_block_errors,
            max_frames=config.max_frames,
            seed=config.seed,
            workers=config.workers,
        )
        for ebno_db in config.ebno_dbs
    ]


def emit_csv(points, stream) -> None:
    """Write points as CSV with the fixed column set."""
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for point in points:
        values = asdict(point)
        stream.write(",".join(repr(values[col]) if isinstance(values[col], float)
                              else str(values[col]) for col in CSV_COLUMNS) + "\n")


def emit_json(points, config: SimConfig, stream) -> None:
    """Write points plus the result-defining configuration for provenance.

    Execution-only settings (worker count, output destination) are omitted so
    that reruns of the same simulation produce byte-identical files.
    """
    described = asdict(config)
    for runtime_field in ("workers", "out_format", "out_path"):
        described.pop(runtime_field)
    described["result_format"] = RESULT_FORMAT
    payload = {"config": described, "points": [asdict(p) for p in points]}
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def emit(points, config: SimConfig) -> None:
    """Write the sweep to config.out_path ('stdout' or '-' for standard out)."""
    if config.out_path in ("stdout", "-"):
        _emit_to(points, config, sys.stdout)
    else:
        with open(config.out_path, "w", encoding="utf-8") as stream:
            _emit_to(points, config, stream)


def _emit_to(points, config: SimConfig, stream) -> None:
    if config.out_format == "json":
        emit_json(points, config, stream)
    else:
        emit_csv(points, stream)
