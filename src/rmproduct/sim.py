"""Monte-Carlo BLER/BER estimation over the BPSK/AWGN channel.

Frames are processed in fixed-size chunks.  Chunk c draws its information
bits and its noise from two streams spawned from SeedSequence((seed, c)), one
row per frame, and tallies are folded in frame order, so a sweep's output is
byte-identical for any worker count.  A point stops at the exact frame where
the block-error target is met, or at the frame cap.
"""

import contextlib
import json
import math
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from . import channel, product
from .ops import OpCounter

CHUNK_FRAMES = 256  # fixed batch size; part of the determinism contract
# Version of the result values, recorded in the JSON config.  2: ops_per_decode
# counts the n-1 compares and sign XORs per fiber of the min-sum butterfly.
RESULT_FORMAT = 2
# Version of the seeded random streams, recorded in the JSON config.  2: one
# bit stream and one noise stream per chunk, keyed by (seed, chunk index).
RNG_SCHEME = 2
Z_95 = 1.959963984540054  # two-sided 95% normal quantile


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
        _check_run(self.decoder, self.iterations, self.min_block_errors,
                   self.max_frames, self.seed, self.workers, self.ebno_dbs)
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.out_format!r}")


def _check_run(mode: str, iterations: int, min_block_errors: int, max_frames: int,
               seed: int, workers: int, ebno_dbs: tuple[float, ...]) -> None:
    """Reject the first bad setting of a run; SimConfig and run_point both call this."""
    if mode not in (product.SOFT, product.HARD):
        raise ValueError(f"decoder mode must be 'soft' or 'hard', got {mode!r}")
    for name, value, least in (("iterations", iterations, 1),
                               ("min_block_errors", min_block_errors, 1),
                               ("max_frames", max_frames, 1),
                               ("seed", seed, 0),
                               ("workers", workers, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    for ebno_db in ebno_dbs:
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


CSV_COLUMNS = tuple(f.name for f in fields(SimPoint))


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


def _chunk_draws(code: product.ProductCode, sigma2: float, seed: int,
                 start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Information bits and noise of frames [start, start+count) of one chunk.

    Each stream fills exactly `count` rows in order, so a partial chunk is the
    head of the full one.  Drawing a full chunk and slicing it would give the
    same frames, but a full noise block can be tens of MiB on long codes.
    """
    bit_seed, noise_seed = np.random.SeedSequence((seed, start // CHUNK_FRAMES)).spawn(2)
    infos = np.random.default_rng(bit_seed).integers(0, 2, size=(count, code.k_t), dtype=np.uint8)
    noise = np.random.default_rng(noise_seed).normal(0.0, sigma2 ** 0.5, size=(count, code.n_t))
    return infos, noise


def _run_chunk(descriptor: str, mode: str, iterations: int, sigma2: float,
               seed: int, start: int, count: int):
    """Simulate frames [start, start+count); returns per-frame error tallies.

    `start` is a multiple of CHUNK_FRAMES and `count` at most CHUNK_FRAMES.
    """
    code = _cached_code(descriptor)
    infos, noise = _chunk_draws(code, sigma2, seed, start, count)
    encoded = product.product_encode_batch(code, infos)
    received = channel.bpsk_modulate(encoded) + noise
    decided, _ = product.product_decode_batch(code, received, sigma2, iterations, mode)
    mismatch = decided != encoded
    return mismatch.any(axis=1), mismatch.sum(axis=1, dtype=np.int64)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS and Windows


def _pool_size(workers: int) -> int:
    """Worker processes for `workers`: at most the CPUs this process may run on."""
    return min(workers, usable_cpus())


def _open_pool(workers: int):
    """A context manager giving a process pool for `workers` > 1, None for 1."""
    if workers == 1:
        return contextlib.nullcontext()
    return ProcessPoolExecutor(max_workers=_pool_size(workers))


@lru_cache(maxsize=64)
def _ops_per_decode(descriptor: str, mode: str, iterations: int) -> float:
    """Counted operations of one decode; input-independent, so measured once."""
    code = _cached_code(descriptor)
    counter = OpCounter()
    product.product_decode_batch(code, np.zeros(code.n_t), 1.0, iterations, mode, counter)
    return float(counter.total())


def _tallies(pool, workers: int, chunks):
    """Yield the tallies of `chunks` (_run_chunk argument tuples) in order: run
    here when `pool` is None, else with 2 * _pool_size(workers) + 2 chunks in
    flight, those still pending cancelled when the generator is closed."""
    if pool is None:
        yield from (_run_chunk(*args) for args in chunks)
        return
    window = 2 * _pool_size(workers) + 2
    pending = deque()
    try:
        for args in chunks:
            pending.append(pool.submit(_run_chunk, *args))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_point(code, *, mode: str, iterations: int, ebno_db: float,
              min_block_errors: int, max_frames: int, seed: int,
              workers: int = 1, pool: ProcessPoolExecutor | None = None) -> SimPoint:
    """Estimate BLER/BER at one Eb/N0 point.

    `code` is a ProductCode or its descriptor string.  Frames are compared at
    the codeword level (the decoder returns a hard codeword, not information
    bits); a block error is any bit mismatch.  Chunks run in `pool` when one
    is given (run_sweep shares one pool across its points), else in a pool
    of their own when `workers` > 1, else in this process.
    """
    _check_run(mode, iterations, min_block_errors, max_frames, seed, workers, (ebno_db,))
    descriptor = code.descriptor if isinstance(code, product.ProductCode) else code
    built = _cached_code(descriptor)
    sigma2 = channel.ebno_db_to_sigma2(ebno_db, built.rate)
    chunks = ((descriptor, mode, iterations, sigma2, seed, start,
               min(CHUNK_FRAMES, max_frames - start))
              for start in range(0, max_frames, CHUNK_FRAMES))  # lazy: max_frames may be 10**12

    frames_run = block_errors = bit_errors = 0
    with contextlib.ExitStack() as stack:
        if pool is None:
            pool = stack.enter_context(_open_pool(workers))
        # Entered after the pool, so pending chunks are cancelled before it shuts down.
        tallies = stack.enter_context(contextlib.closing(_tallies(pool, workers, chunks)))
        for flags, bit_counts in tallies:
            # Up to and including the frame that meets the target, if it is here.
            cumulative = np.cumsum(flags)
            cut = int(np.searchsorted(cumulative, min_block_errors - block_errors)) + 1
            taken = min(cut, len(flags))
            frames_run += taken
            block_errors += int(cumulative[taken - 1])
            bit_errors += int(bit_counts[:cut].sum())
            if block_errors == min_block_errors:
                break

    ci_lo, ci_hi = wilson_interval(block_errors, frames_run)
    return SimPoint(
        ebno_db=float(ebno_db),
        snr_db=channel.sigma2_to_snr_db(sigma2),
        frames=frames_run,
        bit_errors=bit_errors,
        block_errors=block_errors,
        ber=bit_errors / (frames_run * built.k_t),
        bler=block_errors / frames_run,
        bler_ci_lo=ci_lo,
        bler_ci_hi=ci_hi,
        ops_per_decode=_ops_per_decode(descriptor, mode, iterations),
    )


def run_sweep(config: SimConfig) -> list[SimPoint]:
    """Run every grid point of a sweep configuration in one process pool."""
    with _open_pool(config.workers) as pool:
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
                pool=pool,
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
    described["rng"] = RNG_SCHEME
    payload = {"config": described, "points": [asdict(p) for p in points]}
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def emit(points, config: SimConfig) -> None:
    """Write the sweep to config.out_path ('stdout' or '-' for standard out)."""
    if config.out_path in ("stdout", "-"):
        _emit_to(points, config, sys.stdout)
        return
    # Write beside the target and rename, so that a failed or killed write
    # never leaves a truncated file at out_path.
    directory, name = os.path.split(os.path.abspath(config.out_path))
    partial = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    stream = open(partial, "w", encoding="utf-8")
    try:
        with stream:
            _emit_to(points, config, stream)
        os.replace(partial, config.out_path)
    except BaseException:
        os.unlink(partial)
        raise


def _emit_to(points, config: SimConfig, stream) -> None:
    if config.out_format == "json":
        emit_json(points, config, stream)
    else:
        emit_csv(points, stream)
