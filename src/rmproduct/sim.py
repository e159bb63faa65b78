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
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import channel, product

CHUNK_FRAMES = 256  # fixed batch size; part of the determinism contract
# Version of the result values, recorded in the JSON config.  2: ops_per_decode
# counts the n-1 compares and sign XORs per fiber of the min-sum butterfly.
# 3: the exhaustive soft-MAP counts only the n code-position LLRs it computes.
# 4: single-parity-check components, rm(m, m-1), are soft-decoded in closed
# form: the same max-log LLRs rounded once instead of as a difference of two
# correlations, so they move by about 1e-14, and ops_per_decode counts that
# O(n) form instead of the search over 2^k codewords.
# 5: bit_errors counts the information bits in error, read back from the
# decided codeword through the encoder's information positions, instead of
# the code bits, so ber <= bler; frames and block errors are unchanged.
RESULT_FORMAT = 5
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
    ebno_dbs: tuple[float, ...] = field(kw_only=True)
    min_block_errors: int = 100
    max_frames: int = 10_000_000
    seed: int = 1
    workers: int = 1
    out_format: str = "csv"
    out_path: str = "stdout"

    def __post_init__(self):
        """Reject the first bad setting, and build the code and convert every
        Eb/N0 with its rate, before any pool opens or any chunk runs; a bad
        descriptor is reported before an empty grid."""
        if self.decoder not in (product.SOFT, product.HARD):
            raise ValueError(f"decoder mode must be 'soft' or 'hard', got {self.decoder!r}")
        for name, value, least in (("iterations", self.iterations, 1),
                                   ("min_block_errors", self.min_block_errors, 1),
                                   ("max_frames", self.max_frames, 1),
                                   ("seed", self.seed, 0),
                                   ("workers", self.workers, 1)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for ebno_db in self.ebno_dbs:
            if not math.isfinite(ebno_db):
                raise ValueError(f"Eb/N0 must be a finite number of dB, got {ebno_db}")
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.out_format!r}")
        if self.out_path not in ("stdout", "-"):
            if not self.out_path or os.path.isdir(self.out_path):
                raise ValueError(f"the output path {self.out_path!r} does not name a file")
            if not os.path.isdir(os.path.dirname(os.path.abspath(self.out_path))):
                raise ValueError(f"the output path {self.out_path!r} is not in an existing directory")
        code = _cached_code(self.code)
        if not self.ebno_dbs:
            raise ValueError("the Eb/N0 grid needs at least one point")
        for ebno_db in self.ebno_dbs:
            channel.ebno_db_to_sigma2(ebno_db, code.rate)


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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    phat = successes / trials
    zz = Z_95 * Z_95
    denom = 1.0 + zz / trials
    center = (phat + zz / (2.0 * trials)) / denom
    half = Z_95 * ((phat * (1.0 - phat) / trials + zz / (4.0 * trials * trials)) ** 0.5) / denom
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
    """Simulate frames [start, start+count); returns per-frame block-error
    flags and information-bit error counts.

    `start` is a multiple of CHUNK_FRAMES and `count` at most CHUNK_FRAMES.
    """
    code = _cached_code(descriptor)
    infos, noise = _chunk_draws(code, sigma2, seed, start, count)
    encoded = product.product_encode_batch(code, infos)
    received = np.add(channel.bpsk_modulate(encoded), noise, out=noise)
    decided, _ = product.product_decode_batch(code, received, sigma2, iterations, mode)
    mismatch = np.bitwise_xor(decided, encoded, order="F")  # frames fastest, as `decided`
    info_errors = product.product_recover_batch(code, mismatch)
    return mismatch.any(axis=1), info_errors.sum(axis=1, dtype=np.int64)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS and Windows


@dataclass
class _Tally:
    """The tallies folded so far at one Eb/N0 point, and its frames submitted."""

    frames: int = 0
    block_errors: int = 0
    bit_errors: int = 0
    submitted: int = 0

    def frames_needed(self, config: SimConfig) -> float:
        """The frames folded, plus the block errors still missing over the Wilson
        upper bound on the BLER so far, up to the frame cap: the frames the point
        needs if its BLER is that high.  Equals `frames` once the point is done."""
        missing = config.min_block_errors - self.block_errors
        return min(config.max_frames,
                   self.frames + missing / wilson_interval(self.block_errors, self.frames)[1])


def _tallies(pool, processes: int, config: SimConfig, sigma2s) -> list[_Tally]:
    """Run the chunks of every point of a sweep and return each point's tallies.

    A point's chunk is submitted only while the point's submitted frames are
    below its `frames_needed` from the tallies folded so far, and each free
    slot goes to the first such point in grid order, so the next points'
    chunks run while a point drains.  With no pool each chunk runs and is
    folded here when submitted; with a pool up to 2 * processes are in
    flight, and the oldest is folded first, so each point folds its own
    chunks in chunk order.  A done point's pending chunks are cancelled at
    once, and on return or error every pending chunk, before the caller
    shuts the pool down.
    """
    tallies = [_Tally() for _ in sigma2s]
    unfinished = list(range(len(tallies)))  # in grid order
    pending = deque()  # (point, future), in submission order

    def fold(point, flags, bit_counts):
        tally = tallies[point]
        # Up to and including the frame that meets the target, if it is here.
        cumulative = np.cumsum(flags)
        cut = int(np.searchsorted(cumulative, config.min_block_errors - tally.block_errors)) + 1
        taken = min(cut, len(flags))
        tally.frames += taken
        tally.block_errors += int(cumulative[taken - 1])
        tally.bit_errors += int(bit_counts[:cut].sum())
        if tally.frames_needed(config) == tally.frames:  # done: drop its later chunks
            unfinished.remove(point)
            for entry in [entry for entry in pending if entry[0] == point]:
                pending.remove(entry)
                entry[1].cancel()

    try:
        while True:
            while len(pending) < 2 * processes:
                point = next((p for p in unfinished
                              if tallies[p].submitted < tallies[p].frames_needed(config)), None)
                if point is None:
                    break
                tally = tallies[point]
                count = min(CHUNK_FRAMES, config.max_frames - tally.submitted)
                args = (config.code, config.decoder, config.iterations, sigma2s[point],
                        config.seed, tally.submitted, count)
                tally.submitted += count
                if pool is None:
                    fold(point, *_run_chunk(*args))
                else:
                    pending.append((point, pool.submit(_run_chunk, *args)))
            if not pending:
                return tallies
            point, future = pending.popleft()
            fold(point, *future.result())
    finally:
        for _, future in pending:
            future.cancel()


def run_sweep(config: SimConfig) -> list[SimPoint]:
    """Estimate BLER/BER at each Eb/N0 point of a sweep.

    The chunks run in one pool of min(`workers`, usable CPUs) processes if
    that exceeds 1, where the next points' chunks keep the workers busy while
    a point drains (`_tallies`); else here, one point after another.

    A block error is a decided codeword that differs from the sent one in
    any bit.  The bit errors are the information bits that differ, read from
    the decided codeword through the information positions
    (`product.product_recover_batch`), so a decision that is not a codeword
    may count a block error with no bit error.
    """
    code = _cached_code(config.code)
    processes = min(config.workers, usable_cpus())
    sigma2s = [channel.ebno_db_to_sigma2(ebno_db, code.rate) for ebno_db in config.ebno_dbs]
    with (ProcessPoolExecutor(max_workers=processes) if processes > 1
          else contextlib.nullcontext()) as pool:
        tallies = _tallies(pool, processes, config, sigma2s)
    points = []
    for ebno_db, sigma2, tally in zip(config.ebno_dbs, sigma2s, tallies):
        ci_lo, ci_hi = wilson_interval(tally.block_errors, tally.frames)
        points.append(SimPoint(
            ebno_db=float(ebno_db),
            snr_db=channel.sigma2_to_snr_db(sigma2),
            frames=tally.frames,
            bit_errors=tally.bit_errors,
            block_errors=tally.block_errors,
            ber=tally.bit_errors / (tally.frames * code.k_t),
            bler=tally.block_errors / tally.frames,
            bler_ci_lo=ci_lo,
            bler_ci_hi=ci_hi,
            ops_per_decode=float(product.decode_ops(code, config.decoder, config.iterations).total()),
        ))
    return points


def run_point(code, *, mode: str, iterations: int, ebno_db: float,
              min_block_errors: int, max_frames: int, seed: int, workers: int = 1) -> SimPoint:
    """Estimate BLER/BER at one Eb/N0 point: a one-point run_sweep.

    `code` is a ProductCode or its descriptor string.  Chunks run in a pool of
    their own when `workers` and the usable CPUs both exceed one, else in this process.
    """
    descriptor = code.descriptor if isinstance(code, product.ProductCode) else code
    return run_sweep(SimConfig(code=descriptor, decoder=mode, iterations=iterations,
                               ebno_dbs=(ebno_db,), min_block_errors=min_block_errors,
                               max_frames=max_frames, seed=seed, workers=workers))[0]


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
    try:
        stream = open(partial, "w", encoding="utf-8")
    except OSError as exc:  # name the path asked for, not the hidden one
        raise OSError(exc.errno, exc.strerror, config.out_path) from None
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
