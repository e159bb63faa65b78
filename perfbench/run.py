"""Benchmark of the rmproduct library: decode throughput, sweep time, set-up.

    python3 perfbench/run.py --workload soft-6x2 --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload in turn, each in its own interpreter.
The library is imported from `src/` of the checkout that holds this file and
is driven only through its public functions (`sim.run_point`, `cli.main`,
`product.*`, `channel.*`).  The last line of standard output is one JSON
object: `attempted` counts the sweeps run and `failed` those of the timed
loop that raised (any other failure ends the run with exit code 2 and no
result); `correct` is true when every named output check passed, apart from
those that fail on a known defect of the library (KNOWN_DEFECTS); `metrics`
holds the end-to-end metrics (`--trace 0`) or the per-layer stage metrics
(`--trace 1`); times are scaled to nominal machine speed by a calibration
kernel timed in the same run.  Human-readable tables go to standard error.
See perfbench/README.md for what each metric and check means.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp" / str(os.getpid())
REFERENCE = Path(__file__).resolve().parent / "reference.json"

MIN_REPEATS = 3
NOMINAL_CALIBRATION_S = 0.040  # calibration kernel time that defines nominal speed
SETUP_PROBES = 9
Z_99 = 2.5758293035489004  # two-sided 99% normal quantile
NOISELESS_FRAMES = 8


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    code: str
    mode: str
    iterations: int
    ebno_dbs: tuple
    workers: int
    budget: int = 0       # fixed frame budget per run_point call (0: error target)
    min_errors: int = 0   # block-error target per point of a CLI sweep

    @property
    def via_cli(self) -> bool:
        return self.min_errors > 0


# Why these three: soft-6x2 is the paper's headline code, where the sim layer
# (per-frame RNG) and the soft-FHT kernels share the time; bfmap-11x3 has long
# fibers and spends nearly all its time in the brute-force soft-MAP, so
# harness changes should not show there; sweep-cube-hard is the only one that
# goes through the CLI, the process pool, early stop and emit.
WORKLOADS = {
    w.name: w for w in (
        Workload("soft-6x2", "rm(6,1)xrm(2,1)", "soft", 3, (2.5,), workers=1, budget=2048),
        Workload("bfmap-11x3", "rm(11,1)xrm(3,2):bfmap", "soft", 3, (0.5,), workers=1, budget=8),
        Workload("sweep-cube-hard", "rm(3,1)xrm(3,1)xrm(3,1)", "hard", 3, (5.0, 5.5, 6.0),
                 workers=2, min_errors=200),
    )
}

# Per-layer spans predicted to read non-zero on each workload; every other
# span or count in PER_LAYER_ZERO_CHECKED must read zero there.
COMMON_NONZERO = {
    "sim.self_ms", "product.encode_ms", "rm_core.encode_ms", "product.decode_ms",
    "product.decode_self_ms", "product.component_calls", "fht.bytes_computed",
    "channel.modulate_ms", "rm_core.build_ms", "gf2.row_space_check_ms",
}
PREDICTED_NONZERO = {
    "soft-6x2": COMMON_NONZERO | {
        "soft_fht.info_ms.axis1", "soft_fht.info_ms.axis2", "soft_fht.minsum_ms.axis1",
        "soft_fht.minsum_ms.axis2", "fht.fht_ms.axis1", "fht.fht_ms.axis2"},
    "bfmap-11x3": COMMON_NONZERO | {
        "soft_fht.bfmap_ms", "soft_fht.info_ms.axis1", "soft_fht.minsum_ms.axis1",
        "fht.fht_ms.axis1"},
    "sweep-cube-hard": COMMON_NONZERO | {
        "fht.ml_decode_ms.axis1", "fht.ml_decode_ms.axis2", "fht.ml_decode_ms.axis3",
        "cli.emit_ms", "sim.pools_created"},
}
AXES = (1, 2, 3)
PER_AXIS = ("soft_fht.info_ms", "soft_fht.minsum_ms", "fht.fht_ms", "fht.ml_decode_ms")
PER_LAYER_ZERO_CHECKED = sorted(
    COMMON_NONZERO
    | {f"{name}.axis{q}" for name in PER_AXIS for q in AXES}
    | {"soft_fht.bfmap_ms", "cli.emit_ms", "sim.pools_created"}
)


# Checks that fail because of a defect of the library that is already known
# and tracked in ROADMAP.md.  They run on every row, count toward
# checks_passed_frac and are reported by name as failing, like every other
# check; they alone do not make a result incorrect.  Once the defect is fixed
# they pass and checks_passed_frac rises.
KNOWN_DEFECTS = {
    "row.ber<=bler": "sim counts bit errors over the n_t code bits but divides by "
                     "frames*k_t (the BER defect in ROADMAP.md)",
}


class Checks:
    """Named pass/fail output checks."""

    def __init__(self):
        self.results = []  # (name, passed, detail)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append((name, bool(passed), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, passed, _ in self.results if not passed)

    @property
    def unexpected_failures(self) -> int:
        """Failed checks other than those of KNOWN_DEFECTS."""
        return sum(1 for name, passed, _ in self.results
                   if not passed and name not in KNOWN_DEFECTS)

    def report(self, stream) -> None:
        summary = {}
        for name, passed, detail in self.results:
            runs, fails, example = summary.get(name, (0, 0, ""))
            summary[name] = (runs + 1, fails + (not passed), example or ("" if passed else detail))
        print(f"checks: {self.attempted - self.failed}/{self.attempted} passed", file=stream)
        for name, (runs, fails, example) in summary.items():
            status = "ok  " if not fails else "FAIL"
            extra = f"  e.g. {example}" if example else ""
            if fails and name in KNOWN_DEFECTS:
                extra += f"  [known defect: {KNOWN_DEFECTS[name]}]"
            print(f"  {status} {name}: {runs - fails}/{runs} passed{extra}", file=stream)


def load_library():
    """Import rmproduct from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "rmproduct" / "__init__.py").is_file():
        raise ImportError(f"no rmproduct package under {src}")
    sys.path.insert(0, str(src))
    import rmproduct
    from rmproduct import channel, cli, gf2, product, rm_core, sim, soft_fht
    if Path(rmproduct.__file__).resolve().parent != (src / "rmproduct").resolve():
        raise ImportError(f"rmproduct imported from {rmproduct.__file__}, not {src}")
    return {"rmproduct": rmproduct, "channel": channel, "cli": cli, "gf2": gf2,
            "product": product, "rm_core": rm_core, "sim": sim, "soft_fht": soft_fht}


def subseed(seed: int, index: int) -> int:
    """A 32-bit simulation seed derived from the workload seed."""
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def wilson(successes: int, trials: int, z: float) -> tuple:
    """Wilson score interval, computed here rather than by the library under test."""
    phat = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (phat + zz / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + zz / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# -- machine speed -----------------------------------------------------------

CALIBRATION_KERNEL = """
import sys, time
import numpy as np

def kernel():
    block = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)
    start = time.perf_counter()
    for _ in range(60):
        pairs = block.reshape(256, 128, 2)
        block = np.concatenate(
            (pairs[:, :, 0] + pairs[:, :, 1], np.maximum(pairs[:, :, 0], pairs[:, :, 1])), axis=1)
        block = block / np.abs(block).max()
        total = 0
        for i in range(2000):
            total += i
    return time.perf_counter() - start

for _ in sys.stdin:
    print(kernel(), flush=True)
"""


class Calibrator:
    """Times a fixed kernel that does not touch the library: small numpy
    array operations, with their allocations, plus an interpreter loop, the
    same mix as a decode.  It runs in a helper process of its own, so the
    library's allocations in this process cannot change its speed.

    On a shared machine whose speed drifts (by up to 2x over minutes where
    this was written), the median of its times in a run over
    NOMINAL_CALIBRATION_S is the slowdown that every reported time of that
    run is divided by.  One call is too short to stand for one sweep; the
    median over a run follows the drift between runs."""

    def __enter__(self):
        self.process = subprocess.Popen([sys.executable, "-c", CALIBRATION_KERNEL],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def __exit__(self, *exc_info):
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def slowdown(calibrations) -> float:
    return statistics.median(calibrations) / NOMINAL_CALIBRATION_S


@dataclasses.dataclass
class Sweep:
    seconds: float  # wall time as measured
    frames: int
    rows: list

    @property
    def fps(self) -> float:
        return self.frames / self.seconds


# -- one run of a workload ---------------------------------------------------

class Runner:
    """Runs one workload's sweep: a run_point call or a CLI sweep."""

    def __init__(self, lib, workload: Workload):
        self.lib = lib
        self.w = workload
        self.sweeps = 0  # sweeps attempted, check sweeps included
        self.n_t = lib["product"].product_code_from_descriptor(workload.code).n_t

    def sweep(self, seed: int, workers: int | None = None):
        """Run once; returns (rows as dicts, result bytes or None, frames)."""
        workers = self.w.workers if workers is None else workers
        self.sweeps += 1
        if self.w.via_cli:
            out = SCRATCH / f"sweep-{self.sweeps}.json"
            argv = ["--code", self.w.code, "--decoder", self.w.mode,
                    "--iterations", str(self.w.iterations),
                    "--ebno", ",".join(repr(e) for e in self.w.ebno_dbs),
                    "--min-errors", str(self.w.min_errors), "--seed", str(seed),
                    "--workers", str(workers), "--format", "json", "--out", str(out)]
            status = self.lib["cli"].main(argv)
            if status != 0:
                raise RuntimeError(f"cli.main exited with {status}")
            data = out.read_bytes()
            out.unlink()
            rows = json.loads(data)["points"]
        else:
            point = self.lib["sim"].run_point(
                self.w.code, mode=self.w.mode, iterations=self.w.iterations,
                ebno_db=self.w.ebno_dbs[0], min_block_errors=self.w.budget + 1,
                max_frames=self.w.budget, seed=seed, workers=workers)
            rows = [dataclasses.asdict(point)]
            data = None
        return rows, data, sum(row["frames"] for row in rows)


def timed_sweeps(runner: Runner, calibrate: Calibrator, seed: int, seconds: float, tracer=None):
    """Repeat the sweep for `seconds`; returns the untraced Sweeps, the
    traced Sweeps, the calibration times taken between sweeps, and one line
    for each sweep that raised (it is counted as failed, and the loop goes on).

    A fixed-budget workload repeats one seed, so every repeat must return
    the same row.  A CLI sweep takes a fresh derived seed each time, so its
    median is not one seed's luck.  With `tracer`, every other sweep is
    traced.  The calibration kernel runs between sweeps, outside their times.
    """
    untraced, traced, failures = [], [], []
    calibrations = [calibrate()]
    least = 2 * MIN_REPEATS if tracer else MIN_REPEATS
    deadline = time.perf_counter() + seconds
    index = 0
    while index < least or time.perf_counter() < deadline:
        trace_this = tracer is not None and index % 2 == 1
        sweep_seed = subseed(seed, index) if runner.w.via_cli else seed
        if trace_this:
            tracer.install(runner.lib)
        try:
            start = time.perf_counter()
            rows, _, frames = runner.sweep(sweep_seed)
            elapsed = time.perf_counter() - start
        except Exception as exc:
            failures.append(f"sweep {index} (seed {sweep_seed}): {exc!r}")
            print(f"sweep failed: {failures[-1]}", file=sys.stderr)
        else:
            (traced if trace_this else untraced).append(Sweep(elapsed, frames, rows))
        finally:
            if trace_this:
                tracer.uninstall()
                tracer.collect()
        calibrations.append(calibrate())
        index += 1
    if len(untraced) == 0 or (tracer is not None and len(traced) == 0):
        raise RuntimeError(f"no sweep completed; first failure: {failures[0]}")
    return untraced, traced, calibrations, failures


def check_rows(checks: Checks, rows, n_t: int, label: str) -> None:
    """Every result row: block_errors <= frames, every block error has
    between 1 and n_t bit errors, the CI brackets the BLER, and
    0 <= ber <= bler <= 1 (information-bit BER cannot exceed BLER)."""
    for row in rows:
        where = f"{label} ebno {row['ebno_db']}"
        checks.check("row.block_errors<=frames", row["block_errors"] <= row["frames"],
                     f"{where}: {row['block_errors']} > {row['frames']}")
        checks.check("row.block_errors<=bit_errors<=n_t*block_errors",
                     row["block_errors"] <= row["bit_errors"] <= n_t * row["block_errors"],
                     f"{where}: {row['bit_errors']} bit errors in {row['block_errors']} blocks")
        checks.check("row.ci_lo<=bler<=ci_hi",
                     row["bler_ci_lo"] <= row["bler"] <= row["bler_ci_hi"],
                     f"{where}: {row['bler_ci_lo']} {row['bler']} {row['bler_ci_hi']}")
        checks.check("row.0<=ber", row["ber"] >= 0.0, f"{where}: ber {row['ber']}")
        checks.check("row.ber<=bler", row["ber"] <= row["bler"],
                     f"{where}: ber {row['ber']:.4g} > bler {row['bler']:.4g}")
        checks.check("row.bler<=1", row["bler"] <= 1.0, f"{where}: bler {row['bler']}")


def check_reference(checks: Checks, reference_points, rows) -> None:
    """The pooled reference BLER of each point lies inside the 99% Wilson
    interval of the check-seed run."""
    for ref, row in zip(reference_points, rows, strict=True):
        p_ref = ref["block_errors"] / ref["frames"]
        lo, hi = wilson(row["block_errors"], row["frames"], Z_99)
        checks.check("bler_within_reference_99ci",
                     ref["ebno_db"] == row["ebno_db"] and lo <= p_ref <= hi,
                     f"ebno {row['ebno_db']}: reference {p_ref:.4g} outside [{lo:.4g}, {hi:.4g}]")


def check_noiseless(checks: Checks, lib, workload: Workload, seed: int) -> None:
    """A seeded block of noiseless codewords decodes to itself."""
    import numpy as np
    product, channel = lib["product"], lib["channel"]
    code = product.product_code_from_descriptor(workload.code)
    rng = np.random.default_rng(subseed(seed, 10**6))
    infos = rng.integers(0, 2, size=(NOISELESS_FRAMES, code.k_t), dtype=np.uint8)
    codewords = product.product_encode_batch(code, infos)
    sigma2 = channel.ebno_db_to_sigma2(workload.ebno_dbs[0], code.rate)
    decided, _ = product.product_decode_batch(
        code, channel.bpsk_modulate(codewords), sigma2, workload.iterations, workload.mode)
    wrong = int((decided != codewords).any(axis=1).sum())
    checks.check("noiseless_codewords_decode_to_themselves", wrong == 0,
                 f"{wrong} of {NOISELESS_FRAMES} frames changed")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (the pool workers), in MiB; ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import numpy as np
import rmproduct
from rmproduct import channel, product
code_text, mode, iterations, ebno_db = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
code = rmproduct.product_code_from_descriptor(code_text)
sigma2 = channel.ebno_db_to_sigma2(ebno_db, code.rate)
received = channel.bpsk_modulate(np.zeros((1, code.n_t), dtype=np.uint8))
product.product_decode_batch(code, received, sigma2, iterations, mode)
print(time.perf_counter() - start)
"""


def setup_seconds(workload: Workload, calibrate: Calibrator) -> tuple:
    """Medians over fresh interpreters of: import rmproduct, build the code,
    decode one frame (which fills the decode tables and codebooks).
    Returns (nominal seconds, seconds as measured)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    measured, calibrations = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload.code, workload.mode,
             str(workload.iterations), repr(workload.ebno_dbs[0])],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
        measured.append(float(done.stdout.strip().splitlines()[-1]))
        calibrations.append(calibrate())
    return statistics.median(measured) / slowdown(calibrations), statistics.median(measured)


# -- provenance --------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def parse_size(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def working_set_bytes(lib, workload: Workload) -> int:
    """Computed, not measured: the chunk's float64 LLR block plus the largest
    per-axis work array (the Walsh spectra, or the brute-force score matrix)."""
    code = lib["product"].product_code_from_descriptor(workload.code)
    frames = min(lib["sim"].CHUNK_FRAMES, workload.budget or lib["sim"].CHUNK_FRAMES)
    block = frames * code.n_t * 8
    per_axis = []
    for comp in code.components:
        fibers = frames * code.n_t // comp.code.n
        if comp.decoder == lib["product"].BF_MAP and workload.mode == "soft":
            per_axis.append(fibers * (1 << comp.code.k) * 8)
        else:
            per_axis.append(block)
    return block + max(per_axis)


def provenance(lib, workload: Workload, seed: int) -> dict:
    import numpy as np
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read(Path("/proc/cpuinfo")).splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = cache_sizes()
    working = {name: working_set_bytes(lib, w) for name, w in WORKLOADS.items()}
    own = working[workload.name]
    l2, l3 = parse_size(caches.get("l2", "")), parse_size(caches.get("l3", ""))
    side = ("fits L2" if own <= l2 else "fits L3" if own <= l3 else "exceeds L3") if l3 else "unknown"
    return {
        "workload": workload.name, "seed": seed,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": git_commit(),
        "working_set_bytes_per_chunk_computed": working,
        "working_set_vs_cache": side,
    }


# -- the run -----------------------------------------------------------------

def per_layer_metrics(lib, workload: Workload, tracer, build_tracer, builds: int,
                      run_slowdown: float, untraced, traced) -> dict:
    """Per-layer metrics from the traced sweeps; times at nominal speed."""
    chunks = tracer.get("product.decode.calls")
    sweeps = len(traced)

    def per_chunk_ms(key):
        return 1000.0 * tracer.get(key) / chunks / run_slowdown

    metrics = {
        "sim.self_ms": (per_chunk_ms("sim.self"), "ms"),
        "sim.pools_created": (tracer.get("sim.pools_created") / sweeps, "count"),
        "sim.useful_frame_ratio": (sum(sweep.frames for sweep in traced) / tracer.get("product.rows"), "ratio"),
        "product.encode_ms": (per_chunk_ms("product.encode.time"), "ms"),
        "rm_core.encode_ms": (per_chunk_ms("rm_core.encode.time"), "ms"),
        "product.decode_ms": (per_chunk_ms("product.decode.time"), "ms"),
        "product.decode_self_ms": (per_chunk_ms("product.decode.self"), "ms"),
        "product.component_calls": (tracer.get("product.component_calls") / chunks, "count"),
        "soft_fht.bfmap_ms": (per_chunk_ms("soft_fht.bfmap.time"), "ms"),
        "fht.bytes_computed": (tracer.get("fht.bytes") / chunks, "B-computed"),
        "channel.modulate_ms": (per_chunk_ms("channel.modulate.time"), "ms"),
        "cli.emit_ms": (per_chunk_ms("cli.emit.time"), "ms"),
        "rm_core.build_ms": (1000.0 * build_tracer.get("rm_core.build.time") / builds / run_slowdown, "ms"),
        "gf2.row_space_check_ms": (1000.0 * build_tracer.get("gf2.row_space_check.time") / builds
                                   / run_slowdown, "ms"),
    }
    spans = {"soft_fht.info_ms": "soft_fht.info", "soft_fht.minsum_ms": "soft_fht.minsum",
             "fht.fht_ms": "fht.fht", "fht.ml_decode_ms": "fht.ml_decode"}
    for metric, span in spans.items():
        for q in AXES:
            metrics[f"{metric}.axis{q}"] = (per_chunk_ms(f"{span}.axis{q}.time"), "ms")

    product, channel = lib["product"], lib["channel"]
    code = product.product_code_from_descriptor(workload.code)
    counter = lib["rmproduct"].OpCounter()
    sigma2 = channel.ebno_db_to_sigma2(workload.ebno_dbs[0], code.rate)
    product.product_decode_batch(code, channel.bpsk_modulate(
        [[0] * code.n_t]), sigma2, workload.iterations, workload.mode, counter)
    metrics["ops.total_per_decode"] = (float(counter.total()), "modeled-ops")
    metrics["ops.depth_per_decode"] = (float(counter.depth), "modeled-ops")

    untraced_fps = statistics.median(sweep.fps for sweep in untraced)
    traced_fps = statistics.median(sweep.fps for sweep in traced)
    metrics["trace.overhead_frac"] = (1.0 - traced_fps / untraced_fps, "fraction")
    return metrics


def check_predictions(checks: Checks, workload: Workload, metrics: dict) -> None:
    nonzero = PREDICTED_NONZERO[workload.name]
    for name in PER_LAYER_ZERO_CHECKED:
        value = metrics[name][0]
        expected = name in nonzero
        checks.check("trace.span_prediction", (value != 0.0) == expected,
                     f"{name} = {value:.4g}, predicted {'non-zero' if expected else 'zero'}")
    ratio = metrics["sim.useful_frame_ratio"][0]
    expected_ratio = 0.0 < ratio <= 1.0 if workload.via_cli else ratio == 1.0
    checks.check("trace.useful_frame_ratio", expected_ratio, f"useful_frame_ratio = {ratio}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    lib = load_library()
    with Calibrator() as calibrate:
        return measure(lib, calibrate, workload, seed, seconds, trace)


def measure(lib, calibrate: Calibrator, workload: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    from tracing import Tracer
    SCRATCH.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    runner = Runner(lib, workload)
    reference = json.loads(REFERENCE.read_text())
    check_seed = reference["check_seed"]

    # Warm-up, outside the timed loop: the check-seed run fills the code
    # cache, the decode tables and codebooks.
    check_rows_, check_bytes, _ = runner.sweep(check_seed)

    tracer = None
    if trace:
        dump_dir = SCRATCH / "trace"
        dump_dir.mkdir()
        tracer = Tracer(str(dump_dir))
    untraced, traced, calibrations, failures = timed_sweeps(runner, calibrate, seed, seconds, tracer)
    run_slowdown = slowdown(calibrations)
    rss_mb = peak_rss_mb()

    # Repeats of a fixed-budget run share one seed; repeats_identical covers them.
    distinct = untraced + traced if workload.via_cli else untraced[:1]
    for sweep in distinct:
        check_rows(checks, sweep.rows, runner.n_t, f"seed {seed}")
    check_rows(checks, check_rows_, runner.n_t, f"check seed {check_seed}")
    check_reference(checks, reference["workloads"][workload.name]["points"], check_rows_)
    check_noiseless(checks, lib, workload, seed)
    if workload.via_cli:
        one_worker = runner.sweep(check_seed, workers=1)[1]
        repeat = runner.sweep(check_seed)[1]
        checks.check("result_bytes_identical_across_workers", one_worker == check_bytes,
                     f"workers=1 and workers={workload.workers} differ")
        checks.check("result_bytes_identical_across_repeats", repeat == check_bytes,
                     "two runs of the check seed differ")
    else:
        first = untraced[0].rows
        checks.check("repeats_identical", all(sweep.rows == first for sweep in untraced + traced),
                     "a repeat of the same seed returned a different row")

    if trace:
        build_tracer = Tracer(str(dump_dir))
        build_tracer.install(lib)
        try:
            builds = SETUP_PROBES
            for _ in range(builds):
                lib["product"].product_code_from_descriptor(workload.code)
        finally:
            build_tracer.uninstall()
        metrics = per_layer_metrics(lib, workload, tracer, build_tracer, builds, run_slowdown,
                                    untraced, traced)
        check_predictions(checks, workload, metrics)
        shutil.rmtree(dump_dir)
    else:
        setup_nominal, setup_measured = setup_seconds(workload, calibrate)
        metrics = {
            "frames_per_s": (statistics.median(sweep.fps for sweep in untraced) * run_slowdown, "1/s"),
            "time_to_target_s": (statistics.median(sweep.seconds for sweep in untraced) / run_slowdown, "s"),
            "setup_s": (setup_nominal, "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
            "checks_passed_frac": ((checks.attempted - checks.failed) / checks.attempted, "fraction"),
        }

    info = provenance(lib, workload, seed)
    info["sweeps_timed"] = len(untraced)
    info["sweeps_traced"] = len(traced)
    info["slowdown"] = run_slowdown
    info["as_measured"] = {
        "frames_per_s": statistics.median(sweep.fps for sweep in untraced),
        "time_to_target_s": statistics.median(sweep.seconds for sweep in untraced),
    }
    if not trace:
        info["as_measured"]["setup_s"] = setup_measured
    info["failed_frac"] = checks.failed / checks.attempted
    info["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                      "failed_on_known_defects": checks.failed - checks.unexpected_failures}
    info["sweeps"] = {"attempted": runner.sweeps, "failed": len(failures)}
    print(json.dumps({"provenance": info}))
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(untraced)} timed sweeps, {len(traced)} traced", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"  {'failed_frac':32s} {info['failed_frac']:14.6g} fraction", file=sys.stderr)
    print(f"  machine slowdown {run_slowdown:.4g} (times above are divided by it); "
          f"as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in info["as_measured"].items()),
          file=sys.stderr)
    checks.report(sys.stderr)
    return {
        "correct": checks.unexpected_failures == 0 and not failures,
        "attempted": runner.sweeps,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass  # absent, or another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
