"""Seeded sweeps whose JSON output is kept byte for byte in tests/golden.

`test_golden.py` reruns each grid in process and compares its bytes with the
file.  A change that is meant to change results reruns this script, says so
in CHANGES.md and bumps `sim.RESULT_FORMAT` or `sim.RNG_SCHEME`:

    PYTHONPATH=src python tests/regenerate_golden.py

Exhaustive components of order above one that are not single parity checks,
and order-1 components under :bfmap, are left out: their soft values and
first-axis decisions come from a BLAS matrix product, whose rounding depends
on the build.
"""

import contextlib
import io
from pathlib import Path

from rmproduct import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name -> CLI arguments; every grid uses --seed 7 and --format json
GOLDEN_GRIDS = {
    # the soft-FHT decoder, stopped by the frame cap in a 44-frame partial chunk
    "soft-fht-partial-chunk": ["--code", "rm(6,1)xrm(2,1)", "--ebno", "2.5", "--max-frames", "300"],
    # the single-parity-check closed form at two points, each stopped by its errors
    "soft-parity-check": ["--code", "rm(4,3)xrm(2,1)", "--ebno", "1,2", "--min-errors", "20",
                          "--max-frames", "1024"],
    # hard mode on a 3-axis product whose components are all tabulated
    "hard-cube-tables": ["--code", "rm(3,1)xrm(3,1)xrm(3,1)", "--decoder", "hard",
                         "--ebno", "5:6:0.5", "--min-errors", "30"],
    # hard mode on an untabulated FHT kernel beside a code decoded only through its table
    "hard-untabulated-kernel": ["--code", "rm(5,1)xrm(3,2)", "--decoder", "hard", "--ebno", "0,1",
                                "--min-errors", "30", "--max-frames", "600"],
}


def golden_output(arguments) -> str:
    """The JSON text `cli.main` writes for a grid's arguments at seed 7."""
    with contextlib.redirect_stdout(io.StringIO()) as stream:
        status = cli.main([*arguments, "--seed", "7", "--format", "json", "--out", "stdout"])
    if status != 0:
        raise RuntimeError(f"cli.main exited {status} for {arguments}")
    return stream.getvalue()


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, arguments in GOLDEN_GRIDS.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(golden_output(arguments), encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()
