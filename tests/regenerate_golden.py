"""Seeded sweeps whose JSON output is kept byte for byte in tests/golden.

`test_golden.py` reruns each grid in process and compares its bytes with the
file.  A change that is meant to change results reruns this script, says so
in CHANGES.md and bumps `sim.RESULT_FORMAT` or `sim.RNG_SCHEME`:

    PYTHONPATH=src python tests/regenerate_golden.py

Exhaustive components of order above one that are not single parity checks,
and order-1 components under :bfmap, are left out: their soft values and
first-axis decisions come from a BLAS matrix product, whose rounding depends
on the build.

The JSON holds only counts, which a change of an ulp in a soft kernel rarely
moves, so for the soft grids in LLR_DIGEST_GRIDS the script also keeps the
sha256 of chunk 0's final LLRs in soft-llr-digests.json.  Those paths are
elementwise IEEE arithmetic, so the digests do not depend on BLAS.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from rmproduct import channel, cli, product, sim

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

# soft grids whose chunk-0 LLRs are kept as digests: no BLAS product on their paths
LLR_DIGEST_GRIDS = ("soft-fht-partial-chunk", "soft-parity-check")
LLR_DIGESTS = GOLDEN_DIR / "soft-llr-digests.json"


def golden_output(arguments) -> str:
    """The JSON text `cli.main` writes for a grid's arguments at seed 7."""
    with contextlib.redirect_stdout(io.StringIO()) as stream:
        status = cli.main([*arguments, "--seed", "7", "--format", "json", "--out", "stdout"])
    if status != 0:
        raise RuntimeError(f"cli.main exited {status} for {arguments}")
    return stream.getvalue()


def chunk_llr_digest(arguments) -> str:
    """sha256 of the C-ordered <f8 bytes of the final LLR tensor that a grid's
    chunk 0 decodes to at its first Eb/N0 and seed 7, drawn and decoded as
    `sim._run_chunk` does."""
    settings = vars(cli.build_parser().parse_args([*arguments, "--seed", "7"]))
    code = product.product_code_from_descriptor(settings["code"])
    sigma2 = channel.ebno_db_to_sigma2(cli.parse_ebno_grid(settings["ebno_dbs"])[0], code.rate)
    count = min(sim.CHUNK_FRAMES, settings["max_frames"])
    infos, noise = sim._chunk_draws(code, sigma2, settings["seed"], 0, count)
    received = channel.bpsk_modulate(product.product_encode_batch(code, infos)) + noise
    _, llrs = product.product_decode_batch(code, received, sigma2, settings["iterations"],
                                           settings["decoder"])
    return hashlib.sha256(np.ascontiguousarray(llrs, dtype="<f8").tobytes()).hexdigest()


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, arguments in GOLDEN_GRIDS.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(golden_output(arguments), encoding="utf-8")
        print(path)
    digests = {name: chunk_llr_digest(GOLDEN_GRIDS[name]) for name in LLR_DIGEST_GRIDS}
    LLR_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(LLR_DIGESTS)


if __name__ == "__main__":
    main()
