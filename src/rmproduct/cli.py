"""Command-line front end for Monte-Carlo BLER sweeps."""

import argparse
import dataclasses
import math
import re
import sys

from . import sim

MAX_GRID_POINTS = 10_000


def parse_ebno_grid(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' (inclusive, <= MAX_GRID_POINTS points) or a comma-separated dB list."""
    text = text.strip()
    if not text:
        return ()
    fields = text.split(":" if ":" in text else ",")
    if any(not field.strip() for field in fields):
        raise ValueError(f"empty field in Eb/N0 grid {text!r}")
    if ":" in text:
        if len(fields) != 3:
            raise ValueError(f"expected start:stop:step, got {text!r}")
        start, stop, step = (float(f) for f in fields)
        if not all(math.isfinite(value) for value in (start, stop, step)):
            raise ValueError(f"Eb/N0 range needs finite numbers, got {text!r}")
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        span = (stop - start) / step + 1e-9  # +-inf when the quotient overflows
        if span < 0:
            raise ValueError(f"empty range {text!r}")
        if span >= MAX_GRID_POINTS:
            count = f"{math.floor(span) + 1:,}" if math.isfinite(span) else "over 10^308"
            raise ValueError(f"Eb/N0 range {text!r} has {count} points; "
                             f"at most {MAX_GRID_POINTS:,} are allowed")
        return tuple(start + i * step for i in range(math.floor(span) + 1))
    return tuple(float(f) for f in fields)


def _parse_workers(text: str) -> int:
    """A worker count, or the usable CPUs for 'auto'; sim checks the range."""
    if text.strip().lower() == "auto":
        return sim.usable_cpus()
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a count or 'auto', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmproduct",
        description="Monte-Carlo block-error-rate sweeps for products of "
                    "Reed-Muller codes over the BPSK/AWGN channel.",
    )
    parser.add_argument("--code", required=True,
                        help="product descriptor, e.g. rm(6,1)xrm(2,1); an order-1 component "
                             "decodes with the soft-FHT decoder unless :bfmap follows it, any "
                             "other order with the exhaustive soft-MAP decoder")
    parser.add_argument("--decoder", choices=("soft", "hard"),
                        help="component decoding mode (default: %(default)s)")
    parser.add_argument("--iterations", type=int, metavar="I",
                        help="decoding iterations per frame (default: %(default)s)")
    parser.add_argument("--ebno", dest="ebno_dbs", required=True, metavar="GRID",
                        help="Eb/N0 grid in dB: start:stop:step (inclusive) or a comma list")
    parser.add_argument("--min-errors", dest="min_block_errors", type=int, metavar="N",
                        help="block errors to collect per point (default: %(default)s)")
    parser.add_argument("--max-frames", type=int, metavar="N",
                        help="frame cap per point (default: %(default)s)")
    parser.add_argument("--seed", type=int, metavar="SEED",
                        help="master seed; each chunk of 256 frames draws from streams "
                             "keyed by (seed, chunk index) (default: %(default)s)")
    parser.add_argument("--workers", type=_parse_workers, metavar="N|auto",
                        help="worker processes, or 'auto' for the CPUs this process may "
                             "run on; results do not depend on this (default: %(default)s)")
    parser.add_argument("--format", dest="out_format", choices=("csv", "json"),
                        help="output format (default: %(default)s)")
    parser.add_argument("--out", dest="out_path", metavar="PATH",
                        help="output path, or 'stdout' (default: %(default)s)")
    # each dest is a SimConfig field, so the config's defaults are the flags' defaults
    parser.set_defaults(**{field.name: field.default for field in dataclasses.fields(sim.SimConfig)
                           if field.default is not dataclasses.MISSING})
    # argparse takes only plain negative numbers for values, so '--ebno -2:0:1'
    # would read the grid as an option; no flag here starts with a digit
    parser._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    settings = vars(build_parser().parse_args(argv))
    try:
        settings["ebno_dbs"] = parse_ebno_grid(settings["ebno_dbs"])
        config = sim.SimConfig(**settings)
        points = sim.run_sweep(config)
        sim.emit(points, config)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
