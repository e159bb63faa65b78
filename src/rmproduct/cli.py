"""Command-line front end for Monte-Carlo BLER sweeps."""

import argparse
import math
import sys

from . import sim


def parse_ebno_grid(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' (inclusive) or a comma-separated dB list."""
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
        count = int((stop - start) / step + 1e-9) + 1
        if count < 1:
            raise ValueError(f"empty range {text!r}")
        return tuple(start + i * step for i in range(count))
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
    defaults = sim.SimConfig
    parser = argparse.ArgumentParser(
        prog="rmproduct",
        description="Monte-Carlo block-error-rate sweeps for products of "
                    "Reed-Muller codes over the BPSK/AWGN channel.",
    )
    parser.add_argument("--code", required=True,
                        help="product descriptor, e.g. rm(6,1)xrm(2,1); append :bfmap "
                             "to a component for the exhaustive soft-MAP decoder")
    parser.add_argument("--decoder", choices=("soft", "hard"), default=defaults.decoder,
                        help="component decoding mode (default: %(default)s)")
    parser.add_argument("--iterations", type=int, default=defaults.iterations, metavar="I",
                        help="decoding iterations per frame (default: %(default)s)")
    parser.add_argument("--ebno", required=True, metavar="GRID",
                        help="Eb/N0 grid in dB: start:stop:step (inclusive) or a comma list")
    parser.add_argument("--min-errors", type=int, default=defaults.min_block_errors,
                        metavar="N", help="block errors to collect per point (default: %(default)s)")
    parser.add_argument("--max-frames", type=int, default=defaults.max_frames, metavar="N",
                        help="frame cap per point (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=defaults.seed, metavar="SEED",
                        help="master seed; each chunk of 256 frames draws from streams "
                             "keyed by (seed, chunk index) (default: %(default)s)")
    parser.add_argument("--workers", type=_parse_workers, default=defaults.workers,
                        metavar="N|auto",
                        help="worker processes, or 'auto' for the CPUs this process may "
                             "run on; results do not depend on this (default: %(default)s)")
    parser.add_argument("--format", choices=("csv", "json"), default=defaults.out_format,
                        help="output format (default: %(default)s)")
    parser.add_argument("--out", default=defaults.out_path, metavar="PATH",
                        help="output path, or 'stdout' (default: %(default)s)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = sim.SimConfig(
            code=args.code,
            decoder=args.decoder,
            iterations=args.iterations,
            ebno_dbs=parse_ebno_grid(args.ebno),
            min_block_errors=args.min_errors,
            max_frames=args.max_frames,
            seed=args.seed,
            workers=args.workers,
            out_format=args.format,
            out_path=args.out,
        )
        points = sim.run_sweep(config)
        sim.emit(points, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
