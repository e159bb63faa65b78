"""Command-line front end for Monte-Carlo BLER sweeps."""

import argparse
import math
import os
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
    if text.strip().lower() == "auto":
        return os.cpu_count() or 1
    workers = int(text)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmproduct",
        description="Monte-Carlo block-error-rate sweeps for products of "
                    "Reed-Muller codes over the BPSK/AWGN channel.",
    )
    parser.add_argument("--code", required=True,
                        help="product descriptor, e.g. rm(6,1)xrm(2,1); append :bfmap "
                             "to a component for the exhaustive soft-MAP decoder")
    parser.add_argument("--decoder", choices=("soft", "hard"), default="soft",
                        help="component decoding mode (default: soft)")
    parser.add_argument("--iterations", type=int, default=3, metavar="I",
                        help="decoding iterations per frame (default: 3)")
    parser.add_argument("--ebno", required=True, metavar="GRID",
                        help="Eb/N0 grid in dB: start:stop:step (inclusive) or a comma list")
    parser.add_argument("--min-errors", type=int, default=100, metavar="N",
                        help="block errors to collect per point (default: 100)")
    parser.add_argument("--max-frames", type=int, default=10_000_000, metavar="N",
                        help="frame cap per point (default: 10^7)")
    parser.add_argument("--seed", type=int, default=1, metavar="SEED",
                        help="master seed; each chunk of 256 frames draws from streams "
                             "keyed by (seed, chunk index) (default: 1)")
    parser.add_argument("--workers", default="1", metavar="N|auto",
                        help="worker processes; results do not depend on this (default: 1)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--out", default="stdout", metavar="PATH",
                        help="output path, or 'stdout' (default)")
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
            workers=_parse_workers(args.workers),
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
