"""Record the pooled reference BLER of every workload into reference.json.

    python3 perfbench/record_reference.py

The references pool many frames from seeds that the benchmark's own runs do
not use, so their BLER is far more precise than any single benchmark run.
run.py checks that each reference BLER lies inside the 99% Wilson interval
of the workload's run at `check_seed`.  Re-record only when the decoder's
error rate is meant to change, and say so where the change is described.
"""

import json
import sys

from run import REFERENCE, WORKLOADS, git_commit, load_library

CHECK_SEED = 2022
REFERENCE_SEED = 10_000
SOFT_FRAMES = 100_352
BFMAP_RUNS = 32
CUBE_ERRORS = 4000


def main() -> int:
    sim = load_library()["sim"]
    out = {"check_seed": CHECK_SEED, "recorded_at_commit": git_commit(), "workloads": {}}
    for name, w in WORKLOADS.items():
        points = []
        for ebno_db in w.ebno_dbs:
            common = dict(mode=w.mode, iterations=w.iterations, ebno_db=ebno_db)
            if w.via_cli:
                runs = [sim.run_point(w.code, min_block_errors=CUBE_ERRORS, max_frames=10**8,
                                      seed=REFERENCE_SEED, workers=2, **common)]
            elif w.budget >= 256:
                runs = [sim.run_point(w.code, min_block_errors=SOFT_FRAMES + 1, max_frames=SOFT_FRAMES,
                                      seed=REFERENCE_SEED, workers=2, **common)]
            else:
                # small runs keep the brute-force score matrix below 1 GB
                runs = [sim.run_point(w.code, min_block_errors=w.budget + 1, max_frames=w.budget,
                                      seed=REFERENCE_SEED + i, workers=1, **common)
                        for i in range(BFMAP_RUNS)]
            point = {"ebno_db": ebno_db, "frames": sum(r.frames for r in runs),
                     "block_errors": sum(r.block_errors for r in runs)}
            print(name, point, file=sys.stderr)
            points.append(point)
        out["workloads"][name] = {"code": w.code, "mode": w.mode, "iterations": w.iterations,
                                  "points": points}
    REFERENCE.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
