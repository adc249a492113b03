"""Monte Carlo against the exact oracle over a small policy matrix.

Builds the constant-displacement binary policies with N in {1, 2, 4} slices
and v in {0, 0.5, 1} at r_sn = 0.01, alpha_sq = 2, runs ``monte_carlo`` and
``exact_error_small`` on each through pskexp's public API, and prints one
JSON document with both values and the Monte Carlo error counts.  It
judges nothing; the benchmark's checks do.

    python3 bench/crosscheck.py --seed 7 --trials 5000
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from pskexp import receiver
from pskexp.constellation import OperatingRatios, SignalScale, bpsk

SLICES = (1, 2, 4)
DISPLACEMENTS = (0.0, 0.5, 1.0)
R_SN = 0.01
ALPHA_SQ = 2.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    args = parser.parse_args(argv)

    ratios = OperatingRatios(R_SN, 1.0, 1.0)
    constellation = bpsk()
    cases = []
    for i, slices in enumerate(SLICES):
        for j, v in enumerate(DISPLACEMENTS):
            policy = receiver.OpenLoopPolicy(
                (complex(v),) * slices,
                SignalScale(ALPHA_SQ, slices, 1),
                constellation,
                ratios,
            )
            exact = receiver.exact_error_small(policy)
            report = receiver.monte_carlo(
                policy, args.trials, seed=args.seed * 16 + 3 * i + j
            )
            cases.append(
                {
                    "slices": slices,
                    "v": v,
                    "exact": exact.p_e,
                    "mc": report.p_e,
                    "error_counts": list(report.error_counts),
                }
            )
    doc = {
        "r_sn": R_SN,
        "alpha_sq": ALPHA_SQ,
        "phases": list(constellation.phases),
        "trials": args.trials,
        "seed": args.seed,
        "cases": cases,
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
