#!/usr/bin/env python3
"""Survey the prescribed-gap family over a parameter grid.

For every (r, theta, gamma) in the grid this certifies chi = theta via the
two homomorphisms, solves the minimum deletion set exactly, and tabulates
the gap between the removal bound and the chromatic number. ``--timeout``
bounds each instance as a whole, certification and deletion search
together. A timeout or a cap overrun leaves a value unknown: its row reads
UNKNOWN, and the script ends with "unknown at: ..." and exit code 3.
"""

import argparse

from matchkneser import Deadline, FamilyParams, gap_graph
from matchkneser.cli import exit_on_predictions, int_at_least, parse_seconds
from matchkneser.report import family_report, reports_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-r", type=int_at_least(3), default=5)
    ap.add_argument("--max-theta", type=int_at_least(1), default=3)
    ap.add_argument("--timeout", type=parse_seconds, default=120.0)
    args = ap.parse_args()

    reports = []
    for r in range(3, args.max_r + 1):
        for theta in range(1, args.max_theta + 1):
            for gamma in range(1, r - 1):
                params = FamilyParams(r=r, theta=theta, gamma=gamma)
                label = f"gap(r={r},theta={theta},gamma={gamma})"
                reports.append(family_report(params, gap_graph(params), label, Deadline(args.timeout)))
    print(reports_table(reports))
    exit_on_predictions(reports)
    print(f"\nall {len(reports)} instances match the closed forms")


if __name__ == "__main__":
    main()
