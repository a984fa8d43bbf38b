#!/usr/bin/env python3
"""Tabulate the growing gap on the radius-2 tree family at fixed theta.

The removal bound D = theta + r - 2 grows linearly in r while the chromatic
number stays pinned at theta, so the gap D - chi walks off to infinity.
"""

import argparse

from matchkneser import sequence_report
from matchkneser.cli import parse_seconds
from matchkneser.report import reports_json, reports_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=int, default=1)
    ap.add_argument("--r", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--timeout", type=parse_seconds, default=300.0)
    args = ap.parse_args()

    reports = sequence_report(args.theta, args.r, time_budget=args.timeout)
    print(reports_json(reports) if args.format == "json" else reports_table(reports))


if __name__ == "__main__":
    main()
