#!/usr/bin/env python3
"""Tabulate the growing gap on the radius-2 tree family at fixed theta.

The removal bound D = theta + r - 2 grows linearly in r while the chromatic
number stays pinned at theta, so the gap D - chi walks off to infinity.
The script exits as gap_survey.py does: 1 with "prediction mismatch at:
..." when a computed value contradicts its closed form, and otherwise 3
with "unknown at: ..." when some value is unknown (a timeout or a cap
overrun); the table is printed either way.
"""

import argparse

from matchkneser import Deadline, sequence_report
from matchkneser.cli import exit_on_predictions, int_at_least, parse_seconds
from matchkneser.report import reports_table, write_json


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=int_at_least(1), default=1)
    ap.add_argument("--r", type=int_at_least(3), nargs="+", default=[3, 4, 5])
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--timeout", type=parse_seconds, default=300.0)
    args = ap.parse_args()

    reports = sequence_report(args.theta, args.r, deadline=Deadline(args.timeout))
    if args.format == "json":
        write_json([rep.to_json_dict() for rep in reports], None)
    else:
        print(reports_table(reports))
    exit_on_predictions(reports)


if __name__ == "__main__":
    main()
