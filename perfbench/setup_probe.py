#!/usr/bin/env python3
"""Time one cold set-up of a workload: import matchkneser, generate its hosts.

    python3 perfbench/setup_probe.py <workload> <seed> <trace 0|1>

run.py starts this in a fresh interpreter for every set-up it times, so each
one imports the package and every module the package needs that the
interpreter did not load at start-up, as a user's first call does. Two spans
are timed: the package import, done before anything else, and the
generation of the workload's hosts. The benchmark's own modules are imported
between them, untimed. The last stdout line is one JSON object:
``{"setup_s": <import + generation>, "families_s": <seconds in traced
families calls, 0 when untraced>}``.
"""

import os
import sys
import time

MODULES = ("errors", "graphs", "kneser", "coloring", "turan", "families", "homcert", "report")


def main() -> int:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    for name in MODULES:
        __import__(f"matchkneser.{name}")
    imported = time.perf_counter() - t0

    import json

    import run

    setup_s, families_s = run.generate(workload, seed, run.Tracer() if trace else None)[-2:]
    print(json.dumps({"setup_s": imported + setup_s, "families_s": families_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
