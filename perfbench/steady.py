#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 perfbench/steady.py              # 2 sets x 10 runs of every workload
    python3 perfbench/steady.py --runs 5     # 2 sets x 5 runs

Runs ``perfbench/run.py --trace 0`` on every workload in BENCHMARK.json,
``2 * --runs`` rounds in all. Round i uses seed i + 1, runs the workloads in
an order rotated by i, and goes to set i % 2, so that a slow stretch of the
machine falls on both sets alike. For each workload and end-to-end metric
it prints each set's median and its spread (the distance between the first
and third quartile, as ``statistics.quantiles(values, n=4)`` gives them,
over the median), and how much worse the second set's median is than the
first's. The check passes when every spread except that of ``setup_s`` is
within the metric's bound, the second median is not worse than the first
by more than the bound, and every run fails the same share of its
operations. Raw results are written to ``.bench_build/perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""

    return (later - first) / first if better == "lower" else (first - later) / first


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("need --runs >= 2")

    results: dict[str, list[list[dict]]] = {w: [[], []] for w in names}
    for i in range(2 * args.runs):
        seed, half = i + 1, i % 2
        for w in names[i % len(names):] + names[:i % len(names)]:
            t0 = time.perf_counter()
            res = one_run(w, seed, bench["run_seconds"])
            res["seed"] = seed
            res["run_s"] = time.perf_counter() - t0
            results[w][half].append(res)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"set {half + 1} seed {seed:3d} {w:16s} {res['run_s']:5.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {shown}", flush=True)

    out = ROOT / ".bench_build" / "perfbench" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    ok = True
    print()
    for w in names:
        runs = [r for set_runs in results[w] for r in set_runs]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"{w}: correct in every run: {correct}; failed share(s): "
              f"{', '.join(str(x) for x in sorted(shares))}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in set_runs] for set_runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = worse_by(medians[0], medians[1], metric["better"])
            steady = name == "setup_s" or max(spreads) <= bound
            good = steady and drift <= bound
            ok &= good
            note = "" if name == "setup_s" or max(spreads) < bound / 3 else "  (spread above bound/3)"
            print(f"  {name:26s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + f"  all-runs spread {spread([x for v in sets for x in v]):.3f}"
                  + f"  drift {drift:+.3f}  {'ok' if good else 'FAIL'}{note}")
    print(f"\nsteady: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
