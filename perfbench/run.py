#!/usr/bin/env python3
"""Run one matchkneser benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chi-exhaust --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy. Each workload runs closed
loop in one process and one thread. Set-up (importing the package and
generating the host graphs) is timed ``SETUP_PROBES`` times first, each in a
fresh interpreter (setup_probe.py); the median is ``setup_s``. Then the
package is imported and the hosts generated once more in this process, and
passes over the workload's instances run until ``--seconds`` is used up (at
least one pass). A fixed pure-Python reference loop is timed before the
first solve of a pass and after every solve. Each solve's time is divided by
the mean of the two reference times around it, so that a shared machine's
changing speed, which moves both alike, drops out. A pass's time is the sum
over its operations of each one's median ratio across the passes, times
``REFERENCE_S``, the loop's median time on the reference VM: the pass time at
that VM's usual speed. Each output is checked against the benchmark's own
computations right after its solve, outside the timed region and in a forked
child, so that checker memory stays out of ``peak_rss_mb``; an output equal
to one already checked in the run reuses that verdict. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.

The traced run makes one untraced pass, then wraps the calls into each layer
(see spans.py) and makes one traced pass; ``trace.overhead_s`` is the traced
pass time minus the untraced one. Its spans are written to
``.bench_build/perfbench/``.

``--workload all`` runs every workload in its own fresh process, one after
the other, and prints one summary line per workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import combinations
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

from checks import CheckError
from setup_probe import MODULES
from spans import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 21  # cold set-ups timed per run; setup_s is their median
REFERENCE_S = 0.010  # reference_loop's median time on the reference VM (see README)
ENTRY_CALLS = {  # benchmark-side calls into each layer: attribute -> (module, span name)
    "gap_graph": ("families", "families.gap_graph"),
    "gap_tree": ("families", "families.gap_tree"),
    "petersen": ("families", "families.petersen"),
    "matching_graph": ("families", "families.matching_graph"),
    "kneser_graph": ("kneser", "kneser.kneser_graph"),
    "build_matching_kneser": ("kneser", "kneser.build_matching_kneser"),
    "chromatic_number": ("coloring", "coloring.chromatic_number"),
    "min_deletion_set": ("turan", "turan.min_deletion_set"),
    "certify_family": ("homcert", "homcert.certify_family"),
}
END_TO_END = {  # name -> unit
    "certified_matchings_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_package() -> SimpleNamespace:
    """The package's modules, imported from ``src``."""

    pkg = importlib.import_module("matchkneser")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"run.py: imported matchkneser from {origin}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"matchkneser.{m}") for m in MODULES})


def _counts(span: str):
    if span == "kneser.build_matching_kneser":
        return lambda M, *a: {"kneser.vertices": M.graph.n, "kneser.edges": M.graph.m,
                              "kneser.pairs_tested": M.graph.n * (M.graph.n - 1) // 2}
    if span == "homcert.certify_family":
        return lambda c, *a: {"homcert.pairs_checked": c.pairs_checked,
                              "homcert.all_pairs": c.n_matchings * (c.n_matchings - 1) // 2}
    return None


def point_layers(L: SimpleNamespace, mk: SimpleNamespace, tracer: Any = None) -> None:
    """Aim the benchmark's calls at the package functions, traced or not."""

    for attr, (mod, span) in ENTRY_CALLS.items():
        fn = getattr(getattr(mk, mod), attr)
        setattr(L, attr, fn if tracer is None else tracer.wrap(span, fn, count=_counts(span)))


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: dict[str, int] = {}
        self.verdicts: dict[tuple[int, int], tuple[str | None, bool]] = {}  # (op index, output hash) -> verdict
        self.pending: dict[tuple[int, Any], list] = {}  # (op index, late key) -> [op, times]

    def fail(self, label: str, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong
        key = f"{label}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1


def check_apart(check: Any, out: Any) -> tuple[str | None, bool]:
    """``check(out)`` in a forked child: (fault or None, whether the output is wrong).

    The child's allocations stay out of this process's ``ru_maxrss``, so
    ``peak_rss_mb`` is the package's peak plus the benchmark's hosts, not the
    checker's.
    """

    read, write = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's code, whatever happens
        try:
            os.close(read)
            try:
                verdict = {"fault": check(out)}
            except CheckError as exc:
                verdict = {"wrong": str(exc)}
            except Exception:
                verdict = {"crash": traceback.format_exc()}
            with os.fdopen(write, "w") as fh:
                json.dump(verdict, fh)
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    verdict = json.loads(text) if text else {"crash": "the check process died without a verdict"}
    if "crash" in verdict:
        raise RuntimeError(f"a check crashed:\n{verdict['crash']}")
    return (verdict["wrong"], True) if "wrong" in verdict else (verdict["fault"], False)


def settle(tally: Tally, i: int, op: Any, out: Any) -> int:
    """Check one solve's output and count it. Returns the r-matchings it covers."""

    if isinstance(out, Exception):  # a timeout or a crash is a failed operation; the run goes on
        tally.fail(op.label, f"{type(out).__name__}: {out}")
        return 0
    # An output equal (by hash) to one already checked in this run gets that
    # output's verdict; the solvers are deterministic, so every pass after
    # the first normally takes this path.
    seen = (i, hash(out))
    if seen not in tally.verdicts:
        tally.verdicts[seen] = check_apart(op.check, out)
    fault, wrong = tally.verdicts[seen]
    if fault:
        tally.fail(op.label, f"wrong output: {fault}" if wrong else fault, wrong)
        return 0
    if op.late is not None:
        tally.pending.setdefault((i, op.late_key(out)), [op, 0])[1] += 1
    return op.matchings(out)


def reference_loop() -> int:
    """Fixed pure-Python work of the package's kind: frozensets, disjointness tests, a dict.

    It takes about ``REFERENCE_S`` on the reference VM. It never calls the
    package, so a change to the package leaves its time alone; only the
    machine's speed moves it.
    """

    ms = [frozenset(c) for c in combinations(range(13), 4)]
    disjoint = 0
    for i in range(0, len(ms), 2):
        a = ms[i]
        for b in ms[i + 1:i + 400]:
            if a.isdisjoint(b):
                disjoint += 1
    index = {m: i for i, m in enumerate(ms)}
    return disjoint + len(index)


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def run_pass(ops: list, tally: Tally) -> tuple[list[float], list[float], int]:
    """One pass over every op, with the reference loop timed before the first solve and after each.

    Returns (solve seconds per op, reference seconds (one more than ops),
    r-matchings covered by checked certificates).
    """

    busy = []
    refs = [time_reference()]
    covered = 0
    for i, op in enumerate(ops):
        tally.attempted += 1
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:
            out = exc
        busy.append(perf_counter() - t0)
        covered += settle(tally, i, op, out)
        del out  # not alive during the next solve, whose peak memory counts
        refs.append(time_reference())
    return busy, refs, covered


def reference_units(busy: list[float], refs: list[float]) -> list[float]:
    """Each solve's time over the mean of the reference times taken just before and just after it."""

    return [t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(busy)]


def pass_seconds(passes: list[list[float]]) -> float:
    """The time of one pass: each op's median across passes, summed."""

    return sum(statistics.median(times) for times in zip(*passes))


def run_late_checks(tally: Tally) -> None:
    for (_, key), (op, times) in tally.pending.items():
        try:
            op.late(key)
        except CheckError as exc:
            for _ in range(times):
                tally.fail(op.label, f"wrong output: {exc}", wrong=True)


def generate(workload: str, seed: int, tracer: Tracer | None) -> tuple[SimpleNamespace, SimpleNamespace, list, float, float]:
    """Generate the workload's hosts, importing the package first if it is not yet.

    Returns (modules, layer calls, ops, generation seconds, seconds in
    ``families`` calls; the last is 0 when untraced).
    """

    mk = import_package()
    first = tracer.mark() if tracer is not None else 0
    t0 = perf_counter()
    L = SimpleNamespace()
    point_layers(L, mk, tracer)
    ops = WORKLOADS[workload](mk, L, seed)
    seconds = perf_counter() - t0
    families = 0.0
    if tracer is not None:
        families = sum(v[1] for k, v in tracer.totals(first).items() if k.startswith("families."))
    return mk, L, ops, seconds, families


def cold_set_ups(workload: str, seed: int, trace: bool) -> tuple[float, float]:
    """Median set-up and families seconds over ``SETUP_PROBES`` fresh interpreters."""

    probes = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(p["setup_s"] for p in probes),
            statistics.median(p["families_s"] for p in probes))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = perf_counter()
    setup_s, families_s = cold_set_ups(workload, seed, trace)
    tracer = Tracer() if trace else None
    mk, L, ops, *_ = generate(workload, seed, tracer)
    tally = Tally()
    if tracer is not None:
        return measure_layers(workload, seed, mk, L, ops, tally, tracer, families_s)

    passes, units, ref_times, covered = [], [], [], []
    while True:
        busy, refs, matchings = run_pass(ops, tally)
        passes.append(busy)
        units.append(reference_units(busy, refs))
        ref_times += refs
        covered.append(matchings)
        # Stop when another pass would overrun; only the first pass pays for
        # full checks, so the next one should take about its solve time.
        if perf_counter() - start + sum(busy) + sum(refs) > seconds:
            break
    peak_rss_mb = maxrss_mb()
    run_late_checks(tally)
    wall = pass_seconds(passes)
    reference_wall = REFERENCE_S * pass_seconds(units)
    metrics = {
        "certified_matchings_per_s": statistics.median(covered) / reference_wall,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "tally": tally,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "text": {"wall_s": (wall, "s"), "reference_wall_s": (reference_wall, "s"),
                 "reference_loop_s": (statistics.median(ref_times), "s"), "passes": (len(passes), "count")},
    }


def measure_layers(workload: str, seed: int, mk: SimpleNamespace, L: SimpleNamespace, ops: list,
                   tally: Tally, tracer: Tracer, families_s: float) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics come from the traced one."""

    point_layers(L, mk, None)
    wall = sum(run_pass(ops, tally)[0])
    tracer.install(vars(mk))
    point_layers(L, mk, tracer)
    first = tracer.mark()
    traced = sum(run_pass(ops, tally)[0])
    tracer.uninstall()
    metrics = layer_metrics(tracer.totals(first), tracer.counters)
    run_late_checks(tally)
    metrics["families.generate_s"] = families_s
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - wall
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(span_file)
    return {
        "tally": tally,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()},
        "text": {"wall_s": (wall, "s"), "spans": (str(span_file.relative_to(ROOT)), "file")},
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one summary line each."""

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {shown}")
        status |= 0 if result["correct"] else 1
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "matchkneser" / "__init__.py").is_file():
        print(f"run.py: no matchkneser sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = result["tally"]
    for reason, times in sorted(tally.reasons.items()):
        print(f"FAILED x{times}  {reason}")
    for name, (value, unit) in result["text"].items():
        print(f"{name} = {value} {unit}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"checks: {'all outputs correct' if tally.correct else 'WRONG OUTPUTS (see FAILED lines)'}; "
          f"attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
