"""Command-line driver: generate instances, solve them, verify the claims.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error,
3 timeout (result unknown). Identical invocations produce byte-identical
output; the only environment influence is MATCHKNESER_TIMEOUT overriding
the default time budget (a value that is not a number is a usage error).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .coloring import DEFAULT_TIME_BUDGET, chromatic_number
from .errors import (
    Deadline,
    GraphConstructionError,
    KneserSizeError,
    ParameterError,
    SearchTimeout,
    VerificationError,
)
from .families import FamilyParams, gap_graph, gap_tree, matching_graph, petersen
from .graphs import read_edgelist, write_edgelist, edgelist_lines
from .homcert import certify_family, hom_witness_lines
from .kneser import DEFAULT_MATCHING_CAP, build_matching_kneser, write_kneser_files
from .report import assemble_report, gap_report, reports_json, reports_table
from .turan import min_deletion_set
from .verify import TARGETS, run_target

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

TIMEOUT_ENV_VAR = "MATCHKNESER_TIMEOUT"


def _default_timeout() -> float:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw is None:
        return DEFAULT_TIME_BUDGET
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if math.isnan(seconds):
        raise ParameterError(f"{TIMEOUT_ENV_VAR}={raw!r} is not a number of seconds")
    return seconds


def _matching_cap(text: str) -> int:
    """The ``--kneser-cap`` value: a non-negative integer."""

    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchkneser",
        description="Exact chromatic numbers, Turán numbers, and certificates "
        "for matching Kneser graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    timeout = _default_timeout()

    # Each subcommand takes only the flags its runner reads, so a flag it
    # would ignore is a usage error instead.
    def add_timeout_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--timeout", type=float, default=timeout, metavar="SECONDS")

    def add_solve_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
        add_timeout_flag(p)

    def add_cap_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kneser-cap", type=_matching_cap, default=DEFAULT_MATCHING_CAP, metavar="N")

    gen = sub.add_parser("gen", help="write a family instance in edge-list format")
    gen.add_argument("--family", required=True, choices=("matching", "gap", "tree", "petersen"))
    gen.add_argument("--l", type=int)
    gen.add_argument("--r", type=int)
    gen.add_argument("--theta", type=int)
    gen.add_argument("--gamma", type=int)
    gen.add_argument("--out", type=Path)

    kne = sub.add_parser("kneser", help="build the matching Kneser graph of a graph file")
    kne.add_argument("--in", dest="infile", type=Path, required=True)
    kne.add_argument("--r", type=int, required=True)
    kne.add_argument("--out", type=Path, required=True, help="base path for .edges/.matchings files")
    add_timeout_flag(kne)
    add_cap_flag(kne)

    chi = sub.add_parser("chi", help="exact chromatic number of a graph file")
    chi.add_argument("--in", dest="infile", type=Path, required=True)
    chi.add_argument("--out", type=Path, help="write the certificate as JSON")
    add_solve_flags(chi)

    tur = sub.add_parser("turan", help="minimum deletion set and ex(G, rK2) of a graph file")
    tur.add_argument("--in", dest="infile", type=Path, required=True)
    tur.add_argument("--r", type=int, required=True)
    tur.add_argument("--out", type=Path, help="write the certificate as JSON")
    add_solve_flags(tur)

    gap = sub.add_parser("gap", help="gap report (chi vs removal bound) of a graph file")
    gap.add_argument("--in", dest="infile", type=Path, required=True)
    gap.add_argument("--r", type=int, required=True)
    gap.add_argument("--out", type=Path, help="write the report as JSON")
    add_solve_flags(gap)
    add_cap_flag(gap)

    cert = sub.add_parser("certify", help="full family pipeline: certified chi plus gap report")
    cert.add_argument("--r", type=int, required=True)
    cert.add_argument("--theta", type=int, required=True)
    cert.add_argument("--gamma", type=int, required=True)
    cert.add_argument("--out", type=Path, help="base path for .json/.forward.txt/.backward.txt")
    add_solve_flags(cert)
    add_cap_flag(cert)

    ver = sub.add_parser("verify", help="run verification targets")
    ver.add_argument(
        "targets",
        nargs="+",
        choices=tuple(TARGETS) + ("all",),
        metavar="TARGET",
        help=f"one of {', '.join(TARGETS)} or 'all'",
    )
    add_solve_flags(ver)

    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"--{name} is required for this invocation")


def _run_gen(args: argparse.Namespace) -> int:
    if args.family == "matching":
        _require(args, "l")
        G = matching_graph(args.l)
    elif args.family == "gap":
        _require(args, "r", "theta", "gamma")
        G = gap_graph(FamilyParams(r=args.r, theta=args.theta, gamma=args.gamma))
    elif args.family == "tree":
        _require(args, "r", "theta")
        G = gap_tree(args.r, args.theta)
    else:
        G = petersen()
    text = "\n".join(edgelist_lines(G))
    if args.out is not None:
        write_edgelist(G, args.out)
        print(f"wrote {args.out} ({G.n} vertices, {G.m} edges)")
    else:
        print(text)
    return EXIT_OK


def _run_kneser(args: argparse.Namespace) -> int:
    G = read_edgelist(args.infile)
    mkg = build_matching_kneser(G, args.r, cap=args.kneser_cap, deadline=Deadline(args.timeout))
    graph_path, sidecar_path = write_kneser_files(mkg, args.out)
    print(f"wrote {graph_path} ({mkg.graph.n} vertices, {mkg.graph.m} edges) and {sidecar_path}")
    return EXIT_OK


def _run_chi(args: argparse.Namespace) -> int:
    G = read_edgelist(args.infile)
    cert = chromatic_number(G, deadline=Deadline(args.timeout))
    payload = json.dumps(cert.to_json_dict(), indent=2)
    if args.out is not None:
        args.out.write_text(payload + "\n")
    if args.fmt == "json":
        print(payload)
    else:
        print(f"chi = {cert.k} (witness {cert.witness.kind})")
    return EXIT_OK


def _run_turan(args: argparse.Namespace) -> int:
    G = read_edgelist(args.infile)
    cert = min_deletion_set(G, args.r, deadline=Deadline(args.timeout))
    payload = json.dumps(cert.to_json_dict(), indent=2)
    if args.out is not None:
        args.out.write_text(payload + "\n")
    if args.fmt == "json":
        print(payload)
    else:
        deleted = " ".join(f"({u},{v})" for u, v in cert.deleted)
        status = "optimal" if cert.optimal else "upper bound only (timed out)"
        print(f"removal = {cert.size} ({status}), ex = {G.m - cert.size}, deleted: {deleted}")
    return EXIT_OK if cert.optimal else EXIT_UNKNOWN


def _run_gap(args: argparse.Namespace) -> int:
    G = read_edgelist(args.infile)
    rep = gap_report(
        G,
        args.r,
        instance=args.infile.stem,
        deadline=Deadline(args.timeout),
        kneser_cap=args.kneser_cap,
    )
    if args.out is not None:
        args.out.write_text(reports_json([rep]) + "\n")
    print(reports_json([rep]) if args.fmt == "json" else reports_table([rep]))
    return EXIT_UNKNOWN if rep.verdict == "UNKNOWN" else EXIT_OK


def _run_certify(args: argparse.Namespace) -> int:
    params = FamilyParams(r=args.r, theta=args.theta, gamma=args.gamma)
    deadline = Deadline(args.timeout)
    certification = certify_family(params, deadline=deadline, cap=args.kneser_cap)
    G = gap_graph(params)
    rep = assemble_report(
        f"gap(r={args.r},theta={args.theta},gamma={args.gamma})",
        args.r,
        G,
        min_deletion_set(G, args.r, deadline=deadline),
        certification.chi_certificate,
    )
    if args.out is not None:
        base = args.out
        Path(str(base) + ".json").write_text(reports_json([rep]) + "\n")
        Path(str(base) + ".forward.txt").write_text(
            "\n".join(hom_witness_lines(certification.forward)) + "\n"
        )
        Path(str(base) + ".backward.txt").write_text(
            "\n".join(hom_witness_lines(certification.backward)) + "\n"
        )
    if args.fmt == "json":
        print(reports_json([rep]))
    else:
        print(f"certified chi = {certification.chi_certificate.k} "
              f"({certification.n_matchings} r-matchings, "
              f"{certification.pairs_checked} pairs checked)")
        print(reports_table([rep]))
    return EXIT_UNKNOWN if rep.verdict == "UNKNOWN" else EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    names = list(TARGETS) if "all" in args.targets else list(dict.fromkeys(args.targets))
    results = [run_target(name, Deadline(args.timeout)) for name in names]
    if args.fmt == "json":
        print(
            json.dumps(
                [
                    {
                        "target": r.target,
                        "ok": r.ok,
                        "unknown": r.unknown,
                        "checks": [
                            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in r.checks
                        ],
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            print("\n".join(r.lines()))
    if any(r.unknown for r in results):
        return EXIT_UNKNOWN
    return EXIT_OK if all(r.ok for r in results) else EXIT_FAILED


_RUNNERS = {
    "gen": _run_gen,
    "kneser": _run_kneser,
    "chi": _run_chi,
    "turan": _run_turan,
    "gap": _run_gap,
    "certify": _run_certify,
    "verify": _run_verify,
}


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
    except ParameterError as exc:  # a malformed environment default
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _RUNNERS[args.subcommand](args)
    except (ParameterError, GraphConstructionError, KneserSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
