"""Command-line driver: generate instances, solve them, verify the claims.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error,
3 timeout (result unknown). Identical invocations produce byte-identical
output; the only environment influence is MATCHKNESER_TIMEOUT overriding
the default time budget (a value that is not a number of seconds, NaN
included, is a usage error, as it is for ``--timeout``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable

from .coloring import chromatic_number
from .errors import (
    DEFAULT_TIME_BUDGET,
    Deadline,
    GraphConstructionError,
    KneserSizeError,
    ParameterError,
    SearchTimeout,
    VerificationError,
)
from .families import FamilyParams, gap_graph, gap_tree, matching_graph, petersen
from .graphs import read_edgelist, write_edgelist, edgelist_lines
from .homcert import CERTIFY_MATCHING_CAP, certify_family, hom_witness_lines
from .kneser import DEFAULT_MATCHING_CAP, build_matching_kneser, write_kneser_files
from .report import GapReport, assemble_report, gap_report, json_text, reports_json, reports_table
from .turan import min_deletion_set
from .verify import TARGETS, run_target

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

TIMEOUT_ENV_VAR = "MATCHKNESER_TIMEOUT"


def parse_seconds(text: str) -> float:
    """The value of a ``--timeout`` flag or of MATCHKNESER_TIMEOUT: any float but NaN.

    A NaN budget would never expire. The experiment scripts parse their
    ``--timeout`` with this too.
    """

    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if math.isnan(seconds):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number of seconds")
    return seconds


def _default_timeout() -> float:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw is None:
        return DEFAULT_TIME_BUDGET
    try:
        return parse_seconds(raw)
    except argparse.ArgumentTypeError as exc:
        raise ParameterError(f"{TIMEOUT_ENV_VAR}={exc}") from None


def int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type`` for an integer flag with a lower bound.

    A value below ``low`` is a usage error that names the bound. The
    experiment scripts bound their r and theta flags with this too.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def exit_on_predictions(reports: list[GapReport]) -> None:
    """End an experiment script by its rows' prediction flags.

    Exits 1 with "prediction mismatch at: [...]" when a computed value
    contradicts its prediction, and otherwise 3, with "unknown at: [...]" on
    stderr, when some value is unknown. Returns when every prediction is met.
    """

    bad = [rep.instance for rep in reports if rep.prediction_match is False]
    if bad:
        raise SystemExit(f"prediction mismatch at: {bad}")
    unknown = [rep.instance for rep in reports if rep.prediction_match is None]
    if unknown:
        print(f"unknown at: {unknown}", file=sys.stderr)
        raise SystemExit(EXIT_UNKNOWN)


# gen's families: the parameter flags each one reads, and its generator.
_GEN_FAMILIES = {
    "matching": (("l",), lambda a: matching_graph(a.l)),
    "gap": (("r", "theta", "gamma"), lambda a: gap_graph(FamilyParams(r=a.r, theta=a.theta, gamma=a.gamma))),
    "tree": (("r", "theta"), lambda a: gap_tree(a.r, a.theta)),
    "petersen": ((), lambda a: petersen()),
}


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
        p.add_argument("--timeout", type=parse_seconds, default=timeout, metavar="SECONDS")

    def add_solve_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
        add_timeout_flag(p)

    def add_cap_flag(p: argparse.ArgumentParser, default: int = DEFAULT_MATCHING_CAP) -> None:
        p.add_argument("--kneser-cap", type=int_at_least(0), default=default, metavar="N")

    gen = sub.add_parser("gen", help="write a family instance in edge-list format")
    gen.add_argument("--family", required=True, choices=tuple(_GEN_FAMILIES))
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
    add_cap_flag(cert, CERTIFY_MATCHING_CAP)

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
    reads, build = _GEN_FAMILIES[args.family]
    unread = [f"--{name}" for name in ("l", "r", "theta", "gamma")
              if name not in reads and getattr(args, name) is not None]
    if unread:
        raise ParameterError(f"--family {args.family} does not read {', '.join(unread)}")
    _require(args, *reads)
    G = build(args)
    if args.out is not None:
        write_edgelist(G, args.out)
        print(f"wrote {args.out} ({G.n} vertices, {G.m} edges)")
    else:
        print("\n".join(edgelist_lines(G)))
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
    payload = json_text(cert.to_json_dict())
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
    payload = json_text(cert.to_json_dict())
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
            json_text(
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
                ]
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
