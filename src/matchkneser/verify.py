"""Machine verification of every headline claim, runnable from the CLI.

Each target re-derives its numbers from scratch with the exact solvers and
compares them against the closed forms. The naive subset-enumeration oracles
here exist only for cross-validation (deletion/Turán duality on random
graphs); production code never calls them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .coloring import chromatic_number, lovasz_chi
from .errors import Deadline, SearchTimeout, ensure_deadline
from .families import FamilyParams, gap_graph, gap_tree, matching_graph, petersen
from .graphs import LabeledGraph, enumerate_matchings, has_r_matching, is_connected, is_tree, make_graph, radius, remove_edges
from .homcert import certify_family
from .kneser import build_matching_kneser, kneser_graph
from .report import VIOLATED, sequence_report
from .turan import generalized_turan, min_deletion_set

PROP1_SEED = 20260809
PROP1_GRAPH_COUNT = 200


# ---------------------------------------------------------------------------
# Independent naive oracles (cross-validation only)
# ---------------------------------------------------------------------------

def matching_edge_masks(G: LabeledGraph, r: int) -> list[int]:
    """Bitmasks (over edge indices) of all r-matchings, by plain subset filtering."""

    masks = []
    for combo in combinations(range(G.m), r):
        seen: set[int] = set()
        ok = True
        for i in combo:
            u, v = G.edges[i]
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok:
            masks.append(sum(1 << i for i in combo))
    return masks


def naive_min_deletion_size(G: LabeledGraph, r: int) -> int:
    """Minimum |A| with no r-matching in G - A, by increasing-size subset enumeration."""

    masks = matching_edge_masks(G, r)
    if not masks:
        return 0
    for k in range(1, G.m + 1):
        for combo in combinations(range(G.m), k):
            deleted = sum(1 << i for i in combo)
            if all(mask & deleted for mask in masks):
                return k
    return G.m


def naive_max_free_edge_count(G: LabeledGraph, r: int) -> int:
    """Maximum edge count of a spanning subgraph without an r-matching."""

    masks = matching_edge_masks(G, r)
    if not masks:
        return G.m
    for k in range(G.m, -1, -1):
        for combo in combinations(range(G.m), k):
            kept = sum(1 << i for i in combo)
            if all(mask & ~kept for mask in masks):
                return k
    return 0


def random_connected_graphs(
    count: int = PROP1_GRAPH_COUNT,
    seed: int = PROP1_SEED,
    max_n: int = 8,
    max_m: int = 12,
) -> list[LabeledGraph]:
    """Seeded pseudo-random connected graphs within the given size bounds."""

    rng = random.Random(seed)
    graphs: list[LabeledGraph] = []
    while len(graphs) < count:
        n = rng.randint(2, max_n)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(n - 1, min(max_m, len(pairs)))
        G = make_graph(n, rng.sample(pairs, m))
        if is_connected(G):
            graphs.append(G)
    return graphs


# ---------------------------------------------------------------------------
# Verification targets
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyResult:
    target: str
    checks: list[Check] = field(default_factory=list)
    # (label, chi, removal bound) for every instance where both were computed
    instances: list[tuple[str, int, int]] = field(default_factory=list)
    unknown: bool = False

    @property
    def ok(self) -> bool:
        return not self.unknown and all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, ok, detail))

    def add_bound_checks(self) -> None:
        bad = [label for label, chi, removal in self.instances if chi > removal]
        self.add(
            "chi <= removal bound on all computed instances",
            not bad,
            "" if not bad else f"violated at {bad}",
        )

    def lines(self) -> list[str]:
        out = [f"[{self.target}]"]
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            out.append(f"  {status}  {c.name}" + (f"  ({c.detail})" if c.detail else ""))
        tail = "VERIFIED" if self.ok else ("UNKNOWN" if self.unknown else "FAILED")
        out.append(f"  => {tail}")
        return out


def verify_petersen(deadline: Deadline | None = None) -> VerifyResult:
    """The snark counterexample: chi = 1 while three deletions are needed."""

    res = VerifyResult("petersen")
    deadline = ensure_deadline(deadline, None)
    P = petersen()
    pms = enumerate_matchings(P, 5)
    res.add("exactly 6 perfect matchings", len(pms) == 6, f"found {len(pms)}")

    mkg = build_matching_kneser(P, 5)
    res.add(
        "matching Kneser graph is edgeless on 6 vertices",
        mkg.graph.n == 6 and mkg.graph.m == 0,
        f"n={mkg.graph.n}, m={mkg.graph.m}",
    )
    cert = chromatic_number(mkg.graph, deadline=deadline)
    res.add("chi = 1 with edgeless witness", cert.k == 1 and cert.witness.kind == "EDGELESS")

    deletion = min_deletion_set(P, 5, deadline=deadline)
    res.add(
        "minimum deletion set has size 3 (optimal)",
        deletion.size == 3 and deletion.optimal,
        f"size={deletion.size}",
    )
    # Optimality double-checked by exhausting all C(15,1)+C(15,2) = 120
    # smaller deletion sets: every one of them leaves a perfect matching.
    smaller = [combo for k in (1, 2) for combo in combinations(P.edges, k)]
    survived = all(has_r_matching(remove_edges(P, combo), 5) for combo in smaller)
    res.add(f"all {len(smaller)} smaller deletion sets leave a 5-matching", survived and len(smaller) == 120)
    res.add("verdict VIOLATED (chi=1 < D=3)", cert.k == 1 and deletion.size == 3 and cert.k < deletion.size)

    res.instances.append(("petersen[r=5]", cert.k, deletion.size))
    res.add_bound_checks()
    return res


def verify_lovasz(deadline: Deadline | None = None) -> VerifyResult:
    """Exact chi of K(l, r) equals l - 2r + 2 on the whole desk-scale grid."""

    res = VerifyResult("lovasz")
    deadline = ensure_deadline(deadline, None)
    for r in (1, 2, 3):
        for l in range(2 * r - 1, 9):
            cert = chromatic_number(kneser_graph(l, r), deadline=deadline)
            expected = lovasz_chi(l, r)
            res.add(
                f"chi(K({l},{r})) = {expected}",
                cert.k == expected,
                f"solver found {cert.k}",
            )
            # Removal bound of the host matching graph: l - r + 1.
            deletion = min_deletion_set(matching_graph(l), r, deadline=deadline)
            res.add(
                f"removal bound of {l}K2 at r={r} is {l - r + 1}",
                deletion.optimal and deletion.size == l - r + 1,
                f"size={deletion.size}",
            )
            res.instances.append((f"matching(l={l})[r={r}]", cert.k, deletion.size))
    res.add_bound_checks()
    return res


THEOREM2_GRID = (
    (3, 1, 1),
    (3, 2, 1),
    (3, 3, 1),
    (4, 1, 1),
    (4, 1, 2),
    (4, 2, 2),
)


def verify_theorem2(deadline: Deadline | None = None) -> VerifyResult:
    """Family grid: certified chi = theta and removal bound theta + gamma, exactly."""

    res = VerifyResult("theorem2")
    deadline = ensure_deadline(deadline, None)
    for r, theta, gamma in THEOREM2_GRID:
        params = FamilyParams(r=r, theta=theta, gamma=gamma)
        label = f"gap(r={r},theta={theta},gamma={gamma})"
        certification = certify_family(params, deadline=deadline)
        res.add(
            f"{label}: certified chi = {theta}",
            certification.chi_certificate.k == theta,
            f"pairs checked {certification.pairs_checked}",
        )
        deletion = min_deletion_set(gap_graph(params), r, deadline=deadline)
        res.add(
            f"{label}: removal bound = {theta + gamma}",
            deletion.optimal and deletion.size == theta + gamma,
            f"size={deletion.size}",
        )
        res.instances.append((label, certification.chi_certificate.k, deletion.size))
    res.add_bound_checks()
    return res


def verify_prop1(deadline: Deadline | None = None) -> VerifyResult:
    """Deletion/Turán duality against the naive oracles on seeded random graphs."""

    res = VerifyResult("prop1")
    deadline = ensure_deadline(deadline, None)
    graphs = random_connected_graphs()
    ex_mismatches = []
    del_mismatches = []
    for idx, G in enumerate(graphs):
        for r in (2, 3):
            ex = generalized_turan(G, r, deadline=deadline)
            oracle_ex = naive_max_free_edge_count(G, r)
            oracle_del = naive_min_deletion_size(G, r)
            if ex != oracle_ex:
                ex_mismatches.append((idx, r, ex, oracle_ex))
            if G.m - ex != oracle_del:
                del_mismatches.append((idx, r, G.m - ex, oracle_del))
    res.add(
        f"ex agrees with the spanning-subgraph oracle on {len(graphs)} graphs x r in (2, 3)",
        not ex_mismatches,
        "" if not ex_mismatches else f"first mismatch (graph, r, ex, oracle) {ex_mismatches[0]}",
    )
    res.add(
        "removal bound agrees with the subset-enumeration oracle",
        not del_mismatches,
        "" if not del_mismatches else f"first mismatch (graph, r, removal, oracle) {del_mismatches[0]}",
    )
    return res


def verify_corollary(deadline: Deadline | None = None) -> VerifyResult:
    """Radius-2 trees: gap reports match theta + r - 2, and the gap grows with r."""

    res = VerifyResult("corollary")
    deadline = ensure_deadline(deadline, None)
    for theta in (1, 2):
        for r in (3, 4):
            tree = gap_tree(r, theta)
            label = f"tree(r={r},theta={theta})"
            res.add(
                f"{label} is a tree of radius 2",
                is_tree(tree) and radius(tree) == 2,
            )
            reports = sequence_report(theta, [r], deadline=deadline)
            rep = reports[0]
            expected_removal = theta + r - 2
            res.add(
                f"{label}: D = {expected_removal}, chi = {theta}, VIOLATED",
                rep.removal_bound == expected_removal
                and rep.chi == theta
                and rep.verdict == VIOLATED
                and rep.prediction_match is True,
                f"D={rep.removal_bound}, chi={rep.chi}, verdict={rep.verdict}",
            )
            if rep.chi is not None and rep.removal_bound is not None:
                res.instances.append((label, rep.chi, rep.removal_bound))

    growth = sequence_report(1, [3, 4, 5], deadline=deadline)
    gaps = [rep.gap for rep in growth]
    res.add(
        "gap sequence at theta=1 over r=3,4,5 is [1, 2, 3], strictly increasing",
        gaps == [1, 2, 3],
        f"gaps={gaps}",
    )
    res.add(
        "every growth instance solved exactly (optimal deletion certificates)",
        all(rep.deletion_certificate is not None and rep.deletion_certificate.optimal for rep in growth),
    )
    for rep in growth:
        if rep.chi is not None and rep.removal_bound is not None:
            res.instances.append((rep.instance, rep.chi, rep.removal_bound))
    res.add_bound_checks()
    return res


TARGETS = {
    "petersen": verify_petersen,
    "lovasz": verify_lovasz,
    "theorem2": verify_theorem2,
    "prop1": verify_prop1,
    "corollary": verify_corollary,
}


def run_target(name: str, deadline: Deadline | None = None) -> VerifyResult:
    try:
        return TARGETS[name](deadline)
    except SearchTimeout as exc:
        res = VerifyResult(name, unknown=True)
        res.add("completed within time budget", False, str(exc))
        return res
