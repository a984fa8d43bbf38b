"""Acceptance suite: every headline claim re-derived exactly, one line per criterion.

All quantities are exact combinatorial identities, so every comparison below
is equality with no tolerance. Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion PASS/FAIL lines.
"""

import time
from itertools import combinations

from matchkneser import (
    FamilyParams,
    build_matching_kneser,
    chromatic_number,
    enumerate_matchings,
    gap_graph,
    gap_tree,
    generalized_turan,
    has_r_matching,
    is_tree,
    kneser_graph,
    lovasz_chi,
    matching_graph,
    min_deletion_set,
    petersen,
    radius,
    remove_edges,
    sequence_report,
)
from matchkneser.homcert import certify_family
from matchkneser.report import VIOLATED
from matchkneser.verify import (
    TARGETS,
    THEOREM2_GRID,
    naive_max_free_edge_count,
    naive_min_deletion_size,
    random_connected_graphs,
    run_target,
)


def _report(number: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {number} ({title}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_petersen_counterexample():
    start = time.monotonic()
    failures = []
    P = petersen()

    pms = enumerate_matchings(P, 5)
    if len(pms) != 6:
        failures.append(f"expected 6 perfect matchings, got {len(pms)}")

    mkg = build_matching_kneser(P, 5)
    if (mkg.graph.n, mkg.graph.m) != (6, 0):
        failures.append(f"Kneser graph is ({mkg.graph.n}, {mkg.graph.m}), expected (6, 0)")

    cert = chromatic_number(mkg.graph)
    if cert.k != 1:
        failures.append(f"chi = {cert.k}, expected 1")

    deletion = min_deletion_set(P, 5)
    if deletion.size != 3 or not deletion.optimal:
        failures.append(f"deletion size {deletion.size} (optimal={deletion.optimal}), expected 3")

    smaller = [combo for k in (1, 2) for combo in combinations(P.edges, k)]
    if len(smaller) != 120:
        failures.append(f"expected 120 smaller sets, got {len(smaller)}")
    alive = sum(1 for combo in smaller if has_r_matching(remove_edges(P, combo), 5))
    if alive != len(smaller):
        failures.append(f"only {alive}/{len(smaller)} smaller deletion sets leave a 5-matching")

    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(1, "petersen counterexample", failures)


def test_criterion_2_kneser_formula():
    start = time.monotonic()
    failures = []
    for r in (1, 2, 3):
        for l in range(2 * r - 1, 9):
            got = chromatic_number(kneser_graph(l, r)).k
            expected = l - 2 * r + 2
            if got != expected or lovasz_chi(l, r) != expected:
                failures.append(f"chi(K({l},{r})) = {got}, expected {expected}")
            removal = min_deletion_set(matching_graph(l), r)
            if not removal.optimal or removal.size != l - r + 1:
                failures.append(f"removal bound of {l}K2 at r={r} is {removal.size}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(2, "Kneser chromatic formula", failures)


def test_criterion_3_family_grid():
    start = time.monotonic()
    failures = []
    for r, theta, gamma in THEOREM2_GRID:
        params = FamilyParams(r=r, theta=theta, gamma=gamma)
        label = f"gap(r={r},theta={theta},gamma={gamma})"
        certification = certify_family(params)
        if certification.chi_certificate.k != theta:
            failures.append(f"{label}: certified chi {certification.chi_certificate.k} != {theta}")
        n = certification.n_matchings
        if certification.pairs_checked != n * (n - 1) // 2:
            failures.append(f"{label}: {certification.pairs_checked} of {n * (n - 1) // 2} pairs checked")
        deletion = min_deletion_set(gap_graph(params), r)
        if not deletion.optimal or deletion.size != theta + gamma:
            failures.append(f"{label}: deletion size {deletion.size}, expected {theta + gamma}")
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 300s")
    _report(3, "prescribed chi and removal bound on the family grid", failures)


def test_criterion_4_radius_two_trees():
    failures = []
    for theta in (1, 2):
        for r in (3, 4):
            tree = gap_tree(r, theta)
            label = f"tree(r={r},theta={theta})"
            if not is_tree(tree) or radius(tree) != 2:
                failures.append(f"{label} is not a radius-2 tree")
            rep = sequence_report(theta, [r])[0]
            if rep.removal_bound != theta + r - 2:
                failures.append(f"{label}: D = {rep.removal_bound}, expected {theta + r - 2}")
            if rep.chi != theta:
                failures.append(f"{label}: chi = {rep.chi}, expected {theta}")
            if rep.verdict != VIOLATED:
                failures.append(f"{label}: verdict {rep.verdict}, expected VIOLATED")
    _report(4, "radius-2 trees with growing removal bound", failures)


def test_criterion_5_duality_on_random_graphs():
    start = time.monotonic()
    failures = []
    graphs = random_connected_graphs()
    if len(graphs) != 200:
        failures.append(f"generated {len(graphs)} graphs, expected 200")
    for idx, G in enumerate(graphs):
        for r in (2, 3):
            ex = generalized_turan(G, r)
            if ex != naive_max_free_edge_count(G, r):
                failures.append(f"graph {idx}, r={r}: ex={ex} disagrees with subgraph oracle")
                break
            if G.m - ex != naive_min_deletion_size(G, r):
                failures.append(f"graph {idx}, r={r}: removal disagrees with deletion oracle")
                break
        if failures:
            break
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(5, "deletion/Turan duality on 200 seeded random graphs", failures)


def test_criterion_6_upper_bound_inequality():
    # Re-run every verification target and inspect each instance where both
    # chi and the removal bound were computed exactly.
    failures = []
    instances = []
    for name in TARGETS:
        result = run_target(name)
        if not result.ok:
            failures.append(f"target {name} did not verify")
        instances.extend(result.instances)
    if not instances:
        failures.append("no instances recorded any computed chi")
    failures.extend(
        f"{label}: chi={chi} exceeds D={removal}"
        for label, chi, removal in instances
        if chi > removal
    )
    _report(6, "chi <= removal bound on every computed instance", failures)


def test_criterion_7_growth():
    failures = []
    reports = sequence_report(1, [3, 4, 5])
    gaps = [rep.gap for rep in reports]
    if gaps != [1, 2, 3]:
        failures.append(f"gaps {gaps}, expected [1, 2, 3]")
    if not all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1)):
        failures.append("gap sequence is not strictly increasing")
    for rep in reports:
        if rep.deletion_certificate is None or not rep.deletion_certificate.optimal:
            failures.append(f"{rep.instance}: ex was not confirmed exactly")
        if rep.ex != rep.edge_count - rep.removal_bound:
            failures.append(f"{rep.instance}: ex inconsistent with removal bound")
    _report(7, "gap grows with r at fixed chi", failures)
