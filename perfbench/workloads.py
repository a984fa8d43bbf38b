"""The four workloads: their instances, the call each operation makes, and its checks.

A workload's ``build`` function runs during set-up: it generates the host
graphs (through the package's ``families`` generators, or the benchmark's own
seeded generator for the random batch) and returns one ``Op`` per instance.
Every pass runs every op once, in order, so each run attempts whole rounds of
the same operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable, Hashable

from checks import (
    CheckError,
    brute_force_deletion,
    check_disjoint_edges,
    check_matchings,
    check_proper,
    disjoint_pair_count,
    gap_matching_count,
    gap_shape,
    kneser_pairs,
    masks_of,
    networkx_matching_number,
    pair_index,
    r_matching_masks,
    require,
    subset_masks,
    subsets,
)

# The prescribed-gap grid of scripts/gap_survey.py at its defaults
# (r = 3..5, theta = 1..3, 1 <= gamma <= r - 2), minus the two instances with
# more r-matchings than certify_family's enumeration cap of 200k.
FAMILY_GRID = tuple(
    (r, theta, gamma)
    for r in range(3, 6)
    for theta in range(1, 4)
    for gamma in range(1, r - 1)
    if (r, theta, gamma) not in ((5, 3, 1), (5, 3, 2))
)
# Instances whose single solve takes more than about 2 s are left out of every
# workload: a run has time for only one or two solves of such an instance, and
# the reference loop timed at the two ends of a 9 s solve says little about
# the shared machine's speed during it. The README names them.
RANDOM_GRAPHS = 40  # the deletion-ladder random batch, half at r = 2, half at r = 3
SURVEY_TIMEOUT = 120.0  # scripts/gap_survey.py's default --timeout


@dataclass
class Op:
    """One solve: ``run`` calls the package, ``check`` verifies the output.

    ``check`` raises ``CheckError`` on a wrong output and returns a string
    when the output is right but incomplete: a sampled certificate, or a
    search that ran out of time. ``matchings`` is the number of r-matchings
    the output's certificate covers. ``late`` holds checks that need
    networkx; they run on ``late_key(output)``, once per distinct key, after
    the timed passes, so networkx is not loaded while peak memory is read.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    matchings: Callable[[Any], int]
    late: Callable[[Hashable], None] | None = None
    late_key: Callable[[Any], Hashable] | None = None


# ---------------------------------------------------------------------------
# chi-exhaust
# ---------------------------------------------------------------------------

def chi_exhaust(mk: Any, L: Any, seed: int) -> list[Op]:
    ops = []
    for r, ls in ((2, range(7, 11)), (3, range(7, 10))):
        for l in ls:
            def run(l: int = l, r: int = r) -> Any:
                K = L.kneser_graph(l, r)
                return K, L.chromatic_number(K)

            ops.append(Op(f"K({l},{r})", run, _kneser_checker(l, r), lambda out: out[0].n))
    return ops


def _kneser_checker(l: int, r: int) -> Callable[[Any], None]:
    def check(out: Any) -> None:
        K, cert = out
        n, k = comb(l, r), l - 2 * r + 2  # Lovasz: chi(K(l, r)) = l - 2r + 2
        require(K.n == n, f"{K.n} vertices, expected C({l},{r}) = {n}")
        masks = subset_masks(l, r)
        check_disjoint_edges(K.edges, masks, n * comb(l - r, r) // 2)
        require(cert.k == k, f"chi = {cert.k}, expected {k}")
        check_proper(cert.coloring, n, k, K.edges)
        kind = cert.witness.kind
        if kind == "CLIQUE":
            clique = cert.witness.vertices
            require(len(clique) == k, f"clique witness has {len(clique)} vertices, chi is {k}")
            require(all(not masks[a] & masks[b] for i, a in enumerate(clique) for b in clique[i + 1:]),
                    "clique witness is not a clique")
        else:
            require(kind == "EXHAUSTION", f"unexpected witness kind {kind}")
            require(cert.witness.failed_k == k - 1, f"exhaustion of {cert.witness.failed_k} colors, chi is {k}")

    return check


# ---------------------------------------------------------------------------
# mkg-build
# ---------------------------------------------------------------------------

def mkg_build(mk: Any, L: Any, seed: int) -> list[Op]:
    FP = mk.families.FamilyParams
    instances = [("petersen r=5", L.petersen(), 5, 1, None)]
    for r, theta, gamma in ((3, 4, 1), (3, 5, 1), (4, 2, 1), (4, 3, 2)):
        instances.append((f"gap({r},{theta},{gamma})", L.gap_graph(FP(r, theta, gamma)), r, theta, gamma))
    instances.append(("gap_tree(5,1)", L.gap_tree(5, 1), 5, 1, 3))
    ops = []
    for label, G, r, chi, gamma in instances:
        def run(G: Any = G, r: int = r) -> Any:
            M = L.build_matching_kneser(G, r)
            return M, L.chromatic_number(M.graph)

        ops.append(Op(label, run, _mkg_checker(G, r, chi, gamma), lambda out: out[0].graph.n))
    return ops


def _mkg_checker(G: Any, r: int, chi: int, gamma: int | None) -> Callable[[Any], None]:
    memo: dict[str, int] = {}

    def check(out: Any) -> None:
        M, cert = out
        if "vertices" not in memo:
            memo["vertices"] = (gap_matching_count(r, chi, gamma) if gamma is not None
                                else len(r_matching_masks(G.edges, r)))
        n = memo["vertices"]
        require(M.graph.n == n and len(M.matchings) == n, f"{M.graph.n} vertices, expected {n} r-matchings")
        bit = check_matchings(M.matchings, G.edges, r)
        masks = masks_of(M.matchings, bit)
        # The vertices are exactly the r-matchings of G (all valid, distinct,
        # and as many as the closed form), so the pair count is G's alone.
        if "pairs" not in memo:
            memo["pairs"] = disjoint_pair_count(masks)
        check_disjoint_edges(M.graph.edges, masks, memo["pairs"])
        require(cert.k == chi, f"chi = {cert.k}, expected {chi}")
        check_proper(cert.coloring, n, chi, M.graph.edges)

    return check


# ---------------------------------------------------------------------------
# deletion-ladder
# ---------------------------------------------------------------------------

def random_connected_graphs(seed: int, count: int) -> list[tuple[int, list[tuple[int, int]], int]]:
    """``count`` seeded (n, edges, r): a random spanning tree on 6 or 7 vertices plus
    each other pair with probability 0.3; r alternates 2, 3."""

    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(6, 7)
        edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
        out.append((n, sorted(edges), 2 + i % 2))
    return out


def deletion_ladder(mk: Any, L: Any, seed: int) -> list[Op]:
    # The random graphs stay at 6 or 7 vertices: at 8, one graph's search memo
    # could add 1.5 MB to the peak, and peak memory then varied by up to 10%
    # from seed to seed.
    instances = []  # (label, G, r, expected size or None, r-matching count or None)
    for i, (n, edges, r) in enumerate(random_connected_graphs(seed, RANDOM_GRAPHS)):
        G = mk.graphs.make_graph(n, edges)
        instances.append((f"random#{i}(n={n},m={len(edges)}) r={r}", G, r, None, None))
    for r, theta in ((4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 1), (6, 2)):
        instances.append((f"gap_tree({r},{theta})", L.gap_tree(r, theta), r, theta + r - 2,
                          gap_matching_count(r, theta, r - 2)))
    instances.append(("petersen r=5", L.petersen(), 5, 3, None))
    for l, r in ((10, 3), (12, 4), (14, 5)):
        instances.append((f"{l}K2 r={r}", L.matching_graph(l), r, l - r + 1, comb(l, r)))

    ops = []
    for label, G, r, size, count in instances:
        memo: dict[str, int] = {}
        if size is not None:
            memo["size"] = size
        if count is not None:
            memo["count"] = count

        def run(G: Any = G, r: int = r) -> Any:
            return L.min_deletion_set(G, r)

        def check(cert: Any, G: Any = G, r: int = r, memo: dict = memo) -> str | None:
            if not cert.optimal:
                return "search timed out: certificate is not marked optimal"
            if "size" not in memo:
                memo["size"] = brute_force_deletion(G.edges, r)
            require(cert.size == memo["size"] == len(cert.deleted),
                    f"deleted {cert.size} edges, expected {memo['size']}")
            require(len(set(cert.deleted)) == cert.size and set(cert.deleted) <= set(G.edges),
                    "deleted edges are not distinct edges of the host")
            return None

        def matchings(cert: Any, G: Any = G, r: int = r, memo: dict = memo) -> int:
            if "count" not in memo:
                memo["count"] = len(r_matching_masks(G.edges, r))
            return memo["count"]

        def late(deleted: tuple, G: Any = G, r: int = r) -> None:
            gone = set(deleted)
            left = [e for e in G.edges if e not in gone]
            nu = networkx_matching_number(G.n, left)
            require(nu < r, f"an {r}-matching survives the deletion (networkx finds {nu})")

        ops.append(Op(label, run, check, matchings, late, lambda cert: cert.deleted))
    return ops


# ---------------------------------------------------------------------------
# family-certify
# ---------------------------------------------------------------------------

def family_certify(mk: Any, L: Any, seed: int) -> list[Op]:
    ops = []
    for r, theta, gamma in FAMILY_GRID:
        params = mk.families.FamilyParams(r, theta, gamma)
        G = L.gap_graph(params)

        def run(params: Any = params, G: Any = G, r: int = r, theta: int = theta, gamma: int = gamma) -> Any:
            cert = L.certify_family(params, time_budget=SURVEY_TIMEOUT)
            deletion = L.min_deletion_set(G, r, time_budget=SURVEY_TIMEOUT)
            report = mk.report.assemble_report(
                instance=f"gap(r={r},theta={theta},gamma={gamma})", r=r, G=G, deletion=deletion,
                chi_cert=cert.chi_certificate, predicted_chi=theta, predicted_removal=theta + gamma,
            )
            return cert, deletion, report

        ops.append(Op(f"gap({r},{theta},{gamma})", run, _family_checker(G, r, theta, gamma),
                      lambda out: out[0].n_matchings))
    return ops


def _family_checker(G: Any, r: int, theta: int, gamma: int) -> Callable[[Any], str | None]:
    t, l, w = gap_shape(r, theta, gamma)
    small_r = r - t
    n = gap_matching_count(r, theta, gamma)

    def check(out: Any) -> str | None:
        cert, deletion, report = out
        require(cert.n_matchings == n, f"n_matchings = {cert.n_matchings}, closed form gives {n}")
        require(cert.chi_certificate.k == theta, f"certified k = {cert.chi_certificate.k}, expected {theta}")
        matchings = cert.forward.source_desc
        require(len(matchings) == n, f"forward map covers {len(matchings)} of {n} matchings")
        bit = check_matchings(matchings, G.edges, r)

        subs = subsets(l, small_r)
        small = cert.kneser_certificate
        require(small.k == theta, f"chi(K({l},{small_r})) = {small.k}, expected {theta}")
        check_proper(small.coloring, len(subs), theta, kneser_pairs(l, small_r))

        # Pull-back: the coloring of a matching is the small coloring of its
        # r - t smallest pair-edge indices.
        index = {s: i for i, s in enumerate(subs)}
        pulled = cert.chi_certificate.coloring
        require(len(pulled) == n, f"pulled-back coloring covers {len(pulled)} of {n} matchings")
        for i, mt in enumerate(matchings):
            pairs = sorted(p for p in (pair_index(e, l, w) for e in mt) if p)
            if len(pairs) < small_r:
                raise CheckError(f"{mt} has fewer than {small_r} pair edges")
            if pulled[i] != small.coloring[index[tuple(pairs[:small_r])]]:
                raise CheckError(f"pulled-back color of matching {i} is not the small color of its forward image")

        back = cert.backward
        require(tuple(back.source_desc) == tuple(subs), "backward map is not over the (r - t)-subsets")
        require(len(back.mapping) == len(subs) and len(set(back.mapping)) == len(subs),
                "backward images are not distinct")
        images = masks_of([matchings[j] for j in back.mapping], bit)
        for a, b in kneser_pairs(l, small_r):
            if images[a] & images[b]:
                raise CheckError(f"disjoint subsets {subs[a]}, {subs[b]} map to intersecting matchings")

        if not deletion.optimal:
            return "deletion search timed out: certificate is not marked optimal"
        require(deletion.size == theta + gamma, f"deletion size {deletion.size}, expected {theta + gamma}")
        require(report.chi == theta and report.removal_bound == theta + gamma,
                f"report has chi = {report.chi}, D = {report.removal_bound}")
        # A certificate without the flag is exhaustive by construction.
        if not getattr(cert, "exhaustive", True):
            return f"pair check sampled: {cert.pairs_checked} of {n * (n - 1) // 2} pairs"
        return None

    return check


WORKLOADS = {
    "chi-exhaust": chi_exhaust,
    "mkg-build": mkg_build,
    "deletion-ladder": deletion_ladder,
    "family-certify": family_certify,
}
