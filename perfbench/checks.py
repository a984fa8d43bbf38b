"""Independent computations the benchmark checks matchkneser's outputs against.

Nothing here imports the package: subsets come from itertools, matching counts
from closed forms, disjoint-pair counts from inclusion-exclusion, deletion
optima from brute force over edge subsets, and the "no r-matching left" test
from networkx. Each check raises ``CheckError`` with a message naming the
first violated property.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, perm
from typing import Iterable, Sequence


class CheckError(AssertionError):
    """A package output disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    """Raise ``CheckError(message)`` unless ``cond``.

    Loops over every matching or edge test inline instead, so that the
    message is formatted only on a failure.
    """

    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# The prescribed-gap family, recomputed from its definition
# ---------------------------------------------------------------------------

def gap_shape(r: int, theta: int, gamma: int) -> tuple[int, int, int]:
    """(t, l, w): hub count, matched pairs and padding vertices of gap(r, theta, gamma)."""

    t = r - 1 - gamma
    l = theta + 2 * gamma
    return t, l, t * comb(l, r - t) + l


def gap_matching_count(r: int, theta: int, gamma: int) -> int:
    """r-matchings of gap(r, theta, gamma): s hub edges, r - s of the l pair edges.

    The s hubs pick distinct partners among the l + w vertices of the x/w side
    not already covered by the chosen pair edges.
    """

    t, l, w = gap_shape(r, theta, gamma)
    return sum(comb(t, s) * comb(l, r - s) * perm(l + w - (r - s), s) for s in range(min(t, r) + 1))


def pair_index(edge: tuple[int, int], l: int, w: int) -> int:
    """1-based i when ``edge`` is the pair edge x_i y_i, else 0.

    Vertices are numbered x-block, w-block, y-block, hubs; so x_i = i - 1 and
    y_i = l + w + i - 1.
    """

    u, v = edge
    return u + 1 if u < l and v == u + l + w else 0


# ---------------------------------------------------------------------------
# Matchings and disjoint pairs
# ---------------------------------------------------------------------------

def check_matchings(matchings: Sequence[tuple], host_edges: Iterable[tuple[int, int]], r: int) -> dict:
    """Each entry is r distinct host edges on 2r distinct vertices, and no entry repeats.

    Returns a map from host edge to its bit, for the mask-based checks.
    """

    bit = {e: 1 << i for i, e in enumerate(sorted(host_edges))}
    seen = set()
    for mt in matchings:
        if len(mt) != r:
            raise CheckError(f"{mt} does not have {r} edges")
        ends = set()
        for e in mt:
            if e not in bit:
                raise CheckError(f"{mt} uses {e}, which is not a host edge")
            ends.update(e)
        if len(ends) != 2 * r:
            raise CheckError(f"{mt} is not vertex-disjoint")
        seen.add(frozenset(mt))
    require(len(seen) == len(matchings), "a matching is listed twice")
    return bit


def masks_of(matchings: Sequence[tuple], bit: dict) -> list[int]:
    out = []
    for mt in matchings:
        m = 0
        for e in mt:
            m |= bit[e]
        out.append(m)
    return out


def disjoint_pair_count(masks: Sequence[int]) -> int:
    """Unordered pairs of edge-disjoint matchings, by inclusion-exclusion.

    #{M' : M' disjoint from M} = sum over sub-matchings A of M of
    (-1)^|A| * #{M' : A is a subset of M'}; M itself cancels out because
    every A is one of its own subsets.
    """

    containing: dict[int, int] = {}
    for m in masks:
        sub = m
        while sub:
            containing[sub] = containing.get(sub, 0) + 1
            sub = (sub - 1) & m
    total = 0
    n = len(masks)
    for m in masks:
        count = n
        sub = m
        while sub:
            count += -containing[sub] if sub.bit_count() & 1 else containing[sub]
            sub = (sub - 1) & m
        total += count
    require(total % 2 == 0, "inclusion-exclusion gave an odd ordered-pair count")
    return total // 2


def check_disjoint_edges(edges: Sequence[tuple[int, int]], masks: Sequence[int], expected: int) -> None:
    """Every edge joins two edge-disjoint matchings, edges are distinct, and all pairs are there."""

    prev = (-1, -1)
    for u, v in edges:
        if not (prev < (u, v) and u < v):
            raise CheckError(f"edge list is not strictly increasing at ({u}, {v})")
        if masks[u] & masks[v]:
            raise CheckError(f"edge ({u}, {v}) joins matchings that share an edge")
        prev = (u, v)
    require(len(edges) == expected, f"{len(edges)} edges, but {expected} disjoint pairs exist")


def check_proper(coloring: Sequence[int], n: int, k: int, edges: Iterable[tuple[int, int]]) -> None:
    require(len(coloring) == n, f"coloring covers {len(coloring)} of {n} vertices")
    require(all(0 <= c < k for c in coloring), f"coloring uses a color outside 0..{k - 1}")
    for u, v in edges:
        if coloring[u] == coloring[v]:
            raise CheckError(f"edge ({u}, {v}) is monochromatic")


# ---------------------------------------------------------------------------
# Kneser graphs K(l, r) from itertools
# ---------------------------------------------------------------------------

def subsets(l: int, r: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, l + 1), r))


def subset_masks(l: int, r: int) -> list[int]:
    return [sum(1 << i for i in s) for s in subsets(l, r)]


def kneser_pairs(l: int, r: int) -> list[tuple[int, int]]:
    masks = subset_masks(l, r)
    return [(i, j) for i in range(len(masks)) for j in range(i + 1, len(masks)) if not masks[i] & masks[j]]


# ---------------------------------------------------------------------------
# Deletion sets
# ---------------------------------------------------------------------------

def r_matching_masks(edges: Sequence[tuple[int, int]], r: int) -> list[int]:
    """Every r-matching of the edge list as a bitmask over edge positions."""

    out = []
    for combo in combinations(range(len(edges)), r):
        ends = {v for i in combo for v in edges[i]}
        if len(ends) == 2 * r:
            out.append(sum(1 << i for i in combo))
    return out


def brute_force_deletion(edges: Sequence[tuple[int, int]], r: int) -> int:
    """The least k such that some k edges meet every r-matching, by subset search."""

    targets = r_matching_masks(edges, r)
    for k in range(len(edges) + 1):
        for combo in combinations(range(len(edges)), k):
            hit = sum(1 << i for i in combo)
            if all(t & hit for t in targets):
                return k
    raise CheckError("unreachable: deleting every edge meets every matching")


def networkx_matching_number(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Maximum matching size by networkx: Hopcroft-Karp when bipartite, else blossom."""

    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    if nx.is_bipartite(G):
        side = nx.bipartite.color(G)
        top = [v for v, c in side.items() if c == 0]
        return len(nx.bipartite.hopcroft_karp_matching(G, top_nodes=top)) // 2
    return len(nx.max_weight_matching(G, maxcardinality=True))
