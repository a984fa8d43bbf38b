"""Independent brute-force oracles and input strategies for the test suite.

Nothing in here shares code with the solvers under test: matchings are found
by filtering raw edge subsets, chromatic numbers by exhaustive color
assignment, isomorphism by backtracking over vertex bijections.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx
from hypothesis import strategies as st

from matchkneser import Deadline, LabeledGraph, Matching, SearchTimeout, make_graph


# The prescribed-gap grid of scripts/gap_survey.py at its defaults (r = 3..5,
# theta = 1..3, 1 <= gamma <= r - 2), without gap(5,3,1) and gap(5,3,2),
# which have more r-matchings than the default matching cap.
SURVEY_GRID = tuple(
    (r, theta, gamma)
    for r in range(3, 6)
    for theta in range(1, 4)
    for gamma in range(1, r - 1)
    if (r, theta, gamma) not in ((5, 3, 1), (5, 3, 2))
)


def brute_force_matchings(G: LabeledGraph, r: int) -> list[Matching]:
    """All r-matchings: the edge subsets whose edges are pairwise vertex-disjoint.

    Subsets are grown one edge at a time in edge-list order, each with the
    set of vertices it covers, and a subset is kept only while its edges are
    disjoint. A subset of a matching is a matching, so this finds the same
    subsets as filtering all C(m, r) of them, without visiting the ones
    that already fail on a prefix.
    """

    grown: list[tuple[Matching, frozenset[int], int]] = [((), frozenset(), 0)]
    for _ in range(r):
        grown = [
            (combo + (e,), used | set(e), i + 1)
            for combo, used, start in grown
            for i, e in enumerate(G.edges[start:], start)
            if e[0] not in used and e[1] not in used
        ]
    return sorted(combo for combo, _, _ in grown)


def brute_force_matching_number(G: LabeledGraph) -> int:
    best = 0
    for r in range(1, G.n // 2 + 1):
        if not brute_force_matchings(G, r):
            break
        best = r
    return best


def brute_force_chromatic(G: LabeledGraph) -> int:
    """Least k admitting a proper coloring, by exhaustive assignment in vertex order."""

    if G.n == 0:
        return 0
    adj = [[] for _ in range(G.n)]
    for u, v in G.edges:
        adj[max(u, v)].append(min(u, v))  # only back-edges matter in index order

    color = [0] * G.n

    def assign(v: int, k: int) -> bool:
        if v == G.n:
            return True
        for c in range(k):
            if all(color[u] != c for u in adj[v]):
                color[v] = c
                if assign(v + 1, k):
                    return True
        return False

    for k in range(1, G.n + 1):
        if assign(0, k):
            return k
    raise AssertionError("unreachable: n colors always suffice")


def are_isomorphic(G: LabeledGraph, H: LabeledGraph) -> bool:
    """Backtracking isomorphism test, adequate for the suite's small graphs."""

    if G.n != H.n or G.m != H.m:
        return False
    deg_g = [len(G.adj[v]) for v in range(G.n)]
    deg_h = [len(H.adj[v]) for v in range(H.n)]
    if sorted(deg_g) != sorted(deg_h):
        return False
    mapping = [-1] * G.n
    used = [False] * H.n

    def extend(v: int) -> bool:
        if v == G.n:
            return True
        for w in range(H.n):
            if used[w] or deg_h[w] != deg_g[v]:
                continue
            ok = True
            for u in G.adj[v]:
                if u < v and not H.has_edge(mapping[u], w):
                    ok = False
                    break
            if ok:
                for u in range(v):
                    if not G.has_edge(u, v) and H.has_edge(mapping[u], w):
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def edge_k_colorable(G: LabeledGraph, k: int) -> bool:
    """Exhaustive proper k-edge-coloring search (for the chromatic index checks)."""

    m = G.m
    conflicts = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i):
            if set(G.edges[i]) & set(G.edges[j]):
                conflicts[i].append(j)
    color = [-1] * m

    def assign(i: int, used: int) -> bool:
        if i == m:
            return True
        for c in range(min(used + 1, k)):
            if all(color[j] != c for j in conflicts[i]):
                color[i] = c
                if assign(i + 1, max(used, c + 1)):
                    return True
                color[i] = -1
        return False

    return assign(0, 0)


def to_networkx(G: LabeledGraph) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return H


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8, max_m: int = 12):
    """Random small graphs as a hypothesis strategy."""

    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return make_graph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_m, unique=True))
    return make_graph(n, edges)


class CountingDeadline(Deadline):
    """No time limit; records each check's stage and raises once ``limit`` checks have passed."""

    def __init__(self, limit=None):
        super().__init__(None)
        self.limit = limit
        self.stages = []

    def check(self, what="search"):
        if self.limit is not None and len(self.stages) >= self.limit:
            raise SearchTimeout(f"{what} stopped after {self.limit} checks")
        self.stages.append(what)
