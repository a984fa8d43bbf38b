"""Independent brute-force oracles and input strategies for the test suite.

Nothing in here shares code with the solvers under test: matchings are found
by filtering raw edge subsets, and a matching or a homomorphism map is
validated edge by edge against the host; chromatic numbers come from
exhaustive color assignment, isomorphism from backtracking over vertex
bijections. The two references that are not brute force pin a faster
search to the same output: ``reference_k_coloring`` is the k-coloring
search as it stood before it moved to saturation-level bitsets, kept for
its branching order, and ``reference_matching_blocks`` is the r-matching
enumerator as it stood before it kept each last-level remainder's bits,
kept for its blocks. ``check_enumeration_index`` is a check on the
package's bisection, and ``unit_blocks`` and ``enumerated_blocks`` read
the package's enumeration units as those blocks; none is an oracle.
"""

from __future__ import annotations

import re
import sys
from functools import cache
from itertools import combinations, islice
from math import comb, perm
from operator import or_
from pathlib import Path

import networkx as nx
from hypothesis import strategies as st

from matchkneser import (
    Deadline,
    Edge,
    FamilyParams,
    GraphConstructionError,
    HomWitness,
    LabeledGraph,
    Matching,
    ParameterError,
    SearchTimeout,
    make_graph,
)
from matchkneser.graphs import enumeration_index, matching_blocks


# The prescribed-gap grid of scripts/gap_survey.py at its defaults (r = 3..5,
# theta = 1..3, 1 <= gamma <= r - 2), without gap(5,3,1) and gap(5,3,2):
# with 546,661 and 232,421 r-matchings they certify in about a second, but
# the brute-force oracles some tests run over this grid cannot keep up.
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


def readme_library_block() -> str:
    """The Python block under the README's ``## Library`` heading."""

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M)
    return block


def edge_set(G: LabeledGraph) -> set[Edge]:
    """Every edge of G in both orientations, read from ``G.edges``: build it once per graph."""

    return {*G.edges, *((v, u) for u, v in G.edges)}


def make_matching(G: LabeledGraph, edges) -> Matching:
    """Canonicalize ``edges`` into a matching of ``G``; validates membership and disjointness."""

    canon = sorted((u, v) if u < v else (v, u) for u, v in edges)
    host_edges = edge_set(G)
    used: set[int] = set()
    for u, v in canon:
        if (u, v) not in host_edges:
            raise GraphConstructionError(f"edge ({u}, {v}) does not belong to the host graph")
        if u in used or v in used:
            raise GraphConstructionError(f"edges are not pairwise vertex-disjoint at ({u}, {v})")
        used.add(u)
        used.add(v)
    return tuple(canon)


def find_violation(witness: HomWitness, source: LabeledGraph, target: LabeledGraph) -> Edge | None:
    """The first source edge whose endpoints do not map to a target edge, or None."""

    if len(witness.mapping) != source.n:
        raise ParameterError(f"mapping covers {len(witness.mapping)} of {source.n} source vertices")
    target_edges = edge_set(target)
    for u, v in source.edges:
        a, b = witness.mapping[u], witness.mapping[v]
        if a == b or (a, b) not in target_edges:
            return (u, v)
    return None


def verify_homomorphism(witness: HomWitness, source: LabeledGraph, target: LabeledGraph) -> bool:
    """True iff every source edge maps to a target edge (exhaustive check)."""

    return find_violation(witness, source, target) is None


def gap_matching_count(params: FamilyParams) -> int:
    """The number of r-matchings of ``gap_graph(params)``, by a closed form.

    A matching uses h of the t hubs, a of them matched into the x-block and
    h - a into the w-block, and fills the other r - h edges with pairs
    x_i y_i whose x_i no hub took.
    """

    p = params
    return sum(
        comb(p.t, h) * comb(h, a) * perm(p.l, a) * perm(p.w_count, h - a) * comb(p.l - a, p.r - h)
        for h in range(p.t + 1)
        for a in range(h + 1)
    )


def count_matchings(G: LabeledGraph, r: int) -> int:
    """The number of r-matchings of G, by recursion on vertices, not edges.

    The lowest vertex still present is either left unmatched or matched to
    one of its present neighbors, and the count is memoised on the set of
    vertices present and the edges still needed.
    """

    nbrs = [0] * G.n
    for u, v in G.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u

    @cache
    def count(present: int, need: int) -> int:
        if need == 0:
            return 1
        if present.bit_count() < 2 * need:
            return 0
        low = present & -present
        rest = present ^ low
        total = count(rest, need)
        partners = nbrs[low.bit_length() - 1] & rest
        while partners:
            bit = partners & -partners
            partners ^= bit
            total += count(rest ^ bit, need - 1)
        return total

    return count((1 << G.n) - 1, r)


def reference_matching_blocks(G: LabeledGraph, r: int) -> list[list[int]]:
    """The r-matching blocks of G, each last-level remainder split into bits per block.

    The depth-first search with the four counting cuts, as
    ``graphs.matching_blocks`` ran it before it kept a remainder's bits
    from one block to the next; it has no deadline.
    """

    edges = G.edges
    m = len(edges)
    lower = [0] * G.n
    upper = [0] * G.n
    for i, (u, v) in enumerate(edges):
        lower[u] |= 1 << i
        upper[v] |= 1 << i
    touching = list(map(or_, lower, upper))
    upper_desc = upper[::-1]
    lower_end = [u for u, _ in edges]
    full = (1 << m) - 1
    later = [(full >> (i + 1) << (i + 1)) & ~(touching[u] | touching[v]) for i, (u, v) in enumerate(edges)]

    def room(avail: int, k: int) -> bool:
        if avail.bit_count() < k:
            return False
        start = lower_end[(avail & -avail).bit_length() - 1]
        return bool(
            next(islice(filter(avail.__and__, islice(touching, start, None)), 2 * k - 1, None), 0)
            and next(islice(filter(avail.__and__, islice(lower, start, None)), k - 1, None), 0)
            and next(islice(filter(avail.__and__, upper_desc), k - 1, None), 0)
        )

    blocks: list[list[int]] = []

    def grow(mask: int, avail: int, need: int) -> None:
        if need == 2:
            while avail:
                low = avail & -avail
                avail ^= low
                rest = avail & later[low.bit_length() - 1]
                if rest:
                    base = mask | low
                    block: list[int] = []
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        block.append(base | bit)
                    blocks.append(block)
            return
        while room(avail, need):
            low = avail & -avail
            avail ^= low
            rest = avail & later[low.bit_length() - 1]
            if rest.bit_count() >= need - 1:
                grow(mask | low, rest, need - 1)

    if r == 1:
        if m:
            blocks.append([1 << i for i in range(m)])
    elif m >= r:
        grow(0, full, r)
    return blocks


def unit_blocks(unit: tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]) -> list[list[int]]:
    """A unit ``(prefix, lows, bits)`` of ``graphs.matching_blocks`` as its blocks, one new list per low.

    A block is the run of matchings that share their first r - 1 edges:
    ``prefix | lows[j] | b`` for each b in ``bits[j]``.
    """

    prefix, lows, bits = unit
    return [[prefix | low | b for b in tops] for low, tops in zip(lows, bits)]


def enumerated_blocks(G: LabeledGraph, r: int, **kwargs) -> list[list[int]]:
    """Every block of every unit ``graphs.matching_blocks(G, r, **kwargs)`` yields, in order."""

    return [block for unit in matching_blocks(G, r, **kwargs) for block in unit_blocks(unit)]


def check_enumeration_index(masks: list[int]) -> None:
    """``enumeration_index`` finds every mask at its own index and refuses non-members.

    The non-members are each mask with its top bit moved up by one, where
    that is not a member: same-size masks that sit between members in the
    enumeration order, so a search that lands next to the right index is
    caught.
    """

    assert [enumeration_index(masks, mask) for mask in masks] == list(range(len(masks)))
    members = set(masks)
    moved = (mask ^ top ^ (top << 1) for mask in masks for top in [1 << (mask.bit_length() - 1)])
    outsiders = [x for x in moved if x not in members]
    assert all(enumeration_index(masks, x) is None for x in outsiders)
    if masks:
        assert enumeration_index(masks, 0) is None


def flower_snark(n: int) -> LabeledGraph:
    """The flower snark J(n), n odd, with 4n vertices: a_i, b_i, c_i, d_i are 4i .. 4i + 3.

    Each a_i is joined to b_i, c_i and d_i; the b_i form an n-cycle, and the
    c_i and d_i one 2n-cycle c_0 .. c_(n-1) d_0 .. d_(n-1). Cubic, bridgeless
    and not 3-edge-colorable for odd n >= 5, so it has no two edge-disjoint
    perfect matchings.
    """

    pairs = []
    for i in range(n):
        a, b, c, d = range(4 * i, 4 * i + 4)
        _, next_b, next_c, next_d = range(4 * ((i + 1) % n), 4 * ((i + 1) % n) + 4)
        pairs += [(a, b), (a, c), (a, d), (b, next_b)]
        # The last c and d cross over, so the c- and d-paths close into one cycle.
        pairs += [(c, next_c), (d, next_d)] if i < n - 1 else [(c, next_d), (d, next_c)]
    return make_graph(4 * n, pairs)


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


def reference_k_coloring(G: LabeledGraph, k: int) -> list[int] | None:
    """The saturation-guided k-coloring search that rescans every vertex per node.

    Branches on the uncolored vertex with the most distinctly colored
    neighbors (ties by lowest index) and tries the colors used so far plus
    one fresh color, lowest first. None means no k-coloring exists.
    """

    n = G.n
    adj = [0] * n
    for u, v in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    color = [-1] * n
    neighbor_colors = [0] * n  # per-vertex bitmask of colors on colored neighbors
    full = (1 << k) - 1

    def descend(colored: int, used: int) -> bool:
        if colored == n:
            return True
        pick, pick_sat = -1, -1
        for v in range(n):
            if color[v] == -1:
                sat = neighbor_colors[v].bit_count()
                if sat > pick_sat:
                    pick, pick_sat = v, sat
                    if sat >= k:
                        break
        v = pick
        if neighbor_colors[v] == full:
            return False
        tryable = ~neighbor_colors[v] & ((1 << min(k, used + 1)) - 1)
        while tryable:
            bit = tryable & -tryable
            tryable ^= bit
            c = bit.bit_length() - 1
            color[v] = c
            touched = []
            rest = adj[v]
            while rest:
                ubit = rest & -rest
                rest ^= ubit
                u = ubit.bit_length() - 1
                if color[u] == -1 and not neighbor_colors[u] & bit:
                    neighbor_colors[u] |= bit
                    touched.append(u)
            if descend(colored + 1, max(used, c + 1)):
                return True
            for u in touched:
                neighbor_colors[u] ^= bit
            color[v] = -1
        return False

    limit = sys.getrecursionlimit()  # one level per vertex
    sys.setrecursionlimit(max(limit, 4 * n + 1000))
    try:
        return color if descend(0, 0) else None
    finally:
        sys.setrecursionlimit(limit)


def are_isomorphic(G: LabeledGraph, H: LabeledGraph) -> bool:
    """Backtracking isomorphism test, adequate for the suite's small graphs."""

    if G.n != H.n or G.m != H.m:
        return False
    deg_g = [len(G.adj[v]) for v in range(G.n)]
    deg_h = [len(H.adj[v]) for v in range(H.n)]
    if sorted(deg_g) != sorted(deg_h):
        return False
    g_edges, h_edges = edge_set(G), edge_set(H)
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
                if u < v and (mapping[u], w) not in h_edges:
                    ok = False
                    break
            if ok:
                for u in range(v):
                    if (u, v) not in g_edges and (mapping[u], w) in h_edges:
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
