"""Finite simple graphs with dense integer vertices, plus exact matching machinery.

Graphs are immutable after construction: edge deletion returns a new graph
value, and all operations are pure functions of their inputs, except
``repair_matching``, which updates a caller-owned mate array in place for
incremental searches over one mutable adjacency. Matchings are kept in a
canonical form (lexicographically sorted tuples of ``(u, v)`` edges with
``u < v``) so that equality and ordering are structural.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .errors import GraphConstructionError, ParameterError

Edge = tuple[int, int]
Matching = tuple[Edge, ...]

ROLE_KINDS = ("x", "y", "z", "w")


@dataclass(frozen=True)
class LabeledGraph:
    """A simple undirected graph on vertices ``0..n-1``.

    ``edges`` is sorted and duplicate-free with every edge ``(u, v)``
    satisfying ``u < v``. ``roles`` optionally tags each vertex with a
    construction label such as ``"x2"`` or ``"w13"`` (empty string for
    untagged vertices); labels are metadata only and never influence any
    algorithm.
    """

    n: int
    edges: tuple[Edge, ...]
    roles: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, indexed by vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_set

    def role_of(self, v: int) -> str:
        if self.roles is None:
            return ""
        return self.roles[v]


def _canonical_edge(u: int, v: int, n: int) -> Edge:
    if not (0 <= u < n and 0 <= v < n):
        raise GraphConstructionError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
    if u == v:
        raise GraphConstructionError(f"loop edge ({u}, {v}) is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


def _validate_roles(n: int, roles: Iterable[str]) -> tuple[str, ...]:
    labels = tuple(roles)
    if len(labels) != n:
        raise GraphConstructionError(f"roles must cover all {n} vertices, got {len(labels)} labels")
    seen: dict[str, list[int]] = {k: [] for k in ROLE_KINDS}
    for v, lab in enumerate(labels):
        if lab == "":
            continue
        kind, idx = lab[0], lab[1:]
        if kind not in ROLE_KINDS or not idx.isdigit() or int(idx) < 1:
            raise GraphConstructionError(f"vertex {v} has malformed role label {lab!r}")
        seen[kind].append(int(idx))
    for kind, idxs in seen.items():
        if idxs and sorted(idxs) != list(range(1, len(idxs) + 1)):
            raise GraphConstructionError(f"role indices for {kind!r} must be 1..{len(idxs)} without gaps")
    return labels


def make_graph(n: int, pairs: Iterable[tuple[int, int]], roles: Iterable[str] | None = None) -> LabeledGraph:
    """Build a canonical graph from vertex pairs; duplicates collapse, loops are rejected."""

    if n < 0:
        raise GraphConstructionError("vertex count must be non-negative")
    edges = sorted({_canonical_edge(u, v, n) for u, v in pairs})
    role_tuple = _validate_roles(n, roles) if roles is not None else None
    return LabeledGraph(n=n, edges=tuple(edges), roles=role_tuple)


def remove_edges(G: LabeledGraph, drop: Iterable[Edge]) -> LabeledGraph:
    """Return a new graph with the given edges deleted (roles preserved)."""

    gone = {(u, v) if u < v else (v, u) for u, v in drop}
    kept = tuple(e for e in G.edges if e not in gone)
    return LabeledGraph(n=G.n, edges=kept, roles=G.roles)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def is_connected(G: LabeledGraph) -> bool:
    """True iff the graph has a single component (vacuously true for n <= 1)."""

    if G.n <= 1:
        return True
    seen = bytearray(G.n)
    seen[0] = 1
    stack = [0]
    count = 1
    adj = G.adj
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = 1
                count += 1
                stack.append(u)
    return count == G.n


def bipartition(G: LabeledGraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A two-coloring of the vertices as two sorted sides, or None if an odd cycle exists."""

    side = [-1] * G.n
    adj = G.adj
    for start in range(G.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if side[u] == -1:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    left = tuple(v for v in range(G.n) if side[v] == 0)
    right = tuple(v for v in range(G.n) if side[v] == 1)
    return left, right


def is_bipartite(G: LabeledGraph) -> bool:
    return bipartition(G) is not None


def is_tree(G: LabeledGraph) -> bool:
    return is_connected(G) and G.m == G.n - 1


def _farthest(G: LabeledGraph, start: int) -> tuple[int, int]:
    """A vertex farthest from ``start`` and its distance, the eccentricity of ``start``."""

    dist = [-1] * G.n
    dist[start] = 0
    queue = deque([start])
    v = start
    adj = G.adj
    while queue:
        v = queue.popleft()  # BFS dequeues in order of distance, so the last is farthest
        for u in adj[v]:
            if dist[u] == -1:
                dist[u] = dist[v] + 1
                queue.append(u)
    if -1 in dist:
        raise ParameterError("eccentricity is undefined on a disconnected graph")
    return v, dist[v]


def radius(G: LabeledGraph) -> int:
    """Minimum eccentricity over all vertices; requires a connected non-empty graph.

    A tree's center lies midway along a longest path, so two BFS passes give
    its diameter d (the second starts from a vertex farthest from any start)
    and the radius is ceil(d / 2). Other graphs take a BFS from every vertex.
    """

    if G.n == 0:
        raise ParameterError("radius is undefined for the vertex-free graph")
    if not is_connected(G):
        raise ParameterError("radius requires a connected graph")
    if G.m == G.n - 1:
        end, _ = _farthest(G, 0)
        _, diameter = _farthest(G, end)
        return (diameter + 1) // 2
    return min(_farthest(G, v)[1] for v in range(G.n))


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

def make_matching(G: LabeledGraph, edges: Iterable[tuple[int, int]]) -> Matching:
    """Canonicalize ``edges`` into a matching of ``G``; validates membership and disjointness."""

    canon = sorted((u, v) if u < v else (v, u) for u, v in edges)
    used: set[int] = set()
    for u, v in canon:
        if (u, v) not in G.edge_set:
            raise GraphConstructionError(f"edge ({u}, {v}) does not belong to the host graph")
        if u in used or v in used:
            raise GraphConstructionError(f"edges are not pairwise vertex-disjoint at ({u}, {v})")
        used.add(u)
        used.add(v)
    return tuple(canon)


def matching_blocks(G: LabeledGraph, r: int) -> Iterator[tuple[list[Matching], list[int]]]:
    """Every r-matching of G with its edge-index bitmask, in lexicographic order.

    Bit i of a mask stands for ``G.edges[i]``. A depth-first search keeps
    ``later[i]``, the mask of the edges after i that share no endpoint with
    edge i, takes the lowest available bit first and recurses on
    ``avail & later[i]``; so each matching lists its edges in increasing
    order, and the matchings come in lexicographic order of their edge
    tuples (not in the integer order of their masks). A branch with fewer
    available edges than it still needs is cut. Each yielded block holds,
    in order, the non-empty run of matchings that share their first r - 1
    edges, as two parallel lists: the matchings (the prefix tuple plus one
    edge) and their masks.
    """

    if r < 1:
        raise ParameterError("matching size r must be at least 1")
    edges = G.edges
    m = len(edges)
    touching = [0] * G.n
    for i, (u, v) in enumerate(edges):
        touching[u] |= 1 << i
        touching[v] |= 1 << i
    full = (1 << m) - 1
    later = [(full >> (i + 1) << (i + 1)) & ~(touching[u] | touching[v]) for i, (u, v) in enumerate(edges)]
    singles = [(e,) for e in edges]

    def grow(prefix: Matching, mask: int, avail: int, need: int) -> Iterator[tuple[list[Matching], list[int]]]:
        # ``avail`` holds at least ``need`` edges.
        if need == 1:
            block: list[Matching] = []
            block_masks: list[int] = []
            while avail:
                low = avail & -avail
                avail ^= low
                block.append(prefix + singles[low.bit_length() - 1])
                block_masks.append(mask | low)
            yield block, block_masks
            return
        while avail.bit_count() >= need:
            low = avail & -avail
            avail ^= low
            i = low.bit_length() - 1
            rest = avail & later[i]
            if rest.bit_count() >= need - 1:
                yield from grow(prefix + singles[i], mask | low, rest, need - 1)

    if m >= r:
        yield from grow((), 0, full, r)


def iter_matchings(G: LabeledGraph, r: int) -> Iterator[Matching]:
    """Yield every r-matching of G in lexicographic order of sorted edge lists."""

    for block, _ in matching_blocks(G, r):
        yield from block


def enumerate_matchings(G: LabeledGraph, r: int) -> list[Matching]:
    """All r-matchings of G, sorted lexicographically; empty if none exist."""

    return list(iter_matchings(G, r))


def first_matching(G: LabeledGraph, r: int) -> Matching | None:
    """The lexicographically first r-matching of G, or None."""

    return next(iter_matchings(G, r), None)


# ---------------------------------------------------------------------------
# Exact maximum matching on general graphs
# ---------------------------------------------------------------------------
# Alternating-tree search with blossom contraction (base[] relabeling). A
# greedy matching seeds the search; each phase either augments or proves that
# no augmenting path exists from the chosen exposed vertex, which by Berge's
# lemma never needs revisiting.

def _find_augmenting_path(n: int, adj, match: list[int], root: int) -> bool:
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        marked = [False] * n
        x = a
        while True:
            x = base[x]
            marked[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if marked[y]:
                return y
            y = parent[match[y]]

    def mark_blossom_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                stem = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_blossom_path(v, stem, to, in_blossom)
                mark_blossom_path(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not in_queue[i]:
                            in_queue[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # augment along the alternating path back to the root
                    u = to
                    while u != -1:
                        pv = parent[u]
                        next_u = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = next_u
                    return True
                in_queue[match[to]] = True
                queue.append(match[to])
    return False


def maximum_mates(G: LabeledGraph) -> list[int]:
    """A maximum matching of G as a mate array: ``mate[v]`` is v's partner, or -1."""

    n = G.n
    mate = [-1] * n
    for u, v in G.edges:  # greedy seed in canonical edge order
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
    adj = G.adj
    for v in range(n):
        if mate[v] == -1:
            _find_augmenting_path(n, adj, mate, v)
    return mate


def repair_matching(adj, mate: list[int], u: int, v: int) -> int:
    """Keep ``mate`` maximum after the edge (u, v) is deleted from ``adj``; returns the drop in size.

    ``mate`` must be a maximum matching of the graph before the deletion and
    ``adj`` the adjacency after it. Deleting an unmatched edge changes
    nothing. A matched edge is unmatched, and an augmenting path is sought
    from u, then from v: any augmenting path must end at one of them, since
    every other exposed vertex was already exposed under a maximum matching.
    So the matching number drops by 0 or 1 and two searches decide which.
    """

    if mate[u] != v:
        return 0
    mate[u] = mate[v] = -1
    n = len(mate)
    if _find_augmenting_path(n, adj, mate, u) or _find_augmenting_path(n, adj, mate, v):
        return 0
    return 1


def maximum_matching(G: LabeledGraph) -> Matching:
    """A maximum matching of G (canonical form), exact on non-bipartite graphs."""

    mate = maximum_mates(G)
    return tuple(sorted((v, mate[v]) for v in range(G.n) if mate[v] > v))


def matching_number(G: LabeledGraph) -> int:
    """The exact matching number (maximum matching size) of G."""

    return len(maximum_matching(G))


def has_r_matching(G: LabeledGraph, r: int) -> bool:
    """True iff G contains r pairwise disjoint edges."""

    if r <= 0:
        return True
    return matching_number(G) >= r


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------
# First non-comment line is ``n m``, followed by m lines ``u v`` (0-based).
# Lines starting with '#' are comments; the writer emits a ``# roles:`` block
# when the graph carries role labels.

def edgelist_lines(G: LabeledGraph) -> list[str]:
    lines: list[str] = []
    if G.roles is not None and any(G.roles):
        lines.append("# roles:")
        lines.extend(f"# {v} {lab}" for v, lab in enumerate(G.roles) if lab)
    lines.append(f"{G.n} {G.m}")
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return lines


def parse_edgelist(text: str) -> LabeledGraph:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise GraphConstructionError("edge-list input has no header line 'n m'")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphConstructionError(f"malformed header line {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphConstructionError(f"malformed header line {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise GraphConstructionError(f"header declares {m} edges but {len(rows) - 1} edge lines follow")
    pairs = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphConstructionError(f"malformed edge line {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphConstructionError(f"malformed edge line {ln!r}") from exc
    return make_graph(n, pairs)


def write_edgelist(G: LabeledGraph, path: str | Path) -> None:
    Path(path).write_text("\n".join(edgelist_lines(G)) + "\n")


def read_edgelist(path: str | Path) -> LabeledGraph:
    return parse_edgelist(Path(path).read_text())
