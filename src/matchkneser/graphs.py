"""Finite simple graphs with dense integer vertices, plus exact matching machinery.

A graph is built from its sorted edge list or from its neighbor bitmasks
(one row per vertex, as the matching Kneser construction makes them); the
other form, the edge count and the neighbor tuples are derived lazily on
first use and cached, so a graph that is only colored never builds its edge
list, and one that is only written builds neither missing form. Graphs are
immutable after construction: edge deletion returns a new graph value, and
all operations are pure functions of their inputs, except
``repair_matching``, which updates a caller-owned mate array in place for
incremental searches over one mutable adjacency and logs each entry it
overwrites, so that the caller can undo it. The traversals keep state only
for the vertices they reach: one breadth-first search serves connectivity
and eccentricity, and the augmenting-path search allocates
nothing of size n, so a search near a few vertices of a large host costs
what it touches. An enumerated matching is stored only as its edge-index
bitmask (bit i for ``G.edges[i]``), one int of 28 to 60 bytes on hosts of
12 to 495 edges; two matchings are edge-disjoint when their masks AND to
zero. Its canonical form, the sorted tuple of ``(u, v)`` edges with
``u < v``, in which equality and ordering are structural, is decoded by
:func:`decode_matching` only when something reads it.
"""

from __future__ import annotations

import sys
from collections import deque
from contextlib import nullcontext
from functools import cached_property, partial
from itertools import accumulate, chain, count, islice, repeat
from operator import add, or_
from pathlib import Path
from typing import Callable, ContextManager, Iterable, Iterator, NoReturn, Sequence, TextIO

from .errors import Deadline, GraphConstructionError, KneserSizeError, ParameterError, ensure_deadline, refuse_write

Edge = tuple[int, int]
Matching = tuple[Edge, ...]
Unit = tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]  # (prefix, lows, bits)

ROLE_KINDS = ("x", "y", "z", "w")

_DEADLINE_STRIDE = 1024  # enumeration branches between deadline checks
# Edge lines per piece of text when a held edge list is written: a row per
# lower endpoint would be a piece per edge on a tree, five times slower.
_PIECE_EDGES = 1024


class LabeledGraph:
    """A simple undirected graph on vertices ``0..n-1``.

    A graph is built from either of two forms: ``edges``, sorted and
    duplicate-free with every edge ``(u, v)`` satisfying ``u < v``, or
    ``adj_masks``, one neighbor bitmask per vertex. The form it was given is
    held as a plain attribute; the other is derived on first use and cached,
    as are ``m`` and ``adj``. ``roles`` optionally tags each
    vertex with a construction label such as ``"x2"`` or ``"w13"`` (empty
    string for untagged vertices); labels are metadata only and never
    influence any algorithm. Graphs are equal when ``n``, ``m``, ``roles``
    and the edges agree, whichever form each was built from; the edges are
    compared in a form both hold (``edges`` if both hold it, else
    ``adj_masks``), and the hash is over ``(n, m, roles)``, so neither
    builds the other form of two like-built graphs. No attribute can be
    assigned.
    """

    def __init__(
        self,
        n: int,
        edges: tuple[Edge, ...] | None = None,
        roles: tuple[str, ...] | None = None,
        *,
        adj_masks: tuple[int, ...] | None = None,
    ) -> None:
        if (edges is None) == (adj_masks is None):
            raise TypeError("LabeledGraph takes exactly one of edges and adj_masks")
        # The given form shadows its cached_property, so reading it is a
        # plain instance-dict lookup.
        given = {"edges": edges} if adj_masks is None else {"adj_masks": adj_masks}
        self.__dict__.update(n=n, roles=roles, **given)

    def __setattr__(self, name: str, value: object) -> None:
        refuse_write("assign to", name)

    def __delattr__(self, name: str) -> None:
        refuse_write("delete", name)

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n!r}, edges={self.edges!r}, roles={self.roles!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        if (self.n, self.m, self.roles) != (other.n, other.m, other.roles):
            return False
        form = "edges" if "edges" in self.__dict__ and "edges" in other.__dict__ else "adj_masks"
        return getattr(self, form) == getattr(other, form)

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.roles))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The sorted edge list, decoded row by row from ``adj_masks``."""
        return tuple(chain.from_iterable(zip(repeat(u), vs) for u, vs in _upper_neighbors(self.adj_masks)))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks, indexed by vertex: bit v of ``adj_masks[u]`` is the edge (u, v)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def m(self) -> int:
        if "edges" in self.__dict__:
            return len(self.edges)
        return sum(row.bit_count() for row in self.adj_masks) // 2

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, indexed by vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)


def _bit_positions(x: int, offset: int) -> Iterator[int]:
    """``offset + j`` for each set bit j of ``x``, in increasing order.

    Splitting the binary digits, lowest first, at each "1" leaves the runs
    of zeros between set bits; the k-th set bit (from 0) sits at the total
    length of the first k + 1 runs plus k. All of it runs in C, and only
    the set bits get an int.
    """

    runs = bin(x)[:1:-1].split("1")
    runs.pop()
    return map(add, accumulate(map(len, runs)), count(offset))


def _upper_neighbors(masks: Iterable[int]) -> Iterator[tuple[int, Iterator[int]]]:
    """``(u, the neighbors v > u in increasing order)`` for each vertex u that has one.

    Read in vertex order, these are the edges in canonical sorted order.
    """

    for u, row in enumerate(masks):
        above = row >> (u + 1)
        if above:
            yield u, _bit_positions(above, u + 1)


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

def _bfs(adj, start: int, dist: dict[int, int]) -> int:
    """Breadth-first search from ``start``; returns the last vertex it reaches.

    Each vertex reached is given its distance from ``start`` in ``dist``;
    vertices already in ``dist`` are not entered. Vertices leave the queue
    in order of distance, so the last one is a farthest one.
    """

    dist[start] = 0
    queue = deque([start])
    v = start
    while queue:
        v = queue.popleft()
        step = dist[v] + 1
        for u in adj[v]:
            if u not in dist:
                dist[u] = step
                queue.append(u)
    return v


def is_connected(G: LabeledGraph) -> bool:
    """True iff the graph has a single component (vacuously true for n <= 1)."""

    if G.n <= 1:
        return True
    dist: dict[int, int] = {}
    _bfs(G.adj, 0, dist)
    return len(dist) == G.n


def is_tree(G: LabeledGraph) -> bool:
    return is_connected(G) and G.m == G.n - 1


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
    adj = G.adj

    def eccentricity(v: int) -> int:
        dist: dict[int, int] = {}
        return dist[_bfs(adj, v, dist)]

    if G.m == G.n - 1:
        return (eccentricity(_bfs(adj, 0, {})) + 1) // 2
    return min(map(eccentricity, range(G.n)))


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

def matching_blocks(G: LabeledGraph, r: int, deadline: Deadline | None = None, cap: int | None = None) -> Iterator[Unit]:
    """Every r-matching of G as an edge-index bitmask, in lexicographic order, in units.

    Bit i of a mask stands for ``G.edges[i]``. A depth-first search keeps
    ``later[i]``, the mask of the edges after i that share no endpoint with
    edge i, takes the lowest available bit first and recurses on
    ``avail & later[i]``; so the matchings come in lexicographic order of
    their edge tuples (not in the integer order of their masks). A unit
    ``(prefix, lows, bits)`` holds the matchings that share their first
    r - 2 edges, ``prefix``: their members are ``prefix | lows[j] | b`` for
    b in ``bits[j]``, j by j (:func:`unit_masks`), lows and bits rising. At
    r = 1 the one unit is ``(0, (0,), (every edge's bit,))``.

    ``(lows, bits)`` depends only on the edges available at the last two
    levels, and few such sets recur (71 over gap(5,2,1)'s 418 units), so
    each call keeps a dict from that set to its table, and one from each
    last-level remainder ``avail & later[i]`` to its bits, which the tables
    share; both go with the generator, and hold no empty table. Units
    share the dicts' tuples, which none may change.

    A branch that still needs k >= 3 edges is cut once its available edges
    fail a count that k disjoint edges pass: k edges, k distinct lower
    endpoints, k distinct upper endpoints and 2k distinct vertices, each
    read from one edge mask per vertex. It is tested on entry and after
    each lowest edge it drops. The cuts drop only branches that yield
    nothing.

    Raises :class:`KneserSizeError` before yielding a unit that takes the
    count past ``cap`` (None: no cap), counting a new table low by low
    before it makes any bits. ``deadline`` is checked once per unit and
    every ``_DEADLINE_STRIDE`` branches, lows or remainders passed, so a
    search that yields nothing still stops in time (:class:`SearchTimeout`).
    """

    if r < 1:
        raise ParameterError("matching size r must be at least 1")
    deadline = ensure_deadline(deadline, None)
    stage = "r-matching enumeration"
    edges = G.edges
    m = len(edges)
    lower = [0] * G.n
    upper = [0] * G.n
    for i, (u, v) in enumerate(edges):
        lower[u] |= 1 << i
        upper[v] |= 1 << i
    touching = list(map(or_, lower, upper))
    # Upper endpoints cluster at high vertex numbers, so their count scans
    # from the top; the lowest edge's lower endpoint is the lowest vertex
    # any available edge touches, so the other two counts start there.
    upper_desc = upper[::-1]
    lower_end = [u for u, _ in edges]
    full = (1 << m) - 1
    later = [(full >> (i + 1) << (i + 1)) & ~(touching[u] | touching[v]) for i, (u, v) in enumerate(edges)]

    def room(avail: int, k: int) -> bool:
        # Whether ``avail`` passes the four counts for k disjoint edges.
        if avail.bit_count() < k:
            return False
        start = lower_end[(avail & -avail).bit_length() - 1]
        return bool(
            next(islice(filter(avail.__and__, islice(touching, start, None)), 2 * k - 1, None), 0)
            and next(islice(filter(avail.__and__, islice(lower, start, None)), k - 1, None), 0)
            and next(islice(filter(avail.__and__, upper_desc), k - 1, None), 0)
        )

    def refuse() -> NoReturn:
        raise KneserSizeError(
            f"matching Kneser graph of ({G.n} vertices, r={r}) has more than "
            f"{cap} vertices (enumeration stopped at {cap + 1})"
        )

    limit = float("inf") if cap is None else cap
    found = 0  # matchings counted toward the cap
    branches = 0
    tables: dict[int, tuple] = {}  # avail -> (lows, bits, members)
    split: dict[int, tuple[int, ...]] = {}  # last-level remainder -> its single bits, lowest first

    def table(avail: int) -> tuple:
        # The lows of ``avail`` with a non-empty remainder, their bits and
        # their member count, counted before any bit is made.
        lows, rests, size = [], [], found
        for n, i in enumerate(_bit_positions(avail, 0), 1):
            if n % _DEADLINE_STRIDE == 0:
                deadline.check(stage)
            rest = avail & later[i]
            if rest:
                size += rest.bit_count()
                if size > limit:
                    refuse()
                lows.append(1 << i)
                rests.append(rest)
        bits = []
        for n, rest in enumerate(rests, 1):
            if n % _DEADLINE_STRIDE == 0:
                deadline.check(stage)
            got = split.get(rest)
            if got is None:
                got = split[rest] = tuple([1 << j for j in _bit_positions(rest, 0)])  # see decode_matching
            bits.append(got)
        made = (tuple(lows), tuple(bits), size - found)
        if lows:
            tables[avail] = made
        return made

    def grow(prefix: int, avail: int, need: int) -> Iterator[Unit]:
        # need >= 2; ``avail`` holds at least ``need`` edges.
        nonlocal branches, found
        branches += 1
        if branches % _DEADLINE_STRIDE == 0:
            deadline.check(stage)
        if need == 2:
            lows, bits, size = tables.get(avail) or table(avail)
            if size:
                found += size
                if found > limit:
                    refuse()
                deadline.check(stage)
                yield prefix, lows, bits
            return
        while room(avail, need):
            low = avail & -avail
            avail ^= low
            rest = avail & later[low.bit_length() - 1]
            if rest.bit_count() >= need - 1:
                yield from grow(prefix | low, rest, need - 1)

    try:
        if r == 1:
            if m:
                if m > limit:
                    refuse()
                deadline.check(stage)
                yield 0, (0,), (tuple([1 << i for i in range(m)]),)
        elif m >= r:
            yield from grow(0, full, r)
    finally:
        # ``grow`` reaches itself through its closure: a cycle that would
        # keep the tables and the edge masks until a full garbage collection.
        del grow


def unit_masks(prefix: int, lows: tuple[int, ...], bits: tuple[tuple[int, ...], ...]) -> list[int]:
    """A :func:`matching_blocks` unit's masks in enumeration order: ``prefix | lows[j] | b``, j by j."""

    return [base | b for base, tops in zip(map(prefix.__or__, lows), bits) for b in tops]


def decode_matching(edges: tuple[Edge, ...], mask: int) -> Matching:
    """The matching whose edge-index bitmask over ``edges`` is ``mask``, in canonical form.

    ``edges`` is a host's sorted edge list, so its edges taken in increasing
    bit order are already sorted. The tuple is made at its size, from a
    list: one grown from an iterator is resized, and freed into another
    size's free list.
    """

    return tuple([*map(edges.__getitem__, _bit_positions(mask, 0))])


def enumeration_index(masks: Sequence[int], mask: int) -> int | None:
    """The index of ``mask`` in ``masks``, or None if it is not there.

    ``masks`` holds masks of one size in the order :func:`matching_blocks`
    yields them, which is not their integer order, and the search bisects
    on that order: of two masks, the one holding their lowest differing bit
    comes first, as its edge tuple does. So ``x`` comes before ``mask``
    exactly when ``x & d & -d`` is non-zero, ``d = x ^ mask``.
    """

    lo, hi = 0, len(masks)
    while lo < hi:
        mid = (lo + hi) // 2
        x = masks[mid]
        d = x ^ mask
        if x & d & -d:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo < len(masks) and masks[lo] == mask else None


def edge_text(edge: Edge) -> str:
    """An edge as the text ``(u,v)``, the form every matching text is made of."""

    return "(%d,%d)" % edge


def matching_text(edges: Iterable[Edge]) -> str:
    """A matching, or any edge set, as the text ``(u,v) (u,v) ...``, its edges in the order given."""

    return " ".join(map(edge_text, edges))


def mask_text(edges: Sequence[Edge]) -> Callable[[int], str]:
    """``mask -> matching_text(decode_matching(edges, mask))``, each edge's text made once.

    The edge texts are made here, one per edge of ``edges``; a mask's text
    then joins the entries at its bit positions and decodes no edge.
    """

    table = tuple(map(edge_text, edges)).__getitem__

    def text(mask: int) -> str:
        return " ".join(map(table, _bit_positions(mask, 0)))

    return text


class MatchingView(Sequence[Matching]):
    """Matchings held as edge-index bitmasks over ``edges``, decoded one at a time on read.

    Indexing gives a canonical matching. Equality and hashing are over
    ``(edges, masks)`` and never decode.
    """

    __slots__ = ("edges", "masks")

    def __init__(self, edges: tuple[Edge, ...], masks: tuple[int, ...]) -> None:
        self.edges = edges
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int) -> Matching:
        return decode_matching(self.edges, self.masks[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingView):
            return NotImplemented
        return self.masks == other.masks and self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.masks)


def iter_matchings(G: LabeledGraph, r: int) -> Iterator[Matching]:
    """Yield every r-matching of G in lexicographic order of sorted edge lists."""

    decode = partial(decode_matching, G.edges)
    for unit in matching_blocks(G, r):
        yield from map(decode, unit_masks(*unit))


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

def _lowest_common_base(
    match: list[int], parent: dict[int, int], base_of: Callable[[int, int], int], a: int, b: int
) -> int:
    marked: set[int] = set()
    x = a
    while True:
        x = base_of(x, x)
        marked.add(x)
        if match[x] == -1:
            break
        x = parent[match[x]]
    y = b
    while True:
        y = base_of(y, y)
        if y in marked:
            return y
        y = parent[match[y]]


def _mark_blossom_path(
    match: list[int],
    parent: dict[int, int],
    base_of: Callable[[int, int], int],
    v: int,
    stem: int,
    child: int,
    in_blossom: set[int],
) -> None:
    while base_of(v, v) != stem:
        w = match[v]
        in_blossom.add(base_of(v, v))
        in_blossom.add(base_of(w, w))
        parent[v] = child
        child = w
        v = parent[w]


def _find_augmenting_path(adj, match: list[int], root: int, log: list[tuple[int, int]]) -> bool:
    # State is kept only for the vertices the alternating tree reaches: one
    # missing from ``base`` is its own base, and one missing from ``parent``
    # has no parent in the tree. Each mate entry the augmentation overwrites
    # is appended to ``log`` as (vertex, old mate) before it is written.
    parent: dict[int, int] = {}
    base: dict[int, int] = {}
    base_of = base.get
    queued = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base_of(v, v) == base_of(to, to) or match[v] == to:
                continue
            if to == root or match[to] in parent:
                stem = _lowest_common_base(match, parent, base_of, v, to)
                in_blossom: set[int] = set()
                _mark_blossom_path(match, parent, base_of, v, stem, to, in_blossom)
                _mark_blossom_path(match, parent, base_of, to, stem, v, in_blossom)
                # Only tree vertices can have a base in the blossom, and taking
                # them in increasing order queues them as a sweep of all would.
                for i in sorted(queued.union(parent)):
                    if base_of(i, i) in in_blossom:
                        base[i] = stem
                        if i not in queued:
                            queued.add(i)
                            queue.append(i)
            elif to not in parent:
                parent[to] = v
                if match[to] == -1:
                    # augment along the alternating path back to the root
                    u = to
                    while u != -1:
                        pv = parent[u]
                        next_u = match[pv]
                        log += (u, match[u]), (pv, next_u)
                        match[u] = pv
                        match[pv] = u
                        u = next_u
                    return True
                queued.add(match[to])
                queue.append(match[to])
    return False


def maximum_mates(G: LabeledGraph) -> list[int]:
    """A maximum matching of G as a mate array: ``mate[v]`` is v's partner, or -1."""

    mate = [-1] * G.n
    for u, v in G.edges:  # greedy seed in canonical edge order
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
    # An augmenting path starts on an edge at an exposed vertex; with none
    # the greedy matching is maximum, and no adjacency is built.
    roots = sorted({w for w in chain.from_iterable(G.edges) if mate[w] == -1})
    if roots:
        adj = neighbor_lists(G)
        for v in roots:  # an earlier augmentation may have matched v
            if mate[v] == -1:
                _find_augmenting_path(adj, mate, v, [])
    return mate


def neighbor_lists(G: LabeledGraph) -> list[list[int] | tuple[()]]:
    """Sorted neighbor lists by vertex; a vertex with no edge holds ``()``.

    Past one n-slot list the cost is that of the edges. ``G.edges`` is
    sorted, so appending keeps each list sorted.
    """

    adj: list[list[int] | tuple[()]] = [()] * G.n
    for u, v in G.edges:
        if adj[u]:
            adj[u].append(v)
        else:
            adj[u] = [v]
        if adj[v]:
            adj[v].append(u)
        else:
            adj[v] = [u]
    return adj


def repair_matching(adj, mate: list[int], u: int, v: int, log: list[tuple[int, int]]) -> int:
    """Keep ``mate`` maximum after the edge (u, v) is deleted from ``adj``; returns the drop in size.

    ``mate`` must be a maximum matching of the graph before the deletion and
    ``adj`` the adjacency after it. Deleting an unmatched edge changes
    nothing. A matched edge is unmatched, and an augmenting path is sought
    from u, then from v: any augmenting path must end at one of them, since
    every other exposed vertex was already exposed under a maximum matching.
    So the matching number drops by 0 or 1 and two searches decide which.
    The searches read only the component of u and v and allocate nothing of
    size n. Every entry of ``mate`` that is overwritten is first appended to
    ``log`` as ``(vertex, old mate)``, so writing the pairs back in reverse
    order restores ``mate``.
    """

    if mate[u] != v:
        return 0
    log += (u, v), (v, u)
    mate[u] = mate[v] = -1
    if _find_augmenting_path(adj, mate, u, log) or _find_augmenting_path(adj, mate, v, log):
        return 0
    return 1


def matching_number(G: LabeledGraph) -> int:
    """The exact matching number (maximum matching size) of G."""

    return (G.n - maximum_mates(G).count(-1)) // 2


def has_r_matching(G: LabeledGraph, r: int) -> bool:
    """True iff G contains r pairwise disjoint edges."""

    if r <= 0:
        return True
    return matching_number(G) >= r


# ---------------------------------------------------------------------------
# Text output and the edge-list format
# ---------------------------------------------------------------------------
# Every text file and stdout stream is written as it is made, one piece at a
# time: a piece is a line, or a few lines, without its last newline. The
# edge-list format has a first non-comment line ``n m``, followed by m lines
# ``u v`` (0-based). Lines starting with '#' are comments; the writer emits a
# ``# roles:`` block when the graph carries role labels.

def open_output(path: str | Path | None) -> ContextManager[TextIO]:
    """``path`` opened for writing text, or ``sys.stdout``, read now and left open, when it is None."""

    return nullcontext(sys.stdout) if path is None else open(path, "w")


def write_lines(pieces: Iterable[str], path: str | Path | None) -> None:
    """Write each piece and a newline to ``path`` (stdout when None) as it comes; none is held after."""

    with open_output(path) as fh:
        fh.writelines(piece + "\n" for piece in pieces)


def edgelist_pieces(G: LabeledGraph) -> Iterator[str]:
    """G in edge-list format: the ``# roles:`` block, if any, the ``n m`` line, then the edge lines in pieces.

    The edge lines ``u v`` are read from the form G holds, so neither form
    builds the other: a graph that holds its edge list gives it
    ``_PIECE_EDGES`` lines to a piece, and a mask-built one gives one piece
    per row, the lines of one lower endpoint u. Only one piece's text is
    held at a time. The pieces joined by newlines are the text, less its
    final newline.
    """

    if G.roles is not None and any(G.roles):
        yield "# roles:"
        yield from (f"# {v} {lab}" for v, lab in enumerate(G.roles) if lab)
    yield f"{G.n} {G.m}"
    if "edges" in vars(G):
        edges = G.edges
        for i in range(0, len(edges), _PIECE_EDGES):
            yield "\n".join(map("%d %d".__mod__, edges[i:i + _PIECE_EDGES]))
    else:
        for u, vs in _upper_neighbors(G.adj_masks):
            yield f"{u} " + f"\n{u} ".join(map(str, vs))


def parse_edgelist(text: str) -> LabeledGraph:
    """The graph of an edge-list text; an edge read twice, in either orientation, is refused."""

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
    line_of: dict[Edge, str] = {}
    for ln in rows[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise GraphConstructionError(f"malformed edge line {ln!r}") from exc
        edge = (u, v) if u < v else (v, u)
        if edge in line_of:
            raise GraphConstructionError(f"edge line {ln!r} repeats the edge of line {line_of[edge]!r}")
        line_of[edge] = ln
    return make_graph(n, line_of)


def write_edgelist(G: LabeledGraph, path: str | Path) -> None:
    """Write G in edge-list format, piece by piece (see :func:`edgelist_pieces`)."""

    write_lines(edgelist_pieces(G), path)


def read_edgelist(path: str | Path) -> LabeledGraph:
    """The graph of an edge-list file, read as UTF-8; undecodable bytes raise GraphConstructionError."""

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphConstructionError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_edgelist(text)
