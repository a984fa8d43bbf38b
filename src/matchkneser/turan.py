"""Exact generalized Turán numbers ex(G, rK2) via minimum edge-deletion sets.

Removing a minimum set of edges that leaves no r-matching is dual to keeping
a maximum (rK2)-free spanning subgraph, so both quantities come out of one
search. The search is a branch-and-bound on the hitting-set view: any valid
deletion set must meet every r-matching, so each node branches on r edges of
the current maximum matching.

No node builds a graph. The whole solve keeps one mutable adjacency, from
which the branch edge is removed and then restored, and one maximum matching
with its size nu. The adjacency holds only the vertices that edges touch, so
a few edges among a million vertices reach the deadline check at once.
Deleting a matched edge lowers nu by at most one, and ``repair_matching``
restores maximality with at most two augmenting-path searches. The same
fact gives one bound: at least nu - r + 1 more deletions are needed. The
other is by degree (Chvátal and Hanson, JCTB 20, 1976): a graph with
nu < r and maximum degree at most Delta has at most f(r - 1, Delta)
edges, so at least |E(G)| - f(r - 1, Delta) deletions in all, Delta being
the current maximum degree, kept by a degree histogram. On a bipartite
host f(r - 1, Delta) gives way to (r - 1) Delta, as such a graph has a
vertex cover of r - 1 vertices (König, 1931). A node is pruned once the
larger bound exceeds the best size found, and a child is bounded so before
its repair: its nu is its parent's or one less.
The best set starts as the edges that miss r - 1 hubs picked greedily by
how many edges they cover; the hubs cover every kept edge, so the set is
valid. On paths, lK2 and the gap family it is already optimal.
A node whose bound equals the best size can only tie, and is pruned too
unless its removed edges plus the smallest edges it may still delete (its
fill) sort below the best set. If the nu bound is tight, each of the
nu - r + 1 deletions of a tie must lower nu, so each edge lies in every
maximum matching: the smallest candidates are the unfrozen edges of the
current matching, and too few of them prune the node. Otherwise they are
all unfrozen edges. The fill bounds every tie of the node element-wise, so
if deleting it leaves nu < r it is the least set the node can reach: it
becomes the best set and the node is not expanded.
Branch i deletes the i-th branching edge and freezes the edges before it
(they may not be deleted below), so no deletion set is reached twice and
no memo of visited sets is needed.

The search does not recurse. It is one loop over an explicit trail, one
entry per node on the current path, so the depth is bounded by memory, not
by the interpreter's recursion limit: 1200K2 at r = 2 is solved down a
path 1,199 deletions deep, and its 1,199 is proven optimal. An entry keeps
no copy of the mate array, only the log of the (vertex, old mate) pairs
the repair after its current branch overwrote; backing out of the branch
writes them back in reverse order. So the trail grows with depth times
augmenting-path length, not depth times the vertex count.
"""

from __future__ import annotations

from bisect import insort
from itertools import islice
from typing import Any

from .errors import DEFAULT_TIME_BUDGET, Deadline, ParameterError, Record, SearchTimeout, ensure_deadline
from .graphs import Edge, LabeledGraph, matching_number, maximum_mates, neighbor_lists, repair_matching

# Unused here, but kept bound: perfbench/spans.py wraps these attributes of this module.
from .graphs import first_matching, has_r_matching, remove_edges  # noqa: F401


class DeletionCertificate(Record):
    """A set of deleted edges after which no r-matching survives.

    ``optimal`` asserts that the branch-and-bound exhausted every strictly
    smaller deletion set; when the search times out the best known set is
    returned with ``optimal=False`` and is only an upper bound.
    """

    r: int
    deleted: tuple[Edge, ...]
    size: int
    optimal: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "r": self.r,
            "deleted": [[u, v] for u, v in self.deleted],
            "size": self.size,
            "optimal": self.optimal,
        }


def max_edge_count(nu: int, delta: int) -> int:
    """f(nu, delta): the most edges of a graph with matching number at most nu and maximum degree delta >= 1.

    Chvátal and Hanson's bound (*Degrees and matchings*, JCTB 20, 1976) in
    the closed form of Balachandran and Khare (Discrete Math. 309, 2009).
    """

    return nu * delta + delta // 2 * (nu // ((delta + 1) // 2))


def _is_bipartite(adj: list[list[int] | tuple[()]]) -> bool:
    """Whether the graph of ``adj`` has no odd cycle, by one two-colouring walk."""

    side = [-1] * len(adj)
    for root, a in enumerate(adj):
        if a and side[root] < 0:
            side[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                other = side[v] ^ 1
                for w in adj[v]:
                    if side[w] < 0:
                        side[w] = other
                        stack.append(w)
                    elif side[w] != other:
                        return False
    return True


def _degree_floors(adj: list[list[int] | tuple[()]], m: int, r: int, delta: int) -> list[int]:
    """For each d <= delta, the fewest deletions from the m edges of ``adj`` that leave nu < r and degrees <= d.

    A graph with nu <= r - 1 keeps at most f(r - 1, d) edges. On a
    bipartite host it has a vertex cover of r - 1 vertices (König, 1931),
    so it keeps at most (r - 1) d; every subgraph of the host is bipartite
    too, so one test serves the whole search.
    """

    if _is_bipartite(adj):
        return [m - (r - 1) * d for d in range(delta + 1)]
    return [m] + [m - max_edge_count(r - 1, d) for d in range(1, delta + 1)]


def _hub_cover_deletion(edges: tuple[Edge, ...], adj: list[list[int] | tuple[()]], r: int) -> tuple[Edge, ...]:
    """The edges that miss r - 1 greedily picked hubs: a valid deletion set, as the hubs cover every kept edge.

    Each hub is the vertex on the most edges the earlier hubs miss, the
    lowest such vertex on a tie. The caller's host has nu >= r, so r - 1
    hubs never cover every edge and the heap never runs dry.
    """

    from heapq import heapify, heappop, heappush

    n = len(adj)
    degree = list(map(len, adj))
    # Vertex v of degree d is queued as v - d n, which sorts by degree, then vertex.
    heap = [v - d * n for v, d in enumerate(degree) if d]
    heapify(heap)
    hubs: set[int] = set()
    while len(hubs) < r - 1:
        d, hub = divmod(heappop(heap), n)
        if -d != degree[hub]:
            # Degrees only fall, so the entry overstates this one: queue it anew.
            if degree[hub]:
                heappush(heap, hub - degree[hub] * n)
            continue
        hubs.add(hub)
        degree[hub] = 0
        for w in adj[hub]:
            if degree[w]:  # a hub counts 0; any other neighbour counts its edge to this hub
                degree[w] -= 1
    return tuple(e for e in edges if e[0] not in hubs and e[1] not in hubs)


def _least_reach(
    edges: tuple[Edge, ...],
    removed: list[Edge],
    frozen: set[Edge],
    want: int,
    best_set: tuple[Edge, ...],
    mate: list[int] | None = None,
) -> tuple[list[Edge], tuple[Edge, ...]] | None:
    """The least set a tie may reach: ``removed`` plus its ``want`` smallest candidates, and those candidates.

    The candidates are the edges neither frozen nor removed or, given
    ``mate``, the unfrozen edges of its matching (removed edges are never
    matched). Any tie adds ``want`` candidates, which the smallest ones
    bound element-wise, hence lexicographically, from below. None if there
    are too few of them or the set does not sort below ``best_set``.
    """

    if mate is None:
        skip = frozen.union(removed)
        candidates = (e for e in edges if e not in skip)
    else:
        candidates = (e for e in edges if mate[e[0]] == e[1] and e not in frozen)
    fill = list(islice(candidates, want))
    if len(fill) == want:
        reach = tuple(sorted(removed + fill))
        if reach < best_set:
            return fill, reach
    return None


def _fill_leaves_no_r_matching(
    adj: list[list[int] | tuple[()]], mate: list[int], fill: list[Edge], nu: int, r: int, deadline: Deadline
) -> bool:
    """Whether deleting ``fill`` as well leaves nu < r; ``adj`` and ``mate`` are restored before returning.

    Without a repair it is False if too few fill edges are matched: the
    matched edges the fill misses stay a matching. It stops with False once
    the deletions left cannot bring nu below r, or when the deadline has
    expired: it is checked every 64 repairs, as a fill can run to hundreds
    of them.
    """

    log: list[tuple[int, int]] = []
    done = 0
    if sum(mate[u] == v for u, v in fill) > nu - r:
        for i, (u, v) in enumerate(fill):
            if nu - (len(fill) - i) >= r or (i % 64 == 63 and deadline.expired()):
                break
            adj[u].remove(v)
            adj[v].remove(u)
            nu -= repair_matching(adj, mate, u, v, log)
            done = i + 1
    for u, v in fill[:done]:
        insort(adj[u], v)
        insort(adj[v], u)
    for w, old in reversed(log):
        mate[w] = old
    return done == len(fill) and nu < r


def min_deletion_set(
    G: LabeledGraph,
    r: int,
    time_budget: float | None = DEFAULT_TIME_BUDGET,
    deadline: Deadline | None = None,
) -> DeletionCertificate:
    """A minimum edge set whose removal leaves G without any r-matching.

    Deterministic: ties between equally small deletion sets resolve to the
    lexicographically least one. The best set starts as the edges that
    miss r - 1 greedily picked hubs. A node is bounded by nu - r + 1 more
    deletions and by |E(G)| - :func:`max_edge_count` (r - 1, Delta) in all,
    or |E(G)| - (r - 1) Delta on a bipartite host. A node that can only tie
    with the best set is entered only while the least set it could reach
    sorts below it; under a tight nu bound that set is drawn from the
    current maximum matching alone, as every deletion of a tie must lower
    nu. If that least set is itself valid, it is recorded and the node is
    not expanded. So no bound cuts the lexicographically least optimum.
    Depth never exceeds the optimum, so the search is cheap whenever the
    answer is.
    A given ``deadline`` bounds the search and ``time_budget`` is then
    ignored; without one, the search gets ``time_budget`` seconds.
    """

    if r < 1:
        raise ParameterError("matching size r must be at least 1")
    deadline = ensure_deadline(deadline, time_budget)
    mate = maximum_mates(G)
    nu = (G.n - mate.count(-1)) // 2
    if nu < r:
        return DeletionCertificate(r=r, deleted=(), size=0, optimal=True)

    adj = neighbor_lists(G)
    # How many vertices have each degree; a deletion lowers delta by at most one.
    delta = max(map(len, adj))
    degree_count = [0] * (delta + 1)
    for a in adj:
        degree_count[len(a)] += 1
    # The degree bound by delta; a node with nu >= r has delta >= 1.
    degree_floor = _degree_floors(adj, G.m, r, delta)
    frozen: set[Edge] = set()
    removed: list[Edge] = []
    best_set = _hub_cover_deletion(G.edges, adj, r)
    best_size = len(best_set)
    # One entry per node on the path: its nu, its branching edges, how many
    # of them it has taken, and the log of the mate entries the repair after
    # its current branch overwrote. removed[i] is the edge node i is exploring.
    trail: list[list[Any]] = []
    optimal = False
    while not deadline.expired():
        expand = False
        if nu < r:
            # A child is entered only if it may beat the best set, and a
            # leaf's bound is its own size: this leaf does.
            best_set = tuple(sorted(removed))
            best_size = len(best_set)
        else:
            nu_bound = len(removed) + nu - r + 1
            bound = max(nu_bound, degree_floor[delta])
            expand = bound < best_size
            if bound == best_size:
                # Only a tie can come of this node: exactly best_size - |removed|
                # more deletable edges. If the nu bound is tight, each must
                # lower nu, so it is an edge of mate's matching. A valid
                # least set is the best this node can reach.
                want = best_size - len(removed)
                least = _least_reach(G.edges, removed, frozen, want, best_set, mate if nu_bound == best_size else None)
                if least:
                    fill, reach = least
                    if _fill_leaves_no_r_matching(adj, mate, fill, nu, r, deadline):
                        best_set = reach
                    else:
                        expand = True
        if expand:
            # Any r edges of the maximum matching form an r-matching that a
            # valid set must meet. Matched frozen edges count towards the r
            # with no branch of their own; the rest are the first unfrozen
            # matched edges in vertex order.
            need = r - sum(1 for u, v in frozen if mate[u] == v)
            unfrozen = ((v, w) for v, w in enumerate(mate) if w > v and (v, w) not in frozen)
            trail.append([nu, list(islice(unfrozen, max(need, 0))), 0, []])
        # Back up to the deepest node with a branch left and take it. A
        # finished branch's edge stays frozen until its node is done.
        while trail:
            node_nu, branching, taken, log = node = trail[-1]
            if taken:
                u, v = removed.pop()
                insort(adj[u], v)
                insort(adj[v], u)
                for w in u, v:
                    d = len(adj[w])
                    degree_count[d - 1] -= 1
                    degree_count[d] += 1
                    if d > delta:
                        delta = d
                for w, old in reversed(log):
                    mate[w] = old
                log.clear()
                frozen.add((u, v))
            # A child's nu is node_nu or node_nu - 1, so it is bounded before
            # its repair, leaf or not; one that cannot beat the best set is
            # skipped, its edge frozen as if its branch were done.
            while taken < len(branching):
                u, v = branching[taken]
                taken += 1
                at_delta = (len(adj[u]) == delta) + (len(adj[v]) == delta)
                child_delta = delta - (degree_count[delta] == at_delta)
                bound = max(len(removed) + 1 + node_nu - r, degree_floor[child_delta])
                if bound < best_size or (
                    bound == best_size
                    and _least_reach(G.edges, removed + [(u, v)], frozen, best_size - len(removed) - 1, best_set)
                ):
                    break
                frozen.add((u, v))
            else:
                frozen.difference_update(branching)
                trail.pop()
                continue
            node[2] = taken
            adj[u].remove(v)
            adj[v].remove(u)
            for w in u, v:
                d = len(adj[w])
                degree_count[d + 1] -= 1
                degree_count[d] += 1
            delta = child_delta
            removed.append((u, v))
            nu = node_nu - repair_matching(adj, mate, u, v, log)
            break
        if not trail:
            optimal = True
            break
    return DeletionCertificate(r=r, deleted=best_set, size=best_size, optimal=optimal)


def optimal_deletion_set(G: LabeledGraph, r: int, deadline: Deadline | None = None) -> DeletionCertificate:
    """:func:`min_deletion_set`, proven optimal.

    Raises :class:`SearchTimeout` rather than returning an unproven set. Its
    message brackets the optimum between the search's root bound and the
    best set found.
    """

    cert = min_deletion_set(G, r, deadline=deadline)
    if not cert.optimal:
        adj = neighbor_lists(G)
        delta = max(map(len, adj))
        lower = max(matching_number(G) - r + 1, _degree_floors(adj, G.m, r, delta)[delta])
        raise SearchTimeout(
            f"minimum deletion search for r={r} timed out; optimum in [{lower}, {cert.size}]"
        )
    return cert


def generalized_turan(G: LabeledGraph, r: int, deadline: Deadline | None = None) -> int:
    """ex(G, rK2): the maximum edge count of an (rK2)-free spanning subgraph of G.

    Computed as |E(G)| minus the size of :func:`optimal_deletion_set`, so a
    search that times out raises :class:`SearchTimeout`.
    """

    return G.m - optimal_deletion_set(G, r, deadline).size
