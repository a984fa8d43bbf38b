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
fact gives the bound: at least nu - r + 1 more deletions are needed, so a
node is pruned once ``|removed| + nu - r + 1`` exceeds the best size found.
A node whose bound equals it can only tie, and is pruned too unless its
removed edges plus the smallest edges it may still delete sort below the
best set. Branch i deletes the i-th branching edge and freezes the edges
before it (they may not be deleted below), so no deletion set is reached
twice and no memo of visited sets is needed.

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


def min_deletion_set(
    G: LabeledGraph,
    r: int,
    time_budget: float | None = DEFAULT_TIME_BUDGET,
    deadline: Deadline | None = None,
) -> DeletionCertificate:
    """A minimum edge set whose removal leaves G without any r-matching.

    Deterministic: ties between equally small deletion sets resolve to the
    lexicographically least one. A node that can only tie with the best set
    is entered only while the least set it could reach sorts below it, so
    neither bound cuts the lexicographically least optimum. Depth never
    exceeds the optimum, so the search is cheap whenever the answer is.
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
    frozen: set[Edge] = set()
    removed: list[Edge] = []
    # Deleting everything is always valid, which seeds the bound.
    best_size = G.m
    best_set: tuple[Edge, ...] = G.edges
    # One entry per node on the path: its nu, its branching edges, how many
    # of them it has taken, and the log of the mate entries the repair after
    # its current branch overwrote. removed[i] is the edge node i is exploring.
    trail: list[list[Any]] = []
    optimal = False
    while not deadline.expired():
        expand = False
        if nu < r:
            candidate = tuple(sorted(removed))
            if len(candidate) < best_size or (len(candidate) == best_size and candidate < best_set):
                best_size = len(candidate)
                best_set = candidate
        else:
            bound = len(removed) + nu - r + 1
            expand = bound < best_size
            if bound == best_size:
                # Only a tie can come of this node: exactly best_size - |removed|
                # more deletable edges. Taking the smallest of them bounds every
                # such set element-wise, hence lexicographically, from below.
                skip = frozen.union(removed)
                fill = islice((e for e in G.edges if e not in skip), best_size - len(removed))
                expand = tuple(sorted(removed + list(fill))) < best_set
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
                for w, old in reversed(log):
                    mate[w] = old
                log.clear()
                frozen.add((u, v))
            if taken < len(branching):
                node[2] = taken + 1
                u, v = branching[taken]
                adj[u].remove(v)
                adj[v].remove(u)
                removed.append((u, v))
                nu = node_nu - repair_matching(adj, mate, u, v, log)
                break
            frozen.difference_update(branching)
            trail.pop()
        if not trail:
            optimal = True
            break
    return DeletionCertificate(r=r, deleted=best_set, size=best_size, optimal=optimal)


def optimal_deletion_set(G: LabeledGraph, r: int, deadline: Deadline | None = None) -> DeletionCertificate:
    """:func:`min_deletion_set`, proven optimal.

    Raises :class:`SearchTimeout` rather than returning an unproven set. Its
    message brackets the optimum between nu(G) - r + 1 and the best set found.
    """

    cert = min_deletion_set(G, r, deadline=deadline)
    if not cert.optimal:
        lower = matching_number(G) - r + 1
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
