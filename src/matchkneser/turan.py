"""Exact generalized Turán numbers ex(G, rK2) via minimum edge-deletion sets.

Removing a minimum set of edges that leaves no r-matching is dual to keeping
a maximum (rK2)-free spanning subgraph, so both quantities come out of one
search. The search is a branch-and-bound on the hitting-set view: any valid
deletion set must meet every r-matching, so each node branches on r edges of
the current maximum matching.

No node builds a graph. The whole solve keeps one mutable adjacency, from
which the branch edge is removed and then restored, and one maximum matching
with its size nu. Deleting a matched edge lowers nu by at most one, and
``repair_matching`` restores maximality with at most two augmenting-path
searches. The same fact gives the bound: at least nu - r + 1 more deletions
are needed, so a node is pruned once ``|removed| + nu - r + 1`` exceeds the
best size found. Branch i deletes the i-th branching edge and freezes the
edges before it (they may not be deleted below), so no deletion set is
reached twice and no memo of visited sets is needed.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Any

from .coloring import DEFAULT_TIME_BUDGET
from .errors import Deadline, ParameterError, SearchTimeout, ensure_deadline
from .graphs import Edge, LabeledGraph, matching_number, maximum_mates, repair_matching

# Unused here, but kept bound: perfbench/spans.py wraps these attributes of this module.
from .graphs import first_matching, has_r_matching, remove_edges  # noqa: F401


@dataclass(frozen=True)
class DeletionCertificate:
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
    lexicographically least one. Ties with the best size are not pruned and
    the nu bound never cuts an optimum, so every optimal set is reached. Depth
    never exceeds the optimum, so the search is cheap whenever the answer is.
    """

    if r < 1:
        raise ParameterError("matching size r must be at least 1")
    deadline = ensure_deadline(deadline, time_budget)
    n = G.n
    mate = maximum_mates(G)
    nu = sum(1 for v in range(n) if mate[v] > v)
    if nu < r:
        return DeletionCertificate(r=r, deleted=(), size=0, optimal=True)

    adj = [list(a) for a in G.adj]
    frozen: set[Edge] = set()
    removed: list[Edge] = []
    # Deleting everything is always valid, which seeds the bound.
    best_size = G.m
    best_set: tuple[Edge, ...] = G.edges
    timed_out = False

    def search(nu: int) -> None:
        nonlocal best_size, best_set, timed_out
        if deadline.expired():
            timed_out = True
            return
        if nu < r:
            candidate = tuple(sorted(removed))
            if len(candidate) < best_size or (len(candidate) == best_size and candidate < best_set):
                best_size = len(candidate)
                best_set = candidate
            return
        if len(removed) + nu - r + 1 > best_size:
            return
        # Any r edges of the maximum matching form an r-matching that a valid
        # set must meet. Matched frozen edges go first, since their branches
        # are empty; the rest are the lexicographically first matched edges.
        branching = sorted(e for e in frozen if mate[e[0]] == e[1])[:r]
        need = r - len(branching)
        for v in range(n):
            if need == 0:
                break
            edge = (v, mate[v])
            if edge[1] > v and edge not in frozen:
                branching.append(edge)
                need -= 1
        saved = mate[:]
        froze: list[Edge] = []
        for edge in branching:
            if edge in frozen:
                continue
            u, v = edge
            adj[u].remove(v)
            adj[v].remove(u)
            removed.append(edge)
            search(nu - repair_matching(adj, mate, u, v))
            removed.pop()
            insort(adj[u], v)
            insort(adj[v], u)
            mate[:] = saved
            if timed_out:
                break
            frozen.add(edge)
            froze.append(edge)
        frozen.difference_update(froze)

    search(nu)
    return DeletionCertificate(r=r, deleted=best_set, size=best_size, optimal=not timed_out)


def generalized_turan(
    G: LabeledGraph,
    r: int,
    time_budget: float | None = DEFAULT_TIME_BUDGET,
    deadline: Deadline | None = None,
) -> int:
    """ex(G, rK2): the maximum edge count of an (rK2)-free spanning subgraph of G.

    Computed as |E(G)| minus the minimum deletion size; raises
    :class:`SearchTimeout` rather than returning an unproven value. Its
    message brackets the optimum between nu(G) - r + 1 and the best set found.
    """

    cert = min_deletion_set(G, r, time_budget=time_budget, deadline=deadline)
    if not cert.optimal:
        lower = matching_number(G) - r + 1
        raise SearchTimeout(
            f"minimum deletion search for r={r} timed out; optimum in [{lower}, {cert.size}]"
        )
    return G.m - cert.size
