"""Exact graph coloring with verifiable certificates, plus the Kneser closed form.

The k-colorability search is a saturation-guided backtracking (branch on the
uncolored vertex with the most distinctly colored neighbors, ties by lowest
index). Color symmetry is broken by only ever trying the colors used so far
plus one fresh color. A timeout raises :class:`SearchTimeout` so that an
"unknown" can never masquerade as a proven "no".
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

from .errors import Deadline, ParameterError, VerificationError, ensure_deadline
from .graphs import LabeledGraph

DEFAULT_TIME_BUDGET = 60.0

_DEADLINE_STRIDE = 1024  # search nodes between deadline checks


@dataclass(frozen=True)
class EmptyWitness:
    kind: str = "EMPTY"

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind}


@dataclass(frozen=True)
class EdgelessWitness:
    kind: str = "EDGELESS"

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind}


@dataclass(frozen=True)
class CliqueWitness:
    vertices: tuple[int, ...]
    kind: str = "CLIQUE"

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "vertices": list(self.vertices)}


@dataclass(frozen=True)
class ExhaustionWitness:
    """Records that the (k-1)-colorability search completed with no solution."""

    failed_k: int
    kind: str = "EXHAUSTION"

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "failed_k": self.failed_k}


@dataclass(frozen=True)
class ChiCertificate:
    """An exact chromatic number together with the evidence for both bounds.

    ``coloring`` is a proper coloring with exactly ``k`` colors (the upper
    bound); ``witness`` justifies ``chi >= k``.
    """

    k: int
    coloring: tuple[int, ...]
    witness: Any

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "coloring": list(self.coloring),
            "witness": self.witness.to_json_dict(),
        }


def check_coloring(H: LabeledGraph, coloring: tuple[int, ...], k: int) -> None:
    """Raise :class:`VerificationError` unless ``coloring`` is proper and uses exactly k colors."""

    if len(coloring) != H.n:
        raise VerificationError(f"coloring covers {len(coloring)} of {H.n} vertices")
    used = set(coloring)
    if H.n and (used != set(range(k))):
        raise VerificationError(f"coloring uses colors {sorted(used)}, expected exactly 0..{k - 1}")
    for u, v in H.edges:
        if coloring[u] == coloring[v]:
            raise VerificationError(f"edge ({u}, {v}) is monochromatic in color {coloring[u]}")


def _adjacency_masks(H: LabeledGraph) -> list[int]:
    masks = [0] * H.n
    for u, v in H.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def greedy_clique(H: LabeledGraph) -> tuple[int, ...]:
    """Greedy clique along a degree-descending vertex order (ties by index)."""

    adj = _adjacency_masks(H)
    order = sorted(range(H.n), key=lambda v: (-adj[v].bit_count(), v))
    clique: list[int] = []
    mask = 0
    for v in order:
        if mask & ~adj[v] == 0:
            clique.append(v)
            mask |= 1 << v
    return tuple(sorted(clique))


def _search_k_coloring(n: int, adj: list[int], k: int, deadline: Deadline) -> list[int] | None:
    """Backtracking k-colorability core; None means proven uncolorable."""

    color = [-1] * n
    neighbor_colors = [0] * n  # per-vertex bitmask of colors on colored neighbors
    full = (1 << k) - 1
    counter = [0]

    def descend(colored: int, used: int) -> bool:
        counter[0] += 1
        if counter[0] % _DEADLINE_STRIDE == 0:
            deadline.check("k-coloring search")
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

    # The recursion goes one level per vertex; the raised limit is put back
    # on the way out, so the search leaves no interpreter-wide trace.
    limit = sys.getrecursionlimit()
    if limit < 4 * n + 1000:
        sys.setrecursionlimit(4 * n + 1000)
    try:
        return color if descend(0, 0) else None
    finally:
        sys.setrecursionlimit(limit)


def is_k_colorable(
    H: LabeledGraph,
    k: int,
    time_budget: float | None = DEFAULT_TIME_BUDGET,
    deadline: Deadline | None = None,
) -> tuple[int, ...] | None:
    """A proper k-coloring of H if one exists, else None (a proven no).

    Deterministic for a fixed graph. Raises :class:`SearchTimeout` when the
    search exceeds its budget, so "unknown" is never conflated with "no".
    """

    if k < 0:
        raise ParameterError("color count k must be non-negative")
    deadline = ensure_deadline(deadline, time_budget)
    deadline.check("k-coloring search")
    if H.n == 0:
        return ()
    if k == 0:
        return None
    if H.m == 0:
        return (0,) * H.n
    result = _search_k_coloring(H.n, _adjacency_masks(H), k, deadline)
    return tuple(result) if result is not None else None


def chromatic_number(
    H: LabeledGraph,
    time_budget: float | None = DEFAULT_TIME_BUDGET,
    deadline: Deadline | None = None,
) -> ChiCertificate:
    """The exact chromatic number of H with a certificate for both bounds.

    Iterative deepening on k from the greedy clique size upward; the first
    success is chi. The lower bound is witnessed by the clique when its size
    matches, otherwise by exhaustion of the (chi-1)-coloring search.
    """

    deadline = ensure_deadline(deadline, time_budget)
    if H.n == 0:
        return ChiCertificate(k=0, coloring=(), witness=EmptyWitness())
    if H.m == 0:
        return ChiCertificate(k=1, coloring=(0,) * H.n, witness=EdgelessWitness())
    clique = greedy_clique(H)
    k = max(len(clique), 2)
    while True:
        coloring = is_k_colorable(H, k, deadline=deadline)
        if coloring is not None:
            witness = CliqueWitness(clique) if len(clique) == k else ExhaustionWitness(failed_k=k - 1)
            cert = ChiCertificate(k=k, coloring=coloring, witness=witness)
            check_coloring(H, cert.coloring, cert.k)
            return cert
        k += 1


def lovasz_chi(l: int, r: int) -> int:
    """Chromatic number of the Kneser graph K(l, r) by the closed form l - 2r + 2.

    Only valid on the formula's stated domain l >= 2r - 1.
    """

    if r < 1:
        raise ParameterError("r must be at least 1")
    if l < 2 * r - 1:
        raise ParameterError(f"closed form requires l >= 2r - 1, got l={l}, r={r}")
    return l - 2 * r + 2


def dimacs_lines(H: LabeledGraph) -> list[str]:
    """DIMACS coloring-instance export: ``p edge n m`` then 1-based ``e u v`` lines."""

    lines = [f"p edge {H.n} {H.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in H.edges)
    return lines
