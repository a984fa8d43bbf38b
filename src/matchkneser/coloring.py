"""Exact graph coloring with verifiable certificates, plus the Kneser closed form.

The k-colorability search is DSATUR-style backtracking (Brélaz, CACM 1979):
branch on the uncolored vertex with the most distinctly colored neighbors,
ties by lowest index. It runs on the graph's neighbor bitmasks
(``LabeledGraph.adj_masks``, built once per graph and shared by every k of
the iterative deepening, the greedy clique and the coloring check) and keeps
its state as bitsets too, in the manner of San Segundo (Computers & OR
2012): ``level[s]`` holds the uncolored vertices of saturation s and
``seen[c]`` the vertices with a neighbor colored c. The branch vertex is
the lowest bit of the highest non-empty level, and coloring a vertex moves
its neighbors that had not seen the color up one level, so a search node
costs O(k) mask operations instead of a scan of all n vertices. Color
symmetry is broken by only ever trying the colors used so far plus one
fresh color. A vertex in ``level[k-1]`` has one color f left, the one with
no bit in ``seen[f]``; when a coloring moves some vertex into that level,
the search tests, for each f, whether the lowest vertex left only f has a
neighbor left only f. If so, no k-coloring completes the node, and it is a
dead end, like a vertex in ``level[k]``. The cut removes only subtrees that
hold no coloring and leaves the order of the other nodes as it was, so the
first coloring found and every proven "no" are those of the search without
it; only the node count drops (26,798 to 13,650 when refuting 7 colors on
K(10,2)). The search is one loop over an explicit trail, one entry per
colored vertex: it never recurses and changes no process-wide state. A
timeout raises :class:`SearchTimeout` so that an "unknown" can never
masquerade as a proven "no".
"""

from __future__ import annotations

from typing import Any

from .errors import (
    DEFAULT_TIME_BUDGET,
    Deadline,
    ParameterError,
    Record,
    SearchTimeout,
    VerificationError,
    ensure_deadline,
)
from .graphs import LabeledGraph

_DEADLINE_STRIDE = 1024  # search nodes between deadline checks


class EmptyWitness(Record):
    kind: str = "EMPTY"

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind}


class EdgelessWitness(Record):
    kind: str = "EDGELESS"

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind}


class CliqueWitness(Record):
    vertices: tuple[int, ...]
    kind: str = "CLIQUE"

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "vertices": list(self.vertices)}


class ExhaustionWitness(Record):
    """Records that the (k-1)-colorability search completed with no solution."""

    failed_k: int
    kind: str = "EXHAUSTION"

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "failed_k": self.failed_k}


class ChiCertificate(Record):
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
    """Raise :class:`VerificationError` unless ``coloring`` is proper and uses exactly k colors.

    Every vertex is tested against the mask of its own color class; only a
    failure goes back to the edge list, to name the first monochromatic edge.
    """

    if len(coloring) != H.n:
        raise VerificationError(f"coloring covers {len(coloring)} of {H.n} vertices")
    used = set(coloring)
    if H.n and (used != set(range(k))):
        raise VerificationError(f"coloring uses colors {sorted(used)}, expected exactly 0..{k - 1}")
    classes = [0] * k
    for v, c in enumerate(coloring):
        classes[c] |= 1 << v
    if any(adj & classes[c] for adj, c in zip(H.adj_masks, coloring)):
        u, v = next((u, v) for u, v in H.edges if coloring[u] == coloring[v])
        raise VerificationError(f"edge ({u}, {v}) is monochromatic in color {coloring[u]}")


def greedy_clique(H: LabeledGraph) -> tuple[int, ...]:
    """Greedy clique along a degree-descending vertex order (ties by index)."""

    adj = H.adj_masks
    order = sorted(range(H.n), key=lambda v: (-adj[v].bit_count(), v))
    clique: list[int] = []
    mask = 0
    for v in order:
        if mask & ~adj[v] == 0:
            clique.append(v)
            mask |= 1 << v
    return tuple(sorted(clique))


def _search_k_coloring(n: int, adj: tuple[int, ...], k: int, deadline: Deadline) -> list[int] | None:
    """Backtracking k-colorability core; None means proven uncolorable."""

    color = [-1] * n
    # level[s]: the uncolored vertices with s distinct colors among their
    # neighbors; seen[c]: the vertices with a neighbor colored c.
    level = [0] * (k + 1)
    level[0] = (1 << n) - 1
    seen = [0] * k
    # One entry per colored vertex: its bit, its level, the colors in use
    # before it and the neighbors its color moved up a level.
    trail: list[tuple[int, int, int, int]] = []
    nodes = used = 0
    dead = False  # the last coloring left two neighbors the same last color
    while True:
        nodes += 1
        if nodes % _DEADLINE_STRIDE == 0:
            deadline.check("k-coloring search")
        if len(trail) == n:
            return color
        # No vertex sees more colors than are in use.
        s = used if used < k else k
        while not level[s]:
            s -= 1
        if s < k and not dead:
            pick = level[s] & -level[s]
            level[s] ^= pick
            c = 0
        else:
            pick, c = 0, k  # a dead end: nothing to try, go straight to undo
        while True:
            # The lowest color from c on that the vertex has not seen, among
            # the colors in use and one fresh color.
            end = used + 1 if used < k else k
            while c < end and seen[c] & pick:
                c += 1
            if c < end:
                break
            level[s] |= pick
            if not trail:
                return None
            pick, s, used, new = trail.pop()
            c = color[pick.bit_length() - 1]
            for t in range(used + 1 if used < k else k):
                moved = level[t + 1] & new
                if moved:
                    level[t + 1] ^= moved
                    level[t] |= moved
            seen[c] ^= new
            c += 1
        v = pick.bit_length() - 1
        color[v] = c
        new = adj[v] & ~seen[c]
        seen[c] |= new
        # Neighbors that had not seen c go up one level, top level first.
        for t in range(used if used < k else k - 1, -1, -1):
            moved = level[t] & new
            if moved:
                level[t] ^= moved
                level[t + 1] |= moved
        trail.append((pick, s, used, new))
        if c == used:
            used += 1
        # A vertex in level k - 1 has one color left, the f with no bit in
        # seen[f]. If the lowest vertex left only f has a neighbor left only
        # f, no k-coloring completes this node: a dead end, like a vertex in
        # level k. A class gains vertices only when a coloring moves some
        # up into level k - 1, so a search that never backtracks pays one
        # AND per node.
        last = level[k - 1]
        dead = False
        if last & new:
            for f in range(k):
                forced = last & ~seen[f]
                if forced and adj[(forced & -forced).bit_length() - 1] & forced:
                    dead = True
                    break


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
    if H.m == 0 and k:
        return (0,) * H.n
    result = _search_k_coloring(H.n, H.adj_masks, k, deadline)
    return tuple(result) if result is not None else None


def chromatic_number(
    H: LabeledGraph,
    time_budget: float | None = DEFAULT_TIME_BUDGET,
    deadline: Deadline | None = None,
) -> ChiCertificate:
    """The exact chromatic number of H with a certificate for both bounds.

    Iterative deepening on k from the greedy clique size upward; the first
    success is chi. The lower bound is witnessed by the clique when its size
    matches, otherwise by exhaustion of the (chi-1)-coloring search. A
    timeout raises :class:`SearchTimeout` naming how far the search got: the
    k under search, the proven bound chi >= k and the clique size.
    """

    deadline = ensure_deadline(deadline, time_budget)
    if H.n == 0:
        return ChiCertificate(k=0, coloring=(), witness=EmptyWitness())
    if H.m == 0:
        return ChiCertificate(k=1, coloring=(0,) * H.n, witness=EdgelessWitness())
    clique = greedy_clique(H)
    k = max(len(clique), 2)
    while True:
        try:
            coloring = is_k_colorable(H, k, deadline=deadline)
        except SearchTimeout as exc:
            raise SearchTimeout(
                f"{exc} while searching for a {k}-coloring; chi >= {k} is proven (greedy clique of {len(clique)})"
            ) from exc
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
