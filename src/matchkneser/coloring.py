"""Exact graph coloring with verifiable certificates, plus the Kneser closed form.

The k-colorability search is DSATUR-style backtracking (Brélaz, CACM 1979):
branch on the uncolored vertex with the most distinctly colored neighbors,
ties by lowest index until the first dead end (see below). It runs on the
graph's neighbor bitmasks (``LabeledGraph.adj_masks``, built once per graph
and shared by every k of the iterative deepening, the greedy clique and the
coloring check) and keeps its state as bitsets too, in the manner of San
Segundo (Computers & OR 2012): ``level[s]`` holds the uncolored vertices of
saturation s and ``seen[c]`` the uncolored vertices with a neighbor colored
c. The next vertex comes from the highest non-empty level, and coloring a
vertex moves its neighbors that had not seen the color up one level, top
level first, stopping once all of them have moved. Color symmetry is broken
by only ever trying the colors used so far plus one fresh color.

A vertex in the top level, k - 1, has one color left, the f with no bit in
``seen[f]``. Such a forced vertex is colored inside the node whose coloring
forced it: one after another, lowest first, until the top level is empty or
a dead end shows. Only a vertex picked below the top level is a branch and
gets a trail entry: its index, the colors in use before it, and the
uncolored set, levels and seen sets as they were, so changing its color
restores them with two list assignments. Forced vertices are never retried,
since their one color has no alternative. A coloring is a dead end when it
takes a top-level vertex's last color. Two adjacent vertices left only f
need no test of their own: both stay in the top level until one of them is
colored, and the top level is emptied before any branch is picked, so the
chain colors one of them f and the other then loses its last color. A test
for such a pair would save only forced colorings, never a branch, and would
cost a loop over the k colors whenever a vertex reached the top level.

A branch is final, and is backed out of without trying its other colors,
when its coloring and the forced colorings after it end with no dead end and
leave every still-uncolored vertex seeing the colors it saw before the
branch. This is the autark assignment of Monien and Speckenmeyer (Discrete
Appl. Math. 10, 1985): the vertices colored since the branch are properly
colored and took no color from any other vertex, so any completion of the
branch's node, recolored to agree with them, completes the current state,
which the subtree searches in full.

The cut removes only subtrees that hold no coloring and leaves the order of
the other colorings as it was, so the first coloring found and every proven
"no" are those of the search without it. Ten isolated vertices before a K4
take 18 colorings at k = 3, not 162,390: each isolated vertex is final, so
the K4 is refuted once.

From its first dead end on, the search breaks branch ties by the least
bit-reversed index (bit 0 clear first, then bit 1, and so on), keeping the
tied vertices in each bit-clear mask they meet; forced vertices stay lowest
first. Kneser and matching Kneser graphs put similar sets at neighboring
indices, which lowest-first ties branch on one after another: K(10,2) at
k = 7 takes 1,263 colorings (164 branches), not 9,016 (1,858). On random
graphs the median cost is unchanged. Any tie-break keeps every proven "no",
but a coloring found after a dead end may differ, so :func:`is_k_colorable`
then reruns the search lowest-first for the canonical one.

The search is one loop over the trail: it never recurses and changes no
process-wide state. It checks its deadline once every ``_DEADLINE_STRIDE``
colorings, forced or not, and a timeout raises :class:`SearchTimeout` naming
how many colorings it made, so that an "unknown" can never masquerade as a
proven "no".
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

_DEADLINE_STRIDE = 1024  # colorings between deadline checks


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
    # sorted is stable, so equal degrees keep their index order.
    order = sorted(range(H.n), key=[-a.bit_count() for a in adj].__getitem__)
    clique: list[int] = []
    mask = 0
    for v in order:
        if mask & ~adj[v] == 0:
            clique.append(v)
            mask |= 1 << v
    return tuple(sorted(clique))


def _bit_clear_masks(n: int) -> list[int]:
    """For each bit b of the indices 0..n-1, the set of those indices with bit b clear."""

    masks = []
    for b in range((n - 1).bit_length()):
        width = 1 << b  # runs of width vertices with bit b clear, then width with it set
        period = 2 * width
        runs = ((1 << (period * (n // period + 1))) - 1) // ((1 << period) - 1)
        masks.append(runs * ((1 << width) - 1) & ((1 << n) - 1))
    return masks


def _least_bit_reversed(tied: int, masks: list[int]) -> int:
    """The bit of the vertex in ``tied`` whose index, read bits-reversed, is least.

    Each mask, lowest bit first, keeps the vertices with that bit clear if
    any are left; the indices left then agree on every bit, so one is.
    """

    for mask in masks:
        kept = tied & mask
        if kept:
            tied = kept
    return tied


def _search_k_coloring(
    n: int, adj: tuple[int, ...], k: int, deadline: Deadline, canonical: bool = False
) -> tuple[list[int] | None, bool]:
    """Backtracking k-colorability core for k >= 1; None means proven uncolorable.

    The flag says whether branch ties were broken by bit-reversed index,
    which only a search that has met a dead end and is not ``canonical`` does.
    """

    color = [-1] * n
    # Bit-clear masks, from the first dead end on, to break branch ties by the
    # least bit-reversed index; None while ties go to the lowest index.
    masks: list[int] | None = None
    # level[s]: the uncolored vertices with s distinct colors among their
    # neighbors; seen[c]: the uncolored vertices with a neighbor colored c;
    # free: every uncolored vertex.
    level = [0] * k
    level[0] = free = (1 << n) - 1
    seen = [0] * k
    top = k - 1  # the level of the vertices with one color left
    # One entry per branch vertex: its index, the colors in use before it,
    # and the uncolored set, levels and seen sets to restore when its color
    # changes.
    trail: list[tuple[int, int, int, list[int], list[int]]] = []
    # touched: the vertices that saw a new color since the last branch was
    # colored; final: the branch vertices whose node holds a coloring iff
    # their subtree does, so they are never retried.
    touched = final = 0
    stride = _DEADLINE_STRIDE
    colorings = used = 0
    check_at = stride
    dead = False  # the last coloring left some vertex no color
    while True:
        if dead:
            # Give the last branch vertex its next color, among the colors in
            # use and one fresh color; forced vertices and final branches are
            # never retried.
            while trail:
                v, used, free, saved_level, saved_seen = trail[-1]
                bit = 1 << v
                if final & bit:
                    final ^= bit
                else:
                    c = color[v] + 1
                    end = used + 1 if used < k else k
                    while c < end and saved_seen[c] & bit:
                        c += 1
                    if c < end:
                        break
                trail.pop()
            else:
                return None, masks is not None
            if masks is None and not canonical:
                masks = _bit_clear_masks(n)
            level[:] = saved_level
            seen[:] = saved_seen
            dead = False
            touched = 0
        else:
            # A vertex with one color left is colored inside the node that
            # forced it; only below the top level does the search branch.
            last = level[top]
            if last:
                bit = last & -last
                level[top] = last ^ bit
            elif free:
                # The last branch and the forced colorings after it changed
                # no uncolored vertex's colors left, so every completion of
                # its node recolors into one of its subtree: it is final.
                if not touched & free and trail:
                    final |= 1 << trail[-1][0]
                touched = 0
                # No vertex sees more colors than are in use.
                s = used if used < top else top - 1
                while not level[s]:
                    s -= 1
                bit = level[s] & -level[s] if masks is None else _least_bit_reversed(level[s], masks)
                level[s] ^= bit
            else:
                return color, masks is not None
            free ^= bit
            v = bit.bit_length() - 1
            # The lowest color the vertex has not seen: its last one, or for
            # a branch the lowest of the colors in use and one fresh color.
            c = 0
            while seen[c] & bit:
                c += 1
            if not last:
                trail.append((v, used, free, level.copy(), seen.copy()))
        color[v] = c
        colorings += 1
        if colorings == check_at:
            check_at += stride
            try:
                deadline.check("k-coloring search")
            except SearchTimeout as exc:
                raise SearchTimeout(f"{exc} after {colorings} colorings") from exc
        if c == used:
            used += 1
        # The uncolored neighbors that had not seen c go up one level, top
        # level first, until every one has moved. One in the top level has
        # lost its last color: a dead end.
        new = adj[v] & free & ~seen[c]
        if not new:
            # Nothing moves; returning here also keeps seen[c] the same int
            # the trail entries hold, where seen[c] |= 0 would copy it.
            continue
        if level[top] & new:
            dead = True
            continue
        seen[c] |= new
        touched |= new
        t = top - 1
        rest = new
        while True:
            moved = level[t] & rest
            if moved:
                level[t] ^= moved
                level[t + 1] |= moved
                rest ^= moved
                if not rest:
                    break
            t -= 1


def is_k_colorable(
    H: LabeledGraph,
    k: int,
    deadline: Deadline | None = None,
) -> tuple[int, ...] | None:
    """A proper k-coloring of H if one exists, else None (a proven no).

    The coloring is the one the search finds with lowest-first ties. Raises
    :class:`SearchTimeout` when the search exceeds its budget, so "unknown"
    is never conflated with "no"; a timeout in the lowest-first rerun says
    that a k-coloring exists.
    """

    if k < 0:
        raise ParameterError("color count k must be non-negative")
    deadline = ensure_deadline(deadline, DEFAULT_TIME_BUDGET)
    deadline.check("k-coloring search")
    if not k:
        return None if H.n else ()
    if H.m == 0:
        return (0,) * H.n
    result, reordered = _search_k_coloring(H.n, H.adj_masks, k, deadline)
    if result is not None and reordered:
        try:
            result, _ = _search_k_coloring(H.n, H.adj_masks, k, deadline, canonical=True)
        except SearchTimeout as exc:
            raise SearchTimeout(f"{exc} in the canonical rerun; a {k}-coloring exists, so chi <= {k}") from exc
    return tuple(result) if result is not None else None


def chromatic_number(
    H: LabeledGraph,
    deadline: Deadline | None = None,
) -> ChiCertificate:
    """The exact chromatic number of H with a certificate for both bounds.

    Iterative deepening on k from the greedy clique size upward; the first
    success is chi. The lower bound is witnessed by the clique when its size
    matches, otherwise by exhaustion of the (chi-1)-coloring search. A
    timeout raises :class:`SearchTimeout` naming how far the search got: the
    k under search and how many colorings it made, the proven bound
    chi >= k and the clique size.
    """

    deadline = ensure_deadline(deadline, DEFAULT_TIME_BUDGET)
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
