"""Matching Kneser graphs and the classical Kneser graphs they generalize.

The matching Kneser graph of a host graph G at size r has one vertex per
r-matching of G, two vertices being adjacent when the matchings share no
edge. For a disjoint union of l independent edges this is exactly the
classical Kneser graph K(l, r) on r-subsets of an l-set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .errors import Deadline, KneserSizeError, ParameterError, ensure_deadline
from .families import matching_graph
from .graphs import LabeledGraph, Matching, matching_blocks, write_edgelist

# Unused here, but kept bound: perfbench/spans.py wraps these attributes of this module.
from .graphs import iter_matchings, make_graph  # noqa: F401

DEFAULT_MATCHING_CAP = 200_000
# The adjacency rows of a matching Kneser graph are held whole, about N/8
# bytes each at N vertices; their total is capped here (1 GiB).
KNESER_ROW_BYTES = 1 << 30


@dataclass(frozen=True)
class MatchingKneserGraph:
    """The matching Kneser graph of ``host`` at matching size ``r``.

    ``matchings[i]`` describes vertex ``i`` of ``graph``; the vertex order is
    the canonical (lexicographic) enumeration order, so vertex ids are stable
    across runs and usable in certificates.
    """

    host: LabeledGraph
    r: int
    matchings: tuple[Matching, ...]
    graph: LabeledGraph


def capped_matchings(
    G: LabeledGraph, r: int, cap: int = DEFAULT_MATCHING_CAP
) -> tuple[list[Matching], list[int]]:
    """The r-matchings of G in canonical order, with their edge-index bitmasks.

    Bit i of a mask stands for ``G.edges[i]``, so two matchings are
    edge-disjoint exactly when their masks AND to zero. Raises
    :class:`KneserSizeError` as soon as a block of
    :func:`~matchkneser.graphs.matching_blocks` (at most m matchings) takes
    the count past ``cap``.
    Callers rely on the order: it is the Kneser vertex order, and
    ``certify_family`` finds matchings by bisection.
    """

    matchings: list[Matching] = []
    masks: list[int] = []
    for block, block_masks in matching_blocks(G, r):
        matchings += block
        masks += block_masks
        if len(matchings) > cap:
            raise KneserSizeError(
                f"matching Kneser graph of ({G.n} vertices, r={r}) has more than "
                f"{cap} vertices (enumeration stopped at {cap + 1})"
            )
    return matchings, masks


def build_matching_kneser(
    G: LabeledGraph, r: int, cap: int = DEFAULT_MATCHING_CAP, deadline: Deadline | None = None
) -> MatchingKneserGraph:
    """Construct the matching Kneser graph of G at size r.

    Refuses with :class:`KneserSizeError` when the number of r-matchings
    exceeds ``cap``; enumeration is aborted as soon as the cap is crossed.
    Row i of the adjacency is the complement of the union, over the r edges
    of matching i, of the masks of the matchings using that edge. The rows
    are kept whole and become the graph's ``adj_masks``, so the edge list is
    decoded only if something reads it. Their bytes are counted as they are
    made, and the construction refuses with :class:`KneserSizeError` as soon
    as the total passes :data:`KNESER_ROW_BYTES`. The row loop checks
    ``deadline`` once per row and raises :class:`SearchTimeout` when it has
    expired.
    """

    if r < 1:
        raise ParameterError("matching size r must be at least 1")
    deadline = ensure_deadline(deadline, None)
    matchings, _ = capped_matchings(G, r, cap)
    n = len(matchings)
    index = {e: b for b, e in enumerate(G.edges)}
    # users[b]: the matchings that contain host edge b, as a mask over vertices.
    members = [bytearray((n + 7) // 8) for _ in range(G.m)]
    for i, matching in enumerate(matchings):
        for e in matching:
            members[index[e]][i >> 3] |= 1 << (i & 7)
    users = [int.from_bytes(b, "little") for b in members]
    full = (1 << n) - 1
    # Row i holds the matchings sharing no edge with matching i.
    rows: list[int] = []
    held = 0
    for i, matching in enumerate(matchings):
        deadline.check("matching Kneser construction")
        hit = 0
        for e in matching:
            hit |= users[index[e]]
        row = full ^ hit
        held += row.bit_length() // 8
        if held > KNESER_ROW_BYTES:
            raise KneserSizeError(
                f"matching Kneser graph of ({G.n} vertices, r={r}) needs more than "
                f"{KNESER_ROW_BYTES} bytes of adjacency rows (construction stopped at row {i} of {n})"
            )
        rows.append(row)
    return MatchingKneserGraph(
        host=G,
        r=r,
        matchings=tuple(matchings),
        graph=LabeledGraph(n=n, adj_masks=tuple(rows)),
    )


def r_subsets(l: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of {1..l} in lexicographic order."""

    return list(combinations(range(1, l + 1), r))


def kneser_graph(l: int, r: int) -> LabeledGraph:
    """The Kneser graph K(l, r): r-subsets of an l-set, adjacent when disjoint.

    Built as the matching Kneser graph of l independent edges: its i-th
    r-matching uses exactly the pairs named by the i-th r-subset in
    lexicographic order, so vertex ids agree with :func:`r_subsets`. The
    matching cap applies, so more than ``DEFAULT_MATCHING_CAP`` subsets
    raise :class:`KneserSizeError`.
    """

    if r < 1:
        raise ParameterError("subset size r must be at least 1")
    if l < r:
        raise ParameterError(f"need l >= r, got l={l}, r={r}")
    return build_matching_kneser(matching_graph(l), r).graph


def matchings_sidecar_lines(mkg: MatchingKneserGraph) -> list[str]:
    """One line per vertex: ``i: (u,v) (u,v) ...`` describing its matching."""

    return [
        f"{i}: " + " ".join(f"({u},{v})" for u, v in matching)
        for i, matching in enumerate(mkg.matchings)
    ]


def write_kneser_files(mkg: MatchingKneserGraph, base: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.edges`` (edge-list format) and ``<base>.matchings`` (sidecar)."""

    base = Path(base)
    graph_path = base.with_name(base.name + ".edges")
    sidecar_path = base.with_name(base.name + ".matchings")
    write_edgelist(mkg.graph, graph_path)
    sidecar_path.write_text("\n".join(matchings_sidecar_lines(mkg)) + "\n")
    return graph_path, sidecar_path
