"""Matching Kneser graphs and the classical Kneser graphs they generalize.

The matching Kneser graph of a host graph G at size r has one vertex per
r-matching of G, two vertices being adjacent when the matchings share no
edge. For a disjoint union of l independent edges this is exactly the
classical Kneser graph K(l, r) on r-subsets of an l-set.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import combinations
from pathlib import Path

from .errors import Deadline, KneserSizeError, ParameterError, Record, ensure_deadline
from .families import matching_graph
from .graphs import LabeledGraph, Matching, _bit_positions, decode_matching, matching_blocks, write_edgelist

# Unused here, but kept bound: perfbench/spans.py wraps these attributes of this module.
from .graphs import iter_matchings, make_graph  # noqa: F401

DEFAULT_MATCHING_CAP = 200_000
# The adjacency rows of a matching Kneser graph are held whole, about N/8
# bytes each at N vertices; their total is capped here (1 GiB).
KNESER_ROW_BYTES = 1 << 30


class MatchingKneserGraph(Record):
    """The matching Kneser graph of ``host`` at matching size ``r``.

    ``masks[i]`` is the edge-index bitmask of the matching at vertex ``i``
    of ``graph``; the vertex order is the canonical (lexicographic)
    enumeration order, so vertex ids are stable across runs and usable in
    certificates. ``matchings`` decodes them on first read and is cached;
    equality and hashing are over the fields and never decode.
    """

    host: LabeledGraph
    r: int
    masks: tuple[int, ...]
    graph: LabeledGraph

    @cached_property
    def matchings(self) -> tuple[Matching, ...]:
        return tuple(map(partial(decode_matching, self.host.edges), self.masks))


def capped_matchings(
    G: LabeledGraph, r: int, cap: int = DEFAULT_MATCHING_CAP, deadline: Deadline | None = None
) -> list[int]:
    """The r-matchings of G in canonical order, as edge-index bitmasks.

    Bit i of a mask stands for ``G.edges[i]``, so two matchings are
    edge-disjoint exactly when their masks AND to zero, and
    :func:`~matchkneser.graphs.decode_matching` gives a matching's edge
    tuple. A mask is one int, 39 bytes on gap(5,3,1)'s 125 edges and 60 on
    gap_tree(7, 1)'s 495, plus 8 for its list slot. Raises
    :class:`KneserSizeError` as soon as a block of
    :func:`~matchkneser.graphs.matching_blocks` (at most m matchings) takes
    the count past ``cap``, and :class:`SearchTimeout` when ``deadline``,
    checked once per block and inside the search, has expired.
    Callers rely on the order: it is the Kneser vertex order, and
    ``certify_family`` finds matchings by bisection on their decoded form.
    """

    deadline = ensure_deadline(deadline, None)
    masks: list[int] = []
    for block in matching_blocks(G, r, deadline):
        deadline.check("r-matching enumeration")
        masks += block
        if len(masks) > cap:
            raise KneserSizeError(
                f"matching Kneser graph of ({G.n} vertices, r={r}) has more than "
                f"{cap} vertices (enumeration stopped at {cap + 1})"
            )
    return masks


def build_matching_kneser(
    G: LabeledGraph, r: int, cap: int = DEFAULT_MATCHING_CAP, deadline: Deadline | None = None
) -> MatchingKneserGraph:
    """Construct the matching Kneser graph of G at size r.

    Refuses with :class:`KneserSizeError` when the number of r-matchings
    exceeds ``cap``; enumeration is aborted as soon as the cap is crossed.
    Row i of the adjacency is the complement of the union, over the r edges
    of matching i, of the masks of the matchings using that edge. A run of
    consecutive matchings shares every edge but its top bit (a block of
    :func:`~matchkneser.graphs.matching_blocks`), so the union over the
    shared edges is taken once per run. The rows are kept whole and become
    the graph's ``adj_masks``, so the edge list is decoded only if something
    reads it. Their bytes are counted as they are made, and the construction
    refuses with :class:`KneserSizeError` as soon as the total passes
    :data:`KNESER_ROW_BYTES`. The enumeration checks ``deadline`` once per
    block and the row loop once per row; either raises
    :class:`SearchTimeout` when it has expired.
    """

    deadline = ensure_deadline(deadline, None)
    masks = capped_matchings(G, r, cap, deadline)
    n = len(masks)
    tops = [mask.bit_length() - 1 for mask in masks]
    # runs: (first matching, host edges shared by the run), ended by a sentinel.
    runs: list[tuple[int, list[int]]] = []
    last = -1
    for i, (mask, top) in enumerate(zip(masks, tops)):
        if mask ^ (1 << top) != last:
            last = mask ^ (1 << top)
            runs.append((i, list(_bit_positions(last, 0))))
    runs.append((n, []))
    # users[b]: the matchings that contain host edge b, as a mask over vertices.
    users = [0] * G.m
    for (start, shared), (end, _) in zip(runs, runs[1:]):
        for b in shared:
            users[b] |= ((1 << (end - start)) - 1) << start
    for i, top in enumerate(tops):
        users[top] |= 1 << i
    full = (1 << n) - 1
    # Row i holds the matchings sharing no edge with matching i.
    rows: list[int] = []
    held = 0
    for (start, shared), (end, _) in zip(runs, runs[1:]):
        hit = 0
        for b in shared:
            hit |= users[b]
        for i in range(start, end):
            deadline.check("matching Kneser construction")
            row = full ^ (hit | users[tops[i]])
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
        masks=tuple(masks),
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
    sidecar_path.write_text("".join(line + "\n" for line in matchings_sidecar_lines(mkg)))
    return graph_path, sidecar_path
