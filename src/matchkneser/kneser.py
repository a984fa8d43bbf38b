"""Matching Kneser graphs and the classical Kneser graphs they generalize.

The matching Kneser graph of a host graph G at size r has one vertex per
r-matching of G, two vertices being adjacent when the matchings share no
edge. For a disjoint union of l independent edges this is exactly the
classical Kneser graph K(l, r) on r-subsets of an l-set.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import combinations, islice
from pathlib import Path
from typing import Iterator

from .errors import Deadline, KneserSizeError, ParameterError, Record, ensure_deadline
from .families import matching_graph
from .graphs import LabeledGraph, Matching, _bit_positions, decode_matching, mask_text, matching_blocks, unit_masks
from .graphs import write_edgelist, write_lines

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


def build_matching_kneser(
    G: LabeledGraph, r: int, cap: int = DEFAULT_MATCHING_CAP, deadline: Deadline | None = None
) -> MatchingKneserGraph:
    """Construct the matching Kneser graph of G at size r.

    Refuses with :class:`KneserSizeError` as soon as the enumeration
    passes ``cap`` r-matchings. Row i of the adjacency is the complement of
    the union, over matching i's r edges, of the masks of the matchings
    using each. A unit of :func:`matching_blocks` shares r - 2 edges and
    each of its lows one more, so those unions are taken once per unit and
    per low. The rows become the graph's ``adj_masks``, so the edge list is
    decoded only if read. Their bytes are counted as they are made, and the
    construction refuses with :class:`KneserSizeError` once they pass
    :data:`KNESER_ROW_BYTES`. ``deadline`` is checked once per unit and
    once per row (:class:`SearchTimeout`).
    """

    deadline = ensure_deadline(deadline, None)
    masks: list[int] = []
    # Host edges are numbered from 1 here: an edge's number is its bit's length.
    units = []  # (first matching, prefix edges, lows, run lengths)
    for prefix, lows, bits in matching_blocks(G, r, deadline, cap):
        units.append((len(masks), list(_bit_positions(prefix, 1)), lows, list(map(len, bits))))
        masks += unit_masks(prefix, lows, bits)
    n = len(masks)
    tops = list(map(int.bit_length, masks))
    # users[b]: the matchings that contain host edge b, as a mask over vertices.
    users = [0] * (G.m + 1)
    for i, top in enumerate(tops):
        users[top] |= 1 << i
    for start, shared, lows, lengths in units:
        span = ((1 << sum(lengths)) - 1) << start
        for b in shared:
            users[b] |= span
        for low, length in zip(lows, lengths):
            users[low.bit_length()] |= ((1 << length) - 1) << start
            start += length
    users[0] = 0  # the low of the r = 1 unit is no edge
    full = (1 << n) - 1
    # Row i holds the matchings sharing no edge with matching i.
    rows: list[int] = []
    held = 0
    numbered = enumerate(tops)
    for _, shared, lows, lengths in units:
        hit = 0
        for b in shared:
            hit |= users[b]
        for low, length in zip(lows, lengths):
            low_hit = hit | users[low.bit_length()]
            for i, top in islice(numbered, length):
                deadline.check("matching Kneser construction")
                row = full ^ (low_hit | users[top])
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


def matchings_sidecar_lines(mkg: MatchingKneserGraph) -> Iterator[str]:
    """One line per vertex, ``i: (u,v) (u,v) ...``, made from its mask as the line is made.

    The text comes from a table of the host's edge texts
    (:func:`~matchkneser.graphs.mask_text`), so no matching is decoded and
    ``mkg.matchings`` is not filled.
    """

    texts = map(mask_text(mkg.host.edges), mkg.masks)
    return (f"{i}: {text}" for i, text in enumerate(texts))


def write_kneser_files(mkg: MatchingKneserGraph, base: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.edges`` (edge-list format) and ``<base>.matchings`` (sidecar), line by line."""

    base = Path(base)
    graph_path = base.with_name(base.name + ".edges")
    sidecar_path = base.with_name(base.name + ".matchings")
    write_edgelist(mkg.graph, graph_path)
    write_lines(matchings_sidecar_lines(mkg), sidecar_path)
    return graph_path, sidecar_path
