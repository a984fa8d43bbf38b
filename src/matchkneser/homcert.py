"""Homomorphism certificates pinning down the chromatic number of family instances.

For a prescribed-gap graph G with parameters (r, theta, gamma), two explicit
vertex maps sandwich chi of the matching Kneser graph of G between two copies
of chi(K(l, r - t)) = theta:

* forward: every r-matching of G keeps its r - t smallest matched-pair
  indices, landing in K(l, r - t); edge-disjoint matchings map to disjoint
  subsets, so a proper coloring of K(l, r - t) pulls back to G's side.
* backward: every (r - t)-subset S extends to an r-matching by adding one
  hub edge per hub, drawn from a block of padding vertices private to S
  (indexed by the colexicographic rank of S), so disjoint subsets map to
  edge-disjoint matchings.

Both maps are verified, never trusted. The forward map needs no pair loop:
computing it on each matching already proves it a homomorphism (see
:func:`certify_family`). The pulled-back coloring is checked on every pair
by :func:`check_color_classes`: matchings whose pair-edge sets intersect
share an edge, so inside a color class only groups with disjoint pair-edge
sets need their masks tested pair by pair, and on the family's own
colorings no group pair does. The backward map is checked edge by edge over
its source, the small Kneser graph K(l, r - t).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from math import comb
from typing import Any, Callable, Sequence

from .coloring import ChiCertificate, chromatic_number, lovasz_chi
from .errors import Deadline, KneserSizeError, ParameterError, Record, VerificationError, ensure_deadline
from .families import FamilyParams, gap_graph
from .graphs import Edge, LabeledGraph, Matching, MatchingView, decode_matching
from .kneser import capped_matchings, kneser_graph, r_subsets

# Unused here, but kept bound: perfbench/spans.py wraps this attribute of this module.
from .graphs import iter_matchings  # noqa: F401

# certify_family never builds the Kneser graph: it stores each matching's
# edge mask only, about 70 bytes per matching at r = 5 and 90 at r = 7 with
# the forward map and the coloring, so the cap bounds memory near 100 MB.
CERTIFY_MATCHING_CAP = 1_000_000


class HomWitness(Record):
    """An explicit vertex map between two graphs, checkable edge by edge.

    ``source_desc[i]`` and ``target_desc[j]`` describe what each vertex index
    stands for: a subset of 1-based labels, or an edge-matching, read from a
    :class:`~matchkneser.graphs.MatchingView` that decodes it on access.
    """

    source_desc: Sequence[Any]
    target_desc: Sequence[Any]
    mapping: tuple[int, ...]


class HomomorphismEvidence(Record):
    """Chi lower-bound witness: a verified homomorphism from a graph of known chi."""

    witness: HomWitness
    source_chi: ChiCertificate
    kind: str = "HOMOMORPHISM"

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "source_chi": self.source_chi.to_json_dict(),
            "mapping": list(self.witness.mapping),
        }


class FamilyCertification(Record):
    """Everything certify_family established about one parameter choice."""

    params: FamilyParams
    n_matchings: int
    chi_certificate: ChiCertificate
    forward: HomWitness
    backward: HomWitness
    kneser_certificate: ChiCertificate
    pairs_checked: int


def colex_rank(subset: Sequence[int]) -> int:
    """1-based colexicographic rank of a sorted subset of {1, 2, ...}."""

    rank = 1
    for j, s in enumerate(sorted(subset), start=1):
        rank += comb(s - 1, j)
    return rank


def forward_map(matching: Matching, params: FamilyParams) -> tuple[int, ...]:
    """The r - t smallest pair indices i whose edge x_i y_i lies in ``matching``.

    Every r-matching of the family graph carries at least r - t such edges
    (all other edges meet one of the t hubs); fewer indicates a construction
    bug and raises :class:`VerificationError`.
    """

    p = params
    offset = p.y_vertex(1)  # x_i y_i is (i - 1, i - 1 + offset)
    indices = sorted({u + 1 for u, v in matching if 0 <= u < p.l and v == u + offset})
    need = p.r - p.t
    if len(indices) < need:
        raise VerificationError(
            f"matching has {len(indices)} matched-pair edges, expected at least {need}"
        )
    return tuple(indices[:need])


def backward_map(subset: Sequence[int], params: FamilyParams) -> Matching:
    """The r-matching assigned to an (r - t)-subset of pair indices.

    The subset's own x_i y_i edges are joined by t hub edges w_k z_j taken
    from the w-block reserved for this subset via its colexicographic rank,
    which makes the images of distinct subsets edge-disjoint on the hub side.
    """

    p = params
    chosen = tuple(sorted(subset))
    if len(chosen) != p.r - p.t:
        raise ParameterError(f"subset must have size r - t = {p.r - p.t}, got {len(chosen)}")
    if len(set(chosen)) != len(chosen) or chosen[0] < 1 or chosen[-1] > p.l:
        raise ParameterError(f"subset must consist of distinct indices in 1..{p.l}")
    rank = colex_rank(chosen)
    edges: list[Edge] = [p.x_edge(i) for i in chosen]
    for j in range(1, p.t + 1):
        edges.append((p.w_vertex((rank - 1) * p.t + j), p.z_vertex(j)))
    return tuple(sorted(edges))


def find_violation(witness: HomWitness, source: LabeledGraph, target: LabeledGraph) -> Edge | None:
    """The first source edge whose endpoints do not map to a target edge, or None."""

    if len(witness.mapping) != source.n:
        raise ParameterError(
            f"mapping covers {len(witness.mapping)} of {source.n} source vertices"
        )
    for u, v in source.edges:
        a, b = witness.mapping[u], witness.mapping[v]
        if a == b or not target.has_edge(a, b):
            return (u, v)
    return None


def verify_homomorphism(witness: HomWitness, source: LabeledGraph, target: LabeledGraph) -> bool:
    """True iff every source edge maps to a target edge (exhaustive check)."""

    return find_violation(witness, source, target) is None


def hom_witness_lines(witness: HomWitness) -> list[str]:
    """Serialization: one line per source vertex, ``i -> j # src_desc | tgt_desc``."""

    def describe(obj: Any) -> str:
        if obj and isinstance(obj[0], tuple):  # a matching
            return " ".join(f"({u},{v})" for u, v in obj)
        return "{" + ",".join(str(x) for x in obj) + "}"

    return [
        f"{i} -> {j} # {describe(witness.source_desc[i])} | {describe(witness.target_desc[j])}"
        for i, j in enumerate(witness.mapping)
    ]


def check_color_classes(
    masks: Sequence[int],
    coloring: Sequence[int],
    key_bits: int,
    deadline: Deadline,
) -> None:
    """Raise :class:`VerificationError` if a color class holds two edge-disjoint matchings.

    ``masks[i]`` is the edge bitmask of a matching and ``coloring[i]`` its
    color. Within a class the matchings fall into groups by their key
    ``mask & key_bits``. Two matchings whose keys intersect share an edge,
    so a pair of groups with intersecting keys -- a group with a non-zero
    key paired with itself included -- holds no edge-disjoint pair. Only a
    pair of groups with disjoint keys (a zero key paired with itself
    included) is tested, mask against mask with ``not x & y``, up to the
    first disjoint pair; the first such test groups all masks by
    (color, key) in one pass. Without one the cost is a pass over the
    matchings plus the square of the number of groups in each class.
    Classes are checked in increasing color order, so the lowest improper
    color is the one named; ``deadline`` is checked once per class, once
    per tested group pair and once per member of that pair's first group.
    """

    _check_key_groups(set(zip(coloring, map(key_bits.__and__, masks))), masks, coloring, key_bits, deadline)


def _check_key_groups(
    color_keys: set[tuple[int, int]],
    masks: Sequence[int],
    coloring: Sequence[int],
    key_bits: int,
    deadline: Deadline,
) -> None:
    """:func:`check_color_classes` given ``color_keys``, the set of (color, key) pairs it reads."""

    stage = "pulled-back coloring check"
    keys_of: dict[int, list[int]] = {}
    for color, key in sorted(color_keys):
        keys_of.setdefault(color, []).append(key)
    groups: dict[tuple[int, int], list[int]] = {}
    for color, keys in keys_of.items():
        deadline.check(stage)
        for i, a in enumerate(keys):
            for b in keys[i:]:
                if a & b:
                    continue
                deadline.check(stage)
                if not groups:
                    for c, mask in zip(coloring, masks):
                        groups.setdefault((c, mask & key_bits), []).append(mask)
                first, second = groups[color, a], groups[color, b]
                for j, x in enumerate(first, 1):
                    deadline.check(stage)
                    if any(not x & y for y in (second[j:] if a == b else second)):
                        raise VerificationError(
                            f"pulled-back coloring is improper: color class {color} "
                            f"holds edge-disjoint matchings"
                        )


class _KeyIndex(dict):
    """A dict that fills a missing key with ``compute(key)`` on first lookup."""

    def __init__(self, compute: Callable[[int], int]) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key: int) -> int:
        value = self[key] = self.compute(key)
        return value


def certify_family(
    params: FamilyParams,
    time_budget: float | None = None,
    deadline: Deadline | None = None,
    cap: int = CERTIFY_MATCHING_CAP,
) -> FamilyCertification:
    """Certify chi = theta for the matching Kneser graph of ``gap_graph(params)``.

    Steps: (a) solve the small Kneser graph K(l, r - t) exactly and cross-check
    the closed form; (b) compute the forward map of every matching and check
    that no color class of the pulled-back coloring holds two edge-disjoint
    matchings, by :func:`check_color_classes` keyed on the pair edges;
    (c) verify the backward map on every edge of K(l, r - t), giving the
    matching lower bound. Every pair of matchings is covered, so
    ``pairs_checked`` is always n(n - 1)/2.

    The forward map needs no pair check of its own: the image of a matching
    consists of indices i whose edges x_i y_i lie in it, so two edge-disjoint
    matchings share no index and map to disjoint subsets, which are adjacent
    in K(l, r - t). :func:`forward_map` raising on no matching is the whole
    proof. The same fact makes step (b) cheap: a color class of K(l, r - t)
    holds no two disjoint subsets, so any two pair-edge sets in one pulled
    class intersect and :func:`check_color_classes` never tests a pair of
    masks. Any verification failure raises :class:`VerificationError`
    -- it would mean a bug, not an ambiguous input.

    An instance whose closed-form r-matching count
    (:attr:`FamilyParams.n_matchings`) exceeds ``cap`` is refused with
    :class:`KneserSizeError` before anything is enumerated; the default
    :data:`CERTIFY_MATCHING_CAP` bounds the stored matchings, not a Kneser
    graph, which is never built here. The enumeration must then find exactly
    that many matchings.
    """

    p = params
    deadline = ensure_deadline(deadline, time_budget)
    if p.n_matchings > cap:
        raise KneserSizeError(
            f"gap graph (r={p.r}, theta={p.theta}, gamma={p.gamma}) has {p.n_matchings} "
            f"r-matchings, more than the cap of {cap}"
        )
    G = gap_graph(p)
    masks = tuple(capped_matchings(G, p.r, cap, deadline))
    if len(masks) != p.n_matchings:
        raise VerificationError(
            f"enumerated {len(masks)} r-matchings, closed form gives {p.n_matchings}"
        )

    small = kneser_graph(p.l, p.r - p.t)
    small_cert = chromatic_number(small, deadline=deadline)
    if small_cert.k != lovasz_chi(p.l, p.r - p.t):
        raise VerificationError(
            f"solver found chi(K({p.l},{p.r - p.t})) = {small_cert.k}, "
            f"closed form gives {lovasz_chi(p.l, p.r - p.t)}"
        )
    if small_cert.k != p.theta:
        raise VerificationError(
            f"target Kneser graph has chi = {small_cert.k}, expected theta = {p.theta}"
        )

    subsets = r_subsets(p.l, p.r - p.t)
    subset_index = {s: i for i, s in enumerate(subsets)}
    decode = partial(decode_matching, G.edges)
    # forward_map reads only the pair edges x_i y_i, so a matching's image
    # depends only on its key ``mask & pair_bits``: it is computed once per
    # key, on the key's decoded pair edges, when the key is first looked up.
    # Keys are looked up in matching order, so it raises at the first
    # matching it cannot map.
    pair_edges = {p.x_edge(i) for i in range(1, p.l + 1)}
    pair_bits = sum(1 << i for i, e in enumerate(G.edges) if e in pair_edges)
    index_of = _KeyIndex(lambda key: subset_index[forward_map(decode(key), p)])
    forward_idx = tuple(map(index_of.__getitem__, map(pair_bits.__and__, masks)))
    colors = small_cert.coloring
    pulled_coloring = tuple(map(colors.__getitem__, forward_idx))

    # A matching's pulled color is a function of its key, so the distinct
    # keys alone give the (color, key) set the class check reads.
    color_keys = {(colors[i], key) for key, i in index_of.items()}
    _check_key_groups(color_keys, masks, pulled_coloring, pair_bits, deadline)

    # Backward homomorphism: every image is an r-matching of the host (found
    # by bisection on the decoded masks, which come in canonical order,
    # though not in integer order), round-trips through forward, and the map
    # is injective; then each edge of ``small`` -- a pair of disjoint
    # subsets, vertex ids in ``subsets`` order -- must map to edge-disjoint
    # matchings.
    backward_images = []
    for s in subsets:
        deadline.check("backward map verification")
        image = backward_map(s, p)
        i = bisect_left(masks, image, key=decode)
        if i == len(masks) or decode(masks[i]) != image:
            raise VerificationError(f"backward image of {s} is not an r-matching of the host")
        if forward_map(image, p) != s:
            raise VerificationError(f"forward(backward({s})) round trip failed")
        backward_images.append(i)
    if len(set(backward_images)) != len(subsets):
        raise VerificationError("backward map is not injective on subsets")
    for a, b in small.edges:
        if masks[backward_images[a]] & masks[backward_images[b]]:
            raise VerificationError(f"backward map is not a homomorphism at subsets ({a}, {b})")

    matchings = MatchingView(G.edges, masks)
    backward_witness = HomWitness(
        source_desc=tuple(subsets),
        target_desc=matchings,
        mapping=tuple(backward_images),
    )
    forward_witness = HomWitness(
        source_desc=matchings,
        target_desc=tuple(subsets),
        mapping=forward_idx,
    )
    chi_cert = ChiCertificate(
        k=p.theta,
        coloring=pulled_coloring,
        witness=HomomorphismEvidence(witness=backward_witness, source_chi=small_cert),
    )
    n = len(masks)
    return FamilyCertification(
        params=p,
        n_matchings=n,
        chi_certificate=chi_cert,
        forward=forward_witness,
        backward=backward_witness,
        kneser_certificate=small_cert,
        pairs_checked=n * (n - 1) // 2,
    )


def certified_chi(params: FamilyParams, **kwargs: Any) -> ChiCertificate:
    """The certified chromatic number theta for a family instance (see certify_family)."""

    return certify_family(params, **kwargs).chi_certificate
