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
at once by counting the edge-disjoint pairs inside each color class over
sub-matchings (:func:`disjoint_pair_count`). The backward map is checked
edge by edge over its source, the small Kneser graph K(l, r - t).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import mul
from typing import Any, Sequence

from .coloring import ChiCertificate, chromatic_number, lovasz_chi
from .errors import Deadline, ParameterError, VerificationError, ensure_deadline
from .families import FamilyParams, gap_graph
from .graphs import Edge, LabeledGraph, Matching
from .kneser import DEFAULT_MATCHING_CAP, capped_matchings, kneser_graph, r_subsets

# Unused here, but kept bound: perfbench/spans.py wraps this attribute of this module.
from .graphs import iter_matchings  # noqa: F401

_DEADLINE_STRIDE = 4096  # matchings counted between deadline checks


@dataclass(frozen=True)
class HomWitness:
    """An explicit vertex map between two graphs, checkable edge by edge.

    ``source_desc[i]`` and ``target_desc[j]`` describe what each vertex index
    stands for (an edge-matching or a subset of 1-based labels).
    """

    source_desc: tuple[Any, ...]
    target_desc: tuple[Any, ...]
    mapping: tuple[int, ...]


@dataclass(frozen=True)
class HomomorphismEvidence:
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


@dataclass(frozen=True)
class FamilyCertification:
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


def disjoint_pair_count(matchings: Sequence[Matching], deadline: Deadline) -> int:
    """The number of ordered pairs (a, b) of ``matchings`` that share no edge.

    Every matching must be canonical, its edges sorted, so that the same set
    of edges is always the same tuple. Let cnt[A] be the number of matchings
    that contain the sub-matching A. By inclusion-exclusion, the matchings
    disjoint from a number the sum over A within a of (-1)^|A| cnt[A].
    Summing over every a counts each A once per matching that contains it,
    so the total is the sum over all A of (-1)^|A| cnt[A]^2. The sum runs
    one size j at a time: the j-edge sub-matchings of a sorted matching are
    its j-combinations, which come out sorted, so one Counter over them is
    cnt at size j, and only one size is held at a time.
    """

    total = len(matchings) ** 2  # A empty: every matching contains it
    for j in range(1, max(map(len, matchings), default=0) + 1):
        cnt: Counter[Matching] = Counter()
        for start in range(0, len(matchings), _DEADLINE_STRIDE):
            deadline.check("pulled-back coloring check")
            chunk = matchings[start:start + _DEADLINE_STRIDE]
            cnt.update(chain.from_iterable(map(combinations, chunk, repeat(j))))
        squares = sum(map(mul, cnt.values(), cnt.values()))
        total += -squares if j & 1 else squares
    return total


def certify_family(
    params: FamilyParams,
    time_budget: float | None = None,
    deadline: Deadline | None = None,
    cap: int = DEFAULT_MATCHING_CAP,
) -> FamilyCertification:
    """Certify chi = theta for the matching Kneser graph of ``gap_graph(params)``.

    Steps: (a) solve the small Kneser graph K(l, r - t) exactly and cross-check
    the closed form; (b) compute the forward map of every matching and check
    that no color class of the pulled-back coloring holds two edge-disjoint
    matchings, by :func:`disjoint_pair_count`; (c) verify the backward map on
    every edge of K(l, r - t), giving the matching lower bound. Every pair of
    matchings is covered, so ``pairs_checked`` is always n(n - 1)/2.

    The forward map needs no pair check of its own: the image of a matching
    consists of indices i whose edges x_i y_i lie in it, so two edge-disjoint
    matchings share no index and map to disjoint subsets, which are adjacent
    in K(l, r - t). :func:`forward_map` raising on no matching is the whole
    proof. Any verification failure raises :class:`VerificationError` -- it
    would mean a bug, not an ambiguous input.
    """

    p = params
    deadline = ensure_deadline(deadline, time_budget)
    G = gap_graph(p)
    matchings, masks = capped_matchings(G, p.r, cap)

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
    # forward_map reads only the pair edges x_i y_i, so a matching's image
    # depends only on ``mask & pair_bits``: it is computed once per key, on
    # the first matching with that key, which is also the first matching on
    # which forward_map could raise.
    pair_edges = {p.x_edge(i) for i in range(1, p.l + 1)}
    pair_bits = sum(1 << i for i, e in enumerate(G.edges) if e in pair_edges)
    index_of: dict[int, int] = {}
    for matching, mask in zip(matchings, masks):
        key = mask & pair_bits
        if key not in index_of:
            index_of[key] = subset_index[forward_map(matching, p)]
    forward_idx = tuple(index_of[mask & pair_bits] for mask in masks)
    pulled_coloring = tuple(map(small_cert.coloring.__getitem__, forward_idx))

    # Propriety of the pulled-back coloring, one color class at a time.
    for color in range(small_cert.k):
        members = list(compress(matchings, map(color.__eq__, pulled_coloring)))
        if disjoint_pair_count(members, deadline):
            raise VerificationError(
                f"pulled-back coloring is improper: color class {color} "
                f"holds edge-disjoint matchings"
            )

    # Backward homomorphism: every image is an r-matching of the host (found
    # by bisection, as ``matchings`` is sorted), round-trips through forward,
    # and the map is injective; then each edge of ``small`` -- a pair of
    # disjoint subsets, vertex ids in ``subsets`` order -- must map to
    # edge-disjoint matchings.
    backward_images = []
    for s in subsets:
        deadline.check("backward map verification")
        image = backward_map(s, p)
        i = bisect_left(matchings, image)
        if i == len(matchings) or matchings[i] != image:
            raise VerificationError(f"backward image of {s} is not an r-matching of the host")
        if forward_map(image, p) != s:
            raise VerificationError(f"forward(backward({s})) round trip failed")
        backward_images.append(i)
    if len(set(backward_images)) != len(subsets):
        raise VerificationError("backward map is not injective on subsets")
    for a, b in small.edges:
        if masks[backward_images[a]] & masks[backward_images[b]]:
            raise VerificationError(f"backward map is not a homomorphism at subsets ({a}, {b})")

    backward_witness = HomWitness(
        source_desc=tuple(subsets),
        target_desc=tuple(matchings),
        mapping=tuple(backward_images),
    )
    forward_witness = HomWitness(
        source_desc=tuple(matchings),
        target_desc=tuple(subsets),
        mapping=forward_idx,
    )
    chi_cert = ChiCertificate(
        k=p.theta,
        coloring=pulled_coloring,
        witness=HomomorphismEvidence(witness=backward_witness, source_chi=small_cert),
    )
    n = len(matchings)
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
