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
by :func:`check_color_classes`: matchings whose forward images intersect
share a pair edge, so inside a color class only groups with disjoint images
need their masks tested pair by pair, and on the family's own colorings no
group pair does. The backward map is checked edge by edge over its source,
the small Kneser graph K(l, r - t).
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain, repeat
from math import comb
from operator import or_
from typing import Any, Callable, Iterable, Iterator, Sequence

from .coloring import ChiCertificate, chromatic_number, lovasz_chi
from .errors import Deadline, KneserSizeError, ParameterError, Record, VerificationError, ensure_deadline
from .families import FamilyParams, gap_graph
from .graphs import Edge, Matching, MatchingView, decode_matching, enumeration_index, mask_text
from .kneser import capped_matchings, kneser_graph, r_subsets, shared_edges

# Unused here, but kept bound: perfbench/spans.py wraps this attribute of this module.
from .graphs import iter_matchings  # noqa: F401

# certify_family never builds the Kneser graph: it stores each matching's
# edge mask only, about 70 bytes per matching at r = 5 and 90 at r = 7 with
# the forward map and the coloring, so the cap bounds memory near 100 MB.
# Writing the certificate adds little, since every file is written line by
# line: `certify --out` peaks at 56 MB on gap(5,3,1) and 124 MB on the r = 7,
# theta = 2 tree, against 52 and 119 MB without --out (2-CPU VM, Python 3.11).
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


def hom_witness_lines(witness: HomWitness) -> Iterator[str]:
    """Serialization: one line per source vertex, ``i -> j # src_desc | tgt_desc``, made as it is read.

    A description is a matching's :func:`~matchkneser.graphs.matching_text`,
    joined from a table of its host's edge texts without decoding it, or a
    subset's ``{a,b,...}``, made once per subset.
    """

    source, target = _describer(witness.source_desc), _describer(witness.target_desc)
    for i, j in enumerate(witness.mapping):
        yield f"{i} -> {j} # {source(i)} | {target(j)}"


def _describer(desc: Sequence[Any]) -> Callable[[int], str]:
    if isinstance(desc, MatchingView):
        text, masks = mask_text(desc.edges), desc.masks
        return lambda i: text(masks[i])
    return tuple("{" + ",".join(map(str, subset)) + "}" for subset in desc).__getitem__


def check_color_classes(
    color_keys: set[tuple[int, int]],
    masks: Sequence[int],
    coloring: Sequence[int],
    keys: Iterable[int],
    deadline: Deadline,
) -> None:
    """Raise :class:`VerificationError` if a color class holds two edge-disjoint matchings.

    ``masks[i]`` is the edge bitmask of a matching, ``coloring[i]`` its
    color and the i-th item of ``keys`` its key: an int such that two
    matchings whose keys intersect share an edge, as ``mask & bits`` or the
    pair indices of the forward image are. Within a class the matchings
    fall into groups by key; ``color_keys`` is the set of (color, key)
    pairs of all the matchings. A pair of groups with intersecting keys --
    a group with a non-zero key paired with itself included -- holds no
    edge-disjoint pair. Only a pair of groups with disjoint keys (a zero
    key paired with itself included) is tested, mask against mask with
    ``not x & y``, up to the first disjoint pair; the first such test reads
    ``keys`` and groups all masks by (color, key) in one pass. Without one
    the cost is the square of the number of groups in each class. Classes
    are checked in increasing color order, so the lowest improper color is
    the one named; ``deadline`` is checked once per class, once per tested
    group pair and once per member of that pair's first group.
    """

    stage = "pulled-back coloring check"
    keys_of: dict[int, list[int]] = {}
    for color, key in sorted(color_keys):
        keys_of.setdefault(color, []).append(key)
    groups: dict[tuple[int, int], list[int]] = {}
    for color, keys_in_class in keys_of.items():
        deadline.check(stage)
        for i, a in enumerate(keys_in_class):
            for b in keys_in_class[i:]:
                if a & b:
                    continue
                deadline.check(stage)
                if not groups:
                    for c, key, mask in zip(coloring, keys, masks):
                        groups.setdefault((c, key), []).append(mask)
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

    Steps: (a) enumerate the r-matchings block by block and compute the
    forward map of every matching; (b) solve the small Kneser graph
    K(l, r - t) exactly, cross-check the closed form, and check that no
    color class of the pulled-back coloring holds two edge-disjoint
    matchings, by :func:`check_color_classes` keyed on the forward images;
    (c) verify the backward map on every edge of K(l, r - t), giving the
    matching lower bound. Every pair of matchings is covered, so
    ``pairs_checked`` is always n(n - 1)/2.

    Step (a) goes block by block (:func:`~matchkneser.kneser.capped_matchings`):
    the members of a block share r - 1 edges and add one top edge above
    them. x_i y_i precedes x_j y_j in the host's edge list when i < j, so a
    pair-edge top has a larger pair index than every shared pair edge; if
    the shared edges hold r - t pair edges, their :func:`forward_map` image
    and its color are those of every member. Other blocks map each member
    from its own pair edges. :func:`forward_map` runs once per distinct set
    of pair edges.

    The forward map needs no pair check of its own: the image of a matching
    consists of indices i whose edges x_i y_i lie in it, so two edge-disjoint
    matchings share no index and map to disjoint subsets, which are adjacent
    in K(l, r - t). :func:`forward_map` raising on no matching is the whole
    proof. The same fact makes step (b) cheap: two matchings whose images
    intersect share a pair edge, and a color class of K(l, r - t) holds no
    two disjoint subsets, so any two images in one pulled class intersect
    and :func:`check_color_classes` never tests a pair of masks. Any
    verification failure raises :class:`VerificationError` -- it would mean
    a bug, not an ambiguous input.

    An instance whose closed-form r-matching count
    (:attr:`FamilyParams.n_matchings`) exceeds ``cap`` is refused with
    :class:`KneserSizeError` before anything is enumerated; the default
    :data:`CERTIFY_MATCHING_CAP` bounds the stored matchings, not a Kneser
    graph, which is never built here. The enumeration must then find exactly
    that many matchings. A given ``deadline`` bounds the certification and
    ``time_budget`` is then ignored; without one, it gets ``time_budget``
    seconds.
    """

    p = params
    deadline = ensure_deadline(deadline, time_budget)
    if p.n_matchings > cap:
        raise KneserSizeError(
            f"gap graph (r={p.r}, theta={p.theta}, gamma={p.gamma}) has {p.n_matchings} "
            f"r-matchings, more than the cap of {cap}"
        )
    need = p.r - p.t
    G = gap_graph(p)
    subsets = r_subsets(p.l, need)
    subset_index = {s: i for i, s in enumerate(subsets)}
    decode = partial(decode_matching, G.edges)
    # A key is a set of pair edges as a mask: a block's shared one, or each
    # member's ``mask & pair_bits``. The images are kept as runs (image,
    # length), one per run of blocks with one shared key.
    pair_edges = {p.x_edge(i) for i in range(1, p.l + 1)}
    pair_bits = sum(1 << i for i, e in enumerate(G.edges) if e in pair_edges)
    index_of = _KeyIndex(lambda key: subset_index[forward_map(decode(key), p)])
    masks: list[int] = []
    images: list[int] = []
    lengths: list[int] = []
    last = None  # the shared key of the last block, when it gave its whole block one image
    for block in capped_matchings(G, p.r, cap, deadline):
        masks += block
        key = shared_edges(block) & pair_bits
        if key == last:
            lengths[-1] += len(block)
        elif key.bit_count() >= need:
            last = key
            images.append(index_of[key])
            lengths.append(len(block))
        else:
            last = None
            images += map(index_of.__getitem__, map(pair_bits.__and__, block))
            lengths += repeat(1, len(block))
    if len(masks) != p.n_matchings:
        raise VerificationError(
            f"enumerated {len(masks)} r-matchings, closed form gives {p.n_matchings}"
        )
    masks = tuple(masks)

    small = kneser_graph(p.l, need)
    small_cert = chromatic_number(small, deadline=deadline)
    if small_cert.k != lovasz_chi(p.l, need):
        raise VerificationError(
            f"solver found chi(K({p.l},{need})) = {small_cert.k}, "
            f"closed form gives {lovasz_chi(p.l, need)}"
        )
    if small_cert.k != p.theta:
        raise VerificationError(
            f"target Kneser graph has chi = {small_cert.k}, expected theta = {p.theta}"
        )
    colors = small_cert.coloring
    forward_idx = tuple(chain.from_iterable(map(repeat, images, lengths)))
    pulled_coloring = tuple(chain.from_iterable(map(repeat, map(colors.__getitem__, images), lengths)))

    # The class check's keys: each image as a bitmask of its pair indices.
    image_bits = [sum(1 << i for i in s) for s in subsets]
    color_keys = {(colors[i], image_bits[i]) for i in set(images)}
    check_color_classes(color_keys, masks, pulled_coloring, map(image_bits.__getitem__, forward_idx), deadline)

    # Backward homomorphism: every image is an r-matching of the host (found
    # by bisection in enumeration order, not the integer order of the
    # masks), round-trips through forward, and the map is injective; then
    # each edge of ``small`` -- a pair of disjoint subsets, vertex ids in
    # ``subsets`` order -- must map to edge-disjoint matchings.
    bit_of = {e: 1 << i for i, e in enumerate(G.edges)}
    backward_images = []
    for j, s in enumerate(subsets):
        deadline.check("backward map verification")
        image = backward_map(s, p)
        mask = reduce(or_, (bit_of.get(e, 0) for e in image), 0)
        i = enumeration_index(masks, mask)
        if mask.bit_count() != len(image) or i is None:
            raise VerificationError(f"backward image of {s} is not an r-matching of the host")
        if forward_idx[i] != j:
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
