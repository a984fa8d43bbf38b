"""Homomorphism maps and the certified chromatic numbers they produce."""

import random
import re
import tracemalloc
from collections import Counter
from itertools import chain, combinations
from math import comb

import pytest

from matchkneser import (
    ChiCertificate,
    Deadline,
    FamilyParams,
    HomWitness,
    ParameterError,
    SearchTimeout,
    VerificationError,
    backward_map,
    build_matching_kneser,
    certify_family,
    colex_rank,
    enumerate_matchings,
    forward_map,
    gap_graph,
    kneser_graph,
    make_graph,
    petersen,
    r_subsets,
)
from matchkneser import homcert
from matchkneser.coloring import check_coloring
from matchkneser.graphs import MatchingView, matching_blocks, unit_masks, write_lines
from matchkneser.homcert import (
    CERTIFY_MATCHING_CAP,
    check_color_classes,
    hom_witness_lines,
)
from matchkneser.verify import THEOREM2_GRID

from helpers import SURVEY_GRID, CountingDeadline, check_enumeration_index, find_violation, verify_homomorphism

P311 = FamilyParams(3, 1, 1)


def test_colex_rank_examples():
    assert colex_rank((1, 2)) == 1
    assert colex_rank((1, 3)) == 2
    assert colex_rank((2, 3)) == 3


@pytest.mark.parametrize("l", range(2, 9))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_colex_rank_is_a_bijection(l, k):
    if k > l:
        return
    subsets = list(combinations(range(1, l + 1), k))
    ranks = sorted(colex_rank(s) for s in subsets)
    assert ranks == list(range(1, len(subsets) + 1))
    # colex order: compare by largest element downward
    by_rank = sorted(subsets, key=colex_rank)
    assert by_rank == sorted(subsets, key=lambda s: tuple(reversed(sorted(s))))


def test_forward_map_examples():
    # host (3,1,1): x-block 0..2, w-block 3..8, y-block 9..11, z1 = 12
    assert forward_map(((0, 9), (1, 10), (3, 12)), P311) == (1, 2)
    assert forward_map(((0, 9), (1, 10), (2, 11)), P311) == (1, 2)  # lexicographic truncation


def test_forward_map_detects_missing_pair_edges():
    foreign = ((0, 9), (1, 10), (3, 12))  # indices of (3,1,1), not of (3,2,1)
    with pytest.raises(VerificationError):
        forward_map(foreign, FamilyParams(3, 2, 1))


def _forward_outcome(fn, matching, params):
    try:
        return fn(matching, params)
    except VerificationError:
        return VerificationError


def _forward_reference(matching, p):
    """The forward map as a scan over every pair edge x_i y_i."""

    indices = [i for i in range(1, p.l + 1) if p.x_edge(i) in matching]
    if len(indices) < p.r - p.t:
        raise VerificationError("too few matched-pair edges")
    return tuple(indices[: p.r - p.t])


@pytest.mark.parametrize("grid", THEOREM2_GRID)
def test_forward_map_matches_pair_edge_scan(grid):
    params = FamilyParams(*grid)
    matchings = enumerate_matchings(gap_graph(params), params.r)
    # Canonical matchings, plus reordered, flipped and repeated edges.
    inputs = [((0, 9), (1, 10), (3, 12))]
    for mt in matchings:
        inputs += [mt, mt[::-1], tuple((v, u) for u, v in mt), mt + mt[:1]]
    for mt in inputs:
        expected = _forward_outcome(_forward_reference, mt, params)
        assert _forward_outcome(forward_map, mt, params) == expected


# The radius-2 trees gap_tree(r, theta) for r <= 6, where a block topped by
# a hub edge w_k z_1 is common; those with r <= 5 are on the survey grid.
# gap_tree(6, 3), 221,760 matchings, would take about 5 s of the forward test.
_TREES = [(r, theta, r - 2) for r in range(3, 7) for theta in (1, 2, 3) if (r, theta) != (6, 3)]


@pytest.mark.parametrize(
    "grid", sorted(set(THEOREM2_GRID) | set(SURVEY_GRID)) + [t for t in _TREES if t not in SURVEY_GRID]
)
def test_forward_witness_is_forward_map_of_every_matching(grid):
    # certify_family calls forward_map once per pair-edge set, and gives a
    # block whose shared edges hold r - t pair edges one image and one
    # color; the witness must still be the map itself on every matching,
    # and the pulled color the small color of its image.
    params = FamilyParams(*grid)
    certification = certify_family(params)
    forward = certification.forward
    subsets = r_subsets(params.l, params.r - params.t)
    subset_index = {s: i for i, s in enumerate(subsets)}
    assert forward.target_desc == tuple(subsets)
    assert list(forward.source_desc) == enumerate_matchings(gap_graph(params), params.r)
    assert forward.mapping == tuple(subset_index[forward_map(mt, params)] for mt in forward.source_desc)
    small = certification.kneser_certificate.coloring
    assert certification.chi_certificate.coloring == tuple(small[i] for i in forward.mapping)


@pytest.mark.parametrize("grid", sorted(set(SURVEY_GRID) | set(_TREES)))
def test_enumeration_key_sorts_masks_as_they_are_enumerated(grid):
    # The enumeration key of a mask is its list of edge indices, lowest
    # first; the masks come strictly in its order, and the package's
    # bisection on that order finds each of them.
    params = FamilyParams(*grid)
    masks = _masks(gap_graph(params), params.r)
    keys = [[i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"] for mask in masks]
    assert all(map(list.__lt__, keys, keys[1:]))
    check_enumeration_index(masks)
    if params.r > 3:
        assert masks != sorted(masks)  # so bisection cannot use the masks themselves


def test_certification_maps_each_key_once_and_decodes_no_probe(monkeypatch):
    params = FamilyParams(5, 2, 1)
    G = gap_graph(params)
    subsets = r_subsets(params.l, params.r - params.t)
    decoded, mapped, mapped_back = [], [], []
    real_decode, real_forward, real_backward = homcert.decode_matching, homcert.forward_map, homcert.backward_map

    def decode(edges, mask):
        decoded.append(mask)
        return real_decode(edges, mask)

    def forward(matching, p):
        mapped.append(matching)
        return real_forward(matching, p)

    def backward(subset, p):
        mapped_back.append(subset)
        return real_backward(subset, p)

    monkeypatch.setattr(homcert, "decode_matching", decode)
    monkeypatch.setattr(homcert, "forward_map", forward)
    monkeypatch.setattr(homcert, "backward_map", backward)
    certification = certify_family(params)
    # Every decode is a key fill: pair edges only, each fed to forward_map once.
    assert [real_decode(G.edges, mask) for mask in decoded] == mapped
    assert all(mask & _pair_bits(G, params) == mask for mask in decoded)
    assert len(set(mapped)) == len(mapped) < certification.n_matchings // 100
    assert mapped_back == subsets


def test_forward_map_failure_stops_certification(monkeypatch):
    params = FamilyParams(3, 2, 1)
    last = r_subsets(params.l, params.r - params.t)[-1]
    real = homcert.forward_map

    def failing(matching, p):
        image = real(matching, p)
        if image == last:
            raise VerificationError(f"planted failure at {matching}")
        return image

    def unreachable(subset, p):
        raise AssertionError("the forward map is checked before the backward map")

    monkeypatch.setattr(homcert, "forward_map", failing)
    monkeypatch.setattr(homcert, "backward_map", unreachable)
    with pytest.raises(VerificationError, match="planted failure"):
        certify_family(params)


def test_backward_map_examples():
    assert backward_map((1, 2), P311) == ((0, 9), (1, 10), (3, 12))
    assert backward_map((1, 3), P311) == ((0, 9), (2, 11), (4, 12))
    assert backward_map((2, 3), P311) == ((1, 10), (2, 11), (5, 12))


def test_backward_map_domain():
    with pytest.raises(ParameterError):
        backward_map((1,), P311)  # wrong size
    with pytest.raises(ParameterError):
        backward_map((1, 4), P311)  # out of range
    with pytest.raises(ParameterError):
        backward_map((2, 2), P311)  # duplicates


def test_verify_homomorphism_basics():
    P = petersen()
    identity = HomWitness(
        source_desc=tuple(range(10)), target_desc=tuple(range(10)), mapping=tuple(range(10))
    )
    assert verify_homomorphism(identity, P, P)
    K2 = make_graph(2, [(0, 1)])
    constant = HomWitness(source_desc=(0, 1), target_desc=(0, 1), mapping=(0, 0))
    assert not verify_homomorphism(constant, K2, K2)
    assert find_violation(constant, K2, K2) == (0, 1)
    short = HomWitness(source_desc=(0,), target_desc=(0, 1), mapping=(0,))
    with pytest.raises(ParameterError):
        verify_homomorphism(short, K2, K2)


def test_forward_witness_is_a_homomorphism_on_graphs():
    # The pairwise reference check that certify_family itself leaves out.
    for params in [P311] + [FamilyParams(*grid) for grid in THEOREM2_GRID]:
        mkg = build_matching_kneser(gap_graph(params), params.r)
        small = kneser_graph(params.l, params.r - params.t)
        certification = certify_family(params)
        assert verify_homomorphism(certification.forward, mkg.graph, small)
        assert verify_homomorphism(certification.backward, small, mkg.graph)


@pytest.mark.parametrize(
    "params, theta",
    [(FamilyParams(3, 1, 1), 1), (FamilyParams(3, 2, 1), 2), (FamilyParams(3, 3, 1), 3)],
)
def test_certified_chi(params, theta):
    assert certify_family(params).chi_certificate.k == theta


def test_certification_internals():
    certification = certify_family(FamilyParams(3, 2, 1))
    p = certification.params
    subsets = list(combinations(range(1, p.l + 1), p.r - p.t))
    # round trip: forward(backward(S)) == S
    for s in subsets:
        assert forward_map(backward_map(s, p), p) == s
    # backward is injective
    images = [backward_map(s, p) for s in subsets]
    assert len(set(images)) == len(images)
    # disjoint subsets get edge-disjoint matchings
    for a, b in combinations(range(len(subsets)), 2):
        if not set(subsets[a]) & set(subsets[b]):
            assert not set(images[a]) & set(images[b])


def test_backward_map_sharing_a_hub_edge_is_refused(monkeypatch):
    # Every subset takes the w-block of rank 1: the images stay injective and
    # round-trip, but disjoint subsets now share the hub edge w_1 z_1.
    def rank_one(subset, p):
        edges = [p.x_edge(i) for i in sorted(subset)]
        edges += [(p.w_vertex(j), p.z_vertex(j)) for j in range(1, p.t + 1)]
        return tuple(sorted(edges))

    monkeypatch.setattr(homcert, "backward_map", rank_one)
    with pytest.raises(VerificationError, match="not a homomorphism"):
        certify_family(FamilyParams(3, 2, 1))


@pytest.mark.parametrize(
    "spoil",
    [
        lambda image, p: image[:-1],  # r - 1 edges
        lambda image, p: image[:-1] + ((p.x_vertex(1), p.w_vertex(1)),),  # not a host edge
        lambda image, p: image[:-1] + ((p.x_vertex(1), p.z_vertex(1)),),  # meets x_1 y_1
        lambda image, p: image + ((p.x_vertex(p.l), p.y_vertex(p.l)),),  # r + 1 edges
        lambda image, p: image + image[:1],  # r + 1 edges, one of them twice
    ],
    ids=["short", "non-edge", "not-disjoint", "long", "repeated"],
)
def test_backward_image_that_is_no_host_matching_is_refused(monkeypatch, spoil):
    # The lookup bisects the decoded masks; an image that is not among them
    # must be named, whatever its place in the canonical order.
    real = homcert.backward_map

    def spoiled(subset, p):
        image = real(subset, p)
        return tuple(sorted(spoil(image, p))) if subset == (1, 2) else image

    monkeypatch.setattr(homcert, "backward_map", spoiled)
    with pytest.raises(VerificationError, match=r"backward image of \(1, 2\) is not an r-matching of the host"):
        certify_family(FamilyParams(3, 2, 1))


def test_backward_map_that_does_not_round_trip_is_refused(monkeypatch):
    # The images of {1,2} and {1,3} swapped: still an injective map to host
    # matchings, but forward(backward({1,2})) is {1,3}.
    real = homcert.backward_map
    swap = {(1, 2): (1, 3), (1, 3): (1, 2)}

    def swapped(subset, p):
        return real(swap.get(tuple(subset), subset), p)

    monkeypatch.setattr(homcert, "backward_map", swapped)
    with pytest.raises(VerificationError, match=r"forward\(backward\(\(1, 2\)\)\) round trip failed"):
        certify_family(FamilyParams(3, 2, 1))


def test_pulled_back_coloring_is_proper():
    certification = certify_family(FamilyParams(3, 3, 1))
    mkg = build_matching_kneser(gap_graph(certification.params), 3)
    check_coloring(mkg.graph, certification.chi_certificate.coloring, 3)
    n = certification.n_matchings
    assert certification.pairs_checked == n * (n - 1) // 2
    assert certification.chi_certificate.witness.kind == "HOMOMORPHISM"
    assert certification.chi_certificate.witness.source_chi.k == 3


def test_improper_pulled_coloring_is_refused(monkeypatch):
    params = FamilyParams(3, 2, 1)
    real = homcert.chromatic_number

    def one_color(graph, deadline=None):
        cert = real(graph, deadline=deadline)
        return ChiCertificate(k=cert.k, coloring=(0,) * graph.n, witness=cert.witness)

    monkeypatch.setattr(homcert, "chromatic_number", one_color)
    with pytest.raises(VerificationError, match="color class 0"):
        certify_family(params)


def test_certify_family_checks_the_deadline_in_every_loop():
    params = FamilyParams(4, 3, 1)
    recorder = CountingDeadline()
    certify_family(params, deadline=recorder)
    assert recorder.stages.count("pulled-back coloring check") >= params.theta
    assert recorder.stages.count("backward map verification") == comb(params.l, params.r - params.t)
    for stage in ("pulled-back coloring check", "backward map verification"):
        deadline = CountingDeadline(limit=recorder.stages.index(stage))
        with pytest.raises(SearchTimeout, match=stage):
            certify_family(params, deadline=deadline)


def test_certify_respects_matching_cap():
    from matchkneser import KneserSizeError

    with pytest.raises(KneserSizeError):
        certify_family(P311, cap=10)


def test_certify_refuses_before_it_enumerates(monkeypatch):
    from matchkneser import KneserSizeError

    seen = Counter()  # host vertex count -> matchings enumerated on that host
    real = homcert.matching_blocks

    def counting(G, r, deadline=None, cap=None):
        for unit in real(G, r, deadline, cap):
            seen[G.n] += len(unit_masks(*unit))
            yield unit

    monkeypatch.setattr(homcert, "matching_blocks", counting)
    tree = FamilyParams(8, 1, 6)  # gap_tree(8, 1): about 3.0M 8-matchings
    assert tree.n_matchings > CERTIFY_MATCHING_CAP
    with pytest.raises(KneserSizeError, match=f"{tree.n_matchings} r-matchings"):
        certify_family(tree)
    with pytest.raises(KneserSizeError):
        certify_family(P311, cap=P311.n_matchings - 1)
    assert not seen
    assert certify_family(P311, cap=P311.n_matchings).n_matchings == P311.n_matchings
    assert seen[P311.n_vertices] == P311.n_matchings


def test_certify_checks_the_enumeration_against_the_closed_form(monkeypatch):
    real = homcert.matching_blocks

    def one_short(G, r, deadline, cap):
        # The units as enumerated, less the last matching of the last unit.
        units = list(real(G, r, deadline, cap))
        prefix, lows, bits = units[-1]
        units[-1] = (prefix, lows, bits[:-1] + (bits[-1][:-1],))
        return units

    monkeypatch.setattr(homcert, "matching_blocks", one_short)
    with pytest.raises(VerificationError, match="closed form"):
        certify_family(P311)


def test_witness_serialization():
    certification = certify_family(P311)
    lines = list(hom_witness_lines(certification.forward))
    assert lines[0] == "0 -> 0 # (0,9) (1,10) (2,11) | {1,2}"
    assert len(lines) == certification.n_matchings
    back_lines = list(hom_witness_lines(certification.backward))
    assert back_lines[0].startswith("0 -> ")
    assert "{1,2}" in back_lines[0]


def test_witness_file_is_written_line_by_line(tmp_path):
    # 8,105 lines, about 400 KB of text: holding them all at once would pass the bound.
    certification = certify_family(FamilyParams(4, 3, 1))
    assert certification.n_matchings == 8105
    path = tmp_path / "forward.txt"
    # CPython keeps up to 2,000 freed tuples of each size for reuse, and
    # tracemalloc counts them as held; a first write fills that cache, so
    # the second one measures what the write path itself holds.
    write_lines(hom_witness_lines(certification.forward), path)
    tracemalloc.start()
    try:
        write_lines(hom_witness_lines(certification.forward), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 1024
    text = path.read_text()
    assert text.count("\n") == 8105 and text.startswith("0 -> 0 # ")


def test_matching_witnesses_decode_on_read_and_hash_on_masks(monkeypatch):
    from matchkneser import graphs

    certification = certify_family(FamilyParams(3, 2, 1))
    G = gap_graph(certification.params)
    matchings = enumerate_matchings(G, 3)
    view = certification.forward.source_desc
    assert certification.backward.target_desc is view
    assert len(view) == len(matchings) == certification.n_matchings
    assert list(view) == matchings
    assert (view[0], view[-1]) == (matchings[0], matchings[-1])
    twin = certify_family(FamilyParams(3, 2, 1))

    def no_decoding(edges, mask):
        raise AssertionError("decoded a matching")

    monkeypatch.setattr(graphs, "decode_matching", no_decoding)
    assert hash(certification) == hash(twin) and certification == twin
    assert view == twin.forward.source_desc and view != MatchingView(view.edges, view.masks[1:])
    assert len(view) == certification.n_matchings


def _masks(G, r):
    """Every mask matching_blocks yields, its units joined."""

    return list(chain.from_iterable(unit_masks(*unit) for unit in matching_blocks(G, r, cap=CERTIFY_MATCHING_CAP)))


def _pair_bits(G, params):
    pair_edges = {params.x_edge(i) for i in range(1, params.l + 1)}
    return sum(1 << i for i, e in enumerate(G.edges) if e in pair_edges)


def _check_classes(masks, coloring, key_bits, deadline):
    """check_color_classes keyed on ``mask & key_bits`` (or on a list of keys), with every (color, key) pair."""

    keys = key_bits if isinstance(key_bits, list) else [mask & key_bits for mask in masks]
    check_color_classes(set(zip(coloring, keys)), masks, coloring, keys, deadline)


def _improper_class(masks, coloring, key_bits, deadline=None):
    """The color check_color_classes names, or None when it accepts."""

    try:
        _check_classes(masks, coloring, key_bits, deadline or Deadline(None))
    except VerificationError as err:
        return int(re.search(r"color class (\d+) holds", str(err)).group(1))
    return None


def _improper_class_oracle(matchings, coloring):
    """The lowest color holding two edge-disjoint matchings, pair by pair."""

    for c in sorted(set(coloring)):
        members = [set(mt) for mt, col in zip(matchings, coloring) if col == c]
        if any(a.isdisjoint(b) for a, b in combinations(members, 2)):
            return c
    return None


# THEOREM2_GRID plus the survey-grid hosts with at most about 2,000 matchings.
_SMALL_HOSTS = sorted(set(THEOREM2_GRID) | {(4, 2, 1), (4, 3, 2), (5, 1, 3)})


@pytest.mark.parametrize("grid", _SMALL_HOSTS)
def test_check_color_classes_matches_pairwise_oracle(grid):
    params = FamilyParams(*grid)
    G = gap_graph(params)
    masks = _masks(G, params.r)
    matchings = enumerate_matchings(G, params.r)
    pair_bits = _pair_bits(G, params)
    certification = certify_family(params)
    pulled = certification.chi_certificate.coloring
    # certify_family's own keys: the pair indices of each matching's forward image.
    subsets = certification.forward.target_desc
    image_keys = [sum(1 << i for i in subsets[j]) for j in certification.forward.mapping]
    rng = random.Random(repr(grid))
    colorings = [list(pulled)]
    colorings += [[rng.randrange(k) for _ in matchings] for k in (1, 2, 3, len(matchings) // 3)]
    for flips in (1, 3, 10):
        # The certified coloring with a few matchings moved to another class:
        # some of these stay proper, some do not.
        perturbed = list(pulled)
        for i in rng.sample(range(len(matchings)), flips):
            perturbed[i] = rng.randrange(params.theta)
        colorings.append(perturbed)
    outcomes = set()
    for coloring in colorings:
        expected = _improper_class_oracle(matchings, coloring)
        outcomes.add(expected is None)
        for key_bits in (pair_bits, 0, (1 << G.m) - 1, image_keys):
            assert _improper_class(masks, coloring, key_bits) == expected
    assert outcomes == {True, False} or params.theta == 1


def test_disjoint_key_groups_meeting_at_a_hub_edge_are_accepted():
    # gap(3,2,1): l = 4 pairs, one hub z1. The two groups have disjoint keys
    # {x1y1, x2y2} and {x3y3, x4y4}, but every matching uses the hub edge w1 z1.
    p = FamilyParams(3, 2, 1)
    G = gap_graph(p)
    masks = _masks(G, p.r)
    matchings = enumerate_matchings(G, p.r)
    hub = (p.w_vertex(1), p.z_vertex(1))
    a = tuple(sorted([p.x_edge(1), p.x_edge(2), hub]))
    b = tuple(sorted([p.x_edge(3), p.x_edge(4), hub]))
    mask_of = dict(zip(matchings, masks))
    recorder = CountingDeadline()
    _check_classes([mask_of[a], mask_of[b]], (1, 1), _pair_bits(G, p), recorder)
    # One check for the class, one for the tested group pair, one for the
    # single member of its first group.
    assert recorder.stages == ["pulled-back coloring check"] * 3
    # Move the second matching's hub edge to w2 z1: now the pair is disjoint.
    moved = tuple(sorted([p.x_edge(3), p.x_edge(4), (p.w_vertex(2), p.z_vertex(1))]))
    with pytest.raises(VerificationError, match="color class 1 holds edge-disjoint matchings"):
        _check_classes([mask_of[a], mask_of[moved]], (1, 1), _pair_bits(G, p), Deadline(None))


def test_a_truly_disjoint_pair_is_rejected_naming_its_color():
    p = FamilyParams(3, 2, 1)
    G = gap_graph(p)
    masks = _masks(G, p.r)
    matchings = enumerate_matchings(G, p.r)
    coloring = list(certify_family(p).chi_certificate.coloring)
    _check_classes(masks, coloring, _pair_bits(G, p), Deadline(None))
    # Add a third color holding one matching and its edge-disjoint partner.
    a, b = next((a, b) for a, b in combinations(range(len(masks)), 2) if not masks[a] & masks[b])
    coloring[a] = coloring[b] = 2
    with pytest.raises(VerificationError, match="color class 2 holds edge-disjoint matchings"):
        _check_classes(masks, coloring, _pair_bits(G, p), Deadline(None))


@pytest.mark.parametrize("grid", SURVEY_GRID)
def test_survey_certificates_never_take_the_exact_count(grid):
    params = FamilyParams(*grid)
    recorder = CountingDeadline()
    certification = certify_family(params, deadline=recorder)
    # One deadline check per color class, none for a tested group pair.
    assert recorder.stages.count("pulled-back coloring check") == params.theta
    n = certification.n_matchings
    assert certification.pairs_checked == n * (n - 1) // 2


def _star_coloring(G, params, masks):
    """Each matching takes the index of its hub edge; hub-free matchings share color m.

    With one hub (gamma = r - 2) a matching holds at most one hub edge, all
    matchings in a hub-edge class share it, and r pair edges out of
    l = theta + 2(r - 2) < 2r always meet: the coloring is proper. Its
    classes hold many pairs of disjoint pair-edge sets, so every such group
    pair is tested mask by mask.
    """

    assert params.t == 1
    z = params.z_vertex(1)
    hub_bits = sum(1 << i for i, e in enumerate(G.edges) if z in e)
    return [(mask & hub_bits).bit_length() - 1 if mask & hub_bits else G.m for mask in masks]


def _plant_disjoint_pair(params, matchings, coloring, color):
    """A copy of ``coloring`` with two edge-disjoint matchings moved to ``color``.

    The two take pair edges 1..r-1 and r..2r-2 and the hub edges w1 z1 and
    w2 z1, which meet at the hub but are different edges.
    """

    p = params
    halves = (range(1, p.r), range(p.r, 2 * p.r - 1))
    planted = list(coloring)
    for k, half in enumerate(halves, 1):
        mt = tuple(sorted([p.x_edge(i) for i in half] + [(p.w_vertex(k), p.z_vertex(1))]))
        planted[matchings.index(mt)] = color
    return planted


def test_star_coloring_agrees_with_pairwise_oracle():
    params = FamilyParams(5, 2, 3)  # gap_tree(5, 2)
    G = gap_graph(params)
    masks = _masks(G, params.r)
    matchings = enumerate_matchings(G, params.r)
    star = _star_coloring(G, params, masks)
    planted = _plant_disjoint_pair(params, matchings, star, G.m + 1)
    for coloring in (star, planted):
        expected = _improper_class_oracle(matchings, coloring)
        for key_bits in (_pair_bits(G, params), 0, (1 << G.m) - 1):
            assert _improper_class(masks, coloring, key_bits) == expected
    assert _improper_class_oracle(matchings, planted) == G.m + 1


def test_star_coloring_of_a_large_tree_is_checked_in_time():
    # gap_tree(6, 2): 67,494 matchings, 273 color classes and about 33,000
    # group pairs with disjoint keys, each tested on its masks alone.
    params = FamilyParams(6, 2, 4)
    G = gap_graph(params)
    masks = _masks(G, params.r)
    matchings = enumerate_matchings(G, params.r)
    pair_bits = _pair_bits(G, params)
    star = _star_coloring(G, params, masks)
    assert _improper_class(masks, star, pair_bits, Deadline(30)) is None
    planted = _plant_disjoint_pair(params, matchings, star, G.m + 1)
    assert _improper_class(masks, planted, pair_bits, Deadline(30)) == G.m + 1
