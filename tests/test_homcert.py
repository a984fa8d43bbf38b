"""Homomorphism maps and the certified chromatic numbers they produce."""

import random
from itertools import combinations
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
    certified_chi,
    certify_family,
    colex_rank,
    forward_map,
    gap_graph,
    kneser_graph,
    make_graph,
    petersen,
    r_subsets,
    verify_homomorphism,
)
from matchkneser import homcert
from matchkneser.coloring import check_coloring
from matchkneser.homcert import disjoint_pair_count, find_violation, hom_witness_lines
from matchkneser.kneser import capped_matchings
from matchkneser.verify import THEOREM2_GRID

from helpers import SURVEY_GRID, CountingDeadline

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
    matchings, _ = capped_matchings(gap_graph(params), params.r)
    # Canonical matchings, plus reordered, flipped and repeated edges.
    inputs = [((0, 9), (1, 10), (3, 12))]
    for mt in matchings:
        inputs += [mt, mt[::-1], tuple((v, u) for u, v in mt), mt + mt[:1]]
    for mt in inputs:
        expected = _forward_outcome(_forward_reference, mt, params)
        assert _forward_outcome(forward_map, mt, params) == expected


@pytest.mark.parametrize("grid", sorted(set(THEOREM2_GRID) | set(SURVEY_GRID)))
def test_forward_witness_is_forward_map_of_every_matching(grid):
    # certify_family calls forward_map once per pair-edge set; the witness
    # must still be the map itself on every matching.
    params = FamilyParams(*grid)
    forward = certify_family(params).forward
    subsets = r_subsets(params.l, params.r - params.t)
    subset_index = {s: i for i, s in enumerate(subsets)}
    assert forward.target_desc == tuple(subsets)
    assert forward.source_desc == tuple(capped_matchings(gap_graph(params), params.r)[0])
    assert forward.mapping == tuple(subset_index[forward_map(mt, params)] for mt in forward.source_desc)


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
    assert certified_chi(params).k == theta


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


def test_pulled_back_coloring_is_proper():
    certification = certify_family(FamilyParams(3, 3, 1))
    mkg = build_matching_kneser(gap_graph(certification.params), 3)
    check_coloring(mkg.graph, certification.chi_certificate.coloring, 3)
    n = certification.n_matchings
    assert certification.pairs_checked == n * (n - 1) // 2
    assert certification.chi_certificate.witness.kind == "HOMOMORPHISM"
    assert certification.chi_certificate.witness.source_chi.k == 3


@pytest.mark.parametrize("params", [FamilyParams(3, 2, 1), FamilyParams(4, 2, 2), FamilyParams(4, 2, 1)])
@pytest.mark.parametrize("k", (1, 2, 3))
def test_disjoint_pair_count_against_brute_force(params, k):
    matchings, _ = capped_matchings(gap_graph(params), params.r)
    rng = random.Random(97 * k + params.l)
    color = [rng.randrange(k) for _ in matchings]
    for c in range(k):
        members = [matchings[i] for i in range(len(matchings)) if color[i] == c]
        edge_sets = [set(mt) for mt in members]
        brute = sum(2 for a, b in combinations(edge_sets, 2) if a.isdisjoint(b))
        assert disjoint_pair_count(members, Deadline(None)) == brute


def test_disjoint_pair_count_small_cases():
    assert disjoint_pair_count([], Deadline(None)) == 0
    assert disjoint_pair_count([(0, 1), (0, 1)], Deadline(None)) == 0
    assert disjoint_pair_count([(0, 1), (2,), (1, 2)], Deadline(None)) == 2
    matchings, _ = capped_matchings(gap_graph(FamilyParams(3, 2, 1)), 3)
    assert disjoint_pair_count(matchings, Deadline(None)) == 804


def test_disjoint_pair_count_mixed_sizes():
    # Sorted tuples of 1 to 5 elements: every size j from 1 to 5 contributes.
    rng = random.Random(5)
    members = [tuple(sorted(rng.sample(range(9), rng.randint(1, 5)))) for _ in range(60)]
    brute = sum(1 for a in members for b in members if set(a).isdisjoint(b))
    assert brute and disjoint_pair_count(members, Deadline(None)) == brute


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


def test_witness_serialization():
    certification = certify_family(P311)
    lines = hom_witness_lines(certification.forward)
    assert lines[0] == "0 -> 0 # (0,9) (1,10) (2,11) | {1,2}"
    assert len(lines) == certification.n_matchings
    back_lines = hom_witness_lines(certification.backward)
    assert back_lines[0].startswith("0 -> ")
    assert "{1,2}" in back_lines[0]
