"""Exact coloring solver: certificates, brute-force agreement, closed form."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkneser import (
    Deadline,
    FamilyParams,
    ParameterError,
    SearchTimeout,
    VerificationError,
    build_matching_kneser,
    chromatic_number,
    dimacs_lines,
    gap_graph,
    greedy_clique,
    is_k_colorable,
    kneser_graph,
    lovasz_chi,
    make_graph,
    petersen,
)
from matchkneser.coloring import check_coloring

from helpers import brute_force_chromatic, graphs, reference_k_coloring

K3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
K4 = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_k_colorable_examples():
    assert is_k_colorable(K3, 2) is None
    coloring = is_k_colorable(K3, 3)
    assert coloring is not None and len(set(coloring)) == 3
    assert is_k_colorable(petersen(), 3) is not None


def test_k_colorable_edge_cases():
    assert is_k_colorable(make_graph(0, []), 0) == ()
    assert is_k_colorable(make_graph(2, [(0, 1)]), 0) is None
    assert is_k_colorable(make_graph(3, []), 1) == (0, 0, 0)
    assert is_k_colorable(make_graph(3, []), 0) is None
    with pytest.raises(ParameterError):
        is_k_colorable(K3, -1)


def test_chromatic_certificates():
    empty = chromatic_number(make_graph(0, []))
    assert empty.k == 0 and empty.witness.kind == "EMPTY"

    edgeless = chromatic_number(make_graph(6, []))
    assert edgeless.k == 1 and edgeless.witness.kind == "EDGELESS"

    k4 = chromatic_number(K4)
    assert k4.k == 4 and k4.witness.kind == "CLIQUE"
    assert len(k4.witness.vertices) == 4

    pet = chromatic_number(petersen())
    assert pet.k == 3
    # Petersen is triangle-free, so the clique bound cannot close the gap.
    assert pet.witness.kind == "EXHAUSTION" and pet.witness.failed_k == 2


def test_certificate_coloring_is_checkable():
    cert = chromatic_number(petersen())
    check_coloring(petersen(), cert.coloring, cert.k)
    with pytest.raises(Exception):
        check_coloring(petersen(), (0,) * 10, 1)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=9, max_m=16))
def test_exactness_against_brute_force(G):
    cert = chromatic_number(G)
    assert cert.k == brute_force_chromatic(G)
    check_coloring(G, cert.coloring, cert.k)


@pytest.mark.parametrize(
    "G, expected",
    [
        (make_graph(12, [(i, i + 1) for i in range(11)]), 2),  # path
        (make_graph(12, [(i, (i + 1) % 12) for i in range(12)]), 2),  # even cycle
        (make_graph(11, [(i, (i + 1) % 11) for i in range(11)]), 3),  # odd cycle
    ],
)
def test_exactness_on_twelve_vertex_graphs(G, expected):
    assert chromatic_number(G).k == expected == brute_force_chromatic(G)


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=8))
def test_edgeless_law(G):
    cert = chromatic_number(G)
    assert (cert.k == 1) == (G.n >= 1 and G.m == 0)


def test_lovasz_chi_values():
    assert lovasz_chi(5, 2) == 3
    assert lovasz_chi(7, 3) == 3
    for r in range(1, 6):
        assert lovasz_chi(2 * r - 1, r) == 1


def test_lovasz_chi_domain():
    with pytest.raises(ParameterError):
        lovasz_chi(4, 3)  # below 2r - 1
    with pytest.raises(ParameterError):
        lovasz_chi(3, 0)


@pytest.mark.parametrize("r", (1, 2, 3))
def test_formula_agreement_small(r):
    for l in range(2 * r - 1, 7):
        assert chromatic_number(kneser_graph(l, r)).k == lovasz_chi(l, r)


def test_greedy_clique_is_a_clique():
    q = greedy_clique(petersen())
    assert len(q) == 2  # triangle-free
    q4 = greedy_clique(K4)
    assert len(q4) == 4


def test_determinism():
    a = chromatic_number(kneser_graph(6, 2))
    b = chromatic_number(kneser_graph(6, 2))
    assert a == b


def test_timeout_is_distinguished_from_no():
    with pytest.raises(SearchTimeout):
        is_k_colorable(petersen(), 3, time_budget=-1.0)
    with pytest.raises(SearchTimeout):
        chromatic_number(petersen(), deadline=Deadline(-1.0))


def test_dimacs_export():
    assert dimacs_lines(K3) == ["p edge 3 3", "e 1 2", "e 1 3", "e 2 3"]


def test_certificate_json_shape():
    payload = chromatic_number(K4).to_json_dict()
    assert payload["k"] == 4
    assert payload["witness"]["kind"] == "CLIQUE"
    assert len(payload["coloring"]) == 4


class _TripOnSecondCheck(Deadline):
    """No time limit until the second check, which raises: a timeout inside the search."""

    def __init__(self):
        super().__init__(None)
        self.checks = 0

    def check(self, what="search"):
        self.checks += 1
        if self.checks > 1:
            raise SearchTimeout(what)


def test_search_leaves_the_recursion_limit_alone():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert is_k_colorable(petersen(), 3) is not None
        assert sys.getrecursionlimit() == 1000
        assert chromatic_number(kneser_graph(7, 2)).k == 5
        assert sys.getrecursionlimit() == 1000
        with pytest.raises(SearchTimeout):
            is_k_colorable(kneser_graph(9, 3), 4, deadline=_TripOnSecondCheck())
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def test_deep_searches_never_touch_the_recursion_limit(monkeypatch):
    # The search goes one trail entry per vertex, never one Python frame.
    # The calls are recorded, not refused, since pytest itself reads the
    # limit when it reports a failure.
    path = make_graph(5000, [(i, i + 1) for i in range(4999)])
    H = _search_graph("gap(4,2,1)")
    assert H.n == 1973
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    coloring = is_k_colorable(path, 2)
    cert = chromatic_number(H)
    assert calls == []
    assert coloring == (0, 1) * 2500
    check_coloring(path, coloring, 2)
    assert cert.k == 2
    check_coloring(H, cert.coloring, cert.k)


def _search_graph(name):
    if name.startswith("K"):
        l, r = map(int, name[2:-1].split(","))
        return kneser_graph(l, r)
    r, theta, gamma = map(int, name[4:-1].split(","))
    return build_matching_kneser(gap_graph(FamilyParams(r, theta, gamma)), r).graph


@pytest.mark.parametrize(
    "name",
    [f"K({l},2)" for l in range(7, 11)]
    + [f"K({l},3)" for l in range(7, 10)]
    + ["gap(3,4,1)", "gap(3,5,1)", "gap(4,2,1)", "gap(4,3,2)"],
)
def test_search_matches_the_reference_at_every_k(name):
    # The saturation-level search must branch exactly like the vertex scan
    # it replaced: the same coloring, or the same proven no, at every k the
    # iterative deepening of chromatic_number tries.
    H = _search_graph(name)
    chi = chromatic_number(H).k
    for k in range(len(greedy_clique(H)), chi + 1):
        expected = reference_k_coloring(H, k)
        got = is_k_colorable(H, k)
        assert got == (None if expected is None else tuple(expected)), k


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12, max_m=30))
def test_search_matches_the_reference_on_small_graphs(G):
    chi = chromatic_number(G).k
    for k in range(1, chi + 2):
        expected = reference_k_coloring(G, k)
        assert is_k_colorable(G, k) == (None if expected is None else tuple(expected))


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=10, max_m=20), st.data())
def test_check_coloring_names_the_first_monochromatic_edge(G, data):
    coloring = tuple(data.draw(st.lists(st.integers(0, 2), min_size=G.n, max_size=G.n)))
    k = len(set(coloring))
    coloring = tuple(sorted(set(coloring)).index(c) for c in coloring)  # colors 0..k-1
    clash = [(u, v) for u, v in G.edges if coloring[u] == coloring[v]]
    if not clash:
        check_coloring(G, coloring, k)
        return
    u, v = clash[0]
    with pytest.raises(VerificationError) as info:
        check_coloring(G, coloring, k)
    assert str(info.value) == f"edge ({u}, {v}) is monochromatic in color {coloring[u]}"


def test_check_coloring_messages():
    with pytest.raises(VerificationError, match="covers 9 of 10 vertices"):
        check_coloring(petersen(), (0,) * 9, 1)
    with pytest.raises(VerificationError, match=r"uses colors \[0, 1\], expected exactly 0..2"):
        check_coloring(petersen(), (0, 1) * 5, 3)
    with pytest.raises(VerificationError, match=r"edge \(0, 1\) is monochromatic in color 0"):
        check_coloring(petersen(), (0,) * 10, 1)
