"""Exact coloring solver: certificates, brute-force agreement, closed form."""

import random
import sys
import tracemalloc

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
    gap_graph,
    greedy_clique,
    is_k_colorable,
    kneser_graph,
    lovasz_chi,
    make_graph,
    petersen,
)
from matchkneser import coloring
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
        is_k_colorable(petersen(), 3, deadline=Deadline(-1.0))
    with pytest.raises(SearchTimeout):
        chromatic_number(petersen(), deadline=Deadline(-1.0))


def test_certificate_json_shape():
    payload = chromatic_number(K4).to_json_dict()
    assert payload["k"] == 4
    assert payload["witness"]["kind"] == "CLIQUE"
    assert len(payload["coloring"]) == 4


class _TripOnCheck(Deadline):
    """No time limit until check number ``trips``, which raises: a timeout inside the search."""

    def __init__(self, trips=2):
        super().__init__(None)
        self.checks = 0
        self.trips = trips

    def check(self, what="search"):
        self.checks += 1
        if self.checks >= self.trips:
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
            is_k_colorable(kneser_graph(11, 2), 8, deadline=_TripOnCheck())
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.parametrize(
    "name, k, colorings",
    [
        # 164 of the colorings branch. Breaking every branch tie by lowest
        # index, as the search does until its first dead end, it made 9,016
        # colorings, 1,858 of them branches; without the autarky cut as well
        # it made 26,797 colorings, 3,592 of them branches.
        ("K(10,2)", 7, 1263),
        ("K(9,3)", 4, 743),  # 79 branch; 1,724 colorings (272 branch) lowest-first
        ("K(11,2)", 8, 4950),  # 589 branch; 35,898 colorings (8,380 branch) lowest-first
        ("gap(3,5,1)", 4, 580),  # 75 branch; 1,757 colorings (341 branch) lowest-first
        # Each isolated vertex is a final branch, so the K4 is refuted once,
        # not once per coloring of the ten: 162,390 without the autarky cut.
        ("10K1+K4", 3, 18),
    ],
)
def test_refutation_node_counts(monkeypatch, name, k, colorings):
    # With a stride of 1 the search checks its deadline once per coloring,
    # after the one check is_k_colorable makes before it starts.
    monkeypatch.setattr(coloring, "_DEADLINE_STRIDE", 1)
    deadline = _TripOnCheck(trips=float("inf"))
    assert is_k_colorable(_search_graph(name), k, deadline=deadline) is None
    assert deadline.checks == 1 + colorings
    if name == "K(11,2)":
        # test_search_leaves_the_recursion_limit_alone and
        # test_chromatic_number_timeout_says_how_far_it_got need this search
        # to reach its second deadline check, at coloring 1,024.
        assert colorings >= 1024


def test_a_success_with_no_dead_end_colors_each_vertex_once(monkeypatch):
    # Never dead-ending, the search breaks every tie by lowest index, so its
    # coloring is the canonical one and is_k_colorable does not search again.
    monkeypatch.setattr(coloring, "_DEADLINE_STRIDE", 1)
    H = _search_graph("gap(4,3,2)")
    deadline = _TripOnCheck(trips=float("inf"))
    assert is_k_colorable(H, 3, deadline=deadline) is not None
    assert deadline.checks == 1 + H.n


@pytest.mark.parametrize(
    "name, k",
    # The reference, which has no autarky cut, takes about 28 s on Petersen.
    [("K(9,3)", 5), pytest.param("KG(Petersen,2)", 12, marks=pytest.mark.slow)],
)
def test_a_success_after_a_dead_end_returns_the_canonical_coloring(name, k):
    # Past its first dead end the search breaks branch ties by bit-reversed
    # index, and here it finds a different k-coloring that way; the coloring
    # returned must still be the one the lowest-index search finds first.
    H = _search_graph(name)
    assert is_k_colorable(H, k) == tuple(reference_k_coloring(H, k))


def test_a_timeout_in_the_canonical_rerun_says_a_coloring_exists():
    # The bit-reversed search finds a 12-coloring within 6,632 colorings,
    # which make six deadline checks after the first; the canonical rerun
    # then trips at its coloring 1,024.
    with pytest.raises(SearchTimeout) as info:
        is_k_colorable(_search_graph("KG(Petersen,2)"), 12, deadline=_TripOnCheck(trips=8))
    assert str(info.value) == (
        "k-coloring search after 1024 colorings in the canonical rerun; a 12-coloring exists, so chi <= 12"
    )
    assert isinstance(info.value.__cause__, SearchTimeout)


def test_bit_clear_masks_pick_the_least_bit_reversed_index():
    rng = random.Random(0)
    for n in range(1, 71):
        width = (n - 1).bit_length()
        masks = coloring._bit_clear_masks(n)
        assert masks == [sum(1 << v for v in range(n) if not v >> b & 1) for b in range(width)]
        for _ in range(20):
            tied = rng.getrandbits(n) or 1 << rng.randrange(n)
            least = min((v for v in range(n) if tied >> v & 1), key=lambda v: format(v, f"0{width}b")[::-1])
            assert coloring._least_bit_reversed(tied, masks) == 1 << least, (n, tied)


def test_a_forced_chain_checks_its_deadline():
    # At k = 2 vertex 0 of a path is the only branch: each later vertex has
    # one color left once its predecessor is colored. The deadline still
    # trips at coloring 1,024, inside that chain.
    path = make_graph(5000, [(i, i + 1) for i in range(4999)])
    deadline = _TripOnCheck(trips=2)
    with pytest.raises(SearchTimeout) as info:
        is_k_colorable(path, 2, deadline=deadline)
    assert deadline.checks == 2
    assert str(info.value) == "k-coloring search after 1024 colorings"


def test_search_memory_stays_small():
    # The trail holds one entry per branch, not one per colored vertex. On
    # this 8,105-vertex graph the search with an entry per colored vertex
    # peaked at 9.1 MB.
    H = _search_graph("gap(4,3,1)")
    assert H.n == 8105
    tracemalloc.start()
    try:
        assert is_k_colorable(H, 3) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9_100_000


def test_petersen_at_r3_has_chi_nine_by_exhaustion():
    # 145 vertices and a greedy clique of 4: only refuting 8 colors shows
    # chi = 9 = D. About 1.8 s; 5 s with every branch tie broken by lowest
    # index, 254 s before the autarky cut.
    cert = chromatic_number(build_matching_kneser(petersen(), 3).graph)
    assert cert.k == 9 and cert.witness.kind == "EXHAUSTION"


@pytest.mark.slow
def test_p12_at_r3_has_chi_seven():
    # The 6-coloring search of KG(P12, 3K2) takes about 6.5 s, 15 s with
    # every branch tie broken by lowest index; before the autarky cut it was
    # still open after 120 s.
    path = make_graph(12, [(i, i + 1) for i in range(11)])
    assert chromatic_number(build_matching_kneser(path, 3).graph).k == 7


@pytest.mark.slow
def test_p12_at_r4_has_chi_five_by_exhaustion():
    # 70 vertices and a greedy clique of 2: only refuting 4 colors shows
    # chi = 5. About 3.2 s; 17 s with every branch tie broken by lowest index.
    path = make_graph(12, [(i, i + 1) for i in range(11)])
    cert = chromatic_number(build_matching_kneser(path, 4).graph)
    assert cert.k == 5 and cert.witness.kind == "EXHAUSTION"


def test_chromatic_number_timeout_says_how_far_it_got():
    # K(11,2) has chi = 9 and a greedy clique of 5. The 5-, 6- and
    # 7-coloring searches are refuted within their first 1,024 colorings,
    # one deadline check each; the deadline then trips inside the 8-coloring
    # search, at its coloring 1,024.
    with pytest.raises(SearchTimeout) as info:
        chromatic_number(kneser_graph(11, 2), deadline=_TripOnCheck(trips=5))
    assert str(info.value) == (
        "k-coloring search after 1024 colorings while searching for a 8-coloring;"
        " chi >= 8 is proven (greedy clique of 5)"
    )
    assert isinstance(info.value.__cause__, SearchTimeout)


def test_deep_searches_never_touch_the_recursion_limit(monkeypatch):
    # The search goes one trail entry per branch, never one Python frame.
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
    if name == "10K1+K4":  # ten isolated vertices, then a K4 on vertices 10..13
        return make_graph(14, [(u, v) for u in range(10, 14) for v in range(u + 1, 14)])
    if name == "KG(Petersen,2)":
        return build_matching_kneser(petersen(), 2).graph
    if name.startswith("K("):
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


def _random_graph_beside_a_clique(rng):
    # A random graph on the low vertices, searched first, then a clique of 3
    # to 5 vertices: below the clique size every coloring of the random part
    # is refuted again. The autarky cut fires in 43 of the 129 searches made
    # here, where a last branch colors what is left of a component.
    n, q, p = rng.randint(8, 14), rng.randint(3, 5), rng.uniform(0.2, 0.6)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n + q, edges + [(u, v) for u in range(n, n + q) for v in range(u + 1, n + q)])


# A cut that read only the vertices the last coloring touched, not all since
# the branch, would mark a branch final here and find a later 4-coloring.
_TOUCHED_SINCE_THE_BRANCH = make_graph(20, [tuple(map(int, e.split("-"))) for e in """
    0-3 0-4 0-5 0-9 0-13 0-14 0-18 0-19 1-7 1-8 1-9 1-13 1-17 2-12 2-15 2-19
    3-5 3-12 4-6 4-10 4-15 4-18 5-11 5-12 5-17 5-18 6-14 6-15 6-16 7-11 7-12
    7-19 8-12 8-14 9-13 9-16 10-12 10-17 11-15 13-16 14-19 16-19 18-19""".split()])


def test_autarky_cut_keeps_every_answer_and_coloring():
    # A final branch is popped without its other colors, which is sound only
    # if its subtree held a coloring whenever its node did: the first coloring
    # found and every proven no must be those of the search without the cut.
    rng = random.Random(0)
    hosts = [kneser_graph(l, 2) for l in range(4, 10)] + [kneser_graph(l, 3) for l in range(6, 10)]
    hosts += [_search_graph("gap(3,4,1)"), _TOUCHED_SINCE_THE_BRANCH]
    hosts += [_random_graph_beside_a_clique(rng) for _ in range(30)]
    for H in hosts:
        for k in range(1, chromatic_number(H).k + 1):
            expected = reference_k_coloring(H, k)
            assert is_k_colorable(H, k) == (None if expected is None else tuple(expected)), (H.n, H.m, k)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12, max_m=30))
def test_search_matches_the_reference_on_small_graphs(G):
    chi = chromatic_number(G).k
    for k in range(1, chi + 2):
        expected = reference_k_coloring(G, k)
        assert is_k_colorable(G, k) == (None if expected is None else tuple(expected))


@pytest.mark.parametrize("seed", range(10))
def test_search_matches_the_reference_on_larger_random_graphs(seed):
    # The hypothesis test above stops at 12 vertices; these graphs have 13
    # to 20.
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(13, 20)
        p = rng.uniform(0.2, 0.7)
        G = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        chi = chromatic_number(G).k
        for k in range(1, chi + 2):
            expected = reference_k_coloring(G, k)
            assert is_k_colorable(G, k) == (None if expected is None else tuple(expected)), (seed, n, k)


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
