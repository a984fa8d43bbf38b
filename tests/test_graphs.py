"""Graph core: construction, predicates, matching enumeration, matching number."""

import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings

from matchkneser import (
    GraphConstructionError,
    KneserSizeError,
    ParameterError,
    bipartition,
    enumerate_matchings,
    first_matching,
    has_r_matching,
    is_bipartite,
    is_connected,
    is_tree,
    make_graph,
    make_matching,
    matching_number,
    maximum_matching,
    petersen,
    radius,
    read_edgelist,
    remove_edges,
    write_edgelist,
)
from matchkneser.graphs import edgelist_lines, parse_edgelist
from matchkneser.families import gap_graph, gap_tree, FamilyParams, matching_graph
from matchkneser.kneser import capped_matchings

from helpers import SURVEY_GRID, brute_force_matchings, brute_force_matching_number, graphs, to_networkx

import networkx as nx

P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
K3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_make_graph_path():
    assert P4.n == 4
    assert P4.edges == ((0, 1), (1, 2), (2, 3))


def test_make_graph_collapses_duplicates():
    G = make_graph(2, [(0, 1), (1, 0)])
    assert G.edges == ((0, 1),)


def test_make_graph_rejects_loops_and_range():
    with pytest.raises(GraphConstructionError):
        make_graph(3, [(0, 0)])
    with pytest.raises(GraphConstructionError):
        make_graph(3, [(0, 3)])
    with pytest.raises(GraphConstructionError):
        make_graph(-1, [])


def test_remove_edges_is_persistent():
    smaller = remove_edges(P4, [(1, 2)])
    assert smaller.edges == ((0, 1), (2, 3))
    assert P4.edges == ((0, 1), (1, 2), (2, 3))  # original untouched
    assert remove_edges(P4, [(2, 1)]).edges == smaller.edges  # orientation-free


def test_connectivity():
    assert is_connected(P4)
    assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(make_graph(1, []))
    assert is_connected(make_graph(0, []))


def test_bipartition():
    assert bipartition(P4) == ((0, 2), (1, 3))
    assert bipartition(K3) is None
    assert not is_bipartite(petersen())


def test_tree_and_radius():
    assert is_tree(P4) and radius(P4) == 2
    assert not is_tree(K3) and radius(K3) == 1
    star = make_graph(5, [(0, i) for i in range(1, 5)])
    assert is_tree(star) and radius(star) == 1
    with pytest.raises(ParameterError):
        radius(make_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ParameterError):
        radius(make_graph(0, []))


def _random_tree(rng, n):
    # Each vertex hangs off one of the few before it, so diameters range from
    # about 2 (span = n) to n - 1 (span = 1); a shuffle hides the order.
    span = rng.randint(1, n)
    label = list(range(n))
    rng.shuffle(label)
    return make_graph(n, [(label[v], label[rng.randrange(max(0, v - span), v)]) for v in range(1, n)])


@pytest.mark.parametrize("seed", range(40))
def test_tree_radius_equals_all_sources_minimum(seed):
    rng = random.Random(seed)
    tree = _random_tree(rng, rng.randint(1, 60))
    assert is_tree(tree)
    assert radius(tree) == nx.radius(to_networkx(tree))


@pytest.mark.parametrize("r, theta", [(r, theta) for r in range(3, 7) for theta in (1, 2, 3)] + [(7, 1), (7, 2)])
def test_gap_tree_ladder_radius_equals_all_sources_minimum(r, theta):
    tree = gap_tree(r, theta)
    assert radius(tree) == nx.radius(to_networkx(tree)) == 2


def test_enumerate_matchings_examples():
    assert enumerate_matchings(P4, 2) == [((0, 1), (2, 3))]
    assert len(enumerate_matchings(matching_graph(3), 2)) == 3
    assert len(enumerate_matchings(petersen(), 5)) == 6
    assert enumerate_matchings(P4, 3) == []
    with pytest.raises(ParameterError):
        enumerate_matchings(P4, 0)


def check_enumerator(G, r):
    """capped_matchings against the brute-force oracle, its masks, its cap, and first_matching."""

    matchings, masks = capped_matchings(G, r)
    assert matchings == brute_force_matchings(G, r)  # same matchings, same order
    bit = {e: 1 << i for i, e in enumerate(G.edges)}
    assert masks == [reduce(or_, (bit[e] for e in mt)) for mt in matchings]
    n = len(matchings)
    assert capped_matchings(G, r, cap=n) == (matchings, masks)
    if n:
        with pytest.raises(KneserSizeError, match=rf"\(enumeration stopped at {n}\)$"):
            capped_matchings(G, r, cap=n - 1)
        assert first_matching(G, r) == enumerate_matchings(G, r)[0]
    else:
        assert first_matching(G, r) is None


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_enumeration_completeness(G):
    for r in range(1, 5):
        assert enumerate_matchings(G, r) == brute_force_matchings(G, r)
        check_enumerator(G, r)


@pytest.mark.parametrize(
    "host, r",
    [(petersen(), 5), (gap_tree(5, 1), 5)] + [(gap_graph(FamilyParams(*grid)), grid[0]) for grid in SURVEY_GRID],
    ids=["petersen-r5", "gap_tree(5,1)"] + [f"gap{grid}" for grid in SURVEY_GRID],
)
def test_enumerator_on_named_hosts(host, r):
    check_enumerator(host, r)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_matching_number_consistency(G):
    nu = matching_number(G)
    assert nu == brute_force_matching_number(G)
    assert nu == len(nx.max_weight_matching(to_networkx(G), maxcardinality=True))
    if nu > 0:
        assert enumerate_matchings(G, nu)
    assert not enumerate_matchings(G, nu + 1)


def test_matching_number_examples():
    assert matching_number(matching_graph(7)) == 7
    assert matching_number(petersen()) == 5
    assert matching_number(K3) == 1
    assert matching_number(make_graph(3, [])) == 0


def test_maximum_matching_is_canonical_and_valid():
    mm = maximum_matching(petersen())
    assert mm == make_matching(petersen(), mm)  # canonical + valid
    assert len(mm) == 5


def test_has_r_matching():
    assert has_r_matching(P4, 2)
    assert not has_r_matching(P4, 3)
    assert has_r_matching(P4, 0)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_has_r_matching_monotone(G):
    for r in range(2, 6):
        if has_r_matching(G, r):
            assert has_r_matching(G, r - 1)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_matchings_are_canonical(G):
    for mt in enumerate_matchings(G, 2):
        assert make_matching(G, mt) == mt
        assert make_matching(G, [(v, u) for u, v in reversed(mt)]) == mt


def test_first_matching_is_lex_least():
    assert first_matching(petersen(), 5) == enumerate_matchings(petersen(), 5)[0]
    assert first_matching(P4, 3) is None


def test_make_matching_rejects_bad_input():
    with pytest.raises(GraphConstructionError):
        make_matching(P4, [(0, 2)])  # not a host edge
    with pytest.raises(GraphConstructionError):
        make_matching(P4, [(0, 1), (1, 2)])  # shared endpoint


def test_edgelist_round_trip():
    text = "\n".join(edgelist_lines(petersen()))
    assert parse_edgelist(text) == petersen()
    commented = "# a comment\n" + text + "\n# trailing\n"
    assert parse_edgelist(commented) == petersen()


def test_edgelist_roles_block(tmp_path):
    G = gap_graph(FamilyParams(3, 1, 1))
    path = tmp_path / "g.edges"
    write_edgelist(G, path)
    text = path.read_text()
    assert text.startswith("# roles:\n# 0 x1\n")
    back = read_edgelist(path)  # comments (and roles) are ignored on read
    assert back.n == G.n and back.edges == G.edges and back.roles is None


def test_edgelist_errors():
    with pytest.raises(GraphConstructionError):
        parse_edgelist("")
    with pytest.raises(GraphConstructionError):
        parse_edgelist("3 2\n0 1\n")  # header/edge-count mismatch
    with pytest.raises(GraphConstructionError):
        parse_edgelist("3 1\n0 1 2\n")
    with pytest.raises(GraphConstructionError):
        parse_edgelist("3 one\n")
