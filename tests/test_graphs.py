"""Graph core: construction, predicates, matching enumeration, matching number."""

import random
import time
from dataclasses import FrozenInstanceError
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings

from matchkneser import (
    Deadline,
    GraphConstructionError,
    KneserSizeError,
    LabeledGraph,
    ParameterError,
    SearchTimeout,
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
from matchkneser.graphs import decode_matching, edgelist_lines, matching_blocks, parse_edgelist
from matchkneser.families import gap_graph, gap_tree, FamilyParams, matching_graph
from matchkneser.kneser import capped_matchings

from helpers import (
    SURVEY_GRID,
    CountingDeadline,
    brute_force_matchings,
    brute_force_matching_number,
    count_matchings,
    flower_snark,
    graphs,
    to_networkx,
)

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


def _adj_mask_law(G):
    masks = G.adj_masks
    assert len(masks) == G.n
    for u in range(G.n):
        assert not masks[u] >> u & 1  # no self-bits
        for v in range(G.n):
            assert (masks[u] >> v & 1) == (masks[v] >> u & 1)  # symmetric
            assert bool(masks[u] >> v & 1) == (u != v and G.has_edge(u, v))
        assert masks[u].bit_count() == len(G.adj[u])


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12, max_m=30))
def test_adjacency_masks_agree_with_the_edges(G):
    _adj_mask_law(G)


def test_adjacency_masks_of_named_graphs():
    _adj_mask_law(petersen())
    _adj_mask_law(make_graph(0, []))
    _adj_mask_law(make_graph(70, [(0, 69), (5, 64), (63, 64)]))  # bits past one machine word
    P = petersen()
    assert P.adj_masks is P.adj_masks  # built once per graph


def _from_masks(G):
    """The same graph as G, built from its neighbor masks."""

    masks = [0] * G.n
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return LabeledGraph(G.n, roles=G.roles, adj_masks=tuple(masks))


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=0, max_n=70, max_m=40))
def test_mask_built_and_edge_built_graphs_agree(G):
    H = _from_masks(G)
    assert H.m == G.m  # from the popcounts: H has no edge list yet
    assert "edges" not in vars(H)
    assert H == G and G == H
    assert hash(H) == hash(G)
    assert H.edges == G.edges
    assert H.adj == G.adj and H.adj_masks == G.adj_masks
    pairs = [(u, v) for u in range(-1, G.n + 1) for v in range(-1, G.n + 1)]
    assert [H.has_edge(u, v) for u, v in pairs] == [G.has_edge(u, v) for u, v in pairs]


def test_hashing_and_comparing_a_mask_built_graph_leaves_its_edges_undecoded():
    G = petersen()
    H = _from_masks(G)
    assert hash(H) == hash(G) and H == G and H != _from_masks(P4)
    assert "edges" not in vars(H)


def test_has_edge_on_a_mask_built_graph_leaves_its_edges_undecoded():
    G = petersen()
    H = _from_masks(G)
    assert all(H.has_edge(u, v) and H.has_edge(v, u) for u, v in G.edges)
    assert not H.has_edge(0, 2) and not H.has_edge(0, 0)
    assert not H.has_edge(-1, 0) and not H.has_edge(0, 10) and not H.has_edge(10, 0)
    assert "edges" not in H.__dict__


def test_graphs_differ_when_any_part_differs():
    H = _from_masks(P4)
    assert H != _from_masks(make_graph(4, [(0, 1), (1, 2)]))
    assert H != _from_masks(make_graph(5, P4.edges))
    assert H != LabeledGraph(4, roles=("x1", "y1", "", ""), adj_masks=H.adj_masks)
    assert H != P4.edges


def test_the_given_form_is_held_as_given():
    masks = (0b10, 0b1)
    H = LabeledGraph(2, adj_masks=masks)
    assert vars(H)["adj_masks"] is masks and H.adj_masks is masks
    assert vars(P4)["edges"] is P4.edges
    assert H.edges == ((0, 1),) and H.edges is H.edges  # decoded once


@pytest.mark.parametrize("G", [P4, _from_masks(K3)], ids=["edges", "masks"])
def test_graphs_are_immutable(G):
    for name in ("n", "edges", "roles", "adj_masks", "m", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(G, name, None)
    with pytest.raises(FrozenInstanceError):
        del G.n


def test_a_graph_takes_exactly_one_form():
    with pytest.raises(TypeError):
        LabeledGraph(2)
    with pytest.raises(TypeError):
        LabeledGraph(2, ((0, 1),), adj_masks=(0b10, 0b1))


@pytest.mark.parametrize("roles", [None, ("x1", "", "y1", "z1")])
def test_mask_built_graph_is_written_from_its_rows(tmp_path, roles):
    G = make_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)], roles=roles)
    H = _from_masks(G)
    write_edgelist(H, tmp_path / "h.edges")
    assert "edges" not in vars(H)
    assert (tmp_path / "h.edges").read_text() == "\n".join(edgelist_lines(G)) + "\n"
    assert read_edgelist(tmp_path / "h.edges") == make_graph(4, G.edges)


@pytest.mark.parametrize("G", [make_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]), make_graph(3, []), petersen()])
def test_edge_built_graph_is_written_from_its_rows(tmp_path, G):
    write_edgelist(G, tmp_path / "g.edges")
    assert (tmp_path / "g.edges").read_text() == "\n".join(edgelist_lines(G)) + "\n"
    assert read_edgelist(tmp_path / "g.edges") == G


def test_edge_built_graph_is_written_without_building_its_masks(tmp_path):
    G = gap_tree(4, 2)
    write_edgelist(G, tmp_path / "t.edges")
    assert "adj_masks" not in vars(G)
    assert (tmp_path / "t.edges").read_text() == "\n".join(edgelist_lines(G)) + "\n"


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


def _random_host(rng):
    # Half of the hosts are drawn across a random cut, so many are bipartite;
    # sparse ones are often disconnected.
    n = rng.randint(0, 14)
    cut = rng.getrandbits(n) if rng.random() < 0.5 else None
    p = rng.choice((0.1, 0.2, 0.35, 0.6))
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p and (cut is None or (cut >> u ^ cut >> v) & 1)
    ]
    return make_graph(n, pairs)


@pytest.mark.parametrize("seed", range(60))
def test_connectivity_bipartition_and_radius_agree_with_networkx(seed):
    G = _random_host(random.Random(seed))
    H = to_networkx(G)
    connected = G.n <= 1 or nx.is_connected(H)
    assert is_connected(G) == connected
    if nx.is_bipartite(H):
        # each component's least vertex on the first side, the rest by distance parity
        parity = {}
        for component in nx.connected_components(H):
            lengths = nx.single_source_shortest_path_length(H, min(component))
            parity.update((v, d & 1) for v, d in lengths.items())
        sides = tuple(tuple(v for v in range(G.n) if parity[v] == s) for s in (0, 1))
        assert bipartition(G) == sides
    else:
        assert bipartition(G) is None
    if not connected or G.n == 0:
        with pytest.raises(ParameterError):
            radius(G)
    else:
        assert radius(G) == nx.radius(H)


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
    """capped_matchings decoded against the brute-force oracle, its masks, its cap, and first_matching."""

    masks = capped_matchings(G, r)
    matchings = [decode_matching(G.edges, mask) for mask in masks]
    assert matchings == brute_force_matchings(G, r)  # same matchings, same order
    bit = {e: 1 << i for i, e in enumerate(G.edges)}
    assert masks == [reduce(or_, (bit[e] for e in mt)) for mt in matchings]
    n = len(matchings)
    assert capped_matchings(G, r, cap=n) == masks
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


# Hosts whose matching number nu is met exactly by one of the enumerator's
# counts and missed at nu + 1. At nu + 1 >= 3 the cut comes from lower
# endpoints alone on the three stars centred at the lowest vertices, upper
# endpoints alone on those centred at the highest, distinct vertices alone
# on P4, K4 and K6, and the edge count on 3K2. At nu = 1 the last level,
# which builds blocks without counting, ends the search at r = 2.
_COUNT_HOSTS = {
    "star": make_graph(5, [(0, v) for v in range(1, 5)]),
    "star-centred-last": make_graph(5, [(u, 4) for u in range(4)]),
    "P3": make_graph(3, [(0, 1), (1, 2)]),
    "P4": P4,
    "triangle": K3,
    "K4": make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "3K2": matching_graph(3),
    "three-stars": make_graph(9, [(c, 3 + 2 * c + k) for c in range(3) for k in range(2)]),
    "three-stars-centred-last": make_graph(9, [(2 * c + k, 6 + c) for c in range(3) for k in range(2)]),
    "K6": make_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
}
_AT_AND_PAST_NU = [
    (G, r, f"{name}-r{r}")
    for name, G in _COUNT_HOSTS.items()
    for r in (matching_number(G), matching_number(G) + 1)
]


@pytest.mark.parametrize(
    "host, r",
    [(petersen(), 5), (gap_tree(5, 1), 5)]
    + [(gap_graph(FamilyParams(*grid)), grid[0]) for grid in SURVEY_GRID]
    + [(G, r) for G, r, _ in _AT_AND_PAST_NU],
    ids=["petersen-r5", "gap_tree(5,1)"] + [f"gap{grid}" for grid in SURVEY_GRID] + [i for _, _, i in _AT_AND_PAST_NU],
)
def test_enumerator_on_named_hosts(host, r):
    check_enumerator(host, r)


@pytest.mark.parametrize("n, count", [(5, 32), (7, 128), (9, 512)])
def test_flower_snark_perfect_matchings(n, count):
    G = flower_snark(n)
    masks = capped_matchings(G, 2 * n, deadline=Deadline(5))
    assert len(masks) == count == count_matchings(G, 2 * n)
    for mask in masks:
        assert make_matching(G, decode_matching(G.edges, mask)) == decode_matching(G.edges, mask)
    assert len(set(masks)) == count and not capped_matchings(G, 2 * n + 1)


def test_flower_snark_one_below_perfect_matches_the_vertex_recursion():
    G = flower_snark(7)
    masks = capped_matchings(G, 13)
    assert len(masks) == count_matchings(G, 13) == 11_305
    decoded = [decode_matching(G.edges, mask) for mask in masks]
    assert decoded == sorted(set(decoded))


def test_enumeration_raises_once_its_deadline_has_passed():
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        capped_matchings(flower_snark(9), 18, deadline=Deadline(-1))
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        capped_matchings(petersen(), 5, deadline=Deadline(-1))


def test_a_dead_enumeration_still_honours_its_deadline():
    # 11 disjoint triangles have no 12-matching, but every count the cuts
    # read passes until deep in the search, so no block is ever yielded and
    # only the checks inside the search can stop it (uncut: about 0.5 s).
    G = make_graph(33, [e for i in range(0, 33, 3) for e in ((i, i + 1), (i, i + 2), (i + 1, i + 2))])
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        next(matching_blocks(G, 12, CountingDeadline(limit=0)))
    started = time.perf_counter()
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        capped_matchings(G, 12, deadline=Deadline(0.05))
    assert time.perf_counter() - started < 0.25


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
