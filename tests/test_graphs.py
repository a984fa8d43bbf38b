"""Graph core: construction, predicates, matching enumeration, matching number."""

import os
import random
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError
from functools import reduce
from itertools import chain
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings

from matchkneser import (
    Deadline,
    GraphConstructionError,
    KneserSizeError,
    LabeledGraph,
    ParameterError,
    SearchTimeout,
    enumerate_matchings,
    first_matching,
    has_r_matching,
    is_connected,
    is_tree,
    make_graph,
    matching_number,
    petersen,
    radius,
    read_edgelist,
    remove_edges,
    write_edgelist,
)
from matchkneser.graphs import (
    _find_augmenting_path,
    decode_matching,
    edgelist_pieces,
    matching_blocks,
    unit_masks,
    maximum_mates,
    parse_edgelist,
)
from matchkneser.families import gap_graph, gap_tree, FamilyParams, matching_graph

from helpers import (
    SURVEY_GRID,
    CountingDeadline,
    brute_force_matchings,
    brute_force_matching_number,
    check_enumeration_index,
    count_matchings,
    edge_set,
    enumerated_blocks,
    flower_snark,
    graphs,
    make_matching,
    reference_matching_blocks,
    to_networkx,
    unit_blocks,
)

import networkx as nx

SRC = Path(__file__).resolve().parent.parent / "src"

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
    edges = edge_set(G)
    assert len(masks) == G.n
    for u in range(G.n):
        assert not masks[u] >> u & 1  # no self-bits
        for v in range(G.n):
            assert (masks[u] >> v & 1) == (masks[v] >> u & 1)  # symmetric
            assert bool(masks[u] >> v & 1) == ((u, v) in edges)
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


def test_hashing_and_comparing_a_mask_built_graph_leaves_its_edges_undecoded():
    G = petersen()
    H = _from_masks(G)
    assert hash(H) == hash(G) and H == G and H != _from_masks(P4)
    assert "edges" not in vars(H)


def test_hashing_and_comparing_an_edge_built_graph_builds_no_masks():
    # gap_tree(9, 3) has 24,362 vertices: its masks would take about 75 MB.
    G, twin = gap_tree(9, 3), gap_tree(9, 3)
    assert hash(G) == hash(twin) and G == twin
    assert G != remove_edges(G, G.edges[-1:]) and G != make_graph(G.n, G.edges)
    assert "adj_masks" not in vars(G) and "adj_masks" not in vars(twin)
    small = gap_tree(4, 2)
    copy = LabeledGraph(small.n, roles=small.roles, adj_masks=small.adj_masks)
    assert copy == small and small == copy and hash(copy) == hash(small)


def test_graphs_differ_when_any_part_differs():
    H = _from_masks(P4)
    assert H != _from_masks(make_graph(4, [(0, 1), (1, 2)]))
    assert H != _from_masks(make_graph(5, P4.edges))
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])  # n and m of P4, other edges
    assert P4 != star and H != _from_masks(star)
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
    assert (tmp_path / "h.edges").read_text() == "\n".join(edgelist_pieces(G)) + "\n"
    assert read_edgelist(tmp_path / "h.edges") == make_graph(4, G.edges)


@pytest.mark.parametrize("G", [make_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]), make_graph(3, []), petersen()])
def test_edge_built_graph_is_written_from_its_rows(tmp_path, G):
    write_edgelist(G, tmp_path / "g.edges")
    assert (tmp_path / "g.edges").read_text() == "\n".join(edgelist_pieces(G)) + "\n"
    assert read_edgelist(tmp_path / "g.edges") == G


@pytest.mark.parametrize("G", [matching_graph(2100), gap_tree(8, 2)])
def test_an_edge_list_of_several_pieces_is_written_line_for_line(tmp_path, G):
    assert G.m > 2048  # more than two pieces of held edges
    write_edgelist(G, tmp_path / "g.edges")
    header = [f"# {v} {lab}" for v, lab in enumerate(G.roles or ()) if lab]
    lines = (["# roles:", *header] if header else []) + [f"{G.n} {G.m}"] + [f"{u} {v}" for u, v in G.edges]
    assert (tmp_path / "g.edges").read_text() == "\n".join(lines) + "\n"


def test_edge_built_graph_is_written_without_building_its_masks(tmp_path):
    G = gap_tree(4, 2)
    write_edgelist(G, tmp_path / "t.edges")
    assert "adj_masks" not in vars(G)
    assert (tmp_path / "t.edges").read_text() == "\n".join(edgelist_pieces(G)) + "\n"


def test_connectivity():
    assert is_connected(P4)
    assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(make_graph(1, []))
    assert is_connected(make_graph(0, []))


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


def flat_masks(G, r, **kwargs):
    """Every mask matching_blocks yields, its units joined."""

    return list(chain.from_iterable(unit_masks(*unit) for unit in matching_blocks(G, r, **kwargs)))


def check_units(units, r):
    """The shape of matching_blocks' units: an (r - 2)-edge prefix, lows above it, tuples of top bits above each low."""

    for prefix, lows, bits in units:
        assert type(lows) is tuple and type(bits) is tuple and len(lows) == len(bits) > 0
        if r == 1:
            assert (prefix, lows) == (0, (0,))
        else:
            assert prefix.bit_count() == r - 2
            assert all(low.bit_count() == 1 for low in lows)
            assert prefix < lows[0] and list(lows) == sorted(set(lows))
        for low, tops in zip(lows, bits):
            # A tuple, so no consumer can change a table the search shares between units.
            assert type(tops) is tuple and tops
            assert all(top.bit_count() == 1 for top in tops)
            assert low < tops[0] and list(tops) == sorted(set(tops))


def check_enumerator(G, r):
    """matching_blocks decoded against the brute-force oracle, its masks, units, blocks and cap, and first_matching."""

    units = list(matching_blocks(G, r))
    check_units(units, r)
    blocks = [block for unit in units for block in unit_blocks(unit)]
    masks = list(chain.from_iterable(blocks))
    assert masks == list(chain.from_iterable(unit_masks(*unit) for unit in units))
    matchings = [decode_matching(G.edges, mask) for mask in masks]
    assert matchings == brute_force_matchings(G, r)  # same matchings, same order
    bit = {e: 1 << i for i, e in enumerate(G.edges)}
    assert masks == [reduce(or_, (bit[e] for e in mt)) for mt in matchings]
    check_enumeration_index(masks)  # found by bisection in the enumeration order
    for block in blocks:
        # A block: one or more matchings that share all but their top edge.
        shared = block[0] ^ 1 << (block[0].bit_length() - 1)
        assert all(mask ^ shared == 1 << (mask.bit_length() - 1) for mask in block)
    n = len(matchings)
    assert list(matching_blocks(G, r, cap=n)) == units
    if n:
        with pytest.raises(KneserSizeError, match=rf"\(enumeration stopped at {n}\)$"):
            list(matching_blocks(G, r, cap=n - 1))
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
# which makes its table without counting, ends the search at r = 2.
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
    masks = flat_masks(G, 2 * n, deadline=Deadline(5))
    assert len(masks) == count == count_matchings(G, 2 * n)
    for mask in masks:
        assert make_matching(G, decode_matching(G.edges, mask)) == decode_matching(G.edges, mask)
    assert len(set(masks)) == count and not flat_masks(G, 2 * n + 1)


def test_flower_snark_one_below_perfect_matches_the_vertex_recursion():
    G = flower_snark(7)
    masks = flat_masks(G, 13)
    assert len(masks) == count_matchings(G, 13) == 11_305
    decoded = [decode_matching(G.edges, mask) for mask in masks]
    assert decoded == sorted(set(decoded))


def test_enumeration_raises_once_its_deadline_has_passed():
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        flat_masks(flower_snark(9), 18, deadline=Deadline(-1))
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        flat_masks(petersen(), 5, deadline=Deadline(-1))


def test_a_dead_enumeration_still_honours_its_deadline():
    # 11 disjoint triangles have no 12-matching, but every count the cuts
    # read passes until deep in the search, so no block is ever yielded and
    # only the checks inside the search can stop it (uncut: about 0.5 s).
    G = make_graph(33, [e for i in range(0, 33, 3) for e in ((i, i + 1), (i, i + 2), (i + 1, i + 2))])
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        next(matching_blocks(G, 12, CountingDeadline(limit=0)))
    started = time.perf_counter()
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        flat_masks(G, 12, deadline=Deadline(0.05))
    assert time.perf_counter() - started < 0.25


def test_a_new_table_checks_the_deadline_while_it_is_made():
    # At r = 2 the whole search is one table. On a star K(1, 1100) and one
    # edge apart, its scan passes 1,101 lows and its split 1,100 remainders
    # (each the far edge alone), so each checks the deadline once, at its
    # 1,024th, before the one unit is yielded and checked.
    G = make_graph(1103, [(0, v) for v in range(1, 1101)] + [(1101, 1102)])
    recorder = CountingDeadline()
    assert len(flat_masks(G, 2, deadline=recorder)) == 1100
    assert recorder.stages == ["r-matching enumeration"] * 3
    for limit in (0, 1):
        recorder = CountingDeadline(limit=limit)
        with pytest.raises(SearchTimeout, match="r-matching enumeration"):
            next(matching_blocks(G, 2, recorder))
        assert len(recorder.stages) == limit


def _random_graph(seed):
    """G(n, p) with n in 2..12 and p in 0.2..0.8, and an r in 1..4, from ``seed``."""

    rng = random.Random(seed)
    n = rng.randint(2, 12)
    p = rng.choice((0.2, 0.35, 0.5, 0.8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, pairs), rng.randint(1, 4)


# Hosts for the block-by-block comparison with the reference enumerator: the
# family grid and the radius-2 trees, where last-level remainders repeat
# across thousands of blocks; lK2 at r = 2 and 3, where none repeats at
# r = 2; and Petersen at r = 2..5.
_ORACLE_HOSTS = (
    [(f"gap{grid}", gap_graph(FamilyParams(*grid)), grid[0]) for grid in SURVEY_GRID]
    + [(f"gap_tree({r},{theta})", gap_tree(r, theta), r) for r in range(3, 7) for theta in (1, 2, 3)]
    + [(f"{l}K2-r{r}", matching_graph(l), r) for l in (2, 3, 5, 8, 12) for r in (2, 3)]
    + [(f"petersen-r{r}", petersen(), r) for r in range(2, 6)]
)


@pytest.mark.parametrize("host, r", [h[1:] for h in _ORACLE_HOSTS], ids=[h[0] for h in _ORACLE_HOSTS])
def test_matching_blocks_equal_the_reference_block_by_block(host, r):
    units = list(matching_blocks(host, r))
    check_units(units, r)
    assert [block for unit in units for block in unit_blocks(unit)] == reference_matching_blocks(host, r)


def test_matching_blocks_equal_the_reference_on_random_graphs():
    for seed in range(200):
        G, r = _random_graph(seed)
        assert enumerated_blocks(G, r) == reference_matching_blocks(G, r), seed


def test_cleared_blocks_and_other_hosts_leave_later_blocks_unchanged():
    # A unit holds only tuples, and its masks are made into a new list, so
    # clearing each unit's masks as they come, and running other hosts
    # between and alongside, changes nothing yielded: no search shares its
    # tables or its remainders' bits with another.
    A, B = gap_graph(FamilyParams(4, 2, 1)), petersen()
    expected_a, expected_b = reference_matching_blocks(A, 4), reference_matching_blocks(B, 3)
    seen = []
    for unit in matching_blocks(A, 4):
        masks = unit_masks(*unit)
        seen.append(list(masks))
        masks.clear()
        assert unit_masks(*unit) == seen[-1]
    assert seen and list(chain.from_iterable(seen)) == list(chain.from_iterable(expected_a))
    units_a, units_b = list(matching_blocks(A, 4)), list(matching_blocks(B, 3))
    assert [block for unit in units_a for block in unit_blocks(unit)] == expected_a
    assert enumerated_blocks(B, 3) == expected_b
    assert list(matching_blocks(A, 4)) == units_a
    interleaved = list(zip(matching_blocks(A, 4), matching_blocks(B, 3)))
    assert interleaved == list(zip(units_a, units_b))


def test_a_finished_enumeration_holds_no_memory():
    # The tables and the remainders' bits live only as long as their
    # search: a memo kept in the module or on the host would hold tens of
    # kB here, 71 tables of 418 units holding 9,373 blocks. The check runs
    # in a fresh interpreter, where no earlier test can have filled such a
    # memo. A reference cycle would keep them until a full collection, so
    # none may be found; that collection also empties CPython's free lists,
    # which tracemalloc would count as held.
    code = (
        "import gc, tracemalloc\n"
        "from matchkneser import FamilyParams, gap_graph\n"
        "from matchkneser.graphs import matching_blocks\n"
        "G = gap_graph(FamilyParams(5, 2, 1))\n"
        "assert G.edges\n"
        "gc.disable()\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "assert sum(1 for _ in matching_blocks(G, 5)) == 418\n"
        "assert sum(len(lows) for _, lows, _ in matching_blocks(G, 5)) == 9373\n"
        "print(gc.collect(), tracemalloc.get_traced_memory()[0])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    cycles, held = map(int, done.stdout.split())
    assert cycles == 0 and held < 4 * 1024


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
    mate = maximum_mates(petersen())
    assert all(mate[w] == v for v, w in enumerate(mate) if w != -1)
    mm = tuple((v, w) for v, w in enumerate(mate) if w > v)
    assert mm == make_matching(petersen(), mm)  # canonical + valid
    assert len(mm) == 5


def test_maximum_mates_starts_no_search_at_an_isolated_vertex(monkeypatch):
    searches = []

    def counted(adj, mate, root, log):
        searches.append(root)
        return _find_augmenting_path(adj, mate, root, log)

    monkeypatch.setattr("matchkneser.graphs._find_augmenting_path", counted)
    assert maximum_mates(make_graph(10**5, [])) == [-1] * 10**5
    assert searches == []
    # A vertex with a neighbor is still searched from: 2 is left exposed.
    assert maximum_mates(make_graph(4, [(0, 1), (1, 2)])) == [1, 0, -1, -1]
    assert searches == [2]


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
    text = "\n".join(edgelist_pieces(petersen()))
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


def test_edgelist_errors(tmp_path):
    with pytest.raises(GraphConstructionError):
        parse_edgelist("")
    with pytest.raises(GraphConstructionError):
        parse_edgelist("3 2\n0 1\n")  # header/edge-count mismatch
    with pytest.raises(GraphConstructionError):
        parse_edgelist("3 1\n0 1 2\n")
    with pytest.raises(GraphConstructionError):
        parse_edgelist("3 one\n")
    # an edge read twice, here in both orientations, would leave the header's m unmet
    with pytest.raises(GraphConstructionError, match="edge line '1 0' repeats the edge of line '0 1'"):
        parse_edgelist("3 2\n0 1\n1 0\n")
    path = tmp_path / "utf16.edges"
    path.write_bytes(b"\xff\xfe3\x00 \x001\x00")
    with pytest.raises(GraphConstructionError, match="not UTF-8"):
        read_edgelist(path)
