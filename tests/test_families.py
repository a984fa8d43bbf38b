"""Family generators: parameter arithmetic, closed-form sizes, snark properties."""

import networkx as nx
import pytest

from matchkneser import (
    FamilyParams,
    ParameterError,
    build_matching_kneser,
    enumerate_matchings,
    gap_graph,
    gap_tree,
    is_connected,
    is_tree,
    make_graph,
    matching_graph,
    matching_number,
    petersen,
    radius,
    remove_edges,
)

from matchkneser.verify import THEOREM2_GRID

from helpers import SURVEY_GRID, are_isomorphic, edge_k_colorable, enumerated_blocks, gap_matching_count, to_networkx


def test_param_arithmetic():
    p = FamilyParams(3, 1, 1)
    assert (p.t, p.l, p.w_count, p.n_vertices) == (1, 3, 6, 13)
    p = FamilyParams(4, 1, 2)
    assert (p.t, p.l, p.w_count) == (1, 5, 15)
    p = FamilyParams(4, 1, 1)
    assert (p.t, p.l, p.w_count) == (2, 3, 9)


def test_derived_params_are_cached_outside_the_record_fields():
    p, q = FamilyParams(5, 3, 3), FamilyParams(5, 3, 3)
    assert (p.t, p.l, p.w_count) == (1, 9, 135)
    assert {"t", "l", "w_count"} <= vars(p).keys() and not {"t", "l", "w_count"} & vars(q).keys()
    # Read or not, the derived values take no part in equality, hash or repr.
    assert p == q and hash(p) == hash(q) == hash((5, 3, 3))
    assert repr(p) == repr(q) == "FamilyParams(r=5, theta=3, gamma=3)"
    assert p != FamilyParams(5, 2, 3)


@pytest.mark.parametrize(
    "r, theta, gamma, message",
    [
        (2, 1, 1, "r >= 3"),
        (3, 0, 1, "theta >= 1"),
        (3, 1, 0, "gamma >= 1"),
        (4, 1, 3, "gamma <= r - 2"),
    ],
)
def test_param_validation_names_the_inequality(r, theta, gamma, message):
    with pytest.raises(ParameterError, match=message):
        FamilyParams(r, theta, gamma)


@pytest.mark.parametrize(
    "r, theta, message",
    [(2, 1, "need r >= 3, got r=2"), (2, 0, "need r >= 3, got r=2"), (3, 0, "need theta >= 1, got theta=0")],
)
def test_gap_tree_refuses_parameters_with_the_family_messages(r, theta, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        gap_tree(r, theta)


def test_gap_graph_small_instances():
    G = gap_graph(FamilyParams(3, 1, 1))
    assert (G.n, G.m) == (13, 12)
    assert gap_graph(FamilyParams(3, 2, 1)).m == 18
    assert gap_graph(FamilyParams(4, 1, 2)).m == 25


@pytest.mark.parametrize("r", (3, 4, 5))
@pytest.mark.parametrize("theta", (1, 2, 3))
def test_size_closed_forms(r, theta):
    for gamma in range(1, r - 1):
        p = FamilyParams(r, theta, gamma)
        G = gap_graph(p)
        assert G.m == p.l + p.t * (p.l + p.w_count)
        assert G.n == 2 * p.l + p.t + p.w_count
        assert is_connected(G)
        assert nx.is_bipartite(to_networkx(G))
        if gamma == r - 2:
            assert is_tree(G) and radius(G) == 2


@pytest.mark.parametrize("grid", sorted(set(THEOREM2_GRID) | set(SURVEY_GRID)))
def test_matching_count_agrees_with_the_oracle_and_enumeration(grid):
    params = FamilyParams(*grid)
    assert params.n_matchings == gap_matching_count(params)
    assert params.n_matchings == sum(map(len, enumerated_blocks(gap_graph(params), params.r)))


def test_matching_count_of_the_tree_sequence():
    counts = [FamilyParams(r, 1, r - 2).n_matchings for r in range(3, 11)]
    assert counts == [22, 175, 1596, 17598, 221166, 2978547, 41555800, 591603298]


def test_roles_cover_all_blocks():
    p = FamilyParams(4, 2, 2)
    G = gap_graph(p)
    kinds = [lab[0] for lab in G.roles]
    assert kinds.count("x") == p.l
    assert kinds.count("y") == p.l
    assert kinds.count("w") == p.w_count
    assert kinds.count("z") == p.t
    assert G.roles[0] == "x1"
    assert G.roles[G.n - 1] == f"z{p.t}"


def test_gap_tree_matches_gap_graph():
    assert gap_tree(3, 1) == gap_graph(FamilyParams(3, 1, 1))
    assert gap_tree(3, 2).m == 18
    assert gap_tree(4, 1).m == 25
    for tree in (gap_tree(3, 1), gap_tree(4, 2)):
        assert is_tree(tree) and radius(tree) == 2


def test_matching_graph_examples():
    assert matching_graph(1).edges == ((0, 1),)
    G3 = matching_graph(3)
    assert not is_connected(G3) and matching_number(G3) == 3
    mkg = build_matching_kneser(matching_graph(5), 2)
    assert are_isomorphic(mkg.graph, petersen())


def test_matching_graph_domain():
    with pytest.raises(ParameterError):
        matching_graph(0)


def test_petersen_basics():
    P = petersen()
    assert (P.n, P.m) == (10, 15)
    assert all(len(P.adj[v]) == 3 for v in range(10))
    assert not nx.is_bipartite(to_networkx(P))
    assert matching_number(P) == 5
    assert len(enumerate_matchings(P, 5)) == 6


def test_petersen_is_bridgeless():
    P = petersen()
    for edge in P.edges:
        assert is_connected(remove_edges(P, [edge]))


def test_petersen_chromatic_index_is_four():
    P = petersen()
    assert not edge_k_colorable(P, 3)
    assert edge_k_colorable(P, 4)
