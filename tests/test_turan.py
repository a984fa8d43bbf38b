"""Minimum deletion sets and generalized Turán numbers, against naive oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from matchkneser import (
    ParameterError,
    SearchTimeout,
    gap_tree,
    generalized_turan,
    make_graph,
    matching_graph,
    matching_number,
    min_deletion_set,
    petersen,
    remove_edges,
)
from matchkneser import verify
from matchkneser.graphs import maximum_mates, repair_matching
from matchkneser.verify import naive_max_free_edge_count, naive_min_deletion_size

from helpers import graphs

P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_independent_matching_deletion():
    cert = min_deletion_set(matching_graph(7), 3)
    assert cert.size == 5 and cert.optimal
    assert cert.deleted == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
    assert generalized_turan(matching_graph(7), 3) == 2


def test_trivially_free_graph():
    cert = min_deletion_set(P4, 3)
    assert cert.size == 0 and cert.deleted == () and cert.optimal
    assert generalized_turan(P4, 3) == 3


def test_path_single_deletion():
    cert = min_deletion_set(P4, 2)
    assert cert.size == 1
    assert cert.deleted == ((0, 1),)  # lexicographically least optimum
    assert generalized_turan(P4, 2) == 2


def test_petersen_deletion():
    cert = min_deletion_set(petersen(), 5)
    assert cert.size == 3 and cert.optimal
    assert cert.deleted == ((0, 1), (0, 4), (0, 5))  # isolates vertex 0
    assert generalized_turan(petersen(), 5) == 12


def test_deletion_domain():
    with pytest.raises(ParameterError):
        min_deletion_set(P4, 0)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7, max_m=10))
def test_duality_against_oracles(G):
    for r in (1, 2, 3, 4):
        cert = min_deletion_set(G, r)
        assert cert.optimal
        assert cert.size == naive_min_deletion_size(G, r)
        assert G.m - cert.size == naive_max_free_edge_count(G, r)
        # the certificate's remainder really is (rK2)-free
        assert matching_number(remove_edges(G, cert.deleted)) <= r - 1


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7, max_m=10))
def test_monotone_in_r(G):
    sizes = [min_deletion_set(G, r).size for r in (1, 2, 3, 4)]
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=25, deadline=None)
@given(graphs(max_n=6, max_m=8))
def test_reported_set_is_lex_least_optimum(G):
    for r in (2, 3):
        cert = min_deletion_set(G, r)
        if cert.size == 0:
            continue
        valid = [
            combo
            for combo in combinations(G.edges, cert.size)
            if matching_number(remove_edges(G, combo)) <= r - 1
        ]
        assert cert.deleted == min(valid)


def test_timeout_yields_unclaimed_bound():
    cert = min_deletion_set(petersen(), 5, time_budget=-1.0)
    assert not cert.optimal
    assert matching_number(remove_edges(petersen(), cert.deleted)) <= 4
    with pytest.raises(SearchTimeout):
        generalized_turan(petersen(), 5, time_budget=-1.0)


def test_timeout_message_brackets_the_optimum():
    # nu(Petersen) = 5, so at r = 5 at least one deletion is needed; the
    # search stops before its first node, so the best set is all 15 edges.
    with pytest.raises(SearchTimeout, match=r"optimum in \[1, 15\]"):
        generalized_turan(petersen(), 5, time_budget=-1.0)


def test_certificate_json_schema():
    payload = min_deletion_set(P4, 2).to_json_dict()
    assert payload == {"r": 2, "deleted": [[0, 1]], "size": 1, "optimal": True}


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, max_m=12))
def test_against_subset_oracle_up_to_eight_vertices(G):
    for r in (1, 2, 3, 4):
        cert = min_deletion_set(G, r)
        assert cert.optimal
        assert cert.size == naive_min_deletion_size(G, r)
        if cert.size == 0:
            continue
        valid = [
            combo
            for combo in combinations(G.edges, cert.size)
            if matching_number(remove_edges(G, combo)) <= r - 1
        ]
        assert cert.deleted == min(valid)


@pytest.mark.parametrize("r, theta", [(7, 1), (7, 2), (8, 1)])
def test_radius_two_tree_ladder(r, theta):
    cert = min_deletion_set(gap_tree(r, theta), r)
    assert cert.optimal
    assert cert.size == theta + r - 2


def _random_graph(rng, n, p):
    return make_graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


@pytest.mark.parametrize("seed", range(12))
def test_repaired_matching_is_maximum_after_each_deletion(seed):
    rng = random.Random(seed)
    G = _random_graph(rng, rng.randint(4, 12), rng.choice((0.2, 0.35, 0.5)))
    nu = matching_number(G)
    for u, v in G.edges:
        adj = [list(a) for a in G.adj]
        adj[u].remove(v)
        adj[v].remove(u)
        mate = maximum_mates(G)
        left = remove_edges(G, [(u, v)])
        assert nu - repair_matching(adj, mate, u, v) == matching_number(left)
        # the repaired mate array is a matching of the smaller graph
        pairs = [(a, mate[a]) for a in range(G.n) if mate[a] > a]
        assert all(mate[b] == a for a, b in pairs)
        assert all(left.has_edge(a, b) for a, b in pairs)
        assert len(pairs) == matching_number(left)


def test_prop1_reports_each_check_on_its_own(monkeypatch):
    # An oracle that is off by one for the deletion count must fail only the
    # removal-bound check, not the ex check.
    monkeypatch.setattr(verify, "naive_min_deletion_size", lambda G, r: naive_min_deletion_size(G, r) + 1)
    ex_check, removal_check = verify.verify_prop1().checks
    assert ex_check.ok
    assert not removal_check.ok
    assert removal_check.detail.startswith("first mismatch")
