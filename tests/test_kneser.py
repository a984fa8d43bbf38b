"""Matching Kneser graphs and classical Kneser graphs."""

from itertools import combinations

import pytest
from hypothesis import given, settings

from matchkneser import (
    FamilyParams,
    KneserSizeError,
    ParameterError,
    SearchTimeout,
    build_matching_kneser,
    gap_graph,
    gap_tree,
    kneser_graph,
    make_graph,
    matching_graph,
    petersen,
    r_subsets,
)
from matchkneser.kneser import matchings_sidecar_lines

from helpers import CountingDeadline, are_isomorphic, graphs


def test_single_vertex_kneser():
    mkg = build_matching_kneser(make_graph(4, [(0, 1), (1, 2), (2, 3)]), 2)
    assert mkg.graph.n == 1 and mkg.graph.m == 0
    assert mkg.matchings == (((0, 1), (2, 3)),)


def test_three_independent_edges_give_triangle():
    mkg = build_matching_kneser(matching_graph(3), 1)
    assert mkg.graph.n == 3
    assert mkg.graph.edges == ((0, 1), (0, 2), (1, 2))


def test_petersen_kneser_is_edgeless():
    mkg = build_matching_kneser(petersen(), 5)
    assert mkg.graph.n == 6 and mkg.graph.m == 0
    # cross-check: any two of the 6 perfect matchings intersect
    for i, a in enumerate(mkg.matchings):
        for b in mkg.matchings[i + 1:]:
            assert set(a) & set(b)


def test_kneser_graph_examples():
    K52 = kneser_graph(5, 2)
    assert K52.n == 10 and K52.m == 15
    assert are_isomorphic(K52, petersen())
    assert kneser_graph(3, 2).m == 0 and kneser_graph(3, 2).n == 3
    assert kneser_graph(5, 3).n == 10 and kneser_graph(5, 3).m == 0


def test_kneser_graph_domain():
    with pytest.raises(ParameterError):
        kneser_graph(2, 3)
    with pytest.raises(ParameterError):
        kneser_graph(3, 0)


@pytest.mark.parametrize("l", range(1, 8))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_kneser_equals_matching_kneser_of_matching_graph(l, r):
    if r > l:
        return
    direct = kneser_graph(l, r)
    subsets = r_subsets(l, r)
    assert subsets == list(combinations(range(1, l + 1), r))
    disjoint = [
        (i, j)
        for i, j in combinations(range(len(subsets)), 2)
        if set(subsets[i]).isdisjoint(subsets[j])
    ]
    assert direct.n == len(subsets)
    assert list(direct.edges) == disjoint
    via_matchings = build_matching_kneser(matching_graph(l), r)
    # vertex-for-vertex: matching i uses exactly the pairs named by subset i
    for subset, matching in zip(r_subsets(l, r), via_matchings.matchings):
        assert subset == tuple(u // 2 + 1 for u, _ in matching)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_matching_kneser(petersen(), 5).graph,
        lambda: build_matching_kneser(gap_graph(FamilyParams(3, 2, 1)), 3).graph,
        lambda: build_matching_kneser(gap_graph(FamilyParams(4, 2, 2)), 4).graph,
        lambda: build_matching_kneser(gap_tree(4, 1), 4).graph,
        lambda: kneser_graph(7, 3),
    ],
    ids=["petersen-r5", "gap(3,2,1)", "gap(4,2,2)", "gap_tree(4,1)", "K(7,3)"],
)
def test_kneser_edge_list_is_canonical_as_built(build):
    # build_matching_kneser skips make_graph; its edge list must already be
    # what make_graph would make of it.
    graph = build()
    assert graph == make_graph(graph.n, graph.edges)
    assert all(u < v for u, v in graph.edges)
    assert all(a < b for a, b in zip(graph.edges, graph.edges[1:]))


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6, max_m=8))
def test_adjacency_soundness(G):
    mkg = build_matching_kneser(G, 2)
    for i in range(mkg.graph.n):
        for j in range(i + 1, mkg.graph.n):
            shared = set(mkg.matchings[i]) & set(mkg.matchings[j])
            assert mkg.graph.has_edge(i, j) == (not shared)


def test_cap_is_enforced_and_named():
    with pytest.raises(KneserSizeError, match="10"):
        build_matching_kneser(matching_graph(6), 2, cap=10)


def test_sidecar_format():
    mkg = build_matching_kneser(matching_graph(3), 2)
    lines = matchings_sidecar_lines(mkg)
    assert lines[0] == "0: (0,1) (2,3)"
    assert len(lines) == mkg.graph.n


def test_kneser_pair_loop_checks_the_deadline_once_per_row():
    G = gap_graph(FamilyParams(3, 2, 1))
    recorder = CountingDeadline()
    mkg = build_matching_kneser(G, 3, deadline=recorder)
    assert recorder.stages == ["matching Kneser construction"] * mkg.graph.n
    with pytest.raises(SearchTimeout, match="matching Kneser construction"):
        build_matching_kneser(G, 3, deadline=CountingDeadline(limit=5))
