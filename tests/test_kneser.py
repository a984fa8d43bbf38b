"""Matching Kneser graphs and classical Kneser graphs."""

from itertools import combinations

import pytest
from hypothesis import given, settings

from matchkneser import (
    Deadline,
    FamilyParams,
    KneserSizeError,
    LabeledGraph,
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
from matchkneser import kneser
from matchkneser.coloring import DEFAULT_TIME_BUDGET, chromatic_number
from matchkneser.graphs import edgelist_lines, matching_blocks
from matchkneser.kneser import matchings_sidecar_lines, write_kneser_files
from matchkneser.verify import THEOREM2_GRID

from helpers import CountingDeadline, are_isomorphic, brute_force_matchings, graphs


def test_matchings_are_decoded_on_read_and_cached(monkeypatch):
    G = gap_graph(FamilyParams(3, 2, 1))
    mkg, twin = build_matching_kneser(G, 3), build_matching_kneser(G, 3)
    real = kneser.decode_matching
    calls = []

    def counting(edges, mask):
        calls.append(mask)
        return real(edges, mask)

    monkeypatch.setattr(kneser, "decode_matching", counting)
    assert hash(mkg) == hash(twin) and mkg == twin
    assert not calls
    assert mkg.matchings == tuple(brute_force_matchings(G, 3))
    assert mkg.matchings is mkg.matchings
    assert calls == list(mkg.masks)


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


def _deadline_stages(G, r, rows):
    """The checks of one construction: one per enumerated block, then one per row."""

    blocks = sum(1 for _ in matching_blocks(G, r))
    return ["r-matching enumeration"] * blocks + ["matching Kneser construction"] * rows


def test_kneser_pair_loop_checks_the_deadline_once_per_row():
    G = gap_graph(FamilyParams(3, 2, 1))
    recorder = CountingDeadline()
    mkg = build_matching_kneser(G, 3, deadline=recorder)
    assert recorder.stages == _deadline_stages(G, 3, mkg.graph.n)
    enumeration_checks = recorder.stages.count("r-matching enumeration")
    with pytest.raises(SearchTimeout, match="matching Kneser construction"):
        build_matching_kneser(G, 3, deadline=CountingDeadline(limit=enumeration_checks + 5))
    with pytest.raises(SearchTimeout, match="r-matching enumeration"):
        build_matching_kneser(G, 3, deadline=CountingDeadline(limit=enumeration_checks - 1))


@pytest.mark.parametrize(
    "host, r",
    [(petersen(), 5), (gap_tree(5, 1), 5)]
    + [(gap_graph(FamilyParams(r, theta, gamma)), r) for r, theta, gamma in THEOREM2_GRID],
    ids=["petersen-r5", "gap_tree(5,1)"] + ["gap({},{},{})".format(*grid) for grid in THEOREM2_GRID],
)
def test_rows_by_unions_match_the_pair_reference(host, r):
    mkg = build_matching_kneser(host, r)
    matchings = brute_force_matchings(host, r)
    assert list(mkg.matchings) == matchings
    edge_sets = [frozenset(m) for m in matchings]
    pairs = [(i, j) for i, j in combinations(range(len(matchings)), 2) if edge_sets[i].isdisjoint(edge_sets[j])]
    assert mkg.graph.n == len(matchings)
    assert list(mkg.graph.edges) == pairs


def test_edgeless_tree_kneser_builds_within_the_default_budget():
    # No two 6-matchings of gap_tree(6, 1) are edge-disjoint.
    mkg = build_matching_kneser(gap_tree(6, 1), 6, deadline=Deadline(DEFAULT_TIME_BUDGET))
    assert mkg.graph.n == len(mkg.matchings) == 17_598
    assert mkg.graph.m == 0


def test_empty_rows_still_check_the_deadline():
    recorder = CountingDeadline()
    mkg = build_matching_kneser(gap_tree(5, 1), 5, deadline=recorder)
    assert mkg.graph.m == 0
    assert recorder.stages == _deadline_stages(gap_tree(5, 1), 5, mkg.graph.n)


@pytest.mark.parametrize(
    "host, r", [(petersen(), 5), (gap_graph(FamilyParams(4, 2, 1)), 4)], ids=["petersen-r5", "gap(4,2,1)"]
)
def test_coloring_a_kneser_graph_never_decodes_its_edges(monkeypatch, host, r):
    def no_decoding(masks):
        raise AssertionError("the edge list was decoded")

    monkeypatch.setattr("matchkneser.graphs._upper_neighbors", no_decoding)
    mkg = build_matching_kneser(host, r)
    cert = chromatic_number(mkg.graph)
    assert cert.k == (1 if r == 5 else 2)
    assert "edges" not in vars(mkg.graph)


def _row_bytes(mkg):
    return sum(row.bit_length() // 8 for row in mkg.graph.adj_masks)


def test_row_budget_is_enforced_on_the_bytes_held(monkeypatch):
    G = gap_graph(FamilyParams(3, 2, 1))
    held = _row_bytes(build_matching_kneser(G, 3))
    assert held > 0
    monkeypatch.setattr(kneser, "KNESER_ROW_BYTES", held)
    assert build_matching_kneser(G, 3).graph.n == 76
    monkeypatch.setattr(kneser, "KNESER_ROW_BYTES", held - 1)
    with pytest.raises(KneserSizeError, match=f"more than {held - 1} bytes"):
        build_matching_kneser(G, 3)


def test_rows_of_an_edgeless_kneser_graph_fit_any_budget(monkeypatch):
    monkeypatch.setattr(kneser, "KNESER_ROW_BYTES", 0)
    mkg = build_matching_kneser(gap_tree(5, 1), 5)
    assert mkg.graph.n == 1596 and mkg.graph.m == 0


def test_kneser_graph_is_built_from_its_rows():
    mkg = build_matching_kneser(gap_graph(FamilyParams(3, 2, 1)), 3)
    graph = mkg.graph
    assert graph.m == 402
    assert "edges" not in vars(graph)
    reference = LabeledGraph(graph.n, graph.edges)
    assert graph == reference and hash(graph) == hash(reference)


def test_kneser_edges_file_is_written_from_the_rows(tmp_path):
    mkg = build_matching_kneser(gap_graph(FamilyParams(3, 2, 1)), 3)
    assert mkg.host.roles is not None and mkg.graph.roles is None
    graph_path, _ = write_kneser_files(mkg, tmp_path / "mkg")
    assert "edges" not in vars(mkg.graph)
    expected = "\n".join(edgelist_lines(make_graph(mkg.graph.n, mkg.graph.edges))) + "\n"
    assert graph_path.read_bytes() == expected.encode()
