"""Minimum deletion sets and generalized Turán numbers, against naive oracles."""

import random
import tracemalloc
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings

from matchkneser import (
    Deadline,
    FamilyParams,
    ParameterError,
    SearchTimeout,
    certify_family,
    chromatic_number,
    gap_graph,
    gap_tree,
    generalized_turan,
    make_graph,
    matching_graph,
    matching_number,
    min_deletion_set,
    petersen,
    remove_edges,
)
from matchkneser import turan, verify
from matchkneser.graphs import maximum_mates, neighbor_lists, repair_matching
from matchkneser.turan import max_edge_count
from matchkneser.verify import naive_max_free_edge_count, naive_min_deletion_size

from helpers import graphs

P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
K5 = make_graph(5, list(combinations(range(5), 2)))


def _path(n):
    return make_graph(n, [(v, v + 1) for v in range(n - 1)])


def _triangles(l):
    """l disjoint triangles. At r = 2 one is kept, so D = 3l - 3, but one hub keeps only two edges."""

    return make_graph(3 * l, [e for t in range(0, 3 * l, 3) for e in ((t, t + 1), (t, t + 2), (t + 1, t + 2))])


def _atlas(max_n):
    """Every graph of networkx's atlas with 1 to ``max_n`` vertices."""

    return [
        make_graph(g.number_of_nodes(), g.edges())
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= max_n
    ]


def _least_deletion_set(G, r):
    """The first edge set, in ``combinations(G.edges, size)`` order of the fewest edges, that leaves nu < r."""

    for size in range(G.m + 1):
        for combo in combinations(G.edges, size):
            if matching_number(remove_edges(G, combo)) < r:
                return combo


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


def _first_atlas_mismatch():
    """The first (edges, r) of the atlas on 1..6 vertices whose search differs from the brute-force least optimum."""

    for G in _atlas(6):
        for r in range(1, matching_number(G) + 1):
            cert = min_deletion_set(G, r)
            if not cert.optimal or cert.deleted != _least_deletion_set(G, r):
                return G.edges, r
    return None


def test_every_small_atlas_graph_gets_the_least_optimum_at_every_r():
    # 486 (graph, r) instances: every atlas graph on 1..6 vertices, 1 <= r <= nu.
    instances = [(G, r) for G in _atlas(6) for r in range(1, matching_number(G) + 1)]
    assert len(instances) == 486
    for G, r in instances:
        cert = min_deletion_set(G, r)
        assert cert.optimal
        assert cert.deleted == _least_deletion_set(G, r), (G.edges, r)


@pytest.mark.parametrize(
    "G, deleted",
    [
        # Only the degree bound, 10 - f(1, 4) = 6, is tight at the root. The
        # optimum deletes the six edges of K4 on 0..3 and keeps the star at
        # 4; no matching holds six edges, so a fill drawn from the matching
        # misses it.
        (K5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        (make_graph(6, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 5), (2, 3), (3, 4)]), ((0, 1), (0, 4), (1, 5), (3, 4))),
    ],
    ids=["K5", "six-vertex"],
)
def test_a_tie_only_the_degree_bound_makes_draws_from_every_edge(G, deleted):
    cert = min_deletion_set(G, 2)
    assert cert.optimal and cert.deleted == deleted == _least_deletion_set(G, 2)


def test_the_atlas_oracle_catches_a_fill_accepted_without_its_matching_check(monkeypatch):
    # A tie node settled by a fill it never repaired records sets that leave an r-matching.
    monkeypatch.setattr(turan, "_fill_leaves_no_r_matching", lambda *args: True)
    assert _first_atlas_mismatch() is not None


def test_the_atlas_oracle_catches_the_cover_bound_on_a_host_with_odd_cycles(monkeypatch):
    # Two triangles keep three edges at r = 2, one more than the cover bound (r - 1) Delta allows.
    monkeypatch.setattr(turan, "_is_bipartite", lambda adj: True)
    assert _first_atlas_mismatch() is not None
    two_triangles = make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert min_deletion_set(two_triangles, 2).size == 4
    monkeypatch.undo()
    assert min_deletion_set(two_triangles, 2).size == 3


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, max_m=12))
def test_the_hub_cover_incumbent_is_valid_and_no_smaller_than_the_optimum(G):
    for r in range(1, matching_number(G) + 1):
        incumbent = turan._hub_cover_deletion(G.edges, neighbor_lists(G), r)
        assert matching_number(remove_edges(G, incumbent)) < r
        assert len(incumbent) >= min_deletion_set(G, r).size


def test_edge_count_bound_holds_on_every_atlas_graph_up_to_seven_vertices():
    for G in _atlas(7):
        delta = max(map(len, G.adj))
        if delta:
            assert G.m <= max_edge_count(matching_number(G), delta), G.edges


@pytest.mark.parametrize(
    "G, nu, delta",
    [
        (K5, 2, 4),
        (make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), 2, 2),
        (matching_graph(4), 4, 1),
        *((make_graph(d + 1, [(0, v) for v in range(1, d + 1)]), 1, d) for d in (1, 3, 4, 7)),
    ],
    ids=["K5", "two-triangles", "4K2", "K1,1", "K1,3", "K1,4", "K1,7"],
)
def test_edge_count_bound_is_tight(G, nu, delta):
    assert (matching_number(G), max(map(len, G.adj))) == (nu, delta)
    assert max_edge_count(nu, delta) == G.m


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
        generalized_turan(petersen(), 5, deadline=Deadline(-1.0))


def test_a_given_deadline_wins_over_the_time_budget():
    # The two solvers that take both ignore time_budget once given a deadline.
    assert min_deletion_set(petersen(), 5, time_budget=-1.0, deadline=Deadline(None)).optimal
    certify_family(FamilyParams(3, 1, 1), time_budget=-1.0, deadline=Deadline(None))


@pytest.mark.parametrize(
    "solve",
    [
        lambda budget: min_deletion_set(gap_tree(7, 1), 7, time_budget=budget),
        lambda budget: certify_family(FamilyParams(3, 1, 1), time_budget=budget),
        lambda budget: chromatic_number(petersen(), deadline=Deadline(budget)),
    ],
    ids=["min_deletion_set", "certify_family", "chromatic_number"],
)
def test_nan_time_budget_is_refused(solve):
    # No elapsed time compares greater than NaN, so such a deadline would never expire.
    with pytest.raises(ParameterError, match="NaN"):
        solve(float("nan"))
    with pytest.raises(ParameterError, match="NaN"):
        Deadline(float("nan"))


def test_timeout_message_brackets_the_optimum():
    # nu(Petersen) = 5, so at r = 5 at least one deletion is needed; the
    # search stops before its first node, so the best set is the hub cover
    # incumbent: four hubs cover 11 of the 15 edges.
    with pytest.raises(SearchTimeout, match=r"optimum in \[1, 4\]"):
        generalized_turan(petersen(), 5, deadline=Deadline(-1.0))


def test_timeout_message_brackets_the_optimum_with_the_degree_bound():
    # nu(P1000) = 500 gives only 499, but a path is bipartite: keeping at
    # most (r - 1) Delta = 2 edges, it loses at least 997 of its 999. One
    # hub keeps two edges, so the bracket closes before the search starts.
    with pytest.raises(SearchTimeout, match=r"optimum in \[997, 997\]"):
        generalized_turan(_path(1000), 2, deadline=Deadline(-1.0))


@pytest.mark.parametrize("n, r, size", [(1000, 2, 997), (60, 5, 51)], ids=["P1000-2", "P60-5"])
def test_paths_are_proven_optimal_within_a_second(n, r, size):
    # The cover bound meets the hub incumbent at the root.
    cert = min_deletion_set(_path(n), r, time_budget=1.0)
    assert cert.optimal and cert.size == size


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


class NodeCountingDeadline(Deadline):
    """No time limit; counts ``expired()`` calls and expires after ``limit``.

    The search calls it once per node, and once per 64 repairs of a fill check.
    """

    def __init__(self, limit=None):
        super().__init__(None)
        self.limit = limit
        self.nodes = 0

    def expired(self):
        self.nodes += 1
        return self.limit is not None and self.nodes > self.limit


@pytest.mark.parametrize(
    "G, r, nodes",
    [
        (petersen(), 5, 29),
        (gap_tree(5, 1), 5, 1),
        (gap_tree(7, 1), 7, 1),
        (gap_tree(6, 3), 6, 1),
        (gap_graph(FamilyParams(r=4, theta=2, gamma=2)), 4, 1),
        (matching_graph(10), 3, 1),
        # Three of the benchmark's random graphs with odd cycles, where the
        # hub incumbent is not the optimum at once.
        (make_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)]), 3, 23),
        (make_graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 6), (3, 5)]), 3, 22),
        (make_graph(7, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (5, 6)]), 3, 18),
    ],
    ids=["petersen-5", "tree-5-1", "tree-7-1", "tree-6-3", "gap-4-2-2", "10K2-3", "random-7", "random-13", "random-31"],
)
def test_search_enters_a_pinned_number_of_nodes(G, r, nodes):
    deadline = NodeCountingDeadline()
    assert min_deletion_set(G, r, deadline=deadline).optimal
    assert deadline.nodes == nodes


@pytest.mark.parametrize("limit", [0, 1, 10, 21, 42])
def test_search_stopped_after_some_nodes_still_returns_a_valid_set(limit):
    G = make_graph(7, list(combinations(range(7), 2)))  # K7 at r = 3 takes 560 nodes
    deadline = NodeCountingDeadline(limit)
    cert = min_deletion_set(G, 3, deadline=deadline)
    assert not cert.optimal
    assert deadline.nodes == limit + 1  # the search stops at the first expired check
    assert cert.size == len(cert.deleted)
    assert matching_number(remove_edges(G, cert.deleted)) < 3


def test_a_deadline_that_expires_inside_a_fill_check_stops_the_search():
    # P1000's root ties with the hub incumbent, and its fill runs 997
    # repairs: the deadline is looked at after repairs 64, 128, ..., 960.
    G = _path(1000)
    deadline = NodeCountingDeadline()
    assert min_deletion_set(G, 2, deadline=deadline).optimal
    assert deadline.nodes == 1 + 15
    deadline = NodeCountingDeadline(1)
    cert = min_deletion_set(G, 2, deadline=deadline)
    assert not cert.optimal
    assert cert.size == len(cert.deleted) == 997
    assert matching_number(remove_edges(G, cert.deleted)) < 2


def test_search_deeper_than_the_recursion_limit():
    # 1200K2 keeps one edge at r = 2; the root's fill is that optimum.
    G = matching_graph(1200)
    cert = min_deletion_set(G, 2)
    assert cert.size == 1199 and cert.optimal
    assert cert.deleted == G.edges[:-1]  # lexicographically least optimum
    # 400 triangles keep one at r = 2: the search path is 1197 deletions deep.
    G = _triangles(400)
    deadline = NodeCountingDeadline()
    cert = min_deletion_set(G, 2, deadline=deadline)
    assert cert.size == 1197 and cert.optimal
    assert cert.deleted == G.edges[:-3]
    assert deadline.nodes == 1198


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
        assert nu - repair_matching(adj, mate, u, v, []) == matching_number(left)
        # the repaired mate array is a matching of the smaller graph
        pairs = [(a, mate[a]) for a in range(G.n) if mate[a] > a]
        assert all(mate[b] == a for a, b in pairs)
        assert set(pairs) <= set(left.edges)
        assert len(pairs) == matching_number(left)


@pytest.mark.parametrize("seed", range(12))
def test_replaying_the_repair_log_in_reverse_restores_the_mates(seed):
    rng = random.Random(seed)
    G = _random_graph(rng, rng.randint(4, 12), rng.choice((0.2, 0.35, 0.5)))
    before = maximum_mates(G)
    for u, v in G.edges:
        adj = [list(a) for a in G.adj]
        adj[u].remove(v)
        adj[v].remove(u)
        mate = before[:]
        log = []
        repair_matching(adj, mate, u, v, log)
        for w, old in reversed(log):
            mate[w] = old
        assert mate == before


def _traced_peak(run):
    """``run()`` and the peak bytes it held, as traced by tracemalloc."""

    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_search_that_cannot_start_builds_no_adjacency():
    # No augmenting path starts without an edge at an exposed vertex, so
    # nothing reads G.adj: on 10**5 vertices it costs more than the solve.
    G = make_graph(10**5, [])
    cert = min_deletion_set(G, 1)
    assert cert.optimal and cert.size == 0
    assert "adj" not in vars(G)
    H = matching_graph(1000)  # the greedy seed is already perfect
    assert (H.n - maximum_mates(H).count(-1)) // 2 == 1000
    assert "adj" not in vars(H)


def test_a_search_reads_no_neighbor_tuples_of_the_whole_host():
    # The search adjacency holds the vertices that edges touch, not all n.
    G = make_graph(10**5, [(0, 1), (1, 2)])
    cert = min_deletion_set(G, 1)
    assert cert.optimal and cert.deleted == ((0, 1), (1, 2))
    assert "adj" not in vars(G)
    # The greedy seed takes (0, 1); the path 2-1-0-9 augments it.
    H = make_graph(10**5, [(0, 1), (0, 9), (1, 2)])
    assert maximum_mates(H)[:10] == [9, 2, 1, -1, -1, -1, -1, -1, -1, 0]
    assert "adj" not in vars(H)


def test_repair_allocates_nothing_of_the_host_size():
    # An augmenting path through a blossom beside 200,000 isolated vertices:
    # deleting the matched edge (0, 6) leaves 0 exposed, and 0-1-2-4-3-5
    # augments once the blossom 2-3-4 is shrunk.
    n = 200_007
    adj = [[] for _ in range(n)]
    for u, v in [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5)]:
        adj[u].append(v)
        adj[v].append(u)
    mate = [6, 2, 1, 4, 3, -1, 0] + [-1] * (n - 7)
    log = []
    drop, peak = _traced_peak(lambda: repair_matching(adj, mate, 0, 6, log))
    assert drop == 0 and mate[:7] == [1, 0, 4, 5, 2, 3, -1]
    assert peak < 64 * 1024  # one n-length list of ints would be 1.6 MB


def test_deletion_search_keeps_no_copy_of_the_mate_array_per_node():
    # 334 triangles at r = 2 are searched down a path 999 deletions deep; a
    # copy of their 1,002-entry mate array per node would hold about 8 MB.
    G = _triangles(334)
    cert, peak = _traced_peak(lambda: min_deletion_set(G, 2))
    assert cert.size == 999 and cert.optimal
    assert peak < 4 * 1024 * 1024


def test_prop1_reports_each_check_on_its_own(monkeypatch):
    # An oracle that is off by one for the deletion count must fail only the
    # removal-bound check, not the ex check.
    monkeypatch.setattr(verify, "naive_min_deletion_size", lambda G, r: naive_min_deletion_size(G, r) + 1)
    ex_check, removal_check = verify.verify_prop1().checks
    assert ex_check.ok
    assert not removal_check.ok
    assert removal_check.detail.startswith("first mismatch")
