"""Gap reports: verdicts, predictions, serialization stability."""

import json

import pytest

from matchkneser import (
    ChiCertificate,
    VerificationError,
    gap_report,
    make_graph,
    matching_graph,
    min_deletion_set,
    petersen,
    sequence_report,
)
from matchkneser.coloring import EdgelessWitness
from matchkneser.report import HOLDS, UNKNOWN, VIOLATED, assemble_report, reports_json, reports_table

from helpers import CountingDeadline

P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_path_holds():
    rep = gap_report(P4, 2, instance="p4")
    assert (rep.edge_count, rep.ex, rep.removal_bound) == (3, 2, 1)
    assert rep.chi == 1 and rep.gap == 0
    assert rep.verdict == HOLDS and rep.connected


def test_disconnected_matching_graph_is_flagged():
    rep = gap_report(matching_graph(7), 3, instance="7K2")
    assert (rep.removal_bound, rep.chi, rep.gap) == (5, 3, 2)
    assert rep.verdict == VIOLATED
    assert not rep.connected  # outside the scope of the connected-graph question


def test_petersen_report():
    rep = gap_report(petersen(), 5, instance="petersen")
    assert (rep.removal_bound, rep.chi, rep.gap) == (3, 1, 2)
    assert rep.verdict == VIOLATED and rep.connected


def test_gap_report_passes_its_deadline_to_the_kneser_pair_loop():
    recorder = CountingDeadline()
    assert gap_report(petersen(), 5, deadline=recorder).chi == 1
    assert recorder.stages.count("matching Kneser construction") == 6  # one per Kneser vertex
    first = recorder.stages.index("matching Kneser construction")
    stopped = gap_report(petersen(), 5, deadline=CountingDeadline(limit=first))
    assert stopped.chi is None and stopped.verdict == UNKNOWN
    assert stopped.removal_bound == 3


def test_sequence_report_growth():
    reps = sequence_report(1, [3, 4])
    assert [rep.gap for rep in reps] == [1, 2]
    assert [rep.removal_bound for rep in reps] == [2, 3]
    assert all(rep.chi == 1 and rep.verdict == VIOLATED for rep in reps)
    assert all(rep.prediction_match for rep in reps)
    assert all(rep.ex == rep.edge_count - rep.removal_bound for rep in reps)


def test_sequence_report_theta_two():
    rep = sequence_report(2, [3])[0]
    assert (rep.removal_bound, rep.chi, rep.gap) == (3, 2, 1)
    assert rep.verdict == VIOLATED
    assert rep.predicted_chi == 2 and rep.predicted_removal == 3


def test_chi_above_bound_aborts():
    fake = ChiCertificate(k=9, coloring=(0,) * 4, witness=EdgelessWitness())
    deletion = min_deletion_set(P4, 2)
    with pytest.raises(VerificationError):
        assemble_report("fake", 2, P4, deletion, fake)


def test_unknown_when_kneser_cap_blocks_chi():
    rep = gap_report(petersen(), 5, kneser_cap=1)
    assert rep.verdict == UNKNOWN
    assert rep.chi is None and rep.gap is None
    assert rep.removal_bound == 3  # the deletion side still solved


def test_json_rendering_is_stable():
    reps = sequence_report(1, [3])
    first = reports_json(reps)
    second = reports_json(sequence_report(1, [3]))
    assert first == second
    payload = json.loads(first)
    assert payload[0]["instance"] == "tree(r=3,theta=1)"
    assert payload[0]["witnesses"]["deletion"]["size"] == 2


def test_table_rendering():
    table = reports_table([gap_report(P4, 2, instance="p4")])
    lines = table.splitlines()
    assert lines[0].split() == [
        "instance", "r", "|E|", "ex", "D", "chi", "gap", "verdict", "connected", "match",
    ]
    assert lines[1].startswith("p4")
