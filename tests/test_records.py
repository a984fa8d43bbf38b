"""Every record class keeps its construction, equality, hash and repr."""

import math
import time
from dataclasses import FrozenInstanceError

import pytest

from matchkneser import Deadline, LabeledGraph, ParameterError, make_graph
from matchkneser.coloring import (
    ChiCertificate,
    CliqueWitness,
    EdgelessWitness,
    EmptyWitness,
    ExhaustionWitness,
)
from matchkneser.families import FamilyParams
from matchkneser.homcert import FamilyCertification, HomomorphismEvidence, HomWitness
from matchkneser.kneser import MatchingKneserGraph
from matchkneser.report import GapReport
from matchkneser.turan import DeletionCertificate
from matchkneser.verify import Check, VerifyResult

HOST = make_graph(2, [(0, 1)])
HOST_REPR = "LabeledGraph(n=2, edges=((0, 1),), roles=None)"
CLIQUE = CliqueWitness((0, 1))
CHI = ChiCertificate(2, (0, 1), CLIQUE)
CHI_REPR = "ChiCertificate(k=2, coloring=(0, 1), witness=CliqueWitness(vertices=(0, 1), kind='CLIQUE'))"
HOM = HomWitness((1,), (2,), (0,))
HOM_REPR = "HomWitness(source_desc=(1,), target_desc=(2,), mapping=(0,))"
PARAMS = FamilyParams(3, 1, 1)

# (class, field names, field values, repr of cls(*values))
FROZEN = [
    (EmptyWitness, ("kind",), ("EMPTY",), "EmptyWitness(kind='EMPTY')"),
    (EdgelessWitness, ("kind",), ("EDGELESS",), "EdgelessWitness(kind='EDGELESS')"),
    (CliqueWitness, ("vertices", "kind"), ((0, 1), "CLIQUE"), "CliqueWitness(vertices=(0, 1), kind='CLIQUE')"),
    (ExhaustionWitness, ("failed_k", "kind"), (3, "EXHAUSTION"), "ExhaustionWitness(failed_k=3, kind='EXHAUSTION')"),
    (ChiCertificate, ("k", "coloring", "witness"), (2, (0, 1), CLIQUE), CHI_REPR),
    (FamilyParams, ("r", "theta", "gamma"), (3, 1, 1), "FamilyParams(r=3, theta=1, gamma=1)"),
    (HomWitness, ("source_desc", "target_desc", "mapping"), ((1,), (2,), (0,)), HOM_REPR),
    (
        HomomorphismEvidence,
        ("witness", "source_chi", "kind"),
        (HOM, CHI, "HOMOMORPHISM"),
        f"HomomorphismEvidence(witness={HOM_REPR}, source_chi={CHI_REPR}, kind='HOMOMORPHISM')",
    ),
    (
        FamilyCertification,
        ("params", "n_matchings", "chi_certificate", "forward", "backward", "kneser_certificate", "pairs_checked"),
        (PARAMS, 3, CHI, HOM, HOM, CHI, 3),
        f"FamilyCertification(params=FamilyParams(r=3, theta=1, gamma=1), n_matchings=3, chi_certificate={CHI_REPR},"
        f" forward={HOM_REPR}, backward={HOM_REPR}, kneser_certificate={CHI_REPR}, pairs_checked=3)",
    ),
    (
        MatchingKneserGraph,
        ("host", "r", "masks", "graph"),
        (HOST, 1, (1,), LabeledGraph(1, ())),
        f"MatchingKneserGraph(host={HOST_REPR}, r=1, masks=(1,), graph=LabeledGraph(n=1, edges=(), roles=None))",
    ),
    (
        GapReport,
        (
            "instance", "r", "edge_count", "ex", "removal_bound", "chi", "gap", "verdict", "connected",
            "chi_certificate", "deletion_certificate", "predicted_chi", "predicted_removal", "prediction_match",
        ),
        ("K2", 2, 1, 0, 1, 2, 1, "OK", True, None, None, None, None, None),
        "GapReport(instance='K2', r=2, edge_count=1, ex=0, removal_bound=1, chi=2, gap=1, verdict='OK',"
        " connected=True, chi_certificate=None, deletion_certificate=None, predicted_chi=None,"
        " predicted_removal=None, prediction_match=None)",
    ),
    (
        DeletionCertificate,
        ("r", "deleted", "size", "optimal"),
        (2, ((0, 1),), 1, True),
        "DeletionCertificate(r=2, deleted=((0, 1),), size=1, optimal=True)",
    ),
]

MUTABLE = [
    (Deadline, ("seconds", "started"), (5.0, 1.0), "Deadline(seconds=5.0, started=1.0)"),
    (Check, ("name", "ok", "detail"), ("a", True, ""), "Check(name='a', ok=True, detail='')"),
    (
        VerifyResult,
        ("target", "checks", "instances", "unknown"),
        ("t", [Check("a", True)], [("K2", 2, 1)], False),
        "VerifyResult(target='t', checks=[Check(name='a', ok=True, detail='')], instances=[('K2', 2, 1)], unknown=False)",
    ),
]

RECORDS = FROZEN + MUTABLE
CASE = {case[0]: case for case in RECORDS}


def name_of(case):
    return case[0].__name__


@pytest.mark.parametrize("case", RECORDS, ids=name_of)
def test_positional_and_keyword_construction_agree(case):
    cls, fields, values, _ = case
    x = cls(*values)
    assert tuple(getattr(x, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == x
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == x


@pytest.mark.parametrize("case", RECORDS, ids=name_of)
def test_equality_is_over_fields_and_class(case):
    cls, _, values, _ = case
    x = cls(*values)
    assert x == cls(*values) and not x != cls(*values)
    assert x != values and values != x
    assert x != list(values)


def test_records_of_different_classes_with_equal_fields_differ():
    assert EmptyWitness("K") != EdgelessWitness("K")
    assert CliqueWitness(3, "K") != ExhaustionWitness(3, "K")


@pytest.mark.parametrize("case", FROZEN, ids=name_of)
def test_a_frozen_record_hashes_as_its_field_tuple(case):
    cls, _, values, _ = case
    assert hash(cls(*values)) == hash(values)
    assert len({cls(*values), cls(*values)}) == 1


@pytest.mark.parametrize("case", MUTABLE, ids=name_of)
def test_a_mutable_record_is_unhashable(case):
    cls, _, values, _ = case
    with pytest.raises(TypeError):
        hash(cls(*values))


@pytest.mark.parametrize("case", RECORDS, ids=name_of)
def test_repr(case):
    cls, _, values, expected = case
    assert repr(cls(*values)) == expected


@pytest.mark.parametrize("case", FROZEN, ids=name_of)
def test_a_frozen_record_refuses_assignment_and_deletion(case):
    cls, fields, values, _ = case
    x = cls(*values)
    for name in fields:
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    with pytest.raises(FrozenInstanceError):
        x.extra = 1
    assert x == cls(*values)


@pytest.mark.parametrize("case", MUTABLE, ids=name_of)
def test_a_mutable_record_takes_assignment(case):
    cls, fields, values, _ = case
    x = cls(*values)
    setattr(x, fields[0], "changed")
    assert getattr(x, fields[0]) == "changed"
    assert x != cls(*values)


@pytest.mark.parametrize("case", RECORDS, ids=name_of)
def test_wrong_arguments_are_a_type_error(case):
    cls, fields, values, _ = case
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize(
    "cls, required",
    [(CliqueWitness, 1), (ExhaustionWitness, 1), (ChiCertificate, 3), (FamilyParams, 3), (HomWitness, 3),
     (HomomorphismEvidence, 2), (FamilyCertification, 7), (MatchingKneserGraph, 4), (GapReport, 11),
     (DeletionCertificate, 4), (Deadline, 1), (Check, 2), (VerifyResult, 1)],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_a_missing_argument_is_a_type_error(cls, required):
    with pytest.raises(TypeError):
        cls(*[None] * (required - 1))


def test_defaults():
    assert EmptyWitness().kind == "EMPTY"
    assert EdgelessWitness().kind == "EDGELESS"
    assert CliqueWitness((0, 1)).kind == "CLIQUE"
    assert ExhaustionWitness(2).kind == "EXHAUSTION"
    assert HomomorphismEvidence(HOM, CHI).kind == "HOMOMORPHISM"
    assert GapReport("K2", 2, 1, 0, 1, 2, 1, "OK", True, None, None) == GapReport(*CASE[GapReport][2])
    assert Check("a", True).detail == ""
    result = VerifyResult("t")
    assert (result.checks, result.instances, result.unknown) == ([], [], False)
    assert VerifyResult("u").checks is not result.checks
    before = time.monotonic()
    deadline = Deadline(None)
    assert deadline.seconds is None and before <= deadline.started <= time.monotonic()


def test_cached_matchings_stay_out_of_equality_hash_and_repr():
    cls, _, values, expected = CASE[MatchingKneserGraph]
    x = cls(*values)
    assert x.matchings == (((0, 1),),)
    assert x == cls(*values) and hash(x) == hash(values) and repr(x) == expected


def test_construction_validates():
    with pytest.raises(ParameterError, match="need r >= 3"):
        FamilyParams(2, 1, 1)
    with pytest.raises(ParameterError, match="NaN"):
        Deadline(math.nan)
