"""The documented experiment scripts run to completion with their default caps."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matchkneser import FamilyParams, certify_family, gap_graph
from matchkneser.verify import THEOREM2_GRID

from helpers import SURVEY_GRID, enumerated_blocks, gap_matching_count, readme_library_block

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=600, check=False,
    )


def test_gap_survey_runs_with_its_defaults():
    done = run_script("gap_survey.py")
    assert done.returncode == 0, done.stderr
    assert "all 18 instances match the closed forms" in done.stdout


def test_gap_survey_reports_a_timeout_as_unknown():
    done = run_script("gap_survey.py", "--timeout", "0")
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr and "prediction mismatch" not in done.stderr
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == 18 and all(" UNKNOWN " in row and row.endswith(" -") for row in rows)
    instances = [row.split()[0] for row in rows]
    assert done.stderr.splitlines() == [f"unknown at: {instances}"]


def test_growth_table_runs_to_r_seven():
    done = run_script("growth_table.py", "--r", "3", "4", "5", "6", "7", "--format", "json")
    assert done.returncode == 0, done.stderr
    reports = json.loads(done.stdout)
    assert [rep["r"] for rep in reports] == [3, 4, 5, 6, 7]
    assert all(rep["prediction_match"] is True for rep in reports)
    assert [rep["gap"] for rep in reports] == [1, 2, 3, 4, 5]


def test_growth_table_reports_an_unknown_row_with_exit_three():
    # At r = 8 the tree has 2,978,547 8-matchings, over the certification cap.
    done = run_script("growth_table.py", "--r", "7", "8")
    assert done.returncode == 3
    assert done.stderr.splitlines() == ["unknown at: ['tree(r=8,theta=1)']"]
    assert [row.split()[-1] for row in done.stdout.splitlines()[1:]] == ["yes", "-"]


@pytest.mark.parametrize(
    "name, flag, value, bound",
    [
        ("growth_table.py", "--r", "2", 3),
        ("growth_table.py", "--theta", "0", 1),
        ("gap_survey.py", "--max-r", "2", 3),
        ("gap_survey.py", "--max-theta", "0", 1),
    ],
)
def test_an_out_of_range_flag_is_a_usage_error(name, flag, value, bound):
    done = run_script(name, flag, value)
    assert done.returncode == 2
    assert f"argument {flag}: must be at least {bound}, got {value}" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("grid", sorted(set(THEOREM2_GRID) | set(SURVEY_GRID)))
def test_matching_count_closed_form_agrees_with_enumeration(grid):
    params = FamilyParams(*grid)
    blocks = enumerated_blocks(gap_graph(params), params.r)
    assert gap_matching_count(params) == sum(map(len, blocks))


@pytest.mark.parametrize(
    "grid, count", [((5, 3, 1), 546_661), ((5, 3, 2), 232_421), ((7, 1, 5), 221_166)]
)
def test_large_instances_certify_under_the_default_cap(grid, count):
    # (7, 1, 5) is gap_tree(7, 1), the r = 7 row of growth_table.py.
    params = FamilyParams(*grid)
    assert gap_matching_count(params) == count
    certification = certify_family(params)
    assert certification.n_matchings == count
    assert certification.pairs_checked == count * (count - 1) // 2
    assert certification.chi_certificate.k == params.theta


def test_tracer_aliases_resolve_on_the_package():
    # perfbench/spans.py swaps these module attributes for timing wrappers,
    # so a name the package stops binding breaks ``run.py --trace 1``.
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.INNER_CALLS
    for module, attr, span, _ in spans.INNER_CALLS:
        target = getattr(importlib.import_module(f"matchkneser.{module}"), attr, None)
        assert callable(target), f"matchkneser.{module}.{attr}, traced as {span}, is gone"


def test_benchmark_entry_points_resolve_on_the_package():
    # perfbench/run.py calls each layer through ENTRY_CALLS, and
    # perfbench/workloads.py reads ``mk.<module>.<attr>`` directly; read
    # both from their source, so that neither file is executed.
    run_tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (entry_calls,) = [
        ast.literal_eval(node.value)
        for node in run_tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_CALLS"]
    ]
    assert entry_calls
    reads = {(module, attr) for attr, (module, _) in entry_calls.items()}
    workloads_tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    workload_reads = {
        (node.value.attr, node.attr)
        for node in ast.walk(workloads_tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "mk"
    }
    assert {("families", "FamilyParams"), ("graphs", "make_graph"), ("report", "assemble_report")} <= workload_reads
    for module, attr in sorted(reads | workload_reads):
        target = getattr(importlib.import_module(f"matchkneser.{module}"), attr, None)
        assert callable(target), f"matchkneser.{module}.{attr}, called by perfbench/, is gone"
    # Each keyword workloads.py passes, to an ``L.<attr>`` entry call or to
    # ``mk.<module>.<attr>``, is a parameter of the function it reaches: a
    # dropped one fails every operation of its workload, not a test.
    keywords = set()
    for node in ast.walk(workloads_tree):
        func = node.func if isinstance(node, ast.Call) else None
        if not isinstance(func, ast.Attribute):
            continue
        if isinstance(func.value, ast.Name) and func.value.id == "L":
            module = entry_calls[func.attr][0]
        elif isinstance(func.value, ast.Attribute) and getattr(func.value.value, "id", None) == "mk":
            module = func.value.attr
        else:
            continue
        keywords.update((module, func.attr, kw.arg) for kw in node.keywords)
    assert {("homcert", "certify_family", "time_budget"), ("turan", "min_deletion_set", "time_budget")} <= keywords
    assert len({kw for kw in keywords if kw[1] == "assemble_report"}) == 7
    for module, attr, keyword in sorted(keywords):
        target = getattr(importlib.import_module(f"matchkneser.{module}"), attr)
        assert keyword in inspect.signature(target).parameters, f"perfbench/ passes {keyword}= to {module}.{attr}"


def test_readme_library_block_runs_as_its_comments_say():
    block = readme_library_block()
    checks = (
        'assert (rep.removal_bound, rep.chi, rep.verdict) == (3, 1, "VIOLATED")\n'
        "assert cert.chi_certificate.k == 3\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", block + checks], capture_output=True, text=True, env=env, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["gap_survey.py", "growth_table.py"])
def test_nan_timeout_is_a_usage_error(name):
    done = run_script(name, "--timeout", "nan")
    assert done.returncode == 2
    assert "'nan' is not a number of seconds" in done.stderr
