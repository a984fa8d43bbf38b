"""CLI driver: subcommands, formats, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from inspect import signature
from pathlib import Path

import pytest

import matchkneser
from matchkneser import certify_family, make_graph, write_edgelist
from matchkneser.cli import EXIT_FAILED, EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, build_parser, main
from matchkneser.homcert import CERTIFY_MATCHING_CAP
from matchkneser.kneser import DEFAULT_MATCHING_CAP


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    write_edgelist(make_graph(3, [(0, 1), (1, 2), (0, 2)]), path)
    return path


@pytest.fixture
def petersen_file(tmp_path):
    from matchkneser import petersen

    path = tmp_path / "petersen.edges"
    write_edgelist(petersen(), path)
    return path


def test_verify_petersen(capsys):
    assert main(["verify", "petersen"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "=> VERIFIED" in out
    assert "chi = 1" in out or "edgeless" in out


def test_verify_rejects_unknown_target(capsys):
    assert main(["verify", "nonsense"]) == EXIT_USAGE


def test_gen_matching_to_stdout(capsys):
    assert main(["gen", "--family", "matching", "--l", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "6 3"


def test_gen_tree_round_trip(tmp_path, capsys):
    out_path = tmp_path / "tree.edges"
    assert main(["gen", "--family", "tree", "--r", "3", "--theta", "1", "--out", str(out_path)]) == EXIT_OK
    text = out_path.read_text()
    assert text.startswith("# roles:")
    assert "13 12" in text


def test_gen_gap_requires_parameters(capsys):
    assert main(["gen", "--family", "gap", "--r", "3", "--theta", "1"]) == EXIT_USAGE
    assert "--gamma is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, unread",
    [
        (["--family", "petersen", "--l", "5", "--theta", "9"], "--l, --theta"),
        (["--family", "matching", "--l", "3", "--r", "2"], "--r"),
        (["--family", "tree", "--r", "3", "--theta", "1", "--gamma", "1"], "--gamma"),
    ],
)
def test_gen_flag_the_family_does_not_read_is_usage_error(args, unread, capsys):
    assert main(["gen", *args]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --family {args[1]} does not read {unread}\n"


def test_gen_rejects_invalid_parameters(capsys):
    code = main(["gen", "--family", "gap", "--r", "2", "--theta", "1", "--gamma", "1"])
    assert code == EXIT_USAGE
    assert "r >= 3" in capsys.readouterr().err


def test_chi_text_and_json(k3_file, capsys):
    assert main(["chi", "--in", str(k3_file)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "chi = 3 (witness CLIQUE)"
    assert main(["chi", "--in", str(k3_file), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 3


def test_chi_missing_file(capsys):
    assert main(["chi", "--in", "/no/such/file"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_chi_on_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "utf16.edges"
    path.write_bytes(b"\xff\xfe3\x00 \x000\x00")
    assert main(["chi", "--in", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family, params", [
    ("matching", ["--l", "4"]),
    ("gap", ["--r", "3", "--theta", "2", "--gamma", "1"]),
    ("tree", ["--r", "3", "--theta", "2"]),
    ("petersen", []),
])
def test_gen_stdout_equals_the_out_file(family, params, tmp_path, capsys):
    assert main(["gen", "--family", family, *params]) == EXIT_OK
    stdout = capsys.readouterr().out
    path = tmp_path / "g.edges"
    assert main(["gen", "--family", family, *params, "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"wrote {path} ")
    assert path.read_text() == stdout


@pytest.mark.parametrize("args, written", [
    (["chi", "--in", "IN"], "OUT"),
    (["turan", "--in", "IN", "--r", "4"], "OUT"),
    (["gap", "--in", "IN", "--r", "4"], "OUT"),
    (["certify", "--r", "3", "--theta", "2", "--gamma", "1"], "OUT.json"),
])
def test_out_json_equals_json_stdout(args, written, petersen_file, tmp_path, capsys):
    out = tmp_path / "result"
    args = [str(petersen_file) if a == "IN" else a for a in args]
    assert main([*args, "--format", "json", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert json.loads(stdout)
    assert Path(written.replace("OUT", str(out))).read_text() == stdout


def test_turan_text(petersen_file, capsys):
    assert main(["turan", "--in", str(petersen_file), "--r", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "removal = 3 (optimal)" in out
    assert "ex = 12" in out
    assert "(0,1) (0,4) (0,5)" in out


def test_turan_solves_a_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    host = tmp_path / "1200k2.edges"
    assert main(["gen", "--family", "matching", "--l", "1200", "--out", str(host)]) == EXIT_OK
    assert main(["turan", "--in", str(host), "--r", "2"]) == EXIT_OK
    assert "removal = 1199 (optimal)" in capsys.readouterr().out


def test_gap_json(petersen_file, capsys):
    assert main(["gap", "--in", str(petersen_file), "--r", "5", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["verdict"] == "VIOLATED"
    assert payload[0]["removal_bound"] == 3 and payload[0]["chi"] == 1


def test_gap_unknown_exit_code(petersen_file, capsys):
    code = main(["gap", "--in", str(petersen_file), "--r", "5", "--kneser-cap", "1"])
    assert code == EXIT_UNKNOWN
    capsys.readouterr()


def test_kneser_cap_defaults():
    # certify stores matchings but never builds the Kneser graph; kneser and
    # gap build it and keep the smaller cap.
    parser = build_parser()
    cert = parser.parse_args(["certify", "--r", "3", "--theta", "1", "--gamma", "1"])
    assert cert.kneser_cap == CERTIFY_MATCHING_CAP == 1_000_000
    assert signature(certify_family).parameters["cap"].default == CERTIFY_MATCHING_CAP
    for argv in (["gap", "--in", "g.edges", "--r", "3"], ["kneser", "--in", "g.edges", "--r", "3", "--out", "k"]):
        assert parser.parse_args(argv).kneser_cap == DEFAULT_MATCHING_CAP == 200_000


def test_negative_kneser_cap_is_usage_error(petersen_file, capsys):
    assert main(["gap", "--in", str(petersen_file), "--r", "5", "--kneser-cap", "-1"]) == EXIT_USAGE
    assert "--kneser-cap" in capsys.readouterr().err
    assert main(["gap", "--in", str(petersen_file), "--r", "5", "--kneser-cap", "0"]) == EXIT_UNKNOWN
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--family", "petersen", "--format", "json"],
        ["gen", "--family", "petersen", "--timeout", "5"],
        ["gen", "--family", "petersen", "--kneser-cap", "5"],
        ["kneser", "--in", "g.edges", "--r", "5", "--out", "g", "--format", "json"],
        ["kneser", "--in", "g.edges", "--r", "5", "--out", "g", "--theta", "5"],
        ["chi", "--in", "g.edges", "--kneser-cap", "5"],
        ["turan", "--in", "g.edges", "--r", "5", "--kneser-cap", "5"],
        ["verify", "petersen", "--kneser-cap", "5"],
    ],
)
def test_flag_the_subcommand_does_not_read_is_usage_error(args, capsys):
    assert main(args) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_kneser_files(petersen_file, tmp_path, capsys):
    base = tmp_path / "pmkg"
    assert main(["kneser", "--in", str(petersen_file), "--r", "5", "--out", str(base)]) == EXIT_OK
    edges = (tmp_path / "pmkg.edges").read_text()
    assert edges.splitlines()[0] == "6 0"
    sidecar = (tmp_path / "pmkg.matchings").read_text()
    assert len(sidecar.splitlines()) == 6


def test_kneser_with_no_r_matching_writes_an_empty_sidecar(petersen_file, tmp_path, capsys):
    base = tmp_path / "none"
    assert main(["kneser", "--in", str(petersen_file), "--r", "20", "--out", str(base)]) == EXIT_OK
    assert (tmp_path / "none.edges").read_text() == "0 0\n"
    assert (tmp_path / "none.matchings").read_text() == ""


def test_kneser_row_budget_is_a_usage_error(tmp_path, monkeypatch, capsys):
    host = tmp_path / "7k2.edges"
    assert main(["gen", "--family", "matching", "--l", "7", "--out", str(host)]) == EXIT_OK
    monkeypatch.setattr("matchkneser.kneser.KNESER_ROW_BYTES", 0)
    code = main(["kneser", "--in", str(host), "--r", "3", "--out", str(tmp_path / "mkg")])
    assert code == EXIT_USAGE
    assert "bytes of adjacency rows" in capsys.readouterr().err
    assert not (tmp_path / "mkg.edges").exists()


def test_certify_writes_witnesses(tmp_path, capsys):
    base = tmp_path / "cert"
    code = main(
        ["certify", "--r", "3", "--theta", "2", "--gamma", "1", "--out", str(base)]
    )
    assert code == EXIT_OK
    assert "certified chi = 2" in capsys.readouterr().out
    report = json.loads((tmp_path / "cert.json").read_text())
    assert report[0]["chi"] == 2 and report[0]["removal_bound"] == 3
    assert (tmp_path / "cert.forward.txt").read_text().splitlines()
    assert (tmp_path / "cert.backward.txt").read_text().splitlines()


def test_certify_over_cap_is_refused_by_the_closed_form_count(capsys):
    assert main(["certify", "--r", "3", "--theta", "3", "--gamma", "1", "--kneser-cap", "5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gap graph (r=3, theta=3, gamma=1) has 190 r-matchings, more than the cap of 5\n"


def test_timeout_exit_code(petersen_file, capsys):
    assert main(["chi", "--in", str(petersen_file), "--timeout", "-1"]) == EXIT_UNKNOWN
    assert capsys.readouterr().err == (
        "timeout: k-coloring search exceeded time budget of -1.0 s while searching for a 2-coloring;"
        " chi >= 2 is proven (greedy clique of 2)\n"
    )


def test_nan_timeout_is_usage_error(petersen_file, capsys):
    assert main(["chi", "--in", str(petersen_file), "--timeout", "nan"]) == EXIT_USAGE
    assert "'nan' is not a number of seconds" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["petersen", "corollary"])
def test_verify_with_no_time_is_unknown_not_failed(target, capsys):
    # The deletion search returns a non-optimal set; that is no answer.
    assert main(["verify", target, "--timeout", "0"]) == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert "=> UNKNOWN" in out and "=> FAILED" not in out


def test_timeout_from_environment(petersen_file, monkeypatch, capsys):
    monkeypatch.setenv("MATCHKNESER_TIMEOUT", "-1")
    assert main(["chi", "--in", str(petersen_file)]) == EXIT_UNKNOWN
    assert "timeout" in capsys.readouterr().err


def test_kneser_timeout(petersen_file, tmp_path, monkeypatch, capsys):
    base = str(tmp_path / "pmkg")
    assert main(["kneser", "--in", str(petersen_file), "--r", "5", "--out", base, "--timeout", "-1"]) == EXIT_UNKNOWN
    assert "timeout: r-matching enumeration" in capsys.readouterr().err
    monkeypatch.setenv("MATCHKNESER_TIMEOUT", "-1")
    assert main(["kneser", "--in", str(petersen_file), "--r", "5", "--out", base]) == EXIT_UNKNOWN
    assert "timeout: r-matching enumeration" in capsys.readouterr().err
    assert not (tmp_path / "pmkg.edges").exists()
    monkeypatch.setenv("MATCHKNESER_TIMEOUT", "abc")
    assert main(["kneser", "--in", str(petersen_file), "--r", "5", "--out", base]) == EXIT_USAGE
    assert "MATCHKNESER_TIMEOUT" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "nan", ""])
def test_malformed_timeout_environment_is_usage_error(raw, monkeypatch, capsys):
    monkeypatch.setenv("MATCHKNESER_TIMEOUT", raw)
    assert main(["verify", "petersen"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "MATCHKNESER_TIMEOUT" in err


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["chi"]) == EXIT_USAGE
    capsys.readouterr()


def test_python_dash_m_runs_the_cli(capsys):
    assert main(["verify", "lovasz"]) == EXIT_OK
    expected = capsys.readouterr().out
    src = str(Path(matchkneser.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "matchkneser", "verify", "lovasz"],
        capture_output=True, env=env, timeout=300, check=False,
    )
    assert done.returncode == EXIT_OK
    assert done.stdout == expected.encode()


def test_outputs_are_reproducible(capsys):
    assert main(["verify", "lovasz"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify", "lovasz"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
