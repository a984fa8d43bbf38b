"""The pytest configuration in pyproject.toml: warnings are errors, and a failing test fails alone."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_GIVEN_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
'''


def test_a_failing_given_test_fails_alone(tmp_path):
    # On a failure hypothesis's pytest plugin imports libcst to write a
    # patch, and libcst imports mypy_extensions.TypedDict, which warns that
    # it is deprecated. Under filterwarnings = error that warning aborted
    # the whole session (exit 3, INTERNALERROR), and the tests after the
    # failing one never ran.
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN_TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
