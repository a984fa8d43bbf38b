"""Importing the package loads none of the heavy standard-library modules it does not need.

Records are built without ``dataclasses`` (whose import pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``), and ``json`` is imported
where JSON is written. The check is on the modules loaded, not on time, so
it does not depend on the machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def modules_loaded_by(module, candidates):
    """Which of ``candidates`` a fresh interpreter loads to import ``module``."""
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        f"print(' '.join(m for m in {candidates!r} if m in sys.modules and m not in before))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return done.stdout.split()


@pytest.mark.parametrize(
    "module, absent",
    [
        ("matchkneser", ("dataclasses", "inspect", "ast", "dis", "json")),
        ("matchkneser.cli", ("dataclasses", "inspect")),
    ],
)
def test_import_skips_heavy_modules(module, absent):
    assert modules_loaded_by(module, absent) == []
