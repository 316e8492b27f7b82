"""The repository's pytest settings let a failing Hypothesis test fail like any other.

Reporting a Hypothesis failure imports hypothesis.extra._patching, whose
dependencies warn on import; under `filterwarnings = error` that warning
ended the whole session with an INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    ini = ["[pytest]"]
    for key, value in options.items():
        ini += [f"{key} ="] + [f"    {v}" for v in (value if isinstance(value, list) else [value])]
    (tmp_path / "pytest.ini").write_text("\n".join(ini) + "\n")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "."],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
