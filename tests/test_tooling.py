"""The suite's own settings, run on sample tests in a subprocess."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_suite(tmp_path):
    # Hypothesis's failure report imports a module that warns as it loads;
    # under warnings-as-errors that warning once ended the run with an
    # internal error, exit 3, before the next test ran.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_scratch.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
