"""The suite's own settings, run on sample tests in a subprocess."""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import leaper_cycles

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


def test_only_core_knows_the_host_byte_order():
    # core.pack and core.unpack are the one lane layout; a module that
    # reads sys.byteorder or byteswaps lanes itself has a second one.
    found = {}
    for path in sorted(Path(leaper_cycles.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("byteorder", "byteswap"):
                found.setdefault(node.attr, set()).add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                if any(alias.name == "byteorder" for alias in node.names):
                    found.setdefault("byteorder", set()).add(path.name)
    assert found == {"byteorder": {"core.py"}, "byteswap": {"core.py"}}
