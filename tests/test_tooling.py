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


def test_the_body_reader_keeps_the_bytes_it_is_fed():
    # body_rows reads a body as the file's bytes; a decode or an encode in
    # it would be a second representation of the rows on the route.
    path = Path(leaper_cycles.__file__).parent / "body_rows.py"
    calls = [
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]
    assert calls and not {"decode", "encode", "decode_text"} & set(calls)


def test_only_the_document_makes_a_body_reader():
    # document._body_rows picks each body's separator, pieces and
    # translates; a BodyRows made anywhere else, in the package or its
    # tests, would read a body by other rules.
    package, tests = Path(leaper_cycles.__file__).parent, Path(__file__).resolve().parent
    made, maker = [], None
    for path in sorted([*package.glob("*.py"), *tests.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "BodyRows" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                made.append((path.name, node.lineno))
            elif isinstance(node, ast.FunctionDef) and node.name == "_body_rows":
                maker = range(node.lineno, node.end_lineno + 1)
    assert len(made) == 1 and made[0][0] == "document.py" and made[0][1] in maker


def test_the_oracle_imports_only_the_core():
    # The oracle is the ground truth the construction is checked against;
    # a package module it imports beside the vertex model could share the
    # fault it is there to find.
    path = Path(leaper_cycles.__file__).parent / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imported.update("." + name for name in names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            imported.update(name for name in modules if name.partition(".")[0] == "leaper_cycles")
    assert imported == {".core"}


def unused_imports(source):
    """The names ``source`` imports and never uses, but those in its
    ``__all__`` and those on a line marked ``# noqa: F401``. A name used
    only in a quoted annotation counts as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in used}


def test_unused_imports_are_caught():
    source = (
        "from operator import not_, xor  # a comment\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Any  # noqa: F401\n"
        "from array import array\n"
        "__all__ = ['os']\n"
        "def f(a: 'array') -> int:\n"
        "    return xor(a, 1)\n"
    )
    assert unused_imports(source) == {"not_": 1}


def test_every_import_of_the_package_is_used():
    # No linter runs here; this keeps an import whose last use went from
    # staying behind.
    found = {}
    for path in sorted(Path(leaper_cycles.__file__).parent.glob("*.py")):
        for name, line in unused_imports(path.read_text()).items():
            found[f"{path.name}:{line}"] = name
    assert found == {}
