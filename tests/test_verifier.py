import ast
import inspect
import random

import pytest

import leaper_cycles.verifier
from leaper_cycles.core import VertexPath
from leaper_cycles.graycode import gray_tour
from leaper_cycles.verifier import (
    DIMENSION_OVERFLOW,
    DUPLICATE_VERTEX,
    OPEN_ENDPOINTS,
    WRONG_LENGTH,
    WRONG_STEP,
    verify_cycle,
)

from reference_tours import DIM5_STEP3_TOUR, path_of


def kinds(report):
    return {violation.kind for violation in report.violations}


def test_reference_change3_cycle_is_valid():
    path = path_of(DIM5_STEP3_TOUR)
    report = verify_cycle(path, 3)
    assert report.valid
    assert report.violations == ()


def test_unit_tour_is_valid():
    assert verify_cycle(gray_tour(3), 1).valid


def test_duplicate_and_wrong_step_located():
    codes = list(gray_tour(3).codes)
    codes[5] = codes[2]  # deliberate corruption
    report = verify_cycle(VertexPath(3, tuple(codes)), 1)
    assert not report.valid
    assert (DUPLICATE_VERTEX, 5) in [(v.kind, v.where) for v in report.violations]
    assert WRONG_STEP in kinds(report)


def test_wrong_length_reports_actual_length():
    report = verify_cycle(VertexPath(3, gray_tour(3).codes[:5]), 1)
    assert (WRONG_LENGTH, 5) in [(v.kind, v.where) for v in report.violations]


def test_dimension_overflow_located():
    codes = list(gray_tour(2).codes)
    codes[1] = 9
    report = verify_cycle(VertexPath(2, tuple(codes)), 1)
    assert (DIMENSION_OVERFLOW, 1) in [(v.kind, v.where) for v in report.violations]


def test_open_endpoints_and_wrong_step_pairs():
    report = verify_cycle(VertexPath(2, (0, 1, 2, 3)), 1)
    assert (WRONG_STEP, (1, 2)) in [(v.kind, v.where) for v in report.violations]
    assert (OPEN_ENDPOINTS, (3, 0)) in [(v.kind, v.where) for v in report.violations]


def test_valid_iff_no_violations():
    good = verify_cycle(gray_tour(2), 1)
    bad = verify_cycle(VertexPath(2, (0, 1, 2, 3)), 1)
    assert good.valid == (not good.violations)
    assert bad.valid == (not bad.violations)


def test_wrong_step_everywhere_for_wrong_h():
    report = verify_cycle(gray_tour(2), 2)
    assert not report.valid
    assert len([v for v in report.violations if v.kind == WRONG_STEP]) == 3
    assert OPEN_ENDPOINTS in kinds(report)


def test_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        verify_cycle(gray_tour(2), 0)


def test_never_accepts_incomplete_vertex_sets():
    # right length, but one vertex repeated in place of a missing one
    codes = list(gray_tour(3).codes)
    codes[7] = codes[0]
    assert not verify_cycle(VertexPath(3, tuple(codes)), 1).valid


def test_verifier_shares_only_the_core_model():
    # The verifier must stay independent of the construction pipeline so a
    # construction bug cannot certify its own output.
    # Absolute imports of the package count too, not only relative ones.
    tree = ast.parse(inspect.getsource(leaper_cycles.verifier))
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        package_imports.update(
            n for n in names if n.startswith(".") or n.split(".")[0] == "leaper_cycles"
        )
    assert package_imports == {".core"}


def test_even_step_candidates_always_rejected():
    # Parity makes a valid even-h cycle impossible, so every candidate of
    # the right length must be rejected, whatever the generator does.
    rng = random.Random(0x5EED)
    for _ in range(10_000):
        k = rng.randint(3, 7)
        h = rng.randrange(2, k, 2)
        n = 1 << k
        if rng.random() < 0.5:
            codes = list(range(n))
            rng.shuffle(codes)
        else:
            codes = [rng.randrange(n) for _ in range(n)]
        assert not verify_cycle(VertexPath(k, tuple(codes)), h).valid
