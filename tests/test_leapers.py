import pytest

from leaper_cycles.constructor import CycleCertificate, Feasibility, construct, feasibility
from leaper_cycles.leapers import (
    CATALOG,
    LeaperSpec,
    UnknownLeaperError,
    leaper_by_name,
    leaper_feasible,
    leaper_step,
    min_dimension,
)
from leaper_cycles.verifier import verify_cycle

EXPECTED_CATALOG = {
    "wazir": (0, 1),
    "ferz": (1, 1),
    "dabbaba": (0, 2),
    "knight": (1, 2),
    "alfil": (2, 2),
    "threeleaper": (0, 3),
    "camel": (1, 3),
    "zebra": (2, 3),
    "tripper": (3, 3),
    "fourleaper": (0, 4),
    "giraffe": (1, 4),
    "stag": (2, 4),
    "antelope": (3, 4),
    "commuter": (4, 4),
}


def test_catalog_contents():
    assert CATALOG == EXPECTED_CATALOG


@pytest.mark.parametrize("name,pair", sorted(EXPECTED_CATALOG.items()))
def test_lookup_by_name(name, pair):
    spec = leaper_by_name(name)
    assert (spec.a, spec.b) == pair
    assert spec.name == name


def test_lookup_is_case_insensitive():
    assert leaper_by_name("Knight") == leaper_by_name("knight")
    assert leaper_by_name("  ZEBRA ").name == "zebra"


def test_unknown_name_lists_catalog():
    with pytest.raises(UnknownLeaperError) as exc:
        leaper_by_name("rook")
    assert "wazir" in str(exc.value) and "commuter" in str(exc.value)


@pytest.mark.parametrize(
    "name,step", [("knight", 5), ("wazir", 1), ("zebra", 13), ("commuter", 32)]
)
def test_steps(name, step):
    assert leaper_step(leaper_by_name(name)) == step


@pytest.mark.parametrize(
    "name,k_min",
    [
        ("wazir", 2),
        ("knight", 6),
        ("threeleaper", 10),
        ("zebra", 14),
        ("giraffe", 18),
        ("antelope", 26),
        ("ferz", None),
        ("dabbaba", None),
        ("alfil", None),
        ("camel", None),
        ("tripper", None),
        ("fourleaper", None),
        ("stag", None),
        ("commuter", None),
    ],
)
def test_min_dimension(name, k_min):
    assert min_dimension(leaper_by_name(name)) == k_min


class TestFeasible:
    def test_knight_boundary(self):
        knight = leaper_by_name("knight")
        assert leaper_feasible(knight, 6).feasible
        assert leaper_feasible(knight, 5).status is Feasibility.INFEASIBLE_RANGE

    def test_threeleaper_at_ten(self):
        assert leaper_feasible(leaper_by_name("threeleaper"), 10).feasible

    def test_parity_blocked_regardless_of_k(self):
        alfil = leaper_by_name("alfil")
        for k in (2, 5, 9, 30):
            assert leaper_feasible(alfil, k).status is Feasibility.INFEASIBLE_PARITY
        assert leaper_feasible(alfil, 5).detail == (
            "alfil (a=2, b=2) can never tour: a+b is even, so every leap "
            "preserves vertex parity"
        )

    def test_tiny_dimension(self):
        assert (
            leaper_feasible(leaper_by_name("wazir"), 1).status
            is Feasibility.INFEASIBLE_DIMENSION
        )

    def test_matches_plain_feasibility_for_odd_leapers(self):
        for name, (a, b) in EXPECTED_CATALOG.items():
            if (a + b) % 2 == 0:
                continue
            spec = leaper_by_name(name)
            h = leaper_step(spec)
            for k in range(2, 21):
                assert leaper_feasible(spec, k).status is feasibility(k, h).status

    def test_matches_plain_feasibility_for_even_leapers_past_range(self):
        # With a+b even both verdicts are parity once k exceeds the step;
        # below that the leaper layer reports the permanent obstruction.
        for name, (a, b) in EXPECTED_CATALOG.items():
            if (a + b) % 2 == 1:
                continue
            spec = leaper_by_name(name)
            h = leaper_step(spec)
            for k in range(h + 1, min(h + 5, 21)):
                assert leaper_feasible(spec, k).status is feasibility(k, h).status


@pytest.mark.parametrize("name", ["wazir", "knight", "threeleaper", "zebra", "giraffe"])
def test_construct_at_minimum_dimension(name):
    spec = leaper_by_name(name)
    h = leaper_step(spec)
    k_min = min_dimension(spec)
    cert = construct(k_min, h)
    assert isinstance(cert, CycleCertificate)
    assert verify_cycle(cert.path, h).valid
    below = construct(k_min - 1, h) if k_min > 1 else None
    assert not isinstance(below, CycleCertificate)


class TestSpecValidation:
    def test_rejects_a_greater_than_b(self):
        with pytest.raises(ValueError):
            LeaperSpec(3, 2)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError):
            LeaperSpec(0, 0)

    def test_unnamed_pairs_are_fine(self):
        spec = LeaperSpec(1, 2)
        assert leaper_step(spec) == 5
        assert spec.label() == "(a=1, b=2)"

    def test_equal_components_allowed_but_never_tour(self):
        spec = LeaperSpec(2, 2)
        assert min_dimension(spec) is None
