import random

import pytest

from leaper_cycles import constructor
from leaper_cycles.constructor import (
    CycleCertificate,
    Feasibility,
    base_cycle,
    construct,
    feasibility,
    lift,
)
from leaper_cycles.core import CapacityError, MAX_K_ENV
from leaper_cycles.graycode import gray_tour
from leaper_cycles.verifier import verify_cycle

from reference_tours import DIM4_STEP3_TOUR, DIM5_STEP3_TOUR


def cycle_canonical_form(codes):
    """Smallest rotation of either direction; equal forms = same cycle."""
    variants = []
    for seq in (list(codes), list(reversed(codes))):
        for r in range(len(seq)):
            variants.append(tuple(seq[r:] + seq[:r]))
    return min(variants)


class TestFeasibility:
    def test_parity_obstruction(self):
        verdict = feasibility(5, 2)
        assert verdict.status is Feasibility.INFEASIBLE_PARITY
        assert "parity" in verdict.detail

    def test_range_obstruction(self):
        verdict = feasibility(3, 3)
        assert verdict.status is Feasibility.INFEASIBLE_RANGE

    def test_dimension_obstruction(self):
        assert feasibility(1, 1).status is Feasibility.INFEASIBLE_DIMENSION

    def test_feasible(self):
        verdict = feasibility(5, 3)
        assert verdict.status is Feasibility.FEASIBLE
        assert verdict.feasible

    def test_characterization_formula(self):
        for k in range(1, 9):
            for h in range(1, 10):
                expected = h % 2 == 1 and 1 <= h <= k - 1 and k >= 2
                assert feasibility(k, h).feasible == expected, (k, h)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            feasibility(0, 1)
        with pytest.raises(ValueError):
            feasibility(3, 0)


class TestBaseCycle:
    def test_change1_base_is_the_unit_square(self):
        cert = base_cycle(1)
        assert cert.path.k == 2 and cert.h == 1
        assert cert.path.codes == gray_tour(2).codes

    def test_change3_base_matches_reference(self):
        cert = base_cycle(3)
        assert cert.path.k == 4
        assert cert.path.to_tuples() == DIM4_STEP3_TOUR

    def test_change5_base_verifies(self):
        cert = base_cycle(5)
        assert cert.path.k == 6 and len(cert.path) == 64
        assert verify_cycle(cert.path, 5).valid

    def test_rejects_even_step(self):
        with pytest.raises(ValueError):
            base_cycle(2)


class TestLift:
    def test_lift_of_change3_base_matches_reference(self):
        cert = lift(base_cycle(3))
        assert cert.path.k == 5
        assert cert.path.to_tuples() == DIM5_STEP3_TOUR

    def test_bridge_edge(self):
        cert = lift(base_cycle(3))
        tuples = cert.path.to_tuples()
        assert tuples[15] == (1, 1, 1, 0, 0)
        assert tuples[16] == (0, 0, 1, 0, 1)
        assert (cert.path.codes[15] ^ cert.path.codes[16]).bit_count() == 3

    def test_lift_of_unit_square_is_the_dim3_tour_up_to_symmetry(self):
        lifted = lift(base_cycle(1))
        assert cycle_canonical_form(lifted.path.codes) == cycle_canonical_form(
            gray_tour(3).codes
        )

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv(MAX_K_ENV, "5")
        cert = construct(5, 3)
        with pytest.raises(CapacityError):
            lift(cert)


class TestConstruct:
    def test_golden_change3_dim5(self):
        cert = construct(5, 3)
        assert isinstance(cert, CycleCertificate)
        assert cert.path.to_tuples() == DIM5_STEP3_TOUR
        assert (cert.path.codes[-1] ^ cert.path.codes[0]).bit_count() == 3

    def test_infeasible_returns_verdict(self):
        verdict = construct(4, 2)
        assert verdict.status is Feasibility.INFEASIBLE_PARITY

    def test_change9_dim10(self):
        cert = construct(10, 9)
        assert len(cert.path) == 1024
        assert verify_cycle(cert.path, 9).valid

    def test_change1_uses_the_unit_tour(self):
        cert = construct(6, 1)
        assert cert.path.codes == gray_tour(6).codes

    def test_matches_base_cycle_plus_lifting(self):
        for h in range(1, 14, 2):
            reference = base_cycle(h)
            for k in range(h + 1, 15):
                assert construct(k, h).path.codes == reference.path.codes, (k, h)
                reference = lift(reference)

    def test_verifies_once(self, monkeypatch):
        calls = []

        def counting(path, h):
            calls.append(len(path))
            return verify_cycle(path, h)

        monkeypatch.setattr(constructor, "verify_cycle", counting)
        assert isinstance(construct(10, 3), CycleCertificate)
        assert calls == [1024]

    def test_deterministic(self):
        assert construct(9, 5).path.codes == construct(9, 5).path.codes

    def test_soundness_sweep(self):
        for k in range(2, 11):
            for h in range(1, k, 2):
                cert = construct(k, h)
                assert isinstance(cert, CycleCertificate), (k, h)
                report = verify_cycle(cert.path, h)
                assert report.valid, (k, h, report.violations[:3])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            construct(5, 0)

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv(MAX_K_ENV, "6")
        with pytest.raises(CapacityError):
            construct(7, 3)


def test_even_changes_preserve_parity_on_random_walks():
    rng = random.Random(1789)
    for _ in range(20):
        k = rng.randint(3, 12)
        h = rng.randrange(2, k, 2)
        positions = list(range(k))
        v = rng.randrange(1 << k)
        start_parity = v.bit_count() % 2
        for _ in range(1000):
            flips = rng.sample(positions, h)
            for p in flips:
                v ^= 1 << p
            assert v.bit_count() % 2 == start_parity
