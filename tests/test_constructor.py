import random
from array import array
from itertools import chain, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leaper_cycles import constructor, core
from leaper_cycles.constructor import (
    CycleCertificate,
    Feasibility,
    base_cycle,
    construct,
    feasibility,
    lift,
)
from leaper_cycles.core import HARD_MAX_K, MAX_K_ENV, CapacityError, VertexPath, lane_typecode
from leaper_cycles.graycode import gray_tour
from leaper_cycles.verifier import verify_cycle

from reference_tours import DIM4_STEP3_TOUR, DIM5_STEP3_TOUR, rows_of


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
        assert rows_of(cert.path) == DIM4_STEP3_TOUR

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
        assert rows_of(cert.path) == DIM5_STEP3_TOUR

    def test_bridge_edge(self):
        cert = lift(base_cycle(3))
        tuples = rows_of(cert.path)
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
        assert rows_of(cert.path) == DIM5_STEP3_TOUR
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
        # One checker sees every code once and finishes once; the whole
        # path is not verified again.
        checkers, fed, finished = [], [], []

        class Counting(constructor.CycleChecker):
            def __init__(self, k, h):
                checkers.append((k, h))
                super().__init__(k, h)

            def feed(self, codes):
                fed.append(len(codes))
                super().feed(codes)

            def finish(self):
                finished.append(True)
                return super().finish()

        def never(path, h):
            raise AssertionError("construct verified the whole path again")

        monkeypatch.setattr(constructor, "CycleChecker", Counting)
        monkeypatch.setattr(constructor, "verify_cycle", never)
        assert isinstance(construct(10, 3), CycleCertificate)
        assert checkers == [(10, 3)]
        assert sum(fed) == 1024
        assert finished == [True]

    def test_every_chunk_passes_the_packed_check(self, monkeypatch):
        # A valid chunk never reaches the code-by-code loops, which are
        # kept for chunks at fault, and names no step fault.
        def never(*args):
            raise AssertionError("a constructed chunk was checked code by code")

        add_steps = constructor.CycleChecker._add_steps

        def no_step_fault(checker, faults):
            assert not faults, "a constructed chunk named a step fault"
            add_steps(checker, faults)

        monkeypatch.setattr(constructor.CycleChecker, "_scan", never)
        monkeypatch.setattr(constructor.CycleChecker, "_add_steps", no_step_fault)
        for piece in (1 << 3, 1 << 12):
            monkeypatch.setattr(core, "PIECE_CODES", piece)
            for k in range(2, 13):
                for h in range(1, k, 2):
                    assert isinstance(construct(k, h), CycleCertificate), (k, h)

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


# The closed form and the proof that it is a cycle. _code(h, .) is linear
# over GF(2), so it is the matrix L whose column i is _code(h, 2**i), and
# _code_chunks leans on that to build every chunk from the first.

FEASIBLE = [(k, h) for k in range(2, HARD_MAX_K + 1) for h in range(1, k, 2)]


@given(st.sampled_from(range(1, HARD_MAX_K, 2)), st.integers(0, 1 << 70), st.integers(0, 1 << 70))
def test_code_is_linear(h, x, y):
    assert constructor._code(h, x ^ y) == constructor._code(h, x) ^ constructor._code(h, y)
    assert constructor._code(h, 0) == 0


@pytest.mark.parametrize("chunk", [1, 1 << 3, 1 << 16])
def test_chunks_hold_the_code_of_every_index(chunk, monkeypatch):
    monkeypatch.setattr(core, "PIECE_CODES", chunk)
    for k in [*range(2, 13), 16]:
        for h in range(1, k, 2) if k <= 12 else (1, 5, 15):
            chunks = list(constructor._code_chunks(k, h))
            assert {chunk.typecode for chunk in chunks} == {lane_typecode(k)}
            codes = tuple(chain.from_iterable(chunks))
            assert codes == tuple(constructor._code(h, j) for j in range(1 << k)), (k, h)


@pytest.mark.parametrize("k", [32, 33, 63, 64])
def test_first_chunks_fill_lanes_of_any_width(k, monkeypatch):
    # Codes past 32 bits need 64-bit lanes; the first chunks stand for all.
    monkeypatch.setattr(core, "PIECE_CODES", 1 << 4)
    for h in (1, 5, k - 1 - k % 2):
        chunks = list(islice(constructor._code_chunks(k, h), 3))
        assert all(c.typecode == lane_typecode(k) and 8 * array(c.typecode).itemsize >= k for c in chunks)
        codes = tuple(chain.from_iterable(chunks))
        assert codes == tuple(constructor._code(h, j) for j in range(48)), (k, h)


def gf2_rank(vectors):
    pivots = {}
    for v in vectors:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def proves_a_cycle(k, h):
    """Whether _code(h, .) on [0, 2**k) is a change-h Hamiltonian cycle.

    L has k columns below 2**k and rank k exactly when j -> L j is a
    bijection of [0, 2**k): no code repeats and none overflows. The step
    from j to j+1 flips L (j ^ (j+1)) = L (2**(t+1) - 1), t being the
    number of trailing ones of j; t = k-1 is also the closing edge, from
    2**k - 1 back to 0. So every step flips h coordinates exactly when
    these k values each have h bits set.
    """
    columns = [constructor._code(h, 1 << i) for i in range(k)]
    steps = [constructor._code(h, (1 << (t + 1)) - 1) for t in range(k)]
    return (
        max(columns) >> k == 0
        and gf2_rank(columns) == k
        and all(step.bit_count() == h for step in steps)
    )


def test_the_closed_form_is_a_cycle_for_every_admitted_pair():
    assert len(FEASIBLE) == 1024
    assert [pair for pair in FEASIBLE if not proves_a_cycle(*pair)] == []


def test_the_proof_agrees_with_the_verifier():
    for k in range(2, 11):
        for h in range(1, k + 2):
            path = VertexPath(k, tuple(constructor._code(h, j) for j in range(1 << k)))
            assert proves_a_cycle(k, h) == verify_cycle(path, h).valid, (k, h)
