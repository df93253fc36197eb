"""The package's acceptance gate: one test per criterion, all exact.

Each test prints a single PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to see them as a checklist). Everything asserted here is either a frozen
hand-checked sequence, an exhaustively derived value, or a cross-check
between two independent code paths.
"""

import random
from contextlib import contextmanager

from leaper_cycles.constructor import CycleCertificate, construct, feasibility
from leaper_cycles.core import VertexPath
from leaper_cycles.document import CycleDocument, parse_document, render_text
from leaper_cycles.graycode import gray_tour, reflect_extend
from leaper_cycles.leapers import leaper_by_name, leaper_feasible, leaper_step, min_dimension
from leaper_cycles.oracle import COUNT_K_MAX, ORACLE_K_MAX, oracle_count, oracle_exists
from leaper_cycles.transforms import (
    append_coordinate,
    complement_odd_indices,
    flip_prefix_path,
    reverse_path,
)
from leaper_cycles.verifier import verify_cycle

from reference_tours import (
    DIM4_STEP3_TOUR,
    DIM4_UNIT_TOUR,
    DIM5_STEP3_TOUR,
    STAGE_APPEND0,
    STAGE_APPEND1,
    STAGE_PREFIX_FLIPPED,
    STAGE_REVERSED,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {label}")
        raise
    print(f"ACCEPTANCE {number} PASS {label}")


def test_criterion_1_golden_reproduction():
    with criterion(1, "golden reproduction of the dimension-5 change-3 build"):
        unit4 = gray_tour(4)
        assert unit4.to_tuples() == DIM4_UNIT_TOUR

        step3 = complement_odd_indices(unit4)
        assert step3.to_tuples() == DIM4_STEP3_TOUR

        assert append_coordinate(step3, 0).to_tuples() == STAGE_APPEND0
        high = append_coordinate(step3, 1)
        assert high.to_tuples() == STAGE_APPEND1
        flipped = flip_prefix_path(high, 2)
        assert flipped.to_tuples() == STAGE_PREFIX_FLIPPED
        assert reverse_path(flipped).to_tuples() == STAGE_REVERSED

        cert = construct(5, 3)
        assert isinstance(cert, CycleCertificate)
        assert cert.path.to_tuples() == DIM5_STEP3_TOUR
        assert (cert.path.codes[-1] ^ cert.path.codes[0]).bit_count() == 3


def test_criterion_2_characterization_equivalence():
    with criterion(2, "oracle agrees with the odd-and-below-k characterization"):
        for k in range(2, 7):
            for h in range(1, 8):
                expected = h % 2 == 1 and h < k
                assert oracle_exists(k, h).exists == expected, (k, h)
                built = construct(k, h)
                assert isinstance(built, CycleCertificate) == expected, (k, h)


def test_criterion_3_constructor_soundness_at_scale():
    with criterion(3, "every odd h < k <= 14 constructs a verified cycle"):
        for k in range(2, 15):
            for h in range(1, k, 2):
                cert = construct(k, h)
                assert isinstance(cert, CycleCertificate), (k, h)
                assert len(cert.path) == 1 << k
                report = verify_cycle(cert.path, h)
                assert report.valid, (k, h, report.violations[:3])


def test_criterion_4_leaper_minimum_dimensions():
    with criterion(4, "threeleaper/zebra minimums and the knight boundary"):
        threeleaper = leaper_by_name("threeleaper")
        zebra = leaper_by_name("zebra")
        knight = leaper_by_name("knight")

        assert min_dimension(threeleaper) == 10
        assert min_dimension(zebra) == 14

        ten = construct(10, 9)
        assert isinstance(ten, CycleCertificate)
        assert verify_cycle(ten.path, 9).valid
        fourteen = construct(14, 13)
        assert isinstance(fourteen, CycleCertificate)
        assert verify_cycle(fourteen.path, 13).valid

        assert leaper_feasible(knight, 6).feasible
        assert not leaper_feasible(knight, 5).feasible
        assert oracle_exists(6, 5).exists is True
        assert oracle_exists(5, 5).exists is False


def test_criterion_5_parity_blocked_pieces():
    blocked = [
        "ferz", "dabbaba", "alfil", "camel",
        "tripper", "fourleaper", "stag", "commuter",
    ]
    with criterion(5, "even-sum leapers never tour and the oracle agrees"):
        for name in blocked:
            spec = leaper_by_name(name)
            assert (spec.a + spec.b) % 2 == 0
            assert min_dimension(spec) is None
            h = leaper_step(spec)
            k_test = min(h + 1, 6)
            assert not leaper_feasible(spec, k_test).feasible
            assert oracle_exists(k_test, h).exists is False, name


def test_criterion_6_property_suites():
    with criterion(6, "structural properties hold across their stated ranges"):
        # closed-form indexing vs the reflection recursion, k <= 16
        path = gray_tour(1)
        for k in range(2, 17):
            path = reflect_extend(path)
            assert path.codes == gray_tour(k).codes, k

        # parity alternation along every unit tour
        for k in range(1, 17):
            for j, code in enumerate(gray_tour(k).codes):
                assert code.bit_count() % 2 == j % 2

        # prefix flips preserve pairwise distances: 10^4 random trials
        rng = random.Random(20250817)
        for _ in range(10_000):
            k = rng.randint(1, 16)
            length = rng.randint(2, 24)
            codes = tuple(rng.randrange(1 << k) for _ in range(length))
            m = rng.randint(0, k)
            flipped = flip_prefix_path(VertexPath(k, codes), m)
            i = rng.randrange(length)
            j = rng.randrange(length)
            assert (codes[i] ^ codes[j]).bit_count() == (
                flipped.codes[i] ^ flipped.codes[j]
            ).bit_count()

        # odd-index complementation: tour in even dimensions, collision in odd
        for k in (2, 4, 6, 8):
            assert verify_cycle(complement_odd_indices(gray_tour(k)), k - 1).valid
        for k in (3, 5, 7):
            assert not verify_cycle(complement_odd_indices(gray_tour(k)), k - 1).valid

        # construct -> file format -> parse -> verify, all odd h < k <= 12
        for k in range(2, 13):
            for h in range(1, k, 2):
                cert = construct(k, h)
                doc = CycleDocument(h, "tuples", cert.path)
                parsed = parse_document(render_text(doc))
                assert parsed.path.k == k and parsed.h == h
                assert verify_cycle(parsed.path, h).valid, (k, h)


def test_criterion_7_enumeration_spot_values():
    with criterion(7, "canonical cycle counts at k=2 and k=3"):
        assert oracle_count(2, 1).count == 1
        assert oracle_count(3, 1).count == 6


def test_feasibility_and_oracle_never_disagree_on_the_sweep():
    # belt-and-braces restatement of the equivalence used throughout, and
    # the oracle's stated bound over the whole domain its caps admit: an
    # existence search refutes by precheck alone or never backtracks
    for k in range(2, ORACLE_K_MAX + 1):
        for h in range(1, max(9, k + 2)):
            feasible = feasibility(k, h).feasible
            result = oracle_exists(k, h)
            assert result.exists == feasible, (k, h)
            assert result.nodes_explored == ((1 << k) - 1 if feasible else 0), (k, h)
    for k in range(1, COUNT_K_MAX + 1):
        for h in range(1, k + 2):
            assert oracle_count(k, h).nodes_explored <= 22_669, (k, h)
