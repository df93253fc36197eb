import ast
import inspect
import random
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import leaper_cycles.body_rows
import leaper_cycles.core
import leaper_cycles.decimal_rows
import leaper_cycles.document
import leaper_cycles.verifier
from leaper_cycles import cli
from leaper_cycles.constructor import _code, construct, construct_chunks
from leaper_cycles.core import Translate, VertexPath, lane_typecode, pack
from leaper_cycles.graycode import gray_tour
from leaper_cycles.verifier import (
    DIMENSION_OVERFLOW,
    DUPLICATE_VERTEX,
    OPEN_ENDPOINTS,
    WRONG_LENGTH,
    WRONG_STEP,
    CycleChecker,
    _outside,
    _packed_step_faults,
    verify_cycle,
)

from reference_tours import DIM5_STEP3_TOUR, packed, path_of, scalar_report


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


def package_imports(module):
    """The modules of the package that ``module`` imports, absolute
    imports of the package as well as relative ones; ``from . import m``
    imports ``.m``."""
    tree = ast.parse(inspect.getsource(module))
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is None:
            names = ["." * node.level + alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        package_imports.update(
            n for n in names if n.startswith(".") or n.split(".")[0] == "leaper_cycles"
        )
    return package_imports


def test_verifier_shares_only_the_core_model():
    # The verifier must stay independent of the construction pipeline so a
    # construction bug cannot certify its own output.
    # Absolute imports of the package count too, not only relative ones.
    assert package_imports(leaper_cycles.verifier) == {".core"}


@pytest.mark.parametrize(
    "module", [leaper_cycles.document, leaper_cycles.body_rows, leaper_cycles.decimal_rows]
)
def test_the_verify_path_never_imports_the_closed_form(module):
    # verify renders translates to prove the rows it reads; the code that
    # renders them must not come from the construction it checks.
    construction = {"constructor", "graycode", "transforms"}
    names = {name.lstrip(".").split(".")[-1] for name in package_imports(module)}
    assert not names & construction


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


@st.composite
def corrupted_cycles(draw, max_k=7):
    """(k, h, codes): a constructed cycle, perhaps broken one way, perhaps read with a wrong h."""
    k = draw(st.integers(2, max_k))
    h = draw(st.sampled_from(range(1, k, 2)))
    codes = list(construct(k, h).path.codes)
    n = len(codes)
    index = st.integers(0, n - 1)
    corruption = draw(st.sampled_from(
        ["none", "swap", "flip", "cut", "duplicate", "out-of-range", "wrong-h"]
    ))
    if corruption == "swap":
        i, j = draw(index), draw(index)
        codes[i], codes[j] = codes[j], codes[i]
    elif corruption == "flip":
        codes[draw(index)] ^= 1 << draw(st.integers(0, k - 1))
    elif corruption == "cut":
        del codes[draw(index):]
    elif corruption == "duplicate":
        codes.insert(draw(st.integers(0, n)), codes[draw(index)])
    elif corruption == "out-of-range":
        codes[draw(index)] = draw(st.sampled_from([-1, n, n + 5, 1 << 64]))
    elif corruption == "wrong-h":
        h = draw(st.integers(1, k + 1).filter(h.__ne__))
    return k, h, tuple(codes)


def fed_in_chunks(k, h, codes, cuts):
    checker = CycleChecker(k, h)
    bounds = [0, *sorted(min(cut, len(codes)) for cut in cuts), len(codes)]
    for lo, hi in zip(bounds, bounds[1:]):
        checker.feed(codes[lo:hi])
    return checker.finish()


@given(corrupted_cycles(), st.lists(st.integers(0, 1 << 7 + 1), max_size=8))
@example((3, 1, (0, 1, 3, 2, 6, 7, 5, 5)), [i // 2 for i in range(18)])
def test_checker_fed_in_chunks_reports_what_verify_cycle_reports(cycle, cuts):
    # Cuts may repeat, or fall at either end, which feeds empty chunks; the
    # closing edge crosses from the last chunk to the first.
    k, h, codes = cycle
    assert fed_in_chunks(k, h, codes, cuts) == verify_cycle(VertexPath(k, codes), h)


@st.composite
def cut_cycles(draw):
    """(k, h, codes, bounds): a corrupted cycle of k <= 12 and the bounds
    of the chunks it is fed in, perhaps with one step broken at a chunk's
    edge: out of its lane 0, into its last lane, or across its boundary."""
    k, h, codes = draw(corrupted_cycles(max_k=12))
    codes = list(codes)
    cuts = draw(st.lists(st.integers(0, len(codes)), max_size=8))
    bounds = [0, *sorted(cuts), len(codes)]
    chunks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    edge = draw(st.sampled_from(["none", "lane 0", "last lane", "boundary"]))
    if edge != "none" and chunks:
        lo, hi = draw(st.sampled_from(chunks))
        # One mask xor'ed onto every code from `start` on changes only the
        # step into `start` (and the closing edge).
        start = {"lane 0": lo + 1, "last lane": hi - 1, "boundary": lo}[edge]
        mask = draw(st.integers(1, (1 << k) - 1))
        codes[start:] = [c ^ mask for c in codes[start:]]
    return k, h, tuple(codes), bounds


def as_lanes(k, chunk):
    """``chunk`` as the array construct_chunks yields, or as it is if a code does not fit."""
    try:
        return array(lane_typecode(k), chunk)
    except OverflowError:
        return chunk


@given(cut_cycles(), st.booleans(), st.sampled_from([1, 3, 64, leaper_cycles.core.PIECE_CODES]))
@example((12, 3, tuple(construct(12, 1).path.codes), [0, 100, 4096]), False, 64)
@example((4, 1, (*construct(4, 1).path.codes[:-1], 1 << 40), [0, 7, 16]), True, 3)
@example(  # slices of 1, 3 and 4,097 lanes in turn, none aligned to a block
    (14, 3, (*construct(14, 3).path.codes[:9000], *(c ^ 16 for c in construct(14, 3).path.codes[9000:])),
     [0, 1, 4, 4101, 4102, 4105, 8202, 8203, 8206, 12303, 1 << 14]),
    True,
    4096,
)
def test_checker_fed_at_any_cuts_reports_what_the_scalar_reference_reports(cycle, arrays, piece):
    # The reference shares nothing with the checker but the report types;
    # the first example breaks every step, past the 1,000 a report keeps.
    # Small blocks put the checker's own cuts inside the chunks; a
    # checker fixes its block size when it is made.
    k, h, codes, bounds = cycle
    with mock.patch.object(leaper_cycles.core, "PIECE_CODES", piece):
        checker = CycleChecker(k, h)
        for lo, hi in zip(bounds, bounds[1:]):
            checker.feed(as_lanes(k, codes[lo:hi]) if arrays else codes[lo:hi])
    assert checker.finish() == scalar_report(k, h, codes)


@pytest.mark.parametrize("wide", [-1, 1 << 32, 1 << 40, (1 << 64) - 1, 1 << 64, 1 << 70])
def test_codes_that_fit_no_lane_are_named(wide):
    # array() refuses such a code, and its block is checked code by code;
    # cut after it, it leads the next chunk's steps. At k = 13 it arrives
    # while a partial block is held, after the coset route took block 0.
    cases = [(4, 5, cuts) for cuts in ([0, 16], [0, 5, 16], [0, 6, 16], list(range(17)))]
    cases.append((13, 5000, [0, 4100, 5001, 8192]))
    for k, at, cuts in cases:
        codes = list(construct(k, 1).path.codes)
        codes[at] = wide
        checker = CycleChecker(k, 1)
        for lo, hi in zip(cuts, cuts[1:]):
            checker.feed(tuple(codes[lo:hi]))
        report = checker.finish()
        assert report == scalar_report(k, 1, codes)
        assert (DIMENSION_OVERFLOW, at) in [(v.kind, v.where) for v in report.violations]


# Widths at and either side of the lane edges; a CycleChecker beyond
# k = 32 would need a presence table of 8 GB, so the table route's packed
# test is called on its own.
LANE_EDGE_KS = [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64]


def in_range(codes, k):
    """The per-code reference of the range mask."""
    return all(0 <= c < 1 << k for c in codes)


def steps_hold(codes, lead, k, h):
    """The per-pair reference of the packed test."""
    path = codes if lead is None else [lead, *codes]
    return in_range(codes, k) and all((a ^ b).bit_count() == h for a, b in zip(path, path[1:]))


def packed_test(codes, lead, itemsize, k, h):
    """Whether the table route only marks ``codes``, in lanes of
    ``itemsize`` bytes: no bit past the range mask, and no failing step
    read from the lane counts."""
    whole, lanes = packed(codes, itemsize), len(codes)
    return not _outside(whole, itemsize, lanes, k) and _packed_step_faults(whole, lead, itemsize, lanes, h) == []


@pytest.mark.parametrize("k", LANE_EDGE_KS)
def test_packed_test_matches_per_pair_bit_counts_at_lane_edges(k):
    # Windows of the closed form, one crossing the closing edge, then with
    # each lane's bits flipped one at a time, below and above bit k, in
    # every lane width: the range mask finds a code past k as the bound
    # on each code does.
    for itemsize in (s for s in (1, 2, 4, 8) if 8 * s >= k):
        bits = 8 * itemsize
        for h in sorted({1, k // 2 | 1, (k - 2) | 1}):
            for start in (0, (1 << k) - 4, 0x5A5A5A5A5A5A5A5A % (1 << k)):
                codes = [_code(h, (start + j) % (1 << k)) for j in range(9)]
                previous = _code(h, (start - 1) % (1 << k))
                for lead in (None, previous, previous ^ 1, (1 << bits) - 1):
                    for step in (h, h + 1, h + 2, bits):
                        want = steps_hold(codes, lead, k, step)
                        got = packed_test(codes, lead, itemsize, k, step)
                        assert got == want, (itemsize, h, start, lead, step)
                for lane in range(9):
                    for bit in sorted({0, 1, k - 2, k - 1, k, bits - 1} & set(range(bits))):
                        flipped = codes.copy()
                        flipped[lane] ^= 1 << bit
                        outside = _outside(packed(flipped, itemsize), itemsize, 9, k)
                        assert (outside == 0) == in_range(flipped, k), (itemsize, lane, bit)
                        assert not steps_hold(flipped, previous, k, h)
                        assert not packed_test(flipped, previous, itemsize, k, h), (itemsize, h, lane, bit)


@given(
    st.sampled_from(LANE_EDGE_KS).flatmap(lambda k: st.tuples(
        st.just(k),
        st.sampled_from([s for s in (1, 2, 4, 8) if 8 * s >= k]),
        st.sampled_from(range(1, k, 2)),
        st.integers(0, (1 << k) - 1),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 63)), max_size=3),
    )),
    st.integers(1, 40),
    st.sampled_from(["none", "previous", "any"]),
)
def test_packed_test_matches_per_pair_bit_counts_on_any_window(case, lanes, lead_kind):
    k, itemsize, h, start, flips = case
    bits = 8 * itemsize
    codes = [_code(h, (start + j) % (1 << k)) for j in range(lanes)]
    for lane, bit in flips:
        if lane < lanes and bit < bits:
            codes[lane] ^= 1 << bit
    lead = {
        "none": None,
        "previous": _code(h, (start - 1) % (1 << k)),
        "any": start * 0x9E3779B97F4A7C15 % (1 << bits),
    }[lead_kind]
    assert (_outside(packed(codes, itemsize), itemsize, lanes, k) == 0) == in_range(codes, k)
    assert packed_test(codes, lead, itemsize, k, h) == steps_hold(codes, lead, k, h)


def test_a_step_wider_than_a_lane_fails_as_the_scalar_loops_say():
    # No two lanes of 8 bits are 9 coordinates apart, so the lane counts
    # fail every step; a lone first code has no step to fail.
    assert _packed_step_faults(packed([1, 2, 3], 1), 0, 1, 3, 9) == [-1, 0, 1]
    assert _packed_step_faults(5, None, 1, 1, 9) == []
    for codes in ((1,), (1, 2, 3), (0, 1, 2, 3)):
        checker = CycleChecker(2, 9)
        checker.feed(codes)
        assert checker.finish() == scalar_report(2, 9, codes)


def test_a_failing_block_on_the_table_route_counts_its_flips_once():
    # A cycle rotated by one row takes the table. Read with a wrong h,
    # every block fails its steps: the lane counts that name them also
    # choose between marking the block and scanning it.
    codes = list(construct(14, 3).path.codes)
    codes = codes[1:] + codes[:1]
    flip_counts = leaper_cycles.verifier._flip_counts
    with mock.patch.object(leaper_cycles.verifier, "_flip_counts", side_effect=flip_counts) as spy:
        checker = CycleChecker(14, 5)
        checker.feed(tuple(codes))
        report = checker.finish()
    assert checker._seen is not None
    assert report == scalar_report(14, 5, codes)
    assert spy.call_count == len(codes) // leaper_cycles.core.PIECE_CODES


@st.composite
def coset_paths(draw):
    """(k, h, size, codes, bounds, corruption): a constructed cycle in
    blocks of ``size`` codes, rotated by whole blocks, perhaps broken one
    way the coset route has to notice, or read with a wrong h, and the
    bounds of the chunks it is fed in."""
    size = draw(st.sampled_from([4, 16, 64]))
    k = draw(st.integers(max(2, size.bit_length() - 1), 10))
    h = draw(st.sampled_from(range(1, k, 2)))
    codes = list(construct(k, h).path.codes)
    blocks = len(codes) // size
    turn = draw(st.integers(0, blocks - 1)) * size
    codes = codes[turn:] + codes[:turn]
    block0, first = codes[:size], codes[0]
    lane = 8 * array(lane_typecode(k)).itemsize
    span = {c ^ first for c in block0}
    outside = [s for s in range(1 << k) if s.bit_count() == h and s not in span]
    corruptions = ["none", "short", "repeat in block 0", "cut in the last block", "wrong h"]
    corruptions += ["not a subspace"] * bool(outside)
    if blocks > 1:
        corruptions += ["used coset", "boundary step", "changed code", "changed head"]
        corruptions += ["two-block swap", "two changed blocks", "onto a partial coset"]
        corruptions += ["a fault in every block", "a shuffled block"]
        corruptions += ["shift past k"] if lane > k else []
    corruption = draw(st.sampled_from(corruptions))
    later = draw(st.integers(1, blocks - 1)) if blocks > 1 else 0
    start = later * size
    # Two blocks, the first perhaps block 0, and an offset in each.
    pair = sorted(draw(st.lists(st.integers(0, blocks - 1), min_size=2, max_size=2, unique=True))) \
        if blocks > 1 else [0, 0]
    at = [b * size + draw(st.integers(0, size - 1)) for b in pair]
    if corruption == "short":
        del codes[draw(st.integers(1, len(codes) - 1)):]
    elif corruption == "not a subspace":
        # Block 0's tail moved off its span, with a step of h into it.
        j = draw(st.integers(1, size - 1))
        mask = codes[j - 1] ^ codes[j] ^ draw(st.sampled_from(outside))
        codes[j:] = [c ^ mask for c in codes[j:]]
    elif corruption == "repeat in block 0":
        # The steps into and out of the repeated code are those of block 0.
        codes[size - 1] = codes[size - 3]
    elif corruption == "used coset":
        # Block ``later`` translated onto a block before it, block 0 included.
        used = draw(st.integers(0, later - 1)) * size
        shift = codes[used] ^ block0[draw(st.integers(0, size - 1))]
        codes[start:start + size] = [c ^ shift for c in block0]
    elif corruption == "boundary step":
        mask = draw(st.integers(1, (1 << k) - 1))
        codes[start:] = [c ^ mask for c in codes[start:]]
    elif corruption == "changed code":
        codes[start + draw(st.integers(0, size - 1))] ^= 1 << draw(st.integers(0, lane - 1))
    elif corruption == "shift past k":
        # A bit past k swapped for one the step into ``start`` flips.
        step = codes[start - 1] ^ codes[start]
        mask = 1 << draw(st.integers(k, lane - 1)) | step & -step
        codes[start:] = [c ^ mask for c in codes[start:]]
    elif corruption == "cut in the last block":
        del codes[len(codes) - draw(st.integers(1, size - 1)):]
    elif corruption == "wrong h":
        h = draw(st.integers(1, k + 1).filter(h.__ne__))
    elif corruption == "changed head":
        # The code that names the block's expected translate changed.
        codes[pair[0] * size] ^= 1 << draw(st.integers(0, lane - 1))
    elif corruption == "two-block swap":
        codes[at[0]], codes[at[1]] = codes[at[1]], codes[at[0]]
    elif corruption == "two changed blocks":
        for i in at:
            codes[i] ^= 1 << draw(st.integers(0, lane - 1))
    elif corruption == "onto a partial coset":
        # A code of the later block copied into the earlier one: the
        # later block, a whole translate, meets its coset partly filled.
        codes[at[0]] = codes[at[1]]
    elif corruption == "a fault in every block":
        # One lane changed in each block but one, perhaps block 0.
        kept = draw(st.integers(0, blocks - 1))
        for b in range(blocks):
            if b != kept:
                codes[b * size + draw(st.integers(0, size - 1))] ^= 1 << draw(st.integers(0, lane - 1))
    elif corruption == "a shuffled block":
        # Block ``later``'s lanes permuted, one of them a copy of a code of
        # another block.
        block = draw(st.permutations(codes[start:start + size]))
        other = draw(st.integers(0, len(codes) - size - 1))
        block[draw(st.integers(0, size - 1))] = codes[other + size if other >= start else other]
        codes[start:start + size] = block
    cuts = draw(st.lists(st.integers(0, len(codes)), max_size=8))
    return k, h, size, tuple(codes), [0, *sorted(cuts), len(codes)], corruption


def subspace_translate(block, k):
    """Whether ``block`` is ``block[0] ^ V`` for a linear subspace V of as
    many codes inside the dimension, tested pair by pair."""
    span = {c ^ block[0] for c in block}
    return (
        all(0 <= c < 1 << k for c in block)
        and len(span) == len(block)
        and all(a ^ b in span for a in span for b in span)
    )


def xor_from(codes, start, mask):
    return (*codes[:start], *(c ^ mask for c in codes[start:]))


@given(coset_paths(), st.booleans())
@example((6, 3, 16, xor_from(construct(6, 3).path.codes, 16, 1), [0, 64], "boundary step"), False)
@example((6, 3, 16, xor_from(construct(6, 3).path.codes, 16, 1 << 7 | 1), [0, 64], "shift past k"), True)
def test_coset_route_reports_what_the_scalar_reference_reports(path, arrays):
    k, h, size, codes, bounds, corruption = path
    with mock.patch.object(leaper_cycles.core, "PIECE_CODES", size):
        checker = CycleChecker(k, h)
        for lo, hi in zip(bounds, bounds[1:]):
            checker.feed(as_lanes(k, codes[lo:hi]) if arrays else codes[lo:hi])
        report = checker.finish()
    assert report == scalar_report(k, h, codes)
    # The route holds, whatever the later blocks are, whenever block 0,
    # or else block 1, is a whole translate of a subspace.
    references = [codes[i:i + size] for i in (0, size) if i + size <= len(codes)]
    on_route = any(subspace_translate(block, k) for block in references)
    assert (checker._seen is None) == on_route
    if corruption == "none":
        assert report.valid and on_route


def test_a_translate_into_block_0s_coset_repeats_all_its_codes():
    # Block 1 is block 0 xor 2049, a code of block 0: every step holds,
    # and every code of block 1 is a code of block 0.
    codes = list(construct(13, 1).path.codes)
    codes[4096:] = [c ^ 2049 for c in codes[:4096]]
    report = verify_cycle(VertexPath(13, tuple(codes)), 1)
    assert report == scalar_report(13, 1, codes)
    assert report.total == 4096 and kinds(report) == {DUPLICATE_VERTEX}


def test_cosets_taken_whole_share_one_page_that_cannot_be_written():
    # Every coset taken whole is one immutable page; a block that repeats
    # a code of its own coset gets a page of its own, which it writes.
    codes = list(construct(15, 3).path.codes)
    codes[3 * 4096 + 9] = codes[3 * 4096 + 10]
    checker = CycleChecker(15, 3)
    checker.feed(array(lane_typecode(15), codes))
    assert checker.finish() == scalar_report(15, 3, codes)
    pages = list(checker._cosets.values())
    whole = [page for page in pages if isinstance(page, bytes)]
    assert len(pages) == 8 and len(whole) == 7
    assert pages[3].count(0) == 1
    assert all(page is whole[0] for page in whole) and whole[0] == b"\1" * 4096


def test_valid_paths_mark_no_vertex(tmp_path, capsys, monkeypatch):
    # A change that turns the coset route off sends valid blocks to these.
    size = leaper_cycles.core.PIECE_CODES
    assert size & size - 1 == 0

    def never(*args):
        raise AssertionError("a valid block left the coset route")

    monkeypatch.setattr(CycleChecker, "_mark", never)
    monkeypatch.setattr(CycleChecker, "_scan", never)
    assert sum(map(len, construct_chunks(18, 5))) == 1 << 18  # raises if the path fails
    target = tmp_path / "cycle.txt"
    argv = ["construct", "--k", "18", "--h", "5", "--format", "ints", "--output", str(target)]
    assert cli.main(argv) == 0
    assert cli.main(["verify", str(target)]) == 0
    assert capsys.readouterr().out == "valid: change-5 cycle on 262144 vertices in dimension 18\n"


def test_a_changed_first_code_stays_on_the_route():
    # Lane 0 names the expected translate, so every other lane differs
    # from it: the block is not taken whole, and its lanes go to the pages.
    codes = list(construct(13, 3).path.codes)
    codes[4096] ^= 1 << 5
    checker = CycleChecker(13, 3)
    checker.feed(array(lane_typecode(13), codes))
    assert checker.finish() == scalar_report(13, 3, codes)
    assert checker._seen is None


def test_a_block_that_mostly_differs_stays_on_the_route():
    # Block 2 shuffled, so no lane of it is where its translate has it:
    # each is marked in its coset's page, beside block 0's, taken whole,
    # and block 1's, in part, one of its codes changed. Block 2 repeats a
    # code of each.
    codes = list(construct(14, 5).path.codes)
    codes[4100] ^= 1 << 13
    block = codes[8192:12288]
    random.Random(5).shuffle(block)
    block[5], block[6] = codes[10], codes[4096 + 7]
    codes[8192:12288] = block
    checker = CycleChecker(14, 5)
    checker.feed(tuple(codes))
    report = checker.finish()
    assert report == scalar_report(14, 5, codes)
    assert {(DUPLICATE_VERTEX, 8192 + 5), (DUPLICATE_VERTEX, 8192 + 6)} <= {
        (v.kind, v.where) for v in report.violations
    }
    assert checker._seen is None


def as_translate(piece, base, typecode):
    """``piece``, a list of as many codes as ``base``, each fitting a lane
    of ``typecode``, as the Translate of ``base ^ c ^ piece`` by ``c =
    piece[0] ^ base[0]``: a view whose template is ``base`` exactly when
    the piece is a translate of it."""
    shift = piece[0] ^ base[0]
    one = pack(array(typecode, [1]) * len(piece))
    template = pack(array(typecode, [c ^ shift for c in piece]))
    return Translate(template, one, shift, typecode, len(piece))


@st.composite
def view_paths(draw):
    """(k, h, size, codes, lead, views, base, corruption): a constructed
    cycle in blocks of ``size`` codes, perhaps broken one way the view
    route has to notice, or read with a wrong h; it is fed as ``lead``
    codes of lanes, then pieces of ``size`` codes, each a view of block
    ``base`` if ``views`` says so and lanes if not, then the rest."""
    size = draw(st.sampled_from([4, 16, 64]))
    k = draw(st.integers(size.bit_length(), 10))  # two blocks or more
    h = draw(st.sampled_from(range(1, k, 2)))
    codes = list(construct(k, h).path.codes)
    blocks = len(codes) // size
    corruption = draw(st.sampled_from(
        ["none", "block 0", "repeat", "shift past k", "boundary", "shuffle", "rotate", "wrong h"]
    ))
    later = draw(st.integers(1, blocks - 1)) * size  # a block past block 0
    if corruption == "block 0":
        at = draw(st.integers(0, size - 1))
        codes[at] ^= 1 << draw(st.integers(0, k - 1))
    elif corruption == "repeat":
        earlier = draw(st.integers(0, later // size - 1)) * size
        codes[later:later + size] = codes[earlier:earlier + size]
    elif corruption == "shift past k" and k < 8 * array(lane_typecode(k)).itemsize:
        codes[later:later + size] = [c ^ 1 << k for c in codes[later:later + size]]
    elif corruption == "boundary":
        mask = draw(st.integers(1, (1 << k) - 1))
        codes[later:] = [c ^ mask for c in codes[later:]]
    elif corruption == "shuffle":
        block = codes[later:later + size]
        codes[later:later + size] = draw(st.permutations(block).filter(lambda b: b != block))
    elif corruption == "rotate":
        codes = codes[1:] + codes[:1]
    elif corruption == "wrong h":
        h = draw(st.sampled_from([g for g in range(1, k + 1) if g != h]))
    lead = draw(st.sampled_from([0, 0, 1, size - 1, size + 3]))
    views = draw(st.lists(st.booleans(), min_size=blocks, max_size=blocks))
    return k, h, size, codes, lead, views, draw(st.sampled_from([0, 1])), corruption


def fed_as_views(k, h, size, codes, lead, views, base):
    """The checkers fed ``codes`` as :func:`view_paths` says, one with the
    views and one with their lanes."""
    template = codes[base * size:(base + 1) * size]
    by_view, by_lanes = CycleChecker(k, h), CycleChecker(k, h)
    pieces = [codes[:lead]]
    pieces += [codes[lo:lo + size] for lo in range(lead, len(codes) - size + 1, size)]
    pieces.append(codes[lead + (len(codes) - lead) // size * size:])
    for piece, view in zip(pieces, [False, *views, False]):
        if not piece:
            continue
        typecode = lane_typecode(k)
        fed = as_translate(piece, template, typecode) if view else array(typecode, piece)
        by_view.feed(fed)
        by_lanes.feed(fed.lanes() if view else fed)
    return by_view, by_lanes


@given(view_paths())
@example((6, 3, 16, list(construct(6, 3).path.codes), 0, [True] * 4, 0, "none"))
@example((6, 3, 16, [*construct(6, 3).path.codes[:16], *construct(6, 3).path.codes[:16],
                     *construct(6, 3).path.codes[32:]], 0, [True] * 4, 0, "repeat"))
@example((6, 3, 16, xor_from(construct(6, 3).path.codes, 48, 1 << 6), 0, [True] * 4, 1, "shift past k"))
@example((6, 3, 16, xor_from(construct(6, 3).path.codes, 32, 5), 0, [True] * 4, 0, "boundary"))
@example((6, 3, 16, [*construct(6, 3).path.codes[:32], *construct(6, 3).path.codes[47:31:-1],
                     *construct(6, 3).path.codes[48:]], 0, [True] * 4, 0, "shuffle"))
def test_views_report_what_their_lanes_report(path):
    # A second path for the view route: a piece fed as a view of block 0
    # or block 1 gives the report its lanes give, and the scalar one.
    k, h, size, codes, lead, views, base, corruption = path
    with mock.patch.object(leaper_cycles.core, "PIECE_CODES", size):
        by_view, by_lanes = fed_as_views(k, h, size, codes, lead, views, base)
    report = by_view.finish()
    assert report == by_lanes.finish() == scalar_report(k, h, codes)
    if corruption == "none":
        assert report.valid


def test_a_view_that_repeats_a_shift_names_its_codes():
    # Block 3 fed as a view by block 1's shift: its coset is seen, so it
    # is not taken whole, and each of its codes is named a repeat.
    pieces = list(construct_chunks(14, 3))
    repeat = pieces[1]
    pieces[3] = Translate(repeat.packed, repeat.one, repeat.shift, repeat.typecode, len(repeat))
    codes = [c for piece in pieces for c in piece]
    with mock.patch.object(leaper_cycles.verifier, "_KEPT_VIOLATIONS", 5000), \
            mock.patch("reference_tours.KEPT_VIOLATIONS", 5000):
        checker = CycleChecker(14, 3)
        for piece in pieces:
            checker.feed(piece)
        report = checker.finish()
        assert report == scalar_report(14, 3, codes)
    repeats = [v.where for v in report.violations if v.kind == DUPLICATE_VERTEX]
    assert repeats == list(range(3 * 4096, 4 * 4096))


def test_a_view_of_another_subspace_is_no_reference():
    # Block 0 is V, the codes below 2**12. Block 1 comes as a view of W,
    # V with bit 11 moved to bit 12, by the shift 2**12: W is a subspace
    # too, but not V, so it may not become the reference. Taken whole on
    # the coset 2**12 ^ V, its 2,048 codes in V would go unnamed.
    k, size = 13, 4096
    block0 = [j ^ (j >> 1) for j in range(size)]
    other = [c & 0x7FF | (c >> 11 & 1) << 12 for c in block0]
    view = leaper_cycles.core.Template(other, k).translate(1 << 12)
    checker = CycleChecker(k, 1)
    checker.feed(array(lane_typecode(k), block0))
    checker.feed(view)
    report = checker.finish()
    assert report == scalar_report(k, 1, block0 + list(view))
    assert sum(v.kind == DUPLICATE_VERTEX for v in report.violations) == 1000  # of 2,048, kept


@pytest.mark.parametrize(
    ("shape", "flags", "lines"),
    [
        # Row 1,000 lies in block 0, so block 1 is the reference.
        ("swap", [], ["invalid: 2 violation(s)", "WrongStep at (999, 1000)", "WrongStep at (39999, 40000)"]),
        ("flip", [], [
            "invalid: 3 violation(s)", "DuplicateVertex at 30000",
            "WrongStep at (29999, 30000)", "WrongStep at (30000, 30001)",
        ]),
        ("cut", [], ["invalid: 2 violation(s)", "WrongLength at 65535", "OpenEndpoints at (65534, 0)"]),
        ("wrong h", ["--h", "3"], ["invalid: 65536 violation(s)", "WrongStep at (0, 1)", "WrongStep at (1, 2)"]),
    ],
)
def test_faulty_paths_make_no_table(shape, flags, lines, tmp_path, capsys, monkeypatch):
    # The four faulty shapes of the bench's check documents, at k=16: each
    # fault costs the lanes it touches, and the rest stays on the coset
    # route. The lines are those the presence table once gave.
    def never(*args):
        raise AssertionError("a faulty path made the presence table")

    monkeypatch.setattr(CycleChecker, "_mark", never)
    monkeypatch.setattr(CycleChecker, "_scan", never)
    codes = list(construct(16, 5).path.codes)
    if shape == "swap":
        codes[1000], codes[40000] = codes[40000], codes[1000]
    elif shape == "flip":
        codes[30000] ^= 1 << 3
    elif shape == "cut":
        del codes[-1]
    target = tmp_path / "cycle.txt"
    target.write_text("# k=16 h=5 encoding=ints closed=true\n" + "".join(f"{c}\n" for c in codes))
    assert cli.main(["verify", str(target), *flags]) == 2
    assert capsys.readouterr().out.splitlines()[:len(lines)] == lines


def test_a_refused_template_is_not_tested_again(tmp_path, capsys):
    # One code changed the same way in every block but block 1, the
    # reference: each later piece is a Translate of the faulty piece 0,
    # which is tested as a reference once, after blocks 0 and 1.
    k, h, size = 16, 3, leaper_cycles.core.PIECE_CODES
    codes = list(construct(k, h).path.codes)
    for b in range(len(codes) // size):
        if b != 1:
            codes[b * size + 577] ^= 1 << 5
    target = tmp_path / "cycle.txt"
    target.write_text(f"# k={k} h={h} encoding=ints closed=true\n" + "".join(f"{c}\n" for c in codes))
    basis = leaper_cycles.verifier._subspace_basis
    with mock.patch.object(leaper_cycles.verifier, "_subspace_basis", side_effect=basis) as spy:
        assert cli.main(["verify", str(target)]) == 2
    assert spy.call_count <= 3
    report = scalar_report(k, h, codes)
    lines = [f"invalid: {report.total} violation(s)", *map(str, report.violations)]
    assert capsys.readouterr().out.splitlines() == lines


def checker_peak(k, h, codes):
    """The report on ``codes``, fed as one array, the checker, and the
    peak of the memory it allocated, by ``tracemalloc``."""
    lanes = array(lane_typecode(k), codes)
    tracemalloc.start()
    try:
        checker = CycleChecker(k, h)
        checker.feed(lanes)
        report = checker.finish()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, checker, peak


@pytest.mark.parametrize("k", [14, 17])
def test_a_fault_in_every_block_holds_no_more_than_the_table(k):
    # One code changed in every block but block 1, the reference: each
    # faulty coset gets a page of a block's bytes, and the route holds.
    # Beyond what a valid path holds, the faults cost the 2**k bytes of
    # the pages at most, and a few dozen blocks' bytes: the lanes of the
    # reference and of a block or two at a time, names and indices.
    size = leaper_cycles.core.PIECE_CODES
    valid = construct(k, 3).path.codes
    codes = list(valid)
    for b in range(len(codes) // size):
        if b != 1:
            codes[b * size + b * 577 % size] ^= 1 << b % k
    _, _, valid_peak = checker_peak(k, 3, valid)
    report, checker, peak = checker_peak(k, 3, codes)
    assert report == scalar_report(k, 3, codes) and not report.valid
    assert checker._seen is None
    assert peak <= valid_peak + (1 << k) + 32 * size


@st.composite
def repeating_paths(draw):
    """(k, h, codes): codes drawn with repeats, some outside the dimension."""
    k = draw(st.integers(2, 5))
    codes = draw(st.lists(st.integers(-1, (1 << k) + 2), max_size=80))
    return k, draw(st.integers(1, k)), tuple(codes)


@given(
    st.one_of(corrupted_cycles(max_k=6), repeating_paths()),
    st.integers(1, 5),
    st.sampled_from([1, 3, 64]),
)
def test_violations_past_those_kept_are_counted_in_bulk(cycle, kept, piece):
    # A report that keeps a few violations: the ones past them, counted
    # in bulk, give the total the scalar reference counts one by one.
    k, h, codes = cycle
    with mock.patch.object(leaper_cycles.verifier, "_KEPT_VIOLATIONS", kept), \
            mock.patch("reference_tours.KEPT_VIOLATIONS", kept), \
            mock.patch.object(leaper_cycles.core, "PIECE_CODES", piece):
        assert fed_in_chunks(k, h, codes, [len(codes) // 3]) == scalar_report(k, h, codes)


@pytest.mark.parametrize(
    ("k", "h", "codes"),
    [
        pytest.param(16, 5, construct(16, 3).path.codes, id="wrong-h"),
        pytest.param(2, 1, (0,) * 10**5, id="k=2-zeros"),
        pytest.param(2, 1, (0, 1, 4, 3, 2, 9, 1) * 20_000, id="k=2-out-of-range"),
    ],
)
def test_reports_past_1000_violations_are_the_scalar_reports(k, h, codes):
    assert verify_cycle(VertexPath(k, codes), h) == scalar_report(k, h, codes)


def test_a_long_path_at_small_k_is_checked_in_whole_blocks(tmp_path, capsys):
    # Blocks of min(4096, 2**k) codes made 250,000 calls of _block for
    # these 10**6 rows at k=2, and one call of a keeper per violation.
    target = tmp_path / "zeros.txt"
    target.write_bytes(b"# k=2 h=1 encoding=ints closed=true\n" + b"0\n" * 10**6)
    with mock.patch.object(CycleChecker, "_block", autospec=True, side_effect=CycleChecker._block) as block:
        assert cli.main(["verify", str(target)]) == 2
    assert block.call_count <= -(-10**6 // 4096) + 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "invalid: 2000000 violation(s)", "WrongLength at 1000000", "DuplicateVertex at 1",
    ]


@st.composite
def remade_blocks(draw):
    """(k, h, size, codes, kept): a constructed cycle in blocks of ``size``
    codes, some later blocks remade from the lanes of one to three blocks,
    in their order or shuffled, some lanes changed, to a code past k too;
    and the violations a report keeps."""
    size = draw(st.sampled_from([16, 64]))
    k = draw(st.integers(size.bit_length() + 1, 10))  # four blocks or more
    h = draw(st.sampled_from(range(1, k, 2)))
    codes = list(construct(k, h).path.codes)
    blocks = len(codes) // size
    lane = 8 * array(lane_typecode(k)).itemsize
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(1, blocks - 1)) * size
        sources = draw(st.lists(st.integers(0, blocks - 1), min_size=1, max_size=3)) * size
        order = draw(st.permutations(range(size))) if draw(st.booleans()) else range(size)
        block = [codes[sources[j] * size + i] for j, i in enumerate(order)]
        for i in draw(st.lists(st.integers(0, size - 1), max_size=4)):
            block[i] ^= 1 << draw(st.integers(0, lane - 1))
        codes[at:at + size] = block
    return k, h, size, tuple(codes), draw(st.sampled_from([3, 1000]))


def reports_by_route(k, h, size, codes, kept):
    """The reports of the checker fed ``codes`` whole, by each route of
    _place: near a translate or by cosets, by cosets alone, and code by
    code, kept as the reference; each checker's route is the first that
    takes a block."""
    reports = []
    for near, groups in ((64, 4), (-1, 4), (-1, 0)):
        with mock.patch.multiple(leaper_cycles.verifier, _NEAR=near, _GROUPS=groups, _KEPT_VIOLATIONS=kept), \
                mock.patch.object(leaper_cycles.core, "PIECE_CODES", size):
            checker = CycleChecker(k, h)
            checker.feed(as_lanes(k, codes))
            reports.append(checker.finish())
    return reports


@given(remade_blocks())
@example((14, 3, 4096, (*construct(14, 3).path.codes[:4096],) * 4, 1000))  # 12,288 repeats
def test_placing_by_cosets_reports_what_placing_code_by_code_reports(path):
    # A second path for _place: a block near a translate, and the lanes of
    # one to three cosets, placed a coset at a time, give the report the
    # code-by-code loop gives, and the scalar one.
    k, h, size, codes, kept = path
    near, grouped, by_code = reports_by_route(k, h, size, codes, kept)
    with mock.patch("reference_tours.KEPT_VIOLATIONS", kept):
        assert near == grouped == by_code == scalar_report(k, h, codes)


@pytest.mark.parametrize("shape", ["rotated", "shuffled", "a fault in every block"])
def test_whole_and_half_cosets_are_not_placed_code_by_code(shape, monkeypatch):
    # A cycle rotated by half a block, whose later blocks not taken whole
    # each fall in two half cosets, one block shuffled, a whole coset, and
    # a code changed in every block but block 1: no block goes to the
    # code-by-code loop, which only names the few codes moved off a
    # translate, and the reports are the scalar ones.
    place_codes = CycleChecker._place_codes

    def few(checker, names, indices, offsets=None):
        assert offsets is not None and len(offsets) <= 2, "a block was placed code by code"
        return place_codes(checker, names, indices, offsets)

    k, h, size = 16, 5, leaper_cycles.core.PIECE_CODES
    codes = list(construct(k, h).path.codes)
    if shape == "rotated":
        codes = codes[size // 2:] + codes[:size // 2]
    elif shape == "shuffled":
        block = codes[3 * size:4 * size]
        random.Random(3).shuffle(block)
        codes[3 * size:4 * size] = block
    else:
        for b in range(len(codes) // size):
            if b != 1:
                codes[b * size + b * 577 % size] ^= 1 << b % k
    monkeypatch.setattr(CycleChecker, "_place_codes", few)
    with mock.patch.object(CycleChecker, "_place", autospec=True, side_effect=CycleChecker._place) as place:
        report = verify_cycle(VertexPath(k, tuple(codes)), h)
    assert report == scalar_report(k, h, codes)
    assert place.call_count == {"rotated": 8, "shuffled": 1, "a fault in every block": 15}[shape]


@given(
    st.integers(1, 64).flatmap(lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=70),
        st.one_of(st.none(), st.integers(0, (1 << 64) + 5)),
        st.integers(1, 70),
    ))
)
def test_step_faults_read_from_the_lane_counts_are_those_of_each_pair(case):
    # A second path for _packed_step_faults: the failing steps of a chunk
    # of lanes, from the bit counts of its packed integer, are those the
    # pairs of codes give one by one, or None for a lead that fits no lane.
    k, codes, lead, h = case
    lanes = array(lane_typecode(k), codes)
    faults = leaper_cycles.verifier._packed_step_faults(pack(lanes), lead, lanes.itemsize, len(lanes), h)
    if lead is not None and lead >> 8 * lanes.itemsize:
        assert faults is None
    else:
        assert faults == leaper_cycles.verifier._step_faults(codes, lead, h)
