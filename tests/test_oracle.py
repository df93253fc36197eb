import hashlib
import itertools
import math
import random
import tracemalloc

import pytest

from leaper_cycles import oracle as oracle_mod
from leaper_cycles.constructor import feasibility
from leaper_cycles.core import CapacityError
from leaper_cycles.oracle import COUNT_K_MAX, ORACLE_K_MAX, oracle_count, oracle_exists
from leaper_cycles.verifier import verify_cycle


def census(k, h):
    """Permutation enumeration: an oracle for the oracle at tiny k.

    Checks every ordering of the nonzero vertices behind the fixed
    all-zeros anchor, and keeps one direction of each undirected cycle by
    requiring the second vertex to be smaller than the last. Independent
    of the backtracking engine.
    """
    n = 1 << k
    exists = False
    count = 0
    for perm in itertools.permutations(range(1, n)):
        seq = (0,) + perm
        steps_ok = all(
            (seq[i] ^ seq[i + 1]).bit_count() == h for i in range(n - 1)
        )
        if steps_ok and (seq[-1] ^ seq[0]).bit_count() == h:
            exists = True
            if seq[1] < seq[-1]:
                count += 1
    return exists, count


class TestExists:
    @pytest.mark.parametrize(
        "k,h,expected",
        [
            (3, 1, True),
            (4, 2, False),
            (4, 3, True),
            (5, 4, False),
            (5, 5, False),
            (6, 5, True),
            (2, 1, True),
            (1, 1, False),
            (4, 9, False),
        ],
    )
    def test_known_cases(self, k, h, expected):
        assert oracle_exists(k, h).exists is expected

    def test_witness_passes_verification(self):
        for k, h in [(3, 1), (4, 3), (5, 3), (6, 5)]:
            result = oracle_exists(k, h)
            assert result.exists
            assert result.witness is not None
            assert result.witness.codes[0] == 0
            assert verify_cycle(result.witness, h).valid

    def test_witness_present_exactly_when_a_cycle_exists(self):
        assert verify_cycle(oracle_exists(4, 3).witness, 3).valid
        assert oracle_exists(4, 2).witness is None

    def test_nodes_explored_reproducible(self):
        a = oracle_exists(5, 3)
        b = oracle_exists(5, 3)
        assert a.nodes_explored == b.nodes_explored
        assert a.nodes_explored > 0

    def test_precheck_rejections_explore_nothing(self):
        assert oracle_exists(5, 4).nodes_explored == 0
        assert oracle_exists(3, 3).nodes_explored == 0


class TestCount:
    def test_square_has_one_cycle(self):
        assert oracle_count(2, 1).count == 1

    def test_cube_has_six_cycles(self):
        result = oracle_count(3, 1)
        assert result.count == 6
        assert result.exists

    def test_even_step_counts_zero(self):
        result = oracle_count(3, 2)
        assert result.count == 0
        assert not result.exists

    def test_dim4_unit_count_regression(self):
        # frozen after exhaustive enumeration by this module
        assert oracle_count(4, 1).count == 1344

    def test_census_agreement(self):
        for k, h in [(2, 1), (3, 1), (3, 2), (3, 3)]:
            exists, count = census(k, h)
            result = oracle_count(k, h)
            assert result.count == count, (k, h)
            assert oracle_exists(k, h).exists == exists, (k, h)

    def test_count_witness(self):
        result = oracle_count(3, 1)
        assert result.witness is not None
        assert verify_cycle(result.witness, 1).valid


def test_count_independent_of_neighbor_ordering():
    for k, h in [(3, 1), (4, 1), (4, 3)]:
        masks = oracle_mod._flip_masks(k, h)
        ascending = oracle_mod._dfs(
            k, h, masks, count_mode=True, prefix=(0,)
        )
        descending = oracle_mod._dfs(
            k, h, masks[::-1], count_mode=True, prefix=(0,)
        )
        assert ascending[0] == descending[0], (k, h)


def full_search(k, h, *, count_mode):
    """The unreduced search: every first move from the anchor."""
    return oracle_mod._dfs(
        k, h, oracle_mod._flip_masks(k, h), count_mode=count_mode, prefix=(0,)
    )


class TestFirstMoveSymmetry:
    @pytest.mark.parametrize("k,h", [(2, 1), (3, 1), (4, 1), (4, 3)])
    def test_every_first_move_starts_equally_many_cycles(self, k, h):
        masks = oracle_mod._flip_masks(k, h)
        directed = {
            oracle_mod._dfs(
                k, h, order, count_mode=True, prefix=(0, first),
            )[0]
            for order in (masks, masks[::-1])
            for first in masks
        }
        assert len(directed) == 1
        assert directed.pop() > 0

    @pytest.mark.parametrize(
        "k,h,count,nodes",
        [(2, 1, 1, 3), (3, 1, 6, 37), (4, 1, 1344, 22669), (4, 3, 1344, 22669)],
    )
    def test_count_matches_full_search(self, k, h, count, nodes):
        result = oracle_count(k, h)
        assert (result.count, result.nodes_explored) == (count, nodes)
        directed, full_nodes, _ = full_search(k, h, count_mode=True)
        assert directed == 2 * count
        assert full_nodes == math.comb(k, h) * nodes

    @pytest.mark.parametrize("k,h", [(5, 3), (6, 5), (7, 3)])
    def test_exists_matches_full_search(self, k, h):
        result = oracle_exists(k, h)
        found, nodes, witness = full_search(k, h, count_mode=False)
        assert result.exists and found
        assert result.nodes_explored == nodes
        assert list(result.witness.codes) == witness


class TestLimits:
    def test_existence_cap(self):
        with pytest.raises(CapacityError):
            oracle_exists(ORACLE_K_MAX + 1, 1)

    def test_count_cap(self):
        with pytest.raises(CapacityError):
            oracle_count(COUNT_K_MAX + 1, 1)

    def test_count_refuses_dimension_five(self):
        # {0,1}^5 has 906,545,760 change-1 cycles (OEIS A066037), far too
        # many to enumerate; h=3 is the one other k=5 step prechecks allow.
        with pytest.raises(CapacityError):
            oracle_count(5, 3)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            oracle_exists(0, 1)
        with pytest.raises(ValueError):
            oracle_exists(3, 0)


def bfs_connected(k, masks):
    """Breadth-first reachability of all 2**k vertices from all-zeros."""
    n = 1 << k
    seen = 1
    frontier = [0]
    remaining = n - 1
    while frontier and remaining:
        nxt = []
        for v in frontier:
            for m in masks:
                u = v ^ m
                if not (seen >> u) & 1:
                    seen |= 1 << u
                    remaining -= 1
                    nxt.append(u)
        frontier = nxt
    return remaining == 0


def orders(k, h):
    """The flip masks ascending, reversed and in a seeded shuffle."""
    masks = oracle_mod._flip_masks(k, h)
    return [masks, masks[::-1], random.Random(100 * k + h).sample(masks, len(masks))]


@pytest.mark.parametrize("k", range(1, 11))
def test_span_test_matches_breadth_first_search(k):
    for h in range(1, k + 2):
        masks = oracle_mod._flip_masks(k, h)
        expected = bfs_connected(k, masks)
        for order in orders(k, h):
            assert oracle_mod._connected(k, order) is expected, (k, h)
        # Only odd h < k passes both prechecks.
        assert (len(masks) >= 2 and expected) == (h % 2 == 1 and h < k), (k, h)


@pytest.mark.parametrize("k", range(2, 8))
def test_any_neighbor_order_agrees_with_feasibility(k):
    for h in range(1, k + 2):
        for order in orders(k, h)[1:]:
            found = (
                len(order) >= 2
                and oracle_mod._connected(k, order)
                and oracle_mod._dfs(
                    k, h, order, count_mode=False, prefix=(0, order[0]),
                )[0] == 1
            )
            assert found == feasibility(k, h).feasible, (k, h)


def witness_digest(witness):
    if witness is None:
        return None
    codes = ",".join(map(str, witness.codes))
    return hashlib.sha256(codes.encode()).hexdigest()[:16]


# Frozen (nodes_explored, first 16 hex digits of the SHA-256 of the
# comma-joined witness codes) of oracle_exists(k, h) and
# (count, nodes_explored) of oracle_count(k, h). A change to the neighbor
# order, the pruning or the first move shows up here.
PINNED_EXISTS = {
    (2, 1): (3, 'a428682b12fc83ce'),
    (2, 2): (0, None),
    (2, 3): (0, None),
    (3, 1): (7, '8b512d0072b3b011'),
    (3, 2): (0, None),
    (3, 3): (0, None),
    (3, 4): (0, None),
    (4, 1): (15, '87f259b5d1841afc'),
    (4, 2): (0, None),
    (4, 3): (15, '4e0f5468e1df374f'),
    (4, 4): (0, None),
    (4, 5): (0, None),
    (5, 1): (31, 'bbcb5d8610cd685c'),
    (5, 2): (0, None),
    (5, 3): (31, 'afe8c12adef11d5a'),
    (5, 4): (0, None),
    (5, 5): (0, None),
    (5, 6): (0, None),
    (6, 1): (63, '2921e2ecff7cdd50'),
    (6, 2): (0, None),
    (6, 3): (63, 'f9074284f7b5b14a'),
    (6, 4): (0, None),
    (6, 5): (63, 'b196b45cd1ae926e'),
    (6, 6): (0, None),
    (6, 7): (0, None),
    (7, 1): (127, '57d3eec0a5bc8a3b'),
    (7, 2): (0, None),
    (7, 3): (127, 'b8d16c1b0e25e5ba'),
    (7, 4): (0, None),
    (7, 5): (127, '72f314640b8d1731'),
    (7, 6): (0, None),
    (7, 7): (0, None),
    (7, 8): (0, None),
    (8, 1): (255, '4fe34d192a588f6c'),
    (8, 2): (0, None),
    (8, 3): (255, 'f083f2c03095aa00'),
    (8, 4): (0, None),
    (8, 5): (255, '9a42aeb1f4d51111'),
    (8, 6): (0, None),
    (8, 7): (255, '20eccf031a449555'),
    (8, 8): (0, None),
    (8, 9): (0, None),
    (9, 1): (511, '72aef1f26142be77'),
    (9, 2): (0, None),
    (9, 3): (511, '4e8950d0a469ba0b'),
    (9, 4): (0, None),
    (9, 5): (511, 'd62b83b192452451'),
    (9, 6): (0, None),
    (9, 7): (511, 'c06e576b5706a39d'),
    (9, 8): (0, None),
    (9, 9): (0, None),
    (9, 10): (0, None),
}

PINNED_COUNTS = {
    (1, 1): (0, 0),
    (1, 2): (0, 0),
    (2, 1): (1, 3),
    (2, 2): (0, 0),
    (2, 3): (0, 0),
    (3, 1): (6, 37),
    (3, 2): (0, 0),
    (3, 3): (0, 0),
    (3, 4): (0, 0),
    (4, 1): (1344, 22669),
    (4, 2): (0, 0),
    (4, 3): (1344, 22669),
    (4, 4): (0, 0),
    (4, 5): (0, 0),
}


def test_search_order_is_pinned():
    exists = {}
    for k in range(2, 10):
        for h in range(1, k + 2):
            result = oracle_exists(k, h)
            exists[k, h] = (result.nodes_explored, witness_digest(result.witness))
    assert exists == PINNED_EXISTS
    counts = {}
    for k in range(1, COUNT_K_MAX + 1):
        for h in range(1, k + 2):
            result = oracle_count(k, h)
            counts[k, h] = (result.count, result.nodes_explored)
    assert counts == PINNED_COUNTS


@pytest.mark.parametrize("h", [1, 3, 5, 7, 11])
def test_feasible_dimension_12_needs_no_backtracking(h):
    assert oracle_exists(12, h).nodes_explored == 4095


def test_search_memory_does_not_grow_with_depth_times_degree():
    tracemalloc.start()
    try:
        assert oracle_exists(10, 5).exists
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
