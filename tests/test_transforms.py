import pytest
from hypothesis import given
from hypothesis import strategies as st

from leaper_cycles.core import CapacityError, MAX_K_ENV, VertexPath
from leaper_cycles.graycode import gray_tour
from leaper_cycles.transforms import (
    append_coordinate,
    complement_odd_indices,
    flip_prefix_path,
    reverse_path,
)
from leaper_cycles.verifier import verify_cycle

from reference_tours import (
    DIM4_STEP3_TOUR,
    STAGE_APPEND0,
    STAGE_APPEND1,
    STAGE_PREFIX_FLIPPED,
    STAGE_REVERSED,
    path_of,
    rows_of,
)


@st.composite
def paths(draw, max_dim=16, max_len=24):
    k = draw(st.integers(1, max_dim))
    codes = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=max_len))
    return VertexPath(k, tuple(codes))


def dim4_step3():
    return path_of(DIM4_STEP3_TOUR)


class TestComplementOddIndices:
    def test_golden_dim4(self):
        assert rows_of(complement_odd_indices(gray_tour(4))) == DIM4_STEP3_TOUR

    def test_golden_dim2(self):
        out = complement_odd_indices(gray_tour(2))
        assert rows_of(out) == [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert verify_cycle(out, 1).valid  # k - 1 = 1

    @given(paths())
    def test_involution(self, path):
        assert complement_odd_indices(complement_odd_indices(path)).codes == path.codes

    def test_even_indices_untouched(self):
        out = complement_odd_indices(gray_tour(3))
        assert out.codes[0::2] == gray_tour(3).codes[0::2]

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_yields_valid_cycle_in_even_dimension(self, k):
        out = complement_odd_indices(gray_tour(k))
        assert verify_cycle(out, k - 1).valid
        assert sorted(out.codes) == sorted(gray_tour(k).codes)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_collides_in_odd_dimension(self, k):
        out = complement_odd_indices(gray_tour(k))
        report = verify_cycle(out, k - 1)
        assert not report.valid
        assert len(set(out.codes)) < len(out.codes)


class TestAppendCoordinate:
    def test_golden_stage_append0(self):
        assert rows_of(append_coordinate(dim4_step3(), 0)) == STAGE_APPEND0

    def test_golden_stage_append1(self):
        assert rows_of(append_coordinate(dim4_step3(), 1)) == STAGE_APPEND1

    def test_trivial(self):
        path = path_of([(0,), (1,)])
        assert rows_of(append_coordinate(path, 0)) == [(0, 0), (1, 0)]

    def test_rejects_non_bit(self):
        with pytest.raises(ValueError):
            append_coordinate(gray_tour(2), 2)

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv(MAX_K_ENV, "4")
        with pytest.raises(CapacityError):
            append_coordinate(gray_tour(4), 0)

    def test_lifts_partition_next_dimension(self):
        base = gray_tour(3)
        low = append_coordinate(base, 0)
        high = append_coordinate(base, 1)
        assert sorted(low.codes + high.codes) == list(range(16))

    @given(paths(max_dim=15))
    def test_pairwise_distances_unchanged(self, path):
        lifted = append_coordinate(path, 1)
        for i in range(len(path)):
            for j in range(i + 1, len(path)):
                before = (path.codes[i] ^ path.codes[j]).bit_count()
                after = (lifted.codes[i] ^ lifted.codes[j]).bit_count()
                assert before == after


class TestFlipPrefixPath:
    def test_golden_stage_flip(self):
        stage2 = path_of(STAGE_APPEND1)
        assert rows_of(flip_prefix_path(stage2, 2)) == STAGE_PREFIX_FLIPPED

    def test_zero_is_identity(self):
        path = gray_tour(3)
        assert flip_prefix_path(path, 0).codes == path.codes

    @given(paths(), st.data())
    def test_involution(self, path, data):
        m = data.draw(st.integers(0, path.k))
        assert flip_prefix_path(flip_prefix_path(path, m), m).codes == path.codes

    @given(paths(), st.data())
    def test_isometry(self, path, data):
        m = data.draw(st.integers(0, path.k))
        flipped = flip_prefix_path(path, m)
        i = data.draw(st.integers(0, len(path) - 1))
        j = data.draw(st.integers(0, len(path) - 1))
        before = (path.codes[i] ^ path.codes[j]).bit_count()
        after = (flipped.codes[i] ^ flipped.codes[j]).bit_count()
        assert before == after

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            flip_prefix_path(gray_tour(2), 3)


class TestReversePath:
    def test_golden_stage_reverse(self):
        stage3 = path_of(STAGE_PREFIX_FLIPPED)
        assert rows_of(reverse_path(stage3)) == STAGE_REVERSED

    def test_singleton(self):
        path = VertexPath(3, (5,))
        assert reverse_path(path).codes == (5,)

    @given(paths())
    def test_involution_and_multiset(self, path):
        back = reverse_path(reverse_path(path))
        assert back.codes == path.codes
        assert sorted(reverse_path(path).codes) == sorted(path.codes)

    @given(paths())
    def test_step_sequence_reverses(self, path):
        def steps(p):
            return [(a ^ b).bit_count() for a, b in zip(p.codes, p.codes[1:])]

        assert steps(reverse_path(path)) == steps(path)[::-1]
