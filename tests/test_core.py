import pytest
from hypothesis import given
from hypothesis import strategies as st

from leaper_cycles.core import (
    DEFAULT_MAX_K,
    HARD_MAX_K,
    MAX_K_ENV,
    CapacityError,
    DimensionMismatch,
    Vertex,
    VertexPath,
    check_dimension,
    complement,
    flip_prefix,
    hamming,
    max_k,
    parity,
)


def v(*coords):
    return Vertex.from_tuple(coords)


@st.composite
def vertices(draw, max_dim=16):
    k = draw(st.integers(1, max_dim))
    bits = draw(st.integers(0, (1 << k) - 1))
    return Vertex(bits, k)


@st.composite
def vertex_pairs(draw, max_dim=16):
    k = draw(st.integers(1, max_dim))
    a = draw(st.integers(0, (1 << k) - 1))
    b = draw(st.integers(0, (1 << k) - 1))
    return Vertex(a, k), Vertex(b, k)


class TestHamming:
    def test_worked_example(self):
        assert hamming(v(0, 1, 1, 0, 1), v(0, 1, 0, 1, 0)) == 3

    def test_identity(self):
        w = v(1, 0, 1)
        assert hamming(w, w) == 0

    def test_full_complement_gives_k(self):
        assert hamming(v(0, 0, 0), v(1, 1, 1)) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hamming(v(0, 1), v(0, 1, 0))

    @given(vertex_pairs())
    def test_equals_popcount_of_xor(self, pair):
        a, b = pair
        assert hamming(a, b) == (a.bits ^ b.bits).bit_count()
        assert hamming(a, b) == hamming(b, a)


class TestParity:
    def test_examples(self):
        assert parity(v(0, 0, 0, 0)) == 0
        assert parity(v(1, 0, 0, 0)) == 1
        assert parity(v(1, 1, 0, 1)) == 1

    @given(vertices())
    def test_matches_coordinate_sum(self, w):
        assert parity(w) == sum(w.to_tuple()) % 2


class TestComplement:
    def test_examples(self):
        assert complement(v(0, 0, 0, 0)) == v(1, 1, 1, 1)
        assert complement(v(1, 0, 0, 0)) == v(0, 1, 1, 1)
        assert complement(v(0, 1)) == v(1, 0)

    @given(vertices())
    def test_involution_and_distance(self, w):
        assert complement(complement(w)) == w
        assert hamming(w, complement(w)) == w.k

    def test_parity_preserved_iff_k_even(self):
        # Exhaustive over every vertex of every dimension up to 10.
        for k in range(1, 11):
            for bits in range(1 << k):
                w = Vertex(bits, k)
                same = parity(complement(w)) == parity(w)
                assert same == (k % 2 == 0)


class TestFlipPrefix:
    def test_worked_example(self):
        assert flip_prefix(v(0, 0, 0, 0, 1), 2) == v(1, 1, 0, 0, 1)

    def test_zero_is_identity(self):
        w = v(1, 0, 1, 1)
        assert flip_prefix(w, 0) == w

    def test_full_prefix_is_complement(self):
        w = v(1, 0, 1)
        assert flip_prefix(w, 3) == complement(w)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            flip_prefix(v(0, 1), 3)

    @given(vertices(), st.data())
    def test_flip_count_and_involution(self, w, data):
        m = data.draw(st.integers(0, w.k))
        flipped = flip_prefix(w, m)
        assert hamming(w, flipped) == m
        assert flip_prefix(flipped, m) == w
        # parity flips exactly when an odd number of coordinates flips
        assert (parity(flipped) != parity(w)) == (m % 2 == 1)


class TestVertexEncoding:
    def test_round_trip_exhaustive(self):
        for k in range(1, 13):
            for bits in range(1 << k):
                w = Vertex(bits, k)
                assert Vertex.from_tuple(w.to_tuple()) == w

    def test_leftmost_coordinate_is_bit_zero(self):
        assert Vertex.from_tuple((1, 0, 0)).bits == 1
        assert Vertex.from_tuple((0, 0, 1)).bits == 4

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            Vertex.from_tuple((0, 2, 1))
        with pytest.raises(ValueError):
            Vertex.from_tuple(())

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Vertex(8, 3)
        with pytest.raises(ValueError):
            Vertex(-1, 3)
        with pytest.raises(ValueError):
            Vertex(0, 0)

    def test_str_form(self):
        assert str(v(0, 1, 1)) == "(0,1,1)"


class TestVertexPath:
    def test_from_vertices_infers_dimension(self):
        path = VertexPath.from_vertices([v(0, 0), v(1, 0)])
        assert path.k == 2
        assert path.codes == (0, 1)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            VertexPath.from_vertices([v(0, 0), v(1, 0, 0)])

    def test_round_trip_tuples(self):
        rows = [(0, 1, 1), (1, 1, 0)]
        path = VertexPath.from_tuples(rows)
        assert path.to_tuples() == rows

    def test_indexing_and_iteration(self):
        path = VertexPath(2, (0, 1, 3, 2))
        assert path[2] == Vertex(3, 2)
        assert [w.bits for w in path] == [0, 1, 3, 2]
        assert len(path) == 4

    def test_distinctness_is_on_demand(self):
        assert VertexPath(2, (0, 1, 0)).has_distinct_vertices() is False
        assert VertexPath(2, (0, 1, 2)).has_distinct_vertices() is True

    def test_step_helpers(self):
        path = VertexPath(2, (0, 1, 3, 2))
        assert path.step_sizes() == [1, 1, 1]
        assert path.closing_step() == 1


class TestDimensionCeiling:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(MAX_K_ENV, raising=False)
        assert max_k() == DEFAULT_MAX_K

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_K_ENV, "10")
        assert max_k() == 10
        with pytest.raises(CapacityError):
            check_dimension(11)

    def test_env_rejected_above_hard_limit(self, monkeypatch):
        monkeypatch.setenv(MAX_K_ENV, str(HARD_MAX_K + 1))
        with pytest.raises(CapacityError):
            max_k()

    def test_env_rejected_if_not_integer(self, monkeypatch):
        monkeypatch.setenv(MAX_K_ENV, "plenty")
        with pytest.raises(CapacityError):
            max_k()

    @pytest.mark.parametrize(
        "raw", ["\u0661\u0662", "1_2", "+12", pytest.param("1" * 5000, id="5000-digits")]
    )
    def test_env_rejected_if_not_ascii_digits(self, monkeypatch, raw):
        monkeypatch.setenv(MAX_K_ENV, raw)
        with pytest.raises(CapacityError, match=MAX_K_ENV):
            max_k()

    def test_check_dimension_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_dimension(0)
