import pytest

from leaper_cycles.core import CapacityError, MAX_K_ENV, VertexPath
from leaper_cycles.graycode import gray_tour, reflect_extend
from leaper_cycles.verifier import verify_cycle

from reference_tours import DIM2_UNIT_TOUR, DIM3_UNIT_TOUR, DIM4_UNIT_TOUR


def test_dim1_tour():
    assert gray_tour(1).to_tuples() == [(0,), (1,)]


def test_dim2_tour_matches_reference():
    assert gray_tour(2).to_tuples() == DIM2_UNIT_TOUR


def test_dim3_tour_matches_reference():
    assert gray_tour(3).to_tuples() == DIM3_UNIT_TOUR


def test_dim4_tour_matches_reference():
    assert gray_tour(4).to_tuples() == DIM4_UNIT_TOUR


def test_index_formula():
    tour = gray_tour(8)
    for j, code in enumerate(tour.codes):
        assert code == j ^ (j >> 1)


@pytest.mark.parametrize("k", range(1, 13))
def test_unit_steps_and_closure(k):
    tour = gray_tour(k)
    assert len(tour) == 1 << k
    assert tour.codes[0] == 0
    assert verify_cycle(tour, 1).valid


@pytest.mark.parametrize("k", range(1, 13))
def test_parity_alternates_with_index(k):
    for j, code in enumerate(gray_tour(k).codes):
        assert code.bit_count() % 2 == j % 2


def test_reflection_matches_index_formula():
    path = gray_tour(1)
    for k in range(2, 17):
        path = reflect_extend(path)
        assert path.codes == gray_tour(k).codes


def test_reflect_extend_base_case():
    assert reflect_extend(gray_tour(1)).to_tuples() == DIM2_UNIT_TOUR


def test_reflect_extend_rejects_wrong_length():
    with pytest.raises(ValueError):
        reflect_extend(VertexPath(2, (0, 1, 3)))


def test_reflect_extend_rejects_repeats():
    with pytest.raises(ValueError):
        reflect_extend(VertexPath(2, (0, 1, 0, 1)))


def test_reflect_extend_rejects_non_unit_steps():
    with pytest.raises(ValueError):
        reflect_extend(VertexPath(2, (0, 1, 2, 3)))


def test_reflect_extend_rejects_overflowing_codes():
    with pytest.raises(ValueError):
        reflect_extend(VertexPath(1, (0, 7)))


def test_capacity(monkeypatch):
    monkeypatch.setenv(MAX_K_ENV, "5")
    with pytest.raises(CapacityError):
        gray_tour(6)
    with pytest.raises(CapacityError):
        reflect_extend(gray_tour(5))


def test_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        gray_tour(0)
