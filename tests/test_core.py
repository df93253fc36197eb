import pytest

from leaper_cycles.core import (
    DEFAULT_MAX_K,
    HARD_MAX_K,
    MAX_K_ENV,
    CapacityError,
    VertexPath,
    check_dimension,
    max_k,
)

from reference_tours import path_of


class TestVertexPath:
    def test_round_trip_tuples(self):
        rows = [(0, 1, 1), (1, 1, 0)]
        path = path_of(rows)
        assert path.to_tuples() == rows

    def test_leftmost_coordinate_is_bit_zero(self):
        assert VertexPath(3, (1, 4)).to_tuples() == [(1, 0, 0), (0, 0, 1)]

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            VertexPath(0, ())


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
