import random
from array import array
from types import SimpleNamespace

import pytest

import leaper_cycles.core
from leaper_cycles.core import (
    DEFAULT_MAX_K,
    HARD_MAX_K,
    MAX_K_ENV,
    CapacityError,
    VertexPath,
    check_dimension,
    lane_typecode,
    max_k,
    pack,
    unpack,
)

from reference_tours import packed, path_of, rows_of


class TestVertexPath:
    def test_round_trip_tuples(self):
        rows = [(0, 1, 1), (1, 1, 0)]
        path = path_of(rows)
        assert rows_of(path) == rows

    def test_leftmost_coordinate_is_bit_zero(self):
        assert rows_of(VertexPath(3, (1, 4))) == [(1, 0, 0), (0, 0, 1)]

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


def test_lane_is_the_narrowest_of_four_that_holds_k_bits():
    for k in range(1, HARD_MAX_K + 1):
        holds = [code for code in "BHIQ" if 8 * array(code).itemsize >= k]
        assert lane_typecode(k) == holds[0], k


@pytest.mark.parametrize("k", [1, 8, 9, 16, 17, 32, 33, 64])
def test_pack_puts_lane_i_at_bits_i_times_its_width(k, monkeypatch):
    typecode = lane_typecode(k)
    itemsize = array(typecode).itemsize
    rng = random.Random(k)
    codes = [0, 1, (1 << k) - 1, *(rng.getrandbits(k) for _ in range(29))]
    lanes = array(typecode, codes)
    want = packed(codes, itemsize)
    assert pack(lanes) == want
    assert unpack(want, typecode, len(codes)) == lanes
    # On a big-endian host each lane's bytes run the other way round.
    swapped = array(typecode, codes)
    swapped.byteswap()
    monkeypatch.setattr(leaper_cycles.core, "sys", SimpleNamespace(byteorder="big"))
    before = swapped.tobytes()
    assert pack(swapped) == want
    assert swapped.tobytes() == before  # pack swaps a copy
    assert unpack(want, typecode, len(codes)) == swapped
