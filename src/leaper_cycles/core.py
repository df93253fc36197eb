"""Bit-level model of the hypercube vertex set {0,1}^k.

A vertex is a k-tuple of 0/1 coordinates packed into an integer with the
*first* coordinate at bit 0. Under this convention the coordinate tuple
reads left to right from the low end of the word, and the change-1 tour of
{0,1}^k produced by :func:`leaper_cycles.graycode.gray_tour` is exactly the
sequence ``j ^ (j >> 1)``. All distances are squared-Euclidean, i.e. plain
coordinate-flip counts; nothing in the library touches floating point.
A chunk of codes is an ``array`` of the unsigned lanes :func:`lane_typecode`
names, the one lane width the generator, the checker, the parser and the
renderer share; :func:`pack` and :func:`unpack` are the one way lanes
become an integer and back. They share one piece length,
:data:`PIECE_CODES`, and a piece that is a first piece with one code
xor'ed onto every lane travels between them as a :class:`Translate`
of the first piece's :class:`Template`.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections.abc import Iterator, Sequence

DEFAULT_MAX_K = 28
HARD_MAX_K = 64
MAX_K_ENV = "LEAPER_CYCLES_MAX_K"
PIECE_CODES = 1 << 12  # codes generated, checked or rendered at once; a power of two


class CapacityError(ValueError):
    """A requested dimension exceeds the configured ceiling."""


def max_k() -> int:
    """Largest dimension accepted for 2**k-sized paths.

    Defaults to 28 (a path already holds 2**28 vertex codes); the
    ``LEAPER_CYCLES_MAX_K`` environment variable overrides it, but anything
    other than ASCII digits in [1, 64] is rejected rather than honored.
    """
    raw = os.environ.get(MAX_K_ENV)
    if raw is None:
        return DEFAULT_MAX_K
    try:
        value = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # more digits than the interpreter converts
        value = 0
    if not 1 <= value <= HARD_MAX_K:
        raise CapacityError(
            f"{MAX_K_ENV} must be ASCII digits in [1, {HARD_MAX_K}], got {raw!r}"
        )
    return value


def check_dimension(k: int) -> None:
    """Validate a dimension that will be materialized as 2**k vertices."""
    if k < 1:
        raise ValueError(f"dimension must be a positive integer, got {k}")
    ceiling = max_k()
    if k > ceiling:
        raise CapacityError(
            f"dimension {k} exceeds the ceiling {ceiling}; raise {MAX_K_ENV} "
            f"(hard limit {HARD_MAX_K}) to go higher"
        )


def lane_typecode(k: int) -> str:
    """The ``array`` typecode of the narrowest of the unsigned lanes
    ``'B'``, ``'H'``, ``'I'`` and ``'Q'`` that holds a k-bit code, chosen
    by itemsize; ``'Q'``, the widest, above 64 bits."""
    return next((code for code in "BHIQ" if array(code).itemsize * 8 >= k), "Q")


def pack(lanes: array) -> int:
    """The integer whose bits ``i * w`` to ``(i + 1) * w`` hold ``lanes[i]``,
    for lanes ``w`` bits wide, whatever the host's byte order."""
    if sys.byteorder == "big":
        lanes = array(lanes.typecode, lanes)
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def unpack(packed: int, typecode: str, count: int) -> array:
    """The inverse of :func:`pack`: the ``count`` lanes of ``packed`` as an
    ``array`` of ``typecode``."""
    lanes = array(typecode, packed.to_bytes(count * array(typecode).itemsize, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


class Translate(Sequence):
    """A read-only piece of ``count`` lanes of ``typecode``: the lanes
    :func:`pack` made ``packed`` with ``shift``, a code that fits a lane,
    xor'ed onto each; ``one`` has 1 in every lane. The checker and the
    ``ints`` renderer read ``packed`` and ``shift`` alone, in O(1); any
    other reader gets the lanes, unpacked when first read."""

    def __init__(self, packed: int, one: int, shift: int, typecode: str, count: int) -> None:
        self.packed, self.one, self.shift = packed, one, shift
        self.typecode, self._count = typecode, count  # not Sequence.count
        self._lanes: array | None = None

    def lanes(self) -> array:
        if self._lanes is None:
            self._lanes = unpack(self.packed ^ self.shift * self.one, self.typecode, self._count)
        return self._lanes

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int | slice) -> int | array:  # type: ignore[override]
        return self.lanes()[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.lanes())


class Template:
    """A first piece of codes in [0, 2**k), ``first``, whose translates,
    ``first`` with one code xor'ed onto every lane, are written or read
    by their shift: what the rows of translates of each encoding share.

    Each encoding's rows, :class:`~.decimal_rows.Translates` and
    :class:`~.document.TupleTranslates`, add what the body reader asks
    of them, all in ASCII bytes: ``text(shift)``, the rows of a translate
    joined by their separator, a ``bytearray`` or a view of one;
    ``row(code)``, the row of a code as the reader cuts it before its
    separator, at most ``width`` bytes; and ``code(row)``, the code of
    such a row, or None."""

    def __init__(self, first: Sequence[int], k: int) -> None:
        self.first, self.k = first, k
        self.typecode = lane_typecode(k)
        self.packed = pack(array(self.typecode, first))
        self.one = pack(array(self.typecode, [1]) * len(first))

    def shift_of(self, codes: Sequence[int]) -> int | None:
        """The code ``c < 2**k`` if ``codes`` are ``first`` with ``c`` xor'ed
        onto every lane, else None; a view of ``first`` says so in O(1)."""
        if len(codes) != len(self.first):
            return None
        if isinstance(codes, Translate):
            return codes.shift if codes.packed == self.packed else None
        shift = codes[0] ^ self.first[0]
        if shift >> self.k or pack(array(self.typecode, codes)) != self.packed ^ shift * self.one:
            return None
        return shift

    def translate(self, shift: int) -> Translate:
        """The translate by ``shift``, a code in [0, 2**k), as a view."""
        return Translate(self.packed, self.one, shift, self.typecode, len(self.first))


class VertexPath:
    """An ordered sequence of vertex codes in a fixed dimension.

    The container is deliberately permissive: codes are not checked for
    range or distinctness on construction (the verifier reports both as
    violations), which lets the path transforms stay cheap and lets tests
    build deliberately broken paths. It is no tuple: ``copy`` and ``pickle``
    would size a tuple's result by its ``len``, the code count.
    """

    __slots__ = ("k", "codes")
    __match_args__ = ("k", "codes")

    def __init__(self, k: int, codes: tuple[int, ...]) -> None:
        if k < 1:
            raise ValueError(f"path dimension must be positive, got {k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "codes", codes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.codes) == (other.k, other.codes)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.k, self.codes))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(k={self.k!r}, codes={self.codes!r})"

    def __reduce__(self) -> tuple[type[VertexPath], tuple[int, tuple[int, ...]]]:
        return type(self), (self.k, self.codes)

    def __len__(self) -> int:
        return len(self.codes)
