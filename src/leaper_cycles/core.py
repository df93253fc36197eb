"""Bit-level model of the hypercube vertex set {0,1}^k.

A vertex is a k-tuple of 0/1 coordinates packed into an integer with the
*first* coordinate at bit 0. Under this convention the coordinate tuple
reads left to right from the low end of the word, and the change-1 tour of
{0,1}^k produced by :func:`leaper_cycles.graycode.gray_tour` is exactly the
sequence ``j ^ (j >> 1)``. All distances are squared-Euclidean, i.e. plain
coordinate-flip counts; nothing in the library touches floating point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

DEFAULT_MAX_K = 28
HARD_MAX_K = 64
MAX_K_ENV = "LEAPER_CYCLES_MAX_K"


class DimensionMismatch(ValueError):
    """Two operands live in different dimensions."""


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


def check_dimension(k: int) -> int:
    """Validate a dimension that will be materialized as 2**k vertices."""
    if k < 1:
        raise ValueError(f"dimension must be a positive integer, got {k}")
    ceiling = max_k()
    if k > ceiling:
        raise CapacityError(
            f"dimension {k} exceeds the ceiling {ceiling}; raise {MAX_K_ENV} "
            f"(hard limit {HARD_MAX_K}) to go higher"
        )
    return k


@dataclass(frozen=True)
class Vertex:
    """A point of {0,1}^k, packed with coordinate i (1-based) at bit i-1."""

    bits: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"vertex dimension must be positive, got {self.k}")
        if not 0 <= self.bits < (1 << self.k):
            raise ValueError(
                f"bits {self.bits:#x} out of range for dimension {self.k}"
            )

    @classmethod
    def from_tuple(cls, coords: Iterable[int]) -> "Vertex":
        coords = tuple(coords)
        if not coords:
            raise ValueError("a vertex needs at least one coordinate")
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError(f"coordinate {i + 1} must be 0 or 1, got {c!r}")
            bits |= c << i
        return cls(bits, len(coords))

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.k))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.to_tuple()) + ")"


def hamming(v: Vertex, w: Vertex) -> int:
    """Number of coordinates in which two vertices differ.

    This is the squared Euclidean distance between the corner points.
    """
    if v.k != w.k:
        raise DimensionMismatch(
            f"cannot compare a {v.k}-dimensional vertex with a {w.k}-dimensional one"
        )
    return (v.bits ^ w.bits).bit_count()


def parity(v: Vertex) -> int:
    """Coordinate-sum parity: 0 for an even vertex, 1 for an odd one."""
    return v.bits.bit_count() & 1


def complement(v: Vertex) -> Vertex:
    """Flip every coordinate; the result is the antipodal vertex."""
    return Vertex(v.bits ^ ((1 << v.k) - 1), v.k)


def flip_prefix(v: Vertex, m: int) -> Vertex:
    """Flip the leftmost m coordinates (bits 0..m-1), an involution."""
    if not 0 <= m <= v.k:
        raise ValueError(f"prefix length {m} out of range for dimension {v.k}")
    return Vertex(v.bits ^ ((1 << m) - 1), v.k)


@dataclass(frozen=True)
class VertexPath:
    """An ordered sequence of vertex codes in a fixed dimension.

    The container is deliberately permissive: codes are not checked for
    range or distinctness on construction (the verifier reports both as
    violations), which lets the path transforms stay cheap and lets tests
    build deliberately broken paths.
    """

    k: int
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"path dimension must be positive, got {self.k}")

    @classmethod
    def from_vertices(cls, vertices: Iterable[Vertex]) -> "VertexPath":
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("a path needs at least one vertex")
        k = vertices[0].k
        for v in vertices:
            if v.k != k:
                raise DimensionMismatch(
                    f"path mixes dimensions {k} and {v.k}"
                )
        return cls(k, tuple(v.bits for v in vertices))

    @classmethod
    def from_tuples(cls, rows: Iterable[Iterable[int]]) -> "VertexPath":
        return cls.from_vertices(Vertex.from_tuple(row) for row in rows)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> Vertex:
        return Vertex(self.codes[i], self.k)

    def __iter__(self) -> Iterator[Vertex]:
        for c in self.codes:
            yield Vertex(c, self.k)

    def to_tuples(self) -> list[tuple[int, ...]]:
        k = self.k
        return [tuple((c >> i) & 1 for i in range(k)) for c in self.codes]

    def has_distinct_vertices(self) -> bool:
        return len(set(self.codes)) == len(self.codes)

    def step_sizes(self) -> list[int]:
        """Flip counts of consecutive steps, closing edge excluded."""
        return [
            (a ^ b).bit_count() for a, b in zip(self.codes, self.codes[1:])
        ]

    def closing_step(self) -> int:
        """Flip count of the edge from the last vertex back to the first."""
        return (self.codes[-1] ^ self.codes[0]).bit_count()
