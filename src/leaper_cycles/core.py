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

DEFAULT_MAX_K = 28
HARD_MAX_K = 64
MAX_K_ENV = "LEAPER_CYCLES_MAX_K"


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

    def __len__(self) -> int:
        return len(self.codes)

    def to_tuples(self) -> list[tuple[int, ...]]:
        """Coordinate rows, leftmost coordinate (bit 0) first."""
        k = self.k
        return [tuple((c >> i) & 1 for i in range(k)) for c in self.codes]
