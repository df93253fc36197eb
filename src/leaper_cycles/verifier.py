"""Independent validation of constant-step Hamiltonian cycles.

This module is the acceptance gate for every constructed cycle and every
external input. It deliberately shares nothing with the construction
pipeline beyond the core vertex model, so a construction bug cannot
certify its own output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import VertexPath

WRONG_LENGTH = "WrongLength"
DUPLICATE_VERTEX = "DuplicateVertex"
WRONG_STEP = "WrongStep"
OPEN_ENDPOINTS = "OpenEndpoints"
DIMENSION_OVERFLOW = "DimensionOverflow"


@dataclass(frozen=True)
class Violation:
    """One rule breach: its kind and the index (or index pair) at fault.

    For WrongLength, ``where`` is the offending length itself.
    """

    kind: str
    where: int | tuple[int, int]

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}"


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...]


def verify_cycle(path: VertexPath, h: int) -> VerifyReport:
    """Check that ``path`` is a closed change-h Hamiltonian cycle.

    Valid means: length 2**k, every code inside the dimension, no vertex
    repeated, every consecutive step flips exactly h coordinates, and the
    closing edge from the last vertex back to the first does too.
    Violations are collected exhaustively rather than stopping at the
    first, so corrupted inputs can be reported precisely.
    """
    if h < 1:
        raise ValueError(f"step size must be a positive integer, got {h}")
    k = path.k
    n = 1 << k
    codes = path.codes
    violations: list[Violation] = []

    if len(codes) != n:
        violations.append(Violation(WRONG_LENGTH, len(codes)))

    # Presence table of one byte per vertex bounds duplicate detection at
    # O(2**k) time and 2**k bytes.
    seen = bytearray(n)
    for i, c in enumerate(codes):
        if not 0 <= c < n:
            violations.append(Violation(DIMENSION_OVERFLOW, i))
        elif seen[c]:
            violations.append(Violation(DUPLICATE_VERTEX, i))
        else:
            seen[c] = 1

    for i in range(len(codes) - 1):
        if (codes[i] ^ codes[i + 1]).bit_count() != h:
            violations.append(Violation(WRONG_STEP, (i, i + 1)))
    if codes and (codes[-1] ^ codes[0]).bit_count() != h:
        violations.append(Violation(OPEN_ENDPOINTS, (len(codes) - 1, 0)))

    return VerifyReport(valid=not violations, violations=tuple(violations))
