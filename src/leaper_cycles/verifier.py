"""Independent validation of constant-step Hamiltonian cycles.

This module is the acceptance gate for every constructed cycle and every
external input. It deliberately shares nothing with the construction
pipeline beyond the core vertex model, so a construction bug cannot
certify its own output.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .core import VertexPath

WRONG_LENGTH = "WrongLength"
DUPLICATE_VERTEX = "DuplicateVertex"
WRONG_STEP = "WrongStep"
OPEN_ENDPOINTS = "OpenEndpoints"
DIMENSION_OVERFLOW = "DimensionOverflow"

_KEPT_VIOLATIONS = 1000  # violations a report keeps; the rest are only counted


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
    """The verdict: ``total`` violations, of which the first (at most
    1,000) are kept in ``violations``, in report order."""

    valid: bool
    violations: tuple[Violation, ...]
    total: int


def verify_cycle(path: VertexPath, h: int) -> VerifyReport:
    """Check that ``path`` is a closed change-h Hamiltonian cycle.

    Valid means: length 2**k, every code inside the dimension, no vertex
    repeated, every consecutive step flips exactly h coordinates, and the
    closing edge from the last vertex back to the first does too.
    Every violation is counted rather than stopping at the first, so
    corrupted inputs can be reported precisely; the report keeps the
    first 1,000 in order, so its size does not grow with the input.
    """
    checker = CycleChecker(path.k, h)
    checker.feed(path.codes)
    return checker.finish()


class CycleChecker:
    """:func:`verify_cycle` over a path fed one chunk of codes at a time.

    Across chunks it carries the presence table, the first and last codes,
    the count so far and the violations at their indices in the whole
    path, keeping the first 1,000 of each kind of check and counting the
    rest, so however the path is split, :meth:`finish` reports what
    ``verify_cycle`` reports for the whole: the length, then repeated and
    out-of-range vertices by index, then the steps, then the closing edge.
    """

    def __init__(self, k: int, h: int) -> None:
        if h < 1:
            raise ValueError(f"step size must be a positive integer, got {h}")
        self._h = h
        self._n = 1 << k
        # Presence table of one byte per vertex bounds duplicate detection
        # at O(2**k) time and 2**k bytes.
        self._seen = bytearray(self._n)
        self._count = 0
        self._first = self._last = 0
        self._presence: list[Violation] = []
        self._steps: list[Violation] = []
        self._dropped = 0

    def feed(self, codes: Sequence[int]) -> None:
        """Check the next ``codes`` of the path."""
        if not codes:
            return
        n, h, seen, base = self._n, self._h, self._seen, self._count
        keep, presence, steps = self._keep, self._presence, self._steps
        for i, c in enumerate(codes, base):
            if not 0 <= c < n:
                keep(presence, DIMENSION_OVERFLOW, i)
            elif seen[c]:
                keep(presence, DUPLICATE_VERTEX, i)
            else:
                seen[c] = 1

        if not base:
            self._first = codes[0]
        elif (self._last ^ codes[0]).bit_count() != h:
            keep(steps, WRONG_STEP, (base - 1, base))
        for i in range(len(codes) - 1):
            if (codes[i] ^ codes[i + 1]).bit_count() != h:
                keep(steps, WRONG_STEP, (base + i, base + i + 1))
        self._last = codes[-1]
        self._count = base + len(codes)

    def finish(self) -> VerifyReport:
        """The report on the codes fed so far, taken as the whole path."""
        count = self._count
        violations = [] if count == self._n else [Violation(WRONG_LENGTH, count)]
        violations += self._presence
        violations += self._steps
        if count and (self._last ^ self._first).bit_count() != self._h:
            violations.append(Violation(OPEN_ENDPOINTS, (count - 1, 0)))
        # Each list kept its first _KEPT_VIOLATIONS, so the first
        # _KEPT_VIOLATIONS of the joined list are those of the whole report.
        return VerifyReport(
            valid=not violations,
            violations=tuple(violations[:_KEPT_VIOLATIONS]),
            total=len(violations) + self._dropped,
        )

    def _keep(self, kept: list[Violation], kind: str, where: int | tuple[int, int]) -> None:
        if len(kept) < _KEPT_VIOLATIONS:
            kept.append(Violation(kind, where))
        else:
            self._dropped += 1
