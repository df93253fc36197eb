"""Fairy-chess (a,b)-leapers on hypercube corners.

A leaper that jumps a units along one axis and b along another realizes,
between corners of {0,1}^k, exactly the change-(a*a+b*b) move. Closed
leaper tours therefore exist iff a+b is odd (an even a+b makes every leap
parity-preserving) and k exceeds a*a+b*b.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructor import Feasibility, FeasibilityVerdict, feasibility

CATALOG: dict[str, tuple[int, int]] = {
    "wazir": (0, 1),
    "ferz": (1, 1),
    "dabbaba": (0, 2),
    "knight": (1, 2),
    "alfil": (2, 2),
    "threeleaper": (0, 3),
    "camel": (1, 3),
    "zebra": (2, 3),
    "tripper": (3, 3),
    "fourleaper": (0, 4),
    "giraffe": (1, 4),
    "stag": (2, 4),
    "antelope": (3, 4),
    "commuter": (4, 4),
}


class UnknownLeaperError(ValueError):
    """Name not in the catalog; the message lists what is."""


class _LeaperFields(NamedTuple):
    a: int
    b: int
    name: str | None = None


class LeaperSpec(_LeaperFields):
    """An (a,b) jump pattern; the name is cosmetic.

    Requires 0 <= a <= b and b >= 1. The components are not reordered:
    (2,1) raises ValueError.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, a: int, b: int, name: str | None = None) -> LeaperSpec:
        if a < 0 or b < 1:
            raise ValueError(f"need a >= 0 and b >= 1, got ({a},{b})")
        if a > b:
            raise ValueError(f"leaper components must satisfy a <= b, got ({a},{b})")
        return super().__new__(cls, a, b, name)

    def label(self) -> str:
        base = f"(a={self.a}, b={self.b})"
        return f"{self.name} {base}" if self.name else base


def leaper_by_name(name: str) -> LeaperSpec:
    """Catalog lookup, case-insensitive."""
    key = name.strip().lower()
    if key not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise UnknownLeaperError(f"unknown leaper {name!r}; catalog: {known}")
    a, b = CATALOG[key]
    return LeaperSpec(a, b, key)


def leaper_step(spec: LeaperSpec) -> int:
    """Coordinates flipped per jump between corners: a*a + b*b."""
    return spec.a * spec.a + spec.b * spec.b


def min_dimension(spec: LeaperSpec) -> int | None:
    """Smallest k with a closed tour, or None if no dimension works."""
    if (spec.a + spec.b) % 2 == 0:
        return None
    return leaper_step(spec) + 1


def leaper_feasible(spec: LeaperSpec, k: int) -> FeasibilityVerdict:
    """Closed-tour feasibility of this leaper in {0,1}^k.

    This is the verdict on the change-(a*a+b*b) move, with one change: the
    parity obstruction is permanent, so it is reported ahead of the
    k-dependent range obstruction. (a*a+b*b is even exactly when a+b is.)
    """
    verdict = feasibility(k, leaper_step(spec))
    if verdict.status is Feasibility.INFEASIBLE_RANGE and min_dimension(spec) is None:
        return FeasibilityVerdict(
            Feasibility.INFEASIBLE_PARITY,
            f"{spec.label()} can never tour: a+b is even, so every leap "
            f"preserves vertex parity",
        )
    return verdict
