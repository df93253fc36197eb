"""Feasibility decisions and construction of change-h Hamiltonian cycles.

A closed tour whose every step flips exactly h of the k coordinates exists
iff h is odd and 1 <= h <= k-1 (and k >= 2). :func:`construct` builds it
in one closed-form pass and verifies it once. The paper's base case (the
change-1 tour of {0,1}^(h+1) with every odd-index vertex complemented) plus
lifting (one dimension per lift) stays as the reference tests compare with.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import VertexPath, check_dimension
from .graycode import gray_tour
from .transforms import (
    append_coordinate,
    complement_odd_indices,
    flip_prefix_path,
    reverse_path,
)
from .verifier import verify_cycle


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_PARITY = "infeasible-parity"
    INFEASIBLE_RANGE = "infeasible-range"
    INFEASIBLE_DIMENSION = "infeasible-dimension"


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: Feasibility
    detail: str

    @property
    def feasible(self) -> bool:
        return self.status is Feasibility.FEASIBLE


@dataclass(frozen=True)
class CycleCertificate:
    """A change-h Hamiltonian cycle that has passed the verifier."""

    k: int
    h: int
    path: VertexPath


def feasibility(k: int, h: int) -> FeasibilityVerdict:
    """Decide whether a change-h Hamiltonian cycle exists in {0,1}^k.

    The answer is total over k >= 1, h >= 1 and names the obstruction:
    k < 2 leaves no room for a cycle, h >= k cannot move past the antipodal
    pair, and an even h preserves vertex parity so only half the vertices
    are ever reachable.
    """
    if k < 1 or h < 1:
        raise ValueError(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    if k < 2:
        return FeasibilityVerdict(
            Feasibility.INFEASIBLE_DIMENSION,
            "dimension 1 has only two vertices and one edge, which a closed "
            "tour would have to reuse",
        )
    if h >= k:
        return FeasibilityVerdict(
            Feasibility.INFEASIBLE_RANGE,
            f"no change-{h} cycle in dimension {k}: a step can flip at most "
            f"k coordinates, and flipping all k only shuttles between a "
            f"vertex and its antipode",
        )
    if h % 2 == 0:
        return FeasibilityVerdict(
            Feasibility.INFEASIBLE_PARITY,
            f"no change-{h} cycle in dimension {k}: an even step size "
            f"preserves coordinate-sum parity, so only half of {{0,1}}^{k} "
            f"is reachable from any start",
        )
    return FeasibilityVerdict(
        Feasibility.FEASIBLE,
        f"change-{h} cycles exist in dimension {k}: h is odd and below k",
    )


def base_cycle(h: int) -> CycleCertificate:
    """Smallest-dimension change-h cycle: dimension 2 for h=1, else h+1.

    For odd h >= 3 the cycle is the change-1 tour of {0,1}^(h+1) with every
    odd-index vertex replaced by its antipode; h+1 is even, so the
    complemented vertices permute the odd vertices instead of colliding.
    """
    if h < 1 or h % 2 == 0:
        raise ValueError(f"base cycle needs an odd step size, got h={h}")
    if h == 1:
        path = gray_tour(2)
        return _certify(2, 1, path)
    k = h + 1
    check_dimension(k)
    path = complement_odd_indices(gray_tour(k))
    return _certify(k, h, path)


def lift(cycle: CycleCertificate) -> CycleCertificate:
    """Raise a change-h cycle one dimension, keeping the step size.

    The cycle is duplicated with a new rightmost coordinate of 0 and of 1;
    the 1-copy has its leftmost h-1 coordinates flipped and is reversed;
    concatenating the two halves closes up with a bridge and a return edge
    that both flip exactly h coordinates.
    """
    if cycle.k < cycle.h + 1:
        raise ValueError(
            f"cannot lift a change-{cycle.h} cycle in dimension {cycle.k}"
        )
    check_dimension(cycle.k + 1)
    low_half = append_coordinate(cycle.path, 0)
    high_half = append_coordinate(cycle.path, 1)
    flipped = flip_prefix_path(high_half, cycle.h - 1)
    mirrored = reverse_path(flipped)
    joined = VertexPath(cycle.k + 1, low_half.codes + mirrored.codes)
    return _certify(cycle.k + 1, cycle.h, joined)


def construct(k: int, h: int) -> CycleCertificate | FeasibilityVerdict:
    """Build a verified change-h Hamiltonian cycle in {0,1}^k, if one exists.

    Returns the infeasibility verdict otherwise. For h=1 the change-1 tour
    is the cycle. For odd h >= 3, lifting the base cycle k-(h+1) times
    unrolls to 2**(k-h-1) blocks: block t has the Gray code of t in its
    high bits over the base cycle, which is reversed with its leftmost
    h-1 coordinates flipped when t is odd. The output is deterministic.
    """
    check_dimension(k)
    verdict = feasibility(k, h)
    if not verdict.feasible:
        return verdict
    if h == 1:
        return _certify(k, 1, gray_tour(k))
    b = h + 1
    base = complement_odd_indices(gray_tour(b))
    even, odd = base.codes, flip_prefix_path(reverse_path(base), h - 1).codes
    codes = tuple(
        (t ^ (t >> 1)) << b | c
        for t in range(1 << (k - b))
        for c in (odd if t & 1 else even)
    )
    return _certify(k, h, VertexPath(k, codes))


def _certify(k: int, h: int, path: VertexPath) -> CycleCertificate:
    report = verify_cycle(path, h)
    if not report.valid:
        raise RuntimeError(
            f"constructed change-{h} path in dimension {k} failed "
            f"verification ({report.violations[0]}); this is a bug"
        )
    return CycleCertificate(k=k, h=h, path=path)
