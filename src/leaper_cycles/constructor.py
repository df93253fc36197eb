"""Feasibility decisions and construction of change-h Hamiltonian cycles.

A closed tour whose every step flips exactly h of the k coordinates exists
iff h is odd and 1 <= h <= k-1 (and k >= 2). :func:`construct_chunks`
builds it from a closed form a piece of codes at a time, the first an
``array`` of unsigned lanes and each later one a :class:`~.core.Translate`
of it, and checks each piece as it passes, so a caller that writes the
pieces out never holds the whole path; :func:`construct` joins the
checked pieces into one path of Python ints. The paper's base case (the
change-1 tour of {0,1}^(h+1) with every odd-index vertex complemented)
plus lifting (one dimension per lift) is no production route: it is the
reference the tests compare with, and it stays here, with the transforms
it calls, while the bench's tracer wraps these names.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from enum import Enum
from itertools import chain, islice
from typing import NamedTuple

from . import core
from .core import VertexPath, check_dimension, lane_typecode
from .graycode import gray_tour
from .transforms import (
    append_coordinate,
    complement_odd_indices,
    flip_prefix_path,
    reverse_path,
)
from .verifier import CycleChecker, VerifyReport, verify_cycle


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_PARITY = "infeasible-parity"
    INFEASIBLE_RANGE = "infeasible-range"
    INFEASIBLE_DIMENSION = "infeasible-dimension"


class FeasibilityVerdict(NamedTuple):
    status: Feasibility
    detail: str

    @property
    def feasible(self) -> bool:
        return self.status is Feasibility.FEASIBLE


class CycleCertificate(NamedTuple):
    """A change-h Hamiltonian cycle that has passed the verifier."""

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
        return _certify(1, gray_tour(2))
    return _certify(h, complement_odd_indices(gray_tour(h + 1)))


def lift(cycle: CycleCertificate) -> CycleCertificate:
    """Raise a change-h cycle one dimension, keeping the step size.

    The cycle is duplicated with a new rightmost coordinate of 0 and of 1;
    the 1-copy has its leftmost h-1 coordinates flipped and is reversed;
    concatenating the two halves closes up with a bridge and a return edge
    that both flip exactly h coordinates.
    """
    k, h = cycle.path.k, cycle.h
    if k < h + 1:
        raise ValueError(f"cannot lift a change-{h} cycle in dimension {k}")
    check_dimension(k + 1)
    low_half = append_coordinate(cycle.path, 0)
    high_half = append_coordinate(cycle.path, 1)
    flipped = flip_prefix_path(high_half, h - 1)
    mirrored = reverse_path(flipped)
    joined = VertexPath(k + 1, low_half.codes + mirrored.codes)
    return _certify(h, joined)


def construct(k: int, h: int) -> CycleCertificate | FeasibilityVerdict:
    """Build a verified change-h Hamiltonian cycle in {0,1}^k, if one exists.

    Returns the infeasibility verdict otherwise. The path joins the checked
    chunks that :func:`construct_chunks` yields; the output is deterministic.
    """
    chunks = construct_chunks(k, h)
    if isinstance(chunks, FeasibilityVerdict):
        return chunks
    return CycleCertificate(h=h, path=VertexPath(k, tuple(chain.from_iterable(chunks))))


def construct_chunks(k: int, h: int) -> Iterator[Sequence[int]] | FeasibilityVerdict:
    """The codes of the change-h cycle of {0,1}^k in chunks, or the verdict.

    A chunk is an ``array`` of the lanes :func:`~.core.lane_typecode`
    names for ``k``, or, past the first, a :class:`~.core.Translate` of
    it. The ceiling and feasibility are checked before this returns. Each
    chunk is fed to a :class:`CycleChecker` before it is yielded, and the
    iterator raises RuntimeError after the last chunk if the whole path
    fails the check, so a caller writing the chunks out commits nothing
    until the iterator is exhausted.
    """
    check_dimension(k)
    verdict = feasibility(k, h)
    if not verdict.feasible:
        return verdict
    return _checked_chunks(k, h)


def _checked_chunks(k: int, h: int) -> Iterator[Sequence[int]]:
    checker = CycleChecker(k, h)
    for chunk in _code_chunks(k, h):
        checker.feed(chunk)
        yield chunk
    report = checker.finish()
    if not report.valid:
        raise _bug(k, h, report)


def _code_chunks(k: int, h: int) -> Iterator[Sequence[int]]:
    """The codes of the change-h cycle of {0,1}^k, in pieces of at most
    :data:`~.core.PIECE_CODES`.

    :func:`_code` is GF(2)-linear in the index, so the first piece is
    built by doubling, codes ``[2**i, 2**(i+1))`` being ``_code(h, 2**i)``
    xor'ed onto codes ``[0, 2**i)``, and the piece starting at index j is
    the first piece with ``_code(h, j)`` xor'ed onto every code: the
    :class:`~.core.Translate` by ``_code(h, j)`` of the first piece's
    :class:`~.core.Template`, made in O(1).
    """
    size = min(1 << k, core.PIECE_CODES)
    codes = [0]
    while len(codes) < size:
        # islice reads only the codes already there as the list grows.
        codes.extend(map(_code(h, len(codes)).__xor__, islice(codes, len(codes))))
    lanes = array(lane_typecode(k), codes)
    del codes
    template = core.Template(lanes, k)
    yield lanes
    for start in range(size, 1 << k, size):
        yield template.translate(_code(h, start))


def _code(h: int, j: int) -> int:
    """The code at index j of the change-h cycle.

    Lifting the base cycle k-(h+1) times unrolls to a GF(2)-linear map of
    the index: code(j) = g(j) ^ (M if j is odd) ^ (S if bit h+1 of j is
    set), with g(x) = x ^ (x >> 1), M = 2**(h+1) - 1 and S = 3 << (h-1);
    for h = 1 the change-1 tour is the cycle, code(j) = g(j).
    """
    gray = j ^ (j >> 1)
    if h == 1:
        return gray
    b = h + 1
    return gray ^ ((1 << b) - 1 if j & 1 else 0) ^ (3 << (h - 1) if j >> b & 1 else 0)


def _certify(h: int, path: VertexPath) -> CycleCertificate:
    report = verify_cycle(path, h)
    if not report.valid:
        raise _bug(path.k, h, report)
    return CycleCertificate(h=h, path=path)


def _bug(k: int, h: int, report: VerifyReport) -> RuntimeError:
    return RuntimeError(
        f"constructed change-{h} path in dimension {k} failed "
        f"verification ({report.violations[0]}); this is a bug"
    )
