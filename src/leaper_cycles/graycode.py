"""The change-1 closed tour of {0,1}^k: the reflected binary sequence.

Every construction in the library starts from this tour. Two equivalent
generators are provided: the closed-form index map ``j ^ (j >> 1)`` and one
round of the duplicate/reverse/concatenate reflection, so each can be
tested against the other.
"""

from __future__ import annotations

from .core import VertexPath, check_dimension
from .verifier import verify_cycle


def gray_code(j: int) -> int:
    """Code of the j-th vertex on the change-1 tour."""
    return j ^ (j >> 1)


def gray_tour(k: int) -> VertexPath:
    """Closed change-1 tour of {0,1}^k starting at the all-zeros vertex.

    Consecutive vertices differ in exactly one coordinate, and so do the
    last vertex and the first.
    """
    check_dimension(k)
    return VertexPath(k, tuple(j ^ (j >> 1) for j in range(1 << k)))


def reflect_extend(path: VertexPath) -> VertexPath:
    """One reflection round: lift a change-1 tour from dimension k to k+1.

    The input is duplicated with a new rightmost coordinate of 0 and of 1,
    the 1-copy is reversed, and the two halves are concatenated. Raises
    ValueError unless the input really is a full change-1 closed tour.
    """
    check_dimension(path.k + 1)
    report = verify_cycle(path, 1)
    if not report.valid:
        raise ValueError(
            f"not a closed change-1 tour of dimension {path.k}: "
            f"{report.violations[0]}"
        )
    top = 1 << path.k
    mirrored = tuple(c | top for c in reversed(path.codes))
    return VertexPath(path.k + 1, path.codes + mirrored)

