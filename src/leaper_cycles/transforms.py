"""Path-level rewriting steps of the paper's base case and lifting.

Production builds cycles from the closed form in ``constructor``; these
steps serve ``base_cycle`` and ``lift``, the reference the tests compare
that closed form with. All four transforms are total mechanical
functions: they never check that the input or output is a valid tour
(that is the verifier's job), which keeps them composable and lets tests
exercise the failure cases, e.g. complementing odd indices in an odd
dimension.
"""

from __future__ import annotations

from .core import VertexPath, check_dimension


def complement_odd_indices(path: VertexPath) -> VertexPath:
    """Replace each odd-index vertex by its antipode.

    Applied to a change-1 closed tour of even dimension k this yields a
    change-(k-1) closed tour on the same vertex set; in odd dimension it
    collides vertices instead.
    """
    mask = (1 << path.k) - 1
    return VertexPath(
        path.k,
        tuple(c ^ mask if i & 1 else c for i, c in enumerate(path.codes)),
    )


def append_coordinate(path: VertexPath, bit: int) -> VertexPath:
    """Append a constant rightmost coordinate, lifting the path to k+1.

    Pairwise flip counts are unchanged; the two lifts with bit 0 and bit 1
    partition {0,1}^(k+1) whenever the input covers {0,1}^k.
    """
    if bit not in (0, 1):
        raise ValueError(f"appended coordinate must be 0 or 1, got {bit!r}")
    check_dimension(path.k + 1)
    high = bit << path.k
    return VertexPath(path.k + 1, tuple(c | high for c in path.codes))


def flip_prefix_path(path: VertexPath, m: int) -> VertexPath:
    """Flip the leftmost m coordinates of every vertex.

    XOR with a fixed mask is an isometry: every pairwise flip count is
    preserved. Involution for fixed m.
    """
    if not 0 <= m <= path.k:
        raise ValueError(f"prefix length {m} out of range for dimension {path.k}")
    mask = (1 << m) - 1
    return VertexPath(path.k, tuple(c ^ mask for c in path.codes))


def reverse_path(path: VertexPath) -> VertexPath:
    """Reverse the vertex order; the step-size sequence reverses with it."""
    return VertexPath(path.k, tuple(reversed(path.codes)))
