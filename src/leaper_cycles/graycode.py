"""The change-1 closed tour of {0,1}^k: the reflected binary sequence.

The paper's base case starts from this tour, generated by the closed-form
index map ``j ^ (j >> 1)``. The reflection round that builds it one
dimension at a time is the tests' reference for that map.
"""

from __future__ import annotations

from .core import VertexPath, check_dimension


def gray_tour(k: int) -> VertexPath:
    """Closed change-1 tour of {0,1}^k starting at the all-zeros vertex.

    Consecutive vertices differ in exactly one coordinate, and so do the
    last vertex and the first.
    """
    check_dimension(k)
    return VertexPath(k, tuple(j ^ (j >> 1) for j in range(1 << k)))
