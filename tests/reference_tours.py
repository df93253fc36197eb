"""Frozen reference sequences for the golden regression tests, and the
helpers that compare paths with them.

Coordinates are written leftmost first. Every sequence below was checked
by hand against the step rules (unit steps for the change-1 tours, the
odd-index antipode rule, the append/flip/reverse lift stages) before
being frozen, so the tests pin the construction bit for bit.
"""

from leaper_cycles.core import VertexPath, check_dimension
from leaper_cycles.verifier import verify_cycle


def path_of(rows):
    """The path whose vertices are these coordinate rows, leftmost at bit 0."""
    codes = tuple(sum(c << i for i, c in enumerate(row)) for row in rows)
    return VertexPath(len(rows[0]), codes)


def rows_of(path):
    """The coordinate rows of ``path``, leftmost (bit 0) first: the inverse of path_of."""
    k = path.k
    return [tuple((c >> i) & 1 for i in range(k)) for c in path.codes]


def reflect_extend(path):
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


DIM2_UNIT_TOUR = [
    (0, 0), (1, 0), (1, 1), (0, 1),
]

DIM3_UNIT_TOUR = [
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1),
]

DIM4_UNIT_TOUR = [
    (0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0),
    (0, 1, 1, 0), (1, 1, 1, 0), (1, 0, 1, 0), (0, 0, 1, 0),
    (0, 0, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1), (0, 1, 1, 1),
    (0, 1, 0, 1), (1, 1, 0, 1), (1, 0, 0, 1), (0, 0, 0, 1),
]

# DIM4_UNIT_TOUR with every odd-index vertex replaced by its antipode:
# a change-3 closed tour of {0,1}^4.
DIM4_STEP3_TOUR = [
    (0, 0, 0, 0), (0, 1, 1, 1), (1, 1, 0, 0), (1, 0, 1, 1),
    (0, 1, 1, 0), (0, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 1),
    (0, 0, 1, 1), (0, 1, 0, 0), (1, 1, 1, 1), (1, 0, 0, 0),
    (0, 1, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 0),
]

# The four lift stages taking DIM4_STEP3_TOUR into dimension 5.
STAGE_APPEND0 = [
    (0, 0, 0, 0, 0), (0, 1, 1, 1, 0), (1, 1, 0, 0, 0), (1, 0, 1, 1, 0),
    (0, 1, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 1, 0, 1, 0),
    (0, 0, 1, 1, 0), (0, 1, 0, 0, 0), (1, 1, 1, 1, 0), (1, 0, 0, 0, 0),
    (0, 1, 0, 1, 0), (0, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 1, 1, 0, 0),
]

STAGE_APPEND1 = [
    (0, 0, 0, 0, 1), (0, 1, 1, 1, 1), (1, 1, 0, 0, 1), (1, 0, 1, 1, 1),
    (0, 1, 1, 0, 1), (0, 0, 0, 1, 1), (1, 0, 1, 0, 1), (1, 1, 0, 1, 1),
    (0, 0, 1, 1, 1), (0, 1, 0, 0, 1), (1, 1, 1, 1, 1), (1, 0, 0, 0, 1),
    (0, 1, 0, 1, 1), (0, 0, 1, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 0, 1),
]

# STAGE_APPEND1 with the leftmost two coordinates flipped.
STAGE_PREFIX_FLIPPED = [
    (1, 1, 0, 0, 1), (1, 0, 1, 1, 1), (0, 0, 0, 0, 1), (0, 1, 1, 1, 1),
    (1, 0, 1, 0, 1), (1, 1, 0, 1, 1), (0, 1, 1, 0, 1), (0, 0, 0, 1, 1),
    (1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (0, 0, 1, 1, 1), (0, 1, 0, 0, 1),
    (1, 0, 0, 1, 1), (1, 1, 1, 0, 1), (0, 1, 0, 1, 1), (0, 0, 1, 0, 1),
]

STAGE_REVERSED = [
    (0, 0, 1, 0, 1), (0, 1, 0, 1, 1), (1, 1, 1, 0, 1), (1, 0, 0, 1, 1),
    (0, 1, 0, 0, 1), (0, 0, 1, 1, 1), (1, 0, 0, 0, 1), (1, 1, 1, 1, 1),
    (0, 0, 0, 1, 1), (0, 1, 1, 0, 1), (1, 1, 0, 1, 1), (1, 0, 1, 0, 1),
    (0, 1, 1, 1, 1), (0, 0, 0, 0, 1), (1, 0, 1, 1, 1), (1, 1, 0, 0, 1),
]

# The joined change-3 Hamiltonian cycle of {0,1}^5: STAGE_APPEND0 followed
# by STAGE_REVERSED, closing back to the all-zeros vertex with 3 flips.
DIM5_STEP3_TOUR = [
    (0, 0, 0, 0, 0), (0, 1, 1, 1, 0), (1, 1, 0, 0, 0), (1, 0, 1, 1, 0),
    (0, 1, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 1, 0, 1, 0),
    (0, 0, 1, 1, 0), (0, 1, 0, 0, 0), (1, 1, 1, 1, 0), (1, 0, 0, 0, 0),
    (0, 1, 0, 1, 0), (0, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 1, 1, 0, 0),
    (0, 0, 1, 0, 1), (0, 1, 0, 1, 1), (1, 1, 1, 0, 1), (1, 0, 0, 1, 1),
    (0, 1, 0, 0, 1), (0, 0, 1, 1, 1), (1, 0, 0, 0, 1), (1, 1, 1, 1, 1),
    (0, 0, 0, 1, 1), (0, 1, 1, 0, 1), (1, 1, 0, 1, 1), (1, 0, 1, 0, 1),
    (0, 1, 1, 1, 1), (0, 0, 0, 0, 1), (1, 0, 1, 1, 1), (1, 1, 0, 0, 1),
]
