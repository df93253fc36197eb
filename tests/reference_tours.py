"""Frozen reference sequences for the golden regression tests.

Coordinates are written leftmost first. Every sequence below was checked
by hand against the step rules (unit steps for the change-1 tours, the
odd-index antipode rule, the append/flip/reverse lift stages) before
being frozen, so the tests pin the construction bit for bit.
"""

from leaper_cycles.core import VertexPath


def path_of(rows):
    """The path whose vertices are these coordinate rows, leftmost at bit 0."""
    codes = tuple(sum(c << i for i, c in enumerate(row)) for row in rows)
    return VertexPath(len(rows[0]), codes)


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
