"""Frozen reference sequences for the golden regression tests, and the
helpers that compare paths with them.

Coordinates are written leftmost first. Every sequence below was checked
by hand against the step rules (unit steps for the change-1 tours, the
odd-index antipode rule, the append/flip/reverse lift stages) before
being frozen, so the tests pin the construction bit for bit.
"""

from leaper_cycles.core import VertexPath, check_dimension
from leaper_cycles.verifier import (
    DIMENSION_OVERFLOW,
    DUPLICATE_VERTEX,
    OPEN_ENDPOINTS,
    WRONG_LENGTH,
    WRONG_STEP,
    Violation,
    VerifyReport,
    verify_cycle,
)

KEPT_VIOLATIONS = 1000  # violations a report keeps of each kind of check


def path_of(rows):
    """The path whose vertices are these coordinate rows, leftmost at bit 0."""
    codes = tuple(sum(c << i for i, c in enumerate(row)) for row in rows)
    return VertexPath(len(rows[0]), codes)


def rows_of(path):
    """The coordinate rows of ``path``, leftmost (bit 0) first: the inverse of path_of."""
    k = path.k
    return [tuple((c >> i) & 1 for i in range(k)) for c in path.codes]


def packed(codes, itemsize):
    """``codes`` in lanes of ``itemsize`` bytes, lane i at bit ``8 * itemsize * i``,
    joined one code at a time."""
    return int.from_bytes(b"".join(c.to_bytes(itemsize, "little") for c in codes), "little")


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


def scalar_report(k, h, codes):
    """The report on ``codes`` as a change-h cycle of {0,1}^k, one index at a time.

    A second path beside the verifier's chunked, packed checker, sharing
    only its report types: the length, then repeated and out-of-range
    vertices by index, then the steps, then the closing edge, keeping the
    first KEPT_VIOLATIONS of the presence and of the step checks and
    counting the rest.
    """
    seen = set()
    presence, steps = [], []
    for i, c in enumerate(codes):
        if not 0 <= c < 1 << k:
            presence.append(Violation(DIMENSION_OVERFLOW, i))
        elif c in seen:
            presence.append(Violation(DUPLICATE_VERTEX, i))
        else:
            seen.add(c)
    for i in range(len(codes) - 1):
        if (codes[i] ^ codes[i + 1]).bit_count() != h:
            steps.append(Violation(WRONG_STEP, (i, i + 1)))
    length = [] if len(codes) == 1 << k else [Violation(WRONG_LENGTH, len(codes))]
    closing = [Violation(OPEN_ENDPOINTS, (len(codes) - 1, 0))] if (
        codes and (codes[-1] ^ codes[0]).bit_count() != h
    ) else []
    kept = length + presence[:KEPT_VIOLATIONS] + steps[:KEPT_VIOLATIONS] + closing
    return VerifyReport(
        valid=not kept,
        violations=tuple(kept[:KEPT_VIOLATIONS]),
        total=len(length) + len(presence) + len(steps) + len(closing),
    )


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
