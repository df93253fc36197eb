"""Independent validation of constant-step Hamiltonian cycles.

This module is the acceptance gate for every constructed cycle and every
external input. It deliberately shares nothing with the construction
pipeline beyond the core vertex model, so a construction bug cannot
certify its own output.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count, islice
from operator import not_, xor

from .core import VertexPath, lane_typecode, pack, unpack

WRONG_LENGTH = "WrongLength"
DUPLICATE_VERTEX = "DuplicateVertex"
WRONG_STEP = "WrongStep"
OPEN_ENDPOINTS = "OpenEndpoints"
DIMENSION_OVERFLOW = "DimensionOverflow"

_KEPT_VIOLATIONS = 1000  # violations a report keeps; the rest are only counted
_PACKED_LANES = 1 << 12  # codes the packed test takes at once
_LOOKUPS = 1 << 8  # lanes of a block the coset route looks up one by one, at most
_TABLES = 16  # tables of a block's bytes the coset route holds, at most


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

    Across chunks it carries the first and last codes, the count so far
    and the violations at their indices in the whole path, keeping the
    first 1,000 of each kind of check and counting the rest, so however
    the path is split, :meth:`finish` reports what ``verify_cycle``
    reports for the whole: the length, then repeated and out-of-range
    vertices by index, then the steps, then the closing edge.

    The path is checked in blocks of _PACKED_LANES codes, aligned to its
    index and sliced out of the chunks, whatever k is; a partial block is
    held until the next chunk fills it, or until :meth:`finish`. A block
    is an ``array`` of the lanes :func:`~.core.lane_typecode` names for
    ``k``, packed by :func:`~.core.pack`, or, if a code fits no lane, the
    codes as fed.

    Presence is proven by cosets when the path allows it. The reference
    is block 0, or, if block 0 fails, block 1, which block 0 waits for: a
    whole block of at most 2**k lanes, inside the dimension, that is
    ``origin ^ V`` for a linear subspace V of as many codes, which
    :func:`_subspace_basis` proves, ``origin`` being its first code. Each
    code ``c`` then has a coset name, ``c`` reduced by V's basis, and an
    index in that coset, the basis vectors the reduction used; two cosets
    of V are equal or disjoint. Each coset seen is kept by its name with a
    table of ``_size`` bytes, one per index, of its codes present; the
    cosets taken whole share one table. The reference's failing steps are
    kept by their offsets.

    A block's expected translate is the reference xor ``c ^ origin``,
    where ``c`` is its first code, or, if only its first lane differs
    from that, its second lane's. A whole block equal to its translate
    lane for lane, with ``c ^ origin < 2**k``, whose coset is not yet
    seen, is taken whole: its codes lie in the dimension, none is marked,
    and its inner steps are the reference's, so only the step into it is
    new. In any other block, the lanes equal to the translate are codes
    of its coset at known indices and enter the coset's table at once;
    only the lanes that differ, every lane without a translate, are
    looked up one by one, and so are the codes of that coset present
    before. Repeated codes and codes outside the dimension are named in
    index order, and the steps pass :func:`_packed_chunk_passes` or are
    checked code by code.

    The presence table of one byte per vertex is made if neither block 0
    nor block 1 is a reference, or at the first block the route does not
    take: one without a translate inside the dimension, or with more than
    _LOOKUPS lanes that differ from it, which cost more looked up one by
    one than marked in the table, or one that would make more than
    _TABLES tables, which bounds what is held beside the table. It is
    marked with the codes of the cosets seen. Then a block of lanes whose
    range and steps pass :func:`_packed_chunk_passes` only has its
    vertices marked present; any other block is checked code by code,
    naming each fault.
    """

    def __init__(self, k: int, h: int) -> None:
        if h < 1:
            raise ValueError(f"step size must be a positive integer, got {h}")
        self._k = k
        self._h = h
        self._n = 1 << k
        self._typecode = lane_typecode(k)
        self._size = _PACKED_LANES  # codes in a block
        # A partial block: lanes, or a list once a slice is not lanes.
        self._held: array | list[int] = array(self._typecode)
        # Block 0, as (codes, lanes, packed), while block 1 decides the route.
        self._pending: tuple[Sequence[int], array | None, int] | None = None
        # Presence table of one byte per vertex, made only off the coset
        # route: O(2**k) time and 2**k bytes.
        self._seen: bytearray | None = None
        self._origin: int | None = None  # the reference's first code, once found
        self._block0 = 0  # the reference, packed
        self._basis: list[tuple[int, int]] = []  # V's (pivot bit, vector) pairs
        self._inner: list[int] = []  # offsets o of the reference's failing steps (o, o + 1)
        # The index in its coset of each lane of the reference, and the lane
        # holding each index; made for the first block not taken whole.
        self._slots: array | None = None
        self._lane_of = array(self._typecode)
        # Each coset seen: its name -> its codes present, by index in the coset.
        self._cosets: dict[int, bytes | bytearray] = {}
        self._whole = b"\1" * self._size  # the table of a coset taken whole
        self._tables = 0  # tables of cosets seen in part
        self._count = 0
        self._first = self._last = 0
        self._presence: list[Violation] = []
        self._steps: list[Violation] = []
        self._dropped = 0

    def feed(self, codes: Sequence[int]) -> None:
        """Check the next ``codes`` of the path."""
        size, start = self._size, 0
        if self._held:
            start = size - len(self._held)
            self._hold(codes[:start])
            if len(self._held) < size:
                return
            self._block(self._held)
            self._held = array(self._typecode)
        end = start + (len(codes) - start) // size * size
        for lo in range(start, end, size):
            self._block(codes[lo:lo + size])
        if end < len(codes):
            self._hold(codes[end:])

    def finish(self) -> VerifyReport:
        """The report on the codes fed so far, taken as the whole path."""
        if self._held:
            self._block(self._held)
            self._held = array(self._typecode)
        if self._pending is not None:
            self._leave()
            self._check(*self._pending)
            self._pending = None
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

    def _hold(self, codes: Sequence[int]) -> None:
        """Add ``codes``, a slice, to the partial block."""
        held = self._held
        lanes = _lanes(codes, self._typecode) if isinstance(held, array) else None
        if lanes is None:
            self._held = [*held, *codes]
        else:
            held.extend(lanes)

    def _block(self, block: Sequence[int]) -> None:
        """Check ``block``, the next block, once the route is known: a
        failing block 0 waits for block 1."""
        lanes = _lanes(block, self._typecode)
        packed = 0 if lanes is None else pack(lanes)
        if self._seen is None and self._origin is None:
            if not self._reference(lanes, packed):
                if self._pending is None:
                    self._pending = (block, lanes, packed)
                    return
                self._leave()
            if self._pending is not None:
                self._check(*self._pending)
                self._pending = None
        self._check(block, lanes, packed)

    def _check(self, block: Sequence[int], lanes: array | None, packed: int) -> None:
        """Check ``block``, its ``lanes`` (None if a code fits no lane) and
        ``packed``, their integer: by cosets, or against the presence table."""
        if self._seen is None and not self._take_block(lanes, packed):
            self._leave()
        if self._seen is not None:
            if self._lanes_pass(lanes, packed):
                self._mark(block)
            else:
                self._scan(block, 0)
                self._scan_steps(block)
        if not self._count:
            self._first = block[0]
        self._last = block[-1]
        self._count += len(block)

    def _reference(self, lanes: array | None, packed: int) -> bool:
        """Whether a block, ``lanes`` and ``packed``, their integer, is the
        reference the class docstring describes; if it is, take it as such."""
        if lanes is None or len(lanes) < self._size or self._size > self._n:
            return False
        width, k = lanes.itemsize, self._k
        one = _lane_masks(width, len(lanes))[0]
        if packed & ((1 << 8 * width) - (1 << k)) * one:
            return False
        basis = _subspace_basis(packed ^ lanes[0] * one, self._typecode, len(lanes))
        if basis is None:
            return False
        self._block0, self._origin, self._basis = packed, lanes[0], basis
        if not _packed_chunk_passes(packed, None, width, len(lanes), k, self._h):
            self._inner = _step_faults(lanes, None, self._h)
        return True

    def _take_block(self, lanes: array | None, packed: int) -> bool:
        """Check the next block on the coset route: its ``lanes`` (None if a
        code fits no lane) and ``packed``, their integer. False, having
        changed nothing, for a block the route does not take: one without
        a translate inside the dimension, one with more than _LOOKUPS
        lanes that differ from it, or one whose lookups would make more
        than _TABLES tables."""
        translate = None if lanes is None else self._translate(lanes, packed)
        if translate is None:
            return False
        coset, base, differs = translate
        cosets, m = self._cosets, len(lanes)
        if not differs and m == self._size and coset not in cosets:
            cosets[coset] = self._whole
            if self._count and (self._last ^ lanes[0]).bit_count() != self._h:
                self._add_steps((-1,))
            if self._inner:
                self._add_steps(self._inner)
            return True
        differ = unpack(differs, self._typecode, m)
        at = list(compress(range(m), differ))
        if len(at) > _LOOKUPS:
            return False
        lookups = [self._coset(lanes[i]) for i in at]
        tables = {name for name, _ in lookups if not name >> self._k} | {coset}
        tables -= cosets.keys()
        if self._tables + len(tables) > _TABLES:
            return False
        self._tables += len(tables)
        self._place(differ, at, lookups, coset, base)
        if not self._lanes_pass(lanes, packed):
            self._scan_steps(lanes)
        return True

    def _lanes_pass(self, lanes: array | None, packed: int) -> bool:
        """Whether the next block has ``lanes`` and they pass
        :func:`_packed_chunk_passes` on ``packed``, their integer."""
        lead = self._last if self._count else None
        return lanes is not None and _packed_chunk_passes(
            packed, lead, lanes.itemsize, len(lanes), self._k, self._h
        )

    def _translate(self, lanes: array, packed: int) -> tuple[int, int, int] | None:
        """The expected translate of a block, ``lanes`` and ``packed``, their
        integer, as ``(coset, index, differs)``: the name of its coset, the
        index in it of the translate's lane 0, and the lanes of the block
        that differ from it, packed; None if it lies outside the dimension."""
        bits, m = 8 * lanes.itemsize, len(lanes)
        one = _lane_masks(lanes.itemsize, m)[0]
        reference = self._block0 if m == self._size else self._block0 & ((1 << bits * m) - 1)
        shift = lanes[0] ^ self._origin
        expected = reference ^ shift * one
        differs = 0 if packed == expected else packed ^ expected
        if differs >> bits:  # perhaps lane 0 alone differs: try lane 1's shift
            other = lanes[1] ^ reference >> bits & ((1 << bits) - 1)
            other_differs = packed ^ reference ^ other * one
            if not other_differs >> bits:
                shift, differs = other, other_differs
        if shift >> self._k:
            return None
        coset, index = self._coset(self._origin ^ shift)
        return coset, index, differs

    def _place(
        self,
        differ: array,
        at: list[int],
        lookups: list[tuple[int, int]],
        coset: int,
        base: int,
    ) -> None:
        """Mark the codes of the next block present in their cosets'
        tables, naming each one repeated or outside the dimension, in index
        order. Its lanes that ``differ`` are those ``at``, with the coset
        names and indices of their codes in ``lookups``; the others hold the
        codes of the translate's ``coset`` at index ``base ^ slots[j]`` in
        lane ``j``.

        A lane that differs repeats a code present in its coset's table, or
        held by a translate's lane before it. Then a translate's lane whose
        code was present before it repeats it.
        """
        k, cosets = self._k, self._cosets
        slots, lane_of = self._reference_slots()
        found: list[tuple[int, str]] = []
        for i, (name, index) in zip(at, lookups):
            if name >> k:
                found.append((i, DIMENSION_OVERFLOW))
                continue
            table = cosets.get(name)
            if table is not None and table[index]:
                found.append((i, DUPLICATE_VERTEX))
            elif name == coset and (j := lane_of[index ^ base]) < i and not differ[j]:
                found.append((i, DUPLICATE_VERTEX))
            else:
                if table is None:
                    table = cosets[name] = bytearray(self._size)
                table[index] = 1
        table = cosets.get(coset)
        if table is self._whole:
            found += [(j, DUPLICATE_VERTEX) for j in compress(range(len(differ)), map(not_, differ))]
        else:
            # Every index of the coset but those of the lanes that differ,
            # then each index present before. A partial block is the last,
            # so no code is looked up in the indices of the lanes it lacks.
            merged = bytearray(self._whole)
            for j in at:
                merged[base ^ slots[j]] = 0
            index = -1 if table is None else table.find(1)
            while index >= 0:
                j = lane_of[index ^ base]
                if j < len(differ) and not differ[j]:
                    found.append((j, DUPLICATE_VERTEX))
                merged[index] = 1
                index = table.find(1, index + 1)
            cosets[coset] = merged
        self._add_presence(found)

    def _coset(self, code: int) -> tuple[int, int]:
        """The name of the coset ``code ^ V``, ``code`` with each pivot bit
        of V cleared by its basis vector in the order they were found, and
        the index of ``code`` in it, bit ``j`` set if vector ``j`` was used.
        The name keeps a bit of ``code`` at k or above, or its sign."""
        index = 0
        for j, (pivot, vector) in enumerate(self._basis):
            if code >> pivot & 1:
                code ^= vector
                index |= 1 << j
        return code, index

    def _reference_slots(self) -> tuple[array, array]:
        """The index in its coset of each lane of the reference, and the
        lane holding each index; a lane ``j`` of the translate whose coset
        index is ``a`` holds index ``a ^ slots[j]``. The indices are those
        :meth:`_coset` gives, found for every lane at once."""
        if self._slots is None:
            size, typecode = self._size, self._typecode
            one = _lane_masks(array(typecode).itemsize, size)[0]
            rest, indices = self._block0 ^ self._origin * one, 0
            for j, (pivot, vector) in enumerate(self._basis):
                hit = rest >> pivot & one
                rest ^= hit * vector
                indices |= hit << j
            slots = self._slots = unpack(indices, typecode, size)
            lane_of = self._lane_of = array(typecode, bytes(slots.itemsize * size))
            for j, index in enumerate(slots):
                lane_of[index] = j
        return self._slots, self._lane_of

    def _add_presence(self, found: list[tuple[int, str]]) -> None:
        """Name each ``(offset, kind)`` of ``found`` at its index from the
        start of the next block, in index order; once _KEPT_VIOLATIONS are
        named, count the rest."""
        base, presence = self._count, self._presence
        for i, kind in sorted(found):
            if len(presence) < _KEPT_VIOLATIONS:
                presence.append(Violation(kind, base + i))
            else:
                self._dropped += 1

    def _leave(self) -> None:
        """Go on against the presence table, marked with the codes of the
        cosets seen, each table dropped once it is marked."""
        seen = self._seen = bytearray(self._n)
        if self._cosets:
            slots = self._reference_slots()[0]
            one = _lane_masks(array(self._typecode).itemsize, self._size)[0]
            while self._cosets:
                name, table = self._cosets.popitem()
                lanes = unpack(self._block0 ^ (name ^ self._origin) * one, self._typecode, self._size)
                for c in compress(lanes, map(table.__getitem__, slots)):
                    seen[c] = 1

    def _mark(self, codes: Sequence[int]) -> None:
        """Mark ``codes``, each inside the dimension, present, and hand the
        codes from the first one already present on to :meth:`_scan`."""
        seen = self._seen
        rest = iter(codes)
        for c in rest:
            if seen[c]:
                self._scan(codes, len(codes) - 1 - sum(1 for _ in rest))
                return
            seen[c] = 1

    def _scan(self, codes: Sequence[int], start: int) -> None:
        """Mark ``codes[start:]`` present, naming each one repeated or
        outside the dimension; once _KEPT_VIOLATIONS are named, the rest
        are counted in bulk: every code but the first of each one inside
        the dimension and not yet present."""
        n, seen, presence = self._n, self._seen, self._presence
        for i, c in enumerate(islice(codes, start, None), start):
            if 0 <= c < n and not seen[c]:
                seen[c] = 1
            elif len(presence) < _KEPT_VIOLATIONS:
                kind = DUPLICATE_VERTEX if 0 <= c < n else DIMENSION_OVERFLOW
                presence.append(Violation(kind, self._count + i))
            else:
                rest = codes[i:]
                fresh = [c for c in set(rest) if 0 <= c < n and not seen[c]]
                for c in fresh:
                    seen[c] = 1
                self._dropped += len(rest) - len(fresh)
                return

    def _scan_steps(self, codes: Sequence[int]) -> None:
        """Name each step into ``codes``, the next block, that does not
        flip h coordinates, as :meth:`_add_steps` does; once
        _KEPT_VIOLATIONS are named, only count them."""
        lead = self._last if self._count else None
        if len(self._steps) == _KEPT_VIOLATIONS:
            self._dropped += sum(map(self._h.__ne__, _flips(codes, lead)))
        else:
            self._add_steps(_step_faults(codes, lead, self._h))

    def _add_steps(self, faults: Sequence[int]) -> None:
        """Name the failing step ``(i + o, i + o + 1)`` for each offset
        ``o`` of ``faults``, in order, where the next block starts at
        index ``i``; once _KEPT_VIOLATIONS are named, count the rest."""
        base, steps = self._count, self._steps
        room = _KEPT_VIOLATIONS - len(steps)
        steps += [Violation(WRONG_STEP, (base + o, base + o + 1)) for o in faults[:room]]
        self._dropped += max(len(faults) - room, 0)


def _flips(codes: Sequence[int], lead: int | None) -> Iterator[int]:
    """The coordinates each step of ``codes`` flips, the step from
    ``lead`` into code 0 first; None for ``lead`` leads no step in."""
    flips = map(int.bit_count, map(xor, codes, islice(codes, 1, None)))
    return flips if lead is None else chain([(lead ^ codes[0]).bit_count()], flips)


def _step_faults(codes: Sequence[int], lead: int | None, h: int) -> list[int]:
    """The offset ``o`` of each step ``(o, o + 1)`` of ``codes`` that does
    not flip h coordinates, -1 for the step from ``lead`` into code 0."""
    return list(compress(count(0 if lead is None else -1), map(h.__ne__, _flips(codes, lead))))


def _lanes(codes: Sequence[int], typecode: str) -> array | None:
    """``codes``, a slice, as an ``array`` of ``typecode``: itself if it is
    one, else a copy of a tuple or list; None for any other sequence, or
    for a code that does not fit a lane."""
    if isinstance(codes, array):
        return codes if codes.typecode == typecode else None
    if isinstance(codes, (tuple, list)):
        try:
            return array(typecode, codes)
        except (OverflowError, TypeError):  # negative, too wide, or no int
            pass
    return None


def _subspace_basis(packed: int, typecode: str, lanes: int) -> list[tuple[int, int]] | None:
    """An echelon basis of V, as (pivot bit, vector) pairs, if the
    ``lanes`` codes in the lanes of ``packed`` are all the codes of a
    linear subspace V, else None.

    Gaussian elimination runs on all lanes at once: each round takes the
    top nonzero lane ``v``, whose top bit is the pivot ``p``, and xors it
    onto every lane holding bit ``p``, so no lane keeps that bit. The
    rounds end with every lane 0, one round per dimension of the span.
    The codes are V if they are distinct and V has rank log2(``lanes``).
    Each vector holds its own pivot bit and none found before it, so a
    code of V is fixed by its pivot coordinates: the codes are distinct
    iff each of the ``lanes`` values of those coordinates, marked in a
    table of ``lanes`` bytes, turns up, which a rank below log2(``lanes``)
    leaves no room for.
    """
    width = array(typecode).itemsize
    one = _lane_masks(width, lanes)[0]
    bits, rank = 8 * width, lanes.bit_length() - 1
    basis: list[tuple[int, int]] = []
    rest = packed
    while rest:
        if len(basis) == rank:
            return None
        vector = rest >> (rest.bit_length() - 1) // bits * bits
        pivot = vector.bit_length() - 1
        rest ^= (rest >> pivot & one) * vector
        basis.append((pivot, vector))
    coordinates = 0
    for i, (pivot, _) in enumerate(basis):
        coordinates |= (packed >> pivot & one) << i
    table = bytearray(lanes)
    for c in unpack(coordinates, typecode, lanes):
        table[c] = 1
    return basis if all(table) else None


def _packed_chunk_passes(
    packed: int, lead: int | None, itemsize: int, lanes: int, k: int, h: int
) -> bool:
    """Whether every one of the ``lanes`` codes in ``packed`` lies in
    [0, 2**k) and flips exactly h coordinates from the code before it.

    Lane ``i`` of ``packed``, its ``8 * itemsize`` bits from bit ``8 *
    itemsize * i`` on, holds code ``i``, and ``8 * itemsize >= k``.
    ``lead`` is the code before code 0, or None if code 0 opens the path
    and no step leads into it. An h above the lane width fails every
    chunk, a lone first code included, and leaves it to the caller's
    code-by-code check. Both tests are branch-free on the whole integer:
    the range test is one mask, and the step test xors each lane with the
    lane before it, then counts the bits of every lane at once, adding bit
    pairs, then nibbles, then bytes, and folding the bytes of a lane into
    its lowest one.
    """
    bits = 8 * itemsize
    if not 0 < h <= bits:  # no step between lanes flips h coordinates
        return False
    if lead is None:
        lead = packed & ((1 << bits) - 1) ^ ((1 << h) - 1)
    elif not 0 <= lead < 1 << bits:
        return False
    one, pairs, nibbles, octets = _lane_masks(itemsize, lanes)
    if packed & ((1 << bits) - (1 << k)) * one:
        return False
    # Lane i of the xor holds code i ^ code i-1; the masks drop the lane
    # above the last.
    x = packed ^ (packed << bits | lead)
    x = (x & pairs) + (x >> 1 & pairs)
    x = (x & nibbles) + (x >> 2 & nibbles)
    x = (x & octets) + (x >> 4 & octets)
    for shift in (8, 16, 32)[:itemsize.bit_length() - 1]:
        x += x >> shift
    return x & 0xFF * one == h * one


@lru_cache(maxsize=2)
def _lane_masks(itemsize: int, lanes: int) -> tuple[int, int, int, int]:
    """1 in each of ``lanes`` lanes of ``itemsize`` bytes, and 0x55, 0x33
    and 0x0f in each of their bytes; cached for a whole block and the
    last, partial one."""
    every_byte = int.from_bytes(b"\1" * (itemsize * lanes), "little")
    one = int.from_bytes((b"\1" + bytes(itemsize - 1)) * lanes, "little")
    return one, 0x55 * every_byte, 0x33 * every_byte, 0x0F * every_byte
