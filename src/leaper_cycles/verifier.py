"""Independent validation of constant-step Hamiltonian cycles.

This module is the acceptance gate for every constructed cycle and every
external input. It deliberately shares nothing with the construction
pipeline beyond the core vertex model, so a construction bug cannot
certify its own output.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from contextlib import suppress
from functools import lru_cache
from itertools import chain, compress, count, islice
from operator import xor
from typing import NamedTuple

from . import core
from .core import Translate, VertexPath, lane_typecode, pack, unpack

WRONG_LENGTH = "WrongLength"
DUPLICATE_VERTEX = "DuplicateVertex"
WRONG_STEP = "WrongStep"
OPEN_ENDPOINTS = "OpenEndpoints"
DIMENSION_OVERFLOW = "DimensionOverflow"

_KEPT_VIOLATIONS = 1000  # violations a report keeps; the rest are only counted
_GROUPS = 4  # cosets a block's lanes may fall in and still be placed a coset at a time
_NEAR = 64  # lanes moved off a translate, and marks of its coset, that leave it near
_FEW_MARKS = 64  # marks that _marked finds one search each, not in one pass
_ONES = bytes([0]) + bytes([1]) * 255  # a byte -> 1 unless it is 0


class Violation(NamedTuple):
    """One rule breach: its kind and the index (or index pair) at fault.

    For WrongLength, ``where`` is the offending length itself.
    """

    kind: str
    where: int | tuple[int, int]

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}"


class VerifyReport(NamedTuple):
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

    The path is checked in blocks of :data:`~.core.PIECE_CODES` codes,
    aligned to its index and sliced out of the chunks, whatever k is; a
    partial block is held until the next chunk fills it, or until
    :meth:`finish`. A block is an ``array`` of the lanes
    :func:`~.core.lane_typecode` names for ``k``, packed by
    :func:`~.core.pack`, or, if a code fits no lane, the codes as fed.

    Presence is proven by cosets when the path allows it. The reference
    is block 0, or, if block 0 fails, block 1, which block 0 waits for: a
    whole block of at most 2**k lanes, inside the dimension, that is
    ``origin ^ V`` for a linear subspace V of as many codes, which
    :func:`_subspace_basis` proves, ``origin`` being its first code. Each
    code ``c`` then has a coset name, ``c`` reduced by V's basis, and an
    index in that coset, the basis vectors the reduction used; two cosets
    of V are equal or disjoint, and a name at or past bit k is a code
    outside the dimension. Each coset seen is kept by its name with a
    page of ``_size`` bytes, one per index, of its codes present. The
    reference's failing steps are kept by their offsets.

    A whole block that equals the reference xor ``c ^ origin`` lane for
    lane, where ``c`` is its first code, with ``c ^ origin < 2**k``, and
    whose coset is not yet seen, is taken whole: its codes lie in the
    dimension, none is marked, and its inner steps are the reference's,
    so only the step into it is new. A :class:`~.core.Translate` of the
    reference, as long as a block and fed while none is held, is such a
    block, ``c ^ origin`` its ``shift``, and is taken so without its
    lanes. Such a Translate of another block whose lanes are a coset of
    V inside the dimension makes that block the reference, as the body
    reader moves its template on past a piece 0 at fault; V is
    unchanged, so every page stays valid. Any other Translate is fed as
    its lanes; V being fixed, the last template refused as a reference
    is not tested again. Every coset taken whole, or filled, shares one
    page of ones, ``bytes``, which is never written, as every index of it
    is set. Any other block is placed as if each code, in index order,
    were named outside the dimension, or repeated if its index in
    its coset's page is set, or else marked there, and at about the cost
    of marking the block in a table: a block that is a translate of the
    reference but for a few lanes, by :meth:`_place_near`, from those
    lanes alone; else one whose lanes, reduced all at once on their
    integer, fall in a few cosets inside the dimension, by
    :meth:`_place_groups`, a coset at a time; else code by code. There
    are ``2**k / _size`` cosets, so the pages hold at most 2**k bytes.

    If neither block 0 nor block 1 is a reference, as in a cycle rotated
    by rows that are not a multiple of a block, at ``k < 12``, or with a
    code that fits no lane in both, the presence table of one byte per
    vertex is made instead. A block of lanes that fails no step, and has
    no code past k by the range mask of :func:`_outside`, is only marked
    present in the table; any other block is checked code by code.

    On either route, a block not taken whole has its failing steps read
    once, by :meth:`_failing_steps`: from the lane counts of
    :func:`_packed_step_faults`, or code by code if a code fits no lane.
    """

    def __init__(self, k: int, h: int) -> None:
        if h < 1:
            raise ValueError(f"step size must be a positive integer, got {h}")
        self._k = k
        self._h = h
        self._n = 1 << k
        self._typecode = lane_typecode(k)
        self._size = core.PIECE_CODES  # codes in a block
        # A partial block: lanes, or a list once a slice is not lanes.
        self._held: array | list[int] = array(self._typecode)
        # Block 0, as (codes, lanes, packed), while block 1 decides the route.
        self._pending: tuple[Sequence[int], array | None, int] | None = None
        # Presence table of one byte per vertex, made only off the coset
        # route: O(2**k) time and 2**k bytes.
        self._seen: bytearray | None = None
        self._origin: int | None = None  # the reference's first code, once found
        self._block0 = self._end = 0  # the reference, packed, and its last code
        self._basis: list[tuple[int, int]] = []  # V's (pivot bit, vector) pairs
        self._inner: list[int] = []  # offsets o of the reference's failing steps (o, o + 1)
        self._refused: int | None = None  # the last template _reference refused, packed
        # Each coset seen: its name -> its codes present, by index in the coset.
        self._cosets: dict[int, bytes | bytearray] = {}
        self._whole = b"\1" * self._size  # the page of a coset taken whole
        self._count = 0
        self._first = self._last = 0
        self._presence: list[Violation] = []
        self._steps: list[Violation] = []
        self._dropped = 0

    def feed(self, codes: Sequence[int]) -> None:
        """Check the next ``codes`` of the path."""
        if isinstance(codes, Translate):
            packed = codes.packed
            if (
                len(codes) == self._size and codes.typecode == self._typecode
                and not self._held and self._origin is not None and packed != self._refused
            ):
                if packed != self._block0 and not self._reference(packed):
                    self._refused = packed  # V is fixed, so the refusal is final
                elif self._take(codes.shift):
                    self._last, self._count = self._end ^ codes.shift, self._count + self._size
                    return
            codes = codes.lanes()
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
            self._seen = bytearray(self._n)
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
            whole = lanes is not None and len(lanes) == self._size <= self._n
            if not (whole and self._reference(packed)):
                if self._pending is None:
                    self._pending = (block, lanes, packed)
                    return
                self._seen = bytearray(self._n)
            if self._pending is not None:
                self._check(*self._pending)
                self._pending = None
        self._check(block, lanes, packed)

    def _check(self, block: Sequence[int], lanes: array | None, packed: int) -> None:
        """Check ``block``, its ``lanes`` (None if a code fits no lane) and
        ``packed``, their integer: by cosets, or against the presence table."""
        if self._seen is not None or not self._take_whole(lanes, packed):
            faults = self._failing_steps(block, lanes, packed)
            self._add_steps(faults)
            if self._seen is None:
                self._place(block, lanes, packed)
            elif faults or lanes is None or _outside(packed, lanes.itemsize, len(lanes), self._k):
                self._scan(block, 0)
            else:
                self._mark(block)
        if not self._count:
            self._first = block[0]
        self._last = block[-1]
        self._count += len(block)

    def _reference(self, packed: int) -> bool:
        """Whether a whole block of lanes, ``packed``, is a reference the
        class docstring describes, a coset of V once V is known; if it is,
        take it as the reference."""
        typecode, size, itemsize = self._typecode, self._size, array(self._typecode).itemsize
        if _outside(packed, itemsize, size, self._k):
            return False
        bits = 8 * itemsize
        origin = packed & ((1 << bits) - 1)
        basis = _subspace_basis(packed ^ origin * _lane_masks(itemsize, size)[0], typecode, size)
        if basis is None:
            return False
        if self._origin is None:
            self._basis = basis
        elif any(self._coset(vector)[0] for _, vector in basis):  # a subspace other than V
            return False
        self._block0, self._origin, self._end = packed, origin, packed >> bits * (size - 1)
        self._inner = _packed_step_faults(packed, None, itemsize, size, self._h)
        return True

    def _take_whole(self, lanes: array | None, packed: int) -> bool:
        """Whether the block of ``lanes`` (None if a code fits no lane) and
        ``packed``, their integer, is the reference xor a code :meth:`_take` takes."""
        if lanes is None or len(lanes) < self._size:
            return False
        shift = lanes[0] ^ self._origin
        one = _lane_masks(lanes.itemsize, self._size)[0]
        return packed == self._block0 ^ shift * one and self._take(shift)

    def _take(self, shift: int) -> bool:
        """Whether the next block, the reference with ``shift`` xor'ed onto
        every lane, is a coset taken whole, as the class docstring says; if
        it is, take it and name the steps it fails."""
        if shift >> self._k:
            return False
        coset = self._coset(self._origin ^ shift)[0]
        if coset in self._cosets:
            return False
        self._cosets[coset] = self._whole
        if self._count and (self._last ^ self._origin ^ shift).bit_count() != self._h:
            self._add_steps((-1,))
        if self._inner:
            self._add_steps(self._inner)
        return True

    def _place(self, block: Sequence[int], lanes: array | None, packed: int) -> None:
        """Mark the codes of the next block, ``block``, its ``lanes`` (None
        if a code fits no lane) and ``packed``, their integer, present in
        their cosets' pages, naming each one repeated or outside the
        dimension, in index order; once _KEPT_VIOLATIONS are named, count
        the rest. A block near a translate of the reference is placed by
        :meth:`_place_near`; else its lanes are reduced all at once, as
        :meth:`_coset` reduces one code, and placed a coset at a time by
        :meth:`_place_groups`; if both decline, code by code."""
        if lanes is None:
            self._place_codes(*zip(*map(self._coset, block)))
        elif not self._place_near(lanes, packed):
            m, typecode = len(lanes), self._typecode
            rest, where = self._reduced(packed, lanes.itemsize, m)
            names, indices = unpack(rest, typecode, m), unpack(where, typecode, m)
            if not self._place_groups(names, indices, rest):
                self._place_codes(names, indices)

    def _reduced(self, packed: int, itemsize: int, lanes: int) -> tuple[int, int]:
        """The names and the indices of the ``lanes`` codes in ``packed``,
        as two integers of lanes: the codes reduced all at once, as
        :meth:`_coset` reduces one."""
        one = _lane_masks(itemsize, lanes)[0]
        rest, where = packed, 0
        for j, (pivot, vector) in enumerate(self._basis):
            hit = rest >> pivot & one
            rest ^= hit * vector
            where |= hit << j
        return rest, where

    def _place_near(self, lanes: array, packed: int) -> bool:
        """Whether the next block's ``lanes``, ``packed`` their integer, are
        the reference with a code ``s < 2**k``, the first lane's, xor'ed
        onto every lane but at most _NEAR, and the coset ``origin ^ s ^ V``
        has at most _NEAR indices marked; if so, place them.

        The lanes left as the translate has them are the coset ``origin ^ s
        ^ V`` but for the codes of the moved lanes' places: distinct, and
        each a repeat only if its index is marked already or a moved lane
        of the coset takes it first. Only the moved lanes and those, found
        by their codes, are placed code by code; every other index of the
        coset is then marked at once.
        """
        size, m, itemsize = self._size, len(lanes), lanes.itemsize
        shift = lanes[0] ^ self._origin
        if m < size or shift >> self._k:
            return False
        diff = (packed ^ self._block0 ^ shift * _lane_masks(itemsize, m)[0]).to_bytes(itemsize * m, "little")
        if len(diff) - diff.count(0) > _NEAR * itemsize:
            return False
        moved = sorted({i // itemsize for i in _marked(diff)})
        name = self._coset(self._origin ^ shift)[0]
        old = self._cosets.get(name)
        if len(moved) > _NEAR or old is not None and size - old.count(0) > _NEAR:
            return False
        named = {o: self._coset(lanes[o]) for o in moved}
        for i in {i for n, i in named.values() if n == name}.union(_marked(old or b"")):
            code, o = name, -1  # the code of the coset at index i, found in the lanes
            for j, (_, vector) in enumerate(self._basis):
                code ^= vector * (i >> j & 1)
            with suppress(ValueError):
                while True:
                    o = lanes.index(code, o + 1)
                    named.setdefault(o, (name, i))
        order = sorted(named)
        self._place_codes(*zip(*map(named.get, order)), order)
        placed, page = self._cosets.get(name) or bytearray(size), bytearray(self._whole)
        bits = 8 * itemsize
        for o in moved:  # the indices the translate has there keep what they hold
            i = self._coset((self._block0 >> bits * o & (1 << bits) - 1) ^ shift)[1]
            page[i] = placed[i]
        self._cosets[name] = self._whole if page.count(0) == 0 else page
        return True

    def _place_groups(self, names: array, indices: array, rest: int) -> bool:
        """Whether the lanes of the next block fall in at most _GROUPS
        cosets, all inside the dimension; if so, place them a coset at a
        time and name those repeated, in order.

        ``names`` and ``indices`` are the lanes' cosets and indices, and
        ``rest`` is the names' integer. The cosets are found, and each one's
        lanes picked out, by a test of all lanes at once, and its lanes are
        marked in a copy of its page, or a new one, in one loop that only
        stores, as :meth:`_mark` marks the table. If the page gains fewer
        marks than it has lanes, a lane repeats a code, and the lanes are
        marked again from the old page, naming each one whose index is
        marked already. A page whose every index is marked becomes the
        shared page of ones. The pages replace the old ones at the end.
        """
        size, m, itemsize, repeats, pages = self._size, len(names), names.itemsize, [], {}
        one = _lane_masks(itemsize, m)[0]
        left = top = one << 8 * itemsize - 1  # the top bit of each lane of no coset found yet
        groups = []
        while left:  # the coset of the first lane left, and its lanes' top bits
            name = names[(left & -left).bit_length() // (8 * itemsize) - 1]
            if len(groups) == _GROUPS or name >> self._k:
                return False
            groups.append((name, top ^ _lane_tops(rest ^ name * one, itemsize, m)))
            left ^= groups[-1][1]
        for name, named in groups:
            chosen = None  # a byte per lane, not 0 where the lane is ``name``
            if len(groups) > 1:
                chosen = named.to_bytes(itemsize * m, "little")[itemsize - 1::itemsize]
            old = self._cosets.get(name)
            if old is None:
                old = bytes(size)
            page, hit = bytearray(old), []
            for i in indices if chosen is None else compress(indices, chosen):
                page[i] = 1
            if page.count(1) - old.count(1) < named.bit_count():
                page = bytearray(old)  # a lane repeats a code: again, naming them
                for j, i in enumerate(indices if chosen is None else compress(indices, chosen)):
                    if page[i]:
                        hit.append(j)
                    page[i] = 1
            if hit:
                offsets = range(m) if chosen is None else array(indices.typecode, compress(range(m), chosen))
                repeats += [offsets[j] for j in hit]
            pages[name] = self._whole if page.count(0) == 0 else page
        self._cosets.update(pages)
        repeats.sort()
        room = _KEPT_VIOLATIONS - len(self._presence)
        self._presence += [Violation(DUPLICATE_VERTEX, self._count + o) for o in repeats[:room]]
        self._dropped += max(len(repeats) - room, 0)
        return True

    def _place_codes(
        self, names: Sequence[int], indices: Sequence[int], offsets: Sequence[int] | None = None
    ) -> None:
        """:meth:`_place` code by code: each code of the next block, or the
        codes at ``offsets`` in it, in index order, by its coset's name and
        its index in it."""
        k, size, cosets, presence = self._k, self._size, self._cosets, self._presence
        at = count(self._count) if offsets is None else (self._count + o for o in offsets)
        for i, name, index in zip(at, names, indices):
            if name >> k:
                kind = DIMENSION_OVERFLOW
            else:
                page = cosets.get(name)
                if page is None:
                    page = cosets[name] = bytearray(size)
                if not page[index]:
                    page[index] = 1
                    continue
                kind = DUPLICATE_VERTEX
            if len(presence) < _KEPT_VIOLATIONS:
                presence.append(Violation(kind, i))
            else:
                self._dropped += 1

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

    def _failing_steps(self, block: Sequence[int], lanes: array | None, packed: int) -> list[int]:
        """The offsets of the failing steps into ``block``, the next block,
        read from the lane counts of its ``lanes`` and ``packed``, their
        integer, by :func:`_packed_step_faults`, or code by code if a code,
        or the one before the block, fits no lane."""
        lead = self._last if self._count else None
        faults = None if lanes is None else _packed_step_faults(packed, lead, lanes.itemsize, len(lanes), self._h)
        return _step_faults(block, lead, self._h) if faults is None else faults

    def _add_steps(self, faults: Sequence[int]) -> None:
        """Name the failing step ``(i + o, i + o + 1)`` for each offset
        ``o`` of ``faults``, in order, where the next block starts at
        index ``i``; once _KEPT_VIOLATIONS are named, count the rest."""
        base, steps = self._count, self._steps
        room = _KEPT_VIOLATIONS - len(steps)
        steps += [Violation(WRONG_STEP, (base + o, base + o + 1)) for o in faults[:room]]
        self._dropped += max(len(faults) - room, 0)


def _step_faults(codes: Sequence[int], lead: int | None, h: int) -> list[int]:
    """The offset ``o`` of each step ``(o, o + 1)`` of ``codes`` that does
    not flip h coordinates, -1 for the step from ``lead`` into code 0;
    ``lead`` None: no step leads into code 0."""
    flips = map(int.bit_count, map(xor, codes, islice(codes, 1, None)))
    if lead is not None:
        flips = chain([(lead ^ codes[0]).bit_count()], flips)
    return list(compress(count(0 if lead is None else -1), map(h.__ne__, flips)))


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


def _outside(packed: int, itemsize: int, lanes: int, k: int) -> int:
    """The bits at or past k of the ``lanes`` codes in ``packed``, lanes of
    ``itemsize`` bytes, ``8 * itemsize >= k``, found at once by one mask:
    0 iff every code lies in [0, 2**k)."""
    return packed & ((1 << 8 * itemsize) - (1 << k)) * _lane_masks(itemsize, lanes)[0]


def _packed_step_faults(packed: int, lead: int | None, itemsize: int, lanes: int, h: int) -> list[int] | None:
    """:func:`_step_faults` of the ``lanes`` codes in ``packed``, lanes of
    ``itemsize`` bytes, read from the lanes of :func:`_flip_counts` that
    are not h, or None if ``lead`` fits no lane. A step of an h above the
    lane width always fails."""
    bits = 8 * itemsize
    if lead is not None and not 0 <= lead < 1 << bits:
        return None
    if h > bits:
        return list(range(0 if lead is None else -1, lanes - 1))
    if lead is None:  # code 0 flips h coordinates from it
        lead = packed & ((1 << bits) - 1) ^ ((1 << h) - 1)
    misses = _flip_counts(packed, lead, itemsize, lanes) ^ h * _lane_masks(itemsize, lanes)[0]
    return [i - 1 for i in _marked(misses.to_bytes(itemsize * lanes, "little")[::itemsize])] if misses else []


def _flip_counts(packed: int, lead: int, itemsize: int, lanes: int) -> int:
    """The integer whose lane ``i``, of ``itemsize`` bytes, holds in its
    lowest byte the coordinates code ``i`` of ``packed`` flips from code
    ``i - 1``, or from ``lead``, which fits a lane, for code 0.

    The codes are xor'ed with the lane before them, then the bits of
    every lane are counted at once, adding bit pairs, then nibbles, then
    bytes, and folding the bytes of a lane into its lowest one.
    """
    bits = 8 * itemsize
    one, pairs, nibbles, octets = _lane_masks(itemsize, lanes)
    # Lane i of the xor holds code i ^ code i-1; the masks drop the lane
    # above the last.
    x = packed ^ (packed << bits | lead)
    x = (x & pairs) + (x >> 1 & pairs)
    x = (x & nibbles) + (x >> 2 & nibbles)
    x = (x & octets) + (x >> 4 & octets)
    for shift in (8, 16, 32)[:itemsize.bit_length() - 1]:
        x += x >> shift
    return x & 0xFF * one


def _lane_tops(x: int, itemsize: int, lanes: int) -> int:
    """The top bit of each of the ``lanes`` lanes of ``x``, of ``itemsize``
    bytes, that is not 0, found at once: with the top bit of a lane
    cleared, adding all ones below it carries into that bit unless the
    rest of the lane is 0."""
    one = _lane_masks(itemsize, lanes)[0]
    top = one << 8 * itemsize - 1
    return ((x & top - one) + (top - one) | x) & top


def _marked(page: bytes | bytearray) -> list[int]:
    """The indices of the bytes of ``page`` that are not 0, in order, at C
    speed: one search each if they are few, else one pass over all."""
    marks = len(page) - page.count(0)
    if marks > _FEW_MARKS:
        return list(compress(range(len(page)), page))
    ones, found = page.translate(_ONES), [-1]
    for _ in range(marks):
        found.append(ones.find(1, found[-1] + 1))
    return found[1:]


@lru_cache(maxsize=2)
def _lane_masks(itemsize: int, lanes: int) -> tuple[int, int, int, int]:
    """1 in each of ``lanes`` lanes of ``itemsize`` bytes, and 0x55, 0x33
    and 0x0f in each of their bytes; cached for a whole block and the
    last, partial one."""
    every_byte = int.from_bytes(b"\1" * (itemsize * lanes), "little")
    one = int.from_bytes((b"\1" + bytes(itemsize - 1)) * lanes, "little")
    return one, 0x55 * every_byte, 0x33 * every_byte, 0x0F * every_byte
