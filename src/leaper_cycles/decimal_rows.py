"""``ints`` rows written from decimal arithmetic, for the pieces of a
document that are translates of its first piece.

:mod:`.document` imports this module, and with it :mod:`decimal`, only
once a cycle of enough pieces reaches its second piece: ``construct``
renders the translates by their shifts, and ``verify`` renders them to
prove the rows it reads. ``oracle`` writes one piece, and loads neither.

A translate's codes are summed as the fixed-width fields of one decimal
number, and ``str`` of the sum gives every digit at C speed. The fields
are wider than the piece's greatest row, so their top digit is a 0 in
the same place of every field, and one strided store turns the column
into the row separators: the rows cost one ``str`` and one store. Rows
shorter than that strike out the zeros they open with, a column at a
time, and in one pass at the end. The rows are ASCII bytes, as the
file's are.
"""

from __future__ import annotations

import decimal
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from functools import reduce
from operator import or_

from .core import Template

_X_LESS_0 = bytes([ord("x") - ord("0")])
# A digit's byte -> "x" - "0" for a 0, else nothing: added to a 0, it makes an "x".
_ZERO_TO_X = bytes(_X_LESS_0[0] if b == ord("0") else 0 for b in range(256))


class _Fields:
    """The first piece's codes as the ``width``-digit fields of one
    decimal number, with ONE, the number with a 1 in every field, the
    steps made so far, and the translate last summed: its shift and its
    ``total``."""

    __slots__ = ("width", "one", "steps", "shift", "total")

    def __init__(self, width: int, total: decimal.Decimal, one: decimal.Decimal) -> None:
        self.width, self.total, self.one, self.shift = width, total, one, 0
        self.steps: dict[int, decimal.Decimal] = {}  # p -> 2**p * (ONE - 2 * B_p)


def _column(width: int, digits: bytes) -> decimal.Decimal:
    """The number whose ``width``-digit fields hold one digit each, ``digits``."""
    fields = bytearray(b"0" * (width * len(digits)))
    fields[width - 1::width] = digits
    return decimal.Decimal(fields.decode())


class Translates(Template):
    """The ``ints`` rows of the translates of a piece ``first`` of codes:
    ``first`` with one code ``c < 2**k`` xor'ed onto every lane, its rows
    joined by ``sep``, one byte, as ASCII bytes.

    Take the codes as the fixed-width fields of one decimal number. As
    ``x ^ 2**p`` is ``x + 2**p - 2**(p+1)`` times bit ``p`` of ``x``, a
    translate is the first piece's number plus, for each bit ``p`` of
    ``c``, ``2**p * (ONE - 2 * B_p)``, where ONE has a 1 in every field
    and ``B_p`` bit ``p`` of each first code. Each field width keeps the
    translate it summed last, so a translate costs one add or subtract
    for each bit where its shift differs from that one's.

    With ``w`` the digits of ``2**k - 1``, a translate whose greatest row
    has ``w`` digits is summed in fields of ``w + 1`` digits, any other in
    fields of ``w``, so the top digit of every field is a 0, and the
    separators are stored over them. A row with fewer digits than its
    field less one opens with zeros, which are struck out column by
    column; the bits of ``c`` that no first code holds, ``c & ~support``,
    spare that work where they make a number of ``w`` digits, as every row
    then has. The numbers of a width are made when it is first asked for
    and summed in an exact context of their own, so no process-wide
    context changes.
    """

    def __init__(self, first: Sequence[int], k: int, sep: bytes) -> None:
        super().__init__(first, k)
        self._seps = sep * len(first)
        self._hexits = 2 * array(self.typecode).itemsize  # hex digits of a lane
        self._support = reduce(or_, first, 0)
        self._sorted = sorted(first)
        self._bits = [1 << p for p in reversed(range(k)) if self._support >> p & 1]
        self._context = decimal.Context(prec=decimal.MAX_PREC)
        self.width = len(str((1 << k) - 1))  # the digits of the longest row
        # A row has w digits from here on; 0 has one digit too.
        self._wide = 10 ** (self.width - 1) if self.width > 1 else 0
        self._leads = int.from_bytes(_X_LESS_0 * len(first), "big")  # every row still opening
        self._fields: dict[int, _Fields] = {}  # width -> the fields of that width
        self._digits = b""  # the first codes in fields of w + 1 digits, once formatted
        self._columns: dict[int, bytes] = {}  # p -> the digits of B_p, 0 or 1 a code

    def code(self, row: bytes) -> int | None:
        """The code a row of ASCII digits names, else None."""
        return int(row) if row.isdigit() else None

    def row(self, code: int) -> bytes:
        """The row of ``code``."""
        return b"%d" % code

    def text(self, shift: int) -> bytearray:
        """The rows of the translate by ``shift``, a code in [0, 2**k)."""
        width = self.width
        if shift & ~self._support >= self._wide:  # every row has w digits
            return self._slotted(shift, width + 1, strip=False)
        return self._slotted(shift, width + (self._greatest(shift) >= self._wide), strip=True)

    def _greatest(self, shift: int) -> int:
        """The greatest row ``c ^ shift`` of the first codes ``c``: the sorted
        codes are cut, a bit at a time from the top, to those that differ
        from ``shift`` in it where any does."""
        codes, lo, hi, best = self._sorted, 0, len(self._sorted), 0
        for bit in self._bits:
            cut = bisect_left(codes, best | bit, lo, hi)
            if (cut == lo) if shift & bit else (cut < hi):  # take the codes with the bit
                lo, best = cut, best | bit
            else:
                hi = cut
        return best ^ shift

    def _sum(self, width: int, shift: int) -> str:
        """``str`` of the translate by ``shift`` summed in ``width``-digit
        fields, from the one they summed last."""
        fields = self._fields.get(width)
        if fields is None:
            fields = self._fields[width] = self._new_fields(width)
        context = self._context
        total, changed = fields.total, shift ^ fields.shift
        for p in range(changed.bit_length()):
            if changed >> p & 1:
                step = self._step(fields, p)
                total = (context.add if shift >> p & 1 else context.subtract)(total, step)
        fields.shift, fields.total = shift, total
        return str(total)

    def _new_fields(self, width: int) -> _Fields:
        """The fields of ``width`` digits, ``w`` or ``w + 1``. The first
        codes are formatted once, in fields of ``w + 1`` digits, whose top
        digit is a 0; those of ``w`` digits are their other digits, one
        strided copy a digit. ONE is summed by doubling: the ones of ``2f``
        fields are those of ``f`` fields and the same shifted by ``f``
        fields, and a field more is a shift by one field and a 1."""
        count, context = len(self.first), self._context
        if not self._digits:
            self._digits = ((f"%0{self.width + 1}d" * count) % tuple(self.first)).encode()
        digits = self._digits
        if width == self.width:
            digits = bytearray(width * count)
            for d in range(width):
                digits[d::width] = self._digits[d + 1::width + 1]
        one, ones = decimal.Decimal(1), 1
        for bit in bin(count)[3:]:
            one, ones = context.add(one, context.scaleb(one, ones * width)), 2 * ones
            if bit == "1":
                one, ones = context.add(context.scaleb(one, width), 1), ones + 1
        return _Fields(width, decimal.Decimal(digits.decode()), one)

    def _step(self, fields: _Fields, p: int) -> decimal.Decimal:
        """``2**p * (ONE - 2 * B_p)`` in ``fields``, made the first time it
        is asked for. ``B_p``'s digits, the last hex digit of each lane of
        the first piece's bit ``p``, are made once for both widths."""
        step = fields.steps.get(p)
        if step is None:
            multiply = self._context.multiply
            column = self._columns.get(p)
            if column is None:
                bits = self.packed >> p & self.one
                column = self._columns[p] = f"{bits:0{len(self.first) * self._hexits}x}"[::-self._hexits].encode()
            step = fields.one
            if column.strip(b"0"):
                step = self._context.subtract(step, multiply(_column(fields.width, column), 2))
            step = fields.steps[p] = multiply(step, 1 << p)
        return step

    def _slotted(self, shift: int, width: int, strip: bool) -> bytearray:
        """The rows of the translate by ``shift``, summed in ``width``-digit
        fields whose top digit is a 0 for every row; with ``strip``, the
        zeros a row opens with are struck out."""
        digits = self._sum(width, shift)
        out = bytearray(b"0" * (width * len(self.first) - len(digits)))  # what str leaves out
        out += digits.encode("ascii")
        del digits
        out[::width] = self._seps
        if strip:
            out = self._stripped(out, width)
        del out[:1]
        return out

    def _stripped(self, out: bytearray, width: int) -> bytearray:
        """``out``, rows of ``width`` characters, ``sep`` first, without the
        zeros each row opens with, but its last digit. Column by column, a
        0 on a row whose columns before it are all 0s becomes an ``x``, by
        adding ``"x" - "0"`` to the column's bytes as one integer, and the
        ``x``s are deleted at once."""
        count, lead, marked = len(self.first), self._leads, False
        for d in range(1, width - 1):
            column = out[d::width]
            lead &= int.from_bytes(column.translate(_ZERO_TO_X), "big")
            if not lead:
                break
            out[d::width] = (int.from_bytes(column, "big") + lead).to_bytes(count, "big")
            marked = True
        return out.translate(None, b"x") if marked else out
