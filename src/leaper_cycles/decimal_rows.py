"""``ints`` rows written from decimal arithmetic, for the pieces of a
document that are translates of its first piece.

:mod:`.document` imports this module, and with it :mod:`decimal`, only
once a cycle of enough pieces reaches its second piece: ``construct``
renders the translates by their shifts, and ``verify`` renders them to
prove the rows it reads. ``oracle`` writes one piece, and loads neither.

A translate's codes are summed as the fixed-width fields of one decimal
number, and ``str`` of the sum gives every digit at C speed. Where each
field is one digit wider than its row, that top digit is a 0 in the
same place of every field, and one strided store turns the column into
the row separators: the rows cost one ``str`` and one store. A piece
whose rows differ in digit count, or fill their fields, or fall two or
more digits short of them, has its digit columns copied one by one.
"""

from __future__ import annotations

import decimal
from array import array
from collections.abc import Sequence
from functools import reduce
from operator import or_

from .core import Translate, lane_typecode, pack


class _Fields:
    """The first piece's codes as the ``width``-digit fields of one
    decimal number, with ONE, the number with a 1 in every field, the
    steps made so far, and the translate last summed: its shift and its
    ``total``."""

    __slots__ = ("width", "one", "steps", "shift", "total")

    def __init__(self, first: Sequence[int], width: int) -> None:
        self.width, self.one, self.shift = width, _column(width, "1" * len(first)), 0
        self.steps: dict[int, decimal.Decimal] = {}  # p -> 2**p * (ONE - 2 * B_p)
        self.total = decimal.Decimal((f"%0{width}d" * len(first)) % tuple(first))


def _column(width: int, digits: str) -> decimal.Decimal:
    """The number whose ``width``-digit fields hold one digit each, ``digits``."""
    fields = bytearray(b"0" * (width * len(digits)))
    fields[width - 1::width] = digits.encode()
    return decimal.Decimal(fields.decode())


class Translates:
    """The ``ints`` rows of the translates of a piece ``first`` of codes:
    ``first`` with one code ``c < 2**k`` xor'ed onto every lane, its rows
    joined by ``sep``, one character.

    Take the codes as the fixed-width fields of one decimal number. As
    ``x ^ 2**p`` is ``x + 2**p - 2**(p+1)`` times bit ``p`` of ``x``, a
    translate is the first piece's number plus, for each bit ``p`` of
    ``c``, ``2**p * (ONE - 2 * B_p)``, where ONE has a 1 in every field
    and ``B_p`` bit ``p`` of each first code. Each field width keeps the
    translate it summed last, so a translate costs one add or subtract
    for each bit where its shift differs from that one's.

    With ``w`` the digits of ``2**k - 1``, a translate is summed in
    fields of ``w + 1`` digits when the bits of ``c`` that no first code
    holds, ``c & ~support``, make a number of ``w`` digits, as every row
    then has. Else it is summed in fields of ``w`` digits, and if every
    row has ``w - 1`` digits, the top digit of each field is the 0 the
    separator replaces there too. Any other translate has its digit
    columns, all but those of zeros, copied strided into rows of zeros,
    and the leading zeros go in at most ``w - 1`` passes of ``replace``. The numbers of a width are made when it is first asked
    for and summed in an exact context of their own, so no process-wide
    context changes.
    """

    def __init__(self, first: Sequence[int], k: int, sep: str) -> None:
        self.first, self._k, self._sep = first, k, sep
        self._typecode = lane_typecode(k)
        self._hexits = 2 * array(self._typecode).itemsize  # hex digits of a lane
        self.packed = pack(array(self._typecode, first))
        self._one = pack(array(self._typecode, [1]) * len(first))
        self._support = reduce(or_, first, 0)
        self._context = decimal.Context(prec=decimal.MAX_PREC)
        self._width = len(str((1 << k) - 1))
        self._wide = 10 ** (self._width - 1)  # every row has w digits from here on
        self._seps = sep.encode() * (len(first) - 1)
        self._zeros = "0" * (len(first) - 1)
        self._fields: dict[int, _Fields] = {}  # width -> the fields of that width

    def shift_of(self, codes: Sequence[int]) -> int | None:
        """The code ``c`` if ``codes`` are the first piece with ``c`` xor'ed
        onto every lane, else None."""
        first = self.first
        shift = codes[0] ^ first[0]
        if (
            len(codes) != len(first)
            or shift >> self._k
            or pack(array(self._typecode, codes)) != self.packed ^ shift * self._one
        ):
            return None
        return shift

    def text(self, shift: int) -> str:
        """The rows of the translate by ``shift``, a code in [0, 2**k)."""
        width = self._width
        if shift & ~self._support >= self._wide:
            return self._slotted(self._sum(width + 1, shift), width + 1)
        digits = self._sum(width, shift)
        # Rows of w - 1 digits leave the top digit of each field a 0, the
        # first field's not written, and the next digit of none a 0.
        if (
            len(digits) == width * len(self.first) - 1
            and digits[width - 1::width] == self._zeros
            and "0" not in digits[::width]
        ):
            return self._slotted(digits, width)
        return self._joined(digits)

    def translate(self, shift: int) -> Translate:
        """The translate by ``shift``, a code in [0, 2**k), as a view."""
        return Translate(self.packed, self._one, shift, self._typecode, len(self.first))

    def _sum(self, width: int, shift: int) -> str:
        """``str`` of the translate by ``shift`` summed in ``width``-digit
        fields, from the one they summed last."""
        fields = self._fields.get(width)
        if fields is None:
            fields = self._fields[width] = _Fields(self.first, width)
        context = self._context
        total, changed = fields.total, shift ^ fields.shift
        for p in range(changed.bit_length()):
            if changed >> p & 1:
                step = self._step(fields, p)
                total = (context.add if shift >> p & 1 else context.subtract)(total, step)
        fields.shift, fields.total = shift, total
        return str(total)

    def _step(self, fields: _Fields, p: int) -> decimal.Decimal:
        """``2**p * (ONE - 2 * B_p)`` in ``fields``, made the first time it
        is asked for; ``B_p`` holds the last hex digit of each lane of the
        first piece's bit ``p``."""
        step = fields.steps.get(p)
        if step is None:
            multiply = self._context.multiply
            step, bits = fields.one, self.packed >> p & self._one
            if bits:
                column = f"{bits:0{len(self.first) * self._hexits}x}"[::-self._hexits]
                step = self._context.subtract(step, multiply(_column(fields.width, column), 2))
            step = fields.steps[p] = multiply(step, 1 << p)
        return step

    def _slotted(self, digits: str, width: int) -> str:
        """The rows of ``digits``, a number's ``str`` whose ``width``-digit
        fields each open with a 0, the first one's not written."""
        out = bytearray(digits, "ascii")
        out[width - 1::width] = self._seps
        return out.decode("ascii")

    def _joined(self, digits: str) -> str:
        """The fields of ``digits``, a number's ``str``, as rows."""
        width, count, sep = self._width, len(self.first), self._sep.encode()
        data = digits.rjust(width * count, "0").encode()
        zeros = b"0" * count
        columns = [data[d::width] for d in range(width)]
        lead = next((d for d in range(width - 1) if columns[d] != zeros), width - 1)
        # A row's leading zeros lie in the columns from ``lead`` on that hold a 0.
        no_zero = (d for d in range(lead, width - 1) if b"0" not in columns[d])
        passes = next(no_zero, width - 1) - lead
        width -= lead
        out = bytearray(sep + b"0" * width) * count
        for d, column in enumerate(columns[lead:]):
            if column != zeros:
                out[len(sep) + d::len(sep) + width] = column
        for _ in range(passes):
            out = out.replace(sep + b"0", sep)
        del out[:len(sep)]
        return out.decode("ascii")
