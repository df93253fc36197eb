"""``ints`` rows written from decimal arithmetic, for the pieces of a
document that are translates of its first piece.

:mod:`.document` imports this module, and with it :mod:`decimal`, only
once a cycle of enough pieces reaches its second piece: ``construct``
renders the translates by their shifts, and ``verify`` renders them to
prove the rows it reads. ``oracle`` writes one piece, and loads neither.
"""

from __future__ import annotations

import decimal
from array import array
from collections.abc import Sequence

from .core import Translate, lane_typecode, pack


class Translates:
    """The ``ints`` rows of the translates of a piece ``first`` of codes:
    ``first`` with one code ``c < 2**k`` xor'ed onto every lane.

    Take the codes as the ``w``-digit fields of one decimal number, ``w``
    the digits of ``2**k - 1``. As ``x ^ 2**p`` is ``x + 2**p - 2**(p+1)``
    times bit ``p`` of ``x``, a translate is the first piece's number plus,
    for each bit ``p`` of ``c``, ``2**p * (ONE - 2 * B_p)``, where ONE has
    a 1 in every field and ``B_p`` bit ``p`` of each first code. ``str``
    of the sum gives every digit at C speed; its digit columns, all but
    those of zeros, are copied strided into rows of zeros, and the leading
    zeros go in at most ``w - 1`` passes of ``replace``. The numbers are
    made at the first translate and summed in an exact context of their
    own, so no process-wide context changes.
    """

    def __init__(self, first: Sequence[int], k: int, sep: str) -> None:
        self.first, self._k, self._sep = first, k, sep
        self._typecode = lane_typecode(k)
        self._hexits = 2 * array(self._typecode).itemsize  # hex digits of a lane
        self.packed = pack(array(self._typecode, first))
        self._one = pack(array(self._typecode, [1]) * len(first))
        self._context = decimal.Context(prec=decimal.MAX_PREC)
        self._width = len(str((1 << k) - 1))
        self._fields: decimal.Decimal | None = None
        self._steps: dict[int, decimal.Decimal] = {}  # p -> 2**p * (ONE - 2 * B_p)

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
        if self._fields is None:
            first = self.first
            self._fields = decimal.Decimal((f"%0{self._width}d" * len(first)) % tuple(first))
            self._ones = self._column("1" * len(first))
        total, add = self._fields, self._context.add
        for p in range(shift.bit_length()):
            if shift >> p & 1:
                total = add(total, self._step(p))
        return self._joined(str(total))

    def translate(self, shift: int) -> Translate:
        """The translate by ``shift``, a code in [0, 2**k), as a view."""
        return Translate(self.packed, self._one, shift, self._typecode, len(self.first))

    def _column(self, digits: str) -> decimal.Decimal:
        """The number whose fields hold one digit each, ``digits``."""
        fields = bytearray(b"0" * (self._width * len(digits)))
        fields[self._width - 1::self._width] = digits.encode()
        return decimal.Decimal(fields.decode())

    def _step(self, p: int) -> decimal.Decimal:
        """``2**p * (ONE - 2 * B_p)``, made the first time it is asked for;
        ``B_p`` holds the last hex digit of each lane of the first piece's
        bit ``p``."""
        step = self._steps.get(p)
        if step is None:
            step, multiply = self._ones, self._context.multiply
            bits = self.packed >> p & self._one
            if bits:
                column = f"{bits:0{len(self.first) * self._hexits}x}"[::-self._hexits]
                step = self._context.subtract(step, multiply(self._column(column), 2))
            step = self._steps[p] = multiply(step, 1 << p)
        return step

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
