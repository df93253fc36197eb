"""The rows of a document's body, read as the file's bytes, never decoded,
a block or a piece at a time; the later pieces of a cycle of translates
proven by rendering them.

:mod:`.document` imports this module only to read a body, so
``construct`` and ``oracle`` do not compile it.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import Template


class BodyRows:
    """The code chunks of a document's body, fed as the bytes of the file
    in blocks cut anywhere, each row ended by ``sep``.

    ``read(rows, lineno)`` is a window reader of :mod:`.document`: it
    returns the codes of ``rows``, whole rows the first of which is on
    line ``lineno``, or None if the body is to be parsed whole, or raises
    the fault of the line at fault. It reads all the whole rows fed at
    once, unless ``piece`` is not 0: the body is then rows of a cycle
    whose translates the renderer writes, and it is taken ``piece`` rows
    at a time, aligned to row ``piece * t``:

    - ``read`` reads piece 0, whose codes, made a :class:`~.core.Template`
      by ``translates``, are the template.
    - A later piece whose first row is the row of a code ``c`` with
      ``shift = c ^ first[0] < 2**k``, whose second row is that of
      ``first[1] ^ shift``, and whose text opens with the rows the
      template renders for ``shift`` and a ``sep``, is the translate by
      ``shift``. The renderer's rows are canonical, so equal text is
      equal codes, and the piece is handed on as a
      :class:`~.core.Translate` without a digit read.
    - ``read`` reads any other piece, and the piece after it tries the
      route again. The second-row test costs O(1), so a body that is no
      run of translates pays for a render only where it passes.
    - If ``read`` reads piece 1, piece 2 is tried against piece 0, then
      piece 1, and whichever proves it is the template from then on, as
      the checker's reference is block 1 when block 0 is at fault.
    - A piece 0 with a code of 2**k or more is no template: piece 1 is,
      as for the checker, and if it too holds one, the body is read
      whole.
    - A row cut by a block's edge, and a piece start nearer the end of the
      text fed than a translate's text reaches, are held and read with the
      next block, so a piece cut by a block's edge stays on the route.
    - Text past the last ``sep`` longer than ``row_max``, more than any
      valid row holds, is a row cut short: once the whole rows before it
      are read, ``cut(row, lineno)`` raises if the row is refused whatever
      ends it, and it is held only if not, to be tested again once it is
      twice as long, so a long row is tested in time linear in its length.
    """

    def __init__(
        self,
        k: int,
        sep: bytes,
        read: Callable[[bytes, int], Sequence[int] | None],
        piece: int,
        lineno: int,
        translates: Callable[[list[int]], Template],
        row_max: int,
        cut: Callable[[bytes, int], None],
    ) -> None:
        self._k, self._sep, self._read, self._piece, self._lineno = k, sep, read, piece, lineno
        self._make, self._row_max, self._cut = translates, row_max, cut
        # Rows left to ``read`` in the piece at hand; all of them off the route.
        self._left = piece or sys.maxsize
        self._first: list[int] | None = [] if piece else None  # piece 0 or 1, while read
        self._translates: Template | None = None  # the template
        self._spare: Template | None = None  # piece 1's, tried on piece 2 alone
        self._no_piece_0 = False  # piece 0 was no template
        self._span = 0  # the longest translate text, once there is a template
        self._chars = 2  # a guess at a row's length, sep included
        self._held = b""  # the text not read yet, from a row or piece start
        self._tested = 0  # the length of the row cut short ``cut`` last let pass

    @property
    def held(self) -> tuple[bytes, int]:
        """The text fed and not read, from the rows ``read`` refused or the
        row ``cut`` refused if one raised, and its first line."""
        return self._held, self._lineno

    def feed(self, *parts: bytes | memoryview, final: bool = False) -> Iterator[Sequence[int] | None]:
        """The code chunks of the text held and then of ``parts``, run
        together; with ``final``, of all the text left, its last row perhaps
        without a ``sep``. A chunk of None ends the chunks."""
        text, self._held = b"".join((self._held, *parts)), b""
        limit = len(text) if final else text.rfind(self._sep) + 1
        long = len(text) - limit > self._row_max  # read every whole row before it
        pos = 0
        while pos < limit:
            if not self._left:  # a piece start past piece 0
                if not (final or long) and limit - pos < self._span:
                    break
                proven = self._translate(text, pos)
                if proven is not None:
                    view, pos = proven
                    self._lineno += len(view)
                    yield view
                    continue
                self._left = self._piece
            end, rows = self._rows_end(text, pos, limit, self._left)
            try:
                codes = self._read(text[pos:end], self._lineno)
            except ValueError:
                self._held = text[pos:]
                raise
            if codes is None:
                yield None
                return
            pos, self._lineno, self._left = end, self._lineno + rows, self._left - rows
            if self._first is not None:
                self._first += codes
                if not self._left:
                    self._template()
            if codes:
                yield codes
        self._held = text[pos:]
        if limit:
            self._tested = 0
        if long and len(self._held) > 2 * self._tested:
            self._cut(self._held, self._lineno)
            self._tested = len(self._held)

    def chunks(self, blocks: Iterable[bytes]) -> Iterator[Sequence[int] | None]:
        """The code chunks of ``blocks`` fed in turn, then of the text left."""
        for block in blocks:
            yield from self.feed(block)
        yield from self.feed(final=True)

    def _template(self) -> None:
        """Take the piece now read, if its codes are a piece in [0, 2**k), as
        the template, piece 0 or else piece 1, or as the spare, piece 1
        beside piece 0. A piece 0 that is none leaves piece 1 to try, and a
        piece 1 that is none too leaves the route."""
        first, self._first = self._first, None
        if len(first) == self._piece and not max(first) >> self._k:
            self._spare = self._make(first)
            if self._translates is None:  # piece 0, or piece 1 after piece 0 failed
                self._translates, self._spare = self._spare, None
                self._span = self._piece * (self._translates.width + len(self._sep))
                self._first = None if self._no_piece_0 else []  # piece 1 may be the spare
        elif self._translates is None:
            if self._no_piece_0:
                self._left = sys.maxsize
            else:
                self._no_piece_0, self._first = True, []

    def _translate(self, text: bytes, pos: int) -> tuple[Sequence[int], int] | None:
        """The translate of the template or else the spare, then the template,
        whose rows and a ``sep`` open ``text[pos:]``, and the index after; else None."""
        spare, self._spare, sep, template = self._spare, None, self._sep, self._translates
        if template is None:
            return None
        row_end = text.find(sep, pos, pos + template.width + 1)
        code = template.code(text[pos:row_end]) if row_end >= 0 else None
        if code is None:
            return None
        for translates in filter(None, (template, spare)):
            first = translates.first
            shift = code ^ first[0]
            second = translates.row(first[1] ^ shift) + sep
            if shift >> self._k or not text.startswith(second, row_end + len(sep)):
                continue
            rows = translates.text(shift)
            end = pos + len(rows)
            if text.startswith(rows, pos) and text.startswith(sep, end):
                self._translates, self._first = translates, None
                return translates.translate(shift), end + len(sep)
        return None

    def _rows_end(self, text: bytes, pos: int, limit: int, rows: int) -> tuple[int, int]:
        """The index after the ``rows``-th ``sep`` from ``pos``, or ``limit``
        if fewer lie before it, and the count of ``sep`` up to that index.

        The text is counted a span at a time, the rows still wanted times
        the mean row so far. Once a span holds too many, the search halves
        it until a part holds the rows wanted: ``text[lo:hi]`` holds more.
        """
        sep, chars = self._sep, self._chars
        lo, n, hi = pos, 0, 0  # n counts the seps of text[pos:lo]
        while True:
            probe = (lo + hi + 1) // 2 if hi else min(limit, lo + (rows - n) * chars)
            count = text.count(sep, lo, probe)
            if n + count > rows:
                hi = probe
            elif n + count == rows:
                end, n = text.rfind(sep, lo, probe) + len(sep), rows
                break
            elif probe == limit:
                end, n = limit, n + count
                break
            else:
                lo, n = probe, n + count
                chars = (lo - pos) // n if n else 2 * chars
        self._chars = (end - pos) // n if n else chars
        return end, n
