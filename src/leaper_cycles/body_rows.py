"""The rows of a document's body, read as the file's bytes, never decoded,
a block at a time into one buffer, and taken a block's whole rows or a
piece at a time; the later pieces of a cycle of translates proven by
rendering them.

:mod:`.document` imports this module only to read a body, so
``construct`` and ``oracle`` do not compile it.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Generator, Iterator, Sequence
from io import SEEK_END
from typing import TYPE_CHECKING, BinaryIO

if TYPE_CHECKING:
    from .core import Template


class BodyRows:
    """The code chunks of a document's body, the bytes of the file read by
    :meth:`chunks` in blocks cut anywhere, each row ended by ``sep``.

    Each block is read by ``readinto`` into the free end of one buffer the
    reader owns, and only the text its edge cuts, a row or a piece start,
    moves to the front of the buffer before the next: no block becomes a
    new ``bytes``, and none is joined. What is taken from the buffer, a
    window of rows for ``read`` or the text held at a fault, is a copy,
    but for a window that is all the text read, as a long row may be: the
    buffer itself is then handed to ``read``, and a new one is taken.

    ``read(rows, lineno)`` is a window reader of :mod:`.document`: it
    returns the codes of ``rows``, whole rows the first of which is on
    line ``lineno``, or None if the body is to be parsed whole, or raises
    the fault of the line at fault. It reads all the whole rows of a block
    at once, unless ``piece`` is not 0: the body is then rows of a cycle
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
      text read than a translate's text reaches, are held and read with the
      next block, so a piece cut by a block's edge stays on the route.
    - Text past the last ``sep`` longer than ``row_max``, more than any
      valid row holds, is a row cut short: once the whole rows before it
      are read, ``cut(row, lineno)`` raises if the row is refused whatever
      ends it, and it is held only if not, to be tested again once it is
      twice as long, so a long row is tested in time linear in its length.
    - ``tail`` is ``(end, last)``: the file ends with ``end`` after the
      body, as JSON's ends with its tail, and ``last`` ends its last row
      in its place; both are empty for text.
    """

    def __init__(
        self,
        k: int,
        sep: bytes,
        read: Callable[[bytearray, int], Sequence[int] | None],
        piece: int,
        lineno: int,
        translates: Callable[[list[int]], Template],
        row_max: int,
        cut: Callable[[bytearray, int], None],
        tail: tuple[bytes, bytes],
    ) -> None:
        self._k, self._sep, self._read, self._piece, self._lineno = k, sep, read, piece, lineno
        self._make, self._row_max, self._cut = translates, row_max, cut
        self._tail, self._last = tail
        # Rows left to ``read`` in the piece at hand; all of them off the route.
        self._left = piece or sys.maxsize
        self._first: list[int] | None = [] if piece else None  # piece 0 or 1, while read
        self._translates: Template | None = None  # the template
        self._spare: Template | None = None  # piece 1's, tried on piece 2 alone
        self._no_piece_0 = False  # piece 0 was no template
        self._span = 0  # the longest translate text, once there is a template
        self._chars = 2  # a guess at a row's length, sep included
        self._buffer = bytearray()  # the blocks, read in turn into its free end
        self._pos = self._end = 0  # the text not read yet, from a row or piece start
        self._tested = 0  # the length of the row cut short ``cut`` last let pass

    def release(self) -> tuple[list[bytes], int]:
        """The text read in and not taken, from the rows ``read`` refused or
        the row ``cut`` refused if one raised, as a copy, and its first
        line; the buffer is let go, so it is not held beside the copy."""
        held, self._buffer = bytes(memoryview(self._buffer)[self._pos:self._end]), bytearray()
        return [held], self._lineno

    def chunks(self, lead: bytes, source: BinaryIO, block: int) -> Iterator[Sequence[int] | None]:
        """The code chunks of ``lead`` and the rest of ``source`` after it,
        read by ``readinto`` a ``block`` of bytes at a time into the end of
        one buffer, whose text not taken yet is moved to its front after
        each block if it does not start there; the last row may lack a ``sep``. A chunk of None ends
        the chunks. The last ``len(end)`` bytes read are kept back, and at
        the file's end must be ``end``, else a chunk of None ends the
        chunks; ``last`` takes their place. A seekable source's blocks are
        no longer than the bytes it has left and one, so none is empty."""
        keep = len(self._tail)
        if source.seekable():
            here = source.tell()
            block = min(block, source.seek(0, SEEK_END) - here + 1)
            source.seek(here)
        # Room for a block and the text a block's edge cuts: a piece start or a row.
        self._buffer = bytearray(len(lead) + block + block // 4)
        self._buffer[:len(lead)] = lead
        self._end = len(lead)
        while True:
            if (yield from self._feed(self._end - keep, final=False)):
                return
            buffer, held = self._buffer, self._end - self._pos
            if self._pos:
                buffer[:held], self._pos, self._end = buffer[self._pos:self._end], 0, held
            if len(buffer) < held + block:  # a long row held; a bytearray grows in amortized O(1)
                buffer += bytes(held + block - len(buffer))
            read = source.readinto(memoryview(buffer)[held:held + block])
            if not read:
                break
            self._end += read
        if not buffer.endswith(self._tail, self._pos, self._end):
            yield None
            return
        self._end -= keep
        buffer[self._end:self._end + len(self._last)] = self._last
        self._end += len(self._last)
        yield from self._feed(self._end, final=True)

    def _feed(self, stop: int, final: bool) -> Generator[Sequence[int] | None, None, bool]:
        """The code chunks of the rows of the buffer from the text not read
        to ``stop``, and whether one of them was None. Without ``final``,
        only whole rows are read, and not a piece start nearer ``stop`` than
        a translate's text reaches, unless the text past the last ``sep`` is
        longer than ``row_max``: then every whole row is, and ``cut`` tests
        that text as the class docstring says."""
        text, pos = self._buffer, self._pos
        limit = stop if final else max(text.rfind(self._sep, pos, stop) + 1, pos)
        long = stop - limit > self._row_max  # read every whole row before it
        fed = limit > pos
        while pos < limit:
            if not self._left:  # a piece start past piece 0
                if not (final or long) and limit - pos < self._span:
                    break
                proven = self._translate(text, pos, limit)
                if proven is not None:
                    view, pos = proven
                    self._lineno += len(view)
                    yield view
                    continue
                self._left = self._piece
            end, rows = self._rows_end(text, pos, limit, self._left)
            whole = pos == 0 and end == self._end  # the window is all the text read
            if whole:
                del text[end:]  # the free end, so the buffer itself is the window
            try:
                codes = self._read(text if whole else text[pos:end], self._lineno)
            except ValueError:
                self._pos = pos
                raise
            if codes is None:
                yield None
                return True
            if whole:  # a buffer of its own for the next block
                text, end, limit = bytearray(), 0, 0
                self._buffer, self._end = text, 0
            pos, self._lineno, self._left = end, self._lineno + rows, self._left - rows
            if self._first is not None:
                self._first += codes
                if not self._left:
                    self._template()
            if codes:
                yield codes
        self._pos = pos
        if fed:
            self._tested = 0
        if long and stop - pos > 2 * self._tested:
            self._cut(text[pos:stop], self._lineno)
            self._tested = stop - pos
        return False

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

    def _translate(self, text: bytearray, pos: int, limit: int) -> tuple[Sequence[int], int] | None:
        """The translate of the template or else the spare, then the template,
        whose rows and a ``sep`` open ``text[pos:limit]``, and the index
        after; else None."""
        spare, self._spare, sep, template = self._spare, None, self._sep, self._translates
        if template is None:
            return None
        row_end = text.find(sep, pos, min(pos + template.width + 1, limit))
        code = template.code(text[pos:row_end]) if row_end >= 0 else None
        if code is None:
            return None
        for translates in filter(None, (template, spare)):
            first = translates.first
            shift = code ^ first[0]
            second = translates.row(first[1] ^ shift) + sep
            if shift >> self._k or not text.startswith(second, row_end + len(sep), limit):
                continue
            rows = translates.text(shift)
            end = pos + len(rows)
            if text.startswith(rows, pos, limit) and text.startswith(sep, end, limit):
                self._translates, self._first = translates, None
                return translates.translate(shift), end + len(sep)
        return None

    def _rows_end(self, text: bytes | bytearray, pos: int, limit: int, rows: int) -> tuple[int, int]:
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
