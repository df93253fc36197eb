"""A text row too long to hold: the test that refuses it before its end,
and its tokens, counted as the scan after the fault passes over the rest
of it, from which its fault is named as a parse of the whole row names it.

:mod:`.document` imports this module only for a row longer than any
valid row, so no other read compiles it.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator

from .document import _QUOTED, DocumentError, _count_fault, _text_codes

_TOKEN_BYTES = 4 * (_QUOTED + 2)  # bytes that hold the characters an error quotes
_MARKS = bytes(32 if byte in b" \t\r" else 120 for byte in range(256))  # " " or "x"


def refused(row: bytes, k: int, encoding: str) -> bool:
    """Whether ``row``, the start of a row with no LF yet, is refused
    whatever ends it: it holds a byte other than a space, tab or CR that no
    row of ``encoding`` holds, two ``ints`` tokens, an ``ints`` token of
    more digits than the interpreter converts, or more than the k
    ``tuples`` digits."""
    if encoding == "ints":
        inner = row.strip(b" \t\r")
        return (
            bool(row.translate(None, b" \t\r0123456789"))
            or any(c in inner for c in (b" ", b"\t", b"\r"))
            or 0 < sys.get_int_max_str_digits() < len(inner)
        )
    spaces = row.count(b" ") + row.count(b"\t") + row.count(b"\r")
    return bool(row.translate(None, b" \t\r01")) or len(row) - spaces > k


class RowTokens:
    """The tokens of the first line of the blocks :meth:`tap` passes on,
    split at spaces, tabs and CRs: their ``count``, the first ``wanted``
    of them, each cut to _TOKEN_BYTES bytes, and the length of the first
    and whether it is ASCII digits alone. A line with no stray whitespace
    and no byte that is not UTF-8 splits as :func:`~.document._text_codes`
    splits it."""

    def __init__(self, wanted: int) -> None:
        self.count, self.tokens, self._wanted = 0, [], wanted
        self._open = False  # the last token so far may go on in the next block
        self._length, self._digits = 0, True  # of the first token

    def tap(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        done = False
        for block in blocks:
            if not done:
                end = block.find(b"\n")
                done = end >= 0
                self._feed(block[:end] if done else block)
            yield block

    def _feed(self, part: bytes) -> None:
        marks, cap, pos = part.translate(_MARKS), _TOKEN_BYTES + 1, 0
        if self._open:  # a token at the start goes on from the last block
            pos = marks.find(b" ") % (len(part) + 1)
            if len(self.tokens) == self.count:
                self.tokens[-1] = (self.tokens[-1] + part[:min(pos, cap)])[:cap]
            if self.count == 1:
                self._first(part[:pos])
        self.count += marks.count(b" x", pos) + (marks[pos:pos + 1] == b"x")
        while len(self.tokens) < self._wanted and (start := marks.find(b"x", pos)) >= 0:
            pos = marks.find(b" ", start) % (len(part) + 1)
            self.tokens.append(part[start:min(pos, start + cap)])
            if len(self.tokens) == 1:
                self._first(part[start:pos])
        self._open = marks[-1:] == b"x" if part else self._open

    def _first(self, part: bytes) -> None:
        """Count ``part`` of the first token."""
        self._length += len(part)
        self._digits = self._digits and not part.translate(None, b"0123456789")

    def fault(self, lineno: int, k: int, encoding: str) -> DocumentError | None:
        """The fault :func:`~.document._text_codes` names in the line, line
        ``lineno``, whose start :func:`refused` refused. A token cut short
        keeps the characters an error quotes and is refused as the whole
        token is: a ``tuples`` token of two bytes is. The first, if it is
        digits alone, is padded with 0s to its length, but to one past the
        interpreter's digit limit at most, which the one token of such an
        ``ints`` row is past; any other gains an "x", which the one token
        of such an ``ints`` row holds a byte like."""
        if self.count != self._wanted:
            return _count_fault(lineno, self.count, k, encoding)
        limit = sys.get_int_max_str_digits() + 1
        line = " ".join(  # a character cut at the end is dropped
            token[:_TOKEN_BYTES].decode(errors="ignore")
            + ("0" * (min(self._length, limit) - _TOKEN_BYTES) if i == 0 and self._digits else "x")
            * (len(token) > _TOKEN_BYTES)
            for i, token in enumerate(self.tokens)
        )
        try:
            _text_codes([line], lineno, k, encoding)
        except DocumentError as exc:
            return exc
        return None
