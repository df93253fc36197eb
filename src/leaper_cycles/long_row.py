"""A text row too long to hold: the test that refuses it before its end,
and its tokens, counted as the scan after the fault passes over the rest
of it, from which its fault is named as a parse of the whole row names it.

:mod:`.document` imports this module only for a row longer than any
valid row, so no other read compiles it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .document import _QUOTED, DocumentError, _count_fault, _text_codes

_TOKEN_BYTES = 4 * (_QUOTED + 2)  # bytes that hold the characters an error quotes
_MARKS = bytes(32 if byte in b" \t\r" else 120 for byte in range(256))  # " " or "x"


def refused(row: bytes, k: int, encoding: str) -> bool:
    """Whether ``row``, the start of a row with no LF yet, is refused
    whatever ends it: it holds a byte other than a space, tab or CR that no
    row of ``encoding`` holds, two ``ints`` tokens, or more than the k
    ``tuples`` digits."""
    if encoding == "ints":
        inner = row.strip(b" \t\r")
        return bool(row.translate(None, b" \t\r0123456789")) or any(c in inner for c in (b" ", b"\t", b"\r"))
    spaces = row.count(b" ") + row.count(b"\t") + row.count(b"\r")
    return bool(row.translate(None, b" \t\r01")) or len(row) - spaces > k


class RowTokens:
    """The tokens of the first line of the blocks :meth:`tap` passes on,
    split at spaces, tabs and CRs: their ``count``, and the first ``wanted``
    of them, each cut to _TOKEN_BYTES bytes. A line with no stray whitespace
    and no byte that is not UTF-8 splits as :func:`~.document._text_codes`
    splits it."""

    def __init__(self, wanted: int) -> None:
        self.count, self.tokens, self._wanted = 0, [], wanted
        self._open = False  # the last token so far may go on in the next block

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
        self.count += marks.count(b" x", pos) + (marks[pos:pos + 1] == b"x")
        while len(self.tokens) < self._wanted and (start := marks.find(b"x", pos)) >= 0:
            pos = marks.find(b" ", start) % (len(part) + 1)
            self.tokens.append(part[start:min(pos, start + cap)])
        self._open = marks[-1:] == b"x" if part else self._open

    def fault(self, lineno: int, k: int, encoding: str) -> DocumentError | None:
        """The fault :func:`~.document._text_codes` names in the line, line
        ``lineno``, whose start :func:`refused` refused. A token cut short
        keeps the characters an error quotes and gains an "x", and is
        refused as the whole token is: a ``tuples`` token of two bytes is,
        and the one token of such an ``ints`` row holds a byte other than
        a digit."""
        if self.count != self._wanted:
            return _count_fault(lineno, self.count, k, encoding)
        line = " ".join(  # a character cut at the end is dropped
            token[:_TOKEN_BYTES].decode(errors="ignore") + "x" * (len(token) > _TOKEN_BYTES)
            for token in self.tokens
        )
        try:
            _text_codes([line], lineno, k, encoding)
        except DocumentError as exc:
            return exc
        return None
