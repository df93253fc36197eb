"""The cycle file format: a header line plus one vertex per line.

Text form::

    # k=5 h=3 encoding=tuples closed=true
    0 0 0 0 0
    0 1 1 1 0
    ...

With ``encoding=tuples`` each body line holds the k coordinates leftmost
first, so files are directly comparable with printed listings; with
``encoding=ints`` each line holds the packed integer code (leftmost
coordinate = least significant bit). The JSON alternative carries the same
fields in one object. ``closed`` is always true: documents hold closed
cycles only. Output is deterministic: no timestamps, fixed field order.

Rendering joins the rows a block at a time, so it never holds a string
per row, though its blocks and the joined text are held together at the
end. Parsing cuts the body into line-aligned windows and holds at most
one window's rows at once. A window shaped as the renderers write it is
checked whole at C speed; any other window goes through the per-line
loop, which accepts the same documents and names the line at fault.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice, repeat

from .core import CapacityError, VertexPath, check_dimension

ENCODINGS = ("tuples", "ints")

_HEADER_RE = re.compile(
    r"^#\s*k=([0-9]+)\s+h=([0-9]+)\s+encoding=(\w+)\s+closed=true\s*$"
)
_STRAY_WHITESPACE_RE = re.compile(r"[^\S \t\n\r]|\r(?!\n)")
_JSON_TUPLES_RE = re.compile(
    r'\{"k":([1-9][0-9]*),"h":([1-9][0-9]*),"encoding":"tuples","cycle":\['
)
_JSON_TAIL = '],"closed":true}\n'

_BLOCK_ROWS = 1 << 16  # rows a renderer joins at once
_WINDOW_CHARS = 1 << 20  # characters of body a parser checks at once


class DocumentError(ValueError):
    """Malformed cycle document; the message carries the line number."""


@dataclass(frozen=True)
class CycleDocument:
    h: int
    encoding: str
    path: VertexPath

    def __post_init__(self) -> None:
        if self.encoding not in ENCODINGS:
            raise ValueError(f"encoding must be one of {ENCODINGS}")


def render_text(doc: CycleDocument) -> str:
    _check_codes(doc.path)
    header = f"# k={doc.path.k} h={doc.h} encoding={doc.encoding} closed=true\n"
    if doc.encoding == "tuples":
        rows = _tuple_rows(doc.path, " ")
    else:
        rows = map(str, doc.path.codes)
    return "".join([header, *_joined_blocks(rows, len(doc.path), "\n"), "\n"])


def render_json(doc: CycleDocument) -> str:
    """The text ``json.dumps`` would write, compact, with the fields in order."""
    _check_codes(doc.path)
    if doc.encoding == "tuples":
        rows = _joined_blocks(_tuple_rows(doc.path, ",", "[", "]"), len(doc.path), ",")
    else:
        rows = [json.dumps(doc.path.codes, separators=(",", ":"))[1:-1]]
    return "".join([
        f'{{"k":{doc.path.k},"h":{doc.h},"encoding":"{doc.encoding}","cycle":[',
        *rows,
        _JSON_TAIL,
    ])


def _joined_blocks(rows: Iterator[str], n: int, sep: str) -> Iterator[str]:
    """The pieces of ``sep.join(rows)`` for ``n`` rows, one block of rows each."""
    for start in range(0, n, _BLOCK_ROWS):
        if start:
            yield sep
        yield sep.join(islice(rows, _BLOCK_ROWS))


def _check_codes(path: VertexPath) -> None:
    """Refuse an empty path or a code outside [0, 2**k): neither reads back."""
    codes, k = path.codes, path.k
    if not codes:
        raise ValueError("a cycle document needs at least one vertex")
    if min(codes) < 0 or max(codes) >> k:
        index, code = next(
            (i, c) for i, c in enumerate(codes) if not 0 <= c < 1 << k
        )
        raise ValueError(f"code at index {index} is {code}, outside [0, 2**{k})")


def _tuple_rows(
    path: VertexPath, sep: str, left: str = "", right: str = ""
) -> Iterator[str]:
    """Each code's coordinates, leftmost first, joined by ``sep``.

    The coordinates split into pieces of at most 11 (two halves up to
    k = 22), and a row joins one entry per piece from a table of that
    piece's rows, built per call, so no table outgrows 2**11 rows.
    """
    k, codes = path.k, path.codes
    pieces = -(-k // 11)
    bounds = [k * i // pieces for i in range(pieces + 1)]
    columns = []
    for lo, hi in zip(bounds, bounds[1:]):
        prefix = left if lo == 0 else sep
        suffix = right if hi == k else ""
        table = [prefix + row + suffix for row in _coordinate_rows(hi - lo, sep)]
        mask = (1 << (hi - lo)) - 1
        columns.append(map(table.__getitem__, map(mask.__and__, map(lo.__rrshift__, codes))))
    return map("".join, zip(*columns))


def _coordinate_rows(width: int, sep: str) -> list[str]:
    """Row ``v`` lists the ``width`` low bits of ``v``, bit 0 first."""
    return [
        sep.join("1" if v >> i & 1 else "0" for i in range(width))
        for v in range(1 << width)
    ]


def parse_document(text: str) -> CycleDocument:
    """Parse either the text or the JSON form, sniffing the first character."""
    stripped = text.lstrip()
    if not stripped:
        raise DocumentError("line 1: empty document")
    if stripped[0] == "{":
        return _parse_json(text)
    return _parse_text(text)


def _parse_text(text: str) -> CycleDocument:
    """The text form."""
    _check_whitespace(text)
    end = text.find("\n")
    if end < 0:
        end = len(text)
    header = _HEADER_RE.match(text[:end])
    if header is None:
        raise DocumentError(
            "line 1: expected header '# k=<k> h=<h> encoding=<enc> closed=true'"
        )
    k = _header_int("k", header.group(1))
    h = _header_int("h", header.group(2))
    encoding = header.group(3)
    _check_header(k, h, encoding)

    codes = tuple(chain.from_iterable(
        _window_codes(window, lineno, k, encoding)
        for window, lineno in _windows(text, end + 1)
    ))
    if not codes:
        raise DocumentError("line 2: document has no vertices")
    return CycleDocument(h, encoding, VertexPath(k, codes))


def _windows(text: str, start: int) -> Iterator[tuple[str, int]]:
    """The body from ``start`` on, in windows of whole lines (the last may
    lack its line end), each with the number of its first line."""
    lineno = 2
    while start < len(text):
        stop = text.find("\n", start + _WINDOW_CHARS) + 1 or len(text)
        window = text[start:stop]
        yield window, lineno
        lineno += window.count("\n")
        start = stop


def _window_codes(window: str, lineno: int, k: int, encoding: str) -> tuple[int, ...]:
    """The codes of a window of whole lines whose first is line ``lineno``."""
    codes = _fast_text_codes(window, k, encoding)
    if codes is None:
        codes = _text_codes(window.split("\n"), lineno, k, encoding)
    return codes


def _fast_text_codes(window: str, k: int, encoding: str) -> tuple[int, ...] | None:
    """The codes of a window, if it is shaped as rendered.

    One check of the whole window at C speed. Any other window, valid or
    not, returns None and goes to the per-line loop, which accepts the
    same documents and names the line at fault.
    """
    if encoding == "tuples":
        rows, rest = divmod(len(window), 2 * k)
        if rest or window[1::2] != (" " * (k - 1) + "\n") * rows:
            return None
        bits = window[::2]
        return None if bits.strip("01") else _codes_from_bits(bits, k)
    lines = window.split("\n")
    last = len(lines) - 1
    if (
        not window.isascii()
        or lines[last]
        or not all(map(str.isdigit, islice(lines, last)))
    ):
        return None
    try:
        return tuple(map(int, islice(lines, last)))
    except ValueError:  # a row over int()'s digit limit
        return None


def _codes_from_bits(bits: str, k: int) -> tuple[int, ...]:
    """Codes of rows of ``k`` 0/1 digits, leftmost coordinate first, run together."""
    n = len(bits)
    tail_first = bits[::-1]  # row i, reversed, is tail_first[n-(i+1)k : n-ik]
    rows = map(tail_first.__getitem__, map(slice, range(n - k, -1, -k), range(n, 0, -k)))
    return tuple(map(int, rows, repeat(2)))


def _text_codes(
    lines: list[str], first: int, k: int, encoding: str
) -> tuple[int, ...]:
    """The per-line loop: the codes of lines numbered from ``first`` on, or
    the line at fault."""
    codes: list[int] = []
    for lineno, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        tokens = line.split()
        if encoding == "tuples":
            if len(tokens) != k:
                raise DocumentError(
                    f"line {lineno}: expected {k} coordinates, got {len(tokens)}"
                )
            bits = 0
            for pos, tok in enumerate(tokens):
                if tok not in ("0", "1"):
                    raise DocumentError(
                        f"line {lineno}: position {pos + 1}: coordinate must "
                        f"be 0 or 1, got {tok!r}"
                    )
                bits |= int(tok) << pos
            codes.append(bits)
        else:
            if len(tokens) != 1:
                raise DocumentError(
                    f"line {lineno}: expected one integer, got {len(tokens)} tokens"
                )
            tok = tokens[0]
            if not (tok.isascii() and tok.isdigit()):
                raise DocumentError(
                    f"line {lineno}: vertex code must be ASCII digits, got {tok!r}"
                )
            try:
                codes.append(int(tok))
            except ValueError:  # over int()'s digit limit
                raise DocumentError(
                    f"line {lineno}: vertex code has too many digits"
                ) from None
    return tuple(codes)


def _check_whitespace(text: str) -> None:
    """Refuse whitespace other than space, tab, LF and a CR before an LF.

    Python splits lines or tokens at any of it, which would move line
    numbers off the LF count. A few scans at C speed clear an ASCII text;
    only a text they do not clear pays for the regex search.
    """
    bare_cr = "\r" in text and text.count("\r") != text.count("\r\n")
    stray_ascii = any(c in text for c in "\v\f\x1c\x1d\x1e\x1f")
    if text.isascii() and not bare_cr and not stray_ascii:
        return
    stray = _STRAY_WHITESPACE_RE.search(text)
    if stray:
        lineno = text.count("\n", 0, stray.start()) + 1
        raise DocumentError(
            f"line {lineno}: whitespace {stray.group()!r} "
            "is not a space, tab or line end"
        )


def _parse_json(text: str) -> CycleDocument:
    """The JSON form."""
    doc = _fast_json_tuples(text)
    if doc is not None:
        return doc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"line {exc.lineno}: invalid JSON at column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("line 1: JSON nested too deeply") from None
    except ValueError:  # an integer literal over the interpreter's digit limit
        raise DocumentError("line 1: JSON integer has too many digits") from None
    if not isinstance(obj, dict):
        raise DocumentError("line 1: top-level JSON value must be an object")
    for field in ("k", "h", "encoding", "cycle", "closed"):
        if field not in obj:
            raise DocumentError(f"line 1: missing field {field!r}")
    k, h, encoding, cycle, closed = (
        obj["k"], obj["h"], obj["encoding"], obj["cycle"], obj["closed"]
    )
    _check_header(k, h, encoding)
    if closed is not True:
        raise DocumentError("line 1: closed must be true")
    if not isinstance(cycle, list) or not cycle:
        raise DocumentError("line 1: cycle must be a non-empty array")
    codes = _fast_json_codes(cycle, encoding)
    if codes is None:
        codes = _json_codes(cycle, k, encoding)
    return CycleDocument(h, encoding, VertexPath(k, codes))


def _fast_json_tuples(text: str) -> CycleDocument | None:
    """A ``tuples`` document in exactly the text ``render_json`` writes.

    The header fields are checked first, the ceiling before any work on
    the rows, and the rows then window by window at C speed. Any other
    text returns None and goes to ``json.loads``, which names the fault.
    """
    head = _JSON_TUPLES_RE.match(text)
    if head is None or not text.endswith("]" + _JSON_TAIL):
        return None
    try:
        k, h = int(head.group(1)), int(head.group(2))
        _check_header(k, h, "tuples")
    except ValueError:  # too many digits, or a refusal: json.loads names the first fault
        return None
    # With a "," after the last row, the rows form a grid of "[b,...,b],".
    width = 2 * k + 2
    start, stop = head.end(), len(text) - len(_JSON_TAIL)
    if (stop + 1 - start) % width:
        return None
    step = max(1, _WINDOW_CHARS // width) * width
    parts = []
    for left in range(start, stop, step):
        right = min(left + step, stop)
        codes = _grid_codes(text[left:right] + ("," if right == stop else ""), k)
        if codes is None:
            return None
        parts.append(codes)
    return CycleDocument(h, "tuples", VertexPath(k, tuple(chain.from_iterable(parts))))


def _grid_codes(grid: str, k: int) -> tuple[int, ...] | None:
    """The codes of rows ``[b,...,b],`` of ``k`` 0/1 digits, else None."""
    rows = len(grid) // (2 * k + 2)
    if grid[::2] != ("[" + "," * (k - 1) + "]") * rows:
        return None
    digits = grid[1::2]  # each row's k digits, then its ","
    bits = digits.replace(",", "")
    if digits[k::k + 1] != "," * rows or len(bits) != rows * k or bits.strip("01"):
        return None
    return _codes_from_bits(bits, k)


def _fast_json_codes(cycle: list, encoding: str) -> tuple[int, ...] | None:
    """The codes of an ``ints`` cycle if all its rows pass one check, else None.

    Any other cycle goes to the per-row loop, which names the index at
    fault; JSON ``tuples`` in the renderer's text never reaches here.
    """
    if encoding == "ints" and set(map(type, cycle)) == {int} and min(cycle) >= 0:
        return tuple(cycle)
    return None


def _json_codes(cycle: list, k: int, encoding: str) -> tuple[int, ...]:
    """The per-row loop: the codes of any accepted cycle, or the index at fault."""
    codes: list[int] = []
    for i, item in enumerate(cycle):
        if encoding == "tuples":
            if (
                not isinstance(item, list)
                or len(item) != k
                or not set(map(type, item)) <= {int}
                or not set(item) <= {0, 1}
            ):
                raise DocumentError(
                    f"line 1: cycle[{i}] must be an array of {k} 0/1 coordinates"
                )
            codes.append(sum(c << pos for pos, c in enumerate(item)))
        else:
            if not isinstance(item, int) or isinstance(item, bool) or item < 0:
                raise DocumentError(
                    f"line 1: cycle[{i}] must be a nonnegative integer"
                )
            codes.append(item)
    return tuple(codes)


def _header_int(name: str, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise DocumentError(f"line 1: {name} has too many digits") from None


def _check_header(k: object, h: object, encoding: object) -> None:
    """Check the header fields of either form, the ceiling before any 2**k work."""
    for name, value in (("k", k), ("h", h)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DocumentError(f"line 1: {name} must be a positive integer")
    try:
        check_dimension(k)
    except CapacityError as exc:
        raise DocumentError(f"line 1: {exc}") from None
    if encoding not in ENCODINGS:
        raise DocumentError(f"line 1: unknown encoding {encoding!r}")
