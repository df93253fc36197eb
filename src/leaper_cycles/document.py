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

Rendering yields the text in pieces: the header, the rows of 4,096 codes
at a time, and the tail, so it never holds a string per row. The first
piece's ``tuples`` rows are strided copies of the base-2 digits of its
lanes; a piece that is the first with one code xor'ed onto every lane,
as a :class:`~.core.Translate` of it says in O(1), has those rows with
the columns of that code's set bits complemented, by
:class:`TupleTranslates`. Such a piece's ``ints`` rows, at ``k >= 16``,
are the decimal digits of one sum of big decimals, the separators stored
strided over its fields' top digits, which are all 0s, written by
:mod:`.decimal_rows`; any other piece's are one ``%`` format of a ``%d``
per code. ``construct`` in the CLI writes the pieces as
they come and holds one piece's rows at a time; ``render_text`` and
``render_json`` join them, holding the pieces and the joined text
together at the end. Parsing reads bytes: a head of 4 KiB, enough for
a JSON header, then blocks of about 1 MiB, from a file for
:func:`read_cycle` and from the text, encoded once, for
:func:`parse_document`. The body reader reads each block into the one
buffer it owns and holds only the rows cut by its edge, or a piece's
start (see :mod:`.body_rows`): ``read_cycle`` yields
the codes of the whole rows of each block, or of each piece on the route
below, and ``parse_document`` collects them into one path. At ``k >= 16``,
each later piece of rows, text or JSON, that opens with the rows the
renderer writes for the translate its first row names is proven without
a digit read, and yielded as a :class:`~.core.Translate` (see
:mod:`.body_rows`). Other rows shaped as the renderers write them are
read at C speed: ``ints`` rows of ASCII digits and their separators only
by one ``json.loads``, and ``tuples`` rows as one base-2 integer whose
bytes are an ``array`` of :func:`~.core.lane_typecode`'s lanes. These
are ASCII by construction, so only a text header's line, rows they
refuse, which go through the per-line loop that names the line at
fault, and the rest of a document after a fault, a block at a time,
are decoded and checked for stray whitespace. Any other JSON goes to
``json.loads`` whole.
"""

from __future__ import annotations

import codecs
import io
import json
import re
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from itertools import chain, repeat
from typing import TYPE_CHECKING, BinaryIO, NamedTuple, TypeVar

from . import core
from .core import CapacityError, VertexPath, check_dimension, lane_typecode, unpack

if TYPE_CHECKING:
    from .body_rows import BodyRows

ENCODINGS = ("tuples", "ints")

_HEADER_RE = re.compile(
    r"^#\s*k=([0-9]+)\s+h=([0-9]+)\s+encoding=(\w+)\s+closed=true\s*$"
)
_STRAY_WHITESPACE_RE = re.compile(r"[^\S \t\n\r]|\r(?!\n)")
# The JSON text render_json writes, up to the first row; tuples rows open
# with one more "[".
_JSON_HEAD_RE = re.compile(
    rb'\{"k":([1-9][0-9]*),"h":([1-9][0-9]*),"encoding":"(tuples|ints)","cycle":\[(\[?)'
)
_JSON_TAIL = '],"closed":true}\n'
# encoding -> (what ends each row of the body but the last, the tail after it)
_JSON_ROWS = {"tuples": (b"],[", b"]" + _JSON_TAIL.encode()), "ints": (b",", _JSON_TAIL.encode())}

_FIELD_PIECES = 16  # pieces of a cycle that pay for the fields of ints rows
_WINDOW_CHARS = 1 << 20  # bytes of body a parser reads at once
_HEAD_BYTES = 1 << 12  # what a parser reads first, enough for a JSON header
_HEADER_TOKENS = 1 << 16  # characters but spaces and tabs a text header line may hold
_NOT_TOKENS = b" \t" + bytes(range(0x80, 0xC0))  # spaces, tabs and UTF-8 continuation bytes
_QUOTED = 40  # characters of a token an error quotes
_Seq = TypeVar("_Seq", bytes, "tuple[int, ...]")
# A document's k, h, encoding and code chunks; a chunk of None leaves the fast route.
_Cycle = tuple[int, int, str, Iterator["Sequence[int] | None"]]


class DocumentError(ValueError):
    """Malformed cycle document; the message carries the line number."""


class _CutRow(DocumentError):
    """A row cut short that is refused whatever ends it; its fault is named
    from the whole row by :class:`~.long_row.RowTokens`."""


class _DocumentFields(NamedTuple):
    h: int
    encoding: str
    path: VertexPath


class CycleDocument(_DocumentFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, h: int, encoding: str, path: VertexPath) -> CycleDocument:
        if encoding not in ENCODINGS:
            raise ValueError(f"encoding must be one of {ENCODINGS}")
        return super().__new__(cls, h, encoding, path)


def render_text(doc: CycleDocument) -> str:
    _check_codes(doc.path)
    return "".join(render_pieces(doc.path.k, doc.h, doc.encoding, [doc.path.codes]))


def render_json(doc: CycleDocument) -> str:
    """The text ``json.dumps`` would write, compact, with the fields in order."""
    _check_codes(doc.path)
    pieces = render_pieces(doc.path.k, doc.h, doc.encoding, [doc.path.codes], as_json=True)
    return "".join(pieces)


def render_pieces(
    k: int,
    h: int,
    encoding: str,
    chunks: Iterable[Sequence[int]],
    *,
    as_json: bool = False,
) -> Iterator[str]:
    """A document's text in pieces: its header, the rows of each piece of
    :data:`~.core.PIECE_CODES` codes cut from the chunks, or of each
    :class:`~.core.Translate` as it is, and its tail.

    The chunks are non-empty and hold codes in [0, 2**k), which are not
    checked here. ``render_text`` and ``render_json`` join the pieces; a
    caller that writes them out as they come holds one piece's rows at a
    time.
    """
    if as_json:
        yield f'{{"k":{k},"h":{h},"encoding":"{encoding}","cycle":['
        sep, tail = ",", _JSON_TAIL
    else:
        yield f"# k={k} h={h} encoding={encoding} closed=true\n"
        sep = tail = "\n"
    rows = _int_rows_joined(k, sep) if encoding == "ints" else _tuple_rows_joined(k, as_json)
    pieces = chain.from_iterable(
        [c] if isinstance(c, core.Translate) else _slices(c, 0, core.PIECE_CODES) for c in chunks
    )
    for i, piece in enumerate(pieces):
        if i:
            yield sep
        yield rows(piece)
    yield tail


def _check_codes(path: VertexPath) -> None:
    """Refuse an empty path or a code outside [0, 2**k): neither reads back."""
    codes, k = path.codes, path.k
    if not codes:
        raise ValueError("a cycle document needs at least one vertex")
    if min(codes) < 0 or max(codes) >> k:
        index, code = next((i, c) for i, c in enumerate(codes) if not 0 <= c < 1 << k)
        raise ValueError(f"code at index {index} is {code}, outside [0, 2**{k})")


def _int_rows_joined(k: int, row_sep: str) -> Callable[[Sequence[int]], str]:
    """The rows of codes, each its decimal digits, joined by ``row_sep``.

    Where a cycle of 2**k codes has _FIELD_PIECES pieces or more, a piece
    that is a translate of the first, a :class:`~.core.Translate` of it
    or one found so, is written by :class:`~.decimal_rows.Translates`;
    any other piece is one ``%`` format of a ``%d`` per code, the format
    built once per piece length.
    """
    formats: dict[int, str] = {}
    first: Sequence[int] | None = None
    translates = None
    fields_pay = _translates_pay(k)

    def rows(codes: Sequence[int]) -> str:
        nonlocal first, translates
        if first is None:
            first = codes
        elif fields_pay:
            if translates is None:
                translates = _int_translates(first, k, row_sep.encode())
            shift = translates.shift_of(codes)
            if shift is not None:
                return translates.text(shift).decode("ascii")
        fmt = formats.get(len(codes))
        if fmt is None:
            fmt = formats[len(codes)] = row_sep.join(["%d"] * len(codes))
        return fmt % tuple(codes)

    return rows


def _int_translates(first: Sequence[int], k: int, sep: bytes) -> core.Template:
    """The ``ints`` rows of the translates of ``first``, joined by ``sep``;
    :mod:`.decimal_rows`, and with it :mod:`decimal`, is loaded here."""
    from .decimal_rows import Translates

    return Translates(first, k, sep)


def _translates_pay(k: int) -> bool:
    """Whether a cycle of 2**k codes has pieces enough to pay for a
    template of its translates: the renderer writes its ``ints``
    translates, and the parser proves its translates of either encoding,
    by the template only then."""
    return 1 << k >= _FIELD_PIECES * core.PIECE_CODES


_FLIP = bytes.maketrans(b"01", b"10")


class TupleTranslates(core.Template):
    """The ``tuples`` rows of the translates of a piece ``first`` of codes,
    JSON grid rows if ``as_json``, else text rows.

    The rows are one ``bytearray`` of units of ``2k`` characters, ``b b
    ... b`` and an LF, or in JSON of ``2k + 2``, ``[b,...,b],``, each a
    code's coordinates, leftmost first, at a stride of 2. The translate by
    ``c`` is the first piece's rows with the columns of the set bits of
    ``c`` complemented. The rows held are those of the translate last
    asked for, so a translate costs one strided ``translate`` of a column
    for each bit where its shift differs from that one's: about two on
    the closed form. :meth:`written` is the rows as the renderer writes
    them, and :meth:`text` as the body reader cuts them, ended by the
    ``[`` of the next row in JSON: the same bytes, one character on, each
    a view of the rows held, good until the next call.
    """

    def __init__(self, first: Sequence[int], k: int, as_json: bool) -> None:
        super().__init__(first, k)
        self._sep, self._end, lead, row_sep = (",", "],", "[", ",") if as_json else (" ", "", "", "\n")
        unit = (lead + self._sep.join("0" * k) + "]" * as_json + row_sep).encode()
        self._unit, self._lead = len(unit), len(lead)
        self.width = len(unit) - 1  # a row as the reader cuts it, its sep not
        lane = _lane(k)
        bits = f"{self.packed:0{len(first) * lane}b}"[::-1].encode()
        rows = bytearray(unit) * len(first)
        for p in range(k):
            rows[self._lead + 2 * p::self._unit] = bits[p::lane]
        del bits  # not held beside the rows
        self._rows, self._shift = rows, 0

    def code(self, row: bytes) -> int | None:
        """The code of a row of ``k`` 0/1 digits as the reader cuts it,
        else None."""
        bits = row[:2 * self.k:2]
        if len(row) != self.width or bits.strip(b"01"):
            return None
        return int(bits[::-1], 2)

    def row(self, code: int) -> bytes:
        """The row of ``code`` as the reader cuts it."""
        return (self._sep.join(f"{code:0{self.k}b}"[::-1]) + self._end).encode()

    def text(self, shift: int) -> memoryview:
        """The rows of the translate by ``shift``, a code in [0, 2**k), as
        the reader cuts them, joined by their ``sep``."""
        return self._view(shift, self._lead)

    def written(self, shift: int) -> memoryview:
        """The rows of the translate by ``shift``, a code in [0, 2**k), as
        the renderer writes them."""
        return self._view(shift, 0)

    def _view(self, shift: int, start: int) -> memoryview:
        """The rows of the translate by ``shift``, all units but one
        character, from ``start`` on."""
        rows, unit = self._rows, self._unit
        changed, self._shift = shift ^ self._shift, shift
        while changed:
            p = changed.bit_length() - 1
            column = self._lead + 2 * p
            rows[column::unit] = rows[column::unit].translate(_FLIP)
            changed ^= 1 << p
        return memoryview(rows)[start:start + len(rows) - 1]


def _tuple_rows_joined(k: int, as_json: bool) -> Callable[[Sequence[int]], str]:
    """The rows of codes, each its coordinates, leftmost first, joined as
    :class:`TupleTranslates` writes them. The first piece's are made from
    its codes, and so are those of a piece that is no translate of it; a
    translate's are the first piece's with the columns of its shift
    complemented.
    """
    template: TupleTranslates | None = None

    def rows(codes: Sequence[int]) -> str:
        nonlocal template
        if template is None:
            template = TupleTranslates(codes, k, as_json)
            return str(template.written(0), "ascii")
        shift = template.shift_of(codes)
        if shift is None:
            return str(TupleTranslates(codes, k, as_json).written(0), "ascii")
        return str(template.written(shift), "ascii")

    return rows


def parse_document(text: str) -> CycleDocument:
    """Parse either the text or the JSON form, sniffing the first character;
    the text is encoded once and read as :func:`read_cycle` reads a file."""
    stripped = text.lstrip()
    if not stripped:
        raise DocumentError("line 1: empty document")
    fh = io.BytesIO(text.encode("utf-8", "surrogatepass"))  # a lone surrogate is no UTF-8
    head = fh.read(_HEAD_BYTES)
    if stripped[0] == "{":
        return _collect(_json_cycle(head, fh)) or _parse_json(text)
    return _collect(_text_cycle(head, fh))


def read_cycle(fh: BinaryIO) -> _Cycle | None:
    """The header and code chunks of the document in ``fh``, read in blocks.

    ``fh`` is a binary file at its start. Its first 4 KiB are read, enough
    for a JSON header, then blocks of about 1 MiB, which the body reader
    reads into its buffer, so no more than a block and the rows cut by its
    edge are held, and of a text header's line about its characters other
    than spaces and tabs, as :func:`_text_chunks` says.
    Returns ``(k, h, encoding, chunks)`` for a text document whose first
    byte is ASCII and neither ``{`` nor whitespace, and for a JSON
    document that opens as the renderer writes it; None for any other
    document, which :func:`parse_document` reads whole.

    A fault in a text document is raised as a DocumentError with the
    text that ``parse_document`` of the whole decoded file raises; the
    scan for a fault named before it holds one block at a time. In
    JSON, a chunk of None means the body or its tail is not in the
    renderer's shape, and the file is to be parsed whole instead.
    """
    head = fh.read(_HEAD_BYTES)
    lead = chr(head[0]) if head else ""
    if lead == "{":
        return _json_cycle(head, fh)
    # str.strip drops what parse_document's lstrip skips, \x1c-\x1f included,
    # so an ASCII byte it keeps opens a text document.
    if lead.isascii() and lead.strip():
        return _text_cycle(head, fh)
    return None


def _collect(cycle: _Cycle | None) -> CycleDocument | None:
    """The document of a header and its code chunks, joined one by one into
    a path, or None if ``cycle`` or one of its chunks is None."""
    if cycle is None:
        return None
    k, h, encoding, chunks = cycle
    cut = False

    def parts() -> Iterator[Sequence[int]]:
        nonlocal cut
        for codes in chunks:
            if codes is None:
                cut = True
                return
            yield codes

    codes = tuple(chain.from_iterable(parts()))
    return None if cut else CycleDocument(h, encoding, VertexPath(k, codes))


def _slices(seq: _Seq, start: int, size: int) -> Iterator[_Seq]:
    """``seq`` from ``start`` on, in slices of ``size``."""
    return (seq[i:i + size] for i in range(start, len(seq), size))


def _text_cycle(head: bytes, fh: BinaryIO) -> tuple[int, int, str, Iterator[Sequence[int]]]:
    """The header and code chunks of a text document from its first bytes
    and the file they were read from. A header at fault is raised only
    once :func:`_text_chunks` has scanned the body for a fault named before it."""
    chunks = _text_chunks(head, fh)
    k, h, encoding = next(chunks)  # raises the fault, or one the body names first
    return k, h, encoding, chunks


def _text_chunks(head: bytes, fh: BinaryIO) -> Iterator[Sequence]:
    """The header's ``(k, h, encoding)``, then the code chunks of the body
    of a text document, ``head`` and the rest of ``fh``, read by
    :func:`_body_rows`, the first line taken off the blocks read first.

    The first line is held with each run of spaces and tabs in it made one
    space, which the header check reads as it read the run, and is refused
    once it holds more than _HEADER_TOKENS characters other than spaces
    and tabs, its LF included: the bytes that are not UTF-8 continuation
    bytes count them. So a line of any length is held at about the length
    of its tokens, and the rest of one past the bound is not held.

    The fault raised is the one a parse of the whole decoded text names:
    the first byte that is not UTF-8, else the first stray whitespace,
    else a header at fault, else the first row at fault. The header line
    is decoded and checked for stray whitespace; the body's rows are where
    a reader refuses them, in :func:`_window_codes`. After a fault the rest
    of the document, from line 1 or the rows at fault on, goes to
    :func:`_text_fault`.
    """
    blocks = chain([head], iter(partial(fh.read, _WINDOW_CHARS), b""))
    line, tokens, lead, body = [], 0, b"", None
    try:
        for block in blocks:
            end = block.find(b"\n") + 1
            part, lead = block[:end or len(block)], block[end:] if end else b""
            del block  # a copy of the line is not held beside the block
            tokens += len(part.translate(None, _NOT_TOKENS))
            part = part.replace(b"\t", b" ")
            while b"  " in part:  # a pass cuts a run of n spaces to about n/32
                part = part.replace(b" " * 16, b" ").replace(b"  ", b" ")
            line.append(part)
            if end or tokens > _HEADER_TOKENS:
                break
        # A line past the bound is refused as a header the regex does not match.
        header = "" if tokens > _HEADER_TOKENS else decode_text(b"".join(line))
        _check_whitespace(header)
        match = _HEADER_RE.match(header)
        if match is None:
            raise DocumentError("line 1: expected header '# k=<k> h=<h> encoding=<enc> closed=true'")
        k, h, encoding = _header_int("k", match[1]), _header_int("h", match[2]), match[3]
        _check_header(k, h, encoding)
        yield k, h, encoding
        body = _body_rows(k, encoding, partial(_window_codes, k=k, encoding=encoding), lineno=2)
        empty = True
        for codes in body.chunks(lead, fh, _WINDOW_CHARS):
            empty = False
            yield codes
            del codes  # parse the next rows without these codes
        if empty:
            raise DocumentError("line 2: document has no vertices")
    except DocumentError as fault:
        fault.__traceback__ = None  # its frames hold the rows at fault, and the buffer
        held, lineno = (line + [lead], 1) if body is None else body.release()
        rest, row = chain(held, blocks), None
        if isinstance(fault, _CutRow):
            from .long_row import RowTokens

            row = RowTokens(k if encoding == "tuples" else 1)
            rest = row.tap(rest)
        raise _text_fault(rest, lineno) or (row and row.fault(lineno, k, encoding)) or fault from None


def _cut_row(row: bytes, lineno: int, k: int, encoding: str) -> None:
    """Raise :class:`_CutRow` if ``row``, the start of line ``lineno`` with
    no LF yet, is refused whatever ends it, as :func:`~.long_row.refused`
    decides; its module is imported here, so only such a row compiles it."""
    from .long_row import refused

    if refused(row, k, encoding):
        raise _CutRow(f"line {lineno}: row of more than {len(row)} bytes is refused")


def _text_fault(blocks: Iterable[bytes], lineno: int) -> DocumentError | None:
    """The first stray whitespace of the text of ``blocks``, whose first
    line is line ``lineno``, as :func:`_check_whitespace` names it, or None;
    the first byte that is not UTF-8, named as :func:`decode_text` names
    it, is raised. A block is decoded at a time, and a character or a CR
    its end cuts is decided with the next."""
    utf8, cr, stray = codecs.getincrementaldecoder("utf-8")(), "", None
    for block, final in chain(zip(blocks, repeat(False)), [(b"", True)]):
        try:
            text = cr + utf8.decode(block, final)
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc, lineno) from None
        if stray is None:
            cr = "\r" if text.endswith("\r") and not final else ""
            try:
                _check_whitespace(text[:len(text) - len(cr)], lineno)
            except DocumentError as exc:
                stray = exc
        del text  # not held beside the next block's
        if b"\n" in block:  # the search is far cheaper than a count, and a long line has none
            lineno += block.count(b"\n")
    return stray


def _body_rows(
    k: int,
    encoding: str,
    read: Callable[[bytes, int], Sequence[int] | None],
    as_json: bool = False,
    lineno: int = 1,
) -> BodyRows:
    """The reader of a body of rows, text or JSON, each window read by
    ``read`` as :class:`~.body_rows.BodyRows` says; rows of a cycle whose
    translates :func:`_translates_pay` for are read in pieces of
    :data:`~.core.PIECE_CODES` rows, and proven by the encoding's rows of
    translates. The module is imported here, so only a parse compiles it."""
    from .body_rows import BodyRows

    row_end, tail = _JSON_ROWS[encoding] if as_json else (b"", b"")
    sep = row_end[-1:] or b"\n"
    if encoding == "ints":
        translates = partial(_int_translates, k=k, sep=sep)
    else:
        translates = partial(TupleTranslates, k=k, as_json=as_json)
    piece = core.PIECE_CODES if _translates_pay(k) else 0
    # A text row of an ints code holds at most 20 digits, one of a tuples
    # code 2k - 1 bytes; a JSON row past them leaves the route where it ends.
    row_max = sys.maxsize if as_json else 20 if encoding == "ints" else 2 * k - 1
    cut = partial(_cut_row, k=k, encoding=encoding)
    return BodyRows(k, sep, read, piece, lineno, translates, row_max, cut, (tail, row_end))


def decode_text(data: bytes, lineno: int = 1) -> str:
    """``data`` as UTF-8 text, lines unchanged; a byte that is not UTF-8 is
    named by its line, the first line of ``data`` being line ``lineno``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, lineno) from None


def _not_utf8(exc: UnicodeDecodeError, lineno: int) -> DocumentError:
    """The fault ``exc`` raised decoding bytes whose first line is line ``lineno``."""
    data = exc.object
    line = lineno + data.count(b"\n", 0, exc.start)
    return DocumentError(f"line {line}: not UTF-8: byte {data[exc.start]:#04x}, {exc.reason}")


def _window_codes(window: bytes, lineno: int, k: int, encoding: str) -> Sequence[int]:
    """The codes of a window of whole lines whose first is line ``lineno``;
    only lines the fast readers refuse are decoded and checked."""
    codes = _line_codes(window, k) if encoding == "tuples" else _int_rows(window, b"\n")
    if codes is None:
        text = decode_text(window, lineno)
        _check_whitespace(text, lineno)
        codes = _text_codes(text.split("\n"), lineno, k, encoding)
    return codes


def _line_codes(window: bytes, k: int) -> array | None:
    """The codes of LF-ended rows of ``k`` space-separated 0/1 digits, else None."""
    rows, rest = divmod(len(window), 2 * k)
    if rest or window[1::2] != (b" " * (k - 1) + b"\n") * rows:
        return None
    # " 0" pairs before each LF pad a row to its lane; [-2::-2] keeps its bits
    # and 0s, reversed.
    return _lane_codes(window.replace(b"\n", b" 0" * (_lane(k) - k) + b"\n")[-2::-2], k, rows)


def _int_rows(window: bytes, sep: bytes) -> list[int] | None:
    """The codes of rows of ASCII digits, each ended by ``sep``, read by one
    ``json.loads``; None sends any other window, valid or not, or one of
    no rows, to a slower route, which accepts the same documents and names
    the fault."""
    if window.translate(None, b"0123456789" + sep) or window[-1:] != sep:
        return None
    try:  # JSON refuses an empty row, a leading zero and a row over the digit limit
        return json.loads(b"[" + window[:-1].replace(sep, b",") + b"]") or None
    except ValueError:
        return None


def _lane(k: int) -> int:
    """The width, in bits, of the lane :func:`~.core.lane_typecode` names."""
    return 8 * array(lane_typecode(k)).itemsize


def _lane_codes(bits: bytes, k: int, rows: int) -> array | None:
    """The codes of ``rows`` rows of ``k`` 0/1 digits, leftmost coordinate
    first, each padded with 0s to its lane, run together and reversed: one
    base-2 integer whose lane ``i`` is row ``i``, as an ``array``; else None."""
    if len(bits) != rows * _lane(k) or bits.translate(None, b"01"):
        return None
    return unpack(int(bits, 2), lane_typecode(k), rows)


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
                raise _count_fault(lineno, len(tokens), k, encoding)
            bits = 0
            for pos, tok in enumerate(tokens):
                if tok not in ("0", "1"):
                    raise DocumentError(
                        f"line {lineno}: position {pos + 1}: coordinate must "
                        f"be 0 or 1, got {_quoted(tok)}"
                    )
                bits |= int(tok) << pos
            codes.append(bits)
        else:
            if len(tokens) != 1:
                raise _count_fault(lineno, len(tokens), k, encoding)
            tok = tokens[0]
            if not (tok.isascii() and tok.isdigit()):
                raise DocumentError(
                    f"line {lineno}: vertex code must be ASCII digits, got {_quoted(tok)}"
                )
            try:
                codes.append(int(tok))
            except ValueError:  # over int()'s digit limit
                raise DocumentError(
                    f"line {lineno}: vertex code has too many digits"
                ) from None
    return tuple(codes)


def _count_fault(lineno: int, count: int, k: int, encoding: str) -> DocumentError:
    """The fault of a row of ``count`` tokens, not the encoding's count."""
    if encoding == "tuples":
        return DocumentError(f"line {lineno}: expected {k} coordinates, got {count}")
    return DocumentError(f"line {lineno}: expected one integer, got {count} tokens")


def _check_whitespace(text: str, lineno: int = 1) -> None:
    """Refuse whitespace other than space, tab, LF and a CR before an LF.

    Python splits lines or tokens at any of it, which would move line
    numbers off the LF count. The first line of ``text`` is line ``lineno``.
    """
    stray = _stray_whitespace(text)
    if stray:
        line = lineno + text.count("\n", 0, stray.start())
        raise DocumentError(
            f"line {line}: whitespace {stray.group()!r} "
            "is not a space, tab or line end"
        )


def _stray_whitespace(text: str) -> re.Match[str] | None:
    """The first whitespace in ``text`` that :func:`_check_whitespace`
    refuses, if any. A few scans at C speed clear an ASCII text; only a
    text they do not clear pays for the regex search."""
    bare_cr = "\r" in text and text.count("\r") != text.count("\r\n")
    stray_ascii = any(c in text for c in "\v\f\x1c\x1d\x1e\x1f")
    if text.isascii() and not bare_cr and not stray_ascii:
        return None
    return _STRAY_WHITESPACE_RE.search(text)


def _parse_json(text: str) -> CycleDocument:
    """The JSON form, read by ``json.loads``, which names the fault."""
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
    return CycleDocument(h, encoding, VertexPath(k, _json_codes(cycle, k, encoding)))


def _json_cycle(first: bytes, fh: BinaryIO) -> _Cycle | None:
    """The header and code chunks of a JSON document from its first bytes
    and the file they were read from, or None if they do not open as
    ``render_json`` writes the text up to the first row.

    The header fields are checked first, the ceiling before any work on
    the rows; a refusal returns None, so ``json.loads`` names the fault.
    """
    prefix = _JSON_HEAD_RE.match(first)
    if prefix is None:
        return None
    k_digits, h_digits, named, nested = prefix.groups()
    encoding = "tuples" if nested else "ints"
    if named != encoding.encode():
        return None
    try:
        k, h = int(k_digits), int(h_digits)
        _check_header(k, h, encoding)
    except ValueError:  # too many digits, or a refusal
        return None
    return k, h, encoding, _json_chunks(first[prefix.end():], fh, k, encoding)


def _json_chunks(lead: bytes, fh: BinaryIO, k: int, encoding: str) -> Iterator[Sequence[int] | None]:
    """The codes of a JSON body, ``lead`` and the rest of ``fh``, up to None
    where the body or its tail leaves the renderer's shape: the body
    reader keeps the tail back, and ends the last row as the others."""

    def read(rows: bytearray, lineno: int) -> Sequence[int] | None:
        return _grid_codes(rows, k) if encoding == "tuples" else _int_rows(rows, b",")

    body = _body_rows(k, encoding, read, as_json=True)
    return body.chunks(lead, fh, _WINDOW_CHARS)


def _grid_codes(grid: bytes, k: int) -> array | None:
    """The codes of rows ``b,...,b],[`` of ``k`` 0/1 digits, else None."""
    rows, rest = divmod(len(grid), 2 * k + 2)
    if rest or grid[1::2] != (b"," * (k - 1) + b"][") * rows:
        return None
    digits = grid[-2::-2]  # each row's "," then its k digits, reversed
    if digits[::k + 1] != b"," * rows or digits.count(b",") != rows:  # no "," among the bits
        return None
    return _lane_codes(digits.replace(b",", b"0" * (_lane(k) - k)), k, rows)


def _json_codes(cycle: list, k: int, encoding: str) -> tuple[int, ...]:
    """The codes of any accepted cycle, or the index at fault."""
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
        raise DocumentError(f"line 1: unknown encoding {_quoted(encoding)}")


def _quoted(value: object) -> str:
    """``repr(value)`` of at most about _QUOTED characters: a longer one is
    cut there and ends in "...", so an error quotes a bounded token."""
    text = repr(value[:_QUOTED + 1] if isinstance(value, str) else value)
    return text if len(text) <= _QUOTED else text[:_QUOTED] + "..."
