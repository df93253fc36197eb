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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .core import CapacityError, VertexPath, check_dimension

ENCODINGS = ("tuples", "ints")

_HEADER_RE = re.compile(
    r"^#\s*k=(\d+)\s+h=(\d+)\s+encoding=(\w+)\s+closed=true\s*$"
)


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
    lines = [f"# k={doc.path.k} h={doc.h} encoding={doc.encoding} closed=true"]
    if doc.encoding == "tuples":
        lines += [" ".join(map(str, row)) for row in doc.path.to_tuples()]
    else:
        lines += [str(c) for c in doc.path.codes]
    return "\n".join(lines) + "\n"


def render_json(doc: CycleDocument) -> str:
    if doc.encoding == "tuples":
        cycle: list = [list(row) for row in doc.path.to_tuples()]
    else:
        cycle = list(doc.path.codes)
    obj = {
        "k": doc.path.k,
        "h": doc.h,
        "encoding": doc.encoding,
        "cycle": cycle,
        "closed": True,
    }
    return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


def parse_document(text: str) -> CycleDocument:
    """Parse either the text or the JSON form, sniffing the first character."""
    stripped = text.lstrip()
    if not stripped:
        raise DocumentError("line 1: empty document")
    if stripped[0] == "{":
        return _parse_json(text)
    return _parse_text(text)


def _parse_text(text: str) -> CycleDocument:
    lines = text.splitlines()
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise DocumentError(
            "line 1: expected header '# k=<k> h=<h> encoding=<enc> closed=true'"
        )
    k = _header_int("k", header.group(1))
    h = _header_int("h", header.group(2))
    encoding = header.group(3)
    _check_header(k, h, encoding)

    codes: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
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
            try:
                value = int(tokens[0])
            except ValueError:
                raise DocumentError(
                    f"line {lineno}: not an integer: {tokens[0]!r}"
                ) from None
            if value < 0:
                raise DocumentError(f"line {lineno}: negative vertex code")
            codes.append(value)
    if not codes:
        raise DocumentError("line 2: document has no vertices")
    return CycleDocument(h, encoding, VertexPath(k, tuple(codes)))


def _parse_json(text: str) -> CycleDocument:
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
    return CycleDocument(h, encoding, VertexPath(k, tuple(codes)))


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
