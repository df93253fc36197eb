import contextlib
import decimal
import hashlib
import io
import json
import os
import re
import tracemalloc
from array import array
from functools import reduce
from itertools import islice
from operator import or_
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leaper_cycles import body_rows, constructor, core, decimal_rows, document
from leaper_cycles.constructor import construct
from leaper_cycles.core import MAX_K_ENV, VertexPath, lane_typecode
from leaper_cycles.document import (
    ENCODINGS,
    CycleDocument,
    DocumentError,
    parse_document,
    read_cycle,
    render_json,
    render_text,
)
from leaper_cycles.oracle import oracle_exists
from leaper_cycles.verifier import verify_cycle

from reference_tours import rows_of

# Inputs that once escaped as a bare ValueError, a RecursionError, or an
# error that named no line.
H_ZERO = "# k=2 h=0 encoding=ints closed=true\n0\n1\n3\n2\n"
K_TOO_MANY_DIGITS = "# k=" + "1" * 5000 + " h=1 encoding=ints closed=true\n0\n"
H_TOO_MANY_DIGITS = "# k=2 h=" + "1" * 5000 + " encoding=ints closed=true\n0\n"
JSON_TOO_DEEP = '{"cycle":' + "[" * 100_000
JSON_TOO_MANY_DIGITS = '{"k":' + "1" * 5000 + "}"


def sample_doc(encoding="tuples"):
    cert = construct(3, 1)
    return CycleDocument(1, encoding, cert.path)


def test_text_header_is_stable():
    text = render_text(sample_doc())
    assert text.splitlines()[0] == "# k=3 h=1 encoding=tuples closed=true"


def test_text_body_tuples():
    lines = render_text(sample_doc()).splitlines()
    assert lines[1] == "0 0 0"
    assert lines[2] == "1 0 0"
    assert len(lines) == 9


def test_text_round_trip_tuples():
    doc = sample_doc()
    parsed = parse_document(render_text(doc))
    assert parsed == doc


def test_text_round_trip_ints():
    doc = sample_doc("ints")
    text = render_text(doc)
    assert text.splitlines()[1] == "0"
    parsed = parse_document(text)
    assert parsed == doc


def test_json_round_trip():
    doc = sample_doc()
    parsed = parse_document(render_json(doc))
    assert parsed == doc


def test_json_field_order_is_stable():
    text = render_json(sample_doc())
    assert text.startswith('{"k":3,"h":1,"encoding":"tuples","cycle":')
    assert text.rstrip().endswith('"closed":true}')


def test_json_ints_encoding():
    doc = sample_doc("ints")
    parsed = parse_document(render_json(doc))
    assert parsed == doc


def test_blank_lines_ignored():
    doc = sample_doc()
    text = render_text(doc).replace("0 0 0\n", "0 0 0\n\n", 1)
    assert parse_document(text) == doc


def test_empty_document():
    with pytest.raises(DocumentError):
        parse_document("")
    with pytest.raises(DocumentError):
        parse_document("   \n  ")


def test_missing_header():
    with pytest.raises(DocumentError) as exc:
        parse_document("0 0 0\n1 0 0\n")
    assert "line 1" in str(exc.value)


def test_header_only():
    with pytest.raises(DocumentError):
        parse_document("# k=3 h=1 encoding=tuples closed=true\n")


def test_wrong_coordinate_count_reports_line():
    text = "# k=3 h=1 encoding=tuples closed=true\n0 0 0\n1 0\n"
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert "line 3" in str(exc.value)


def test_non_binary_coordinate_reports_position():
    text = "# k=2 h=1 encoding=tuples closed=true\n0 2\n"
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert "line 2" in str(exc.value) and "position 2" in str(exc.value)


def test_bad_integer_line():
    text = "# k=2 h=1 encoding=ints closed=true\n0\nbogus\n"
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert "line 3" in str(exc.value)


def test_negative_code_rejected():
    text = "# k=2 h=1 encoding=ints closed=true\n-1\n"
    with pytest.raises(DocumentError):
        parse_document(text)


@pytest.mark.parametrize(
    "header",
    [
        "# k=٣ h=١ encoding=ints closed=true",  # Arabic-Indic 3 and 1
        "# k=2 h=١ encoding=ints closed=true",
        "# k=２ h=1 encoding=ints closed=true",  # fullwidth 2
    ],
)
def test_header_numbers_must_be_ascii_digits(header):
    with pytest.raises(DocumentError) as exc:
        parse_document(header + "\n0\n1\n3\n2\n")
    assert str(exc.value).startswith("line 1: expected header")


@pytest.mark.parametrize("token", ["1_0", "+3", "-0", "٣", "３", "²"])
def test_ints_rows_must_be_ascii_digits(token):
    text = f"# k=2 h=1 encoding=ints closed=true\n0\n{token}\n3\n2\n"
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value) == (
        f"line 3: vertex code must be ASCII digits, got {token!r}"
    )


def test_ints_row_with_too_many_digits_names_its_line():
    text = "# k=2 h=1 encoding=ints closed=true\n0\n" + "1" * 5000 + "\n"
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value) == "line 3: vertex code has too many digits"


def test_unknown_encoding():
    with pytest.raises(DocumentError):
        parse_document("# k=2 h=1 encoding=hex closed=true\n0\n")


def test_out_of_range_int_parses_but_fails_verification():
    # Range breaches are the verifier's DimensionOverflow, not parse errors.
    text = "# k=2 h=1 encoding=ints closed=true\n0\n1\n3\n9\n"
    doc = parse_document(text)
    report = verify_cycle(doc.path, 1)
    assert not report.valid
    assert any(v.kind == "DimensionOverflow" for v in report.violations)


def test_json_missing_field():
    with pytest.raises(DocumentError) as exc:
        parse_document('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0]]}')
    assert "closed" in str(exc.value)


def test_json_bad_cycle_entries():
    with pytest.raises(DocumentError):
        parse_document(
            '{"k":2,"h":1,"encoding":"tuples","cycle":[[0,2]],"closed":true}'
        )
    with pytest.raises(DocumentError):
        parse_document(
            '{"k":2,"h":1,"encoding":"ints","cycle":[true],"closed":true}'
        )


@pytest.mark.parametrize(
    "cycle, index",
    [
        ("[[0,0],[1.0,0],[1,1],[0,1]]", 1),
        ("[[0,0],[1,0],[true,false],[0,1]]", 2),
    ],
)
def test_json_tuple_coordinates_must_be_integers(cycle, index):
    text = f'{{"k":2,"h":1,"encoding":"tuples","cycle":{cycle},"closed":true}}'
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value).startswith(f"line 1: cycle[{index}] ")


@pytest.mark.parametrize(
    "text",
    [
        "# k=2 h=1 encoding=ints closed=false\n0\n1\n3\n2\n",
        '{"k":2,"h":1,"encoding":"ints","cycle":[0,1,3,2],"closed":false}',
        '{"k":2,"h":1,"encoding":"ints","cycle":[0,1,3,2],"closed":1}',
        '{"k":2,"h":1,"encoding":"ints","cycle":[0,1,3,2],"closed":"true"}',
    ],
)
def test_open_cycle_flag_rejected(text):
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    message = str(exc.value)
    assert message.startswith("line 1: ") and "closed" in message


@pytest.mark.parametrize(
    "text",
    [
        '{"k":true,"h":1,"encoding":"ints","cycle":[0,1],"closed":true}',
        '{"k":2,"h":true,"encoding":"ints","cycle":[0,1],"closed":true}',
    ],
)
def test_json_boolean_k_or_h_rejected(text):
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "# k=40 h=3 encoding=ints closed=true\n0\n7\n",
        '{"k":40,"h":3,"encoding":"ints","cycle":[0,7],"closed":true}',
    ],
)
def test_header_dimension_above_ceiling_rejected(text, monkeypatch):
    monkeypatch.delenv(MAX_K_ENV, raising=False)
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value).startswith("line 1: dimension 40 exceeds the ceiling")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(H_ZERO, "line 1: h must be a positive integer", id="text-h=0"),
        pytest.param(
            '{"k":2,"h":0,"encoding":"ints","cycle":[0,1,3,2],"closed":true}',
            "line 1: h must be a positive integer",
            id="json-h=0",
        ),
        pytest.param(
            "# k=0 h=1 encoding=ints closed=true\n0\n",
            "line 1: k must be a positive integer",
            id="text-k=0",
        ),
        pytest.param(K_TOO_MANY_DIGITS, "line 1: k has too many digits", id="text-k-digits"),
        pytest.param(H_TOO_MANY_DIGITS, "line 1: h has too many digits", id="text-h-digits"),
        pytest.param(JSON_TOO_DEEP, "line 1: JSON nested too deeply", id="json-depth"),
        pytest.param(
            JSON_TOO_MANY_DIGITS, "line 1: JSON integer has too many digits", id="json-digits"
        ),
    ],
)
def test_bad_header_numbers_rejected_on_line_1(text, message):
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value) == message


def test_json_syntax_error_reports_position():
    with pytest.raises(DocumentError) as exc:
        parse_document('{"k":2,')
    assert "line 1" in str(exc.value)


def test_invalid_encoding_refused_at_construction():
    with pytest.raises(ValueError):
        CycleDocument(1, "hex", VertexPath(2, (0,)))


LINE_PREFIX = re.compile(r"line [1-9][0-9]*: ")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(
    st.text()
    | st.from_regex(
        r"#\s?k=[0-9]{1,2} h=[0-9]{1,2} encoding=(ints|tuples|hex) closed=true\n[-01 \n]*",
        fullmatch=True,
    )
    | st.builds(
        json.dumps,
        st.fixed_dictionaries(
            {
                "k": st.integers(-1, 4) | JSON_VALUES,
                "h": st.integers(-1, 4) | JSON_VALUES,
                "encoding": st.sampled_from(ENCODINGS) | JSON_VALUES,
                "cycle": st.lists(st.integers(-1, 16) | JSON_VALUES, max_size=8),
                "closed": st.just(True) | JSON_VALUES,
            }
        ),
    )
)
@example(H_ZERO)
@example(K_TOO_MANY_DIGITS)
@example(H_TOO_MANY_DIGITS)
@example(JSON_TOO_DEEP)
@example(JSON_TOO_MANY_DIGITS)
def test_parser_returns_a_document_or_names_a_line(text):
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        assert LINE_PREFIX.match(str(exc)), str(exc)
    else:
        assert isinstance(doc, CycleDocument)


# Whitespace the renderer never writes; each line break in the list once
# shifted every later line number away from the file's LF count.
STRAY_WHITESPACE = [
    pytest.param("#\u3000k=2 h=1 encoding=tuples closed=true\n0 0\n", 1, "\u3000", id="header-U+3000"),
    pytest.param("# k=2 h=1 encoding=tuples closed=true\n0 0\n0\u30000\n", 3, "\u3000", id="row-U+3000"),
    pytest.param("# k=2 h=1 encoding=ints closed=true\n0\n1\u20283\n2\n", 3, "\u2028", id="U+2028"),
    pytest.param("# k=2 h=1 encoding=ints closed=true\n0\n1\x853\n2\n", 3, "\x85", id="U+0085"),
    pytest.param("# k=2 h=1 encoding=ints closed=true\n0\n1\n3\v2\n", 4, "\v", id="vertical-tab"),
]


@pytest.mark.parametrize("text, lineno, char", STRAY_WHITESPACE)
def test_stray_whitespace_refused_on_its_line(text, lineno, char):
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value) == (
        f"line {lineno}: whitespace {char!r} is not a space, tab or line end"
    )


def test_crlf_line_ends_accepted():
    doc = sample_doc()
    assert parse_document(render_text(doc).replace("\n", "\r\n")) == doc
    with pytest.raises(DocumentError) as exc:
        parse_document(render_text(doc).replace("\n", "\r"))
    assert str(exc.value).startswith("line 1: ")


# The edges of the 8-, 16-, 32- and 64-bit lanes the fast tuples routes
# read rows into.
LANE_EDGE_KS = (*range(1, 10), 15, 16, 17, 31, 32, 33, 63, 64)


@st.composite
def documents(draw, ks=st.integers(1, 8)):
    """A document of up to 2**k codes, or of a few once k is over 8."""
    k = draw(ks)
    codes = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=1 << k if k <= 8 else 5))
    h = draw(st.integers(1, 64))
    return CycleDocument(h, draw(st.sampled_from(ENCODINGS)), VertexPath(k, tuple(codes)))


@given(documents())
def test_render_then_parse_returns_the_source(doc):
    assert parse_document(render_text(doc)) == doc
    assert parse_document(render_json(doc)) == doc


@given(documents())
def test_header_always_matches_the_row_width(doc):
    k = doc.path.k
    lines = render_text(doc).splitlines()
    obj = json.loads(render_json(doc))
    assert lines[0].startswith(f"# k={k} ") and obj["k"] == k
    if doc.encoding == "tuples":
        assert {len(line.split()) for line in lines[1:]} == {k}
        assert {len(row) for row in obj["cycle"]} == {k}


@contextlib.contextmanager
def small_blocks(rows=2, chars=3):
    """Render blocks of ``rows`` rows and parse windows of about ``chars``
    characters; the defaults make a small document cross many cuts."""
    with mock.patch.object(core, "PIECE_CODES", rows), mock.patch.object(document, "_WINDOW_CHARS", chars):
        yield


BLOCK_SIZES = (contextlib.nullcontext, small_blocks)


# SHA-256 of the renderers' output before their rows came from lookup
# tables; every later way of writing the rows must write the same bytes.
RENDERED_SHA256 = {
    (12, 5, "tuples", "text"): "c3aa7190af5ba3fb859bb74ea49533b135d0f77fe2f212c5260b6c715848e36d",
    (12, 5, "tuples", "json"): "9ce3385f63301e27589ae5eafeff9c3d8bdc6eb001e33723401bbc5775029b87",
    (12, 5, "ints", "text"): "8e2d00c33c59400b239ac2c1e5b2da848c470e143b1a806f4dcbca0a50c6e49a",
    (12, 5, "ints", "json"): "ad0260720b8d3a7185f5617827ef86151ec14433e77abb604a2dc9b4f748f6fa",
    (9, 1, "tuples", "text"): "cac1db5d922e0b946f83ed5eac5c7455a189d1aeacd443ed5f5c2fd01e36fd13",
    (9, 1, "tuples", "json"): "89ab17630108f27a834c3d730cabcfa5de8d91f5215ed859eb386e23a7368a49",
    (9, 1, "ints", "text"): "49b1b0ff2f10b69b8997c3437624118f23bd9823cf4b4856a2d3a3e522fa17e8",
    (9, 1, "ints", "json"): "0e67fed61b90970aec89ce4b3dbe091063937a56449b1e41b09faf7807ca6d1b",
    (2, 1, "tuples", "text"): "9cdd8e982e624cec2e5192ec8b297e3a66afc11575630bd167055206ee2343ca",
    (2, 1, "tuples", "json"): "d8e0e99ac65623d6257ec9ecab53ea891e6d62819f47b3669cd262f91f541038",
    (2, 1, "ints", "text"): "2f5ae763893fa36b84a03681a2e7572ced8d6ff26af407b8383dbcdd3a1c9022",
    (2, 1, "ints", "json"): "727644ce2cbe29f8a362a22ee636532c0707f2e5335ae25752d4b6a0377ab2c2",
}


@pytest.mark.parametrize("key", sorted(RENDERED_SHA256))
def test_rendered_bytes_are_pinned(key):
    k, h, encoding, form = key
    doc = CycleDocument(h, encoding, construct(k, h).path)
    for blocks in BLOCK_SIZES:
        with blocks():
            text = render_json(doc) if form == "json" else render_text(doc)
        assert hashlib.sha256(text.encode()).hexdigest() == RENDERED_SHA256[key]


@pytest.mark.parametrize("k", range(1, 11))
def test_table_rows_match_joined_coordinates_for_every_code(k):
    path = VertexPath(k, tuple(range(1 << k)))
    rows = rows_of(path)
    obj = {"k": k, "h": 1, "encoding": "tuples", "cycle": [list(row) for row in rows], "closed": True}
    for blocks in BLOCK_SIZES:
        with blocks():
            text = render_text(CycleDocument(1, "tuples", path))
            json_text = render_json(CycleDocument(1, "tuples", path))
        assert text.split("\n")[1:-1] == [" ".join(map(str, row)) for row in rows]
        assert json_text == json.dumps(obj, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("k", [23, 34, 64])
def test_wide_rows_match_joined_coordinates(k):
    # A short path in a high dimension: one piece of a few wide lanes.
    path = VertexPath(k, (0, (1 << k) - 1, (1 << k) // 3, 5))
    text = render_text(CycleDocument(1, "tuples", path))
    assert text.split("\n")[1:-1] == [" ".join(map(str, row)) for row in rows_of(path)]


def joined_tuples(k, codes, as_json):
    """The rows of a ``tuples`` chunk written one ``join`` per row: the
    reference for rows copied from the digits of the chunk's lanes."""
    rows = (format(code, f"0{k}b")[::-1] for code in codes)
    if as_json:
        return ",".join("[" + ",".join(row) + "]" for row in rows)
    return "\n".join(" ".join(row) for row in rows)


def lane_filling_codes(k, count):
    """``count`` codes of [0, 2**k) whose bits run up to bit k - 1, the last
    being 2**k - 1."""
    return tuple((j * 0x9E3779B97F4A7C15) % (1 << k) for j in range(count - 1)) + ((1 << k) - 1,)


@pytest.mark.parametrize("k", LANE_EDGE_KS)
@pytest.mark.parametrize("length", [1, 2, 3, 4095, 4096, 4097, 1 << 16])
def test_tuple_rows_match_one_join_per_row(k, length):
    codes = lane_filling_codes(k, length)
    wide_enough = [code for code in "BHIQ" if 8 * array(code).itemsize >= k]
    chunks = [codes] + [array(code, codes) for code in wide_enough]
    for as_json in (False, True):
        expected = joined_tuples(k, codes, as_json)
        for chunk in chunks:
            pieces = list(document.render_pieces(k, 1, "tuples", [chunk], as_json=as_json))
            assert "".join(pieces[1:-1]) == expected  # the rows between header and tail


@pytest.mark.parametrize("k, as_json", [(17, False), (22, False), (16, True)])
def test_tuple_rows_of_a_chunk_peak_near_their_length(k, as_json):
    # A chunk's rows come one piece at a time, so the bound is on a
    # piece's rows. They are written once into a bytearray and decoded
    # once, and the piece's base-2 digits are let go before the decode.
    # Rows joined from a string per code peaked at 3.4x their length or
    # more, and rows from one integer of a whole chunk at 2.5x or more.
    chunk = array(lane_typecode(k), lane_filling_codes(k, 1 << 16))
    pieces = document.render_pieces(k, 1, "tuples", [chunk], as_json=as_json)
    next(pieces)  # the header
    tracemalloc.start()
    try:
        rows = next(pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == joined_tuples(k, chunk[:core.PIECE_CODES], as_json)
    assert peak <= 2.5 * len(rows)


def joined_ints(k, h, codes, as_json):
    """An ``ints`` document written one ``str`` per row: the reference for
    rows rendered by one ``%`` format per chunk."""
    if as_json:
        head, sep, tail = f'{{"k":{k},"h":{h},"encoding":"ints","cycle":[', ",", '],"closed":true}\n'
    else:
        head, sep, tail = f"# k={k} h={h} encoding=ints closed=true\n", "\n", "\n"
    return head + sep.join(map(str, codes)) + tail


def spread_codes(k, count):
    """``count`` codes of [0, 2**k) of every digit count, 0 and 2**k - 1 included."""
    return tuple((j * 40503) % (1 << k) for j in range(count - 1)) + ((1 << k) - 1,)


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("length", [1, 2, 3, 1 << 16])
def test_int_rows_match_one_str_per_row(length, as_json):
    codes = spread_codes(17, length)
    for chunk in (codes, array(lane_typecode(17), codes)):
        text = "".join(document.render_pieces(17, 3, "ints", [chunk], as_json=as_json))
        assert text == joined_ints(17, 3, codes, as_json)


@pytest.mark.parametrize("render, as_json", [(render_text, False), (render_json, True)])
def test_int_rows_match_one_str_per_row_over_an_uneven_last_block(render, as_json):
    codes = spread_codes(17, (1 << 16) + 3)  # blocks of 2**16 rows, then 3
    assert render(CycleDocument(3, "ints", VertexPath(17, codes))) == joined_ints(17, 3, codes, as_json)


@pytest.mark.parametrize("as_json", [False, True])
def test_int_rows_of_an_oracle_witness_match_one_str_per_row(as_json):
    codes = oracle_exists(4, 3).witness.codes  # the one chunk `oracle --witness` renders
    text = "".join(document.render_pieces(4, 3, "ints", [codes], as_json=as_json))
    assert text == joined_ints(4, 3, codes, as_json)


def rendered_translates(k, first, shifts, typecode, as_json):
    """The rows ``render_pieces`` writes for the pieces ``first`` and
    ``first ^ c`` for each ``c`` of ``shifts``, one chunk of pieces of
    ``len(first)`` rows, and for each later piece whether it was written
    from decimal fields."""
    codes = [*first, *(code ^ c for c in shifts for code in first)]
    chunk = tuple(codes) if typecode is None else array(typecode, codes)
    taken = []
    shift_of = decimal_rows.Translates.shift_of

    def spy(self, piece):
        shift = shift_of(self, piece)
        taken.append(shift is not None)
        return shift

    with mock.patch.object(decimal_rows.Translates, "shift_of", spy), \
            mock.patch.object(core, "PIECE_CODES", len(first)):
        text = "".join(document.render_pieces(k, 1, "ints", [chunk], as_json=as_json))
    assert text == joined_ints(k, 1, codes, as_json)
    return taken


@st.composite
def translates(draw):
    """k, a first piece of up to 64 codes, up to four shifts in [0, 2**k),
    a lane typecode wide enough for k or None for a tuple, and a form."""
    k = draw(st.integers(12, 64))
    code = st.integers(0, (1 << k) - 1)
    first = draw(st.lists(code, min_size=1, max_size=64))
    shifts = draw(st.lists(code, min_size=1, max_size=4))
    wide_enough = [code for code in "BHIQ" if 8 * array(code).itemsize >= k]
    return k, first, shifts, draw(st.sampled_from([None, *wide_enough])), draw(st.booleans())


@given(translates())
@example((12, [0, 4095, 5, 9], [4095, 4090], "H", False))  # rows 0 and 2**k - 1
@example((17, list(range(99_990, 100_010)), [0, 1, 31, 1 << 16], None, True))  # across 10**5
@example((64, [0, (1 << 64) - 1, 10**19, 10**19 - 1], [(1 << 64) - 1, 1 << 63], "Q", False))
def test_translates_are_written_from_decimal_fields(case):
    # A second path for the decimal fields: each piece after the first is
    # a translate, written from them, and its rows are what str() writes.
    k, first, shifts, typecode, as_json = case
    assert rendered_translates(k, first, shifts, typecode, as_json) == [True] * len(shifts)


@st.composite
def translate_shifts(draw):
    """k, a first piece of small support, ``range(n)`` or the closed
    form's first codes, a separator, and shifts to render in turn: shifts
    whose bits outside the support lie near a power of ten, so that rows
    have w or w - 1 digits or run across 10**j, any shifts, and repeats,
    which alternate between the field widths."""
    k = draw(st.integers(1, 64))
    n = draw(st.integers(1, min(70, 1 << k)))
    if k < 2 or draw(st.booleans()):
        first = list(range(n))
    else:
        h = draw(st.sampled_from(range(1, k, 2)))
        first = [constructor._code(h, j) for j in range(n)]
    support = reduce(or_, first)
    top, width = 1 << k, len(str((1 << k) - 1))
    span = 4 << support.bit_length()
    near = st.builds(
        lambda j, delta, inner: ((10**j + delta) & ~support | inner & support) & (top - 1),
        st.integers(0, width - 1),
        st.integers(-span, span),
        st.integers(0, top - 1),
    )
    pool = draw(st.lists(st.one_of(near, st.integers(0, top - 1)), min_size=1, max_size=6))
    shifts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return k, first, draw(st.sampled_from("\n,")), shifts


@given(translate_shifts())
# Rows of 7 digits, summed in fields of 7 as the shift outside the
# support is below 10**6, and copied by column.
@example((20, list(range(64, 128)), "\n", [999_936, 0, 999_936]))
@example((17, [constructor._code(3, j) for j in range(64)], ",", [10**5, 10**4 + 7, 10**5 - 64, 10**5]))
# Rows 99,000 and 115,384: the first of 5 digits, the other of 6 with no 0
# in its second digit.
@example((17, [0, 1 << 14], "\n", [99_000]))
@example((64, [constructor._code(5, j) for j in range(64)], "\n", [10**19, 1 << 63, 10**18 + 5, (1 << 64) - 1]))
@example((64, [constructor._code(63, j) for j in range(64)], ",", [1 << 63, 10**19 + 1, 5]))
def test_translate_rows_are_the_rows_str_writes(case):
    # A second path for every field layout and the column copy: each
    # shift's rows, rendered in turn by one Translates, are str of each
    # code joined by the separator.
    k, first, sep, shifts = case
    translates = decimal_rows.Translates(first, k, sep.encode())
    for shift in shifts:
        assert translates.text(shift) == sep.join(str(c ^ shift) for c in first).encode(), shift


@st.composite
def mixed_digit_pieces(draw):
    """k, a first piece of codes on both sides of 10**(w-1), ``w`` the
    digits of 2**k - 1, and of few digits, a separator, and shifts: codes
    of the piece, which make a row 0, small ones, and any."""
    k = draw(st.integers(4, 64))
    top = 1 << k
    edge = 10 ** (len(str(top - 1)) - 1)
    code = st.one_of(
        st.integers(max(0, edge - 300), min(top - 1, edge + 300)),
        st.integers(0, min(999, top - 1)),
        st.integers(0, top - 1),
    )
    first = draw(st.lists(code, min_size=2, max_size=50, unique=True))
    pool = st.one_of(st.sampled_from(first), st.integers(0, min(511, top - 1)), st.integers(0, top - 1))
    return k, first, draw(st.sampled_from("\n,")), draw(st.lists(pool, min_size=1, max_size=8))


@given(mixed_digit_pieces())
# Rows of 6 and 5 digits, of 6 and 1 (the row 0), of 1 to 6, at k=17.
@example((17, [99_999, 100_000, 5, 0], "\n", [0, 100_000, 99_999, 5]))
@example((17, [100_000, 100_001, 131_071], ",", [100_000, 1, 131_071]))
@example((20, [999_999, 1_000_000, 12, 7], "\n", [999_999 ^ 1_000_000, 12, 1_048_575]))
def test_rows_of_mixed_digit_counts_are_the_rows_str_writes(case):
    # A second path for the leading zeros struck out: a translate whose
    # rows have w and w - 1 digits, or fewer, or are 0, is what str()
    # writes, row by row.
    k, first, sep, shifts = case
    translates = decimal_rows.Translates(first, k, sep.encode())
    for shift in shifts:
        assert translates.text(shift) == sep.join(map(str, (c ^ shift for c in first))).encode(), shift


def coordinate_rows(k, codes, as_json):
    """The rows of ``codes`` written code by code from ``rows_of``: as the
    renderer writes them, and as the body reader cuts them."""
    rows = [",".join(map(str, row)) if as_json else " ".join(map(str, row)) for row in rows_of(VertexPath(k, tuple(codes)))]
    if as_json:
        return ",".join(f"[{row}]" for row in rows), "[".join(f"{row}]," for row in rows)
    return "\n".join(rows), "\n".join(rows)


@st.composite
def tuple_translates(draw):
    """k from 1 to 64, lane edges often; a first piece; shifts drawn from a
    few, so that they repeat and alternate; and a form."""
    k = draw(st.one_of(st.integers(1, 64), st.sampled_from([7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])))
    code = st.integers(0, (1 << k) - 1)
    first = draw(st.lists(code, min_size=1, max_size=min(40, 1 << k)))
    pool = draw(st.lists(code, min_size=1, max_size=4))
    return k, first, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)), draw(st.booleans())


@given(tuple_translates())
@example((8, [0, 255, 1, 128], [255, 0, 255, 3, 3], True))
@example((64, [0, (1 << 64) - 1, 1 << 63], [1 << 63, 1, 1 << 63, (1 << 64) - 1], False))
@example((1, [0, 1], [1, 0, 1], True))
def test_flipped_rows_are_the_rows_written_code_by_code(case):
    # A second path for the column flips: each shift's rows, flipped in
    # turn from the last shift's, are the rows of first ^ shift written
    # code by code, as the renderer writes them and as the reader cuts
    # them; a row reads back as its code.
    k, first, shifts, as_json = case
    translates = document.TupleTranslates(first, k, as_json)
    for shift in [0, *shifts]:
        codes = [c ^ shift for c in first]
        written, cut = coordinate_rows(k, codes, as_json)
        assert translates.written(shift) == written.encode(), shift
        assert translates.text(shift) == cut.encode(), shift
        row = translates.row(codes[-1])
        assert cut.encode().endswith(row) and translates.code(row) == codes[-1]
    # Rendered from the first piece's codes and views of its translates,
    # or found to be translates among plain codes, pieces of len(first).
    template = core.Template(first, k)
    views = [template.translate(shift) for shift in shifts]
    codes = [*first, *(c ^ shift for shift in shifts for c in first)]
    with mock.patch.object(core, "PIECE_CODES", len(first)):
        for chunks in ([array(lane_typecode(k), first), *views], [tuple(codes)]):
            pieces = list(document.render_pieces(k, 1, "tuples", chunks, as_json=as_json))
            assert "".join(pieces[1:-1]) == joined_tuples(k, codes, as_json)


def test_a_tuples_piece_that_is_no_translate_is_written_from_its_codes():
    # A piece with one lane changed is no translate of the first: its rows
    # are written from its codes, and the rows held for the translates,
    # those of the piece before it, are those of the piece after it.
    k, first = 13, [3, 8191, 4096, 77, 1000]
    changed = [c ^ 5 for c in first]
    changed[2] ^= 1
    codes = [*first, *(c ^ 6 for c in first), *changed, *(c ^ 6 for c in first), *(c ^ 5 for c in first)]
    for as_json in (False, True):
        with mock.patch.object(core, "PIECE_CODES", len(first)), \
                mock.patch.object(document, "TupleTranslates", wraps=document.TupleTranslates) as made:
            pieces = list(document.render_pieces(k, 1, "tuples", [tuple(codes)], as_json=as_json))
        assert "".join(pieces[1:-1]) == joined_tuples(k, codes, as_json)
        assert made.call_count == 2  # the first piece, and the one that is no translate


@pytest.mark.parametrize("as_json", [False, True])
def test_a_piece_that_is_no_translate_is_written_by_format(as_json):
    # One lane changed, and a shift of 2**k or more: neither piece is a
    # translate, so both are written by the % format; the piece after
    # them is one again.
    k, first = 13, [3, 8191, 4096, 77, 1000]
    changed = [c ^ 5 for c in first]
    changed[2] ^= 1
    codes = [*first, *changed, *(c ^ (1 << k) for c in first), *(c ^ 6 for c in first)]
    with mock.patch.object(core, "PIECE_CODES", len(first)):
        text = "".join(document.render_pieces(k, 1, "ints", [array("H", codes)], as_json=as_json))
        translates = decimal_rows.Translates(first, k, b"\n")
        shifts = [translates.shift_of(codes[i:i + 5]) for i in (5, 10, 15)]
    assert text == joined_ints(k, 1, codes, as_json)
    assert shifts == [None, None, 6]
    assert translates.text(6) == "\n".join(map(str, codes[15:])).encode()


@pytest.mark.parametrize("k", [12, 15])
def test_a_cycle_of_few_pieces_is_written_by_format(k):
    # 2**15 codes are 8 pieces, too few translates to pay for the fields.
    chunk = array(lane_typecode(k), construct(k, 3).path.codes)
    with mock.patch.object(decimal_rows, "Translates") as fields:
        text = "".join(document.render_pieces(k, 3, "ints", [chunk]))
    assert not fields.called
    assert text == joined_ints(k, 3, chunk, False)


def int_rows_by_str_translate(window, sep):
    """``_int_rows`` as it read a window before its test on bytes."""
    if window.translate(dict.fromkeys(b"0123456789" + sep.encode())) or window[-1:] != sep:
        return None
    try:
        return json.loads("[" + window[:-1].replace(sep, ",") + "]") or None
    except ValueError:
        return None


@given(st.text(st.sampled_from("0123456789\n, -x\u0661\xe9\x00"), max_size=40), st.sampled_from("\n,"))
@example("12\n0\n", "\n")
@example("\u0661\n", "\n")
def test_int_rows_take_the_windows_they_took_before(window, sep):
    assert document._int_rows(window.encode(), sep.encode()) == int_rows_by_str_translate(window, sep)


@pytest.mark.parametrize("render", [render_text, render_json])
@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize(
    "codes, index, code", [((0, 5), 1, 5), ((0, 1, -1, 7, 2), 2, -1), ((4,), 0, 4)]
)
def test_renderers_refuse_codes_outside_the_cube(render, encoding, codes, index, code):
    # Such a code once rendered as a row of another vertex, or as a row
    # that parse_document refuses.
    doc = CycleDocument(1, encoding, VertexPath(2, codes))
    with pytest.raises(ValueError) as exc:
        render(doc)
    assert str(exc.value) == f"code at index {index} is {code}, outside [0, 2**2)"


@pytest.mark.parametrize("render", [render_text, render_json])
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_renderers_refuse_an_empty_path(render, encoding):
    # Such a path once rendered as a document that parse_document refuses.
    doc = CycleDocument(1, encoding, VertexPath(2, ()))
    with pytest.raises(ValueError) as exc:
        render(doc)
    assert str(exc.value) == "a cycle document needs at least one vertex"


MUTATION_CHARS = "01 \t\r\n2x+_-,.e\u0663"


@st.composite
def mutated_renderings(draw):
    """Renderer output with one mutation: a char, CRLF, a blank line or a long row."""
    doc = draw(documents(st.sampled_from(LANE_EDGE_KS)))
    text = draw(st.sampled_from([render_text, render_json]))(doc)
    kind = draw(st.sampled_from(["replace", "insert", "delete", "crlf", "blank", "long"]))
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind in ("blank", "long"):
        lines = text.split("\n")
        i = draw(st.integers(1, len(lines) - 1))
        if kind == "blank":
            lines.insert(i, "")
        else:
            lines[i] = "1" * 5000
        return "\n".join(lines)
    # Mutate the rows, where the fast path and the loop differ.
    body = text.index("[") if text[0] == "{" else text.index("\n") + 1
    i = draw(st.integers(body, len(text) - 1))
    if kind == "delete":
        return text[:i] + text[i + 1:]
    char = draw(st.sampled_from(MUTATION_CHARS))
    return text[:i] + char + text[i + (kind == "replace"):]


def scalar_parse(text):
    """parse_document through the per-line (or per-row) loop alone."""
    with mock.patch.object(document, "_lane_codes", return_value=None), \
            mock.patch.object(document, "_int_rows", return_value=None), \
            mock.patch.object(document, "_json_cycle", return_value=None):
        return parse_document(text)


def outcome(parse, text):
    try:
        return parse(text)
    except DocumentError as exc:
        return str(exc)


@given(mutated_renderings())
@example("# k=2 h=1 encoding=ints closed=true\n0\n1_0\n3\n2\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n1\t3\n2\n")
@example("# k=2 h=1 encoding=tuples closed=true\n0 0\n1\t0\n1 1\n0 1\n")
@example("# k=2 h=1 encoding=tuples closed=true\n0 0\n1_0\n1 1\n0 1\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n\u0661\n3\n2\n")
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,true],[1,1]],"closed":true}')
# With small blocks a window holds two rows of these ints bodies and one
# row of these tuples and JSON bodies, so each fault below sits on the
# first line of a window.
@example("# k=2 h=1 encoding=ints closed=true\n0\n1\nx\n2\n")
@example("# k=2 h=1 encoding=tuples closed=true\n0 0\n1 0\n1 x\n0 1\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n1\n\n3\n2\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\r\n1\r\n3\r\n2\r\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n1\n3\n2")
@example("# k=2 h=1 encoding=tuples closed=true\n0 0\n1 0\n1 1\n0 1")
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,2],[0,1]],"closed":true}\n')
# Number forms JSON or int() reads but the renderers never write, each on
# the first row of a small window: the fast routes must leave them to the
# loop, which accepts "01" and " 1" and names the line of the rest.
@example("# k=2 h=1 encoding=ints closed=true\n0\n1,2\n3\n2\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n-0\n3\n2\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n01\n3\n2\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n1.0\n3\n2\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n1e3\n3\n2\n")
@example("# k=2 h=1 encoding=ints closed=true\n0\n 1\n3\n2\n")
# int(s, 2) reads "0_1" and "+1"; a bit position holds 0 or 1 only.
@example("# k=2 h=1 encoding=tuples closed=true\n0 0\n1 _\n1 1\n0 1\n")
@example("# k=2 h=1 encoding=tuples closed=true\n0 0\n1 +\n1 1\n0 1\n")
@example("# k=2 h=1 encoding=tuples closed=true\n0 0\n1 2\n1 1\n0 1\n")
# JSON ints forms that json.loads of a window reads, on the first row of
# the second window of small blocks: only ASCII digits and "," pass.
@example('{"k":2,"h":1,"encoding":"ints","cycle":[0, 1,3,2],"closed":true}\n')
@example('{"k":2,"h":1,"encoding":"ints","cycle":[0,1.0,3,2],"closed":true}\n')
@example('{"k":2,"h":1,"encoding":"ints","cycle":[0,-0,3,2],"closed":true}\n')
@example('{"k":2,"h":1,"encoding":"ints","cycle":[0,true,3,2],"closed":true}\n')
@example('{"k":2,"h":1,"encoding":"ints","cycle":[0,1e0,3,2],"closed":true}\n')
# An empty cycle: json.loads of its one window "," reads no rows.
@example('{"k":2,"h":1,"encoding":"ints","cycle":[],"closed":true}\n')
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,_],[1,1],[0,1]],"closed":true}\n')
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,+],[1,1],[0,1]],"closed":true}\n')
# At k=7 a row's "," pads it to its lane with one 0, so a "," in a bit
# position keeps the padded length.
@example('{"k":7,"h":1,"encoding":"tuples","cycle":[[,,0,0,0,0,0,0]],"closed":true}\n')
@example('{"k":7,"h":1,"encoding":"tuples","cycle":[[0,0,0,0,0,0,1],[0,0,0,,,0,0,0]],"closed":true}\n')
# JSON tuples one change away from the renderer's text, left to json.loads.
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}')
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]], "closed":true}\n')
@example('{"h":1,"k":2,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}\n')
@example('{"k":02,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}\n')
@example('{"k":40,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}\n')
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1],"closed":true}\n')
def test_fast_path_matches_the_scalar_loop(text):
    with mock.patch.dict(os.environ, {MAX_K_ENV: "64"}):  # admit every lane edge
        expected = outcome(scalar_parse, text)  # these bodies fit one default window
        for blocks in BLOCK_SIZES:
            with blocks():
                assert outcome(parse_document, text) == expected
                assert outcome(scalar_parse, text) == expected


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_rendered_documents_skip_the_slow_paths(encoding):
    # Every window of a rendered body passes the fast check; the per-line
    # and per-row loops, and json.loads for tuples, serve other texts.
    doc = CycleDocument(3, encoding, construct(7, 3).path)
    texts = [render_text(doc), render_json(doc)]
    refuse = mock.Mock(side_effect=AssertionError("a slow path ran"))
    slow = {"_text_codes": refuse, "_json_codes": refuse}
    if encoding == "tuples":
        slow["json"] = mock.Mock(loads=refuse)
    for blocks in BLOCK_SIZES:
        with blocks(), mock.patch.multiple(document, **slow):
            assert [parse_document(text) for text in texts] == [doc, doc]


@pytest.mark.parametrize("k", LANE_EDGE_KS)
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_every_lane_width_reads_rendered_rows_at_c_speed(k, encoding, monkeypatch):
    # The extremes of each lane: all zeros, all ones, the top bit alone.
    monkeypatch.setenv(MAX_K_ENV, "64")
    codes = (0, (1 << k) - 1, 1 << (k - 1), (1 << k) // 3, 5 % (1 << k))
    doc = CycleDocument(1, encoding, VertexPath(k, codes))
    refuse = mock.Mock(side_effect=AssertionError("a slow path ran"))
    with mock.patch.multiple(document, _text_codes=refuse, _json_codes=refuse):
        assert parse_document(render_text(doc)) == doc
        assert parse_document(render_json(doc)) == doc


@pytest.mark.parametrize("k", [8, 9, 16, 17, 32, 33])
@pytest.mark.parametrize("render", [render_text, render_json])
def test_streamed_tuples_chunks_are_arrays_of_the_lane(k, render, monkeypatch):
    # The checker takes an array of its lane as it is, without a copy.
    monkeypatch.setenv(MAX_K_ENV, "64")
    codes = lane_filling_codes(k, 300)
    text = render(CycleDocument(1, "tuples", VertexPath(k, codes)))
    with small_blocks(rows=64, chars=1024):
        _, _, _, chunks = read_cycle(io.BytesIO(text.encode()))
        chunks = list(chunks)
    assert len(chunks) > 1
    assert all(isinstance(chunk, array) and chunk.typecode == lane_typecode(k) for chunk in chunks)
    assert [code for chunk in chunks for code in chunk] == list(codes)


def bytes_beyond_result(call, *args):
    """The result of ``call(*args)`` and its tracemalloc peak less what it retains."""
    tracemalloc.start()
    try:
        result = call(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - retained


def test_render_and_parse_hold_one_block_of_rows():
    # Both once built a list of 2**k row strings, about 64 B/vertex
    # beyond what they return. Blocks of a few rows would cost as much in
    # block strings, so these are 1/64 of the document.
    k = 14
    doc = CycleDocument(1, "ints", VertexPath(k, tuple(j ^ (j >> 1) for j in range(1 << k))))
    with small_blocks(1 << 8, 1 << 11):
        text, render_extra = bytes_beyond_result(render_text, doc)
        parsed, parse_extra = bytes_beyond_result(parse_document, text)
    assert parsed == doc
    assert render_extra >> k < 16 and parse_extra >> k < 16


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("render", [render_text, render_json])
def test_parse_document_proves_every_later_piece(render, encoding):
    # A text is encoded once and read as verify reads a file: each of the
    # 31 later pieces of a rendered k=17 cycle is proven as a translate,
    # and the document is the one rendered.
    doc = CycleDocument(3, encoding, construct(17, 3).path)
    proven = []
    translate = body_rows.BodyRows._translate

    def spy(self, *args):
        lanes = translate(self, *args)
        proven.append(lanes is not None)
        return lanes

    with mock.patch.object(body_rows.BodyRows, "_translate", spy):
        assert parse_document(render(doc)) == doc
    assert proven == [True] * 31


@given(
    st.lists(st.text("0123456789", max_size=12), max_size=40),
    st.integers(0, 3),
    st.integers(1, 50),
    st.integers(1, 16),
    st.booleans(),
)
@example(["12", "", ""], 0, 1, 2, False)  # a span of no sep, then one of two
def test_rows_end_finds_the_rows_split_finds(rows, lead, wanted, chars, partial):
    # A second path for the search by spans and halves: the end of the
    # first ``wanted`` rows after ``lead`` characters, or the text's end.
    text = ("x" * lead + "".join(row + "," for row in rows) + "12" * partial).encode()
    body = document._body_rows(8, "ints", None, as_json=True)  # sep ",", no pieces
    body._chars = chars
    got = body._rows_end(text, lead, len(text), wanted)
    if wanted <= len(rows):
        assert got == (lead + sum(len(row) + 1 for row in rows[:wanted]), wanted)
    else:
        assert got == (len(text), len(rows))


@settings(deadline=None, max_examples=30)
@given(st.integers(16, 24), st.sampled_from(range(1, 16, 2)), st.integers(0, 15), st.booleans())
def test_decimal_fields_are_the_numbers_their_digits_write(k, h, piece, wide):
    # A second path for the fields of a piece of the closed form: the
    # first codes formatted once and cut by columns, ONE summed by
    # doubling and each bit's column made once are the numbers a "%"
    # format and a column of digits per field write, exponent and all.
    first = list(next(islice(constructor.construct_chunks(k, h), piece, None)))
    translates = decimal_rows.Translates(first, k, b"\n")
    width = translates.width + wide
    fields = translates._new_fields(width)

    def column(digits):
        return decimal.Decimal("".join("0" * (width - 1) + d for d in digits))

    one = column("1" * len(first))
    assert fields.total.as_tuple() == decimal.Decimal((f"%0{width}d" * len(first)) % tuple(first)).as_tuple()
    assert fields.one.as_tuple() == one.as_tuple()
    context = decimal.Context(prec=decimal.MAX_PREC)
    for p in range(k):
        bits = column("".join(str(c >> p & 1) for c in first))
        step = context.multiply(context.subtract(one, context.multiply(bits, 2)), 1 << p)
        assert translates._step(fields, p).as_tuple() == step.as_tuple(), p


@st.composite
def cut_documents(draw):
    """A rendered document, text or JSON, of a cycle, its later pieces
    perhaps moved off the route, and the sizes of the head and the blocks
    it is read in, which cut its rows and pieces anywhere."""
    k = draw(st.sampled_from([5, 16, 17]))
    h = draw(st.sampled_from(range(1, k, 2)))
    codes = list(construct(k, h).path.codes)
    for _ in range(draw(st.integers(0, 2))):  # a code changed, in piece 0 too
        at = draw(st.integers(0, len(codes) - 1))
        codes[at] ^= 1 << draw(st.integers(0, k - 1))
    render = draw(st.sampled_from([render_text, render_json]))
    text = render(CycleDocument(h, draw(st.sampled_from(ENCODINGS)), VertexPath(k, tuple(codes))))
    blocks = [1, 7, 64] if k < 16 else [4097, 30_001, 1 << 20]
    return text, draw(st.integers(64, 5000)), draw(st.sampled_from(blocks))  # a head holds JSON's


@settings(deadline=None, max_examples=40)
@given(cut_documents())
@example((render_text(CycleDocument(3, "ints", construct(16, 3).path)), 37, 30_001))
@example((render_json(CycleDocument(3, "tuples", construct(16, 3).path)), 4096, 7))
def test_the_body_read_in_any_blocks_is_the_whole_texts(case):
    # A second path for the buffer: the codes read with blocks cutting
    # rows and pieces anywhere, into a buffer that keeps the text a
    # block's edge cuts, are those of the text read in one block.
    text, head, block = case
    with mock.patch.object(document, "_WINDOW_CHARS", len(text)):
        whole = parse_document(text)
    with mock.patch.multiple(document, _WINDOW_CHARS=block, _HEAD_BYTES=head):
        cycle = read_cycle(io.BytesIO(text.encode()))
        chunks = list(cycle[3])
    assert None not in chunks
    assert cycle[:3] == (whole.path.k, whole.h, whole.encoding)
    assert tuple(c for chunk in chunks for c in chunk) == whole.path.codes


@pytest.mark.parametrize("render", [render_text, render_json])
def test_the_body_is_read_into_one_buffer(render):
    # Each block was read as a new bytes and joined behind the text held,
    # so reading a k=20 ints body peaked at about two bytes more for each
    # byte more of block. It is read into one buffer of a block and a
    # quarter, so the peak rises by that, and by two pieces of text more
    # at most.
    text = render(CycleDocument(5, "ints", construct(20, 5).path)).encode()
    piece = len(text) >> 20 - 12

    def peak(block):
        with mock.patch.object(document, "_WINDOW_CHARS", block):
            tracemalloc.start()
            try:
                _, _, _, chunks = read_cycle(io.BytesIO(text))
                assert None not in chunks
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    block = 1 << 18
    assert peak(2 * block) - peak(block) <= block * 5 // 4 + 2 * piece
