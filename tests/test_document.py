import contextlib
import hashlib
import json
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leaper_cycles import document
from leaper_cycles.constructor import construct
from leaper_cycles.core import MAX_K_ENV, VertexPath
from leaper_cycles.document import (
    ENCODINGS,
    CycleDocument,
    DocumentError,
    parse_document,
    render_json,
    render_text,
)
from leaper_cycles.verifier import verify_cycle

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


@st.composite
def documents(draw):
    k = draw(st.integers(1, 8))
    codes = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=1 << k))
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


def small_blocks(rows=2, chars=3):
    """Render blocks of ``rows`` rows and parse windows of about ``chars``
    characters; the defaults make a small document cross many cuts."""
    return mock.patch.multiple(document, _BLOCK_ROWS=rows, _WINDOW_CHARS=chars)


BLOCK_SIZES = (contextlib.nullcontext, small_blocks)


# SHA-256 of the renderers' output before their rows came from lookup
# tables; the tables must write the same bytes.
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
    rows = path.to_tuples()
    obj = {"k": k, "h": 1, "encoding": "tuples", "cycle": [list(row) for row in rows], "closed": True}
    for blocks in BLOCK_SIZES:
        with blocks():
            text = render_text(CycleDocument(1, "tuples", path))
            json_text = render_json(CycleDocument(1, "tuples", path))
        assert text.split("\n")[1:-1] == [" ".join(map(str, row)) for row in rows]
        assert json_text == json.dumps(obj, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("k", [23, 34, 64])
def test_wide_rows_match_joined_coordinates(k):
    # Row tables stay small however wide a row is: a short path in a high
    # dimension must not build a table of 2**(k/2) rows.
    path = VertexPath(k, (0, (1 << k) - 1, (1 << k) // 3, 5))
    text = render_text(CycleDocument(1, "tuples", path))
    assert text.split("\n")[1:-1] == [" ".join(map(str, row)) for row in path.to_tuples()]


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


MUTATION_CHARS = "01 \t\r\n2x+_-"


@st.composite
def mutated_renderings(draw):
    """Renderer output with one mutation: a char, CRLF, a blank line or a long row."""
    doc = draw(documents())
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
    with mock.patch.object(document, "_fast_text_codes", return_value=None), \
            mock.patch.object(document, "_fast_json_tuples", return_value=None), \
            mock.patch.object(document, "_fast_json_codes", return_value=None):
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
# JSON tuples one change away from the renderer's text, left to json.loads.
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}')
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]], "closed":true}\n')
@example('{"h":1,"k":2,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}\n')
@example('{"k":02,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}\n')
@example('{"k":40,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}\n')
@example('{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1],"closed":true}\n')
def test_fast_path_matches_the_scalar_loop(text):
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
