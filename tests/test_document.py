import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
