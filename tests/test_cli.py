import argparse
import contextlib
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from functools import reduce
from operator import or_
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leaper_cycles import body_rows, cli, constructor, core, decimal_rows, document, long_row
from leaper_cycles.cli import main
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
from leaper_cycles.oracle import oracle_exists
from leaper_cycles.verifier import CycleChecker, verify_cycle

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_DIM5_STEP3 = Path(__file__).resolve().parent / "data" / "dim5_step3.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_unit_square_document(self, capsys):
        code, out, err = run(capsys, "construct", "--k", "2", "--h", "1")
        assert code == 0 and err == ""
        assert out == (
            "# k=2 h=1 encoding=tuples closed=true\n"
            "0 0\n1 0\n1 1\n0 1\n"
        )

    def test_golden_change3_dim5_accepted_by_verifier(self, capsys, tmp_path):
        target = tmp_path / "cycle.txt"
        code, out, err = run(
            capsys, "construct", "--k", "5", "--h", "3", "--output", str(target)
        )
        assert code == 0 and out == ""
        doc = parse_document(target.read_text())
        assert doc.path.k == 5 and doc.h == 3
        assert verify_cycle(doc.path, 3).valid

    def test_output_matches_golden_file_byte_for_byte(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "5", "--h", "3")
        assert code == 0
        assert out == GOLDEN_DIM5_STEP3.read_text()

    def test_leaper_name_supplies_step(self, capsys):
        code, out, _ = run(capsys, "construct", "--leaper", "knight", "--k", "6")
        assert code == 0
        doc = parse_document(out)
        assert doc.h == 5 and len(doc.path) == 64
        assert verify_cycle(doc.path, 5).valid

    def test_infeasible_exits_2(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "4", "--h", "2")
        assert code == 2
        assert out.splitlines()[0] == "status: infeasible-parity"
        assert out.splitlines()[1].startswith("detail: ")

    def test_ints_format(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "2", "--h", "1", "--format", "ints")
        assert code == 0
        assert out == "# k=2 h=1 encoding=ints closed=true\n0\n1\n3\n2\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "3", "--h", "1", "--format", "json")
        assert code == 0
        doc = parse_document(out)
        assert verify_cycle(doc.path, 1).valid

    def test_requires_h_or_leaper(self, capsys):
        code, _, err = run(capsys, "construct", "--k", "4")
        assert code == 1
        assert "error" in err

    def test_unknown_leaper_exits_1(self, capsys):
        code, _, err = run(capsys, "construct", "--leaper", "rook", "--k", "6")
        assert code == 1
        assert "catalog" in err

    def test_max_k_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "construct", "--k", "5", "--h", "3", "--max-k", "4")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --max-k 4" in err

    def test_ceiling_comes_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(MAX_K_ENV, "4")
        code, out, err = run(capsys, "construct", "--k", "5", "--h", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: dimension 5 exceeds the ceiling 4")


def construct_argv(k, h, fmt, target):
    return ["construct", "--k", str(k), "--h", str(h), "--format", fmt, "--output", str(target)]


def rendered(k, h, fmt):
    """The document ``construct --format fmt`` writes, from the in-memory renderers."""
    path = construct(k, h).path
    if fmt == "json":
        return render_json(CycleDocument(h, "tuples", path))
    return render_text(CycleDocument(h, fmt, path))


def corrupt_last_chunk(monkeypatch):
    """Repeat the first code of the last chunk in place of its last code."""
    chunks = constructor._code_chunks

    def corrupted(k, h):
        *head, last = chunks(k, h)
        return iter([*head, last[:-1] + last[:1]])

    monkeypatch.setattr(core, "PIECE_CODES", 1 << 3)
    monkeypatch.setattr(constructor, "_code_chunks", corrupted)


class TestConstructStreams:
    @pytest.mark.parametrize("chunk", [1 << 1, 1 << 3, 1 << 16])
    def test_chunked_file_matches_the_renderers(self, chunk, tmp_path, monkeypatch):
        # Chunks smaller and larger than the base block of 2**(h+1) codes.
        cases = [
            (k, h, fmt)
            for k in range(2, 11)
            for h in range(1, k, 2)
            for fmt in ("tuples", "ints", "json")
        ]
        expected = {case: rendered(*case).encode() for case in cases}
        monkeypatch.setattr(core, "PIECE_CODES", chunk)
        for k, h, fmt in cases:
            target = tmp_path / f"{k}-{h}-{fmt}"
            assert main(construct_argv(k, h, fmt, target)) == 0
            assert target.read_bytes() == expected[k, h, fmt], (k, h, fmt)

    def test_chunked_stdout_matches_the_renderers(self, capsys, monkeypatch):
        monkeypatch.setattr(core, "PIECE_CODES", 1 << 3)
        code, out, err = run(capsys, "construct", "--k", "7", "--h", "5")
        assert (code, err) == (0, "")
        assert out == rendered(7, 5, "tuples")

    def test_failed_check_leaves_no_file(self, tmp_path, monkeypatch):
        corrupt_last_chunk(monkeypatch)
        target = tmp_path / "cycle.txt"
        with pytest.raises(RuntimeError, match="this is a bug"):
            main(construct_argv(5, 3, "ints", target))
        assert list(tmp_path.iterdir()) == []

    def test_failed_check_keeps_the_old_target(self, tmp_path, monkeypatch):
        corrupt_last_chunk(monkeypatch)
        target = tmp_path / "cycle.txt"
        target.write_text("old\n")
        with pytest.raises(RuntimeError, match="this is a bug"):
            main(construct_argv(5, 3, "tuples", target))
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"

    def test_replaced_target_keeps_its_mode(self, tmp_path):
        target = tmp_path / "cycle.txt"
        target.write_text("old\n")
        target.chmod(0o600)
        assert main(construct_argv(5, 3, "tuples", target)) == 0
        assert target.read_text() == GOLDEN_DIM5_STEP3.read_text()
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert list(tmp_path.iterdir()) == [target]

    def test_directory_target_exits_1_and_leaves_no_sibling(self, capsys, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        code, out, err = run(capsys, *construct_argv(5, 3, "ints", target))
        assert code == 1 and out == "" and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_device_target_is_written_in_place(self, capsys, monkeypatch):
        # Renaming onto /dev/null would replace the device for a root user,
        # so a rename onto it fails this test instead of taking place.
        replace = os.replace

        def guarded(src, dst):
            assert os.path.abspath(dst) != "/dev/null", "renamed onto /dev/null"
            replace(src, dst)

        monkeypatch.setattr(os, "replace", guarded)
        code, out, err = run(capsys, *construct_argv(5, 3, "ints", "/dev/null"))
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
        assert list(Path("/dev").glob("null.*")) == []

    def test_infeasible_request_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "cycle.txt"
        code, out, _ = run(capsys, *construct_argv(4, 2, "ints", target))
        assert code == 2 and out.startswith("status: infeasible-parity\n")
        assert list(tmp_path.iterdir()) == []

    def test_output_holds_one_chunk(self, tmp_path, monkeypatch):
        # Building the whole path and its text first cost 118.7 B/vertex.
        # The first ints render in a process also imports `decimal_rows`
        # and `decimal`, a cost independent of k, so the second call is
        # measured.
        k = 14
        monkeypatch.setattr(core, "PIECE_CODES", 1 << 8)
        argv = construct_argv(k, 3, "ints", tmp_path / "cycle.txt")
        assert main(argv) == 0
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 << k


def plain_document(k, h, fmt, codes):
    """The document ``construct --format fmt`` writes for ``codes``, built
    one row at a time: ``str`` of each code, or its coordinate digits."""
    if fmt == "ints":
        return f"# k={k} h={h} encoding=ints closed=true\n" + "".join(f"{c}\n" for c in codes)
    rows = [format(c, f"0{k}b")[::-1] for c in codes]
    if fmt == "tuples":
        return f"# k={k} h={h} encoding=tuples closed=true\n" + "".join(" ".join(r) + "\n" for r in rows)
    grid = ",".join("[" + ",".join(r) + "]" for r in rows)
    return f'{{"k":{k},"h":{h},"encoding":"tuples","cycle":[{grid}],"closed":true}}\n'


@pytest.mark.parametrize("k", [16, 17])
@pytest.mark.parametrize("h", range(1, 16, 2))  # every odd h < k
def test_construct_writes_the_rows_of_every_code(k, h, tmp_path):
    # At k >= 16 later ints pieces are written from decimal fields and
    # every later piece passes as a translate; the rows must still be the
    # codes of the path, row by row, for every field layout a piece takes.
    codes = construct(k, h).path.codes
    for fmt in ("ints", "tuples", "json"):
        target = tmp_path / fmt
        assert main(construct_argv(k, h, fmt, target)) == 0
        assert target.read_bytes() == plain_document(k, h, fmt, codes).encode(), fmt


@pytest.mark.parametrize("h", [3, 13])
def test_leading_zeros_are_struck_out_only_where_a_row_falls_short_of_its_field(h, tmp_path):
    # A later piece of k=17 ints rows is summed in fields of w + 1 = 7
    # digits if its greatest row has w, else of w, and the fields' top
    # digits, all 0s, become the separators. Only
    # a piece whose shift's bits outside the first piece's are below
    # 10**(w-1) = 10**5 is looked at for rows that open with zeros, and
    # only one with a row shorter than its field less one has any struck
    # out. Such pieces once had their digit columns copied one by one.
    k = 17
    first = construct(k, h).path.codes[:core.PIECE_CODES]
    w, support = len(str((1 << k) - 1)), reduce(or_, first)
    slotted, stripped = decimal_rows.Translates._slotted, decimal_rows.Translates._stripped
    fields, looked, struck = [], [], []

    def slotted_spy(self, shift, width, strip):
        fields.append((shift, width))
        return slotted(self, shift, width, strip)

    def stripped_spy(self, out, width):
        size = len(out)
        rows = stripped(self, out, width)
        looked.append(fields[-1][0])
        if len(rows) < size:
            struck.append(fields[-1][0])
        return rows

    with mock.patch.object(decimal_rows.Translates, "_slotted", slotted_spy), \
            mock.patch.object(decimal_rows.Translates, "_stripped", stripped_spy):
        assert main(construct_argv(k, h, "ints", tmp_path / "doc")) == 0
    assert len(fields) == (1 << k) // core.PIECE_CODES - 1
    digits = {shift: [len(str(c ^ shift)) for c in first] for shift, _ in fields}
    assert all(width == w + (max(digits[shift]) == w) for shift, width in fields)
    assert looked == [shift for shift, _ in fields if shift & ~support < 10 ** (w - 1)]
    assert struck == [shift for shift, width in fields if min(digits[shift]) < width - 1]
    assert 0 < len(struck) < len(looked) < len(fields)


def test_decimal_context_of_the_process_is_left_as_it_was(tmp_path):
    # The fields are summed in a context of their own: construct and
    # verify of a k=17 ints file, which write and prove translates, change
    # no precision, trap or flag of the thread's context.
    import decimal

    context = decimal.getcontext()
    before = context.prec, dict(context.traps), dict(context.flags)
    target = tmp_path / "doc"
    assert main(construct_argv(17, 3, "ints", target)) == 0
    assert main(["verify", str(target)]) == 0
    context = decimal.getcontext()
    assert (context.prec, dict(context.traps), dict(context.flags)) == before


def calls_of(monkeypatch, name):
    """The calls of ``core.<name>`` wherever the package binds it, a list
    that grows by one per call; the modules a parse or a render loads
    only when it needs them, ``body_rows`` and ``decimal_rows``, are
    imported at the top of this file so that theirs are found."""
    original, calls = getattr(core, name), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in [m for n, m in sys.modules.items() if n.startswith("leaper_cycles")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_translates_are_never_unpacked_and_packed_again(tmp_path, monkeypatch):
    # Each of the 64 pieces of a k=18 construct packed once in the checker
    # and once in the renderer's translate test, or was unpacked and packed
    # again for its tuples rows, and verify unpacked each ints piece it
    # proved by rendering, for the checker to pack it again.
    target = tmp_path / "cycle.txt"
    packs = calls_of(monkeypatch, "pack")
    unpacks = calls_of(monkeypatch, "unpack")
    for fmt in ("tuples", "json", "ints"):
        packs.clear()
        unpacks.clear()
        assert main(construct_argv(18, 5, fmt, target)) == 0
        # The first piece and its ones, twice for ints, block 0, and piece
        # 0's tuples rows; block 0's basis.
        assert len(packs) <= 5 and len(unpacks) <= 1, fmt
    packs.clear()
    unpacks.clear()
    assert main(["verify", str(target)]) == 0  # the ints file: its pieces are proven
    assert len(unpacks) <= 1 and len(packs) <= 3  # block 0's basis; piece 0 and its ones


class TestVerify:
    def make_doc(self, capsys, tmp_path, *extra):
        target = tmp_path / "cycle.txt"
        assert main(["construct", "--k", "5", "--h", "3", "--output", str(target), *extra]) == 0
        capsys.readouterr()
        return target

    def test_valid_document(self, capsys, tmp_path):
        target = self.make_doc(capsys, tmp_path)
        code, out, _ = run(capsys, "verify", str(target))
        assert code == 0
        assert out == "valid: change-3 cycle on 32 vertices in dimension 5\n"

    def test_golden_file_verifies(self, capsys):
        code, out, _ = run(capsys, "verify", str(GOLDEN_DIM5_STEP3))
        assert code == 0
        assert out.startswith("valid:")

    def test_swapped_lines_exit_2_with_locations(self, capsys, tmp_path):
        target = self.make_doc(capsys, tmp_path)
        lines = target.read_text().splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        target.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", str(target))
        assert code == 2
        assert out.splitlines()[0].startswith("invalid:")
        assert "WrongStep" in out

    def test_h_override(self, capsys, tmp_path):
        target = self.make_doc(capsys, tmp_path)
        code, out, _ = run(capsys, "verify", str(target), "--h", "1")
        assert code == 2
        assert "WrongStep" in out

    def test_empty_file_exits_1(self, capsys, tmp_path):
        target = tmp_path / "empty.txt"
        target.write_text("")
        code, _, err = run(capsys, "verify", str(target))
        assert code == 1
        assert "line 1" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
        assert code == 1
        assert err.startswith("error:")

    def test_non_utf8_byte_reports_line(self, capsys, tmp_path):
        target = tmp_path / "bad.txt"
        target.write_bytes(b"# k=2 h=1 encoding=ints closed=true\n0\n1\n3\xff\n2\n")
        code, out, err = run(capsys, "verify", str(target))
        assert code == 1 and out == ""
        assert err == "error: line 4: not UTF-8: byte 0xff, invalid start byte\n"

    def test_malformed_body_reports_line(self, capsys, tmp_path):
        target = tmp_path / "bad.txt"
        target.write_text("# k=2 h=1 encoding=tuples closed=true\n0 0\n0 x\n")
        code, _, err = run(capsys, "verify", str(target))
        assert code == 1
        assert "line 3" in err

    def test_code_wider_than_a_lane_is_a_violation(self, capsys, tmp_path):
        # 2**40 fits no 32-bit lane; the checker names it as it names any
        # code outside the dimension, not as an input error.
        codes = [*construct(4, 1).path.codes[:-1], 1 << 40]
        target = tmp_path / "wide.txt"
        target.write_text("# k=4 h=1 encoding=ints closed=true\n" + "".join(f"{c}\n" for c in codes))
        code, out, err = run(capsys, "verify", str(target))
        assert (code, err) == (2, "")
        assert out == (
            "invalid: 2 violation(s)\nDimensionOverflow at 15\nWrongStep at (14, 15)\n"
        )

    @pytest.mark.parametrize("fmt", ["tuples", "ints", "json"])
    def test_valid_document_passes_the_packed_check(self, fmt, capsys, tmp_path, monkeypatch):
        # The parser's chunks of a valid document never reach the
        # checker's code-by-code loops, and name no step fault.
        def never(*args):
            raise AssertionError("a valid chunk was checked code by code")

        add_steps = CycleChecker._add_steps

        def no_step_fault(checker, faults):
            assert not faults, "a valid chunk named a step fault"
            add_steps(checker, faults)

        target = tmp_path / "cycle"
        assert main(construct_argv(12, 5, fmt, target)) == 0
        monkeypatch.setattr(CycleChecker, "_scan", never)
        monkeypatch.setattr(CycleChecker, "_add_steps", no_step_fault)
        code, out, _ = run(capsys, "verify", str(target))
        assert (code, out) == (0, "valid: change-5 cycle on 4096 vertices in dimension 12\n")

    def test_max_k_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", str(GOLDEN_DIM5_STEP3), "--max-k", "4")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --max-k 4" in err

    def test_ceiling_comes_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(MAX_K_ENV, "4")
        code, out, err = run(capsys, "verify", str(GOLDEN_DIM5_STEP3))
        assert code == 1 and out == ""
        assert err.startswith("error: line 1: dimension 5 exceeds the ceiling 4")

    def test_header_above_ceiling_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(MAX_K_ENV, raising=False)
        target = tmp_path / "huge.txt"
        target.write_text("# k=40 h=3 encoding=ints closed=true\n0\n7\n")
        code, out, err = run(capsys, "verify", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1: dimension 40 exceeds the ceiling")

    @pytest.mark.parametrize(
        "text",
        [
            "# k=2 h=1 encoding=ints closed=false\n0\n1\n3\n2\n",
            '{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1.0,0],[1,1],[0,1]],'
            '"closed":true}',
            '{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[true,false],[0,1]],'
            '"closed":true}',
            pytest.param("# k=2 h=0 encoding=ints closed=true\n0\n1\n3\n2\n", id="h=0"),
            pytest.param(
                "# k=" + "1" * 5000 + " h=1 encoding=ints closed=true\n0\n",
                id="k-too-many-digits",
            ),
            pytest.param('{"cycle":' + "[" * 100_000, id="json-too-deep"),
            pytest.param('{"k":' + "1" * 5000 + "}", id="json-too-many-digits"),
        ],
    )
    def test_rejected_document_exits_1(self, capsys, tmp_path, text):
        target = tmp_path / "doc.txt"
        target.write_text(text)
        code, out, err = run(capsys, "verify", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1: ")

    def test_json_document(self, capsys, tmp_path):
        target = self.make_doc(capsys, tmp_path, "--format", "json")
        code, out, _ = run(capsys, "verify", str(target))
        assert code == 0
        assert out.startswith("valid:")


def verify_outcome(path, *flags, whole=False):
    """Exit code, stdout and stderr of ``verify path``, and whether the
    document was parsed whole; ``whole`` parses it whole in any case, by
    the per-line loop and ``json.loads`` alone, sharing no row reader
    with the windowed read, proving no piece, ``ints`` or ``tuples``,
    by rendering it, and refusing no row before its end."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if whole:
            stack.enter_context(mock.patch.object(cli, "read_cycle", return_value=None))
            for name in ("_lane_codes", "_int_rows", "_json_cycle", "_translates_pay", "_cut_row"):
                stack.enter_context(mock.patch.object(document, name, return_value=None))
            stack.enter_context(mock.patch.object(body_rows.BodyRows, "_translate", return_value=None))
        parsed = stack.enter_context(
            mock.patch.object(cli, "parse_document", wraps=parse_document)
        )
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(["verify", str(path), *flags])
    return (code, out.getvalue(), err.getvalue()), parsed.called


# Bytes the renderers never write, each once the source of a fault the
# windowed read had to name as the whole-document parse does.
PIECES = [
    b"\xff", b"\xe2\x82", b"\xc3\xa9", b"\r", b"\r\n", b"\n", b"\v", b"\t", b" ",
    "\u3000".encode(), "\u2028".encode(), b"x", b"0", b"1", b"00", b"-", b",", b"[", b"]",
]
HEADER = b"# k=2 h=1 encoding=ints closed=true\n"
# Pieces of a long row: tokens of each encoding, bytes no row holds, the
# whitespace a row may hold and some it may not.
LONG_ROW_PIECES = [
    b"0", b"1", b"2", b"y", b"0 ", b"1\t", b" ", b"\t", b"\r", b"\xff", b"\v", "\u00e9".encode(), b"\xe2\x82",
]
DIGIT_ROW_PIECES = [b"0", b"1", b" ", b"\t", b"\r", b"y", b"\xff"]
JSON_INTS = b'{"k":2,"h":1,"encoding":"ints","cycle":[0,1,3,2],"closed":true}\n'


@st.composite
def document_files(draw):
    """The bytes of a rendered document in one of the four formats, with
    perhaps a padded header, CR LF line ends and a few bytes changed."""
    k, h = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if k > h and h % 2 and draw(st.booleans()):
        codes = construct(k, h).path.codes
    else:
        codes = tuple(draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=(1 << k) + 2)))
    doc = CycleDocument(h, draw(st.sampled_from(ENCODINGS)), VertexPath(k, codes))
    data = draw(st.sampled_from([render_text, render_json]))(doc).encode()
    data = data.replace(b" closed=true", b" " * draw(st.integers(1, 12)) + b"closed=true")
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "replace", "delete"]))
        piece = b"" if kind == "delete" else draw(st.sampled_from(PIECES))
        data = data[:i] + piece + data[i + (kind != "insert"):]
    return data


class TestVerifyWindows:
    @given(
        document_files(),
        st.sampled_from([1, 2, 3, 7, 64]),
        st.sampled_from([40, 48, 1 << 12]),
        st.sampled_from([(), ("--h", "1"), ("--h", "3"), ("--h", "0")]),
    )
    # Faults on the first line of a window of two bytes, and faults the
    # whole-document parse names before an earlier one: a bad byte before
    # stray whitespace, before a header at fault, before a row at fault.
    @example(HEADER + b"0\n1\n3\xff\n2\n", 2, 48, ())
    @example(HEADER + b"0\n1\xe2\x82\n3\n2\n", 2, 48, ())
    @example(HEADER + b"0\nx\n3\v\n2\n", 2, 48, ())
    @example(HEADER + b"0\v\n1\n3\n2\xff", 2, 48, ())
    @example(HEADER + b"0\nx\n3\n2\n\xc3", 3, 48, ())
    @example(HEADER.replace(b"ints", b"hex") + b"0\n1\r3\n2\n", 2, 48, ())
    @example(HEADER.replace(b"ints", b"hex") + b"0\n1\n3\n\xff", 2, 48, ())
    @example(HEADER.replace(b"\n", b"\v\n") + b"0\n1\n3\n2\xff", 2, 48, ())
    @example(HEADER.replace(b"\n", b"\r\n") + b"0\r\n1\r\n3\r\n2\r", 2, 48, ())
    @example(HEADER + b"0\n1\n3\n2\n", 2, 48, ("--h", "0"))
    @example(HEADER + b"\n\n", 2, 48, ())
    @example(b"# k=2 h=1 encoding=ints  closed=true\n0\n1\n3\n2\n", 2, 37, ())
    @example(b"# k=2 h=1 encoding=ints   closed=true\n0\n1\n3\n2\n", 2, 37, ())
    @example(b'{"k":2,"h":1,"encoding":"ints","cycle":[0,1,3,02],"closed":true}\n', 2, 48, ())
    @example(b'{"k":2,"h":1,"encoding":"ints","cycle":[0,1,3,2,],"closed":true}\n', 2, 48, ())
    @example(b'{"k":2,"h":1,"encoding":"tuples","cycle":[[0,0],[1,0],[1,1],[0,1]],"closed":true}', 3, 48, ())
    # A "," or "-0" on the first row of a window, which json.loads of that
    # window alone would read.
    @example(HEADER + b"0\n1\n1,3\n2\n", 2, 40, ())
    @example(HEADER + b"0\n1\n-0\n2\n", 2, 40, ())
    @example(HEADER + b"1,0\n1\n3\n2\n", 64, 1 << 12, ())
    @example(HEADER + b"-0\n1\n3\n2\n", 64, 1 << 12, ())
    # JSON ints forms that json.loads of the window "<form>," reads, on the
    # first row of the third window: only ASCII digits and "," pass.
    @example(JSON_INTS.replace(b"3", b" 1"), 2, 48, ())
    @example(JSON_INTS.replace(b"3", b"1.0"), 2, 48, ())
    @example(JSON_INTS.replace(b"3", b"-0"), 2, 48, ())
    @example(JSON_INTS.replace(b"3", b"true"), 2, 48, ())
    @example(JSON_INTS.replace(b"3", b"1e0"), 2, 48, ())
    # Text led by an ASCII byte other than "#" streams; a lead that
    # str.lstrip skips, \x1c among them, does not.
    @example(b"\x1c" + JSON_INTS, 2, 48, ())
    @example(b"x" + HEADER + b"0\n1\n3\n2\xff", 2, 48, ())
    def test_windowed_verdict_is_the_whole_document_verdict(self, data, window, head, flags):
        # Exit code, total, kept violations and every error text match
        # verify_cycle(parse_document(text).path, h), however the file is cut.
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.multiple(document, _WINDOW_CHARS=window, _HEAD_BYTES=head):
            target = Path(tmp) / "doc"
            target.write_bytes(data)
            assert verify_outcome(target, *flags)[0] == verify_outcome(target, *flags, whole=True)[0]

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("render", [render_text, render_json])
    def test_rendered_documents_are_never_parsed_whole(self, render, encoding, tmp_path, monkeypatch):
        monkeypatch.setattr(document, "_WINDOW_CHARS", 5)
        target = tmp_path / "doc"
        target.write_text(render(CycleDocument(3, encoding, construct(6, 3).path)))
        outcome, parsed_whole = verify_outcome(target)
        assert outcome == (0, "valid: change-3 cycle on 64 vertices in dimension 6\n", "")
        assert not parsed_whole

    @pytest.mark.parametrize("window", [2, 3])
    @pytest.mark.parametrize("spaces", [1, 2, 3, 5000])
    def test_a_header_of_any_length_streams(self, spaces, window, tmp_path, monkeypatch):
        # The header line with its LF is 36 bytes with one space before
        # "closed" and the head read is set at 37, so from 3 spaces on the
        # header runs past it; such a file was once parsed whole.
        monkeypatch.setattr(document, "_HEAD_BYTES", 37)
        monkeypatch.setattr(document, "_WINDOW_CHARS", window)
        header = HEADER.replace(b" closed", b" " * spaces + b"closed")
        target = tmp_path / "doc"
        target.write_bytes(header + b"0\n1\n3\n2\n")
        outcome, parsed_whole = verify_outcome(target)
        assert outcome == (0, "valid: change-1 cycle on 4 vertices in dimension 2\n", "")
        assert not parsed_whole
        # parse_document reads the same stream of head and blocks from a text.
        doc = parse_document(target.read_text())
        assert (doc.path.codes, verify_cycle(doc.path, doc.h).valid) == ((0, 1, 3, 2), True)
        # A header line that runs on to the end of the file, with no LF.
        target.write_bytes(header.rstrip(b"\n"))
        outcome, parsed_whole = verify_outcome(target)
        assert outcome == verify_outcome(target, whole=True)[0]
        assert outcome == (1, "", "error: line 2: document has no vertices\n")
        assert not parsed_whole
        with pytest.raises(DocumentError, match="^line 2: document has no vertices$"):
            parse_document(target.read_text())

    @pytest.mark.parametrize("rows", [b"\n0\n1\n3\n2\n", b""], ids=["rows", "no-LF"])
    def test_a_long_header_line_is_held_at_the_length_of_its_tokens(self, rows, tmp_path, monkeypatch):
        # Runs of spaces and tabs in the header line are carried as one
        # space; the whole line once was, so this file peaked at 2.0 B a
        # byte and a 40 MiB line at a VmHWM of 97 MB.
        monkeypatch.setattr(document, "_WINDOW_CHARS", 1 << 16)
        size = 4 << 20
        target = tmp_path / "doc"
        target.write_bytes(HEADER.replace(b" closed", b" \t" * (size // 2) + b"closed")[:-1] + rows)
        assert verify_outcome(target) == ((
            (0, "valid: change-1 cycle on 4 vertices in dimension 2\n", "") if rows
            else (1, "", "error: line 2: document has no vertices\n")
        ), False)
        tracemalloc.start()
        try:
            verify_outcome(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size // 16

    @pytest.mark.parametrize("rows", [b"\n0\n1\n3\n2\n", b""], ids=["rows", "no-LF"])
    def test_a_header_line_past_its_bound_is_not_held(self, rows, tmp_path, monkeypatch):
        # A first line of 40 MiB of "x" peaked at a VmHWM of 98 MB, carried
        # whole only to be refused; past _HEADER_TOKENS the line is no
        # longer held, and the rest is scanned a block at a time, so what
        # is held is a block and a few times _HEADER_TOKENS, whatever the size.
        monkeypatch.setattr(document, "_WINDOW_CHARS", 1 << 16)
        size = 8 << 20
        target = tmp_path / "doc"
        target.write_bytes(b"x" * size + rows)
        refusal = "error: line 1: expected header '# k=<k> h=<h> encoding=<enc> closed=true'\n"
        assert verify_outcome(target) == ((1, "", refusal), False)
        tracemalloc.start()
        try:
            verify_outcome(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size // 16

    def test_the_scan_after_a_fault_holds_one_block(self, tmp_path, monkeypatch):
        # A bad row on line 3, then a line of 40 MiB with no LF, was read
        # for stray whitespace a whole line at a time: 0.42 s, at a VmHWM of
        # 101 MB. The scan after a fault now holds a block at a time.
        monkeypatch.setattr(document, "_WINDOW_CHARS", 1 << 16)
        size = 8 << 20
        target = tmp_path / "doc"
        target.write_bytes(HEADER + b"0\nx\n" + b"y" * size)
        refusal = "error: line 3: vertex code must be ASCII digits, got 'x'\n"
        assert verify_outcome(target) == ((1, "", refusal), False)
        tracemalloc.start()
        try:
            verify_outcome(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size // 16

    def test_a_long_refused_row_is_not_held(self, tmp_path, monkeypatch):
        # A row of "2" and 40 MiB of "y" was held whole until its LF, joined
        # with each block: 0.83-0.87 s at a VmHWM of 179 MB. Past the bytes any
        # valid row holds, a row refused whatever ends it is held no longer.
        monkeypatch.setattr(document, "_WINDOW_CHARS", 1 << 16)
        size = 8 << 20
        target = tmp_path / "doc"
        target.write_bytes(HEADER + b"0\n2" + b"y" * size + b"\n3\n")
        refusal = "error: line 3: vertex code must be ASCII digits, got '2" + "y" * 38 + "...\n"
        assert verify_outcome(target) == ((1, "", refusal), False)
        tracemalloc.start()
        try:
            verify_outcome(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size // 16

    def test_a_long_valid_row_is_read_from_the_buffer_itself(self, tmp_path, monkeypatch):
        # A valid row of "1" and 8 MiB of spaces is held in the buffer to its
        # LF. When it is all the text read, the buffer itself goes to the
        # reader, as the joined text did: a copy of it as the window beside
        # the buffer peaked at about four times the row, where the reader's
        # decode and split make three.
        monkeypatch.setattr(document, "_WINDOW_CHARS", 1 << 16)
        size = 8 << 20
        target = tmp_path / "doc"
        target.write_bytes(HEADER + b"0\n1" + b" " * size + b"\n3\n2\n")
        assert verify_outcome(target) == ((0, "valid: change-1 cycle on 4 vertices in dimension 2\n", ""), False)
        tracemalloc.start()
        try:
            verify_outcome(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * size

    def test_a_long_row_that_may_be_valid_is_tested_once_per_doubling(self, tmp_path, monkeypatch):
        # A row of digits alone is refused only by its length, past the
        # interpreter's digit limit; tested again with each block, a row of
        # 40 MiB took 2.6 s against 1.1 s when it was never tested.
        monkeypatch.setattr(document, "_WINDOW_CHARS", 64)
        target = tmp_path / "doc"
        target.write_bytes(HEADER + b"0\n" + b"1" * (1 << 16) + b"\n3\n2\n")
        refused = mock.Mock(wraps=long_row.refused)
        monkeypatch.setattr(long_row, "refused", refused)
        assert verify_outcome(target) == ((1, "", "error: line 3: vertex code has too many digits\n"), False)
        assert 0 < refused.call_count <= 16

    def test_a_long_row_of_digits_is_refused_as_it_comes(self, tmp_path, monkeypatch):
        # A row of 40 MiB of "1" was held whole to its LF and read whole:
        # 1.26 s at a VmHWM of 179 MB, for a refusal its length decides once
        # it is past the interpreter's digit limit. Past that it is refused
        # whatever ends it, and its tokens are counted as it comes.
        monkeypatch.setattr(document, "_WINDOW_CHARS", 1 << 16)
        size = 8 << 20
        target = tmp_path / "doc"
        target.write_bytes(HEADER + b"0\n" + b"1" * size + b"\n3\n")
        refusal = "error: line 3: vertex code has too many digits\n"
        assert verify_outcome(target) == ((1, "", refusal), False)
        tracemalloc.start()
        try:
            verify_outcome(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size // 16

    @given(
        st.lists(st.tuples(st.sampled_from(DIGIT_ROW_PIECES), st.sampled_from([1, 300, 700])), max_size=5),
        st.sampled_from([1, 7, 64, 4096]),
    )
    @example([(b"1", 700)], 7)
    @example([(b" ", 1), (b"1", 700), (b" ", 300)], 64)
    @example([(b"1", 700), (b"y", 1)], 7)
    @example([(b"1", 700), (b"\t", 1), (b"5", 1)], 64)
    @example([(b"1", 700), (b"\xff", 1)], 7)
    @example([(b"0", 300), (b"1", 300), (b"0", 300)], 4096)
    def test_a_long_row_of_digits_gets_the_whole_document_verdict(self, pieces, window):
        # Line 3 of a k=2 cycle, digits on both sides of the interpreter's
        # digit limit, here its least, 640, and what may end them.
        row = b"".join(piece * times for piece, times in pieces)
        data = HEADER + b"\n".join([b"0", row, b"3", b"2"]) + b"\n"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                target = Path(tmp) / "doc"
                target.write_bytes(data)
                whole = verify_outcome(target, whole=True)[0]
                with mock.patch.multiple(document, _WINDOW_CHARS=window, _HEAD_BYTES=window):
                    assert verify_outcome(target)[0] == whole
        finally:
            sys.set_int_max_str_digits(limit)

    @given(
        st.lists(st.tuples(st.sampled_from(LONG_ROW_PIECES), st.sampled_from([1, 2, 40, 200])), max_size=6),
        st.sampled_from(["ints", "tuples"]),
        st.sampled_from([1, 2, 7, 64]),
    )
    # A tab, a byte that is not UTF-8 or stray whitespace past the cut; a
    # bad byte after 200 digits, at a row's end or not; many tokens; a long
    # token; valid padding.
    @example([(b"2", 1), (b"y", 200), (b"\t", 1), (b"y", 2)], "ints", 7)
    @example([(b"2", 1), (b"y", 200), (b"\xff", 1)], "ints", 7)
    @example([(b"2", 1), (b"y", 200), (b"\v", 1)], "ints", 64)
    @example([(b"1", 200), (b"y", 1)], "ints", 2)
    @example([(b"1", 200), (b"y", 40)], "ints", 7)
    @example([(b"1", 200)], "ints", 7)
    @example([(b" ", 200), (b"1", 1), (b"\t", 40)], "ints", 7)
    @example([(b"0 ", 200)], "tuples", 7)
    @example([(b"1", 1), (b" ", 40), (b"0", 200)], "tuples", 2)
    @example([(b"1\t", 1), (b" ", 200), (b"1", 1), (b"\r", 1)], "tuples", 7)
    @example([(b"1\t", 1), (b"1", 1), (b" ", 200)], "tuples", 7)
    @example([(b"1\t", 1), ("\u00e9".encode(), 200), (b"y", 1)], "tuples", 1)
    def test_a_long_row_gets_the_whole_document_verdict(self, pieces, encoding, window):
        # Line 3 of a k=2 cycle made of pieces, some many times over, past
        # the 20 or 3 bytes a valid row holds, cut by blocks of any size.
        row = b"".join(piece * times for piece, times in pieces)
        rows = [b"0", row, b"3", b"2"] if encoding == "ints" else [b"0 0", row, b"1 1", b"0 1"]
        data = HEADER.replace(b"ints", encoding.encode()) + b"\n".join(rows) + b"\n"
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "doc"
            target.write_bytes(data)
            whole = verify_outcome(target, whole=True)[0]
            with mock.patch.multiple(document, _WINDOW_CHARS=window, _HEAD_BYTES=window):
                assert verify_outcome(target)[0] == whole

    @pytest.mark.parametrize("zeros", [6, 7])
    def test_a_header_of_more_tokens_than_its_bound_is_refused(self, zeros, tmp_path, monkeypatch):
        # HEADER holds 32 characters other than spaces, its LF included; k's
        # leading zeros add to them, and both parses refuse the same lines.
        monkeypatch.setattr(document, "_HEADER_TOKENS", 38)
        monkeypatch.setattr(document, "_WINDOW_CHARS", 2)
        monkeypatch.setattr(document, "_HEAD_BYTES", 8)
        target = tmp_path / "doc"
        target.write_bytes(HEADER.replace(b"k=", b"k=" + b"0" * zeros) + b"0\n1\n3\n2\n")
        outcome = verify_outcome(target)
        assert outcome[0] == verify_outcome(target, whole=True)[0]
        assert outcome == ((0, "valid: change-1 cycle on 4 vertices in dimension 2\n", "") if zeros == 6 else (
            1, "", "error: line 1: expected header '# k=<k> h=<h> encoding=<enc> closed=true'\n"
        ), False)

    @given(
        st.lists(st.tuples(st.integers(0, 36), st.sampled_from(PIECES), st.sampled_from([1, 2, 40])), max_size=5),
        st.sampled_from([b"0\n1\n3\n2\n", b"", b"0\n1\xff\n", b"0\v\n1\n", b"x\n"]),
        st.sampled_from([4, 20, 33, 36]),
        st.sampled_from([1, 2, 7, 64]),
        st.sampled_from([1, 37, 1 << 12]),
    )
    # The rest past the bound opens with the end of a character, or with
    # the LF after a CR, that the block before it starts.
    @example([(32, "\u3000".encode(), 5), (33, b"\v", 40)], b"0\n1\n3\n2\n", 10, 2, 37)
    @example([(35, b"\r", 1), (0, b"x", 40)], b"0\n1\n3\n2\n", 30, 1, 36)
    def test_a_header_line_past_its_bound_gets_the_whole_document_verdict(
        self, changes, rows, bound, window, head
    ):
        # Pieces put into the header line, some many times over: a byte
        # that is not UTF-8 or stray whitespace in the part no longer held
        # is named as the whole-document parse names it.
        line = bytearray(HEADER)
        for at, piece, times in changes:
            line[at:at] = piece * times
        data = bytes(line) + rows
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
            document, _HEADER_TOKENS=bound, _WINDOW_CHARS=window, _HEAD_BYTES=head
        ):
            target = Path(tmp) / "doc"
            target.write_bytes(data)
            outcome = verify_outcome(target)[0]
            assert outcome == verify_outcome(target, whole=True)[0]
        # Both parses share the header loop; past the bound, what the
        # document holds of faults is found by a decode of it and one search.
        first = data[:data.find(b"\n") + 1 or len(data)].decode(errors="replace")
        if len(first) - first.count(" ") - first.count("\t") > bound:
            refusal = "error: line 1: expected header '# k=<k> h=<h> encoding=<enc> closed=true'\n"
            assert outcome == (1, "", stray_fault(data) or refusal)

    @pytest.mark.parametrize("h", ["0", "-3"])
    @pytest.mark.parametrize("rows", [b"0\n1\n3\n2\n", b"0\nx\n3\n2\n"], ids=["valid", "bad-row"])
    def test_a_step_size_below_1_is_refused_before_reading(self, h, rows, capsys, tmp_path, monkeypatch):
        # Such a flag once sent the whole file to be parsed, only to be
        # refused after it, and a document at fault was refused for its fault.
        monkeypatch.setattr(document, "_WINDOW_CHARS", 2)
        target = tmp_path / "doc"
        target.write_bytes(HEADER + rows)
        refuse = mock.Mock(side_effect=AssertionError("the document was read"))
        with mock.patch.multiple(cli, read_cycle=refuse, parse_document=refuse):
            outcome = run(capsys, "verify", str(target), "--h", h)
        assert outcome == (1, "", f"error: step size must be a positive integer, got {h}\n")
        assert not refuse.called

    @pytest.mark.parametrize("lead", [b"x", b"0", b"\x00"])
    def test_text_led_by_any_ascii_byte_streams(self, lead, tmp_path):
        # Only "#" once streamed; parse_document reads any text whose first
        # character is neither "{" nor whitespace as the text form.
        target = tmp_path / "doc"
        target.write_bytes(lead + HEADER + b"0\n1\n3\n2\n")
        outcome, parsed_whole = verify_outcome(target)
        assert outcome == verify_outcome(target, whole=True)[0]
        assert outcome[:2] == (1, "") and not parsed_whole

    @pytest.mark.parametrize(
        ("data", "whole"),
        [
            (HEADER + b"0\n1\n3\n2\n", False),
            (JSON_INTS, False),
            (b'{"k": 2, "h": 1, "encoding": "ints", "cycle": [0, 1, 3, 2], "closed": true}\n', True),
        ],
        ids=["text", "json", "json-spaced"],
    )
    @pytest.mark.parametrize("flags", [(), ("--h", "3")])
    def test_a_pipe_reads_as_a_file(self, data, whole, flags, tmp_path):
        # A pipe cannot seek, so verify holds its bytes once and reads them
        # as a file: the outcome must be that of the same bytes in a
        # regular file, and only JSON off the renderer's shape is parsed whole.
        target = tmp_path / "doc"
        target.write_bytes(data)
        read, write = os.pipe()
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)  # within the pipe's buffer
        try:
            piped = verify_outcome(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert piped == (verify_outcome(target)[0], whole)

    def test_a_long_bad_path_keeps_a_bounded_report(self, capsys, tmp_path):
        # 10**6 such rows once kept 2,000,000 violations, peaking at 412 MB
        # and printing 55.7 MB; the first two lines stay as they were.
        rows = 10 ** 5
        target = tmp_path / "zeros.txt"
        target.write_bytes(HEADER + b"0\n" * rows)
        code, out, _ = run(capsys, "verify", str(target))
        lines = out.splitlines()
        assert code == 2
        assert lines[:2] == ["invalid: 200000 violation(s)", f"WrongLength at {rows}"]
        assert len(lines) == 1 + 1000 + 1 and lines[-1] == "... and 199000 more"
        report = verify_cycle(VertexPath(2, (0,) * rows), 1)
        assert (report.total, len(report.violations)) == (200000, 1000)
        assert lines[1:-1] == list(map(str, report.violations))

    @pytest.mark.parametrize(
        "data",
        [
            HEADER + b"0\n2" + b"y" * (1 << 20) + b"\n",
            HEADER.replace(b"ints", b"tuples") + b"0 2" + b"y" * (1 << 20) + b"\n",
            HEADER.replace(b"ints", b"y" * 60000),
            JSON_INTS.replace(b'"ints"', b'"' + b"y" * (1 << 20) + b'"'),
        ],
        ids=["ints", "tuples", "header", "json"],
    )
    def test_an_error_quotes_a_bounded_token(self, data, tmp_path):
        # A row of "2" and 40 MiB of "y" was once quoted whole, and verify
        # peaked at 265 MB; a token is now quoted to about 40 characters.
        target = tmp_path / "doc"
        target.write_bytes(data)
        outcome, _ = verify_outcome(target)
        assert outcome[:2] == (1, "") and len(outcome[2].encode()) < 200
        assert outcome[2].endswith("y" * 30 + "...\n")
        assert outcome == verify_outcome(target, whole=True)[0]

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("render", [render_text, render_json])
    def test_verify_holds_one_window(self, render, encoding, capsys, tmp_path, monkeypatch):
        # Reading the whole file and its tuple of codes cost 46 B/vertex
        # for text ints; the tuple alone is over 8. As in
        # test_output_holds_one_chunk, the second call is measured.
        k = 14
        monkeypatch.setattr(document, "_WINDOW_CHARS", 1 << 9)
        monkeypatch.setattr(document, "_HEAD_BYTES", 1 << 6)
        target = tmp_path / "cycle.txt"
        target.write_text(render(CycleDocument(1, encoding, construct(k, 1).path)))
        assert main(["verify", str(target)]) == 0
        tracemalloc.start()
        try:
            code = main(["verify", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak < 8 << k

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("render", [render_text, render_json])
    def test_a_small_document_gets_a_buffer_of_its_size(self, render, encoding, capsys, tmp_path):
        # The read buffer was a block and a quarter, 1.25 MiB, whatever the
        # file: 2,060 KiB for this k=4 file, and 1.2 ms where 0.1 ms does.
        target = tmp_path / "cycle.txt"
        target.write_text(render(CycleDocument(3, encoding, construct(4, 3).path)))
        assert main(["verify", str(target)]) == 0
        tracemalloc.start()
        try:
            code = main(["verify", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak < 64 << 10


def ints_document(k, h, rows, as_json):
    """The bytes of an ``ints`` document of ``rows``, each a code's text."""
    if as_json:
        return f'{{"k":{k},"h":{h},"encoding":"ints","cycle":[{",".join(rows)}],"closed":true}}\n'.encode()
    return f"# k={k} h={h} encoding=ints closed=true\n{chr(10).join(rows)}\n".encode()


@st.composite
def translate_files(draw):
    """(data, piece rows): an ``ints`` document of a closed-form cycle,
    text or JSON, whose pieces of 16 to 64 rows are translates of the
    first and many enough to be proven by rendering, with perhaps one
    piece changed."""
    piece = draw(st.sampled_from([16, 32, 64]))
    k = draw(st.integers(piece.bit_length() + 3, 10))  # 2**k >= 16 * piece
    h = draw(st.sampled_from(range(1, k, 2)))
    codes = list(construct(k, h).path.codes)
    rows = list(map(str, codes))
    at = draw(st.integers(0, len(rows) - 1))  # a row of any piece
    change = draw(st.sampled_from(["none", "digit", "leading zero", "shift past k", "token"]))
    if change == "digit":
        pos = draw(st.integers(0, len(rows[at]) - 1))
        digit = draw(st.sampled_from("0123456789".replace(rows[at][pos], "")))
        rows[at] = rows[at][:pos] + digit + rows[at][pos + 1:]
    elif change == "leading zero":
        rows[at] = "0" + rows[at]
    elif change == "shift past k":
        start = at - at % piece
        rows[start:start + piece] = [str(c ^ 1 << k) for c in codes[start:start + piece]]
    elif change == "token":
        rows[at] = draw(st.sampled_from(["x", "", "1 2", "-1", "1.0"]))
    return ints_document(k, h, rows, draw(st.booleans())), piece


class TestVerifyByRendering:
    @given(
        translate_files(),
        st.sampled_from([7, 64, 1000, 1 << 20]),
        st.sampled_from([64, 1 << 12]),
        st.sampled_from([(), ("--h", "1"), ("--h", "3")]),
    )
    def test_a_changed_translate_gets_the_whole_document_verdict(self, case, window, head, flags):
        # One digit, row or piece changed in a later piece, read in windows
        # that cut pieces anywhere: the verdict, a fault's line included,
        # is the one the whole-document parse, proving nothing, gives.
        data, piece = case
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
            document, _WINDOW_CHARS=window, _HEAD_BYTES=head
        ), mock.patch.object(core, "PIECE_CODES", piece):
            target = Path(tmp) / "doc"
            target.write_bytes(data)
            assert verify_outcome(target, *flags)[0] == verify_outcome(target, *flags, whole=True)[0]

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("window", [7, 1000, 1 << 20])
    def test_pieces_cut_by_windows_stay_on_the_route(self, as_json, window, tmp_path, monkeypatch):
        monkeypatch.setattr(document, "_WINDOW_CHARS", window)
        monkeypatch.setattr(core, "PIECE_CODES", 16)
        target = tmp_path / "doc"
        target.write_bytes(ints_document(9, 3, list(map(str, construct(9, 3).path.codes)), as_json))
        proven, int_rows = self.spied(target)
        assert proven == [True] * 31
        assert sum(int_rows) == 16

    @pytest.mark.parametrize(
        ("change", "as_json", "proven"),
        [
            # Read as code 123, where the rendered row is "123".
            ("leading zero", False, [False] + [True] * 14),
            # JSON refuses it: the windowed read stops, and json.loads
            # reads the whole text without trying the route again.
            ("leading zero", True, [False]),
            # The piece's first row is a code of 2**16 or more.
            ("shift past k", False, [True, False] + [True] * 13),
            ("shift past k", True, [True, False] + [True] * 13),
            ("token", False, [True, False]),  # the fault ends the read
            ("token", True, [True, False]),  # parsed whole, the route not tried again
        ],
    )
    def test_a_later_piece_off_the_route_is_read_as_before(self, change, as_json, proven, tmp_path):
        # At the size construct writes its translates, the piece goes to
        # the row readers, which name the line at fault as the whole parse
        # does, and the pieces after it try the route again.
        codes = construct(16, 3).path.codes
        rows = list(map(str, codes))
        if change == "leading zero":
            rows[5000] = "0" + rows[5000]
        elif change == "shift past k":
            rows[8192:12288] = [str(c ^ 1 << 16) for c in codes[8192:12288]]
        else:
            rows[9000] = "x"
        target = tmp_path / "doc"
        target.write_bytes(ints_document(16, 3, rows, as_json))
        outcome = verify_outcome(target)[0]
        assert outcome == verify_outcome(target, whole=True)[0]
        if change == "token" and not as_json:
            assert outcome == (1, "", "error: line 9002: vertex code must be ASCII digits, got 'x'\n")
        assert self.spied(target)[0] == proven

    @pytest.mark.parametrize("as_json", [False, True])
    def test_later_pieces_of_a_construct_are_proven_by_rendering(self, as_json, tmp_path):
        # 15 of the 16 pieces of a k=16 cycle are proven, and only piece 0's
        # rows reach the row reader.
        target = tmp_path / "doc"
        target.write_bytes(ints_document(16, 5, list(map(str, construct(16, 5).path.codes)), as_json))
        proven, int_rows = self.spied(target)
        assert proven == [True] * 15
        assert sum(int_rows) == 4096  # in as many windows as piece 0 spans

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("row", [1000, 5000])
    def test_a_fault_in_piece_0_or_1_costs_that_piece_alone(self, row, as_json, tmp_path):
        # Rows `row` and 40,000 swapped: piece 0 or 1 is no translate of
        # the other, and piece 9 is none. Piece 2 is tried against piece 0,
        # then piece 1, and whichever proves it is the template from then
        # on; the checker's reference is the block that template was, so
        # only blocks 0 or 1 and 9 have their lanes placed.
        codes = list(construct(16, 3).path.codes)
        codes[row], codes[40000] = codes[40000], codes[row]
        target = tmp_path / "doc"
        target.write_bytes(ints_document(16, 3, list(map(str, codes)), as_json))
        with mock.patch.object(CycleChecker, "_place", autospec=True, side_effect=CycleChecker._place) as place:
            outcome = verify_outcome(target)[0]
        assert outcome == verify_outcome(target, whole=True)[0]
        assert outcome[1].startswith("invalid: ")
        assert place.call_count == 2
        proven, int_rows = self.spied(target)
        assert proven == [False] + [True] * 7 + [False] + [True] * 6
        assert sum(int_rows) == 3 * 4096

    @pytest.mark.parametrize("as_json", [False, True])
    def test_the_checker_follows_the_readers_template(self, as_json, tmp_path):
        # Rows 5 and 10 swapped: block 0 is still a coset, so it stayed the
        # checker's reference after the reader's template moved on to piece
        # 1, and every later block had its lanes placed (k=21: 0.61 s
        # against 0.06 s aligned). Block 1 is now the only one placed.
        k, h = 17, 3
        codes = list(construct(k, h).path.codes)
        codes[5], codes[10] = codes[10], codes[5]
        target = tmp_path / "doc"
        target.write_bytes(ints_document(k, h, list(map(str, codes)), as_json))
        placed, original = [], CycleChecker._place

        def place(checker, *args):
            placed.append(checker._count)  # the index the block starts at
            return original(checker, *args)

        with mock.patch.object(CycleChecker, "_place", autospec=True, side_effect=place):
            outcome = verify_outcome(target)
        report = verify_cycle(VertexPath(k, tuple(codes)), h)
        lines = [f"invalid: {report.total} violation(s)", *map(str, report.violations)]
        assert outcome == ((2, "".join(line + "\n" for line in lines), ""), False)
        assert placed == [core.PIECE_CODES]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_a_code_past_k_in_piece_0_leaves_piece_1_the_template(self, as_json, tmp_path):
        # Row 1,000 is 2**16 + 5, so piece 0 is no template: piece 1 is,
        # the 14 pieces after it are proven by rendering and reach the
        # checker as views, and the report is the whole parse's.
        rows = list(map(str, construct(16, 3).path.codes))
        rows[1000] = str((1 << 16) + 5)
        target = tmp_path / "doc"
        target.write_bytes(ints_document(16, 3, rows, as_json))
        with mock.patch.object(CycleChecker, "feed", autospec=True, side_effect=CycleChecker.feed) as feed:
            outcome = verify_outcome(target)[0]
        assert outcome == verify_outcome(target, whole=True)[0]
        assert outcome[1].startswith("invalid: ")
        views = [call.args[1] for call in feed.call_args_list if isinstance(call.args[1], core.Translate)]
        assert len(views) == 14
        proven, int_rows = self.spied(target)
        assert proven == [False] + [True] * 14
        assert sum(int_rows) == 2 * 4096

    def test_codes_past_k_in_pieces_0_and_1_leave_the_route(self, tmp_path):
        # With neither piece 0 nor piece 1 a template, no later piece is
        # tried: the rest of the body, one window of its 390 KB, is read
        # in one call.
        rows = list(map(str, construct(16, 3).path.codes))
        rows[1000] = rows[5000] = str((1 << 16) + 5)
        target = tmp_path / "doc"
        target.write_bytes(ints_document(16, 3, rows, False))
        outcome = verify_outcome(target)[0]
        assert outcome == verify_outcome(target, whole=True)[0]
        assert outcome[1].startswith("invalid: ")
        proven, int_rows = self.spied(target)
        assert proven == [False]
        assert sum(int_rows[:-1]) == 2 * 4096 and int_rows[-1] == 14 * 4096  # one window

    @staticmethod
    def spied(target):
        """Whether each later piece of ``verify target`` was proven by
        rendering, and the rows of each window ``_int_rows`` read."""
        proven = []
        translate = body_rows.BodyRows._translate

        def spy(self, *args):
            lanes = translate(self, *args)
            proven.append(lanes is not None)
            return lanes

        with mock.patch.object(body_rows.BodyRows, "_translate", spy), \
                mock.patch.object(document, "_int_rows", wraps=document._int_rows) as int_rows:
            verify_outcome(target)
        return proven, [rows.count(b"\n") + rows.count(b",") for (rows, _), _ in int_rows.call_args_list]


def tuples_file(target, k, h, codes, as_json, crlf=False):
    """Write the ``tuples`` document of ``codes``, text or JSON, built one
    row at a time, to ``target``."""
    data = plain_document(k, h, "json" if as_json else "tuples", codes).encode()
    target.write_bytes(data.replace(b"\n", b"\r\n") if crlf else data)
    return target


def changed_tuples(codes, change):
    """``codes`` of a closed-form cycle with ``change`` made."""
    codes, n = list(codes), len(codes)
    if change == "reversed":
        codes.reverse()
    elif change.startswith("rotated"):
        by = int(change.split()[-1])
        codes = codes[by:] + codes[:by]
    elif change.startswith("flip"):
        row = {"piece 0": 100, "middle piece": n // 2 + 77, "last row": n - 1}[change[5:]]
        codes[row] ^= 1 << 3
    elif change == "swap across a piece edge":
        edge = core.PIECE_CODES
        codes[edge - 1], codes[edge] = codes[edge], codes[edge - 1]
    return codes


class TestVerifyTuplesByFlips:
    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize(
        ("k", "change"),
        [
            (17, "valid"),
            (16, "reversed"),
            (16, "rotated by 1"),
            (16, "rotated by 2048"),
            (16, "flip piece 0"),
            (17, "flip middle piece"),
            (16, "flip last row"),
            (16, "swap across a piece edge"),
            (16, "crlf"),
            (16, "cut by windows"),
        ],
    )
    def test_verdict_is_the_whole_document_verdict(self, k, change, as_json, tmp_path, monkeypatch):
        # Proving later tuples pieces by their flipped rows changes no exit
        # code, report line or error text of the whole parse.
        if change == "cut by windows":  # a window's edge in every piece
            monkeypatch.setattr(document, "_WINDOW_CHARS", 100_000)
        target = tuples_file(
            tmp_path / "doc", k, 3, changed_tuples(construct(k, 3).path.codes, change), as_json, change == "crlf"
        )
        outcome, _ = verify_outcome(target)
        assert outcome == verify_outcome(target, whole=True)[0]
        valid = change in ("valid", "reversed", "crlf", "cut by windows") or change.startswith("rotated")
        assert outcome[0] == (0 if valid else 2)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_only_piece_0_and_a_piece_at_fault_are_read_by_digits(self, as_json, tmp_path):
        # Of a valid k=17 file, only piece 0's rows reach the base-2 reader:
        # the 31 later pieces are proven by their flipped rows and reach
        # the checker as views. A flipped coordinate in piece 9 adds that
        # piece, and that piece alone, to what is read. Once every row was
        # read, at 215-325 ns a row.
        codes = list(construct(17, 3).path.codes)
        target = tmp_path / "doc"
        for fault, pieces in ((None, [0]), (9 * 4096 + 100, [0, 9])):
            if fault is not None:
                codes[fault] ^= 1 << 5
            tuples_file(target, 17, 3, codes, as_json)
            with mock.patch.object(document, "_lane_codes", wraps=document._lane_codes) as lanes, \
                    mock.patch.object(CycleChecker, "feed", autospec=True, side_effect=CycleChecker.feed) as feed:
                outcome = verify_outcome(target)[0]
            assert outcome[0] == (0 if fault is None else 2)
            assert sum(call.args[2] for call in lanes.call_args_list) == 4096 * len(pieces)
            fed = [call.args[1] for call in feed.call_args_list]
            read = [c for chunk in fed if not isinstance(chunk, core.Translate) for c in chunk]
            assert read == [c for i in pieces for c in codes[i * 4096:(i + 1) * 4096]]


# Bytes no renderer writes, so never in a proven piece or in rows a fast
# reader takes: each is found only where those are refused.
STRAY = [b"\xff", b"\xe2\x82", b"\v", b"\r", "\u3000".encode(), b"\t", b" "]


@st.composite
def stray_translate_files(draw):
    """(data, piece rows): a rendered document of a closed-form cycle in
    one of the four formats, whose pieces of 16 to 64 rows are translates
    of the first and many enough to be proven by rendering, with one or
    two of STRAY inserted into its later pieces or put in place of one of
    their bytes, and perhaps a text header at fault."""
    piece = draw(st.sampled_from([16, 32, 64]))
    k = draw(st.integers(piece.bit_length() + 3, 10))  # 2**k >= 16 * piece
    h = draw(st.sampled_from(range(1, k, 2)))
    render, encoding = draw(st.sampled_from([render_text, render_json])), draw(st.sampled_from(ENCODINGS))
    codes = construct(k, h).path.codes
    data = render(CycleDocument(h, encoding, VertexPath(k, codes))).encode()
    # Piece 1 opens where the document of piece 0 alone ends its rows.
    start = len(render(CycleDocument(h, encoding, VertexPath(k, codes[:piece]))))
    end = len(data)
    if render is render_json:
        start, end = start - len(document._JSON_TAIL) + 1, end - len(document._JSON_TAIL)
    for i in sorted(draw(st.lists(st.integers(start, end - 1), min_size=1, max_size=2)), reverse=True):
        replace = draw(st.booleans())
        data = data[:i] + draw(st.sampled_from(STRAY)) + data[i + replace:]
    if render is render_text and draw(st.booleans()):
        data = data.replace(b" closed=true", b" closed=maybe", 1)
    return data, piece


def stray_fault(data):
    """The error a text document's first byte that is not UTF-8, else its
    first stray whitespace, raises, found by decoding it whole and one
    search; None if it holds neither."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = 1 + data.count(b"\n", 0, exc.start)
        return f"error: line {line}: not UTF-8: byte {data[exc.start]:#04x}, {exc.reason}\n"
    stray = re.search(r"[^\S \t\n\r]|\r(?!\n)", text)
    if stray is None:
        return None
    line = 1 + text.count("\n", 0, stray.start())
    return f"error: line {line}: whitespace {stray.group()!r} is not a space, tab or line end\n"


class TestVerifyAsBytes:
    @given(
        stray_translate_files(),
        st.sampled_from([7, 64, 1000, 1 << 20]),
        st.sampled_from([64, 1 << 12]),
    )
    # A bad byte after stray whitespace, a cut character, a bare CR, a
    # vertical tab that str.split() would drop, and a tab in place of a
    # tuples space, which the per-line loop accepts.
    @example((render_text(CycleDocument(3, "ints", construct(9, 3).path)).encode()
              .replace(b"\n301\n", b"\n3\v01\n").replace(b"\n300\n", b"\n3\xff00\n"), 16), 7, 64)
    @example((render_text(CycleDocument(3, "ints", construct(9, 3).path)).encode()
              .replace(b"\n300\n", b"\n30\xe2\x820\n"), 16), 1000, 64)
    @example((render_text(CycleDocument(3, "ints", construct(9, 3).path)).encode()
              .replace(b"\n300\n", b"\n300\r"), 16), 64, 1 << 12)
    @example((render_text(CycleDocument(3, "ints", construct(9, 3).path)).encode()
              .replace(b"\n300\n", b"\n300\v\n"), 16), 1 << 20, 1 << 12)
    @example((render_text(CycleDocument(3, "tuples", construct(9, 3).path)).encode()
              .replace(b"\n1 1 1 1 1 1 1 1 1\n", b"\n1 1 1\t1 1 1 1 1 1\n"), 16), 7, 64)
    def test_a_stray_byte_in_a_proven_piece_gets_the_whole_document_verdict(self, case, window, head):
        # Proven pieces and rows a fast reader takes are not decoded or
        # scanned for whitespace: a byte no renderer writes, put in a later
        # piece of any format, read in blocks that cut pieces anywhere,
        # moves no fault, line number or precedence of the whole parse.
        data, piece = case
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
            document, _WINDOW_CHARS=window, _HEAD_BYTES=head
        ), mock.patch.object(core, "PIECE_CODES", piece):
            target = Path(tmp) / "doc"
            target.write_bytes(data)
            outcome = verify_outcome(target)[0]
            assert outcome == verify_outcome(target, whole=True)[0]
        fault = None if data.startswith(b"{") else stray_fault(data)
        if fault is not None:  # named as a search of the decoded text names it
            assert outcome == (1, "", fault)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("render", [render_text, render_json])
    def test_only_a_text_header_is_decoded(self, render, encoding, tmp_path):
        # Of a valid k=17 document, the body reader is fed the file's bytes,
        # and the header line of a text document is all that is decoded or
        # scanned for stray whitespace; of a JSON document, nothing is.
        text = render(CycleDocument(3, encoding, construct(17, 3).path))
        target = tmp_path / "doc"
        target.write_text(text)
        spies = {
            name: mock.patch.object(document, name, wraps=getattr(document, name))
            for name in ("decode_text", "_check_whitespace", "_stray_whitespace")
        }
        with contextlib.ExitStack() as stack:
            called = {name: stack.enter_context(spy) for name, spy in spies.items()}
            chunks = stack.enter_context(mock.patch.object(
                body_rows.BodyRows, "chunks", autospec=True, side_effect=body_rows.BodyRows.chunks
            ))
            outcome = verify_outcome(target)
        assert outcome == ((0, "valid: change-3 cycle on 131072 vertices in dimension 17\n", ""), False)
        header = [] if render is render_json else [text[:text.index("\n") + 1]]
        assert [call.args[0] for call in called["decode_text"].call_args_list] == [line.encode() for line in header]
        assert [call.args[0] for call in called["_check_whitespace"].call_args_list] == header
        assert [call.args[0] for call in called["_stray_whitespace"].call_args_list] == header
        # The body after the first 4 KiB is read from the file itself.
        ((_, lead, source, _),) = [call.args for call in chunks.call_args_list]
        assert type(lead) is bytes and len(lead) < 4096
        assert isinstance(source, io.BufferedReader) and source.name == str(target)


class TestOracle:
    def test_witness_round_trip(self, capsys):
        code, out, _ = run(capsys, "oracle", "--k", "4", "--h", "3", "--witness")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "exists: true"
        assert lines[1].startswith("nodes_explored: ")
        doc = parse_document("\n".join(lines[2:]) + "\n")
        assert verify_cycle(doc.path, 3).valid

    @pytest.mark.parametrize("fmt", ["tuples", "ints", "json"])
    def test_witness_is_the_rendered_document(self, fmt, capsys, tmp_path):
        result = oracle_exists(4, 3)
        doc = CycleDocument(3, "ints" if fmt == "ints" else "tuples", result.witness)
        rendered = (render_json if fmt == "json" else render_text)(doc)
        argv = ["oracle", "--k", "4", "--h", "3", "--witness", "--format", fmt]
        status = f"exists: true\nnodes_explored: {result.nodes_explored}\n"
        assert run(capsys, *argv) == (0, status + rendered, "")
        target = tmp_path / "witness"
        assert run(capsys, *argv, "--output", str(target)) == (0, status, "")
        assert target.read_bytes() == rendered.encode()

    def test_negative_result_exits_2(self, capsys):
        code, out, _ = run(capsys, "oracle", "--k", "5", "--h", "4")
        assert code == 2
        assert out.splitlines()[0] == "exists: false"

    def test_count_output(self, capsys):
        code, out, _ = run(capsys, "oracle", "--k", "3", "--h", "1", "--count")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "exists: true"
        assert lines[1] == "count: 6"
        assert lines[2].startswith("nodes_explored: ")

    def test_capacity_exits_1(self, capsys):
        code, _, err = run(capsys, "oracle", "--k", "13", "--h", "1")
        assert code == 1
        assert "capped" in err

    @pytest.mark.parametrize(
        "ceiling, message",
        [
            ("5", "error: dimension 6 exceeds the ceiling 5"),
            ("abc", f"error: {MAX_K_ENV} must be ASCII digits in [1, 64], got 'abc'"),
        ],
        ids=["ceiling-5", "ceiling-abc"],
    )
    def test_ceiling_comes_from_the_environment(
        self, capsys, tmp_path, monkeypatch, ceiling, message
    ):
        # The oracle once wrote a k=6 witness that verify then refused
        # under the same ceiling.
        monkeypatch.setenv(MAX_K_ENV, ceiling)
        target = tmp_path / "w.txt"
        code, out, err = run(
            capsys, "oracle", "--k", "6", "--h", "5", "--witness",
            "--format", "ints", "--output", str(target),
        )
        assert code == 1 and out == ""
        assert err.startswith(message)
        assert not target.exists()

    def test_threads_flag_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--k", "4", "--h", "3", "--threads", "2")
        assert code == 1
        assert "--threads" in err

    def test_witness_to_file(self, capsys, tmp_path):
        target = tmp_path / "witness.txt"
        code, out, _ = run(
            capsys, "oracle", "--k", "4", "--h", "1", "--witness",
            "--output", str(target),
        )
        assert code == 0
        assert "exists: true" in out
        assert verify_cycle(parse_document(target.read_text()).path, 1).valid

    def test_unwritable_output_prints_nothing_to_stdout(self, capsys, tmp_path):
        target = tmp_path / "missing" / "w.txt"
        code, out, err = run(
            capsys, "oracle", "--k", "4", "--h", "1", "--witness",
            "--output", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_output_without_witness_refused_before_search(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "oracle_exists", no_search)
        target = tmp_path / "o.txt"
        code, out, err = run(
            capsys, "oracle", "--k", "3", "--h", "1", "--output", str(target)
        )
        assert code == 1
        assert out == ""
        assert err == "error: --output needs --witness\n"
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["tuples", "ints", "json"])
    def test_format_without_witness_refused_before_search(self, fmt, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "oracle_exists", no_search)
        assert run(capsys, "oracle", "--k", "3", "--h", "1", "--format", fmt) == (
            1, "", "error: --format needs --witness\n"
        )

    def test_witness_format_defaults_to_tuples(self, capsys):
        argv = ["oracle", "--k", "4", "--h", "3", "--witness"]
        assert run(capsys, *argv) == run(capsys, *argv, "--format", "tuples")


class TestLeaper:
    def test_catalog_listing(self, capsys):
        code, out, _ = run(capsys, "leaper", "--name", "threeleaper")
        assert code == 0
        assert out == (
            "leaper: threeleaper (a=0, b=3)\n"
            "step: 9\n"
            "min_dimension: 10\n"
        )

    def test_parity_blocked_prints_never(self, capsys):
        code, out, _ = run(capsys, "leaper", "--name", "alfil")
        assert code == 0
        assert "min_dimension: never" in out

    def test_pair_with_dimension_verdict(self, capsys):
        code, out, _ = run(capsys, "leaper", "--a", "1", "--b", "2", "--k", "5")
        assert code == 2
        lines = out.splitlines()
        assert "step: 5" in lines
        assert "status: infeasible-range" in lines

    def test_feasible_dimension_exits_0(self, capsys):
        code, out, _ = run(capsys, "leaper", "--name", "knight", "--k", "6")
        assert code == 0
        assert "status: feasible" in out

    def test_unknown_name_exits_1(self, capsys):
        code, _, err = run(capsys, "leaper", "--name", "rook")
        assert code == 1
        assert "catalog" in err

    def test_requires_name_or_pair(self, capsys):
        code, _, err = run(capsys, "leaper")
        assert code == 1
        assert "--name" in err

    def test_name_and_pair_conflict(self, capsys):
        code, _, err = run(capsys, "leaper", "--name", "knight", "--a", "1", "--b", "2")
        assert code == 1

    def test_bad_dimension_prints_nothing_to_stdout(self, capsys):
        code, out, err = run(capsys, "leaper", "--a", "1", "--b", "2", "--k", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(("name", "k"), [("ferz", 2), ("alfil", 3), ("knight", 5)])
    def test_construct_gives_the_leaper_verdict(self, name, k, capsys):
        # A leaper with a+b even is blocked by parity at every k, and both
        # commands say so ahead of the range obstruction.
        construct_code, construct_out, _ = run(capsys, "construct", "--leaper", name, "--k", str(k))
        leaper_code, leaper_out, _ = run(capsys, "leaper", "--name", name, "--k", str(k))
        assert construct_code == leaper_code == 2
        verdict = [line for line in leaper_out.splitlines() if line.startswith(("status:", "detail:"))]
        assert construct_out.splitlines() == verdict


def test_main_leaves_the_environment_unchanged(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(MAX_K_ENV, raising=False)
    before = dict(os.environ)
    target = tmp_path / "cycle.txt"
    assert main(["construct", "--k", "5", "--h", "3", "--output", str(target)]) == 0
    assert main(["construct", "--k", "5", "--h", "3", "--max-k", "4"]) == 1
    assert main(["verify", str(target)]) == 0
    assert main(["verify", str(target), "--max-k", "4"]) == 1
    assert main(["oracle", "--k", "4", "--h", "3", "--witness"]) == 0
    capsys.readouterr()
    assert dict(os.environ) == before


def test_module_entry_point_runs_in_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    result = subprocess.run(
        [sys.executable, "-m", "leaper_cycles", "construct", "--k", "2", "--h", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "# k=2 h=1 encoding=tuples closed=true"
    assert result.stderr == ""


def test_usage_error_exits_1_in_subprocess():
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    result = subprocess.run(
        [sys.executable, "-m", "leaper_cycles", "construct"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1


def test_cli_imports_only_the_standard_library():
    # numpy would add to the start-up time and peak memory of every call,
    # and dataclasses loads inspect, ast and dis, 5-8 ms and 0.86 MB of it;
    # the lazily loaded readers count too.
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    script = (
        "import sys\n"
        "import leaper_cycles.cli, leaper_cycles.body_rows\n"
        "import leaper_cycles.decimal_rows, leaper_cycles.long_row\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'numpy'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_importing_the_cli_parses_no_arguments():
    # A module parses no arguments at import: the parser it builds there
    # waits for main, whatever sys.argv holds, and starts no thread.
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    script = (
        "import sys, threading\n"
        "sys.argv = ['x', '--bogus']\n"
        "import leaper_cycles.cli\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_main_builds_no_parser(monkeypatch, tmp_path):
    # The parser is built once, at import; a call only parses its argv.
    doc = str(tmp_path / "c.txt")
    assert main(["construct", "--k", "5", "--h", "3", "--output", doc]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    calls = [
        (["construct", "--k", "5", "--h", "3", "--output", doc], 0),
        (["verify", doc], 0),
        (["oracle", "--k", "4", "--h", "3"], 0),
        (["leaper", "--name", "knight"], 0),
        (["construct"], 1),
        (["--help"], 0),
    ]
    for argv, expected in calls:
        assert main(argv) == expected, argv


def test_calls_in_one_process_stay_independent(capsys, monkeypatch, tmp_path):
    # Each call reads as the same argv does in a process of its own, whatever
    # the calls before it set.
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    doc = str(tmp_path / "f.txt")
    assert main(["construct", "--k", "5", "--h", "3", "--output", doc]) == 0
    sequence = [
        ["oracle", "--k", "4", "--h", "1", "--count"],
        ["oracle", "--k", "4", "--h", "1"],
        ["construct", "--leaper", "knight", "--k", "6"],
        ["construct", "--k", "5", "--h", "3", "--format", "ints"],
        ["verify", doc, "--h", "1"],
        ["verify", doc],
        ["construct", "--k", "5"],
        ["leaper", "--a", "1", "--b", "2"],
        ["--help"],
        ["--help"],
    ]
    in_process = [run(capsys, *argv) for argv in sequence]
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    for argv, got in zip(sequence, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "leaper_cycles", *argv], capture_output=True, text=True, env=env
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 2, 0, 1, 0, 0, 0]


def test_only_a_cycle_of_translates_loads_decimal(tmp_path):
    # decimal adds 0.3-0.4 MB to the peak memory of a call, and compiling
    # the module that uses it more; an oracle witness is one piece, so it
    # loads neither. A construct of k=16 ints renders its translates by
    # them, and a verify of its file, in a process of its own, proves them
    # by the same render. tuples rows, text or JSON, are flipped, not
    # summed: a construct of k=17 and a verify of its file load neither.
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    doc, witness = str(tmp_path / "c.txt"), str(tmp_path / "w.txt")
    text, grid = str(tmp_path / "t.txt"), str(tmp_path / "t.json")
    runs = [
        [
            ["oracle", "--k", "4", "--h", "3", "--witness", "--format", "ints", "--output", witness],
            ["construct", "--k", "16", "--h", "3", "--format", "ints", "--output", doc],
        ],
        [["verify", doc]],
        [
            ["construct", "--k", "17", "--h", "3", "--format", "tuples", "--output", text],
            ["construct", "--k", "17", "--h", "3", "--format", "json", "--output", grid],
        ],
        [["verify", text]],
        [["verify", grid]],
    ]
    loaded = []
    for argvs in runs:
        script = f"""
import contextlib, io, sys
from leaper_cycles.cli import main
loaded = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {argvs!r}:
        assert main(argv) == 0, argv
        loaded.append(sorted({{"decimal", "leaper_cycles.decimal_rows"}} & sys.modules.keys()))
print(loaded)
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        loaded.append(result.stdout)
    both = "['decimal', 'leaper_cycles.decimal_rows']"
    assert loaded == [f"[[], {both}]\n", f"[{both}]\n", "[[], []]\n", "[[]]\n", "[[]]\n"]
