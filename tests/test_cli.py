import os
import subprocess
import sys
from pathlib import Path

import pytest

from leaper_cycles.cli import main
from leaper_cycles.core import MAX_K_ENV
from leaper_cycles.document import parse_document
from leaper_cycles.verifier import verify_cycle

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

    def test_malformed_body_reports_line(self, capsys, tmp_path):
        target = tmp_path / "bad.txt"
        target.write_text("# k=2 h=1 encoding=tuples closed=true\n0 0\n0 x\n")
        code, _, err = run(capsys, "verify", str(target))
        assert code == 1
        assert "line 3" in err

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


class TestOracle:
    def test_witness_round_trip(self, capsys):
        code, out, _ = run(capsys, "oracle", "--k", "4", "--h", "3", "--witness")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "exists: true"
        assert lines[1].startswith("nodes_explored: ")
        doc = parse_document("\n".join(lines[2:]) + "\n")
        assert verify_cycle(doc.path, 3).valid

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
