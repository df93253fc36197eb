"""Command-line front end: construct, verify, oracle, and leaper queries.

Exit codes separate broken invocations from negative answers so scripts
can tell them apart: 0 success, 1 usage or input error, 2 negative
mathematical result (infeasible construction, invalid cycle, or a search
that found nothing).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import IO, ContextManager

from .constructor import CycleCertificate, construct
from .core import VertexPath
from .document import CycleDocument, DocumentError, parse_document, render_json, render_text
from .leapers import LeaperSpec, leaper_by_name, leaper_feasible, leaper_step, min_dimension
from .oracle import oracle_count, oracle_exists
from .verifier import verify_cycle


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for negative
    # mathematical results, so usage errors are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leaper-cycles",
        description="Constant-step Hamiltonian cycles on the corners of {0,1}^k.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_construct = sub.add_parser(
        "construct", help="build a verified change-h cycle"
    )
    p_construct.add_argument("--k", type=int, required=True, help="dimension")
    group = p_construct.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=int, help="coordinates flipped per step")
    group.add_argument("--leaper", help="catalog leaper name supplying h")
    p_construct.add_argument(
        "--format", choices=("tuples", "ints", "json"), default="tuples",
        help="document format (default: tuples)",
    )
    p_construct.add_argument("--output", help="write the document to this file")

    p_verify = sub.add_parser("verify", help="check a cycle document")
    p_verify.add_argument("input", help="path of the document to verify")
    p_verify.add_argument(
        "--h", type=int, help="expected step size (default: the header's h)"
    )

    p_oracle = sub.add_parser(
        "oracle", help="exhaustive search for change-h cycles"
    )
    p_oracle.add_argument("--k", type=int, required=True, help="dimension")
    p_oracle.add_argument("--h", type=int, required=True, help="step size")
    p_oracle.add_argument(
        "--count", action="store_true", help="count undirected cycles"
    )
    p_oracle.add_argument(
        "--witness", action="store_true", help="emit a found cycle as a document"
    )
    p_oracle.add_argument(
        "--format", choices=("tuples", "ints", "json"), default="tuples",
        help="witness document format (default: tuples)",
    )
    p_oracle.add_argument("--output", help="write the witness to this file")

    p_leaper = sub.add_parser("leaper", help="catalog and feasibility queries")
    p_leaper.add_argument("--name", help="catalog leaper name")
    p_leaper.add_argument("--a", type=int, help="shorter jump component")
    p_leaper.add_argument("--b", type=int, help="longer jump component")
    p_leaper.add_argument("--k", type=int, help="dimension to test")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "construct": _cmd_construct,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "leaper": _cmd_leaper,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # the library's errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _render(h: int, path: VertexPath, fmt: str) -> str:
    doc = CycleDocument(h, "ints" if fmt == "ints" else "tuples", path)
    return render_json(doc) if fmt == "json" else render_text(doc)


def _open_output(output: str | None) -> ContextManager[IO[str]]:
    """The ``--output`` file opened for writing, or stdout."""
    if output:
        return open(output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.leaper is not None:
        h = leaper_step(leaper_by_name(args.leaper))
    else:
        h = args.h
    result = construct(args.k, h)
    if not isinstance(result, CycleCertificate):
        print(f"status: {result.status.value}")
        print(f"detail: {result.detail}")
        return 2
    text = _render(h, result.path, args.format)
    with _open_output(args.output) as out:
        out.write(text)
    return 0


def _read_text(path: str) -> str:
    """A file's UTF-8 text, lines unchanged; a bad byte is reported by line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DocumentError(
            f"line {lineno}: not UTF-8: byte {data[exc.start]:#04x}, {exc.reason}"
        ) from None


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = parse_document(_read_text(args.input))
    h = doc.h if args.h is None else args.h
    report = verify_cycle(doc.path, h)
    if report.valid:
        print(
            f"valid: change-{h} cycle on {len(doc.path)} vertices "
            f"in dimension {doc.path.k}"
        )
        return 0
    print(f"invalid: {len(report.violations)} violation(s)")
    for violation in report.violations:
        print(violation)
    return 2


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.output and not args.witness:
        raise ValueError("--output needs --witness")
    search = oracle_count if args.count else oracle_exists
    result = search(args.k, args.h)
    # Render and open the output first, so a refusal prints nothing.
    witness = None
    if args.witness and result.witness is not None:
        witness = _render(args.h, result.witness, args.format)
    with _open_output(args.output if witness else None) as out:
        print(f"exists: {'true' if result.exists else 'false'}")
        if result.count is not None:
            print(f"count: {result.count}")
        print(f"nodes_explored: {result.nodes_explored}")
        if witness:
            out.write(witness)
    return 0 if result.exists else 2


def _cmd_leaper(args: argparse.Namespace) -> int:
    if args.name is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("give either --name or --a/--b, not both")
        spec = leaper_by_name(args.name)
    elif args.a is not None and args.b is not None:
        spec = LeaperSpec(args.a, args.b)
    else:
        raise ValueError("give --name, or both --a and --b")
    verdict = None if args.k is None else leaper_feasible(spec, args.k)
    print(f"leaper: {spec.label()}")
    print(f"step: {leaper_step(spec)}")
    k_min = min_dimension(spec)
    print(f"min_dimension: {'never' if k_min is None else k_min}")
    if verdict is None:
        return 0
    print(f"k: {args.k}")
    print(f"status: {verdict.status.value}")
    print(f"detail: {verdict.detail}")
    return 0 if verdict.feasible else 2


if __name__ == "__main__":
    sys.exit(main())
