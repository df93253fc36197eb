"""Command-line front end: construct, verify, oracle, and leaper queries.

Exit codes separate broken invocations from negative answers so scripts
can tell them apart: 0 success, 1 usage or input error, 2 negative
mathematical result (infeasible construction, invalid cycle, or a search
that found nothing).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import stat
import sys
from collections.abc import Iterator, Sequence
from typing import IO

# construct, render_text and render_json stay bound for the bench tracer:
# test_every_name_the_bench_traces_stays_bound, ROADMAP item 1b
from .constructor import FeasibilityVerdict, construct, construct_chunks  # noqa: F401
from .document import _parse_json, decode_text, parse_document, read_cycle, render_pieces
from .document import render_json, render_text  # noqa: F401
from .leapers import LeaperSpec, leaper_by_name, leaper_feasible, leaper_step, min_dimension
from .oracle import oracle_count, oracle_exists
from .verifier import CycleChecker, VerifyReport, verify_cycle


# --format -> (the document's encoding, whether it is written as JSON)
_FORMATS = {"tuples": ("tuples", False), "ints": ("ints", False), "json": ("tuples", True)}


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
        "--format", choices=tuple(_FORMATS), default="tuples",
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
        "--format", choices=tuple(_FORMATS),
        help="witness document format (default: tuples)",
    )
    p_oracle.add_argument("--output", help="write the witness to this file")

    p_leaper = sub.add_parser("leaper", help="catalog and feasibility queries")
    p_leaper.add_argument("--name", help="catalog leaper name")
    p_leaper.add_argument("--a", type=int, help="shorter jump component")
    p_leaper.add_argument("--b", type=int, help="longer jump component")
    p_leaper.add_argument("--k", type=int, help="dimension to test")

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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


@contextlib.contextmanager
def _open_output(output: str | None) -> Iterator[IO[str]]:
    """The ``--output`` file opened for writing, or stdout.

    A new file or a regular one is written to a temporary sibling that
    replaces it only when the block ends without an error, so a failed
    run leaves the target as it was. Any other existing target, such as
    a device, is written in place.
    """
    if not output:
        yield sys.stdout
        return
    try:
        mode = os.lstat(output).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(output, "w", encoding="utf-8") as out:
            yield out
        return
    temp = f"{output}.{os.getpid()}.tmp"
    out = open(temp, "x", encoding="utf-8")
    try:
        with out:
            yield out
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, output)
    except BaseException:
        os.unlink(temp)
        raise


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = None if args.leaper is None else leaper_by_name(args.leaper)
    h = args.h if spec is None else leaper_step(spec)
    chunks = construct_chunks(args.k, h)
    if isinstance(chunks, FeasibilityVerdict):
        # A leaper's verdict names its parity obstruction first, as ``leaper`` does.
        verdict = chunks if spec is None else leaper_feasible(spec, args.k)
        print(f"status: {verdict.status.value}")
        print(f"detail: {verdict.detail}")
        return 2
    encoding, as_json = _FORMATS[args.format]
    with _open_output(args.output) as out:
        out.writelines(render_pieces(args.k, h, encoding, chunks, as_json=as_json))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.h is not None and args.h < 1:
        raise ValueError(f"step size must be a positive integer, got {args.h}")
    with open(args.input, "rb") as fh:
        if not fh.seekable():  # a pipe: hold its bytes once, to read them again
            fh = io.BytesIO(fh.read())
        cycle = read_cycle(fh)
        verdict = None if cycle is None else _check_windows(cycle, args.h)
        if verdict is None:
            # Only JSON leaves the windowed read midway; that read is not
            # tried again, nor is the window it stopped in held.
            parse = parse_document if cycle is None else _parse_json
            cycle = None
            fh.seek(0)
            doc = parse(decode_text(fh.read()))
            h = doc.h if args.h is None else args.h
            verdict = doc.path.k, h, verify_cycle(doc.path, h)
    k, h, report = verdict
    if report.valid:
        print(f"valid: change-{h} cycle on {1 << k} vertices in dimension {k}")
        return 0
    print(f"invalid: {report.total} violation(s)")
    for violation in report.violations:
        print(violation)
    if report.total > len(report.violations):
        print(f"... and {report.total - len(report.violations)} more")
    return 2


def _check_windows(
    cycle: tuple[int, int, str, Iterator[Sequence[int] | None]], h_flag: int | None
) -> tuple[int, int, VerifyReport] | None:
    """``(k, h, report)`` for the header and code chunks ``read_cycle``
    read window by window into a CycleChecker, or None if a chunk of None
    sends the document to be parsed whole."""
    k, h, _, chunks = cycle
    h = h if h_flag is None else h_flag
    checker = CycleChecker(k, h)
    for codes in chunks:
        if codes is None:
            return None
        checker.feed(codes)
        del codes  # parse the next window without this one's codes
    return k, h, checker.finish()


def _cmd_oracle(args: argparse.Namespace) -> int:
    for flag, value in (("--output", args.output), ("--format", args.format)):
        if value and not args.witness:
            raise ValueError(f"{flag} needs --witness")
    search = oracle_count if args.count else oracle_exists
    result = search(args.k, args.h)
    witness = result.witness if args.witness else None
    # Open the output first, so a refusal prints nothing.
    with _open_output(args.output if witness is not None else None) as out:
        print(f"exists: {'true' if result.exists else 'false'}")
        if result.count is not None:
            print(f"count: {result.count}")
        print(f"nodes_explored: {result.nodes_explored}")
        if witness is not None:
            encoding, as_json = _FORMATS[args.format or "tuples"]
            out.writelines(
                render_pieces(args.k, args.h, encoding, [witness.codes], as_json=as_json)
            )
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
