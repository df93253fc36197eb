"""The three workloads: their request lists and the inputs they read.

A workload is a fixed list of CLI requests; one pass runs the list once.
Each request carries what the output checker needs to judge it, so the
expected results come from this file and never from ``leaper_cycles``.
The documents that ``check`` verifies are written here from the closed
form of the lifting construction, with numpy, so a regression in the
package's construction or renderers cannot change what ``check`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check

COUNT_4 = 1344  # undirected Hamiltonian cycles of the 4-cube (change-1 and change-3)


@dataclass
class Request:
    """One CLI call and what its outcome must be.

    ``kind`` selects the checker: ``build`` (a written cycle file),
    ``verify`` (exit code, violation count and first violation, or the
    line named by a parse error) or ``oracle`` (existence, count, witness).
    """

    argv: list[str]
    kind: str
    k: int
    h: int
    vertices: int
    expect: dict = field(default_factory=dict)


def requests(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Build the request list of ``workload`` and write its inputs."""
    if workload == "build":
        return _build(workdir)
    if workload == "check":
        return _check(np.random.default_rng(seed), workdir)
    if workload == "oracle":
        return _oracle(np.random.default_rng(seed))
    raise ValueError(f"unknown workload {workload!r}")


# --- build: the write path -------------------------------------------------

# (k, step flags, h, --format or None for the default tuples format)
BUILD = [
    (21, ["--h", "3"], 3, "ints"),  # base cycle plus 18 lifts
    (21, ["--h", "1"], 1, "ints"),  # gray_tour only
    (21, ["--h", "19"], 19, "ints"),  # base cycle plus 1 lift
    (20, ["--leaper", "knight"], 5, "ints"),
    (17, ["--h", "3"], 3, None),
    (16, ["--h", "15"], 15, "json"),
]


def _build(workdir: Path) -> list[Request]:
    out = []
    for i, (k, step, h, fmt) in enumerate(BUILD):
        target = workdir / f"build-{i}.{'json' if fmt == 'json' else 'txt'}"
        argv = ["construct", "--k", str(k), *step]
        if fmt is not None:
            argv += ["--format", fmt]
        argv += ["--output", str(target)]
        encoding = "ints" if fmt == "ints" else "tuples"
        out.append(Request(argv, "build", k, h, 1 << k,
                           {"file": str(target), "encoding": encoding}))
    return out


# --- check: the read path --------------------------------------------------

# (format, k, corruption). Four of the thirteen documents are corrupted and
# one is read with the wrong --h. Every document of dimension k holds the
# same 2**k lines in some order, so a pass costs the same for every seed.
CHECK = [
    ("tuples", 16, None),
    ("ints", 16, None),
    ("ints", 18, None),
    ("ints", 19, None),
    ("ints", 21, None),
    ("json-ints", 17, None),
    ("json-ints", 20, None),
    ("json-tuples", 16, None),
    ("ints", 19, "swap"),  # two rows swapped
    ("tuples", 17, "flip"),  # one coordinate flipped
    ("json-ints", 18, "cut"),  # last row cut off
    ("ints", 16, "token"),  # a bad token on one line
    ("tuples", 16, "wrong-h"),  # --h mismatch: all 2**16 steps are wrong
]


def _check(rng: np.random.Generator, workdir: Path) -> list[Request]:
    out = []
    for i, (fmt, k, corruption) in enumerate(CHECK):
        n = 1 << k
        h = int(rng.choice(np.arange(1, k, 2)))
        codes = cycle_codes(k, h)
        check_h = h
        bad_line = None
        if corruption == "swap":
            a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            codes[[a, b]] = codes[[b, a]]
        elif corruption == "flip":
            row, bit = int(rng.integers(n)), int(rng.integers(k))
            codes[row] ^= np.uint64(1 << bit)
        elif corruption == "cut":
            codes = codes[:-1]
        elif corruption == "token":
            bad_line = int(rng.integers(n))
        elif corruption == "wrong-h":
            check_h = int(rng.choice([x for x in range(1, k, 2) if x != h]))
        data = document(fmt, k, h, codes, bad_line)
        target = workdir / f"check-{i}.{'json' if fmt.startswith('json') else 'txt'}"
        target.write_bytes(data)
        argv = ["verify", str(target)]
        if corruption == "wrong-h":
            argv += ["--h", str(check_h)]
        if bad_line is not None:
            # Header is line 1, so row r sits on line r + 2.
            expect = {"exit": 1, "error_line": bad_line + 2}
        else:
            count, first = check.violations(codes, k, check_h)
            expect = {"exit": 2 if count else 0, "count": count, "first": first,
                      "h": check_h}
        out.append(Request(argv, "verify", k, check_h, len(codes), expect))
    return out


def cycle_codes(k: int, h: int) -> np.ndarray:
    """Codes of the change-h cycle of {0,1}^k that base case plus lifting builds.

    The lifting recursion unrolls to an index formula over the reflected
    Gray code g(x) = x ^ (x >> 1): with b = h + 1, M = 2**b - 1 and
    P = 2**(h-1) - 1, split j into t = j >> b and lo = j & M, reflect lo
    when t is odd, and set
    code(j) = g(t) << b | (g(lo) ^ (M if lo odd)) ^ (P if t odd).
    """
    j = np.arange(1 << k, dtype=np.uint64)
    if h == 1:
        return _gray(j)
    b = np.uint64(h + 1)
    m = np.uint64((1 << (h + 1)) - 1)
    p = np.uint64((1 << (h - 1)) - 1)
    zero, one = np.uint64(0), np.uint64(1)
    t = j >> b
    t_odd = (t & one).astype(bool)
    lo = np.where(t_odd, m - (j & m), j & m)
    low = _gray(lo) ^ np.where(lo & one, m, zero) ^ np.where(t_odd, p, zero)
    return (_gray(t) << b) | low


def _gray(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> np.uint64(1))


def document(fmt: str, k: int, h: int, codes: np.ndarray,
             bad_line: int | None = None) -> bytes:
    """Serialize ``codes`` in one of the package's document formats.

    ``fmt`` is ``tuples`` or ``ints`` (the text form) or ``json-tuples``
    or ``json-ints``. ``bad_line`` prefixes that row of an ``ints``
    document with a token no parser accepts.
    """
    encoding = fmt.removeprefix("json-")
    if fmt.startswith("json"):
        if encoding == "ints":
            cycle = ",".join(map(str, codes.tolist()))
        else:
            # Row r becomes "[b0,b1,...,bk-1]," in a fixed-width byte grid.
            grid = np.full((len(codes), 2 * k + 2), ord(","), dtype=np.uint8)
            grid[:, 0] = ord("[")
            grid[:, 1:2 * k:2] = _bits(codes, k) + ord("0")
            grid[:, 2 * k] = ord("]")
            cycle = grid.tobytes()[:-1].decode()
        return (
            f'{{"k":{k},"h":{h},"encoding":"{encoding}","cycle":[{cycle}],'
            f'"closed":true}}\n'
        ).encode()
    header = f"# k={k} h={h} encoding={encoding} closed=true\n".encode()
    if encoding == "ints":
        rows = list(map(str, codes.tolist()))
        if bad_line is not None:
            rows[bad_line] = "x" + rows[bad_line]
        return header + ("\n".join(rows) + "\n").encode()
    grid = np.full((len(codes), 2 * k), ord(" "), dtype=np.uint8)
    grid[:, 0::2] = _bits(codes, k) + ord("0")
    grid[:, -1] = ord("\n")
    return header + grid.tobytes()


def _bits(codes: np.ndarray, k: int) -> np.ndarray:
    """Coordinate matrix: row i holds the k coordinates of codes[i], leftmost first."""
    shifts = np.arange(k, dtype=np.uint64)
    return ((codes[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


# --- oracle: exhaustive search ---------------------------------------------

ORACLE_FEASIBLE = (1, 3, 5, 7, 11)


def _oracle(rng: np.random.Generator) -> list[Request]:
    witness_h = int(rng.choice(ORACLE_FEASIBLE))
    out = []
    # h=4 is blocked by parity, which the connectivity search finds;
    # h=12 leaves every vertex a single neighbour.
    for h in (*ORACLE_FEASIBLE, 4, 12):
        argv = ["oracle", "--k", "12", "--h", str(h)]
        if h == witness_h:
            argv.append("--witness")
        exists = h % 2 == 1 and h < 12
        out.append(Request(argv, "oracle", 12, h, 1 << 12,
                           {"exists": exists, "witness": h == witness_h}))
    for h in (1, 3):
        argv = ["oracle", "--k", "4", "--h", str(h), "--count"]
        out.append(Request(argv, "oracle", 4, h, 1 << 4,
                           {"exists": True, "count": COUNT_4, "witness": False}))
    return out
