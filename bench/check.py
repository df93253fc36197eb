"""Output checker: judges every request of a pass after the pass has ended.

It imports nothing from ``leaper_cycles``. Cycle files are read with its
own parser and checked with numpy: length 2**k, distinct codes inside the
dimension, and every step, the closing edge included, flipping exactly h
coordinates. Verdicts of ``verify`` are compared with the violations this
module derives from the corrupted codes, in the order the CLI reports
them: length, then out-of-range and repeated vertices by index, then
steps, then the closing edge.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

_HEADER = re.compile(
    rb"#\s*k=(\d+)\s+h=(\d+)\s+encoding=(\w+)\s+closed=(true|false)\s*"
)


def violations(codes: np.ndarray, k: int, h: int) -> tuple[int, str | None]:
    """Number of violations of a change-h cycle in {0,1}^k, and the first one."""
    n = 1 << k
    found: list[str] = []
    count = 0
    if len(codes) != n:
        count += 1
        found.append(f"WrongLength at {len(codes)}")
    # Out-of-range codes and later repeats, reported by index.
    over = codes >= n
    order = np.argsort(np.where(over, n, codes), kind="stable")
    ranked = codes[order]
    repeat = np.zeros(len(codes), dtype=bool)
    repeat[order[1:]] = (ranked[1:] == ranked[:-1]) & ~over[order[1:]]
    flagged = np.flatnonzero(over | repeat)
    count += len(flagged)
    if len(flagged):
        i = int(flagged[0])
        kind = "DimensionOverflow" if over[i] else "DuplicateVertex"
        found.append(f"{kind} at {i}")
    steps = np.flatnonzero(np.bitwise_count(codes[:-1] ^ codes[1:]) != h)
    count += len(steps)
    if len(steps):
        i = int(steps[0])
        found.append(f"WrongStep at ({i}, {i + 1})")
    if len(codes) and int(codes[-1] ^ codes[0]).bit_count() != h:
        count += 1
        found.append(f"OpenEndpoints at ({len(codes) - 1}, 0)")
    return count, (found[0] if found else None)


def read_document(data: bytes) -> tuple[int, int, str, np.ndarray]:
    """Parse a document in text or JSON form into (k, h, encoding, codes)."""
    if data.lstrip()[:1] == b"{":
        obj = json.loads(data)
        k, h, encoding = obj["k"], obj["h"], obj["encoding"]
        if encoding == "ints":
            codes = np.array(obj["cycle"], dtype=np.uint64)
        else:
            codes = _pack(np.array(obj["cycle"], dtype=np.uint8), k)
        return k, h, encoding, codes
    head, _, body = data.partition(b"\n")
    match = _HEADER.fullmatch(head)
    if match is None:
        raise ValueError(f"bad header {head[:80]!r}")
    k, h, encoding = int(match[1]), int(match[2]), match[3].decode()
    tokens = body.split()
    if encoding == "ints":
        return k, h, encoding, np.array(list(map(int, tokens)), dtype=np.uint64)
    lines = [line for line in body.splitlines() if line.strip()]
    if any(len(line.split()) != k for line in lines):
        raise ValueError(f"a line does not hold {k} coordinates")
    digits = np.frombuffer(b"".join(tokens), dtype=np.uint8) - ord("0")
    if len(digits) != len(tokens) or (digits > 1).any():
        raise ValueError("coordinates must be 0 or 1")
    return k, h, encoding, _pack(digits.reshape(len(lines), k), k)


def _pack(bits: np.ndarray, k: int) -> np.ndarray:
    if bits.ndim != 2 or bits.shape[1] != k:
        raise ValueError(f"rows must hold {k} coordinates")
    shifts = np.arange(k, dtype=np.uint64)
    return (bits.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


def cycle_error(codes: np.ndarray, k: int, h: int) -> str | None:
    """Why ``codes`` is not a closed change-h Hamiltonian cycle, or None."""
    n = 1 << k
    if len(codes) != n:
        return f"{len(codes)} vertices, expected {n}"
    if (codes >= n).any():
        return "a code lies outside the dimension"
    seen = np.zeros(n, dtype=bool)
    seen[codes] = True
    if not seen.all():
        return "a vertex repeats"
    bad = np.flatnonzero(np.bitwise_count(codes ^ np.roll(codes, -1)) != h)
    if len(bad):
        return f"step {int(bad[0])} does not flip {h} coordinates"
    return None


def judge(req, record: dict | None) -> str | None:
    """Why a request's outcome is wrong, or None when it is right."""
    if record is None:
        return "unfinished"
    if record.get("raised"):
        return f"raised: {record['stderr'].strip().splitlines()[-1]}"
    try:
        return {"build": _judge_build, "verify": _judge_verify,
                "oracle": _judge_oracle}[req.kind](req, record)
    except (ValueError, KeyError, TypeError, OverflowError, OSError) as exc:
        return f"unreadable output: {exc}"


def _judge_build(req, record: dict) -> str | None:
    if record["exit"] != 0:
        return f"exit {record['exit']}"
    k, h, encoding, codes = read_document(Path(req.expect["file"]).read_bytes())
    if (k, h, encoding) != (req.k, req.h, req.expect["encoding"]):
        return f"header says k={k} h={h} encoding={encoding}"
    return cycle_error(codes, k, h)


def _judge_verify(req, record: dict) -> str | None:
    want = req.expect
    if record["exit"] != want["exit"]:
        return f"exit {record['exit']}, expected {want['exit']}"
    if "error_line" in want:
        prefix = f"error: line {want['error_line']}:"
        if not record["stderr"].startswith(prefix):
            return f"error does not start with {prefix!r}"
        return None
    lines = record["stdout"].splitlines()
    if want["count"] == 0:
        expected = (f"valid: change-{want['h']} cycle on {req.vertices} "
                    f"vertices in dimension {req.k}")
        return None if lines[:1] == [expected] else f"printed {lines[:1]}"
    got = lines[:2]
    expected = [f"invalid: {want['count']} violation(s)", want["first"]]
    return None if got == expected else f"printed {got}, expected {expected}"


def _judge_oracle(req, record: dict) -> str | None:
    want = req.expect
    if record["exit"] != (0 if want["exists"] else 2):
        return f"exit {record['exit']}"
    lines = record["stdout"].splitlines()
    if f"exists: {'true' if want['exists'] else 'false'}" not in lines[:1]:
        return f"printed {lines[:1]}"
    if "count" in want and f"count: {want['count']}" not in lines:
        return f"count is not {want['count']}"
    if want["witness"]:
        start = next((i for i, s in enumerate(lines) if s[:1] in ("#", "{")), None)
        if start is None:
            return "no witness printed"
        doc = "\n".join(lines[start:]).encode() + b"\n"
        k, h, _, codes = read_document(doc)
        if (k, h) != (req.k, req.h):
            return f"witness header says k={k} h={h}"
        return cycle_error(codes, k, h)
    return None
