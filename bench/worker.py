"""One pass of a workload, run in a fresh process: ``python3 worker.py SPEC``.

SPEC is a JSON file naming the package source directory, the mode, the
request list and two output files. The pass calls
``leaper_cycles.cli.main(argv)`` for each request in turn, a closed loop
with one client, and appends one JSON line per finished request to the
results file, so a pass stopped at its time limit still shows which
requests finished. The last line holds the process's peak RSS.

Modes:

``plain``
    Nothing is wrapped; this pass gives the end-to-end figures.
``trace``
    The public functions bound in the ``cli``, ``constructor`` and
    ``graycode`` namespaces are wrapped. Each call records a span
    (name, start, end, parent, request id, count) in memory, and the
    spans are written out when the pass ends. A wrapped name that a
    module no longer defines is skipped and listed as absent.
``memory``
    ``cli.construct`` runs under ``tracemalloc``, which records the bytes
    its result retains and the peak it reached. This mode has its own
    pass so that its overhead stays out of every time metric.

This file imports no numpy and starts no threads.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback
import tracemalloc
from pathlib import Path


def _length(args, result):
    return len(args[0])


def _result_length(args, result):
    return len(result)


def _built(args, result):
    path = getattr(result, "path", None)
    return 0 if path is None else len(path)


def _searched(args, result):
    # Nodes explored, and 2**k - 1 for a search that found a cycle: the
    # fewest nodes any search that finds one can explore.
    return [result.nodes_explored, (1 << args[0]) - 1 if result.exists else 0]


# module -> {attribute: (span name, count taken from (args, result))}
WRAPS = {
    "cli": {
        "main": ("cli.main", None),
        "construct": ("constructor.construct", _built),
        "render_text": ("document.render", None),
        "render_json": ("document.render", None),
        "parse_document": ("document.parse", _length),
        "verify_cycle": ("verifier.verify", _length),
        "oracle_exists": ("oracle.exists", _searched),
        "oracle_count": ("oracle.count", _searched),
    },
    "constructor": {
        "base_cycle": ("constructor.base_cycle", None),
        "lift": ("constructor.lift", None),
        "gray_tour": ("graycode.gray_tour", None),
        "complement_odd_indices": ("transforms", _result_length),
        "append_coordinate": ("transforms", _result_length),
        "flip_prefix_path": ("transforms", _result_length),
        "reverse_path": ("transforms", _result_length),
        "verify_cycle": ("verifier.verify", _length),
    },
    "graycode": {
        "gray_tour": ("graycode.gray_tour", None),
    },
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1

    def wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.request, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced


def install_tracer(tracer: Tracer) -> list[str]:
    """Wrap every name in WRAPS that its module defines; return the absent ones."""
    absent = []
    for module_name, names in WRAPS.items():
        module = importlib.import_module(f"leaper_cycles.{module_name}")
        for attr, (span, count) in names.items():
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{module_name}.{attr}")
            else:
                setattr(module, attr, tracer.wrap(fn, span, count))
    return absent


def install_memory_probe(cli, samples: list[list[int]]) -> None:
    construct = cli.construct

    def probed(*args, **kwargs):
        tracemalloc.start()
        try:
            result = construct(*args, **kwargs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        samples.append([_built(args, result), retained, peak])
        return result

    cli.construct = probed


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    Passes time it before every request and after the last one, so each
    request's wall time can be set against the machine's speed at that
    moment: on a shared machine that speed drifts by a third or more.
    The work (tuples of Gray codes, popcounts, text formatting and
    splitting) resembles what the package does.
    """
    start = time.perf_counter()
    codes = tuple(j ^ (j >> 1) for j in range(1 << 16))
    steps = sum((a ^ b).bit_count() for a, b in zip(codes, codes[1:]))
    text = "\n".join(map(str, codes))
    if len(text.split()) + steps <= 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB (Linux).

    Not ``ru_maxrss``: Linux carries the parent's high-water mark into a
    child across fork and exec, so that would report the benchmark's own
    memory whenever it exceeds the pass's.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from leaper_cycles import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"imported {cli.__file__}, not the package under {src}",
              file=sys.stderr)
        return 1

    tracer = Tracer()
    absent: list[str] = []
    samples: list[list[int]] = []
    if spec["mode"] == "trace":
        absent = install_tracer(tracer)
    elif spec["mode"] == "memory":
        install_memory_probe(cli, samples)
    run = cli.main

    with open(spec["results"], "w", encoding="utf-8") as results:
        for i, argv in enumerate(spec["requests"]):
            tracer.request = i
            ref = reference()
            out, err = io.StringIO(), io.StringIO()
            raised = False
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except Exception:  # a crash fails this request, not the pass
                    raised = True
                    code = None
                    traceback.print_exc()
            seconds = time.perf_counter() - start
            results.write(json.dumps({
                "i": i, "exit": code, "raised": raised, "seconds": seconds,
                "reference": ref,
                "stdout": out.getvalue(), "stderr": err.getvalue(),
            }) + "\n")
            results.flush()
        results.write(json.dumps({"done": True, "peak_rss_kb": peak_rss_kb(),
                                  "reference": reference()}) + "\n")

    if spec["mode"] != "plain":
        Path(spec["spans"]).write_text(json.dumps(
            {"absent": absent, "spans": tracer.spans, "memory": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
