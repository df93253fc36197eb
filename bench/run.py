"""Benchmark of the leaper-cycles CLI: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload build --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``build`` runs ``construct --output``,
``check`` runs ``verify`` on documents this benchmark writes from the
seed, and ``oracle`` runs the exhaustive search. Each pass runs the
workload's request list once in a fresh ``python3 worker.py`` process
that calls ``leaper_cycles.cli.main`` in-process, one request after the
other. Passes repeat until ``--seconds`` is used up, and figures are
medians over passes. Every request's output is checked after its pass,
outside the timed interval, by check.py.

Times are given at reference speed. The machine the benchmark was tuned
on is shared, and its speed drifts by a third or more from one second to
the next. So a pass times a fixed piece of pure-Python work
(``worker.reference``) before each request and after the last one, and
each request's wall time is multiplied by REF_S over the mean of the two
reference timings around it. A figure therefore reads as seconds on a
machine where the reference takes REF_S. Raw wall times are printed too.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` adds traced passes, whose spans give the per-layer metrics,
and one tracemalloc pass for the bytes-per-vertex metrics; it reports the
per-layer metrics and writes the spans of its last traced pass to
``.bench/<workload>-spans.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Without the package sources under ``src/`` the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy loads so that neither the checker nor a pass starts
# a pool of math threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import check  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_PASSES = 3
PASS_LIMIT_S = 60.0  # a pass still running after this is stopped
RUN_LIMIT_S = 165.0  # no pass may end later than this after start
MEMORY_MAX_VERTICES = 1 << 17
REF_S = 0.04  # seconds the reference work takes at the nominal speed

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "vertices_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "constructor.self_s": "s",
    "constructor.lifts": "count",
    "graycode.gray_tour_s": "s",
    "transforms.s": "s",
    "transforms.codes": "count",
    "verifier.reverify_s": "s",
    "verifier.useful_ratio": "ratio",
    "document.render_s": "s",
    "document.parse_s": "s",
    "document.parse_mb_per_s": "MB/s",
    "verifier.boundary_s": "s",
    "verifier.codes_per_s": "1/s",
    "oracle.exists_s": "s",
    "oracle.count_s": "s",
    "oracle.exists_nodes": "count",
    "oracle.count_nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "oracle.useful_ratio": "ratio",
    "core.path_bytes_per_vertex": "B",
    "constructor.peak_bytes_per_vertex": "B",
    "trace.overhead_share": "ratio",
}

# Wrapped names each per-layer metric is read from; a metric is absent
# when none of its names exists any more (see worker.WRAPS).
_CONSTRUCT = ["cli.construct"]
_TRANSFORMS = [f"constructor.{name}" for name in (
    "complement_odd_indices", "append_coordinate", "flip_prefix_path", "reverse_path")]
_REVERIFY = ["constructor.verify_cycle"]
_PARSE = ["cli.parse_document"]
_BOUNDARY = ["cli.verify_cycle"]
_EXISTS = ["cli.oracle_exists"]
_COUNT = ["cli.oracle_count"]
SOURCES = {
    "cli.self_s": ["cli.main"],
    "constructor.self_s": _CONSTRUCT,
    "constructor.lifts": ["constructor.lift"],
    "graycode.gray_tour_s": ["constructor.gray_tour", "graycode.gray_tour"],
    "transforms.s": _TRANSFORMS,
    "transforms.codes": _TRANSFORMS,
    "verifier.reverify_s": _REVERIFY,
    "verifier.useful_ratio": _REVERIFY,
    "document.render_s": ["cli.render_text", "cli.render_json"],
    "document.parse_s": _PARSE,
    "document.parse_mb_per_s": _PARSE,
    "verifier.boundary_s": _BOUNDARY,
    "verifier.codes_per_s": _BOUNDARY,
    "oracle.exists_s": _EXISTS,
    "oracle.count_s": _COUNT,
    "oracle.exists_nodes": _EXISTS,
    "oracle.count_nodes": _COUNT,
    "oracle.nodes_per_s": _EXISTS + _COUNT,
    "oracle.useful_ratio": _EXISTS,
    "core.path_bytes_per_vertex": _CONSTRUCT,
    "constructor.peak_bytes_per_vertex": _CONSTRUCT,
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LEAPER_CYCLES_MAX_K", None)  # every pass runs at the default ceiling
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = self.measure_start = time.perf_counter()
        self.scratch = ROOT / ".bench"
        self.workdir = self.scratch / f"{workload}-{os.getpid()}"
        self.env = child_env()
        self.requests: list[workloads.Request] = []
        self.attempted = 0
        self.passes = 0
        self.plain: list[dict] = []  # figures of the untraced passes
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def measured(self) -> float:
        return time.perf_counter() - self.measure_start

    def setup(self) -> float:
        """Write the inputs and start the package in a fresh process; median seconds.

        Done SETUP_REPEATS times, so that work moved into import or input
        preparation shows in ``setup_s``.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            ref = worker.reference()
            t0 = time.perf_counter()
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            self.requests = workloads.requests(self.workload, self.seed, self.workdir)
            probe = subprocess.run(
                [sys.executable, "-c",
                 f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                 "import leaper_cycles.cli"],
                env=self.env, capture_output=True, text=True, timeout=60)
            if probe.returncode != 0:
                raise RuntimeError(f"cannot import leaper_cycles:\n{probe.stderr}")
            seconds = time.perf_counter() - t0
            times.append(seconds * 2 * REF_S / (ref + worker.reference()))
        self.measure_start = time.perf_counter()
        return statistics.median(times)

    def run_pass(self, mode: str, requests: list[workloads.Request]) -> dict:
        """Run one pass in a fresh process, check its outputs, return its figures."""
        for req in requests:
            if "file" in req.expect:
                Path(req.expect["file"]).unlink(missing_ok=True)
        spec = self.workdir / "spec.json"
        results = self.workdir / "results.jsonl"
        spans = self.workdir / "spans.json"
        results.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        spec.write_text(json.dumps({
            "src": str(SRC), "mode": mode, "requests": [r.argv for r in requests],
            "results": str(results), "spans": str(spans),
        }))
        limit = max(1.0, min(PASS_LIMIT_S, RUN_LIMIT_S - self.elapsed()))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec)],
                env=self.env, capture_output=True, text=True, timeout=limit)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print(f"pass stopped after {limit:.0f} s", file=sys.stderr)
        wall = time.perf_counter() - t0
        records: dict[int, dict] = {}
        peak_kb = None
        last_ref = None
        if results.exists():
            for line in results.read_text().splitlines():
                rec = json.loads(line)
                if rec.get("done"):
                    peak_kb = rec["peak_rss_kb"]
                    last_ref = rec["reference"]
                else:
                    records[rec["i"]] = rec
        self.attempted += len(requests)
        for i, req in enumerate(requests):
            problem = check.judge(req, records.get(i))
            if problem is not None:
                self.failures.append(f"{' '.join(req.argv)}: {problem}")
        # Each request's wall time is scaled to reference speed by the mean
        # of the reference timings just before and just after it. A pass
        # that did not finish counts its whole wall time.
        refs = [records[i]["reference"] for i in sorted(records)]
        if peak_kb is None:
            scale = [REF_S / statistics.median(refs) if refs else 1.0] * len(requests)
            wall_s, run_s = wall, wall * scale[0]
        else:
            refs.append(last_ref)
            scale = [2 * REF_S / (a + b) for a, b in zip(refs, refs[1:])]
            seconds = [records[i]["seconds"] for i in range(len(requests))]
            wall_s = sum(seconds)
            run_s = sum(t * f for t, f in zip(seconds, scale))
        return {
            "run_s": run_s,
            "wall_s": wall_s,
            "scale": scale,
            "vertices": sum(r.vertices for i, r in enumerate(requests) if i in records),
            "peak_rss_mb": (peak_kb or 0) * 1024 / 1e6,
            "trace": json.loads(spans.read_text()) if spans.exists() else None,
        }

    def keep_going(self, walls: list[float], passes: int) -> bool:
        """Whether another pass fits: --seconds after setup, RUN_LIMIT_S in all."""
        if self.elapsed() + statistics.median(walls) > RUN_LIMIT_S:
            return False
        return (passes < MIN_PASSES
                or self.measured() + statistics.median(walls) <= self.seconds)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        passes, walls = [], []
        while not passes or self.keep_going(walls, len(passes)):
            t0 = time.perf_counter()
            passes.append(self.run_pass("plain", self.requests))
            walls.append(time.perf_counter() - t0)
        self.passes = len(passes)
        self.plain = passes
        return {
            "setup_s": setup_s,
            "run_s": statistics.median(p["run_s"] for p in passes),
            "vertices_per_s": statistics.median(
                p["vertices"] / p["run_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        plain, traced, walls = [], [], []
        while not traced or self.keep_going(walls, len(plain) + len(traced)):
            t0 = time.perf_counter()
            if len(plain) <= len(traced):
                plain.append(self.run_pass("plain", self.requests))
            else:
                traced.append(self.run_pass("trace", self.requests))
            walls.append(time.perf_counter() - t0)
        self.passes = len(plain) + len(traced)
        self.plain = plain
        finished = [p for p in traced if p["trace"] is not None]
        if not finished:  # every traced pass was stopped at its time limit
            return {}, list(PER_LAYER)
        layers = [layer_metrics(p["trace"]["spans"], p["scale"]) for p in finished]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_share"] = (
            statistics.median(p["run_s"] for p in traced)
            / statistics.median(p["run_s"] for p in plain) - 1)
        metrics.update(self.memory())
        last = finished[-1]["trace"]
        absent = [m for m, names in SOURCES.items() if set(last["absent"]).issuperset(names)]
        for name in absent:
            metrics.pop(name, None)
        (self.scratch / f"{self.workload}-spans.json").write_text(json.dumps(last))
        return metrics, absent

    def memory(self) -> dict[str, float]:
        """Bytes per vertex that construct retains and peaks at, from a tracemalloc pass.

        tracemalloc slows allocation about tenfold, so this pass runs only
        the construct requests of at most MEMORY_MAX_VERTICES vertices.
        """
        builds = [r for r in self.requests
                  if r.argv[0] == "construct" and r.vertices <= MEMORY_MAX_VERTICES]
        samples = []
        if builds:
            trace = self.run_pass("memory", builds)["trace"]
            samples = trace["memory"] if trace else []
            self.passes += 1
        vertices = sum(s[0] for s in samples)
        if not vertices:
            return {"core.path_bytes_per_vertex": 0.0,
                    "constructor.peak_bytes_per_vertex": 0.0}
        return {
            "core.path_bytes_per_vertex": sum(s[1] for s in samples) / vertices,
            "constructor.peak_bytes_per_vertex": sum(s[2] for s in samples) / vertices,
        }


def layer_metrics(spans: list[list], scale: list[float]) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    A span is [name, start, end, parent, request, count]; its duration is
    scaled to reference speed like its request's wall time. Self time is a
    span's duration minus the durations of its direct children; calls are
    sequential, so children never overlap.
    """
    duration = [(end - start) * scale[rid] for _, start, end, _, rid, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]

    def under_constructor(i: int) -> bool:
        while (i := spans[i][3]) >= 0:
            if spans[i][0].startswith("constructor."):
                return True
        return False

    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counted: dict[str, float] = {}
    for i, (name, _, _, _, _, count) in enumerate(spans):
        if name == "verifier.verify":
            name = "verifier.reverify" if under_constructor(i) else "verifier.boundary"
        layer = name.split(".")[0]
        total[name] = total.get(name, 0.0) + duration[i]
        own[layer] = own.get(layer, 0.0) + duration[i] - child_time[i]
        if name.startswith("oracle."):
            counted[name + ".nodes"] = counted.get(name + ".nodes", 0) + count[0]
            counted[name + ".useful"] = counted.get(name + ".useful", 0) + count[1]
        elif count is not None:
            counted[name] = counted.get(name, 0) + count

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    t, c = total.get, counted.get
    oracle_s = t("oracle.exists", 0.0) + t("oracle.count", 0.0)
    oracle_nodes = c("oracle.exists.nodes", 0) + c("oracle.count.nodes", 0)
    return {
        "cli.self_s": own.get("cli", 0.0),
        "constructor.self_s": own.get("constructor", 0.0),
        "constructor.lifts": sum(1 for s in spans if s[0] == "constructor.lift"),
        "graycode.gray_tour_s": t("graycode.gray_tour", 0.0),
        "transforms.s": t("transforms", 0.0),
        "transforms.codes": c("transforms", 0),
        "verifier.reverify_s": t("verifier.reverify", 0.0),
        "verifier.useful_ratio": ratio(c("constructor.construct", 0),
                                       c("verifier.reverify", 0)),
        "document.render_s": t("document.render", 0.0),
        "document.parse_s": t("document.parse", 0.0),
        "document.parse_mb_per_s": ratio(c("document.parse", 0) / 1e6,
                                         t("document.parse", 0.0)),
        "verifier.boundary_s": t("verifier.boundary", 0.0),
        "verifier.codes_per_s": ratio(c("verifier.boundary", 0),
                                      t("verifier.boundary", 0.0)),
        "oracle.exists_s": t("oracle.exists", 0.0),
        "oracle.count_s": t("oracle.count", 0.0),
        "oracle.exists_nodes": c("oracle.exists.nodes", 0),
        "oracle.count_nodes": c("oracle.count.nodes", 0),
        "oracle.nodes_per_s": ratio(oracle_nodes, oracle_s),
        "oracle.useful_ratio": ratio(c("oracle.exists.useful", 0),
                                     c("oracle.exists.nodes", 0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "check", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "leaper_cycles" / "cli.py").is_file():
        print(f"no package sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        setup_s = bench.setup()
        if args.trace:
            metrics, absent = bench.per_layer()
            units = PER_LAYER
        else:
            metrics, absent = bench.end_to_end(setup_s), []
            units = END_TO_END
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    failed = len(bench.failures)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={bench.passes} requests={bench.attempted} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"nproc={os.cpu_count()}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_share':36s} {failed / bench.attempted:>16.6g} ratio")
    for key in ("run_s", "wall_s"):
        print(f"  {key} of each untraced pass: "
              + " ".join(f"{p[key]:.4f}" for p in bench.plain))
    for name in absent:
        print(f"  {name:36s} {'absent':>16s}")
    for problem in bench.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
