import importlib.util
from pathlib import Path

import leaper_cycles

BENCH_WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"

REMOVED = {
    "DimensionMismatch",
    "LeaperVerdict",
    "Vertex",
    "append_coordinate",
    "base_cycle",
    "complement",
    "complement_odd_indices",
    "flip_prefix",
    "flip_prefix_path",
    "gray_code",
    "gray_tour",
    "hamming",
    "leaper_verdict",
    "lift",
    "parity",
    "reflect_extend",
    "reverse_path",
}


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from leaper_cycles import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(leaper_cycles.__all__)


def test_all_is_sorted_without_duplicates():
    assert leaper_cycles.__all__ == sorted(set(leaper_cycles.__all__))


def test_removed_names_stay_gone():
    assert REMOVED.isdisjoint(leaper_cycles.__all__)
    assert not any(hasattr(leaper_cycles, name) for name in REMOVED)


def test_every_name_the_bench_traces_stays_bound():
    # The bench wraps functions by (module, attribute) and reads its
    # per-layer metrics from the wrappers, so an unbound name drops metrics
    # from its result line.
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH_WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    unbound = [
        f"{module}.{attr}"
        for module, names in worker.WRAPS.items()
        for attr in names
        if not hasattr(importlib.import_module(f"leaper_cycles.{module}"), attr)
    ]
    assert unbound == []
