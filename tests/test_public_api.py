import leaper_cycles

REMOVED = {
    "DimensionMismatch",
    "LeaperVerdict",
    "Vertex",
    "complement",
    "flip_prefix",
    "gray_code",
    "hamming",
    "leaper_verdict",
    "parity",
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
