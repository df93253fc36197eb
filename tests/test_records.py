"""The eight record classes: how each is built, shown, compared, copied
and refused. ``VertexPath`` is a slotted class whose ``len`` is its code
count; the other seven are NamedTuples, so each also equals the tuple of
its fields."""

import copy
import pickle
import tracemalloc

import pytest

from leaper_cycles.constructor import CycleCertificate, Feasibility, FeasibilityVerdict
from leaper_cycles.core import VertexPath
from leaper_cycles.document import CycleDocument
from leaper_cycles.leapers import LeaperSpec
from leaper_cycles.oracle import OracleResult
from leaper_cycles.verifier import Violation, VerifyReport

PATH = VertexPath(2, (0, 1, 3, 2))
FAULT = Violation("WrongStep", (3, 4))

# class, fields by name, and the repr the dataclasses of the same names wrote
RECORDS = [
    (VertexPath, {"k": 2, "codes": (0, 1, 3, 2)}, "VertexPath(k=2, codes=(0, 1, 3, 2))"),
    (Violation, {"kind": "WrongStep", "where": (3, 4)}, "Violation(kind='WrongStep', where=(3, 4))"),
    (Violation, {"kind": "WrongLength", "where": 5}, "Violation(kind='WrongLength', where=5)"),
    (
        VerifyReport,
        {"valid": False, "violations": (FAULT,), "total": 1},
        "VerifyReport(valid=False, violations=(Violation(kind='WrongStep', where=(3, 4)),), total=1)",
    ),
    (
        FeasibilityVerdict,
        {"status": Feasibility.FEASIBLE, "detail": "ok"},
        "FeasibilityVerdict(status=<Feasibility.FEASIBLE: 'feasible'>, detail='ok')",
    ),
    (
        CycleCertificate,
        {"h": 1, "path": PATH},
        "CycleCertificate(h=1, path=VertexPath(k=2, codes=(0, 1, 3, 2)))",
    ),
    (
        OracleResult,
        {"exists": True, "count": 1, "nodes_explored": 3, "witness": PATH},
        "OracleResult(exists=True, count=1, nodes_explored=3, witness=VertexPath(k=2, codes=(0, 1, 3, 2)))",
    ),
    (
        OracleResult,
        {"exists": False, "count": None, "nodes_explored": 7, "witness": None},
        "OracleResult(exists=False, count=None, nodes_explored=7, witness=None)",
    ),
    (LeaperSpec, {"a": 1, "b": 2, "name": None}, "LeaperSpec(a=1, b=2, name=None)"),
    (LeaperSpec, {"a": 1, "b": 2, "name": "knight"}, "LeaperSpec(a=1, b=2, name='knight')"),
    (
        CycleDocument,
        {"h": 1, "encoding": "ints", "path": PATH},
        "CycleDocument(h=1, encoding='ints', path=VertexPath(k=2, codes=(0, 1, 3, 2)))",
    ),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(RECORDS)]


@pytest.mark.parametrize(("cls", "fields", "text"), RECORDS, ids=IDS)
def test_a_record_is_built_shown_and_compared_by_its_fields(cls, fields, text):
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == text and cls.__match_args__ == tuple(fields)
    twin = cls(*copy.deepcopy(list(fields.values())))
    assert twin is not record and twin == record and hash(twin) == hash(record)
    if cls is VertexPath:
        assert record != tuple(fields.values())
    else:
        assert record == tuple(fields.values()) and tuple(record) == tuple(fields.values())


@pytest.mark.parametrize(("cls", "fields", "text"), RECORDS, ids=IDS)
def test_a_record_is_read_only(cls, fields, text):
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize(("cls", "fields", "text"), RECORDS, ids=IDS)
def test_a_record_copies_and_pickles_to_an_equal_record(cls, fields, text):
    record = cls(**fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == text


def test_a_leaper_name_defaults_to_none():
    assert LeaperSpec(1, 2).name is None
    assert LeaperSpec(1, 2) == LeaperSpec(a=1, b=2) == LeaperSpec(1, 2, None)


@pytest.mark.parametrize(
    ("build", "text"),
    [
        (lambda: VertexPath(0, ()), "path dimension must be positive, got 0"),
        (lambda: LeaperSpec(-1, 1), r"need a >= 0 and b >= 1, got \(-1,1\)"),
        (lambda: LeaperSpec(a=2, b=1), r"leaper components must satisfy a <= b, got \(2,1\)"),
        (lambda: CycleDocument(1, "hex", PATH), r"encoding must be one of \('tuples', 'ints'\)"),
        (lambda: LeaperSpec(1, 2)._replace(a=3), r"leaper components must satisfy a <= b, got \(3,2\)"),
        (lambda: CycleDocument(1, "ints", PATH)._replace(encoding="hex"), "encoding must be one of .*"),
    ],
    ids=["path-k", "leaper-range", "leaper-order", "document-encoding", "leaper-replace", "document-replace"],
)
def test_a_record_refuses_bad_fields_with_the_same_text(build, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        build()


def test_a_path_has_its_code_count_as_len_and_does_not_iterate():
    assert len(PATH) == 4
    with pytest.raises(TypeError):
        iter(PATH)


def test_a_large_path_copies_without_its_codes():
    # A NamedTuple path that kept len as its code count peaked at 33.6 MB
    # here: copy sizes a tuple's result by len.
    path = VertexPath(22, (0,) * (1 << 22))
    tracemalloc.start()
    try:
        twin = copy.copy(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert twin.codes is path.codes and peak < 1 << 20
