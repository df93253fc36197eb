"""Constant-step Hamiltonian cycles on the vertex set {0,1}^k.

Construct closed tours whose every move flips exactly h coordinates,
decide feasibility for any (k, h) and any fairy-chess (a,b)-leaper, verify
candidate cycles, and cross-check everything against an exhaustive
backtracking oracle at small k.
"""

from .constructor import (
    CycleCertificate,
    Feasibility,
    FeasibilityVerdict,
    base_cycle,
    construct,
    feasibility,
    lift,
)
from .core import CapacityError, VertexPath, max_k
from .document import CycleDocument, DocumentError, parse_document, render_json, render_text
from .graycode import gray_tour, reflect_extend
from .leapers import (
    CATALOG,
    LeaperSpec,
    UnknownLeaperError,
    leaper_by_name,
    leaper_feasible,
    leaper_step,
    min_dimension,
)
from .oracle import OracleResult, oracle_count, oracle_exists
from .transforms import (
    append_coordinate,
    complement_odd_indices,
    flip_prefix_path,
    reverse_path,
)
from .verifier import VerifyReport, Violation, verify_cycle

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CapacityError",
    "CycleCertificate",
    "CycleDocument",
    "DocumentError",
    "Feasibility",
    "FeasibilityVerdict",
    "LeaperSpec",
    "OracleResult",
    "UnknownLeaperError",
    "VerifyReport",
    "VertexPath",
    "Violation",
    "append_coordinate",
    "base_cycle",
    "complement_odd_indices",
    "construct",
    "feasibility",
    "flip_prefix_path",
    "gray_tour",
    "leaper_by_name",
    "leaper_feasible",
    "leaper_step",
    "lift",
    "max_k",
    "min_dimension",
    "oracle_count",
    "oracle_exists",
    "parse_document",
    "reflect_extend",
    "render_json",
    "render_text",
    "reverse_path",
    "verify_cycle",
]
