"""Brute-force ground truth: exhaustive search for change-h cycles.

Independent of the construction pipeline (only the core vertex model is
shared), this module decides existence and counts Hamiltonian cycles in
the change-h graph on {0,1}^k by depth-first backtracking, after two
cheap necessary-condition checks: every vertex needs degree at least two,
and the graph must be connected. It is the Cayley graph of GF(2)^k on
the h-bit flip masks, so it is connected iff the masks span GF(2)^k.

The search is anchored at the all-zeros vertex. Neighbors are tried in
ascending flip-mask order, which is pinned so that results and node
counts are reproducible; the search stack holds one next-mask index per
depth, so memory is O(2**k) whatever the depth. There is no pruning
inside the search: within the caps every infeasible (k, h) is refuted by
the two prechecks with 0 nodes, and every feasible existence search
reaches a cycle in exactly 2**k - 1 nodes without backtracking.

Only the branch whose first move is the smallest flip mask m0 is searched.
Permuting coordinates fixes the anchor, maps the change-h graph onto
itself, and takes any first move to any other, so every first move starts
the same number D of directed cycles. Hence a cycle exists iff the m0
branch holds one, and the C(k,h) first moves give C(k,h) * D directed
cycles, each undirected cycle counted once per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import CapacityError, VertexPath, check_dimension

ORACLE_K_MAX = 12
COUNT_K_MAX = 4


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    count: int | None
    nodes_explored: int
    witness: VertexPath | None


def oracle_exists(k: int, h: int) -> OracleResult:
    """Decide by exhaustive search whether a change-h cycle exists.

    ``nodes_explored`` counts every vertex appended to the search path
    after the anchor, within the branch through the smallest flip mask.
    ``witness`` is the cycle found, present whenever ``exists`` is true.
    """
    _check_args(k, h, ORACLE_K_MAX, "existence search")
    masks = _flip_masks(k, h)
    if len(masks) < 2 or not _connected(k, masks):
        return OracleResult(False, None, 0, None)
    found, nodes, wit = _dfs(k, h, masks, count_mode=False, prefix=(0, masks[0]))
    witness = VertexPath(k, tuple(wit)) if wit is not None else None
    return OracleResult(bool(found), None, nodes, witness)


def oracle_count(k: int, h: int) -> OracleResult:
    """Count undirected change-h Hamiltonian cycles.

    Enumerates the D directed cycles whose first move is the smallest flip
    mask. By the first-move symmetry every one of the C(k,h) first moves
    starts D of them, and each undirected cycle is met in both directions,
    so the count is C(k,h) * D / 2, independent of neighbor ordering. The
    witness, present whenever ``exists`` is true, is the first cycle found.
    """
    _check_args(k, h, COUNT_K_MAX, "cycle counting")
    masks = _flip_masks(k, h)
    if len(masks) < 2 or not _connected(k, masks):
        return OracleResult(False, 0, 0, None)
    directed, nodes, wit = _dfs(k, h, masks, count_mode=True, prefix=(0, masks[0]))
    count = len(masks) * directed // 2
    witness = VertexPath(k, tuple(wit)) if wit is not None else None
    return OracleResult(count > 0, count, nodes, witness)


def _check_args(k: int, h: int, cap: int, what: str) -> None:
    if k < 1 or h < 1:
        raise ValueError(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    check_dimension(k)
    if k > cap:
        raise CapacityError(f"{what} is capped at k <= {cap}, got k={k}")


def _flip_masks(k: int, h: int) -> list[int]:
    """All h-bit flip masks of width k, in ascending numeric order."""
    if h > k:
        return []
    masks = [sum(1 << p for p in pos) for pos in combinations(range(k), h)]
    masks.sort()
    return masks


def _connected(k: int, masks: list[int]) -> bool:
    """Whether the masks span GF(2)^k: an xor-basis rank test.

    Reducing by each basis element clears its leading bit, which no later
    element has set, so a mask joins with a new leading bit or reduces to 0.
    """
    basis: list[int] = []
    for m in masks:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
    return len(basis) == k


def _dfs(
    k: int,
    h: int,
    masks: list[int],
    *,
    count_mode: bool,
    prefix: tuple[int, ...],
) -> tuple[int, int, list[int] | None]:
    """Backtracking core. Returns (found-or-count, nodes, witness codes).

    ``prefix`` is the forced start of the path: the anchor, plus the first
    move when searching a single top-level branch. Counts are of directed
    cycles, so ``prefix=(0,)`` meets every undirected cycle twice.
    Iterative, so path lengths up to 2**ORACLE_K_MAX need no recursion
    headroom. The stack holds one next-mask index per depth: when control
    returns to a depth, every deeper vertex has been popped, so scanning
    on from the index tries the neighbors unvisited on entry, in order.
    """
    n = 1 << k
    visited = bytearray(n)
    path = list(prefix)
    for v in prefix:
        visited[v] = 1
    nodes = len(prefix) - 1  # the anchor itself is not an explored node
    count = 0
    witness: list[int] | None = None

    n_masks = len(masks)
    idx = [0]  # next mask index to try, one per depth
    while idx:
        head = path[-1]
        i = idx[-1]
        while i < n_masks and visited[head ^ masks[i]]:
            i += 1
        if i == n_masks:
            idx.pop()
            if len(path) > len(prefix):
                visited[path.pop()] = 0
            continue
        idx[-1] = i + 1
        v = head ^ masks[i]
        nodes += 1
        if len(path) + 1 == n:
            if v.bit_count() == h:  # closing edge back to all-zeros
                if not count_mode:
                    return (1, nodes, path + [v])
                count += 1
                if witness is None:
                    witness = path + [v]
            continue
        visited[v] = 1
        path.append(v)
        idx.append(0)
    return (count, nodes, witness)
