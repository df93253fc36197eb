"""Brute-force ground truth: exhaustive search for change-h cycles.

Independent of the construction pipeline (only the core vertex model is
shared), this module decides existence and counts Hamiltonian cycles in
the change-h graph on {0,1}^k by depth-first backtracking, after two
cheap necessary-condition checks: every vertex needs degree at least two,
and the graph must be connected. It is the Cayley graph of GF(2)^k on
the h-bit flip masks, so it is connected iff the masks span GF(2)^k.

The search is anchored at the all-zeros vertex. Neighbors are tried in
ascending flip-mask order, which is pinned so that results and node
counts are reproducible. The search holds the path, a byte per vertex,
a table of the C(k,h) masks' positions and one list of the masks left
to try, so memory is O(2**k) whatever the depth. There is no pruning
inside the search: within the caps every infeasible (k, h) is refuted by
the two prechecks with 0 nodes, and every feasible existence search
reaches a cycle in exactly 2**k - 1 nodes without backtracking.

Only the branch whose first move is the smallest flip mask m0 is searched.
Permuting coordinates fixes the anchor, maps the change-h graph onto
itself, and takes any first move to any other, so every first move starts
the same number D of directed cycles. Hence a cycle exists iff the m0
branch holds one, and the C(k,h) first moves give C(k,h) * D directed
cycles, each undirected cycle counted once per direction.

A count uses the same symmetry further down the branch. The permutations
that fix every move of the path so far, set-wise, fix every vertex of it:
they permute the coordinates within each atom, a class of coordinates
that lie in exactly the same moves. Two unvisited next masks lie in one
orbit of them iff they meet every atom in equally many coordinates, so
only the smallest mask of each orbit is searched, and its directed cycles
and nodes count once per mask of the orbit:

- a permutation that fixes the moves maps the simple paths under
  ``v ^ m`` one-to-one onto those under ``v ^ sigma(m)``, and the closing
  test, a step of h bits back to the anchor, is invariant under it;
- the nodes of a count are the simple paths of the branch, whatever
  order the neighbors are tried in;
- the first cycle in ascending order lies under the smallest mask with a
  cycle, which is the smallest of its orbit, so the witness is unchanged.

Once every atom is one coordinate, no permutation but the identity fixes
the path, and the plain search takes the rest. An existence search stops
at its first cycle, so it keeps the plain search of the m0 branch.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import CapacityError, VertexPath, check_dimension

ORACLE_K_MAX = 12
COUNT_K_MAX = 4


class OracleResult(NamedTuple):
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
    found, nodes, witness = _search(k, h, count_mode=False)
    return OracleResult(bool(found), None, nodes, witness)


def oracle_count(k: int, h: int) -> OracleResult:
    """Count undirected change-h Hamiltonian cycles.

    Counts the D directed cycles whose first move is the smallest flip
    mask, searching one next mask per orbit of the coordinate permutations
    that fix the path so far and weighting it by the orbit's size. By the
    first-move symmetry every one of the C(k,h) first moves starts D of
    them, and each undirected cycle is met in both directions, so the
    count is C(k,h) * D / 2. ``nodes_explored`` is the size of that
    branch's search tree, as a plain search would push it, and the witness,
    present whenever ``exists`` is true, is the first cycle in ascending
    mask order.
    """
    _check_args(k, h, COUNT_K_MAX, "cycle counting")
    count, nodes, witness = _search(k, h, count_mode=True)
    return OracleResult(count > 0, count, nodes, witness)


def _search(k: int, h: int, *, count_mode: bool) -> tuple[int, int, VertexPath | None]:
    """The prechecks, then the search of the smallest flip mask's branch:
    (1 if a cycle exists or the undirected count, nodes, first cycle)."""
    masks = _flip_masks(k, h)
    if len(masks) < 2 or not _connected(k, masks):
        return 0, 0, None
    if count_mode:
        found, nodes, wit = _orbits(k, h, masks, (0, masks[0]))
    else:
        found, nodes, wit = _dfs(k, h, masks, count_mode=False, prefix=(0, masks[0]))
    count = len(masks) * found // 2 if count_mode else found
    return count, nodes, VertexPath(k, tuple(wit)) if wit is not None else None


def _check_args(k: int, h: int, cap: int, what: str) -> None:
    if k < 1 or h < 1:
        raise ValueError(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    check_dimension(k)
    if k > cap:
        raise CapacityError(f"{what} is capped at k <= {cap}, got k={k}")


def _flip_masks(k: int, h: int) -> list[int]:
    """All h-bit flip masks of width k, in ascending numeric order: Gosper's
    step takes a mask to the next one with as many bits."""
    masks, m = [], (1 << h) - 1
    while not m >> k:
        masks.append(m)
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    return masks


def _connected(k: int, masks: list[int]) -> bool:
    """Whether the masks span GF(2)^k: an xor-basis rank test, stopped once
    the basis holds k masks.

    The basis holds one mask per leading bit. Xoring a mask with the one at
    its leading bit clears that bit, so it joins with a new leading bit or
    reduces to 0.
    """
    basis: dict[int, int] = {}  # leading bit position + 1 -> basis mask
    for m in masks:
        while m and (b := basis.get(m.bit_length())):
            m ^= b
        if m:
            basis[m.bit_length()] = m
            if len(basis) == k:
                return True
    return False


def _orbits(
    k: int, h: int, masks: list[int], prefix: tuple[int, ...]
) -> tuple[int, int, list[int] | None]:
    """``_dfs(k, h, masks, count_mode=True, prefix=prefix)``, searching one
    next mask per orbit of the permutations within the atoms of ``prefix``.

    The atoms split every coordinate by the moves it lies in. An orbit's
    first mask in ``masks`` stands for it, and its directed cycles and
    nodes count once per mask of the orbit. Once every atom is one
    coordinate, :func:`_dfs` searches the rest.
    """
    atoms = [(1 << k) - 1]
    for u, v in zip(prefix, prefix[1:]):
        atoms = [part for a in atoms for part in (a & (u ^ v), a & ~(u ^ v)) if part]
    if len(atoms) == k:
        return _dfs(k, h, masks, count_mode=True, prefix=prefix)
    head, depth = prefix[-1], len(prefix)
    orbits: dict[tuple[int, ...], list[int]] = {}
    for m in masks:
        if head ^ m not in prefix:
            orbits.setdefault(tuple((m & a).bit_count() for a in atoms), []).append(m)
    count, nodes, witness = 0, depth - 1, None
    for orbit in orbits.values():
        path = prefix + (head ^ orbit[0],)
        if depth + 1 == 1 << k:
            found, below, cycle = int(path[-1].bit_count() == h), depth, list(path)
        else:
            found, below, cycle = _orbits(k, h, masks, path)
        count += found * len(orbit)
        nodes += (below - depth + 1) * len(orbit)  # the paths through path[-1], per mask
        if witness is None and found:
            witness = cycle
    return count, nodes, witness


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
    headroom. A pushed vertex's scan starts at the first mask. A popped
    vertex ``v`` was reached by the mask ``v ^ head``, so the head's scan
    resumes past it, over the neighbors it had not yet tried, in order.
    """
    n = 1 << k
    visited = bytearray(n)
    path = list(prefix)
    for v in prefix:
        visited[v] = 1
    nodes = len(prefix) - 1  # the anchor itself is not an explored node
    count = 0
    witness: list[int] | None = None

    resume = {m: i for i, m in enumerate(masks, 1)}  # mask -> position after it
    head, start, last = path[-1], len(prefix), n - 1
    rest = masks  # the masks still to try from head
    while True:
        for m in rest:
            if not visited[head ^ m]:
                break
        else:
            if len(path) == start:
                return (count, nodes, witness)
            v = path.pop()
            visited[v] = 0
            head = path[-1]
            rest = masks[resume[v ^ head]:]
            continue
        v = head ^ m
        nodes += 1
        if len(path) == last:
            if v.bit_count() == h:  # closing edge back to all-zeros
                if not count_mode:
                    return (1, nodes, path + [v])
                count += 1
                if witness is None:
                    witness = path + [v]
            rest = masks[resume[m]:]
            continue
        visited[v] = 1
        path.append(v)
        head = v
        rest = masks
